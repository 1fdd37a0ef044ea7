import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from webfem.geometry import (
    CellLabel, Disk, ImplicitDomain, box, classify_cells,
)
from webfem.quadrature import QuadratureError, build_quadrature
from webfem.splines import TensorGrid, graded_knots, uniform_knots

from oracles import cell_rule, grid_cell_bounds, integrate
from strategies import r_trees


def disk_setup(n_cells=18, g=3, depth=6):
    kv = uniform_knots(-1.125, 1.125, n_cells, 2)
    grid = TensorGrid(kv, kv)
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    cls = classify_cells(dom, grid)
    return dom, grid, cls


class TestCellRule:
    def test_polynomial_exactness(self):
        # g Gauss points integrate degree 2g-1 exactly
        for g in (1, 2, 3, 4):
            pts, w = cell_rule((0.2, -0.3), (0.9, 0.4), g)
            for dx in range(2 * g):
                for dy in range(2 * g):
                    val = np.sum(w * pts[:, 0] ** dx * pts[:, 1] ** dy)
                    exact = ((0.9 ** (dx + 1) - 0.2 ** (dx + 1)) / (dx + 1)
                             * (0.4 ** (dy + 1) - (-0.3) ** (dy + 1)) / (dy + 1))
                    assert val == pytest.approx(exact, rel=1e-13, abs=1e-15)

    def test_weights_positive_points_inside(self):
        pts, w = cell_rule((0.0, 0.0), (1.0, 2.0), 3)
        assert np.all(w > 0)
        assert np.all((pts[:, 0] > 0) & (pts[:, 0] < 1))
        assert np.all((pts[:, 1] > 0) & (pts[:, 1] < 2))


class TestIntegrate:
    def test_disk_area(self):
        # h = 2.25/18 = 0.125, g = 3, depth 6: relative error under 1e-3
        dom, grid, cls = disk_setup()
        area = integrate(dom, grid, cls, lambda p: np.ones(p.shape[0]))
        assert area == pytest.approx(np.pi, rel=1e-3)

    def test_aligned_box_exact(self):
        kv = uniform_knots(0.0, 1.0, 4, 1)
        grid = TensorGrid(kv, kv)
        dom = ImplicitDomain(box([0.25, 0.25], [0.75, 0.75]))
        cls = classify_cells(dom, grid)
        area = integrate(dom, grid, cls, lambda p: np.ones(p.shape[0]), g=2, depth=4)
        assert area == pytest.approx(0.25, abs=1e-13)

    def test_smooth_bump_exact_value(self):
        # int over unit disk of (1-|x|^2)^2 = 2*pi*int_0^1 (1-r^2)^2 r dr = pi/3
        dom, grid, cls = disk_setup()
        val = integrate(dom, grid, cls,
                        lambda p: (1.0 - p[:, 0] ** 2 - p[:, 1] ** 2) ** 2)
        assert val == pytest.approx(np.pi / 3, rel=1e-3)

    def test_linearity(self):
        dom, grid, cls = disk_setup(n_cells=9, depth=4)
        quad = build_quadrature(dom, grid, cls, 3, 4)
        f = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2
        g_ = lambda p: np.exp(p[:, 0] * p[:, 1])
        lhs = quad.integrate(lambda p: 2.0 * f(p) + 3.0 * g_(p))
        rhs = 2.0 * quad.integrate(f) + 3.0 * quad.integrate(g_)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positivity(self):
        dom, grid, cls = disk_setup(n_cells=9, depth=4)
        val = integrate(dom, grid, cls, lambda p: p[:, 0] ** 2, g=2, depth=4)
        assert val > 0

    def test_subdivision_convergence(self):
        dom, grid, cls = disk_setup(n_cells=9)
        errors = []
        for depth in (3, 4, 5, 6):
            area = integrate(dom, grid, cls, lambda p: np.ones(p.shape[0]),
                             g=3, depth=depth)
            errors.append(abs(area - np.pi))
        for e0, e1 in zip(errors, errors[1:]):
            assert e1 <= 0.6 * e0

    def test_nonfinite_integrand_reported(self):
        dom, grid, cls = disk_setup(n_cells=9, depth=3)
        def bad(p):
            v = np.ones(p.shape[0])
            v[p[:, 0] > 0.3] = np.nan
            return v
        with pytest.raises(QuadratureError, match="quadrature point") as err:
            integrate(dom, grid, cls, bad, g=2, depth=3)
        # the point reads as plain floats, also under numpy 2
        assert "np.float64" not in str(err.value)

    def test_exterior_cells_skipped(self):
        dom, grid, cls = disk_setup(n_cells=9, depth=3)
        quad = build_quadrature(dom, grid, cls, 2, 3)
        # no quadrature point may lie in an exterior cell
        from webfem.geometry import CellLabel
        ny = grid.num_cells[1]
        for cid in np.unique(quad.cell_ids):
            jx, jy = divmod(int(cid), ny)
            assert cls.labels[jx, jy] != CellLabel.EXTERIOR

    def test_determinism(self):
        dom, grid, cls = disk_setup(n_cells=9)
        q1 = build_quadrature(dom, grid, cls, 3, 5)
        q2 = build_quadrature(dom, grid, cls, 3, 5)
        assert np.array_equal(q1.points, q2.points)
        assert np.array_equal(q1.weights, q2.weights)


def batch_order(ids):
    """Stable order that lists the runs of a cell-by-cell rule with cell ids
    ``ids`` by (point count, cell id), the order of ``build_quadrature``."""
    _, inv, counts = np.unique(ids, return_inverse=True, return_counts=True)
    return np.lexsort((ids, counts[inv]))


def reference_quadrature(domain, grid, cls, g, depth, g_leaf=None):
    """Cell-by-cell rule: each boundary cell subdivided on its own, one
    ``cell_rule`` call per kept leaf (the loop the batched rule replaced)."""
    g_leaf = g if g_leaf is None else g_leaf
    corner_frac = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],
                            [0.5, 0.5]])

    def subdivide_cell(lo, hi):
        pts_out, wts_out = [], []
        boxes = np.array([[lo[0], lo[1], hi[0], hi[1]]])
        for level in range(depth + 1):
            lo_b = boxes[:, :2]
            size = boxes[:, 2:] - lo_b
            sample = lo_b[:, None, :] + corner_frac[None, :, :] * size[:, None, :]
            vals = domain.phi(sample.reshape(-1, 2)).reshape(-1, 5)
            if level == depth:
                inside = np.nonzero(vals[:, 4] > 0.0)[0]
                straddle = np.empty(0, dtype=int)
            else:
                all_pos = np.all(vals > 0.0, axis=1)
                all_neg = np.all(vals < 0.0, axis=1)
                inside = np.nonzero(all_pos)[0]
                straddle = np.nonzero(~(all_pos | all_neg))[0]
            for b in inside:
                p, w = cell_rule(lo_b[b], boxes[b, 2:], g_leaf)
                pts_out.append(p)
                wts_out.append(w)
            if straddle.size == 0:
                break
            sb = boxes[straddle]
            mid = 0.5 * (sb[:, :2] + sb[:, 2:])
            boxes = np.concatenate([
                np.column_stack([sb[:, 0], sb[:, 1], mid[:, 0], mid[:, 1]]),
                np.column_stack([mid[:, 0], sb[:, 1], sb[:, 2], mid[:, 1]]),
                np.column_stack([sb[:, 0], mid[:, 1], mid[:, 0], sb[:, 3]]),
                np.column_stack([mid[:, 0], mid[:, 1], sb[:, 2], sb[:, 3]]),
            ], axis=0)
        if pts_out:
            return np.vstack(pts_out), np.concatenate(wts_out)
        return np.empty((0, 2)), np.empty(0)

    nx, ny = grid.num_cells
    pts, wts, ids = [], [], []
    for jx in range(nx):
        for jy in range(ny):
            lab = cls.labels[jx, jy]
            if lab == CellLabel.EXTERIOR:
                continue
            (x0, x1), (y0, y1) = grid_cell_bounds(grid, (jx, jy))
            if lab == CellLabel.INTERIOR:
                p, w = cell_rule((x0, y0), (x1, y1), g)
            else:
                p, w = subdivide_cell(np.array([x0, y0]), np.array([x1, y1]))
            if p.size == 0:
                continue
            pts.append(p)
            wts.append(w)
            ids.append(np.full(w.size, jx * ny + jy, dtype=np.int64))
    if not pts:
        return np.empty((0, 2)), np.empty(0), np.empty(0, dtype=np.int64)
    return np.vstack(pts), np.concatenate(wts), np.concatenate(ids)


class TestBatchedSubdivision:
    @settings(deadline=None, max_examples=40)
    @given(tree=r_trees(3), n_cells=st.integers(4, 12),
           half=st.floats(1.0, 1.2), depth=st.integers(0, 6),
           g=st.integers(1, 4), g_leaf=st.one_of(st.none(), st.integers(1, 3)))
    def test_equals_cell_by_cell_rule(self, tree, n_cells, half, depth, g,
                                      g_leaf):
        dom = ImplicitDomain(tree)
        kv = uniform_knots(-half, half, n_cells, 1)
        grid = TensorGrid(kv, kv)
        cls = classify_cells(dom, grid)
        quad = build_quadrature(dom, grid, cls, g, depth, g_leaf)
        pts, wts, ids = reference_quadrature(dom, grid, cls, g, depth, g_leaf)
        order = batch_order(ids)
        assert np.array_equal(quad.points, pts[order])
        assert np.array_equal(quad.weights, wts[order])
        assert np.array_equal(quad.cell_ids, ids[order])
        assert quad.points.shape == (quad.num_points, 2)
        assert quad.cell_ids.dtype == np.int64

        assert np.all(quad.weights > 0)
        # one run per cell, runs sorted by length
        starts = np.flatnonzero(np.diff(quad.cell_ids, prepend=-1))
        assert starts.size == np.unique(quad.cell_ids).size
        assert np.all(np.diff(np.diff(np.append(starts, quad.num_points))) >= 0)
        jx, jy = np.divmod(quad.cell_ids, grid.num_cells[1])
        assert not np.any(cls.labels[jx, jy] == CellLabel.EXTERIOR)
        b = kv.breakpoints
        x, y = quad.points.T
        assert np.all((b[jx] <= x) & (x <= b[jx + 1]))
        assert np.all((b[jy] <= y) & (y <= b[jy + 1]))

    @settings(deadline=None, max_examples=40)
    @given(tree=r_trees(3), n_cells=st.integers(4, 12),
           half=st.floats(1.0, 1.2), depth=st.integers(0, 6),
           g=st.integers(1, 4), g_leaf=st.one_of(st.none(), st.integers(1, 3)))
    def test_error_rule_shares_boundary_slots(self, tree, n_cells, half, depth,
                                              g, g_leaf):
        # the error norms read the boundary cells of the error rule from the
        # assembly tables; that needs both rules to agree there exactly
        dom = ImplicitDomain(tree)
        kv = uniform_knots(-half, half, n_cells, 1)
        grid = TensorGrid(kv, kv)
        cls = classify_cells(dom, grid)
        quad = build_quadrature(dom, grid, cls, g, depth, g_leaf)
        err = build_quadrature(dom, grid, cls, g + 1, depth, g_leaf or g)
        boundary = cls.labels.ravel() == CellLabel.BOUNDARY
        shared, err_shared = boundary[quad.cell_ids], boundary[err.cell_ids]
        assert np.array_equal(quad.points[shared], err.points[err_shared])
        assert np.array_equal(quad.weights[shared], err.weights[err_shared])
        assert np.array_equal(quad.cell_ids[shared], err.cell_ids[err_shared])
        n_interior = np.count_nonzero(cls.labels == CellLabel.INTERIOR)
        assert np.count_nonzero(~err_shared) == (g + 1) ** 2 * n_interior

    @settings(deadline=None, max_examples=40)
    @given(tree=r_trees(3), n_cells=st.integers(4, 12),
           half=st.floats(1.0, 1.2), ratio=st.floats(1.0, 1.3),
           depth=st.integers(0, 6), g=st.integers(1, 4),
           g_leaf=st.one_of(st.none(), st.integers(1, 3)),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_composed_error_rule_equals_built_rule(self, tree, n_cells, half,
                                                   ratio, depth, g, g_leaf,
                                                   cuts):
        # the error rule composed of the interior cells at g + 1 and the
        # assembly rule's boundary runs is the rule built anew at g + 1,
        # point for point and weight for weight, in the same order
        dom = ImplicitDomain(tree)
        kv = graded_knots(-half, half, n_cells, 1, ratio)
        grid = TensorGrid(kv, kv)
        cls = classify_cells(dom, grid)
        quad = build_quadrature(dom, grid, cls, g, depth, g_leaf)
        built = build_quadrature(dom, grid, cls, g + 1, depth, g_leaf or g)
        err = build_quadrature(dom, grid, cls, g + 1, depth, base=quad)
        assert err.num_points == built.num_points
        assert np.array_equal(err.points, built.points)
        assert np.array_equal(err.weights, built.weights)
        assert np.array_equal(err.cell_ids, built.cell_ids)
        # any point range, cut anywhere through the runs
        n = built.num_points
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        for a, b in zip(bounds, bounds[1:]):
            pts, w, ids = err.take(a, b)
            assert np.array_equal(pts, built.points[a:b])
            assert np.array_equal(w, built.weights[a:b])
            assert np.array_equal(ids, built.cell_ids[a:b])
        # the pieces read from the assembly rule are its boundary runs
        read = np.zeros(n, dtype=bool)
        for lo, hi, s, from_base in err.pieces(0, n):
            if from_base:
                read[lo:hi] = True
                assert np.array_equal(built.points[lo:hi],
                                      quad.points[s:s + hi - lo])
        labels = cls.labels.ravel()[built.cell_ids]
        assert np.array_equal(read, labels == CellLabel.BOUNDARY)

    def test_empty_domain_gives_empty_rule(self):
        dom = ImplicitDomain(Disk([5.0, 5.0], 0.5))
        kv = uniform_knots(-1.0, 1.0, 4, 1)
        grid = TensorGrid(kv, kv)
        quad = build_quadrature(dom, grid, classify_cells(dom, grid), 3, 4)
        assert quad.points.shape == (0, 2)
        assert quad.weights.shape == (0,)
        assert quad.cell_ids.dtype == np.int64

    def test_negative_depth_rejected(self):
        dom, grid, cls = disk_setup(n_cells=4)
        with pytest.raises(QuadratureError, match="nonnegative"):
            build_quadrature(dom, grid, cls, 3, -1)
