import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from webfem import cli
from webfem.geometry import (
    CellLabel, Conjunction, Disk, GeometryError, ImplicitDomain,
    ResolutionError, annulus, box, classify_cells, classify_indices,
    domain_from_config, squared_norm,
)
from webfem.splines import KnotVector, TensorGrid, graded_knots, uniform_knots

from oracles import (
    classify_indices_loop, grid_cell_bounds, grid_cells, grid_support_box,
    grid_support_cells, weight, weight_gradient,
)
from strategies import r_trees

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def unit_disk(r=1.0):
    return ImplicitDomain(Disk([0.0, 0.0], 1.0), exponent=r)


def boundary_distance_oracle(node, lo=-1.3, hi=1.3, n=600):
    """Distance to the zero level set via dense boundary sampling.

    Bisects every lattice edge of an n-by-n grid that carries a sign change
    of phi, which covers the entire zero set to spacing ~(hi-lo)/n.
    """
    xs = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = node.value(np.column_stack([X.ravel(), Y.ravel()])).reshape(n, n)

    def edge_zeros(p0, p1, v0, v1):
        sel = (v0 * v1) < 0
        a, b = p0[sel], p1[sel]
        va = v0[sel]
        for _ in range(40):
            m = 0.5 * (a + b)
            vm = node.value(m)
            go_a = (va * vm) > 0
            a = np.where(go_a[:, None], m, a)
            va = np.where(go_a, vm, va)
            b = np.where(go_a[:, None], b, m)
        return 0.5 * (a + b)

    P = np.stack([X, Y], axis=-1)
    hz = edge_zeros(P[:-1].reshape(-1, 2), P[1:].reshape(-1, 2),
                    V[:-1].ravel(), V[1:].ravel())
    vz = edge_zeros(P[:, :-1].reshape(-1, 2), P[:, 1:].reshape(-1, 2),
                    V[:, :-1].ravel(), V[:, 1:].ravel())
    bpts = np.vstack([hz, vz])

    def dist(p):
        return float(np.min(np.linalg.norm(bpts - p, axis=1)))

    return dist


class TestWeight:
    def test_disk_center_value(self):
        assert weight(unit_disk(), [0.0, 0.0]) == pytest.approx(0.5)

    def test_boundary_zero(self):
        dom = unit_disk()
        for ang in np.linspace(0, 2 * np.pi, 17):
            p = [np.cos(ang), np.sin(ang)]
            assert weight(dom, p) == pytest.approx(0.0, abs=1e-14)
        b = ImplicitDomain(box([0, 0], [2, 1]))
        assert weight(b, [0.0, 0.5]) == pytest.approx(0.0, abs=1e-14)
        assert weight(b, [1.3, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_outside_zero(self):
        assert weight(unit_disk(), [2.0, 0.0]) == 0.0

    def test_conjunction_distance_equivalence(self):
        # two overlapping disks; deep inside, the weight is within a factor
        # [1/3, 3] of the true boundary distance
        node = Conjunction(Disk([-0.4, 0.0], 1.0), Disk([0.4, 0.0], 1.0))
        dist = boundary_distance_oracle(node)
        dom = ImplicitDomain(node)
        p = np.array([0.0, 0.0])
        w = weight(dom, p)
        d = dist(p)
        assert d / 3 <= w <= 3 * d

    def test_weight_equivalence_random_points(self):
        for node in (Disk([0, 0], 1.0),
                     Conjunction(Disk([-0.4, 0], 1.0), Disk([0.4, 0], 1.0)),
                     annulus([0, 0], 0.4, 1.0)):
            dom = ImplicitDomain(node)
            dist = boundary_distance_oracle(node)
            rng = np.random.default_rng(5)
            ratios = []
            n = 0
            while n < 1000:
                p = rng.uniform(-1, 1, 2)
                if dom.phi(p[None, :])[0] <= 1e-2:
                    continue
                n += 1
                ratios.append(weight(dom, p) / dist(p))
            ratios = np.array(ratios)
            assert ratios.max() / ratios.min() <= 10.0

    def test_exponent(self):
        dom = unit_disk(r=2.0)
        assert weight(dom, [0.0, 0.0]) == pytest.approx(0.25)


class TestWeightGradient:
    def test_disk_analytic(self):
        g = weight_gradient(unit_disk(), [0.5, 0.0])
        assert np.allclose(g, [-0.5, 0.0])

    def test_center_symmetry(self):
        assert np.allclose(weight_gradient(unit_disk(), [0.0, 0.0]), [0.0, 0.0])
        ann = ImplicitDomain(annulus([0, 0], 0.4, 1.0))
        g = ann.weight_gradient(np.array([[0.7, 0.0], [0.0, 0.7], [-0.7, 0.0]]))
        assert g[0][1] == pytest.approx(0.0, abs=1e-14)
        assert g[1][0] == pytest.approx(0.0, abs=1e-14)

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        for node in (Disk([0, 0], 1.0),
                     Conjunction(Disk([-0.4, 0], 1.0), Disk([0.4, 0], 1.0)),
                     annulus([0, 0], 0.4, 1.0),
                     box([-1, -1], [1, 1])):
            for r in (1.0, 2.0):
                dom = ImplicitDomain(node, exponent=r)
                step = 1e-6
                n = 0
                while n < 40:
                    p = rng.uniform(-0.95, 0.95, 2)
                    if dom.phi(p[None, :])[0] <= 1e-2:
                        continue
                    n += 1
                    g = weight_gradient(dom, p)
                    for ax in range(2):
                        e = np.zeros(2)
                        e[ax] = step
                        fd = (weight(dom, p + e) - weight(dom, p - e)) / (2 * step)
                        assert g[ax] == pytest.approx(fd, abs=1e-5)

    def test_singular_exponent_raises(self):
        dom = unit_disk(r=0.5)
        with pytest.raises(GeometryError) as err:
            weight_gradient(dom, [1.0, 0.0])
        # the point reads as plain floats, also under numpy 2
        assert "boundary at (1.0, 0.0) for" in str(err.value)
        assert "np.float64" not in str(err.value)

    def test_outside_zero_for_linear_weight(self):
        assert np.allclose(weight_gradient(unit_disk(), [3.0, 0.0]), 0.0)

    @settings(deadline=None, max_examples=40)
    @given(tree=r_trees(2), exponent=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           seed=st.integers(0, 2 ** 16))
    def test_weight_and_gradient_equal_the_separate_calls(self, tree,
                                                          exponent, seed):
        dom = ImplicitDomain(tree, exponent=exponent)
        pts = np.random.default_rng(seed).uniform(-1.3, 1.3, size=(50, 2))
        pts[0] = 0.0  # on a disk's center or a half-plane's boundary
        w, g = dom.weight_and_gradient(pts)
        assert np.array_equal(w, dom.weight(pts))
        assert np.array_equal(g, dom.weight_gradient(pts))

    def test_weight_and_gradient_singular_exponent_raises(self):
        dom = unit_disk(r=0.5)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError, match=r"r = 0\.5 < 1") as joint:
            dom.weight_and_gradient(pts)
        with pytest.raises(GeometryError) as alone:
            dom.weight_gradient(pts)
        assert str(joint.value) == str(alone.value)


class TestClassifyCells:
    def grid(self, n=4, lo=-1.0, hi=1.0, degree=1):
        kv = uniform_knots(lo, hi, n, degree)
        return TensorGrid(kv, kv)

    def test_disk_corner_signs(self):
        # grid h = 0.5 on [-1,1]^2: phi(0.5, 0.5) > 0 so [0,0.5]^2 is interior;
        # (1,1) is outside so [0.5,1]^2 is boundary (the degree-1 extension
        # adds one cell ring, shifting cell indices by one)
        g = self.grid(4)
        cls = classify_cells(unit_disk(), g)
        (x0, x1), (y0, y1) = grid_cell_bounds(g, (3, 3))
        assert (x0, x1, y0, y1) == (0.0, 0.5, 0.0, 0.5)
        assert cls.labels[3, 3] == CellLabel.INTERIOR
        assert cls.labels[4, 4] == CellLabel.BOUNDARY

    def test_aligned_box(self):
        g = self.grid(8)
        dom = ImplicitDomain(box([-0.5, -0.5], [0.5, 0.5]))
        cls = classify_cells(dom, g)
        for cell in grid_cells(g):
            (x0, x1), (y0, y1) = grid_cell_bounds(g, cell)
            if cls.labels[cell] == CellLabel.BOUNDARY:
                touches = (abs(x0) == 0.5 or abs(x1) == 0.5
                           or abs(y0) == 0.5 or abs(y1) == 0.5)
                assert touches, f"stray boundary cell {cell}"

    def test_interior_strictly_positive(self):
        g = self.grid(6)
        dom = unit_disk()
        cls = classify_cells(dom, g, samples_per_axis=4)
        rng = np.random.default_rng(11)
        for cell in np.argwhere(cls.labels == CellLabel.INTERIOR):
            (x0, x1), (y0, y1) = grid_cell_bounds(g, cell)
            pts = np.column_stack([rng.uniform(x0, x1, 40), rng.uniform(y0, y1, 40)])
            assert np.all(dom.phi(pts) > 0)

    def test_boundary_cells_change_sign(self):
        g = self.grid(6)
        dom = unit_disk()
        sam = 7
        cls = classify_cells(dom, g, samples_per_axis=sam)
        fr = np.linspace(0, 1, sam)
        for cell in np.argwhere(cls.labels == CellLabel.BOUNDARY):
            (x0, x1), (y0, y1) = grid_cell_bounds(g, cell)
            X, Y = np.meshgrid(x0 + (x1 - x0) * fr, y0 + (y1 - y0) * fr)
            vals = dom.phi(np.column_stack([X.ravel(), Y.ravel()]))
            assert vals.min() <= 0.0 or vals.max() >= 0.0
            assert not (np.all(vals > 0) or np.all(vals < 0))

    def test_samples_validation(self):
        with pytest.raises(GeometryError):
            classify_cells(unit_disk(), self.grid(), samples_per_axis=1)

    def test_refinement_monotone_interior(self):
        # dyadic refinement never turns covered interior regions exterior
        dom = unit_disk()
        g = self.grid(8)
        prev_interior = None
        for _ in range(3):
            cls = classify_cells(dom, g)
            interior_boxes = [grid_cell_bounds(g, c) for c in
                              np.argwhere(cls.labels == CellLabel.INTERIOR)]
            if prev_interior is not None:
                for (x0, x1), (y0, y1) in prev_interior:
                    # every previously-interior box is covered by non-exterior cells
                    mid = np.array([[0.5 * (x0 + x1), 0.5 * (y0 + y1)]])
                    jx = g.kvs[0].find_cell(mid[0, 0])
                    jy = g.kvs[1].find_cell(mid[0, 1])
                    assert cls.labels[jx, jy] != CellLabel.EXTERIOR
            prev_interior = interior_boxes
            g = g.refined()


class TestClassifyIndices:
    def test_domain_covers_grid(self):
        kv = uniform_knots(0.0, 4.0, 4, 1)
        g = TensorGrid(kv, kv)
        dom = ImplicitDomain(box([-10, -10], [10, 10]))
        idx = classify_indices(g, classify_cells(dom, g))
        assert idx.outer.shape == (0, 2)
        assert np.array_equal(idx.inner, idx.relevant)

    def test_slab_matches_1d_enumeration(self):
        # 1D picture: uniform knots 0..5, degree 1, domain (1.5, 3.5):
        # hats peaking at 2 and 3 are inner, hats at 1 and 4 outer
        kv = KnotVector(np.arange(-1.0, 7.0), 1)  # extended so core is [0, 5]
        g = TensorGrid(kv, kv)
        dom = ImplicitDomain(box([1.5, -20], [3.5, 20]))
        idx = classify_indices(g, classify_cells(dom, g))
        inner_x = np.unique(idx.inner[:, 0])
        outer_x = np.unique(idx.outer[:, 0])
        # basis i peaks at knot i - 1 + 1 = knots[i+1] = i (after extension)
        peaks = lambda s: sorted({kv.knots[i + 1] for i in s})
        assert peaks(inner_x) == [2.0, 3.0]
        assert peaks(outer_x) == [1.0, 4.0]

    def test_couplings_on_fine_disk(self):
        kv = uniform_knots(-1.1, 1.1, 22, 2)
        g = TensorGrid(kv, kv)
        dom = unit_disk()
        idx = classify_indices(g, classify_cells(dom, g))
        inner, outer, relevant = ({tuple(k) for k in ks.tolist()}
                                  for ks in (idx.inner, idx.outer, idx.relevant))
        assert inner | outer == relevant
        assert inner & outer == set()
        # (degree+1)^2 inner neighbors of each outer index
        n_outer = len(idx.outer)
        assert np.array_equal(np.bincount(idx.pair_outer, minlength=n_outer),
                              np.full(n_outer, 9))
        # Q_j is interior and contained in the support of each i in I(j)
        for a, b in zip(idx.pair_inner, idx.pair_outer):
            assert tuple(idx.q_cell[b]) in grid_support_cells(g, idx.inner[a])
        for i, x in zip(idx.inner, idx.center):
            lo, hi = grid_support_box(g, i)
            assert np.all(x > lo) and np.all(x < hi)
            assert dom.phi(x[None, :])[0] > 0

    def test_too_coarse_raises(self):
        kv = uniform_knots(-1.1, 1.1, 2, 2)
        g = TensorGrid(kv, kv)
        dom = ImplicitDomain(Disk([0.0, 0.0], 0.3))
        with pytest.raises(ResolutionError):
            classify_indices(g, classify_cells(dom, g))


def assert_same_index_sets(got, want):
    """Field-by-field equality of two IndexSets: same dtypes, shapes and
    values."""
    for name in ("relevant", "inner", "outer", "q_cell", "alpha", "center",
                 "center_cell", "pair_inner", "pair_outer"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def knot_vector(kind, degree, n_cells, shift):
    lo, hi = -1.1 + shift, 1.1 + shift
    if kind == "uniform":
        return uniform_knots(lo, hi, n_cells, degree)
    if kind in ("min", "max"):
        return graded_knots(lo, hi, n_cells, degree, 1.3, side=kind)
    # explicit: uniform knots with one interior knot doubled
    t = uniform_knots(lo, hi, n_cells, degree).knots
    mid = degree + n_cells // 2
    return KnotVector(np.insert(t, mid, t[mid]), degree)


class TestClassifyIndicesOracle:
    """The array classification against the one-index-at-a-time loop."""

    @settings(deadline=None, max_examples=60)
    @given(tree=r_trees(2), degree=st.integers(1, 3),
           n_cells=st.integers(3, 10),
           kind=st.sampled_from(["uniform", "min", "max", "explicit"]),
           shift=st.floats(-0.05, 0.05))
    def test_random_domains(self, tree, degree, n_cells, kind, shift):
        kv = knot_vector(kind, degree, n_cells, shift)
        g = TensorGrid(kv, knot_vector(kind, degree, n_cells + 1, -shift))
        cls = classify_cells(ImplicitDomain(tree), g)
        try:
            want = classify_indices_loop(g, cls)
        except ResolutionError:
            with pytest.raises(ResolutionError):
                classify_indices(g, cls)
            return
        assert_same_index_sets(classify_indices(g, cls), want)

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_benchmark_grids(self, workload, tmp_path):
        for seed in range(5):
            cfg = cli.load_config(workloads.write_config(workload, seed,
                                                         tmp_path))
            study = cli._study_from_config(cfg)
            dom = domain_from_config(cli._build_case(cfg).domain_config)
            g = study.base_grid()
            for _ in range(study.levels):
                cls = classify_cells(dom, g, study.samples_per_axis)
                assert_same_index_sets(classify_indices(g, cls),
                                       classify_indices_loop(g, cls))
                g = g.refined()


def spread_values(shape, seed):
    """Random values over many decades, with exact zeros and negatives."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape) * np.exp(rng.normal(scale=8.0, size=shape))
    v.flat[::7] = 0.0
    return v


class TestSquaredNorm:
    """The component-wise squares equal numpy's axis reductions bit for bit."""

    def test_vectors(self):
        v = spread_values((4001, 2), 1)
        assert np.array_equal(squared_norm(v), np.sum(v * v, axis=1))
        assert np.array_equal(squared_norm(v), np.sum(v ** 2, axis=1))
        assert np.array_equal(np.sqrt(squared_norm(v)),
                              np.linalg.norm(v, axis=1))

    def test_strided_vectors(self):
        v = spread_values((4001, 5), 2)[:, 1:3]
        assert np.array_equal(squared_norm(v), np.sum(v ** 2, axis=1))

    def test_matrices(self):
        m = spread_values((4001, 2, 2), 3)
        assert np.array_equal(squared_norm(m), np.sum(m ** 2, axis=(1, 2)))

    def test_disk_value(self):
        disk = Disk([0.3, -0.7], 1.3)
        pts = spread_values((4001, 2), 4)
        d = pts - disk.center
        assert np.array_equal(
            disk.value(pts),
            (disk.radius ** 2 - np.sum(d * d, axis=1)) / (2.0 * disk.radius))


class TestConfig:
    def test_round_trip(self):
        cfg = {"exponent": 1.0,
               "tree": {"op": "conj", "args": [
                   {"op": "disk", "center": [0.0, 0.0], "radius": 1.0},
                   {"op": "not", "arg": {"op": "disk", "center": [0.0, 0.0],
                                         "radius": 0.4}}]}}
        dom = domain_from_config(cfg)
        ref = ImplicitDomain(annulus([0, 0], 0.4, 1.0))
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.2, 1.2, (50, 2))
        assert np.allclose(dom.phi(pts), ref.phi(pts))
        dom2 = domain_from_config(dom.to_config())
        assert np.allclose(dom2.phi(pts), dom.phi(pts))

    def test_box_and_halfplane(self):
        dom = domain_from_config({"tree": {"op": "box", "lo": [0, 0], "hi": [2, 1]}})
        assert dom.phi(np.array([[1.0, 0.5]]))[0] > 0
        assert dom.phi(np.array([[3.0, 0.5]]))[0] < 0
        hp = domain_from_config({"tree": {"op": "halfplane",
                                          "normal": [1.0, 0.0], "offset": 0.0}})
        assert hp.phi(np.array([[-1.0, 7.0]]))[0] > 0

    def test_unknown_op(self):
        with pytest.raises(GeometryError):
            domain_from_config({"tree": {"op": "torus"}})
