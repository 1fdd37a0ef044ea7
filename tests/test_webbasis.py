from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings, strategies as st

from webfem.geometry import (
    Conjunction, Disk, ImplicitDomain, ResolutionError, annulus, box,
    classify_cells, classify_indices,
)
from webfem.quadrature import build_quadrature
from webfem.splines import (
    KnotVector, TensorGrid, graded_knots, nonzero_basis, uniform_knots,
)
from webfem.solvers import SolutionField
from webfem.analysis import jackson_error
from webfem.assembly import BasisTables
from webfem.webbasis import (
    BasisError, BasisValues, build_extension, build_web_basis, project,
    prolong,
)

from oracles import (
    BasisValuesPointColumns, basis_values_point, deboor_fix, eval_field_loop,
    eval_tensor_bspline, eval_web, extension_exact, extension_matrix_loop,
    grid_cell_bounds, grid_support_box, interpolate_piece, local_polynomial,
    point_columns, project_loop,
)
from strategies import r_trees
from test_geometry import knot_vector


def disk_basis(n_cells=14, degree=2, half=1.1):
    kv = uniform_knots(-half, half, n_cells, degree)
    grid = TensorGrid(kv, kv)
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    return build_web_basis(dom, grid)


def disk_indices(grid):
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    return classify_indices(grid, classify_cells(dom, grid))


@st.composite
def disk_grids(draw):
    """Graded or randomly non-uniform tensor grids whose bounds are jittered
    around the unit disk."""
    degree = draw(st.integers(1, 3))

    def axis():
        lo = -1.0 - draw(st.floats(0.05, 0.3))
        hi = 1.0 + draw(st.floats(0.05, 0.3))
        n = draw(st.integers(6, 10))
        if draw(st.booleans()):
            return graded_knots(lo, hi, n, degree, draw(st.floats(0.8, 1.25)),
                                side=draw(st.sampled_from(["min", "max"])))
        w = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
        core = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w)]) / np.sum(w)
        left = core[0] - (core[1] - core[0]) * np.arange(degree, 0, -1)
        right = core[-1] + (core[-1] - core[-2]) * np.arange(1, degree + 1)
        return KnotVector(np.concatenate([left, core, right]), degree)

    return TensorGrid(axis(), axis())


def eval_eb_combo(basis, coeffs, pts):
    """Unweighted eb-spline expansion (test helper, independent of the
    library's evaluation)."""
    grid = basis.grid
    m1, m2 = grid.degrees
    c_full = basis.extension_matrix().T @ coeffs
    c_pad = np.concatenate([c_full, [0.0]])
    sx, dx = nonzero_basis(grid.kvs[0], pts[:, 0], 0)
    sy, dy = nonzero_basis(grid.kvs[1], pts[:, 1], 0)
    ax = sx[:, None] - m1 + np.arange(m1 + 1)[None, :]
    ay = sy[:, None] - m2 + np.arange(m2 + 1)[None, :]
    cols = basis.kcol[ax[:, :, None], ay[:, None, :]]
    cw = c_pad[np.where(cols >= 0, cols, c_full.size)]
    return np.einsum("nab,nab->n", cw, dx[0][:, :, None] * dy[0][:, None, :])


class TestExtension:
    def test_interior_index_has_no_entries(self):
        basis = disk_basis()
        deep = np.argmin(np.linalg.norm(basis.idx.center, axis=1))
        assert deep not in basis.idx.pair_inner

    def test_1d_hat_extrapolation_weights(self):
        # slab domain (1.5, 3.5) on uniform degree-1 knots: the outer hat
        # peaking at x=1 extends with the linear-extrapolation weights of its
        # inner neighbors' limbs: value at the peak gives 2 and -1
        kv = KnotVector(np.arange(-1.0, 7.0), 1)
        grid = TensorGrid(kv, kv)
        dom = ImplicitDomain(box([1.5, -20.0], [3.5, 20.0]))
        cls = classify_cells(dom, grid)
        idx = classify_indices(grid, cls)
        ext = build_extension(grid, idx)
        assert np.unique(idx.outer[:, 0]).tolist() == [1, 4]
        some_jy = np.unique(idx.outer[idx.outer[:, 0] == 1, 1])[3]
        sel = np.all(idx.outer[idx.pair_outer] == (1, some_jy), axis=1)
        coeffs = dict(zip(map(tuple, idx.inner[idx.pair_inner[sel]].tolist()),
                          ext.entries[sel]))
        assert coeffs[(2, some_jy)] == pytest.approx(2.0, abs=1e-12)
        assert coeffs[(3, some_jy)] == pytest.approx(-1.0, abs=1e-12)
        assert coeffs[(2, some_jy - 1)] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_entries_equal_tensor_dual_functional(self, degree, graded):
        # the per-axis factor tables give exactly the tensor functional on
        # the product piece of every (inner, outer) pair
        if graded:
            grid = TensorGrid(graded_knots(-1.12, 1.08, 10, degree, 1.2, side="max"),
                              graded_knots(-1.06, 1.13, 10, degree, 1.2, side="min"))
        else:
            kv = uniform_knots(-1.1, 1.1, 10, degree)
            grid = TensorGrid(kv, kv)
        idx = disk_indices(grid)
        entries = build_extension(grid, idx).entries
        assert len(entries) == len(idx.pair_inner) > 0
        for a, b, e in zip(idx.pair_inner, idx.pair_outer, entries):
            piece = local_polynomial(grid, idx.inner[a], idx.q_cell[b])
            assert e == deboor_fix(grid.kvs, idx.outer[b], piece)

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("n_cells", [4, 8, 16])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_entries_match_exact_rational_oracle(self, degree, n_cells, graded):
        if graded:
            grid = TensorGrid(graded_knots(-1.1, 1.1, n_cells, degree, 1.15, side="max"),
                              graded_knots(-1.1, 1.1, n_cells, degree, 1.15, side="min"))
        else:
            kv = uniform_knots(-1.1, 1.1, n_cells, degree)
            grid = TensorGrid(kv, kv)
        idx = disk_indices(grid)
        entries = build_extension(grid, idx).entries
        exact = extension_exact(grid, idx)
        assert len(entries) == len(exact)
        for c, (e, x) in enumerate(zip(entries.tolist(), exact)):
            assert abs(Fraction(e) - x) <= 1e-13 * max(abs(e), 1.0), c

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(grid=disk_grids(), seed=st.integers(0, 2 ** 32 - 1))
    def test_extension_transfers_dual_functionals_of_polynomials(self, grid, seed):
        # defining identity: for P of coordinate degree <= m,
        # lambda_j(P) = sum_{i in I(j)} e_{i,j} lambda_i(P)
        idx = disk_indices(grid)
        entries = build_extension(grid, idx).entries
        m1, m2 = grid.degrees
        A = np.random.default_rng(seed).normal(size=(m1 + 1, m2 + 1))
        P = lambda pts: np.einsum("ab,na,nb->n", A,
                                  pts[:, :1] ** np.arange(m1 + 1),
                                  pts[:, 1:] ** np.arange(m2 + 1))
        for b, j in enumerate(idx.outer):
            (x0, x1), (y0, y1) = grid_cell_bounds(grid, idx.q_cell[b])
            piece = interpolate_piece(P, (x0, y0), (x1, y1), grid.degrees)
            sel = idx.pair_outer == b
            terms = [e * deboor_fix(grid.kvs, i, piece) for i, e in
                     zip(idx.inner[idx.pair_inner[sel]], entries[sel])]
            lhs = deboor_fix(grid.kvs, j, piece)
            scale = max(1.0, sum(abs(t) for t in terms))
            assert abs(lhs - sum(terms)) <= 1e-9 * scale

    def test_eb_polynomial_reproduction(self):
        # the eb expansion with dual-functional coefficients reproduces any
        # polynomial of coordinate degree <= m at points inside the domain
        basis = disk_basis(n_cells=12, degree=2)
        grid = basis.grid
        rng = np.random.default_rng(21)
        q = lambda pts: (1.0 + 0.5 * pts[:, 0] - pts[:, 1]
                         + 0.25 * pts[:, 0] ** 2 * pts[:, 1] ** 2)
        lam = np.empty(basis.n_inner)
        for r, (i, cell) in enumerate(zip(basis.idx.inner,
                                          basis.idx.center_cell)):
            (x0, x1), (y0, y1) = grid_cell_bounds(grid, cell)
            piece = interpolate_piece(q, (x0, y0), (x1, y1), grid.degrees)
            lam[r] = deboor_fix(grid.kvs, i, piece)
        pts = []
        while len(pts) < 100:
            p = rng.uniform(-1, 1, 2)
            if basis.domain.phi(p[None, :])[0] > 1e-6:
                pts.append(p)
        pts = np.array(pts)
        vals = eval_eb_combo(basis, lam, pts)
        assert np.max(np.abs(vals - q(pts))) <= 1e-10

    def test_extension_bounded_under_refinement(self):
        maxima = []
        for n in (10, 20, 40):
            basis = disk_basis(n_cells=n)
            maxima.append(basis.ext.max_abs)
        assert max(maxima) <= 10 * min(maxima) or max(maxima) < 50

    def test_alpha_warning_surfaces_in_summary(self):
        # the Hausdorff cell selection favors well-sized extrapolation cells,
        # so alpha < 0.1 needs pathological grids; inject a small ratio and
        # check the reporting path end to end
        from webfem.webbasis import WebBasis
        basis = disk_basis(n_cells=8)
        assert basis.summary()["alpha_warnings"] == []
        basis.idx.alpha[0] = 0.05
        patched = WebBasis(basis.grid, basis.domain, basis.cls, basis.idx,
                           basis.ext)
        assert np.array_equal(patched.alpha_warnings, basis.idx.outer[:1])
        assert patched.summary()["alpha_warnings"] == [basis.idx.outer[0].tolist()]


class TestEvalWeb:
    def test_weight_normalization_at_center(self):
        basis = disk_basis()
        deep = np.argmin(np.linalg.norm(basis.idx.center, axis=1))
        i, x = basis.idx.inner[deep], basis.idx.center[deep]
        expect = eval_tensor_bspline(basis.grid, i, x)
        assert eval_web(basis, i, x) == pytest.approx(expect, rel=1e-12)

    def test_vanishes_on_boundary(self):
        basis = disk_basis()
        for ang in np.linspace(0.0, 2 * np.pi, 500, endpoint=False):
            p = np.array([np.cos(ang), np.sin(ang)])
            field = SolutionField(basis=basis, coeffs=np.ones(basis.n_inner))
            assert abs(field(p[None, :])[0]) <= 1e-12

    def test_gradient_finite_difference(self):
        basis = disk_basis(n_cells=10)
        rng = np.random.default_rng(22)
        step = 1e-6
        inner = basis.idx.inner
        checked = 0
        while checked < 100:
            i = inner[int(rng.integers(0, len(inner)))]
            p = rng.uniform(-0.9, 0.9, 2)
            if basis.domain.phi(p[None, :])[0] < 0.05:
                continue
            checked += 1
            for ax, d in (((1, 0), np.array([step, 0.0])),
                          ((0, 1), np.array([0.0, step]))):
                fd = (eval_web(basis, i, p + d) - eval_web(basis, i, p - d)) / (2 * step)
                assert eval_web(basis, i, p, ax) == pytest.approx(fd, abs=1e-5)

    def test_locality(self):
        basis = disk_basis(n_cells=10)
        i = basis.idx.inner[0]
        lo, hi = grid_support_box(basis.grid, i)
        for j in basis.idx.outer[basis.idx.pair_outer[basis.idx.pair_inner == 0]]:
            jlo, jhi = grid_support_box(basis.grid, j)
            lo = np.minimum(lo, jlo)
            hi = np.maximum(hi, jhi)
        # points outside the union box evaluate to exactly 0
        pts = [hi + 0.05, np.array([hi[0] + 0.1, 0.0]), lo - 0.03]
        for p in pts:
            p = np.clip(p, -1.09, 1.09)  # stay inside the grid core
            if np.all(p >= lo) and np.all(p <= hi):
                continue
            assert eval_web(basis, i, p) == 0.0

    def test_second_derivative_unsupported(self):
        basis = disk_basis(n_cells=8)
        with pytest.raises(BasisError):
            eval_web(basis, basis.idx.inner[0], np.zeros(2), (1, 1))

    def test_eval_field_matches_reference(self):
        basis = disk_basis(n_cells=8)
        rng = np.random.default_rng(23)
        coeffs = rng.normal(size=basis.n_inner)
        pts = []
        while len(pts) < 30:
            p = rng.uniform(-1, 1, 2)
            if basis.domain.phi(p[None, :])[0] > 0.01:
                pts.append(p)
        pts = np.array(pts)
        vals, grads = SolutionField(basis=basis, coeffs=coeffs)(pts, grad=True)
        for q, p in enumerate(pts):
            ref = sum(c * eval_web(basis, i, p)
                      for c, i in zip(coeffs, basis.idx.inner))
            refx = sum(c * eval_web(basis, i, p, (1, 0))
                       for c, i in zip(coeffs, basis.idx.inner))
            assert vals[q] == pytest.approx(ref, rel=1e-11, abs=1e-13)
            assert grads[q, 0] == pytest.approx(refx, rel=1e-10, abs=1e-11)


@st.composite
def knot_axes(draw, degree):
    """Uniform, graded or doubled-knot axes around the unit disk, and the
    coordinates to sample on them: the edges of the full-support region,
    interior knots and random points, each drawn with repeats."""
    lo = -1.0 - draw(st.floats(0.05, 0.3))
    hi = 1.0 + draw(st.floats(0.05, 0.3))
    n = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(["uniform", "min", "max", "doubled"]))
    if kind in ("min", "max"):
        kv = graded_knots(lo, hi, n, degree, draw(st.floats(0.7, 1.4)),
                          side=kind)
    else:
        kv = uniform_knots(lo, hi, n, degree)
        if kind == "doubled":
            t = kv.knots
            k = draw(st.integers(degree + 1, degree + n - 1))
            kv = KnotVector(np.insert(t, k, t[k]), degree)
    t = kv.knots
    core = t[degree:kv.num_basis + 1]
    special = st.sampled_from(core.tolist())
    inside = st.floats(float(core[0]), float(core[-1]))
    coords = draw(st.lists(st.one_of(special, inside), min_size=1,
                           max_size=6))
    return kv, coords


class TestBasisValuesOracle:
    """BasisValues (per-axis B-splines on distinct coordinates, separable
    weighted products) against the per-point formula."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), degree=st.integers(1, 3),
           exponent=st.sampled_from([1.0, 2.0]))
    def test_matches_per_point_formula(self, data, degree, exponent):
        (kx, xs), (ky, ys) = (data.draw(knot_axes(degree)) for _ in range(2))
        dom = ImplicitDomain(Disk([0.0, 0.0], 1.0), exponent=exponent)
        try:
            basis = build_web_basis(dom, TensorGrid(kx, ky))
        except ResolutionError:
            reject()
        # every coordinate pairs with several others, and pairs repeat
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(xs), st.sampled_from(ys)),
            min_size=1, max_size=24))
        pts = np.array(pairs, dtype=float)
        got = BasisValues(basis, pts)
        cols = point_columns(got)
        for q, p in enumerate(pts):
            idx, wb, wbx, wby = basis_values_point(basis, p)
            assert np.array_equal(cols[q], idx)
            for have, want in ((got.wb, wb), (got.wbx, wbx), (got.wby, wby)):
                scale = max(1.0, np.max(np.abs(want)))
                np.testing.assert_allclose(have[q], want, rtol=0,
                                           atol=1e-14 * scale)


class TestBasisValuesPointColumns:
    """BasisValues (basis rows per span pair, tables filled in blocks of
    points, fields contracted in blocks) against the kernel that stored the
    columns of every point: equal tables, columns and fields, with blocks
    of 77 points that cut through the runs of quadrature cells."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    @pytest.mark.parametrize("node", [
        Disk([0.03, -0.02], 0.97), annulus([0.0, 0.01], 0.35, 0.98),
        box([-0.83, -0.91], [0.94, 0.77])], ids=["disk", "annulus", "box"])
    def test_equals_point_column_kernel(self, node, graded, degree,
                                        monkeypatch):
        import webfem.webbasis as webbasis
        monkeypatch.setattr(webbasis, "EVAL_CHUNK", 77)
        monkeypatch.setattr(webbasis, "BLOCK_BYTES",
                            77 * 8 * (degree + 1) ** 2)
        assert webbasis.block_points((degree + 1) ** 2) == 77
        kv = (graded_knots(-1.1, 1.1, 9, degree, 1.2) if graded
              else uniform_knots(-1.1, 1.1, 8, degree))
        dom = ImplicitDomain(node)
        basis = build_web_basis(dom, TensorGrid(kv, kv))
        quad = build_quadrature(dom, basis.grid, basis.cls, degree + 1, 3)
        rng = np.random.default_rng(60 + degree)
        # the rule's cell runs, then points over the whole grid core, some
        # of whose B-splines lie outside the relevant set
        pts = np.concatenate([quad.points,
                              rng.uniform(-1.1, 1.1, size=(500, 2))])
        c_full = np.append(rng.normal(size=basis.n_relevant), 0.0)
        for nderiv in (0, 1):
            got = BasisValues(basis, pts, nderiv=nderiv)
            want = BasisValuesPointColumns(basis, pts, nderiv=nderiv)
            cols = point_columns(got)
            assert np.array_equal(cols, want.idx)
            assert np.any(cols < 0)
            for name in ("wb", "wbx", "wby")[:1 + 2 * nderiv]:
                assert np.array_equal(getattr(got, name), getattr(want, name))
            if nderiv:
                (vals, grads), (rv, rg) = (v.field(c_full, grad=True)
                                           for v in (got, want))
                assert np.array_equal(grads, rg)
            else:
                vals, rv = (v.field(c_full) for v in (got, want))
            assert np.array_equal(vals, rv)
        tables = BasisTables(basis, quad)
        want = BasisValuesPointColumns(basis, quad.points)
        assert np.array_equal(point_columns(tables), want.idx)
        assert np.array_equal(tables.cell_idx, want.idx[tables.segments.starts])
        for name in ("wb", "wbx", "wby"):
            assert np.array_equal(getattr(tables, name), getattr(want, name))
        assert quad.num_points > 77 and tables.segments.counts.max() > 1


class TestEvalFieldOracle:
    """SolutionField (one tabulation kernel shared with the assembly tables)
    against the per-block loop it replaced."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_loop_inside_and_outside_relevant_set(self, degree):
        basis = disk_basis(n_cells=20, degree=degree, half=1.6)
        rng = np.random.default_rng(40 + degree)
        coeffs = rng.normal(size=basis.n_inner)
        # the whole grid core: the corners hold points whose nonzero
        # B-splines are all outside the relevant set
        pts = rng.uniform(-1.6, 1.6, size=(4000, 2))
        cols = point_columns(BasisValues(basis, pts, nderiv=0))
        some_out = np.any(cols < 0, axis=1)
        all_out = np.all(cols < 0, axis=1)
        assert np.any(some_out & ~all_out) and np.any(all_out)
        field = SolutionField(basis=basis, coeffs=coeffs)
        vals, grads = field(pts, grad=True)
        rv, rg = eval_field_loop(basis, coeffs, pts, nderiv=1)
        np.testing.assert_allclose(vals, rv, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(rv)))
        np.testing.assert_allclose(grads, rg, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(rg)))
        assert np.all(vals[all_out] == 0.0) and np.all(grads[all_out] == 0.0)
        assert np.array_equal(field(pts), vals)

    def test_chunks_and_components(self, monkeypatch):
        import webfem.webbasis as webbasis
        basis = disk_basis(n_cells=8, degree=2)
        rng = np.random.default_rng(45)
        coeffs = rng.normal(size=2 * basis.n_inner)
        pts = rng.uniform(-1.05, 1.05, size=(1000, 2))
        field = SolutionField(basis=basis, coeffs=coeffs)
        vals, grads = field(pts, grad=True)
        monkeypatch.setattr(webbasis, "EVAL_CHUNK", 77)
        chunked_vals, chunked_grads = field(pts, grad=True)
        assert vals.shape == (1000, 2) and grads.shape == (1000, 2, 2)
        assert np.array_equal(chunked_vals, vals)
        assert np.array_equal(chunked_grads, grads)
        assert np.array_equal(field(pts), vals)
        for k in range(2):
            rv, rg = eval_field_loop(basis, field.component(k), pts, nderiv=1)
            np.testing.assert_allclose(vals[:, k], rv, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(rv)))
            np.testing.assert_allclose(grads[:, k], rg, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(rg)))


class TestProjector:
    def test_reproduces_single_web_spline(self):
        basis = disk_basis(n_cells=10)
        i0 = basis.n_inner // 2
        f = SolutionField(basis=basis, coeffs=np.eye(basis.n_inner)[i0])
        coeffs = project(basis, f)
        expect = np.zeros(basis.n_inner)
        expect[i0] = 1.0
        assert np.max(np.abs(coeffs - expect)) <= 1e-9

    def test_zero_function(self):
        basis = disk_basis(n_cells=8)
        coeffs = project(basis, lambda pts: np.zeros(pts.shape[0]))
        assert np.all(coeffs == 0.0)

    def test_weighted_polynomial_reproduction(self):
        basis = disk_basis(n_cells=10)
        rng = np.random.default_rng(24)
        q = lambda pts: 2.0 - pts[:, 0] + 0.3 * pts[:, 0] * pts[:, 1]
        f = lambda pts: basis.domain.weight(pts) * q(pts)
        coeffs = project(basis, f)
        pts = []
        while len(pts) < 100:
            p = rng.uniform(-1, 1, 2)
            if basis.domain.phi(p[None, :])[0] > 1e-3:
                pts.append(p)
        pts = np.array(pts)
        vals = SolutionField(basis=basis, coeffs=coeffs)(pts)
        assert np.max(np.abs(vals - f(pts))) <= 1e-8

    def test_idempotence(self):
        basis = disk_basis(n_cells=8)
        f = lambda pts: basis.domain.weight(pts) * np.exp(pts[:, 0])
        c1 = project(basis, f)
        c2 = project(basis, SolutionField(basis=basis, coeffs=c1))
        assert np.max(np.abs(c2 - c1)) <= 1e-10


class TestArrayPathsOracle:
    """The extension matrix and the projector, built from the index arrays
    in one pass, against the dict-based and per-index paths they replaced."""

    @pytest.mark.parametrize("kind", ["uniform", "min", "max", "explicit"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_match_the_loops_on_disk_grids(self, degree, kind):
        grid = TensorGrid(knot_vector(kind, degree, 12, 0.02),
                          knot_vector(kind, degree, 13, -0.03))
        basis = build_web_basis(ImplicitDomain(Disk([0.0, 0.0], 1.0)), grid)
        assert len(basis.idx.pair_inner) > 0
        got = basis.coupling_matrix()
        want = (sp.diags(1.0 / basis.w_center)
                @ extension_matrix_loop(basis)).tocsr()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        f = lambda pts: (basis.domain.weight(pts)
                         * np.exp(pts[:, 0] - 0.5 * pts[:, 1]))
        ref = project_loop(basis, f)
        assert np.max(np.abs(project(basis, f) - ref)) <= \
            1e-13 * np.max(np.abs(ref))

    def test_not_interpolable_reported_at_the_first_index(self):
        basis = disk_basis(n_cells=8)
        f = lambda pts: np.where(pts[:, 0] > 0.5, np.nan, 0.0)
        with pytest.raises(BasisError, match="not interpolable") as got:
            project(basis, f)
        with pytest.raises(BasisError) as want:
            project_loop(basis, f)
        assert str(got.value) == str(want.value)


def prolongation_grid(kind, degree):
    """Grids around the unit disk: uniform, graded toward either side, and
    explicit knots with one doubled interior knot."""
    if kind == "uniform":
        kv = uniform_knots(-1.1, 1.1, 8, degree)
        return TensorGrid(kv, kv)
    if kind in ("min", "max"):
        return TensorGrid(graded_knots(-1.12, 1.08, 8, degree, 1.15, kind),
                          graded_knots(-1.07, 1.13, 8, degree, 1.1, kind))
    t = uniform_knots(-1.1, 1.1, 8, degree).knots
    doubled = KnotVector(np.sort(np.append(t, t[t.size // 2 + 1])), degree)
    return TensorGrid(doubled, uniform_knots(-1.1, 1.1, 8, degree))


def check_prolongation(coarse, fine, components, seed):
    """Prolong random coefficients of ``components`` stacked fields; each
    component equals the projection of the coarse field onto the fine basis,
    and the coarse field itself on every fine cell whose B-splines are all
    inner. Returns the number of points so compared."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=components * coarse.n_inner)
    got = prolong(coarse, fine, c)
    assert got.shape == (components * fine.n_inner,)
    # points of the fine cells whose (m+1)^2 B-splines are all inner
    grid = fine.grid
    quad = build_quadrature(fine.domain, grid, fine.cls, grid.degrees[0] + 1, 3)
    inner = np.zeros(grid.num_basis, dtype=bool)
    inner[tuple(np.array(fine.idx.inner).T)] = True
    (sx, _), (sy, _) = (nonzero_basis(kv, quad.points[:, ax])
                        for ax, kv in enumerate(grid.kvs))
    m1, m2 = grid.degrees
    all_inner = np.ones(quad.num_points, dtype=bool)
    for a in range(m1 + 1):
        for b in range(m2 + 1):
            all_inner &= inner[sx - m1 + a, sy - m2 + b]
    pts = quad.points[all_inner]
    for k in range(components):
        ck = c[k * coarse.n_inner:(k + 1) * coarse.n_inner]
        gk = got[k * fine.n_inner:(k + 1) * fine.n_inner]
        coarse_k = SolutionField(basis=coarse, coeffs=ck)
        ref = project(fine, coarse_k)
        assert np.max(np.abs(gk - ref)) <= 1e-12 * np.max(np.abs(ref))
        want = coarse_k(pts)
        got_k = SolutionField(basis=fine, coeffs=gk)(pts)
        assert np.max(np.abs(got_k - want)) <= 1e-12 * np.max(np.abs(want))
    return pts.shape[0]


class TestProlongation:
    @pytest.mark.parametrize("kind", ["uniform", "min", "max", "doubled"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_scalar_and_velocity(self, degree, kind):
        dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
        grid = prolongation_grid(kind, degree)
        coarse = build_web_basis(dom, grid)
        fine = build_web_basis(dom, grid.refined())
        for components in (1, 2):
            assert check_prolongation(coarse, fine, components,
                                      seed=10 * degree + components) > 0

    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(tree=r_trees(2), n_cells=st.integers(4, 7),
           degree=st.integers(1, 3), half=st.floats(1.0, 1.2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_domains(self, tree, n_cells, degree, half, seed):
        dom = ImplicitDomain(Conjunction(tree, box([-0.95, -0.95], [0.95, 0.95])))
        kv = uniform_knots(-half, half, n_cells, degree)
        grid = TensorGrid(kv, kv)
        try:
            coarse = build_web_basis(dom, grid)
            fine = build_web_basis(dom, grid.refined())
        except ResolutionError:
            reject()
        check_prolongation(coarse, fine, 1, seed)


class TestJackson:
    def u(self, pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return (1.0 - r2) ** 2

    def grad_u(self, pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return -4.0 * (1.0 - r2)[:, None] * pts

    def test_in_space_reproduced(self):
        # (1-r^2)^2 = w * (2 - 2r^2) lies in the degree-2 web space; feed the
        # web function itself so the comparison is exact also on the few
        # quadrature points that poke slightly outside the zero level set
        basis = disk_basis(n_cells=10, degree=2)
        quad = build_quadrature(basis.domain, basis.grid, basis.cls, 3, 5)
        c0 = project(basis, self.u)
        uh = SolutionField(basis=basis, coeffs=c0)
        guh = lambda pts: uh(pts, grad=True)[1]
        assert jackson_error(basis, uh, guh, quad) <= 1e-8
        # and the projector indeed reproduced the formula inside the domain
        inside = basis.domain.phi(quad.points) > 0
        vals = uh(quad.points[inside])
        assert np.max(np.abs(vals - self.u(quad.points[inside]))) <= 1e-12

    def test_equals_the_axis_sum(self):
        basis = disk_basis(n_cells=8)
        quad = build_quadrature(basis.domain, basis.grid, basis.cls, 3, 4)
        pts = quad.points
        field = SolutionField(basis=basis, coeffs=project(basis, self.u))
        vals, grads = field(pts, grad=True)
        inside = basis.domain.inside(pts)
        ev = np.where(inside, self.u(pts) - vals, 0.0)
        eg = np.where(inside[:, None], self.grad_u(pts) - grads, 0.0)
        assert jackson_error(basis, self.u, self.grad_u, quad) == float(
            np.sqrt(np.sum(quad.weights * (ev ** 2 + np.sum(eg ** 2, axis=1)))))

    def test_zero(self):
        basis = disk_basis(n_cells=8)
        quad = build_quadrature(basis.domain, basis.grid, basis.cls, 3, 4)
        z = lambda pts: np.zeros(pts.shape[0])
        gz = lambda pts: np.zeros_like(pts)
        assert jackson_error(basis, z, gz, quad) == 0.0

    def test_first_order_decay_degree1(self):
        errs = []
        hs = []
        for n in (8, 16, 32):
            basis = disk_basis(n_cells=n, degree=1)
            quad = build_quadrature(basis.domain, basis.grid, basis.cls, 3, 6)
            errs.append(jackson_error(basis, self.u, self.grad_u, quad))
            hs.append(basis.grid.meshsize)
        for e0, e1 in zip(errs, errs[1:]):
            assert e0 / e1 >= 1.7
