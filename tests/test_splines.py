import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from webfem.splines import (
    KnotVector, SplineError, TensorGrid, dual_row, graded_knots,
    local_polynomial_1d, nonzero_basis, refinement_matrix, uniform_knots,
)

from oracles import (
    PolynomialPiece, deboor_fix, dual_functional_1d, eval_bspline,
    eval_bspline_deriv, eval_tensor_bspline, grid_cell_bounds,
    interpolate_piece, kv_cell_bounds, kv_support, kv_support_cells,
    local_polynomial, local_polynomial_1d_loop, nonzero_basis_cox_de_boor,
)


def random_knot_vector(rng, degree, n_cells=6, lo=0.0, hi=1.0, max_ratio=4.0):
    """Non-uniform simple-knot vector with full-support region [lo, hi].

    Spacings are drawn with a bounded mesh ratio; pass ``max_ratio=None``
    for unconstrained (possibly near-degenerate) spacings.
    """
    if max_ratio is None:
        interior = np.sort(rng.uniform(lo, hi, n_cells - 1))
        core = np.concatenate([[lo], interior, [hi]])
    else:
        s = np.sqrt(max_ratio)
        w = rng.uniform(1.0 / s, s, n_cells)
        core = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(w)]) / np.sum(w)
    h0 = core[1] - core[0]
    h1 = core[-1] - core[-2]
    left = core[0] - h0 * np.arange(degree, 0, -1)
    right = core[-1] + h1 * np.arange(1, degree + 1)
    return KnotVector(np.concatenate([left, core, right]), degree)


@st.composite
def core_knot_vectors(draw):
    """Degree 1-4 knot vectors with uniform, graded or random cells in the
    core, interior knots repeated up to multiplicity ``degree``, and ends
    either extended by ``degree`` spans or clamped. The last knot of the
    core stays simple from inside."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["uniform", "graded", "random"]))
    if kind == "uniform":
        core = np.linspace(0.0, 1.0, n + 1)
    elif kind == "graded":
        core = graded_knots(0.0, 1.0, n, m, draw(st.floats(0.5, 2.0)),
                            draw(st.sampled_from(["min", "max"]))).knots[m:m + n + 1]
    else:
        w = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        core = np.concatenate([[0.0], w / w[-1]])
    lo, width = draw(st.floats(-2.0, 1.0)), draw(st.floats(0.1, 3.0))
    core = lo + width * core
    steps = (np.zeros(m) if draw(st.booleans())
             else np.arange(1, m + 1) * draw(st.floats(0.1, 1.0)) * width / n)
    mult = draw(st.lists(st.integers(1, m), min_size=n - 1, max_size=n - 1))
    return KnotVector(np.concatenate([core[0] - steps[::-1], [core[0]],
                                      np.repeat(core[1:-1], mult), [core[-1]],
                                      core[-1] + steps]), m)


def refinement_knot_vectors(degree):
    """Uniform, graded (both sides), one doubled interior knot, clamped
    ends, and random non-uniform spacings."""
    kvs = [uniform_knots(-1.1, 1.1, 8, degree),
           graded_knots(-1.0, 1.2, 7, degree, 1.3, "min"),
           graded_knots(-1.0, 1.2, 7, degree, 1.3, "max"),
           random_knot_vector(np.random.default_rng(70 + degree), degree,
                              n_cells=7)]
    if degree > 0:
        t = uniform_knots(-1.0, 1.0, 6, degree).knots
        kvs.append(KnotVector(np.sort(np.append(t, t[t.size // 2])), degree))
    kvs.append(KnotVector(np.concatenate(
        [[-1.0] * degree, np.linspace(-1.0, 1.0, 6), [1.0] * degree]), degree))
    return kvs


class TestKnotVector:
    def test_validation(self):
        with pytest.raises(SplineError):
            KnotVector([0.0, 1.0, 0.5], 1)  # decreasing
        with pytest.raises(SplineError):
            KnotVector([0.0, 1.0], 1)  # too short
        with pytest.raises(SplineError):
            KnotVector([0.0, 0.0, 0.0, 1.0], 1)  # multiplicity 3 > degree+1
        kv = KnotVector([0.0, 0.0, 1.0, 2.0, 2.0], 1)  # multiplicity degree+1 ok
        assert kv.num_basis == 3

    def test_counts_and_support(self):
        kv = KnotVector([0, 1, 2, 3, 4], 2)
        assert kv.num_basis == 2
        assert kv_support(kv, 0) == (0, 3)
        assert list(kv_support_cells(kv, 1)) == [1, 2, 3]

    def test_refined_halves_spans(self):
        kv = KnotVector([0.0, 0.5, 2.0, 3.0], 1)
        fine = kv.refined()
        assert fine.num_cells == 2 * kv.num_cells
        assert np.max(np.diff(fine.breakpoints)) == 0.5 * np.max(np.diff(kv.breakpoints))


class TestEvalBspline:
    def test_hat_peak(self):
        kv = KnotVector([0, 1, 2], 1)
        assert eval_bspline(kv, 0, 1.0) == 1.0

    def test_hand_unrolled_quadratic(self):
        # Cox-de Boor by hand: b0 at x=1.5 on knots [0,1,2,3], degree 2:
        #   level 0: only [1,2) indicator is 1
        #   level 1: b_{0,1} = (2-1.5)/1 = 0.5, b_{1,1} = (1.5-1)/1 = 0.5
        #   level 2: b_{0,2} = 1.5/2*0.5 + (3-1.5)/2*0.5 = 0.75
        kv = KnotVector([0, 1, 2, 3], 2)
        assert eval_bspline(kv, 0, 1.5) == pytest.approx(0.75, abs=1e-15)

    def test_outside_support(self):
        kv = KnotVector([0, 1, 2, 3], 2)
        assert eval_bspline(kv, 0, 3.5) == 0.0
        assert eval_bspline(kv, 0, -0.1) == 0.0

    def test_invalid_index(self):
        kv = KnotVector([0, 1, 2, 3], 2)
        with pytest.raises(SplineError):
            eval_bspline(kv, 1, 1.0)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        for degree in (1, 2, 3):
            kv = random_knot_vector(rng, degree)
            xs = rng.uniform(0.0, 1.0, 1000)
            total = np.zeros_like(xs)
            for i in range(kv.num_basis):
                total += np.array([eval_bspline(kv, i, x) for x in xs])
            assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_nonnegativity_and_local_support(self):
        rng = np.random.default_rng(8)
        kv = random_knot_vector(rng, 3)
        xs = rng.uniform(kv.knots[0], kv.knots[-1], 300)
        for i in range(kv.num_basis):
            lo, hi = kv_support(kv, i)
            vals = np.array([eval_bspline(kv, i, x) for x in xs])
            assert np.all(vals >= 0.0)
            assert np.all(vals[(xs < lo) | (xs > hi)] == 0.0)


class TestDerivatives:
    def test_hat_slope(self):
        kv = KnotVector([0, 1, 2], 1)
        assert eval_bspline_deriv(kv, 0, 0.5, 1) == pytest.approx(1.0)

    def test_quadratic_max_is_critical(self):
        kv = KnotVector([0, 1, 2, 3], 2)
        assert eval_bspline_deriv(kv, 0, 1.5, 1) == pytest.approx(0.0, abs=1e-14)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(9)
        for degree in (1, 2, 3):
            kv = random_knot_vector(rng, degree)
            step = 1e-6
            for _ in range(100):
                i = rng.integers(0, kv.num_basis)
                x = rng.uniform(0.05, 0.95)
                if np.min(np.abs(kv.knots - x)) < 10 * step:
                    continue
                fd = (eval_bspline(kv, i, x + step) - eval_bspline(kv, i, x - step)) / (2 * step)
                assert eval_bspline_deriv(kv, i, x, 1) == pytest.approx(fd, abs=1e-5)

    def test_order_above_degree_is_zero(self):
        kv = KnotVector([0, 1, 2], 1)
        assert eval_bspline_deriv(kv, 0, 0.5, 2) == 0.0

    def test_negative_order_rejected(self):
        kv = KnotVector([0, 1, 2], 1)
        with pytest.raises(SplineError):
            eval_bspline_deriv(kv, 0, 0.5, -1)


class TestNonzeroBasis:
    def test_matches_reference_path(self):
        rng = np.random.default_rng(10)
        for degree in (1, 2, 3):
            kv = random_knot_vector(rng, degree)
            xs = rng.uniform(0.0, 1.0, 50)
            spans, ders = nonzero_basis(kv, xs, nderiv=1)
            for q, x in enumerate(xs):
                for a in range(degree + 1):
                    i = spans[q] - degree + a
                    assert ders[0, q, a] == pytest.approx(eval_bspline(kv, i, x), abs=1e-13)
                    assert ders[1, q, a] == pytest.approx(
                        eval_bspline_deriv(kv, i, x, 1), abs=1e-10)

    def test_repeated_interior_knot(self):
        kv = KnotVector([-2.0, -1.0, 0.0, 0.5, 0.5, 1.0, 2.0, 3.0], 2)
        xs = np.array([0.25, 0.5, 0.75])
        spans, ders = nonzero_basis(kv, xs, nderiv=1)
        for q, x in enumerate(xs):
            for a in range(3):
                i = spans[q] - 2 + a
                assert ders[0, q, a] == pytest.approx(eval_bspline(kv, i, x), abs=1e-13)

    def test_endpoint_of_range(self):
        kv = uniform_knots(0.0, 1.0, 4, 2)
        spans, ders = nonzero_basis(kv, np.array([0.0, 1.0]), nderiv=0)
        assert abs(np.sum(ders[0, 0]) - 1.0) < 1e-14
        assert abs(np.sum(ders[0, 1]) - 1.0) < 1e-14

    @settings(deadline=None, max_examples=200)
    @given(kv=core_knot_vectors(), u=st.lists(st.floats(0.0, 1.0), max_size=20),
           nderiv=st.integers(0, 5))
    def test_matches_cox_de_boor_triangle(self, kv, u, nderiv):
        # on random points, every breakpoint of the core and both core ends
        m = kv.degree
        a, b = kv.knots[m], kv.knots[kv.num_basis]
        bp = kv.breakpoints
        xs = np.concatenate([a + (b - a) * np.array(u, dtype=float),
                             bp[(bp >= a) & (bp <= b)], [a, b]])
        nderiv = min(nderiv, m + 1)
        spans, ders = nonzero_basis(kv, xs, nderiv)
        ref_spans, ref = nonzero_basis_cox_de_boor(kv, xs, nderiv)
        assert ders.shape == ref.shape == (nderiv + 1, xs.size, m + 1)
        assert np.array_equal(spans, ref_spans)
        h = np.min(np.diff(bp))
        assert np.max(np.abs(ders[0] - ref[0])) <= 1e-13
        for k in range(1, nderiv + 1):
            assert np.max(np.abs(ders[k] - ref[k])) <= 1e-10 * h ** -k
        assert np.all(ders[m + 1:] == 0.0)

    def test_left_limit_at_repeated_core_end(self):
        # the last core knot 1.0 is doubled: the value there is the limit
        # from the left, in the last nonempty span of the core
        kv = KnotVector([-1.0, -0.5, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0], 2)
        assert kv.num_basis == 5 and kv.knots[kv.num_basis] == 1.0
        spans, ders = nonzero_basis(kv, np.array([1.0, 1.0 - 1e-9]), 2)
        assert spans.tolist() == [3, 3]
        assert np.abs(np.sum(ders[0, 0]) - 1.0) < 1e-14
        assert np.allclose(ders[:, 0], ders[:, 1], rtol=0.0, atol=1e-7)


class TestTensor:
    def grid(self, degree=1, n=4):
        kv = uniform_knots(0.0, float(n), n, degree)
        return TensorGrid(kv, kv)

    def test_hat_tensor_peak(self):
        g = self.grid()
        # degree-1 basis (i, j) peaks at knot (i - degree + 1 + degree) ... peak
        # of hat i is at interior knot i+1; with extension offset the peak of
        # basis 1 sits at grid point (1, 1)
        val = eval_tensor_bspline(g, (1, 1), (1.0, 1.0), (0, 0))
        assert val == pytest.approx(1.0)

    def test_partition_of_unity_2d(self):
        rng = np.random.default_rng(11)
        g = self.grid(degree=2, n=5)
        for _ in range(20):
            pt = rng.uniform(0.5, 4.5, 2)
            total = sum(eval_tensor_bspline(g, (i, j), pt)
                        for i in range(g.num_basis[0]) for j in range(g.num_basis[1]))
            assert total == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(degrees=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           cells=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           lo=st.tuples(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0)),
           width=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_partition_of_unity_random_uniform_grids(self, degrees, cells, lo,
                                                     width, seed):
        # the tensor values nonzero_basis tabulates sum to one at any point
        # of the grid core, and their first partials sum to zero
        rng = np.random.default_rng(seed)
        kvs = [uniform_knots(lo[a], lo[a] + width[a], cells[a], degrees[a])
               for a in range(2)]
        pts = rng.uniform(lo, np.add(lo, width), (200, 2))
        (_, dx), (_, dy) = (nonzero_basis(kvs[a], pts[:, a], 1) for a in range(2))
        inv_h = np.divide(cells, width)
        for (kx, ky), target, scale in (((0, 0), 1.0, 1.0), ((1, 0), 0.0, inv_h[0]),
                                        ((0, 1), 0.0, inv_h[1])):
            total = np.einsum("na,nb->n", dx[kx], dy[ky])
            assert np.max(np.abs(total - target)) <= 1e-12 * scale

    def test_tensor_derivative_finite_difference(self):
        rng = np.random.default_rng(12)
        g = self.grid(degree=2, n=5)
        step = 1e-6
        for _ in range(20):
            pt = rng.uniform(0.6, 4.4, 2)
            k = (int(rng.integers(0, g.num_basis[0])), int(rng.integers(0, g.num_basis[1])))
            fd = (eval_tensor_bspline(g, k, (pt[0] + step, pt[1]))
                  - eval_tensor_bspline(g, k, (pt[0] - step, pt[1]))) / (2 * step)
            assert eval_tensor_bspline(g, k, pt, (1, 0)) == pytest.approx(fd, abs=1e-5)


class TestLocalPolynomial:
    def test_hat_left_limb(self):
        kv = KnotVector([0, 1, 2], 1)
        g = TensorGrid(kv, kv)
        piece = local_polynomial(g, (0, 0), (0, 0))
        # on cell [0,1]^2 the basis is x*y; check the x-limb along y where hat=1
        assert piece(0.3, 1.0) == pytest.approx(0.3, abs=1e-13)
        assert piece(0.7, 0.5) == pytest.approx(0.35, abs=1e-13)

    def test_agrees_on_cell(self):
        rng = np.random.default_rng(13)
        kv = random_knot_vector(rng, 2)
        g = TensorGrid(kv, kv)
        cell = (2, 3)
        k = (3, 2)
        piece = local_polynomial(g, k, cell)
        (x0, x1), (y0, y1) = grid_cell_bounds(g, cell)
        for _ in range(20):
            x = rng.uniform(x0, x1)
            y = rng.uniform(y0, y1)
            rel = abs(piece(x, y) - eval_tensor_bspline(g, k, (x, y)))
            assert rel <= 1e-12 * max(1.0, abs(piece(x, y)))

    def test_extrapolation_is_polynomial(self):
        # outside the cell the piece must match the interpolating polynomial
        # through degree+1 interior samples (per axis)
        kv = KnotVector([0, 1, 2, 3, 4, 5], 2)
        g = TensorGrid(kv, kv)
        cell = (1, 1)
        k = (1, 1)
        piece = local_polynomial(g, k, cell)
        xs = np.array([1.2, 1.5, 1.8])
        vals = np.array([[eval_tensor_bspline(g, k, (x, y)) for y in xs] for x in xs])
        # tensor polynomial via 2D Lagrange through the 3x3 samples
        def lagrange2(x, y):
            lx = [np.prod([(x - xs[b]) / (xs[a] - xs[b]) for b in range(3) if b != a])
                  for a in range(3)]
            ly = [np.prod([(y - xs[b]) / (xs[a] - xs[b]) for b in range(3) if b != a])
                  for a in range(3)]
            return float(np.array(lx) @ vals @ np.array(ly))
        for x, y in [(0.5, 0.5), (2.7, 1.1), (3.5, 0.2)]:
            assert piece(x, y) == pytest.approx(lagrange2(x, y), abs=1e-11)

    def test_degenerate_cell_rejected(self):
        kv = KnotVector([0.0, 0.0, 1.0, 2.0, 2.0], 1)
        g = TensorGrid(kv, kv)
        with pytest.raises(SplineError):
            local_polynomial(g, (0, 0), (5, 0))  # out of range cell index


class TestDeBoorFix:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_biorthogonality_univariate(self, degree):
        rng = np.random.default_rng(100 + degree)
        kv = random_knot_vector(rng, degree, n_cells=7)
        g = TensorGrid(kv, kv)
        n = kv.num_basis
        for k in range(n):
            cells = list(kv_support_cells(kv, k))
            for kp in range(max(0, k - degree), min(n, k + degree + 1)):
                common = sorted(set(cells) & set(kv_support_cells(kv, kp)))
                if not common:
                    continue
                cell = common[len(common) // 2]
                piece = local_polynomial(g, (kp, kp), (cell, cell))
                lam = deboor_fix((kv, kv), (k, k), piece)
                expect = 1.0 if k == kp else 0.0
                assert lam == pytest.approx(expect, abs=1e-10)

    def test_constant_reproduction(self):
        # Marsden-type check: sum_k lambda_k(1) b_k reproduces 1 pointwise
        rng = np.random.default_rng(14)
        kv = random_knot_vector(rng, 2)
        g = TensorGrid(kv, kv)
        lam = {}
        ones = lambda pts: np.ones(pts.shape[0])
        for i in range(kv.num_basis):
            for j in range(kv.num_basis):
                cx = list(kv_support_cells(kv, i))
                cy = list(kv_support_cells(kv, j))
                lo = np.array([kv_cell_bounds(kv, cx[0])[0],
                               kv_cell_bounds(kv, cy[0])[0]])
                hi = np.array([kv_cell_bounds(kv, cx[0])[1],
                               kv_cell_bounds(kv, cy[0])[1]])
                piece = interpolate_piece(ones, lo, hi, (2, 2))
                lam[(i, j)] = deboor_fix((kv, kv), (i, j), piece)
        for _ in range(25):
            pt = rng.uniform(0.0, 1.0, 2)
            total = sum(c * eval_tensor_bspline(g, k, pt) for k, c in lam.items())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_biorthogonality_extreme_mesh_ratio(self):
        # near-degenerate adjacent spans (ratios in the hundreds) lose a few
        # digits to the extrapolation inherent in the dual functional
        rng = np.random.default_rng(200)
        for _ in range(5):
            kv = random_knot_vector(rng, 3, n_cells=7, max_ratio=None)
            g = TensorGrid(kv, kv)
            n = kv.num_basis
            for k in range(n):
                cells = set(kv_support_cells(kv, k))
                for kp in range(max(0, k - 3), min(n, k + 4)):
                    for cell in sorted(cells & set(kv_support_cells(kv, kp))):
                        piece = local_polynomial(g, (kp, kp), (cell, cell))
                        lam = deboor_fix((kv, kv), (k, k), piece)
                        assert lam == pytest.approx(1.0 if k == kp else 0.0, abs=3e-9)

    def test_univariate_helper_hat_values(self):
        # degree-1 dual functional is evaluation at the hat peak
        kv = KnotVector([0, 1, 2, 3, 4, 5], 1)
        # linear x -> Bernstein coefficients on [1,2] are endpoints (1, 2)
        val = dual_functional_1d(kv, 1, [1.0, 2.0], 1.0, 2.0)
        assert val == pytest.approx(2.0)  # peak of hat 1 is at knot 2

    @pytest.mark.parametrize("degree", [2, 3])
    def test_lower_degree_pieces_give_grevilles(self, degree):
        # x and x*y written at degree 1 are degree-elevated before the
        # functional applies; lambda_j(x) is the Greville abscissa of b_j
        rng = np.random.default_rng(300 + degree)
        kv = random_knot_vector(rng, degree, n_cells=7)
        t = kv.knots
        greville = [np.mean(t[j + 1:j + degree + 1]) for j in range(kv.num_basis)]
        for j in range(kv.num_basis):
            for q in kv_support_cells(kv, j):
                lo, hi = kv_cell_bounds(kv, q)
                val = dual_functional_1d(kv, j, [lo, hi], lo, hi)
                assert val == pytest.approx(greville[j], rel=1e-13, abs=1e-13)
        for j1 in range(kv.num_basis):
            j2 = kv.num_basis - 1 - j1
            q1, q2 = kv_support_cells(kv, j1)[0], kv_support_cells(kv, j2)[-1]
            (x0, x1), (y0, y1) = kv_cell_bounds(kv, q1), kv_cell_bounds(kv, q2)
            piece = PolynomialPiece(lo=np.array([x0, y0]), hi=np.array([x1, y1]),
                                    coeffs=np.outer([x0, x1], [y0, y1]))
            assert piece.degrees == (1, 1)
            lam = deboor_fix((kv, kv), (j1, j2), piece)
            assert lam == pytest.approx(greville[j1] * greville[j2],
                                        rel=1e-13, abs=1e-13)

    def test_piece_degree_too_high_rejected(self):
        kv = KnotVector([0, 1, 2, 3], 1)
        piece = PolynomialPiece(lo=np.zeros(2), hi=np.ones(2), coeffs=np.ones((3, 3)))
        with pytest.raises(SplineError):
            deboor_fix((kv, kv), (0, 0), piece)
        with pytest.raises(SplineError):
            dual_functional_1d(kv, 0, [1.0, 2.0, 3.0], 1.0, 2.0)


class TestBatchedKernels:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_pieces_and_dual_rows_equal_the_scalar_loop(self, degree):
        # same operations in the same order: equal to the last bit
        for kv in refinement_knot_vectors(degree):
            ks, qs = np.meshgrid(np.arange(kv.num_basis),
                                 np.arange(kv.num_cells), indexing="ij")
            ks, qs = ks.ravel(), qs.ravel()
            batched = local_polynomial_1d(kv, ks, qs)
            for k, q, c in zip(ks, qs, batched):
                assert np.array_equal(c, local_polynomial_1d_loop(kv, k, q))
                assert np.array_equal(c, local_polynomial_1d(kv, k, q))
            first, pieces = kv.cell_pieces
            for q in range(kv.num_cells):
                for a in range(degree + 1):
                    k = first[q] + a
                    expect = (local_polynomial_1d_loop(kv, k, q)
                              if 0 <= k < kv.num_basis else 0.0)
                    assert np.array_equal(pieces[q, a], np.broadcast_to(
                        expect, (degree + 1,)))
            lo, hi = kv.breakpoints[qs], kv.breakpoints[qs + 1]
            rows = dual_row(kv, ks, lo, hi)
            for k, a, b, r in zip(ks, lo, hi, rows):
                assert np.array_equal(r, dual_row(kv, k, a, b))

    def test_out_of_range_cell_rejected(self):
        kv = uniform_knots(0.0, 1.0, 4, 2)
        with pytest.raises(SplineError, match="out of range"):
            local_polynomial_1d(kv, [0, 1], [0, kv.num_cells])


class TestRefinementMatrix:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_coarse_bsplines_are_fine_combinations(self, degree):
        # over the whole knot range, ends and repeated knots included
        for kv in refinement_knot_vectors(degree):
            fine = kv.refined()
            S = refinement_matrix(kv, fine)
            assert S.shape == (fine.num_basis, kv.num_basis)
            xs = np.linspace(kv.knots[0], kv.knots[-1], 97)[1:-1]
            F = np.array([[eval_bspline(fine, l, x)
                           for l in range(fine.num_basis)] for x in xs])
            C = np.array([[eval_bspline(kv, k, x)
                           for k in range(kv.num_basis)] for x in xs])
            assert np.max(np.abs(F @ S - C)) <= 1e-12

    def test_entries_are_the_fine_dual_functionals(self):
        # S[l, k] = lambda_l(b_k), taken on a fine cell of supp f_l
        kv = graded_knots(-1.0, 1.0, 6, 2, 1.4, "max")
        fine = kv.refined()
        S = refinement_matrix(kv, fine)
        for l in range(fine.num_basis):
            q = kv_support_cells(fine, l)[0]
            lo, hi = kv_cell_bounds(fine, q)
            qc = int(kv.find_cell(0.5 * (lo + hi)))
            for k in range(kv.num_basis):
                piece = local_polynomial_1d(kv, k, qc)
                a, b = kv_cell_bounds(kv, qc)
                assert S[l, k] == pytest.approx(
                    dual_functional_1d(fine, l, piece, a, b), abs=1e-12)

    def test_degree_mismatch_rejected(self):
        kv = uniform_knots(0.0, 1.0, 4, 2)
        with pytest.raises(SplineError, match="equal degrees"):
            refinement_matrix(kv, uniform_knots(0.0, 1.0, 8, 1))


class TestGenerators:
    def test_uniform_full_support_region(self):
        kv = uniform_knots(-1.0, 1.0, 8, 2)
        assert kv.num_basis == 10
        assert kv.knots[kv.degree] == pytest.approx(-1.0)
        assert kv.knots[kv.num_basis] == pytest.approx(1.0)

    def test_graded_ratio(self):
        kv = graded_knots(0.0, 1.0, 5, 1, ratio=2.0)
        core = kv.breakpoints[(kv.breakpoints >= 0) & (kv.breakpoints <= 1)]
        d = np.diff(core)
        assert np.allclose(d[1:] / d[:-1], 2.0)
        kv2 = graded_knots(0.0, 1.0, 5, 1, ratio=2.0, side="min")
        d2 = np.diff(kv2.breakpoints[(kv2.breakpoints >= 0) & (kv2.breakpoints <= 1)])
        assert np.allclose(d2[1:] / d2[:-1], 0.5)

    def test_grid_meshsize(self):
        g = TensorGrid(uniform_knots(0, 1, 4, 1), uniform_knots(0, 2, 4, 1))
        assert g.meshsize == pytest.approx(np.hypot(0.25, 0.5))
