import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings, strategies as st

from webfem.assembly import (
    AssemblyError, BasisTables, CoercivityError, PressureSpace, SparsityPlan,
    WebReductionPlan, assemble_dipole_rhs, assemble_mass, assemble_mixed,
    PlapIterate, assemble_plap_jacobian_and_residual, assemble_vcpe,
    bilinear_form, export_coo, linear_form, plap_energy,
    pressure_mass_and_integral, project_pressure,
)
from webfem.geometry import (
    Conjunction, Disk, ImplicitDomain, ResolutionError, box, classify_cells,
)
from webfem.quadrature import build_quadrature
from webfem.solvers import velocity_seminorm_gram
from webfem.splines import TensorGrid, uniform_knots
from webfem.webbasis import build_web_basis, project

from oracles import eval_web
from strategies import r_trees


def disk_setup(n_cells=8, degree=2, g=None, depth=5):
    kv = uniform_knots(-1.1, 1.1, n_cells, degree)
    grid = TensorGrid(kv, kv)
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    basis = build_web_basis(dom, grid)
    quad = build_quadrature(dom, grid, basis.cls, g or degree + 1, depth)
    tables = BasisTables(basis, quad)
    return basis, quad, tables


class TestVcpe:
    def test_homogeneous_rhs_and_spd(self):
        basis, quad, tables = disk_setup()
        sys = assemble_vcpe(basis, 1.0, 0.0, tables)
        assert np.all(sys.rhs == 0.0)
        A = sys.matrix.toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-10 * np.max(np.abs(A))
        assert np.linalg.eigvalsh(A).min() > 0.0

    @settings(deadline=None, max_examples=30)
    @given(tree=r_trees(2), n_cells=st.integers(4, 8),
           degree=st.integers(1, 3), half=st.floats(1.0, 1.2),
           depth=st.integers(0, 4))
    def test_spd_on_random_domains(self, tree, n_cells, degree, half, depth):
        # the box keeps every domain inside the grid core
        dom = ImplicitDomain(Conjunction(tree, box([-0.95, -0.95], [0.95, 0.95])))
        kv = uniform_knots(-half, half, n_cells, degree)
        grid = TensorGrid(kv, kv)
        try:
            basis = build_web_basis(dom, grid)
        except ResolutionError:
            reject()
        quad = build_quadrature(dom, grid, basis.cls, degree + 1, depth)
        A = assemble_vcpe(basis, 1.0, 0.0, BasisTables(basis, quad)).matrix.toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        assert np.linalg.eigvalsh(A)[0] > 0.0

    def test_diagonal_positive(self):
        basis, quad, tables = disk_setup(n_cells=6)
        sys = assemble_vcpe(basis, 1.0, 1.0, tables)
        assert np.all(sys.matrix.diagonal() > 0.0)

    def test_against_dense_pointwise_oracle(self):
        # tiny problem: every entry recomputed by direct quadrature of
        # eval_web products (independent evaluation path, same rule)
        basis, quad, tables = disk_setup(n_cells=4, degree=1, depth=3)
        a = lambda p: 1.0 + p[:, 0] ** 2
        sys = assemble_vcpe(basis, a, 0.0, tables)
        A = sys.matrix.toarray()
        n = basis.n_inner
        pts = quad.points
        av = a(pts)
        dense = np.zeros((n, n))
        grads = []
        for r, i in enumerate(basis.idx.inner):
            gx = np.array([eval_web(basis, i, p, (1, 0)) for p in pts])
            gy = np.array([eval_web(basis, i, p, (0, 1)) for p in pts])
            grads.append((gx, gy))
        for r in range(n):
            for c in range(n):
                integrand = av * (grads[r][0] * grads[c][0] + grads[r][1] * grads[c][1])
                dense[r, c] = np.sum(quad.weights * integrand)
        assert np.max(np.abs(A - dense)) <= 1e-10

    def test_nonpositive_coefficient_rejected(self):
        basis, quad, tables = disk_setup(n_cells=6)
        with pytest.raises(CoercivityError):
            assemble_vcpe(basis, lambda p: p[:, 0], 0.0, tables)

    def test_sparsity_pattern(self):
        basis, quad, tables = disk_setup(n_cells=10)
        sys = assemble_vcpe(basis, 1.0, 0.0, tables)
        m = basis.grid.degrees[0]
        # direct tensor overlap gives (2m+1)^2 neighbors; extension couplings
        # widen the band near the boundary by the outer-spline overlap factor
        max_nnz = sys.matrix.getnnz(axis=1).max()
        overlap = max(len(v) for v in basis.idx.j_of_i.values()) + 1
        assert max_nnz <= (2 * m + 1) ** 2 * (1 + overlap)

    def test_disjoint_supports_are_zero(self):
        basis, quad, tables = disk_setup(n_cells=10)
        sys = assemble_vcpe(basis, 1.0, 0.0, tables)
        A = sys.matrix.toarray()
        inner = basis.idx.inner
        i0, i1 = inner[0], inner[-1]  # opposite corners of the disk
        lo0, hi0 = basis.grid.support_box(i0)
        lo1, hi1 = basis.grid.support_box(i1)
        assert np.all(hi0 < lo1) or np.all(hi1 < lo0) or \
               hi0[0] < lo1[0] or hi0[1] < lo1[1]
        assert A[0, -1] == 0.0


class TestDipole:
    def test_zero(self):
        basis, quad, tables = disk_setup(n_cells=6)
        F = assemble_dipole_rhs(basis, np.zeros(2), tables)
        assert np.all(F == 0.0)

    @staticmethod
    def box_setup(g=8):
        # grid-aligned box: the subdivision leaves tile the boundary cells
        # exactly, so only the Gauss error on the smooth weight remains
        from webfem.geometry import box
        kv = uniform_knots(-1.1, 1.1, 8, 2)
        grid = TensorGrid(kv, kv)
        dom = ImplicitDomain(box([-0.825, -0.825], [0.825, 0.825]))
        basis = build_web_basis(dom, grid)
        quad = build_quadrature(dom, grid, basis.cls, g, 4)
        return basis, quad, BasisTables(basis, quad)

    def test_constant_divergence_theorem(self):
        # -c . int grad B_j vanishes because B_j is zero on the boundary
        basis, quad, tables = self.box_setup()
        F = assemble_dipole_rhs(basis, np.array([0.7, -0.2]), tables)
        assert np.max(np.abs(F)) <= 1e-6

    def test_constant_divergence_cut_boundary_depth_convergence(self):
        # on a cut boundary the identity is polluted by the first-order
        # staircase error of the center rule; it must vanish with depth
        errs = []
        for depth in (6, 8, 10):
            basis, quad, tables = disk_setup(n_cells=8, depth=depth)
            F = assemble_dipole_rhs(basis, np.array([0.7, -0.2]), tables)
            errs.append(np.max(np.abs(F)))
        assert errs[2] <= 0.3 * errs[0]
        assert errs[2] <= 1e-4

    def test_against_symbolic_divergence(self):
        # d = (sin x cos y, x y): div d = cos x cos y + x
        basis, quad, tables = self.box_setup()
        d = lambda p: np.column_stack([np.sin(p[:, 0]) * np.cos(p[:, 1]),
                                       p[:, 0] * p[:, 1]])
        f = lambda p: np.cos(p[:, 0]) * np.cos(p[:, 1]) + p[:, 0]
        F_dip = assemble_dipole_rhs(basis, d, tables)
        from webfem.assembly import linear_form
        F_src = basis.coupling_matrix() @ linear_form(
            tables.idx, tables.qw, [(f(quad.points), tables.wb)], tables.n_cols)
        assert np.max(np.abs(F_dip - F_src)) <= 1e-6


class TestPlap:
    def test_p2_jacobian_is_linear_system(self):
        basis, quad, tables = disk_setup(n_cells=6)
        rng = np.random.default_rng(31)
        f_vals = np.ones(tables.num_points)
        J0, _ = assemble_plap_jacobian_and_residual(
            basis, tables, np.zeros(basis.n_inner), 2.0, 0.0, f_vals)
        J1, _ = assemble_plap_jacobian_and_residual(
            basis, tables, rng.normal(size=basis.n_inner), 2.0, 0.5, f_vals)
        stiff = assemble_vcpe(basis, 1.0, 0.0, tables).matrix
        mass = assemble_mass(basis, tables)
        ref = (stiff + mass).toarray()
        assert np.max(np.abs(J0.toarray() - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(J1.toarray() - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_iterate_zero_source(self):
        basis, quad, tables = disk_setup(n_cells=6)
        R = PlapIterate(basis, tables, np.zeros(basis.n_inner), 1.5, 1e-2,
                        np.zeros(tables.num_points)).residual
        assert np.all(R == 0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_jacobian_matches_directional_fd(self, p):
        basis, quad, tables = disk_setup(n_cells=6)
        rng = np.random.default_rng(32)
        f_vals = np.sin(quad.points[:, 0])
        for _ in range(5):
            c = rng.normal(size=basis.n_inner)
            d = rng.normal(size=basis.n_inner)
            d /= np.linalg.norm(d)
            J, R = assemble_plap_jacobian_and_residual(basis, tables, c, p, 1e-1, f_vals)
            step = 1e-6
            Rp = PlapIterate(basis, tables, c + step * d, p, 1e-1, f_vals).residual
            Rm = PlapIterate(basis, tables, c - step * d, p, 1e-1, f_vals).residual
            fd = (Rp - Rm) / (2 * step)
            Jd = J @ d
            assert np.linalg.norm(Jd - fd) <= 1e-4 * max(np.linalg.norm(Jd), 1e-12)

    def test_energy_gradient_consistency(self):
        basis, quad, tables = disk_setup(n_cells=6)
        rng = np.random.default_rng(33)
        f_vals = np.cos(quad.points[:, 1])
        c = rng.normal(size=basis.n_inner)
        d = rng.normal(size=basis.n_inner)
        p, eps = 2.5, 1e-1
        R = PlapIterate(basis, tables, c, p, eps, f_vals).residual
        step = 1e-6
        ep = plap_energy(basis, tables, c + step * d, p, eps, f_vals)
        em = plap_energy(basis, tables, c - step * d, p, eps, f_vals)
        assert (ep - em) / (2 * step) == pytest.approx(float(R @ d), rel=1e-5)

    def test_spd_for_p3(self):
        basis, quad, tables = disk_setup(n_cells=6)
        rng = np.random.default_rng(34)
        c = rng.normal(size=basis.n_inner)
        J, _ = assemble_plap_jacobian_and_residual(
            basis, tables, c, 3.0, 1e-6, np.zeros(tables.num_points))
        assert np.linalg.eigvalsh(J.toarray()).min() > 0.0

    def test_monotonicity(self):
        basis, quad, tables = disk_setup(n_cells=6)
        rng = np.random.default_rng(35)
        f_vals = np.zeros(tables.num_points)
        for p in (1.5, 3.0):
            for _ in range(5):
                v = rng.normal(size=basis.n_inner)
                w = rng.normal(size=basis.n_inner)
                Rv = PlapIterate(basis, tables, v, p, 1e-3, f_vals).residual
                Rw = PlapIterate(basis, tables, w, p, 1e-3, f_vals).residual
                assert float((Rv - Rw) @ (v - w)) >= -1e-10

    def test_invalid_exponent(self):
        basis, quad, tables = disk_setup(n_cells=4, degree=1, depth=3)
        with pytest.raises(AssemblyError):
            assemble_plap_jacobian_and_residual(
                basis, tables, np.zeros(basis.n_inner), 0.5, 1e-2,
                np.zeros(tables.num_points))

    def test_overflowing_iterate_samples_but_does_not_assemble(self):
        # a damped line search must be able to read the energy of a
        # candidate that overflows; only residual and Jacobian reject it
        basis, quad, tables = disk_setup(n_cells=6)
        c = np.full(basis.n_inner, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            state = PlapIterate(basis, tables, c, 3.0, 1e-2,
                                np.ones(tables.num_points))
            assert not np.isfinite(state.energy)
            with pytest.raises(AssemblyError, match="non-finite"):
                state.residual
            with pytest.raises(AssemblyError, match="non-finite"):
                state.jacobian()


class TestPressure:
    def test_mass_block_diagonal_and_mean(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        M, g = pressure_mass_and_integral(ps, quad)
        # Q0: mass diagonal equals the cut cell areas = basis integrals
        assert np.allclose(M.diagonal(), g)
        assert np.sum(g) == pytest.approx(np.pi, rel=1e-3)

    def test_projection_reproduces_space(self):
        # sliver cut cells make the local Q1 mass blocks badly conditioned,
        # so compare the projected function, not raw coefficients
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 1)
        coeffs = np.zeros(ps.n_dofs)
        coeffs[::ps.ndof_cell] = 2.5  # constant 2.5 in every cell
        p_vals = ps.evaluate(coeffs, quad.points)
        out = project_pressure(ps, quad, p_vals)
        resid = ps.evaluate(out, quad.points) - p_vals
        l2 = np.sqrt(np.sum(quad.weights * resid ** 2))
        assert l2 <= 1e-12

    @staticmethod
    def dense_projection(pspace, quad, p_exact):
        """The former projection: one dense copy of the whole pressure mass,
        sliced per patch."""
        cols, vals = pspace.tables(quad)
        M, _ = pressure_mass_and_integral(pspace, quad)
        rhs = linear_form(cols, quad.weights, [(p_exact(quad.points), vals)],
                          pspace.n_dofs)
        nd = pspace.ndof_cell
        out = np.zeros(pspace.n_dofs)
        Md = M.toarray()
        for c in range(len(pspace.cells)):
            sl = slice(c * nd, (c + 1) * nd)
            try:
                out[sl] = np.linalg.solve(Md[sl, sl], rhs[sl])
            except np.linalg.LinAlgError:
                out[sl] = np.linalg.lstsq(Md[sl, sl], rhs[sl], rcond=None)[0]
        return out

    @pytest.mark.parametrize("degree,macro", [(0, 1), (1, 1), (2, 2)])
    def test_projection_equals_dense_loop(self, degree, macro):
        basis, quad, tables = disk_setup(n_cells=10)
        ps = PressureSpace(basis.grid, quad, degree, macro=macro)
        p = lambda pts: pts[:, 0] * pts[:, 1] + np.sin(pts[:, 0])
        assert np.array_equal(project_pressure(ps, quad, p),
                              self.dense_projection(ps, quad, p))

    def test_projection_memory_scales_with_dofs(self):
        # the whole mass matrix densified would take n_dofs^2 * 8 bytes
        kv = uniform_knots(-1.1, 1.1, 40, 1)
        grid = TensorGrid(kv, kv)
        dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
        quad = build_quadrature(dom, grid, classify_cells(dom, grid), 3, 1)
        ps = PressureSpace(grid, quad, 2)
        assert ps.n_dofs >= 5000
        p = lambda pts: pts[:, 0] * pts[:, 1] + np.sin(pts[:, 0])
        tracemalloc.start()
        try:
            project_pressure(ps, quad, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ps.n_dofs ** 2 * 8 / 50

    def test_projection_preserves_mean(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        p = lambda pts: pts[:, 0] * pts[:, 1] + np.sin(pts[:, 0])
        out = project_pressure(ps, quad, p)
        _, g = pressure_mass_and_integral(ps, quad)
        proj_mean = float(g @ out)
        exact_mean = quad.integrate(p)
        assert proj_mean == pytest.approx(exact_mean, abs=1e-10)


class TestMixed:
    def test_block_symmetry(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        c_prev = np.zeros(2 * basis.n_inner)
        A, B, Fv, Mp, g = assemble_mixed(basis, ps, lambda s: 1.0 + 0 * s,
                                         c_prev, np.zeros(2), tables, quad)
        Ad = A.toarray()
        assert np.max(np.abs(Ad - Ad.T)) <= 1e-12 * np.max(np.abs(Ad))
        assert np.linalg.eigvalsh(Ad).min() > 0.0

    def test_divergence_free_interpolant_in_kernel(self):
        # u = (-4y(1-r^2), 4x(1-r^2)) is solenoidal and lies in the web space
        basis, quad, tables = disk_setup(n_cells=10)
        ps = PressureSpace(basis.grid, quad, 0)
        u1 = lambda p: -4.0 * p[:, 1] * (1 - p[:, 0] ** 2 - p[:, 1] ** 2)
        u2 = lambda p: 4.0 * p[:, 0] * (1 - p[:, 0] ** 2 - p[:, 1] ** 2)
        c = np.concatenate([project(basis, u1), project(basis, u2)])
        A, B, Fv, Mp, g = assemble_mixed(basis, ps, lambda s: 1.0 + 0 * s,
                                         c, np.zeros(2), tables, quad)
        assert np.max(np.abs(B @ c)) <= 1e-6

    def test_pressure_blocks_assembled_once(self):
        # B, Mp and g do not depend on the iterate: later Picard steps reuse
        # them while the velocity block follows the viscosity
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        a_fn = lambda s: 1.0 + s
        c = np.random.default_rng(45).normal(size=2 * basis.n_inner)
        first = assemble_mixed(basis, ps, a_fn, np.zeros_like(c), np.zeros(2),
                               tables, quad)
        second = assemble_mixed(basis, ps, a_fn, c, np.zeros(2), tables, quad)
        for k in (1, 3, 4):
            assert second[k] is first[k]
        assert np.max(np.abs((second[0] - first[0]).toarray())) > 0.0

    def test_picard_steps_share_one_pattern(self, monkeypatch):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        built = []
        init = WebReductionPlan.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(WebReductionPlan, "__init__", counting_init)
        a_fn = lambda s: 1.0 + s
        c = np.random.default_rng(46).normal(size=2 * basis.n_inner)
        first = assemble_mixed(basis, ps, a_fn, np.zeros_like(c), np.zeros(2),
                               tables, quad)[0]
        second = assemble_mixed(basis, ps, a_fn, c, np.zeros(2), tables, quad)[0]
        assert len(built) == 1
        assert second is not first
        pattern = tables.velocity_pattern
        for A in (first, second):
            assert A.indptr is pattern.indptr
            assert np.shares_memory(A.indices, pattern.indices)
        assert not np.array_equal(second.data, first.data)

    def test_viscosity_positivity_enforced(self):
        basis, quad, tables = disk_setup(n_cells=6)
        ps = PressureSpace(basis.grid, quad, 0)
        with pytest.raises(CoercivityError):
            assemble_mixed(basis, ps, lambda s: 0.0 * s, np.zeros(2 * basis.n_inner),
                           np.zeros(2), tables, quad)


def dense_form(row_idx, col_idx, qw, terms, shape):
    """Per-point reference of bilinear_form: every point's outer product
    added into a dense array."""
    out = np.zeros(shape)
    for c, fa, fb in terms:
        local = np.einsum("n,na,nb->nab", qw * c, fa, fb)
        np.add.at(out, (row_idx[:, :, None], col_idx[:, None, :]), local)
    return out


def assert_close(actual, reference):
    actual = actual.toarray() if sp.issparse(actual) else actual
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(actual - reference)) <= 1e-12 * scale


class TestSparsityPlan:
    def test_operators_match_dense_pointwise_reference(self):
        basis, quad, t = disk_setup(n_cells=6)
        E = basis.coupling_matrix().toarray()
        shape = (t.n_cols, t.n_cols)

        def web(terms):
            return E @ dense_form(t.idx, t.idx, t.qw, terms, shape) @ E.T

        a = lambda p: 1.0 + p[:, 0] ** 2
        av = a(t.points)
        assert_close(assemble_vcpe(basis, a, 0.0, t).matrix,
                     web([(av, t.wbx, t.wbx), (av, t.wby, t.wby)]))

        c = np.random.default_rng(41).normal(size=basis.n_inner)
        p, eps = 1.5, 1e-1
        _, g = t.field(basis.coupling_matrix().T @ c, grad=True)
        base = eps ** 2 + np.sum(g * g, axis=1)
        mu = base ** (0.5 * (p - 2.0))
        kappa = (p - 2.0) * base ** (0.5 * (p - 4.0))
        d = g[:, :1] * t.wbx + g[:, 1:] * t.wby
        J, _ = assemble_plap_jacobian_and_residual(
            basis, t, c, p, eps, np.zeros(t.num_points))
        assert_close(J, web([(mu, t.wbx, t.wbx), (mu, t.wby, t.wby),
                             (kappa, d, d), (1.0, t.wb, t.wb)]))

        ps = PressureSpace(basis.grid, quad, 1)
        A, B, _, Mp, _ = assemble_mixed(basis, ps, lambda s: 2.0 + 0.0 * s,
                                        np.zeros(2 * basis.n_inner),
                                        np.zeros(2), t, quad)
        A11 = web([(2.0, t.wbx, t.wbx), (1.0, t.wby, t.wby)])
        A22 = web([(2.0, t.wby, t.wby), (1.0, t.wbx, t.wbx)])
        A12 = web([(1.0, t.wby, t.wbx)])
        assert_close(A, np.block([[A11, A12], [A12.T, A22]]))
        pcols, pvals = ps.tables(quad)
        pshape = (ps.n_dofs, t.n_cols)
        Bx = dense_form(pcols, t.idx, t.qw, [(-1.0, pvals, t.wbx)], pshape)
        By = dense_form(pcols, t.idx, t.qw, [(-1.0, pvals, t.wby)], pshape)
        assert_close(B, np.hstack([Bx @ E.T, By @ E.T]))
        assert_close(Mp, dense_form(pcols, pcols, quad.weights,
                                    [(1.0, pvals, pvals)],
                                    (ps.n_dofs, ps.n_dofs)))

    def test_newton_jacobians_share_one_plan(self, monkeypatch):
        basis, quad, tables = disk_setup(n_cells=6)
        built = []
        init = SparsityPlan.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(SparsityPlan, "__init__", counting_init)
        rng = np.random.default_rng(42)
        web = tables.web_plan
        for _ in range(2):
            J, _ = assemble_plap_jacobian_and_residual(
                basis, tables, rng.normal(size=basis.n_inner), 1.5, 1e-2,
                np.ones(tables.num_points))
            assert J.indptr is web.indptr
            assert np.shares_memory(J.indices, web.indices)
            assert J.nnz == web.nnz
        assert built == []

    def test_one_web_plan_per_table(self, monkeypatch):
        # whatever the mix of operators, a table builds one reduction plan
        # and every web matrix it returns is in that plan's pattern
        built = []
        init = WebReductionPlan.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(WebReductionPlan, "__init__", counting_init)
        rng = np.random.default_rng(47)

        def jacobian(basis, tables):
            return assemble_plap_jacobian_and_residual(
                basis, tables, rng.normal(size=basis.n_inner), 1.5, 1e-2,
                np.ones(tables.num_points))[0]

        def stiffness_and_mass(basis, quad, tables):
            return [assemble_vcpe(basis, 1.0, 1.0, tables).matrix,
                    assemble_mass(basis, tables)]

        def mass_and_jacobians(basis, quad, tables):
            return [assemble_mass(basis, tables)] + [
                jacobian(basis, tables) for _ in range(3)]

        def seminorm_picard_and_mass(basis, quad, tables):
            velocity_seminorm_gram(basis, tables)
            ps = PressureSpace(basis.grid, quad, 0)
            for _ in range(2):
                assemble_mixed(basis, ps, lambda s: 1.0 + s,
                               rng.normal(size=2 * basis.n_inner),
                               np.zeros(2), tables, quad)
            return [assemble_mass(basis, tables)]

        for mix in (stiffness_and_mass, mass_and_jacobians,
                    seminorm_picard_and_mass):
            basis, quad, tables = disk_setup(n_cells=6)
            built.clear()
            matrices = mix(basis, quad, tables)
            assert len(built) == 1 and built[0] is tables.web_plan
            for M in matrices:
                assert M.indptr is tables.web_plan.indptr
                assert np.shares_memory(M.indices, tables.web_plan.indices)

    @settings(deadline=None, max_examples=25)
    @given(tree=r_trees(2), n_cells=st.integers(4, 7),
           degree=st.integers(1, 3), half=st.floats(1.0, 1.2),
           depth=st.integers(0, 3))
    def test_web_reduction_plan_matches_dense(self, tree, n_cells, degree,
                                              half, depth):
        dom = ImplicitDomain(Conjunction(tree, box([-0.95, -0.95], [0.95, 0.95])))
        kv = uniform_knots(-half, half, n_cells, degree)
        grid = TensorGrid(kv, kv)
        try:
            basis = build_web_basis(dom, grid)
        except ResolutionError:
            reject()
        quad = build_quadrature(dom, grid, basis.cls, degree + 1, depth)
        t = BasisTables(basis, quad)
        # an unsymmetric operator, so that transposed maps would show
        P = bilinear_form(t.plan, t.qw,
                          [(1.0 + t.points[:, 0] ** 2, t.wby, t.wbx),
                           (1.0, t.wb, t.wbx)])
        E = basis.coupling_matrix().toarray()
        web = t.web_plan
        W = sp.csr_matrix((web.R @ P.data, web.indices, web.indptr),
                          shape=web.shape)
        assert W.has_sorted_indices
        assert_close(W, E @ P.toarray() @ E.T)

    def test_reassembly_is_bit_identical(self):
        basis, quad, tables = disk_setup(n_cells=6)
        c = np.random.default_rng(43).normal(size=basis.n_inner)
        f_vals = np.ones(tables.num_points)
        J1, R1 = assemble_plap_jacobian_and_residual(
            basis, tables, c, 1.5, 1e-2, f_vals)
        J2, R2 = assemble_plap_jacobian_and_residual(
            basis, tables, c.copy(), 1.5, 1e-2, f_vals)
        assert np.array_equal(J1.indptr, J2.indptr)
        assert np.array_equal(J1.indices, J2.indices)
        assert np.array_equal(J1.data, J2.data)
        assert np.array_equal(R1, R2)

    def test_cells_with_disagreeing_rows_rejected(self):
        basis, quad, _ = disk_setup(n_cells=6)
        one_cell = dataclasses.replace(
            quad, cell_ids=np.zeros_like(quad.cell_ids))
        with pytest.raises(AssemblyError, match="different basis rows"):
            BasisTables(basis, one_cell)

    def test_pressure_evaluate_matches_tables(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 1, macro=2)
        coeffs = np.random.default_rng(44).normal(size=ps.n_dofs)
        cols, vals = ps.tables(quad)
        assert ps.tables(quad)[0] is cols  # tabulated once per rule
        expected = np.einsum("nd,nd->n", coeffs[cols], vals)
        assert np.array_equal(ps.evaluate(coeffs, quad.points), expected)
        # a grid corner lies in an exterior cell, which has no dofs
        assert ps.evaluate(coeffs, np.array([[-1.09, -1.09]]))[0] == 0.0


class TestExport:
    def test_coo_round_trip(self, tmp_path):
        basis, quad, tables = disk_setup(n_cells=4, degree=1, depth=3)
        sys = assemble_vcpe(basis, 1.0, 1.0, tables)
        path = tmp_path / "A.txt"
        export_coo(path, sys.matrix, header="stiffness")
        rows, cols, vals = [], [], []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                continue
            r, c, v = line.split()
            rows.append(int(r)); cols.append(int(c)); vals.append(float(v))
        M = sp.coo_matrix((vals, (rows, cols)), shape=sys.matrix.shape).tocsr()
        assert np.max(np.abs((M - sys.matrix).toarray())) == 0.0
