import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings, strategies as st

from webfem import assembly, cli, webbasis
from webfem.analysis import assembly_quadrature, run_convergence
from webfem.assembly import (
    AssemblyError, BasisTables, CellSegments, CoercivityError, PressureSpace,
    SparsityPlan, WebReductionPlan, assemble_mass, assemble_mixed,
    PlapIterate, assemble_plap_jacobian_and_residual, assemble_vcpe,
    bilinear_form, export_coo, linear_form, plap_energy,
    pressure_mass_and_integral, project_pressure,
)
from webfem.geometry import (
    Conjunction, Disk, ImplicitDomain, ResolutionError, annulus, box,
    classify_cells, domain_from_config,
)
from webfem.quadrature import DomainQuadrature, build_quadrature
from webfem.solvers import velocity_seminorm_gram
from webfem.splines import TensorGrid, graded_knots, uniform_knots
from webfem.webbasis import build_web_basis, project

from oracles import (
    assemble_dipole_rhs, eval_web, grid_support_box, linear_form_points,
    point_columns, pressure_patches_loop, project_pressure_mass_gather,
)
from strategies import r_trees

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def disk_setup(n_cells=8, degree=2, g=None, depth=5, gauss_leaf=None):
    kv = uniform_knots(-1.1, 1.1, n_cells, degree)
    grid = TensorGrid(kv, kv)
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    basis = build_web_basis(dom, grid)
    quad = build_quadrature(dom, grid, basis.cls, g or degree + 1, depth,
                            gauss_leaf)
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
        with pytest.raises(CoercivityError, match="quadrature point") as err:
            assemble_vcpe(basis, lambda p: p[:, 0], 0.0, tables)
        # the point reads as plain floats, also under numpy 2
        assert "np.float64" not in str(err.value)

    def test_sparsity_pattern(self):
        basis, quad, tables = disk_setup(n_cells=10)
        sys = assemble_vcpe(basis, 1.0, 0.0, tables)
        m = basis.grid.degrees[0]
        # direct tensor overlap gives (2m+1)^2 neighbors; extension couplings
        # widen the band near the boundary by the outer-spline overlap factor
        max_nnz = sys.matrix.getnnz(axis=1).max()
        overlap = np.bincount(basis.idx.pair_inner).max() + 1
        assert max_nnz <= (2 * m + 1) ** 2 * (1 + overlap)

    def test_disjoint_supports_are_zero(self):
        basis, quad, tables = disk_setup(n_cells=10)
        sys = assemble_vcpe(basis, 1.0, 0.0, tables)
        A = sys.matrix.toarray()
        inner = basis.idx.inner
        i0, i1 = inner[0], inner[-1]  # opposite corners of the disk
        lo0, hi0 = grid_support_box(basis.grid, i0)
        lo1, hi1 = grid_support_box(basis.grid, i1)
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
        F_src = basis.coupling_matrix() @ linear_form_points(
            point_columns(tables), tables.qw, [(f(quad.points), tables.wb)],
            tables.n_cols)
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

    def test_base_equals_the_axis_sum(self):
        basis, quad, tables = disk_setup(n_cells=6)
        c = np.random.default_rng(5).normal(size=basis.n_inner)
        state = PlapIterate(basis, tables, c, 1.5, 1e-1,
                            np.zeros(tables.num_points))
        assert np.array_equal(state.base,
                              1e-1 ** 2 + np.sum(state.g * state.g, axis=1))

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
        seg, cell_cols, vals = pspace.rule(quad.points, quad.cell_ids)
        cols = np.repeat(cell_cols, seg.counts, axis=0)
        M, _ = pressure_mass_and_integral(pspace, quad)
        rhs = linear_form(seg, cols[seg.starts], quad.weights,
                          [(p_exact(quad.points), vals)], pspace.n_dofs)
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

    def test_projection_equals_mass_gather(self):
        # the per-patch sums of the local masses are the patch blocks of the
        # assembled global mass, added in the same cell order
        p = lambda pts: pts[:, 0] * pts[:, 1] + np.sin(pts[:, 0])
        kv = graded_knots(-1.1, 1.1, 13, 2, 1.15)
        grid = TensorGrid(kv, kv)
        for node in (Disk([0.03, -0.02], 0.97), annulus([0.0, 0.01], 0.35, 0.98),
                     box([-0.83, -0.91], [0.94, 0.77])):
            dom = ImplicitDomain(node)
            quad = build_quadrature(dom, grid, classify_cells(dom, grid), 3, 4)
            for degree in (0, 1, 2):
                for macro in (1, 2):
                    ps = PressureSpace(grid, quad, degree, macro=macro)
                    assert np.array_equal(
                        project_pressure(ps, quad, p),
                        project_pressure_mass_gather(ps, quad, p))

    def test_projection_preserves_mean(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        p = lambda pts: pts[:, 0] * pts[:, 1] + np.sin(pts[:, 0])
        out = project_pressure(ps, quad, p)
        _, g = pressure_mass_and_integral(ps, quad)
        proj_mean = float(g @ out)
        exact_mean = quad.integrate(p)
        assert proj_mean == pytest.approx(exact_mean, abs=1e-10)

    @staticmethod
    def assert_patches_match_loop(ps, grid, quad, degree, macro):
        cells, pos, center, half, n_dofs = pressure_patches_loop(
            grid, quad, degree, macro)
        assert np.array_equal(ps.cells, np.array(cells).reshape(-1, 2))
        assert np.array_equal(ps._pos, pos)
        assert np.array_equal(ps._center, center)
        assert np.array_equal(ps._half, half)
        assert ps.n_dofs == n_dofs

    def test_patches_equal_dict_loop(self):
        domains = [Disk([0.03, -0.02], 0.97), annulus([0.0, 0.01], 0.35, 0.98),
                   box([-0.83, -0.91], [0.94, 0.77])]
        knots = [uniform_knots(-1.1, 1.1, 11, 2),
                 graded_knots(-1.1, 1.1, 13, 2, 1.15)]
        merged = 0
        for node in domains:
            dom = ImplicitDomain(node)
            for kv in knots:
                grid = TensorGrid(kv, kv)
                cls = classify_cells(dom, grid)
                ny = grid.num_cells[1]
                for depth in (1, 2, 3, 4):
                    quad = build_quadrature(dom, grid, cls, 2, depth)
                    ids = np.unique(quad.cell_ids)
                    for macro in (1, 2, 3):
                        degree = (depth + macro) % 3
                        ps = PressureSpace(grid, quad, degree, macro=macro)
                        self.assert_patches_match_loop(ps, grid, quad, degree,
                                                       macro)
                        patches = np.unique(ids // ny // macro * ny
                                            + ids % ny // macro)
                        merged += len(ps.cells) < patches.size
        assert merged >= 10

    @staticmethod
    def row_space(coverages):
        """Space of unit cells (1, 2), (2, 2), ... with the given coverages,
        from a rule of one point per cell holding only ids and weights."""
        kv = uniform_knots(0.0, 5.0, 5, 0)
        grid = TensorGrid(kv, kv)
        ny = grid.num_cells[1]
        cell_ids = (np.arange(len(coverages)) + 1) * ny + 2
        quad = DomainQuadrature(points=None, weights=np.array(coverages),
                                cell_ids=cell_ids, leaves=None)
        ps = PressureSpace(grid, quad, 1)
        TestPressure.assert_patches_match_loop(ps, grid, quad, 1, 1)
        return ps, cell_ids

    def test_sliver_chain_resolves_to_its_root(self):
        # the first sliver's host is the second, itself a sliver hosted by
        # the third
        ps, cell_ids = self.row_space([0.01, 0.05, 0.5])
        assert np.array_equal(ps.cells, [[3, 2]])
        assert np.array_equal(ps._pos[cell_ids], [0, 0, 0])
        assert np.array_equal(ps._center[cell_ids], np.full((3, 2), [3.5, 2.5]))

    def test_sliver_keeps_itself_on_a_tie(self):
        # a host must cover strictly more: equal slivers stay apart
        ps, cell_ids = self.row_space([0.05, 0.05])
        assert np.array_equal(ps.cells, [[1, 2], [2, 2]])
        assert np.array_equal(ps._pos[cell_ids], [0, 1])

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("macro", [1, 2])
    def test_constant_mode(self, degree, macro):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, degree, macro=macro)
        assert np.all(ps.evaluate(ps.constant, quad.points) == 1.0)
        _, Mp, g = ps.blocks(tables)
        assert np.max(np.abs(Mp @ ps.constant - g)) <= 1e-13 * np.max(np.abs(g))


class TestMixed:
    def test_block_symmetry(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        c_prev = np.zeros(2 * basis.n_inner)
        A, B, Fv, Mp, g = assemble_mixed(basis, ps, lambda s: 1.0 + 0 * s,
                                         c_prev, np.zeros(2), tables)
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
                                         c, np.zeros(2), tables)
        assert np.max(np.abs(B @ c)) <= 1e-6

    def test_pressure_blocks_assembled_once(self):
        # B, Mp and g do not depend on the iterate: later Picard steps reuse
        # them while the velocity block follows the viscosity
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        a_fn = lambda s: 1.0 + s
        c = np.random.default_rng(45).normal(size=2 * basis.n_inner)
        first = assemble_mixed(basis, ps, a_fn, np.zeros_like(c), np.zeros(2),
                               tables)
        second = assemble_mixed(basis, ps, a_fn, c, np.zeros(2), tables)
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
                               tables)[0]
        second = assemble_mixed(basis, ps, a_fn, c, np.zeros(2), tables)[0]
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
                           np.zeros(2), tables)


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


def workload_rules(workload, tmp_path):
    """(study, basis, quad) of each level of a benchmark workload at seed 0."""
    cfg = cli.load_config(workloads.write_config(workload, 0, tmp_path))
    study = cli._study_from_config(cfg)
    dom = domain_from_config(cli._build_case(cfg).domain_config)
    grid = study.base_grid()
    for level in range(study.levels):
        basis = build_web_basis(dom, grid, study.samples_per_axis)
        yield study, basis, assembly_quadrature(basis, study, level)
        grid = grid.refined()


def workload_levels(workload, tmp_path):
    """(study, quad, tables) of each level of a benchmark workload at seed 0."""
    for study, basis, quad in workload_rules(workload, tmp_path):
        yield study, quad, BasisTables(basis, quad)


class TestLinearForm:
    """The per-cell load reduction against the per-point scatter."""

    @staticmethod
    def assert_rounding(actual, reference):
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(actual - reference)) <= 1e-13 * scale

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_workload_tables(self, workload, tmp_path):
        for study, quad, t in workload_levels(workload, tmp_path):
            seg = t.segments
            assert len({k for *_, k in seg.batches}) > 1
            c = np.random.default_rng(7).normal(size=(3, t.num_points))
            terms = [(c[0], t.wbx), (c[1], t.wby), (1.0, t.wb)]
            self.assert_rounding(
                linear_form(seg, t.cell_idx, t.qw, terms, t.n_cols),
                linear_form_points(point_columns(t), t.qw, terms, t.n_cols))
            for degree in (0, 1):
                ps = PressureSpace(t.basis.grid, quad, degree,
                                   macro=study.pressure_macro)
                _, cell_cols, vals = ps.rule(quad.points, quad.cell_ids)
                cols = np.repeat(cell_cols, seg.counts, axis=0)
                # the premise of the per-cell reduction: the columns of each
                # point, tabulated as a run of its own, are its run's
                _, point_cols, _ = ps.rule(quad.points, quad.cell_ids,
                                           CellSegments(np.arange(t.num_points),
                                                        ps.ndof_cell))
                assert np.array_equal(point_cols, cols)
                _, g = pressure_mass_and_integral(ps, quad)
                self.assert_rounding(g, linear_form_points(
                    cols, quad.weights, [(1.0, vals)], ps.n_dofs))
                self.assert_rounding(
                    linear_form(seg, cols[seg.starts], quad.weights,
                                [(c[2], vals)], ps.n_dofs),
                    linear_form_points(cols, quad.weights, [(c[2], vals)],
                                       ps.n_dofs))


class TestTableMemory:
    """The tables of a rule with many points per cell (the finest level of
    the cut-cell benchmark workload: deep dyadic subdivision) cost their
    three value arrays and, beyond them, about one block of points; a study
    level holds its rule, its tables and one block."""

    def test_tables_and_field_bound_their_memory(self, tmp_path):
        *_, (_, basis, quad) = workload_rules("cutcell_deg3", tmp_path)
        assert quad.num_points >= 20000
        c_full = np.append(basis.coupling_matrix().T @ np.ones(basis.n_inner),
                           0.0)
        tracemalloc.start()
        try:
            tables = BasisTables(basis, quad)
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            vals, grads = tables.field(c_full, grad=True)
            field_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = tables.wb.nbytes + tables.wbx.nbytes + tables.wby.nbytes
        assert kept <= 1.1 * table_bytes
        assert peak - kept <= 0.15 * table_bytes
        outputs = vals.nbytes + grads.nbytes
        assert field_peak - before - outputs <= 0.3 * table_bytes

    def test_study_level_holds_rule_tables_and_one_block(self, tmp_path):
        # the whole study, traced: assembly, solve, Gram estimate and error
        # norms of the finest level stay within 1.2 x what the level must
        # hold (its three tables and its assembly rule)
        *_, (study, basis, quad) = workload_rules("cutcell_deg3", tmp_path)
        na = (study.degree + 1) ** 2
        held = quad.num_points * (3 * na * 8 + quad.points.itemsize * 2
                                  + quad.weights.itemsize
                                  + quad.cell_ids.itemsize)
        cfg = cli.load_config(workloads.write_config("cutcell_deg3", 0,
                                                     tmp_path))
        case = cli._build_case(cfg)
        del basis, quad
        tracemalloc.start()
        try:
            run_convergence(case, study)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * held


class TestBatchBound:
    """Batches of at most ``block_points(width)`` points (one run, if that
    is longer) leave every cell's product as it is."""

    def test_split_batches_reproduce_forms(self, tmp_path, monkeypatch):
        *_, (study, basis, quad) = workload_rules("cutcell_deg3", tmp_path)
        t = BasisTables(basis, quad)
        c = np.random.default_rng(3).normal(size=t.num_points)
        terms = [(c, t.wbx, t.wbx), (1.0, t.wb, t.wby)]
        loads = [(c, t.wbx), (1.0, t.wb)]
        ps = PressureSpace(basis.grid, quad, 1, macro=study.pressure_macro)

        def forms(seg):
            monkeypatch.setattr(t.plan, "segments", seg)
            return (assembly._form_data(t.plan, t.qw, terms),
                    linear_form(seg, t.cell_idx, t.qw, loads, t.n_cols),
                    project_pressure(ps, quad, lambda p: np.sin(3.0 * p[:, 0])))

        whole = forms(t.segments)
        chunk = 40
        na = t.wb.shape[1]
        monkeypatch.setattr(webbasis, "BLOCK_BYTES", chunk * 8 * na)
        seg = CellSegments(quad.cell_ids, na)
        sizes = np.array([[p1 - p0, k] for _, _, p0, p1, k in seg.batches])
        assert np.all(sizes[:, 0] <= np.maximum(chunk, sizes[:, 1]))
        assert np.any(sizes[:, 1] > chunk) and np.any(sizes[:, 0] > sizes[:, 1])
        assert len(seg.batches) > 2 * len(t.segments.batches)
        for a, b in zip(forms(seg), whole):
            assert np.array_equal(a, b)


class TestSparsityPlan:
    # the second table is the coarse level of the cut-cell benchmark
    # workload: cubic, 4 cells, depth 5, three-point leaves
    @pytest.mark.parametrize("setup", [
        {"n_cells": 6},
        {"n_cells": 4, "degree": 3, "depth": 5, "gauss_leaf": 3}],
        ids=["quadratic", "cubic_cut_cells"])
    def test_operators_match_dense_pointwise_reference(self, setup):
        basis, quad, t = disk_setup(**setup)
        assert len({k for *_, k in t.segments.batches}) > 1
        E = basis.coupling_matrix().toarray()
        shape = (t.n_cols, t.n_cols)
        idx = point_columns(t)

        def web(terms):
            return E @ dense_form(idx, idx, t.qw, terms, shape) @ E.T

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
                                        np.zeros(2), t)
        A11 = web([(2.0, t.wbx, t.wbx), (1.0, t.wby, t.wby)])
        A22 = web([(2.0, t.wby, t.wby), (1.0, t.wbx, t.wbx)])
        A12 = web([(1.0, t.wby, t.wbx)])
        assert_close(A, np.block([[A11, A12], [A12.T, A22]]))
        pseg, pcell_cols, pvals = ps.rule(quad.points, quad.cell_ids)
        pcols = np.repeat(pcell_cols, pseg.counts, axis=0)
        pshape = (ps.n_dofs, t.n_cols)
        Bx = dense_form(pcols, idx, t.qw, [(-1.0, pvals, t.wbx)], pshape)
        By = dense_form(pcols, idx, t.qw, [(-1.0, pvals, t.wby)], pshape)
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
                               np.zeros(2), tables)
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

    def test_point_outside_relevant_set_rejected(self):
        basis, quad, _ = disk_setup(n_cells=6)
        # the grid corner cell (id 0) is exterior: its B-splines are not
        # relevant
        corner = dataclasses.replace(
            quad, points=np.array([[-1.09, -1.09]]), weights=np.ones(1),
            cell_ids=np.zeros(1, dtype=np.int64))
        with pytest.raises(AssemblyError, match="outside the relevant set"):
            BasisTables(basis, corner)

    def test_runs_not_sorted_by_length_rejected(self):
        basis, quad, _ = disk_setup(n_cells=6)
        seg = CellSegments(quad.cell_ids, 1)
        assert seg.counts[0] < seg.counts[-1]
        # the same runs, longest first
        order = np.concatenate([np.arange(a, a + n) for a, n in
                                zip(seg.starts[::-1], seg.counts[::-1])])
        longest_first = dataclasses.replace(
            quad, points=quad.points[order], weights=quad.weights[order],
            cell_ids=quad.cell_ids[order])
        with pytest.raises(AssemblyError, match="not sorted by point count"):
            BasisTables(basis, longest_first)

    def test_pressure_evaluate_matches_tables(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 1, macro=2)
        coeffs = np.random.default_rng(44).normal(size=ps.n_dofs)
        seg, cell_cols, vals = ps.rule(quad.points, quad.cell_ids)
        cols = np.repeat(cell_cols, seg.counts, axis=0)
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
