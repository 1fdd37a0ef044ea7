import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import webfem.solvers as solvers
from webfem.assembly import (
    BasisTables, PlapIterate, PressureSpace, assemble_mass, assemble_mixed,
    assemble_vcpe, linear_form,
)
from webfem.cases import get_case
from webfem.geometry import Disk, ImplicitDomain, domain_from_config
from webfem.quadrature import build_quadrature
from webfem.splines import TensorGrid, uniform_knots
from webfem.solvers import (
    SaddleMatrix, SolveOptions, SolverError, _saddle_solve, carreau_viscosity,
    estimate_infsup, solve_plap, solve_quasi_newtonian, solve_vcpe,
)
from webfem.webbasis import build_web_basis, eval_field


def disk_setup(n_cells=10, degree=2, depth=5):
    kv = uniform_knots(-1.1, 1.1, n_cells, degree)
    grid = TensorGrid(kv, kv)
    dom = ImplicitDomain(Disk([0.0, 0.0], 1.0))
    basis = build_web_basis(dom, grid)
    quad = build_quadrature(dom, grid, basis.cls, degree + 1, depth)
    return basis, quad, BasisTables(basis, quad)


class TestVcpeSolver:
    def test_zero_source(self):
        basis, quad, tables = disk_setup(n_cells=8)
        sol = solve_vcpe(basis, 1.0, 0.0, tables)
        assert np.all(sol.coeffs == 0.0)

    def test_galerkin_orthogonality(self):
        basis, quad, tables = disk_setup(n_cells=8)
        opts = SolveOptions(linear_tol=1e-12)
        sol = solve_vcpe(basis, 1.0, lambda p: np.exp(p[:, 0]), tables, opts)
        sys = assemble_vcpe(basis, 1.0, lambda p: np.exp(p[:, 0]), tables)
        resid = sys.rhs - sys.matrix @ sol.coeffs
        assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(sys.rhs)

    def test_scaling_equivariance(self):
        basis, quad, tables = disk_setup(n_cells=8)
        opts = SolveOptions(linear_tol=1e-13)
        f = lambda p: np.cos(p[:, 0] * p[:, 1])
        half_f = lambda p: 0.5 * np.cos(p[:, 0] * p[:, 1])
        s1 = solve_vcpe(basis, 2.0, f, tables, opts)
        s2 = solve_vcpe(basis, 1.0, half_f, tables, opts)
        assert np.max(np.abs(s1.coeffs - s2.coeffs)) <= 1e-10

    def test_representable_solution_hits_quadrature_floor(self):
        # u = 1 - r^2 = 2w lies in the space for any degree; the remaining
        # error is purely the cut-quadrature consistency error
        basis, quad, tables = disk_setup(n_cells=16, depth=8)
        sol = solve_vcpe(basis, 1.0, 4.0, tables, SolveOptions(linear_tol=1e-12))
        inside = basis.domain.phi(quad.points) > 0
        vals = eval_field(basis, sol.coeffs, quad.points[inside])
        exact = 1 - quad.points[inside, 0] ** 2 - quad.points[inside, 1] ** 2
        assert np.max(np.abs(vals - exact)) <= 5e-3

    def test_nonconvergence_raises_with_history(self):
        basis, quad, tables = disk_setup(n_cells=8)
        opts = SolveOptions(max_linear_iterations=2)
        with pytest.raises(SolverError) as err:
            solve_vcpe(basis, 1.0, 1.0, tables, opts)
        assert len(err.value.history) > 0


class TestPlapSolver:
    def test_p2_matches_linear_path(self):
        basis, quad, tables = disk_setup(n_cells=8)
        f = lambda p: 4.0 + 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2
        stiff = assemble_vcpe(basis, 1.0, 0.0, tables).matrix
        mass = assemble_mass(basis, tables)
        F = basis.coupling_matrix() @ linear_form(
            tables.idx, tables.qw, [(f(quad.points), tables.wb)], tables.n_cols)
        c_lin = spla.spsolve((stiff + mass).tocsc(), F)
        sol = solve_plap(basis, 2.0, f, tables)
        assert np.max(np.abs(sol.coeffs - c_lin)) <= 1e-9

    def test_zero_source(self):
        basis, quad, tables = disk_setup(n_cells=6)
        sol = solve_plap(basis, 1.5, 0.0, tables)
        assert np.max(np.abs(sol.coeffs)) <= 1e-12

    @pytest.mark.parametrize("p,beta", [(1.5, 3.0), (3.0, 1.5)])
    def test_manufactured_radial_solution(self, p, beta):
        # u = 1 - r^beta with beta = p/(p-1) gives a constant p-Laplacian:
        # -div(|grad u|^{p-2} grad u) = 2 beta^{p-1}, plus the mass term
        basis, quad, tables = disk_setup(n_cells=12, depth=6)
        const = 2.0 * beta ** (p - 1.0)

        def f(pts):
            r = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
            return const + 1.0 - r ** beta

        sol = solve_plap(basis, p, f, tables)
        inside = basis.domain.phi(quad.points) > 1e-3
        pts = quad.points[inside]
        r = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        vals = eval_field(basis, sol.coeffs, pts)
        err = np.max(np.abs(vals - (1.0 - r ** beta)))
        assert err <= 0.05  # coarse grid; rates are checked in the analysis tests

    def test_energy_monotone_within_stages(self):
        basis, quad, tables = disk_setup(n_cells=8)
        f = lambda p: 3.0 + p[:, 0]
        sol = solve_plap(basis, 1.5, f, tables)
        for stage in sol.params["stages"]:
            e = stage["energies"]
            for a, b in zip(e, e[1:]):
                assert b <= a + 1e-12 + 1e-12 * abs(a)

    def test_newton_superlinear_tail(self):
        # restart at the final regularization from a perturbed iterate so the
        # last stage runs several steps; the tail must contract superlinearly
        basis, quad, tables = disk_setup(n_cells=8)
        f = lambda pts: 4.5 + 1.0 - (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 0.75
        sol = solve_plap(basis, 3.0, f, tables,
                         SolveOptions(nonlinear_tol=1e-11))
        from webfem.solvers import _newton_stage
        rng = np.random.default_rng(40)
        c0 = sol.coeffs + 0.05 * rng.normal(size=sol.coeffs.size)
        f_vals = f(tables.points)
        _, residuals, _ = _newton_stage(basis, tables, c0, 3.0, 1e-8, f_vals,
                                        SolveOptions(nonlinear_tol=1e-12))
        tail = [r for r in residuals if r > 1e-13][-3:]
        assert len(tail) == 3
        for r0, r1 in zip(tail, tail[1:]):
            assert r1 <= 10.0 * r0 ** 1.5

    def test_p_continuation_high_exponent(self):
        basis, quad, tables = disk_setup(n_cells=6)
        sol = solve_plap(basis, 4.0, lambda p: np.ones(p.shape[0]), tables)
        ps = [s["p"] for s in sol.params["stages"]]
        assert ps[0] < 4.0 and ps[-1] == 4.0

    def test_jacobian_assembled_only_for_a_step(self, monkeypatch):
        # residual first: every assembled Jacobian is solved, and the last
        # iterate of each stage is never assembled
        case = get_case("plap_p15_w2p")
        dom = domain_from_config(case.domain_config)
        kv = uniform_knots(-1.1, 1.1, 8, 2)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        quad = build_quadrature(dom, grid, basis.cls, 3, 6)
        tables = BasisTables(basis, quad)
        counts = {"jacobian": 0, "solve": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(PlapIterate, "jacobian",
                            counting("jacobian", PlapIterate.jacobian))
        monkeypatch.setattr(spla, "spsolve", counting("solve", spla.spsolve))
        sol = solve_plap(basis, case.params["p"], case.source, tables)
        steps = sum(len(s["residuals"]) - 1 for s in sol.params["stages"])
        assert len(sol.params["stages"]) > 1
        assert counts["jacobian"] == counts["solve"] == steps

    def test_invalid_p(self):
        basis, quad, tables = disk_setup(n_cells=6)
        with pytest.raises(SolverError):
            solve_plap(basis, 0.5, 1.0, tables)


def stokes_exact():
    u1 = lambda p: -4.0 * p[:, 1] * (1 - p[:, 0] ** 2 - p[:, 1] ** 2)
    u2 = lambda p: 4.0 * p[:, 0] * (1 - p[:, 0] ** 2 - p[:, 1] ** 2)
    return u1, u2


class TestQuasiNewtonian:
    def test_zero_force(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        vel, pres, info = solve_quasi_newtonian(
            basis, ps, carreau_viscosity(), np.zeros(2), tables, quad)
        assert np.max(np.abs(vel.coeffs)) <= 1e-12
        assert np.max(np.abs(pres.coeffs)) <= 1e-10

    def test_newtonian_stokes_manufactured(self):
        # a = 1: phi = -div(D(u)) + grad p with u = (-4y(1-r^2), 4x(1-r^2)),
        # p = xy. Since div u = 0, div(D(u)) = (1/2) Lap u = (16y, -16x),
        # so phi = (-16y + y, 16x + x) = (-15y, 17x).
        basis, quad, tables = disk_setup(n_cells=12, depth=6)
        ps = PressureSpace(basis.grid, quad, 0)
        phi = lambda p: np.column_stack([-15.0 * p[:, 1], 17.0 * p[:, 0]])
        vel, pres, info = solve_quasi_newtonian(
            basis, ps, lambda s: 1.0 + 0.0 * s, phi, tables, quad)
        assert info["incompressibility"] <= 1e-8
        u1, u2 = stokes_exact()
        inside = basis.domain.phi(quad.points) > 1e-2
        pts = quad.points[inside]
        vals = vel(pts)
        err1 = np.max(np.abs(vals[:, 0] - u1(pts)))
        err2 = np.max(np.abs(vals[:, 1] - u2(pts)))
        assert max(err1, err2) <= 0.05
        # mean-zero pressure
        from webfem.assembly import pressure_mass_and_integral
        _, g = pressure_mass_and_integral(ps, quad)
        assert abs(float(g @ pres.coeffs)) <= 1e-8

    def test_carreau_picard_converges(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        phi = lambda p: np.column_stack([np.sin(p[:, 1]), np.cos(p[:, 0])])
        vel, pres, info = solve_quasi_newtonian(
            basis, ps, carreau_viscosity(), phi, tables, quad)
        assert info["updates"][-1] < 1e-8
        assert info["incompressibility"] <= 1e-8

    def test_divergence_compatibility(self):
        # b(P_h u - u_h, q_h) vanishes for all discrete pressures on the
        # manufactured run: the projector reproduces the solenoidal exact
        # velocity and the solve enforces b(u_h, .) = 0
        from webfem.assembly import assemble_mixed
        from webfem.cases import get_case
        from webfem.webbasis import project
        case = get_case("stokes_carreau")
        basis, quad, tables = disk_setup(n_cells=12, depth=6)
        ps = PressureSpace(basis.grid, quad, 0, macro=2)
        vel, pres, info = solve_quasi_newtonian(
            basis, ps, case.viscosity, case.body_force, tables, quad)
        c_proj = np.concatenate([
            project(basis, lambda p: case.velocity(p)[:, 0]),
            project(basis, lambda p: case.velocity(p)[:, 1])])
        _, B, _, _, _ = assemble_mixed(basis, ps, case.viscosity, vel.coeffs,
                                       case.body_force, tables, quad)
        assert np.max(np.abs(B @ (c_proj - vel.coeffs))) <= 1e-6

    def test_refilled_saddle_matrix_matches_bmat(self):
        # the reference is the saddle matrix stacked afresh for every step
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 1, macro=2)
        a_fn = carreau_viscosity()
        phi = lambda p: np.column_stack([np.sin(p[:, 1]), np.cos(p[:, 0])])
        c = np.random.default_rng(47).normal(size=2 * basis.n_inner)
        saddle = None
        for prev in (np.zeros_like(c), c):
            A, B, Fv, _, g = assemble_mixed(basis, ps, a_fn, prev, phi,
                                            tables, quad)
            saddle = saddle or SaddleMatrix(A, B, g)
            K = saddle.refill(A)
            assert K is saddle.K
            gc = sp.csr_matrix(g.reshape(-1, 1))
            ref = sp.bmat([[A, B.T, None], [B, None, gc], [None, gc.T, None]],
                          format="csc")
            assert ref.has_sorted_indices and K.has_sorted_indices
            assert K.shape == ref.shape
            assert np.array_equal(K.indptr, ref.indptr)
            assert np.array_equal(K.indices, ref.indices)
            scale = np.max(np.abs(ref.data))
            assert np.max(np.abs(K.data - ref.data)) <= 1e-12 * scale
            indices = K.indices.copy()
            u, _, _ = _saddle_solve(K, Fv)
            assert np.array_equal(K.indices, indices)
            rhs = np.concatenate([Fv, np.zeros(B.shape[0] + 1)])
            ref_u = spla.spsolve(ref, rhs)[:u.size]
            assert np.max(np.abs(u - ref_u)) <= 1e-10

    def test_infsup_builds_no_velocity_system(self, monkeypatch):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        monkeypatch.setattr(solvers, "assemble_mixed", None)
        assert estimate_infsup(basis, ps, tables, quad) > 0.01

    def test_infsup_size_cap_checked_before_assembly(self):
        basis, quad, _ = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 9)
        assert ps.n_dofs > 4000
        # with the cap checked first, no argument is touched
        with pytest.raises(SolverError, match="too large"):
            estimate_infsup(None, ps, None, None)

    def test_infsup_positive_and_unstable_pairing_detected(self):
        basis, quad, tables = disk_setup(n_cells=10)
        ps0 = PressureSpace(basis.grid, quad, 0)
        ch0 = estimate_infsup(basis, ps0, tables, quad)
        assert ch0 > 0.01
        # over-rich pressure space: degree equal to the velocity degree
        ps2 = PressureSpace(basis.grid, quad, 2)
        ch2 = estimate_infsup(basis, ps2, tables, quad)
        assert ch2 < 1e-6


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(linear_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)

    @pytest.mark.parametrize("bad", [
        {"eps_factor": 1.0}, {"eps_factor": 0.5}, {"eps_factor": float("nan")},
        {"p_continuation_step": 0.0}, {"p_continuation_step": -0.5},
        {"p_continuation_step": float("nan")},
    ])
    def test_rejects_non_terminating_schedules(self, bad):
        # either value would make eps_schedule or _p_schedule loop forever,
        # so only the construction is tried
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolveOptions(**bad)

    def test_rejects_eps_final_above_eps_start(self):
        # eps_schedule would silently run the single stage eps_start
        with pytest.raises(ValueError, match="eps_final"):
            SolveOptions(eps_start=1e-9, eps_final=1e-3)
        assert SolveOptions(eps_start=1e-3, eps_final=1e-3).eps_schedule() \
            == [1e-3]

    def test_eps_schedule(self):
        s = SolveOptions().eps_schedule()
        assert s[0] == pytest.approx(1e-1)
        assert s[-1] == pytest.approx(1e-8)
        assert all(a / b == pytest.approx(10.0) for a, b in zip(s, s[1:]))
