from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import webfem.solvers as solvers
from webfem.assembly import (
    BasisTables, PlapIterate, PressureSpace, StokesIterate, assemble_mass,
    assemble_mixed, assemble_vcpe, linear_form,
)
from webfem.cases import get_case
from webfem.geometry import Disk, ImplicitDomain, domain_from_config
from webfem.quadrature import build_quadrature
from webfem.splines import TensorGrid, uniform_knots
from webfem.solvers import (
    SaddleMatrix, SolveOptions, SolverError, _saddle_solve, carreau_viscosity,
    estimate_infsup, solve_plap, solve_quasi_newtonian, solve_vcpe,
)
from webfem.webbasis import build_web_basis


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
        vals = sol(quad.points[inside])
        exact = 1 - quad.points[inside, 0] ** 2 - quad.points[inside, 1] ** 2
        assert np.max(np.abs(vals - exact)) <= 5e-3

    def test_jacobi_preconditioner(self):
        basis, quad, tables = disk_setup(n_cells=12, degree=3)
        f = lambda p: np.exp(p[:, 0])
        system = assemble_vcpe(basis, 1.0, f, tables)

        def unpreconditioned(rtol):
            steps = []
            c, info = spla.cg(system.matrix, system.rhs, rtol=rtol, atol=0.0,
                              maxiter=20000, callback=steps.append)
            assert info == 0
            return c, len(steps)

        _, steps = unpreconditioned(1e-10)
        assert solve_vcpe(basis, 1.0, f, tables).params["iterations"] < steps
        ref, _ = unpreconditioned(1e-13)
        sol = solve_vcpe(basis, 1.0, f, tables, SolveOptions(linear_tol=1e-13))
        assert np.max(np.abs(sol.coeffs - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_nonconvergence_raises_with_history(self):
        basis, quad, tables = disk_setup(n_cells=8)
        opts = SolveOptions(max_linear_iterations=2)
        with pytest.raises(SolverError) as err:
            solve_vcpe(basis, 1.0, 1.0, tables, opts)
        assert len(err.value.history) > 0
        # the last entry is the true residual of the iterate CG returned
        system = assemble_vcpe(basis, 1.0, 1.0, tables)
        A, F = system.matrix, system.rhs
        c, info = spla.cg(A, F, rtol=opts.linear_tol, atol=0.0,
                          maxiter=opts.max_linear_iterations,
                          M=sp.diags(1.0 / A.diagonal()))
        assert info != 0
        assert err.value.history[-1] == float(np.linalg.norm(F - A @ c))


class TestPlapSolver:
    def test_p2_matches_linear_path(self):
        basis, quad, tables = disk_setup(n_cells=8)
        f = lambda p: 4.0 + 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2
        stiff = assemble_vcpe(basis, 1.0, 0.0, tables).matrix
        mass = assemble_mass(basis, tables)
        F = basis.coupling_matrix() @ linear_form(
            tables.segments, tables.cell_idx, tables.qw,
            [(f(quad.points), tables.wb)], tables.n_cols)
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
        vals = sol(pts)
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

    def test_stages_say_whether_they_converged(self):
        # a stage that runs out of steps says so, and the next one goes on
        # from its last iterate; only an unconverged last stage raises
        basis, quad, tables = disk_setup(n_cells=8)
        opts = SolveOptions(max_iterations=3)
        sol = solve_plap(basis, 1.5, lambda p: 3.0 + p[:, 0], tables, opts)
        stages = sol.params["stages"]
        assert [s["converged"] for s in stages] == [
            s["residuals"][-1] <= opts.nonlinear_tol for s in stages]
        assert len(stages[0]["residuals"]) == opts.max_iterations + 1
        assert not stages[0]["converged"] and stages[-1]["converged"]

    def test_newton_superlinear_tail(self):
        # restart at the final regularization from a perturbed iterate so the
        # last stage runs several steps; the tail must contract superlinearly
        basis, quad, tables = disk_setup(n_cells=8)
        f = lambda pts: 4.5 + 1.0 - (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 0.75
        sol = solve_plap(basis, 3.0, f, tables,
                         SolveOptions(nonlinear_tol=1e-11))
        from webfem.solvers import _newton_stage, _plap_step
        rng = np.random.default_rng(40)
        c0 = sol.coeffs + 0.05 * rng.normal(size=sol.coeffs.size)
        f_vals = f(tables.points)
        make = partial(PlapIterate, basis, tables, p=3.0, eps=1e-8,
                       f_vals=f_vals)
        _, residuals, _, converged = _newton_stage(
            make, c0, _plap_step, SolveOptions(nonlinear_tol=1e-12))
        assert converged
        tail = [r for r in residuals if r > 1e-13][-3:]
        assert len(tail) == 3
        for r0, r1 in zip(tail, tail[1:]):
            assert r1 <= 10.0 * r0 ** 1.5

    @pytest.mark.parametrize("p, max_steps", [(1.05, None), (4.0, 15),
                                              (10.0, 30)])
    def test_direct_solve_at_extreme_exponents(self, p, max_steps):
        # every eps-stage runs at the requested p; the step bounds sit
        # between the direct solve (11 steps at p = 4, 18 at p = 10) and a
        # warm start through intermediate exponents (21 and 60 steps)
        basis, quad, tables = disk_setup(n_cells=6)
        opts = SolveOptions()
        sol = solve_plap(basis, p, lambda x: 1.0 + x[:, 0], tables, opts)
        stages = sol.params["stages"]
        assert stages[-1]["residuals"][-1] <= opts.nonlinear_tol
        assert len(stages) == len(opts.eps_schedule())
        for stage in stages:
            e = stage["energies"]
            for a, b in zip(e, e[1:]):
                assert b <= a + 1e-12 + 1e-12 * abs(a)
        if max_steps is not None:
            assert sol.params["iterations"] <= max_steps

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

    def test_warm_start_runs_the_last_two_stages(self):
        # from a start near the solution only 10 eps_final and eps_final
        # run; p = 2 keeps its one eps = 0 stage, and a one-stage schedule
        # runs whole
        basis, quad, tables = disk_setup(n_cells=8)
        f = lambda p: 3.0 + p[:, 0]
        rng = np.random.default_rng(61)
        for p, opts, eps in [
                (1.5, SolveOptions(), [1e-7, 1e-8]),
                (2.0, SolveOptions(), [0.0]),
                (1.5, SolveOptions(eps_start=1e-6, eps_final=1e-6), [1e-6])]:
            cold = solve_plap(basis, p, f, tables, opts)
            start = cold.coeffs + 1e-3 * rng.normal(size=cold.coeffs.size)
            warm = solve_plap(basis, p, f, tables, opts, start=start)
            assert [s["eps"] for s in warm.params["stages"]] == \
                pytest.approx(eps)
            assert warm.params["stages"][-1]["residuals"][-1] <= \
                opts.nonlinear_tol
            assert 1 <= warm.params["iterations"] <= cold.params["iterations"]
            assert np.max(np.abs(warm.coeffs - cold.coeffs)) <= \
                1e-6 * np.max(np.abs(cold.coeffs))

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
            basis, ps, carreau_viscosity(), np.zeros(2), tables)
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
            basis, ps, carreau_viscosity(1.0, 1.0), phi, tables)
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

    def test_carreau_newton_converges(self):
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0)
        phi = lambda p: np.column_stack([np.sin(p[:, 1]), np.cos(p[:, 0])])
        a_fn = carreau_viscosity()
        vel, pres, info = solve_quasi_newtonian(
            basis, ps, a_fn, phi, tables)
        assert info["residuals"][-1] <= SolveOptions().nonlinear_tol
        # a fixed point of the frozen-viscosity (Picard) map
        A, B, Fv, _, g = assemble_mixed(basis, ps, a_fn, vel.coeffs, phi,
                                        tables)
        u, _, _ = _saddle_solve(SaddleMatrix(A, B, g).K, Fv)
        assert np.linalg.norm(u - vel.coeffs) < 1e-8 * np.linalg.norm(u)
        assert info["incompressibility"] <= 1e-8

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("macro", [1, 2])
    def test_stokes_tangent_matches_finite_differences(self, degree, macro):
        # the Stokes analogue of criterion 8, and the line-search slope:
        # along a Newton direction (from a saddle solve, so that
        # B du + g dmu = 0 and g . dp = 0) residual . d is the derivative
        # of the energy
        basis, quad, tables = disk_setup(n_cells=6)
        ps = PressureSpace(basis.grid, quad, degree, macro=macro)
        a_fn = carreau_viscosity()
        n_u = 2 * basis.n_inner
        phi = lambda p: np.column_stack([np.sin(p[:, 1]), np.cos(p[:, 0])])
        _, B, Fv, _, g = assemble_mixed(basis, ps, a_fn, np.zeros(n_u), phi,
                                        tables)
        state = lambda x: StokesIterate(basis, tables, x, a_fn, Fv, B)
        rng = np.random.default_rng(48 + 2 * degree + macro)
        worst_tangent = worst_slope = 0.0
        for _ in range(3):
            x = rng.normal(size=n_u + B.shape[0] + 1)
            x[n_u:-1] -= (g @ x[n_u:-1]) / (g @ g) * g
            J = state(x).jacobian()
            d = rng.normal(size=x.size)
            d /= np.linalg.norm(d)
            step = 1e-6
            fd = (state(x + step * d).residual
                  - state(x - step * d).residual) / (2 * step)
            Jd = J @ d[:n_u] + B.T @ d[n_u:-1]
            assert np.all(fd[n_u:] == 0.0)
            worst_tangent = max(worst_tangent, np.linalg.norm(Jd - fd[:n_u])
                                / np.linalg.norm(Jd))
            du, dp, dmu = _saddle_solve(SaddleMatrix(J, B, g).K,
                                        rng.normal(size=n_u))
            # the energy sees only the velocity part of d
            d = np.concatenate([du, dp, [dmu]]) / np.linalg.norm(du)
            fd_energy = (state(x + step * d).energy
                         - state(x - step * d).energy) / (2 * step)
            slope = state(x).residual @ d
            worst_slope = max(worst_slope,
                              abs(fd_energy - slope) / abs(slope))
        assert worst_tangent <= 1e-4
        assert worst_slope <= 1e-4

    def test_one_saddle_solve_per_newton_step(self, monkeypatch):
        # residual first: the zero-velocity block of assemble_mixed is the
        # first tangent, and the converged iterate is never assembled
        case = get_case("stokes_carreau")
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0, macro=2)
        counts = {"assemble_mixed": 0, "jacobian": 0, "solve": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solvers, "assemble_mixed", counting(
            "assemble_mixed", solvers.assemble_mixed))
        monkeypatch.setattr(StokesIterate, "jacobian",
                            counting("jacobian", StokesIterate.jacobian))
        monkeypatch.setattr(spla, "spsolve", counting("solve", spla.spsolve))
        vel, pres, info = solve_quasi_newtonian(
            basis, ps, case.viscosity, case.body_force, tables)
        steps = info["iterations"]
        assert steps == len(info["residuals"]) - 1
        assert 1 <= steps <= 5
        assert counts == {"assemble_mixed": 1, "jacobian": steps - 1,
                          "solve": steps}

    def test_warm_start_takes_one_undamped_step_onto_the_constraint(
            self, monkeypatch):
        # a start that is not discretely divergence-free: the first saddle
        # solve uses the tangent at the start and the right-hand side
        # [R, B start, 0]; it is counted, and its residual leads the history
        case = get_case("stokes_carreau")
        basis, quad, tables = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 0, macro=2)
        args = (basis, ps, case.viscosity, case.body_force, tables)
        cold, _, cold_info = solve_quasi_newtonian(*args)
        start = cold.coeffs + 1e-3 * np.random.default_rng(62).normal(
            size=cold.coeffs.size)
        n_u = start.size
        _, B, Fv, _, g = assemble_mixed(basis, ps, case.viscosity,
                                        np.zeros(n_u), case.body_force,
                                        tables)
        first = StokesIterate(basis, tables, np.concatenate(
            [start, np.zeros(B.shape[0] + 1)]), case.viscosity, Fv, B)
        assert np.linalg.norm(B @ start) > 1e-6
        counts = {"jacobian": 0, "solve": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(StokesIterate, "jacobian",
                            counting("jacobian", StokesIterate.jacobian))
        monkeypatch.setattr(spla, "spsolve", counting("solve", spla.spsolve))
        vel, pres, info = solve_quasi_newtonian(*args, start=start)
        steps = info["iterations"]
        assert steps == len(info["residuals"]) - 1
        assert 2 <= steps < cold_info["iterations"]
        assert counts == {"jacobian": steps, "solve": steps}
        assert info["residuals"][0] == pytest.approx(np.linalg.norm(
            np.concatenate([first.residual[:n_u], B @ start])), rel=1e-12)
        assert info["residuals"][-1] <= SolveOptions().nonlinear_tol
        assert info["incompressibility"] <= 1e-8
        assert abs(float(g @ pres.coeffs)) <= 1e-8
        assert np.max(np.abs(vel.coeffs - cold.coeffs)) <= \
            1e-6 * np.max(np.abs(cold.coeffs))

    def test_carreau_viscosity_derivative_and_primitive(self):
        s = np.linspace(0.0, 50.0, 11)
        h = 1e-6
        for args in ((), (1.0, 1.0), (2.0, 1.0, 3.0), (1.0, 2.0, 1.2)):
            a = carreau_viscosity(*args)
            assert a.primitive(0.0) == 0.0
            fd_a = (a.primitive(s + h) - a.primitive(s - h)) / (2 * h)
            fd_da = (a(s + h) - a(s - h)) / (2 * h)
            assert np.allclose(fd_a, a(s), rtol=1e-7, atol=1e-9)
            assert np.allclose(fd_da, a.derivative(s), rtol=1e-6, atol=1e-9)
            # convexity of the energy: a + 2 s a' > 0
            assert np.all(a(s) + 2.0 * s * a.derivative(s) > 0.0)

    @pytest.mark.parametrize("exponent", [1.0, 0.5, -1.0, float("nan")])
    def test_carreau_viscosity_rejects_exponent_at_most_one(self, exponent):
        with pytest.raises(ValueError, match=r"r in \(1, inf\)"):
            carreau_viscosity(exponent=exponent)

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
            basis, ps, case.viscosity, case.body_force, tables)
        c_proj = np.concatenate([
            project(basis, lambda p: case.velocity(p)[:, 0]),
            project(basis, lambda p: case.velocity(p)[:, 1])])
        _, B, _, _, _ = assemble_mixed(basis, ps, case.viscosity, vel.coeffs,
                                       case.body_force, tables)
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
                                            tables)
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
        assert estimate_infsup(basis, ps, tables) > 0.01

    def test_infsup_size_cap_checked_before_assembly(self):
        basis, quad, _ = disk_setup(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 9)
        assert ps.n_dofs > 4000
        # with the cap checked first, no argument is touched
        with pytest.raises(SolverError, match="too large"):
            estimate_infsup(None, ps, None)

    def test_infsup_positive_and_unstable_pairing_detected(self):
        basis, quad, tables = disk_setup(n_cells=10)
        ps0 = PressureSpace(basis.grid, quad, 0)
        ch0 = estimate_infsup(basis, ps0, tables)
        assert ch0 > 0.01
        # over-rich pressure space: degree equal to the velocity degree
        ps2 = PressureSpace(basis.grid, quad, 2)
        ch2 = estimate_infsup(basis, ps2, tables)
        assert ch2 < 1e-6


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(linear_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)

    @pytest.mark.parametrize("bad", [
        {"eps_final": -1.0}, {"eps_final": 0.0}, {"eps_final": float("nan")},
        {"eps_start": float("inf")}, {"eps_start": float("nan")},
        {"eps_start": -1.0},
    ])
    def test_rejects_non_terminating_schedules(self, bad):
        # a negative eps_final or an infinite eps_start makes eps_schedule
        # loop forever, eps_final = 0 runs 324 stages down to underflow,
        # and a nan bound fails every comparison; only the construction is
        # tried
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolveOptions(**bad)

    def test_fields_are_the_solver_config_keys(self):
        # every option is reachable from a config, and every key is an option
        from dataclasses import fields
        from webfem.cli import CONFIG_SCHEMA
        keys = CONFIG_SCHEMA["properties"]["solver"]["properties"]
        assert {f.name for f in fields(SolveOptions)} == set(keys)

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
