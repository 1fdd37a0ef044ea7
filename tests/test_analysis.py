import json
from dataclasses import replace

import numpy as np
import pytest

import webfem.analysis as analysis
import webfem.quadrature as quadrature
from webfem.analysis import (
    AnalysisError, StudyConfig, eoc, error_norm, error_norms, level_csv,
    pressure_projection_error, run_convergence,
)
from webfem.cli import evaluate_floors
from webfem.assembly import BasisTables, PressureSpace
from webfem.cases import get_case
from webfem.geometry import CellLabel, domain_from_config
from webfem.quadrature import build_quadrature
from webfem.solvers import PressureField, SolutionField
from webfem.splines import TensorGrid, uniform_knots
from webfem.webbasis import (
    build_web_basis, eval_fields, jackson_error, project,
)

import oracles
from oracles import eval_field_loop


def disk_fixture(n_cells=10, degree=2):
    case = get_case("disk_poisson")
    dom = domain_from_config(case.domain_config)
    kv = uniform_knots(-1.1, 1.1, n_cells, degree)
    grid = TensorGrid(kv, kv)
    basis = build_web_basis(dom, grid)
    quad = build_quadrature(dom, grid, basis.cls, degree + 2, 6)
    return case, basis, quad


class TestEoc:
    def test_definition(self):
        assert eoc([0.1, 0.025], [1.0, 0.5]) == [pytest.approx(2.0)]

    def test_nonuniform_ratio(self):
        vals = eoc([1.0, 1.0 / 9.0], [1.0, 1.0 / 3.0])
        assert vals == [pytest.approx(2.0)]

    def test_zero_guard(self):
        assert np.isnan(eoc([0.0, 1.0], [1.0, 0.5])[0])


class TestErrorNorm:
    def test_exact_coefficients_give_zero(self):
        case, basis, quad = disk_fixture()
        coeffs = project(basis, case.solution)
        field = SolutionField(basis=basis, coeffs=coeffs)
        # the projector is not interpolation, so compare against itself:
        # fabricate the case whose solution IS the discrete field
        from webfem.webbasis import eval_field
        exact_vals = lambda p: eval_field(basis, coeffs, p)
        exact_grad = lambda p: eval_field(basis, coeffs, p, nderiv=1)[1]
        fake = type(case)(name="self", kind="vcpe",
                          domain_config=case.domain_config,
                          solution=exact_vals, gradient=exact_grad)
        for norm in ("L2", "H1"):
            assert error_norm(field, fake, norm, quad) <= 1e-10

    def test_l2_of_bump_against_zero_field(self):
        # || 1 - r^2 ||_L2 over the unit disk = sqrt(pi/3)
        case, basis, quad = disk_fixture()
        zero = SolutionField(basis=basis, coeffs=np.zeros(basis.n_inner))
        quadr = get_case("disk_poisson_quadratic")
        val = error_norm(zero, quadr, "L2", quad)
        assert val == pytest.approx(np.sqrt(np.pi / 3), rel=1e-3)

    def test_norm_axioms(self):
        case, basis, quad = disk_fixture(n_cells=8)
        rng = np.random.default_rng(50)
        from webfem.webbasis import eval_field
        zero_case = type(case)(
            name="zero", kind="vcpe", domain_config=case.domain_config,
            solution=lambda p: np.zeros(p.shape[0]),
            gradient=lambda p: np.zeros_like(p))
        for _ in range(4):
            a = rng.normal(size=basis.n_inner)
            b = rng.normal(size=basis.n_inner)
            fa = SolutionField(basis=basis, coeffs=a)
            fb = SolutionField(basis=basis, coeffs=b)
            fab = SolutionField(basis=basis, coeffs=a + b)
            for norm in ("L2", "H1"):
                na = error_norm(fa, zero_case, norm, quad)
                nb = error_norm(fb, zero_case, norm, quad)
                nab = error_norm(fab, zero_case, norm, quad)
                assert na >= 0.0
                assert nab <= na + nb + 1e-10

    def test_quasinorm_upper_bound_p_le_2(self):
        # |e|^2_(us,p,2) <= |e|^p_W1p for p in (1, 2]
        case = get_case("plap_p15_w2p")
        dom = domain_from_config(case.domain_config)
        kv = uniform_knots(-1.1, 1.1, 10, 2)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        quad = build_quadrature(dom, grid, basis.cls, 4, 6)
        coeffs = project(basis, case.solution)
        field = SolutionField(basis=basis, coeffs=coeffs)
        p = case.params["p"]
        q2 = error_norm(field, case, "quasinorm", quad) ** 2
        w1p = error_norm(field, case, "W1p", quad)
        assert q2 <= w1p ** p * (1.0 + 1e-10)
        # the two-sided companion constant is recorded, not asserted
        lower = w1p ** p
        us_w1p = (quad.integrate(
            lambda pts: np.linalg.norm(case.gradient(pts), axis=1) ** p)
            ** (1.0 / p))
        c = lower / max(
            ((us_w1p + w1p) ** (2.0 - p)) * error_norm(
                field, case, "quasinorm", quad), 1e-300)
        assert np.isfinite(c)

    def test_invalid_exponent(self):
        case, basis, quad = disk_fixture(n_cells=8)
        field = SolutionField(basis=basis, coeffs=np.zeros(basis.n_inner))
        with pytest.raises(AnalysisError):
            error_norm(field, case, "quasinorm", quad, p=1.0)
        with pytest.raises(AnalysisError):
            error_norm(field, case, "unknown-norm", quad)


class TestErrorNorms:
    """One sampling pass for several norms gives each norm's own value."""

    @staticmethod
    def random_field(name, components=1, n_cells=8, seed=3):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        kv = uniform_knots(-1.1, 1.1, n_cells, 2)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        quad = build_quadrature(dom, grid, basis.cls, 4, 5, 3)
        coeffs = np.random.default_rng(seed).normal(
            scale=0.1, size=components * basis.n_inner)
        field = SolutionField(basis=basis, coeffs=coeffs)
        return case, field, quad

    def test_vcpe_matches_per_norm_calls(self):
        case, field, quad = self.random_field("disk_poisson")
        norms = ("L2", "H1")
        got = error_norms(field, case, norms, quad)
        assert list(got) == list(norms)
        for norm in norms:
            assert got[norm] == error_norm(field, case, norm, quad)

    def test_plap_matches_per_norm_calls(self):
        case, field, quad = self.random_field("plap_p15_w2p")
        norms = ("L2", "H1", "W1p", "quasinorm")
        got = error_norms(field, case, norms, quad)
        for norm in norms:
            assert got[norm] == error_norm(field, case, norm, quad)
        # an explicit exponent overrides the case's own
        got = error_norms(field, case, norms, quad, p=2.5)
        for norm in norms:
            assert got[norm] == error_norm(field, case, norm, quad, p=2.5)
        assert got["W1p"] != error_norm(field, case, "W1p", quad)

    def test_mixed_matches_per_norm_calls(self):
        case, velocity, quad = self.random_field("stokes_carreau", components=2)
        pspace = PressureSpace(velocity.basis.grid, quad, 1)
        pressure = PressureField(space=pspace, coeffs=np.random.default_rng(
            4).normal(size=pspace.n_dofs))
        field = (velocity, pressure)
        norms = ("Xnorm", "pressure_L2", "combined")
        got = error_norms(field, case, norms, quad)
        for norm in norms:
            assert got[norm] == error_norm(field, case, norm, quad)
        assert got["combined"] == got["Xnorm"] + got["pressure_L2"]
        assert error_norms(field, case, ("combined",), quad) == {
            "combined": got["combined"]}

    def test_norms_equal_the_axis_sums(self):
        # the norms as written with numpy's axis reductions, on the same
        # samples: the component-wise sums must give the same bits
        case, field, quad = self.random_field("plap_p15_w2p")
        pts, w, p = quad.points, quad.weights, case.params["p"]
        vals, grads = field(pts, grad=True)
        inside = field.basis.domain.inside(pts)
        ev = np.where(inside, case.solution(pts) - vals, 0.0)
        eg = np.where(inside[:, None], case.gradient(pts) - grads, 0.0)
        ge = np.linalg.norm(eg, axis=1)
        base = np.linalg.norm(case.gradient(pts), axis=1) + ge
        weight = np.zeros_like(base)
        weight[base > 0] = base[base > 0] ** (p - 2.0)
        assert error_norms(field, case, ("L2", "H1", "W1p", "quasinorm"),
                           quad) == {
            "L2": float(np.sqrt(np.sum(w * ev ** 2))),
            "H1": float(np.sqrt(np.sum(
                w * (ev ** 2 + np.sum(eg ** 2, axis=1))))),
            "W1p": float(np.sum(
                w * np.sum(eg ** 2, axis=1) ** (0.5 * p)) ** (1.0 / p)),
            "quasinorm": float(np.sqrt(np.sum(w * weight * ge ** 2)))}

        case, velocity, quad = self.random_field("stokes_carreau",
                                                  components=2)
        pts, w = quad.points, quad.weights
        vals, grads = velocity(pts, grad=True)
        inside = velocity.basis.domain.inside(pts)
        ev = np.where(inside[:, None], case.velocity(pts) - vals, 0.0)
        eg = np.where(inside[:, None, None],
                      case.velocity_gradient(pts) - grads, 0.0)
        got = error_norms((velocity, None), case, ("Xnorm",), quad)
        assert got["Xnorm"] == float(np.sqrt(np.sum(
            w * (np.sum(ev ** 2, axis=1) + np.sum(eg ** 2, axis=(1, 2))))))

    def test_errors_keep_messages(self):
        case, field, quad = self.random_field("disk_poisson")
        with pytest.raises(AnalysisError, match="unknown norm 'unknown-norm'"):
            error_norms(field, case, ("L2", "unknown-norm"), quad)
        with pytest.raises(AnalysisError,
                           match=r"W1p norm needs an exponent p > 1, got 1.0"):
            error_norms(field, case, ("L2", "W1p"), quad, p=1.0)
        with pytest.raises(AnalysisError,
                           match=r"quasi-norm needs an exponent p > 1, got None"):
            error_norms(field, case, ("quasinorm",), quad)
        with pytest.raises(AnalysisError, match="scalar and mixed"):
            error_norms(field, case, ("L2", "Xnorm"), quad)


class TestRunConvergence:
    def test_vcpe_report_shape(self):
        case = get_case("disk_poisson")
        study = StudyConfig(degree=2, levels=3, base_cells=6, depth=5)
        rep = run_convergence(case, study)
        assert len(rep.levels) == 3
        assert [lv["level"] for lv in rep.levels] == [0, 1, 2]
        hs = [lv["h"] for lv in rep.levels]
        assert hs[0] > hs[1] > hs[2]
        assert hs[0] / hs[1] == pytest.approx(2.0)
        assert set(rep.eoc_table) == {"L2", "H1"}
        assert len(rep.eoc_table["H1"]) == 2
        assert rep.targets["H1"] == 2.0

    def test_eoc_recompute_bit_identical(self):
        case = get_case("disk_poisson")
        study = StudyConfig(degree=1, levels=3, base_cells=6, depth=4)
        rep = run_convergence(case, study)
        payload = json.loads(rep.to_json())
        hs = [lv["h"] for lv in payload["levels"]]
        for norm, rates in payload["eoc"].items():
            errs = [lv["errors"][norm] for lv in payload["levels"]]
            again = eoc(errs, hs)
            assert again == rates  # bit-for-bit

    def test_projector_study(self):
        case = get_case("disk_bump")
        study = StudyConfig(degree=1, levels=3, base_cells=8, depth=5)
        rep = run_convergence(case, study)
        assert np.median(rep.eoc_table["H1"]) >= 0.9

    def test_wall_time_present(self):
        case = get_case("disk_poisson")
        study = StudyConfig(degree=1, levels=1, base_cells=6, depth=4)
        rep = run_convergence(case, study)
        assert rep.levels[0]["wall_time"] > 0.0

    def test_csv_and_text(self):
        case = get_case("disk_poisson")
        study = StudyConfig(degree=1, levels=2, base_cells=6, depth=4)
        rep = run_convergence(case, study)
        csv = level_csv(rep)
        assert csv.startswith("level,h,norm,error")
        assert len(csv.strip().splitlines()) == 1 + 2 * len(rep.levels[0]["errors"])
        txt = rep.text_table()
        assert "eoc" in txt

    def test_grading_respected(self):
        case = get_case("disk_poisson")
        study = StudyConfig(degree=1, levels=1, base_cells=6, depth=4,
                            grid_kind="graded", grading_ratio=1.3)
        rep = run_convergence(case, study)
        grid = study.base_grid()
        d = np.diff(grid.kvs[0].breakpoints)[1:-1]
        assert np.allclose(d[1:] / d[:-1], 1.3)


# the studies of the plap_newton and stokes_picard benchmark workloads at
# their base grid position, and their level-0 iteration counts from zero
BENCH_STUDIES = {
    "plap": (lambda: get_case("plap_p15_w2p"),
             StudyConfig(degree=2, levels=2, base_cells=8, depth=4), 9),
    "stokes": (lambda: get_case("stokes_carreau", a0=2.0, a_inf=1.0,
                                exponent=1.5),
               StudyConfig(degree=2, levels=2, base_cells=8, depth=3,
                           pressure_degree=0, pressure_macro=2), 4),
}


class TestNestedIteration:
    @pytest.mark.parametrize("name", sorted(BENCH_STUDIES))
    def test_first_level_starts_from_zero_as_alone(self, name):
        # level 0 is the study of one level, to the last bit
        make, study, iterations = BENCH_STUDIES[name]
        two = run_convergence(make(), study)
        one = run_convergence(make(), replace(study, levels=1))
        first = two.levels[0]
        for key in ("errors", "residual_history", "converged", "iterations",
                    "start"):
            assert first[key] == one.levels[0][key]
        assert first["start"] == "zero"
        assert first["iterations"] == iterations
        assert two.levels[1]["start"] == "prolonged"

    def test_warm_levels_take_fewer_steps(self):
        # the prolonged coarse solution saves most of the eps-stages and one
        # saddle solve: 9 -> at most 4 Newton steps, 4 -> at most 3 solves
        plap = run_convergence(BENCH_STUDIES["plap"][0](),
                               BENCH_STUDIES["plap"][1])
        assert plap.levels[1]["iterations"] <= 4
        assert len(plap.levels[1]["residual_history"]) == 2
        assert plap.levels[1]["converged"] == [True, True]
        stokes = run_convergence(BENCH_STUDIES["stokes"][0](),
                                 BENCH_STUDIES["stokes"][1])
        warm = stokes.levels[1]
        assert warm["iterations"] <= 3
        # the residual before the first (undamped) step leads the history
        assert warm["iterations"] == len(warm["residual_history"][0]) - 1
        assert warm["converged"] == [True]
        assert warm["incompressibility"] <= 1e-8

    def test_nearly_degenerate_exponent_converges_from_prolonged_starts(self):
        # the bundled case solved at p = 1.05 (its source stays that of
        # p = 1.5): from the prolonged start the eps_final stage alone stalls
        # near residual 2e-2, while 10 eps_final and then eps_final converge
        case = get_case("plap_p15_smooth")
        case.params = {**case.params, "p": 1.05}
        rep = run_convergence(case, StudyConfig(degree=2, levels=3,
                                                base_cells=8, depth=4))
        assert [lv["start"] for lv in rep.levels] == [
            "zero", "prolonged", "prolonged"]
        for lv in rep.levels[1:]:
            assert len(lv["residual_history"]) == 2
            assert lv["residual_history"][-1][-1] <= 1e-8

    def test_linear_levels_record_no_start(self):
        rep = run_convergence(get_case("disk_poisson"),
                              StudyConfig(degree=1, levels=2, base_cells=6,
                                          depth=4))
        assert all("start" not in lv for lv in rep.levels)


class TestQuasinormCea:
    @pytest.mark.parametrize("name", ["plap_p15_smooth", "plap_p15_w2p", "plap_p3"])
    def test_solution_quasinorm_near_best(self, name):
        # |u - u_h|_q <= 5 |u - P_h u|_q on the manufactured runs
        from webfem.solvers import solve_plap
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        kv = uniform_knots(-1.1, 1.1, 12, 2)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        quad = build_quadrature(dom, grid, basis.cls, 3, 6)
        err_quad = build_quadrature(dom, grid, basis.cls, 4, 6, 3)
        tables = BasisTables(basis, quad)
        sol = solve_plap(basis, case.params["p"], case.source, tables)
        proj = SolutionField(basis=basis, coeffs=project(basis, case.solution))
        qs = error_norm(sol, case, "quasinorm", err_quad)
        qp = error_norm(proj, case, "quasinorm", err_quad)
        assert qs <= 5.0 * qp


class TestSharedTables:
    """Norms on the composed error rule that read its boundary runs from the
    assembly tables equal those of the separate per-point evaluation path."""

    @staticmethod
    def level(name, components=1, degree=2, n_cells=8, gauss_leaf=None):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        kv = uniform_knots(-1.1, 1.1, n_cells, degree)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        g = degree + 1
        quad = build_quadrature(dom, grid, basis.cls, g, 5, gauss_leaf)
        err_quad = build_quadrature(dom, grid, basis.cls, g + 1, 5, base=quad)
        tables = BasisTables(basis, quad)
        coeffs = np.random.default_rng(11).normal(
            scale=0.1, size=components * basis.n_inner)
        field = SolutionField(basis=basis, coeffs=coeffs)
        shared = analysis._shared_sampler(basis, tables, err_quad)
        return case, field, err_quad, shared

    def check(self, case, field, err_quad, shared, norms):
        def oracle(f):
            for sl, pts, w in err_quad.blocks():
                outs = [eval_field_loop(f.basis, f.component(k), pts,
                                        nderiv=1)
                        for k in range(f.num_components)]
                yield (sl, pts, w, np.stack([v for v, _ in outs], axis=1),
                       np.stack([g for _, g in outs], axis=1))

        got = analysis._error_norms(field, case, norms, err_quad, shared)
        ref = analysis._error_norms(field, case, norms, err_quad, oracle)
        assert list(got) == list(norms)
        for norm in norms:
            assert got[norm] == pytest.approx(ref[norm], rel=1e-12, abs=0)
        # the public entry point evaluates every point anew; same numbers
        public = error_norms(field, case, norms, err_quad)
        for norm in norms:
            assert public[norm] == pytest.approx(ref[norm], rel=1e-12, abs=0)

    @pytest.mark.parametrize("degree, gauss_leaf", [(1, None), (2, None),
                                                    (3, 3)])
    def test_vcpe(self, degree, gauss_leaf):
        case, field, err_quad, shared = self.level(
            "disk_poisson", degree=degree, gauss_leaf=gauss_leaf)
        self.check(case, field, err_quad, shared, ("L2", "H1"))

    def test_plap(self):
        case, field, err_quad, shared = self.level("plap_p15_w2p")
        self.check(case, field, err_quad, shared,
                   ("L2", "H1", "W1p", "quasinorm"))

    def test_mixed(self):
        case, velocity, err_quad, shared = self.level(
            "stokes_carreau", components=2, gauss_leaf=2)
        pspace = PressureSpace(velocity.basis.grid, err_quad.base, 0)
        pressure = PressureField(space=pspace, coeffs=np.random.default_rng(
            12).normal(size=pspace.n_dofs))
        self.check(case, (velocity, pressure), err_quad, shared,
                   ("Xnorm", "pressure_L2", "combined"))

    def test_samples_match_oracle_pointwise(self):
        case, field, err_quad, shared = self.level(
            "stokes_carreau", components=2, degree=3, gauss_leaf=3)
        blocks = list(shared(field))
        assert [sl for sl, *_ in blocks] == [sl for sl, *_ in
                                             err_quad.blocks()]
        vals = np.concatenate([v for *_, v, _ in blocks])
        grads = np.concatenate([g for *_, g in blocks])
        for k in range(2):
            rv, rg = eval_field_loop(field.basis, field.component(k),
                                     err_quad.points, nderiv=1)
            np.testing.assert_allclose(vals[:, k], rv, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(rv)))
            np.testing.assert_allclose(grads[:, k], rg, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(rg)))

    def test_run_level_subdivides_once(self, monkeypatch):
        # the error rule is composed from the assembly rule's boundary runs
        real = quadrature._subdivide_boundary
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(quadrature, "_subdivide_boundary", counted)
        study = StudyConfig(degree=1, levels=2, base_cells=6, depth=3)
        rep = run_convergence(get_case("disk_poisson"), study)
        assert len(calls) == len(rep.levels) == 2


class TestBlockedNorms:
    """The norms in blocks of 77 points, which cut through the runs of the
    composed error rule, equal exactly the whole-array norms over the error
    rule built in full (``tests/oracles.py``)."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BLOCK", 77)

    @staticmethod
    def level(name, degree=2, n_cells=8, gauss_leaf=None, depth=5):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        kv = uniform_knots(-1.1, 1.1, n_cells, degree)
        grid = TensorGrid(kv, kv)
        basis = build_web_basis(dom, grid)
        g = degree + 1
        quad = build_quadrature(dom, grid, basis.cls, g, depth, gauss_leaf)
        err = build_quadrature(dom, grid, basis.cls, g + 1, depth, base=quad)
        built = build_quadrature(dom, grid, basis.cls, g + 1, depth,
                                 gauss_leaf or g, leaves=quad.leaves)
        return case, basis, quad, err, built

    @staticmethod
    def field(basis, components=1, seed=11):
        return SolutionField(basis=basis, coeffs=np.random.default_rng(
            seed).normal(scale=0.1, size=components * basis.n_inner))

    def check(self, field, case, norms, basis, quad, err, built):
        tables = BasisTables(basis, quad)
        got = analysis._error_norms(field, case, norms, err,
                                    analysis._shared_sampler(basis, tables,
                                                             err))
        want = oracles.error_norms_full(
            field, case, norms, built,
            oracles.shared_sampler_full(basis, tables, quad, built))
        assert got == want
        # the public path, on the composed and on the built rule
        full = oracles.error_norms_full(
            field, case, norms, built, lambda f: eval_fields(
                f.basis, f.full_coeffs(), built.points, grad=True))
        assert error_norms(field, case, norms, err) == full
        assert error_norms(field, case, norms, built) == full

    @pytest.mark.parametrize("degree, gauss_leaf", [(2, None), (3, 2)])
    def test_vcpe(self, degree, gauss_leaf):
        case, basis, quad, err, built = self.level(
            "disk_poisson", degree=degree, gauss_leaf=gauss_leaf)
        assert err.num_points > 10 * 77
        self.check(self.field(basis), case, ("L2", "H1"), basis, quad, err,
                   built)

    def test_plap(self):
        case, basis, quad, err, built = self.level("plap_p15_w2p")
        self.check(self.field(basis), case, ("L2", "H1", "W1p", "quasinorm"),
                   basis, quad, err, built)

    def test_mixed(self):
        case, basis, quad, err, built = self.level("stokes_carreau",
                                                   gauss_leaf=2)
        pspace = PressureSpace(basis.grid, quad, 1)
        pressure = PressureField(space=pspace, coeffs=np.random.default_rng(
            12).normal(size=pspace.n_dofs))
        self.check((self.field(basis, components=2), pressure), case,
                   ("Xnorm", "pressure_L2", "combined"), basis, quad, err,
                   built)

    def test_projector(self):
        case, basis, quad, err, built = self.level("disk_bump", degree=1)
        assert jackson_error(basis, case.solution, case.gradient, err) == (
            oracles.jackson_error_full(basis, case.solution, case.gradient,
                                       built))

    def test_pressure_projection(self):
        case, basis, quad, err, built = self.level("pressure_xy", degree=2,
                                                   gauss_leaf=1)
        pspace = PressureSpace(basis.grid, quad, 1, macro=2)
        assert pressure_projection_error(pspace, err, case.pressure) == (
            oracles.pressure_projection_error_full(pspace, built,
                                                   case.pressure))


class TestRateTargets:
    def test_case_without_an_estimate_reports_null(self, tmp_path):
        case = replace(get_case("disk_poisson"),
                       rate_targets={"H1": None, "L2": "degree"})
        study = StudyConfig(degree=1, levels=2, base_cells=6, depth=3)
        rep = run_convergence(case, study)
        assert rep.targets == {"H1": None, "L2": 1.0}
        assert json.loads(rep.to_json())["targets"]["H1"] is None
        # floors read the EOC table, not the targets
        floors = {"floors": [{"norm": "H1", "min_eoc": 0.5}]}
        assert evaluate_floors(floors, rep) == []
        floors["floors"][0]["min_eoc"] = 5.0
        assert len(evaluate_floors(floors, rep)) == 1


class TestAnnulus:
    def test_multiply_connected_convergence(self):
        case = get_case("annulus_poisson")
        study = StudyConfig(degree=2, levels=3, base_cells=10, depth=8)
        rep = run_convergence(case, study)
        assert np.median(rep.eoc_table["H1"]) >= 1.5


class TestPressureProjection:
    def test_exact_in_space(self):
        case, basis, quad = disk_fixture(n_cells=8)
        ps = PressureSpace(basis.grid, quad, 1)
        # xy restricted cell-wise is in the degree-1 tensor space
        err = pressure_projection_error(ps, quad, lambda p: p[:, 0] * p[:, 1])
        assert err <= 1e-12

    def test_rate_for_constants(self):
        case = get_case("pressure_xy")
        study = StudyConfig(degree=2, levels=3, base_cells=8, depth=6,
                            pressure_degree=0)
        rep = run_convergence(case, study)
        assert np.median(rep.eoc_table["pressure_L2"]) >= 0.9

    def test_macro_size_reaches_the_pressure_space(self, monkeypatch):
        spaces = []
        space = analysis.PressureSpace

        def recording_space(*args, **kwargs):
            spaces.append(space(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(analysis, "PressureSpace", recording_space)
        case = get_case("pressure_xy")
        reports = [run_convergence(case, StudyConfig(
            degree=2, levels=2, base_cells=8, depth=5, pressure_macro=macro))
            for macro in (1, 2)]
        single, macro = spaces[:2], spaces[2:]
        for s1, s2 in zip(single, macro):
            assert s2.n_dofs < s1.n_dofs
        for e1, e2 in zip(*(rep.errors("pressure_L2") for rep in reports)):
            assert e1 != e2
        assert reports[1].study["pressure_macro"] == 2
