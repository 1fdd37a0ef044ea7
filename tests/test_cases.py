import numpy as np
import pytest

from webfem.cases import CASES, get_case
from webfem.geometry import domain_from_config


def boundary_points(domain, n=500, seed=2):
    """Points on the zero level set, by vectorized bisection along rays
    from random interior starts."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1.0, 1.0, (20 * n, 2))
    starts = starts[domain.phi(starts) > 1e-3][:n]
    assert starts.shape[0] == n, "failed to sample interior starts"
    ang = rng.uniform(0, 2 * np.pi, n)
    d = np.column_stack([np.cos(ang), np.sin(ang)])
    a = np.zeros(n)
    b = np.full(n, 4.0)
    # rays may cross the boundary several times; bisection converges to one
    # genuine zero either way
    assert np.all(domain.phi(starts + b[:, None] * d) < 0)
    for _ in range(60):
        m = 0.5 * (a + b)
        inside = domain.phi(starts + m[:, None] * d) > 0
        a = np.where(inside, m, a)
        b = np.where(inside, b, m)
    return starts + (0.5 * (a + b))[:, None] * d


def interior_points(domain, n, rng, min_phi=1e-2, avoid=()):
    pts = []
    while len(pts) < n:
        p = rng.uniform(-1, 1, 2)
        if domain.phi(p[None, :])[0] <= min_phi:
            continue
        if any(np.linalg.norm(p - a) < 0.15 for a in avoid):
            continue
        pts.append(p)
    return np.array(pts)


def fd_divergence(flux, pts, step=1e-5):
    """Central finite-difference divergence of an analytic vector field."""
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    return ((flux(pts + ex)[:, 0] - flux(pts - ex)[:, 0])
            + (flux(pts + ey)[:, 1] - flux(pts - ey)[:, 1])) / (2 * step)


SCALAR_CASES = ["disk_poisson", "disk_poisson_quadratic", "annulus_poisson",
                "plap_p15_smooth", "plap_p15_w2p", "plap_p3", "disk_bump"]
MIXED_CASES = ["stokes_newtonian", "stokes_carreau"]


class TestBoundaryVanishing:
    @pytest.mark.parametrize("name", SCALAR_CASES)
    def test_scalar_solution_vanishes(self, name):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        bpts = boundary_points(dom)
        assert np.max(np.abs(case.solution(bpts))) <= 1e-10

    @pytest.mark.parametrize("name", MIXED_CASES)
    def test_velocity_vanishes(self, name):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        bpts = boundary_points(dom)
        assert np.max(np.abs(case.velocity(bpts))) <= 1e-10


class TestGradientsConsistent:
    @pytest.mark.parametrize("name", SCALAR_CASES)
    def test_gradient_matches_fd(self, name):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        rng = np.random.default_rng(3)
        pts = interior_points(dom, 50, rng, avoid=[np.zeros(2)])
        step = 1e-6
        for ax, e in ((0, np.array([step, 0.0])), (1, np.array([0.0, step]))):
            fd = (case.solution(pts + e) - case.solution(pts - e)) / (2 * step)
            assert np.max(np.abs(case.gradient(pts)[:, ax] - fd)) <= 1e-5

    @pytest.mark.parametrize("name", MIXED_CASES)
    def test_velocity_gradient_matches_fd(self, name):
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        rng = np.random.default_rng(4)
        pts = interior_points(dom, 30, rng)
        step = 1e-6
        g = case.velocity_gradient(pts)
        for ax, e in ((0, np.array([step, 0.0])), (1, np.array([0.0, step]))):
            fd = (case.velocity(pts + e) - case.velocity(pts - e)) / (2 * step)
            assert np.max(np.abs(g[:, :, ax] - fd)) <= 1e-5


class TestStrongResidual:
    @pytest.mark.parametrize("name", ["disk_poisson", "disk_poisson_quadratic",
                                      "annulus_poisson"])
    def test_poisson_source(self, name):
        # -div(grad u) = f checked by differencing the analytic gradient
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        rng = np.random.default_rng(5)
        pts = interior_points(dom, 100, rng)
        lap = fd_divergence(case.gradient, pts)
        assert np.max(np.abs(-lap - case.source(pts))) <= 1e-6

    @pytest.mark.parametrize("name", ["plap_p15_smooth", "plap_p15_w2p", "plap_p3"])
    def test_plap_source(self, name):
        # -div(|grad u|^{p-2} grad u) + u = f; the finite-difference oracle
        # needs |grad u| bounded away from zero (the flux derivatives blow up
        # at the degenerate points and would swamp the check)
        case = get_case(name)
        p = case.params["p"]
        dom = domain_from_config(case.domain_config)
        rng = np.random.default_rng(6)
        pts = []
        while len(pts) < 100:
            q = rng.uniform(-1, 1, 2)
            if dom.phi(q[None, :])[0] <= 1e-2:
                continue
            if np.linalg.norm(case.gradient(q[None, :])[0]) < 0.3:
                continue
            pts.append(q)
        pts = np.array(pts)

        def flux(q):
            g = case.gradient(q)
            s = np.linalg.norm(g, axis=1)
            return (s ** (p - 2.0))[:, None] * g

        resid = -fd_divergence(flux, pts) + case.solution(pts) - case.source(pts)
        assert np.max(np.abs(resid)) <= 1e-6

    @pytest.mark.parametrize("name", MIXED_CASES)
    def test_momentum_source(self, name):
        # -div(a(|D|^2) D(u)) + grad p = phi, divergence by differencing the
        # analytic stress, pressure gradient analytic
        case = get_case(name)
        dom = domain_from_config(case.domain_config)
        rng = np.random.default_rng(7)
        pts = interior_points(dom, 60, rng)

        def stress(q):
            g = case.velocity_gradient(q)
            d11 = g[:, 0, 0]
            d22 = g[:, 1, 1]
            d12 = 0.5 * (g[:, 0, 1] + g[:, 1, 0])
            a = case.viscosity(d11 ** 2 + d22 ** 2 + 2 * d12 ** 2)
            return a, d11, d22, d12

        def row(q, comp):
            a, d11, d22, d12 = stress(q)
            if comp == 0:
                return np.column_stack([a * d11, a * d12])
            return np.column_stack([a * d12, a * d22])

        step = 1e-5
        gp = np.column_stack([pts[:, 1], pts[:, 0]])  # grad(xy)
        phi = case.body_force(pts)
        for comp in range(2):
            div = fd_divergence(lambda q, c=comp: row(q, c), pts, step)
            resid = -div + gp[:, comp] - phi[:, comp]
            assert np.max(np.abs(resid)) <= 1e-5

    def test_velocity_divergence_free(self):
        case = get_case("stokes_carreau")
        dom = domain_from_config(case.domain_config)
        rng = np.random.default_rng(8)
        pts = interior_points(dom, 100, rng)
        g = case.velocity_gradient(pts)
        assert np.max(np.abs(g[:, 0, 0] + g[:, 1, 1])) <= 1e-12


def symbolic_carreau_force(a0, a_inf, exponent):
    """Body force of `stokes_carreau` by symbolic differentiation of the
    stress divergence."""
    sym = pytest.importorskip("sympy")
    x, y = sym.symbols("x y", real=True)
    phi_d = 1 - x ** 2 - y ** 2
    u1 = -4 * y * phi_d
    u2 = 4 * x * phi_d
    pr = x * y
    d11 = sym.diff(u1, x)
    d22 = sym.diff(u2, y)
    d12 = (sym.diff(u1, y) + sym.diff(u2, x)) / 2
    s = d11 ** 2 + d22 ** 2 + 2 * d12 ** 2
    a = a_inf + (a0 - a_inf) * (1 + s) ** (0.5 * (exponent - 2.0))
    f1 = -(sym.diff(a * d11, x) + sym.diff(a * d12, y)) + sym.diff(pr, x)
    f2 = -(sym.diff(a * d12, x) + sym.diff(a * d22, y)) + sym.diff(pr, y)
    force = sym.lambdify((x, y), (f1, f2), "numpy")

    def phi(p):
        f1v, f2v = force(p[:, 0], p[:, 1])
        return np.column_stack([np.broadcast_to(f1v, p.shape[0]),
                                np.broadcast_to(f2v, p.shape[0])])

    return phi


def symbolic_smooth_plap_source(p_exp):
    """Source of `plap_p15_smooth` by symbolic differentiation of
    -div(|grad u|^{p-2} grad u) + u."""
    sym = pytest.importorskip("sympy")
    x, y = sym.symbols("x y", real=True)
    u_expr = (1 - x ** 2 - y ** 2) * sym.sin(3 * x + 2 * y)
    ux = sym.diff(u_expr, x)
    uy = sym.diff(u_expr, y)
    mu = (ux ** 2 + uy ** 2) ** (0.5 * (p_exp - 2.0))
    f_expr = -(sym.diff(mu * ux, x) + sym.diff(mu * uy, y)) + u_expr
    f_num = sym.lambdify((x, y), f_expr, "numpy")
    return lambda pts: f_num(pts[:, 0], pts[:, 1])


def disk_points(n, seed, radius=0.99):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


class TestClosedFormSources:
    """The closed-form sources against the symbolic oracles above (skipped
    without sympy), relative to the largest oracle value."""

    @pytest.mark.parametrize("a0, a_inf, exponent", [
        (2.0, 1.0, 1.5), (3.0, 0.5, 1.2), (2.0, 1.0, 2.5), (1.0, 1.0, 1.5)])
    def test_carreau_force_matches_symbolic(self, a0, a_inf, exponent):
        pts = disk_points(2000, seed=11)
        want = symbolic_carreau_force(a0, a_inf, exponent)(pts)
        case = get_case("stokes_carreau", a0=a0, a_inf=a_inf, exponent=exponent)
        got = case.body_force(pts)
        assert got.shape == want.shape == (pts.shape[0], 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_smooth_plap_source_matches_symbolic(self):
        case = get_case("plap_p15_smooth")
        pts = disk_points(2000, seed=12)
        want = symbolic_smooth_plap_source(case.params["p"])(pts)
        got = case.source(pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_constant_viscosity_carreau_is_newtonian(self):
        pts = disk_points(2000, seed=13)
        carreau = get_case("stokes_carreau", a0=1.0, a_inf=1.0)
        newtonian = get_case("stokes_newtonian")
        diff = carreau.body_force(pts) - newtonian.body_force(pts)
        assert np.max(np.abs(diff)) <= 1e-14


class TestRegistry:
    def test_unknown_case(self):
        with pytest.raises(KeyError):
            get_case("nonexistent")

    def test_all_cases_construct(self):
        for name in CASES:
            case = get_case(name)
            assert case.name == name
            assert case.domain_config
