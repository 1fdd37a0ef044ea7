"""Manufactured solutions with closed-form sources.

Each case fixes an exact solution vanishing on the boundary of its domain,
the matching source term obtained by applying the strong operator, and the
theoretical convergence-rate target of its regularity class. Radial
p-Laplacian cases exploit that u = 1 - r^beta with beta = p/(p-1) has a
constant p-Laplacian, and that u = 1 - r^kappa gives
-div(|grad u|^{p-2} grad u) = kappa^{p-1} * gamma * r^{gamma-2} with
gamma = kappa*p - kappa - p + 2.
"""

from dataclasses import dataclass, field

import numpy as np


UNIT_DISK = {"exponent": 1.0,
             "tree": {"op": "disk", "center": [0.0, 0.0], "radius": 1.0}}

ANNULUS = {"exponent": 1.0,
           "tree": {"op": "conj", "args": [
               {"op": "disk", "center": [0.0, 0.0], "radius": 1.0},
               {"op": "not",
                "arg": {"op": "disk", "center": [0.0, 0.0], "radius": 0.4}}]}}


@dataclass
class ManufacturedCase:
    """Exact solution, source, and rate metadata for one study."""

    name: str
    kind: str                      # vcpe | plap | quasi_newtonian
    domain_config: dict
    params: dict = field(default_factory=dict)
    solution: object = None       # pts -> (N,)
    gradient: object = None       # pts -> (N, 2)
    source: object = None         # pts -> (N,)
    diffusion: object = None      # vcpe coefficient a(x); None means 1
    velocity: object = None       # pts -> (N, 2)
    velocity_gradient: object = None  # pts -> (N, 2, 2), [n, comp, axis]
    pressure: object = None       # pts -> (N,)
    body_force: object = None     # pts -> (N, 2)
    viscosity: object = None      # s -> a(s)
    rate_targets: dict = field(default_factory=dict)


def _r(pts):
    return np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)


def _bump_sin(p):
    """psi = 1 - r^2, S = sin(3x + 2y) and C = cos(3x + 2y) at the points."""
    arg = 3.0 * p[:, 0] + 2.0 * p[:, 1]
    return 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2, np.sin(arg), np.cos(arg)


def _bump_sin_solution(p):
    psi, s, _ = _bump_sin(p)
    return psi * s


def _bump_sin_gradient(p):
    psi, s, c = _bump_sin(p)
    return np.column_stack([-2.0 * p[:, 0] * s + 3.0 * psi * c,
                            -2.0 * p[:, 1] * s + 2.0 * psi * c])


def disk_poisson():
    """Poisson on the unit disk, u = (1 - r^2) sin(3x + 2y).

    The oscillation keeps the approximation error well above the cut-cell
    consistency floor on desk-scale grids, so the theoretical rates are
    observable without extreme subdivision depths.
    """

    def f(p):
        # -Lap u with u = psi*S: Lap u = S*Lap psi + 2 grad psi . grad S + psi*Lap S
        psi, s, c = _bump_sin(p)
        return (4.0 + 13.0 * psi) * s + (12.0 * p[:, 0] + 8.0 * p[:, 1]) * c

    return ManufacturedCase(
        name="disk_poisson", kind="vcpe", domain_config=UNIT_DISK,
        solution=_bump_sin_solution, gradient=_bump_sin_gradient, source=f,
        rate_targets={"H1": "degree"})


def disk_poisson_quadratic():
    """u = 1 - r^2 = 2w: representable exactly for every degree; the solver
    error equals the cut-quadrature consistency floor."""

    def u(p):
        return 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2

    def grad(p):
        return -2.0 * p

    return ManufacturedCase(
        name="disk_poisson_quadratic", kind="vcpe", domain_config=UNIT_DISK,
        solution=u, gradient=grad, source=lambda p: np.full(p.shape[0], 4.0),
        rate_targets={})


def annulus_poisson():
    """Poisson on the annulus 0.4 < r < 1 with an oscillatory solution
    u = (1 - r^2)(r^2 - 0.16) sin(2x + 3y) (multiply connected coverage)."""
    a2 = 0.16

    def bump(p):
        s = p[:, 0] ** 2 + p[:, 1] ** 2
        return (1.0 - s) * (s - a2)

    def bump_grad(p):
        s = p[:, 0] ** 2 + p[:, 1] ** 2
        return (2.0 * (1.0 + a2) - 4.0 * s)[:, None] * p

    def osc(p):
        return np.sin(2.0 * p[:, 0] + 3.0 * p[:, 1])

    def osc_grad(p):
        c = np.cos(2.0 * p[:, 0] + 3.0 * p[:, 1])
        return np.column_stack([2.0 * c, 3.0 * c])

    def u(p):
        return bump(p) * osc(p)

    def grad(p):
        return bump_grad(p) * osc(p)[:, None] + bump(p)[:, None] * osc_grad(p)

    def f(p):
        # -Lap(b*s) = -(s Lap b + 2 grad b . grad s + b Lap s)
        s_ = osc(p)
        lap_b = -(16.0 * (p[:, 0] ** 2 + p[:, 1] ** 2) - 4.0 * (1.0 + a2))
        cross = np.sum(bump_grad(p) * osc_grad(p), axis=1)
        return -(s_ * lap_b + 2.0 * cross - 13.0 * bump(p) * s_)

    return ManufacturedCase(
        name="annulus_poisson", kind="vcpe", domain_config=ANNULUS,
        solution=u, gradient=grad, source=f,
        rate_targets={"H1": "degree"})


def _radial_plap_case(name, p_exp, kappa, regularity, target):
    """u = 1 - r^kappa on the unit disk with the mass-term p-Laplacian source."""
    gamma = kappa * p_exp - kappa - p_exp + 2.0
    amp = kappa ** (p_exp - 1.0) * gamma

    def u(pts):
        return 1.0 - _r(pts) ** kappa

    def grad(pts):
        r = _r(pts)
        fac = np.zeros_like(r)
        pos = r > 0
        fac[pos] = -kappa * r[pos] ** (kappa - 2.0)
        return fac[:, None] * pts

    def f(pts):
        r = _r(pts)
        lead = np.full_like(r, np.inf)
        pos = r > 0
        if gamma == 2.0:
            lead[:] = amp
        else:
            lead[pos] = amp * r[pos] ** (gamma - 2.0)
        return lead + 1.0 - r ** kappa

    return ManufacturedCase(
        name=name, kind="plap", domain_config=UNIT_DISK,
        params={"p": p_exp, "kappa": kappa, "regularity": regularity},
        solution=u, gradient=grad, source=f,
        rate_targets={"quasinorm": target})


def plap_p15_smooth():
    """p = 1.5 with a C-infinity solution (smooth branch, rate target 1).

    u = (1 - r^2) sin(3x + 2y) keeps the discretization error well above
    the cut-cell floor, and all its interior critical points are
    nondegenerate, so the degenerate factor |grad u|^{p-2} is only an
    integrable dist^{-1/2} spike there (a radial solution would vanish
    quadratically at its critical point and make the factor ~1/r).
    """
    return _smooth_plap_case("plap_p15_smooth", 1.5, target=1.0)


def _smooth_plap_case(name, p_exp, target):
    """u = (1 - r^2) sin(3x + 2y) with the mass-term p-Laplacian source.

    With g = grad u and H its Hessian, div(|g|^{p-2} g) =
    |g|^{p-2} Lap u + (p-2) |g|^{p-4} g^T H g.
    """

    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        psi, s, c = _bump_sin(pts)
        gx, gy = _bump_sin_gradient(pts).T
        uxx = -2.0 * s - 12.0 * x * c - 9.0 * psi * s
        uyy = -2.0 * s - 8.0 * y * c - 4.0 * psi * s
        uxy = -4.0 * x * c - 6.0 * y * c - 6.0 * psi * s
        g2 = gx ** 2 + gy ** 2
        gHg = gx ** 2 * uxx + 2.0 * gx * gy * uxy + gy ** 2 * uyy
        # the source is singular where grad u = 0 (p < 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            div = (g2 ** (0.5 * (p_exp - 2.0)) * (uxx + uyy)
                   + (p_exp - 2.0) * g2 ** (0.5 * (p_exp - 4.0)) * gHg)
        return -div + psi * s

    return ManufacturedCase(
        name=name, kind="plap", domain_config=UNIT_DISK,
        params={"p": p_exp, "regularity": "smooth"},
        solution=_bump_sin_solution, gradient=_bump_sin_gradient, source=f,
        rate_targets={"quasinorm": target})


def plap_p15_w2p():
    """p = 1.5 with u = 1 - r^1.5, which is W^{2,p} but not C^2
    (rate target p/2 = 0.75)."""
    return _radial_plap_case("plap_p15_w2p", 1.5, 1.5, "W2p", 0.75)


def plap_p3():
    """p = 3 with u = 1 - r^1.5 in W^{1,inf} and H^2 (alpha = 2, target 1)."""
    return _radial_plap_case("plap_p3", 3.0, 1.5, "W1inf_W2alpha", 1.0)


def _stokes_velocity():
    def vel(p):
        phi = 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2
        return np.column_stack([-4.0 * p[:, 1] * phi, 4.0 * p[:, 0] * phi])

    def vgrad(p):
        x, y = p[:, 0], p[:, 1]
        g = np.empty((p.shape[0], 2, 2))
        g[:, 0, 0] = 8.0 * x * y
        g[:, 0, 1] = -4.0 + 4.0 * x ** 2 + 12.0 * y ** 2
        g[:, 1, 0] = 4.0 - 12.0 * x ** 2 - 4.0 * y ** 2
        g[:, 1, 1] = -8.0 * x * y
        return g

    return vel, vgrad


def stokes_newtonian():
    """Constant-viscosity Stokes: u = (-4y(1-r^2), 4x(1-r^2)), p = xy."""
    from .solvers import carreau_viscosity

    vel, vgrad = _stokes_velocity()

    def phi(p):
        # -div D(u) + grad p = -(1/2) Lap u + grad p = (-15y, 17x)
        return np.column_stack([-15.0 * p[:, 1], 17.0 * p[:, 0]])

    return ManufacturedCase(
        name="stokes_newtonian", kind="quasi_newtonian",
        domain_config=UNIT_DISK, params={"a0": 1.0, "a_inf": 1.0},
        velocity=vel, velocity_gradient=vgrad,
        pressure=lambda p: p[:, 0] * p[:, 1],
        body_force=phi, viscosity=carreau_viscosity(1.0, 1.0),
        rate_targets={"combined": 1.0})


def stokes_carreau(a0=2.0, a_inf=1.0, exponent=1.5):
    """Carreau-viscosity Stokes with the velocity and pressure of
    `stokes_newtonian` and a closed-form body force (validated by finite
    differences in the test suite).

    D(u) has d11 = -d22 = 8xy and d12 = 4(y^2 - x^2), so s = |D(u)|^2 =
    32 r^4 and, with a = a(s) and a' = da/ds,
    -div(a D(u)) + grad(xy) = (y - k y, x + k x), k = 16 a + 512 a' r^4.
    """
    from .solvers import carreau_viscosity

    viscosity = carreau_viscosity(a0, a_inf, exponent)
    vel, vgrad = _stokes_velocity()

    def phi(p):
        x, y = p[:, 0], p[:, 1]
        r4 = (x ** 2 + y ** 2) ** 2
        s = 32.0 * r4
        k = 16.0 * viscosity(s) + 512.0 * viscosity.derivative(s) * r4
        return np.column_stack([y - k * y, x + k * x])

    return ManufacturedCase(
        name="stokes_carreau", kind="quasi_newtonian",
        domain_config=UNIT_DISK,
        params={"a0": a0, "a_inf": a_inf, "r_carreau": exponent},
        velocity=vel, velocity_gradient=vgrad,
        pressure=lambda p: p[:, 0] * p[:, 1],
        body_force=phi, viscosity=viscosity,
        rate_targets={"combined": 1.0})


def disk_bump():
    """u = (1 - r^2)^2: the projector study target (in no degree-1 space)."""

    def u(p):
        return (1.0 - p[:, 0] ** 2 - p[:, 1] ** 2) ** 2

    def grad(p):
        phi = 1.0 - p[:, 0] ** 2 - p[:, 1] ** 2
        return -4.0 * phi[:, None] * p

    return ManufacturedCase(
        name="disk_bump", kind="projector", domain_config=UNIT_DISK,
        solution=u, gradient=grad, rate_targets={"H1": 1.0})


def pressure_xy():
    """p = xy on the unit disk (mean zero by symmetry)."""
    return ManufacturedCase(
        name="pressure_xy", kind="pressure_projection", domain_config=UNIT_DISK,
        pressure=lambda p: p[:, 0] * p[:, 1],
        rate_targets={"pressure_L2": 1.0})


CASES = {
    "disk_poisson": disk_poisson,
    "disk_poisson_quadratic": disk_poisson_quadratic,
    "annulus_poisson": annulus_poisson,
    "plap_p15_smooth": plap_p15_smooth,
    "plap_p15_w2p": plap_p15_w2p,
    "plap_p3": plap_p3,
    "stokes_newtonian": stokes_newtonian,
    "stokes_carreau": stokes_carreau,
    "disk_bump": disk_bump,
    "pressure_xy": pressure_xy,
}


def get_case(name, **kwargs):
    if name not in CASES:
        raise KeyError(f"unknown manufactured case {name!r}; "
                       f"available: {sorted(CASES)}")
    return CASES[name](**kwargs)
