"""Solvers for the three problem classes.

* variable-coefficient Poisson: Jacobi-preconditioned conjugate gradients
  on the SPD web system,
* p-Laplacian: damped Newton on the eps-regularized residual with
  eps-continuation, every stage at the requested exponent,
* quasi-Newtonian Stokes: damped Newton on the Carreau energy, each step a
  solve of the mixed saddle system with a mean-zero pressure multiplier.

Both nonlinear problems run the one damped Newton loop ``_newton_stage``,
from zero or from a given start such as a prolonged coarse solution.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# assemble_plap_jacobian_and_residual and plap_energy are not called here but
# stay importable: perfbench/spans.py patches them in this module
from .assembly import (  # noqa: F401
    PlapIterate, StackedPattern, StokesIterate, assemble_mixed,
    assemble_plap_jacobian_and_residual, assemble_vcpe, plap_energy,
)
from .webbasis import eval_fields


class SolverError(RuntimeError):
    """Solver failed to converge; carries the residual/update history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


EPS_FACTOR = 10.0        # ratio of consecutive eps-continuation stages
DAMPING_FACTOR = 0.5     # step shrink per rejected line-search trial
MAX_DAMPING_STEPS = 20


@dataclass
class SolveOptions:
    """The ``solver`` keys of a config: limits, tolerances, eps range."""

    linear_tol: float = 1e-10
    nonlinear_tol: float = 1e-8
    max_linear_iterations: int = 20000
    max_iterations: int = 40          # Newton steps per stage
    eps_start: float = 1e-1
    eps_final: float = 1e-8

    def __post_init__(self):
        if self.linear_tol <= 0 or self.nonlinear_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.eps_final <= self.eps_start < np.inf:
            raise ValueError(
                f"need 0 < eps_final <= eps_start < inf, got eps_final "
                f"{self.eps_final} and eps_start {self.eps_start}")

    def eps_schedule(self):
        out = [self.eps_start]
        while out[-1] > self.eps_final * (1.0 + 1e-12):
            out.append(max(out[-1] / EPS_FACTOR, self.eps_final))
        return out


@dataclass
class SolutionField:
    """Web-coefficient solution with problem metadata.

    Velocities store the two component blocks stacked; pressures live in
    their own :class:`PressureField`.
    """

    basis: object
    coeffs: np.ndarray
    params: dict = field(default_factory=dict)

    def component(self, k):
        n = self.basis.n_inner
        if self.coeffs.size == n:
            if k != 0:
                raise IndexError("scalar field has a single component")
            return self.coeffs
        return self.coeffs[k * n:(k + 1) * n]

    @property
    def num_components(self):
        return self.coeffs.size // self.basis.n_inner

    def full_coeffs(self):
        """Full-basis coefficient vector of each component."""
        Et = self.basis.coupling_matrix().T
        return [Et @ self.component(k) for k in range(self.num_components)]

    def __call__(self, pts, grad=False):
        vals, grads = eval_fields(self.basis, self.full_coeffs(), pts, grad)
        if self.num_components == 1:
            vals = vals[:, 0]
            grads = grads[:, 0] if grad else None
        return (vals, grads) if grad else vals  # grads: (N, comp, 2)


@dataclass
class PressureField:
    space: object
    coeffs: np.ndarray

    def __call__(self, pts):
        return self.space.evaluate(self.coeffs, pts)


# ---------------------------------------------------------------------------
# linear problem
# ---------------------------------------------------------------------------

def solve_vcpe(basis, a, f, tables, opts=None):
    """Jacobi-preconditioned conjugate-gradient solve of the
    variable-coefficient Poisson system."""
    opts = opts or SolveOptions()
    system = assemble_vcpe(basis, a, f, tables)
    A, F = system.matrix, system.rhs
    steps = []
    c, info = spla.cg(A, F, rtol=opts.linear_tol, atol=0.0,
                      maxiter=opts.max_linear_iterations,
                      callback=lambda xk: steps.append(None),
                      M=sp.diags(1.0 / A.diagonal()))
    if info != 0:
        raise SolverError(
            f"CG failed to reach rtol {opts.linear_tol} within "
            f"{opts.max_linear_iterations} iterations",
            [float(np.linalg.norm(F - A @ c))])
    return SolutionField(basis=basis, coeffs=c,
                         params={"iterations": len(steps)})


# ---------------------------------------------------------------------------
# p-Laplacian
# ---------------------------------------------------------------------------

def solve_plap(basis, p, f, tables, opts=None, start=None):
    """Damped Newton with eps-continuation for the p-Laplacian.

    Every stage runs at ``p``: the regularized energy with its mass term is
    strictly convex for all p > 1, so no homotopy in p is needed. From zero
    the stages walk all of ``opts.eps_schedule()``. From ``start`` (web
    coefficients, such as a prolonged coarse solution) they walk its last
    two stages (by default 10 eps_final, then eps_final), or all of it if
    it has fewer: eps_final alone can stall near p = 1. p = 2 runs one stage
    at eps = 0 either way.
    The accepted iterates decrease the energy at each stage; the returned
    field carries the per-stage residual and energy histories and whether
    each stage reached ``opts.nonlinear_tol`` (only the last one must).
    """
    if p <= 1.0:
        raise SolverError(f"admissible exponents are p in (1, inf), got {p}")
    opts = opts or SolveOptions()
    f_vals = tables.sample(f)
    schedule = opts.eps_schedule() if p != 2.0 else [0.0]
    if start is None:
        c = np.zeros(basis.n_inner)
    else:
        c, schedule = start, schedule[-2:]
    stages = []
    for eps in schedule:
        state, residuals, energies, converged = _newton_stage(
            partial(PlapIterate, basis, tables, p=p, eps=eps, f_vals=f_vals),
            c, _plap_step, opts)
        c = state.coeffs
        stages.append({"eps": eps, "residuals": residuals,
                       "energies": energies, "converged": converged})
    final = stages[-1]["residuals"][-1]
    if final > opts.nonlinear_tol:
        raise SolverError(
            f"Newton stalled at residual {final:.3e} (tol {opts.nonlinear_tol})",
            stages[-1]["residuals"])
    iterations = sum(len(s["residuals"]) - 1 for s in stages)
    return SolutionField(basis=basis, coeffs=c,
                         params={"p": p, "stages": stages,
                                 "iterations": iterations})


def _plap_step(state, R):
    return spla.spsolve(state.jacobian().tocsc(), R)


def _newton_stage(make, coeffs, step, opts):
    """Damped Newton on the energy of the states ``make(coeffs)``, whose
    ``residual`` is its gradient; ``step(state, R)`` solves the tangent
    system for the increment of ``coeffs``. Reads the residual first and
    backtracks to the Armijo condition. Returns the last state, the
    residual and energy histories, and whether the last residual is within
    ``opts.nonlinear_tol`` (else the stage ran out of iterations)."""
    state = make(coeffs)
    energies = [state.energy]
    residuals = []
    for it in range(opts.max_iterations + 1):
        R = state.residual
        rnorm = float(np.linalg.norm(R))
        residuals.append(rnorm)
        if rnorm <= opts.nonlinear_tol or it == opts.max_iterations:
            break
        delta = step(state, R)
        slope = float(R @ delta)  # descent rate of the energy along -delta
        energy, t = state.energy, 1.0
        for _ in range(MAX_DAMPING_STEPS + 1):
            cand = make(state.coeffs - t * delta)
            # a non-finite candidate energy compares False and is damped
            if cand.energy <= energy - 1e-4 * t * slope + 1e-14 * abs(energy):
                break
            t *= DAMPING_FACTOR
        else:
            raise SolverError(
                f"line search failed at residual {rnorm:.3e}", residuals)
        state = cand
        energies.append(state.energy)
    return state, residuals, energies, residuals[-1] <= opts.nonlinear_tol


# ---------------------------------------------------------------------------
# quasi-Newtonian mixed problem
# ---------------------------------------------------------------------------

def carreau_viscosity(a0=2.0, a_inf=1.0, exponent=1.5):
    """Carreau viscosity a(s) = a_inf + (a0 - a_inf)(1 + s)^q, q = (r-2)/2.

    Positive and bounded for a0 >= a_inf > 0, r <= 2; shear thinning for
    a0 > a_inf. Carries ``derivative`` a' and ``primitive`` A (A' = a,
    A(0) = 0). r > 1 gives a + 2 s a' > 0: a convex energy, an SPD tangent.
    """
    if a_inf <= 0 or a0 <= 0:
        raise ValueError("viscosity bounds must be positive")
    if not exponent > 1.0:
        raise ValueError(
            f"Carreau exponent must satisfy r in (1, inf), got {exponent}")
    q = 0.5 * (exponent - 2.0)

    def a(s):
        return a_inf + (a0 - a_inf) * (1.0 + s) ** q

    a.derivative = lambda s: (a0 - a_inf) * q * (1.0 + s) ** (q - 1.0)
    a.primitive = lambda s: a_inf * s + (a0 - a_inf) * (
        (1.0 + s) ** (q + 1.0) - 1.0) / (q + 1.0)
    return a


class SaddleMatrix:
    """The CSC saddle matrix [[A, B^T, 0], [B, 0, g], [0, g^T, 0]] of a level.

    Its pattern and the values of B and g are fixed when it is built;
    ``refill`` writes the values of a new velocity block A (same pattern)
    into the A slots of the one matrix ``K``.
    """

    def __init__(self, A, B, g):
        gc = sp.csr_matrix(g.reshape(-1, 1))
        self._pattern = StackedPattern([A, B, gc], lambda a, b, c: [
            [a, b.T, None], [b, None, c], [None, c.T, None]], "csc")
        self._fixed = np.concatenate([B.data, gc.data])
        self.K = self._pattern.stack(A.data, self._fixed)

    def refill(self, A):
        """Write the values of A into ``K`` (B and g stay); returns ``K``."""
        self.K.data[:] = self._pattern.values(A.data, self._fixed)
        return self.K


def _saddle_solve(K, Fv):
    """Solve K [u, p, multiplier] = [Fv, 0, 0] for a :class:`SaddleMatrix` K."""
    n_u = Fv.size
    n_p = K.shape[0] - n_u - 1
    rhs = np.concatenate([Fv, np.zeros(n_p + 1)])
    sol = spla.spsolve(K, rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverError(
            "singular mixed system: discrete inf-sup failure; reduce the "
            "pressure space (lower degree or coarser cells)")
    resid = np.linalg.norm(K @ sol - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if resid > 1e-8:
        raise SolverError(
            f"mixed solve residual {resid:.3e}: near-singular saddle system; "
            "suspect inf-sup failure of the velocity/pressure pairing")
    return sol[:n_u], sol[n_u:n_u + n_p], float(sol[-1])


def _constraint_step(make, saddle, B, start):
    """The undamped Newton step from x0 = (start, 0, 0) to x1, on which
    B u + g mu = 0: K (x0 - x1) = [R, B start, 0] with K x0 = [J start,
    B start, 0], so K x1 = [J start - R, 0, 0]. Returns the norm of
    [R, B start, 0] and x1."""
    state = make(np.concatenate([start, np.zeros(B.shape[0] + 1)]))
    J, R = state.jacobian(), state.residual[:start.size]
    u1, p1, mu1 = _saddle_solve(saddle.refill(J), J @ start - R)
    return (float(np.linalg.norm(np.concatenate([R, B @ start]))),
            np.concatenate([u1, p1, [mu1]]))


def solve_quasi_newtonian(basis, pspace, a_fn, phi, tables, opts=None,
                          start=None):
    """Damped Newton on the energy of the viscosity ``a_fn`` (a
    :func:`carreau_viscosity`); each step solves the saddle system with the
    tangent block and right-hand side [R, 0, 0], so B u + g mu stays 0.

    From zero velocity the first tangent is the frozen block at zero. A
    ``start`` velocity (two stacked web-coefficient blocks, such as a
    prolonged coarse solution) need not be discretely divergence-free: the
    solve first takes one undamped Newton step from it, with pressure and
    multiplier 0, the tangent at ``start`` and right-hand side [R, B start,
    0], after which B u + g mu = 0 holds and the damped steps follow. The
    residual history then begins with the norm of that right-hand side, and
    ``iterations`` counts every saddle solve.

    Returns (velocity, pressure, info); the pressure is mean-zero.
    """
    opts = opts or SolveOptions()
    n_u = 2 * basis.n_inner
    A, B, Fv, _, g = assemble_mixed(basis, pspace, a_fn, np.zeros(n_u), phi,
                                    tables)
    saddle = SaddleMatrix(A, B, g)
    make = partial(StokesIterate, basis, tables, viscosity=a_fn, Fv=Fv, B=B)
    zero = np.zeros(n_u + B.shape[0] + 1)
    residuals, coeffs = [], zero
    if start is not None:
        first, coeffs = _constraint_step(make, saddle, B, start)
        residuals.append(first)

    def step(state, R):
        # at zero velocity the tangent is the frozen block A, already in K
        K = (saddle.K if state.coeffs is zero
             else saddle.refill(state.jacobian()))
        du, dp, dmu = _saddle_solve(K, R[:n_u])
        return np.concatenate([du, dp, [dmu]])

    state, stage_residuals, _, converged = _newton_stage(make, coeffs, step,
                                                         opts)
    residuals += stage_residuals
    if residuals[-1] > opts.nonlinear_tol:
        raise SolverError(
            f"Newton stalled at residual {residuals[-1]:.3e} "
            f"(tol {opts.nonlinear_tol})", residuals)
    c = state.velocity
    # exact mean-zero shift along the constant pressure mode
    shift = float(g @ state.pressure) / float(np.sum(g))
    p_coeffs = state.pressure - shift * pspace.constant
    velocity = SolutionField(basis=basis, coeffs=c)
    pressure = PressureField(space=pspace, coeffs=p_coeffs)
    info = {"iterations": len(residuals) - 1, "residuals": residuals,
            "converged": converged, "multiplier": float(state.coeffs[-1]),
            "incompressibility": float(np.max(np.abs(B @ c)))}
    return velocity, pressure, info


def velocity_seminorm_gram(basis, tables):
    """H1-seminorm Gram of the two stacked velocity blocks."""
    S = tables.web_form([(1.0, tables.wbx, tables.wbx),
                         (1.0, tables.wby, tables.wby)])
    return sp.block_diag([S, S], format="csc")


def estimate_infsup(basis, pspace, tables):
    """Discrete inf-sup constant of the divergence pairing.

    Smallest generalized singular value of B scaled by the velocity
    H1-seminorm Gram and the pressure mass, with the constant pressure
    mode deflated:  c_h^2 = min eig of (B S^-1 B^T, M_p) on constants'
    complement.
    """
    import scipy.linalg as sla

    if pspace.n_dofs > 4000:
        raise SolverError("inf-sup estimate is a dense computation; "
                          f"pressure space too large ({pspace.n_dofs} dofs)")
    B, Mp, g = pspace.blocks(tables)
    S = velocity_seminorm_gram(basis, tables)
    T = B @ spla.splu(S).solve(B.T.toarray())
    # M_p-orthogonal to the constants: g = M_p 1 are the basis integrals
    N = sla.null_space(g.reshape(1, -1))
    lam = float(np.min(sla.eigh(N.T @ T @ N, N.T @ (Mp @ N),
                                eigvals_only=True)))
    return float(np.sqrt(max(lam, 0.0)))
