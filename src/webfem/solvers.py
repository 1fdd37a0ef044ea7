"""Solvers for the three problem classes.

* variable-coefficient Poisson: conjugate gradients on the SPD web system,
* p-Laplacian: damped Newton on the eps-regularized residual with
  eps-continuation (and p-continuation at extreme exponents),
* quasi-Newtonian Stokes: Picard iteration on the frozen-viscosity mixed
  saddle system with a mean-zero pressure multiplier.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    StackedPattern, assemble_mixed, assemble_plap_jacobian_and_residual,
    assemble_vcpe, plap_energy,
)
from .webbasis import eval_fields


class SolverError(RuntimeError):
    """Solver failed to converge; carries the residual/update history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


@dataclass
class SolveOptions:
    """Iteration limits, tolerances and continuation schedules."""

    linear_tol: float = 1e-10
    nonlinear_tol: float = 1e-8
    max_linear_iterations: int = 20000
    max_iterations: int = 40          # Newton/Picard steps per stage
    damping_factor: float = 0.5
    max_damping_steps: int = 20
    eps_start: float = 1e-1
    eps_final: float = 1e-8
    eps_factor: float = 10.0
    p_continuation_step: float = 0.5  # largest |p - 2| jump per warm start

    def __post_init__(self):
        if self.linear_tol <= 0 or self.nonlinear_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.eps_factor > 1:
            raise ValueError(
                f"eps_factor must exceed 1, got {self.eps_factor}")
        if not self.p_continuation_step > 0:
            raise ValueError(
                f"p_continuation_step must be positive, got {self.p_continuation_step}")

    def eps_schedule(self):
        out = [self.eps_start]
        while out[-1] > self.eps_final * (1.0 + 1e-12):
            out.append(max(out[-1] / self.eps_factor, self.eps_final))
        return out


@dataclass
class SolutionField:
    """Web-coefficient solution with problem metadata.

    Velocities store the two component blocks stacked; pressures live in
    their own :class:`PressureField`.
    """

    basis: object
    coeffs: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def meshsize(self):
        return self.basis.grid.meshsize

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
    """Conjugate-gradient solve of the variable-coefficient Poisson system."""
    opts = opts or SolveOptions()
    system = assemble_vcpe(basis, a, f, tables)
    A, F = system.matrix, system.rhs
    history = []

    def cb(xk):
        history.append(float(np.linalg.norm(F - A @ xk)))

    c, info = spla.cg(A, F, rtol=opts.linear_tol, atol=0.0,
                      maxiter=opts.max_linear_iterations, callback=cb)
    if info != 0:
        raise SolverError(
            f"CG failed to reach rtol {opts.linear_tol} within "
            f"{opts.max_linear_iterations} iterations", history)
    return SolutionField(basis=basis, coeffs=c, kind="vcpe",
                         params={"iterations": len(history)})


# ---------------------------------------------------------------------------
# p-Laplacian
# ---------------------------------------------------------------------------

def _p_schedule(p, step):
    """Intermediate exponents warm-starting Newton toward extreme p."""
    if 1.3 <= p <= 3.0:
        return [p]
    anchor = 2.0
    seq = []
    current = anchor if p > 3.0 else 1.5
    if p > 3.0:
        while current < p - 1e-12:
            current = min(current + step, p)
            seq.append(current)
        return seq or [p]
    while current > p + 1e-12:
        current = max(current - step / 2.0, p)
        seq.append(current)
    return seq or [p]


def solve_plap(basis, p, f, tables, opts=None):
    """Damped Newton with eps- (and p-) continuation for the p-Laplacian.

    The accepted iterates decrease the regularized energy at each stage;
    the returned field carries the per-stage residual and energy histories.
    """
    if p <= 1.0:
        raise SolverError(f"admissible exponents are p in (1, inf), got {p}")
    opts = opts or SolveOptions()
    f_vals = f(tables.points) if callable(f) else np.full(tables.num_points, float(f))
    c = np.zeros(basis.n_inner)
    stages = []
    p_seq = _p_schedule(p, opts.p_continuation_step)
    eps_seq = opts.eps_schedule() if p != 2.0 else [0.0]
    for p_cur in p_seq:
        schedule = eps_seq if p_cur == p_seq[-1] else [eps_seq[0]]
        for eps in schedule:
            c, residuals, energies = _newton_stage(
                basis, tables, c, p_cur, eps, f_vals, opts)
            stages.append({"p": p_cur, "eps": eps, "residuals": residuals,
                           "energies": energies})
    final = stages[-1]["residuals"][-1]
    if final > opts.nonlinear_tol:
        raise SolverError(
            f"Newton stalled at residual {final:.3e} (tol {opts.nonlinear_tol})",
            stages[-1]["residuals"])
    iterations = sum(len(s["residuals"]) - 1 for s in stages)
    return SolutionField(basis=basis, coeffs=c, kind="plap",
                         params={"p": p, "stages": stages,
                                 "iterations": iterations})


def _newton_stage(basis, tables, c, p, eps, f_vals, opts):
    energy = plap_energy(basis, tables, c, p, eps, f_vals)
    energies = [energy]
    residuals = []
    for it in range(opts.max_iterations + 1):
        J, R = assemble_plap_jacobian_and_residual(basis, tables, c, p, eps, f_vals)
        rnorm = float(np.linalg.norm(R))
        residuals.append(rnorm)
        if rnorm <= opts.nonlinear_tol or it == opts.max_iterations:
            break
        delta = spla.spsolve(J.tocsc(), R)
        slope = float(R @ delta)  # descent rate of the energy along -delta
        t = 1.0
        accepted = False
        for _ in range(opts.max_damping_steps + 1):
            cand = c - t * delta
            e_new = plap_energy(basis, tables, cand, p, eps, f_vals)
            if e_new <= energy - 1e-4 * t * slope + 1e-14 * abs(energy):
                c, energy, accepted = cand, e_new, True
                break
            t *= opts.damping_factor
        if not accepted:
            raise SolverError(
                f"line search failed at eps={eps:g}, residual {rnorm:.3e}",
                residuals)
        energies.append(energy)
    return c, residuals, energies


# ---------------------------------------------------------------------------
# quasi-Newtonian mixed problem
# ---------------------------------------------------------------------------

def carreau_viscosity(a0=2.0, a_inf=1.0, exponent=1.5):
    """Carreau-type viscosity a(s) = a_inf + (a0 - a_inf)(1 + s)^{(r-2)/2}.

    Positive and bounded for a0 >= a_inf > 0, r <= 2; shear thinning for
    a0 > a_inf.
    """
    if a_inf <= 0 or a0 <= 0:
        raise ValueError("viscosity bounds must be positive")

    def a(s):
        return a_inf + (a0 - a_inf) * (1.0 + s) ** (0.5 * (exponent - 2.0))

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


def solve_quasi_newtonian(basis, pspace, a_fn, phi, tables, quad, opts=None):
    """Picard iteration on the frozen-viscosity mixed system.

    Returns (velocity, pressure, info); the pressure is mean-zero.
    """
    opts = opts or SolveOptions()
    n = basis.n_inner
    c = np.zeros(2 * n)
    p_coeffs = None
    updates = []
    saddle = None
    for it in range(opts.max_iterations):
        A, B, Fv, Mp, g = assemble_mixed(basis, pspace, a_fn, c, phi, tables, quad)
        if saddle is None:
            saddle = SaddleMatrix(A, B, g)
        c_new, p_coeffs, mult = _saddle_solve(saddle.refill(A), Fv)
        delta = float(np.linalg.norm(c_new - c) / max(np.linalg.norm(c_new), 1e-300))
        updates.append(delta)
        c = c_new
        if delta < opts.nonlinear_tol:
            break
    else:
        raise SolverError(
            f"Picard iteration did not contract below {opts.nonlinear_tol}",
            updates)
    # exact mean-zero shift along the constant pressure mode
    area = float(np.sum(g))
    const = np.zeros(pspace.n_dofs)
    const[::pspace.ndof_cell] = 1.0
    p_coeffs = p_coeffs - (float(g @ p_coeffs) / area) * const
    velocity = SolutionField(basis=basis, coeffs=c, kind="quasi_newtonian",
                             params={"iterations": len(updates),
                                     "updates": updates})
    pressure = PressureField(space=pspace, coeffs=p_coeffs)
    info = {"iterations": len(updates), "updates": updates,
            "multiplier": mult,
            "incompressibility": float(np.max(np.abs(B @ c)))}
    return velocity, pressure, info


def velocity_seminorm_gram(basis, tables):
    """H1-seminorm Gram of the two stacked velocity blocks."""
    S = tables.web_form([(1.0, tables.wbx, tables.wbx),
                         (1.0, tables.wby, tables.wby)])
    return sp.block_diag([S, S], format="csc")


def estimate_infsup(basis, pspace, tables, quad):
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
    B, Mp, g = pspace.blocks(tables, quad)
    S = velocity_seminorm_gram(basis, tables)
    lu = spla.splu(S)
    BT = B.T.toarray()
    T = B @ lu.solve(BT)
    Mpd = Mp.toarray()
    const = np.zeros(pspace.n_dofs)
    const[::pspace.ndof_cell] = 1.0
    w = Mpd @ const
    N = sla.null_space(w.reshape(1, -1))
    lhs = N.T @ T @ N
    rhs = N.T @ Mpd @ N
    vals = sla.eigh(lhs, rhs, eigvals_only=True)
    lam = float(np.min(vals))
    return float(np.sqrt(max(lam, 0.0)))
