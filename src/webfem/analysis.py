"""Error norms, convergence studies and reports.

Every error is integrated with one Gauss order above the assembly rule so
that quadrature crimes cannot mask discretization error. Reports carry the
per-level records, estimated orders of convergence between consecutive
levels, and the theoretical targets of the case's regularity class.
"""

import json
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .assembly import (
    BasisTables, PressureSpace, gram_condition_estimate, project_pressure,
)
from .geometry import GeometryError, domain_from_config, squared_norm
from .quadrature import build_quadrature
from .solvers import (
    SolutionField, SolveOptions, estimate_infsup, solve_plap,
    solve_quasi_newtonian, solve_vcpe,
)
from .splines import KnotVector, TensorGrid, graded_knots, uniform_knots
from .webbasis import build_web_basis, eval_fields, project, prolong


class AnalysisError(ValueError):
    """Invalid norm or study parameters."""


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

_SCALAR_NORMS = ("L2", "H1", "W1p", "quasinorm")
_MIXED_NORMS = ("Xnorm", "pressure_L2", "combined")


def error_norm(field, case, norm, quad, p=None):
    """Named norm of (exact - discrete) over the domain quadrature.

    ``norm`` is one of L2, H1, W1p, quasinorm for scalar fields, or
    Xnorm / pressure_L2 / combined for mixed solutions (pass the pressure
    through ``field`` as a (velocity, pressure) tuple for the latter two).
    The quasi-norm uses the exact gradient in the weight factor:
    |e|^2 = int (|grad u_s| + |grad e|)^{p-2} |grad e|^2.
    """
    return error_norms(field, case, (norm,), quad, p)[norm]


def error_norms(field, case, norms, quad, p=None, tables=None):
    """Dict of the named norms of (exact - discrete), see :func:`error_norm`.

    ``norms`` are either all scalar or all mixed norms. One pass over
    ``quad.blocks()`` samples the fields (see :func:`_sample`; ``tables``
    are the assembly tables of a composed ``quad``'s base rule) and fills
    one integrand array per norm over the rule, summed whole at the end. A
    scalar field is a field of one component: L2 integrates |e|^2, H1 and
    Xnorm |e|^2 + |grad e|^2.
    """
    for norm in norms:
        if norm not in _SCALAR_NORMS + _MIXED_NORMS:
            raise AnalysisError(f"unknown norm {norm!r}")
    mixed = [norm in _MIXED_NORMS for norm in norms]
    if any(mixed):
        if not all(mixed):
            raise AnalysisError(
                f"cannot take scalar and mixed norms together: {tuple(norms)}")
        field, pressure = field
        exact, exact_grad = case.velocity, case.velocity_gradient
        # combined is the sum of the other two
        parts = [n for n in ("Xnorm", "pressure_L2")
                 if n in norms or "combined" in norms]
        weights = np.empty(quad.num_points)
    else:
        exact = lambda pts: case.solution(pts)[:, None]
        exact_grad = lambda pts: case.gradient(pts)[:, None]
        p = p if p is not None else case.params.get("p")
        for norm in norms:
            if norm in ("W1p", "quasinorm") and (p is None or p <= 1):
                name = "W1p norm" if norm == "W1p" else "quasi-norm"
                raise AnalysisError(f"{name} needs an exponent p > 1, got {p}")
        parts = norms
    dens = {part: np.empty(quad.num_points) for part in parts}
    for sl, pts, w, vals, grads in _sample(field, quad, tables):
        inside = field.basis.domain.inside(pts)
        xg = exact_grad(pts)
        ev2 = squared_norm(np.where(inside[:, None], exact(pts) - vals, 0.0))
        eg2 = squared_norm(np.where(inside[:, None, None], xg - grads, 0.0))
        for norm, d in dens.items():
            if norm == "L2":
                d[sl] = w * ev2
            elif norm in ("H1", "Xnorm"):
                d[sl] = w * (ev2 + eg2)
            elif norm == "W1p":
                d[sl] = w * eg2 ** (0.5 * p)
            elif norm == "quasinorm":
                gs = np.sqrt(squared_norm(xg))
                ge = np.sqrt(eg2)
                base = gs + ge
                weight = np.zeros_like(base)
                pos = base > 0
                weight[pos] = base[pos] ** (p - 2.0)
                d[sl] = w * weight * ge ** 2
            else:
                weights[sl] = w
                d[sl] = np.where(inside, case.pressure(pts) - pressure(pts),
                                 0.0)
    out = {}
    for norm, d in dens.items():
        if norm == "W1p":
            out[norm] = float(np.sum(d) ** (1.0 / p))
        elif norm == "pressure_L2":
            # align the quadrature means: the discrete pressure is mean zero
            # with respect to the cut rule, the exact one with respect to the
            # true domain
            area = float(np.sum(weights))
            d -= np.sum(weights * d) / area
            out[norm] = float(np.sqrt(np.sum(weights * d ** 2)))
        else:
            out[norm] = float(np.sqrt(np.sum(d)))
    if "combined" in norms:
        out["combined"] = out["Xnorm"] + out["pressure_L2"]
    return {norm: out[norm] for norm in norms}


def _sample(field, quad, tables=None):
    """(slice, points, weights) of each block of ``quad.blocks()`` with the
    values (n, k) and gradients (n, k, 2) of the k components of ``field``
    there. Without ``tables`` every point is tabulated anew. With the
    :class:`~webfem.assembly.BasisTables` of the base rule of a composed
    ``quad`` (:class:`~webfem.quadrature.ComposedQuadrature`), only the
    blocks of its interior head are; those of the tail it reads from that
    rule are contracted from the tables."""
    c_fulls = field.full_coeffs()
    for sl, pts, w in quad.blocks():
        if tables is None or sl.start < quad.interior_points:
            vals, grads = eval_fields(field.basis, c_fulls, pts, grad=True)
        else:
            span = slice(sl.start - quad.shift, sl.stop - quad.shift)
            vals = np.empty((pts.shape[0], len(c_fulls)))
            grads = np.empty(vals.shape + (2,))
            for k, c in enumerate(c_fulls):
                vals[:, k], grads[:, k] = tables.field(c, grad=True, span=span)
        yield sl, pts, w, vals, grads


def jackson_error(basis, u, grad_u, quad):
    """H1(Omega) norm of u - P_h u by quadrature, the H1 norm of
    :func:`error_norms` of the quasi-interpolant ``P_h u``
    (:func:`~webfem.webbasis.project`).

    ``u`` and ``grad_u`` are callables on (N, 2) point arrays; ``quad`` is a
    :class:`~webfem.quadrature.DomainQuadrature` or a composed rule.
    """
    exact = SimpleNamespace(solution=u, gradient=grad_u, params={})
    field = SolutionField(basis=basis, coeffs=project(basis, u))
    return error_norms(field, exact, ("H1",), quad)["H1"]


def eoc(errors, hs):
    """Estimated orders of convergence between consecutive levels."""
    out = []
    for (e0, e1), (h0, h1) in zip(zip(errors, errors[1:]), zip(hs, hs[1:])):
        if e0 <= 0 or e1 <= 0:
            out.append(float("nan"))
        else:
            out.append(float(np.log(e0 / e1) / np.log(h0 / h1)))
    return out


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class StudyConfig:
    """Discretization parameters of a refinement study."""

    degree: int = 2
    levels: int = 3
    base_cells: int = 8
    bounds: tuple = ((-1.1, 1.1), (-1.1, 1.1))
    grid_kind: str = "uniform"        # uniform | graded | explicit
    grading_ratio: float = 1.15
    grading_side: str = "max"
    explicit_knots: tuple = None
    gauss: int = None                 # default degree + 1
    gauss_leaf: int = None
    depth: object = 6                 # int or per-level list
    pressure_degree: int = 0
    pressure_macro: int = 1           # pressure patch size in grid cells
    samples_per_axis: int = 5

    @property
    def gauss_order(self):
        """Gauss points per axis of the assembly rule on full cells."""
        return self.gauss or self.degree + 1

    def depth_at(self, level):
        if isinstance(self.depth, (list, tuple)):
            return int(self.depth[min(level, len(self.depth) - 1)])
        return int(self.depth)

    def base_grid(self):
        kvs = []
        for ax in range(2):
            lo, hi = self.bounds[ax]
            if self.grid_kind == "uniform":
                kv = uniform_knots(lo, hi, self.base_cells, self.degree)
            elif self.grid_kind == "graded":
                kv = graded_knots(lo, hi, self.base_cells, self.degree,
                                  self.grading_ratio, self.grading_side)
            elif self.grid_kind == "explicit":
                kv = KnotVector(np.asarray(self.explicit_knots[ax]), self.degree)
            else:
                raise AnalysisError(f"unknown grid kind {self.grid_kind!r}")
            kvs.append(kv)
        return TensorGrid(*kvs)


@dataclass
class ConvergenceReport:
    case: str
    kind: str
    study: dict
    levels: list
    eoc_table: dict
    targets: dict
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {"case": self.case, "kind": self.kind, "study": self.study,
                "levels": self.levels, "eoc": self.eoc_table,
                "targets": self.targets, "extras": self.extras}

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, **kwargs)

    def errors(self, norm):
        return [lv["errors"][norm] for lv in self.levels]

    def text_table(self):
        norms = sorted(self.levels[0]["errors"]) if self.levels else []
        head = f"{'level':>5} {'h':>10} {'n_inner':>8}"
        for n in norms:
            head += f" {n:>12} {('eoc(' + n + ')'):>10}"
        lines = [head]
        for k, lv in enumerate(self.levels):
            row = f"{k:5d} {lv['h']:10.4g} {lv['n_inner']:8d}"
            for n in norms:
                e = lv["errors"][n]
                r = self.eoc_table[n][k - 1] if k > 0 else None
                row += f" {e:12.4e} {('' if r is None else f'{r:10.2f}'):>10}"
            lines.append(row)
        return "\n".join(lines)


def _resolve_targets(case, study):
    """Rate target of each norm: a number, the study degree for "degree",
    or None (reported as null) where no estimate applies."""
    out = {}
    for norm, target in case.rate_targets.items():
        out[norm] = None if target is None else float(
            study.degree if target == "degree" else target)
    return out


def run_convergence(case, study, solver_opts=None):
    """Solve the case on a dyadic grid hierarchy and report errors and EOC.

    Nested iteration: every nonlinear level after the first starts from the
    solution of the level before, prolonged exactly to its basis
    (:func:`~webfem.webbasis.prolong`), and its record says how it started
    (``"start"``: ``"zero"`` or ``"prolonged"``). Only that level's basis
    and coefficients are kept between levels, not its tables.
    Mixed runs also report the (dense) inf-sup estimate of every level.
    """
    if study.levels < 1:
        raise AnalysisError("need at least one refinement level")
    opts = solver_opts or SolveOptions()
    domain = domain_from_config(case.domain_config)
    grid = study.base_grid()
    records = []
    coarse = None
    for level in range(study.levels):
        t0 = time.perf_counter()
        rec, coarse = _run_level(case, domain, grid, study, level, opts,
                                 coarse)
        rec["wall_time"] = time.perf_counter() - t0
        rec["level"] = level
        records.append(rec)
        if level + 1 < study.levels:
            grid = grid.refined()
    norms = sorted(records[0]["errors"])
    hs = [r["h"] for r in records]
    table = {n: eoc([r["errors"][n] for r in records], hs) for n in norms}
    report = ConvergenceReport(
        case=case.name, kind=case.kind,
        study={"degree": study.degree, "levels": study.levels,
               "base_cells": study.base_cells, "grid_kind": study.grid_kind,
               "gauss": study.gauss_order, "depth": study.depth,
               "pressure_degree": study.pressure_degree,
               "pressure_macro": study.pressure_macro},
        levels=records, eoc_table=table,
        targets=_resolve_targets(case, study))
    return report


def assembly_quadrature(basis, study, level):
    """The assembly rule of ``basis`` at ``level``; a GeometryError if the
    domain reaches outside the grid core."""
    quad = build_quadrature(basis.domain, basis.grid, basis.cls,
                            study.gauss_order, study.depth_at(level),
                            study.gauss_leaf)
    for ax, kv in enumerate(basis.grid.kvs):
        # the B-splines span the polynomials only on the core [t_m, t_nb]
        lo, hi = kv.knots[kv.degree], kv.knots[kv.num_basis]
        x = quad.points[:, ax]
        if x.size and (x.min() < lo - 1e-12 or x.max() > hi + 1e-12):
            raise GeometryError(
                f"the domain reaches outside the grid: on axis {ax} it spans "
                f"[{x.min():.6g}, {x.max():.6g}], beyond the grid core "
                f"[{lo:.6g}, {hi:.6g}] that grid.bounds (or grid.knots) sets; "
                "enlarge grid.bounds to contain the domain")
    return quad


def _run_level(case, domain, grid, study, level, opts, coarse=None):
    """Record of one level and, for a nonlinear case, its solution field
    (the velocity of a mixed one) for the next level to start from; a
    ``coarse`` field of the level before is prolonged to this level's basis
    as the initial guess."""
    basis = build_web_basis(domain, grid, study.samples_per_axis)
    quad = assembly_quadrature(basis, study, level)
    # errors use one Gauss order more on interior cells; boundary cells keep
    # the assembly rule's own tail (its accuracy is capped by the geometric
    # error regardless), which the error rule reads in place and the norms
    # take from the assembly tables
    err_quad = build_quadrature(domain, grid, basis.cls, study.gauss_order + 1,
                                study.depth_at(level), base=quad)
    rec = {"h": grid.meshsize, "n_inner": basis.n_inner,
           "basis": basis.summary(), "errors": {}}
    tables = sol = start = None
    if case.kind in ("vcpe", "plap", "quasi_newtonian"):
        tables = BasisTables(basis, quad)
        rec["basis"]["gram_condition"] = gram_condition_estimate(basis, tables)
    if case.kind in ("plap", "quasi_newtonian"):
        if coarse is not None:
            start = prolong(coarse.basis, basis, coarse.coeffs)
        rec["start"] = "zero" if start is None else "prolonged"

    if case.kind == "vcpe":
        a = case.diffusion if case.diffusion is not None else 1.0
        u = solve_vcpe(basis, a, case.source, tables, opts)
        rec["iterations"] = u.params["iterations"]
        rec["errors"] = error_norms(u, case, ("L2", "H1"), err_quad,
                                    tables=tables)
    elif case.kind == "plap":
        sol = solve_plap(basis, case.params["p"], case.source, tables, opts,
                         start)
        rec["iterations"] = sol.params["iterations"]
        rec["residual_history"] = [s["residuals"] for s in sol.params["stages"]]
        rec["converged"] = [s["converged"] for s in sol.params["stages"]]
        rec["errors"] = error_norms(
            sol, case, ("L2", "H1", "W1p", "quasinorm"), err_quad,
            tables=tables)
    elif case.kind == "quasi_newtonian":
        pspace = PressureSpace(grid, quad, study.pressure_degree,
                               macro=study.pressure_macro)
        sol, pres, info = solve_quasi_newtonian(
            basis, pspace, case.viscosity, case.body_force, tables, opts, start)
        rec["iterations"] = info["iterations"]
        rec["residual_history"] = [info["residuals"]]
        rec["converged"] = [info["converged"]]
        rec["incompressibility"] = info["incompressibility"]
        rec["errors"] = error_norms(
            (sol, pres), case, ("Xnorm", "pressure_L2", "combined"), err_quad,
            tables=tables)
        rec["infsup"] = estimate_infsup(basis, pspace, tables)
    elif case.kind == "projector":
        rec["errors"]["H1"] = jackson_error(basis, case.solution,
                                            case.gradient, err_quad)
    elif case.kind == "pressure_projection":
        pspace = PressureSpace(grid, quad, study.pressure_degree,
                               macro=study.pressure_macro)
        rec["errors"]["pressure_L2"] = pressure_projection_error(
            pspace, err_quad, case.pressure)
    else:
        raise AnalysisError(f"unknown problem kind {case.kind!r}")
    return rec, sol


def pressure_projection_error(pspace, quad, p_exact):
    """L2 error of the cell-wise projection Pi_h applied to ``p_exact``,
    its integrand sampled one block of ``quad.blocks()`` at a time."""
    coeffs = project_pressure(pspace, quad, p_exact)
    dens = np.empty(quad.num_points)
    for sl, pts, w in quad.blocks():
        dens[sl] = w * (pspace.evaluate(coeffs, pts) - p_exact(pts)) ** 2
    return float(np.sqrt(np.sum(dens)))


def level_csv(report):
    """Per-level CSV of (level, h, norm, error) rows for plotting."""
    lines = ["level,h,norm,error"]
    for lv in report.levels:
        for norm in sorted(lv["errors"]):
            lines.append(f"{lv['level']},{lv['h']!r},{norm},{lv['errors'][norm]!r}")
    return "\n".join(lines) + "\n"
