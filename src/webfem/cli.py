"""Configuration-driven experiment runner.

``webfem run CONFIG`` executes one study described by a JSON config and
writes the report (JSON + CSV + text table); ``webfem check [DIR]`` runs
every bundled acceptance config against its embedded EOC floors.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 floor violation in --check mode.
"""

import argparse
import json
import os
import sys
import time
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
import numpy as np

from .analysis import (
    StudyConfig, assembly_quadrature, level_csv, run_convergence,
)
from .cases import get_case
from .geometry import GeometryError, ResolutionError, domain_from_config
from .solvers import SolveOptions, SolverError
from .splines import SplineError
from .webbasis import build_web_basis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

OUTPUT_DIR_ENV = "WEBFEM_OUT"


class ConfigError(ValueError):
    pass


_number = {"type": "number"}
_axis_knots = {"type": "array", "items": _number, "minItems": 2}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "grid"],
    "properties": {
        "name": {"type": "string"},
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "exponent": {"type": "number", "minimum": 0},
                "tree": {"type": "object"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["degree"],
            "properties": {
                "kind": {"enum": ["uniform", "graded", "explicit"]},
                "degree": {"type": "integer", "minimum": 1, "maximum": 4},
                "cells": {"type": "integer", "minimum": 2},
                "bounds": {"type": "array", "minItems": 2, "maxItems": 2,
                           "items": {"type": "array", "minItems": 2,
                                     "maxItems": 2, "items": _number}},
                "ratio": {"type": "number", "exclusiveMinimum": 0},
                "side": {"enum": ["min", "max"]},
                "knots": {"type": "array", "minItems": 2, "maxItems": 2,
                          "items": _axis_knots},
            },
        },
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["vcpe", "plap", "quasi_newtonian",
                                  "projector", "pressure_projection"]},
                "case": {"type": "string"},
                "p": {"type": "number"},
                "a0": {"type": "number", "exclusiveMinimum": 0},
                "a_inf": {"type": "number", "exclusiveMinimum": 0},
                "r_carreau": {"type": "number"},
                "pressure_degree": {"type": "integer", "minimum": 0},
                "pressure_macro": {"type": "integer", "minimum": 1},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gauss": {"type": "integer", "minimum": 1},
                "gauss_leaf": {"type": "integer", "minimum": 1},
                "subdivision_depth": {
                    "anyOf": [{"type": "integer", "minimum": 0},
                              {"type": "array", "minItems": 1,
                               "items": {"type": "integer", "minimum": 0}}]},
                "samples_per_axis": {"type": "integer", "minimum": 2},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "linear_tol": {"type": "number", "exclusiveMinimum": 0},
                "nonlinear_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iterations": {"type": "integer", "minimum": 1},
                "max_linear_iterations": {"type": "integer", "minimum": 1},
                "eps_start": {"type": "number", "exclusiveMinimum": 0},
                "eps_final": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "levels": {"type": "integer", "minimum": 1},
        "floors": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["norm", "min_eoc"],
                "properties": {
                    "norm": {"type": "string"},
                    "min_eoc": {"type": "number"},
                    "aggregate": {"enum": ["median", "min", "last"]},
                },
            },
        },
        "checks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_incompressibility": {"type": "number"},
                "min_infsup_ratio": {"type": "number"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"},
                           "dump_matrices": {"type": "boolean"}},
        },
    },
}

# checked against its metaschema once, in the tests, rather than on every
# load as jsonschema.validate does
CONFIG_VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

DEFAULTS = {
    "name": None,
    "domain": {"exponent": 1.0,
               "tree": {"op": "disk", "center": [0.0, 0.0], "radius": 1.0}},
    "grid": {"kind": "uniform", "cells": 8,
             "bounds": [[-1.1, 1.1], [-1.1, 1.1]], "ratio": 1.15,
             "side": "max", "knots": None},
    "problem": {"case": None, "p": None, "a0": 2.0, "a_inf": 1.0,
                "r_carreau": 1.5, "pressure_degree": 0, "pressure_macro": 1},
    "quadrature": {"gauss": None, "gauss_leaf": None, "subdivision_depth": 6,
                   "samples_per_axis": 5},
    "solver": {},
    "levels": 3,
    "floors": [],
    "checks": {},
    "output": {"dir": "webfem-out", "dump_matrices": False},
}


def _merge_defaults(cfg):
    out = {}
    for key, default in DEFAULTS.items():
        if isinstance(default, dict):
            sub = dict(default)
            sub.update(cfg.get(key, {}))
            out[key] = sub
        else:
            out[key] = cfg.get(key, default)
    if out["name"] is None:
        out["name"] = out["problem"].get("case") or out["problem"]["type"]
    return out


def _strip_nones(obj):
    if isinstance(obj, dict):
        return {k: _strip_nones(v) for k, v in obj.items() if v is not None}
    return obj


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = _strip_nones(raw)
    exc = best_match(CONFIG_VALIDATOR.iter_errors(raw))
    if exc is not None:
        where = ".".join(str(k) for k in exc.absolute_path)
        raise ConfigError(
            f"invalid config {path}: {where or 'top level'}: {exc.message}")
    cfg = _merge_defaults(raw)
    p = cfg["problem"].get("p")
    if cfg["problem"]["type"] == "plap" and (p is None or not p > 1.0):
        raise ConfigError(
            f"p-Laplacian exponent must satisfy p in (1, inf), got {p}; the "
            "weak formulation and the error theory require p > 1")
    r = cfg["problem"]["r_carreau"]
    if not r > 1.0:
        raise ConfigError(
            f"problem.r_carreau must satisfy r in (1, inf), got {r}; the "
            "Carreau energy is convex, its Newton tangent SPD, only for r > 1")
    return cfg


def _build_case(cfg):
    prob = cfg["problem"]
    name = prob.get("case")
    if name:
        kwargs = {}
        if name == "stokes_carreau":
            kwargs = {"a0": prob["a0"], "a_inf": prob["a_inf"],
                      "exponent": prob["r_carreau"]}
        try:
            case = get_case(name, **kwargs)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        if case.kind != prob["type"]:
            raise ConfigError(
                f"case {name!r} solves a {case.kind!r} problem, but the "
                f"config requests {prob['type']!r}")
        if case.kind == "plap" and case.params["p"] != prob["p"]:
            raise ConfigError(
                f"case {name!r} solves the p-Laplacian at p = "
                f"{case.params['p']}, but the config sets problem.p = "
                f"{prob['p']}")
    else:
        defaults = {"vcpe": "disk_poisson", "plap": None,
                    "quasi_newtonian": "stokes_carreau",
                    "projector": "disk_bump",
                    "pressure_projection": "pressure_xy"}
        name = defaults[prob["type"]]
        if name is None:
            name = {1.5: "plap_p15_smooth", 3.0: "plap_p3"}.get(prob.get("p"))
            if name is None:
                raise ConfigError(
                    "no bundled p-Laplacian case for this p; set problem.case")
        case = _build_case({"problem": {**prob, "case": name}})
    if "tree" in cfg.get("domain", {}) and cfg["domain"]["tree"] is not None \
            and cfg["domain"] != DEFAULTS["domain"] and case.domain_config:
        case.domain_config = cfg["domain"]
    return case


def _study_from_config(cfg):
    grid = cfg["grid"]
    quad = cfg["quadrature"]
    return StudyConfig(
        degree=grid["degree"], levels=cfg["levels"], base_cells=grid["cells"],
        bounds=tuple(tuple(b) for b in grid["bounds"]),
        grid_kind=grid["kind"], grading_ratio=grid["ratio"],
        grading_side=grid["side"],
        explicit_knots=grid["knots"], gauss=quad["gauss"],
        gauss_leaf=quad["gauss_leaf"], depth=quad["subdivision_depth"],
        pressure_degree=cfg["problem"]["pressure_degree"],
        pressure_macro=cfg["problem"]["pressure_macro"],
        samples_per_axis=quad["samples_per_axis"])


def describe(cfg):
    """Basis statistics for the base grid, without solving; a domain outside
    the grid core is rejected as in a run."""
    case = _build_case(cfg)
    study = _study_from_config(cfg)
    domain = domain_from_config(case.domain_config)
    basis = build_web_basis(domain, study.base_grid(), study.samples_per_axis)
    assembly_quadrature(basis, study, 0)
    info = {"name": cfg["name"], "case": case.name, "kind": case.kind,
            "h": basis.grid.meshsize}
    info.update(basis.summary())
    return info


def evaluate_floors(cfg, report):
    """Check embedded EOC floors and auxiliary thresholds; returns failures."""
    failures = []
    for floor in cfg.get("floors", []):
        norm = floor["norm"]
        if norm not in report.eoc_table:
            failures.append(f"floor references unknown norm {norm!r}")
            continue
        rates = [r for r in report.eoc_table[norm] if np.isfinite(r)]
        if not rates:
            failures.append(f"no finite EOC values for norm {norm!r}")
            continue
        agg = floor.get("aggregate", "median")
        value = {"median": float(np.median(rates)), "min": float(np.min(rates)),
                 "last": float(rates[-1])}[agg]
        if value < floor["min_eoc"]:
            failures.append(
                f"{agg} EOC of {norm} is {value:.3f} < floor {floor['min_eoc']}")
    checks = cfg.get("checks", {})
    if "max_incompressibility" in checks:
        worst = max(lv.get("incompressibility", 0.0) for lv in report.levels)
        if worst > checks["max_incompressibility"]:
            failures.append(
                f"incompressibility {worst:.3e} exceeds "
                f"{checks['max_incompressibility']:.1e}")
    if "min_infsup_ratio" in checks:
        vals = [lv["infsup"] for lv in report.levels if "infsup" in lv]
        if not vals or min(vals) <= 0:
            failures.append("inf-sup estimate missing or nonpositive")
        elif min(vals) / max(vals) < checks["min_infsup_ratio"]:
            failures.append(
                f"inf-sup level ratio {min(vals) / max(vals):.3f} below "
                f"{checks['min_infsup_ratio']}")
    return failures


def run(cfg, out_dir=None, check=False, dump_matrices=False):
    """Execute one study; returns (exit_code, report)."""
    case = _build_case(cfg)
    study = _study_from_config(cfg)
    try:
        opts = SolveOptions(**cfg["solver"])
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    dump_matrices = dump_matrices or cfg["output"]["dump_matrices"]
    if dump_matrices and case.kind != "vcpe":
        raise ConfigError(
            "the matrix dump writes the Poisson (vcpe) stiffness matrix; it "
            f"is not available for {case.kind!r} problems")
    t0 = time.perf_counter()
    report = run_convergence(case, study, solver_opts=opts)
    wall = time.perf_counter() - t0
    report.extras["effective_config"] = _strip_nones(cfg)
    out_dir = out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, cfg["name"])
    payload = report.to_dict()
    payload["timing"] = {"total_wall_time": wall}
    with open(stem + ".json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(stem + ".csv", "w") as fh:
        fh.write(level_csv(report))
    with open(stem + ".txt", "w") as fh:
        fh.write(report.text_table() + "\n")
    if dump_matrices:
        _dump_matrices(case, study, stem)
    failures = evaluate_floors(cfg, report) if check else []
    for line in report.text_table().splitlines():
        print(line)
    for f in failures:
        print(f"FLOOR VIOLATION: {f}", file=sys.stderr)
    return (EXIT_CHECK if failures else EXIT_OK), report


def _dump_matrices(case, study, stem):
    from .assembly import BasisTables, assemble_vcpe, export_coo
    domain = domain_from_config(case.domain_config)
    basis = build_web_basis(domain, study.base_grid(), study.samples_per_axis)
    tables = BasisTables(basis, assembly_quadrature(basis, study, 0))
    a = case.diffusion if case.diffusion is not None else 1.0
    f = case.source if case.source is not None else 0.0
    system = assemble_vcpe(basis, a, f, tables)
    export_coo(stem + ".stiffness.txt", system.matrix,
               header=f"base-level stiffness, case {case.name}")


def bundled_config_dir():
    return resources.files("webfem") / "configs"


def check_suite(suite_dir=None, out_dir=None):
    """Run every config in the suite directory against its floors."""
    if suite_dir is None:
        paths = sorted(str(p) for p in bundled_config_dir().iterdir()
                       if str(p).endswith(".json"))
    else:
        if not os.path.isdir(suite_dir):
            print(f"suite directory {suite_dir!r} does not exist", file=sys.stderr)
            return EXIT_CONFIG
        paths = sorted(os.path.join(suite_dir, f) for f in os.listdir(suite_dir)
                       if f.endswith(".json"))
    if not paths:
        print("no configs found in the suite directory", file=sys.stderr)
        return EXIT_CONFIG
    results = []
    for path in paths:
        t0 = time.perf_counter()
        try:
            cfg = load_config(path)
            # floors are checked here, once, and listed in the summary only
            _, report = run(cfg, out_dir=out_dir)
            failures = evaluate_floors(cfg, report)
            code = EXIT_CHECK if failures else EXIT_OK
        except (ConfigError, GeometryError, SplineError) as exc:
            print(f"configuration error: {path}: {exc}", file=sys.stderr)
            code, failures = EXIT_CONFIG, [str(exc)]
        except (SolverError, ResolutionError) as exc:
            code, failures = EXIT_SOLVER, [str(exc)]
        results.append((os.path.basename(path), code, failures,
                        time.perf_counter() - t0))
    print(f"\n{'config':<32} {'status':<8} {'time':>8}")
    for name, code, failures, dt in results:
        status = "ok" if code == EXIT_OK else "FAIL"
        print(f"{name:<32} {status:<8} {dt:8.1f}s")
        for f in failures:
            print(f"    {f}")
    codes = [code for _, code, _, _ in results]
    return EXIT_CONFIG if EXIT_CONFIG in codes else max(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="webfem",
        description="Convergence studies for weighted extended B-spline "
                    "finite elements")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one study config")
    p_run.add_argument("config")
    p_run.add_argument("--check", action="store_true",
                       help="enforce the config's embedded EOC floors")
    p_run.add_argument("--describe", action="store_true",
                       help="print basis statistics without solving")
    p_run.add_argument("--dump-matrices", action="store_true")
    p_run.add_argument("--out", default=None, help="output directory")

    p_check = sub.add_parser("check", help="run the acceptance suite")
    p_check.add_argument("suite_dir", nargs="?", default=None)
    p_check.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.describe:
                print(json.dumps(describe(cfg), sort_keys=True, indent=2))
                return EXIT_OK
            code, _ = run(cfg, out_dir=args.out, check=args.check,
                          dump_matrices=args.dump_matrices)
            return code
        return check_suite(args.suite_dir, out_dir=args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryError, SplineError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ResolutionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
