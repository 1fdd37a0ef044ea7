"""Correctness check of each level against committed reference values.

``reference.json`` holds, per workload and per reference seed, every
level's ``n_inner``, error norms and quadrature point counts (assembly
rule, then error rule). A seed with a stored reference must match it:
counts exactly, errors within ``REL_TOL``. Any other seed moves the grid to
a position with no stored values, so its levels are checked against an
envelope around the stored seeds instead, on the norms the case states a
convergence rate for. The other norms (L2 for the p-Laplacian, the velocity
part of the Stokes norm) vary more than tenfold between grid positions on
coarse grids, so only stored seeds check them.
"""

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Errors of a stored seed may differ by this relative amount (different
# BLAS builds round differently; the CG tolerance is 1e-10).
REL_TOL = 1e-6
# Envelope for seeds without stored values, relative to the stored seeds.
ENVELOPE_ERROR_FACTOR = 10.0
ENVELOPE_COUNT_SHARE = 0.2


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def level_outputs(report, points=None):
    """Checked outputs of each level of a ConvergenceReport.

    ``points`` maps level -> quadrature point counts (from a traced study);
    without it the point counts are not checked.
    """
    out = []
    for k, lv in enumerate(report.levels):
        rec = {"n_inner": lv["n_inner"], "errors": dict(lv["errors"])}
        if points is not None:
            rec["points"] = list(points.get(k, []))
        out.append(rec)
    return out


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _check_exact(got, ref):
    problems = []
    if got["n_inner"] != ref["n_inner"]:
        problems.append(f"n_inner {got['n_inner']} != {ref['n_inner']}")
    if "points" in got and got["points"] != ref["points"]:
        problems.append(f"points {got['points']} != {ref['points']}")
    for norm, value in ref["errors"].items():
        have = got["errors"].get(norm)
        if have is None or not _rel(have, value) <= REL_TOL:
            problems.append(f"{norm} error {have!r} != {value!r}")
    return problems


def _check_envelope(got, refs, rate_norms):
    problems = []
    lo, hi = (min(r["n_inner"] for r in refs), max(r["n_inner"] for r in refs))
    share = ENVELOPE_COUNT_SHARE
    if not (1 - share) * lo <= got["n_inner"] <= (1 + share) * hi:
        problems.append(f"n_inner {got['n_inner']} outside [{lo}, {hi}] +-{share}")
    if "points" in got:
        for k, n in enumerate(got["points"]):
            vals = [r["points"][k] for r in refs]
            if not (1 - share) * min(vals) <= n <= (1 + share) * max(vals):
                problems.append(f"rule {k} has {n} points, outside "
                                f"[{min(vals)}, {max(vals)}] +-{share}")
        if len(got["points"]) != len(refs[0]["points"]):
            problems.append(f"{len(got['points'])} quadrature rules, "
                            f"expected {len(refs[0]['points'])}")
    f = ENVELOPE_ERROR_FACTOR
    for norm in rate_norms:
        vals = [r["errors"][norm] for r in refs]
        have = got["errors"].get(norm)
        if have is None or not min(vals) / f <= have <= max(vals) * f:
            problems.append(f"{norm} error {have!r} outside "
                            f"[{min(vals):.3e}, {max(vals):.3e}] x{f:g}")
    return problems


def check_study(workload, seed, levels, reference, rate_norms):
    """Problems of each level, as {level: [message, ...]}; empty means correct.

    ``rate_norms`` are the norms the case states a convergence rate for
    (the keys of ``ConvergenceReport.targets``).
    """
    stored = reference[workload]
    refs = stored.get(str(seed))
    expected = len(next(iter(stored.values())))
    if len(levels) != expected:
        return {k: [f"{len(levels)} levels, expected {expected}"]
                for k in range(max(len(levels), 1))}
    problems = {}
    for k, got in enumerate(levels):
        if refs is not None:
            found = _check_exact(got, refs[k])
        else:
            found = _check_envelope(got, [lv[k] for lv in stored.values()],
                                    rate_norms)
        if any(not math.isfinite(e) for e in got["errors"].values()):
            found.append("non-finite error")
        if found:
            problems[k] = found
    return problems
