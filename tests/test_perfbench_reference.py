"""The benchmark workloads reproduce their stored reference outputs.

``perfbench/reference.json`` pins, per workload and stored seed, every
level's ``n_inner``, error norms (to 1e-6 relative) and quadrature point
counts. Checking seeds 0 and 97 here, with the point counts traced the way
``perfbench/run.py`` traces them, makes a drift of the numerics fail a test
instead of surfacing only as failed levels of a benchmark run. Every
workload is also checked, untraced, at every stored seed: the finer levels
of the two nonlinear ones start from the prolonged coarse solution, which
moves their errors by up to a few 1e-7 relative, and a CG count of the
cut-cell one can move by one with the rounding of the basis values, so
each grid position must stay within the tolerance.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from webfem import cli  # noqa: E402
from webfem.analysis import run_convergence  # noqa: E402
from webfem.solvers import SolveOptions  # noqa: E402


@pytest.mark.parametrize("seed", [0, 97])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(workload, seed, tmp_path):
    cfg = cli.load_config(workloads.write_config(workload, seed, tmp_path))
    tracer = Tracer(workload=workload)
    tracer.study = 0
    with tracer:
        report = run_convergence(cli._build_case(cfg),
                                 cli._study_from_config(cfg),
                                 solver_opts=SolveOptions(**cfg["solver"]))
    outputs = reference.level_outputs(report, run.quadrature_points(tracer, 0))
    assert all(len(level["points"]) == 2 for level in outputs)
    assert reference.check_study(workload, seed, outputs,
                                 reference.load_reference(),
                                 sorted(report.targets)) == {}


def _stored_seeds(workload):
    return sorted(int(s) for s in reference.load_reference()[workload])


@pytest.mark.parametrize("workload, seed", [
    (w, s) for w in sorted(workloads.WORKLOADS) for s in _stored_seeds(w)])
def test_nonlinear_workload_matches_reference_at_every_seed(workload, seed,
                                                            tmp_path):
    cfg = cli.load_config(workloads.write_config(workload, seed, tmp_path))
    report = run_convergence(cli._build_case(cfg),
                             cli._study_from_config(cfg),
                             solver_opts=SolveOptions(**cfg["solver"]))
    assert reference.check_study(workload, seed,
                                 reference.level_outputs(report),
                                 reference.load_reference(),
                                 sorted(report.targets)) == {}
