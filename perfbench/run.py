"""webfem benchmark: seeded convergence studies, closed loop, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's configs from the seed (grid positions
seed, seed+1, ... in an untraced run, see POSITIONS), loads them through
``webfem.cli.load_config`` and runs ``analysis.run_convergence`` back to
back, cycling through the positions, until the next study would end after
``--seconds``. Every level's outputs are checked against
``reference.json``; a level that raises or fails the check is a failed
operation.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
times taken from the fastest study of the run and the fastest set-up of
several fresh processes. With ``--trace 1`` untraced and traced studies
alternate; the last line holds per-layer metrics from the traced ones, and
the spans are written to ``perfbench/out/spans/``.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# BLAS pool size, fixed before numpy loads. One thread keeps runs steady on
# a shared machine and is below nproc everywhere.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# An untraced run cycles through the grid positions of seeds seed, seed+1,
# ..., so that its result covers several cut-cell configurations instead of
# one. A traced run stays at the seed's own position, so that its counts
# repeat exactly.
POSITIONS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_webfem():
    """Import webfem from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "webfem" / "__init__.py").is_file():
        sys.exit(f"error: no webfem sources under {src}")
    sys.path.insert(0, str(src))
    import webfem
    if Path(webfem.__file__).resolve().parent != src / "webfem":
        sys.exit(f"error: imported webfem from {webfem.__file__}, "
                 f"not from {src}")


def setup_times(cfg_path):
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def machine_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def quadrature_points(tracer, study):
    """Point counts of each level's quadrature rules, in call order."""
    points = {}
    for s in tracer.spans:
        if s.study == study and s.name == "quadrature.build_quadrature":
            points.setdefault(s.level, []).append(s.attrs["points"])
    return points


class Studies:
    """Outcome of the studies of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []         # every study, including those that raised
        self.untraced_s = []    # studies that returned, untraced or traced
        self.traced_s = []
        self.traced_ids = []
        self.finest_s = []
        self.first_outputs = {}

    def check(self, args, position, report, points, reference):
        """Count the levels of ``report`` that fail the check."""
        from reference import check_study, level_outputs

        outputs = level_outputs(report, points)
        problems = check_study(args.workload, position, outputs, reference,
                               sorted(report.targets))
        first = self.first_outputs.setdefault(position, outputs)
        for lv, (got, ref) in enumerate(zip(outputs, first)):
            if (got["errors"], got["n_inner"]) != (ref["errors"],
                                                   ref["n_inner"]):
                problems.setdefault(lv, []).append(
                    "differs from the first study at this position")
        for lv, found in sorted(problems.items()):
            print(f"level {lv} failed the check: {'; '.join(found)}",
                  file=sys.stderr)
        self.failed += len(problems)


def run_studies(args, case, studies, opts, tracer):
    """Run studies back to back until the next would end after the window.

    ``studies`` is a list of (position seed, StudyConfig); study k uses
    entry k modulo its length. In a traced run every second study is
    traced, starting with the second.
    """
    from webfem.analysis import run_convergence

    from reference import load_reference

    reference = load_reference()
    out = Studies()
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        position, study = studies[k % len(studies)]
        tracer.study = k
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer:
                    report = tracer.call("analysis.run_convergence",
                                         run_convergence, case, study,
                                         solver_opts=opts)
            else:
                report = run_convergence(case, study, solver_opts=opts)
        except Exception:
            # the study raised: none of its levels produced a result
            traceback.print_exc(file=sys.stderr)
            report = None
        dt = time.perf_counter() - t0
        out.times.append(dt)
        out.attempted += study.levels
        if report is None:
            out.failed += study.levels
        else:
            (out.traced_s if traced else out.untraced_s).append(dt)
            points = quadrature_points(tracer, k) if traced else None
            out.check(args, position, report, points, reference)
            out.finest_s.append(report.levels[-1]["wall_time"])
            if traced:
                out.traced_ids.append(k)
        k += 1
        if args.trace and not out.traced_ids:
            if k < 4:
                continue
            break  # the traced studies keep raising
        elapsed = time.perf_counter() - start
        if elapsed + median(out.times) > args.seconds:
            break
    return out


def run(args):
    import_webfem()
    from webfem import cli
    from webfem.solvers import SolveOptions

    import metrics
    from spans import Tracer

    run_id = uuid.uuid4().hex[:12]
    positions = [args.seed] if args.trace else [args.seed + j
                                                for j in range(POSITIONS)]
    paths = [write_config(args.workload, pos, OUT_DIR / "configs")
             for pos in positions]
    setup = [] if args.trace else setup_times(paths[0])
    tracer = Tracer(workload=args.workload, run_id=run_id)
    cfgs = [tracer.call("cli.load_config", cli.load_config, paths[0])]
    cfgs += [cli.load_config(path) for path in paths[1:]]
    # the seed only moves the grid, so one case serves every position
    case = cli._build_case(cfgs[0])
    studies = [(pos, cli._study_from_config(cfg))
               for pos, cfg in zip(positions, cfgs)]
    res = run_studies(args, case, studies, SolveOptions(**cfgs[0]["solver"]),
                      tracer)

    print(f"webfem benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} run_id={run_id} "
          f"studies={len(res.times)} "
          f"levels={studies[0][1].levels} window_s={args.seconds:g}")
    print("machine: " + " ".join(f"{key}={v}"
                                 for key, v in machine_facts().items()))
    print("configs: " + " ".join(str(p.relative_to(ROOT)) for p in paths))
    print("study_s samples: " + " ".join(f"{t:.4f}" for t in res.untraced_s)
          + (" | traced: " + " ".join(f"{t:.4f}" for t in res.traced_s)
             if args.trace else ""))
    if args.trace:
        spans_dir = OUT_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}-{run_id}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)}")
        units = metrics.PER_LAYER
        # the first study alone pays for lazy imports: leave it out of the
        # overhead unless it is the only untraced one
        warm = res.untraced_s[1:] or res.untraced_s
        values = (metrics.per_layer_metrics(tracer.spans, res.traced_ids,
                                            min(warm) if warm else 0.0,
                                            min(res.traced_s))
                  if res.traced_ids else {name: 0.0 for name in units})
    else:
        units = metrics.END_TO_END
        # Times are the fastest sample of the run, not the median. On a
        # shared 2-core machine one and the same study alternates between a
        # fast and a slow state (1.7 s and 2.5 s for a quadratic Poisson
        # study on 16 and 32 cells, each state lasting 20-30 s), so a run's
        # median depends on the state it fell in: over sliding 24 s windows
        # of 50 consecutive studies the quartile spread of the median was
        # 0.28, that of the fastest sample 0.06.
        values = {
            "study_s": min(res.untraced_s or res.times),
            "finest_level_s": min(res.finest_s) if res.finest_s else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": min(setup),
        }
        print(f"study_s over {len(res.untraced_s)} studies: fastest "
              f"{values['study_s']:.4f} median {median(res.untraced_s):.4f} "
              f"slowest {max(res.untraced_s):.4f} s" if res.untraced_s else
              "study_s: no study returned")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_rate {res.failed / res.attempted:.6g} ratio "
          f"({res.failed} of {res.attempted} levels failed)")
    print("verdict: " + ("correct" if res.failed == 0 else "INCORRECT"))
    print(json.dumps({
        "correct": res.failed == 0, "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
