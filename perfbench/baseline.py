"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--trace 0,1]
                                  [--seconds 36] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process, one at a time. For every workload,
trace mode and metric the summary gives the values, their median and
quartiles, and the spread: the distance between the quartiles as a share of
the median. The machine facts come from the runs' own report.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    machine = next(ln for ln in lines if ln.startswith("machine: "))
    facts = dict(kv.split("=", 1) for kv in machine.split()[1:])
    return json.loads(lines[-1]), facts


def summarize(values):
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    med = median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    summary = {"seeds": args.seeds, "seconds": args.seconds, "machine": None,
               "runs": {}}
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            results = []
            for seed in args.seeds:
                result, facts = run_once(workload, seed, trace, args.seconds)
                summary["machine"] = facts
                results.append(result)
                print(f"{workload} trace={trace} seed={seed} "
                      f"correct={result['correct']} " + " ".join(
                          f"{k}={v['value']:.4g}"
                          for k, v in list(result["metrics"].items())[:6]),
                      flush=True)
            names = results[0]["metrics"]
            summary["runs"][f"{workload}/trace{trace}"] = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {n: {"unit": names[n]["unit"], **summarize(
                    [r["metrics"][n]["value"] for r in results])}
                    for n in names},
            }
            if trace == 0:
                for n, m in summary["runs"][f"{workload}/trace0"][
                        "metrics"].items():
                    print(f"  {n}: median {m['median']:.4g} {m['unit']} "
                          f"spread {m['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
