"""Tests of the benchmark harness itself: generator, spans, metrics, check."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from webfem import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_passes_schema(workload, tmp_path):
    seeds = (0, 1, 97, 123456789)
    configs = [workloads.generate_config(workload, s) for s in seeds]
    assert configs == [workloads.generate_config(workload, s) for s in seeds]
    assert configs[0]["grid"]["bounds"] == [list(b) for b in
                                             workloads.BASE_BOUNDS]
    bounds = [json.dumps(c["grid"]["bounds"]) for c in configs]
    assert len(set(bounds)) == len(seeds)
    for cfg, seed in zip(configs, seeds):
        for (lo, hi), (blo, bhi) in zip(cfg["grid"]["bounds"],
                                        workloads.BASE_BOUNDS):
            assert abs(lo - blo) <= workloads.BOUNDS_JITTER
            assert abs(hi - bhi) <= workloads.BOUNDS_JITTER
        loaded = cli.load_config(workloads.write_config(workload, seed,
                                                        tmp_path))
        assert loaded["grid"]["bounds"] == cfg["grid"]["bounds"]


def test_generator_rejects_unknown_workload():
    with pytest.raises(KeyError):
        workloads.generate_config("no_such_workload", 0)


def _span(i, name, start, end, parent=None):
    return spans.Span(id=i, name=name, start=start, end=end, parent=parent)


def test_self_time_of_nested_spans():
    tree = [
        _span(0, "solvers.estimate_infsup", 0.0, 10.0),
        _span(1, "assembly.assemble_mixed", 2.0, 5.0, parent=0),
        _span(2, "assembly.assemble_mixed", 6.0, 7.0, parent=0),
        _span(3, "assembly.PressureSpace", 3.0, 4.0, parent=1),
        # a child reaching past its parent only covers the parent's part
        _span(4, "solvers.solve_vcpe", 20.0, 30.0),
        _span(5, "assembly.assemble_vcpe", 28.0, 31.0, parent=4),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0,
                                 4: 8.0, 5: 3.0})
    by_layer = metrics.scoped_metrics(tree[:4], got)
    assert by_layer["solvers.infsup_self_s"] == pytest.approx(6.0)
    assert by_layer["assembly.assemble_mixed_s"] == pytest.approx(4.0)
    assert by_layer["assembly.assemble_mixed_calls"] == 2
    assert by_layer["assembly.self_s"] == pytest.approx(4.0)


def _originals():
    import importlib
    return [getattr(importlib.import_module(m), a)
            for m, a, _, _ in spans.WRAPPED]


def test_wrappers_restore_the_originals():
    before = _originals()
    tracer = spans.Tracer()
    with tracer:
        patched = _originals()
        assert all(p is not o for p, o in zip(patched, before))
    assert all(a is b for a, b in zip(_originals(), before))
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert all(a is b for a, b in zip(_originals(), before))


def test_traced_study_gives_every_per_layer_metric(tmp_path):
    from webfem.analysis import run_convergence

    cfg = {"problem": {"type": "vcpe", "case": "disk_poisson"},
           "grid": {"kind": "uniform", "degree": 2, "cells": 6},
           "quadrature": {"subdivision_depth": 2}, "levels": 2}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    tracer = spans.Tracer(workload="tiny", run_id="test")
    loaded = tracer.call("cli.load_config", cli.load_config, path)
    tracer.study = 0
    with tracer:
        report = tracer.call("analysis.run_convergence", run_convergence,
                             cli._build_case(loaded),
                             cli._study_from_config(loaded))
    assert {s.level for s in tracer.spans if s.name == "analysis.level"} \
        == {0, 1}
    assert {s.layer for s in tracer.spans} >= set(metrics.LAYERS) | {"cli"}
    values = metrics.per_layer_metrics(tracer.spans, [0], 1.0, 1.25)
    assert set(values) == set(metrics.PER_LAYER)
    assert values["webbasis.n_inner"] == sum(lv["n_inner"]
                                             for lv in report.levels)
    assert values["finest.webbasis.n_inner"] == report.levels[-1]["n_inner"]
    assert values["solvers.cg_iterations"] == sum(lv["iterations"]
                                                  for lv in report.levels)
    assert values["assembly.plap_jacobian_calls"] == 0
    assert values["trace.overhead_s"] == pytest.approx(0.25)
    layer_sum = sum(values[f"{layer}.self_s"] for layer in metrics.LAYERS)
    study_span = next(s for s in tracer.spans
                      if s.name == "analysis.run_convergence")
    assert layer_sum == pytest.approx(study_span.duration, rel=1e-9)
    out = tmp_path / "spans.jsonl"
    tracer.write(out)
    first = json.loads(out.read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "workload", "level",
            "run_id"} <= set(first)


NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_metric_names_and_benchmark_file_agree():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _rate_norms(workload):
    from webfem.cases import get_case
    case = workloads.WORKLOADS[workload]["config"]["problem"]["case"]
    return sorted(get_case(case).rate_targets)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_check_flags_a_perturbed_error(workload):
    ref = reference.load_reference()
    norms = _rate_norms(workload)
    for seed, levels in ref[workload].items():
        assert reference.check_study(workload, seed, levels, ref, norms) == {}
    levels = copy.deepcopy(ref[workload]["0"])
    for norm in levels[-1]["errors"]:
        bad = copy.deepcopy(levels)
        bad[-1]["errors"][norm] *= 1.0 + 1e-4
        problems = reference.check_study(workload, 0, bad, ref, norms)
        assert list(problems) == [len(levels) - 1]
    # a seed without stored values is held to the envelope only
    assert reference.check_study(workload, 1000, levels, ref, norms) == {}
    levels[0]["errors"][norms[0]] *= 100.0
    assert 0 in reference.check_study(workload, 1000, levels, ref, norms)


def test_reference_check_flags_wrong_counts():
    ref = reference.load_reference()
    norms = _rate_norms("cutcell_deg3")
    levels = copy.deepcopy(ref["cutcell_deg3"]["0"])
    levels[1]["points"][0] += 1
    assert list(reference.check_study("cutcell_deg3", 0, levels, ref,
                                      norms)) == [1]
    levels = copy.deepcopy(ref["cutcell_deg3"]["0"])[:-1]
    assert reference.check_study("cutcell_deg3", 0, levels, ref, norms)
