import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import webfem
from webfem.cli import (
    CONFIG_SCHEMA, CONFIG_VALIDATOR, EXIT_CHECK, EXIT_CONFIG, EXIT_OK,
    ConfigError, bundled_config_dir, describe, evaluate_floors, load_config,
    _build_case, main, run,
)
from webfem.cases import ANNULUS


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "problem": {"type": "projector", "case": "disk_bump"},
        "grid": {"kind": "uniform", "degree": 1, "cells": 6},
        "quadrature": {"subdivision_depth": 4},
        "levels": 2,
        "floors": [{"norm": "H1", "min_eoc": 0.9}],
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_schema_is_valid(self):
        # load_config validates without checking the schema itself
        CONFIG_VALIDATOR.check_schema(CONFIG_SCHEMA)

    def test_invalid_config_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "problem": {"type": "vcpe"}, "grid": {"degree": 2},
            "quadrature": {"subdivision_depth": [3, "x"]}}))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == (
            f"invalid config {path}: quadrature.subdivision_depth.1: "
            "'x' is not of type 'integer'")

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {"type": "vcpe"},
                                    "grid": {"degree": 2}, "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_inadmissible_p_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"problem": {"type": "plap", "p": 0.5}, "grid": {"degree": 2}}))
        with pytest.raises(ConfigError, match=r"p in \(1, inf\)"):
            load_config(str(path))

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("key, value", [("a0", 0.0), ("a_inf", -1.0)])
    def test_nonpositive_viscosity_bound_rejected(self, tmp_path, capsys,
                                                  key, value):
        path = write_config(
            tmp_path, problem={"type": "quasi_newtonian",
                               "case": "stokes_carreau", key: value},
            grid={"kind": "uniform", "degree": 2, "cells": 6}, levels=1)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"problem.{key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("r", [1.0, 0.5, -2.0])
    def test_carreau_exponent_at_most_one_rejected(self, tmp_path, capsys, r):
        path = write_config(
            tmp_path, problem={"type": "quasi_newtonian",
                               "case": "stokes_carreau", "r_carreau": r},
            grid={"kind": "uniform", "degree": 2, "cells": 6}, levels=1)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "problem.r_carreau" in err
        assert "r in (1, inf)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tree, names", [
        ({"op": "disk", "center": [0, 0]}, ["disk", "radius"]),
        ({"op": "halfplane", "normal": [1, 0]}, ["halfplane", "offset"]),
        ({"op": "box", "lo": [-1, -1]}, ["box", "hi"]),
        ({"op": "disk", "center": [0, 0], "radius": "a"}, ["disk", "radius"]),
    ])
    def test_malformed_domain_tree_exits_2(self, tmp_path, capsys, tree,
                                           names):
        path = write_config(tmp_path, domain={"tree": tree}, levels=1)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert all(name in err for name in names)

    def test_eps_final_above_eps_start_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, problem={"type": "plap", "case": "plap_p15_w2p",
                               "p": 1.5},
            solver={"eps_start": 1e-9, "eps_final": 1e-3}, levels=1)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "eps_final" in err

    def test_domain_outside_grid_bounds_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, grid={"kind": "uniform", "degree": 1, "cells": 6,
                            "bounds": [[-0.9, 0.9], [-0.9, 0.9]]}, levels=1)
        assert main(["run", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "grid.bounds" in err
        assert "Traceback" not in err

    def test_describe_rejects_domain_outside_grid_bounds(self, tmp_path,
                                                          capsys):
        # the same grid-core check as the run
        path = write_config(
            tmp_path, grid={"kind": "uniform", "degree": 1, "cells": 6,
                            "bounds": [[-0.9, 0.9], [-0.9, 0.9]]}, levels=1)
        assert main(["run", path, "--describe"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "grid.bounds" in err

    def test_box_domain_equal_to_grid_bounds_runs(self, tmp_path):
        path = write_config(
            tmp_path, domain={"tree": {"op": "box", "lo": [-1, -1],
                                       "hi": [1, 1]}},
            grid={"kind": "uniform", "degree": 1, "cells": 6,
                  "bounds": [[-1, 1], [-1, 1]]}, levels=1)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_nondecreasing_explicit_knots(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cfg["grid"]["kind"] = "explicit"
        cfg["grid"]["knots"] = [[0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]
        from webfem.cli import _study_from_config
        from webfem.splines import SplineError
        with pytest.raises(SplineError):
            _study_from_config(cfg).base_grid()

    @pytest.mark.parametrize("grid, message", [
        ({"kind": "explicit", "degree": 1},
         "grid.knots is required when grid.kind is 'explicit'"),
        ({"kind": "graded", "degree": 1, "cells": 6,
          "knots": [[-1.1, 0.0, 1.1], [-1.1, 0.0, 1.1]]},
         "grid.knots is only read when grid.kind is 'explicit', but it is "
         "'graded'"),
    ], ids=["explicit_without_knots", "knots_with_graded"])
    @pytest.mark.parametrize("flags", [[], ["--describe"]])
    def test_knots_must_match_the_grid_kind(self, tmp_path, capsys, grid,
                                            message, flags):
        path = write_config(tmp_path, grid=grid, levels=1)
        assert main(["run", path, *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert message in err and "Traceback" not in err

    def test_defaults_materialized(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg["quadrature"]["gauss"] is None
        assert cfg["domain"]["tree"]["op"] == "disk"
        assert cfg["name"] == "disk_bump"


class TestRun:
    def test_run_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        code, report = run(cfg, out_dir=str(tmp_path / "out"))
        assert code == EXIT_OK
        for ext in (".json", ".csv", ".txt"):
            assert (tmp_path / "out" / ("disk_bump" + ext)).exists()
        payload = json.loads((tmp_path / "out" / "disk_bump.json").read_text())
        assert payload["extras"]["effective_config"]["levels"] == 2
        assert "timing" in payload

    def test_describe_does_not_solve(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        info = describe(cfg)
        assert info["num_inner"] > 0
        assert info["num_relevant"] == info["num_inner"] + info["num_outer"]

    def test_domain_exponent_keeps_the_case_tree(self, tmp_path):
        # an exponent alone weights the case's own domain, the annulus, and
        # leaves its tree (and so its inner indices) alone
        problem = {"type": "vcpe", "case": "annulus_poisson"}
        grid = {"kind": "uniform", "degree": 2, "cells": 8}
        plain = load_config(write_config(tmp_path, problem=problem, grid=grid))
        cfg = load_config(write_config(tmp_path, problem=problem, grid=grid,
                                       domain={"exponent": 2.0}))
        assert _build_case(cfg).domain_config == {**ANNULUS, "exponent": 2.0}
        assert describe(cfg)["num_inner"] == describe(plain)["num_inner"]

    def test_domain_tree_replaces_the_case_tree_unless_default(self,
                                                               tmp_path):
        problem = {"type": "vcpe", "case": "annulus_poisson"}
        default = load_config(write_config(tmp_path, problem=problem, domain={
            "tree": {"op": "disk", "center": [0.0, 0.0], "radius": 1.0}}))
        assert _build_case(default).domain_config == ANNULUS
        tree = {"op": "disk", "center": [0.0, 0.0], "radius": 0.9}
        cfg = load_config(write_config(tmp_path, problem=problem,
                                       domain={"tree": tree}))
        assert _build_case(cfg).domain_config == {"exponent": 1.0,
                                                  "tree": tree}

    def test_floor_violation_exit_code(self, tmp_path):
        path = write_config(tmp_path, floors=[{"norm": "H1", "min_eoc": 5.0}])
        code = main(["run", path, "--check", "--out", str(tmp_path / "o")])
        assert code == EXIT_CHECK

    def test_degraded_quadrature_fails_floor(self, tmp_path):
        # depth 0 wrecks the geometric accuracy on the disk: the Poisson
        # EOC floor must catch it
        path = write_config(
            tmp_path,
            problem={"type": "vcpe", "case": "disk_poisson"},
            grid={"kind": "uniform", "degree": 2, "cells": 6},
            quadrature={"subdivision_depth": 0},
            levels=3,
            floors=[{"norm": "H1", "min_eoc": 1.75}])
        code = main(["run", path, "--check", "--out", str(tmp_path / "o")])
        assert code == EXIT_CHECK

    def test_determinism_bit_identical_reports(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)

        def strip(payload):
            payload = json.loads(json.dumps(payload))
            payload.pop("timing", None)
            for lv in payload["levels"]:
                lv.pop("wall_time", None)
            return payload

        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        pa = json.loads((tmp_path / "a" / "disk_bump.json").read_text())
        pb = json.loads((tmp_path / "b" / "disk_bump.json").read_text())
        assert json.dumps(strip(pa), sort_keys=True) == \
               json.dumps(strip(pb), sort_keys=True)

    def test_matrix_dump(self, tmp_path):
        path = write_config(
            tmp_path,
            problem={"type": "vcpe", "case": "disk_poisson_quadratic"},
            grid={"kind": "uniform", "degree": 1, "cells": 6},
            levels=1)
        code = main(["run", path, "--dump-matrices", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        dump = tmp_path / "o" / "disk_poisson_quadratic.stiffness.txt"
        assert dump.exists()
        lines = [l for l in dump.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) > 10

    @pytest.mark.parametrize("kind, case, extra", [
        ("plap", "plap_p15_smooth", {"p": 1.5}),
        ("quasi_newtonian", "stokes_carreau", {}),
    ])
    def test_matrix_dump_rejected_for_other_kinds(self, tmp_path, capsys,
                                                  kind, case, extra):
        path = write_config(
            tmp_path, problem={"type": kind, "case": case, **extra},
            grid={"kind": "uniform", "degree": 2, "cells": 6}, levels=1)
        out = tmp_path / "o"
        code = main(["run", path, "--dump-matrices", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "vcpe" in capsys.readouterr().err
        # rejected before the study runs: no report, no dump
        assert not out.exists() or not any(out.iterdir())

    def test_matrix_dump_config_key_rejected_for_plap(self, tmp_path):
        path = write_config(
            tmp_path, problem={"type": "plap", "case": "plap_p15_smooth",
                               "p": 1.5},
            grid={"kind": "uniform", "degree": 2, "cells": 6}, levels=1,
            output={"dir": str(tmp_path / "o"), "dump_matrices": True})
        with pytest.raises(ConfigError):
            run(load_config(path))
        assert not list(tmp_path.glob("**/*.stiffness.txt"))

    @pytest.mark.parametrize("p, case", [(1.5, "plap_p15_smooth"),
                                         (3.0, "plap_p3")])
    def test_default_plap_case_by_exponent(self, tmp_path, capsys, p, case):
        path = write_config(tmp_path, problem={"type": "plap", "p": p},
                            grid={"kind": "uniform", "degree": 1, "cells": 4})
        assert main(["run", path, "--describe"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["case"] == case

    def test_no_default_plap_case_for_other_exponents(self, tmp_path, capsys):
        path = write_config(tmp_path, problem={"type": "plap", "p": 2.0})
        assert main(["run", path, "--describe"]) == EXIT_CONFIG
        assert "no bundled p-Laplacian case" in capsys.readouterr().err

    def test_p_contradicting_its_case_rejected(self, tmp_path, capsys):
        # the study would run at the case's p = 3 while the report's
        # effective config said 1.5
        suite, out = tmp_path / "suite", tmp_path / "o"
        suite.mkdir()
        path = write_config(
            suite, problem={"type": "plap", "case": "plap_p3", "p": 1.5},
            grid={"kind": "uniform", "degree": 1, "cells": 4})
        assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
        assert main(["check", str(suite), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("at p = 3.0, but the config sets problem.p = 1.5") == 2
        assert not out.exists() or not any(out.iterdir())

    def test_run_leaves_environment_unchanged(self, tmp_path):
        before = dict(os.environ)
        run(load_config(write_config(tmp_path)), out_dir=str(tmp_path / "o"))
        assert dict(os.environ) == before

    @pytest.mark.parametrize("command", [["run", "cfg.json"], ["check"]])
    def test_threads_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_effective_config_round_trip(self, tmp_path):
        # rerunning from the materialized config embedded in a report must
        # reproduce the report (timing aside)
        path = write_config(
            tmp_path,
            problem={"type": "vcpe", "case": "disk_poisson_quadratic"},
            grid={"kind": "uniform", "degree": 1, "cells": 6},
            levels=2)
        cfg = load_config(path)
        run(cfg, out_dir=str(tmp_path / "a"))
        payload = json.loads(
            (tmp_path / "a" / "disk_poisson_quadratic.json").read_text())
        eff = payload["extras"]["effective_config"]
        path2 = tmp_path / "eff.json"
        path2.write_text(json.dumps(eff))
        cfg2 = load_config(str(path2))
        run(cfg2, out_dir=str(tmp_path / "b"))
        again = json.loads(
            (tmp_path / "b" / "disk_poisson_quadratic.json").read_text())

        def strip(p):
            p = json.loads(json.dumps(p))
            p.pop("timing", None)
            for lv in p["levels"]:
                lv.pop("wall_time", None)
            return json.dumps(p, sort_keys=True)

        assert strip(payload) == strip(again)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("WEBFEM_OUT", str(tmp_path / "envout"))
        cfg = load_config(path)
        run(cfg)
        assert (tmp_path / "envout" / "disk_bump.json").exists()


class TestCheckSuite:
    def test_missing_dir(self):
        assert main(["check", "/nonexistent/suite"]) == EXIT_CONFIG

    def test_empty_dir(self, tmp_path):
        d = tmp_path / "suite"
        d.mkdir()
        assert main(["check", str(d)]) == EXIT_CONFIG

    def test_bundled_configs_load(self):
        paths = sorted(str(p) for p in bundled_config_dir().iterdir()
                       if str(p).endswith(".json"))
        assert len(paths) == 8
        for p in paths:
            cfg = load_config(p)
            assert cfg["floors"], f"bundled config {p} has no floors"

    def test_small_suite_pass_and_fail(self, tmp_path):
        d = tmp_path / "suite"
        d.mkdir()
        write_config(tmp_path, name="suite/ok.json")
        code = main(["check", str(d), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        write_config(tmp_path, name="suite/fails.json",
                     floors=[{"norm": "H1", "min_eoc": 9.9}])
        code = main(["check", str(d), "--out", str(tmp_path / "o")])
        assert code == EXIT_CHECK


    @pytest.mark.parametrize("overrides, message", [
        ({"domain": {"tree": {"op": "blob"}}}, "unknown primitive op 'blob'"),
        ({"problem": {"type": "projector", "case": "no_such_case"}},
         "no_such_case"),
    ])
    def test_config_error_names_the_config(self, tmp_path, capsys, overrides,
                                           message):
        d = tmp_path / "suite"
        d.mkdir()
        write_config(tmp_path, name="suite/broken.json", **overrides)
        code = main(["check", str(d), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error")
        assert str(d / "broken.json") in err and message in err

    def test_broken_config_does_not_stop_the_suite(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        for stem in ("a_ok", "c_ok"):
            write_config(tmp_path, name=f"suite/{stem}.json",
                         output={"dir": str(tmp_path / stem)})
        write_config(tmp_path, name="suite/b_broken.json",
                     domain={"tree": {"op": "blob"}})
        code = main(["check", str(d)])
        out = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert str(d / "b_broken.json") in out.err
        # the config after the broken one ran and wrote its report
        assert (tmp_path / "c_ok" / "disk_bump.json").exists()
        summary = out.out.split("\nconfig")[-1]
        for name, status in (("a_ok.json", "ok"), ("b_broken.json", "FAIL"),
                             ("c_ok.json", "ok")):
            assert re.search(rf"^{re.escape(name)}\s+{status}\s", summary,
                             re.M)
        assert "unknown primitive op 'blob'" in summary

    def test_explicit_grid_without_knots_is_reported_in_the_summary(
            self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        write_config(tmp_path, name="suite/a_ok.json")
        write_config(tmp_path, name="suite/b_no_knots.json",
                     grid={"kind": "explicit", "degree": 1})
        code = main(["check", str(d), "--out", str(tmp_path / "o")])
        out = capsys.readouterr()
        assert code == EXIT_CONFIG
        summary = out.out.split("\nconfig")[-1]
        for name, status in (("a_ok.json", "ok"), ("b_no_knots.json", "FAIL")):
            assert re.search(rf"^{re.escape(name)}\s+{status}\s", summary,
                             re.M)
        assert "grid.knots is required" in summary

    def test_suite_reports_each_violation_once(self, tmp_path, capsys):
        d = tmp_path / "suite"
        d.mkdir()
        write_config(tmp_path, name="suite/ok.json")
        write_config(tmp_path, name="suite/fails.json",
                     floors=[{"norm": "H1", "min_eoc": 9.9}])
        code = main(["check", str(d), "--out", str(tmp_path / "o")])
        out = capsys.readouterr()
        assert code == EXIT_CHECK == 4
        assert (out.out + out.err).count("< floor 9.9") == 1
        assert "fails.json" in out.out and "FAIL" in out.out


class TestFloors:
    def test_aggregates(self):
        class R:
            eoc_table = {"H1": [1.0, 2.0, 3.0]}
            levels = []
        assert evaluate_floors({"floors": [{"norm": "H1", "min_eoc": 1.9,
                                            "aggregate": "median"}]}, R()) == []
        assert evaluate_floors({"floors": [{"norm": "H1", "min_eoc": 1.9,
                                            "aggregate": "min"}]}, R()) != []
        assert evaluate_floors({"floors": [{"norm": "H1", "min_eoc": 2.5,
                                            "aggregate": "last"}]}, R()) == []

    def test_unknown_norm_reported(self):
        class R:
            eoc_table = {"H1": [1.0]}
            levels = []
        fails = evaluate_floors({"floors": [{"norm": "Linf", "min_eoc": 1}]}, R())
        assert fails and "Linf" in fails[0]


def test_cold_start_imports_no_sympy():
    # building every bundled config and every case must not load sympy: it
    # is a test-only oracle, and importing it would dominate the set-up time
    script = textwrap.dedent("""
        import sys
        from webfem import cli
        from webfem.cases import CASES, get_case
        for path in sorted(cli.bundled_config_dir().iterdir()):
            if str(path).endswith(".json"):
                cli._build_case(cli.load_config(str(path)))
        for name in CASES:
            get_case(name)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(webfem.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
