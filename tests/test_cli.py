"""Tests for the command-line adapter: exit codes, config, serialization."""

import json
import math
import re
import subprocess
import sys

import pytest

from bklab.cli import UsageError, emit_report, main, render_json
from bklab.dyadic import StepFunction, TreeSpec, maximal_function
from bklab.kernel import BellmanParams
from bklab.search import convergence_study, local_search
from bklab.transforms import GAP_CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_phi(tmp_path, leaf_vals, m=2):
    depth = round(math.log(len(leaf_vals), m))
    spec = TreeSpec(m, depth)
    phi = StepFunction.from_leaf_values(leaf_vals, spec)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi.to_json_obj(m)))
    return path, phi, spec


class TestRenderJson:
    def test_sorted_keys_and_17_digits(self):
        text = render_json({"b": 0.8, "a": 1, "c": [1.5, "x", None, True]})
        assert text == '{"a":1,"b":0.80000000000000004,"c":[1.5,"x",null,true]}'

    def test_nested_determinism(self):
        obj = {"z": {"y": 2.0**0.5, "x": [0.1]}, "a": -3}
        assert render_json(obj) == render_json(json.loads(json.dumps(
            {"a": -3, "z": {"x": [0.1], "y": 2.0**0.5}})))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json({"a": object()})


class TestEmitReport:
    def test_writes_file_with_newline(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report({"k": 1.0}, "json", str(path))
        assert path.read_text() == '{"k":1}\n'

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report = {"value": 1.6110627372939086, "grid": [0.1, 0.2]}
        emit_report(report, "json", str(a))
        emit_report(report, "json", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_needs_text(self):
        with pytest.raises(UsageError):
            emit_report({"k": 1}, "csv", None)
        with pytest.raises(UsageError):
            emit_report("x\n", "yaml", None)


class TestExitCodes:
    def test_usage_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_usage_missing_flag_names_it(self, capsys):
        code, _, err = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                               "--h", "0.8")
        assert code == 1
        assert "--L" in err

    def test_usage_missing_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_domain_error_from_params(self, capsys):
        code, _, err = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                               "--h", "2", "--L", "1.2")
        assert code == 2
        assert "h" in err

    def test_domain_error_cli_q_range(self, capsys):
        # the library takes any q in (0, 1); the CLI narrows the range
        code, _, err = run_cli(capsys, "bellman", "--q", "1e-5", "--f", "1",
                               "--h", "0.9", "--L", "1.2")
        assert code == 2
        assert "--q" in err

    def test_convergence_error(self, capsys, tmp_path):
        # refine 0 leaves no grid cell for a fractional support fraction
        path, _, _ = write_phi(tmp_path, [0, 12, 4, 1])
        code, _, err = run_cli(capsys, "gphi", "--phi", str(path), "--q", "0.5",
                               "--L", "1.2", "--refine", "0")
        assert code == 3

    def test_convergence_error_infeasible_search(self, capsys):
        # feasible data (h >= f^q n^(q-1) = 0.5), but on the 0/1 grid the
        # oracle's best pattern has too thin a support to repair
        code, _, err = run_cli(capsys, "search", "--oracle", "--q", "0.5",
                               "--f", "1", "--h", "0.6", "--L", "1.2",
                               "--N", "2", "--grid", "2")
        assert code == 3
        assert "support fraction" in err

    @pytest.mark.parametrize("argv", [
        ("--oracle", "--q", "0.5", "--h", "0.6", "--N", "1"),
        ("--q", "0.99", "--h", "0.8", "--N", "6"),
    ])
    def test_domain_error_infeasible_search_data(self, capsys, argv):
        code, _, err = run_cli(capsys, "search", "--f", "1", "--L", "1.2", *argv)
        assert code == 2
        assert "f^q n^(q-1)" in err

    def test_io_error_missing_phi(self, capsys):
        code, _, err = run_cli(capsys, "maximal", "--phi", "/no/such/file.json")
        assert code == 4

    def test_io_error_bad_out_dir(self, capsys):
        code, _, err = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2",
                               "--out", "/no/such/dir/r.json")
        assert code == 4

    def test_usage_garbled_phi_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "maximal", "--phi", str(path))
        assert code == 1

    @pytest.mark.parametrize("doc", [
        pytest.param({}, id="empty-object"),
        pytest.param([1, 2], id="list"),
        pytest.param({"m": 2, "pieces": [{"start": {"num": 0, "den_pow": 0},
                                          "end": {"num": 1, "den_pow": 0}}]},
                     id="piece-without-value"),
        pytest.param({"m": 0, "pieces": [{"start": {"num": 0, "den_pow": 1},
                                          "end": {"num": 1, "den_pow": 1},
                                          "value": 1.0}]},
                     id="m-0"),
    ])
    def test_domain_error_malformed_phi_document(self, capsys, tmp_path, doc):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "maximal", "--phi", str(path))
        assert code == 2
        assert err.startswith("domain error:")

    def test_domain_error_phi_finer_than_inferable(self, capsys, tmp_path):
        cut = {"num": 1, "den_pow": 30}
        doc = {"m": 2, "pieces": [
            {"start": {"num": 0, "den_pow": 0}, "end": cut, "value": 1.0},
            {"start": cut, "end": {"num": 1, "den_pow": 0}, "value": 2.0},
        ]}
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "maximal", "--phi", str(path))
        assert code == 2
        assert "no leaf grid up to depth 24" in err


class TestBellman:
    def test_values_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2")
        assert code == 0
        got = json.loads(out)
        p = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
        assert got["value"] == p.value
        assert got["c"] == p.c
        assert got["tau"] == p.tau
        assert got["k0"] == p.k0
        assert got["params"] == {"q": 0.5, "f": 1.0, "h": 0.8, "L": 1.2}

    def test_hoelder_and_level_equalities_collapse(self, capsys):
        code, out, _ = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                               "--h", "1", "--L", "1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)

    def test_big_l_alias(self, capsys):
        _, out_a, _ = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                              "--h", "0.8", "--L", "1.2")
        _, out_b, _ = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                              "--h", "0.8", "--big-l", "1.2")
        assert out_a == out_b


class TestConfigFile:
    def test_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep defaults\nq = 0.5\nf = 1\nh = 0.8\nbig-l = 1.2\n")
        code, out, _ = run_cli(capsys, "bellman", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["params"]["L"] == 1.2

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.5\nf = 1\nh = 0.9\nL = 1.2\n")
        code, out, _ = run_cli(capsys, "bellman", "--config", str(cfg),
                               "--h", "0.8")
        assert code == 0
        assert json.loads(out)["params"]["h"] == 0.8

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qq = 0.5\n")
        code, _, err = run_cli(capsys, "bellman", "--config", str(cfg),
                               "--q", "0.5", "--f", "1", "--h", "0.8",
                               "--L", "1.2")
        assert code == 1
        assert "qq" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q 0.5\n")
        code, _, err = run_cli(capsys, "bellman", "--config", str(cfg))
        assert code == 1

    def test_unparseable_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = fast\n")
        code, _, err = run_cli(capsys, "bellman", "--config", str(cfg),
                               "--f", "1", "--h", "0.8", "--L", "1.2")
        assert code == 1
        assert "q" in err

    def test_missing_config_file_is_io_error(self, capsys):
        code, _, _ = run_cli(capsys, "bellman", "--config", "/no/such.cfg")
        assert code == 4

    def test_bad_format_key_rejected_before_running(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the study ran before its format was checked")

        monkeypatch.setattr("bklab.cli.convergence_study", fail)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.5\nf = 1\nh = 0.8\nL = 1.2\ndepths = 2\nformat = yaml\n")
        code, _, err = run_cli(capsys, "study", "--config", str(cfg))
        assert code == 1
        assert "config key format: invalid choice 'yaml' (choose from json, csv)" in err

    def test_out_key_writes_file(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"q = 0.5\nf = 1\nh = 0.8\nL = 1.2\nout = {path}\n")
        code, out, _ = run_cli(capsys, "bellman", "--config", str(cfg))
        assert code == 0
        assert out == ""
        want = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2).value
        assert json.loads(path.read_text())["value"] == want

    def test_out_flag_overrides_out_key(self, capsys, tmp_path):
        in_file, on_line = tmp_path / "file.json", tmp_path / "line.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"q = 0.5\nf = 1\nh = 0.8\nL = 1.2\nout = {in_file}\n")
        code, out, _ = run_cli(capsys, "bellman", "--config", str(cfg),
                               "--out", str(on_line))
        assert code == 0
        assert out == "" and not in_file.exists()
        assert json.loads(on_line.read_text())["params"]["L"] == 1.2

    # every flag of the command, each set away from its default where it has one
    @pytest.mark.parametrize("command, flags", [
        ("bellman", {"q": "0.5", "f": "1", "h": "0.8", "L": "1.2"}),
        ("search", {"q": "0.5", "f": "1", "h": "0.8", "L": "1.2", "m": "3",
                    "N": "3", "seed": "4", "budget": "200", "restarts": "2",
                    "grid": "4"}),
        ("verify", {"suite": "inequalities", "q": "0.4", "m": "3", "N": "3",
                    "n": "2", "seed": "4", "beta-points": "5", "beta-lo": "0.01",
                    "beta-hi": "100", "csv": "rows.csv"}),
        ("study", {"q": "0.5", "f": "1", "h": "0.8", "L": "1.2", "m": "3",
                   "depths": "1,2", "seed": "4", "budget": "200", "restarts": "2",
                   "format": "csv"}),
    ])
    def test_file_and_flags_interchangeable(self, tmp_path, command, flags):
        def run(side):
            named = dict(flags, out=str(tmp_path / f"{side}.out"))
            if "csv" in named:
                named["csv"] = str(tmp_path / f"{side}.csv")
            if side == "file":
                cfg = tmp_path / "run.cfg"
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in named.items()))
                argv = ["--config", str(cfg)]
            else:
                argv = [x for k, v in named.items() for x in ("--" + k, v)]
            assert main([command, *argv]) == 0
            text = (tmp_path / f"{side}.out").read_bytes()
            rows = (tmp_path / f"{side}.csv").read_bytes() if "csv" in named else b""
            return re.sub(rb'"elapsed_seconds":[^,}]*,?', b"", text), rows

        assert run("file") == run("flags")

    @pytest.mark.parametrize("command, flags", [
        ("maximal", ["--phi", "PHI"]),
        ("linearize", ["--phi", "PHI"]),
        ("gphi", ["--phi", "PHI", "--q", "0.5", "--L", "1.2"]),
        ("residual", ["--phi", "PHI", "--q", "0.5", "--f", "1", "--h", "0.8",
                      "--L", "1.2"]),
        ("search", ["--oracle", "--q", "0.5", "--f", "1", "--h", "0.8",
                    "--L", "1.2", "--N", "2", "--grid", "4"]),
    ])
    def test_out_file_holds_printed_bytes(self, capsys, tmp_path, command, flags):
        path, _, _ = write_phi(tmp_path, [2, 0, 1, 1])
        argv = [command, *(str(path) if x == "PHI" else x for x in flags)]
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0 and printed
        out = tmp_path / "r.json"
        code, printed_too, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0 and printed_too == ""
        timing = r'"elapsed_seconds":[^,}]*'
        assert re.sub(timing, "", out.read_text()) == re.sub(timing, "", printed)


class TestFileSubcommands:
    def test_maximal_matches_library(self, capsys, tmp_path):
        path, phi, spec = write_phi(tmp_path, [4, 0, 1, 1])
        code, out, _ = run_cli(capsys, "maximal", "--phi", str(path))
        assert code == 0
        got = json.loads(out)
        assert got["m"] == 2 and got["N"] == 2
        mx, _ = StepFunction.from_json_obj(got["maximal"])
        want = maximal_function(phi, spec)
        assert mx.leaf_values(spec) == want.leaf_values(spec)

    def test_maximal_round_trip_preserves_rationals(self, capsys, tmp_path):
        path, phi, spec = write_phi(tmp_path, [4, 0, 1, 1])
        code, out, _ = run_cli(capsys, "maximal", "--phi", str(path))
        got = json.loads(out)
        assert got["phi"] == json.loads(path.read_text())

    def test_maximal_depth_mismatch(self, capsys, tmp_path):
        path, _, _ = write_phi(tmp_path, [4, 0, 1, 1])
        code, _, err = run_cli(capsys, "maximal", "--phi", str(path),
                               "--N", "1")
        assert code == 2

    def test_linearize_weights_sum_to_one(self, capsys, tmp_path):
        path, _, _ = write_phi(tmp_path, [4, 0, 1, 1])
        code, out, _ = run_cli(capsys, "linearize", "--phi", str(path))
        assert code == 0
        got = json.loads(out)
        total = sum(el["weight"] for el in got["elements"])
        assert total == pytest.approx(1.0, abs=1e-15)
        root = got["elements"][0]
        assert root["star"] is None

    def test_gphi_reports_entries(self, capsys, tmp_path):
        path, _, _ = write_phi(tmp_path, [0, 12, 3, 1])
        code, out, _ = run_cli(capsys, "gphi", "--phi", str(path),
                               "--q", "0.5", "--L", "1.2")
        assert code == 0
        got = json.loads(out)
        assert got["excess_measure"] > 0
        g, m = StepFunction.from_json_obj(got["g"])
        assert m == 2
        spec = TreeSpec(2, 2)
        assert float(g.integral()) == pytest.approx(4.0, rel=1e-9)

    def test_residual_reports_parts(self, capsys, tmp_path):
        path, _, _ = write_phi(tmp_path, [4, 0, 1, 1])
        code, out, _ = run_cli(capsys, "residual", "--phi", str(path),
                               "--q", "0.5", "--f", "1.5", "--h", "1.1",
                               "--L", "1.6")
        assert code == 0
        got = json.loads(out)
        assert got["total"] == pytest.approx(
            got["excess_part"] + got["flat_part"], rel=1e-12)
        assert got["tau"] > 0


class TestVerifyCommand:
    def test_clean_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "verify", "--suite", "inequalities",
                               "--n", "5", "--seed", "7", "--q", "0.5",
                               "--N", "3", "--csv", str(csv_path))
        assert code == 0
        got = json.loads(out)
        assert got["n_violations"] == 0
        assert got["n_phi"] == 5
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == GAP_CSV_HEADER
        assert len(lines) == got["n_checks"] + 1

    def test_unwritable_csv_fails_before_printing(self, capsys, tmp_path):
        # the rows are written before the report, so a bad --csv path leaves
        # stdout empty
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--N", "3",
                                 "--q", "0.5", "--csv", str(tmp_path / "no" / "x.csv"))
        assert code == 4
        assert out == ""
        assert "io error" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope",
                               "--q", "0.5")
        assert code == 1
        assert "nope" in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--beta-hi", "-1", "beta_hi"),
        ("--beta-lo", "0", "beta_lo"),
        ("--beta-points", "-2", "n_beta"),
        ("--n", "0", "n_phi"),
    ])
    def test_bad_argument_is_domain_error(self, capsys, flag, value, name):
        args = {"--N": "3", "--q": "0.5", "--n": "1", "--seed": "0", flag: value}
        code, out, err = run_cli(capsys, "verify", *(x for kv in args.items() for x in kv))
        assert code == 2
        assert name in err
        assert out == ""


class TestSearchCommand:
    def test_reproduces_library_call(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2", "--N", "3",
                               "--seed", "5", "--budget", "400",
                               "--restarts", "3")
        assert code == 0
        got = json.loads(out)
        rep = local_search(BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2),
                           TreeSpec(2, 3), seed=5, budget=400, restarts=3)
        assert got["objective"] == rep.objective
        assert got["gap"] == rep.gap
        assert got["best_restart"] == rep.best_restart

    def test_rerun_identical_up_to_timing(self, capsys, tmp_path):
        argv = ["search", "--q", "0.5", "--f", "1", "--h", "0.8", "--L", "1.2",
                "--N", "2", "--seed", "1", "--budget", "200", "--restarts", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        ra.pop("elapsed_seconds")
        rb.pop("elapsed_seconds")
        assert ra == rb
        # the serializer itself is deterministic given equal reports
        assert render_json(ra) == render_json(rb)

    def test_depth_ten_runs(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2", "--N", "10",
                               "--seed", "0", "--budget", "1")
        assert code == 0
        assert json.loads(out)["depth"] == 10


class TestStudyCommand:
    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "study", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2", "--depths", "1,2",
                               "--budget", "200", "--restarts", "2",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,objective,bound,gap,residual,k,B_over_k"
        assert len(lines) == 3
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert gaps[1] <= gaps[0] + 1e-9

    def test_json_format_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "study", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2", "--depths", "1,2",
                               "--budget", "200", "--restarts", "2",
                               "--format", "json")
        assert code == 0
        got = json.loads(out)
        reports = convergence_study(BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2),
                                    [1, 2], seed=0, budget=200, restarts=2)
        assert [r["depth"] for r in got] == [1, 2]
        assert [r["objective"] for r in got] == [r.objective for r in reports]

    def test_bad_depths(self, capsys):
        code, _, err = run_cli(capsys, "study", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2",
                               "--depths", "4;6")
        assert code == 1


class TestProcessInvocation:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bklab.cli", "bellman", "--q", "0.5",
             "--f", "1", "--h", "0.8", "--L", "1.2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] > 1.6
