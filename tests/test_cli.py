"""Tests for the command-line adapter: exit codes, config, serialization."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bklab.cli import Q_MAX, Q_MIN, UsageError, emit_report, main, render_json
from bklab.dyadic import StepFunction, TreeSpec, maximal_function
from bklab.errors import DomainError
from bklab.kernel import BellmanParams
from bklab.search import convergence_study, local_search
from bklab.transforms import GAP_CSV_HEADER


def one_piece(m, end):
    """A --phi document with one piece, from 0 to the given endpoint, of value 1."""
    return {"m": m, "pieces": [{"start": {"num": 0, "den_pow": 0}, "end": end, "value": 1.0}]}


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_floats(self, value):
        # JSON has no inf or NaN; Python's own json would print bare tokens
        with pytest.raises(DomainError, match="not finite"):
            render_json({"a": [1.0, value]})


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

    @pytest.mark.parametrize("argv", [
        ("bellman", "--f", "1", "--L", "nan"),
        ("bellman", "--f", "1", "--L", "inf"),
        ("bellman", "--f", "inf", "--L", "inf"),
        ("search", "--f", "1", "--L", "nan", "--N", "4", "--budget", "1"),
    ])
    def test_domain_error_non_finite_data(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--q", "0.5", "--h", "0.8")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_domain_error_non_finite_gphi_threshold(self, capsys, tmp_path):
        path, _, _ = write_phi(tmp_path, [0, 12, 4, 1])
        code, out, err = run_cli(capsys, "gphi", "--phi", str(path), "--q", "0.5",
                                 "--L", "nan")
        assert code == 2
        assert out == ""
        assert "finite" in err

    # c = omega(...) is finite at these data but c^(1/q) overflows a float
    @pytest.mark.parametrize("q, h", [("0.001", "0.4"), ("0.5", "1e-200")])
    def test_bellman_reports_tau_where_root_overflows(self, capsys, q, h):
        code, out, _ = run_cli(capsys, "bellman", "--q", q, "--f", "1", "--h", h,
                               "--L", "1.2")
        assert code == 0
        got = json.loads(out)
        assert got["tau"] == BellmanParams(q=float(q), f=1.0, h=float(h), L=1.2).tau
        assert got["tau"] == 0.0

    @pytest.mark.parametrize("f, h, L, name", [
        ("1e-300", "1e-151", "1e300", "mu = L/f"),
        ("1e300", "1e-300", "1e300", "the Bellman argument z"),
    ])
    def test_bellman_names_the_overflowing_ratio(self, capsys, f, h, L, name):
        code, out, err = run_cli(capsys, "bellman", "--q", "0.5", "--f", f, "--h", h, "--L", L)
        assert code == 2
        assert out == ""
        assert err.startswith(f"domain error: {name}")
        assert "overflows a float" in err

    @pytest.mark.parametrize("argv", [
        ("search", "--N", "4", "--budget", "10"),
        ("search", "--oracle", "--N", "2"),
        ("study", "--depths", "4", "--budget", "10"),
        ("residual",),
    ])
    def test_domain_error_overflowing_root(self, capsys, tmp_path, argv):
        if argv[0] == "residual":
            path, _, _ = write_phi(tmp_path, [0, 12, 4, 1])
            argv = (*argv, "--phi", str(path))
        code, out, err = run_cli(capsys, *argv, "--q", "0.001", "--f", "1",
                                 "--h", "0.4", "--L", "1.2")
        assert code == 2
        assert out == ""
        assert "overflows" in err

    # omega_q's root passes half the float range, so B has no float value
    @pytest.mark.parametrize("argv", [
        ("--q", "0.5", "--f", "1", "--h", "1e-308", "--L", "1.2"),
        ("--q", "0.585331709806711", "--f", "8.507273643143925e+84",
         "--h", "9.681559351235798e-258", "--L", "1.5953874409861243e+87"),
    ])
    def test_domain_error_overflowing_bellman_value(self, capsys, argv):
        code, out, err = run_cli(capsys, "bellman", *argv)
        assert code == 2
        assert out == ""
        assert "omega_q overflows" in err

    def test_bellman_where_omega_bracket_rounds(self, capsys):
        # feasible data whose omega_q argument z is near 1e260: there
        # (1-q)(z/(1-q) + 1) rounds below z, which the bracket steps past
        argv = ("--q", "0.7192652770311462", "--f", "1.9684542908405257e-61",
                "--h", "1.8323663249166583e-192", "--L", "7.796878006602118e+100")
        code, out, _ = run_cli(capsys, "bellman", *argv)
        assert code == 0
        got = json.loads(out)
        assert math.isfinite(got["value"])
        assert got["value"] == BellmanParams(*(float(x) for x in argv[1::2])).value

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

    @pytest.mark.parametrize("doc, argv", [
        pytest.param({}, (), id="empty-object"),
        pytest.param([1, 2], (), id="list"),
        pytest.param({"m": 2, "pieces": [{"start": {"num": 0, "den_pow": 0},
                                          "end": {"num": 1, "den_pow": 0}}]}, (),
                     id="piece-without-value"),
        pytest.param({"m": 0, "pieces": [{"start": {"num": 0, "den_pow": 1},
                                          "end": {"num": 1, "den_pow": 1},
                                          "value": 1.0}]}, (),
                     id="m-0"),
        # each once crashed, was misread or stalled: m^N leaves past 2^24, a
        # float den_pow rounded down, m^den_pow computed for any den_pow
        pytest.param(one_piece(10**30, {"num": 1, "den_pow": 0}), (), id="m-1e30"),
        pytest.param(one_piece(2, {"num": 4, "den_pow": 2.5}), (), id="den-pow-2.5"),
        pytest.param(one_piece(2, {"num": 1, "den_pow": 10**9}), (), id="den-pow-1e9"),
        pytest.param(one_piece(2, {"num": 1, "den_pow": 0}), ("--N", "40"), id="N-40"),
    ])
    def test_domain_error_malformed_phi_document(self, capsys, tmp_path, doc, argv):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "maximal", "--phi", str(path), *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("domain error:")

    def test_each_den_pow_power_computed_once(self, capsys, tmp_path):
        # 100 pieces at den_pow 512 under a 301-digit m: with m**512 computed per
        # endpoint this took 1.9 s on a 2-vCPU x86 machine, once per den_pow 0.08 s
        ends = [{"num": i, "den_pow": 512} for i in range(100)] + [{"num": 1, "den_pow": 0}]
        doc = {"m": 10**300, "pieces": [{"start": a, "end": b, "value": 1.0}
                                        for a, b in zip(ends, ends[1:])]}
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "maximal", "--phi", str(path))
        assert time.perf_counter() - start < 0.4
        assert code == 2
        assert err.startswith("domain error: no leaf grid")

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

    def test_hoelder_equality_above_the_floor(self, capsys):
        # h = f^q pins phi to the constant f: B = L^q, and k0 = 0 as at lam -> 1
        code, out, _ = run_cli(capsys, "bellman", "--q", "0.5", "--f", "1",
                               "--h", "1", "--L", "1.2")
        assert code == 0
        got = json.loads(out)
        assert got["value"] == pytest.approx(1.2**0.5, rel=1e-12)
        assert got["k0"] == 0.0

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
            return text, rows

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
        assert out.read_text() == printed


class TestTimingLine:
    @pytest.mark.parametrize("argv", [
        ("bellman", "--q", "0.5", "--f", "1", "--h", "0.8", "--L", "1.2"),
        ("search", "--q", "0.5", "--f", "1", "--h", "0.8", "--L", "1.2",
         "--N", "2", "--budget", "50", "--restarts", "1"),
        ("verify", "--q", "0.5", "--N", "2", "--n", "2", "--beta-points", "3"),
        ("study", "--q", "0.5", "--f", "1", "--h", "0.8", "--L", "1.2",
         "--depths", "1,2", "--budget", "50", "--restarts", "1", "--format", "csv"),
    ])
    def test_stderr_carries_one_timing_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out
        (line,) = err.splitlines()
        timing = json.loads(line)
        assert list(timing) == ["elapsed_seconds"]
        assert math.isfinite(timing["elapsed_seconds"]) and timing["elapsed_seconds"] >= 0.0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestBellmanDomain:
    """bellman over the CLI's whole numeric range: finite JSON, or exit 2 naming
    the violated constraint, or on feasible data the float overflow; never a
    convergence failure or a traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(q=st.floats(Q_MIN, Q_MAX), logs=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
           h_edge=st.booleans(), l_edge=st.booleans())
    def test_exit_0_with_finite_json_or_2_with_constraint(self, q, logs, h_edge, l_edge):
        f, h, L = (10.0**x for x in logs)
        h = f**q if h_edge else h
        L = f if l_edge else L
        argv = ["bellman", "--q", repr(q), "--f", repr(f), "--h", repr(h), "--L", repr(L)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert out.getvalue() == ""
            feasible = h <= f**q * (1.0 + 1e-12) and f <= L
            reason = r".*(overflows|\binf\b).*" if feasible else r"need .*"
            assert re.fullmatch(f"domain error: {reason}\n", err.getvalue())


@st.composite
def search_runs(draw):
    """argv of search, study or verify at the smallest depth and budget, with
    data over the CLI's numeric range: f, h, L (verify: beta_lo, beta_hi)
    log-uniform over 10^[-300, 300], half on the edges h = f^q and L = f."""
    command = draw(st.sampled_from(("search", "study", "verify")))
    q = draw(st.floats(Q_MIN, Q_MAX))
    f, h, L = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(3))
    if command == "verify":
        return ["verify", "--N", "1", "--n", "1", "--beta-points", "2", "--q", repr(q),
                "--beta-lo", repr(f), "--beta-hi", repr(L)]
    h = f**q if draw(st.booleans()) else h
    L = f if draw(st.booleans()) else L
    head = ["search", "--N", "1"] if command == "search" else ["study", "--depths", "1,2"]
    return head + ["--budget", "1", "--restarts", "2",
                   "--q", repr(q), "--f", repr(f), "--h", repr(h), "--L", repr(L)]


# a need clause, the n-cell moment bound, a named float overflow or range
_CONSTRAINT = (r"domain error: (need .*|h = .* is below f\^q n\^\(q-1\) = .*"
               r"|.*(overflows|\binf\b|must be finite and normal).*)\n")


class TestSearchDomain:
    """search, study and verify over the CLI's numeric range: finite JSON,
    exit 2 naming the violated constraint, or exit 3; never a traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=search_runs())
    # kind-1 seed shapes once raised ZeroDivisionError (tau underflowed to 0)
    # and OverflowError (the power law overflowed)
    @example(argv=["search", "--N", "3", "--budget", "5", "--restarts", "1",
                   "--q", "0.01017662341346305", "--f", "2.6175569601390684e-273",
                   "--h", "0.00032036374090336546", "--L", "1.5259589128241204e-268"])
    @example(argv=["study", "--depths", "2,3", "--budget", "5", "--restarts", "1",
                   "--q", "0.0010164164139024425", "--f", "4.353577890081047e+193",
                   "--h", "0.8006905011566328", "--L", "1.7114562146842554e+194"])
    @example(argv=["study", "--depths", "2,3", "--budget", "5", "--restarts", "1",
                   "--q", "0.011019212283893852", "--f", "4.965058316074991e-298",
                   "--h", "0.00024632657070254815", "--L", "2.506306194181006e-295"])
    def test_exit_0_2_or_3_and_never_a_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        elif code == 2:
            assert out.getvalue() == ""
            assert re.fullmatch(_CONSTRAINT, err.getvalue()), err.getvalue()
        else:
            assert err.getvalue().startswith("convergence failure: ")


@pytest.fixture(scope="module")
def small_phi(tmp_path_factory):
    """A fixed --phi file: leaves 1, 3, 2, 2 at m = 2, whose root A-set holds two
    distinct positive values, so gphi solves for its support measure."""
    path, _, _ = write_phi(tmp_path_factory.mktemp("phi"), [1, 3, 2, 2])
    return str(path)


@st.composite
def phi_runs(draw):
    """argv of gphi (--q --L) or residual (--q --f --h --L), without --phi: q over the
    CLI range; f, h, L log-uniform over 10^[-300, 300], half on the edges h = f^q and
    L = f; gphi's L also on the averages of small_phi (1, 2, 3) and the range ends."""
    command = draw(st.sampled_from(("gphi", "residual")))
    q = draw(st.floats(Q_MIN, Q_MAX))
    f, h, L = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(3))
    h = f**q if draw(st.booleans()) else h
    L = f if draw(st.booleans()) else L
    if command == "gphi":
        L = draw(st.sampled_from((L, 1.0, 2.0, 3.0, 1e-300, 1e300)))
        return ["gphi", "--q", repr(q), "--L", repr(L)]
    return ["residual", "--q", repr(q), "--f", repr(f), "--h", repr(h), "--L", repr(L)]


class TestPhiCommandDomain:
    """gphi and residual on a fixed --phi over the CLI's numeric range: finite JSON,
    exit 2 naming the violated constraint, or exit 3; never a traceback."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argv=phi_runs())
    def test_exit_0_2_or_3_and_never_a_traceback(self, small_phi, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--phi", small_phi])
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        elif code == 2:
            assert out.getvalue() == ""
            assert re.fullmatch(_CONSTRAINT, err.getvalue()), err.getvalue()
        else:
            assert err.getvalue().startswith("convergence failure: ")


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
        ("--beta-lo", "1e-320", "beta_lo"),
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

    def test_rerun_byte_identical(self, capsys, tmp_path):
        argv = ["search", "--q", "0.5", "--f", "1", "--h", "0.8", "--L", "1.2",
                "--N", "2", "--seed", "1", "--budget", "200", "--restarts", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_depth_ten_runs(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--q", "0.5", "--f", "1",
                               "--h", "0.8", "--L", "1.2", "--N", "10",
                               "--seed", "0", "--budget", "1")
        assert code == 0
        assert json.loads(out)["depth"] == 10

    def test_underflowed_tau_starts_from_a_pair(self, capsys):
        # tau = L / c^(1/q) underflows to 0, so no built-in seed shape repairs;
        # these data are feasible and once exited 3
        code, out, err = run_cli(capsys, "search", "--N", "3", "--budget", "5",
                                 "--restarts", "12", "--q", "0.01017662341346305",
                                 "--f", "2.6175569601390684e-273",
                                 "--h", "0.00032036374090336546",
                                 "--L", "1.5259589128241204e-268")
        assert code == 0, err
        json.loads(out, parse_constant=_reject_constant)


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
