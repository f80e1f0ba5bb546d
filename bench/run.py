#!/usr/bin/env python3
"""bklab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {search,verify,exact,kernel} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; bklab is imported from its ``src``
directory and nowhere else.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
spends half its time untraced and half with spans recorded around bklab's
functions, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, NumPy's import included

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import stats
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("search", "verify", "exact", "kernel")
# Set-up is repeated in this many child processes; with the run's own
# set-up that gives the samples setup_s is the median of.
SETUP_CHILDREN = 4
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(name: str, seed: int):
    """Import bklab from the checkout, build the inputs and warm up.

    Returns the workload and the set-up time in seconds at the reference
    speed (see stats.Clock).
    """
    if not (SRC / "bklab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bklab package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import bklab
    if Path(bklab.__file__).resolve().parent != SRC / "bklab":
        raise SystemExit(f"bench: imported bklab from {bklab.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    elapsed = time.perf_counter() - STARTED
    return wl, elapsed * stats.REFERENCE_LOOP_MS / (stats.time_reference() * 1e3)


def setup_samples(args, own: float) -> list[float]:
    """Set-up time of this run plus that of SETUP_CHILDREN fresh processes."""
    out = [own]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Phase:
    """Outcome of timing whole rounds of a workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.item_ms: list[float] = []   # at the reference speed, passing items
        self.raw_ms: list[float] = []    # wall time, passing items
        self.units = 0
        self.errors: dict[str, int] = {}
        self.problems: list[str] = []


def measure(wl, seconds: float, clock: stats.Clock, tracer=None) -> Phase:
    """Run whole rounds, as many as end nearest to ``seconds``.

    Only the call into bklab is timed; the output checks run after it.  An
    item that raises or fails a check counts as failed and is not timed.
    """
    ph = Phase()
    units = getattr(wl, "units", None)
    start = time.perf_counter()
    while True:
        for inp in wl.round:
            scale = clock.scale()
            sid = tracer.open(tracing.ITEM) if tracer else -1
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
                err = None
            except Exception as exc:  # a failed operation; the run goes on
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(sid)
            ph.attempted += 1
            if err is not None:
                ph.failed += 1
                key = f"{type(err).__name__}: {str(err).splitlines()[0][:120]}"
                ph.errors[key] = ph.errors.get(key, 0) + 1
                continue
            problems = wl.check(inp, out)
            if problems:
                ph.failed += 1
                ph.problems.extend(problems)
                continue
            ph.raw_ms.append(dt * 1e3)
            ph.item_ms.append(dt * 1e3 * scale)
            if units:
                ph.units += units(out)
        ph.rounds += 1
        elapsed = time.perf_counter() - start
        # stop at the round count whose total lands nearest to ``seconds``
        if elapsed * (ph.rounds + 0.5) / ph.rounds > seconds:
            return ph


def report_phase(name: str, label: str, ph: Phase) -> None:
    """One human-readable line; the result line stays last."""
    n = len(ph.item_ms)
    p90 = stats.percentile(ph.item_ms, 90) if n else None
    tail = f"p90 {p90:.4g} ms" if p90 is not None else f"no p90 ({n} < 100 samples)"
    mid = f"p50 {stats.median(ph.item_ms):.4g} ms (wall {stats.median(ph.raw_ms):.4g} ms)" \
        if n else "no passing items"
    print(f"# {name} {label}: {ph.attempted} attempted in {ph.rounds} rounds, "
          f"{ph.failed} failed; {mid}, {tail}")
    for key, count in sorted(ph.errors.items()):
        print(f"# {name}: {count} x {key}", file=sys.stderr)
    for problem in ph.problems[:10]:
        print(f"# {name}: check failed: {problem}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(args, wl, own_setup: float) -> dict:
    clock = stats.Clock()
    ph = measure(wl, args.seconds, clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report_phase(args.workload, "untraced", ph)
    if not ph.item_ms:
        raise SystemExit("bench: no item passed, nothing to report")
    quality = wl.quality()
    for problem in quality.problems:
        print(f"# {args.workload}: quality check failed: {problem}", file=sys.stderr)
    setups = setup_samples(args, own_setup)
    return {
        "correct": not ph.problems and not quality.problems,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {
            "setup_s": metric(stats.median(setups), "s"),
            "item_ms.p50": metric(stats.median(ph.item_ms), "ms"),
            "rss_peak_mb": metric(rss_mb, "MB"),
            "objective": metric(quality.objective, "1"),
            "residual": metric(quality.residual, "1"),
        },
    }


def per_layer(args, wl) -> dict:
    import workloads

    clock = stats.Clock()
    plain = measure(wl, args.seconds / 2, clock)
    report_phase(args.workload, "untraced", plain)
    tracer = tracing.Tracer()
    tracer.install(workloads.TRACED_MODULES, workloads.TRACED)
    try:
        traced = measure(wl, args.seconds / 2, clock, tracer)
    finally:
        tracer.uninstall()
    report_phase(args.workload, "traced", traced)
    if not plain.item_ms or not traced.item_ms:
        raise SystemExit("bench: no item passed, nothing to report")
    s = tracer.summary()
    m = {
        "search.proposal_us": metric(
            sum(plain.raw_ms) * 1e3 / plain.units if plain.units else 0.0, "us"),
        "search.leaf_maximal_us": metric(s.per_call_us("search.leaf_maximal"), "us"),
        "search.leaf_maximal_calls": metric(s.per_item_calls("search.leaf_maximal"), "count"),
        "search.leaf_maximal_self_frac": metric(s.self_share("search.leaf_maximal"), "1"),
        "search.project_to_moments_us": metric(s.per_call_us("search.project_to_moments"), "us"),
        "dyadic.tree_averages_calls": metric(s.per_item_calls("dyadic.tree_averages"), "count"),
        "transforms.gap_calls": metric(sum(
            s.per_item_calls(f"transforms.{g}_gap")
            for g in ("theorem41", "theorem42", "corollary41")), "count"),
        "kernel.omega_q_calls": metric(s.per_item_calls("kernel.omega_q"), "count"),
    }
    for name in ("dyadic.tree_averages", "dyadic.linearize", "dyadic.maximal_function",
                 "dyadic.s_phi_by_criterion", "dyadic.excess_set", "dyadic.weak_type_gap",
                 "dyadic.kolmogorov_gap", "dyadic.from_leaf_values", "transforms.g_phi",
                 "transforms.ancestor_max_averages", "transforms.random_step_function",
                 "transforms.eigen_residual"):
        m[f"{name}_ms"] = metric(s.per_item_ms(name), "ms")
    for name in ("transforms.theorem41_gap", "transforms.theorem42_gap",
                 "transforms.corollary41_gap", "kernel.omega_q", "kernel.chi_lambda",
                 "kernel.rho_interval", "kernel.r_k", "kernel.maximize_r_k"):
        m[f"{name}_us"] = metric(s.per_call_us(name), "us")
    for name, (value, unit) in workloads.probe_layers().items():
        m[name] = metric(value, unit)
    m["trace.overhead_frac"] = metric(
        stats.median(traced.item_ms) / stats.median(plain.item_ms), "1")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}.json")
    return {
        "correct": not plain.problems and not traced.problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": m,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("BKLAB_THREADS", None)  # single-threaded search, always
    wl, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    result = per_layer(args, wl) if args.trace else end_to_end(args, wl, own_setup)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
