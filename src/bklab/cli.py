"""Command-line front end for the analytic kernel, tree evaluators, and search.

Every subcommand is a thin adapter: flags (optionally defaulted from a
key = value config file) are resolved into library calls and the resulting
report is serialized deterministically, floats at 17 significant digits and
object keys sorted, so repeated runs are byte-identical.

Exit codes: 0 success, 1 usage, 2 domain error, 3 convergence failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .dyadic import StepFunction, TreeSpec, linearize, maximal_function
from .errors import BklabError, ConvergenceError, DomainError
from .kernel import BellmanParams
from .search import brute_force_oracle, convergence_study, local_search, study_to_csv
from .transforms import eigen_residual, g_phi, gap_rows_to_csv, verify_suite

# the library accepts any q in (0, 1); the CLI narrows the range because
# the 1/(1-q) factors lose conditioning near the endpoints
Q_MIN = 1e-3
Q_MAX = 1.0 - 1e-3

_CONFIG_KEYS = frozenset({
    "q", "f", "h", "L", "big-l", "m", "N", "depths", "seed", "budget",
    "restarts", "grid", "refine", "n", "beta-points", "beta-lo", "beta-hi",
    "suite", "phi", "out", "format", "csv",
})

_MAX_INFER_DEPTH = 24


class UsageError(Exception):
    """Bad flags, bad config, or unparseable input files (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- deterministic serialization ----------------------------------------


def render_json(obj) -> str:
    """Compact JSON with sorted keys and floats at 17 significant digits."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ":" + render_json(v)
                 for k, v in sorted(obj.items()))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_report(report, fmt: str = "json", path: str | None = None) -> None:
    """Write a report as JSON (any jsonable object) or CSV (prebuilt text)."""
    if fmt == "json":
        text = render_json(report) + "\n"
    elif fmt == "csv":
        if not isinstance(report, str):
            raise UsageError("csv output needs a tabular report")
        text = report
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- config file and flag resolution ------------------------------------


def load_config(path: str) -> dict:
    """Parse a key = value file; blank lines and # comments are skipped."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg[key] = val.strip()
    return cfg


def _resolve(args, cfg, name, cast, default=None, required=False):
    attr = name.replace("-", "_")
    val = getattr(args, attr, None)
    if val is None:
        keys = (name, "big-l") if name == "L" else (name,)
        for key in keys:
            if key in cfg:
                try:
                    val = cast(cfg[key])
                except ValueError:
                    raise UsageError(
                        f"config key {key}: cannot parse {cfg[key]!r}"
                    ) from None
                break
    if val is None:
        if required:
            raise UsageError(f"missing required flag --{name}")
        val = default
    return val


def _resolve_q(args, cfg) -> float:
    q = _resolve(args, cfg, "q", float, required=True)
    if not (Q_MIN <= q <= Q_MAX):
        raise DomainError(f"--q must lie in [{Q_MIN}, {Q_MAX}], got {q}")
    return q


def _resolve_params(args, cfg) -> BellmanParams:
    q = _resolve_q(args, cfg)
    f = _resolve(args, cfg, "f", float, required=True)
    h = _resolve(args, cfg, "h", float, required=True)
    L = _resolve(args, cfg, "L", float, required=True)
    return BellmanParams(q=q, f=f, h=h, L=L)


def _load_phi(args, cfg):
    path = _resolve(args, cfg, "phi", str, required=True)
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: not valid JSON ({exc})") from None
    try:
        phi, m = StepFunction.from_json_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not a step-function document ({exc})") from None
    return phi, m


def _infer_spec(phi, m, given_depth) -> TreeSpec:
    if given_depth is not None:
        spec = TreeSpec(m, given_depth)
        if not phi.is_leaf_aligned(spec):
            raise DomainError(
                f"function is not aligned with the depth {given_depth} leaf grid"
            )
        return spec
    for depth in range(1, _MAX_INFER_DEPTH + 1):
        spec = TreeSpec(m, depth)
        if phi.is_leaf_aligned(spec):
            return spec
    raise DomainError(
        f"no leaf grid up to depth {_MAX_INFER_DEPTH} aligns with the function"
    )


# -- subcommand handlers ------------------------------------------------


def _cmd_bellman(args, cfg):
    p = _resolve_params(args, cfg)
    report = {
        "params": {"q": p.q, "f": p.f, "h": p.h, "L": p.L},
        "value": p.value,
        "c": p.c,
        "tau": p.tau,
        "k0": p.k0,
        "lam": p.lam,
        "mu": p.mu,
    }
    emit_report(report, "json", args.out)
    return 0


def _cmd_maximal(args, cfg):
    phi, m = _load_phi(args, cfg)
    spec = _infer_spec(phi, m, _resolve(args, cfg, "N", int))
    mx = maximal_function(phi, spec)
    report = {
        "m": spec.m,
        "N": spec.depth,
        "phi": phi.to_json_obj(spec.m),
        "maximal": mx.to_json_obj(spec.m),
    }
    emit_report(report, "json", args.out)
    return 0


def _cmd_linearize(args, cfg):
    phi, m = _load_phi(args, cfg)
    spec = _infer_spec(phi, m, _resolve(args, cfg, "N", int))
    lin = linearize(phi, spec)
    elements = []
    for el in lin.elements:
        w = lin.weights[el]
        y = lin.averages[el]
        st = lin.star[el]
        elements.append({
            "depth": el.depth,
            "index": el.index,
            "average": float(y),
            "average_exact": _frac_str(Fraction(y)),
            "weight": float(w),
            "weight_exact": _frac_str(Fraction(w)),
            "a_leaves": list(lin.a_sets[el]),
            "star": None if st is None else {"depth": st.depth, "index": st.index},
        })
    report = {"m": spec.m, "N": spec.depth, "elements": elements}
    emit_report(report, "json", args.out)
    return 0


def _cmd_gphi(args, cfg):
    phi, m = _load_phi(args, cfg)
    spec = _infer_spec(phi, m, _resolve(args, cfg, "N", int))
    q = _resolve_q(args, cfg)
    L = _resolve(args, cfg, "L", float, required=True)
    refine = _resolve(args, cfg, "refine", int)
    g, rec = g_phi(phi, L, q, spec, refine=refine)
    entries = []
    for ent in rec.entries:
        entries.append({
            "depth": ent.element.depth,
            "index": ent.element.index,
            "c": float(ent.c),
            "c_exact": _frac_str(ent.c),
            "gamma": float(ent.gamma),
            "gamma_exact": _frac_str(ent.gamma),
            "mass": float(ent.mass),
            "q_mass": float(ent.q_mass),
        })
    report = {
        "m": spec.m,
        "N": spec.depth,
        "refine": rec.refine,
        "excess_measure": float(rec.excess.measure),
        "entries": entries,
        "g": g.to_json_obj(spec.m),
    }
    emit_report(report, "json", args.out)
    return 0


def _cmd_verify(args, cfg):
    suite = _resolve(args, cfg, "suite", str, default="inequalities")
    if suite != "inequalities":
        raise UsageError(f"unknown suite {suite!r}, choose from: inequalities")
    q = _resolve_q(args, cfg)
    m = _resolve(args, cfg, "m", int, default=2)
    depth = _resolve(args, cfg, "N", int, default=6)
    n = _resolve(args, cfg, "n", int, default=100)
    seed = _resolve(args, cfg, "seed", int, default=0)
    n_beta = _resolve(args, cfg, "beta-points", int, default=50)
    beta_lo = _resolve(args, cfg, "beta-lo", float, default=1e-3)
    beta_hi = _resolve(args, cfg, "beta-hi", float, default=1e3)
    csv_path = _resolve(args, cfg, "csv", str)
    spec = TreeSpec(m, depth)
    rows = [] if csv_path else None
    rep = verify_suite(n, spec, q, n_beta=n_beta, beta_lo=beta_lo,
                       beta_hi=beta_hi, seed=seed, collect=rows)
    report = {
        "suite": suite,
        "m": m,
        "N": depth,
        "q": q,
        "seed": seed,
        "n_phi": rep.n_phi,
        "n_checks": rep.n_checks,
        "n_violations": rep.n_violations,
        "min_slack": rep.min_slack,
        "min_slack_by_kind": dict(rep.min_slack_by_kind),
        "elapsed_seconds": rep.elapsed_seconds,
    }
    emit_report(report, "json", args.out)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(gap_rows_to_csv(rows))
    return 0


def _cmd_search(args, cfg):
    p = _resolve_params(args, cfg)
    m = _resolve(args, cfg, "m", int, default=2)
    depth = _resolve(args, cfg, "N", int, required=True)
    spec = TreeSpec(m, depth)
    if args.oracle:
        grid = _resolve(args, cfg, "grid", int, default=8)
        rep = brute_force_oracle(p, spec, grid=grid)
    else:
        seed = _resolve(args, cfg, "seed", int, default=0)
        budget = _resolve(args, cfg, "budget", int, default=20000)
        restarts = _resolve(args, cfg, "restarts", int, default=16)
        rep = local_search(p, spec, seed=seed, budget=budget, restarts=restarts)
    emit_report(rep.to_json_obj(), "json", args.out)
    return 0


def _cmd_study(args, cfg):
    p = _resolve_params(args, cfg)
    m = _resolve(args, cfg, "m", int, default=2)
    raw = _resolve(args, cfg, "depths", str, required=True)
    try:
        depths = [int(part) for part in raw.replace(" ", "").split(",") if part]
    except ValueError:
        raise UsageError(f"--depths: cannot parse {raw!r}") from None
    if not depths:
        raise UsageError("--depths: need at least one depth")
    seed = _resolve(args, cfg, "seed", int, default=0)
    budget = _resolve(args, cfg, "budget", int, default=20000)
    restarts = _resolve(args, cfg, "restarts", int, default=16)
    fmt = _resolve(args, cfg, "format", str, default="json")
    reports = convergence_study(p, depths, seed=seed, budget=budget,
                                restarts=restarts, m=m)
    if fmt == "csv":
        emit_report(study_to_csv(reports), "csv", args.out)
    else:
        emit_report([r.to_json_obj() for r in reports], fmt, args.out)
    return 0


def _cmd_residual(args, cfg):
    phi, m = _load_phi(args, cfg)
    spec = _infer_spec(phi, m, _resolve(args, cfg, "N", int))
    p = _resolve_params(args, cfg)
    res = eigen_residual(phi, p, spec)
    report = {
        "m": spec.m,
        "N": spec.depth,
        "params": {"q": p.q, "f": p.f, "h": p.h, "L": p.L},
        "total": res.total,
        "excess_part": res.excess_part,
        "flat_part": res.flat_part,
        "excess_measure": res.excess_measure,
        "tau": p.tau,
    }
    emit_report(report, "json", args.out)
    return 0


# -- argument plumbing --------------------------------------------------


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file supplying flag defaults")
    common.add_argument("--out", help="output path (default stdout)")

    parser = _Parser(prog="bklab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, handler, helptext):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.set_defaults(handler=handler)
        return p

    p = add("bellman", _cmd_bellman, "analytic value, growth constant, and thresholds")
    for flag in ("--q", "--f", "--h"):
        p.add_argument(flag, type=float)
    p.add_argument("--L", "--big-l", dest="L", type=float)

    p = add("maximal", _cmd_maximal, "exact maximal function of a step function")
    p.add_argument("--phi", help="step-function JSON file")
    p.add_argument("--N", type=int, help="tree depth (inferred if omitted)")

    p = add("linearize", _cmd_linearize, "stopping elements, weights, and level sets")
    p.add_argument("--phi", help="step-function JSON file")
    p.add_argument("--N", type=int)

    p = add("gphi", _cmd_gphi, "two-valued rearrangement with the same averages")
    p.add_argument("--phi", help="step-function JSON file")
    p.add_argument("--N", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--L", "--big-l", dest="L", type=float)
    p.add_argument("--refine", type=int)

    p = add("verify", _cmd_verify, "fuzz the inequality family on random functions")
    p.add_argument("--suite")
    p.add_argument("--q", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--n", type=int, help="number of random functions")
    p.add_argument("--seed", type=int)
    p.add_argument("--beta-points", type=int)
    p.add_argument("--beta-lo", type=float)
    p.add_argument("--beta-hi", type=float)
    p.add_argument("--csv", help="also write per-check rows to this CSV file")

    p = add("search", _cmd_search, "maximize the truncated objective at fixed moments")
    for flag in ("--q", "--f", "--h"):
        p.add_argument(flag, type=float)
    p.add_argument("--L", "--big-l", dest="L", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="exhaustive quantized enumeration instead of local search")
    p.add_argument("--grid", type=int, help="levels per cell for --oracle")

    p = add("study", _cmd_study, "search across depths and track gap and residual")
    for flag in ("--q", "--f", "--h"):
        p.add_argument(flag, type=float)
    p.add_argument("--L", "--big-l", dest="L", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--depths", help="comma-separated depths, e.g. 4,6,8")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--format", choices=("json", "csv"))

    p = add("residual", _cmd_residual, "approximate-eigenfunction defect of a function")
    p.add_argument("--phi", help="step-function JSON file")
    p.add_argument("--N", type=int)
    for flag in ("--q", "--f", "--h"):
        p.add_argument(flag, type=float)
    p.add_argument("--L", "--big-l", dest="L", type=float)

    return parser


def _dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        raise UsageError("missing subcommand, choose from: bellman, maximal, "
                         "linearize, gphi, verify, search, study, residual")
    cfg = load_config(args.config) if args.config else {}
    return args.handler(args, cfg)


def main(argv=None) -> int:
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, BklabError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
