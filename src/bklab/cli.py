"""Command-line front end for the analytic kernel, tree evaluators, and search.

Every subcommand is a thin adapter: its handler turns resolved flags into
library calls and returns the report.  One dispatcher does the rest: it
resolves the flags (optionally defaulted from a key = value config file),
loads --phi and infers its tree, builds the Bellman data, and serializes the
report deterministically, floats at 17 significant digits and object keys
sorted, so repeated runs are byte-identical.  The handler's wall time goes to
stderr as one JSON line, {"elapsed_seconds": ...}, never into the report.

Exit codes: 0 success, 1 usage, 2 domain error, 3 convergence failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .dyadic import StepFunction, TreeSpec, linearize, maximal_function
from .errors import BklabError, ComplexityGuardError, ConvergenceError, DomainError
from .kernel import BellmanParams
from .search import brute_force_oracle, convergence_study, local_search, study_to_csv
from .transforms import eigen_residual, g_phi, gap_rows_to_csv, verify_suite

# the library accepts any q in (0, 1); the CLI narrows the range because
# the 1/(1-q) factors lose conditioning near the endpoints
Q_MIN = 1e-3
Q_MAX = 1.0 - 1e-3


def _depths(text):
    try:
        depths = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
    if not depths:
        raise argparse.ArgumentTypeError("need at least one depth")
    return depths


# every value flag: name -> (type, help). The config file takes the same
# names as keys, plus "big-l" for L.
_FLAGS = {
    "q": (float, f"exponent q, in [{Q_MIN}, {Q_MAX}]"),
    "f": (float, "mass f = integral of phi"),
    "h": (float, "q-mass h = integral of phi^q"),
    "L": (float, "floor L >= f"),
    "phi": (str, "step-function JSON file"),
    "N": (int, "tree depth"),
    "m": (int, "tree arity"),
    "refine": (int, "grid depth at which the rearrangement packs its support"),
    "suite": (str, "check suite: inequalities"),
    "n": (int, "number of random functions"),
    "seed": (int, "random seed"),
    "beta-points": (int, "beta values per family"),
    "beta-lo": (float, "smallest beta"),
    "beta-hi": (float, "largest beta"),
    "csv": (str, "also write per-check rows to this CSV file"),
    "budget": (int, "proposals per restart"),
    "restarts": (int, "search restarts"),
    "grid": (int, "levels per cell for --oracle"),
    "depths": (_depths, "comma-separated depths, e.g. 4,6,8"),
    "format": (str, "report format"),
    "out": (str, "output path (default stdout)"),
}

# flags with a closed set of values, checked on the command line and in the file
_CHOICES = {"format": ("json", "csv"), "suite": ("inequalities",)}

_REQUIRED = object()
_PARAMS = {"q": _REQUIRED, "f": _REQUIRED, "h": _REQUIRED, "L": _REQUIRED}
_SEARCH = {"seed": 0, "budget": 20000, "restarts": 16}

_MAX_PHI_LEAVES = 2**24  # the most leaves of a --phi tree, at an inferred or a given depth


class UsageError(Exception):
    """Bad flags, bad config, or unparseable input files (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- deterministic serialization ----------------------------------------


def render_json(obj) -> str:
    """Compact JSON with sorted keys and floats at 17 digits; NaN or inf raises DomainError."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"report value {obj} is not finite")
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


# -- config file and inputs ---------------------------------------------


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
            if key not in _FLAGS and key != "big-l":
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg[key] = val.strip()
    return cfg


def _from_config(cfg, name):
    for key in (name, "big-l") if name == "L" else (name,):
        if key in cfg:
            try:
                val = _FLAGS[name][0](cfg[key])
            except (ValueError, argparse.ArgumentTypeError):
                raise UsageError(
                    f"config key {key}: cannot parse {cfg[key]!r}"
                ) from None
            if name in _CHOICES and val not in _CHOICES[name]:
                raise UsageError(f"config key {key}: invalid choice {val!r} "
                                 f"(choose from {', '.join(_CHOICES[name])})")
            return val
    return None


def _load_phi(path, given_depth):
    """The step function in a JSON file and its tree: the given depth, or
    else the shallowest leaf grid the function aligns with; at most 2^24 leaves."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: not valid JSON ({exc})") from None
    phi, m = StepFunction.from_json_obj(obj)
    given = given_depth is not None
    for depth in (given_depth,) if given else itertools.count(1):
        if depth > 24 or m**depth > _MAX_PHI_LEAVES:  # m >= 2: past depth 24, past 2^24 leaves
            raise ComplexityGuardError(
                f"the depth {depth} tree has more than 2^24 leaves" if given else
                f"no leaf grid up to depth {depth - 1} aligns with the function")
        spec = TreeSpec(m, depth)
        if phi.is_leaf_aligned(spec):
            return phi, spec
    raise DomainError(f"function is not aligned with the depth {given_depth} leaf grid")


# -- subcommand handlers ------------------------------------------------


def _cmd_bellman(args):
    p = args.params
    return {
        "params": asdict(p),
        "value": p.value,
        "c": p.c,
        "tau": p.tau,
        "k0": p.k0,
        "lam": p.lam,
        "mu": p.mu,
    }


def _cmd_maximal(args):
    mx = maximal_function(args.phi, args.spec)
    return {
        "m": args.spec.m,
        "N": args.spec.depth,
        "phi": args.phi.to_json_obj(args.spec.m),
        "maximal": mx.to_json_obj(args.spec.m),
    }


def _cmd_linearize(args):
    lin = linearize(args.phi, args.spec)
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
    return {"m": args.spec.m, "N": args.spec.depth, "elements": elements}


def _cmd_gphi(args):
    g, rec = g_phi(args.phi, args.L, args.q, args.spec, refine=args.refine)
    entries = [{
        "depth": ent.element.depth,
        "index": ent.element.index,
        "c": float(ent.c),
        "c_exact": _frac_str(ent.c),
        "gamma": float(ent.gamma),
        "gamma_exact": _frac_str(ent.gamma),
        "mass": float(ent.mass),
        "q_mass": float(ent.q_mass),
    } for ent in rec.entries]
    return {
        "m": args.spec.m,
        "N": args.spec.depth,
        "refine": rec.refine,
        "excess_measure": float(rec.excess.measure),
        "entries": entries,
        "g": g.to_json_obj(args.spec.m),
    }


def _cmd_verify(args):
    spec = TreeSpec(args.m, args.N)
    rows = [] if args.csv else None
    rep = verify_suite(args.n, spec, args.q, n_beta=args.beta_points,
                       beta_lo=args.beta_lo, beta_hi=args.beta_hi,
                       seed=args.seed, collect=rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(gap_rows_to_csv(rows))
    return {
        **asdict(rep),
        "suite": args.suite,
        "m": args.m,
        "N": args.N,
        "q": args.q,
        "seed": args.seed,
    }


def _cmd_search(args):
    spec = TreeSpec(args.m, args.N)
    if args.oracle:
        return brute_force_oracle(args.params, spec, grid=args.grid).to_json_obj()
    return local_search(args.params, spec, seed=args.seed, budget=args.budget,
                        restarts=args.restarts).to_json_obj()


def _cmd_study(args):
    reports = convergence_study(args.params, args.depths, seed=args.seed,
                                budget=args.budget, restarts=args.restarts, m=args.m)
    if args.format == "csv":
        return study_to_csv(reports)
    return [r.to_json_obj() for r in reports]


def _cmd_residual(args):
    p = args.params
    return {
        **asdict(eigen_residual(args.phi, p, args.spec)),
        "m": args.spec.m,
        "N": args.spec.depth,
        "params": asdict(p),
        "tau": p.tau,
    }


# -- argument plumbing --------------------------------------------------

# subcommand -> (handler, help, {flag: default or _REQUIRED}); every
# subcommand also takes --config and --out. A handler returns its report:
# _dispatch resolves the flags, loads --phi into args.phi and args.spec and
# builds args.params from --q, --f, --h and --L beforehand, and writes the
# report afterwards.
_COMMANDS = {
    "bellman": (_cmd_bellman, "analytic value, growth constant, and thresholds",
                _PARAMS),
    "maximal": (_cmd_maximal, "exact maximal function of a step function",
                {"phi": _REQUIRED, "N": None}),
    "linearize": (_cmd_linearize, "stopping elements, weights, and level sets",
                  {"phi": _REQUIRED, "N": None}),
    "gphi": (_cmd_gphi, "two-valued rearrangement with the same averages",
             {"phi": _REQUIRED, "N": None, "q": _REQUIRED, "L": _REQUIRED,
              "refine": None}),
    "verify": (_cmd_verify, "fuzz the inequality family on random functions",
               {"suite": "inequalities", "q": _REQUIRED, "m": 2, "N": 6, "n": 100,
                "seed": 0, "beta-points": 50, "beta-lo": 1e-3, "beta-hi": 1e3,
                "csv": None}),
    "search": (_cmd_search, "maximize the truncated objective at fixed moments",
               {**_PARAMS, "m": 2, "N": _REQUIRED, **_SEARCH, "grid": 8}),
    "study": (_cmd_study, "search across depths and track gap and residual",
              {**_PARAMS, "m": 2, "depths": _REQUIRED, **_SEARCH, "format": "json"}),
    "residual": (_cmd_residual, "approximate-eigenfunction defect of a function",
                 {"phi": _REQUIRED, "N": None, **_PARAMS}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="bklab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=helptext)
        p.add_argument("--config", help="key = value file supplying flag defaults")
        for name in (*flags, "out"):
            cast, flaghelp = _FLAGS[name]
            names = ("--L", "--big-l") if name == "L" else ("--" + name,)
            p.add_argument(*names, dest=name.replace("-", "_"), type=cast,
                           choices=_CHOICES.get(name), help=flaghelp)
        if command == "search":
            p.add_argument("--oracle", action="store_true",
                           help="exhaustive quantized enumeration instead of local search")
    return parser


def _dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("missing subcommand, choose from: " + ", ".join(_COMMANDS))
    handler, _, flags = _COMMANDS[args.command]
    cfg = load_config(args.config) if args.config else {}
    # each flag once: the command line, else the config file, else the default
    for name in (*flags, "out"):
        attr = name.replace("-", "_")
        if getattr(args, attr) is None:
            val = _from_config(cfg, name)
            if val is None and flags.get(name) is _REQUIRED:
                raise UsageError(f"missing required flag --{name}")
            setattr(args, attr, flags.get(name) if val is None else val)
    if "q" in flags and not (Q_MIN <= args.q <= Q_MAX):
        raise DomainError(f"--q must lie in [{Q_MIN}, {Q_MAX}], got {args.q}")
    if "phi" in flags:
        args.phi, args.spec = _load_phi(args.phi, args.N)
    if "f" in flags:
        args.params = BellmanParams(args.q, args.f, args.h, args.L)
    t0 = time.perf_counter()
    report = handler(args)
    elapsed = time.perf_counter() - t0
    emit_report(report, getattr(args, "format", "json"), args.out)
    sys.stderr.write(render_json({"elapsed_seconds": elapsed}) + "\n")
    return 0


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
