"""Command-line frontend: every computation behind one executable.

Exit codes: 0 on success, 1 when a verification sweep reports failures
(with a machine-readable JSON report on stdout), 2 on usage errors.
JSON output carries a top-level schema tag and is stable across runs for
identical inputs.

Each `_cmd_*` handler only computes: it returns `(result, human_lines,
failure_report)`, the last `None` unless a sweep failed.  `main` takes
the JSON document's params from the parsed options, less `_SHARED`.
A human line is a tuple of printable objects (a `SymFunc` itself, not its
text), which `print` joins with spaces.  `main` alone renders them, in
human mode only, so a `--json` request never formats a polynomial; it
prints the JSON document or the human lines (then, in human mode, the
failure report as one JSON line) and chooses the exit code.
Handlers reach every route through `relations.ROUTES`, and other library
functions by their names here, both looked up at call time: replacing a
`ROUTES` entry or rebinding a name here reaches every request.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import harmonics
from .errors import LLTError
from .llt import llt, orientation_e_expansion  # llt and recursion_evaluate: no handler calls them; bench/test_bench.py reads them
from .partitions import DEGREE_BOUND, check_size, partitions_of
from .relations import ROUTES, SUITES, all_suites, recursion_evaluate
from .schroeder import SIZE_BOUND, area, enumerate_paths, graph, parse
from .schur import elw_schur, kostka_schur

SCHEMA = "lltpaths/1"
# Parsed options that are not params of a request: the subcommand, its
# handler, and the output, size-guard and witness options.
_SHARED = frozenset({"command", "handler", "json", "unsafe_max_n", "witness"})

_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}  # as `json` writes them


def _indented_json(o) -> str:
    """The text of `json.dumps(o, indent=2, sort_keys=True)`, written directly.

    With `indent` the standard library falls back to its pure-Python
    encoder (on Python 3.10 and 3.11); this writer produces the same bytes
    as pieces joined once.  It takes dicts with str keys (written sorted),
    lists, tuples, str (escaped by the C `encode_basestring_ascii`), int,
    float, bool and None, and raises `TypeError` on anything else, before
    the text is returned.
    """
    parts: list[str] = []
    _write_json(o, "\n", parts.append)
    return "".join(parts)


def _write_json(o, newline: str, out) -> None:
    """Pass the text of o to `out` piece by piece; `newline` is the line break plus o's indent."""
    if isinstance(o, str):
        out(_quote(o))
    elif isinstance(o, int):
        out("true" if o is True else "false" if o is False else int.__repr__(o))
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            out(sep)
            out(_quote(key))  # a key that is not a str raises TypeError here
            out(": ")
            _write_json(o[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in o:
            out(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif o is None:
        out("null")
    elif isinstance(o, float):
        text = float.__repr__(o)
        out(_NON_FINITE.get(text, text))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _cmd_paths(args):
    paths = enumerate_paths(args.n, dyck_only=args.dyck, bound=args.unsafe_max_n)
    result = {
        "n": args.n,
        "count": len(paths),
        "words": [p.word for p in paths],
        "dyck": [p.is_dyck() for p in paths],
    }
    return result, [(len(paths),)], None


def _cmd_expand(args):
    path = parse(args.word)
    f = ROUTES[args.method](path, args.unsafe_max_n)
    out = f.convert(args.basis)
    if args.shift_q:
        out = out.shift_q(args.shift_q)
    result = out.to_obj()
    if args.witness:
        by_content = (f if args.method == "colorings" else ROUTES["colorings"](path, args.unsafe_max_n)).coeffs
        result["witness"] = {
            "graph": graph(path).to_obj(),
            "colorings_by_content": {str(list(lam)): str(by_content.get(lam, 0)) for lam in partitions_of(path.size)},
            "orientations": 2 ** area(path),
        }
    return result, [(out,)], None


def _cmd_equality(args):
    check_size(args.max_n, args.unsafe_max_n)
    failures = []
    total = 0
    for n in range(1, args.max_n + 1):
        for p in enumerate_paths(n, bound=args.unsafe_max_n):
            total += 1
            lhs = ROUTES["colorings"](p, args.unsafe_max_n).shift_q(1).convert("e")
            discrepancy = lhs - orientation_e_expansion(p, args.unsafe_max_n)
            if not discrepancy.is_zero():
                failures.append({"path": p.word, "discrepancy": discrepancy.to_obj()})
    result = {"paths_checked": total, "failures": failures}
    human = f"FAILED on {len(failures)} of {total} paths" if failures else f"main identity holds on all {total} paths"
    return result, [(human,)], {"failures": failures} if failures else None


def _cmd_verify(args):
    check_size(args.max_n, args.unsafe_max_n)
    sizes = range(1, args.max_n + 1)
    if args.suite == "all":
        reports = [rep for n in sizes for rep in all_suites(n, bound=args.unsafe_max_n)]
    else:
        reports = [SUITES[args.suite](n, bound=args.unsafe_max_n) for n in sizes]
    merged: dict[str, dict] = {}
    for rep in reports:
        agg = merged.setdefault(rep.suite, {"instances": 0, "failures": []})
        agg["instances"] += rep.instances
        agg["failures"].extend(rep.to_obj()["failures"])
    result = {
        "max_n": args.max_n,
        "suites": [
            {"suite": name, "instances": agg["instances"], "passed": not agg["failures"], "failures": agg["failures"] if args.witness else agg["failures"][:3]}
            for name, agg in merged.items()
        ],
    }
    human = [
        (f"{name}: {'PASS' if not agg['failures'] else 'FAIL'} ({agg['instances']} instances)",)
        for name, agg in merged.items()
    ]
    failed = [suite for suite in result["suites"] if not suite["passed"]]
    report = {"failed_suites": failed} if failed else None
    return result, human, report


def _cmd_schur(args):
    path = parse(args.word)
    if args.method == "elw":
        f = elw_schur(path, args.unsafe_max_n)
    elif args.method == "kostka":
        f = kostka_schur(path, args.unsafe_max_n)
    else:
        f = ROUTES["colorings"](path, args.unsafe_max_n).convert("s")
    return f.to_obj(), [(f,)], None


def _cmd_nabla_e(args):
    f = harmonics.nabla_e(args.n, args.unsafe_max_n)
    return f.to_obj(), [(f,)], None


def _cmd_nabla_p(args):
    f = harmonics.nabla_p(args.n, args.unsafe_max_n)
    return f.to_obj(), [(f"(-1)^(n-1) nabla p_{args.n} =", f)], None


def _cmd_hl(args):
    f = harmonics.hall_littlewood(tuple(args.mu), args.unsafe_max_n)
    return f.to_obj(), [(f,)], None


def _cmd_chromatic(args):
    f = ROUTES["chromatic"](parse(args.word), args.unsafe_max_n).convert("e")
    return f.to_obj(), [(f,)], None


def _cmd_survey(args):
    rep = harmonics.survey_e_coefficients(args.max_n, args.unsafe_max_n)
    obj = rep.to_obj()
    if not args.witness:
        obj = {k: v for k, v in obj.items() if k != "entries"}
    human = [
        ("coefficients checked:", len(rep.entries)),
        ("all nonnegative:", rep.all_nonneg),
        ("unimodal:", f"{rep.unimodal_count}/{len(rep.entries)}"),
        ("log-concave:", f"{rep.log_concave_count}/{len(rep.entries)}"),
    ]
    return obj, human, None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument(
        "--unsafe-max-n",
        type=int,
        default=SIZE_BOUND,
        help="raise the enumerative size guard (runtimes grow fast)",
    )
    witnessed = argparse.ArgumentParser(add_help=False, parents=[common])
    witnessed.add_argument("--witness", action="store_true", help="include witness data")

    parser = argparse.ArgumentParser(
        prog="lltpaths",
        description="Exact vertical-strip LLT polynomials from Schroeder paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", parents=[common], help="enumerate/count Schroeder paths of size n")
    p.add_argument("n", type=int)
    p.add_argument("--dyck", action="store_true", help="restrict to Dyck paths")
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("expand", parents=[witnessed], help="expand the path polynomial in a basis")
    p.add_argument("word")
    p.add_argument("--basis", choices=["m", "e", "h", "p", "s"], default="e")
    p.add_argument("--shift-q", type=int, default=0, dest="shift_q")
    p.add_argument("--method", choices=[name for name in ROUTES if name != "chromatic"], default="colorings")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("equality", parents=[common], help="sweep the coloring/orientation identity")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(handler=_cmd_equality)

    p = sub.add_parser("verify", parents=[witnessed], help="run relation verification suites")
    p.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("schur", parents=[common], help="Schur expansion by one of three routes")
    p.add_argument("word")
    p.add_argument("--method", choices=["elw", "kostka", "convert"], default="convert")
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser("nabla-e", parents=[common], help="nabla e_n via the corner-collapse sum")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_nabla_e)

    p = sub.add_parser("nabla-p", parents=[common], help="(-1)^(n-1) nabla p_n via the car-diagram sum")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_nabla_p)

    p = sub.add_parser("hl", parents=[common], help="transformed Hall-Littlewood polynomial H_{mu'}")
    p.add_argument("mu", type=int, nargs="+")
    p.set_defaults(handler=_cmd_hl)

    p = sub.add_parser("chromatic", parents=[common], help="chromatic quasisymmetric function of a Dyck path")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_chromatic)

    p = sub.add_parser("survey", parents=[witnessed], help="shape survey of the shifted e-coefficients")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(handler=_cmd_survey)

    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    if args.unsafe_max_n > DEGREE_BOUND:
        PARSER.error(f"--unsafe-max-n may not exceed {DEGREE_BOUND}, the largest degree the algebra accepts")
    started = time.monotonic()
    try:
        result, human, failure = args.handler(args)
    except LLTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {
            "schema": SCHEMA,
            "command": args.command,
            "params": {k: v for k, v in vars(args).items() if k not in _SHARED},
            "result": result,
            "wall_time_s": round(time.monotonic() - started, 6),
        }
        print(_indented_json(doc))
    else:
        for line in human:
            print(*line)
        if failure is not None:
            print(json.dumps({"schema": SCHEMA, **failure}, sort_keys=True))
    return 0 if failure is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
