"""Command-line frontend: every computation behind one executable.

Exit codes: 0 on success, 1 when a verification sweep reports failures
(with a machine-readable JSON report on stdout), 2 on usage errors.
JSON output carries a top-level schema tag and is stable across runs for
identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import harmonics
from .errors import LLTError
from .llt import chromatic, llt, llt_via_orientations, orientation_e_expansion
from .partitions import DEGREE_BOUND, partitions_of
from .relations import SUITES, all_suites, recursion_evaluate
from .schroeder import SIZE_BOUND, area, enumerate_paths, graph, parse
from .schur import elw_schur, kostka_schur
from .symfunc import SymFunc

SCHEMA = "lltpaths/1"


def _emit(args, payload: dict, started: float) -> None:
    if args.json:
        out = {
            "schema": SCHEMA,
            "command": args.command,
            "params": payload.get("params", {}),
            "result": payload["result"],
            "wall_time_s": round(time.monotonic() - started, 6),
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for line in payload["human"]:
            print(line)


def _symfunc_payload(f: SymFunc, witness: dict | None = None) -> dict:
    obj = f.to_obj()
    if witness is not None:
        obj["witness"] = witness
    return obj


def _cmd_paths(args, started):
    paths = enumerate_paths(args.n, dyck_only=args.dyck, bound=args.unsafe_max_n)
    result = {
        "n": args.n,
        "count": len(paths),
        "words": [p.word for p in paths],
        "dyck": [p.is_dyck() for p in paths],
    }
    _emit(
        args,
        {
            "params": {"n": args.n, "dyck": args.dyck},
            "result": result,
            "human": [str(len(paths))],
        },
        started,
    )
    return 0


def _expand_by_method(path, method: str, bound: int) -> SymFunc:
    """Expand by the chosen route; `bound` is the --unsafe-max-n size limit."""
    if method == "colorings":
        return llt(path, bound=bound)
    if method == "orientations":
        return llt_via_orientations(path, bound=bound)
    return recursion_evaluate(path, bound=bound)


def _check_size(n: int, args) -> None:
    """Refuse a negative size, or one above the --unsafe-max-n limit, before any work starts."""
    if n < 0:
        raise LLTError(f"size {n} is negative")
    if n > args.unsafe_max_n:
        raise LLTError(f"size {n} exceeds the limit; raise --unsafe-max-n")


def _cmd_expand(args, started):
    path = parse(args.word)
    _check_size(path.size, args)
    f = _expand_by_method(path, args.method, args.unsafe_max_n).convert(args.basis)
    if args.shift_q:
        f = f.shift_q(args.shift_q)
    witness = None
    if args.witness:
        g = graph(path)
        witness = {
            "graph": g.to_obj(),
            "colorings_by_content": {
                str(list(lam)): str(llt(path, bound=args.unsafe_max_n).coeffs.get(lam, 0))
                for lam in partitions_of(path.size)
            },
            "orientations": 2 ** area(path),
        }
    _emit(
        args,
        {
            "params": {
                "word": args.word,
                "basis": args.basis,
                "method": args.method,
                "shift_q": args.shift_q,
            },
            "result": _symfunc_payload(f, witness),
            "human": [str(f)],
        },
        started,
    )
    return 0


def _cmd_equality(args, started):
    _check_size(args.max_n, args)
    failures = []
    total = 0
    for n in range(1, args.max_n + 1):
        for p in enumerate_paths(n, bound=args.unsafe_max_n):
            total += 1
            lhs = llt(p, args.unsafe_max_n).shift_q(1).convert("e")
            rhs = orientation_e_expansion(p, args.unsafe_max_n)
            if not (lhs - rhs).is_zero():
                failures.append({"path": p.word, "discrepancy": (lhs - rhs).to_obj()})
    result = {"paths_checked": total, "failures": failures}
    _emit(
        args,
        {
            "params": {"max_n": args.max_n},
            "result": result,
            "human": [
                f"main identity holds on all {total} paths"
                if not failures
                else f"FAILED on {len(failures)} of {total} paths"
            ],
        },
        started,
    )
    if failures:
        if not args.json:
            print(json.dumps({"schema": SCHEMA, "failures": failures}, sort_keys=True))
        return 1
    return 0


def _cmd_verify(args, started):
    _check_size(args.max_n, args)
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
    failed = [name for name, agg in merged.items() if agg["failures"]]
    human = [
        f"{name}: {'PASS' if not agg['failures'] else 'FAIL'} ({agg['instances']} instances)"
        for name, agg in merged.items()
    ]
    _emit(args, {"params": {"suite": args.suite, "max_n": args.max_n}, "result": result, "human": human}, started)
    if failed:
        if not args.json:
            print(json.dumps({"schema": SCHEMA, "failed_suites": result["suites"]}, sort_keys=True))
        return 1
    return 0


def _cmd_schur(args, started):
    path = parse(args.word)
    if args.method == "elw":
        f = elw_schur(path, args.unsafe_max_n)
    elif args.method == "kostka":
        f = kostka_schur(path, args.unsafe_max_n)
    else:
        f = llt(path, args.unsafe_max_n).convert("s")
    _emit(
        args,
        {
            "params": {"word": args.word, "method": args.method},
            "result": _symfunc_payload(f),
            "human": [str(f)],
        },
        started,
    )
    return 0


def _cmd_nabla_e(args, started):
    f = harmonics.nabla_e(args.n, args.unsafe_max_n)
    _emit(
        args,
        {
            "params": {"n": args.n},
            "result": _symfunc_payload(f),
            "human": [str(f)],
        },
        started,
    )
    return 0


def _cmd_nabla_p(args, started):
    f = harmonics.nabla_p(args.n, args.unsafe_max_n)
    _emit(
        args,
        {
            "params": {"n": args.n},
            "result": _symfunc_payload(f),
            "human": [f"(-1)^(n-1) nabla p_{args.n} = {f}"],
        },
        started,
    )
    return 0


def _cmd_hl(args, started):
    f = harmonics.hall_littlewood(tuple(args.mu), args.unsafe_max_n)
    _emit(
        args,
        {
            "params": {"mu": args.mu},
            "result": _symfunc_payload(f),
            "human": [str(f)],
        },
        started,
    )
    return 0


def _cmd_chromatic(args, started):
    f = chromatic(parse(args.word), args.unsafe_max_n).convert("e")
    _emit(
        args,
        {
            "params": {"word": args.word},
            "result": _symfunc_payload(f),
            "human": [str(f)],
        },
        started,
    )
    return 0


def _cmd_survey(args, started):
    rep = harmonics.survey_e_coefficients(args.max_n, args.unsafe_max_n)
    obj = rep.to_obj()
    if not args.witness:
        obj = {k: v for k, v in obj.items() if k != "entries"}
    human = [
        f"coefficients checked: {len(rep.entries)}",
        f"all nonnegative: {rep.all_nonneg}",
        f"unimodal: {rep.unimodal_count}/{len(rep.entries)}",
        f"log-concave: {rep.log_concave_count}/{len(rep.entries)}",
    ]
    _emit(args, {"params": {"max_n": args.max_n}, "result": obj, "human": human}, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument("--witness", action="store_true", help="include witness data")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for interface stability and otherwise ignored: every run is single-threaded",
    )
    common.add_argument(
        "--unsafe-max-n",
        type=int,
        default=SIZE_BOUND,
        help="raise the enumerative size guard (runtimes grow fast)",
    )

    parser = argparse.ArgumentParser(
        prog="lltpaths",
        description="Exact vertical-strip LLT polynomials from Schroeder paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", parents=[common], help="enumerate/count Schroeder paths of size n")
    p.add_argument("n", type=int)
    p.add_argument("--dyck", action="store_true", help="restrict to Dyck paths")
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("expand", parents=[common], help="expand the path polynomial in a basis")
    p.add_argument("word")
    p.add_argument("--basis", choices=["m", "e", "h", "p", "s"], default="e")
    p.add_argument("--shift-q", type=int, default=0, dest="shift_q")
    p.add_argument(
        "--method",
        choices=["colorings", "orientations", "recursion"],
        default="colorings",
    )
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("equality", parents=[common], help="sweep the coloring/orientation identity")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(handler=_cmd_equality)

    p = sub.add_parser("verify", parents=[common], help="run relation verification suites")
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

    p = sub.add_parser("survey", parents=[common], help="shape survey of the shifted e-coefficients")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(handler=_cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be positive")
    if args.unsafe_max_n > DEGREE_BOUND:
        parser.error(f"--unsafe-max-n may not exceed {DEGREE_BOUND}, the largest degree the algebra accepts")
    started = time.monotonic()
    try:
        return args.handler(args, started)
    except LLTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
