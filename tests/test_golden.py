"""Golden corpus: the `--json` output of a fixed set of CLI commands, and the
relation reports of every suite under one corrupted polynomial, compared byte
for byte with `tests/golden/corpus.json`.

`wall_time_s` is the only field left out.  The corrupted reports pin the
failure records (paths, point, discrepancy) that a clean run never shows.
"""

import contextlib
import io
import json
from pathlib import Path

from lltpaths import cli
from lltpaths.coeffring import CoeffQT
from lltpaths.llt import llt
from lltpaths.schroeder import area
from lltpaths.symfunc import SymFunc

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

COMMANDS = [
    # the README examples
    "paths 3",
    "expand nndee --basis s",
    "expand nnee --basis e --shift-q 1",
    "expand nendnee --basis e --method colorings",
    "expand nendnee --basis e --method orientations",
    "expand nendnee --basis e --method recursion",
    "equality --max-n 5",
    "verify --suite all --max-n 5",
    "verify --suite generalized --max-n 6",
    "schur nndee --method kostka",
    "nabla-e 4",
    "nabla-p 3",
    "hl 2 1",
    "chromatic nnee",
    "survey --max-n 5",
    # witnesses and the three Schur routes
    "expand nndee --basis s --witness",
    "schur nndee --method elw",
    "schur nndee --method convert",
    "survey --max-n 4 --witness",
    # the area-21 staircase, out of reach of a 2^area orientation loop
    "expand nnnnnnneeeeeee --basis e --method orientations",
]

RELATION_SIZES = (4, 5)


def corrupted_llt(p):
    """The coloring polynomial plus q^k area(p) e_(n), k the length of the leading north run.

    A shift by a constant, or by any function of the area alone, cancels in
    the modular and six-term relations, so the weight mixes two statistics:
    every suite with instances then reports failures, six-term ones included.
    """
    k = len(p.word) - len(p.word.lstrip("n"))
    return llt(p).convert("e") + SymFunc.basis_element("e", (p.size,), CoeffQT.q(k) * area(p))


def run_json(command: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command.split() + ["--json"])
    doc = json.loads(buf.getvalue())
    del doc["wall_time_s"]
    return {"exit": code, "output": doc}


def human_lines(command: str, result: dict) -> list[str]:
    """The human-mode lines of a command, rendered from its `--json` result."""
    name = command.split()[0]
    if name == "paths":
        return [str(result["count"])]
    if name == "equality":
        failures, total = len(result["failures"]), result["paths_checked"]
        return [f"FAILED on {failures} of {total} paths" if failures else f"main identity holds on all {total} paths"]
    if name == "verify":
        return [f"{s['suite']}: {'PASS' if s['passed'] else 'FAIL'} ({s['instances']} instances)" for s in result["suites"]]
    if name == "survey":
        checked = result["coefficients_checked"]
        return [
            f"coefficients checked: {checked}",
            f"all nonnegative: {result['all_nonneg']}",
            f"unimodal: {result['unimodal']}/{checked}",
            f"log-concave: {result['log_concave']}/{checked}",
        ]
    f = str(SymFunc.from_obj(result))
    return [f"(-1)^(n-1) nabla p_{command.split()[1]} = {f}" if name == "nabla-p" else f]


def build_corpus() -> str:
    """The corpus document as text: one entry per command and per (suite, n)."""
    doc = {
        "cli": {command: run_json(command) for command in COMMANDS},
        "relations": {
            f"{name} n={n}": fn(n, llt_fn=corrupted_llt).to_obj()
            for name, fn in cli.SUITES.items()
            for n in RELATION_SIZES
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_golden_corpus_is_byte_identical():
    want = CORPUS.read_text()
    got = build_corpus()
    if got != want:
        old, new = json.loads(want), json.loads(got)
        changed = [
            f"{section}: {key}"
            for section in ("cli", "relations")
            for key in sorted(set(old[section]) | set(new[section]))
            if old[section].get(key) != new[section].get(key)
        ]
        assert changed, "the corpus text differs only in formatting"
        raise AssertionError(f"golden entries changed: {changed}")


def test_every_corrupted_suite_reports_failures():
    doc = json.loads(CORPUS.read_text())
    for key, report in doc["relations"].items():
        assert bool(report["failures"]) == bool(report["instances"]), key
    six_term = [f for key, r in doc["relations"].items() for f in r["failures"] if len(f["paths"]) == 6]
    assert six_term


def test_human_output_is_the_rendering_of_the_json_result():
    for command in COMMANDS:
        want = human_lines(command, run_json(command)["output"]["result"])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(command.split())
        assert buf.getvalue().splitlines() == want, command
