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
