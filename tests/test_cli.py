import json
from fractions import Fraction
from pathlib import Path

import pytest

from lltpaths import clear_caches, cli, relations
from lltpaths.cli import main
from lltpaths.harmonics import hall_littlewood
from lltpaths.llt import chromatic, llt
from lltpaths.schroeder import SIZE_BOUND, parse
from lltpaths.schur import elw_schur, kostka_schur
from lltpaths.symfunc import SymFunc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_paths_count(capsys):
    code, out = run(capsys, "paths", "3")
    assert code == 0 and out.strip() == "11"


def test_paths_json(capsys):
    code, out = run(capsys, "paths", "2", "--json")
    doc = json.loads(out)
    assert doc["schema"] == "lltpaths/1"
    assert doc["result"]["count"] == 3
    assert "nnee" in doc["result"]["words"]


def test_expand_human(capsys):
    code, out = run(capsys, "expand", "nndee", "--basis", "s")
    assert code == 0
    assert out.strip() == "q^2*s[1,1,1] + q*s[2,1]"


def test_expand_methods_agree(capsys):
    outs = set()
    for method in ("colorings", "orientations", "recursion"):
        code, out = run(capsys, "expand", "nendnee", "--basis", "e", "--method", method)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_expand_shift(capsys):
    code, out = run(capsys, "expand", "nnee", "--basis", "e", "--shift-q", "1")
    assert out.strip() == "e[1,1] + q*e[2]"


def test_expand_json_roundtrip(capsys):
    from lltpaths.symfunc import SymFunc
    from lltpaths.llt import llt
    from lltpaths.schroeder import parse

    code, out = run(capsys, "expand", "nndee", "--basis", "m", "--json")
    doc = json.loads(out)
    f = SymFunc.from_obj(doc["result"])
    assert f == llt(parse("nndee"))


def test_expand_witness(capsys):
    code, out = run(capsys, "expand", "nnee", "--basis", "e", "--json", "--witness")
    doc = json.loads(out)
    assert doc["result"]["witness"]["orientations"] == 2
    assert doc["result"]["witness"]["graph"]["edges"] == [[1, 2]]


def test_nabla_p_json(capsys):
    code, out = run(capsys, "nabla-p", "2", "--json")
    doc = json.loads(out)
    terms = {tuple(t["partition"]): t["coeff"] for t in doc["result"]["terms"]}
    assert terms[(2,)] == [{"q": 0, "t": 0, "num": "1", "den": "1"}]
    assert terms[(1, 1)] == [
        {"q": 0, "t": 1, "num": "1", "den": "1"},
        {"q": 1, "t": 0, "num": "1", "den": "1"},
        {"q": 1, "t": 1, "num": "1", "den": "1"},
    ]


def test_hl_human(capsys):
    code, out = run(capsys, "hl", "2", "1")
    assert code == 0
    assert out.strip() == "s[2,1] + q*s[3]"


def test_chromatic_human(capsys):
    code, out = run(capsys, "chromatic", "nnee")
    assert out.strip() == "(q + 1)*e[2]"


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "--suite", "unicellular", "--max-n", "3")
    assert code == 0
    assert "unicellular: PASS" in out


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "--max-n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(s["passed"] for s in doc["result"]["suites"])


@pytest.mark.parametrize("suite", ["chromatic", "all"])
def test_verify_runs_the_chromatic_suite_at_every_size(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite, "--max-n", "6", "--json")
    assert code == 0
    suites = {s["suite"]: s for s in json.loads(out)["result"]["suites"]}
    assert all(s["passed"] for s in suites.values())
    assert suites["chromatic"]["instances"] == 106 + 278  # sizes 1-5, then size 6


def test_equality_sweep(capsys):
    code, out = run(capsys, "equality", "--max-n", "3")
    assert code == 0
    assert "main identity holds" in out


def test_survey(capsys):
    code, out = run(capsys, "survey", "--max-n", "3")
    assert code == 0
    assert "all nonnegative: True" in out


def test_schur_methods(capsys):
    for method in ("elw", "kostka", "convert"):
        code, out = run(capsys, "schur", "nndee", "--method", method)
        assert code == 0
        assert out.strip() == "q^2*s[1,1,1] + q*s[2,1]"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["nosuchcommand"])
    assert err.value.code == 2


def test_domain_error_exit_2(capsys):
    assert main(["expand", "bogus"]) == 2
    assert main(["expand", "nnnnnnnneeeeeeee"]) == 2


def test_size_guard_override(capsys):
    # default guard rejects size 8, --unsafe-max-n lifts it for enumeration
    code, out = run(capsys, "paths", "8", "--unsafe-max-n", "8")
    assert code == 0 and out.strip() == "20793"


# Every subcommand with its smallest valid arguments.
SUBCOMMANDS = {
    "paths": ["paths", "3"],
    "expand": ["expand", "nnee"],
    "equality": ["equality", "--max-n", "2"],
    "verify": ["verify", "--max-n", "2"],
    "schur": ["schur", "nnee"],
    "nabla-e": ["nabla-e", "2"],
    "nabla-p": ["nabla-p", "2"],
    "hl": ["hl", "2"],
    "chromatic": ["chromatic", "nnee"],
    "survey": ["survey", "--max-n", "2"],
}


@pytest.mark.parametrize(
    "argv",
    [argv + ["--threads", "2"] for argv in SUBCOMMANDS.values()]
    + [SUBCOMMANDS[name] + ["--witness"] for name in ("paths", "equality", "schur", "nabla-e", "nabla-p", "hl", "chromatic")],
)
def test_options_a_subcommand_never_reads_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2 and capsys.readouterr().out == ""


def test_verify_max_n_0_prints_nothing(capsys):
    assert run(capsys, "verify", "--max-n", "0") == (0, "")


def test_equality_failure_exits_1_with_a_report(capsys, monkeypatch):
    orientations = cli.orientation_e_expansion
    monkeypatch.setattr(cli, "orientation_e_expansion", lambda p, bound: orientations(p, bound).scale(2))
    code, out = run(capsys, "equality", "--max-n", "2")
    assert code == 1
    summary, report = out.splitlines()
    assert summary == "FAILED on 4 of 4 paths"
    report = json.loads(report)
    assert report["schema"] == "lltpaths/1"
    assert [f["path"] for f in report["failures"]] == ["ne", "nde", "nene", "nnee"]
    code, out = run(capsys, "equality", "--max-n", "2", "--json")
    assert code == 1  # json.loads below refuses trailing text: --json prints the document only
    assert json.loads(out)["result"]["failures"] == report["failures"]


def test_verify_failure_exits_1_with_a_report(capsys, monkeypatch):
    def failing(n, llt_fn=None, bound=SIZE_BOUND):
        report = relations.RelationReport("unicellular", instances=1)
        report.failures.append({"paths": ["ne"], "point": None, "discrepancy": SymFunc.basis_element("e", (1,))})
        return report

    monkeypatch.setitem(relations.SUITES, "unicellular", failing)
    code, out = run(capsys, "verify", "--suite", "unicellular", "--max-n", "2")
    assert code == 1
    summary, report = out.splitlines()
    assert summary == "unicellular: FAIL (2 instances)"
    report = json.loads(report)
    assert report["schema"] == "lltpaths/1"
    assert [(s["suite"], s["passed"], len(s["failures"])) for s in report["failed_suites"]] == [("unicellular", False, 2)]
    code, out = run(capsys, "verify", "--suite", "unicellular", "--max-n", "2", "--json")
    assert code == 1
    assert json.loads(out)["result"]["suites"] == report["failed_suites"]
    # with every suite run, the report holds only the failing one
    code, out = run(capsys, "verify", "--suite", "all", "--max-n", "2")
    assert code == 1
    report = json.loads(out.splitlines()[-1])
    assert [(s["suite"], s["passed"]) for s in report["failed_suites"]] == [("unicellular", False)]
    code, out = run(capsys, "verify", "--suite", "all", "--max-n", "2", "--json")
    assert code == 1
    suites = json.loads(out)["result"]["suites"]
    assert [s["suite"] for s in suites] == [name for name in relations.SUITES if name != "extended"]
    assert [s for s in suites if not s["passed"]] == report["failed_suites"]


@pytest.mark.parametrize("method", ["colorings", "orientations"])
def test_expand_witness_runs_the_coloring_dp_once(capsys, monkeypatch, method):
    calls = []
    monkeypatch.setitem(relations.ROUTES, "colorings", lambda path, bound: calls.append(path.word) or llt(path, bound))
    code, out = run(capsys, "expand", "nendnee", "--method", method, "--witness", "--json")
    assert code == 0 and calls == ["nendnee"]
    assert json.loads(out)["result"]["witness"]["colorings_by_content"]["[1, 1, 1, 1]"] == str(llt(parse("nendnee")).coeffs[(1, 1, 1, 1)])


@pytest.mark.parametrize(
    "argv, route",
    [
        (["expand", "nnee"], "colorings"),
        (["expand", "nnee", "--method", "orientations"], "orientations"),
        (["expand", "nnee", "--method", "recursion"], "recursion"),
        (["equality", "--max-n", "2"], "colorings"),
        (["schur", "nnee"], "colorings"),
        (["chromatic", "nnee"], "chromatic"),
        (["verify", "--suite", "unicellular", "--max-n", "2"], "colorings"),
        (["verify", "--suite", "chromatic", "--max-n", "2"], "chromatic"),
    ],
)
def test_one_routes_entry_reaches_every_request_that_reads_its_route(capsys, monkeypatch, argv, route):
    clear_caches()  # a warm packed value would answer a suite without a route call
    bounds = []
    original = relations.ROUTES[route]
    monkeypatch.setitem(relations.ROUTES, route, lambda path, bound: bounds.append(bound) or original(path, bound))
    assert run(capsys, *argv, "--unsafe-max-n", "6")[0] == 0
    assert bounds and set(bounds) == {6}


def test_expand_witness_counts_orientations_without_enumerating(capsys):
    # area 19: enumerating the 2^19 orientations would cost gigabytes
    code, out = run(capsys, "expand", "nnnnnnedeeeee", "--json", "--witness")
    assert code == 0
    assert json.loads(out)["result"]["witness"]["orientations"] == 2**19


@pytest.mark.parametrize("command", ["verify", "equality"])
def test_sweep_above_the_limit_is_refused_before_work(capsys, command):
    code = main([command, "--max-n", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "exceeds the limit" in captured.err


def test_expand_unsafe_max_n_reaches_the_evaluator(capsys):
    from lltpaths.llt import llt
    from lltpaths.schroeder import area, parse
    from lltpaths.symfunc import SymFunc

    p = parse("ndenenndeennee")
    assert p.size == 8 and area(p) <= 3
    code, out = run(
        capsys, "expand", p.word, "--method", "recursion", "--basis", "e", "--unsafe-max-n", "8", "--json"
    )
    assert code == 0
    assert SymFunc.from_obj(json.loads(out)["result"]) == llt(p, bound=8).convert("e")


def test_expand_orientations_on_the_area_21_staircase(capsys):
    outs = []
    for method in ("orientations", "colorings"):
        code, out = run(capsys, "expand", "nnnnnnneeeeeee", "--method", method, "--basis", "e")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_expand_orientations_size_guard(capsys):
    from lltpaths.llt import llt
    from lltpaths.schroeder import parse
    from lltpaths.symfunc import SymFunc

    word = "ndenenndeennee"
    code, out = run(capsys, "expand", word, "--method", "orientations")
    assert code == 2 and out == ""
    code, out = run(capsys, "expand", word, "--method", "orientations", "--basis", "e", "--unsafe-max-n", "8", "--json")
    assert code == 0
    assert SymFunc.from_obj(json.loads(out)["result"]) == llt(parse(word), bound=8).convert("e")


# One word of size 8 (limit + 1) for the path commands, a Dyck one for chromatic.
SIZE_8 = "ndenenndeennee"
DYCK_8 = "nnenenenenenenee"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", SIZE_8, "--method", "colorings"],
        ["expand", SIZE_8, "--method", "orientations"],
        ["expand", SIZE_8, "--method", "recursion"],
        ["schur", SIZE_8, "--method", "elw"],
        ["schur", SIZE_8, "--method", "kostka"],
        ["schur", SIZE_8, "--method", "convert"],
        ["chromatic", DYCK_8],
        ["hl", "8"],
        ["nabla-e", "8"],
        ["nabla-p", "8"],
        ["survey", "--max-n", "8"],
        # malformed input is refused the same way
        ["hl", "0"],
        ["hl", "-1"],
        ["hl", "2", "3"],
        ["nabla-p", "0"],
        # a negative size
        ["paths", "-1"],
        ["nabla-e", "-2"],
        ["equality", "--max-n", "-1"],
        ["verify", "--max-n", "-1"],
        ["survey", "--max-n", "-1"],
    ],
)
def test_every_subcommand_refuses_limit_plus_one(capsys, argv):
    code = main(argv)
    assert code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, library",
    [
        (["chromatic", DYCK_8], lambda: chromatic(parse(DYCK_8), bound=8).convert("e")),
        (["schur", SIZE_8, "--method", "elw"], lambda: elw_schur(parse(SIZE_8), bound=8)),
        (["schur", SIZE_8, "--method", "kostka"], lambda: kostka_schur(parse(SIZE_8), bound=8)),
        (["schur", SIZE_8, "--method", "convert"], lambda: llt(parse(SIZE_8), bound=8).convert("s")),
        (["hl", "8"], lambda: hall_littlewood((8,), bound=8)),
    ],
)
def test_unsafe_max_n_reaches_the_library(capsys, argv, library):
    code, out = run(capsys, *argv, "--unsafe-max-n", "8", "--json")
    assert code == 0
    assert SymFunc.from_obj(json.loads(out)["result"]) == library()


def _stub_suites(monkeypatch, calls):
    """Replace every relation suite by a stub that records (suite, n, bound) and passes."""
    for name in relations.SUITES:
        def stub(n, llt_fn=None, bound=SIZE_BOUND, name=name):
            calls.append((name, n, bound))
            return relations.RelationReport(name)

        monkeypatch.setitem(relations.SUITES, name, stub)


def test_verify_refuses_size_8_without_the_flag(capsys, monkeypatch):
    calls = []
    _stub_suites(monkeypatch, calls)
    code = main(["verify", "--max-n", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "exceeds the limit" in captured.err
    assert calls == []


@pytest.mark.parametrize("suite", ["all", "dyck"])
def test_verify_unsafe_max_n_reaches_the_suites(capsys, monkeypatch, suite):
    calls = []
    _stub_suites(monkeypatch, calls)
    code, out = run(capsys, "verify", "--suite", suite, "--max-n", "8", "--unsafe-max-n", "8", "--json")
    assert code == 0
    names = [name for name in relations.SUITES if name != "extended"] if suite == "all" else [suite]
    assert calls == [(name, n, 8) for n in range(1, 9) for name in names]
    assert [s["suite"] for s in json.loads(out)["result"]["suites"]] == names


def test_unsafe_max_n_above_the_degree_bound_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["paths", "3", "--unsafe-max-n", "13"])
    assert err.value.code == 2


# Human output, byte for byte; handlers return objects and `main` renders them, so the text is pinned here.
HUMAN_OUTPUT = {
    "expand nndee --basis s": "q^2*s[1,1,1] + q*s[2,1]\n",
    "schur nndee --method elw": "q^2*s[1,1,1] + q*s[2,1]\n",
    "nabla-p 3": (
        "(-1)^(n-1) nabla p_3 = (q^3*t^2 + q^3*t + q^3 + q^2*t^3 + q^2*t^2 + q^2*t + q*t^3 + q*t^2 + q*t + t^3)*s[1,1,1]"
        " + (q^2*t^2 + q^2*t + q^2 + q*t^2 + q*t + q + t^2 + t)*s[2,1] + s[3]\n"
    ),
    "hl 2 1": "s[2,1] + q*s[3]\n",
    "chromatic nnee": "(q + 1)*e[2]\n",
}


@pytest.mark.parametrize("command", sorted(HUMAN_OUTPUT))
def test_human_output_is_unchanged(capsys, command):
    assert run(capsys, *command.split()) == (0, HUMAN_OUTPUT[command])


GOLDEN_COMMANDS = sorted(json.loads((Path(__file__).resolve().parent / "golden" / "corpus.json").read_text())["cli"])


def test_golden_json_is_the_indented_dumps_text_and_renders_no_polynomial(capsys, monkeypatch):
    rendered = []
    render = SymFunc.__str__
    monkeypatch.setattr(SymFunc, "__str__", lambda f: rendered.append(f) or render(f))
    for command in GOLDEN_COMMANDS:
        code, out = run(capsys, *command.split(), "--json")
        assert code == 0, command
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", command
        assert out == cli._indented_json(doc) + "\n", command
    assert rendered == []
    run(capsys, "hl", "2", "1")
    assert len(rendered) == 1  # the counter sees a human-mode rendering


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
        ["héllo ☃ 𝄞", "\x00\x1f\x7f", 'quote " and backslash \\', "\n\t\r\b\f", ""],
        {"é": 1, "z": 2, "a": 3, "": 4, "A": {"b": "ü"}},
        [0, -1, -(2**70), 2**64, 2**64 + 1],
        [True, False, None, {"t": True, "f": False, "n": None}],
        [0.0, 1e-06, 123.456789, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
        (1, "a", (2, ()), {"t": (1, (2,))}),
        "top-level string",
        7,
        None,
    ],
)
def test_the_json_writer_matches_dumps_on_edge_cases(doc):
    assert cli._indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [{1, 2}, Fraction(1, 2), {1: "a"}, {"ok": [{"fine": 1, 2: "not"}]}, b"bytes"])
def test_the_json_writer_refuses_other_types_before_printing(capsys, monkeypatch, bad):
    with pytest.raises(TypeError):
        cli._indented_json(bad)
    monkeypatch.setattr(cli, "SCHEMA", bad)
    with pytest.raises(TypeError):
        main(["paths", "2", "--json"])
    assert capsys.readouterr().out == ""
