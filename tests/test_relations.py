import hashlib
import inspect
import json
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from lltpaths import clear_caches, relations
from lltpaths.coeffring import CoeffQT
from lltpaths.errors import BoundExceeded, InvalidArgument, LLTError, NonTermination
from lltpaths.llt import chromatic, llt
from lltpaths.partitions import DEGREE_BOUND
from lltpaths.relations import (
    ROUTES,
    SUITES,
    all_suites,
    dyck_path_graph_formula,
    recursion_evaluate,
    sarrus_terms,
    verify_bounce_A,
    verify_bounce_B,
    verify_bounce_nd,
    verify_chromatic_relations,
    verify_dual_bounce,
    verify_dyck_relations,
    verify_extended_bounce,
    verify_generalized_bounce,
    verify_unicellular,
)
from lltpaths.schroeder import SIZE_BOUND, area, bounce_at, enumerate_paths, parse, reverse
from lltpaths.symfunc import SymFunc

Q = CoeffQT.q()
ONE = CoeffQT.one()


def test_unicellular_smallest_instance():
    lhs = llt(parse("nnee")).convert("e") - llt(parse("nene")).convert("e")
    rhs = llt(parse("nde")).convert("e").scale(Q - 1)
    assert lhs == rhs


def test_unicellular_suite_small():
    for n in range(1, 5):
        report = verify_unicellular(n)
        assert report.passed and report.failures == []
    assert verify_unicellular(3).instances == 7


def test_unicellular_negative_control():
    def corrupted(p):
        if p.word == "nndee":
            return llt(parse("ndnee"))
        return llt(p)

    assert not verify_unicellular(3, llt_fn=corrupted).passed


def test_bounce_A_first_instance():
    # smallest admissible nn-instance: F(U nn V de W) = q F(U nn V ed W)
    lhs = llt(parse("nndee")).convert("e")
    rhs = llt(parse("nnede")).convert("e").scale(Q)
    assert lhs == rhs


def test_bounce_dn_instance():
    # smallest dn-instance: F(U dn V de W) = F(U nd V ed W)
    lhs = llt(parse("ndndee")).convert("e")
    rhs = llt(parse("nndede")).convert("e")
    assert lhs == rhs


def test_bounce_nd_instance():
    # smallest nd-instance of the two-term relation
    lhs = llt(parse("nnddee")).convert("e")
    rhs = llt(parse("nndede")).convert("e").scale(Q - 1) + llt(
        parse("ndnede")
    ).convert("e").scale(Q)
    assert lhs == rhs


def test_bounce_suites_small():
    for n in range(1, 6):
        for fn in (verify_bounce_A, verify_bounce_B, verify_bounce_nd):
            report = fn(n)
            assert report.passed, (n, report.suite, report.failures[:1])
    assert verify_bounce_A(4).instances == 6
    assert verify_bounce_nd(4).instances == 1


def test_generalized_bounce():
    # vacuous at n = 2
    assert verify_generalized_bounce(2).instances == 0
    for n in range(3, 6):
        report = verify_generalized_bounce(n)
        assert report.passed
    # the two-bounce-point worked instance
    lhs = llt(parse("nnddndeee")).convert("e")
    rhs = llt(parse("nnddnedee")).convert("e").scale(Q)
    assert lhs == rhs


def test_generalized_three_bounce_points():
    # the smallest admissible instance with three bounce points has size 7
    from lltpaths.schroeder import bounce_at

    p = parse("nndddddee")
    data = bounce_at(p, (5, 7))
    assert len(data.bounce_points) == 3
    u, s12, v, s34, w = data.decomposition
    assert s12 == "nn" and s34 == "de" and "e" not in v
    lhs = llt(p).convert("e")
    rhs = llt(parse(u + "nn" + v + "ed" + w)).convert("e").scale(Q)
    assert lhs == rhs


def test_mutation_breaks_generalized():
    def corrupted(p):
        if p.word == "nnddndeee":
            return llt(parse("nnddnedee"))
        return llt(p)

    assert not verify_generalized_bounce(6, llt_fn=corrupted).passed


def test_dyck_relations_small():
    for n in range(1, 6):
        report = verify_dyck_relations(n)
        assert report.passed, (n, report.failures[:1])
    # vacuous when no admissible point exists
    assert verify_dyck_relations(2).instances == 0


def test_modular_relation_smallest_instance():
    # F(nn nee) = (q+1) F(nn ene) - q F(nn een)
    lhs = llt(parse("nnnee" + "e")).convert("e")
    rhs = llt(parse("nnenee")).convert("e").scale(Q + 1) - llt(
        parse("nneene")
    ).convert("e").scale(Q)
    assert lhs == rhs


def test_sarrus_terms_shape():
    plus, minus = sarrus_terms("n", "", "e")
    assert plus == ["nennenee", "nnenneee", "nnneeene"]
    assert minus == ["nennneee", "nneneene", "nnneenee"]
    acc = None
    for word in plus:
        f = llt(parse(word)).convert("e")
        acc = f if acc is None else acc + f
    for word in minus:
        acc = acc - llt(parse(word)).convert("e")
    assert acc.is_zero()


def test_dual_suite_small():
    for n in range(1, 6):
        report = verify_dual_bounce(n)
        assert report.passed, (n, report.failures[:1])


def test_chromatic_suite_small():
    for n in range(1, 5):
        report = verify_chromatic_relations(n)
        assert report.passed, (n, report.failures[:1])


def test_chromatic_multiplicativity():
    f = chromatic(parse("nene")).convert("e")
    g = chromatic(parse("ne")).convert("e")
    assert f == g * g


def test_extended_suite_reported_separately():
    report = SUITES["extended"](4)
    assert report.suite == "extended" and report.passed
    assert "extended" not in [r.suite for r in all_suites(4)]


def _golden_weight(p):
    """The corruption of the golden corpus: q^k area(p) e_(n), k the length of the leading north run."""
    k = len(p.word) - len(p.word.lstrip("n"))
    return SymFunc.basis_element("e", (p.size,), CoeffQT.q(k) * area(p))


@pytest.mark.parametrize("name", list(SUITES))
def test_failure_records_do_not_depend_on_the_route_basis(name):
    route = chromatic if name == "chromatic" else llt
    for n in (4, 5):
        in_m = SUITES[name](n, llt_fn=lambda p: route(p) + _golden_weight(p).convert("m")).to_obj()
        in_e = SUITES[name](n, llt_fn=lambda p: route(p).convert("e") + _golden_weight(p)).to_obj()
        assert in_m == in_e, (name, n)
        assert bool(in_m["failures"]) == bool(in_m["instances"]), (name, n)


def _bounce_everywhere(p):
    """(point, bounce data) at every admissible point of p with a decomposition,
    bouncing at each one: the unfiltered loop the prefilter must agree with."""
    for (x, z) in p.points():
        if 1 <= x and x + 1 < z:
            data = bounce_at(p, (x, z))
            if data.decomposition is not None:
                yield (x, z), data


def test_bounce_prefilter_keeps_every_instance():
    for n in range(1, 7):
        paths = enumerate_paths(n)
        everywhere = {p.word: list(_bounce_everywhere(p)) for p in paths}
        for name, (kinds, single_point, v_east) in relations._BOUNCE_SCOPES.items():
            want = set()
            for word, points in everywhere.items():
                for point, data in points:
                    u, s12, v, s34, w = data.decomposition
                    if s34 != "de" or s12 not in kinds or ("e" in v) != v_east:
                        continue
                    if (len(data.bounce_points) == 1) == single_point:
                        want.add((word, point, data.decomposition))
            got = list(relations._bounce_instances(n, name, SIZE_BOUND))
            assert len(got) == len(set(got)) and set(got) == want, (n, name)

        # the modular sweep: the points at which it checks an instance, path by path
        seen = {}
        for word, point, _lhs, _terms in relations._modular_instances(n, False, SIZE_BOUND):
            seen.setdefault(word, []).append(point)
        for p in paths:
            want = []
            for point, data in everywhere[p.word]:
                u, s12, v, s34, w = data.decomposition
                if s34 != "ee" or len(data.bounce_points) != 1 or not v.endswith("n"):
                    continue
                if s12 == "nn" or (s12 == "en" and u.endswith("n")):
                    want.append(point)
            assert seen.get(p.word, []) == want, p.word
        dyck = [(word, point) for word, point, _lhs, _terms in relations._modular_instances(n, True, SIZE_BOUND)]
        assert dyck == [(word, point) for word, points in seen.items() if "d" not in word for point in points], n


def _refuse(*args, **kwargs):
    raise AssertionError("work started above the bound")


@pytest.mark.parametrize("name", list(SUITES))
def test_suites_refuse_a_size_above_their_bound_before_work(monkeypatch, name):
    monkeypatch.setattr(relations, "enumerate_paths", _refuse)
    with pytest.raises(BoundExceeded):
        SUITES[name](8, llt_fn=_refuse)
    with pytest.raises(BoundExceeded):
        SUITES[name](4, bound=3)
    with pytest.raises(BoundExceeded):
        all_suites(4, bound=3)


def test_a_negative_size_is_refused_with_the_package_error_before_work(monkeypatch):
    monkeypatch.setattr(relations, "enumerate_paths", _refuse)
    for suite in SUITES.values():
        with pytest.raises(InvalidArgument):
            suite(-1, llt_fn=_refuse)
    with pytest.raises(InvalidArgument):
        all_suites(-1)
    with pytest.raises(InvalidArgument):
        dyck_path_graph_formula(-2)


@pytest.mark.parametrize("name", list(SUITES))
def test_suites_pass_their_bound_to_every_route(monkeypatch, name):
    clear_caches()  # a warm value or walk table would call no route at all
    seen = set()
    module = vars(relations)
    callees = [(module, "enumerate_paths"), (module, "dyck_path_graph_formula")] + [(ROUTES, route) for route in ROUTES]
    for table, callee in callees:
        original = table[callee]
        signature = inspect.signature(original)

        def recording(*args, callee=callee, original=original, signature=signature, **kwargs):
            seen.add((callee, signature.bind(*args, **kwargs).arguments.get("bound")))
            return original(*args, **kwargs)

        monkeypatch.setitem(table, callee, recording)
    assert SUITES[name](5, bound=9).passed
    assert {bound for _, bound in seen} == {9}
    assert ("chromatic" if name == "chromatic" else "colorings", 9) in seen


def test_dyck_path_graph_formula():
    assert dyck_path_graph_formula(0).coeffs == {(1,): ONE}
    assert dyck_path_graph_formula(1).coeffs == {(1, 1): ONE, (2,): Q - 1}
    assert dyck_path_graph_formula(2) == llt(parse("nnenee")).convert("e")
    for k in range(0, 5):
        word = "n" + "ne" * k + "e"
        assert dyck_path_graph_formula(k) == llt(parse(word)).convert("e"), k


def test_recursion_evaluate_examples():
    assert recursion_evaluate("nde").coeffs == {(2,): ONE}
    assert recursion_evaluate("nndee").coeffs == {(2, 1): Q, (3,): Q * Q - Q}
    assert recursion_evaluate("nene").coeffs == {(1, 1): ONE}
    with pytest.raises(BoundExceeded):
        recursion_evaluate("n" * 8 + "e" * 8)


def test_recursion_evaluate_restores_the_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        recursion_evaluate("nndenendee")
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(previous)


def test_a_rule_cycle_raises_non_termination_within_the_default_recursion_limit(monkeypatch):
    monkeypatch.setattr(relations, "_RECURSION_CACHE", {})
    monkeypatch.setattr(relations, "_evaluate_uncached", lambda word, depth: relations._evaluate(word, depth + 1))
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(NonTermination):
            recursion_evaluate("nndee")
    finally:
        sys.setrecursionlimit(previous)


def test_recursion_evaluate_refuses_a_size_above_the_degree_bound_whatever_the_bound(monkeypatch):
    def fail(word, depth):
        raise AssertionError("the evaluator started")

    monkeypatch.setattr(relations, "_evaluate", fail)
    big = "n" * (DEGREE_BOUND + 1) + "e" * (DEGREE_BOUND + 1)
    with pytest.raises(BoundExceeded):
        recursion_evaluate(big, bound=DEGREE_BOUND + 1)


@pytest.mark.parametrize("path", [123, None, b"ne", ["n", "e"]])
def test_recursion_evaluate_refuses_what_is_neither_a_path_nor_a_word(monkeypatch, path):
    def fail(word, depth):
        raise AssertionError("the evaluator started")

    monkeypatch.setattr(relations, "_evaluate", fail)
    with pytest.raises(InvalidArgument):
        recursion_evaluate(path)


def test_packed_width_holds_every_coefficient_up_to_the_degree_bound():
    # |coefficient| <= 3^(non-strict edges) <= 3^C(n, 2) fits a signed digit
    assert 3 ** comb(DEGREE_BOUND, 2) < 2 ** (relations._WIDTH - 1)


@pytest.mark.parametrize("word", ["n" * 8 + "e" * 8, "n" * 7 + "d" + "e" * 7, "nnndnnndeeeeee"])
def test_recursion_evaluate_matches_colorings_at_size_8(word):
    p = parse(word)
    assert recursion_evaluate(p, bound=8) == llt(p, bound=8).convert("e")


def test_recursion_evaluate_matches_colorings():
    for n in range(1, 6):
        for p in enumerate_paths(n):
            assert recursion_evaluate(p) == llt(p).convert("e"), p.word


def test_dual_one_pass_equals_the_three_scope_passes():
    # the reference runs the public suites bounceA, bounceND and generalized
    # through a route that reverses every path, and reverses the failure paths back
    def corrupted(p):  # mixes two statistics, so every scope with instances fails
        k = len(p.word) - len(p.word.lstrip("n"))
        return llt(p) + SymFunc.basis_element("m", (p.size,), CoeffQT.q(k) * area(p))

    for fn in (llt, corrupted):
        for n in range(1, 7):
            want = relations.RelationReport("dual")
            for name in ("bounceA", "bounceND", "generalized"):
                sub = SUITES[name](n, llt_fn=lambda p: fn(reverse(p)))
                want.instances += sub.instances
                want.failures += [dict(f, paths=[reverse(parse(w)).word for w in f["paths"]]) for f in sub.failures]
            got = verify_dual_bounce(n, llt_fn=fn)
            assert got.to_obj() == want.to_obj(), (fn.__name__, n)
            assert bool(got.failures) == (fn is corrupted and got.instances > 0), (fn.__name__, n)


# -- the packed check -------------------------------------------------------


def _plus(route, extra):
    """The route plus extra(p), in the route's basis."""
    return lambda p: route(p) + extra(p).convert("m")


def _corruptions(route):
    """The routes the packed check must agree with the exact one on: the default one and six corruptions."""
    return {
        "plain": None,
        "golden in m": _plus(route, _golden_weight),
        "golden in e": lambda p: route(p).convert("e") + _golden_weight(p),
        "rational": _plus(route, lambda p: SymFunc.basis_element("e", (p.size,), Fraction(1, 2))),
        # (t - 1) e_(n) vanishes at t = 1, so only the t-exponent test sees it
        "t-exponent": _plus(route, lambda p: SymFunc.basis_element("e", (p.size,), CoeffQT.t() - 1)),
        "negative q-exponent": _plus(route, lambda p: SymFunc.basis_element("e", (p.size,), CoeffQT.q(-1))),
        # a partition of n + 1 has no slot in the layout of size n
        "another degree": _plus(route, lambda p: SymFunc.basis_element("m", (p.size + 1,))),
    }


# The corrupted chromatic suite at sizes 1..5: failures per size and a digest of the
# reports' sorted JSON, pinned so that any change in how the suite counts or records
# its modular, multiplicativity and initial-condition instances shows.
_CHROMATIC_PINS = {
    "plain": ([0, 0, 0, 0, 0], "31f2d6add3ce9fc7"),
    "golden in m": ([0, 1, 4, 18, 70], "aed3ee6fc0e9a74f"),
    "golden in e": ([0, 1, 4, 18, 70], "aed3ee6fc0e9a74f"),
    "rational": ([1, 2, 5, 15, 49], "bdf380d140d535d4"),
    "t-exponent": ([1, 2, 5, 15, 49], "466f4a3fa44b8dcb"),
    "negative q-exponent": ([1, 2, 5, 15, 49], "a6406742635b8a31"),
    "another degree": ([1, 2, 5, 15, 49], "0cb0156e4b0354ae"),
}


def test_corrupted_chromatic_reports_are_pinned():
    for label, llt_fn in _corruptions(chromatic).items():
        reports = _reports("chromatic", llt_fn)
        failures, digest = _CHROMATIC_PINS[label]
        assert [r["instances"] for r in reports] == [1, 2, 6, 21, 76], label
        assert [len(r["failures"]) for r in reports] == failures, label
        assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()[:16] == digest, label


def _reports(name, llt_fn, sizes=range(1, 6)):
    return [SUITES[name](n, llt_fn=llt_fn).to_obj() for n in sizes]


@pytest.mark.parametrize("name", list(SUITES))
def test_the_packed_check_gives_the_exact_reports(monkeypatch, name):
    route = chromatic if name == "chromatic" else llt
    for label, llt_fn in _corruptions(route).items():
        clear_caches()
        with monkeypatch.context() as m:
            # the reference forms every discrepancy through linear_combination
            m.setattr(relations._Suite, "pack", lambda self, f: None)
            want = _reports(name, llt_fn)
        clear_caches()
        assert _reports(name, llt_fn) == want, (name, label)
        if label.startswith("golden"):  # fails wherever there are instances at sizes 4 and 5
            assert all(bool(r["failures"]) == bool(r["instances"]) for r in want[3:]), (name, label)
    clear_caches()


@pytest.mark.parametrize("name", [name for name in SUITES if name != "chromatic"])
def test_a_passing_default_suite_forms_no_discrepancy(monkeypatch, name):
    clear_caches()
    monkeypatch.setattr(relations, "linear_combination", _refuse)
    assert all(r["passed"] for r in _reports(name, None))


def test_a_coefficient_at_the_digit_bound_takes_the_exact_path(monkeypatch):
    n, word = 4, "nndede"  # an instance word of unicellular, bounceA, bounceB and dual at size 4
    width = relations._Suite("bounceA", n, None, "colorings", n).width
    limit = 1 << (width - 4)
    assert limit > factorial(n) and 6 * limit < 1 << (width - 1)
    for c, packs in ((limit - 1, True), (1 - limit, True), (limit, False), (-limit, False)):
        def route(p, c=c):
            f = llt(p)
            if p.word != word:
                return f
            coeffs = dict(f.coeffs)
            coeffs[(n,)] = CoeffQT.from_rational(c)
            return SymFunc("m", coeffs)

        assert (relations._Suite("bounceA", n, route, "colorings", n).pack(route(parse(word))) is not None) == packs, c
        names = ("unicellular", "bounceA", "bounceB", "dual")
        got = [SUITES[name](n, llt_fn=route).to_obj() for name in names]
        with monkeypatch.context() as m:
            m.setattr(relations._Suite, "pack", lambda self, f: None)
            want = [SUITES[name](n, llt_fn=route).to_obj() for name in names]
        assert got == want, c
        assert all(r["failures"] for r in got), c


def test_a_route_in_two_bases_is_refused_as_the_exact_check_refuses_it():
    # the same coefficients under another basis pack to the same int
    def route(p):
        f = llt(p)
        return SymFunc.from_canonical("e", f.coeffs) if p.word == "nndede" else f

    with pytest.raises(LLTError):
        verify_bounce_A(4, llt_fn=route)


def test_reports_are_the_same_cold_and_warm():
    clear_caches()
    cold = [suite.to_obj() for n in range(1, 6) for suite in all_suites(n) + [verify_extended_bounce(n)]]
    warm = [suite.to_obj() for n in range(1, 6) for suite in all_suites(n) + [verify_extended_bounce(n)]]
    assert cold == warm


@pytest.mark.parametrize("name", list(SUITES))
def test_an_injected_route_runs_once_per_word_of_a_call(name):
    route = chromatic if name == "chromatic" else llt
    corrupted = _plus(route, _golden_weight)
    calls: dict[str, int] = {}

    def counted(p):
        calls[p.word] = calls.get(p.word, 0) + 1
        return corrupted(p)

    n = 5  # every suite has instances, and every one fails under the golden corruption
    report = SUITES[name](n, llt_fn=counted)
    assert calls and set(calls.values()) == {1}, {w: c for w, c in calls.items() if c > 1}
    assert report.to_obj() == SUITES[name](n, llt_fn=corrupted).to_obj()
    assert report.failures


@pytest.mark.parametrize("route_name", [name for name in ROUTES if name not in ("colorings", "chromatic")])
def test_every_suite_but_chromatic_holds_on_the_recursion_and_orientation_routes(monkeypatch, route_name):
    # the relations hold on each route's own values, with the default route's
    # instance counts; every instance passes packed, so no discrepancy is formed
    route = ROUTES[route_name]
    names = [name for name in SUITES if name != "chromatic"]
    want = {name: [SUITES[name](n).instances for n in range(1, 7)] for name in names}
    monkeypatch.setattr(relations, "linear_combination", _refuse)
    for name in names:
        reports = [SUITES[name](n, llt_fn=route) for n in range(1, 7)]
        assert all(r.passed for r in reports), name
        assert [r.instances for r in reports] == want[name], name


@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_gives_the_empty_path_the_value_one(route):
    clear_caches()  # the evaluator's memo would answer without its empty-word rule
    assert ROUTES[route](parse("")).convert("e") == SymFunc.basis_element("e", ())


def test_the_coloring_route_is_multiplicative_in_e():
    # the evaluator's multiplicativity axiom, G_(PQ) = G_P G_Q, on every
    # concatenation of two nonempty paths of total size <= 6
    paths = {n: enumerate_paths(n) for n in range(1, 6)}
    checked = 0
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for p in paths[a]:
                for q in paths[b]:
                    assert llt(parse(p.word + q.word)).convert("e") == llt(p).convert("e") * llt(q).convert("e"), (p.word, q.word)
                    checked += 1
    assert checked == 979
