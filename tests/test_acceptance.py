"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact arithmetic; there are no tolerances to
tune.  The relation suites share their packed values per size, and the
chromatic and evaluator memos serve every test that reads them again;
the coloring and orientation routes keep no value, so each test that
sweeps them pays for its own.  The whole gate runs in well under a minute.
"""

import time

from lltpaths.coeffring import CoeffQT
from lltpaths.harmonics import hall_littlewood, nabla_e, nabla_p
from lltpaths.llt import (
    asc_coloring,
    chromatic,
    llt,
    orientation_e_expansion,
)
from lltpaths.llt import Orientation, asc_orientation, lambda_theta
from lltpaths.partitions import conjugate, kostka, partitions_of
from lltpaths.relations import all_suites, recursion_evaluate
from lltpaths.schroeder import (
    area,
    bounce_at,
    enumerate_paths,
    graph,
    nu_alpha,
    parse,
    reverse,
)
from lltpaths.schur import elw_schur, kostka_schur

Q = CoeffQT.q()
T = CoeffQT.t()
ONE = CoeffQT.one()


def _report(number, name, started):
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({time.time() - started:.1f}s)")


def test_criterion_01_schroeder_counts():
    started = time.time()
    counts = [len(enumerate_paths(n)) for n in range(1, 6)]
    assert counts == [1, 3, 11, 45, 197]
    assert time.time() - started < 1.0
    _report(1, "Schroeder counts 1,3,11,45,197", started)


def test_criterion_02_worked_schur_example_three_methods():
    started = time.time()
    expected = {(1, 1, 1): Q * Q, (2, 1): Q}
    path = parse("nndee")
    assert llt(path).convert("s").coeffs == expected
    assert recursion_evaluate(path).convert("s").coeffs == expected
    from lltpaths.llt import llt_via_orientations

    assert llt_via_orientations(path).convert("s").coeffs == expected
    assert time.time() - started < 1.0
    _report(2, "nndee = q^2 s111 + q s21 by all three methods", started)


def test_criterion_03_main_identity_n_up_to_6():
    started = time.time()
    total = 0
    for n in range(1, 7):
        for p in enumerate_paths(n):
            total += 1
            lhs = llt(p).shift_q(1).convert("e")
            rhs = orientation_e_expansion(p)
            assert lhs == rhs, p.word
    assert total == 1 + 3 + 11 + 45 + 197 + 903
    assert time.time() - started < 300
    _report(3, f"main identity on all {total} paths", started)


def test_criterion_04_relation_suites_n_up_to_6():
    started = time.time()
    checked = {}
    for n in range(1, 7):
        for report in all_suites(n):
            assert report.passed, (n, report.suite, report.failures[:1])
            checked[report.suite] = checked.get(report.suite, 0) + report.instances
    assert set(checked) == {
        "unicellular",
        "bounceA",
        "bounceB",
        "bounceND",
        "generalized",
        "dyck",
        "dual",
        "chromatic",
    }
    assert all(count > 0 for count in checked.values()), checked
    assert time.time() - started < 600
    _report(4, f"relation suites, instance counts {checked}", started)


def test_criterion_05_axiomatic_evaluator_n_up_to_6():
    started = time.time()
    for n in range(1, 7):
        for p in enumerate_paths(n):
            assert recursion_evaluate(p) == llt(p).convert("e"), p.word
    _report(5, "recursion evaluator equals coloring enumeration", started)


def test_criterion_06_schur_triple_agreement_n_up_to_5():
    started = time.time()
    for n in range(1, 6):
        for p in enumerate_paths(n):
            a = elw_schur(p)
            b = kostka_schur(p)
            c = llt(p).convert("s")
            assert a.coeffs == b.coeffs == c.coeffs, p.word
    _report(6, "elw = kostka = convert on all paths to n=5", started)


def test_criterion_07_nabla_p_table():
    started = time.time()
    assert nabla_p(1).coeffs == {(1,): ONE}
    assert nabla_p(2).coeffs == {(2,): ONE, (1, 1): Q + T + Q * T}
    c21 = Q + Q**2 + T + Q * T + Q**2 * T + T**2 + Q * T**2 + Q**2 * T**2
    c111 = (
        Q**3
        + Q * T
        + Q**2 * T
        + Q**3 * T
        + Q * T**2
        + Q**2 * T**2
        + Q**3 * T**2
        + T**3
        + Q * T**3
        + Q**2 * T**3
    )
    assert nabla_p(3).coeffs == {(3,): ONE, (2, 1): c21, (1, 1, 1): c111}
    assert time.time() - started < 60
    _report(7, "nabla-p rows n=1,2,3 coefficient-for-coefficient", started)


def test_criterion_08_shuffle_positivity_n_up_to_5():
    started = time.time()
    for n in range(1, 6):
        f = nabla_e(n).shift_q(1)
        for c in f.coeffs.values():
            assert c.is_nonneg() and c.is_integral(), n
    _report(8, "nabla-e e-coefficients in N[q,t] after q->q+1", started)


def test_criterion_09_plethystic_bridge_n_up_to_5():
    started = time.time()
    for n in range(1, 6):
        divisor = (Q - 1) ** n
        for p in enumerate_paths(n, dyck_only=True):
            bridged = llt(p).pleth_q_minus_1().map_coeffs(
                lambda c: c.exact_div(divisor)
            )
            assert bridged == chromatic(p), p.word
    _report(9, "plethystic bridge with exact division", started)


def test_criterion_10_reverse_invariance_and_omega_relation():
    started = time.time()
    for n in range(1, 7):
        for p in enumerate_paths(n):
            assert llt(p) == llt(reverse(p)), p.word
    for n in range(1, 6):
        for p in enumerate_paths(n, dyck_only=True):
            lhs = llt(p).omega()
            rhs = llt(p).map_coeffs(
                lambda c: c.subst_q_reciprocal() * CoeffQT.q(area(p))
            )
            assert lhs == rhs, p.word
    _report(10, "reverse invariance (n<=6) and omega relation (Dyck n<=5)", started)


def test_criterion_11_hall_littlewood_specializations():
    started = time.time()
    for n in range(1, 6):
        for mu in partitions_of(n):
            h = hall_littlewood(mu)  # raises NotDivisible on a broken prefactor
            mup = conjugate(mu)
            assert h.map_coeffs(lambda c: c.specialize_q(0)).coeffs == {mup: ONE}
            expected = {
                nu: CoeffQT.from_rational(kostka(nu, mup))
                for nu in partitions_of(n)
                if kostka(nu, mup)
            }
            assert h.map_coeffs(lambda c: c.specialize_q(1)).coeffs == expected
    _report(11, "Hall-Littlewood q=0 and q=1 oracles, |mu| <= 5", started)


def test_criterion_12_example_value_regressions():
    started = time.time()
    assert area(parse("nndnnenedeee")) == 12
    assert bounce_at(parse("nnddndeee"), (3, 6)).partition == (6, 3, 1, 0)
    g = graph(parse("nndnnenedeee"))
    assert asc_coloring(g, (4, 2, 5, 1, 3, 1, 2)) == 4
    g2 = graph(parse("nnnddeneee"))
    ascending = {(1, 3), (2, 3), (2, 4), (3, 4), (5, 6)}
    theta = Orientation(
        frozenset(
            e if (e in g2.strict or e in ascending) else (e[1], e[0])
            for e in g2.edges
        )
    )
    assert lambda_theta(g2, theta) == (3, 3)
    assert asc_orientation(g2, theta) == 5
    _, area_alpha, below = nu_alpha((0, 3, 1, 0, 2, 0))
    assert area_alpha == 8 and below == 1
    assert time.time() - started < 1.0
    _report(12, "worked-example value regressions", started)
