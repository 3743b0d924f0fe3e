import pytest

from lltpaths import harmonics
from lltpaths.coeffring import CoeffQT
from lltpaths.errors import BoundExceeded, InvalidArgument
from lltpaths.harmonics import (
    hall_littlewood,
    nabla_e,
    nabla_p,
    survey_e_coefficients,
)
from lltpaths.llt import llt
from lltpaths.partitions import conjugate, kostka, partitions_of, weak_compositions
from lltpaths.schroeder import nu_alpha
from lltpaths.symfunc import linear_combination

Q = CoeffQT.q()
T = CoeffQT.t()
ONE = CoeffQT.one()


def test_nabla_p_table_row_1():
    assert nabla_p(1).coeffs == {(1,): ONE}


def test_nabla_p_table_row_2():
    assert nabla_p(2).coeffs == {(2,): ONE, (1, 1): Q + T + Q * T}


def test_nabla_p_table_row_3():
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


def test_nabla_p_bound():
    with pytest.raises(BoundExceeded):
        nabla_p(8)


@pytest.mark.parametrize("call", [lambda: nabla_e(-2), lambda: survey_e_coefficients(-1)])
def test_negative_sizes_are_refused(call):
    with pytest.raises(InvalidArgument):
        call()


def test_nabla_e_small():
    assert nabla_e(0).convert("s").coeffs == {(): ONE}
    assert nabla_e(1).convert("s").coeffs == {(1,): ONE}
    assert nabla_e(2).convert("s").coeffs == {(2,): ONE, (1, 1): Q + T}


def test_nabla_e_qt_symmetry():
    # a mis-specified bounce statistic would break this immediately
    for n in range(1, 5):
        f = nabla_e(n)
        assert f == f.map_coeffs(lambda c: c.swap_qt()), n


def test_nabla_e_shifted_positivity_small():
    for n in range(1, 5):
        f = nabla_e(n).shift_q(1)
        assert all(c.is_nonneg() and c.is_integral() for c in f.coeffs.values()), n


def test_nabla_e_dimension_count():
    # the x_1...x_n coefficient at q = t = 1 counts parking functions
    for n in range(1, 5):
        c = nabla_e(n).coefficient("m", (1,) * n)
        c = c.specialize_q(1).swap_qt().specialize_q(1)
        assert c == CoeffQT.from_rational((n + 1) ** (n - 1)), n


def test_hall_littlewood_small_values():
    assert hall_littlewood((1, 1)).coeffs == {(2,): ONE}
    assert hall_littlewood((2,)).coeffs == {(1, 1): ONE, (2,): Q}
    assert hall_littlewood((2, 1)).coeffs == {(2, 1): ONE, (3,): Q}


def test_hall_littlewood_specializations():
    for n in range(1, 6):
        for mu in partitions_of(n):
            h = hall_littlewood(mu)
            mup = conjugate(mu)
            assert h.map_coeffs(lambda c: c.specialize_q(0)).coeffs == {mup: ONE}, mu
            at_one = h.map_coeffs(lambda c: c.specialize_q(1))
            expected = {
                nu: CoeffQT.from_rational(kostka(nu, mup))
                for nu in partitions_of(n)
                if kostka(nu, mup)
            }
            assert at_one.coeffs == expected, mu


def test_hall_littlewood_prefactor_cancels():
    for n in range(1, 7):
        for mu in partitions_of(n):
            h = hall_littlewood(mu)
            for c in h.coeffs.values():
                assert all(eq >= 0 for eq, _ in c.terms), mu


def test_survey_shape():
    report = survey_e_coefficients(4)
    assert report.all_nonneg
    assert report.entries
    entry = report.entries[0]
    assert entry.mode == max(
        range(len(entry.coefficients)), key=lambda i: entry.coefficients[i]
    )
    obj = report.to_obj()
    assert obj["coefficients_checked"] == len(report.entries)
    with pytest.raises(BoundExceeded):
        survey_e_coefficients(8)


@pytest.mark.parametrize("n", [4, 5])
def test_nabla_p_expands_each_path_once_and_equals_the_sum_over_compositions(monkeypatch, n):
    cars = [nu_alpha(alpha) for alpha in weak_compositions(n, n)]
    reference = linear_combination("s", [(CoeffQT.monomial(below, a), llt(path).convert("s")) for path, a, below in cars])
    calls = []
    monkeypatch.setattr(harmonics, "llt", lambda path, bound: calls.append(path.word) or llt(path, bound))
    assert nabla_p(n) == reference
    assert sorted(calls) == sorted({path.word for path, _, _ in cars})
    assert len(calls) < len(cars)
