from math import comb

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


@pytest.mark.parametrize("mu", [(2.0, 1), (2, -1), (1, 2), ("a",)])
def test_hall_littlewood_refuses_a_malformed_partition(mu):
    with pytest.raises(InvalidArgument):
        hall_littlewood(mu)


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


def _q_binomial(n, k):
    """The Gaussian binomial [n choose k]_q, by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return CoeffQT()
    if k in (0, n):
        return ONE
    return _q_binomial(n - 1, k - 1) + Q**k * _q_binomial(n - 1, k)


def _qt_catalan(n):
    """C_n(q,t) by the Garsia-Haglund recursion (Discrete Math. 256, 2002):
    F_{n,n} = q^C(n,2), F_{n,k} = t^(n-k) q^C(k,2) sum_{r=1}^{n-k} [r+k-1 choose r]_q F_{n-k,r},
    and C_n = sum_k F_{n,k}."""
    f = {}
    for m in range(1, n + 1):
        for k in range(m, 0, -1):
            inner = sum((_q_binomial(r + k - 1, r) * f[m - k, r] for r in range(1, m - k + 1)), CoeffQT())
            f[m, k] = Q ** comb(m, 2) if k == m else T ** (m - k) * Q ** comb(k, 2) * inner
    return sum((f[n, k] for k in range(1, n + 1)), CoeffQT())


def test_qt_catalan_recursion_small():
    assert _qt_catalan(1) == ONE
    assert _qt_catalan(2) == Q + T
    assert _qt_catalan(3) == Q**3 + Q**2 * T + Q * T + Q * T**2 + T**3


def _assert_schur_positive_and_qt_symmetric(f):
    # Haiman (2002): every Schur coefficient lies in N[q,t], and is q <-> t symmetric
    for lam, c in f.convert("s").coeffs.items():
        assert all(a >= 0 and b >= 0 and v.__class__ is int and v > 0 for (a, b), v in c.terms.items()), lam
        assert c == c.swap_qt(), lam


@pytest.mark.parametrize("n", range(1, 8))
def test_nabla_e_is_schur_positive_symmetric_and_its_sign_coefficient_is_the_qt_catalan_number(n):
    # checks the corner collapse and the bounce statistic without going through
    # the relations; the s_(1^n) coefficient alone, sum of q^area t^bounce, does
    # not see which corners collapse, the symmetry does
    f = nabla_e(n)
    _assert_schur_positive_and_qt_symmetric(f)
    assert f.convert("s").coeffs[(1,) * n] == _qt_catalan(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_nabla_p_is_schur_positive_symmetric_and_counts_labelled_square_paths(n):
    # checks the car-diagram paths: (-1)^(n-1) nabla p_n is Schur positive and
    # q <-> t symmetric, and at q = t = 1 its x_1...x_n coefficient counts the
    # n^n labelled square paths (Loehr-Warrington)
    f = nabla_p(n)
    _assert_schur_positive_and_qt_symmetric(f)
    assert sum(f.coefficient("m", (1,) * n).terms.values()) == n**n
