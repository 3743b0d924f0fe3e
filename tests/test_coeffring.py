import random

import pytest
from fractions import Fraction

from lltpaths.coeffring import CoeffQT
from lltpaths.errors import InvalidArgument, NegativeExponentShift, NotDivisible
from lltpaths.symfunc import SymFunc

Q = CoeffQT.q()
T = CoeffQT.t()


def random_poly(rng, degree=6, terms=4):
    out = CoeffQT.zero()
    for _ in range(rng.randint(0, terms)):
        out = out + CoeffQT.monomial(
            rng.randint(-degree, degree),
            rng.randint(-degree, degree),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
    return out


def test_add_examples():
    assert Q + (-Q) == CoeffQT.zero()
    assert (Q - 1) + 1 == Q
    # the s_11 coefficient of the n=2 nabla-p row
    assert (Q + T) + Q * T == CoeffQT({(1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_mul_examples():
    assert (Q - 1) * (Q + 1) == Q * Q - 1
    assert CoeffQT.q(-1) * Q == CoeffQT.one()
    assert (Q - 1) ** 2 == Q * Q - 2 * Q + 1


def test_exact_div_examples():
    assert (Q * Q - Q).exact_div(Q - 1) == Q
    assert (Q * Q - 1).exact_div(Q + 1) == Q - 1
    with pytest.raises(NotDivisible):
        Q.exact_div(Q - 1)
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(CoeffQT.zero())


def test_exact_div_roundtrip_random():
    rng = random.Random(2024)
    checked = 0
    while checked < 300:
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        checked += 1


def test_shift_q_examples():
    assert CoeffQT.q(2).shift_q(1) == Q * Q + 2 * Q + 1
    assert (Q + 1).shift_q(-1) == Q
    # expand (q+1)^2 - (q+1)
    assert (Q * Q - Q).shift_q(1) == Q * Q + Q
    with pytest.raises(NegativeExponentShift):
        CoeffQT.q(-1).shift_q(1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CoeffQT.q(0.5),
        lambda: CoeffQT.t(1.0),
        lambda: CoeffQT({(0.5, 0): 1}),
        lambda: CoeffQT.monomial(1.5),
        lambda: CoeffQT.monomial(0, Fraction(1, 2)),
        lambda: Q.shift_q(0.5),
        lambda: CoeffQT.zero().shift_q(0.5),
        lambda: SymFunc("e", {(1,): Q}).shift_q(0.5),
        lambda: SymFunc("e", {}).shift_q(1.0),
    ],
)
def test_a_non_integer_exponent_or_a_float_shift_is_refused(build):
    # an exponent is never truncated, and a shift stays exact
    with pytest.raises(InvalidArgument):
        build()


def test_a_rational_shift_stays_exact():
    assert (Q * Q).shift_q(Fraction(1, 2)) == Q * Q + Q + Fraction(1, 4)
    assert SymFunc("e", {(1,): Q}).shift_q(Fraction(1, 2)) == SymFunc("e", {(1,): Q + Fraction(1, 2)})


def test_shift_q_inverse():
    rng = random.Random(5)
    for _ in range(200):
        a = random_poly(rng)
        a = CoeffQT({(abs(eq), et): v for (eq, et), v in a.terms.items()})
        assert a.shift_q(1).shift_q(-1) == a


def test_subst_q_reciprocal():
    assert CoeffQT.q(2).subst_q_reciprocal() == CoeffQT.q(-2)
    assert (Q + 1).subst_q_reciprocal() == CoeffQT.q(-1) + 1
    assert CoeffQT.from_rational(5).subst_q_reciprocal() == 5
    rng = random.Random(11)
    for _ in range(200):
        a = random_poly(rng)
        assert a.subst_q_reciprocal().subst_q_reciprocal() == a


def test_is_nonneg():
    assert (Q * Q + Q).is_nonneg()
    assert not (Q - 1).is_nonneg()
    assert CoeffQT.zero().is_nonneg()


def test_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(1000):
        a = random_poly(rng, degree=3, terms=3)
        b = random_poly(rng, degree=3, terms=3)
        c = random_poly(rng, degree=3, terms=3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_canonical_no_zero_terms():
    a = Q - Q
    assert a.terms == {}
    assert (Q + (-1) * Q).terms == {}


def test_serialization_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        a = random_poly(rng)
        assert CoeffQT.from_obj(a.to_obj()) == a
    obj = (Q * T + 1).to_obj()
    assert obj == [
        {"q": 0, "t": 0, "num": "1", "den": "1"},
        {"q": 1, "t": 1, "num": "1", "den": "1"},
    ]


def test_str_rendering():
    assert str(CoeffQT.zero()) == "0"
    assert str(Q * Q - 2 * Q + 1) == "q^2 - 2*q + 1"
    assert str(Q + T + Q * T) == "q*t + q + t"


def assert_canonical(a):
    """Every stored value is a nonzero int, or a Fraction that is not integral."""
    for v in a.terms.values():
        assert v != 0
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), (a, v)


def test_exact_div_of_integers_never_gives_a_float():
    c = (2 * Q).exact_div(CoeffQT.from_rational(3))
    assert c.terms == {(1, 0): Fraction(2, 3)}
    assert type(c.terms[(1, 0)]) is Fraction
    assert (6 * Q * T).exact_div(CoeffQT.from_rational(3)).terms == {(1, 1): 2}
    assert (Q * Q - 1).exact_div(2 * Q + 2) == CoeffQT({(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 2)})
    # an int value of q, with a negative exponent that divides by it
    assert (Q * Q - 3 * Q * T + 2).specialize_q(2).terms == {(0, 0): 6, (0, 1): -6}
    assert (3 * CoeffQT.q(-2) + T).specialize_q(2).terms == {(0, 0): Fraction(3, 4), (0, 1): 1}
    for a in (
        c,
        (Q * Q - 1).exact_div(2 * Q + 2),
        (3 * CoeffQT.q(-2) + T).specialize_q(2),
        (5 * CoeffQT.q(-1)).specialize_q(Fraction(5, 2)),
    ):
        assert_canonical(a)
        assert not any(isinstance(v, float) for v in a.terms.values())


def test_canonical_form_of_every_operation():
    half = Fraction(1, 2)
    assert (half * Q) * 2 == Q
    assert ((half * Q) * 2).terms == {(1, 0): 1}
    assert (half * Q + half * Q).terms == {(1, 0): 1}
    assert ((half * Q) ** 2 * 4).terms == {(2, 0): 1}
    assert (Q - half * Q).terms == {(1, 0): half}
    rng = random.Random(77)
    for _ in range(300):
        a = random_poly(rng, degree=3, terms=4)
        b = random_poly(rng, degree=3, terms=4)
        shiftable = CoeffQT({(abs(eq), et): v for (eq, et), v in a.terms.items()})
        results = [
            a, a + b, a - b, -a, a * b, a**2, b**3, a + 1, 2 - a, a * 3, 4 * a, a * 0, Fraction(2, 3) * a,
            shiftable.shift_q(1), shiftable.shift_q(-2),
            a.specialize_q(1), a.specialize_q(-2), a.specialize_q(Fraction(2, 3)),
            CoeffQT.from_obj(a.to_obj()),
        ]
        if not b.is_zero():
            results.append((a * b).exact_div(b))
        for r in results:
            assert_canonical(r)


def test_integral_fraction_and_int_are_one_value():
    a = CoeffQT({(0, 0): Fraction(4, 2)})
    b = CoeffQT({(0, 0): 2})
    assert a == b and hash(a) == hash(b)
    assert a.to_obj() == b.to_obj() == [{"q": 0, "t": 0, "num": "2", "den": "1"}]
    assert type(a.terms[(0, 0)]) is int
    assert CoeffQT({(0, 0): Fraction(1)}).is_one()
    assert CoeffQT.from_obj([{"q": 1, "t": 0, "num": "6", "den": "3"}]).terms == {(1, 0): 2}


@pytest.mark.parametrize("v", [0, 3, -1, Fraction(1, 2)])
def test_a_constant_hashes_as_the_rational_it_equals(v):
    c = CoeffQT.from_rational(v)
    assert c == v and hash(c) == hash(v)
    assert v in {c} and c in {v}
    assert {c: 1}.get(v) == 1 and {v: 1}.get(c) == 1
    assert {CoeffQT.zero(): 1}.get(0) == 1


@pytest.mark.parametrize("signed", [False, True])
def test_from_packed_reads_back_the_value_at_a_power_of_two(signed):
    rng = random.Random(5)
    width = 8
    low = -(1 << (width - 1)) if signed else 0
    for _ in range(200):
        coeffs = [rng.randrange(low, low + (1 << width)) for _ in range(rng.randint(0, 6))]
        poly = CoeffQT({(e, 0): c for e, c in enumerate(coeffs)})
        value = sum(c << width * e for e, c in enumerate(coeffs))
        assert CoeffQT.from_packed(value, width, signed=signed) == poly
