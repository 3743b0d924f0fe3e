import random

from fractions import Fraction
from math import factorial, gcd

import pytest

from lltpaths import symfunc
from lltpaths.coeffring import CoeffQT
from lltpaths.errors import InvalidArgument, LLTError, NotDivisible
from lltpaths.llt import llt
from lltpaths.partitions import kostka, partitions_of
from lltpaths.schroeder import enumerate_paths
from lltpaths.symfunc import BASES, SymFunc, linear_combination, straighten_schur

Q = CoeffQT.q()


def random_symfunc(rng, basis, max_degree=5):
    coeffs = {}
    for d in range(max_degree + 1):
        for lam in partitions_of(d):
            if rng.random() < 0.3:
                coeffs[lam] = CoeffQT.monomial(
                    rng.randint(0, 2), rng.randint(0, 1), rng.randint(-3, 3)
                )
    return SymFunc(basis, coeffs)


def test_convert_examples():
    e2 = SymFunc.basis_element("e", (2,))
    assert e2.convert("m").coeffs == {(1, 1): CoeffQT.one()}
    p2 = SymFunc.basis_element("p", (2,))
    assert p2.convert("m").coeffs == {(2,): CoeffQT.one()}
    s21 = SymFunc.basis_element("s", (2, 1))
    assert s21.convert("e").coeffs == {(2, 1): CoeffQT.one(), (3,): -CoeffQT.one()}


def test_convert_roundtrips_random():
    rng = random.Random(17)
    for basis in "mehps":
        for _ in range(8):
            f = random_symfunc(rng, basis)
            for target in "mehps":
                assert f.convert(target).convert(basis) == f, (basis, target)


def test_schur_to_monomial_is_kostka():
    for n in range(0, 7):
        for mu in partitions_of(n):
            expansion = SymFunc.basis_element("s", mu).convert("m")
            expected = {
                lam: CoeffQT.from_rational(kostka(mu, lam))
                for lam in partitions_of(n)
                if kostka(mu, lam)
            }
            assert expansion.coeffs == expected, mu


def test_dual_kostka_gives_h():
    # sum_mu K_{mu lam} s_mu = h_lam
    for n in range(0, 6):
        for lam in partitions_of(n):
            total = SymFunc(
                "s",
                {mu: kostka(mu, lam) for mu in partitions_of(n) if kostka(mu, lam)},
            )
            assert total.convert("h").coeffs == {lam: CoeffQT.one()}, lam


def test_multiply_examples():
    e1 = SymFunc.basis_element("e", (1,))
    assert (e1 * e1).coeffs == {(1, 1): CoeffQT.one()}
    e2 = SymFunc.basis_element("e", (2,))
    assert (e2 * SymFunc.one("e")).coeffs == e2.coeffs
    m1 = SymFunc.basis_element("m", (1,))
    assert (m1 * m1).coeffs == {
        (2,): CoeffQT.one(),
        (1, 1): CoeffQT.from_rational(2),
    }


def test_multiplicative_fast_path_agrees_with_m_route():
    rng = random.Random(23)
    for basis in "ehp":
        for _ in range(6):
            f = random_symfunc(rng, basis, max_degree=3)
            g = random_symfunc(rng, basis, max_degree=3)
            fast = f * g
            slow = (f.convert("m") * g.convert("m")).convert(basis)
            assert fast == slow, basis


def test_omega():
    assert SymFunc.basis_element("e", (2, 1)).omega().convert("h").coeffs == {
        (2, 1): CoeffQT.one()
    }
    assert SymFunc.basis_element("p", (2,)).omega().coeffs == {(2,): -CoeffQT.one()}
    for n in range(0, 7):
        for lam in partitions_of(n):
            f = SymFunc.basis_element("e", lam)
            assert f.omega().convert("h").coeffs == {lam: CoeffQT.one()}, lam
    rng = random.Random(31)
    for _ in range(10):
        f = random_symfunc(rng, "s")
        assert f.omega().omega() == f


def _omega_by_power_sums(f: SymFunc) -> SymFunc:
    """The reference omega: p_k -> (-1)^(k-1) p_k, through the rational p-basis."""
    out = {lam: c if (sum(lam) - len(lam)) % 2 == 0 else -c for lam, c in f.convert("p").coeffs.items()}
    return SymFunc("p", out).convert(f.basis)


def test_omega_matches_the_power_sum_formula():
    for basis in BASES:
        for n in range(7):
            for lam in partitions_of(n):
                f = SymFunc.basis_element(basis, lam)
                assert f.omega() == _omega_by_power_sums(f), (basis, lam)
    for n in range(1, 6):
        for p in enumerate_paths(n):
            f = llt(p)
            assert f.omega() == _omega_by_power_sums(f), p.word


def test_pleth_examples():
    p1 = SymFunc.basis_element("p", (1,))
    assert p1.pleth_q_minus_1().coeffs == {(1,): Q - 1}
    p11 = SymFunc.basis_element("p", (1, 1))
    assert p11.pleth_q_minus_1().coeffs == {(1, 1): (Q - 1) ** 2}
    e2 = SymFunc.basis_element("e", (2,)).pleth_q_minus_1().convert("p")
    assert e2.coeffs == {
        (1, 1): (Q - 1) ** 2 * Fraction(1, 2),
        (2,): (CoeffQT.q(2) - 1) * Fraction(-1, 2),
    }


def test_pleth_is_algebra_homomorphism():
    rng = random.Random(41)
    for _ in range(6):
        f = random_symfunc(rng, "p", max_degree=3)
        g = random_symfunc(rng, "p", max_degree=3)
        lhs = (f * g).pleth_q_minus_1()
        rhs = f.pleth_q_minus_1() * g.pleth_q_minus_1()
        assert lhs == rhs


def test_straighten_schur():
    assert straighten_schur((1, 2)) is None
    assert straighten_schur((2, 1)) == (1, (2, 1))
    assert straighten_schur((1, 3, 1)) == (-1, (2, 2, 1))
    assert straighten_schur((0, 2)) == (-1, (1, 1))
    assert straighten_schur((0, 1)) is None
    # already-partition compositions come back with sign +1
    for lam in partitions_of(5):
        assert straighten_schur(lam) == (1, lam)


def test_coefficient_and_json():
    e3 = SymFunc.basis_element("e", (3,))
    assert e3.coefficient("e", (3,)) == CoeffQT.one()
    assert e3.coefficient("e", (2, 1)) == CoeffQT.zero()
    rng = random.Random(53)
    f = random_symfunc(rng, "s")
    assert SymFunc.from_obj(f.to_obj()) == f


def test_mixed_degree_conversion():
    f = SymFunc("e", {(2,): 1, (1, 1, 1): Q})
    m = f.convert("m")
    assert f.convert("m").convert("e") == f
    assert sorted(f.degrees()) == [2, 3]
    assert m.coefficient("e", (2,)) == CoeffQT.one()


def test_conversions_keep_integral_coefficients_as_int():
    rng = random.Random(8)
    for _ in range(20):
        f = random_symfunc(rng, rng.choice("mehs"), max_degree=4)
        for target in "mehs":
            for c in f.convert(target).coeffs.values():
                assert all(type(v) is int for v in c.terms.values()), (f, target)
    # only the power-sum basis brings in 1/z_lambda
    p = SymFunc("e", {(2,): 1}).convert("p")
    assert p.coeffs == {(1, 1): CoeffQT.from_rational(Fraction(1, 2)), (2,): CoeffQT.from_rational(Fraction(-1, 2))}
    back = p.convert("e")
    assert back == SymFunc("e", {(2,): 1}) and type(back.coeffs[(2,)].terms[(0, 0)]) is int


def random_laurent(rng):
    """A CoeffQT of up to three terms: negative exponents in q and t, int or Fraction values."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        v = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(2, 4))])
        terms[(rng.randint(-2, 3), rng.randint(-2, 2))] = v
    return CoeffQT(terms)


def random_laurent_symfunc(rng, basis, max_degree=4):
    return SymFunc(
        basis,
        {lam: random_laurent(rng) for d in range(max_degree + 1) for lam in partitions_of(d) if rng.random() < 0.4},
    )


def assert_canonical(f):
    for lam, c in f.coeffs.items():
        assert c.terms, lam
        for v in c.terms.values():
            assert v != 0 and (type(v) is int or v.denominator > 1), (lam, c)


def test_linear_combination_equals_the_symfunc_chain():
    rng = random.Random(5)
    for _ in range(60):
        basis = rng.choice(BASES)
        a = random_laurent_symfunc(rng, basis)
        rest = [(rng.choice([random_laurent(rng), rng.randint(-2, 2), Fraction(1, 3)]), random_laurent_symfunc(rng, basis)) for _ in range(rng.randint(0, 4))]
        if a.coeffs and rng.random() < 0.5:
            # cancel one term of one partition, or a whole partition
            lam, c = rng.choice(sorted(a.coeffs.items()))
            key = rng.choice(sorted(c.terms))
            part = CoeffQT({key: c.terms[key]}) if rng.random() < 0.5 else c
            rest.append((1, SymFunc(basis, {lam: part})))
        chain = a
        for c, f in rest:
            chain = chain - f.scale(c)
        got = linear_combination(basis, [(1, a)] + [(-c, f) for c, f in rest])
        assert got == chain
        assert_canonical(got)


def test_linear_combination_cancels_to_zero_and_to_int():
    f = SymFunc("e", {(2,): CoeffQT({(1, -1): Fraction(1, 2), (0, 0): 3}), (1, 1): CoeffQT.q(-2)})
    assert linear_combination("e", [(1, f), (-1, f)]).coeffs == {}
    half = SymFunc("e", {(2,): CoeffQT({(1, -1): Fraction(1, 2)})})
    got = linear_combination("e", [(1, f), (1, half), (CoeffQT.q(2), SymFunc("e", {(1, 1): -1}))])
    assert got.coeffs == {(2,): CoeffQT({(1, -1): 1, (0, 0): 3}), (1, 1): CoeffQT.q(-2) - CoeffQT.q(2)}
    assert type(got.coeffs[(2,)].terms[(1, -1)]) is int


def test_linear_combination_reads_plain_rows_and_checks_the_basis():
    c = CoeffQT({(1, 0): 2, (-1, 1): Fraction(1, 2)})
    got = linear_combination("m", [(c, {(2,): 3, (1, 1): Fraction(-2, 3)}), (1, {(2,): c})])
    assert got == SymFunc("m", {(2,): c * 4, (1, 1): c * Fraction(-2, 3)})
    assert_canonical(got)
    with pytest.raises(LLTError):
        linear_combination("m", [(1, SymFunc.basis_element("e", (2,)))])


def test_linear_combination_refuses_a_float_scalar_or_entry():
    e1 = SymFunc("e", {(1,): 1})
    with pytest.raises(InvalidArgument):
        linear_combination("e", [(0.5, e1)])
    with pytest.raises(InvalidArgument):
        linear_combination("m", [(1, {(2,): 0.1})])
    with pytest.raises(InvalidArgument):
        linear_combination("m", [(0.0, {(2,): 1})])  # a zero float too, not a silent zero
    # scale reads its scalar exactly first, so 0.5 is the rational 1/2
    assert e1.scale(0.5) == SymFunc("e", {(1,): Fraction(1, 2)})
    assert e1.scale(0.5).coeffs[(1,)].terms == {(0, 0): Fraction(1, 2)}


def test_m_products_equal_the_e_concatenation_and_the_integer_convolution():
    rng = random.Random(19)
    for left, right in ("mm", "ms", "sm", "ss") * 8:
        f = random_laurent_symfunc(rng, left, max_degree=3)
        g = random_laurent_symfunc(rng, right, max_degree=3)
        got = f * g
        assert got.basis == left
        assert got == (f.convert("e") * g.convert("e")).convert(left), (left, right)
        assert_canonical(got)
        # integer inputs: the kernel product is the integer convolution that builds the transition rows
        f = SymFunc(left, {lam: rng.randint(-3, 3) for d in range(4) for lam in partitions_of(d)})
        g = SymFunc(right, {lam: rng.randint(-3, 3) for d in range(4) for lam in partitions_of(d)})
        ints = [{lam: c.terms[(0, 0)] for lam, c in h.convert("m").coeffs.items()} for h in (f, g)]
        want = symfunc._m_mul(*ints)
        assert {lam: c.terms for lam, c in (f * g).convert("m").coeffs.items()} == {lam: {(0, 0): v} for lam, v in want.items()}


def test_scale_is_the_term_wise_product():
    rng = random.Random(29)
    for basis in BASES:
        f = random_laurent_symfunc(rng, basis)
        for v in (0, 3, -1, Fraction(2, 3), Fraction(-1, 2), CoeffQT.zero(), random_laurent(rng), Q - 1):
            got = f.scale(v)
            assert got.basis == basis
            assert got.coeffs == {lam: c * v for lam, c in f.coeffs.items() if not (c * v).is_zero()}, (basis, v)
            assert_canonical(got)


def test_add_and_sub_check_the_basis_and_return_canonical_results():
    f = SymFunc("e", {(2,): CoeffQT({(1, 0): Fraction(1, 2), (0, 0): 3}), (1, 1): Q})
    g = SymFunc("e", {(2,): CoeffQT({(1, 0): Fraction(1, 2)}), (1, 1): Q, (1,): -1})
    for op in (SymFunc.__add__, SymFunc.__sub__):
        with pytest.raises(LLTError):
            op(f, g.convert("m"))
        assert op(f, {(2,): 1}) is NotImplemented
    total, difference = f + g, f - g
    assert total == SymFunc("e", {(2,): CoeffQT({(1, 0): 1, (0, 0): 3}), (1, 1): Q * 2, (1,): -1})
    assert difference == SymFunc("e", {(2,): 3, (1,): 1})
    assert type(total.coeffs[(2,)].terms[(1, 0)]) is int
    assert_canonical(total)
    assert_canonical(difference)
    assert (f - f).coeffs == {}
    with pytest.raises(TypeError):
        f + {(2,): 1}


def _per_term(basis, f, row):
    """sum of c * row(lam) over the terms of f, one CoeffQT operation per entry."""
    out = {}
    for lam, c in f.coeffs.items():
        for mu, v in row(lam).items():
            s = out.get(mu, CoeffQT.zero()) + c * v
            if s.is_zero():
                out.pop(mu, None)
            else:
                out[mu] = s
    return SymFunc(basis, out)


@pytest.mark.parametrize("basis", BASES)
def test_transitions_equal_the_per_term_reference(basis):
    rng = random.Random(BASES.index(basis))
    for _ in range(6):
        f = random_laurent_symfunc(rng, basis, max_degree=5)
        to_m = symfunc._to_m(f)
        assert to_m == _per_term("m", f, lambda lam: symfunc._transition(basis, sum(lam))[0][lam])
        g = random_laurent_symfunc(rng, "m", max_degree=5)
        from_m = symfunc._from_m(basis, g)
        assert from_m == _per_term(basis, g, lambda mu: _inverse_row(basis, mu))
        assert_canonical(to_m)
        assert_canonical(from_m)
        assert symfunc._from_m(basis, to_m) == f


def _inverse_row(basis, mu):
    """The expansion of m_mu in the basis: its integer inverse row over the degree's denominator."""
    _, from_m, den = symfunc._transition(basis, sum(mu))
    return {lam: Fraction(v, den) for lam, v in from_m[mu].items()}


def _fraction_invert(mat):
    """Reference: Gauss-Jordan elimination in Fraction arithmetic, integral entries as int."""
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise LLTError("transition matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [[v.numerator if v.denominator == 1 else v for v in row[n:]] for row in aug]


@pytest.mark.parametrize("basis", "ehps")
def test_fraction_free_inverse_equals_the_fraction_reference(basis):
    for d in range(9):
        parts = partitions_of(d)
        to_m, from_m, den = symfunc._transition(basis, d)
        mat = [[to_m[lam].get(mu, 0) for mu in parts] for lam in parts]
        entries = [v for row in from_m.values() for v in row.values()]
        assert all(type(v) is int for v in entries), (basis, d)
        got = [[Fraction(from_m[lam].get(mu, 0), den) for mu in parts] for lam in parts]
        assert got == _fraction_invert(mat), (basis, d)
        # the least common denominator: no factor of it divides every entry
        assert gcd(den, *entries) == 1, (basis, d)
        assert den == (factorial(d) if basis == "p" else 1), (basis, d)


def test_m_to_p_to_m_is_the_identity_up_to_degree_8():
    for d in range(9):
        for lam in partitions_of(d):
            m = SymFunc.basis_element("m", lam)
            assert m.convert("p").convert("m") == m, lam


def test_fraction_free_inverse_of_a_rational_matrix_and_a_singular_one():
    # det 2: rows over the common denominator 2; det -2: the denominator stays positive
    assert symfunc._invert([[2, 1], [0, 1]]) == ([[1, -1], [0, 2]], 2)
    assert symfunc._invert([[1, 2], [3, 4]]) == ([[-4, 2], [3, -1]], 2)
    assert symfunc._invert([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    for mat in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 1, 0], [0, 1, 1], [1, 2, 1]]):
        with pytest.raises(LLTError):
            symfunc._invert(mat)


def test_a_division_that_does_not_divide_raises_rather_than_rounds():
    # a non-integral entry makes an elimination step leave a remainder, which floor division would drop
    with pytest.raises(NotDivisible):
        symfunc._invert([[Fraction(1, 2), 1], [1, 1]])
    # m_11 = (p_11 - p_2) / 2: a quotient that does not divide is a reduced Fraction
    got = SymFunc.basis_element("m", (1, 1)).convert("p")
    assert got == SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert_canonical(got)
