"""Exact scalar arithmetic: Laurent polynomials in q and t with rational coefficients.

Every coefficient appearing in this package is an element of
Z[q^{-1}, q, t^{-1}, t] tensored with Q.  Working in this ring (rather
than in a field of rational functions) keeps all arithmetic exact and
turns a division that *should* cancel but does not into a loud
`NotDivisible` error.

Almost every value the package computes has integer coefficients, so a
coefficient is stored as a plain `int` and becomes a `Fraction` only when
it is not integral (the 1/z_lambda of the power-sum basis, a quotient from
`exact_div`).  Values are canonical: a term map never stores a zero
coefficient, an integral coefficient is always an `int` and any other is a
reduced `Fraction` with denominator > 1, so two values are equal iff their
maps are equal.  No coefficient is ever a float.  All operations return new
objects; nothing mutates in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Tuple, Union

from .errors import InvalidArgument, NegativeExponentShift, NotDivisible

Exponents = Tuple[int, int]
Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "CoeffQT"]


def _canon(v: Rational) -> Rational:
    """v as an int when it is integral, else unchanged (a reduced Fraction)."""
    if v.__class__ is int or v.denominator != 1:
        return v
    return v.numerator


def _div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b in canonical form; int / int never gives a float."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _canon(Fraction(a, b))


# One (e, 0) key per q-exponent, shared by every value that `from_packed` builds.
_Q_KEYS: list[Exponents] = []


def _canon_values(terms: dict) -> dict:
    """Turn every integral Fraction among the values into an int, in place."""
    for k, v in terms.items():
        if v.__class__ is not int and v.denominator == 1:
            terms[k] = v.numerator
    return terms


class CoeffQT:
    """A Laurent polynomial in the formal variables q and t.

    The term map sends (q_exponent, t_exponent) to a nonzero coefficient:
    an `int` when it is integral, otherwise a `Fraction` with denominator
    > 1 (kept reduced with positive denominator by the `fractions` module).
    The constructor accepts any rational value and stores its canonical
    form, so `CoeffQT({(0, 0): Fraction(4, 2)}) == CoeffQT({(0, 0): 2})`.
    An exponent that is not an int raises InvalidArgument.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Rational] | None = None):
        clean: dict[Exponents, Rational] = {}
        if terms:
            for (eq, et), v in terms.items():
                if not (isinstance(eq, int) and isinstance(et, int)):
                    raise InvalidArgument(f"exponents {(eq, et)!r} are not ints")
                if v.__class__ is not int:
                    v = _canon(Fraction(v))
                if v:
                    clean[(int(eq), int(et))] = v
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "CoeffQT":
        return cls()

    @classmethod
    def one(cls) -> "CoeffQT":
        return cls({(0, 0): 1})

    @classmethod
    def from_rational(cls, v: Rational) -> "CoeffQT":
        return cls({(0, 0): v})

    @classmethod
    def monomial(cls, q_exp: int = 0, t_exp: int = 0, coeff: Rational = 1) -> "CoeffQT":
        return cls({(q_exp, t_exp): coeff})

    @classmethod
    def from_packed(cls, value: int, width: int, signed: bool = False) -> "CoeffQT":
        """The polynomial in q whose value at q = 2**width is `value`, read digit by digit.

        The dynamic programs and the axiomatic evaluator carry a polynomial
        in q with integer coefficients as its value at q = 2**width: values
        then add as ints, a shift by width*k multiplies by q^k, and a product
        of two values is the value of the product polynomial.  The base
        2**width digits are the coefficients, in [0, 2**width), or in
        [-2**(width-1), 2**(width-1)) when `signed`; that range must hold
        every coefficient of the polynomial, or its value reads back as
        another one.  Each q-exponent shares one key tuple across all values.
        """
        mask = (1 << width) - 1
        half = 1 << (width - 1) if signed else 0
        keys = _Q_KEYS
        top = value.bit_length() // width + 1
        if top >= len(keys):
            keys.extend((e, 0) for e in range(len(keys), top + 1))
        terms: dict[Exponents, Rational] = {}
        e = 0
        while value:
            value += half
            digit = (value & mask) - half
            if digit:
                terms[keys[e]] = digit
            value >>= width
            e += 1
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def q(cls, exp: int = 1) -> "CoeffQT":
        return cls({(exp, 0): 1})

    @classmethod
    def t(cls, exp: int = 1) -> "CoeffQT":
        return cls({(0, exp): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_nonneg(self) -> bool:
        """True iff every rational coefficient is >= 0."""
        return all(v >= 0 for v in self.terms.values())

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def q_degree(self) -> int | None:
        """Largest q-exponent, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(eq for eq, _ in self.terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other: Scalar) -> "CoeffQT | None":
        if isinstance(other, CoeffQT):
            return other
        if isinstance(other, (int, Fraction)):
            return CoeffQT({(0, 0): other})
        return None

    def __add__(self, other: Scalar) -> "CoeffQT":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            s = out.get(k, 0) + v
            if s:
                # canonical form: an integral Fraction is stored as its int
                out[k] = s if s.__class__ is int or s.denominator != 1 else s.numerator
            else:
                out.pop(k, None)
        res = CoeffQT.__new__(CoeffQT)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "CoeffQT":
        res = CoeffQT.__new__(CoeffQT)
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other: Scalar) -> "CoeffQT":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "CoeffQT":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Scalar) -> "CoeffQT":
        if other.__class__ is int:
            # a scalar scales every term; Fraction * int may become integral
            res = CoeffQT.__new__(CoeffQT)
            res.terms = _canon_values({k: v * other for k, v in self.terms.items()}) if other else {}
            return res
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Exponents, Rational] = {}
        for (aq, at), av in self.terms.items():
            for (bq, bt), bv in o.terms.items():
                k = (aq + bq, at + bt)
                s = out.get(k, 0) + av * bv
                if s:
                    out[k] = s if s.__class__ is int or s.denominator != 1 else s.numerator
                else:
                    out.pop(k, None)
        res = CoeffQT.__new__(CoeffQT)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CoeffQT":
        if n < 0:
            raise InvalidArgument("negative powers are not defined in the Laurent subring")
        out = CoeffQT.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CoeffQT({(0, 0): other})
        if not isinstance(other, CoeffQT):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its rational (see __eq__), so it must hash as one
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and (0, 0) in terms:
            return hash(terms[(0, 0)])
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- the operations the rest of the package is built on ----------------

    def exact_div(self, other: "CoeffQT") -> "CoeffQT":
        """Return c with other * c == self, or raise NotDivisible.

        Both arguments are normalized by monomial units so the problem
        becomes ordinary two-variable polynomial division, run greedily on
        lex-leading terms; a leading term that does not divide means no
        exact quotient exists.
        """
        if other.is_zero():
            raise ZeroDivisionError("exact_div by zero")
        if self.is_zero():
            return CoeffQT.zero()
        aq = min(e for e, _ in self.terms)
        at = min(e for _, e in self.terms)
        bq = min(e for e, _ in other.terms)
        bt = min(e for _, e in other.terms)
        rem = {(eq - aq, et - at): v for (eq, et), v in self.terms.items()}
        div = {(eq - bq, et - bt): v for (eq, et), v in other.terms.items()}
        dlead = max(div)
        dlc = div[dlead]
        quot: dict[Exponents, Rational] = {}
        while rem:
            rlead = max(rem)
            kq = rlead[0] - dlead[0]
            kt = rlead[1] - dlead[1]
            if kq < 0 or kt < 0:
                raise NotDivisible(f"{self} is not divisible by {other}")
            c = _div(rem[rlead], dlc)
            quot[(kq, kt)] = c
            for (eq, et), v in div.items():
                k = (eq + kq, et + kt)
                s = rem.get(k, 0) - c * v
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return CoeffQT({(eq + aq - bq, et + at - bt): v for (eq, et), v in quot.items()})

    def shift_q(self, c: int) -> "CoeffQT":
        """Substitute q -> q + c, expanding binomially; t is untouched.

        c must be an int or a Fraction (InvalidArgument otherwise).
        """
        if not isinstance(c, (int, Fraction)):
            raise InvalidArgument(f"shift {c!r} is not an int or a Fraction")
        if c == 0:
            return self
        out: dict[Exponents, Rational] = {}
        for (eq, et), v in self.terms.items():
            if eq < 0:
                raise NegativeExponentShift(
                    "q -> q%+d is not defined on negative q-exponents" % c
                )
            for k in range(eq + 1):
                key = (k, et)
                s = out.get(key, 0) + v * comb(eq, k) * (c ** (eq - k))
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = CoeffQT.__new__(CoeffQT)
        res.terms = _canon_values(out)
        return res

    def subst_q_reciprocal(self) -> "CoeffQT":
        """Substitute q -> 1/q (negate every q-exponent); an involution."""
        return CoeffQT({(-eq, et): v for (eq, et), v in self.terms.items()})

    def swap_qt(self) -> "CoeffQT":
        """Exchange the roles of q and t."""
        return CoeffQT({(et, eq): v for (eq, et), v in self.terms.items()})

    def specialize_q(self, value: Rational) -> "CoeffQT":
        """Evaluate at q = value, leaving t formal."""
        value = _canon(Fraction(value))
        out: dict[Exponents, Rational] = {}
        for (eq, et), v in self.terms.items():
            if eq < 0:
                if value == 0:
                    raise ZeroDivisionError("q = 0 on a negative q-exponent")
                w = _div(v, value ** (-eq))
            else:
                w = v * value ** eq
            key = (0, et)
            s = out.get(key, 0) + w
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = CoeffQT.__new__(CoeffQT)
        res.terms = _canon_values(out)
        return res

    # -- serialization and display ------------------------------------------

    def to_obj(self) -> list[dict]:
        """Sorted list of term objects with decimal strings for the integers."""
        return [
            {"q": eq, "t": et, "num": str(v.numerator), "den": str(v.denominator)}
            for (eq, et), v in sorted(self.terms.items())
        ]

    @classmethod
    def from_obj(cls, obj: list[dict]) -> "CoeffQT":
        return cls(
            {
                (int(o["q"]), int(o["t"])): _div(int(o["num"]), int(o["den"]))
                for o in obj
            }
        )

    @staticmethod
    def _render_term(eq: int, et: int, v: Rational) -> str:
        factors = []
        if v == -1 and (eq or et):
            sign = "-"
        elif v == 1 and (eq or et):
            sign = ""
        else:
            sign = ""
            factors.append(str(v))
        for name, e in (("q", eq), ("t", et)):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(v)
        return sign + "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (eq, et) in sorted(self.terms, reverse=True):
            term = self._render_term(eq, et, self.terms[(eq, et)])
            if parts:
                if term.startswith("-"):
                    parts.append(" - " + term[1:])
                else:
                    parts.append(" + " + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CoeffQT({self})"

    def __iter__(self) -> Iterator[tuple[Exponents, Rational]]:
        return iter(sorted(self.terms.items()))


ZERO = CoeffQT.zero()
ONE = CoeffQT.one()
Q = CoeffQT.q()
T = CoeffQT.t()
