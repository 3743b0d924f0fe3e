"""The algebra of symmetric functions over the q,t coefficient ring.

A `SymFunc` is a basis-tagged linear combination of partitions: one of
the classical bases m (monomial), e (elementary), h (complete
homogeneous), p (power sum), s (Schur).  All conversions route through
the monomial basis with per-degree transition matrices:

  * e_k = m_{(1^k)}, h_k = sum of all m_lam of degree k, p_k = m_{(k)},
    products expanded by exact monomial convolution;
  * s_mu = sum_lam K_{mu,lam} m_lam with Kostka numbers from the
    branching rule;
  * the reverse direction inverts the transition matrix once per degree
    by fraction-free integer elimination and caches it as integer rows
    over one common denominator.

Every basis->m matrix is integral, and so are the inverses for e, h and
s (common denominator 1).  The m->p inverse carries the 1/z_lambda
factors; its common denominator is the lcm of theirs, d! at every degree
d <= 8.  A conversion from m accumulates on the integer rows and divides
each output coefficient once, exactly, so no transition entry is a
`Fraction`.

Every sum of scalar * vector goes through one kernel,
`linear_combination`: `+`, `-`, `scale`, each conversion (one sum of
scalar * transition row of the term's own degree), the m-basis product
(one sum of a * b * row of m_lam * m_mu) and the q-1 plethysm.  It adds
raw {(q, t): coefficient} maps per partition and builds each `CoeffQT`
of the result once, in canonical form.  The exception is the product of
two functions in the same multiplicative basis (e, h, p), the
evaluator's product: it concatenates partitions and accumulates term by
term through `CoeffQT` arithmetic, because the benchmark's traced
recursion workload gates on calls to that arithmetic; moving it onto the
kernel goes with a change to that gate.  `_m_mul`, the integer twin of
the m-basis product, builds the transition rows.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, Union

from . import memo
from .coeffring import ZERO, CoeffQT, Exponents, Rational, _div
from .errors import InvalidArgument, LLTError, NotDivisible
from .partitions import Partition, is_partition, kostka, partitions_of

BASES = ("m", "e", "h", "p", "s")

ScalarLike = Union[int, Fraction, CoeffQT]

_M_MUL_CACHE: dict[tuple[Partition, Partition], dict[Partition, int]] = memo.table("_M_MUL_CACHE")
Rows = dict[Partition, dict[Partition, int]]
_TRANSITION_CACHE: dict[tuple[str, int], tuple[Rows, Rows, int]] = memo.table("_TRANSITION_CACHE")


def _coeff(v: ScalarLike) -> CoeffQT:
    if isinstance(v, CoeffQT):
        return v
    return CoeffQT.from_rational(v)


class SymFunc:
    """A finite linear combination of basis elements b_lambda over CoeffQT."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: Mapping[Partition, ScalarLike] | None = None):
        if basis not in BASES:
            raise InvalidArgument(f"unknown basis {basis!r}")
        self.basis = basis
        clean: dict[Partition, CoeffQT] = {}
        if coeffs:
            for lam, v in coeffs.items():
                lam = tuple(lam)
                if not is_partition(lam):
                    raise InvalidArgument(f"{lam} is not a partition")
                c = _coeff(v)
                if not c.is_zero():
                    clean[lam] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: str = "m") -> "SymFunc":
        return cls(basis)

    @classmethod
    def one(cls, basis: str = "m") -> "SymFunc":
        return cls(basis, {(): 1})

    @classmethod
    def from_canonical(cls, basis: str, coeffs: dict[Partition, CoeffQT]) -> "SymFunc":
        """Wrap a map that is canonical already, without checking or copying it.

        Every key must be a partition and every value a nonzero `CoeffQT`;
        the builders that make such maps (the accumulation kernel, the
        dynamic programs, the evaluator) skip the constructor's checks.
        """
        res = cls.__new__(cls)
        res.basis = basis
        res.coeffs = coeffs
        return res

    @classmethod
    def basis_element(cls, basis: str, lam: Iterable[int], coeff: ScalarLike = 1) -> "SymFunc":
        return cls(basis, {tuple(lam): coeff})

    # -- structure ---------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted({sum(lam) for lam in self.coeffs})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self.coeffs.items())))

    # -- linear arithmetic (same basis) -------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return linear_combination(self.basis, [(1, self), (1, other)])

    def __neg__(self) -> "SymFunc":
        return SymFunc.from_canonical(self.basis, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return linear_combination(self.basis, [(1, self), (-1, other)])

    def scale(self, v: ScalarLike) -> "SymFunc":
        return linear_combination(self.basis, [(_coeff(v), self)])

    def map_coeffs(self, fn: Callable[[CoeffQT], CoeffQT]) -> "SymFunc":
        out = {}
        for lam, c in self.coeffs.items():
            v = fn(c)
            if not v.is_zero():
                out[lam] = v
        return SymFunc.from_canonical(self.basis, out)

    def shift_q(self, c: int) -> "SymFunc":
        """Substitute q -> q + c in every coefficient; c must be an int or a Fraction."""
        if not isinstance(c, (int, Fraction)):
            raise InvalidArgument(f"shift {c!r} is not an int or a Fraction")
        return self.map_coeffs(lambda v: v.shift_q(c))

    # -- conversions ---------------------------------------------------------

    def convert(self, target: str) -> "SymFunc":
        if target not in BASES:
            raise InvalidArgument(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        m = self if self.basis == "m" else _to_m(self)
        return m if target == "m" else _from_m(target, m)

    def coefficient(self, basis: str, lam: Iterable[int]) -> CoeffQT:
        """The lam-coefficient of this function expressed in the given basis."""
        lam = tuple(lam)
        return self.convert(basis).coeffs.get(lam, ZERO)

    def equals(self, other: "SymFunc") -> bool:
        """Equality as abstract symmetric functions (compared in the e-basis)."""
        return (self.convert("e") - other.convert("e")).is_zero()

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """Product, returned in this function's basis.

        In a multiplicative basis (e, h, p) the product of basis elements
        is concatenation; the general case is monomial convolution in the
        m-basis, one kernel sum.  The two routes agree (this is checked in
        the tests).
        """
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis and self.basis in ("e", "h", "p"):
            out: dict[Partition, CoeffQT] = {}
            for lam, a in self.coeffs.items():
                for mu, b in other.coeffs.items():
                    nu = tuple(sorted(lam + mu, reverse=True))
                    s = out.get(nu, ZERO) + a * b
                    if s.is_zero():
                        out.pop(nu, None)
                    else:
                        out[nu] = s
            return SymFunc.from_canonical(self.basis, out)
        gm = other.convert("m").coeffs.items()
        product = linear_combination(
            "m", [(a * b, _m_mul_pair(lam, mu)) for lam, a in self.convert("m").coeffs.items() for mu, b in gm]
        )
        return product.convert(self.basis)

    # -- the classical involution and the one plethysm we need ---------------

    def omega(self) -> "SymFunc":
        """The standard involution e <-> h: the e-coefficients of f are the h-coefficients of omega(f)."""
        return SymFunc.from_canonical("h", self.convert("e").coeffs).convert(self.basis)

    def pleth_q_minus_1(self) -> "SymFunc":
        """The substitution f |-> f[x(q-1)]: p_k -> (q^k - 1) p_k."""
        terms = []
        for lam, c in self.convert("p").coeffs.items():
            for part in lam:
                c = c * (CoeffQT.q(part) - CoeffQT.one())
            terms.append((c, {lam: 1}))
        return linear_combination("p", terms).convert(self.basis)

    # -- serialization and display --------------------------------------------

    def to_obj(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam), "coeff": c.to_obj()}
                for lam, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SymFunc":
        return cls(
            obj["basis"],
            {
                tuple(term["partition"]): CoeffQT.from_obj(term["coeff"])
                for term in obj["terms"]
            },
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for lam, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            blob = f"{self.basis}[{','.join(map(str, lam))}]" if lam else None
            cs = str(c)
            if blob is None:
                bits.append(cs)
            elif cs == "1":
                bits.append(blob)
            elif cs == "-1":
                bits.append(f"-{blob}")
            elif len(c.terms) == 1 and not cs.startswith("-"):
                bits.append(f"{cs}*{blob}")
            else:
                bits.append(f"({cs})*{blob}")
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self) -> str:
        return f"SymFunc({self})"


# -- the accumulation kernel -----------------------------------------------------


Vector = Union[SymFunc, Mapping[Partition, Union[CoeffQT, Rational]]]


def linear_combination(basis: str, terms: Iterable[tuple[ScalarLike, Vector]]) -> SymFunc:
    """The sum of scalar * vector over the terms, as a SymFunc in `basis`.

    A vector is a SymFunc, which must be in `basis` (LLTError otherwise),
    or a plain {partition: entry} map read in `basis`, with `CoeffQT` or
    rational entries (a transition row).  The sum is accumulated on raw
    {partition: {(q, t): coefficient}} maps and each `CoeffQT` of the
    result is built once, at the end, in canonical form: no zero term, no
    zero partition, an integral coefficient stored as an `int`.  A scalar
    or a plain entry that is not an int, a Fraction or a `CoeffQT` (a
    float, say) raises InvalidArgument, so the sum stays exact.
    """
    acc: dict[Partition, dict[Exponents, Rational]] = {}
    for scalar, vector in terms:
        if vector.__class__ is SymFunc:
            if vector.basis != basis:
                raise LLTError(f"basis mismatch: {basis} vs {vector.basis}; convert explicitly")
            vector = vector.coeffs
        if scalar.__class__ is CoeffQT:
            s_terms = scalar.terms
        elif isinstance(scalar, (int, Fraction)):
            s_terms = {(0, 0): scalar}
        else:
            raise InvalidArgument(f"scalar {scalar!r} is not an int, a Fraction or a CoeffQT")
        # a constant scalar leaves every exponent where it is
        constant = s_terms.get((0, 0)) if len(s_terms) == 1 else None
        for lam, v in vector.items():
            row = acc.get(lam)
            if row is None:
                row = acc[lam] = {}
            if v.__class__ is not CoeffQT:
                if v.__class__ is not int and not isinstance(v, (int, Fraction)):
                    raise InvalidArgument(f"entry {v!r} at {lam} is not an int, a Fraction or a CoeffQT")
                for k, a in s_terms.items():
                    row[k] = row.get(k, 0) + a * v
            elif constant is not None:
                for k, b in v.terms.items():
                    row[k] = row.get(k, 0) + constant * b
            else:
                for (aq, at), a in s_terms.items():
                    for (bq, bt), b in v.terms.items():
                        k = (aq + bq, at + bt)
                        row[k] = row.get(k, 0) + a * b
    out: dict[Partition, CoeffQT] = {}
    for lam, row in acc.items():
        clean = {
            k: v if v.__class__ is int or v.denominator != 1 else v.numerator
            for k, v in row.items()
            if v
        }
        if clean:
            c = CoeffQT.__new__(CoeffQT)
            c.terms = clean
            out[lam] = c
    return SymFunc.from_canonical(basis, out)


# -- monomial-basis multiplication --------------------------------------------


def _m_mul_pair(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expansion of m_lam * m_mu as integer combinations of m_nu.

    The coefficient of m_nu counts vector pairs (a, b) with a a
    rearrangement of lam, b a rearrangement of mu (both padded with
    zeros to len(nu) slots) and a + b = nu componentwise.
    """
    if not lam:
        return {mu: 1}
    if not mu:
        return {lam: 1}
    key = (lam, mu)
    cached = _M_MUL_CACHE.get(key)
    if cached is not None:
        return cached
    n = sum(lam) + sum(mu)
    maxlen = len(lam) + len(mu)
    out: dict[Partition, int] = {}
    for nu in partitions_of(n):
        r = len(nu)
        if r > maxlen or r < max(len(lam), len(mu)):
            continue
        avail_a = Counter(lam)
        avail_a[0] = r - len(lam)
        avail_b = Counter(mu)
        avail_b[0] = r - len(mu)

        def rec(i: int) -> int:
            if i == r:
                return 1
            total = 0
            for x in [v for v, k in avail_a.items() if k > 0 and v <= nu[i]]:
                y = nu[i] - x
                if avail_b.get(y, 0) <= 0:
                    continue
                avail_a[x] -= 1
                avail_b[y] -= 1
                total += rec(i + 1)
                avail_a[x] += 1
                avail_b[y] += 1
            return total

        count = rec(0)
        if count:
            out[nu] = count
    _M_MUL_CACHE[key] = out
    return out


def _m_mul(f: dict[Partition, int], g: dict[Partition, int]) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for lam, a in f.items():
        for mu, b in g.items():
            ab = a * b
            for nu, count in _m_mul_pair(lam, mu).items():
                s = out.get(nu, 0) + ab * count
                if s:
                    out[nu] = s
                else:
                    out.pop(nu, None)
    return out


# -- transition matrices -------------------------------------------------------


def _expand_in_m(basis: str, lam: Partition) -> dict[Partition, int]:
    """Monomial expansion of a single basis element b_lam (integer coefficients)."""
    if basis == "m":
        return {lam: 1}
    if basis == "s":
        return {mu: k for mu in partitions_of(sum(lam)) if (k := kostka(lam, mu))}
    out: dict[Partition, int] = {(): 1}
    for part in lam:
        if basis == "e":
            factor = {(1,) * part: 1}
        elif basis == "p":
            factor = {(part,): 1}
        elif basis == "h":
            factor = {mu: 1 for mu in partitions_of(part)}
        else:
            raise ValueError(basis)
        out = _m_mul(out, factor)
    return out


def _invert(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Invert a square integer matrix by fraction-free Gauss-Jordan elimination.

    Bareiss's scheme on [mat | I] over `int`: at column c the first nonzero
    entry at or below row c is swapped up as the pivot p, and every other
    row becomes (p * row - row[c] * pivot_row) / prev, where prev is the
    previous pivot (1 at the first column).  Sylvester's identity makes each
    division exact; a remainder raises `NotDivisible`, so a bug can never
    round.  The left block ends as det * I, det the last pivot, and the
    right block as det times the inverse.  Returns (rows, den): the inverse
    is rows / den, with rows integral and den > 0 the least common
    denominator of its entries (the right block and det divided by their
    gcd).
    """
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise LLTError("transition matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                row = []
                for a, b in zip(aug[r], top):
                    q, rem = divmod(p * a - f * b, prev)
                    if rem:
                        raise NotDivisible(f"fraction-free elimination left a remainder at column {col}")
                    row.append(q)
                aug[r] = row
        prev = p
    adj = [row[n:] for row in aug]
    g = gcd(prev, *(v for row in adj for v in row))
    if prev < 0:
        g = -g
    return [[v // g for v in row] for row in adj], prev // g


def _transition(basis: str, d: int):
    """The transition rows of degree d, cached per degree.

    Returns (to_m, from_m, den): to_m[lam] is the m-expansion of b_lam and
    from_m[mu] / den the expansion of m_mu in the basis, each row a sparse
    {partition: int} map and den the least common denominator of the
    inverse (1 for e, h and s).  `partitions_of` refuses a degree above
    DEGREE_BOUND.  Cache inserts are idempotent, so concurrent
    construction is harmless.
    """
    key = (basis, d)
    cached = _TRANSITION_CACHE.get(key)
    if cached is not None:
        return cached
    parts = partitions_of(d)
    index = {lam: i for i, lam in enumerate(parts)}
    mat = []
    for lam in parts:
        row = [0] * len(parts)
        for mu, v in _expand_in_m(basis, lam).items():
            row[index[mu]] = v
        mat.append(row)
    inv, den = _invert(mat)

    def sparse(rows: list[list[int]]) -> Rows:
        return {lam: {mu: v for mu, v in zip(parts, row) if v} for lam, row in zip(parts, rows)}

    result = (sparse(mat), sparse(inv), den)
    _TRANSITION_CACHE[key] = result
    return result


def _to_m(f: SymFunc) -> SymFunc:
    """f in the monomial basis: the sum of c * (m-expansion of b_lam) over its terms."""
    return linear_combination(
        "m", [(c, _transition(f.basis, sum(lam))[0][lam]) for lam, c in f.coeffs.items()]
    )


def _from_m(basis: str, f: SymFunc) -> SymFunc:
    """A function given in the m-basis, expressed in `basis` through the inverse rows.

    The sum runs on the integer rows; each output coefficient is then
    divided once by its degree's denominator, an exact `_div` that leaves
    an `int` where the quotient is integral and a reduced `Fraction`
    otherwise.
    """
    out = linear_combination(
        basis, [(c, _transition(basis, sum(mu))[1][mu]) for mu, c in f.coeffs.items()]
    )
    for lam, c in out.coeffs.items():
        den = _transition(basis, sum(lam))[2]
        if den != 1:
            # c was just built by the kernel and is referenced nowhere else
            c.terms = {k: _div(v, den) for k, v in c.terms.items()}
    return out


# -- Jacobi-Trudi straightening -------------------------------------------------


def straighten_schur(alpha: Iterable[int]):
    """Straighten s_alpha for a composition alpha via the alpha+delta sorting rule.

    Returns None when the shifted vector alpha + (l-1, l-2, ..., 0) has a
    repeated or negative entry (the Schur function vanishes), otherwise a
    pair (sign, partition).
    """
    alpha = tuple(alpha)
    ell = len(alpha)
    shifted = [alpha[i] + (ell - 1 - i) for i in range(ell)]
    if any(v < 0 for v in shifted):
        return None
    if len(set(shifted)) != ell:
        return None
    inversions = sum(
        1
        for i in range(ell)
        for j in range(i + 1, ell)
        if shifted[i] < shifted[j]
    )
    sign = -1 if inversions % 2 else 1
    ordered = sorted(shifted, reverse=True)
    lam = [ordered[i] - (ell - 1 - i) for i in range(ell)]
    while lam and lam[-1] == 0:
        lam.pop()
    return sign, tuple(lam)
