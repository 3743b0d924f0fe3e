"""Verification suites for the linear relations, and the axiomatic evaluator.

Each verify_* function sweeps every admissible (path, point) instance of
one family of relations at a given size and reports the failures (an
empty failure list means the suite passed).  The suites accept an
injectable ``llt_fn`` so that negative controls (a deliberately
corrupted polynomial) can demonstrate their sensitivity.  ``SUITES``
names them all.

The relations are linear with coefficients in q alone.  An instance
lhs = sum(scalar * F(word)) of size n is checked by ``_Suite.check`` as
one int expression over packed values, and a passing instance costs a
zero test.  The packed layout of size n has P slots, one per partition
lam of n (in ``partitions_of`` order), and signed digits of width W, the
least with 2^(W-4) > n!.  The q-exponent comes first: c q^a b_lam sits at
bit W (P a + slot(lam)), so multiplying by q is a shift by W P and a
value's int grows only with its degree.  Each instance scalar (1, -1, q,
-q, q-1, q+1, held as its q-coefficients) becomes the int of the same
layout, and the discrepancy is lhs - sum(scalar * value) on ints.

A value packs only if its basis is the suite's (m for the default routes,
the first value's for an injected one), every lam is a partition of n,
every coefficient is an int below 2^(W-4) in absolute value, every
t-exponent is 0 and every q-exponent is >= 0.  The proof that the int
then tests the discrepancy exactly: the scalars of an instance, the 1 of
the left-hand side included, have 1-norm at most 6 (the six-term
relation; the others have 2 or 4).  So every digit d of the discrepancy,
a polynomial in q over the b_lam, has |d| <= 6 (2^(W-4) - 1) < 2^(W-1).
Packing is a ring homomorphism, so the int is the sum of d X^i over the
discrepancy's digits, X = 2^W and i the digit's place in the layout.  If
d X^k is the top nonzero term, the lower terms sum to at most
(X - 1)(1 + X + ... + X^(k-1)) = X^k - 1 < |d X^k| in absolute value, so
the int is 0 exactly when the discrepancy is 0.  The default routes
always pack: an m-coefficient of ``llt`` or ``chromatic`` counts colorings
of one content, at most n!.  Anything else, rational or t-terms from an
injected ``llt_fn``, another basis, or a coefficient at the digit bound,
makes its instances take the exact path, as does a nonzero discrepancy:
``symfunc.linear_combination`` forms the discrepancy of the route's
values, and ``_Suite.record`` counts the instance and converts a nonzero
discrepancy to e and records it.  So failure records do not depend on the
packing.  The chromatic suite's products and initial condition are
counted and recorded by the same ``_Suite.record``.

The default routes' packed values are kept in ``_PACKED_VALUES``, keyed
by (route, word) and filled through the public ``llt`` and ``chromatic``
with the suite's bound; every suite of a sweep reads them there.  ``llt``
keeps no value of its own, so that int is the one copy of a default
value.  An injected ``llt_fn`` packs into a table local to the call.  The
values a call forms exactly (a failing or unpackable instance, the
chromatic suite's products and initial condition), and every value of an
injected route, are kept in a dict local to the call (``_Suite.value``),
so a route runs once per word of a call.

The bounce relations of D'Adderio and Carlsson-Mellit act at a point
whose bounce decomposition is U s1 s2 V de W.  Their suites are rows of
one scope table, ``_BOUNCE_SCOPES``: the s1 s2 kinds a scope accepts,
whether its bounce path has a single bounce point, and whether V holds
an east step.  ``_bounce_walk`` walks the paths of a size once per s3 s4
and keeps one compact record per decomposed point in ``_BOUNCE_WALKS``,
keyed by (n, s3 s4); ``_bounce_instances`` filters the de records by a
scope's row, and ``_modular_instances`` reads the ee records.
bounceA, bounceB, bounceND, generalized and extended are one scope each;
dual is bounceA, bounceND and generalized (which share no instance), one
after the other, with every path reversed.  s3 s4 is always the pair of
steps around the start point, so the walk runs ``bounce_at`` only where
those steps are de or ee.  Every suite checks its size with
``partitions.check_size`` before any work, so it refuses a size above its
``bound`` (default ``SIZE_BOUND``) or above ``DEGREE_BOUND``, and passes
the bound on to its routes.

``recursion_evaluate`` computes the same symmetric functions from the
axioms alone: the initial condition on n d^k e, multiplicativity at
diagonal returns, the unicellular relation, and the generalized bounce
relations, following a triple induction on (size, number of east steps,
x + z of the first east step).

Its memo holds each value F(word) in two forms.  The packed form maps each
partition lam to the e_lam coefficient at q = 2**_WIDTH, with balanced
(signed) digits.  The unicellular and bounce rules are linear with
coefficients q - 1, q and 1, so on packed values they are int operations
per partition: (v << _WIDTH) - v, v << _WIDTH and +.  The other form is
the SymFunc that ``recursion_evaluate`` returns.  A memo hit returns it as
stored, and multiplicativity multiplies two of them with ``SymFunc.__mul__``
and packs the product.  Every new entry, a product or a value that a linear
rule builds, is decoded when it is stored, through the evaluator's own
intern table ``_RECURSION_COEFFS``, keyed by the packed int: equal
coefficients, which most of the memo's are, are one int and one CoeffQT.
Both forms are kept because each alone costs more: a packed-only memo
unpacks on every hit, and a SymFunc-only memo repeats per-term CoeffQT
arithmetic in every rule.  Interning keeps the pair cheap, since the two
forms of an entry hold only references to the table's objects.  No other
module reads the table, and ``clear_caches`` empties it with the memo.

The width holds every stored coefficient.  By the orientation expansion,
F(q) is the sum over orientations theta of (q-1)^asc(theta)
e_lambda(theta), over the 2^a orientations of the a non-strict edges, and
asc(theta) <= a.  So the q^j e_lam coefficient is at most the sum over
theta of binom(asc(theta), j) <= 2^asc(theta), which is 3^a, in absolute
value.  Also a <= C(n, 2), and ``check_size`` refuses sizes above
DEGREE_BOUND, so every stored coefficient is below 3^C(12, 2) = 3^66 <
2^105, one signed digit of _WIDTH = 106 bits.  Packing is a ring
homomorphism Z[q] -> Z, so a sum on the way may exceed the bound; only
stored values are read back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Iterator

from . import memo
from .coeffring import CoeffQT
from .errors import InvalidArgument, NonTermination
from .llt import chromatic, llt
from .partitions import DEGREE_BOUND, Partition, check_size, compositions, partitions_of
from .schroeder import (
    SIZE_BOUND,
    BounceData,
    Point,
    SchroederPath,
    _decomposition,
    bounce_at,
    enumerate_paths,
    parse,
    reverse,
)
from .symfunc import SymFunc, linear_combination

LltFn = Callable[[SchroederPath], SymFunc]

# The evaluator's memo: path word -> (packed value, SymFunc), see _WIDTH.
Packed = dict[Partition, int]
Entry = tuple[Packed, SymFunc]
_RECURSION_CACHE: dict[str, Entry] = memo.table("_RECURSION_CACHE")
# packed int -> (that int, its CoeffQT): one of each per distinct coefficient
# of the memo, so entries of equal value share them, see _unpacked.
_RECURSION_COEFFS: dict[int, tuple[int, CoeffQT]] = memo.table("_RECURSION_COEFFS")
# Digit width of the packed values: every coefficient the evaluator stores
# is at most 3^C(DEGREE_BOUND, 2) in absolute value (see the module
# docstring), so it fits a signed digit of this many bits (106).
_WIDTH = (3 ** comb(DEGREE_BOUND, 2)).bit_length() + 1
# Two interpreter frames per level, so NonTermination fires before
# CPython's default recursion limit of 1000 frames.
_EVAL_DEPTH_BOUND = 200

Q = CoeffQT.q()

# An instance scalar: the coefficients of a polynomial in q, constant first.
Scalar = tuple[int, ...]
S_ONE, S_MINUS_ONE, S_Q, S_MINUS_Q, S_Q_MINUS_1, S_Q_PLUS_1 = (1,), (-1,), (0, 1), (0, -1), (-1, 1), (1, 1)
Terms = list[tuple[Scalar, str]]

# The default routes' values, (route, word) -> the value packed in the layout
# of its size (None if it does not pack), see _Suite.
_PACKED_VALUES: dict[tuple[str, str], int | None] = memo.table("_PACKED_VALUES")
# (n, s3 s4) -> one record (word, point, end index, start index, kind) per
# decomposed point of the paths of size n, see _bounce_walk.
Record = tuple[str, Point, int, int, tuple[str, bool, bool]]
_BOUNCE_WALKS: dict[tuple[int, str], list[Record]] = memo.table("_BOUNCE_WALKS")

_ABSENT = object()


@dataclass
class RelationReport:
    """Outcome of one verification suite: passed iff failures is empty."""

    suite: str
    instances: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passed": self.passed,
            "failures": [
                {
                    "paths": f["paths"],
                    "point": list(f["point"]) if f["point"] is not None else None,
                    "discrepancy": f["discrepancy"].to_obj(),
                }
                for f in self.failures
            ],
        }


class _Suite:
    """One suite call at size n: its report, its route, and the packed check of its instances.

    `check_size` refuses the size before any work.  `route` names the
    default route ("llt" or "chromatic"), which `llt_fn` replaces if given.
    """

    def __init__(self, name: str, n: int, llt_fn: LltFn | None, route: str, bound: int):
        check_size(n, bound)
        self.report = RelationReport(name)
        self.route = route
        if llt_fn is None:
            default = llt if route == "llt" else chromatic
            self.fn: LltFn = lambda p: default(p, bound)
            self.basis: str | None = "m"
            self.values: dict[tuple[str, str], int | None] = _PACKED_VALUES
        else:
            self.fn, self.basis, self.values = llt_fn, None, {}
        self.exact: dict[str, SymFunc] = {}  # word -> value, see `value`
        partitions = partitions_of(n)
        self.slots = {lam: i for i, lam in enumerate(partitions)}
        self.width = factorial(n).bit_length() + 4
        self.step = self.width * len(partitions)  # the shift that multiplies by q
        self.scalars: dict[Scalar, int] = {}

    def pack(self, f: SymFunc) -> int | None:
        """f in the packed layout of the size, or None if it does not pack."""
        if self.basis is None:
            self.basis = f.basis
        if f.basis != self.basis:
            return None
        width, limit = self.width, 1 << (self.width - 4)
        rows: dict[int, int] = {}  # q-exponent -> its row of slots
        for lam, c in f.coeffs.items():
            slot = self.slots.get(lam)
            if slot is None:
                return None
            for (a, t), v in c.terms.items():
                if t or a < 0 or v.__class__ is not int or not -limit < v < limit:
                    return None
                rows[a] = rows.get(a, 0) + (v << width * slot)
        out = 0
        for a in range(max(rows, default=-1), -1, -1):
            out = (out << self.step) + rows.get(a, 0)
        return out

    def value(self, word: str) -> SymFunc:
        """The route's value at the word, kept for the rest of the call."""
        f = self.exact.get(word)
        if f is None:
            f = self.exact[word] = self.fn(parse(word))
        return f

    def packed(self, word: str) -> int | None:
        """The packed value of the route at the word; inserts are idempotent.

        A default route's value is dropped once packed, since only a failing
        instance reads it again; an injected route's is kept (`value`).
        """
        key = (self.route, word)
        value = self.values.get(key, _ABSENT)
        if value is _ABSENT:
            f = self.fn(parse(word)) if self.values is _PACKED_VALUES else self.value(word)
            value = self.values[key] = self.pack(f)
        return value

    def scalar(self, s: Scalar) -> int:
        value = self.scalars.get(s)
        if value is None:
            value = self.scalars[s] = sum(c << self.step * i for i, c in enumerate(s))
        return value

    def record(self, paths: list[str], point, discrepancy: SymFunc) -> None:
        """Count one instance; record a nonzero discrepancy as a failure, in the e-basis."""
        self.report.instances += 1
        if not discrepancy.is_zero():
            self.report.failures.append({"paths": paths, "point": point, "discrepancy": discrepancy.convert("e")})

    def check(self, point, lhs_word: str, terms: Terms) -> None:
        """Count an instance lhs = sum(scalar * F(word)); one not shown to pass packed goes to `record`."""
        acc = self.packed(lhs_word)
        for s, word in terms:
            if acc is None:
                break
            value = self.packed(word)
            acc = None if value is None else acc - self.scalar(s) * value
        if acc == 0:
            self.report.instances += 1
            return
        lhs = self.value(lhs_word)
        negated = [(CoeffQT({(i, 0): -c for i, c in enumerate(s)}), self.value(word)) for s, word in terms]
        self.record([lhs_word] + [word for _, word in terms], point, linear_combination(lhs.basis, [(1, lhs)] + negated))


def verify_unicellular(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """F_{U n e V} - F_{U e n V} = (q - 1) F_{U d V} over all U d V of size n."""
    suite = _Suite("unicellular", n, llt_fn, "llt", bound)
    for p in enumerate_paths(n, bound=bound):
        word = p.word
        for i, step in enumerate(word):
            if step != "d":
                continue
            u, v = word[:i], word[i + 1 :]
            suite.check(None, u + "ne" + v, [(S_ONE, u + "en" + v), (S_Q_MINUS_1, word)])
    return suite.report


def _bounce_points(p: SchroederPath, s34: str) -> Iterator[tuple[Point, BounceData]]:
    """(point, bounce data) at every point (x, z) of p with 1 <= x and x + 1 < z
    whose bounce decomposition exists and has s3 s4 = s34.

    s3 s4 is always the pair of steps around the start point, word[i-1:i+1]
    at path index i, so a point whose two steps differ from s34 is skipped
    without running its bounce path.
    """
    word = p.word
    for i, (x, z) in enumerate(p.points()):
        if 1 <= x and x + 1 < z and word[i - 1 : i + 1] == s34:
            data = bounce_at(p, (x, z))
            if data.decomposition is not None:
                yield (x, z), data


def _bounce_walk(n: int, s34: str, bound: int) -> list[Record]:
    """The records of every point of a path of size n whose decomposition ends in s3 s4 = s34.

    A record is (word, point, end index, start index, kind), with kind the
    (s1 s2, whether the bounce path has a single bounce point, whether V
    holds an east step) of the point; paths come in word order and points
    in path order.  The walk runs once per (n, s34); its records are kept in
    ``_BOUNCE_WALKS`` and share their words and kinds.
    """
    key = (n, s34)
    records = _BOUNCE_WALKS.get(key)
    if records is None:
        kinds: dict[tuple[str, bool, bool], tuple[str, bool, bool]] = {}
        records = []
        for p in enumerate_paths(n, bound=bound):
            word = p.word
            for point, data in _bounce_points(p, s34):
                e, s = data.end_index, data.start_index
                kind = (word[e - 1 : e + 1], len(data.bounce_points) == 1, "e" in word[e + 1 : s - 1])
                records.append((word, point, e, s, kinds.setdefault(kind, kind)))
        _BOUNCE_WALKS[key] = records
    return records


# suite name -> (s1 s2 kinds, whether the bounce path has a single bounce
# point, whether V holds an east step) of the bounce instances it checks
_BOUNCE_SCOPES = {
    "bounceA": (("nn", "dn"), True, False),
    "bounceB": (("nn", "nd"), True, False),
    "bounceND": (("nd",), True, False),
    "generalized": (("nn", "dn", "nd"), False, False),
    "extended": (("nn", "dn", "nd"), True, True),
}


def _bounce_instances(n: int, scope: str, bound: int) -> Iterator[tuple[str, Point, tuple[str, str, str, str, str]]]:
    """The bounce instances (word, point, decomposition) of one scope at size n, in path order."""
    s12s, single_point, v_east = _BOUNCE_SCOPES[scope]
    accepted = {(s12, single_point, v_east) for s12 in s12s}
    for word, point, e, s, kind in _bounce_walk(n, "de", bound):
        if kind in accepted:
            yield word, point, _decomposition(word, e, s)


def _bounce_identity(decomposition) -> Terms:
    """The right-hand side of the bounce relation at U s1 s2 V de W."""
    u, s12, v, _s34, w = decomposition
    if s12 == "nn":
        return [(S_Q, u + "nn" + v + "ed" + w)]
    if s12 == "dn":
        return [(S_ONE, u + "nd" + v + "ed" + w)]
    if s12 == "nd":
        return [(S_Q_MINUS_1, u + "nd" + v + "ed" + w), (S_Q, u + "dn" + v + "ed" + w)]
    raise AssertionError(s12)


def _bounce_suite(name: str, n: int, scopes: tuple[str, ...], reverse_paths: bool, llt_fn: LltFn | None, bound: int) -> RelationReport:
    """Check the bounce instances of the scopes at size n, scope by scope.

    With `reverse_paths`, every path of every instance is reversed.
    """
    suite = _Suite(name, n, llt_fn, "llt", bound)
    flip = (lambda word: reverse(parse(word)).word) if reverse_paths else (lambda word: word)
    for scope in scopes:
        for word, point, decomposition in _bounce_instances(n, scope, bound):
            terms = [(c, flip(w)) for c, w in _bounce_identity(decomposition)]
            suite.check(point, flip(word), terms)
    return suite.report


def verify_bounce_A(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """Single-bounce-point relations with s1 s2 in {nn, dn} and V in {n,d}*."""
    return _bounce_suite("bounceA", n, ("bounceA",), False, llt_fn, bound)


def verify_bounce_B(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """Single-bounce-point relations with s1 s2 in {nn, nd} and V in {n,d}*."""
    return _bounce_suite("bounceB", n, ("bounceB",), False, llt_fn, bound)


def verify_bounce_nd(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """The two-term nd relation with coefficients (q-1) and q."""
    return _bounce_suite("bounceND", n, ("bounceND",), False, llt_fn, bound)


def verify_generalized_bounce(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """The three bounce relations at points whose bounce path has >= 2 bounce points."""
    return _bounce_suite("generalized", n, ("generalized",), False, llt_fn, bound)


def verify_extended_bounce(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """Optional wider scope: single-bounce relations with east steps in V.

    Reported separately; not part of the acceptance gate.
    """
    return _bounce_suite("extended", n, ("extended",), False, llt_fn, bound)


def sarrus_terms(u: str, v: str, w: str) -> tuple[list[str], list[str]]:
    """The six path words of the cross-product identity, split by sign.

    Expanding the formal 3x3 determinant with rows {u}, {enn v, nen v,
    nne v}, {een w, ene w, nee w} by Sarrus' rule pairs each prefix
    arrangement with a suffix arrangement; the positive diagonal products
    and the negative ones form the two sides of the six-term identity.
    """
    mids = ["enn", "nen", "nne"]
    ends = ["een", "ene", "nee"]
    plus = [u + mids[i] + v + ends[(i + 1) % 3] + w for i in range(3)]
    minus = [u + mids[i] + v + ends[(i + 2) % 3] + w for i in range(3)]
    return plus, minus


def _modular_instances(n: int, dyck_only: bool, bound: int) -> Iterator[tuple[str, Point, str, Terms]]:
    """(word, point, lhs word, rhs terms) of the modular and six-term relations at size n.

    An instance needs a single bounce point (always the case on a Dyck
    path) and a bounce decomposition ending in s3 s4 = ee with V ending
    in n.  With `dyck_only`, only the Dyck paths' points are read.
    """
    for word, point, e, s, (_s12, single, _east) in _bounce_walk(n, "ee", bound):
        if not single or (dyck_only and "d" in word):
            continue
        u, s12, vseg, _s34, w = _decomposition(word, e, s)
        if not vseg or vseg[-1] != "n":
            continue
        v = vseg[:-1]
        if s12 == "nn":
            # modular relation
            yield word, point, u + "nn" + v + "nee" + w, [(S_Q_PLUS_1, u + "nn" + v + "ene" + w), (S_MINUS_Q, u + "nn" + v + "een" + w)]
        if s12 == "en" and u and u[-1] == "n":
            # six-term relation in its Sarrus form: sum(plus) - sum(minus) = 0
            plus, minus = sarrus_terms(u[:-1], v, w)
            assert word in plus or word in minus
            yield word, point, plus[0], [(S_MINUS_ONE, pw) for pw in plus[1:]] + [(S_ONE, mw) for mw in minus]


def verify_dyck_relations(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """The modular relation and the six-term relation on all admissible points."""
    suite = _Suite("dyck", n, llt_fn, "llt", bound)
    for _word, point, lhs, terms in _modular_instances(n, False, bound):
        suite.check(point, lhs, terms)
    return suite.report


def verify_dual_bounce(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """Every bounce-relation instance holds with all paths reversed.

    The instances are those of bounceA, bounceND and generalized, which
    share none, checked scope by scope, each in path order.
    """
    return _bounce_suite("dual", n, ("bounceA", "bounceND", "generalized"), True, llt_fn, bound)


def verify_chromatic_relations(n: int, llt_fn: LltFn | None = None, bound: int = SIZE_BOUND) -> RelationReport:
    """Dyck relations, multiplicativity, and the path-graph initial condition
    for the chromatic quasisymmetric functions."""
    suite = _Suite("chromatic", n, llt_fn, "chromatic", bound)
    for _word, point, lhs, terms in _modular_instances(n, True, bound):
        suite.check(point, lhs, terms)
    value = suite.value
    # multiplicativity on concatenations
    for k in range(1, n):
        for left in enumerate_paths(k, dyck_only=True, bound=bound):
            for right in enumerate_paths(n - k, dyck_only=True, bound=bound):
                whole = left.word + right.word
                suite.record([whole, left.word, right.word], None, value(whole) - value(left.word) * value(right.word))
    # path-graph initial condition through the plethystic bridge
    if n >= 1:
        k = n - 1
        word = "n" + "ne" * k + "e"
        bridged = dyck_path_graph_formula(k, bound).pleth_q_minus_1()
        divisor = (Q - 1) ** n
        bridged = bridged.map_coeffs(lambda c: c.exact_div(divisor))
        f = value(word)
        suite.record([word], None, bridged.convert(f.basis) - f)
    return suite.report


# The suites behind `verify --suite`, by name.  `extended` is an optional
# wider scope: it runs only when asked for.
SUITES = {
    "unicellular": verify_unicellular,
    "bounceA": verify_bounce_A,
    "bounceB": verify_bounce_B,
    "bounceND": verify_bounce_nd,
    "generalized": verify_generalized_bounce,
    "dyck": verify_dyck_relations,
    "dual": verify_dual_bounce,
    "chromatic": verify_chromatic_relations,
    "extended": verify_extended_bounce,
}


def all_suites(n: int, bound: int = SIZE_BOUND) -> list[RelationReport]:
    """Every suite but `extended` at size n, each refusing a size above `bound` before any work."""
    return [fn(n, bound=bound) for name, fn in SUITES.items() if name != "extended"]


# -- the axiomatic evaluator ----------------------------------------------------


def dyck_path_graph_formula(k: int, bound: int = SIZE_BOUND) -> SymFunc:
    """e-expansion of the polynomial of the path graph n (ne)^k e on k+1 vertices:
    the sum of (q-1)^(k+1-l(alpha)) e_alpha over compositions alpha of k+1.
    A negative k, or a path size k+1 that `check_size` refuses, is refused before any work."""
    if k < 0:
        raise InvalidArgument(f"dyck_path_graph_formula needs k >= 0, got {k}")
    check_size(k + 1, bound)
    return linear_combination(
        "e",
        [((Q - 1) ** (k + 1 - len(alpha)), {tuple(sorted(alpha, reverse=True)): 1}) for alpha in compositions(k + 1)],
    )


def recursion_evaluate(path: SchroederPath | str, bound: int = SIZE_BOUND) -> SymFunc:
    """Evaluate the unique function fixed by the axioms, in the e-basis.

    Uses only the initial condition F(n d^k e) = e_{k+1}, multiplicativity
    at returns to the diagonal, the unicellular relation to strip a
    leading ne, and the generalized bounce relations when the first east
    step is preceded by a diagonal step.  Memoized on path words: each
    entry holds the value packed at q = 2**_WIDTH, which the linear rules
    combine, and the `SymFunc` returned here, which products multiply and
    a repeated call returns as it is.  Both forms share their ints and
    coefficients with every entry of equal value, through the evaluator's
    intern table (`_RECURSION_COEFFS`); they are never changed in place.
    `check_size` refuses a size above `bound`, or above `DEGREE_BOUND` (the
    largest size `_WIDTH` holds), before any work.  The evaluator recurses
    within the interpreter's default recursion limit (a cold size-12 path
    goes 68 levels deep) and leaves that limit alone; a rule cycle raises
    NonTermination at depth 200, before the interpreter's limit is reached.
    """
    if isinstance(path, str):
        path = parse(path)
    check_size(path.size, bound)
    entry = _RECURSION_CACHE.get(path.word)  # a hit is this one lookup
    if entry is None:
        entry = _evaluate(path.word, 0)
    return entry[1]


def _evaluate(word: str, depth: int) -> Entry:
    cached = _RECURSION_CACHE.get(word)
    if cached is not None:
        return cached
    if depth > _EVAL_DEPTH_BOUND:
        raise NonTermination(f"evaluator depth bound hit at {word!r}")
    out = _evaluate_uncached(word, depth)
    _RECURSION_CACHE[word] = out
    return out


def _unpacked(packed: Packed) -> Entry:
    """The entry of a packed value: its interned ints and their interned CoeffQTs, in e."""
    ints: Packed = {}
    coeffs: dict[Partition, CoeffQT] = {}
    for lam, v in packed.items():
        hit = _RECURSION_COEFFS.get(v)
        if hit is None:
            hit = _RECURSION_COEFFS[v] = (v, CoeffQT.from_packed(v, _WIDTH, True))
        ints[lam], coeffs[lam] = hit
    return ints, SymFunc.from_canonical("e", coeffs)


def _times_q(f: Packed) -> Packed:
    """q f."""
    return {lam: v << _WIDTH for lam, v in f.items()}


def _q_minus_1_times_plus(f: Packed, g: Packed) -> Entry:
    """The entry of (q-1) f + g."""
    out = {lam: (v << _WIDTH) - v for lam, v in f.items()}
    for lam, v in g.items():
        s = out.get(lam, 0) + v
        if s:
            out[lam] = s
        else:
            del out[lam]
    return _unpacked(out)


def _evaluate_uncached(word: str, depth: int) -> Entry:
    if not word:
        return _unpacked({(): 1})
    first_e = word.index("e")  # every nonempty path has an east step
    prefix = word[:first_e]
    # initial condition F(n d^k e) = e_{k+1}
    if first_e == len(word) - 1 and prefix == "n" + "d" * (first_e - 1):
        return _unpacked({(first_e,): 1})
    x = prefix.count("d")
    z = prefix.count("n") + prefix.count("d")
    if z == x + 1:
        # the first east step returns to the diagonal: split multiplicatively
        left = _evaluate(word[: first_e + 1], depth + 1)[1]
        right = _evaluate(word[first_e + 1 :], depth + 1)[1]
        product = left * right
        return _unpacked({lam: sum(v << _WIDTH * eq for (eq, _), v in c.terms.items()) for lam, c in product.coeffs.items()})
    if prefix[-1] == "n":
        # unicellular relation: F(Y n e W) = (q-1) F(Y d W) + F(Y e n W)
        y, w = word[: first_e - 1], word[first_e + 1 :]
        return _q_minus_1_times_plus(_evaluate(y + "d" + w, depth + 1)[0], _evaluate(y + "en" + w, depth + 1)[0])
    # first east step preceded by d: apply the bounce relation at (x, z)
    data = bounce_at(parse(word), (x, z))
    assert data.decomposition is not None
    u, s12, v, s34, w = data.decomposition
    assert s34 == "de" and "e" not in v and s12 in ("nn", "nd", "dn"), (word, data)
    if s12 == "nn":
        # F(U nn V de W) = q F(U nn V ed W)
        return _unpacked(_times_q(_evaluate(u + "nn" + v + "ed" + w, depth + 1)[0]))
    if s12 == "dn":
        # F(U dn V de W) = F(U nd V ed W): the same entry
        return _evaluate(u + "nd" + v + "ed" + w, depth + 1)
    # F(U nd V de W) = (q-1) F(U nd V ed W) + q F(U dn V ed W)
    f = _evaluate(u + "nd" + v + "ed" + w, depth + 1)[0]
    return _q_minus_1_times_plus(f, _times_q(_evaluate(u + "dn" + v + "ed" + w, depth + 1)[0]))
