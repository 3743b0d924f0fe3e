"""Colorings and orientations of decorated unit-interval graphs.

Two combinatorial models live here, each enumerated by one kernel.

Colorings.  ``coloring_backtrack`` colours vertices 1..n in order and
prunes by the rule that each edge to a lower neighbour u carries:

* STRICT: the colour must rise from u's, and that is not an ascent;
* FREE: any colour, an ascent when it rises;
* PROPER: the colour must differ, an ascent when it rises.

A content vector caps the number of vertices of each colour, and a leaf
callback decides what each finished coloring contributes.  ``llt`` runs
it over the strict and free edges of the graph of a path and tallies
q^{asc(kappa)} x_kappa, the vertical-strip polynomial in the monomial
basis; ``chromatic`` makes every edge PROPER; ``coloring_weight_split``
and the permutation colorings of the Schur module use other contents and
leaves.

Orientations.  An orientation is a bitmask over the non-strict edges (a
set bit points the edge upward); ``_hrv_labels`` computes the highest
reachable vertex of every vertex under one mask.  ``orientation_e_expansion``
sums q^{asc(theta)} e_{lambda(theta)} over all 2^area masks, and ``hrv``
and ``lambda_theta`` read the same labels for one explicit orientation.
Substituting q -> q-1 in the orientation sum recovers the coloring sum,
which is the identity the verification suites exercise on exhaustive
small instances.

All enumerations tally integer counts first and only then build exact
coefficients, so the hot loops never touch Fraction arithmetic.  The
module-level caches are keyed by path word; inserts are idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coeffring import CoeffQT
from .errors import BoundExceeded, HasDiagonal, InvalidColoring
from .partitions import partitions_of
from .schroeder import DecoratedGraph, SchroederPath, graph
from .symfunc import SymFunc

SIZE_BOUND = 7
AREA_BOUND = 20

_LLT_CACHE: dict[str, SymFunc] = {}
_ORIENT_CACHE: dict[str, SymFunc] = {}
_CHROMATIC_CACHE: dict[str, SymFunc] = {}


Coloring = tuple[int, ...]

# Edge rules of the coloring kernel, for an edge from a lower neighbour u to v.
# FREE and STRICT are the is_strict flags of DecoratedGraph.lower_neighbors(),
# so its lists feed the kernel unchanged.
FREE = False  # any colours; an ascent when kappa(u) < kappa(v)
STRICT = True  # kappa(u) < kappa(v) required; never an ascent
PROPER = 2  # kappa(u) != kappa(v) required; an ascent when kappa(u) < kappa(v)


@dataclass(frozen=True)
class Orientation:
    """One directed edge per edge of a decorated graph.

    Strict edges are always directed low-to-high (the natural
    orientation); an ascending edge is a non-strict edge directed
    low-to-high.
    """

    directed: frozenset[tuple[int, int]]

    def to_obj(self) -> dict:
        return {"directed": [list(e) for e in sorted(self.directed)]}


def asc_coloring(g: DecoratedGraph, kappa: Coloring) -> int:
    """Number of ascents of a coloring; validates the strict-edge constraints."""
    if len(kappa) != g.n or any(c < 1 for c in kappa):
        raise InvalidColoring(f"need {g.n} positive colors")
    count = 0
    for (x, y) in g.edges:
        if (x, y) in g.strict:
            if not kappa[x - 1] < kappa[y - 1]:
                raise InvalidColoring(f"strict edge ({x},{y}) needs increasing colors")
        elif kappa[x - 1] < kappa[y - 1]:
            count += 1
    return count


def swap_coloring(g: DecoratedGraph, kappa: Coloring, x: int, y: int) -> Coloring:
    """Exchange the colors of the adjacent vertices x and y = x+1."""
    if y != x + 1:
        raise ValueError("the swap map exchanges adjacent vertices only")
    out = list(kappa)
    out[x - 1], out[y - 1] = out[y - 1], out[x - 1]
    return tuple(out)


def coloring_backtrack(
    lower: list[list[tuple[int, int]]], content: tuple[int, ...], leaf: Callable[[list[int], int], None]
) -> None:
    """Call leaf(colors, asc) on every coloring of vertices 1..n that obeys the edge rules.

    lower[v] lists (u, rule) for each neighbour u < v of v.  content[i] caps
    the number of vertices of colour i+1, so a content summing to n is
    exact.  Vertices are coloured in increasing order: a rule violation
    prunes at once and ascents accumulate as the search descends.
    colors[v] is the colour of v (colors[0] is unused); the list is reused,
    so a leaf that keeps it must copy it.
    """
    n = len(lower) - 1
    remaining = list(content)
    palette = range(1, len(content) + 1)
    colors = [0] * (n + 1)

    def rec(v: int, asc: int) -> None:
        if v > n:
            leaf(colors, asc)
            return
        for color in palette:
            if not remaining[color - 1]:
                continue
            add = 0
            for (u, rule) in lower[v]:
                c = colors[u]
                if c < color:
                    if rule != STRICT:
                        add += 1
                elif rule == STRICT or (rule == PROPER and c == color):
                    break
            else:
                colors[v] = color
                remaining[color - 1] -= 1
                rec(v + 1, asc + add)
                remaining[color - 1] += 1

    rec(1, 0)


def _ascent_tally(lower, content: tuple[int, ...]) -> dict[int, int]:
    """Number of colorings of the given content, by ascent number."""
    tally: dict[int, int] = {}

    def leaf(colors, asc):
        tally[asc] = tally.get(asc, 0) + 1

    coloring_backtrack(lower, content, leaf)
    return tally


def _q_poly(tally: dict[int, int]) -> CoeffQT:
    """The polynomial sum of count * q^exponent over an integer tally."""
    return CoeffQT({(a, 0): c for a, c in tally.items()})


def _m_expansion(lower, n: int) -> SymFunc:
    """The coloring sum in the m-basis: m_lam collects the colorings of content lam."""
    coeffs = {}
    for lam in partitions_of(n):
        tally = _ascent_tally(lower, lam)
        if tally:
            coeffs[lam] = _q_poly(tally)
    return SymFunc("m", coeffs)


def llt(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """The coloring generating function of the path, in the m-basis.

    The m_lam coefficient collects the colorings whose content is the
    canonical arrangement (lam_1 vertices of color 1, lam_2 of color 2,
    and so on); colors beyond [n] never occur since the function is
    homogeneous of degree n.
    """
    cached = _LLT_CACHE.get(path.word)
    if cached is not None:
        return cached
    n = path.size
    if n > bound:
        raise BoundExceeded(f"llt on size {n} exceeds bound {bound}")
    out = _m_expansion(graph(path).lower_neighbors(), n)
    _LLT_CACHE[path.word] = out
    return out


def content_coefficient(path: SchroederPath, content: tuple[int, ...]) -> CoeffQT:
    """Coefficient of the monomial x_1^c1 x_2^c2 ... in the coloring sum.

    Accepts arbitrary compositions, which makes the symmetry of the
    coloring sum directly testable.
    """
    return _q_poly(_ascent_tally(graph(path).lower_neighbors(), content))


def orientations(path: SchroederPath, area_bound: int = AREA_BOUND) -> list[Orientation]:
    """All orientations of the graph of P with strict edges directed upward."""
    g = graph(path)
    free = g.nonstrict_edges()
    if len(free) > area_bound:
        raise BoundExceeded(f"area {len(free)} exceeds bound {area_bound}")
    base = [(x, y) for (x, y) in sorted(g.strict)]
    out = []
    for mask in range(1 << len(free)):
        directed = list(base)
        for i, (x, y) in enumerate(free):
            directed.append((x, y) if (mask >> i) & 1 else (y, x))
        out.append(Orientation(frozenset(directed)))
    return out


def asc_orientation(g: DecoratedGraph, theta: Orientation) -> int:
    """Number of ascending (non-strict, upward) edges of the orientation."""
    return sum(
        1 for (u, v) in theta.directed if u < v and (u, v) not in g.strict
    )


def _upward_edges(g: DecoratedGraph):
    """The non-strict edges, and per vertex its strict heads and (bit, head) non-strict pairs.

    Bit i of an orientation mask stands for the i-th non-strict edge, set
    when that edge points upward (is ascending).
    """
    free = g.nonstrict_edges()
    strict_up: list[list[int]] = [[] for _ in range(g.n + 1)]
    for (x, y) in g.strict:
        strict_up[x].append(y)
    free_up: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, (x, y) in enumerate(free):
        free_up[x].append((1 << i, y))
    return free, strict_up, free_up


def _hrv_labels(strict_up, free_up, mask: int) -> list[int]:
    """best[v]: the highest vertex reachable from v along upward edges under the mask.

    Upward edges are the strict ones and the non-strict ones whose bit is
    set; every upward edge leads to a higher vertex, so one downward sweep
    settles all labels.
    """
    best = list(range(len(strict_up)))
    for v in range(len(strict_up) - 1, 0, -1):
        b = v
        for w in strict_up[v]:
            if best[w] > b:
                b = best[w]
        for bit, w in free_up[v]:
            if mask & bit and best[w] > b:
                b = best[w]
        best[v] = b
    return best


def _block_sizes(best) -> tuple[int, ...]:
    """lambda: sizes of the classes of vertices 1..n with equal labels, sorted decreasingly."""
    sizes: dict[int, int] = {}
    for b in best[1:]:
        sizes[b] = sizes.get(b, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def _theta_labels(g: DecoratedGraph, theta: Orientation) -> list[int]:
    """The labels of one explicit orientation, through its mask."""
    free, strict_up, free_up = _upward_edges(g)
    mask = sum(1 << i for i, edge in enumerate(free) if edge in theta.directed)
    return _hrv_labels(strict_up, free_up, mask)


def hrv(g: DecoratedGraph, theta: Orientation, u: int) -> int:
    """Highest vertex reachable from u along strict and ascending edges."""
    return _theta_labels(g, theta)[u]


def lambda_theta(g: DecoratedGraph, theta: Orientation) -> tuple[int, ...]:
    """Block sizes of the highest-reachable-vertex partition, sorted decreasingly."""
    return _block_sizes(_theta_labels(g, theta))


def _orientation_tally(path: SchroederPath, area_bound: int = AREA_BOUND) -> dict[tuple[int, ...], dict[int, int]]:
    """For each partition lam, count orientations with lambda(theta) = lam by ascent.

    The bitmask enumeration over non-strict edges is the hot loop of the
    whole package; everything here is small ints.
    """
    free, strict_up, free_up = _upward_edges(graph(path))
    if len(free) > area_bound:
        raise BoundExceeded(f"area {len(free)} exceeds bound {area_bound}")
    by_labels: dict[tuple[int, ...], dict[int, int]] = {}
    for mask in range(1 << len(free)):
        labels = tuple(_hrv_labels(strict_up, free_up, mask))
        asc = bin(mask).count("1")
        inner = by_labels.setdefault(labels, {})
        inner[asc] = inner.get(asc, 0) + 1
    # far fewer distinct label vectors than masks: reduce them to lambda once each
    tally: dict[tuple[int, ...], dict[int, int]] = {}
    for labels, inner in by_labels.items():
        merged = tally.setdefault(_block_sizes(labels), {})
        for asc, count in inner.items():
            merged[asc] = merged.get(asc, 0) + count
    return tally


def orientation_e_expansion(path: SchroederPath, area_bound: int = AREA_BOUND) -> SymFunc:
    """Sum of q^{asc(theta)} e_{lambda(theta)} over all orientations.

    This is the e-positive expansion of the coloring sum with q shifted
    by one: it equals llt(path) after the substitution q -> q+1.
    """
    cached = _ORIENT_CACHE.get(path.word)
    if cached is not None:
        return cached
    tally = _orientation_tally(path, area_bound)
    out = SymFunc("e", {lam: _q_poly(inner) for lam, inner in tally.items()})
    _ORIENT_CACHE[path.word] = out
    return out


def llt_via_orientations(path: SchroederPath, area_bound: int = AREA_BOUND) -> SymFunc:
    """The orientation sum with q -> q-1: contractually equal to llt(path) in e."""
    return orientation_e_expansion(path, area_bound).shift_q(-1)


def chromatic(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """Chromatic quasisymmetric function of the unit-interval graph of a Dyck path.

    Proper colorings (adjacent colors distinct) weighted by the same
    ascent statistic as the coloring sum, returned in the m-basis.
    """
    if not path.is_dyck():
        raise HasDiagonal(f"{path.word!r} has diagonal steps")
    cached = _CHROMATIC_CACHE.get(path.word)
    if cached is not None:
        return cached
    n = path.size
    if n > bound:
        raise BoundExceeded(f"chromatic on size {n} exceeds bound {bound}")
    lower = [[(u, PROPER) for (u, _) in nbrs] for nbrs in graph(path).lower_neighbors()]
    out = _m_expansion(lower, n)
    _CHROMATIC_CACHE[path.word] = out
    return out


def coloring_weight_split(path: SchroederPath, x: int):
    """Weight enumerators of colorings split by the comparison at (x, x+1).

    Colors run over [n].  Returns (lower, upper): dicts mapping a content
    vector to the ascent tally of the colorings with kappa(x) < kappa(x+1)
    resp. kappa(x) > kappa(x+1).  Used to check the swap-map identity.
    """
    n = path.size
    y = x + 1
    lower: dict[tuple[int, ...], dict[int, int]] = {}
    upper: dict[tuple[int, ...], dict[int, int]] = {}

    def leaf(colors, asc):
        if colors[x] == colors[y]:
            return
        content = [0] * n
        for c in colors[1:]:
            content[c - 1] += 1
        target = lower if colors[x] < colors[y] else upper
        inner = target.setdefault(tuple(content), {})
        inner[asc] = inner.get(asc, 0) + 1

    coloring_backtrack(graph(path).lower_neighbors(), (n,) * n, leaf)
    return lower, upper
