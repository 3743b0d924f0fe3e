"""Colorings and orientations of decorated unit-interval graphs.

Two combinatorial models live here.  Each has a dynamic program that
tallies the whole sum, and a per-object kernel that serves callers who
need the objects one at a time and the tests as an oracle.

Colorings.  ``coloring_backtrack`` colours vertices 1..n in order and
prunes by the rule that each edge to a lower neighbour u carries:

* STRICT: the colour must rise from u's, and that is not an ascent;
* FREE: any colour, an ascent when it rises;
* PROPER: the colour must differ, an ascent when it rises.

The rules are this module's own: every caller of the backtrack takes its
lists of (u, rule) from ``_lower_neighbors``, which reads the path's column
tops, not its ``DecoratedGraph`` (that serves the per-object functions).

A content vector caps the number of vertices of each colour, and a leaf
callback decides what each finished coloring contributes.
``content_coefficient``, ``coloring_weight_split`` and the permutation
colorings of the Schur module run it; the first two refuse a path above
their size bound before any work.  ``llt`` and ``chromatic`` (every edge
PROPER) instead take out colour class 1 first.  With B the set of vertices
of colour 1 and the rest coloured 2, 3, ... as a coloring of the graph
induced on the other vertices, relabelled down by one,

    G(P) = sum over B of q^asc(B) [|B| | G(P restricted to the rest)],

where B ranges over the nonempty vertex sets with no vertex that has a
strict lower neighbour (for ``chromatic``, also no edge inside B), asc(B)
counts the non-strict edges (u, v), u < v, with u in B and v outside it,
and [k | F] keeps the terms m_nu of F with nu_1 <= k and prepends the part
k.  The m_lam coefficient of G(P), the colorings of content lam, is then
read off exactly, with no symmetry of any graph assumed.

The rest is again the graph of a Schroeder path.  Vertex u of a vertex
set R keeps the vertices of R in u+1..top[u] as its upper neighbours, so
its new top is the number of vertices of R up to top[u], and these tops
never decrease; u keeps its strict edge iff top[u] is in R, and the new
top of a diagonal column stays above the one before it (top[u] itself is
in R and lies above the old top of the column before).  So the values of
smaller paths serve larger ones, as the orientation DP's window moves do.
``_first_classes`` reads the classes and the rest words off the path word,
``_shape_value`` sums them, and ``_layout`` fixes one packed layout per
size bound, so that the prepending is one mask and one shift of ints.

Orientations.  An orientation is a bitmask over the non-strict edges (a
set bit points the edge upward); ``_hrv_labels`` computes the highest
reachable vertex of every vertex under one mask, and ``hrv`` and
``lambda_theta`` read those labels for one explicit orientation.
``orientation_e_expansion`` sums q^{asc(theta)} e_{lambda(theta)} over all
2^area orientations without visiting them: ``_orientation_tally`` places
the vertices from n down to 1 and keeps only the labels of the window of
vertices that lower ones can still reach, with the sizes of the blocks.
The moves out of such a window state depend only on the state and on the
step of the vertex placed (its window length, whether its longest upper
edge is strict, and the next window length), not on the path, so all
paths walk one shared automaton: ``_WINDOW_MOVES`` maps step and state to
the moves, built on first use by ``_window_moves``.  Substituting q -> q-1
in the orientation sum recovers the coloring sum, which is the identity
the verification suites exercise on exhaustive small instances.

All enumerations tally integer counts first and only then build exact
coefficients, so the hot loops never touch Fraction arithmetic.
``orientation_e_expansion`` keeps no value: each call runs its DP, and a
caller that reads a value again keeps it (the relation suites keep one
packed int per word).  ``llt`` and ``chromatic`` keep one packed int for
every proper induced shape they meet in `_SHAPE_VALUES`, keyed by the size
bound b clipped at DEGREE_BOUND (which fixes the layout), by whether the
edges are PROPER, and by the shape's path word.  A shape of m vertices is
only read through a class of at most b - m vertices, so its int holds the
terms m_lam with lam_1 <= min(m, b - m), and only classes of that size are
summed for it.  The value of the path asked for is summed from every
class (the empty path has none: its value is the empty shape's, the one
empty coloring), decoded with `CoeffQT.from_packed` and dropped.  So a
sweep of the paths of size n keeps at most one int per path of size below
n, per bound and rule, and no coefficient.  The other module state is
combinatorial: the packed layouts (`_LAYOUTS`, by size bound) and the
orientation DP's window moves (`_WINDOW_MOVES`, keyed by step and window
state, with `_WINDOW_STATES` holding one object per state they name).
These tables hold tuples and lists of ints and bools, never a coefficient
or a path value.  Every insert into any of them is idempotent, and they
grow with the sizes swept.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

from . import memo
from .coeffring import CoeffQT
from .errors import BoundExceeded, HasDiagonal, InvalidArgument, InvalidColoring, SizeMismatch
from .partitions import DEGREE_BOUND, check_size, partition_slots, partitions_of
from .schroeder import SIZE_BOUND, DecoratedGraph, SchroederPath, area, graph
from .symfunc import SymFunc

AREA_BOUND = 16

# the orientation DP's moves: step -> window state -> moves (see `_window_moves`)
_WINDOW_MOVES: dict[tuple, dict[tuple, tuple]] = memo.table("_WINDOW_MOVES")
# every window state those moves lead to, one object per value, so moves share them
_WINDOW_STATES: dict[tuple, tuple] = memo.table("_WINDOW_STATES")
_ROOT = ((), (), ())  # the window state before any vertex is placed
# the coloring DP's values: (size bound, proper) -> shape word -> packed value (see `_shape_value`)
_SHAPE_VALUES: dict[tuple[int, bool], dict[str, int]] = memo.table("_SHAPE_VALUES")
# the packed layout of those values, by size bound (see `_layout`)
_LAYOUTS: dict[int, tuple] = memo.table("_LAYOUTS")


Coloring = tuple[int, ...]

# Edge rules of the coloring kernel, for an edge from a lower neighbour u to v.
FREE = 0  # any colours; an ascent when kappa(u) < kappa(v)
STRICT = 1  # kappa(u) < kappa(v) required; never an ascent
PROPER = 2  # kappa(u) != kappa(v) required; an ascent when kappa(u) < kappa(v)


def _lower_neighbors(path: SchroederPath, proper: bool = False) -> list[list[tuple[int, int]]]:
    """For each vertex v of the graph of the path, (u, rule) for its neighbours u < v, in order.

    Column u has edges to u+1..top[u]; the one to top[u] is STRICT when the
    column's step is diagonal, every other is FREE, and with `proper` (for
    chromatic functions, of Dyck paths) every edge is PROPER.
    """
    out: list[list[tuple[int, int]]] = [[] for _ in range(path.size + 1)]
    for u, (top, diagonal) in path.column_tops().items():
        for v in range(u + 1, top + 1):
            out[v].append((u, PROPER if proper else STRICT if diagonal and v == top else FREE))
    return out


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
    """Exchange the colors of the adjacent vertices x and y = x+1, 1 <= x < n."""
    if len(kappa) != g.n:
        raise InvalidColoring(f"need {g.n} colors, got {len(kappa)}")
    if y != x + 1:
        raise InvalidArgument("the swap map exchanges adjacent vertices only")
    if not 1 <= x < g.n:
        raise InvalidArgument(f"the swap map needs 1 <= x < {g.n}, got x = {x}")
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


def _layout(b: int) -> tuple[int, int, list[list[int]], list[list[int]]]:
    """The packed layout of the coloring values under the size bound b <= DEGREE_BOUND.

    A value is one int: the partitions of its size each have a slot, in the
    order of `partition_slots`, and a slot holds an ascent tally as a value
    at q = 2**width.  Digits are as wide as b!, which no count of colorings
    of at most b vertices reaches, and a slot holds C(b, 2) + 1 digits, one
    more than the most ascents such a coloring has, so no carry crosses a
    digit or a slot.  Every size under one bound shares the layout, so the
    value of a smaller shape moves into a larger one by a mask and a shift:
    keep[m][k] masks the slots of the partitions of m whose largest part is
    at most k, and into[n][k] is the bit offset of the block of partitions
    of n whose largest part is k.  Returns (width, slot, keep, into).
    """
    cached = _LAYOUTS.get(b)
    if cached is None:
        width = factorial(b).bit_length()
        slot = width * (b * (b - 1) // 2 + 1)
        los = [partition_slots(m)[1] for m in range(b + 1)]
        keep = [[(1 << slot * lo[min(k, m) + 1]) - 1 for k in range(b + 1)] for m, lo in enumerate(los)]
        into = [[slot * lo[k] for k in range(n + 1)] for n, lo in enumerate(los)]
        cached = _LAYOUTS.setdefault(b, (width, slot, keep, into))
    return cached


def _first_classes(word: str, proper: bool, cap: int) -> list[tuple[str, int, int]]:
    """(rest word, asc(B), |B|) for every colour class 1, B, of at most `cap` vertices, the empty one too.

    The word is read as rows and columns: an n step is the row of a vertex,
    an e step the column of a vertex, and a d step both, the row of top[u]
    and the column of u, whose edge to top[u] is strict.  Rows and columns
    each come in vertex order, the row of a vertex before its column, and
    v is adjacent to u < v iff the row of v comes before the column of u.
    B may hold a vertex iff its row is an n step (the row of a d step has a
    strict lower neighbour); with `proper`, no two members are adjacent.

    One pass over the letters keeps every choice made so far, as (rest, B,
    open, asc, k): the rest word, B as a bitmask, the members whose column
    is still to come (a row read now is adjacent to exactly those), the
    ascents and |B|.  A row outside B rises above each open member, one
    ascent each.  A member's column is dropped, or its d step becomes the
    n step of the row it holds; every other letter is copied.  So the rest
    is the word of the graph induced on the vertices outside B.
    """
    states = [("", 0, 0, 0, 0)]
    row = col = 0
    for letter in word:
        if letter == "n":
            bit = 1 << row
            row += 1
            grown = []
            for rest, b, opened, asc, k in states:
                grown.append((rest + "n", b, opened, asc + opened, k))
                if k < cap and not (proper and opened):
                    grown.append((rest, b | bit, opened + 1, asc, k + 1))
            states = grown
        elif letter == "e":
            bit = 1 << col
            col += 1
            states = [
                (rest, b, opened - 1, asc, k) if b & bit else (rest + "e", b, opened, asc, k)
                for rest, b, opened, asc, k in states
            ]
        else:
            bit = 1 << col
            col += 1
            row += 1
            states = [
                (rest + "n", b, opened - 1, asc + opened - 1, k) if b & bit else (rest + "d", b, opened, asc + opened, k)
                for rest, b, opened, asc, k in states
            ]
    return [(rest, asc, k) for rest, _, _, asc, k in states]


def _shape_value(word: str, n: int, values: dict[str, int], layout, proper: bool, cap: int) -> int:
    """The packed coloring sum of the shape `word` of size n, by its first colour class.

    G(P) = sum over the classes B of q^asc(B) [|B| | G(rest)], where
    [k | F] keeps the terms m_nu of F with nu_1 <= k and prepends the part
    k: a mask and a shift in the layout.  Only the classes of at most `cap`
    vertices are summed, so the value holds the terms m_lam with
    lam_1 <= cap, exactly.  Each rest is read from `values`, or computed
    and stored there first, with the terms that any shape of at most b
    vertices, the size bound, can read: a rest of m vertices is only ever
    read through a class of at most b - m, so it keeps lam_1 <= min(m, b - m).
    """
    width, _, keep, into = layout
    b = len(into) - 1  # the size bound the layout serves
    lands = into[n]
    total = 0
    for rest, asc, k in _first_classes(word, proper, cap):
        if k:
            m = n - k
            value = values.get(rest)
            if value is None:
                value = values[rest] = _shape_value(rest, m, values, layout, proper, min(m, b - m))
            total += (value & keep[m][k]) << (lands[k] + width * asc)
    return total


def _coloring_sum(path: SchroederPath, bound: int, proper: bool) -> SymFunc:
    """The coloring sum of the path in the m-basis, from the shared shape values under its bound.

    The caller has checked the size against the bound (`check_size`).
    """
    n = path.size
    b = min(bound, DEGREE_BOUND)
    layout = _layout(b)
    values = _SHAPE_VALUES.get((b, proper))
    if values is None:
        values = _SHAPE_VALUES.setdefault((b, proper), {"": 1})  # the empty shape: one empty coloring
    value = _shape_value(path.word, n, values, layout, proper, n) if n else values[""]
    width, slot = layout[0], layout[1]
    order = partition_slots(n)[0]
    mask = (1 << slot) - 1
    tallies = {lam: value >> slot * i & mask for i, lam in enumerate(order)}
    terms = {lam: CoeffQT.from_packed(tallies[lam], width) for lam in partitions_of(n) if tallies[lam]}
    return SymFunc.from_canonical("m", terms)


def llt(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """The coloring generating function of the path, in the m-basis.

    The m_lam coefficient collects the colorings whose content is the
    canonical arrangement (lam_1 vertices of color 1, lam_2 of color 2,
    and so on); colors beyond [n] never occur since the function is
    homogeneous of degree n.
    """
    check_size(path.size, bound)
    return _coloring_sum(path, bound, proper=False)


def content_coefficient(path: SchroederPath, content: tuple[int, ...], bound: int = SIZE_BOUND) -> CoeffQT:
    """Coefficient of the monomial x_1^c1 x_2^c2 ... in the coloring sum.

    Accepts arbitrary weak compositions of the path's size, which makes the
    symmetry of the coloring sum directly testable.  Runs the backtrack, so
    a size above `bound` is refused before any work, and so is a content
    with a part that is not a nonnegative int, or of another size.
    """
    check_size(path.size, bound)
    if any(not isinstance(c, int) or c < 0 for c in content):
        raise InvalidArgument(f"content {content} has a part that is not a nonnegative int")
    if sum(content) != path.size:
        raise SizeMismatch(f"content {content} does not sum to the size {path.size} of {path.word!r}")
    tally: dict[int, int] = {}

    def leaf(colors, asc):
        tally[asc] = tally.get(asc, 0) + 1

    coloring_backtrack(_lower_neighbors(path), content, leaf)
    return CoeffQT({(a, 0): c for a, c in tally.items()})


def orientations(path: SchroederPath) -> list[Orientation]:
    """All 2**area orientations of the graph of P with strict edges directed upward."""
    a = area(path)
    if a > AREA_BOUND:
        raise BoundExceeded(f"area {a} exceeds bound {AREA_BOUND}")
    g = graph(path)
    free = _upward_edges(g)[0]
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

    Bit i of an orientation mask stands for the i-th non-strict edge in
    sorted order, set when that edge points upward (is ascending).
    """
    free = sorted(g.edges - g.strict)
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
    """Highest vertex reachable from u along strict and ascending edges, 1 <= u <= n."""
    if not 1 <= u <= g.n:
        raise InvalidArgument(f"vertex {u} is outside 1..{g.n}")
    return _theta_labels(g, theta)[u]


def lambda_theta(g: DecoratedGraph, theta: Orientation) -> tuple[int, ...]:
    """Block sizes of the highest-reachable-vertex partition, sorted decreasingly."""
    return _block_sizes(_theta_labels(g, theta))


def _window_moves(state: tuple, step: tuple[int, bool, int]) -> tuple:
    """The moves of the orientation DP from one window state at one vertex step.

    The state is (window labels as ranks, open block sizes by rank, closed
    block sizes, sorted decreasingly); the step of vertex v is (top[v] - v,
    whether the longest upper edge of v is strict, top[v-1] - v + 1), the
    window length before v, its strict flag and the window length after v.
    A move is (next state, c, b, first): its choices of up-edges number
    (1+q)^c when `first` (v keeps its strict label, or its own), and
    ((1+q)^c - 1)(1+q)^b otherwise (at least one of the c edges to the
    label it takes points up, and the b edges to lower labels are free).
    """
    labels, sizes, closed = state
    span, strict, keep = step
    reached = labels[: span - 1] if strict else labels  # the labels its free up-edges reach
    low = labels[span - 1] if strict else -1
    # v keeps `low` (its strict label, or -1 for v itself) when every up-edge it
    # picks reaches no higher label; it takes r > low when at least one edge to r
    # points up, whatever the edges to lower labels do.
    choices = [(low, sum(1 for r in reached if r <= low), 0, True)]
    for r in sorted(set(reached)):
        if r > low:
            choices.append((r, reached.count(r), sum(1 for s in reached if s < r), False))
    moves = []
    for label, c, b, first in choices:
        # a new block takes rank 0 and lifts the others by one
        new = label < 0
        window = ((0,) + tuple(r + 1 for r in labels) if new else (label,) + labels)[:keep]
        alive = sorted(set(window))
        rank = {r: i for i, r in enumerate(alive)}
        grown = (1,) + sizes if new else sizes[:label] + (sizes[label] + 1,) + sizes[label + 1 :]
        dead = [grown[r] for r in range(len(grown)) if r not in rank]
        shut = tuple(sorted(closed + tuple(dead), reverse=True)) if dead else closed
        target = (tuple(rank[r] for r in window), tuple(grown[r] for r in alive), shut)
        moves.append((_WINDOW_STATES.setdefault(target, target), c, b, first))
    return tuple(moves)


def _orientation_tally(path: SchroederPath) -> dict[tuple[int, ...], CoeffQT]:
    """For each partition lam, the orientations with lambda(theta) = lam as a polynomial in q.

    The q^a coefficient counts those orientations with a ascents.

    A dynamic program over the vertices from n down to 1.  The upper
    neighbours of v are v+1..top[v], and top never decreases, so once v is
    placed only the window v..top[v-1] can still be reached from below.  A
    state holds the highest-reachable labels of the window, as ranks
    (only their order and equality matter), the sizes of the blocks those
    labels name, and the sorted sizes of the blocks already closed.

    Vertex v chooses which of its non-strict upper edges point up, one
    ascent each; its strict upper edge, the longest one when there is one,
    always does.  Its label is the largest label it reaches, or v itself
    (below every label in the window) when it reaches none, and v joins
    that label's block.  A block closes when its label leaves the window,
    since no vertex below can reach it any more.

    The moves out of a state read only the state and the step of v (see
    `_window_moves`), never the path, so every path shares them: the table
    `_WINDOW_MOVES` maps each step, then each state, to its moves, built on
    the first visit.  It holds tuples of ints and bools only, and no value;
    its inserts are idempotent, and it grows with the sizes swept.  A path
    then costs one lookup per state and step, and one multiply-add per
    move.  No count exceeds 2**area, which sets the digit width of the
    tallies (see `CoeffQT.from_packed`, which decodes them).
    """
    tops = path.column_tops()
    n = path.size
    width = area(path) + 1
    grow = [1]  # grow[k] = (1+q)^k at q = 2**width: k non-strict edges, each down or up
    for _ in range(n):
        grow.append(grow[-1] * (1 + (1 << width)))
    states = {_ROOT: 1}
    for v in range(n, 0, -1):
        top, strict = tops[v]
        step = (top - v, strict, (tops[v - 1][0] if v > 1 else 0) - v + 1)
        moves_at = _WINDOW_MOVES.get(step)
        if moves_at is None:
            moves_at = _WINDOW_MOVES.setdefault(step, {})
        following: dict[tuple, int] = {}
        get = following.get
        for state, value in states.items():
            moves = moves_at.get(state)
            if moves is None:
                moves = moves_at[state] = _window_moves(state, step)
            for target, c, b, first in moves:
                following[target] = get(target, 0) + value * (grow[c] if first else (grow[c] - 1) * grow[b])
        states = following
    return {closed: CoeffQT.from_packed(value, width) for (_, _, closed), value in states.items()}


def orientation_e_expansion(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """Sum of q^{asc(theta)} e_{lambda(theta)} over all orientations.

    This is the e-positive expansion of the coloring sum with q shifted
    by one: it equals llt(path) after the substitution q -> q+1.
    """
    check_size(path.size, bound)
    return SymFunc.from_canonical("e", _orientation_tally(path))


def llt_via_orientations(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """The orientation sum with q -> q-1: contractually equal to llt(path) in e."""
    return orientation_e_expansion(path, bound).shift_q(-1)


def chromatic(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """Chromatic quasisymmetric function of the unit-interval graph of a Dyck path.

    Proper colorings (adjacent colors distinct) weighted by the same
    ascent statistic as the coloring sum, returned in the m-basis.
    """
    check_size(path.size, bound)
    if not path.is_dyck():
        raise HasDiagonal(f"{path.word!r} has diagonal steps")
    return _coloring_sum(path, bound, proper=True)


def coloring_weight_split(path: SchroederPath, x: int, bound: int = SIZE_BOUND):
    """Weight enumerators of colorings split by the comparison at (x, x+1).

    Colors run over [n].  Returns (lower, upper): dicts mapping a content
    vector to the ascent tally of the colorings with kappa(x) < kappa(x+1)
    resp. kappa(x) > kappa(x+1).  Used to check the swap-map identity.
    The backtrack walks up to n^n colorings (all of them on a path with no
    area), so a size above `bound`, or an x outside 1..n-1, is refused
    before any work.
    """
    n = path.size
    check_size(n, bound)
    if not 1 <= x < n:
        raise InvalidArgument(f"coloring_weight_split needs 1 <= x < {n}, got x = {x}")
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

    coloring_backtrack(_lower_neighbors(path), (n,) * n, leaf)
    return lower, upper
