"""Colorings and orientations of decorated unit-interval graphs.

Two combinatorial models live here.  Each has a dynamic program that
tallies the whole sum, and a per-object kernel that serves callers who
need the objects one at a time and the tests as an oracle.

Colorings.  ``coloring_backtrack`` colours vertices 1..n in order and
prunes by the rule that each edge to a lower neighbour u carries:

* STRICT: the colour must rise from u's, and that is not an ascent;
* FREE: any colour, an ascent when it rises;
* PROPER: the colour must differ, an ascent when it rises.

The rules are this module's own: every coloring entry point takes its
lists of (u, rule) from ``_lower_neighbors``, which reads the path's column
tops, not its ``DecoratedGraph`` (that serves the per-object functions).

A content vector caps the number of vertices of each colour, and a leaf
callback decides what each finished coloring contributes.
``content_coefficient``, ``coloring_weight_split`` and the permutation
colorings of the Schur module run it; the first two refuse a path above
their size bound before any work.  ``llt`` and ``chromatic`` (every edge
PROPER) instead run ``_m_expansion``, which builds all contents at once by
adding one colour class at a time.  Its state is one int per set of
coloured vertices: each partition of the number coloured (the class sizes
so far) has a fixed slot in it, and a slot holds an ascent tally as a
value at q = 2**width.  Digits are as wide as n!, which no count reaches,
and slots hold one digit more than there are non-strict edges, so no carry
crosses a digit or a slot.  Adding a class is then one shift and one add
of ints (see `partition_slots` for the slot order that makes this work).
``llt`` tallies q^{asc(kappa)} x_kappa over the strict and free edges of
the graph of a path, the vertical-strip polynomial in the monomial basis.

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
coefficients, so the hot loops never touch Fraction arithmetic.  ``llt``
and ``orientation_e_expansion`` keep no value: each call runs its DP, and
a caller that reads a value again keeps it (the relation suites keep one
packed int per word).  ``chromatic`` memoizes by path word, because the
chromatic suite multiplies the values of every smaller size.  Both DPs
decode their packed tallies with `CoeffQT.from_packed` as they return, so
once a caller drops a value nothing holds it.  The module state they read
is combinatorial: the orientation DP's window moves (`_WINDOW_MOVES`, keyed
by step and window state, with `_WINDOW_STATES` holding one object per
state they name) and the coloring DP's lists of uncoloured vertices
(`_UNCOLOURED_VERTICES`, keyed by size).  These tables hold tuples of ints
and bools, never a coefficient or a path value; every insert is
idempotent, and they grow with the sizes swept.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

from . import memo
from .coeffring import CoeffQT
from .errors import BoundExceeded, HasDiagonal, InvalidArgument, InvalidColoring, SizeMismatch
from .partitions import partition_slots, partitions_of
from .schroeder import SIZE_BOUND, DecoratedGraph, SchroederPath, area, graph
from .symfunc import SymFunc

AREA_BOUND = 16

_CHROMATIC_CACHE: dict[str, SymFunc] = memo.table("_CHROMATIC_CACHE")
# the orientation DP's moves: step -> window state -> moves (see `_window_moves`)
_WINDOW_MOVES: dict[tuple, dict[tuple, tuple]] = memo.table("_WINDOW_MOVES")
# every window state those moves lead to, one object per value, so moves share them
_WINDOW_STATES: dict[tuple, tuple] = memo.table("_WINDOW_STATES")
_ROOT = ((), (), ())  # the window state before any vertex is placed
# the coloring DP's vertex lists: size -> coloured set -> the uncoloured vertices
_UNCOLOURED_VERTICES: dict[int, tuple[tuple[int, ...], ...]] = memo.table("_UNCOLOURED_VERTICES")


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


def _uncoloured_vertices(n: int) -> tuple[tuple[int, ...], ...]:
    """For each set of vertices 0..n-1, as a bitmask, the vertices outside it, in order."""
    cached = _UNCOLOURED_VERTICES.get(n)
    if cached is None:
        cached = tuple(tuple(v for v in range(n) if not s >> v & 1) for s in range(1 << n))
        _UNCOLOURED_VERTICES[n] = cached
    return cached


def _m_expansion(lower, n: int) -> SymFunc:
    """The coloring sum in the m-basis: m_lam collects the colorings of content lam.

    A dynamic program that colours one class at a time, colour 1 first, for
    every content at once.  The next class S, coloured one higher than every
    vertex already coloured, may be any set of uncoloured vertices such that
    every strict lower neighbour of a vertex of S is already coloured and no
    PROPER edge joins two vertices of S.  A vertex of S rises above each of
    its non-strict lower neighbours that are already coloured, one ascent
    each; an ascent on an edge is counted when its upper end is coloured, so
    never twice.  Class sizes never increase, so the sizes so far form a
    partition of the number m of coloured vertices, read largest first.

    The state of a coloured set is one int.  Each partition of m has a slot
    (`partition_slots`), and the slot holds the ascent tally of the
    colorings with those class sizes, as a value at q = 2**width (see
    `CoeffQT.from_packed`, which decodes each m-coefficient).  A
    class of size k may follow only the partitions whose smallest part is
    at least k, a suffix of the slots, and appending k maps that suffix in
    order onto the block of partitions of m+k whose smallest part is k.
    So a class of size k with a ascents adds (value >> slot * lo[m][k]) <<
    (width * a + slot * lo[m+k][k]) to the int of its target: the blocks of
    a target hold disjoint slots, so they add into one int without a carry.

    No carry crosses a digit or a slot: no count exceeds n!, whose bit
    length is the digit width, and no coloring has more ascents than the
    graph has non-strict edges, so a slot of that many digits plus one
    holds any tally.

    A state reads only its uncoloured vertices (`_uncoloured_vertices`).
    When every partition it holds ends in a part 1, only singletons may
    follow, and the state adds one term per ready vertex without building
    the list of classes.
    """
    need = [0] * n  # strict lower neighbours, coloured lower than v
    rise = [0] * n  # non-strict lower neighbours, an ascent each when coloured lower
    clash = [0] * n  # PROPER lower neighbours, never in the class of v
    for v in range(1, n + 1):
        for (u, rule) in lower[v]:
            bit = 1 << (u - 1)
            if rule == STRICT:
                need[v - 1] |= bit
            else:
                rise[v - 1] |= bit
                if rule == PROPER:
                    clash[v - 1] |= bit
    width = factorial(n).bit_length()
    slot = width * (sum(r.bit_count() for r in rise) + 1)
    # start[m][k]: the bit offset of slot lo[k] among the partitions of m, for k <= n
    start = []
    for m in range(n + 1):
        lo = partition_slots(m)[1]
        start.append([slot * i for i in lo] + [slot * lo[-1]] * (n - m - 1))
    # into[m][k]: the bit offset of block k among the partitions of m + k, where
    # a class of size k lands when m vertices are coloured
    into = [[0] + [start[m + k][k] for k in range(1, n - m + 1)] for m in range(n + 1)]
    # offsets[m]: where the slots that a class of size 1, 2, ... may follow start
    offsets = [start[m][1 : n + 1 - m] for m in range(n + 1)]
    verts = [(1 << v, need[v], rise[v], clash[v]) for v in range(n)]
    uncoloured = _uncoloured_vertices(n)
    everyone = (1 << n) - 1
    # coloured set -> its int, 0 until a class reaches it; a class is nonempty,
    # so the coloured set grows as an int and one ascending pass visits every
    # state.  The empty set holds the empty partition, in slot 0.
    table = [0] * (everyone + 1)
    table[0] = 1
    for coloured in range(everyone + 1):
        value = table[coloured]
        if not value:
            continue
        table[coloured] = 0
        m = coloured.bit_count()
        lands = into[m]
        suffix = [0]  # suffix[k]: the slots that a class of size k may follow
        for offset in offsets[m]:
            tail = value >> offset
            if not tail:
                break
            suffix.append(tail)
        if len(suffix) == 2:
            # every partition so far ends in a part 1, so only singletons follow
            tail, at = suffix[1], lands[1]
            for v in uncoloured[coloured]:
                bit, before, below, _ = verts[v]
                if not before & ~coloured:
                    table[coloured | bit] += tail << (at + width * (below & coloured).bit_count())
            continue
        cap = len(suffix) - 1
        classes = [(0, 0, 0)]  # (members, size, width * ascents)
        for v in uncoloured[coloured]:
            bit, before, below, apart = verts[v]
            if before & ~coloured:
                continue
            gain = width * (below & coloured).bit_count()
            classes += [(s | bit, k + 1, a + gain) for (s, k, a) in classes if k < cap and not s & apart]
        for members, k, shift in classes[1:]:
            table[members | coloured] += suffix[k] << (shift + lands[k])
    # the last state visited colours every vertex (one vertex per class, in
    # order, is always a coloring), and its value holds the m-coefficients
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
    n = path.size
    if n > bound:
        raise BoundExceeded(f"llt on size {n} exceeds bound {bound}")
    return _m_expansion(_lower_neighbors(path), n)


def content_coefficient(path: SchroederPath, content: tuple[int, ...], bound: int = SIZE_BOUND) -> CoeffQT:
    """Coefficient of the monomial x_1^c1 x_2^c2 ... in the coloring sum.

    Accepts arbitrary weak compositions of the path's size, which makes the
    symmetry of the coloring sum directly testable.  Runs the backtrack, so
    a size above `bound` is refused before any work, and so is a content
    with a part that is not a nonnegative int, or of another size.
    """
    if path.size > bound:
        raise BoundExceeded(f"content_coefficient on size {path.size} exceeds bound {bound}")
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
    n = path.size
    if n > bound:
        raise BoundExceeded(f"orientation_e_expansion on size {n} exceeds bound {bound}")
    return SymFunc.from_canonical("e", _orientation_tally(path))


def llt_via_orientations(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """The orientation sum with q -> q-1: contractually equal to llt(path) in e."""
    return orientation_e_expansion(path, bound).shift_q(-1)


def chromatic(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """Chromatic quasisymmetric function of the unit-interval graph of a Dyck path.

    Proper colorings (adjacent colors distinct) weighted by the same
    ascent statistic as the coloring sum, returned in the m-basis.
    """
    n = path.size
    if n > bound:
        raise BoundExceeded(f"chromatic on size {n} exceeds bound {bound}")
    if not path.is_dyck():
        raise HasDiagonal(f"{path.word!r} has diagonal steps")
    cached = _CHROMATIC_CACHE.get(path.word)
    if cached is not None:
        return cached
    out = _m_expansion(_lower_neighbors(path, proper=True), n)
    _CHROMATIC_CACHE[path.word] = out
    return out


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
    if n > bound:
        raise BoundExceeded(f"coloring_weight_split on size {n} exceeds bound {bound}")
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
