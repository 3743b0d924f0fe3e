"""Schroeder paths, their decorated unit-interval graphs, and bounce paths.

A Schroeder path of size n runs from (0,0) to (n,n) with north (n), east
(e) and diagonal (d) unit steps, never dips below the main diagonal, and
has no diagonal step touching the main diagonal.  Words use lowercase
ascii n/d/e throughout.

The decorated unit-interval graph of a path P has vertex set [n], an
edge (x, y) for every cell in column x, row y below P, and a strict edge
(x, y) for every diagonal step of P ending at the lattice point (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BelowDiagonal,
    DiagonalOnMainDiagonal,
    HasDiagonal,
    InvalidArgument,
    InvalidStep,
    PointNotOnPath,
    SizeMismatch,
)
from .partitions import check_size

Point = tuple[int, int]

# The default size limit of every computation over paths; each one takes a
# `bound` parameter to lift it (the CLI's --unsafe-max-n), up to DEGREE_BOUND.
SIZE_BOUND = 7


class SchroederPath:
    """A validated path word over {n, d, e}."""

    __slots__ = ("word",)

    def __init__(self, word: str):
        x = y = 0
        for step in word:
            if step == "n":
                y += 1
            elif step == "d":
                if y <= x:
                    raise DiagonalOnMainDiagonal(f"{word!r}: d step at ({x},{y})")
                x += 1
                y += 1
            elif step == "e":
                if y <= x:
                    raise BelowDiagonal(f"{word!r}: e step at ({x},{y})")
                x += 1
            else:
                raise InvalidStep(f"{word!r}: letter {step!r}")
        if x != y:
            raise BelowDiagonal(f"{word!r}: ends at ({x},{y}), not on the diagonal")
        self.word = word

    @property
    def size(self) -> int:
        return self.word.count("n") + self.word.count("d")

    def __len__(self) -> int:
        return len(self.word)

    def is_dyck(self) -> bool:
        return "d" not in self.word

    def points(self) -> list[Point]:
        """Lattice points visited by the path, in order (length len(word)+1)."""
        out = [(0, 0)]
        x = y = 0
        for step in self.word:
            if step == "n":
                y += 1
            elif step == "d":
                x += 1
                y += 1
            else:
                x += 1
            out.append((x, y))
        return out

    def column_tops(self) -> dict[int, tuple[int, bool]]:
        """Map column c (1-based) to (height of the step crossing it, is_diagonal)."""
        out = {}
        x = y = 0
        for step in self.word:
            if step == "n":
                y += 1
            elif step == "d":
                x += 1
                y += 1
                out[x] = (y, True)
            else:
                x += 1
                out[x] = (y, False)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchroederPath):
            return self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"SchroederPath({self.word!r})"

    def __str__(self) -> str:
        return self.word


@dataclass(frozen=True)
class DecoratedGraph:
    """Unit-interval graph on [n] with a distinguished set of strict edges."""

    n: int
    edges: frozenset[tuple[int, int]]
    strict: frozenset[tuple[int, int]]

    def validate(self) -> None:
        assert self.strict <= self.edges
        for (x, z) in self.edges:
            assert 1 <= x < z <= self.n
            for y in range(x + 1, z):
                assert (x, y) in self.edges and (y, z) in self.edges, "not unit-interval"

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in sorted(self.edges)],
            "strict": [list(e) for e in sorted(self.strict)],
        }


@dataclass(frozen=True)
class BounceData:
    """Result of running the reverse bounce path from a point of P.

    The decomposition P = U s1 s2 V s3 s4 W (five word segments) is
    present whenever the end point has an arriving step, the start point
    a departing step, and the two two-letter windows do not overlap;
    reassembling the segments always reproduces the original word.
    """

    start: Point
    end: Point
    bounce_points: tuple[Point, ...]
    partition: tuple[int, ...]
    decomposition: tuple[str, str, str, str, str] | None
    end_index: int
    start_index: int

    def reassembled(self) -> str | None:
        if self.decomposition is None:
            return None
        u, s12, v, s34, w = self.decomposition
        return u + s12 + v + s34 + w


def parse(text: str) -> SchroederPath:
    """Validate a path word; raises InvalidStep/BelowDiagonal/DiagonalOnMainDiagonal."""
    return SchroederPath(text)


def enumerate_paths(n: int, dyck_only: bool = False, bound: int = SIZE_BOUND) -> list[SchroederPath]:
    """All Schroeder paths of size n, sorted by word (so deterministic); `check_size` guards n."""
    check_size(n, bound)
    words: list[str] = []
    steps = "ne" if dyck_only else "nde"

    def rec(prefix: list[str], x: int, y: int) -> None:
        if x == n and y == n:
            words.append("".join(prefix))
            return
        if y < n:
            prefix.append("n")
            rec(prefix, x, y + 1)
            prefix.pop()
        if "d" in steps and y > x and y < n:
            prefix.append("d")
            rec(prefix, x + 1, y + 1)
            prefix.pop()
        if x < n and y > x:
            prefix.append("e")
            rec(prefix, x + 1, y)
            prefix.pop()

    rec([], 0, 0)
    return [SchroederPath(w) for w in sorted(words)]


_REVERSE_MAP = {"n": "e", "e": "n", "d": "d"}


def reverse(path: SchroederPath) -> SchroederPath:
    """The reverse path: word reversed with n and e exchanged, d fixed."""
    return SchroederPath("".join(_REVERSE_MAP[s] for s in reversed(path.word)))


def graph(path: SchroederPath) -> DecoratedGraph:
    """The decorated unit-interval graph of the path."""
    n = path.size
    edges = set()
    strict = set()
    for c, (top, is_diag) in path.column_tops().items():
        for r in range(c + 1, top + 1):
            edges.add((c, r))
        if is_diag:
            strict.add((c, top))
    return DecoratedGraph(n, frozenset(edges), frozenset(strict))


def area(path: SchroederPath) -> int:
    """Number of non-strict edges of the graph of the path."""
    return sum(top - c - strict for c, (top, strict) in path.column_tops().items())


def bounce_at(path: SchroederPath, point: Point) -> BounceData:
    """Run the partial reverse bounce path of P starting at the given point.

    From (x, z) move south to the diagonal, then west until hitting a
    lattice point of P; repeat (south, west) while the point hit lies
    between two diagonal steps, and stop as soon as it is incident to a
    north or east step.  The west move always travels at least one unit,
    which keeps the recorded bounce partition strictly decreasing.

    The start point must satisfy 1 <= x < z.
    """
    pts = {p: i for i, p in enumerate(path.points())}
    if point not in pts:
        raise PointNotOnPath(f"{point} is not on {path.word!r}")
    x, z = point
    if z <= x or x < 1:
        raise InvalidArgument(f"bounce start {point} must satisfy 1 <= x < z")
    word = path.word
    length = len(word)
    partition = [z, x]
    bounce_points = [(x, x)]
    cur = x
    while True:
        hit = None
        for xp in range(cur - 1, -1, -1):
            if (xp, cur) in pts:
                hit = xp
                break
        assert hit is not None  # every height in [0, n] is attained by the path
        idx = pts[(hit, cur)]
        arriving = word[idx - 1] if idx > 0 else ""
        departing = word[idx] if idx < length else ""
        if arriving == "d" and departing == "d":
            partition.append(hit)
            bounce_points.append((hit, hit))
            cur = hit
            continue
        partition.append(hit)
        end = (hit, cur)
        break
    e_idx = pts[end]
    s_idx = pts[point]
    decomposition = None
    if e_idx >= 1 and s_idx <= length - 1 and s_idx >= e_idx + 2:
        decomposition = _decomposition(word, e_idx, s_idx)
    return BounceData(
        start=point,
        end=end,
        bounce_points=tuple(bounce_points),
        partition=tuple(partition),
        decomposition=decomposition,
        end_index=e_idx,
        start_index=s_idx,
    )


def _decomposition(word: str, e: int, s: int) -> tuple[str, str, str, str, str]:
    """U, s1 s2, V, s3 s4, W of the word, around the end index e and the start index s."""
    return word[: e - 1], word[e - 1 : e + 1], word[e + 1 : s - 1], word[s - 1 : s + 1], word[s + 1 :]


def dyck_star(path: SchroederPath) -> SchroederPath:
    """The corner collapse P* of a Dyck path: every corner (an 'en' factor) becomes a 'd'.

    Corners never overlap, so this is one left-to-right replacement.
    """
    if not path.is_dyck():
        raise HasDiagonal(f"{path.word!r} has diagonal steps")
    return SchroederPath(path.word.replace("en", "d"))


def p_mu(mu: tuple[int, ...]) -> SchroederPath:
    """The staircase path P_mu = n^m1 (e^(m_(i-1)-m_i) d^m_i for i = 2..l) e^ml, of size |mu|.

    For mu = (m) this is n^m e^m.  Parts must be positive ints, and |mu| at most DEGREE_BOUND.
    """
    mu = tuple(mu)
    if not mu or not all(part.__class__ is int and part >= 1 for part in mu) or list(mu) != sorted(mu, reverse=True):
        raise InvalidArgument(f"{mu} is not a nonempty partition")
    check_size(sum(mu))
    word = ["n" * mu[0]]
    for i in range(1, len(mu)):
        word.append("e" * (mu[i - 1] - mu[i]) + "d" * mu[i])
    word.append("e" * mu[-1])
    return SchroederPath("".join(word))


def nu_alpha(alpha: tuple[int, ...]) -> tuple[SchroederPath, int, int]:
    """Car diagram of a weak composition alpha and its Schroeder path nu(alpha).

    alpha must have n <= DEGREE_BOUND nonnegative int parts summing to n
    (alpha = () gives the empty path).  Column i receives alpha_i cars
    stacked in consecutive rows, all cars of column i sitting below all
    cars of column j for i < j; the support path has an east step per
    column and alpha_i north steps at x = i-1.

    Returns (path, area(alpha), below(alpha)) where area counts the full
    squares between the support path and the lowest diagonal containing
    a car (the region continues past column n at height n until it meets
    the diagonal), and below counts cars strictly below the main
    diagonal.

    Cars are read along diagonals y - x = k for k decreasing, right to
    left within a diagonal, at positions 1..n.  A car attacks every later
    car on its own diagonal and every later car on the next diagonal down
    that is weakly right of it.  The cars that car v attacks are the run
    v+1..top (asserted: the diagram is unit-interval); they are the edges
    of column v, so the path rises to height top and steps east, or, when
    car top sits directly below car v (a strict edge), rises to top - 1
    and steps diagonally.
    """
    alpha = tuple(alpha)
    n = len(alpha)
    if not all(part.__class__ is int and part >= 0 for part in alpha):
        raise InvalidArgument(f"{alpha} has a part that is not a nonnegative int")
    check_size(n)
    if sum(alpha) != n:
        raise SizeMismatch(f"{alpha} must have {n} parts summing to {n}")
    cars: list[tuple[int, int]] = []  # (column, row)
    row = 0
    for col, count in enumerate(alpha, start=1):
        for _ in range(count):
            row += 1
            cars.append((col, row))
    k_min = min((r - c for c, r in cars), default=0)  # no cars: the empty path
    heights = [0] * (n + 1)
    for c in range(1, n + 1):
        heights[c] = heights[c - 1] + alpha[c - 1]
    area_alpha = 0
    for c in range(1, n - k_min):
        top = heights[c] if c <= n else n
        lo = max(c + k_min + 1, 1)
        if top >= lo:
            area_alpha += top - lo + 1
    below = sum(1 for c, r in cars if r < c)

    order = sorted(cars, key=lambda car: (car[0] - car[1], -car[0]))
    diag = [r - c for c, r in order]
    col = [c for c, _ in order]
    word = []
    h = 0
    for i in range(n):
        attacked = [j for j in range(i + 1, n) if diag[j] == diag[i] or (diag[j] == diag[i] - 1 and col[i] <= col[j])]
        top = i + len(attacked)
        assert attacked == list(range(i + 1, top + 1)), "car diagram is not unit-interval"
        strict = top > i and col[top] == col[i]
        word.append("n" * (top + 1 - strict - h) + ("d" if strict else "e"))
        h = top + 1
    return SchroederPath("".join(word)), area_alpha, below


def haglund_bounce(path: SchroederPath) -> int:
    """Classical forward bounce statistic of a Dyck path.

    The bounce path starts at (0,0), travels north to the height at which
    the path turns east over the current column, then east to the
    diagonal, and repeats; the score sums n - j over the intermediate
    diagonal touch points (j, j).
    """
    if not path.is_dyck():
        raise HasDiagonal(f"{path.word!r} has diagonal steps")
    n = path.size
    tops = {c: top for c, (top, _) in path.column_tops().items()}
    total = 0
    j = 0
    while j < n:
        j = tops[j + 1]
        if j < n:
            total += n - j
    return total
