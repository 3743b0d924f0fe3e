"""Integer partitions, weak compositions, and Kostka numbers.

Partitions and compositions are plain tuples of ints: partitions are
weakly decreasing with positive parts, the empty tuple is the partition
of 0, and compositions may contain zeros.  Kostka numbers are computed
by exhaustive semistandard-tableau enumeration so they can serve as an
independent oracle for the Schur-function machinery elsewhere.
"""

from __future__ import annotations

from . import memo
from .errors import BoundExceeded, InvalidArgument, SizeMismatch

Partition = tuple[int, ...]
Composition = tuple[int, ...]

#: Largest degree the enumerative helpers accept by default.
DEGREE_BOUND = 12

_PARTITIONS_CACHE: dict[int, tuple[Partition, ...]] = memo.table("_PARTITIONS_CACHE")
_SLOTS_CACHE: dict[int, tuple[tuple[Partition, ...], tuple[int, ...]]] = memo.table("_SLOTS_CACHE")
_KOSTKA_CACHE: dict[tuple[Partition, Partition], int] = memo.table("_KOSTKA_CACHE")


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def partitions_of(n: int, bound: int = DEGREE_BOUND) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1^n) last."""
    if n < 0:
        raise InvalidArgument(f"partitions_of needs n >= 0, got {n}")
    if n > bound:
        raise BoundExceeded(f"partitions_of({n}) exceeds bound {bound}")
    cached = _PARTITIONS_CACHE.get(n)
    if cached is None:
        out: list[Partition] = []

        def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
            if remaining == 0:
                out.append(prefix)
                return
            for part in range(min(largest, remaining), 0, -1):
                rec(remaining - part, part, prefix + (part,))

        rec(n, n, ())
        cached = tuple(out)
        _PARTITIONS_CACHE[n] = cached
    return list(cached)


def partition_slots(m: int) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """The partitions of m in slot order, and lo: where each smallest-part suffix starts.

    Slot order reads the parts of a partition smallest first and sorts those
    sequences ascending, so (1^m) takes slot 0 and (m) the last slot.  The
    partitions whose smallest part is at least k then form a suffix, which
    starts at slot lo[k] for k = 0..m+1 (lo[m+1] is the number of
    partitions; every lo of m = 0 is 0, since the empty partition has no
    smallest part to fail the test).  Appending a part k maps that suffix,
    in order, onto the block of partitions of m+k whose smallest part is k:
    slots lo[k] up to the lo[k+1] of m+k.  Built on first use; one entry per
    degree, and partitions_of refuses degrees above DEGREE_BOUND.
    """
    cached = _SLOTS_CACHE.get(m)
    if cached is None:
        order = tuple(sorted(partitions_of(m), key=lambda lam: lam[::-1]))
        smallest = [lam[-1] for lam in order if lam]
        lo = tuple(sum(1 for part in smallest if part < k) for k in range(m + 2))
        cached = (order, lo)
        _SLOTS_CACHE[m] = cached
    return cached


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    out = [0] * lam[0]
    for part in lam:
        for i in range(part):
            out[i] += 1
    return tuple(out)


def dominates(mu: Partition, lam: Partition) -> bool:
    """True iff mu dominates lam (partial sums of mu are >= those of lam)."""
    if sum(mu) != sum(lam):
        return False
    total_mu = total_lam = 0
    for i in range(max(len(mu), len(lam))):
        total_mu += mu[i] if i < len(mu) else 0
        total_lam += lam[i] if i < len(lam) else 0
        if total_mu < total_lam:
            return False
    return True


def kostka(mu: Partition, lam: Partition) -> int:
    """Number of semistandard Young tableaux of shape mu and content lam.

    Computed by brute row-filling enumeration (rows weakly increase,
    columns strictly increase, entry i is used lam[i-1] times).  Memoized
    per (mu, lam); the memo table only sees idempotent inserts, so
    concurrent readers are safe.
    """
    mu = tuple(mu)
    lam = tuple(lam)
    if sum(mu) != sum(lam):
        raise SizeMismatch(f"|{mu}| != |{lam}|")
    key = (mu, lam)
    cached = _KOSTKA_CACHE.get(key)
    if cached is not None:
        return cached
    count = 0
    if not mu:
        count = 1
    elif dominates(mu, lam):
        remaining = list(lam)
        ncolors = len(lam)
        rows: list[list[int]] = [[] for _ in mu]

        def fill(r: int, c: int) -> int:
            if r == len(mu):
                return 1
            if c == mu[r]:
                return fill(r + 1, 0)
            lo = rows[r][c - 1] if c else 1
            if r and c < mu[r - 1]:
                lo = max(lo, rows[r - 1][c] + 1)
            total = 0
            for v in range(lo, ncolors + 1):
                if remaining[v - 1] == 0:
                    continue
                remaining[v - 1] -= 1
                rows[r].append(v)
                total += fill(r, c + 1)
                rows[r].pop()
                remaining[v - 1] += 1
            return total

        count = fill(0, 0)
    _KOSTKA_CACHE[key] = count
    return count


def weak_compositions(n: int, k: int) -> list[Composition]:
    """All length-k sequences of non-negative integers summing to n.

    Ordered with the first part decreasing, matching the output of the
    recursive generation.
    """
    if k == 0:
        return [()] if n == 0 else []
    if k == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        for rest in weak_compositions(n - first, k - 1):
            out.append((first,) + rest)
    return out


def compositions(n: int) -> list[Composition]:
    """All compositions of n into positive parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out
