"""Integer partitions, weak compositions, and Kostka numbers.

Partitions and compositions are plain tuples of ints: partitions are
weakly decreasing with positive parts, the empty tuple is the partition
of 0, and compositions may contain zeros.  Kostka numbers are computed
by the horizontal-strip branching rule, in integer arithmetic, without
enumerating tableaux.
"""

from __future__ import annotations

from . import memo
from .errors import BoundExceeded, InvalidArgument, SizeMismatch

Partition = tuple[int, ...]
Composition = tuple[int, ...]

#: Largest degree the algebra holds, and so the largest size any computation accepts.
DEGREE_BOUND = 12

_PARTITIONS_CACHE: dict[int, tuple[Partition, ...]] = memo.table("_PARTITIONS_CACHE")
_SLOTS_CACHE: dict[int, tuple[tuple[Partition, ...], tuple[int, ...]]] = memo.table("_SLOTS_CACHE")
_KOSTKA_CACHE: dict[tuple[Partition, Partition], int] = memo.table("_KOSTKA_CACHE")


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_size(n: int, bound: int = DEGREE_BOUND) -> None:
    """The one size guard, called before any work: a size that is not an int
    or is negative raises InvalidArgument, one above `bound` or above
    DEGREE_BOUND raises BoundExceeded."""
    if n.__class__ is not int or n < 0:
        raise InvalidArgument(f"size {n!r} is not a nonnegative int")
    if n > bound or n > DEGREE_BOUND:
        raise BoundExceeded(f"size {n} exceeds the limit {min(bound, DEGREE_BOUND)}")


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1^n) last.

    A size above DEGREE_BOUND is refused by `check_size`.
    """
    check_size(n)
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
    """The partitions of m in slot order, and lo: where each largest-part block starts.

    Slot order is lexicographic, largest part first, so (1^m) takes slot 0
    and (m) the last slot.  The partitions whose largest part is below k
    then form a prefix, of lo[k] slots for k = 0..m+1 (lo[m+1] is the
    number of partitions; the empty partition of 0 counts as largest part
    0).  Prepending a part k to the partitions of m whose largest part is
    at most k, the first lo[min(k, m) + 1] slots, maps them in order onto
    the block of partitions of m+k whose largest part is k: slots lo[k] up
    to the lo[k+1] of m+k.  Built on first use; one entry per degree, and
    partitions_of refuses degrees above DEGREE_BOUND.
    """
    cached = _SLOTS_CACHE.get(m)
    if cached is None:
        order = tuple(sorted(partitions_of(m)))
        largest = [lam[0] if lam else 0 for lam in order]
        lo = tuple(sum(1 for part in largest if part < k) for k in range(m + 2))
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


def kostka(mu: Partition, lam: Composition) -> int:
    """Number of semistandard Young tableaux of shape mu and content lam.

    The content may be any composition of |mu|, zeros included: the count
    is symmetric in it, so it is sorted into a partition first.  A shape
    that is not a partition or a content with a negative part raises
    `InvalidArgument`.  Computed by the branching rule in `_kostka`.
    """
    mu = tuple(mu)
    lam = tuple(lam)
    if not is_partition(mu) or not all(isinstance(p, int) and p >= 0 for p in lam):
        raise InvalidArgument(f"kostka needs a partition shape and a non-negative content, got {mu}, {lam}")
    if sum(mu) != sum(lam):
        raise SizeMismatch(f"|{mu}| != |{lam}|")
    return _kostka(mu, tuple(sorted((p for p in lam if p), reverse=True)))


def _kostka(mu: Partition, lam: Partition) -> int:
    """K(mu, lam) for partitions of equal size, by the horizontal-strip branching rule.

    The entries equal to the last colour fill a horizontal strip mu/nu of
    size lam[-1], so K(mu, lam) = sum of K(nu, lam[:-1]) over the nu with
    mu[i+1] <= nu[i] <= mu[i].  Zero unless mu dominates lam.  Every
    (shape, content prefix) pair met is memoized per pair; the memo table
    only sees idempotent inserts, so concurrent readers are safe.
    """
    key = (mu, lam)
    count = _KOSTKA_CACHE.get(key)
    if count is not None:
        return count
    if not lam:
        count = 1
    elif not dominates(mu, lam):
        count = 0
    else:
        # (nu so far, strip boxes still to remove), one row of mu at a time
        heads = [((), lam[-1])]
        for i, part in enumerate(mu):
            below = mu[i + 1] if i + 1 < len(mu) else 0
            heads = [(nu + (v,), left - part + v) for nu, left in heads for v in range(max(below, part - left), part + 1)]
        rest = lam[:-1]
        count = sum(_kostka(nu if nu[-1] else nu[:-1], rest) for nu, left in heads if not left)
    _KOSTKA_CACHE[key] = count
    return count


def weak_compositions(n: int, k: int) -> list[Composition]:
    """All length-k sequences of non-negative integers summing to n.

    Ordered with the first part decreasing, matching the output of the
    recursive generation.
    """
    check_size(n)
    check_size(k)
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
    check_size(n)
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out
