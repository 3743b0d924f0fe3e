import pytest

from lltpaths.errors import BoundExceeded, InvalidArgument, SizeMismatch
from lltpaths.partitions import (
    DEGREE_BOUND,
    compositions,
    conjugate,
    dominates,
    kostka,
    partition_slots,
    partitions_of,
    weak_compositions,
)


def test_partitions_of_small():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7


def test_partitions_of_bound():
    with pytest.raises(BoundExceeded):
        partitions_of(13)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_kostka_examples():
    # two tableaux: 12/3 and 13/2
    assert kostka((2, 1), (1, 1, 1)) == 2
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
    assert kostka((1, 1, 1), (3,)) == 0
    with pytest.raises(SizeMismatch):
        kostka((2, 1), (2, 2))


def test_kostka_dominance_vanishing():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                if not dominates(mu, lam):
                    assert kostka(mu, lam) == 0, (mu, lam)


def _enumerated_kostka(mu, lam):
    """Reference: count the tableaux of shape mu and content lam by row-filling enumeration."""
    remaining = list(lam)
    rows = [[] for _ in mu]

    def fill(r, c):
        if r == len(mu):
            return 1
        if c == mu[r]:
            return fill(r + 1, 0)
        lo = rows[r][c - 1] if c else 1
        if r and c < mu[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        total = 0
        for v in range(lo, len(lam) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                rows[r].append(v)
                total += fill(r, c + 1)
                rows[r].pop()
                remaining[v - 1] += 1
        return total

    return fill(0, 0)


def test_kostka_equals_tableau_enumeration():
    for n in range(9):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                assert kostka(mu, lam) == _enumerated_kostka(mu, lam), (mu, lam)
    # composition contents, zeros included
    for n in range(6):
        for k in range(n + 2):
            for alpha in weak_compositions(n, k):
                for mu in partitions_of(n):
                    assert kostka(mu, alpha) == _enumerated_kostka(mu, alpha), (mu, alpha)


def test_kostka_refuses_a_bad_shape_or_content():
    for mu, lam in [((3,), (2, -1, 2)), ((1, 2), (2, 1)), ((2, 0), (1, 1)), ((2, -1), (1,))]:
        with pytest.raises(InvalidArgument):
            kostka(mu, lam)
    assert kostka((2, 1), (1, 0, 2)) == kostka((2, 1), (2, 1)) == 1


def test_compositions_refuse_negative_arguments():
    for call in (lambda: compositions(-1), lambda: weak_compositions(-1, 2),
                 lambda: weak_compositions(2, -1), lambda: weak_compositions(0, -1)):
        with pytest.raises(InvalidArgument):
            call()
    assert compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]


def test_weak_compositions():
    assert weak_compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert weak_compositions(4, 1) == [(4,)]
    assert len(weak_compositions(3, 3)) == 10
    assert weak_compositions(0, 0) == [()]
    assert weak_compositions(1, 0) == []


def test_partition_slots_layout():
    # the layout the packed coloring DP relies on, at every degree it accepts
    assert partition_slots(4) == (((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)), (0, 0, 1, 3, 4, 5))
    assert partition_slots(0) == (((),), (0, 1))
    for m in range(DEGREE_BOUND + 1):
        order, lo = partition_slots(m)
        assert list(order) == sorted(partitions_of(m)) and len(set(order)) == len(order)
        assert order[0] == (1,) * m and len(lo) == m + 2 and lo[0] == 0 and lo[-1] == len(order)
        for k in range(m + 1):
            # the partitions whose largest part is at most k are exactly the first lo[k+1] slots
            assert [lam for lam in order if not lam or lam[0] <= k] == list(order[: lo[k + 1]]), (m, k)
        for k in range(1, DEGREE_BOUND - m + 1):
            # prepending k maps that prefix, in order, onto the block of m+k with largest part k
            whole, starts = partition_slots(m + k)
            prefix = order[: lo[min(k, m) + 1]]
            assert [(k,) + lam for lam in prefix] == list(whole[starts[k] : starts[k + 1]]), (m, k)
    with pytest.raises(BoundExceeded):
        partition_slots(DEGREE_BOUND + 1)
