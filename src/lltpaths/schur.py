"""Two independent signed Schur expansions of the coloring polynomial.

The first route sums straightened Schur functions over permutation
colorings: a coloring whose values form a permutation sigma contributes
q^{asc(sigma)} s_{alpha(sigma)}, where alpha(sigma) is the composition
cut out by the inverse ascent set {i : position of i < position of i+1}
and s_alpha is straightened by the Jacobi-Trudi rule.  The permutations
and their ascents come from the coloring kernel of the llt module, run
with content (1, ..., 1).

The second route runs over orientations: the e-coefficients of
``llt_via_orientations`` are the sums of (q-1)^{asc(theta)} over the
orientations with lambda(theta) = lambda, and e_lambda is the sum of
K_{mu', lambda} s_mu with Kostka numbers from the branching rule of
the partitions module.

Both must agree with the coloring polynomial converted to the Schur
basis; that triple agreement is an acceptance criterion.
"""

from __future__ import annotations

from .coeffring import CoeffQT
from .llt import _lower_neighbors, coloring_backtrack, llt_via_orientations
from .partitions import check_size, conjugate, kostka, partitions_of
from .schroeder import SIZE_BOUND, SchroederPath
from .symfunc import SymFunc, linear_combination, straighten_schur


def _permutations_with_ascents(path: SchroederPath) -> list[tuple[tuple[int, ...], int]]:
    """(sigma, asc(sigma)) for every coloring of the graph of P that is a permutation of [n]."""
    out: list[tuple[tuple[int, ...], int]] = []

    def leaf(sigma, asc):
        out.append((tuple(sigma[1:]), asc))

    coloring_backtrack(_lower_neighbors(path), (1,) * path.size, leaf)
    return out


def permutation_colorings(path: SchroederPath) -> list[tuple[int, ...]]:
    """All colorings of the graph of P whose values are a permutation of [n].

    Enumerated by backtracking over vertices with the strict-edge
    constraints pruning, rather than filtering all of S_n.
    """
    return [sigma for sigma, _ in _permutations_with_ascents(path)]


def inverse_ascent_set(sigma: tuple[int, ...]) -> set[int]:
    """{i : i occurs to the left of i+1 in the one-line word of sigma}."""
    position = {value: i for i, value in enumerate(sigma)}
    return {i for i in range(1, len(sigma)) if position[i] < position[i + 1]}


def alpha_of_sigma(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The composition of n cut out by the inverse ascent set."""
    n = len(sigma)
    cuts = sorted(inverse_ascent_set(sigma))
    out = []
    prev = 0
    for d in cuts:
        out.append(d - prev)
        prev = d
    out.append(n - prev)
    return tuple(out)


def elw_schur(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """Signed Schur expansion through permutation colorings and straightening."""
    check_size(path.size, bound)
    terms = []
    for sigma, asc in _permutations_with_ascents(path):
        straightened = straighten_schur(alpha_of_sigma(sigma))
        if straightened is not None:
            sign, lam = straightened
            terms.append((CoeffQT.monomial(asc, 0, sign), {lam: 1}))
    return linear_combination("s", terms)


def kostka_schur(path: SchroederPath, bound: int = SIZE_BOUND) -> SymFunc:
    """Signed Schur expansion through orientations and Kostka numbers.

    The orientation route checks the size first, before any work.
    """
    return linear_combination(
        "s",
        [
            (weight, {mu: k for mu in partitions_of(path.size) if (k := kostka(conjugate(mu), lam))})
            for lam, weight in llt_via_orientations(path, bound).coeffs.items()
        ],
    )
