"""Diagonal-harmonics and Hall-Littlewood consumers of the path polynomials.

nabla_e(n) sums t^{bounce(P)} G_{P*}(x;q) over Dyck paths P, where P*
collapses every corner into a diagonal step; nabla_p(n) sums
t^{area(alpha)} q^{below(alpha)} G_{nu(alpha)}(x;q) over weak
compositions alpha of n with n parts and returns the sign-normalized
value (-1)^(n-1) nabla p_n.  Transformed Hall-Littlewood polynomials
come from the staircase paths P_mu via the omega involution and an
exactly-cancelling q-power prefactor.  None of these touch Macdonald
operator machinery; they exist purely through the path sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .coeffring import ZERO, CoeffQT
from .errors import InvalidArgument, NotDivisible
from .llt import llt, orientation_e_expansion
from .partitions import check_size, weak_compositions
from .schroeder import SIZE_BOUND, dyck_star, enumerate_paths, haglund_bounce, nu_alpha, p_mu, parse
from .symfunc import SymFunc, linear_combination


def nabla_e(n: int, bound: int = SIZE_BOUND) -> SymFunc:
    """The Frobenius series of diagonal coinvariants via the corner-collapse sum.

    q is carried by the path polynomials, t by the bounce weight; the
    result is returned in the e-basis.  `enumerate_paths` checks n first.
    """
    # conversion is linear and exact, so sum in m and convert the sum once
    return linear_combination(
        "m",
        [
            (CoeffQT.t(haglund_bounce(path)), llt(dyck_star(path), bound))
            for path in enumerate_paths(n, dyck_only=True, bound=bound)
        ],
    ).convert("e")


def nabla_p(n: int, bound: int = SIZE_BOUND) -> SymFunc:
    """The sign-normalized square-paths sum (-1)^(n-1) nabla p_n, in the Schur basis."""
    check_size(n, bound)
    if n < 1:
        raise InvalidArgument(f"nabla_p needs n >= 1, got {n}")
    # many compositions share a path: add their weights, then expand each path once
    weights: dict[str, CoeffQT] = {}
    for alpha in weak_compositions(n, n):
        path, area_alpha, below = nu_alpha(alpha)
        weights[path.word] = weights.get(path.word, ZERO) + CoeffQT.monomial(below, area_alpha)
    return linear_combination("m", [(weight, llt(parse(word), bound)) for word, weight in weights.items()]).convert("s")


def hall_littlewood(mu: tuple[int, ...], bound: int = SIZE_BOUND) -> SymFunc:
    """Transformed Hall-Littlewood polynomial H_{mu'} as a q-polynomial (Schur basis).

    Computed as q^{-sum_{i>=2} C(mu_i,2)} omega(G_{P_mu}); the prefactor
    must cancel exactly, otherwise the staircase-path construction is
    broken and NotDivisible propagates.  `p_mu` and `llt` check mu and |mu| first.
    """
    mu = tuple(mu)
    g = llt(p_mu(mu), bound)
    flipped = g.omega()
    shift = sum(comb(part, 2) for part in mu[1:])
    prefactor = CoeffQT.q(shift)
    result = flipped.map_coeffs(lambda c: c.exact_div(prefactor))
    out = result.convert("s")
    for c in out.coeffs.values():
        degree_check = min(eq for eq, _ in c.terms)
        if degree_check < 0:
            raise NotDivisible("Hall-Littlewood prefactor did not cancel")
    return out


@dataclass
class SurveyEntry:
    """One e-coefficient of a shifted path polynomial and its shape diagnostics."""

    word: str
    mu: tuple[int, ...]
    coefficients: list[int]
    nonneg: bool
    unimodal: bool
    mode: int
    log_concave: bool

    def to_obj(self) -> dict:
        return {
            "path": self.word,
            "mu": list(self.mu),
            "coefficients": self.coefficients,
            "nonneg": self.nonneg,
            "unimodal": self.unimodal,
            "mode": self.mode,
            "log_concave": self.log_concave,
        }


@dataclass
class SurveyReport:
    """Shape survey of all e-coefficients a_mu(q) of G(x;q+1), never asserting."""

    max_n: int
    entries: list[SurveyEntry] = field(default_factory=list)

    @property
    def all_nonneg(self) -> bool:
        return all(e.nonneg for e in self.entries)

    @property
    def unimodal_count(self) -> int:
        return sum(1 for e in self.entries if e.unimodal)

    @property
    def log_concave_count(self) -> int:
        return sum(1 for e in self.entries if e.log_concave)

    def to_obj(self) -> dict:
        return {
            "max_n": self.max_n,
            "coefficients_checked": len(self.entries),
            "all_nonneg": self.all_nonneg,
            "unimodal": self.unimodal_count,
            "log_concave": self.log_concave_count,
            "entries": [e.to_obj() for e in self.entries],
        }


def _is_unimodal(values: list[int]) -> bool:
    rises_done = False
    for i in range(1, len(values)):
        if values[i] > values[i - 1] and rises_done:
            return False
        if values[i] < values[i - 1]:
            rises_done = True
    return True


def _is_log_concave(values: list[int]) -> bool:
    return all(
        values[i - 1] * values[i + 1] <= values[i] * values[i]
        for i in range(1, len(values) - 1)
    )


def survey_e_coefficients(max_n: int, bound: int = SIZE_BOUND) -> SurveyReport:
    """Record unimodality and log-concavity of every a_mu(q); reports only.

    A conjectural property failing shows up as a False flag in the
    report, never as an exception.
    """
    check_size(max_n, bound)
    report = SurveyReport(max_n)
    for n in range(1, max_n + 1):
        for path in enumerate_paths(n, bound=bound):
            shifted = orientation_e_expansion(path, bound)
            for mu, coeff in sorted(shifted.coeffs.items()):
                values = [0] * ((coeff.q_degree() or 0) + 1)
                for (eq, _et), v in coeff.terms.items():
                    values[eq] = v
                entry = SurveyEntry(
                    word=path.word,
                    mu=mu,
                    coefficients=values,
                    nonneg=coeff.is_nonneg(),
                    unimodal=_is_unimodal(values),
                    mode=max(range(len(values)), key=lambda i: values[i]),
                    log_concave=_is_log_concave(values),
                )
                report.entries.append(entry)
    return report
