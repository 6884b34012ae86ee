"""Signature collision probabilities (paper Sec. 2.3 and Fig. 4).

A graph with ``|E|`` edges has ``3|E|`` factors in its signature (one per
edge plus one per unit of degree, by the handshaking lemma).  Each factor
collides with probability ``2/p`` (an edge factor can collide with either an
edge or a degree factor, each uniform on ``[1, p)``), so the number of
colliding factors is ``X ~ Binomial(3|E|, 2/p)``.  Fig. 4 plots

    P( X <= C% * 3|E| )

for query graphs of 8/12/16 edges (24/36/48 factors), tolerances C of
5/10/20% and primes p up to 317.  Loom's default ``p = 251`` makes the
probability of significant collision negligible.

Implemented with exact ``math.comb`` arithmetic — no SciPy dependency in the
library (the test-suite cross-checks against ``scipy.stats.binom``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

PAPER_FACTOR_COUNTS = (24, 36, 48)
"""Fig. 4's three series: query graphs of 8, 12 and 16 edges."""

PAPER_TOLERANCES = (0.05, 0.10, 0.20)
"""Fig. 4's three panels: 5%, 10% and 20% acceptable collision fractions."""

PAPER_MAX_P = 317
"""Largest prime shown on Fig. 4's x-axis."""


def binomial_cdf(k: int, n: int, q: float) -> float:
    """Exact ``P(X <= k)`` for ``X ~ Binomial(n, q)``."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    total = 0.0
    for x in range(k + 1):
        total += math.comb(n, x) * (q**x) * ((1.0 - q) ** (n - x))
    return min(total, 1.0)


def factor_collision_probability(p: int) -> float:
    """Probability that any single factor is a collision: ``2/p`` (Sec. 2.3)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return 2.0 / p


def acceptance_probability(num_factors: int, p: int, tolerance: float) -> float:
    """P(no more than ``tolerance`` of a signature's factors collide).

    This is the y-axis of Fig. 4: ``P(X <= tolerance * num_factors)`` with
    ``X ~ Binomial(num_factors, 2/p)``.
    """
    if num_factors <= 0:
        raise ValueError("num_factors must be positive")
    if not 0.0 <= tolerance <= 1.0:
        raise ValueError("tolerance must lie in [0, 1]")
    c_max = math.floor(tolerance * num_factors)
    return binomial_cdf(c_max, num_factors, factor_collision_probability(p))


def num_factors_for_edges(num_edges: int) -> int:
    """A graph of ``|E|`` edges carries ``3|E|`` signature factors."""
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    return 3 * num_edges


def primes_up_to(limit: int) -> List[int]:
    """All primes ``<= limit`` (simple sieve; limit is small here)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class AcceptanceCurve:
    """One Fig. 4 series: acceptance probability as a function of ``p``."""

    num_factors: int
    tolerance: float
    p_values: Sequence[int]
    probabilities: Sequence[float]

    def as_rows(self) -> List[Dict[str, float]]:
        return [
            {"p": p, "probability": prob, "factors": self.num_factors, "tolerance": self.tolerance}
            for p, prob in zip(self.p_values, self.probabilities)
        ]


def acceptance_curve(
    num_factors: int,
    tolerance: float,
    max_p: int = PAPER_MAX_P,
) -> AcceptanceCurve:
    """Compute one Fig. 4 curve over all primes ``2..max_p``."""
    ps = primes_up_to(max_p)
    probs = [acceptance_probability(num_factors, p, tolerance) for p in ps]
    return AcceptanceCurve(num_factors, tolerance, ps, probs)


def figure4_curves(
    factor_counts: Sequence[int] = PAPER_FACTOR_COUNTS,
    tolerances: Sequence[float] = PAPER_TOLERANCES,
    max_p: int = PAPER_MAX_P,
) -> Dict[float, List[AcceptanceCurve]]:
    """All Fig. 4 series, grouped by tolerance panel."""
    return {
        tol: [acceptance_curve(nf, tol, max_p) for nf in factor_counts]
        for tol in tolerances
    }


def smallest_acceptable_prime(
    num_factors: int,
    tolerance: float,
    target_probability: float,
    max_p: int = 10_000,
) -> int:
    """The smallest prime whose acceptance probability meets ``target``.

    This is the design question behind the paper's ``p = 251`` default:
    pick ``p`` so that fewer than ``tolerance`` of factors collide with
    probability at least ``target_probability``.
    """
    for p in primes_up_to(max_p):
        if acceptance_probability(num_factors, p, tolerance) >= target_probability:
            return p
    raise ValueError(
        f"no prime <= {max_p} reaches acceptance {target_probability} "
        f"for {num_factors} factors at tolerance {tolerance}"
    )
