"""Randomized rounding of a good fractional solution.

Edges at or above the nearly-integral threshold are always bought; each
remaining edge e is bought independently with probability
min(1, x_e / threshold), with the threshold read off the solution (its
inverse, the scale, is 40 lg n, 40 k lg n, or 40 gamma lg n by variant,
as solve_good certified it).  A draw either meets every requirement or is
retried with a fresh derived seed, up to MAX_ATTEMPTS draws.

Draws compare an exact 53-bit dyadic rational against the (rational)
probability, so a run is reproducible from its seed on any platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError
from .graphs import check_feasible
from .kclp import FractionalSolution
from .util import derive_seed

MAX_ATTEMPTS = 100
_DYADIC_BITS = 53


@dataclass(frozen=True)
class RoundingAttempt:
    seed: int
    edges: tuple
    cost: Fraction
    feasible: bool


@dataclass(frozen=True)
class RoundingReport:
    edges: tuple
    cost: Fraction
    attempts: tuple
    scale: Fraction

    @property
    def attempt_count(self):
        return len(self.attempts)


def keep_probabilities(solution):
    """Per-edge purchase probability min(1, x / threshold): 1 when frozen."""
    threshold = solution.threshold
    return [min(Fraction(1), v / threshold) for v in solution.x]


def expected_cost_bound(solution):
    """Expected rounded cost: at most the fractional cost / threshold."""
    instance = solution.instance
    return sum(
        (e.cost * p for e, p in zip(instance.edges, keep_probabilities(solution))),
        Fraction(0),
    )


def _draw(rng):
    return Fraction(rng.getrandbits(_DYADIC_BITS), 1 << _DYADIC_BITS)


def sample_edges(solution, seed):
    """One independent draw.  Frozen edges are always included and take
    no draw."""
    rng = random.Random(seed)
    probs = keep_probabilities(solution)
    return tuple(i for i, p in enumerate(probs) if p >= 1 or _draw(rng) < p)


def round_solution(solution, seed=0):
    """Round a good fractional solution to an integral edge set.

    Samples at scale 1 / solution.threshold and retries with derived
    seeds until a draw satisfies the instance requirements.  Raises
    InfeasibleError after MAX_ATTEMPTS misses; for a good solution the
    per-attempt success probability is constant, so the budget is
    generous.
    """
    if not isinstance(solution, FractionalSolution):
        raise TypeError("round_solution expects a FractionalSolution")
    instance = solution.instance
    scale = 1 / solution.threshold
    attempts = []
    for t in range(MAX_ATTEMPTS):
        attempt_seed = derive_seed(seed, t)
        edges = sample_edges(solution, attempt_seed)
        result = check_feasible(instance, edges)
        cost = instance.total_cost(edges)
        attempts.append(
            RoundingAttempt(attempt_seed, edges, cost, result.feasible)
        )
        if result.feasible:
            return RoundingReport(edges, cost, tuple(attempts), scale)
    raise InfeasibleError(
        f"no feasible draw in {MAX_ATTEMPTS} attempts", tuple(attempts)
    )
