"""Randomized rounding of a good fractional solution.

Edges at or above the nearly-integral threshold are always bought; each
remaining edge e is bought independently with probability
min(1, scale * x_e), where scale = 1 / threshold is read off the
solution itself (40 lg n, 40 k lg n, or 40 gamma lg n by variant, as
solve_good certified it).  A draw either meets every requirement or is
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


def keep_probabilities(solution, scale):
    """Per-edge purchase probability: 1 when frozen, else scale * x."""
    probs = []
    threshold = solution.threshold
    for v in solution.x:
        if v >= threshold:
            probs.append(Fraction(1))
        else:
            probs.append(min(Fraction(1), scale * v))
    return probs


def expected_cost_bound(solution, scale):
    """Expected rounded cost is at most scale times the fractional cost."""
    instance = solution.instance
    return sum(
        (e.cost * p for e, p in zip(instance.edges, keep_probabilities(solution, scale))),
        Fraction(0),
    )


def _draw(rng):
    return Fraction(rng.getrandbits(_DYADIC_BITS), 1 << _DYADIC_BITS)


def sample_edges(solution, scale, seed):
    """One independent draw.  Frozen edges always included."""
    rng = random.Random(seed)
    chosen = []
    for i, p in enumerate(keep_probabilities(solution, scale)):
        if p >= 1:
            chosen.append(i)
        elif _draw(rng) < p:
            chosen.append(i)
    return tuple(chosen)


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
        edges = sample_edges(solution, scale, attempt_seed)
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
