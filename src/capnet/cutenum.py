"""Pools of near-minimum cuts, two-way and multiway.

A pool holds every cut within a factor alpha of the minimum, so
completeness matters more than speed here.  (The knapsack-cover
separation in kclp filters the cut family directly, not these pools.)
Both pools come from one scan of an exhaustive graphs.CutFamily: every
canonical bipartition (n <= 16) or every partition into the requested
number of blocks (n <= 10).  Past those caps, EXHAUSTIVE_LIMIT and KWAY_LIMIT
(re-exported here), the family raises CapabilityError; there is no
sampling fallback.

Counting facts used as tripwires: an undirected weighted graph has at
most n^(2*alpha) cuts within alpha of the minimum, and at most
n^(2*alpha*(p-1)) p-way cuts within alpha of the minimum p-way cut.  The
scan checks these bounds on everything it keeps and raises
InvariantError if one is exceeded, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DisconnectedError, invariant
from .graphs import EXHAUSTIVE_LIMIT, KWAY_LIMIT, CutFamily


@dataclass(frozen=True)
class CutPool:
    cuts: tuple
    alpha: Fraction
    min_cut_value: object

    def __iter__(self):
        return iter(self.cuts)

    def __len__(self):
        return len(self.cuts)


def _count_within_bound(count, n, exponent):
    # count <= n**exponent, compared exactly for rational exponents
    exponent = Fraction(exponent)
    return count ** exponent.denominator <= n ** exponent.numerator


def _near_min(instance, sizes, weighting, alpha, exponent):
    """(cuts, least capacity, alpha): the rows of CutFamily(instance,
    sizes) within alpha of the least, as cuts ordered by capacity and then
    as `rank` orders their sides or parts.  More than n**(exponent *
    alpha) of them break the counting bound and raise InvariantError."""
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if instance.directed:
        raise ValueError("near-minimum cut pools work on undirected instances")
    family = CutFamily(instance, sizes)
    sums, den = family.capacities(weighting)
    least = min(sums)
    if least <= 0:
        raise DisconnectedError("minimum cut is zero; relative enumeration is undefined")
    bound = alpha * least  # both over the capacities' common denominator
    kept = sorted((i for i, cap in enumerate(sums) if cap <= bound),
                  key=lambda i: (sums[i], family.rank[i]))
    invariant(_count_within_bound(len(kept), instance.n, exponent * alpha),
              "cut-count bound exceeded")

    def value(total):
        return total if den == 1 else Fraction(total, den)

    return tuple(family.cut(i, value(sums[i])) for i in kept), value(least), alpha


def enumerate_near_min_cuts(instance, weighting, alpha):
    """Pool of all cuts with capacity <= alpha * min cut.

    alpha >= 1.  The minimum is read off the same exhaustive scan; a zero
    minimum (disconnected, or split by zero-weight edges only) makes the
    relative pool ill-defined and raises DisconnectedError.
    """
    if instance.n < 2:
        raise ValueError("need at least two vertices")
    cuts, least, alpha = _near_min(instance, None, weighting, alpha, 2)
    return CutPool(cuts, alpha, least)


def enumerate_near_min_kway_cuts(instance, weighting, parts, alpha):
    """Pool of `parts`-way cuts within alpha of the minimum `parts`-way cut.

    Exhaustive over set partitions, so capped at n <= 10.
    """
    if not 2 <= parts <= instance.n:
        raise ValueError("parts must be between 2 and n")
    return _near_min(instance, (parts,), weighting, alpha, 2 * (parts - 1))[0]
