"""Pools of near-minimum cuts, two-way and multiway.

A pool holds every cut within a factor alpha of the minimum, so
completeness matters more than speed here.  (The knapsack-cover
separation in kclp filters the cut family directly, not these pools.)
Both pools filter an exhaustive graphs.CutFamily: every canonical
bipartition (n <= 16) or every partition into the requested number of
blocks (n <= 10).  Past those caps, EXHAUSTIVE_LIMIT and KWAY_LIMIT
(re-exported here), the family raises CapabilityError; there is no
sampling fallback.

Counting facts used as tripwires: an undirected weighted graph has at
most n^(2*alpha) cuts within alpha of the minimum, and at most
n^(2*alpha*(p-1)) p-way cuts within alpha of the minimum p-way cut.  The
enumerators check these bounds on everything they return and raise
InvariantError if one is exceeded.
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


def _bipartitions(instance, weighting):
    if instance.directed:
        raise ValueError("cut enumeration works on undirected instances")
    family = CutFamily(instance)
    return (family, *family.capacities(weighting))


def _capacity(total, den):
    return total if den == 1 else Fraction(total, den)


def _cuts_within(family, sums, den, bound):
    # `bound` is over the same denominator as `sums`.
    cuts = [family.cut(i, _capacity(cap, den)) for i, cap in enumerate(sums) if cap <= bound]
    cuts.sort(key=lambda c: (c.capacity, sorted(c.side)))
    return tuple(cuts)


def enumerate_cuts_within(instance, weighting, bound):
    """All canonical cuts of capacity <= bound, by exhaustive scan (n <= 16)."""
    family, sums, den = _bipartitions(instance, weighting)
    return _cuts_within(family, sums, den, bound * den)


def enumerate_near_min_cuts(instance, weighting, alpha):
    """Pool of all cuts with capacity <= alpha * min cut.

    alpha >= 1.  The minimum is read off the same exhaustive scan; a zero
    minimum (disconnected, or split by zero-weight edges only) makes the
    relative pool ill-defined and raises DisconnectedError.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    n = instance.n
    if n < 2:
        raise ValueError("need at least two vertices")
    family, sums, den = _bipartitions(instance, weighting)
    least = min(sums)
    if least <= 0:
        raise DisconnectedError("minimum cut is zero; relative enumeration is undefined")
    cuts = _cuts_within(family, sums, den, alpha * least)
    pool = CutPool(cuts, alpha, _capacity(least, den))
    invariant(_count_within_bound(len(pool.cuts), n, 2 * alpha), "cut-count bound exceeded")
    return pool


def enumerate_near_min_kway_cuts(instance, weighting, parts, alpha):
    """Pool of `parts`-way cuts within alpha of the minimum `parts`-way cut.

    Exhaustive over set partitions, so capped at n <= 10.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if not 2 <= parts <= instance.n:
        raise ValueError("parts must be between 2 and n")
    if instance.directed:
        raise ValueError("multiway cut enumeration works on undirected instances")
    family = CutFamily(instance, (parts,))
    sums, den = family.capacities(weighting)
    best = min(sums)
    if best <= 0:
        raise DisconnectedError("minimum multiway cut is zero; relative enumeration is undefined")
    bound = alpha * best  # both over the capacities' common denominator
    kept = tuple(
        sorted(
            (family.cut(i, _capacity(cap, den)) for i, cap in enumerate(sums) if cap <= bound),
            key=lambda c: (c.capacity, [sorted(p) for p in c.parts]),
        )
    )
    invariant(_count_within_bound(len(kept), instance.n, 2 * alpha * (parts - 1)),
              "multiway cut-count bound exceeded")
    return kept
