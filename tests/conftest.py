"""Shared fixtures and independent brute-force reference implementations.

Everything here recomputes answers from first principles (exhaustive
bipartitions, subset enumeration, copy-vector products) without touching
the library's flow, cut, or branch-and-bound code, so agreement between
the two is evidence, not circularity.  Max flows are checked through
minimum cuts, which is the same number by max-flow min-cut duality.
"""

import itertools
from fractions import Fraction

import pytest

from capnet import kclp
from capnet.graphs import Edge, Instance, KWay, Pairs, Uniform
from capnet.util import ceil_div, iter_partitions, over_common_denominator


# ---------------------------------------------------------------------------
# brute-force cut values

def side_capacity(instance, weights, side):
    """Total weight crossing the bipartition given by `side` (undirected),
    or leaving it (directed)."""
    total = 0
    for i, e in enumerate(instance.edges):
        if instance.directed:
            if e.tail in side and e.head not in side:
                total += weights[i]
        elif (e.tail in side) != (e.head in side):
            total += weights[i]
    return total


def brute_min_st_cut(instance, weights, s, t):
    """Minimum cut separating s from t, by scanning every vertex subset."""
    others = [v for v in range(instance.n) if v not in (s, t)]
    best = None
    for mask in range(1 << len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        cap = side_capacity(instance, weights, side)
        if best is None or cap < best:
            best = cap
    return best


def brute_global_min_cut(instance, weights):
    best = None
    for mask in range(1, 1 << (instance.n - 1)):
        side = {v for v in range(1, instance.n) if mask >> (v - 1) & 1}
        cap = side_capacity(instance, weights, side)
        if best is None or cap < best:
            best = cap
    return best


def brute_cut_sides_within(instance, weights, bound):
    """Every canonical side (vertex 0 excluded) with capacity <= bound."""
    out = set()
    for mask in range(1, 1 << (instance.n - 1)):
        side = frozenset(v for v in range(1, instance.n) if mask >> (v - 1) & 1)
        if side_capacity(instance, weights, side) <= bound:
            out.add(side)
    return out


def brute_min_kway_cut(instance, weights, parts):
    best = None
    for assignment in iter_partitions(instance.n, parts):
        cap = sum(
            weights[i] for i, e in enumerate(instance.edges)
            if assignment[e.tail] != assignment[e.head]
        )
        if best is None or cap < best:
            best = cap
    return best


# ---------------------------------------------------------------------------
# reference weighting and cut family

def fractional_capacity(instance, x):
    """Capacity scaled by a fractional selection: weight u(e) * x_e."""
    if len(x) != instance.m:
        raise ValueError("x must assign a value to every edge")
    return tuple(e.capacity * Fraction(x[i]) for i, e in enumerate(instance.edges))


def row_crossings(family):
    """Every row's crossing edge tuple, read through CutFamily.edges_of."""
    return [family.edges_of(i) for i in range(len(family.slot))]


class _reference_family:
    """CutFamily built row by row: a tuple of crossing edges per shape, a
    max over the pairs per row, a sort on each row's parts as vertex
    tuples for `rank`, and one sum per distinct crossing tuple for
    `capacities`."""

    def __init__(self, instance, sizes=None):
        n, edges = instance.n, instance.edges
        if instance.directed:
            levels = [(2, [tuple(mask >> v & 1 for v in range(n)) for mask in range(1, (1 << n) - 1)])]
        else:
            levels = [(p, list(iter_partitions(n, p))) for p in sizes or (2,)]
        self.shapes = [bytes(a) for _, shapes in levels for a in shapes]
        if instance.directed:
            def cuts(a, u, v):
                return a[u] > a[v]
        else:
            def cuts(a, u, v):
                return a[u] != a[v]
        self.crossing = [tuple(i for i, e in enumerate(edges) if cuts(a, e.tail, e.head))
                         for a in self.shapes]
        req = instance.requirements
        if isinstance(req, Pairs):
            self.requirement = [max((r for s, t, r in req.pairs if cuts(a, s, t)), default=0)
                                for a in self.shapes]
        else:
            self.requirement = []
            for p, shapes in levels:
                need = req.R if isinstance(req, Uniform) else (
                    req.Rs[p - 2] if p - 2 < len(req.Rs) else 0)
                self.requirement += [need] * len(shapes)
        index = {}
        self.slot = [index.setdefault(c, len(index)) for c in self.crossing]
        self.crossings = list(index)
        groups = {}
        for i, key in enumerate(zip(self.slot, self.requirement)):
            groups.setdefault(key, []).append(i)
        self.groups = [(s, need, rows) for (s, need), rows in groups.items()]
        blocks = (lambda a: range(max(a) + 1)) if sizes is not None else (lambda a: (1,))
        keys = [tuple(tuple(v for v, b in enumerate(a) if b == k) for k in blocks(a))
                for a in self.shapes]
        self.rank = [0] * len(keys)
        for position, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
            self.rank[i] = position

    def capacities(self, weighting):
        nums, den = over_common_denominator(weighting)
        sums = [sum(nums[e] for e in c) for c in self.crossings]
        return [sums[s] for s in self.slot], den


# ---------------------------------------------------------------------------
# brute-force feasibility and optima

def subset_weights(instance, chosen):
    chosen = set(chosen)
    return [e.capacity if i in chosen else 0 for i, e in enumerate(instance.edges)]


def brute_feasible(instance, chosen):
    """Requirement check straight from the cut characterizations."""
    w = subset_weights(instance, chosen)
    req = instance.requirements
    if isinstance(req, Uniform):
        return req.R == 0 or brute_global_min_cut(instance, w) >= req.R
    if isinstance(req, Pairs):
        return all(
            r == 0 or brute_min_st_cut(instance, w, s, t) >= r
            for s, t, r in req.pairs
        )
    if isinstance(req, KWay):
        return all(
            brute_min_kway_cut(instance, w, i + 2) >= r
            for i, r in enumerate(req.Rs)
        )
    raise TypeError(type(req).__name__)


def brute_subset_optimum(instance):
    """Cheapest feasible subset by scanning all 2^m of them; among optima
    the winner is the lexicographically least sorted edge tuple."""
    assert instance.m <= 12, "brute subset scan is for tiny instances"
    best_cost, best_edges = None, None
    for size in range(instance.m + 1):
        for combo in itertools.combinations(range(instance.m), size):
            if not brute_feasible(instance, combo):
                continue
            cost = instance.total_cost(combo)
            if best_cost is None or cost < best_cost or \
                    (cost == best_cost and combo < best_edges):
                best_cost, best_edges = cost, combo
    return best_cost, best_edges


def brute_copy_optimum(instance):
    """Cheapest feasible copy vector by scanning a product of copy counts."""
    req = instance.requirements
    assert isinstance(req, Pairs)
    max_demand = max((r for _, _, r in req.pairs), default=0)
    if max_demand == 0:
        return Fraction(0), (0,) * instance.m
    limits = [ceil_div(max_demand, e.capacity) for e in instance.edges]
    total = 1
    for l in limits:
        total *= l + 1
    assert total <= 200_000, "copy product too large for a brute scan"
    best_cost, best_copies = None, None
    for counts in itertools.product(*(range(l + 1) for l in limits)):
        w = [c * e.capacity for c, e in zip(counts, instance.edges)]
        ok = all(
            r == 0 or brute_min_st_cut(instance, w, s, t) >= r
            for s, t, r in req.pairs
        )
        if not ok:
            continue
        cost = sum(
            (c * e.cost for c, e in zip(counts, instance.edges)), Fraction(0)
        )
        if best_cost is None or cost < best_cost or \
                (cost == best_cost and counts < best_copies):
            best_cost, best_copies = cost, counts
    return best_cost, best_copies


# ---------------------------------------------------------------------------
# small shared instances

@pytest.fixture
def triangle_rigid():
    """Triangle where the cut {2} forces the expensive edge: capacities
    5/4/5, uniform demand 5, so edges 1 and 2 must both be bought."""
    return Instance(
        3,
        (
            Edge(0, 1, 5, Fraction(0)),
            Edge(1, 2, 4, Fraction(0)),
            Edge(0, 2, 5, Fraction(7)),
        ),
        Uniform(5),
    )


@pytest.fixture
def square_pairs():
    """Four-cycle with one chord and two demands."""
    return Instance(
        4,
        (
            Edge(0, 1, 3, Fraction(2)),
            Edge(1, 2, 2, Fraction(1)),
            Edge(2, 3, 3, Fraction(2)),
            Edge(0, 3, 2, Fraction(1)),
            Edge(0, 2, 1, Fraction(1)),
        ),
        Pairs(((0, 2, 3), (1, 3, 2))),
    )


@pytest.fixture
def endless_separation(monkeypatch):
    """Make every separation round of solve_good report one fresh
    violation, group 0 with a new edge set as a (slack, group, edge_set)
    triple, which x = 1 satisfies, so only the round cap stops the loop.
    Returns the list that gets one entry per round."""
    rounds = []

    def violations(family, variant, num, den, caps, kc):
        rounds.append(None)
        return [(-1, 0, (len(rounds),))]  # group 0's rows, edge set (round,)

    def constraint(family, den, caps, i, edge_set, clamp=True):
        return kclp.KCConstraint(None, edge_set, 1, 1, ((0, 1),))

    monkeypatch.setattr(kclp, "_violations", violations)
    monkeypatch.setattr(kclp, "_constraint", constraint)
    return rounds
