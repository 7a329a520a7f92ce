"""Near-minimum cut pools against exhaustive bipartition scans."""

from fractions import Fraction

import pytest

from capnet import cutenum
from capnet.cutenum import (
    EXHAUSTIVE_LIMIT,
    KWAY_LIMIT,
    enumerate_near_min_cuts,
    enumerate_near_min_kway_cuts,
)
from capnet.errors import CapabilityError, DisconnectedError, InvariantError
from capnet.graphs import CutFamily, Edge, Instance, Pairs, Uniform, capacity_weighting
from capnet.oracle import gen_random
from capnet.util import iter_partitions

from conftest import brute_cut_sides_within, brute_min_kway_cut


def _cycle(n):
    edges = tuple((i, (i + 1) % n, 1, 0) for i in range(n))
    return Instance(n, edges, Uniform(1))


@pytest.mark.parametrize("seed", range(15))
def test_cuts_within_match_brute_scan(seed):
    n = 4 + seed % 6
    inst = gen_random("uniform", n=n, m=n + 2 + seed % 4, seed=seed)
    w = capacity_weighting(inst)
    weights = [w[i] for i in range(inst.m)]
    family = CutFamily(inst)
    sums, den = family.capacities(w)
    for bound in (0, 3, 7, 100):
        pool = [family.cut(i, Fraction(cap, den)) for i, cap in enumerate(sums)
                if cap <= bound * den]
        assert {c.side for c in pool} == brute_cut_sides_within(inst, weights, bound)
        assert all(0 not in c.side for c in pool)
        assert all(c.capacity <= bound for c in pool)


def test_cycle_cut_pool_is_the_known_family():
    # In a unit cycle the cuts of capacity 2 are exactly the contiguous
    # arcs: n(n-1)/2 canonical sides.
    n = 6
    inst = _cycle(n)
    pool = enumerate_near_min_cuts(inst, capacity_weighting(inst), 1)
    assert pool.min_cut_value == 2
    assert len(pool) == n * (n - 1) // 2


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(3, 2), Fraction(2)])
def test_pool_size_respects_counting_bound(alpha):
    for seed in range(8):
        inst = gen_random("uniform", n=7, m=11, seed=40 + seed)
        pool = enumerate_near_min_cuts(inst, capacity_weighting(inst), alpha)
        # Ordered by capacity, then by side as an ascending vertex tuple.
        assert list(pool) == sorted(pool, key=lambda c: (c.capacity, sorted(c.side)))
        exponent = Fraction(2) * alpha
        assert len(pool) ** exponent.denominator <= inst.n ** exponent.numerator


def test_zero_weight_edges_do_not_block_enumeration():
    # Zero-cost edges must not hide the cut across them when its capacity
    # is in range.
    inst = Instance(
        4,
        (Edge(0, 1, 3, Fraction(0)), Edge(1, 2, 1, Fraction(0)),
         Edge(2, 3, 3, Fraction(0)), Edge(0, 3, 1, Fraction(0))),
        Uniform(1),
    )
    w = capacity_weighting(inst)
    pool = enumerate_near_min_cuts(inst, w, 1)
    assert frozenset({2, 3}) in {c.side for c in pool}


def test_disconnected_graph_raises():
    inst = Instance(
        4, (Edge(0, 1, 1, Fraction(0)), Edge(2, 3, 1, Fraction(0))), Uniform(0)
    )
    with pytest.raises(DisconnectedError):
        enumerate_near_min_cuts(inst, capacity_weighting(inst), 2)


def test_size_caps_raise_capability_errors():
    n = EXHAUSTIVE_LIMIT + 1
    edges = tuple((i, i + 1, 1, 0) for i in range(n - 1))
    inst = Instance(n, edges, Uniform(1))
    with pytest.raises(CapabilityError):
        CutFamily(inst)
    with pytest.raises(CapabilityError):
        enumerate_near_min_cuts(inst, capacity_weighting(inst), 1)
    nk = KWAY_LIMIT + 1
    edges = tuple((i, i + 1, 1, 0) for i in range(nk - 1))
    kinst = Instance(nk, edges, Uniform(1))
    with pytest.raises(CapabilityError):
        enumerate_near_min_kway_cuts(kinst, capacity_weighting(kinst), 3, 1)


def test_alpha_below_one_rejected():
    inst = _cycle(4)
    with pytest.raises(ValueError):
        enumerate_near_min_cuts(inst, capacity_weighting(inst), Fraction(1, 2))
    with pytest.raises(ValueError):
        enumerate_near_min_kway_cuts(inst, capacity_weighting(inst), 2, Fraction(1, 2))


def test_pools_refuse_what_they_cannot_scan():
    with pytest.raises(ValueError, match="at least two vertices"):
        enumerate_near_min_cuts(Instance(1, (), Uniform(0)), (), 1)
    arcs = Instance(3, ((0, 1, 1, 0), (1, 2, 1, 0), (2, 0, 1, 0)), Pairs(((0, 2, 1),)),
                    directed=True)
    with pytest.raises(ValueError, match="undirected"):
        enumerate_near_min_cuts(arcs, capacity_weighting(arcs), 1)
    inst = _cycle(4)
    for parts in (1, 5):
        with pytest.raises(ValueError, match="parts must be between 2 and n"):
            enumerate_near_min_kway_cuts(inst, capacity_weighting(inst), parts, 1)


@pytest.mark.parametrize("parts", [2, 3])
def test_kway_pool_matches_partition_scan(parts):
    for seed in range(6):
        inst = gen_random("uniform", n=6, m=9, seed=900 + seed)
        w = capacity_weighting(inst)
        weights = [w[i] for i in range(inst.m)]
        pool = enumerate_near_min_kway_cuts(inst, w, parts, Fraction(3, 2))
        best = brute_min_kway_cut(inst, weights, parts)
        expected = sum(
            1 for a in iter_partitions(inst.n, parts)
            if sum(weights[i] for i, e in enumerate(inst.edges)
                   if a[e.tail] != a[e.head]) <= Fraction(3, 2) * best
        )
        assert len(pool) == expected
        assert list(pool) == sorted(
            pool, key=lambda c: (c.capacity, [sorted(p) for p in c.parts]))
        assert all(c.way == parts for c in pool)
        assert min(c.capacity for c in pool) == best


def test_count_tripwire_fires_for_both_pools(monkeypatch):
    # The counting bound is an explicit check, so it also holds under -O.
    monkeypatch.setattr(cutenum, "_count_within_bound", lambda count, n, exponent: False)
    inst = _cycle(5)
    w = capacity_weighting(inst)
    with pytest.raises(InvariantError, match="cut-count bound"):
        enumerate_near_min_cuts(inst, w, 1)
    with pytest.raises(InvariantError, match="cut-count bound"):
        enumerate_near_min_kway_cuts(inst, w, 3, 1)
