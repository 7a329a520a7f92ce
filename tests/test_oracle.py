"""Exact oracles, gap generators, label cover, and random instances."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from capnet import multicopy, oracle
from capnet.errors import CapabilityError, InfeasibleError, InstanceFormatError
from capnet.graphs import (
    EXHAUSTIVE_LIMIT,
    CutFamily,
    Edge,
    Instance,
    KWay,
    Pairs,
    Uniform,
    check_feasible,
    cut_family,
    instance_to_dict,
    serialize_instance,
)
from capnet.oracle import (
    LabelCoverInstance,
    constraint_rows,
    exact_optimum,
    exact_optimum_multicopy,
    gen_label_cover_reduction,
    gen_random,
    gen_single_pair_gap,
    gen_triangle_gap,
    label_cover_from_dict,
    label_cover_to_dict,
    sample_yes_instances,
    verify_yes_certificate,
)
from capnet.kclp import solve_good, verify_good
from capnet.rounding import round_solution
from capnet.util import ceil_div

from conftest import brute_copy_optimum, brute_subset_optimum, row_crossings


# ---------------------------------------------------------------------------
# constraint rows

def test_rows_uniform_are_all_bipartitions(triangle_rigid):
    rows = dict(constraint_rows(triangle_rigid))
    assert rows == {(0, 2): 5, (0, 1): 5, (1, 2): 5}


def test_rows_pairs_directed_keep_orientation():
    inst = Instance(
        3,
        ((0, 1, 2, 1), (1, 2, 2, 1), (0, 2, 2, 1)),
        Pairs(((0, 2, 2),)),
        directed=True,
    )
    rows = dict(constraint_rows(inst))
    # S = {0} crosses arcs 0 and 2; S = {0, 1} crosses arcs 1 and 2.
    assert rows == {(0, 2): 2, (1, 2): 2}


def test_rows_merge_keeps_the_largest_demand():
    inst = Instance(
        2,
        ((0, 1, 4, 1), (0, 1, 4, 1)),
        Pairs(((0, 1, 2), (0, 1, 5))),
    )
    assert constraint_rows(inst) == (((0, 1), 5),)


def test_rows_kway_cover_every_partition():
    inst = Instance(
        3,
        ((0, 1, 5, 0), (1, 2, 4, 0), (0, 2, 5, 7)),
        KWay((1, 2)),
    )
    rows = dict(constraint_rows(inst))
    assert rows == {(0, 2): 1, (0, 1): 1, (1, 2): 1, (0, 1, 2): 2}


def test_rows_vertex_cap():
    path = tuple((v, v + 1, 1, 1) for v in range(EXHAUSTIVE_LIMIT))
    inst = Instance(EXHAUSTIVE_LIMIT + 1, path, Uniform(1))
    with pytest.raises(CapabilityError):
        constraint_rows(inst)


def test_kway_pipeline_builds_one_cut_family(monkeypatch):
    inst = gen_random("kway", 7, 11, 5, levels=2)  # generation scans partitions too
    built = []
    init = CutFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CutFamily, "__init__", counting_init)
    cut_family.cache_clear()
    sol, cert = solve_good(inst)
    report = round_solution(sol, seed=5)
    best = exact_optimum(inst)
    assert verify_good(inst, sol) == []
    assert cert.cost <= best.cost <= report.cost
    assert len(built) == 1  # the solve's family serves every later stage


# ---------------------------------------------------------------------------
# subset oracle

def test_triangle_optimum_buys_the_expensive_edge():
    inst = gen_triangle_gap(10, 100)
    opt = exact_optimum(inst)
    assert opt.cost == 100
    # Edge 2 is forced; the zero-cost edges ride along in the canonical
    # (lex-least) optimum.
    assert opt.edges == (0, 1, 2)


@pytest.mark.parametrize("R,cost", [(4, 10), (6, 21)])
def test_star_optimum_matches_closed_form(R, cost):
    inst, reference = gen_single_pair_gap(R)
    opt = exact_optimum(inst)
    assert opt.cost == cost == R // 2 + R * R // 2
    # The reference fractional solution costs 3R; the integral-over-
    # fractional ratio R/6 + 1/6 grows linearly in R.
    assert reference.cost() == 3 * R
    assert Fraction(opt.cost, 3 * R) == Fraction(R, 6) + Fraction(1, 6)


def test_subset_oracle_ties_break_to_the_earliest_edges():
    inst = Instance(2, ((0, 1, 3, 2), (0, 1, 3, 2)), Uniform(3))
    assert exact_optimum(inst).edges == (0,)


@pytest.mark.parametrize("kind,kwargs", [
    ("uniform", {}),
    ("pairs", {"pairs": 2}),
    ("kway", {"levels": 2}),
])
@pytest.mark.parametrize("seed", range(4))
def test_subset_oracle_matches_brute_force(kind, kwargs, seed):
    inst = gen_random(kind, n=5, m=8, seed=seed, **kwargs)
    opt = exact_optimum(inst)
    cost, edges = brute_subset_optimum(inst)
    assert opt.cost == cost
    assert opt.edges == edges
    assert check_feasible(inst, opt.edges).feasible


def test_subset_oracle_trivial_and_infeasible():
    free = Instance(3, ((0, 1, 2, 5), (1, 2, 2, 5)), Uniform(0))
    opt = exact_optimum(free)
    assert opt.cost == 0 and opt.edges == ()
    split = Instance(4, ((0, 1, 1, 1), (2, 3, 1, 1)), Uniform(1))
    with pytest.raises(InfeasibleError):
        exact_optimum(split)


def test_subset_oracle_past_the_old_edge_cap():
    # m = 25 parallel edges, one past the edge cap the oracle once had.
    edges = tuple((0, 1, 1, 1) for _ in range(25))
    opt = exact_optimum(Instance(2, edges, Uniform(25)))
    assert opt.cost == 25   # every copy is needed
    assert len(opt.edges) == 25


def test_oracles_past_the_old_edge_caps_match_their_pinned_optima():
    # m = 26 and m = 13, past the old caps of 24 and 12: the optima and
    # node counts the search returned when only a forced search reached them.
    opt = exact_optimum(gen_random("uniform", 12, 26, 500))
    assert (opt.cost, opt.edges, opt.explored) == (
        48, (1, 5, 8, 9, 13, 15, 17, 18, 19, 21, 23, 24, 25), 2203)
    opt = exact_optimum_multicopy(gen_random("pairs", 8, 13, 501, pairs=3))
    assert (opt.cost, opt.copies, opt.explored) == (
        24, (0, 1, 0, 1, 0, 1, 0, 2, 0, 0, 2, 0, 0), 1012)


# ---------------------------------------------------------------------------
# copy oracle

def test_copy_oracle_single_edge():
    inst = Instance(2, ((0, 1, 2, 3),), Pairs(((0, 1, 5),)))
    opt = exact_optimum_multicopy(inst)
    assert opt.cost == 9 and opt.copies == (3,)


def test_copy_oracle_trivial_and_wrong_requirements():
    path = ((0, 1, 2, 5), (1, 2, 3, 5))
    free = exact_optimum_multicopy(Instance(3, path, Pairs(((0, 2, 0), (1, 2, 0)))))
    assert (free.cost, free.copies, free.explored) == (0, (0, 0), 0)
    with pytest.raises(ValueError, match="pair requirements"):
        exact_optimum_multicopy(Instance(3, path, Uniform(1)))


def test_copy_oracle_prefers_one_big_copy():
    inst = Instance(
        2,
        ((0, 1, 2, 3), (0, 1, 5, 5)),
        Pairs(((0, 1, 5),)),
    )
    opt = exact_optimum_multicopy(inst)
    assert opt.cost == 5 and opt.copies == (0, 1)


@pytest.mark.parametrize("seed", range(6))
def test_copy_oracle_matches_brute_force(seed):
    inst = gen_random("pairs", n=4, m=6, seed=seed, pairs=2, demand_cap=4)
    opt = exact_optimum_multicopy(inst)
    cost, copies = brute_copy_optimum(inst)
    assert opt.cost == cost
    assert opt.copies == copies


def _directed_pairs(seed):
    """A seeded pair instance on n <= 6 with each edge made an arc of a
    seeded orientation."""
    inst = gen_random("pairs", 4 + seed % 3, 7 + seed % 2, seed, pairs=2, demand_cap=2)
    flip = random.Random(seed)
    edges = tuple(Edge(e.head, e.tail, e.capacity, e.cost) if flip.random() < 0.5 else e
                  for e in inst.edges)
    return replace(inst, edges=edges, directed=True)


def test_copy_oracle_matches_brute_force_on_arcs():
    infeasible = 0
    for seed in range(30):
        inst = _directed_pairs(seed)
        cost, copies = brute_copy_optimum(inst)
        if cost is None:
            with pytest.raises(InfeasibleError):
                exact_optimum_multicopy(inst)
            infeasible += 1
        else:
            opt = exact_optimum_multicopy(inst)
            assert (opt.cost, opt.copies) == (cost, copies), seed
    assert infeasible == 15
    toy = gen_label_cover_reduction(sample_yes_instances()[0])
    opt = exact_optimum_multicopy(toy)
    assert (opt.cost, opt.copies) == brute_copy_optimum(toy) == (2, (1,) * toy.m)


def test_copy_oracle_past_the_old_edge_cap():
    # m = 13 parallel edges, one past the edge cap the copy oracle once had.
    edges = tuple((0, 1, 1, 1) for _ in range(13))
    inst = Instance(2, edges, Pairs(((0, 1, 2),)))
    assert exact_optimum_multicopy(inst).cost == 2


def test_both_oracles_share_one_infeasibility_rule_and_incumbent(monkeypatch):
    # The witness is a (key, need) row that its edges at their copy
    # bounds cannot cover: the empty cut around a pair cut off from its
    # sink, or a cut below a uniform R.
    cut_off = Instance(4, ((0, 1, 2, 1), (2, 3, 2, 1)), Pairs(((0, 2, 1), (0, 1, 1))))
    for search in (exact_optimum, exact_optimum_multicopy):
        with pytest.raises(InfeasibleError) as exc:
            search(cut_off)
        assert exc.value.witness == ((), 1)
        assert exc.value.witness in constraint_rows(cut_off)
    path = Instance(3, ((0, 1, 3, 1), (1, 2, 2, 1)), Uniform(3))
    with pytest.raises(InfeasibleError) as exc:
        exact_optimum(path)
    key, need = exc.value.witness
    assert (key, need) in constraint_rows(path)
    assert sum(path.edges[e].capacity for e in key) < need == 3
    # The copy oracle starts from its own greedy incumbent, not from the
    # forest baseline.  Refusing `_dijkstra` too catches a caller that
    # imported the baseline by name.
    def refuse(*args):
        raise AssertionError("the copy oracle called the forest baseline")
    for name in ("baseline_independent_pairs", "_dijkstra"):
        monkeypatch.setattr(multicopy, name, refuse)
    inst = gen_random("pairs", n=4, m=6, seed=0, pairs=2, demand_cap=4)
    opt = exact_optimum_multicopy(inst)
    assert (opt.cost, opt.copies) == brute_copy_optimum(inst)


# ---------------------------------------------------------------------------
# the shared integer search against the two Fraction searches it replaced
#
# _reference_subset and _reference_copies are the earlier oracles, one
# branch and bound each with a Fraction fill over every row at every node,
# each starting from the same greedy incumbent as the shared search.
# The shared kernel must explore the same tree: same cost, same tuple and
# same node count.

def _reference_fill(deficit, candidates):
    if sum(u for _, u in candidates) < deficit:
        return None
    cost = Fraction(0)
    for c, u in sorted(candidates, key=lambda t: (Fraction(t[0], t[1]), t[0])):
        if deficit <= 0:
            break
        take = min(u, deficit)
        cost += Fraction(c) * Fraction(take, u)
        deficit -= take
    return cost


def _reference_subset(instance):
    rows = constraint_rows(instance)
    if not rows:
        return Fraction(0), (), 0
    m = instance.m
    caps = [e.capacity for e in instance.edges]
    costs = [e.cost for e in instance.edges]
    keys = [key for key, _ in rows]
    need = [nd for _, nd in rows]
    rows_of = [[] for _ in range(m)]
    for r, key in enumerate(keys):
        for e in key:
            rows_of[e].append(r)
    order = sorted(range(m), key=lambda e: (-costs[e], e))
    rank = [0] * m
    for i, e in enumerate(order):
        rank[e] = i
    kept_cap = [sum(caps[e] for e in key) for key in keys]
    incumbent = set(range(m))
    for e in order:
        if all(kept_cap[r] - caps[e] >= need[r] for r in rows_of[e]):
            incumbent.discard(e)
            for r in rows_of[e]:
                kept_cap[r] -= caps[e]
    best = [sum((costs[e] for e in incumbent), Fraction(0)), tuple(sorted(incumbent)), 0]
    chosen_cap = [0] * len(keys)
    open_cap = [sum(caps[e] for e in key) for key in keys]
    chosen = []

    def descend(pos, cost):
        best[2] += 1
        deficient, worst = None, 0
        for r, nd in enumerate(need):
            gap = nd - chosen_cap[r]
            if chosen_cap[r] + open_cap[r] < nd:
                return
            if gap > worst:
                worst, deficient = gap, r
        if deficient is None:
            cand = sorted(chosen)
            if cand:
                top = cand[-1]
                cand += [e for e in order[pos:] if costs[e] == 0 and e < top]
                cand.sort()
            cand = tuple(cand)
            if cost < best[0] or (cost == best[0] and cand < best[1]):
                best[0], best[1] = cost, cand
            return
        if pos == m:
            return
        fill = _reference_fill(
            worst, [(costs[e], caps[e]) for e in keys[deficient] if rank[e] >= pos]
        )
        if fill is None or cost + fill > best[0]:
            return
        e = order[pos]
        for r in rows_of[e]:
            open_cap[r] -= caps[e]
        descend(pos + 1, cost)
        for r in rows_of[e]:
            chosen_cap[r] += caps[e]
        chosen.append(e)
        descend(pos + 1, cost + costs[e])
        chosen.pop()
        for r in rows_of[e]:
            chosen_cap[r] -= caps[e]
            open_cap[r] += caps[e]

    descend(0, Fraction(0))
    return tuple(best)


def _reference_copies(instance):
    rows = constraint_rows(instance)
    if not rows:
        return Fraction(0), (0,) * instance.m, 0
    m = instance.m
    caps = [e.capacity for e in instance.edges]
    costs = [e.cost for e in instance.edges]
    keys = [key for key, _ in rows]
    need = [nd for _, nd in rows]
    limit = [ceil_div(max(need), caps[e]) for e in range(m)]
    rows_of = [[] for _ in range(m)]
    for r, key in enumerate(keys):
        for e in key:
            rows_of[e].append(r)
    spare = [sum(limit[e] * caps[e] for e in key) - nd for key, nd in rows]
    copies = list(limit)
    for e in sorted(range(m), key=lambda e: (-costs[e], e)):
        while copies[e] and all(spare[r] >= caps[e] for r in rows_of[e]):
            copies[e] -= 1
            for r in rows_of[e]:
                spare[r] -= caps[e]
    copies = tuple(copies)
    best = [sum((costs[e] * c for e, c in enumerate(copies)), Fraction(0)), copies, 0]
    chosen_cap = [0] * len(keys)
    open_cap = [sum(limit[e] * caps[e] for e in key) for key in keys]
    current = [0] * m

    def descend(pos, cost):
        best[2] += 1
        deficient, worst = None, 0
        for r, nd in enumerate(need):
            gap = nd - chosen_cap[r]
            if chosen_cap[r] + open_cap[r] < nd:
                return
            if gap > worst:
                worst, deficient = gap, r
        if deficient is None:
            cand = tuple(current)
            if cost < best[0] or (cost == best[0] and cand < best[1]):
                best[0], best[1] = cost, cand
            return
        if pos == m:
            return
        fill = _reference_fill(
            worst,
            [(costs[e] * limit[e], caps[e] * limit[e]) for e in keys[deficient] if e >= pos],
        )
        if fill is None or cost + fill > best[0]:
            return
        e = pos
        span = limit[e] * caps[e]
        for r in rows_of[e]:
            open_cap[r] -= span
        for count in range(limit[e] + 1):
            current[e] = count
            add = count * caps[e]
            for r in rows_of[e]:
                chosen_cap[r] += add
            descend(pos + 1, cost + costs[e] * count)
            for r in rows_of[e]:
                chosen_cap[r] -= add
        current[e] = 0
        for r in rows_of[e]:
            open_cap[r] += span

    descend(0, Fraction(0))
    return tuple(best)


def _mixed_costs(instance, seed):
    """The instance with costs over denominators 2, 3, 4 and 6, and
    about four edges in ten free, so the integer scaling and the subset
    oracle's zero-cost padding both come into play."""
    rng = random.Random(seed)
    edges = tuple(
        replace(e, cost=Fraction(0) if rng.random() < 0.4
                else Fraction(rng.randint(1, 13), rng.choice((2, 3, 4, 6))))
        for e in instance.edges
    )
    return replace(instance, edges=edges)


@pytest.mark.parametrize("kind,kwargs", [
    ("uniform", {}),
    ("kway", {"levels": 2}),
    ("pairs", {"pairs": 2}),
])
def test_subset_search_matches_the_reference_tree(kind, kwargs):
    padded = 0
    for seed in range(50):
        inst = _mixed_costs(gen_random(kind, 6, 10, seed, **kwargs), seed)
        opt = exact_optimum(inst)
        assert (opt.cost, opt.edges, opt.explored) == _reference_subset(inst), seed
        padded += any(inst.edges[e].cost == 0 for e in opt.edges)
    assert padded >= 10   # free edges ride along in many optima


def test_copy_search_matches_the_reference_tree():
    for seed in range(50):
        inst = _mixed_costs(gen_random("pairs", 5, 8, seed, pairs=2, demand_cap=6), seed)
        opt = exact_optimum_multicopy(inst)
        assert (opt.cost, opt.copies, opt.explored) == _reference_copies(inst), seed


def test_search_trees_hold_at_every_field_size(monkeypatch):
    # Capacities in [lo, 2 lo] widen the packed slack and gap fields from
    # one byte through 2, 4 and 8 to two 64-bit words; the trees and
    # results must not depend on the field size.
    sizes = set()
    fields = oracle._fields

    def record(count, size):
        sizes.add(size)
        return fields(count, size)
    monkeypatch.setattr(oracle, "_fields", record)
    for lo in (1, 200, 5000, 2 ** 20, 2 ** 40, 2 ** 70):
        for seed in range(3):
            inst = gen_random("uniform", 6, 10, seed, cap_range=(lo, 2 * lo))
            opt = exact_optimum(inst)
            assert (opt.cost, opt.edges, opt.explored) == _reference_subset(inst), (lo, seed)
            inst = gen_random("pairs", 5, 8, seed, cap_range=(lo, 2 * lo), pairs=2)
            opt = exact_optimum_multicopy(inst)
            assert (opt.cost, opt.copies, opt.explored) == _reference_copies(inst), (lo, seed)
    assert sizes == {1, 2, 4, 8, 16}


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 24])
def test_fields_read_little_endian_fields_on_any_host(size):
    # The decode reads with explicit byte orders (struct's "<" codes, or
    # shifts for wide fields), so it never reads the host's native order:
    # each field comes back as the shifts and masks of the integer say.
    rng = random.Random(size)
    values = [rng.getrandbits(8 * size) for _ in range(7)] + [0, (1 << 8 * size) - 1]
    packed = sum(v << (8 * size * r) for r, v in enumerate(values))
    assert list(oracle._fields(len(values), size)(packed)) == values


def test_infeasibility_witness_is_the_first_short_row():
    # A path with capacities 1, 2, 1 under R = 3: every single-edge cut
    # is short, and the witness is the first of them in row order.
    path = Instance(4, ((0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1)), Uniform(3))
    rows = constraint_rows(path)
    short = [(key, need) for key, need in rows
             if sum(path.edges[e].capacity for e in key) < need]
    assert len(short) >= 3
    with pytest.raises(InfeasibleError) as exc:
        exact_optimum(path)
    assert exc.value.witness == short[0] == ((0,), 3)


def test_node_counts_are_pinned():
    # The benchmark's anchor and the pairs-multicopy tail instance: a
    # changed count means a changed search tree.
    assert exact_optimum(gen_random("uniform", 12, 24, 7)).explored == 2961
    tail = gen_random("pairs", 8, 12, 1004, pairs=3)
    assert exact_optimum_multicopy(tail).explored == 26753


def test_node_totals_over_the_lp_populations_are_pinned():
    # Populations 1 and 2 of the benchmark's uniform-lp (the anchor, then
    # n = 10, 11, 12 with m = 2n) and kway-partition workloads.
    for population, uniform_nodes, kway_nodes in ((1, 10693, 2504), (2, 13875, 3922)):
        seed = 1000 * population
        uniform = [gen_random("uniform", 12, 24, 7)] + [
            gen_random("uniform", 10 + i % 3, 20 + 2 * (i % 3), seed + i) for i in range(8)]
        kway = [gen_random("kway", 9, 16, seed + i, levels=2) for i in range(10)]
        assert sum(exact_optimum(inst).explored for inst in uniform) == uniform_nodes
        assert sum(exact_optimum(inst).explored for inst in kway) == kway_nodes


def test_copy_node_total_over_the_pairs_population_is_pinned():
    # Population 1 of the benchmark's pairs-multicopy workload: 130
    # instances of three pairs on n = 8, m = 12.
    pairs = [gen_random("pairs", 8, 12, 1000 + i, pairs=3) for i in range(130)]
    assert sum(exact_optimum_multicopy(inst).explored for inst in pairs) == 457169


def test_search_stops_at_its_node_budget():
    # The copy search on the reduction of label-cover toy 3 (n = 16,
    # m = 22) runs for minutes unbounded; the budget stops it after
    # NODE_BUDGET nodes.
    inst = gen_label_cover_reduction(sample_yes_instances()[3])
    message = f"^search passed NODE_BUDGET = {oracle.NODE_BUDGET} nodes$"
    with pytest.raises(CapabilityError, match=message):
        exact_optimum_multicopy(inst)


# ---------------------------------------------------------------------------
# the inclusion-minimal rows against every merged cut row
#
# _merged_rows is constraint_rows without the reduction: one row per
# distinct crossing edge set of the cut family, at its largest demand.
# Covering the minimal rows is covering them all, so searching either
# row set must give the same optimum.

def _merged_rows(instance):
    rows = {}
    family = cut_family(instance)
    for key, need in zip(row_crossings(family), family.requirement):
        if need > rows.get(key, 0):
            rows[key] = need
    return tuple(sorted(rows.items()))


def _implies(row, other):
    (a, need_a), (b, need_b) = row, other
    return set(a) <= set(b) and need_a >= need_b


def _every_kind(seed, n, m):
    """Seeded instances of each kind in turn: uniform, k-way, pairs and
    directed pairs."""
    kind = seed % 4
    if kind == 0:
        return gen_random("uniform", n, m, seed)
    if kind == 1:
        return gen_random("kway", n, m, seed, levels=2)
    inst = gen_random("pairs", n, m, seed, pairs=2)
    return replace(inst, directed=True) if kind == 3 else inst


def _inflated(instance, factor):
    """The instance with every demand multiplied by `factor`."""
    req = instance.requirements
    if isinstance(req, Uniform):
        req = Uniform(req.R * factor)
    elif isinstance(req, KWay):
        req = KWay(tuple(r * factor for r in req.Rs))
    else:
        req = Pairs(tuple((s, t, r * factor) for s, t, r in req.pairs))
    return replace(instance, requirements=req)


@pytest.mark.parametrize("seed", range(24))
def test_rows_are_exactly_the_minimal_implied_set(seed):
    inst = _every_kind(seed, 5 + seed % 3, 9 + seed % 4)
    merged = _merged_rows(inst)
    rows = constraint_rows(inst)
    assert list(rows) == sorted(rows)
    assert set(rows) <= set(merged)
    for row in merged:
        assert any(_implies(kept, row) for kept in rows), row
    for kept in rows:
        assert not any(_implies(other, kept) for other in rows if other != kept), kept


_PINNED_ROWS_DIGEST = "45b806951eb4c71f948400edfe077b891dd28f6a8c297c377b02399e1c32f7ab"


def _row_sweep():
    """The instances of the row pin: seeded uniform instances, k-way ones
    with 1-3 levels (a low demand cap makes levels share a demand),
    undirected pairs and the same pairs as arcs, the label-cover
    reductions with n <= 16 and the R = 4, 6 stars."""
    rng = random.Random(2424)
    for k in range(60):
        n = rng.randint(2, 10)
        yield gen_random("uniform", n, rng.randint(n - 1, 2 * n), 5000 + k)
    for k in range(60):
        levels = 1 + k % 3
        n = rng.randint(levels + 1, 8)
        cap = rng.choice((None, 2))
        yield gen_random("kway", n, rng.randint(n - 1, 2 * n), 5100 + k,
                         levels=levels, demand_cap=cap)
    for k in range(60):
        n = rng.randint(3, 9)
        inst = gen_random("pairs", n, rng.randint(n - 1, 2 * n), 5200 + k,
                          pairs=rng.randint(1, 3))
        yield inst
        yield replace(inst, directed=True)
    for lc in sample_yes_instances():
        inst = gen_label_cover_reduction(lc)
        if inst.n <= EXHAUSTIVE_LIMIT:
            yield inst
    for R in (4, 6):
        yield gen_single_pair_gap(R)[0]


def test_constraint_rows_are_pinned():
    # Every row set of the sweep, as text: a changed reduction moves it.
    digest = hashlib.sha256()
    sets = rows = 0
    for inst in _row_sweep():
        kept = constraint_rows(inst)
        digest.update(repr(kept).encode())
        sets += 1
        rows += len(kept)
    assert (sets, rows) == (246, 4014)
    assert digest.hexdigest() == _PINNED_ROWS_DIGEST


def _outcome(search, instance):
    """(cost, tuple) of a public oracle's optimum, or InfeasibleError."""
    try:
        opt = search(instance)
    except InfeasibleError:
        return InfeasibleError
    return opt.cost, opt.edges if search is exact_optimum else opt.copies


def _outcomes_both_ways(search, instance, monkeypatch):
    """The oracle's outcome over the minimal rows, then with its search
    run over every merged cut row instead."""
    minimal = _outcome(search, instance)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "constraint_rows", _merged_rows)
        return minimal, _outcome(search, instance)


def test_subset_oracle_matches_a_search_over_every_merged_row(monkeypatch):
    infeasible = 0
    for seed in range(100):
        inst = _mixed_costs(_every_kind(seed, 6, 10), seed)
        if seed % 5 == 4:
            inst = _inflated(inst, 3)
        minimal, merged = _outcomes_both_ways(exact_optimum, inst, monkeypatch)
        assert minimal == merged, seed
        infeasible += minimal is InfeasibleError
    assert 10 <= infeasible <= 60


def test_copy_oracle_matches_a_search_over_every_merged_row(monkeypatch):
    infeasible = 0
    for seed in range(50):
        inst = _mixed_costs(gen_random("pairs", 5, 8, seed, pairs=2, demand_cap=6), seed)
        if seed % 5 == 4:  # cut the first pair's sink off
            t = inst.requirements.pairs[0][1]
            inst = replace(inst, edges=tuple(e for e in inst.edges if t not in (e.tail, e.head)))
        minimal, merged = _outcomes_both_ways(exact_optimum_multicopy, inst, monkeypatch)
        assert minimal == merged, seed
        infeasible += minimal is InfeasibleError
    assert infeasible == 10


# ---------------------------------------------------------------------------
# label cover

def test_label_cover_rejects_malformed_inputs():
    good = dict(a_count=1, b_count=1, degree_a=1, degree_b=1,
                labels_a=2, labels_b=2)
    with pytest.raises(InstanceFormatError):
        LabelCoverInstance(**{**good, "labels_a": 0},
                           relations=((0, 0, ((0, 0),)),))
    with pytest.raises(InstanceFormatError):   # vertex out of range
        LabelCoverInstance(**good, relations=((0, 1, ((0, 0),)),))
    with pytest.raises(InstanceFormatError):   # label out of range
        LabelCoverInstance(**good, relations=((0, 0, ((0, 2),)),))
    with pytest.raises(InstanceFormatError):   # not regular
        LabelCoverInstance(**{**good, "a_count": 2},
                           relations=((0, 0, ((0, 0),)),))
    with pytest.raises(InstanceFormatError):   # labeling too short
        LabelCoverInstance(**good, relations=((0, 0, ((0, 0),)),),
                           labeling=((), (0,)))
    with pytest.raises(InstanceFormatError):   # labeling out of range
        LabelCoverInstance(**good, relations=((0, 0, ((0, 0),)),),
                           labeling=((5,), (0,)))
    with pytest.raises(InstanceFormatError, match="A-vertex 1 out of range"):
        LabelCoverInstance(**good, relations=((1, 0, ((0, 0),)),))
    with pytest.raises(InstanceFormatError, match="A-label 2 out of range"):
        LabelCoverInstance(**good, relations=((0, 0, ((2, 0),)),))
    with pytest.raises(InstanceFormatError, match="side B is not regular"):
        LabelCoverInstance(**{**good, "b_count": 2},
                           relations=((0, 0, ((0, 0),)),))
    with pytest.raises(InstanceFormatError, match="B-side label out of range"):
        LabelCoverInstance(**good, relations=((0, 0, ((0, 0),)),),
                           labeling=((0,), (5,)))


@pytest.mark.parametrize("change, field", [
    ({"relations": ((0, 0, 5),)}, "pi[0]"),
    ({"relations": ((0, 0),)}, "pi[0]"),
    ({"relations": ((0, 0, (5,)),)}, "pi[0]"),
    ({"relations": ((0, 0, ((0, 1, 1),)),)}, "pi[0]"),
    ({"labeling": (0, 0)}, "phi"),
    ({"labeling": ((0,),)}, "phi"),
    ({"labeling": 7}, "phi"),
])
def test_label_cover_rejects_malformed_shapes_from_python(change, field):
    good = dict(a_count=1, b_count=1, degree_a=1, degree_b=1, labels_a=2, labels_b=2,
                relations=((0, 0, ((0, 1),)),))
    assert LabelCoverInstance(**good, labeling=((0,), (1,))).labeling == ((0,), (1,))
    with pytest.raises(InstanceFormatError) as caught:
        LabelCoverInstance(**{**good, **change})
    assert caught.value.field == field


def test_violated_by_lists_broken_constraints():
    lc = sample_yes_instances()[2]
    assert lc.violated_by(lc.labeling) == ()
    flipped = (tuple(1 - v for v in lc.labeling[0]), lc.labeling[1])
    assert flipped[0] != lc.labeling[0]
    assert lc.violated_by(flipped) != ()


def test_label_cover_dict_round_trip():
    for lc in sample_yes_instances():
        doc = label_cover_to_dict(lc)
        back = label_cover_from_dict(doc)
        assert back == lc
        assert label_cover_to_dict(back) == doc
    with pytest.raises(InstanceFormatError):
        label_cover_from_dict([1, 2])
    with pytest.raises(InstanceFormatError):
        label_cover_from_dict({"A": 1})
    with pytest.raises(InstanceFormatError):
        label_cover_from_dict({
            "A": 1, "B": 1, "dA": 1, "dB": 1, "LA": 1, "LB": 1,
            "pi": [[0, 0]],
        })
    small = {"A": 1, "B": 1, "dA": 1, "dB": 1, "LA": 1, "LB": 1, "pi": [[0, 0, [[0, 0]]]]}
    assert label_cover_from_dict(small).relations == ((0, 0, ((0, 0),)),)
    with pytest.raises(InstanceFormatError, match="pi: must be a list"):
        label_cover_from_dict({**small, "pi": "0 0"})
    with pytest.raises(InstanceFormatError, match="phi: labeling is"):
        label_cover_from_dict({**small, "phi": [[0]]})


_SMALL_LABEL_COVER = {"A": 1, "B": 1, "dA": 1, "dB": 1, "LA": 2, "LB": 2, "pi": [[0, 0, [[0, 1]]]]}


@pytest.mark.parametrize("change, field", [
    ({"A": True}, "a_count"),
    ({"LB": False}, "labels_b"),
    ({"pi": [[False, 0, [[0, 1]]]]}, "pi[0]"),
    ({"pi": [[0, True, [[0, 1]]]]}, "pi[0]"),
    ({"pi": [[0, 0, [[True, 1]]]]}, "pi[0]"),
    ({"pi": [[0, 0, [[0, False]]]]}, "pi[0]"),
    ({"pi": [[0, 0, 5]]}, "pi[0]"),
    ({"pi": [[0, 0, [[0]]]]}, "pi[0]"),
    ({"pi": [[0, 0, [5]]]}, "pi[0]"),
    ({"phi": [0, 0]}, "phi"),
    ({"phi": [[True], [0]]}, "phi"),
    ({"phi": [[0], [False]]}, "phi"),
])
def test_label_cover_json_rejects_booleans_and_bad_shapes(change, field):
    assert label_cover_from_dict({**_SMALL_LABEL_COVER, "phi": [[0], [1]]}).labeling == ((0,), (1,))
    with pytest.raises(InstanceFormatError) as caught:
        label_cover_from_dict({**_SMALL_LABEL_COVER, **change})
    assert caught.value.field == field


def test_reduction_layout_and_size():
    sizes = []
    for lc in sample_yes_instances():
        inst = gen_label_cover_reduction(lc)
        assert inst.directed
        expected_n = (2 + lc.a_count + lc.b_count
                      + lc.a_count * lc.labels_a + lc.b_count * lc.labels_b)
        assert inst.n == expected_n
        expected_m = (lc.a_count + lc.b_count
                      + lc.a_count * lc.labels_a + lc.b_count * lc.labels_b
                      + sum(len(p) for _, _, p in lc.relations))
        assert inst.m == expected_m
        assert inst.requirements.pairs == ((0, 1, lc.m),)
        sizes.append((inst.n, inst.m))
    assert sizes == [(6, 5), (11, 12), (14, 16), (16, 22), (20, 30)]


def test_yes_certificates_verify():
    for lc in sample_yes_instances():
        inst = gen_label_cover_reduction(lc)
        check = verify_yes_certificate(inst, lc)
        assert check.ok
        assert check.cost == 2 * lc.m
        assert check.flow >= lc.m


def test_certificate_rejects_bad_labeling_and_wrong_instance():
    lc = sample_yes_instances()[3]
    inst = gen_label_cover_reduction(lc)
    bad = (tuple(0 for _ in lc.labeling[0]), tuple(0 for _ in lc.labeling[1]))
    with pytest.raises(ValueError, match="violates"):
        verify_yes_certificate(inst, lc, labeling=bad)
    other = gen_label_cover_reduction(sample_yes_instances()[0])
    with pytest.raises(ValueError, match="does not match"):
        verify_yes_certificate(other, lc)
    with pytest.raises(ValueError, match="no labeling"):
        verify_yes_certificate(inst, lc.__class__(
            lc.a_count, lc.b_count, lc.degree_a, lc.degree_b,
            lc.labels_a, lc.labels_b, lc.relations,
        ), labeling=None)


# ---------------------------------------------------------------------------
# random instances

@pytest.mark.parametrize("kind,kwargs", [
    ("uniform", {}),
    ("pairs", {"pairs": 3}),
    ("kway", {"levels": 2}),
])
def test_gen_random_is_feasible_and_deterministic(kind, kwargs):
    a = gen_random(kind, n=7, m=12, seed=5, **kwargs)
    b = gen_random(kind, n=7, m=12, seed=5, **kwargs)
    assert serialize_instance(a) == serialize_instance(b)
    assert a.n == 7 and a.m == 12
    assert check_feasible(a, range(a.m)).feasible
    assert serialize_instance(gen_random(kind, n=7, m=12, seed=6, **kwargs)) \
        != serialize_instance(a)


def test_gen_random_demand_cap():
    for seed in range(5):
        inst = gen_random("pairs", n=6, m=10, seed=seed, pairs=3, demand_cap=3)
        assert all(d <= 3 for _, _, d in inst.requirements.pairs)


def test_gen_random_guards():
    with pytest.raises(ValueError, match="unknown kind"):
        gen_random("mesh", n=5, m=8, seed=0)
    with pytest.raises(ValueError, match="two vertices"):
        gen_random("uniform", n=1, m=0, seed=0)
    with pytest.raises(ValueError, match="too small"):
        gen_random("uniform", n=5, m=3, seed=0)
    with pytest.raises(ValueError, match="demand_cap"):
        gen_random("uniform", n=5, m=8, seed=0, demand_cap=0)
    with pytest.raises(ValueError, match="capacities"):
        gen_random("uniform", n=5, m=8, seed=0, cap_range=(0, 4))
    with pytest.raises(ValueError, match="levels"):
        gen_random("kway", n=3, m=4, seed=0, levels=3)
    with pytest.raises(CapabilityError):
        gen_random("kway", n=11, m=14, seed=0)
    with pytest.raises(ValueError, match="distinct pairs"):
        gen_random("pairs", n=4, m=5, seed=0, pairs=7)
    assert len(gen_random("pairs", n=4, m=5, seed=0, pairs=6).requirements.pairs) == 6
    # Every distinct pair of 20 vertices: rejection sampling needs more
    # than a thousand draws here, and still ends.
    every = gen_random("pairs", n=20, m=19, seed=1, pairs=190).requirements.pairs
    assert len({(min(s, t), max(s, t)) for s, t, _ in every}) == 190


def test_gap_generator_guards():
    with pytest.raises(ValueError):
        gen_triangle_gap(1, 10)
    with pytest.raises(ValueError):
        gen_triangle_gap(5, 0)
    with pytest.raises(ValueError):
        gen_single_pair_gap(5)
    with pytest.raises(ValueError):
        gen_single_pair_gap(2)
