"""Instance model, flows, cuts, feasibility, serialization."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from capnet import graphs
from capnet.cutenum import KWAY_LIMIT
from capnet.errors import CapabilityError, InstanceFormatError
from capnet.graphs import (
    CutFamily,
    Edge,
    Instance,
    KWay,
    KWayCut,
    Pairs,
    Uniform,
    capacity_weighting,
    check_feasible,
    cut_from_side,
    cut_family,
    instance_from_dict,
    instance_to_dict,
    max_flow,
    parse_instance,
    serialize_instance,
    subset_weighting,
)
from capnet.oracle import gen_random
from capnet.util import over_common_denominator

from conftest import (
    _reference_family,
    brute_feasible,
    brute_global_min_cut,
    brute_min_kway_cut,
    brute_min_st_cut,
    fractional_capacity,
    row_crossings,
    side_capacity,
)


# ---------------------------------------------------------------------------
# model validation

def test_edge_and_instance_validation():
    with pytest.raises(InstanceFormatError):
        Instance(2, ((0, 0, 1, 0),), Uniform(1))  # self loop
    with pytest.raises(InstanceFormatError):
        Instance(2, ((0, 2, 1, 0),), Uniform(1))  # vertex out of range
    with pytest.raises(InstanceFormatError):
        Instance(2, ((0, 1, 0, 0),), Uniform(1))  # zero capacity
    with pytest.raises(InstanceFormatError):
        Instance(2, ((0, 1, 1, -1),), Uniform(1))  # negative cost
    with pytest.raises(InstanceFormatError):
        Instance(0, (), Uniform(0))


def test_requirement_validation():
    edges = ((0, 1, 1, 0), (1, 2, 1, 0))
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, Uniform(-1))
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, KWay((3, 2)))  # must be nondecreasing
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, KWay((1, 2, 3)))  # more levels than vertices allow
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, KWay(()))
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, Pairs(((0, 0, 1),)))  # source equals sink
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, Pairs(((0, 3, 1),)))  # sink out of range
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, Uniform(1), directed=True)  # cut shapes need undirected
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, KWay((1,)), directed=True)
    with pytest.raises(InstanceFormatError):
        Instance(3, edges, "nonsense")


def test_edge_coercion_and_total_cost():
    inst = Instance(3, ((0, 1, 2, "1/2"), (1, 2, 1, 3)), Uniform(1))
    assert inst.edges[0] == Edge(0, 1, 2, Fraction(1, 2))
    assert inst.m == 2
    assert inst.total_cost((0, 1)) == Fraction(7, 2)
    assert inst.total_cost(()) == 0


# ---------------------------------------------------------------------------
# cuts

def test_cut_canonicalization_excludes_vertex_zero():
    inst = Instance(4, ((0, 1, 1, 0), (1, 2, 1, 0), (2, 3, 1, 0)), Uniform(1))
    w = capacity_weighting(inst)
    cut = cut_from_side(inst, w, {0, 1})
    assert cut.side == frozenset({2, 3})
    assert cut.capacity == side_capacity(inst, list(w), cut.side)
    assert cut.separates(1, 2) and not cut.separates(2, 3)
    with pytest.raises(ValueError):
        cut_from_side(inst, w, set())
    with pytest.raises(ValueError):
        cut_from_side(inst, w, {0, 1, 2, 3})


def test_directed_cut_keeps_its_side():
    inst = Instance(
        3, ((0, 1, 2, 0), (1, 2, 3, 0), (2, 0, 5, 0)),
        Pairs(((0, 2, 1),)), directed=True,
    )
    w = capacity_weighting(inst)
    cut = cut_from_side(inst, w, {0, 1})
    assert cut.side == frozenset({0, 1})
    assert cut.crossing == (1,)   # only the arc leaving the side counts
    assert cut.capacity == 3


def _brute_kway_cut(instance, weighting, assignment):
    """The partition `assignment` as a KWayCut, built vertex by vertex and
    edge by edge: parts by smallest member, crossing edges ascending."""
    parts = {}
    for v, b in enumerate(assignment):
        parts.setdefault(b, set()).add(v)
    crossing = tuple(
        i for i, e in enumerate(instance.edges) if assignment[e.tail] != assignment[e.head]
    )
    return KWayCut(tuple(sorted(map(frozenset, parts.values()), key=min)), crossing,
                   sum(weighting[e] for e in crossing))


def test_kway_cut_parts_are_canonical():
    inst = Instance(4, ((0, 1, 1, 0), (1, 2, 2, 0), (2, 3, 4, 0)), Uniform(1))
    w = capacity_weighting(inst)
    family = CutFamily(inst, (3,))
    i = family.shapes.index(bytes((0, 1, 1, 2)))
    cut = family.cut(i, family.capacities(w)[0][i])
    assert cut == _brute_kway_cut(inst, w, (0, 1, 1, 2))
    assert cut.way == 3
    assert cut.parts == (frozenset({0}), frozenset({1, 2}), frozenset({3}))
    assert cut.capacity == 1 + 4
    assert cut.crossing == (0, 2)


def test_crossing_edges_multigraph():
    inst = Instance(2, ((0, 1, 1, 0), (0, 1, 2, 0), (1, 0, 3, 0)), Uniform(1))
    assert cut_from_side(inst, capacity_weighting(inst), {1}).crossing == (0, 1, 2)


# ---------------------------------------------------------------------------
# flows against brute-force minimum cuts

@pytest.mark.parametrize("seed", range(12))
def test_max_flow_equals_brute_min_cut(seed):
    n = 4 + seed % 4
    inst = gen_random("uniform", n=n, m=n + 3, seed=seed)
    w = capacity_weighting(inst)
    weights = [w[i] for i in range(inst.m)]
    for s, t in ((0, n - 1), (1, n - 2)):
        res = max_flow(inst, w, s, t)
        assert res.exact
        assert res.value == brute_min_st_cut(inst, weights, s, t)
        # The residual-reachable side is a minimum cut witness.
        assert side_capacity(inst, weights, res.source_side) == res.value


def test_max_flow_directed_asymmetry():
    inst = Instance(
        3, ((0, 1, 5, 0), (1, 2, 3, 0)), Pairs(((0, 2, 1),)), directed=True
    )
    w = capacity_weighting(inst)
    assert max_flow(inst, w, 0, 2).value == 3
    assert max_flow(inst, w, 2, 0).value == 0


def test_max_flow_cutoff_flags_inexact():
    inst = Instance(2, ((0, 1, 10, 0),), Uniform(1))
    w = capacity_weighting(inst)
    res = max_flow(inst, w, 0, 1, cutoff=4)
    assert res.value == 4 and not res.exact
    full = max_flow(inst, w, 0, 1, cutoff=10)
    assert full.value == 10 and full.exact


_PINNED_MAX_FLOW_DIGEST = "982f94d0116bfcdb739f74ffa84e9c9e948719c80dde6a2d58fb7313f8b46f53"


def test_max_flow_results_are_pinned():
    """(value, exact, source side) of every call in a seeded sweep: graphs
    of 3-10 vertices, every third one directed, under an integer and a
    rational weighting, from every source with and without a cutoff."""
    rng = random.Random(4190)
    digest = hashlib.sha256()
    calls = stopped = 0
    for k in range(200):
        n = rng.randint(3, 10)
        inst = gen_random("pairs", n, rng.randint(n - 1, 2 * n), 4000 + k)
        if k % 3 == 2:
            inst = Instance(n, inst.edges, inst.requirements, directed=True)
        integer = capacity_weighting(inst)
        rational = tuple(Fraction(rng.randint(0, 2) * u, rng.randint(1, 6)) for u in integer)
        for w in (integer, rational):
            for s in range(n):
                t = rng.choice([v for v in range(n) if v != s])
                for cutoff in (None, 0, 1, 3, 50):
                    res = max_flow(inst, w, s, t, cutoff)
                    record = (str(res.value), res.exact, sorted(res.source_side))
                    digest.update(repr(record).encode())
                    calls += 1
                    stopped += not res.exact
    assert (calls, stopped) == (12440, 4218)
    assert digest.hexdigest() == _PINNED_MAX_FLOW_DIGEST


def test_max_flow_rejects_equal_endpoints_and_negative_weights():
    inst = Instance(2, ((0, 1, 1, 0),), Uniform(1))
    with pytest.raises(ValueError):
        max_flow(inst, capacity_weighting(inst), 0, 0)
    with pytest.raises(ValueError):
        max_flow(inst, (-1,), 0, 1)


@pytest.mark.parametrize("sizes, directed", [(None, False), (None, True), ((2, 3), False)])
def test_cut_family_sort_key_lists_the_cut(sizes, directed):
    inst = gen_random("uniform", n=5, m=8, seed=4)
    if directed:
        inst = Instance(inst.n, inst.edges, Pairs(((0, 4, 1),)), directed=True)
    family = CutFamily(inst, sizes)
    w = capacity_weighting(inst)
    sums, _ = family.capacities(w)
    keys = []
    for i, shape in enumerate(family.shapes):
        cut = family.cut(i, sums[i])
        if sizes:
            assert cut == _brute_kway_cut(inst, w, shape)
        else:
            assert cut == cut_from_side(inst, w, {v for v, b in enumerate(shape) if b})
        keys.append(tuple(tuple(sorted(b)) for b in (cut.parts if sizes else (cut.side,))))
    # rank orders the rows as their cuts' parts (or side) do, as vertex tuples.
    assert sorted(family.rank) == list(range(len(keys)))
    assert sorted(range(len(keys)), key=family.rank.__getitem__) == sorted(
        range(len(keys)), key=keys.__getitem__
    )


def test_cut_family_memo_keeps_one_family(monkeypatch):
    # One entry: a, b, a builds three families, so at most one stays alive.
    a = gen_random("kway", 6, 9, 1, levels=2)
    b = gen_random("kway", 6, 9, 2, levels=2)
    built = []
    init = CutFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CutFamily, "__init__", counting_init)
    cut_family.cache_clear()
    first = cut_family(a)
    assert cut_family(Instance(a.n, a.edges, a.requirements)) is first  # equal, not identical
    assert len(built) == 1
    assert cut_family(b).instance == b
    again = cut_family(a)
    assert again is not first and row_crossings(again) == row_crossings(first)
    assert len(built) == 3


@pytest.mark.parametrize("sizes, directed", [(None, False), (None, True), ((2, 3), False)])
def test_cut_family_distinct_view_sums_each_row(sizes, directed):
    # An isolated vertex makes bipartition rows repeat their crossings too.
    base = gen_random("kway" if sizes else "pairs", n=6, m=9, seed=8, levels=2, pairs=2)
    inst = Instance(7, base.edges, base.requirements, directed=directed)
    family = CutFamily(inst, sizes)
    keys, slot = family.keys, family.slot
    crossings = [family.edges_of(s, distinct=True) for s in range(len(keys))]
    crossing = row_crossings(family)
    assert len(set(crossings)) == len(crossings) < len(crossing)
    assert [crossings[s] for s in slot] == crossing
    assert crossing == _reference_family(inst, sizes).crossing
    assert keys == tuple(bytes(e in c for e in range(inst.m)) for c in crossings)
    rng = random.Random(3)
    for _ in range(5):
        w = [Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(inst.m)]
        sums, den = family.capacities(w)
        assert [Fraction(v, den) for v in sums] == [
            sum((w[e] for e in c), Fraction(0)) for c in crossing
        ]
    # groups: each (crossing, requirement) pair once, its rows ascending.
    members = []
    for s, need, rows in family.groups:
        assert rows == sorted(rows)
        assert all(slot[i] == s and family.requirement[i] == need for i in rows)
        members += rows
    assert sorted(members) == list(range(len(crossing)))
    assert len({(s, need) for s, need, _ in family.groups}) == len(family.groups)


@pytest.mark.parametrize("sizes, directed", [(None, False), (None, True), ((2, 3), False)])
def test_crossing_sums_through_slot_are_the_row_capacities(sizes, directed):
    base = gen_random("kway" if sizes else "pairs", n=6, m=9, seed=9, levels=2, pairs=2)
    inst = Instance(7, base.edges, base.requirements, directed=directed)
    family = CutFamily(inst, sizes)
    keys, slot = family.keys, family.slot
    assert family._packed == [sum(key[e] << (64 * s) for s, key in enumerate(keys)) for e in range(inst.m)]
    rng = random.Random(11)
    top = [0] * (inst.m - 1)
    weightings = [
        [rng.randint(0, 20) for _ in range(inst.m)],
        [Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(inst.m)],
        [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(inst.m)],
        top + [(1 << 64) - 1],  # the largest total the packed fields hold
        top + [1 << 64],        # a total of 2^64: the per-crossing fallback
        [1 << 61] * inst.m,     # likewise, every weight below 2^64
    ]
    for w in weightings:
        nums, den = over_common_denominator(w)
        sums = family.crossing_sums(nums)
        assert len(sums) == len(keys)
        assert [sums[s] for s in slot] == [sum(nums[e] for e in c) for c in row_crossings(family)]
        assert family.capacities(w) == ([sums[s] for s in slot], den)


def _directed_pairs(seed):
    base = gen_random("pairs", n=5 + seed % 4, m=12, seed=seed, pairs=3)
    return Instance(base.n, base.edges, base.requirements, directed=True)


REFERENCE_CASES = (  # (instance, sizes)
    [(gen_random("uniform", n, 2 * n, 40 + n), None) for n in range(2, 13)]
    + [(gen_random("kway", n, n + 5, 60 + 10 * levels + n, levels=levels),
        range(2, levels + 2)) for levels in (1, 2, 3) for n in range(levels + 2, 10)]
    + [(_directed_pairs(seed), None) for seed in range(70, 78)]
)


@pytest.mark.parametrize("index", range(len(REFERENCE_CASES)))
def test_cut_family_matches_the_row_by_row_reference(index):
    inst, sizes = REFERENCE_CASES[index]
    family, ref = CutFamily(inst, sizes), _reference_family(inst, sizes)
    assert list(family.shapes) == ref.shapes
    assert row_crossings(family) == ref.crossing
    assert list(family.requirement) == ref.requirement
    assert [family.edges_of(s, distinct=True) for s in range(len(family.keys))] == ref.crossings
    assert family.slot == ref.slot
    assert family.groups == ref.groups
    assert list(family.rank) == ref.rank
    rng = random.Random(index)
    weightings = [  # rational, about a third of the weights 0
        [Fraction(rng.choice((0, rng.randint(1, 50))), rng.randint(1, 9)) for _ in range(inst.m)]
        for _ in range(4)
    ]
    weightings.append([0] * inst.m)
    # Sums past 2**64, or a negative weight, take the per-tuple sum.
    weightings.append([1 << 64] + [rng.randint(0, 9) for _ in range(inst.m - 1)])
    weightings.append([-3] + [Fraction(rng.randint(0, 9), 7) for _ in range(inst.m - 1)])
    for w in weightings:
        assert family.capacities(w) == ref.capacities(w)
    with pytest.raises(ValueError):
        family.capacities(weightings[0][1:])


def test_cut_families_of_one_shape_share_a_bounded_table():
    a = gen_random("kway", 7, 10, 1, levels=2)
    b = gen_random("kway", 7, 12, 2, levels=2)
    fa, fb = CutFamily(a, range(2, 4)), CutFamily(b, (2, 3))
    assert fa.shapes is fb.shapes and fa.rank is fb.rank
    assert row_crossings(fa) != row_crossings(fb)
    assert CutFamily(a).shapes is not fa.shapes  # bipartitions: another key
    assert graphs._shape_table.cache_info().maxsize is not None


def test_fractional_capacity_scales_flows():
    inst = Instance(2, ((0, 1, 8, 0),), Uniform(1))
    w = fractional_capacity(inst, [Fraction(1, 4)])
    assert max_flow(inst, w, 0, 1).value == 2
    with pytest.raises(ValueError):
        fractional_capacity(inst, [Fraction(1), Fraction(1)])


@pytest.mark.parametrize("seed", range(10))
def test_global_min_cut_matches_brute(seed):
    # Every cut separates vertex 0 from some v, so the least 0-v max flow
    # is the global min cut (what gen_random("uniform") draws R under).
    n = 4 + seed % 5
    inst = gen_random("uniform", n=n, m=n + 3, seed=100 + seed)
    w = capacity_weighting(inst)
    least = min(max_flow(inst, w, 0, v).value for v in range(1, n))
    assert least == brute_global_min_cut(inst, [w[i] for i in range(inst.m)])
    assert 1 <= inst.requirements.R <= least


# ---------------------------------------------------------------------------
# feasibility against the brute-force requirement checks

@pytest.mark.parametrize("kind,extra", [
    ("uniform", {}),
    ("pairs", {"pairs": 2}),
    ("kway", {"levels": 2}),
])
def test_check_feasible_matches_brute(kind, extra):
    import random
    for seed in range(8):
        inst = gen_random(kind, n=5, m=8, seed=300 + seed, **extra)
        rng = random.Random(seed)
        subsets = [tuple(range(inst.m)), ()]
        subsets += [
            tuple(e for e in range(inst.m) if rng.random() < 0.6) for _ in range(6)
        ]
        for chosen in subsets:
            got = check_feasible(inst, chosen)
            assert got.feasible == brute_feasible(inst, chosen), (kind, seed, chosen)
            if not got.feasible and kind != "kway":
                # The witness really is a violated cut.
                w = subset_weighting(inst, chosen)
                need = (inst.requirements.R if kind == "uniform"
                        else max(r for s, t, r in inst.requirements.pairs
                                 if got.witness.separates(s, t)))
                assert got.witness.capacity < need
                assert sum(w[e] for e in got.witness.crossing) == got.witness.capacity


def test_check_feasible_kway_witness(square_pairs):
    inst = gen_random("kway", n=5, m=8, seed=9, levels=2)
    full = check_feasible(inst, range(inst.m))
    assert full.feasible
    empty = check_feasible(inst, ())
    assert not empty.feasible
    weights = [0] * inst.m
    assert brute_min_kway_cut(inst, weights, empty.witness.way) == 0


def test_check_feasible_kway_past_the_cap_raises():
    # Partitions are only enumerated up to n = 10; past it the check must
    # refuse instead of passing an unverified subset.
    n = KWAY_LIMIT + 1
    inst = Instance(n, tuple((v, v + 1, 2, 1) for v in range(n - 1)), KWay((1, 2)))
    with pytest.raises(CapabilityError):
        check_feasible(inst, range(inst.m))


def test_check_feasible_pairs_reports_failing_index(square_pairs):
    res = check_feasible(square_pairs, (0, 1))  # breaks the 1-3 demand
    assert not res.feasible
    assert res.pair_index in (0, 1)
    assert res.witness.separates(*square_pairs.requirements.pairs[res.pair_index][:2])


def test_check_feasible_skips_zero_demand_pairs():
    path = ((0, 1, 2, 1), (1, 2, 2, 1))
    inst = Instance(3, path, Pairs(((0, 2, 0), (0, 1, 2), (1, 2, 3))))
    res = check_feasible(inst, (0, 1))
    assert not res.feasible and res.pair_index == 2  # pair 0 asks for nothing
    assert check_feasible(Instance(3, path, Pairs(((0, 2, 0), (0, 1, 2)))), (0,)).feasible


def test_subset_weighting_refuses_an_edge_out_of_range():
    inst = Instance(2, ((0, 1, 3, 1),), Uniform(1))
    assert subset_weighting(inst, (0,)) == (3,)
    with pytest.raises(ValueError, match="edge index 1 out of range"):
        subset_weighting(inst, (1,))
    with pytest.raises(ValueError, match="out of range"):
        subset_weighting(inst, (-1,))


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("kind,extra", [
    ("uniform", {}),
    ("pairs", {"pairs": 2}),
    ("kway", {"levels": 2}),
])
def test_serialize_round_trip(kind, extra):
    inst = gen_random(kind, n=6, m=9, seed=11, **extra)
    text = serialize_instance(inst)
    back = parse_instance(text)
    assert back == inst == parse_instance(text.encode())
    assert serialize_instance(back) == text  # canonical form is a fixed point
    assert text.endswith("\n")


def test_serialize_is_canonical_bytes():
    inst = gen_random("uniform", n=5, m=7, seed=3)
    a = serialize_instance(inst)
    b = serialize_instance(parse_instance(a))
    assert a == b
    assert json.loads(a)["requirements"]["kind"] == "uniform"


def test_parse_instance_rejects_malformed_documents():
    good = instance_to_dict(gen_random("uniform", n=4, m=5, seed=0))
    for mangle in (
        lambda d: d.pop("n"),
        lambda d: d.pop("edges"),
        lambda d: d.pop("requirements"),
        lambda d: d.__setitem__("n", "four"),
        lambda d: d.__setitem__("directed", 1),
        lambda d: d["edges"].append([0, 1, 1]),
        lambda d: d["edges"].append([0, 1, 1, 1, 0]),   # zero denominator
        lambda d: d["edges"][0].__setitem__(2, True),
        lambda d: d["requirements"].__setitem__("kind", "mystery"),
        lambda d: d["requirements"].pop("R"),
        # JSON booleans are not integers, wherever an integer is asked for.
        lambda d: d["requirements"].__setitem__("R", True),
        lambda d: d.__setitem__("requirements", {"kind": "kway", "Rs": [True]}),
        lambda d: d.__setitem__("requirements", {"kind": "pairs", "pairs": [[False, True, True]]}),
        lambda d: d.__setitem__("requirements", {"kind": "pairs", "pairs": [[0, 1, True]]}),
        lambda d: d["edges"][0].__setitem__(0, False),
    ):
        data = json.loads(json.dumps(good))
        mangle(data)
        with pytest.raises(InstanceFormatError):
            instance_from_dict(data)
    with pytest.raises(InstanceFormatError, match="requirements.R"):
        Instance(2, ((0, 1, 1, 0),), Uniform(True))
    with pytest.raises(InstanceFormatError, match="capacity"):
        Instance(2, ((0, 1, True, 0),), Uniform(1))
    with pytest.raises(InstanceFormatError):
        parse_instance("{not json")
    with pytest.raises(InstanceFormatError):
        parse_instance("[1,2,3]")


def test_parse_instance_pairs_shape_errors():
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps({
            "n": 2, "edges": [[0, 1, 1, 0, 1]],
            "requirements": {"kind": "pairs", "pairs": [[0, 1]]},
        }))
