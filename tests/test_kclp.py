"""Cut LP with knapsack-cover separation: variants, rows, the main loop."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from capnet import kclp
from capnet.errors import CapabilityError, InfeasibleError
from capnet.graphs import (
    CutFamily,
    Edge,
    Instance,
    KWay,
    Pairs,
    Uniform,
    check_feasible,
    cut_family,
)
from capnet.kclp import (
    FractionalSolution,
    solve_good,
    variant_for,
    verify_good,
)
from capnet.oracle import (
    exact_optimum,
    gen_random,
    gen_single_pair_gap,
    gen_triangle_gap,
)
from capnet.rounding import round_solution
from capnet.simplex import RowStore, solve_box_covering_lp
from capnet.util import log2_fixed, over_common_denominator

from conftest import _reference_family, brute_feasible, fractional_capacity, row_crossings


# ---------------------------------------------------------------------------
# variants and thresholds

PATH4 = ((0, 1, 2, 1), (1, 2, 2, 1), (2, 3, 2, 1))


def test_variant_inference():
    uni = gen_triangle_gap(5, 3)
    v = variant_for(uni)
    assert (v.kind, v.small_bound, v.doc) == ("uniform", None, {"kind": "uniform", "R": 5})
    kway = Instance(4, PATH4, KWay((1, 2)))
    v = variant_for(kway)
    assert (v.kind, v.small_bound, v.doc) == ("kway", None, {"kind": "kway", "Rs": [1, 2]})
    assert v.small(4, 2) and not v.small(5, 2)  # twice the row's demand
    pairs = Instance(3, ((0, 1, 2, 1), (1, 2, 2, 1)), Pairs(((0, 1, 2), (0, 2, 3))))
    v = variant_for(pairs)
    assert v.kind == "near-uniform"
    assert v.doc == {"kind": "near-uniform", "gamma": "3/2", "base": 2}
    assert v.small_bound == 6  # 2 * gamma * base, whatever the row's demand
    assert v.small(6, 2) and not v.small(7, 3)
    wide = variant_for(pairs, gamma=4)
    assert wide.doc["gamma"] == "4" and wide.small_bound == 16
    idle = variant_for(Instance(3, pairs.edges, Pairs(((0, 1, 0), (0, 2, 0)))))
    assert idle.doc == {"kind": "near-uniform", "gamma": "1", "base": 0}
    assert idle.scale == 40 * log2_fixed(3) and idle.small_bound == 0
    with pytest.raises(ValueError):
        variant_for(pairs, gamma=Fraction(5, 4))  # below the actual spread
    for inst in (uni, kway):  # gamma means nothing without pairs
        with pytest.raises(ValueError):
            variant_for(inst, gamma=2)


def test_scale_factor_and_threshold_values():
    lg4 = log2_fixed(4)
    assert lg4 == 2
    uni = variant_for(Instance(4, PATH4, Uniform(3)))
    assert uni.scale == 80
    assert uni.threshold == Fraction(1, 80)
    assert variant_for(Instance(4, PATH4, KWay((1, 2)))).scale == 240  # 40 * k * lg, k = 3
    pairs = Instance(4, PATH4, Pairs(((0, 3, 2), (1, 2, 3))))  # gamma 3/2, base 2
    assert variant_for(pairs).scale == 120
    # Non-powers of two give the truncated fixed-point log.
    lg5 = log2_fixed(5)
    five = Instance(5, PATH4 + ((3, 4, 2, 1),), Uniform(1))
    assert variant_for(five).scale == 40 * lg5


# ---------------------------------------------------------------------------
# requirements per cut and residuals

def _row(family, side):
    """The index of the bipartition row whose side is `side`."""
    return family.shapes.index(bytes(v in side for v in range(family.instance.n)))


def test_cut_requirement_by_variant(square_pairs):
    uni = gen_random("uniform", n=5, m=7, seed=1)
    family = cut_family(uni)
    assert family.requirement[_row(family, {1})] == uni.requirements.R

    family = cut_family(square_pairs)
    # {0, 1} vs {2, 3} separates both demands (0,2,3) and (1,3,2).
    assert family.requirement[_row(family, {2, 3})] == 3
    # {1} separates only the second demand.
    assert family.requirement[_row(family, {1})] == 2
    # {1, 3} separates vertex pairs (0,2) not at all, (1,3) not at all.
    assert family.requirement[_row(family, {1, 3})] == 0


def test_residual_requirement_clamps_at_zero(triangle_rigid):
    family = cut_family(triangle_rigid)
    row = _row(family, {2})  # crossing edges 1, 2
    assert family.edges_of(row) == (1, 2)
    assert kclp._row_terms(family, row, ())[0] == 5
    assert kclp._row_terms(family, row, (1,))[0] == 1
    assert kclp._row_terms(family, row, (2,))[0] == 0
    assert kclp._row_terms(family, row, (1, 2))[0] == 0
    # Edges off the cut contribute nothing.
    assert kclp._row_terms(family, row, (0,))[0] == 5


def test_cover_row_clamps_coefficients(triangle_rigid):
    family = cut_family(triangle_rigid)
    row = _row(family, {2})
    # capacity 5 clamped to the residual 1
    assert kclp._row_terms(family, row, (1,)) == (1, ((2, 1),))
    assert kclp._row_terms(family, row, (), clamp=False) == (5, ((1, 4), (2, 5)))


def test_kc_rows_hold_for_every_feasible_subset():
    # Soundness: whatever the cut and the taken-for-granted set, every
    # feasible integral selection satisfies the inequality.
    for seed in range(6):
        inst = gen_random("uniform", n=5, m=7, seed=40 + seed)
        family = cut_family(inst)
        feasible = [
            chosen for size in range(inst.m + 1)
            for chosen in itertools.combinations(range(inst.m), size)
            if brute_feasible(inst, chosen)
        ]
        rng = random.Random(seed)
        for _ in range(30):
            mask = rng.randrange(1, 1 << (inst.n - 1))
            side = {v for v in range(1, inst.n) if mask >> (v - 1) & 1}
            row = _row(family, side)
            aset = tuple(e for e in family.edges_of(row) if rng.random() < 0.4)
            terms = kclp._row_terms(family, row, aset)
            for chosen in feasible:
                x = [1 if e in chosen else 0 for e in range(inst.m)]
                assert kclp._scaled_slack(*terms, x, 1) >= 0, (seed, side, aset, chosen)


def test_cover_row_slack_flags_violations(triangle_rigid):
    family = cut_family(triangle_rigid)
    row = _row(family, {2})
    x = [1, 1, 0]
    assert kclp._scaled_slack(*kclp._row_terms(family, row, (1,)), x, 1) == -1
    rhs, coeffs = kclp._row_terms(family, row, (1, 2))
    assert rhs == 0 and coeffs == ()  # residual zero rows are vacuous
    assert kclp._scaled_slack(rhs, coeffs, x, 1) == 0


# ---------------------------------------------------------------------------
# the named gap instances

def test_triangle_gap_plain_vs_strengthened():
    inst = gen_triangle_gap(10, 100)
    plain_sol, plain_cert = solve_good(inst, seed=0, kc=False)
    assert plain_cert.cost == 10
    assert plain_sol.x[2] == Fraction(1, 10)
    strong_sol, strong_cert = solve_good(inst, seed=0)
    assert strong_cert.cost == 100
    assert strong_sol.x == (1, 1, 1)
    assert exact_optimum(inst).cost == 100


def test_triangle_gap_scales_with_r():
    inst = gen_triangle_gap(4, 36)
    _, plain = solve_good(inst, seed=0, kc=False)
    assert plain.cost == 9  # C / R
    _, strong = solve_good(inst, seed=0)
    assert strong.cost == 36


def test_star_gap_reference_survives_verification():
    inst, ref = gen_single_pair_gap(4)
    assert ref.cost() == 12
    assert verify_good(inst, ref) == []
    assert exact_optimum(inst).cost == 10


def test_star_gap_corrupted_reference_is_caught():
    inst, ref = gen_single_pair_gap(4)
    # Starve three of the four small edges: the side holding everything
    # but the source keeps only one spoke of scaled capacity 2 < 4.
    x = list(ref.x)
    x[0] = x[1] = x[2] = Fraction(0)
    problems = verify_good(inst, FractionalSolution(inst, tuple(x), ref.threshold))
    assert problems
    assert any(kind == "requirement" for kind, _ in problems)


def test_cover_violation_at_the_frozen_set_detected():
    # Capacities under u * x meet the demand (100/50 + 4 = 6 >= 5) but the
    # cover row with the frozen edge taken for granted does not: residual
    # 1 against min(100, 1) * 1/50.  Condition one passes, condition two
    # must not.
    inst = Instance(
        2, ((0, 1, 100, 1), (0, 1, 4, 1)), Pairs(((0, 1, 5),))
    )
    threshold = variant_for(inst).threshold
    assert Fraction(1, 50) < threshold
    sol = FractionalSolution(inst, (Fraction(1, 50), Fraction(1)), threshold)
    problems = verify_good(inst, sol)
    assert any(kind == "requirement" for kind, _ in problems) is False
    assert any(kind == "knapsack-cover" for kind, _ in problems)
    # The loop, faced with the same trap, must price the big edge to 1.
    fixed, _ = solve_good(inst, seed=0)
    assert verify_good(inst, fixed) == []
    assert fixed.x[0] == 1


# ---------------------------------------------------------------------------
# the cutting-plane loop on random instances

@pytest.mark.parametrize("kind,extra,seeds", [
    ("uniform", {}, range(6)),
    ("kway", {"levels": 2}, range(4)),
    ("pairs", {"pairs": 2}, range(4)),
])
def test_solve_good_exit_conditions_and_bound(kind, extra, seeds):
    for seed in seeds:
        n = 5 + seed % 3
        inst = gen_random(kind, n=n, m=n + 3, seed=700 + seed, **extra)
        sol, cert = solve_good(inst, seed=seed)
        assert verify_good(inst, sol) == []
        assert cert.cost == sol.cost()
        assert all(s >= 0 for s in cert.slacks)
        # Rows in the certificate pool are the ones the LP optimized over.
        assert len(cert.constraints) == len(cert.slacks)
        opt = exact_optimum(inst)
        assert sol.cost() <= opt.cost


def test_solve_good_deterministic():
    inst = gen_random("uniform", n=6, m=10, seed=3)
    a_sol, a_cert = solve_good(inst, seed=5)
    b_sol, b_cert = solve_good(inst, seed=5)
    assert a_sol.x == b_sol.x
    assert a_cert.to_json() == b_cert.to_json()


_PINNED_SWEEP_DIGEST = "365c228ae4cc6def0dbfde01b157c49c8faf55695dff89d419314dd8a5883fdf"


def _solve_sweep():
    """Seeded uniform, k-way (1-3 levels) and near-uniform instances; every
    fifth one has its demands tripled, so some solves raise."""
    rng = random.Random(2425)
    for k in range(180):
        kind = ("uniform", "kway", "pairs")[k % 3]
        n = rng.randint(3, 9)
        inst = gen_random(kind, n, rng.randint(n - 1, 2 * n), 6000 + k,
                          levels=1 + k % 4 % 3 if n > 3 else 1, pairs=rng.randint(1, 3))
        if k % 5 == 4:
            req = inst.requirements
            if kind == "uniform":
                req = Uniform(3 * req.R)
            elif kind == "kway":
                req = KWay(tuple(3 * r for r in req.Rs))
            else:
                req = Pairs(tuple((s, t, 3 * r) for s, t, r in req.pairs))
            inst = Instance(inst.n, inst.edges, req)
        yield inst


def test_certificates_over_a_sweep_are_pinned():
    # Each solve's certificate, with and without cover rows, or the error
    # it raised: a moved pool row, order, vertex or slack moves the digest.
    digest = hashlib.sha256()
    solves = raised = 0
    for inst in _solve_sweep():
        for kc in (True, False):
            try:
                text = solve_good(inst, kc=kc)[1].to_json()
            except (InfeasibleError, CapabilityError) as exc:
                text = repr(exc)
                raised += 1
            digest.update(text.encode())
            solves += 1
    assert (solves, raised) == (360, 66)
    assert digest.hexdigest() == _PINNED_SWEEP_DIGEST


def test_anchor_pool_packs_only_the_rows_no_earlier_row_implies(monkeypatch):
    # The benchmark's anchor: 435 pool rows, of which the simplex packs
    # the 235 that no earlier pool row implies (repeats included).
    stores = []

    def recording(costs, rows):
        stores.append(rows)
        return solve_box_covering_lp(costs, rows)

    monkeypatch.setattr(kclp, "solve_box_covering_lp", recording)
    inst = gen_random("uniform", 12, 24, 7)
    sol, cert = solve_good(inst)
    store = stores[-1]
    assert all(s is store for s in stores) and len(stores) == cert.rounds - 1
    assert (len(cert.constraints), len(store), store.packed, cert.packed) == (435, 435, 235, 235)
    rows = [(c.dense(inst.m), c.rhs) for c in cert.constraints]
    assert list(store) == rows
    # With every row packed the simplex returns the same vertex.
    assert solve_box_covering_lp([e.cost for e in inst.edges], rows) == (list(sol.x), cert.cost)


def test_no_plain_row_holds_an_earlier_batchs_plain_row(monkeypatch):
    # solve_good claims implied rows only within a batch: x meets every
    # earlier pool row, so no violated plain row can hold the crossing of
    # an earlier batch's plain row of its demand.  Checked by brute force
    # on the crossings from the row shapes, batch by batch.
    sizes = []
    extend = RowStore.extend

    def recording(self, rows, implied_by=None):
        rows = list(rows)
        if rows:
            sizes.append(len(rows))
        return extend(self, rows, implied_by)

    monkeypatch.setattr(RowStore, "extend", recording)
    solves = within = 0
    for inst in _solve_sweep():
        for kc in (True, False):
            sizes.clear()
            try:
                _, cert = solve_good(inst, kc=kc)
            except (InfeasibleError, CapabilityError):
                continue
            solves += 1
            assert sum(sizes) == len(cert.constraints)
            edges, earlier, k = inst.edges, [], 0
            for size in sizes:
                batch = []
                for con in cert.constraints[k:k + size]:
                    if not con.edge_set:
                        family, i, _ = con.source
                        shape = family.shapes[i]
                        crossing = {e for e, d in enumerate(edges) if shape[d.tail] != shape[d.head]}
                        batch.append((con.requirement, crossing))
                for need, crossing in batch:
                    assert not any(d == need and c <= crossing for d, c in earlier)
                # Inside a batch the same test finds the rows solve_good claims.
                within += sum(d == need and c < crossing
                              for j, (need, crossing) in enumerate(batch) for d, c in batch[:j])
                earlier += batch
                k += size
    assert solves == 294 and within > 10_000  # the 294 solves that do not raise


def test_certificate_json_shape():
    inst = gen_triangle_gap(10, 100)
    _, cert = solve_good(inst, seed=0)
    doc = json.loads(cert.to_json())
    assert doc["schema"] == "capnet.good-solution.v1"
    assert doc["variant"] == {"kind": "uniform", "R": 10}
    assert doc["cost"] == "100"
    assert len(doc["x"]) == 3
    assert doc["rounds"] >= 1
    assert doc["deviations"]
    for row in doc["constraints"]:
        assert Fraction(row["slack"]) >= 0
        assert row["rhs"] >= 0


def test_trivial_zero_requirement():
    inst = Instance(3, ((0, 1, 1, 5), (1, 2, 1, 5)), Uniform(0))
    sol, cert = solve_good(inst, seed=0)
    assert sol.cost() == 0
    assert cert.rounds == 0
    assert sol.x == (0, 0)
    idle = solve_good(Instance(3, inst.edges, Pairs(((0, 2, 0),))))
    assert idle[0].x == (0, 0) and idle[1].rounds == 0


def test_infeasible_requirements_raise():
    inst = Instance(3, ((0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)), Uniform(5))
    with pytest.raises(InfeasibleError):
        solve_good(inst, seed=0)


def test_kway_infeasible_witness_is_the_first_short_partition():
    # Two disjoint paths: the partition {0, 1} | {2, 3} crosses no edge.
    inst = Instance(4, ((0, 1, 2, 1), (2, 3, 2, 1)), KWay((1, 1, 1)))
    with pytest.raises(InfeasibleError) as info:
        solve_good(inst, seed=0)
    full = check_feasible(inst, range(inst.m))
    assert not full.feasible
    assert info.value.witness == full.witness


def test_solve_good_builds_the_kway_family_once(monkeypatch):
    inst = gen_random("kway", 9, 16, 1000, levels=2)  # generation scans partitions too
    built = []
    init = CutFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CutFamily, "__init__", counting_init)
    cut_family.cache_clear()
    sol, _ = solve_good(inst)
    report = round_solution(sol, seed=1000)  # reads the family the solve built
    assert len(built) == 1
    # A solution built apart from the solve rounds the same way, on the
    # same family.
    bare = FractionalSolution(inst, sol.x, sol.threshold)
    assert bare == sol
    assert round_solution(bare, seed=1000) == report
    assert len(built) == 1


# ---------------------------------------------------------------------------
# integer separation against the Fraction separation it replaced

def _ref_candidate_edge_sets(crossing, x, threshold):
    order = sorted(crossing, key=lambda e: (-x[e], e))
    cands = [()]
    seen = {()}
    prefix = []
    for i, e in enumerate(order):
        prefix.append(e)
        if i + 1 < len(order) and x[order[i + 1]] == x[e]:
            continue
        key = tuple(sorted(prefix))
        if key not in seen:
            seen.add(key)
            cands.append(key)
    frozen = tuple(sorted(e for e in crossing if x[e] >= threshold))
    if frozen not in seen:
        cands.append(frozen)
    return cands


def _ref_cover_row(family, i, edge_set, x, clamp=True):
    rhs, coeffs = kclp._row_terms(family, i, edge_set, clamp)
    return sum((c * x[e] for e, c in coeffs), Fraction(0)) - rhs, i, edge_set, rhs, coeffs


def _ref_violations(family, variant, x, kc):
    """The violation scan on Fractions, row capacities summed under uhat."""
    uhat = fractional_capacity(family.instance, x)
    capacities = [sum((uhat[e] for e in c), Fraction(0)) for c in row_crossings(family)]
    rows = list(zip(capacities, family.requirement))
    short = [
        _ref_cover_row(family, i, (), x, kc) for i, (cap, need) in enumerate(rows) if cap < need
    ]
    if short or not kc:
        return short
    bound = variant.small_bound
    out = []
    for i, (cap, need) in enumerate(rows):
        if need and cap <= (2 * need if bound is None else bound):
            for cand in _ref_candidate_edge_sets(family.edges_of(i), x, variant.threshold):
                v = _ref_cover_row(family, i, cand, x)
                if v[0] < 0:
                    out.append(v)
    return out


def _ref_sort_key(family, i):
    shape = family.shapes[i]
    blocks = range(max(shape) + 1) if family.kway else (1,)
    return tuple(tuple(v for v, b in enumerate(shape) if b == k) for k in blocks)


SEPARATION_CASES = [  # (kind, n, m, seed, extra): 40 uniform, 30 k-way, 30 pairs
    (kind, n, m, base + s, extra)
    for kind, base, extra, sizes in (
        ("uniform", 3000, {}, [(5, 7), (6, 9), (7, 11), (8, 12)] * 10),
        ("kway", 3100, {"levels": 2}, [(5, 8), (6, 9), (7, 10)] * 10),
        ("pairs", 3200, {"pairs": 3}, [(5, 7), (6, 9), (8, 12)] * 10),
    )
    for s, (n, m) in enumerate(sizes)
]


def test_integer_separation_matches_the_fraction_scan(monkeypatch):
    assert len(SEPARATION_CASES) >= 100
    scaled = kclp._scaled
    compared = 0
    for kind, n, m, seed, extra in SEPARATION_CASES:
        inst = gen_random(kind, n, m, seed, **extra)
        rounds = []

        def recording(family, x):
            rounds.append(tuple(x))
            return scaled(family, x)

        monkeypatch.setattr(kclp, "_scaled", recording)
        solve_good(inst)
        monkeypatch.setattr(kclp, "_scaled", scaled)
        family, variant = cut_family(inst), variant_for(inst)
        middle = rounds[len(rounds) // 2]
        for x, kc in ((middle, True), (rounds[-1], True), (middle, False)):
            num, den, caps = scaled(family, x)
            # The scan promises no order, so both lists go by (row, edge set),
            # the scan's group triples expanded to their rows.
            found = kclp._violations(family, variant, num, den, caps, kc)
            got = sorted([(v, i, a) for v, g, a in found for i in family.groups[g][2]],
                         key=lambda v: v[1:3])
            ref = sorted(_ref_violations(family, variant, x, kc), key=lambda v: v[1:3])
            assert [(i, a, *kclp._row_terms(family, i, a, kc)) for _, i, a in got] == [
                v[1:] for v in ref
            ], (kind, seed)
            assert [v[0] for v in got] == [v[0] * den for v in ref], (kind, seed)
            # The pool takes rows in this order: by slack, then by cut.
            ours = sorted(got, key=lambda v: (v[0], family.rank[v[1]], v[2]))
            theirs = sorted(ref, key=lambda v: (v[0], _ref_sort_key(family, v[1]), v[2]))
            assert [v[1:3] for v in ours] == [v[1:3] for v in theirs], (kind, seed)
            compared += bool(ref)
    assert compared >= 100  # most scans found violations to compare


def test_nearly_integral_set_is_a_split_prefix():
    """Separation tests only the prefixes of a crossing by decreasing x
    that end between distinct x values; the nearly-integral edges of the
    crossing are empty or one of them, ties in x and at t included."""
    rng = random.Random(17)
    nonempty = 0
    for _ in range(3000):
        m = rng.randint(1, 10)
        den = rng.choice([1, 2, 3, 4, 6, 12])
        num = [rng.randint(0, den) for _ in range(m)]
        if rng.random() < 0.5:  # t equal to some x value
            t = Fraction(rng.choice(num) or 1, den)
        else:
            t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        variant = kclp.VariantRecord("uniform", 1 / t, None, {})
        crossing = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
        frozen = tuple(sorted(kclp._frozen(variant, num, den) & set(crossing)))
        order = sorted(crossing, key=lambda e: (-num[e], e))
        splits = [
            tuple(sorted(order[:j]))
            for j in range(1, len(order) + 1)
            if j == len(order) or num[order[j]] != num[order[j - 1]]
        ]
        assert frozen == () or frozen in splits, (crossing, num, den, t)
        nonempty += frozen not in ((), crossing)
    assert nonempty >= 500  # most cases test a proper prefix


def test_cover_walk_runs_once_per_distinct_row_per_round(monkeypatch):
    inst = gen_random("kway", 9, 16, 1000, levels=2)
    rounds = []
    walk, violations = kclp._cover_walk, kclp._violations

    def counting_violations(*args):
        rounds.append([])
        return violations(*args)

    def counting_walk(crossing, need, *args):
        rounds[-1].append((crossing, need))
        return walk(crossing, need, *args)

    monkeypatch.setattr(kclp, "_violations", counting_violations)
    monkeypatch.setattr(kclp, "_cover_walk", counting_walk)
    sol, cert = solve_good(inst)
    assert len(rounds) == cert.rounds
    for keys in rounds:
        assert len(keys) == len(set(keys))
    # The last round finds nothing, so it walks every small row's
    # (crossing, demand) once, for fewer walks than small rows.
    family, variant = cut_family(inst), variant_for(inst)
    num, den, caps = kclp._scaled(family, sol.x)  # caps per distinct crossing
    small = [
        (family.keys[s], need)
        for s, need in zip(family.slot, family.requirement)
        if need and variant.small(caps[s], need, den)
    ]
    crossing = _reference_family(inst, (2, 3)).crossing
    assert all(bytes(e in crossing[i] for e in range(inst.m)) == family.keys[s]
               for i, s in enumerate(family.slot))
    assert sorted(rounds[-1]) == sorted(set(small))
    assert len(rounds[-1]) < len(small)


def test_first_batch_is_the_head_of_the_full_sort():
    # The 2- and 3-part partitions of 7 vertices, two of them isolated:
    # 364 rows in 47 groups, most of whose first row is not their least by
    # rank.  One to three distinct slacks, so more than SEPARATION_BATCH
    # groups often tie at the cut-off slack and only their least ranks
    # tell them apart, and rows of one group tie on slack and rank and
    # differ only in the edge set.
    base = gen_random("kway", 5, 6, 41, levels=2)
    inst = Instance(7, base.edges, base.requirements)
    family = CutFamily(inst, (2, 3))
    groups = family.groups
    assert (len(family.slot), len(groups)) == (364, 47)
    lead = [min(family.rank[i] for i in rows) for _, _, rows in groups]
    assert sum(family.rank[rows[0]] != r for (_, _, rows), r in zip(groups, lead)) >= 40
    rng = random.Random(40)
    batch = kclp.SEPARATION_BATCH
    for trial in range(200):
        keys = {(rng.randrange(len(groups)), tuple(sorted(rng.sample(range(inst.m), rng.randint(0, 2)))))
                for _ in range(rng.randint(1, 2 * batch))}
        found = [(-rng.randint(1, 1 + trial % 3), g, a) for g, a in keys]
        rng.shuffle(found)
        rows = [(v, i, a) for v, g, a in found for i in groups[g][2]]
        expected = sorted(rows, key=lambda v: (v[0], family.rank[v[1]], v[2]))[:batch]
        assert kclp._first_batch(found, family) == expected


def test_capability_guards():
    n = 18
    edges = tuple((i, i + 1, 3, 1) for i in range(n - 1))
    big = Instance(n, edges, Uniform(1))
    with pytest.raises(CapabilityError):
        solve_good(big, seed=0)
    nk = 12
    edges = tuple((i, i + 1, 3, 1) for i in range(nk - 1))
    kbig = Instance(nk, edges, KWay((1,)))
    with pytest.raises(CapabilityError):
        solve_good(kbig, seed=0)


def test_round_cap_raises_a_named_capability_error(endless_separation):
    inst = gen_triangle_gap(2, 1)
    with pytest.raises(CapabilityError, match=r"round cap 50 \* m \* n = 450 rounds"):
        solve_good(inst)
    assert len(endless_separation) == 50 * inst.m * inst.n


def test_verify_good_takes_a_plain_tuple():
    inst = gen_triangle_gap(4, 8)
    sol, _ = solve_good(inst)
    assert verify_good(inst, tuple(str(v) for v in sol.x)) == verify_good(inst, sol) == []
    zero = verify_good(inst, (0, 0, 0))
    assert zero and zero == verify_good(
        inst, FractionalSolution(inst, (0, 0, 0), variant_for(inst).threshold)
    )


def test_variant_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_good(Instance(2, ((0, 1, 1, 1),), Pairs(((0, 1, 1),)), directed=True), seed=0)
    with pytest.raises(ValueError, match="at least two vertices"):
        solve_good(Instance(1, (), Uniform(0)))


def test_near_uniform_residuals_strengthen_the_star():
    # With cover rows active the star instance cannot keep large edges at
    # 2/R once the small edges are capped: re-solving from scratch must
    # price above the plain relaxation on a shrunken variant of the star.
    inst, ref = gen_single_pair_gap(4)
    sol, cert = solve_good(inst, seed=0)
    assert verify_good(inst, sol) == []
    assert sol.cost() <= exact_optimum(inst).cost
    # The reference solution is itself good, so the solver cannot be
    # forced above the reference cost by more than the KC rows allow; we
    # only pin that the solve terminates and certifies.


def test_fractional_solution_validation():
    inst = gen_triangle_gap(4, 8)
    with pytest.raises(ValueError):
        FractionalSolution(inst, (Fraction(1), Fraction(1)), Fraction(1, 80))
    with pytest.raises(ValueError):
        FractionalSolution(inst, (Fraction(2), Fraction(0), Fraction(0)), Fraction(1, 80))
    with pytest.raises(ValueError):
        FractionalSolution(inst, (Fraction(1), Fraction(0), Fraction(0)), Fraction(0))
    sol = FractionalSolution(inst, ("1", "1/2", "0"), Fraction(1, 80))
    assert sol.x == (Fraction(1), Fraction(1, 2), Fraction(0))
    num, den = over_common_denominator(sol.x)
    assert kclp._frozen(sol, num, den) == {0, 1}  # x_e >= sol.threshold
    assert fractional_capacity(inst, sol.x)[1] == Fraction(3, 2)
