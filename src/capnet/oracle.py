"""Exact desk-scale oracles and generators for the named test instances.

The oracles answer "what is the true optimum" on instances small enough
to enumerate, so the approximate solvers have something honest to be
measured against.  Feasibility is encoded once as covering rows, one per
inclusion-minimal cut constraint: a subset (or copy vector) is feasible
exactly when every row's selected capacity meets its demand, which
agrees with the max-flow characterization used elsewhere because min cut
equals max flow.  A cut whose edges contain another row's, at no larger
demand, is covered whenever that row is, so it gets no row.

Both oracles run one branch and bound over bounded copy vectors
(`_search`): an edge subset is a copy vector bounded by 1, deciding
edges in cost-descending order, while the copy oracle bounds edge e by
ceil(max need / u(e)) and decides edges in index order.  The search does
the set-up of both: a row its edges at their bounds cannot cover raises
InfeasibleError, and the incumbent lowers each edge from its bound, cost
descending, to the fewest copies that keep its rows covered.  Counts
branch ascending, so a subset tries excluding an edge first.  Costs are
scaled once to integers by the lcm of their denominators.  Each row
keeps its gap (need - chosen) and its slack (chosen + open - need) as
one byte-aligned field of each of two integers laid out alike, so
deciding an edge moves all of its rows' gaps or slacks in one addition.
Pruning uses a fractional covering lower bound: the cheapest fill of the
first most deficient row from its undecided lots, each lot being an edge
at its full bound, taken in order of cost per capacity, then cost, then
index.  That row is carried to the children: excluding an edge changes
no gap and including one only lowers its own rows' gaps, so the gaps
are decoded to find the row again only below an included edge that
crosses it.  The bound never overestimates, so only strictly-worse
branches die and the lexicographically least optimum survives ties,
whatever the incumbent.
Every search raises CapabilityError past NODE_BUDGET nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CapabilityError, InfeasibleError, InstanceFormatError, invariant
from .graphs import (
    CutFamily,
    Instance,
    KWay,
    Pairs,
    Uniform,
    _is_int,
    capacity_weighting,
    cut_family,
    instance_to_dict,
    max_flow,
    subset_weighting,
)
from .kclp import FractionalSolution, variant_for
from .util import FieldCodec, ceil_div, over_common_denominator

NODE_BUDGET = 1_000_000  # of every search; see _search
_BITS = bytes.maketrans(b"\0\1", b"01")  # a lane byte as a binary digit


# ---------------------------------------------------------------------------
# covering rows: feasibility as capacity constraints, one row per minimal cut

def constraint_rows(instance):
    """The inclusion-minimal cut constraints as (edge index tuple, demand)
    rows, sorted, read off `cut_family(instance)`.

    A subset is feasible iff every row's capacity under the subset meets
    its demand; likewise a copy vector with capacities copies(e) * u(e).
    Rows with identical edge sets merge, keeping the largest demand, and
    a row (B, need) is dropped when some other row (A, need') with A a
    subset of B and need' >= need implies it: whatever covers the kept
    rows covers every cut.  The work runs per distinct crossing of the
    family.  Rows are taken in the order of their crossings' keys (byte
    e is 1 when the crossing cuts edge e), where a crossing inside
    another has the smaller key.  So a row meets every row inside it
    first, and as implication is transitive a row is dropped exactly
    when a kept one implies it: each kept row marks the crossings that
    contain it, the AND of its edges' lanes, for its demand and every
    lower one.  The rows come from the instance's cut family, so
    n <= 16 (10 for k-way).
    """
    family = cut_family(instance)
    keys = family.keys
    largest = [0] * len(keys)
    for s, need in zip(family.slot, family.requirement):
        if need > largest[s]:
            largest[s] = need
    # Bit s of lanes[e] is set when distinct crossing s cuts edge e, so the
    # AND of a crossing's lanes has the bits of the crossings containing it
    # (all of them for the empty crossing).
    lanes = [int(b"0" + lane.translate(_BITS)[::-1], 2) for lane in family.lanes]
    full = (1 << len(keys)) - 1
    implied = {d: 0 for d in set(largest) if d}  # d -> crossings holding a kept row of d or more
    kept = []
    for s in sorted(range(len(keys)), key=keys.__getitem__):
        need = largest[s]
        if need and not implied[need] >> s & 1:
            edges = family.edges_of(s, distinct=True)
            kept.append((edges, need))
            within = full
            for e in edges:
                within &= lanes[e]
            for d in implied:
                if d <= need:
                    implied[d] |= within ^ (1 << s)
    return tuple(sorted(kept))


# ---------------------------------------------------------------------------
# branch and bound over bounded copy vectors

def _search(rows, costs, caps, bound, order, leaf_key):
    """Least (cost, leaf_key) copy vector with copies[e] <= bound[e] that
    covers every row: a row (edge tuple, need) is covered when the
    copies of its edges carry at least `need` capacity.

    Raises InfeasibleError with the first row its edges at their bounds
    cannot cover.  Edges are decided in `order`, counts ascending, and
    `leaf_key(copies, pos)` gives the key that breaks cost ties at a
    covered node where order[pos:] is still undecided (at zero copies).
    Returns (cost, key, nodes explored).  Raises CapabilityError once it
    explores more than NODE_BUDGET nodes: a count of nodes, not of
    seconds, and each node's work grows with the number of rows.
    """
    m, n = len(costs), len(rows)
    budget = NODE_BUDGET
    price, scale = over_common_denominator(costs)
    rank = {e: i for i, e in enumerate(order)}
    span = [bound[e] * caps[e] for e in range(m)]
    # Offset by `bias`, a row's slack (chosen + open - need, in [-need, sum
    # of spans]) and gap (need - chosen, in [need - sum of spans, need]) are
    # one `size`-byte field of `packed` and of `gaps`: deciding an edge moves
    # its rows in one addition (`step[e]` is u(e) on each), a row is short
    # exactly when its slack field lacks the bias bit, `codec` reads them all.
    bias = 1 << max(max(need for _, need in rows), sum(span)).bit_length()
    size = next((s for s in (1, 2, 4, 8) if bias < 1 << 8 * s), -(-bias.bit_length() // 64) * 8)
    width, mask, codec = 8 * size, (1 << 8 * size) - 1, FieldCodec(n, size)
    rows_of = [[] for _ in range(m)]
    marks = [bytearray(n) for _ in range(m)]  # 1 for each row the edge crosses
    for r, (key, _) in enumerate(rows):
        for e in key:
            rows_of[e].append(r)
            marks[e][r] = 1
    step = [caps[e] * codec.pack(mark) for e, mark in enumerate(marks)]
    high, needs = codec.pack([bias] * n), codec.pack([need for _, need in rows])
    packed = high - needs + sum(bound[e] * step[e] for e in range(m))
    gaps = high + needs
    slack = [field - bias for field in codec.read(packed)]
    for row, room in zip(rows, slack):
        if room < 0:
            raise InfeasibleError("requirements exceed the edges at their copy bounds", row)
    # The incumbent: every edge at its bound, then each edge, by cost
    # descending then index, lowered to the fewest copies that keep its
    # rows covered.
    warm = list(bound)
    for e in sorted(range(m), key=lambda e: (-price[e], e)):
        drop = min([bound[e]] + [slack[r] // caps[e] for r in rows_of[e]])
        warm[e] -= drop
        for r in rows_of[e]:
            slack[r] -= drop * caps[e]
    # One lot per edge, its full bound: (rank, cost, capacity).  Each row
    # lists its lots in fill order, sharing the tuples.
    lot = [(rank[e], price[e] * bound[e], span[e]) for e in range(m)]
    lots = [[] for _ in range(n)]
    for e in sorted(range(m), key=lambda e: (Fraction(lot[e][1], lot[e][2]), lot[e][1], e)):
        for r in rows_of[e]:
            lots[r].append(lot[e])

    best = sum(price[e] * count for e, count in enumerate(warm))
    best_key = leaf_key(warm, m)
    current = [0] * m
    explored = 0

    def descend(pos, cost, deficient):
        # deficient: the parent's first most deficient row, None if it may have moved
        nonlocal best, best_key, explored, packed, gaps
        explored += 1
        if explored > budget:
            raise CapabilityError(f"search passed NODE_BUDGET = {budget} nodes")
        if packed & high != high:
            return  # some row is short even with every open copy bought
        if deficient is None:
            gap = codec.read(gaps)
            worst = max(gap)
            deficient = gap.index(worst)
            worst -= bias
        else:
            worst = (gaps >> width * deficient & mask) - bias
        if worst <= 0:
            if cost <= best:
                key = leaf_key(current, pos)
                if cost < best or key < best_key:
                    best, best_key = cost, key
            return
        # Fractional fill of the first most deficient row.  Its open lots
        # carry `slack` >= 0 more than its gap, so the walk ends at a lot
        # that covers the rest; prune when the fill costs more than
        # best - cost (cross-multiplied at that partial lot).
        room = best - cost
        for rk, c, u in lots[deficient]:
            if rk >= pos:
                if u >= worst:
                    if c * worst > room * u:
                        return
                    break
                worst -= u
                room -= c
        e = order[pos]
        one = step[e]
        packed -= bound[e] * one
        descend(pos + 1, cost, deficient)
        if marks[e][deficient]:
            deficient = None
        for count in range(1, bound[e] + 1):
            gaps -= one
            packed += one
            current[e] = count
            descend(pos + 1, cost + price[e] * count, deficient)
        current[e] = 0
        gaps += bound[e] * one

    descend(0, 0, None)
    return Fraction(best, scale), best_key, explored


# ---------------------------------------------------------------------------
# exact optimum over edge subsets

@dataclass(frozen=True)
class SubsetOptimum:
    cost: Fraction
    edges: tuple
    explored: int


def exact_optimum(instance):
    """Minimum-cost feasible edge subset by branch and bound.

    Raises InfeasibleError when even the full edge set fails, and
    CapabilityError when the search passes NODE_BUDGET nodes.  Among
    optima, returns the lexicographically least edge tuple.
    """
    rows = constraint_rows(instance)
    if not rows:
        return SubsetOptimum(Fraction(0), (), 0)
    m = instance.m
    caps = [e.capacity for e in instance.edges]
    costs = [e.cost for e in instance.edges]
    order = sorted(range(m), key=lambda e: (-costs[e], e))

    def padded(chosen, pos):
        # Costlier supersets lose outright, but padding with an undecided
        # zero-cost edge below the current maximum keeps the cost and
        # shrinks the tuple lexicographically; every optimum is such a
        # padding of some covered node, so this closed form keeps the
        # lex-least contract exact.
        cand = [e for e, count in enumerate(chosen) if count]
        if cand:
            top = cand[-1]
            cand += [e for e in order[pos:] if costs[e] == 0 and e < top]
            cand.sort()
        return tuple(cand)

    cost, edges, explored = _search(rows, costs, caps, [1] * m, order, padded)
    return SubsetOptimum(cost, edges, explored)


# ---------------------------------------------------------------------------
# exact optimum over copy vectors

@dataclass(frozen=True)
class CopyOptimum:
    cost: Fraction
    copies: tuple
    explored: int


def exact_optimum_multicopy(instance):
    """Minimum-cost copy vector meeting every pair demand.

    Copy counts per edge are bounded by ceil(max demand / u(e)): more
    copies than that already cover the largest demand single-handedly on
    every cut through the edge, so exceeding the bound never helps; at
    these bounds, InfeasibleError means some pair is cut off from its sink.
    CapabilityError means the search passed NODE_BUDGET nodes.  Among
    optima, returns the lexicographically least copy vector.
    """
    if not isinstance(instance.requirements, Pairs):
        raise ValueError("the copy oracle expects pair requirements")
    rows = constraint_rows(instance)
    if not rows:
        return CopyOptimum(Fraction(0), (0,) * instance.m, 0)
    caps = [e.capacity for e in instance.edges]
    max_need = max(nd for _, nd in rows)
    limit = [ceil_div(max_need, u) for u in caps]
    cost, copies, explored = _search(
        rows, [e.cost for e in instance.edges], caps, limit, range(instance.m),
        lambda current, pos: tuple(current),
    )
    return CopyOptimum(cost, copies, explored)


# ---------------------------------------------------------------------------
# gap instances

def gen_triangle_gap(R, C):
    """Three vertices p=0, q=1, r=2 with uniform requirement R:
    pq (u=R, cost 0), qr (u=R-1, cost 0), pr (u=R, cost C).

    Every feasible integral solution must buy pr (the cut {r} has only
    qr and pr, and qr alone is one short), so the true optimum costs C.
    The plain cut LP instead covers {r} with x_pr = 1/R at cost C/R; the
    cover inequality at ({r}, A={qr}) is what forces x_pr to 1.
    """
    if not isinstance(R, int) or R < 2:
        raise ValueError("R must be an integer >= 2")
    C = Fraction(C)
    if C <= 0:
        raise ValueError("C must be positive")
    return Instance(
        3,
        ((0, 1, R, Fraction(0)), (1, 2, R - 1, Fraction(0)), (0, 2, R, C)),
        Uniform(R),
    )


def gen_single_pair_gap(R):
    """Star gap instance: s=0, t=1, spokes v_1..v_R (vertices 2..R+1),
    small edges s-v_i (u=2, cost 1), large edges v_i-t (u=R, cost R),
    one demand (s, t, R).  R must be even and >= 4.

    Returns (instance, reference fractional solution).  The reference
    puts 1 on small edges and 2/R on large ones, costing exactly 3R,
    and survives every cover inequality; the integral optimum needs
    R/2 spokes bought outright and costs R/2 + R^2/2.
    """
    if not isinstance(R, int) or R < 4 or R % 2:
        raise ValueError("R must be an even integer >= 4")
    edges = [(0, 2 + i, 2, Fraction(1)) for i in range(R)]
    edges += [(2 + i, 1, R, Fraction(R)) for i in range(R)]
    instance = Instance(R + 2, tuple(edges), Pairs(((0, 1, R),)))
    x = tuple([Fraction(1)] * R + [Fraction(2, R)] * R)
    return instance, FractionalSolution(instance, x, variant_for(instance).threshold)


# ---------------------------------------------------------------------------
# label cover and its flow reduction

@dataclass(frozen=True)
class LabelCoverInstance:
    """Regular bipartite constraint graph for label cover.

    a_count/b_count vertices on each side with regular degrees
    degree_a/degree_b; labels_a/labels_b label alphabet sizes; relations
    is one (a, b, allowed label pairs) entry per constraint edge, and a
    multigraph is allowed.  labeling, when present, is a (side-A labels,
    side-B labels) pair, not necessarily consistent.
    """

    a_count: int
    b_count: int
    degree_a: int
    degree_b: int
    labels_a: int
    labels_b: int
    relations: tuple
    labeling: object = None

    def __post_init__(self):
        for fld in ("a_count", "b_count", "degree_a", "degree_b", "labels_a", "labels_b"):
            v = getattr(self, fld)
            if not _is_int(v) or v < 1:
                raise InstanceFormatError(fld, "must be a positive integer")
        rels = []
        deg_a = [0] * self.a_count
        deg_b = [0] * self.b_count
        if not hasattr(self.relations, "__iter__"):
            raise InstanceFormatError("pi", "entries are a sequence of (a, b, pairs)")
        for i, entry in enumerate(self.relations):
            try:
                a, b, pairs = entry
                pairs = [(la, lb) for la, lb in pairs]
            except (TypeError, ValueError):
                raise InstanceFormatError(f"pi[{i}]", "entries are (a, b, ((la, lb), ...))") from None
            if not (_is_int(a) and 0 <= a < self.a_count):
                raise InstanceFormatError(f"pi[{i}]", f"A-vertex {a!r} out of range")
            if not (_is_int(b) and 0 <= b < self.b_count):
                raise InstanceFormatError(f"pi[{i}]", f"B-vertex {b!r} out of range")
            deg_a[a] += 1
            deg_b[b] += 1
            seen = []
            for la, lb in pairs:
                if not (_is_int(la) and 0 <= la < self.labels_a):
                    raise InstanceFormatError(f"pi[{i}]", f"A-label {la!r} out of range")
                if not (_is_int(lb) and 0 <= lb < self.labels_b):
                    raise InstanceFormatError(f"pi[{i}]", f"B-label {lb!r} out of range")
                seen.append((la, lb))
            rels.append((a, b, tuple(sorted(set(seen)))))
        object.__setattr__(self, "relations", tuple(rels))
        if any(d != self.degree_a for d in deg_a):
            raise InstanceFormatError("dA", "side A is not regular of the stated degree")
        if any(d != self.degree_b for d in deg_b):
            raise InstanceFormatError("dB", "side B is not regular of the stated degree")
        if len(rels) != self.a_count * self.degree_a or len(rels) != self.b_count * self.degree_b:
            raise InstanceFormatError("pi", "edge count must equal |A| dA = |B| dB")
        if self.labeling is not None:
            try:
                la, lb = (tuple(side) for side in self.labeling)
            except (TypeError, ValueError):
                raise InstanceFormatError("phi", "labeling is (A labels, B labels)") from None
            if len(la) != self.a_count or len(lb) != self.b_count:
                raise InstanceFormatError("phi", "labeling must cover every vertex")
            if any(not (_is_int(v) and 0 <= v < self.labels_a) for v in la):
                raise InstanceFormatError("phi", "A-side label out of range")
            if any(not (_is_int(v) and 0 <= v < self.labels_b) for v in lb):
                raise InstanceFormatError("phi", "B-side label out of range")
            object.__setattr__(self, "labeling", (la, lb))

    @property
    def m(self):
        return len(self.relations)

    def violated_by(self, labeling):
        la, lb = labeling
        return tuple(
            i for i, (a, b, pairs) in enumerate(self.relations)
            if (la[a], lb[b]) not in pairs
        )


def label_cover_to_dict(lc):
    d = {
        "A": lc.a_count,
        "B": lc.b_count,
        "dA": lc.degree_a,
        "dB": lc.degree_b,
        "LA": lc.labels_a,
        "LB": lc.labels_b,
        "pi": [[a, b, [list(p) for p in pairs]] for a, b, pairs in lc.relations],
    }
    if lc.labeling is not None:
        d["phi"] = [list(lc.labeling[0]), list(lc.labeling[1])]
    return d


def label_cover_from_dict(data):
    if not isinstance(data, dict):
        raise InstanceFormatError("", "label cover must be a JSON object")
    for fld in ("A", "B", "dA", "dB", "LA", "LB", "pi"):
        if fld not in data:
            raise InstanceFormatError(fld, "missing field")
    pi = data["pi"]
    if not isinstance(pi, list):
        raise InstanceFormatError("pi", "must be a list")
    rels = []
    for i, entry in enumerate(pi):
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)
                and all(isinstance(p, list) and len(p) == 2 for p in entry[2])):
            raise InstanceFormatError(f"pi[{i}]", "entries are [a, b, [[la, lb], ...]]")
        a, b, pairs = entry
        rels.append((a, b, tuple(map(tuple, pairs))))
    phi = data.get("phi")
    if phi is not None:
        if not (isinstance(phi, list) and len(phi) == 2 and all(isinstance(p, list) for p in phi)):
            raise InstanceFormatError("phi", "labeling is [[A labels], [B labels]]")
        phi = (tuple(phi[0]), tuple(phi[1]))
    return LabelCoverInstance(
        data["A"], data["B"], data["dA"], data["dB"], data["LA"], data["LB"],
        tuple(rels), phi,
    )


def _reduction_layout(lc):
    """Vertex ids for the flow network: s, t, the sides, and one gadget
    vertex per (vertex, label)."""
    a0 = 2
    b0 = a0 + lc.a_count
    al0 = b0 + lc.b_count
    bl0 = al0 + lc.a_count * lc.labels_a
    n = bl0 + lc.b_count * lc.labels_b

    def a_vertex(a):
        return a0 + a

    def b_vertex(b):
        return b0 + b

    def a_label(a, la):
        return al0 + a * lc.labels_a + la

    def b_label(b, lb):
        return bl0 + b * lc.labels_b + lb

    return n, a_vertex, b_vertex, a_label, b_label


def gen_label_cover_reduction(lc):
    """Directed flow instance whose cheap high-flow subgraphs encode
    consistent labelings.

    Vertices: source 0, sink 1, one per constraint-graph vertex, one per
    (vertex, label).  Arcs: s -> a free with capacity degree_a; b -> t
    free with capacity degree_b; a -> (a, la) at cost degree_a, capacity
    degree_a (buying it means "a picks label la"), symmetrically
    (b, lb) -> b; and a free unit arc (a, la) -> (b, lb) for every
    allowed pair of every constraint.  The single demand asks for
    |constraints| units from s to t.
    """
    n, a_vertex, b_vertex, a_label, b_label = _reduction_layout(lc)
    edges = []
    for a in range(lc.a_count):
        edges.append((0, a_vertex(a), lc.degree_a, Fraction(0)))
    for b in range(lc.b_count):
        edges.append((b_vertex(b), 1, lc.degree_b, Fraction(0)))
    for a in range(lc.a_count):
        for la in range(lc.labels_a):
            edges.append((a_vertex(a), a_label(a, la), lc.degree_a, Fraction(lc.degree_a)))
    for b in range(lc.b_count):
        for lb in range(lc.labels_b):
            edges.append((b_label(b, lb), b_vertex(b), lc.degree_b, Fraction(lc.degree_b)))
    for a, b, pairs in lc.relations:
        for la, lb in pairs:
            edges.append((a_label(a, la), b_label(b, lb), 1, Fraction(0)))
    instance = Instance(n, tuple(edges), Pairs(((0, 1, lc.m),)), directed=True)
    size = (
        lc.a_count + lc.b_count + lc.labels_a + lc.labels_b
        + lc.m + sum(len(p) for _, _, p in lc.relations)
    )
    invariant(instance.n + instance.m <= (size + 2) ** 2, "reduction exceeded quadratic size")
    return instance


@dataclass(frozen=True)
class CertificateCheck:
    cost: Fraction
    flow: int
    expected_cost: int
    expected_flow: int
    edges: tuple

    @property
    def ok(self):
        return self.cost == self.expected_cost and self.flow >= self.expected_flow


def verify_yes_certificate(instance, lc, labeling=None):
    """Materialize the certificate subgraph for a consistent labeling and
    measure it: all free arcs plus the one label arc per vertex that the
    labeling picks.  For a consistent labeling this costs exactly
    2 |constraints| and carries the full demand.

    Raises ValueError if the labeling violates some constraints (they
    are listed) or if `instance` is not the reduction of `lc`.
    """
    if labeling is None:
        labeling = lc.labeling
    if labeling is None:
        raise ValueError("no labeling to verify")
    la, lb = tuple(labeling[0]), tuple(labeling[1])
    bad = lc.violated_by((la, lb))
    if bad:
        raise ValueError(f"labeling violates constraints {list(bad)}")
    expected = gen_label_cover_reduction(lc)
    if instance_to_dict(instance) != instance_to_dict(expected):
        raise ValueError("instance does not match the reduction of this label cover")
    _, a_vertex, b_vertex, a_label, b_label = _reduction_layout(lc)
    picked_a = {(a_vertex(a), a_label(a, la[a])) for a in range(lc.a_count)}
    picked_b = {(b_label(b, lb[b]), b_vertex(b)) for b in range(lc.b_count)}
    chosen = []
    for i, e in enumerate(instance.edges):
        if e.cost == 0 or (e.tail, e.head) in picked_a or (e.tail, e.head) in picked_b:
            chosen.append(i)
    cost = instance.total_cost(chosen)
    flow = max_flow(instance, subset_weighting(instance, chosen), 0, 1)
    return CertificateCheck(cost, flow.value, 2 * lc.m, lc.m, tuple(chosen))


def sample_yes_instances():
    """Five small satisfiable label covers with their labelings, used by
    the certificate checks.  Decoy label pairs keep them from being
    trivially consistent under every labeling."""
    toys = []
    toys.append(LabelCoverInstance(
        1, 1, 1, 1, 1, 1,
        ((0, 0, ((0, 0),)),),
        ((0,), (0,)),
    ))
    toys.append(LabelCoverInstance(
        1, 2, 2, 1, 2, 2,
        ((0, 0, ((1, 0), (0, 1))), (0, 1, ((1, 1),))),
        ((1,), (0, 1)),
    ))
    toys.append(LabelCoverInstance(
        2, 2, 1, 1, 2, 2,
        ((0, 0, ((0, 0), (1, 1))), (1, 1, ((1, 0), (0, 1)))),
        ((0, 1), (0, 0)),
    ))
    toys.append(LabelCoverInstance(
        2, 2, 2, 2, 2, 3,
        (
            (0, 0, ((0, 2), (1, 0))),
            (0, 1, ((0, 1), (1, 2))),
            (1, 0, ((1, 2), (0, 0))),
            (1, 1, ((1, 1), (0, 0))),
        ),
        ((0, 1), (2, 1)),
    ))
    toys.append(LabelCoverInstance(
        3, 2, 2, 3, 3, 2,
        (
            (0, 0, ((0, 0), (2, 1))),
            (0, 1, ((0, 1), (1, 0))),
            (1, 0, ((1, 0), (2, 0))),
            (1, 1, ((1, 1), (0, 0))),
            (2, 0, ((2, 0), (0, 1))),
            (2, 1, ((2, 1), (1, 0))),
        ),
        ((0, 1, 2), (0, 1)),
    ))
    return tuple(toys)


# ---------------------------------------------------------------------------
# random instances

def gen_random(
    kind,
    n,
    m,
    seed,
    cap_range=(1, 10),
    cost_range=(0, 10),
    pairs=1,
    levels=1,
    demand_cap=None,
):
    """Reproducible random connected instance with a feasible requirement.

    A random spanning tree guarantees connectivity; remaining edges are
    uniform vertex pairs (parallel edges allowed, self-loops not).
    Demands are drawn within what the full graph supports (global min
    cut, per-level minimum partition capacity, or per-pair max flow), so
    the result is always feasible; demand_cap lowers the draw ceiling,
    which keeps the exact oracles fast.
    """
    if kind not in ("uniform", "kway", "pairs"):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 2:
        raise ValueError("need at least two vertices")
    if m < n - 1:
        raise ValueError("m is too small for a connected graph")
    if demand_cap is not None and demand_cap < 1:
        raise ValueError("demand_cap must be at least 1")
    if kind == "pairs" and pairs > n * (n - 1) // 2:
        raise ValueError(f"{n} vertices have only {n * (n - 1) // 2} distinct pairs, not {pairs}")
    rng = random.Random(seed)
    lo_u, hi_u = cap_range
    lo_c, hi_c = cost_range
    if lo_u < 1:
        raise ValueError("capacities must be positive")
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    full = []
    for a, b in edges:
        full.append((a, b, rng.randint(lo_u, hi_u), Fraction(rng.randint(lo_c, hi_c))))
    skeleton = Instance(n, tuple(full), Uniform(0))
    w = capacity_weighting(skeleton)

    def ceiling(value):
        return min(value, demand_cap) if demand_cap else value

    if kind == "uniform":
        mincut = min(max_flow(skeleton, w, 0, v).value for v in range(1, n))
        return replace(skeleton, requirements=Uniform(rng.randint(1, ceiling(mincut))))

    if kind == "kway":
        if levels < 1 or levels + 1 > n:
            raise ValueError("levels must fit the vertex count")
        floors = [min(CutFamily(skeleton, (j,)).capacities(w)[0]) for j in range(2, levels + 2)]
        rs = []
        prev = 1
        for mc in floors:
            r = rng.randint(prev, max(prev, ceiling(mc)))
            rs.append(r)
            prev = r
        return replace(skeleton, requirements=KWay(tuple(rs)))

    chosen_pairs = []
    seen = set()
    while len(chosen_pairs) < pairs:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t or (min(s, t), max(s, t)) in seen:
            continue
        seen.add((min(s, t), max(s, t)))
        flow = max_flow(skeleton, w, s, t).value
        chosen_pairs.append((s, t, rng.randint(1, ceiling(flow))))
    return replace(skeleton, requirements=Pairs(tuple(chosen_pairs)))
