"""Multigraph model with exact arithmetic plus flow and cut primitives.

Vertices are 0..n-1.  Parallel edges are allowed, self-loops are not.
Capacities are positive integers, costs nonnegative rationals.  An
instance carries one of three requirement shapes:

  * Uniform(R): the global min cut of the bought subgraph must be >= R;
  * KWay(R_1 <= ... <= R_{k-1}): every (i+1)-way cut must have capacity
    >= R_i;
  * Pairs((s, t, R), ...): each listed pair needs an s-t flow of R.

Directed instances are accepted only with Pairs requirements; the other
two shapes are cut conditions on undirected graphs.

Flow and cut queries take a weighting, a plain tuple (any sequence
indexed by edge) of per-edge weights, so the same topology can be
evaluated under capacities, scaled capacities, copy counts, or a subset
restriction without rebuilding anything.  All values stay exact: integer
weightings give integer flows, rational weightings give rational flows.

Every exhaustive cut scan in the package filters one CutFamily: the
canonical bipartitions or partitions of an instance, each with its
crossing edges and the demand the requirements put on it.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapabilityError, InstanceFormatError
from .util import format_rational, iter_partitions, over_common_denominator


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    capacity: int
    cost: Fraction


@dataclass(frozen=True)
class Uniform:
    R: int


@dataclass(frozen=True)
class KWay:
    # R_1..R_{k-1}, nondecreasing; entry i-1 bounds every (i+1)-way cut
    Rs: tuple


@dataclass(frozen=True)
class Pairs:
    pairs: tuple  # of (source, sink, demand)


@dataclass(frozen=True)
class Instance:
    n: int
    edges: tuple
    requirements: object
    directed: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise InstanceFormatError("n", "need at least one vertex")
        coerced = []
        for i, e in enumerate(self.edges):
            if not isinstance(e, Edge):
                tail, head, cap, cost = e
                e = Edge(tail, head, cap, Fraction(cost))
            _validate_edge(i, e, self.n)
            coerced.append(e)
        object.__setattr__(self, "edges", tuple(coerced))
        _validate_requirements(self.requirements, self.n, self.directed)

    @property
    def m(self):
        return len(self.edges)

    def total_cost(self, edge_subset):
        return sum((self.edges[e].cost for e in edge_subset), Fraction(0))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is not 1


def _validate_edge(i, e, n):
    for fld, v in (("tail", e.tail), ("head", e.head)):
        if not _is_int(v) or not 0 <= v < n:
            raise InstanceFormatError(f"edges[{i}].{fld}", f"vertex {v!r} out of range")
    if e.tail == e.head:
        raise InstanceFormatError(f"edges[{i}]", "self-loops are not allowed")
    if not _is_int(e.capacity) or e.capacity < 1:
        raise InstanceFormatError(f"edges[{i}].capacity", "capacity must be a positive integer")
    if e.cost < 0:
        raise InstanceFormatError(f"edges[{i}].cost", "cost must be nonnegative")


def _validate_requirements(req, n, directed):
    if isinstance(req, Uniform):
        if not _is_int(req.R) or req.R < 0:
            raise InstanceFormatError("requirements.R", "R must be a nonnegative integer")
        if directed:
            raise InstanceFormatError("directed", "uniform requirements need an undirected graph")
    elif isinstance(req, KWay):
        rs = tuple(req.Rs)
        object.__setattr__(req, "Rs", rs)
        if not rs:
            raise InstanceFormatError("requirements.Rs", "need at least one bound")
        if len(rs) + 1 > n:
            raise InstanceFormatError("requirements.Rs", "more cut levels than vertices")
        for i, r in enumerate(rs):
            if not _is_int(r) or r < 1:
                raise InstanceFormatError(f"requirements.Rs[{i}]", "bounds must be positive integers")
            if i and r < rs[i - 1]:
                raise InstanceFormatError(f"requirements.Rs[{i}]", "bounds must be nondecreasing")
        if directed:
            raise InstanceFormatError("directed", "k-way requirements need an undirected graph")
    elif isinstance(req, Pairs):
        pairs = tuple(tuple(p) for p in req.pairs)
        object.__setattr__(req, "pairs", pairs)
        for i, (s, t, r) in enumerate(pairs):
            if not (_is_int(s) and 0 <= s < n):
                raise InstanceFormatError(f"requirements.pairs[{i}][0]", f"vertex {s!r} out of range")
            if not (_is_int(t) and 0 <= t < n):
                raise InstanceFormatError(f"requirements.pairs[{i}][1]", f"vertex {t!r} out of range")
            if s == t:
                raise InstanceFormatError(f"requirements.pairs[{i}]", "source and sink must differ")
            if not _is_int(r) or r < 0:
                raise InstanceFormatError(f"requirements.pairs[{i}][2]", "demand must be a nonnegative integer")
    else:
        raise InstanceFormatError("requirements", f"unknown requirement type {type(req).__name__}")


# ---------------------------------------------------------------------------
# weightings

def capacity_weighting(instance):
    return tuple(e.capacity for e in instance.edges)


def subset_weighting(instance, edge_subset):
    """Capacity on the chosen edges, zero elsewhere."""
    chosen = set(edge_subset)
    for e in chosen:
        if not 0 <= e < instance.m:
            raise ValueError(f"edge index {e} out of range")
    return tuple(e.capacity if i in chosen else 0 for i, e in enumerate(instance.edges))


# ---------------------------------------------------------------------------
# cuts

@dataclass(frozen=True)
class Cut:
    """A vertex cut, stored by one side.

    Undirected cuts are canonical: `side` excludes vertex 0, so each
    bipartition has a single representative.  For directed instances the
    side is kept as given (it is the source side) and `crossing` holds the
    arcs leaving it.
    """

    side: frozenset
    crossing: tuple
    capacity: object
    directed: bool = False

    def separates(self, s, t):
        return (s in self.side) != (t in self.side)


def cut_from_side(instance, weighting, side):
    side = frozenset(side)
    if not 0 < len(side) < instance.n:
        raise ValueError("cut side must be a nonempty proper vertex subset")
    directed = instance.directed
    if not directed and 0 in side:
        side = frozenset(range(instance.n)) - side
    crossing = tuple(
        i for i, e in enumerate(instance.edges)
        if (e.tail in side) != (e.head in side) and (not directed or e.tail in side)
    )
    cap = sum(weighting[e] for e in crossing)
    return Cut(side, crossing, cap, directed)


@dataclass(frozen=True)
class KWayCut:
    """A partition of the vertices into >= 2 parts with its crossing edges.

    Parts are frozensets ordered by smallest member, which makes equal
    partitions compare equal.
    """

    parts: tuple
    crossing: tuple
    capacity: object

    @property
    def way(self):
        return len(self.parts)


# ---------------------------------------------------------------------------
# the exhaustive cut family

EXHAUSTIVE_LIMIT = 16  # bipartitions
KWAY_LIMIT = 10        # partitions, and every cut of a k-way requirement


def _blocks_requirement(req, blocks):
    # What uniform or k-way requirements ask of every cut into `blocks` blocks.
    if isinstance(req, Uniform):
        return req.R
    level = blocks - 2
    return req.Rs[level] if level < len(req.Rs) else 0


_NONZERO = bytes([0]) + bytes([1]) * 255  # translate table: byte b -> (b != 0)


# Bounded: the benchmark and a test run meet a handful of keys, and a
# table holds every row's shape and rank (about 4 MB at n = 16).
@functools.lru_cache(maxsize=8)
def _shape_table(n, sizes, directed):
    """(shapes, blocks, rank, columns) shared by every CutFamily of this
    key: the row shapes, (block count, rows) per level, the rows' `rank`
    and each vertex's column, byte i holding its block in row i."""
    if directed:
        shapes = [bytes(mask >> v & 1 for v in range(n)) for mask in range(1, (1 << n) - 1)]
        blocks = ((2, len(shapes)),)
    else:
        levels = [(p, [bytes(a) for a in iter_partitions(n, p)]) for p in sizes or (2,)]
        shapes = [a for _, level in levels for a in level]
        blocks = tuple((p, len(level)) for p, level in levels)
    # A part as bytes, 1 at its vertices and 2 elsewhere with the trailing
    # 2s stripped, sorts like its ascending vertex tuple; a 0 byte closes
    # each part, so a shorter part sorts first.
    tables = [bytes(1 if b == k else 2 for b in range(256)) for k in range(n)]
    if sizes is not None:
        keys = [b"\0".join([a.translate(t).rstrip(b"\2") for t in tables[: max(a) + 1]])
                for a in shapes]
    else:
        keys = [a.translate(tables[1]).rstrip(b"\2") for a in shapes]
    rank = [0] * len(keys)
    for position, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        rank[i] = position
    blob = b"".join(shapes)
    return tuple(shapes), blocks, tuple(rank), tuple(blob[u::n] for u in range(n))


class CutFamily:
    """Every canonical cut of an instance, enumerated once.

    Row i is `shapes[i]` (a vertex -> block assignment, one byte per
    vertex; block 1 is a directed cut's source side), `edges_of(i)` (the
    ascending indices of the edges it cuts) and `requirement[i]`: R, the
    bound of its block count (none past the last level), or the largest
    demand whose pair it separates.  With `sizes` None the rows are the
    canonical bipartitions, vertex 0 outside the side, and n <= 16; a
    directed instance has one row per source side instead.  With `sizes`
    the rows are the partitions into each listed block count, in
    `iter_partitions` order, and n <= 10.  `rank[i]` is row i's position
    when the rows are sorted by the parts (or side) of their KWayCut (or
    Cut), as ascending vertex tuples.  Scans filter the rows by their
    `capacities` and build cuts only for the rows they keep.

    `shapes` and `rank` come from a bounded cache shared by every family
    with the same n, block counts and `directed`.  Each edge's crossing
    lane over the rows comes from the byte columns of its two ends.
    `keys` lists each distinct crossing once, as m bytes with byte e 1
    when it cuts edge e, and `slot[i]` is row i's crossing in that list.
    Edge tuples are built only when read: `edges_of` builds one, of a
    row or of a distinct crossing.  `groups` lists each (crossing,
    requirement) pair once.  Work that depends on the crossing alone runs
    once per distinct crossing: `lanes[e]` has a byte per distinct
    crossing, 1 where it cuts edge e, and `crossing_sums` sums a
    weighting over each distinct crossing, which `capacities` reads per
    row through `slot`.
    """

    def __init__(self, instance, sizes=None):
        n, m, directed = instance.n, instance.m, instance.directed
        self.kway = sizes is not None
        limit = KWAY_LIMIT if self.kway else EXHAUSTIVE_LIMIT
        if n > limit:
            raise CapabilityError(f"cuts are enumerated exhaustively; capped at n = {limit}, got {n}")
        self.instance = instance
        self.shapes, blocks, self.rank, columns = _shape_table(
            n, None if sizes is None else tuple(sizes), directed)
        rows = len(self.shapes)
        if directed:  # an arc crosses from the source side (block 1) out
            def lane(u, v):
                return bytes(map(operator.gt, columns[u], columns[v]))
        else:
            ints = [int.from_bytes(c, "little") for c in columns]

            def lane(u, v):
                return (ints[u] ^ ints[v]).to_bytes(rows, "little").translate(_NONZERO)
        # Byte e of row i's key is 1 when the row cuts edge e.
        joined = b"".join([lane(e.tail, e.head) for e in instance.edges])
        index = {}
        self.slot = [index.setdefault(joined[i::rows], len(index)) for i in range(rows)]
        self.keys = tuple(index)
        # Edge e's lane over the distinct crossings: one byte each in
        # lanes[e], one 64-bit field each in _packed[e].
        keys, field = b"".join(index), bytearray(8 * len(index))
        self.lanes = tuple(keys[e::m] for e in range(m))
        self._packed = []
        for bits in self.lanes:
            field[::8] = bits
            self._packed.append(int.from_bytes(field, "little"))
        req = instance.requirements
        if isinstance(req, Pairs):
            need = [0] * rows
            for s, t, r in sorted(req.pairs, key=operator.itemgetter(2)):  # the largest last
                for i in itertools.compress(range(rows), lane(s, t)):
                    need[i] = r
            self.requirement = tuple(need)
        else:  # one demand per block count
            self.requirement = tuple(itertools.chain.from_iterable(
                [_blocks_requirement(req, p)] * count for p, count in blocks))

    def crossing_sums(self, nums):
        """sums[s]: the sum of the integers nums[e] over the edges of
        distinct crossing s; `slot` maps them to the rows."""
        if len(nums) != len(self._packed):
            raise ValueError("the weighting must give every edge a weight")
        if min(nums, default=0) >= 0 and sum(nums) < 1 << 64:  # every sum fits its field
            packed = sum(map(operator.mul, nums, self._packed))
            sums = array("Q", packed.to_bytes(8 * len(self.keys), "little"))
            if sys.byteorder == "big":
                sums.byteswap()
            return sums.tolist()
        return [sum(itertools.compress(nums, key)) for key in self.keys]

    def capacities(self, weighting):
        """(sums, den): row i's exact capacity under `weighting` is
        sums[i] / den, summed over integer numerators with one common
        denominator den (1 for an integer weighting)."""
        nums, den = over_common_denominator(weighting)
        return list(map(self.crossing_sums(nums).__getitem__, self.slot)), den

    def edges_of(self, i, distinct=False):
        """The ascending indices of the edges row i cuts, or with
        `distinct` those of distinct crossing i; built on each call."""
        key = self.keys[i if distinct else self.slot[i]]
        return tuple(itertools.compress(range(self.instance.m), key))

    @functools.cached_property
    def groups(self):
        """The rows grouped by crossing and requirement: one
        (slot, requirement, rows) per distinct pair, in the order of its
        first row, with `rows` ascending.  Built on first use."""
        index = {}
        for i, key in enumerate(zip(self.slot, self.requirement)):
            index.setdefault(key, []).append(i)
        return [(s, need, rows) for (s, need), rows in index.items()]

    def cut(self, i, capacity):
        """Row i as a KWayCut (partition rows) or a Cut, with the
        capacity the caller measured for it."""
        shape = self.shapes[i]
        if self.kway:  # block k's least vertex grows with k, as KWayCut orders parts
            parts = tuple(
                frozenset(v for v, b in enumerate(shape) if b == k) for k in range(max(shape) + 1)
            )
            return KWayCut(parts, self.edges_of(i), capacity)
        side = frozenset(v for v, b in enumerate(shape) if b)
        return Cut(side, self.edges_of(i), capacity, self.instance.directed)


# One entry on purpose: the solve, rounding, verification and the oracle
# of one instance share its family, and only one family is alive at a
# time, which bounds memory when many instances are processed in turn.
@functools.lru_cache(maxsize=1)
def cut_family(instance):
    """The family of the cuts `instance.requirements` constrain: every
    level's partitions for k-way requirements, else the bipartitions.
    Equal instances share one family while it is the latest built."""
    req = instance.requirements
    return CutFamily(instance, range(2, len(req.Rs) + 2) if isinstance(req, KWay) else None)


# ---------------------------------------------------------------------------
# maximum flow

@dataclass(frozen=True)
class FlowResult:
    value: object
    exact: bool            # False when the run stopped early at `cutoff`
    source_side: object    # residual-reachable vertices; min cut side iff exact


def max_flow(instance, weighting, source, sink, cutoff=None):
    """Exact max flow from `source` to `sink` under `weighting`.

    Undirected edges may carry flow either way up to their weight.  With
    `cutoff` the search stops as soon as the value reaches it; the result
    is then a lower bound and is flagged inexact.  An unreachable sink is
    a legitimate zero flow, not an error.  Each pass starts with one
    breadth-first search of the residual graph; `source_side` is what the
    last one reached.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    n = instance.n
    adj = [[] for _ in range(n)]
    arcs = []  # [head, residual]; arc i^1 is the reverse of arc i

    def add_arc(u, v, cap):
        adj[u].append(len(arcs))
        arcs.append([v, cap])
        adj[v].append(len(arcs))
        arcs.append([u, 0])

    for i, e in enumerate(instance.edges):
        w = weighting[i]
        if w < 0:
            raise ValueError(f"negative weight on edge {i}")
        add_arc(e.tail, e.head, w)
        if not instance.directed:
            add_arc(e.head, e.tail, w)

    value = 0
    while True:
        parent = [-1] * n
        parent[source] = -2
        queue = [source]
        for u in queue:
            for a in adj[u]:
                v = arcs[a][0]
                if parent[v] == -1 and arcs[a][1] > 0:
                    parent[v] = a
                    queue.append(v)
        if parent[sink] == -1 or (cutoff is not None and value >= cutoff):
            break
        bottleneck = None
        v = sink
        while v != source:
            a = parent[v]
            r = arcs[a][1]
            if bottleneck is None or r < bottleneck:
                bottleneck = r
            v = arcs[a ^ 1][0]
        if cutoff is not None and value + bottleneck > cutoff:
            bottleneck = cutoff - value
        v = sink
        while v != source:
            a = parent[v]
            arcs[a][1] -= bottleneck
            arcs[a ^ 1][1] += bottleneck
            v = arcs[a ^ 1][0]
        value += bottleneck
    return FlowResult(value, parent[sink] == -1, frozenset(queue))


# ---------------------------------------------------------------------------
# feasibility

@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: object = None     # Cut or KWayCut violating its requirement
    pair_index: object = None  # which pair failed, for Pairs requirements


def check_feasible(instance, edge_subset):
    """Does buying `edge_subset` meet the instance requirements?

    Always exact.  Uniform and Pairs checks reduce to max flows and work
    at any size.  KWay scans the requirement's cut family, so it raises
    CapabilityError past n = 10; its witness is the first violated
    partition, level by level in `iter_partitions` order.
    """
    w = subset_weighting(instance, edge_subset)
    req = instance.requirements

    if isinstance(req, Uniform):
        if req.R == 0:
            return FeasibilityResult(True)
        for v in range(1, instance.n):
            res = max_flow(instance, w, 0, v, cutoff=req.R)
            if res.value < req.R:
                return FeasibilityResult(False, cut_from_side(instance, w, res.source_side))
        return FeasibilityResult(True)

    if isinstance(req, Pairs):
        for idx, (s, t, r) in enumerate(req.pairs):
            if r == 0:
                continue
            res = max_flow(instance, w, s, t, cutoff=r)
            if res.value < r:
                witness = cut_from_side(instance, w, res.source_side)
                return FeasibilityResult(False, witness, pair_index=idx)
        return FeasibilityResult(True)

    if isinstance(req, KWay):
        family = cut_family(instance)
        for i, (cap, need) in enumerate(zip(family.capacities(w)[0], family.requirement)):
            if cap < need:
                return FeasibilityResult(False, family.cut(i, cap))
        return FeasibilityResult(True)

    raise TypeError(f"unknown requirement type {type(req).__name__}")


# ---------------------------------------------------------------------------
# serialization

def instance_to_dict(instance):
    req = instance.requirements
    if isinstance(req, Uniform):
        rd = {"kind": "uniform", "R": req.R}
    elif isinstance(req, KWay):
        rd = {"kind": "kway", "Rs": list(req.Rs)}
    else:
        rd = {"kind": "pairs", "pairs": [list(p) for p in req.pairs]}
    return {
        "n": instance.n,
        "directed": instance.directed,
        "edges": [
            [e.tail, e.head, e.capacity, e.cost.numerator, e.cost.denominator]
            for e in instance.edges
        ],
        "requirements": rd,
    }


def serialize_instance(instance) -> str:
    """Canonical JSON text; equal instances serialize to identical bytes."""
    return json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":")) + "\n"


def _expect(container, key, kinds, where):
    if key not in container:
        raise InstanceFormatError(where, "missing")
    value = container[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise InstanceFormatError(where, f"expected {kinds}, got {type(value).__name__}")
    return value


def instance_from_dict(data):
    if not isinstance(data, dict):
        raise InstanceFormatError("<root>", "expected a JSON object")
    n = _expect(data, "n", int, "n")
    directed = data.get("directed", False)
    if not isinstance(directed, bool):
        raise InstanceFormatError("directed", "expected a boolean")
    raw_edges = _expect(data, "edges", list, "edges")
    edges = []
    for i, row in enumerate(raw_edges):
        if not isinstance(row, list) or len(row) != 5:
            raise InstanceFormatError(f"edges[{i}]", "expected [tail, head, capacity, cost_num, cost_den]")
        for j, v in enumerate(row):
            if not _is_int(v):
                raise InstanceFormatError(f"edges[{i}][{j}]", "expected an integer")
        tail, head, cap, num, den = row
        if den <= 0:
            raise InstanceFormatError(f"edges[{i}][4]", "cost denominator must be positive")
        edges.append(Edge(tail, head, cap, Fraction(num, den)))
    rd = _expect(data, "requirements", dict, "requirements")
    kind = _expect(rd, "kind", str, "requirements.kind")
    if kind == "uniform":
        req = Uniform(_expect(rd, "R", int, "requirements.R"))
    elif kind == "kway":
        rs = _expect(rd, "Rs", list, "requirements.Rs")
        req = KWay(tuple(rs))
    elif kind == "pairs":
        rows = _expect(rd, "pairs", list, "requirements.pairs")
        pairs = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 3:
                raise InstanceFormatError(f"requirements.pairs[{i}]", "expected [source, sink, demand]")
            pairs.append(tuple(row))
        req = Pairs(tuple(pairs))
    else:
        raise InstanceFormatError("requirements.kind", f"unknown kind {kind!r}")
    return Instance(n, tuple(edges), req, directed)


def parse_instance(text) -> Instance:
    if isinstance(text, bytes):
        text = text.decode()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError("<json>", str(exc)) from exc
    return instance_from_dict(data)


def describe_cut(cut):
    if isinstance(cut, KWayCut):
        return {"parts": [sorted(p) for p in cut.parts], "capacity": format_rational(cut.capacity)}
    return {"side": sorted(cut.side), "capacity": format_rational(cut.capacity)}
