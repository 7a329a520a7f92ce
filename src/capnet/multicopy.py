"""Forest algorithm for the variant where edges may be bought in copies.

Pairs are processed in nonincreasing demand order while a forest F of
bought edges grows.  In iteration i the edge length is

    len_i(e) = 0                         for e already in F,
    len_i(e) = c(e) * (1 + R_i / u(e))   otherwise,

which is enough to pay for ceil(R_i / u(e)) copies of e.  The pair is
joined by a shortest path under len_i, and in addition each existing
forest component X with d_i(endpoint, X) <= 2^min(class(i), class(X))
is connected to the pair, where class(i) = floor(log2 ell_i) and
class(X) is the largest class of a pair registered in X.  The extra
connections are what later pairs exploit; their cost is charged to
component leaders so that the realized cost never exceeds 9 * sum ell_i
(checked on every run; a failure raises InvariantError).

Each forest component is keyed by its least vertex, which is also its
union-find root.  Charging bookkeeping, per merge: connecting across
distance d with h = floor(log2 d) charges the path to X's h-leader when
one is set, otherwise to X's leader (a registered pair of maximal
class), and the connecting pair becomes the h-leader of the merged
component.

Semantics pinned down where the pseudocode is loose:

  * distances are fixed once per iteration; the connection loops run
    over the components existing at loop entry and skip any that have
    merged with the pair's component by the time they come up;
  * components holding no classed pair (isolated vertices, or pairs
    joined at distance 0) are never connection targets;
  * a connection at distance 0 merges for free, with no charge and no
    h-leader update, since there is nothing to pay for;
  * a pair with ell_i = 0 still gets its (zero-length) path added but
    has no class and triggers no connections;
  * path edges whose endpoints are already in one component are
    dropped, keeping F a forest; feasibility survives because every
    forest edge was bought for a demand at least as large.

Pairs with zero demand are ignored throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush

from .errors import InfeasibleError, invariant
from .graphs import Pairs, max_flow
from .util import ceil_div, floor_log2, format_rational, pow2

_INF = float("inf")


# ---------------------------------------------------------------------------
# forest state

@dataclass
class ComponentInfo:
    members: set
    cls: object = None  # int once a classed pair registers
    leader: object = None  # pair position holding the maximal class
    h_leaders: dict = field(default_factory=dict)


class ForestState:
    """Disjoint-set over vertices with per-component charging metadata.

    A union keeps the root with the smaller least vertex, so every root
    is its component's least vertex and `info` is keyed by it; runs do
    not depend on union internals.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.info = {v: ComponentInfo({v}) for v in range(n)}

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        """Merge in place into the least root; False if a, b were one.
        The higher class wins, a tie and the h-leaders keep the winner's."""
        ra, rb = sorted((self.find(a), self.find(b)))
        if ra == rb:
            return False
        self.parent[rb] = ra
        win, lose = self.info[ra], self.info.pop(rb)
        win.members |= lose.members
        if lose.cls is not None and (win.cls is None or lose.cls > win.cls):
            win.cls, win.leader = lose.cls, lose.leader
        win.h_leaders = {**lose.h_leaders, **win.h_leaders}
        return True


# ---------------------------------------------------------------------------
# records

@dataclass(frozen=True)
class ChargeRecord:
    iteration: int  # position in processing order
    endpoint: str  # "s" or "t"
    component: tuple  # members of the component connected, sorted
    distance: Fraction
    h: object  # floor(log2 distance), None for a free merge
    target: object  # pair position charged, None for a free merge
    role: str  # "h-leader", "leader", or "free"


@dataclass(frozen=True)
class IterationRecord:
    position: int  # processing order, 0-based
    pair_index: int  # index into instance.requirements.pairs
    s: int
    t: int
    demand: int
    ell: Fraction
    cls: object
    direct_edges: tuple  # edges newly added by the s-t path
    dropped_edges: tuple  # path edges skipped as cycle-closing
    connections: tuple  # ChargeRecords
    connection_edges: tuple  # edges newly added by the connection paths
    copies_bought: tuple  # (edge, count) for this iteration


@dataclass(frozen=True)
class MultiCopySolution:
    instance: object
    order: tuple  # pair indices in processing order
    copies: tuple  # per-edge copy counts
    forest: tuple  # edge indices with a bought copy
    iterations: tuple
    cost: Fraction
    ell_total: Fraction

    @property
    def charge_bound(self):
        return 9 * self.ell_total

    def to_json(self):
        return json.dumps(
            {
                "schema": "capnet.multicopy.v1",
                "order": list(self.order),
                "copies": list(self.copies),
                "forest": list(self.forest),
                "cost": format_rational(self.cost),
                "ell_total": format_rational(self.ell_total),
                "charge_bound": format_rational(self.charge_bound),
                "iterations": [
                    {
                        "position": it.position,
                        "pair": it.pair_index,
                        "s": it.s,
                        "t": it.t,
                        "demand": it.demand,
                        "ell": format_rational(it.ell),
                        "class": it.cls,
                        "direct_edges": list(it.direct_edges),
                        "dropped_edges": list(it.dropped_edges),
                        "connection_edges": list(it.connection_edges),
                        "copies": [[e, c] for e, c in it.copies_bought],
                        "connections": [
                            {
                                "endpoint": c.endpoint,
                                "component": list(c.component),
                                "distance": format_rational(c.distance),
                                "h": c.h,
                                "target": c.target,
                                "role": c.role,
                            }
                            for c in it.connections
                        ],
                    }
                    for it in self.iterations
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )


# ---------------------------------------------------------------------------
# shortest paths

def _pair_graph(instance, name):
    """Adjacency lists (edge index, other end) of an undirected instance
    with pair requirements; `name` words the ValueError otherwise."""
    if not isinstance(instance.requirements, Pairs):
        raise ValueError(f"{name} expects pair requirements")
    if instance.directed:
        raise ValueError(f"{name} works on undirected instances")
    adjacency = [[] for _ in range(instance.n)]
    for i, e in enumerate(instance.edges):
        adjacency[e.tail].append((i, e.head))
        adjacency[e.head].append((i, e.tail))
    return adjacency


def _dijkstra(n, adjacency, lengths, source):
    dist = [_INF] * n
    pred = [None] * n  # (previous vertex, edge index)
    dist[source] = Fraction(0)
    heap = [(Fraction(0), source)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        for e, w in adjacency[v]:
            nd = d + lengths[e]
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = (v, e)
                heappush(heap, (nd, w))
    return dist, pred


def _walk_back(pred, source, v):
    edges = []
    while v != source:
        v, e = pred[v]
        edges.append(e)
    edges.reverse()
    return edges


# ---------------------------------------------------------------------------
# the algorithm

def run(instance):
    """Process all positive-demand pairs; returns a MultiCopySolution.

    Deterministic.  Raises InfeasibleError if some pair's endpoints are
    not connected in the underlying graph.  The 9 * sum(ell) cost bound
    and per-pair feasibility of the bought copies are checked before
    returning (InvariantError).
    """
    adjacency = _pair_graph(instance, "the forest algorithm")
    pairs = instance.requirements.pairs
    order = sorted(
        (j for j in range(len(pairs)) if pairs[j][2] > 0),
        key=lambda j: -pairs[j][2],
    )

    state = ForestState(instance.n)
    forest = set()
    copies = [0] * instance.m
    iterations = []
    ell_total = Fraction(0)

    def add_path(edges, new, dropped):
        for e in edges:
            if state.union(instance.edges[e].tail, instance.edges[e].head):
                forest.add(e)
                new.append(e)
            elif e not in forest:
                dropped.append(e)

    for position, j in enumerate(order):
        s, t, demand = pairs[j]
        lengths = [
            Fraction(0) if i in forest else e.cost * (1 + Fraction(demand, e.capacity))
            for i, e in enumerate(instance.edges)
        ]
        dist_s, pred_s = _dijkstra(instance.n, adjacency, lengths, s)
        if dist_s[t] is _INF:
            raise InfeasibleError(f"pair {j} is disconnected", (s, t))
        dist_t, pred_t = _dijkstra(instance.n, adjacency, lengths, t)
        ell = dist_s[t]
        ell_total += ell

        new_direct, dropped = [], []
        add_path(_walk_back(pred_s, s, t), new_direct, dropped)

        cls = None
        connections = []
        new_conn = []
        if ell > 0:
            cls = floor_log2(ell)
            for endpoint, label, dist, pred in ((s, "s", dist_s, pred_s), (t, "t", dist_t, pred_t)):
                # Unions below merge into the endpoint's component, so an
                # entry they absorbed or changed fails the find test.
                for root, info in sorted(state.info.items()):
                    if info.cls is None or state.find(root) == state.find(endpoint):
                        continue
                    best_v = min(info.members, key=lambda v: (dist[v], v))
                    best = dist[best_v]
                    if best > pow2(min(cls, info.cls)):
                        continue
                    if best > 0:
                        h = floor_log2(best)
                        target = info.h_leaders.get(h, info.leader)
                        role = "h-leader" if h in info.h_leaders else "leader"
                    else:
                        h, target, role = None, None, "free"
                    connections.append(
                        ChargeRecord(
                            position, label, tuple(sorted(info.members)),
                            best, h, target, role,
                        )
                    )
                    add_path(_walk_back(pred, endpoint, best_v), new_conn, dropped)
                    if h is not None:
                        state.info[state.find(endpoint)].h_leaders[h] = position

        bought = [(e, ceil_div(demand, instance.edges[e].capacity))
                  for e in sorted(new_direct + new_conn)]
        for e, count in bought:
            copies[e] = count
        home = state.info[state.find(s)]
        if cls is not None and (home.cls is None or cls > home.cls):
            home.cls, home.leader = cls, position

        iterations.append(
            IterationRecord(
                position, j, s, t, demand, ell, cls,
                tuple(new_direct), tuple(dropped), tuple(connections),
                tuple(new_conn), tuple(bought),
            )
        )

    cost = sum((e.cost * c for e, c in zip(instance.edges, copies)), Fraction(0))
    invariant(cost <= 9 * ell_total, "charging bound failed; this is a bug")
    capacity = tuple(copies[e] * instance.edges[e].capacity for e in range(instance.m))
    for j in order:
        s, t, demand = pairs[j]
        flow = max_flow(instance, capacity, s, t, cutoff=demand)
        invariant(flow.value >= demand, f"pair {j} left infeasible; this is a bug")

    return MultiCopySolution(
        instance, tuple(order), tuple(copies), tuple(sorted(forest)),
        tuple(iterations), cost, ell_total,
    )


# ---------------------------------------------------------------------------
# baseline

@dataclass(frozen=True)
class BaselineSolution:
    instance: object
    copies: tuple
    cost: Fraction
    paths: tuple  # (pair index, path edges, path cost)


def baseline_independent_pairs(instance):
    """Buy each pair its own cheapest path, ignoring all other pairs.

    Copies accumulate across pairs; the reported cost is the literal sum
    of the per-pair purchases, the natural no-sharing strawman.
    """
    adjacency = _pair_graph(instance, "the baseline")
    pairs = instance.requirements.pairs
    copies = [0] * instance.m
    cost = Fraction(0)
    paths = []
    for j, (s, t, demand) in enumerate(pairs):
        if demand == 0:
            continue
        lengths = [
            ceil_div(demand, e.capacity) * e.cost for e in instance.edges
        ]
        dist, pred = _dijkstra(instance.n, adjacency, lengths, s)
        if dist[t] is _INF:
            raise InfeasibleError(f"pair {j} is disconnected", (s, t))
        path = _walk_back(pred, s, t)
        for e in path:
            copies[e] += ceil_div(demand, instance.edges[e].capacity)
        cost += dist[t]
        paths.append((j, tuple(path), dist[t]))
    return BaselineSolution(instance, tuple(copies), cost, tuple(paths))
