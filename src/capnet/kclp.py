"""Cut LP with knapsack-cover strengthening, solved by cutting planes.

The fractional relaxation we want is the cut-covering LP augmented with
knapsack-cover inequalities: for a cut S with requirement R(S) and any
edge set A, the edges of S outside A must cover the requirement left
after A is taken for granted,

    sum over e in cross(S) minus A of  min(u(e), R(S, A)) * x_e  >=  R(S, A)
    with  R(S, A) = max(0, R(S) - u(A intersect cross(S))).

These inequalities hold for every feasible integral selection, so any
subset of them prices below the integral optimum.  Rather than running a
separation-oracle ellipsoid method, solve_good keeps an explicit, growing
constraint pool and alternates exact LP solves with separation rounds:

  1. restore the plain cut condition under uhat(e) = u(e) * x_e;
  2. look for violated knapsack-cover inequalities over the small cuts
     (capacity at most twice the requirement under uhat).

Both steps are one scan (_violations) over the rows of the instance's
exhaustive cut family (graphs.cut_family), which the later stages read
too.  The scan runs on Python integers: each round writes x over D, the
lcm of its denominators, once, and every crossing capacity and cover-row
slack is then an integer D times its value.  As D > 0 this keeps every
sign and every order of slacks, so the pool, its order and the LP
vertices are those of an exact rational scan.  A violated row stays a
family row index until it enters the pool; only then are its cover
terms built, and its Cut or KWayCut only when the certificate is
written.  Fractions appear only there and in the certificate slacks,
each its integer slack over D.  A plain row whose crossing holds the
crossing of an earlier plain row of its batch and demand is implied by
it, and the simplex does not pack it (simplex.RowStore).  No row of an
earlier round can imply one: x meets every pool row, and a row an
earlier one implies has at least its slack, so it would not be violated.

For step 2 each cut is tested against a nested family of candidate A
sets: the prefixes of its crossing edges ordered by decreasing x, cut
only between distinct x values.  The nearly-integral set is among them,
as {e : x_e >= t} on the crossing is such a prefix or empty.  Rows that
share their crossing edges and demand get the same tests, so the scan
tests each distinct pair (CutFamily.groups) once per round and reports
pairs, which _first_batch expands to rows for the round's batch.  The
loop stops when nothing is violated, which certifies the two exit
conditions the rounding step relies on: the scaled capacities cover
every requirement, and knapsack-cover holds on every small cut for the
nearly-integral edge set.

An edge counts as nearly integral when x_e >= 1 / (40 lg n) for the
uniform variant, 1 / (40 k lg n) for the k-way variant, and
1 / (40 gamma lg n) for the near-uniform variant (lg is the fixed-point
base-2 log from util, so thresholds are rational and reproducible).
variant_for derives that scale, its threshold and the small-cut bound
from the instance once, as one VariantRecord.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

from .errors import CapabilityError, InfeasibleError, invariant
from .graphs import (
    KWay,
    Pairs,
    Uniform,
    check_feasible,
    cut_family,
    describe_cut,
)
from .simplex import RowStore, solve_box_covering_lp
from .util import format_rational, log2_fixed, over_common_denominator

SEPARATION_BATCH = 40


# ---------------------------------------------------------------------------
# the variant

@dataclass(frozen=True)
class VariantRecord:
    """What the requirement shape decides for the LP and its rounding.

    `kind` is the CLI algorithm name.  Rounding keeps a highly fractional
    edge with probability scale * x, and `threshold` = 1 / scale marks
    the nearly-integral edges.  A row is small, and so tested for
    violated cover rows, when its capacity under uhat is at most
    `small_bound`, or at most twice its demand when `small_bound` is
    None.  `doc` is the certificate's "variant" entry.
    """

    kind: str
    scale: Fraction
    small_bound: object
    doc: dict = field(hash=False)  # a dict; the other fields hash the record

    @property
    def threshold(self):
        return 1 / self.scale

    def small(self, capacity, need, den=1):
        """Is a row of capacity capacity / den and demand `need` small?"""
        if self.small_bound is None:
            return capacity <= 2 * need * den
        bound = self.small_bound
        return capacity * bound.denominator <= bound.numerator * den


def variant_for(instance, gamma=None):
    """The variant of `instance`: scale 40 lg n (uniform), 40 k lg n
    (k-way) or 40 gamma lg n (near-uniform pairs), where `gamma` bounds
    the demand spread and defaults to it.  Raises ValueError for a
    `gamma` given with requirements other than pairs."""
    req = instance.requirements
    if gamma is not None and not isinstance(req, Pairs):
        raise ValueError("gamma bounds the demand spread of pair requirements only")
    scale = 40 * log2_fixed(instance.n)
    if isinstance(req, Uniform):
        return VariantRecord("uniform", scale, None, {"kind": "uniform", "R": req.R})
    if isinstance(req, KWay):
        k = len(req.Rs) + 1
        return VariantRecord("kway", k * scale, None, {"kind": "kway", "Rs": list(req.Rs)})
    demands = [r for (_, _, r) in req.pairs if r > 0]
    if not demands:
        gamma, base = Fraction(1), 0
    else:
        base = min(demands)
        spread = Fraction(max(demands), base)
        gamma = spread if gamma is None else Fraction(gamma)
        if gamma < spread:
            raise ValueError(f"gamma {gamma} below the demand spread {spread}")
    doc = {"kind": "near-uniform", "gamma": format_rational(gamma), "base": base}
    return VariantRecord("near-uniform", gamma * scale, 2 * gamma * base, doc)


# ---------------------------------------------------------------------------
# solutions and constraints

@dataclass(frozen=True)
class FractionalSolution:
    """x over the instance's edges with its nearly-integral threshold."""

    instance: object
    x: tuple
    threshold: Fraction

    def __post_init__(self):
        xs = tuple(Fraction(v) for v in self.x)
        if len(xs) != self.instance.m:
            raise ValueError("x must assign a value to every edge")
        if any(v < 0 or v > 1 for v in xs):
            raise ValueError("x entries must lie in [0, 1]")
        threshold = Fraction(self.threshold)
        if threshold <= 0:
            raise ValueError("the nearly-integral threshold must be positive")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "threshold", threshold)

    def cost(self):
        return sum(
            (e.cost * v for e, v in zip(self.instance.edges, self.x)), Fraction(0)
        )


@dataclass(frozen=True)
class KCConstraint:
    """One knapsack-cover row:  sum of coeff * x_e  >=  rhs.

    coefficients run over the cut's crossing edges outside edge_set and
    are capacities clamped at the residual, so rows stay valid for every
    feasible integral selection.  edge_set empty reproduces the plain cut
    constraint with capacities clamped at the full requirement.  The cut
    is `source`, (family, row, capacity): a CutFamily row with the
    capacity measured for it.  Only the certificate reads the cut, so
    describe() builds its Cut or KWayCut.
    """

    source: tuple
    edge_set: tuple
    requirement: int
    rhs: int
    coefficients: tuple  # of (edge index, coefficient)

    def evaluate(self, x):
        lhs = sum((c * x[e] for e, c in self.coefficients), Fraction(0))
        return lhs - self.rhs  # slack; negative means violated

    def dense(self, m):
        """The coefficients over all m edges, 0 off the row."""
        row = [0] * m
        for e, c in self.coefficients:
            row[e] = c
        return row

    def describe(self):
        family, i, capacity = self.source
        d = describe_cut(family.cut(i, capacity))
        d.update(
            {
                "edge_set": list(self.edge_set),
                "requirement": self.requirement,
                "rhs": self.rhs,
                "coefficients": [[e, c] for e, c in self.coefficients],
            }
        )
        return d


# ---------------------------------------------------------------------------
# separation

def _scaled(family, x):
    """(num, den, caps) for one round: x_e = num[e] / den with den the lcm
    of x's denominators, and caps[s] = den times the capacity of the
    family's distinct crossing s under uhat = u * x, all integers."""
    num, den = over_common_denominator(x)
    caps = family.crossing_sums([e.capacity * v for e, v in zip(family.instance.edges, num)])
    return num, den, caps


def _row_terms(family, i, edge_set, clamp=True):
    """(rhs, coefficients) of family row i's cover row with `edge_set`
    (a sorted tuple) taken as bought: the residual demand and, for each
    crossing edge outside `edge_set`, its capacity, clamped at the
    residual when `clamp`."""
    edges, inside, crossing = family.instance.edges, set(edge_set), family.edges_of(i)
    rest = [(e, edges[e].capacity) for e in crossing if e not in inside]
    covered = sum(edges[e].capacity for e in crossing if e in inside)
    rhs = max(0, family.requirement[i] - covered)
    return rhs, tuple((e, min(u, rhs) if clamp else u) for e, u in rest)


def _scaled_slack(rhs, coeffs, num, den):
    """den times the slack of the row coeffs.x >= rhs at x = num / den;
    negative means x violates it."""
    return sum([c * num[e] for e, c in coeffs]) - rhs * den


def _frozen(variant, num, den):
    """The nearly-integral edges: x_e = num[e] / den at or above the threshold."""
    t = variant.threshold
    return {e for e, v in enumerate(num) if v * t.denominator >= t.numerator * den}


def _cover_walk(key, need, u, num, den):
    """(slack, edge_set) of each violated cover row of a cut with demand
    `need` and the crossing `key` (a CutFamily key: byte e is 1 when the
    cut crosses edge e), at x = num / den and capacities u, slacks scaled
    by den as in _scaled_slack.  No edge tuple is built but the violated
    rows' edge sets.

    A runs over the prefixes of the crossing edges by decreasing x that
    end between distinct x values, the empty one first.  The walk keeps
    the capacity A covers and stops once it meets `need`: from there on
    the residual demand is 0, and so is every slack.  The whole crossing
    is no candidate: if it left demand, the row would be short at every
    x, and the walk runs only when no row is short.
    """
    # stable: ties stay ascending
    order = sorted(compress(range(len(key)), key), key=num.__getitem__, reverse=True)
    out = []
    covered = 0
    last = None
    for j, e in enumerate(order):
        if num[e] != last:  # order[:j] is a prefix
            last = num[e]
            rhs = need - covered
            if rhs <= 0:
                return out
            slack = sum([(u[f] if u[f] < rhs else rhs) * num[f] for f in order[j:]]) - rhs * den
            if slack < 0:
                out.append((slack, tuple(sorted(order[:j]))))
        covered += u[e]
    return out


def _violations(family, variant, num, den, caps, kc):
    """The violations at x = num / den (see _scaled) as (slack, group,
    edge_set) triples: every row of CutFamily.groups[group] violates its
    cover row with `edge_set` taken as bought, by `slack` scaled by den
    as in _scaled_slack.  In no promised order: _first_batch orders them
    and names their rows.

    First the groups whose capacity under uhat misses their demand, as
    plain cut rows (clamped when `kc`): their slacks come from one
    CutFamily.crossing_sums per demand.  When there are none and `kc` is
    set, the violated cover rows of the small groups
    (VariantRecord.small) found by _cover_walk.  No row's terms are
    kept: the caller builds them (_row_terms) for the rows it adds to
    the pool.
    """
    groups = family.groups
    u = [e.capacity for e in family.instance.edges]
    short = [g for g, (s, need, _) in enumerate(groups) if caps[s] < need * den]
    if short or not kc:
        sums = {}  # demand -> the clamped capacity of each distinct crossing
        out = []
        for g in short:
            s, need, _ = groups[g]
            if kc and need not in sums:
                sums[need] = family.crossing_sums([min(c, need) * v for c, v in zip(u, num)])
            out.append(((sums[need][s] if kc else caps[s]) - need * den, g, ()))
        return out
    keys = family.keys
    out = []
    for g, (s, need, _) in enumerate(groups):
        if need and variant.small(caps[s], need, den):
            out.extend((v, g, a) for v, a in _cover_walk(keys[s], need, u, num, den))
    return out


def _first_batch(found, family):
    """The first SEPARATION_BATCH rows of the groups in `found` (see
    _violations), as (slack, row, edge_set) triples ordered by slack,
    then rank[row], then edge_set.

    Every slack is over the same den, so they order as the slacks
    themselves do, and as 0 <= rank < len(rank), the integer
    slack * len(rank) + rank orders as (slack, rank) does.  A heap keeps
    the batch, as most rows tie on slack at the cut-off (in round 1
    every row's slack is minus its demand).
    """
    groups, rank = family.groups, family.rank
    size = len(rank)
    rows = [(v * size + rank[i], a, v, i) for v, g, a in found for i in groups[g][2]]
    return [(v, i, a) for _, a, v, i in heapq.nsmallest(SEPARATION_BATCH, rows)]


def _constraint(family, den, caps, i, edge_set, clamp=True):
    """Family row i's KCConstraint with `edge_set` taken as bought, its
    cut of capacity caps[s] / den under uhat (see _scaled), s its slot."""
    rhs, coeffs = _row_terms(family, i, edge_set, clamp)
    source = family, i, Fraction(caps[family.slot[i]], den)
    return KCConstraint(source, edge_set, family.requirement[i], rhs, coeffs)


# ---------------------------------------------------------------------------
# certificates and the main loop

@dataclass(frozen=True)
class GoodCertificate:
    variant: VariantRecord
    rounds: int
    cost: Fraction
    x: tuple
    constraints: tuple
    slacks: tuple
    deviations: tuple
    packed: int = 0  # the pool rows the simplex packed (RowStore.packed); not in the JSON

    def to_json(self):
        return json.dumps(
            {
                "schema": "capnet.good-solution.v1",
                "variant": self.variant.doc,
                "threshold": format_rational(self.threshold),
                "scale": format_rational(self.scale),
                "rounds": self.rounds,
                "cost": format_rational(self.cost),
                "x": [format_rational(v) for v in self.x],
                "constraints": [
                    dict(c.describe(), slack=format_rational(s))
                    for c, s in zip(self.constraints, self.slacks)
                ],
                "deviations": list(self.deviations),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def threshold(self):
        return self.variant.threshold

    @property
    def scale(self):
        return self.variant.scale


_DEVIATIONS = (
    "relaxation solved by a cutting-plane loop over an explicit constraint pool "
    "with an exact rational simplex, not by ellipsoid plus binary search",
    "separation tests nested prefix candidates for the taken-for-granted edge set, "
    "not only the nearly-integral set",
)
_NEAR_UNIFORM_DEVIATION = (
    "residual demand uses max(0, R(S) - u(A on the cut)); a min in its place "
    "would make every row vacuous"
)


def solve_good(instance, gamma=None, seed=0, kc=True):
    """Cut LP solve with knapsack-cover separation.

    Returns (FractionalSolution, GoodCertificate).  The variant comes
    from variant_for(instance, gamma).  With kc=False the loop separates
    only the plain (unclamped) cut constraints, which yields the standard
    relaxation optimum.  Deterministic given (instance, gamma, kc): no
    step draws random numbers, so `seed` does not change the result.
    Raises InfeasibleError when even the full edge set cannot meet the
    requirements, and CapabilityError past the round cap of 50 m n
    rounds or the cut family's caps (n <= 16, and n <= 10 for k-way
    requirements).
    """
    if instance.directed:
        raise ValueError("solve_good works on undirected instances")
    if instance.n < 2:
        raise ValueError("need at least two vertices")
    variant = variant_for(instance, gamma)
    family = cut_family(instance)
    deviations = list(_DEVIATIONS)
    if variant.kind == "near-uniform":
        deviations.append(_NEAR_UNIFORM_DEVIATION)

    full = check_feasible(instance, range(instance.m))
    if not full.feasible:
        raise InfeasibleError("requirements exceed the full edge set", full.witness)

    if not any(family.requirement):  # k-way bounds are >= 1, so never k-way
        x = tuple(Fraction(0) for _ in range(instance.m))
        sol = FractionalSolution(instance, x, variant.threshold)
        cert = GoodCertificate(variant, 0, Fraction(0), x, (), (), tuple(deviations))
        return sol, cert

    costs = [e.cost for e in instance.edges]
    pool = {}      # (row, edge_set) -> KCConstraint, in the order added
    lp_rows = RowStore(instance.m)  # each pool row, dense; packed once unless implied
    cap = 50 * max(1, instance.m) * instance.n
    rounds = 0
    x = [Fraction(0)] * instance.m
    while rounds < cap:
        rounds += 1
        if pool:
            x, _ = solve_box_covering_lp(costs, lp_rows)
        num, den, caps = _scaled(family, x)
        found = _violations(family, variant, num, den, caps, kc)
        if not found:
            sol = FractionalSolution(instance, tuple(x), variant.threshold)
            constraints = tuple(pool.values())
            slacks = tuple(
                Fraction(_scaled_slack(c.rhs, c.coefficients, num, den), den) for c in constraints
            )
            invariant(all(s >= 0 for s in slacks), "a certificate row has negative slack")
            cert = GoodCertificate(
                variant, rounds, sol.cost(), sol.x, constraints, slacks, tuple(deviations),
                lp_rows.packed,
            )
            return sol, cert
        # A plain row implies a later one of its batch and demand whose crossing
        # holds its own.  plain: (position, demand, crossing key as bits) of each.
        batch, implied, plain = [], {}, []
        for k, (_, i, edge_set) in enumerate(_first_batch(found, family)):
            invariant((i, edge_set) not in pool, "separation reported violations but none were new")
            con = pool[i, edge_set] = _constraint(family, den, caps, i, edge_set, kc)
            batch.append((con.dense(instance.m), con.rhs))
            if not edge_set:
                key = int.from_bytes(family.keys[family.slot[i]], "big")
                inside = [j for j, need, c in plain if need == con.requirement and not c & ~key]
                if inside:
                    implied[k] = inside[0]
                plain.append((k, con.requirement, key))
        lp_rows.extend(batch, implied)
    raise CapabilityError(f"cutting-plane loop passed its round cap 50 * m * n = {cap} rounds")


def verify_good(instance, solution, gamma=None):
    """Re-derive the exit conditions for a claimed good solution under
    variant_for(instance, gamma).

    Returns a list of violation descriptions; empty means the solution
    passes the two checks the rounding step depends on.
    """
    variant = variant_for(instance, gamma)
    x = solution.x if isinstance(solution, FractionalSolution) else tuple(
        Fraction(v) for v in solution
    )
    family = cut_family(instance)
    num, den, caps = _scaled(family, x)
    frozen = tuple(sorted(_frozen(variant, num, den)))
    short, covers = [], []
    for i, (cap, need) in enumerate(zip(map(caps.__getitem__, family.slot), family.requirement)):
        if cap < need * den:
            short.append(("requirement", _constraint(family, den, caps, i, ()).describe()))
        if need and variant.small(cap, need, den):
            slack = _scaled_slack(*_row_terms(family, i, frozen), num, den)
            if slack < 0:
                cut = describe_cut(family.cut(i, Fraction(cap, den)))
                covers.append(("knapsack-cover", dict(cut, slack=str(Fraction(slack, den)))))
    return short + covers
