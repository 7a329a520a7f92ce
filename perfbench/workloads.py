"""The benchmark's workloads: instance populations, the timed pipeline and
the correctness checks that follow it.

Each workload is a fixed population of instances made by
``capnet.oracle.gen_random`` from a population number, so that every run
of a workload solves the same instances and stored fingerprints (exact
LP, algorithm and oracle costs) can be compared against.  The benchmark's
``--seed`` orders the population for the closed loop.  Instances are not
drawn from the seed because one instance can cost 100 times another: a
run of ten seed-drawn instances would measure the draw, not the program.

Why these three workloads (shares are cProfile figures on a 2-core VM):

* ``uniform-lp``: uniform requirements, n = 10..12, m = 2n, plus the
  anchor instance ``gen_random("uniform", 12, 24, 7)`` (14 rounds, 435
  pool rows).  The dense simplex does most of the solve here, exhaustive
  bipartition separation about a fifth, and the subset oracle 10-20% of
  the instance.  A warm-started or fraction-free simplex shows here.
* ``kway-partition``: k-way requirements, n = 9, m = 16, levels = 2.  The
  same kclp/simplex layers, but separation over ``iter_partitions`` and
  ``graphs.kway_cut_from_assignment`` is about 45% of the solve and the
  simplex only about 25%.  Generation also enumerates partitions, so
  set-up time moves here.
* ``pairs-multicopy``: three pairs, n = 8, m = 12, no demand cap, on the
  multicopy path.  simplex, kclp and cutenum do no work, so LP changes
  should leave it unchanged; the copy-oracle branch and bound is almost
  all of its time.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("graphs", "cutenum", "simplex", "kclp", "rounding", "multicopy", "oracle")
ANCHOR = ("uniform", 12, 24, 7)


class Capnet:
    """capnet's submodules from one import."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"capnet.{name}"))


def import_capnet():
    """Import capnet from the checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("capnet")
    if Path(package.__file__).resolve().parent != SRC / "capnet":
        raise ImportError(f"capnet was imported from {package.__file__}, not from {SRC}")
    return Capnet()


@dataclass(frozen=True)
class Workload:
    kind: str
    multicopy: bool
    size: int  # instances in one population, besides the anchor

    def specs(self, population):
        """(label, gen_random args, gen_random kwargs, rounding seed) per
        instance.  Seeds are population * 1000 + index."""
        out = []
        if self.kind == "uniform":
            out.append(("anchor", ANCHOR, {}, ANCHOR[3]))
        for i in range(self.size):
            seed = population * 1000 + i
            if self.kind == "uniform":
                n = 10 + i % 3
                args, kwargs = ("uniform", n, 2 * n, seed), {}
            elif self.kind == "kway":
                args, kwargs = ("kway", 9, 16, seed), {"levels": 2}
            else:
                args, kwargs = ("pairs", 8, 12, seed), {"pairs": 3}
            out.append((f"{population}/{i}", args, kwargs, seed))
        return out


WORKLOADS = {
    "uniform-lp": Workload("uniform", False, 8),
    "kway-partition": Workload("kway", False, 10),
    "pairs-multicopy": Workload("pairs", True, 130),
}


@dataclass(frozen=True)
class Case:
    label: str
    instance: object
    round_seed: int


def population(capnet, workload, number, limit=None):
    specs = workload.specs(number)[:limit]
    return [
        Case(label, capnet.oracle.gen_random(*args, **kwargs), seed)
        for label, args, kwargs, seed in specs
    ]


def warm_up(capnet, workload):
    """One small instance of the workload's kind through the pipeline."""
    if workload.kind == "kway":
        instance = capnet.oracle.gen_random("kway", 6, 9, 0, levels=2)
    else:
        instance = capnet.oracle.gen_random(workload.kind, 6, 9, 0, pairs=2)
    solve(capnet, workload, Case("warm-up", instance, 0))


# ---------------------------------------------------------------------------
# the timed pipeline: what `capnet solve --oracle` runs

def solve(capnet, workload, case):
    if workload.multicopy:
        forest = capnet.multicopy.run(case.instance)
        optimum = capnet.oracle.exact_optimum_multicopy(case.instance)
        return forest, optimum
    fractional, certificate = capnet.kclp.solve_good(case.instance, seed=case.round_seed)
    report = capnet.rounding.round_solution(fractional, seed=case.round_seed)
    optimum = capnet.oracle.exact_optimum(case.instance)
    return fractional, certificate, report, optimum


def fingerprint(workload, outcome):
    """Exact costs as strings; lp_cost is absent on the multicopy path."""
    if workload.multicopy:
        forest, optimum = outcome
        return {"alg_cost": str(forest.cost), "oracle_cost": str(optimum.cost)}
    _, certificate, report, optimum = outcome
    return {
        "lp_cost": str(certificate.cost),
        "alg_cost": str(report.cost),
        "oracle_cost": str(optimum.cost),
    }


# ---------------------------------------------------------------------------
# correctness: re-derived from the returned objects, never by `assert`

def check(capnet, workload, case, outcome):
    """Problems found in one instance's results; empty when all hold."""
    if workload.multicopy:
        return _check_multicopy(capnet, case.instance, *outcome)
    return _check_lp(capnet, case.instance, *outcome)


def _check_lp(capnet, instance, fractional, certificate, report, optimum):
    problems = []
    violations = capnet.kclp.verify_good(instance, fractional)
    if violations:
        problems.append(f"verify_good found {len(violations)} violated conditions")
    x = fractional.x
    if any(con.evaluate(x) < 0 for con in certificate.constraints):
        problems.append("a certificate row is violated by x")
    if any(slack < 0 for slack in certificate.slacks):
        problems.append("a certificate slack is negative")
    lp_cost = sum((e.cost * v for e, v in zip(instance.edges, x)), Fraction(0))
    if lp_cost != certificate.cost:
        problems.append(f"certificate cost {certificate.cost} != c.x = {lp_cost}")
    for name, edges, cost in (("rounded", report.edges, report.cost),
                              ("oracle", optimum.edges, optimum.cost)):
        if not capnet.graphs.check_feasible(instance, edges).feasible:
            problems.append(f"{name} edge set is infeasible")
        if instance.total_cost(edges) != cost:
            problems.append(f"{name} cost {cost} != cost of its edges")
    if not certificate.cost <= optimum.cost <= report.cost:
        problems.append(
            f"expected lp <= oracle <= alg, got {certificate.cost}, {optimum.cost}, {report.cost}"
        )
    return problems


def _check_multicopy(capnet, instance, forest, optimum):
    problems = []
    if forest.cost > 9 * forest.ell_total:
        problems.append(f"forest cost {forest.cost} exceeds 9 * ell_total = {9 * forest.ell_total}")
    baseline = capnet.multicopy.baseline_independent_pairs(instance)
    for name, copies, cost in (("forest", forest.copies, forest.cost),
                               ("oracle", optimum.copies, optimum.cost)):
        bought = sum((e.cost * c for e, c in zip(instance.edges, copies)), Fraction(0))
        if bought != cost:
            problems.append(f"{name} cost {cost} != cost of its copies {bought}")
        capacity = tuple(c * e.capacity for e, c in zip(instance.edges, copies))
        for s, t, demand in instance.requirements.pairs:
            if demand and capnet.graphs.max_flow(instance, capacity, s, t).value < demand:
                problems.append(f"{name} copies miss the demand {demand} of pair ({s}, {t})")
    if not optimum.cost <= min(forest.cost, baseline.cost):
        problems.append(
            f"copy oracle {optimum.cost} above forest {forest.cost} or baseline {baseline.cost}"
        )
    return problems


def ratio(fp):
    """alg cost over oracle cost, exact; None when the oracle cost is 0."""
    oracle = Fraction(fp["oracle_cost"])
    return Fraction(fp["alg_cost"]) / oracle if oracle else None


# ---------------------------------------------------------------------------
# traced layers

def install_tracing(tracer, capnet):
    """Wrap the public functions the per-layer metrics name.  Each hook
    maps a traced call's positional arguments and result to the counts it
    adds."""
    targets = (
        (capnet.simplex, "solve_box_covering_lp", lambda args, r: {
            "simplex.tableau_entries": len(args[1]) * (len(args[0]) + len(args[1]) + 1)}),
        (capnet.kclp, "solve_good", lambda args, r: {
            "kclp.rounds": r[1].rounds, "kclp.pool_rows": len(r[1].constraints)}),
        (capnet.cutenum, "enumerate_cuts_within", lambda args, r: {
            "cutenum.masks_scanned": (1 << (args[0].n - 1)) - 1, "cutenum.cuts_kept": len(r)}),
        (capnet.graphs, "kway_cut_from_assignment", None),
        (capnet.graphs, "max_flow", None),
        (capnet.graphs, "global_min_cut", None),
        (capnet.graphs, "check_feasible", None),
        (capnet.rounding, "round_solution", lambda args, r: {
            "rounding.attempts": r.attempt_count}),
        (capnet.oracle, "exact_optimum", lambda args, r: {
            "oracle.exact_optimum.nodes": r.explored}),
        (capnet.oracle, "constraint_rows", lambda args, r: {
            "oracle.constraint_rows.rows": len(r)}),
        (capnet.oracle, "exact_optimum_multicopy", lambda args, r: {
            "oracle.exact_optimum_multicopy.nodes": r.explored}),
        (capnet.multicopy, "run", lambda args, r: {
            "multicopy.run.iterations": len(r.iterations),
            "multicopy.cost": r.cost, "multicopy.charge_bound": 9 * r.ell_total}),
        (capnet.multicopy, "baseline_independent_pairs", None),
    )
    for module, attr, counts in targets:
        tracer.wrap(module, attr, counts)
    tracer.install_gc_hook()
