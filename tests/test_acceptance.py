"""Release gate: every shipping criterion as a single pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
check re-derives its expected values from scratch (brute force scans,
closed forms, exact oracles); nothing here trusts the code under test.
"""

import itertools
import time
from fractions import Fraction

import pytest

from capnet.cli import main
from capnet.cutenum import enumerate_near_min_cuts, enumerate_near_min_kway_cuts
from capnet.graphs import capacity_weighting
from capnet.kclp import solve_good, verify_good
from capnet.multicopy import run as run_multicopy
from capnet.oracle import (
    exact_optimum,
    exact_optimum_multicopy,
    gen_label_cover_reduction,
    gen_random,
    gen_single_pair_gap,
    gen_triangle_gap,
    sample_yes_instances,
    verify_yes_certificate,
)
from capnet.rounding import expected_cost_bound, keep_probabilities, round_solution
from capnet.util import derive_seed, iter_partitions

from conftest import brute_cut_sides_within, brute_min_kway_cut, brute_min_st_cut


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _count_within(count, n, exponent):
    """count <= n ** exponent with an exact rational exponent."""
    exponent = Fraction(exponent)
    return count ** exponent.denominator <= n ** exponent.numerator


@pytest.fixture(scope="module")
def uniform_suite():
    """50 seeded uniform instances with their solved relaxations."""
    suite = []
    for i in range(50):
        n = 6 + i % 5
        m = min(20, n + 2 + (i * 3) % 10)
        inst = gen_random("uniform", n=n, m=m, seed=derive_seed(9100, i))
        solution, certificate = solve_good(inst, seed=derive_seed(9200, i))
        suite.append((inst, solution, certificate))
    return suite


def test_criterion_1_triangle_gap():
    t0 = time.perf_counter()
    inst = gen_triangle_gap(10, 100)
    _, plain = solve_good(inst, seed=0, kc=False)
    _, strong = solve_good(inst, seed=0)
    best = exact_optimum(inst)
    elapsed = time.perf_counter() - t0
    ok = (plain.cost == 10 and strong.cost == 100
          and best.cost == 100 and elapsed < 1.0)
    _report(1, ok, f"plain LP {plain.cost}, with cover cuts {strong.cost}, "
                   f"optimum {best.cost}, {elapsed:.2f}s")


def test_criterion_2_star_gap():
    parts, ok = [], True
    for R in (4, 6, 8):
        t0 = time.perf_counter()
        inst, reference = gen_single_pair_gap(R)
        u = [e.capacity for e in inst.edges]
        checks = violated = 0
        for mask in range(1, 1 << (inst.n - 1)):
            side = {v for v in range(1, inst.n) if mask >> (v - 1) & 1}
            crossing = [i for i, e in enumerate(inst.edges) if (e.tail in side) != (e.head in side)]
            need = max((r for s, t, r in inst.requirements.pairs if (s in side) != (t in side)),
                       default=0)
            if need == 0:
                continue
            for r in range(len(crossing) + 1):
                for A in itertools.combinations(crossing, r):
                    # The cover row of (side, A): the demand A leaves, met
                    # by the other crossing edges at capacities clamped to it.
                    rest = need - sum(u[e] for e in A)
                    lhs = sum(min(u[e], rest) * reference.x[e] for e in crossing if e not in A)
                    checks += 1
                    violated += rest > 0 and lhs < rest
        best = exact_optimum(inst)
        ratio = Fraction(best.cost) / (3 * R)
        elapsed = time.perf_counter() - t0
        ok = (ok and reference.cost() == 3 * R and violated == 0
              and best.cost == R * (R + 1) // 2 and elapsed < 120.0)
        parts.append(f"R={R}: {checks} cover rows clean, optimum {best.cost}, "
                     f"ratio {ratio}, {elapsed:.1f}s")
    _report(2, ok, "; ".join(parts))


def test_criterion_3_cut_count_bounds():
    alphas = (Fraction(1), Fraction(3, 2), Fraction(2))
    violations = 0
    pools = 0
    for i in range(100):
        n = 5 + i % 8
        inst = gen_random("uniform", n=n, m=n + 2 + i % 5,
                          seed=derive_seed(9300, i))
        w = capacity_weighting(inst)
        weights = [w[j] for j in range(inst.m)]
        for alpha in alphas:
            pool = enumerate_near_min_cuts(inst, w, alpha)
            pools += 1
            expected = brute_cut_sides_within(
                inst, weights, alpha * pool.min_cut_value)
            if {c.side for c in pool} != expected:
                violations += 1
            if not _count_within(len(pool.cuts), n, 2 * alpha):
                violations += 1
    kway_pools = 0
    for i in range(100):
        n = 4 + i % 4
        inst = gen_random("uniform", n=n, m=n + 2 + i % 4,
                          seed=derive_seed(9400, i))
        w = capacity_weighting(inst)
        weights = [w[j] for j in range(inst.m)]
        best = brute_min_kway_cut(inst, weights, 3)
        for alpha in alphas:
            pool = enumerate_near_min_kway_cuts(inst, w, 3, alpha)
            kway_pools += 1
            expected = sum(
                1 for a in iter_partitions(inst.n, 3)
                if sum(weights[j] for j, e in enumerate(inst.edges)
                       if a[e.tail] != a[e.head]) <= alpha * best
            )
            if len(pool) != expected or min(c.capacity for c in pool) != best:
                violations += 1
            if not _count_within(len(pool), n, 4 * alpha):
                violations += 1
    _report(3, violations == 0,
            f"{pools} two-way pools and {kway_pools} three-way pools match "
            f"brute scans within count bounds, {violations} violations")


def test_criterion_4_good_solution_contract(uniform_suite):
    violations = []
    for i, (inst, solution, certificate) in enumerate(uniform_suite):
        problems = verify_good(inst, solution)
        if problems:
            violations.append((i, problems))
        if solution.cost() != certificate.cost:
            violations.append((i, "certificate cost drift"))
        if certificate.cost > exact_optimum(inst).cost:
            violations.append((i, "relaxation above the optimum"))
    _report(4, not violations,
            f"50 uniform instances re-verified against both conditions and "
            f"the exact optimum, {len(violations)} violations")


def test_criterion_5_rounding(uniform_suite):
    runs = first_failures = mean_violations = worst_attempts = 0
    edges = fractional = 0  # edges, and those kept with probability strictly in (0, 1)
    for i, (inst, solution, _) in enumerate(uniform_suite):
        bound = expected_cost_bound(solution)
        edges += inst.m
        fractional += sum(0 < p < 1 for p in keep_probabilities(solution))
        total = Fraction(0)
        for s in range(200):
            report = round_solution(solution, seed=derive_seed(9500, f"{i}/{s}"))
            runs += 1
            worst_attempts = max(worst_attempts, report.attempt_count)
            total += report.cost
            first_failures += not report.attempts[0].feasible
        mean = total / 200
        if mean > bound * Fraction(21, 20) or (bound == 0 and mean > 0):
            mean_violations += 1
    rate = Fraction(first_failures, runs)
    ok = (worst_attempts <= 100 and mean_violations == 0
          and rate <= Fraction(1, 10))
    _report(5, ok,
            f"{runs} roundings feasible within {worst_attempts} attempts, "
            f"{mean_violations} mean-cost violations, first-attempt "
            f"infeasibility {first_failures}/{runs}, {fractional} of {edges} edges "
            f"with a keep probability strictly between 0 and 1")


def test_criterion_6_multicopy_bounds():
    violations = 0
    checked_ell = 0
    for i in range(50):
        n = 5 + i % 5
        m = min(12, n + 2 + i % 4)
        k = 1 + i % 3
        inst = gen_random("pairs", n=n, m=m, seed=derive_seed(9600, i),
                          pairs=k, demand_cap=3)
        sol = run_multicopy(inst)
        weights = [sol.copies[j] * inst.edges[j].capacity for j in range(inst.m)]
        for s, t, d in inst.requirements.pairs:
            if d > 0 and brute_min_st_cut(inst, weights, s, t) < d:
                violations += 1
        if sol.cost > sol.charge_bound:
            violations += 1
        if k >= 2:
            best = exact_optimum_multicopy(inst)
            checked_ell += 1
            if sol.ell_total > 64 * ((k - 1).bit_length() + 1) * best.cost:
                violations += 1
    _report(6, violations == 0,
            f"50 runs feasible under the 9x charge bound, {checked_ell} "
            f"path-length totals within the optimum factor, "
            f"{violations} violations")


def test_criterion_7_label_cover_certificates():
    parts, ok = [], True
    for i, lc in enumerate(sample_yes_instances()):
        t0 = time.perf_counter()
        check = verify_yes_certificate(gen_label_cover_reduction(lc), lc)
        elapsed = time.perf_counter() - t0
        ok = (ok and check.ok and check.cost == 2 * lc.m
              and check.flow == lc.m and elapsed < 1.0)
        parts.append(f"#{i} m={lc.m}: cost {check.cost}, flow {check.flow}")
    _report(7, ok, "; ".join(parts))


def test_criterion_8_bench_determinism(tmp_path):
    argv = ["bench", "--alg", "uniform", "--trials", "5", "--seed", "424242",
            "--n", "7", "--m", "11", "--oracle"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    codes = (main(argv + ["--out", str(a)]), main(argv + ["--out", str(b)]))
    identical = a.read_bytes() == b.read_bytes()
    _report(8, codes == (0, 0) and identical,
            f"two bench sweeps wrote {len(a.read_bytes())} identical bytes")
