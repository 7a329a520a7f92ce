"""Randomized rounding: probabilities, determinism, retry accounting."""

from fractions import Fraction

import pytest

from capnet.errors import InfeasibleError
from capnet.graphs import CutFamily, Instance, KWay, Pairs, check_feasible, cut_family
from capnet.kclp import FractionalSolution, solve_good, variant_for
from capnet.oracle import gen_random, gen_triangle_gap
from capnet.rounding import (
    MAX_ATTEMPTS,
    expected_cost_bound,
    keep_probabilities,
    round_solution,
    sample_edges,
)
from capnet.util import derive_seed


def _tiny_solution():
    inst = gen_triangle_gap(10, 100)
    variant = variant_for(inst)
    x = (Fraction(1), Fraction(1, 200), Fraction(0))
    return inst, variant, FractionalSolution(inst, x, variant.threshold)


def test_keep_probabilities_freeze_and_scale():
    inst, variant, sol = _tiny_solution()
    scale = variant.scale
    probs = keep_probabilities(sol)
    assert probs[0] == 1                      # at threshold or above: bought
    assert probs[1] == scale * Fraction(1, 200)
    assert probs[1] < 1
    assert probs[2] == 0
    # Probabilities never exceed one even when scale * x does.
    big = FractionalSolution(inst, (Fraction(1), Fraction(1, 20), Fraction(0)),
                             sol.threshold)
    assert keep_probabilities(big)[1] == 1


def test_expected_cost_bound_is_the_probability_weighted_cost():
    inst, _, sol = _tiny_solution()
    probs = keep_probabilities(sol)
    assert expected_cost_bound(sol) == sum(
        (e.cost * p for e, p in zip(inst.edges, probs)), Fraction(0)
    )


def test_sample_edges_deterministic_and_frozen_edges_always_kept():
    inst, _, sol = _tiny_solution()
    draws = {sample_edges(sol, seed) for seed in range(30)}
    assert all(0 in chosen for chosen in draws)       # frozen edge
    assert all(2 not in chosen for chosen in draws)   # probability zero
    assert sample_edges(sol, 7) == sample_edges(sol, 7)


def test_round_solution_retries_and_reports():
    inst = gen_random("uniform", n=6, m=10, seed=8)
    sol, _ = solve_good(inst, seed=8)
    report = round_solution(sol, seed=8)
    assert report.attempts[-1].feasible
    assert report.attempts[-1].edges == report.edges
    assert report.cost == inst.total_cost(report.edges)
    assert 1 <= report.attempt_count <= MAX_ATTEMPTS
    # Attempt seeds are derived from the master seed in attempt order.
    for t, attempt in enumerate(report.attempts):
        assert attempt.seed == derive_seed(8, t)
    # The draw is reproducible.
    again = round_solution(sol, seed=8)
    assert again.edges == report.edges and again.cost == report.cost
    assert check_feasible(inst, report.edges).feasible


def test_round_solution_gives_up_after_budget():
    # Demand needs the second parallel edge, but its x sits at zero, so
    # every draw misses it.
    inst = Instance(2, ((0, 1, 3, 1), (0, 1, 3, 1)), Pairs(((0, 1, 6),)))
    threshold = variant_for(inst).threshold
    sol = FractionalSolution(inst, (Fraction(1), Fraction(0)), threshold)
    with pytest.raises(InfeasibleError) as err:
        round_solution(sol, seed=0)
    assert len(err.value.witness) == MAX_ATTEMPTS
    assert all(not a.feasible for a in err.value.witness)


def test_round_solution_builds_the_kway_family_once(monkeypatch):
    # Every x is zero, so every draw buys nothing and fails the 2-way bound.
    inst = Instance(4, ((0, 1, 2, 1), (1, 2, 2, 1), (2, 3, 2, 1), (0, 3, 2, 1)), KWay((1,)))
    sol = FractionalSolution(inst, (Fraction(0),) * 4, variant_for(inst).threshold)
    built = []
    init = CutFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CutFamily, "__init__", counting_init)
    cut_family.cache_clear()
    with pytest.raises(InfeasibleError) as err:
        round_solution(sol, seed=0)
    assert len(err.value.witness) == MAX_ATTEMPTS
    assert len(built) == 1


def test_round_solution_samples_at_the_certified_scale():
    # gamma = 4 widens the pairs variant past the demand spread: rounding
    # must sample at the scale solve_good certified, 1 / threshold.
    inst = gen_random("pairs", 8, 14, 5, pairs=3)
    sol, cert = solve_good(inst, gamma=4)
    assert cert.scale == 40 * 4 * 3  # 40 gamma lg 8
    report = round_solution(sol, seed=3)
    assert report.scale == cert.scale == 1 / sol.threshold


def test_round_solution_type_guard():
    with pytest.raises(TypeError):
        round_solution((Fraction(1), Fraction(1)), seed=0)


def test_mean_cost_tracks_the_expected_bound():
    # Statistical sanity on one instance: the empirical mean over many
    # seeds stays within 5 percent of the expectation.  Seeds are fixed,
    # so this cannot flake.
    inst = gen_random("uniform", n=7, m=12, seed=21)
    sol, _ = solve_good(inst, seed=21)
    scale = variant_for(inst).scale
    bound = expected_cost_bound(sol)
    total = Fraction(0)
    runs = 200
    for s in range(runs):
        report = round_solution(sol, seed=derive_seed(21, f"mean/{s}"))
        total += report.cost
    mean = total / runs
    assert mean <= bound * Fraction(21, 20)
    assert bound <= scale * sol.cost()
