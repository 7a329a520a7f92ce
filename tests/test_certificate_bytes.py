"""Pinned certificate bytes: the solve's pool, its order, its vertices and
every certificate slack, as text, on three fixed instances.

The digests were recorded with the Fraction separation scan and must
not move when separation changes how it computes.  CI also runs this
file under `python -O`, where `invariant` checks stay on and bare
asserts in the package would vanish.
"""

import hashlib
from fractions import Fraction

import pytest

from capnet.graphs import Instance, Pairs
from capnet.kclp import FractionalSolution, solve_good, variant_for, verify_good
from capnet.oracle import gen_random


@pytest.mark.parametrize("args, kwargs, rounds, rows, digest", [
    (("uniform", 12, 24, 7), {}, 14, 435,
     "ced0e6fddac2918fd12151f38b2bc135336145eae6135e0ab3b238c0885ffde9"),
    (("kway", 9, 16, 1000), {"levels": 2}, 7, 128,
     "7072eb266ad124f0bb0e4e64d9622ed6065045d6abc2d07dd52fd653d2a73888"),
    (("pairs", 8, 12, 1004), {"pairs": 3}, 4, 52,
     "1ef135ab40cbb387c2b8323daeb1d2942334bd2c47686c7f6a61172de3dd44ad"),
])
def test_certificate_bytes_are_pinned(args, kwargs, rounds, rows, digest):
    _, cert = solve_good(gen_random(*args, **kwargs))
    assert (cert.rounds, len(cert.constraints)) == (rounds, rows)
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest


def test_verify_good_report_is_pinned():
    # The frozen-set trap of test_kclp: cut {1} carries 6 >= 5 under u * x,
    # but with the big edge taken as bought its cover row is short.
    inst = Instance(2, ((0, 1, 100, 1), (0, 1, 4, 1)), Pairs(((0, 1, 5),)))
    sol = FractionalSolution(inst, (Fraction(1, 50), Fraction(1)), variant_for(inst).threshold)
    assert verify_good(inst, sol) == [
        ("knapsack-cover", {"side": [1], "capacity": "6", "slack": "-49/50"})
    ]
