#!/usr/bin/env python3
"""Tabulate the relaxation gaps on the two worst-case families.

Triangle family: the plain cut LP pays cost/R for the one expensive
edge, while the cover-strengthened LP is forced all the way to the
integral optimum.  Star family: the strengthened relaxation itself is
proven short by a factor that grows linearly with the demand, measured
here against the exact optimum.

Writes a single CSV (stdout by default, --out for a file).
"""

import argparse
import csv
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from capnet.kclp import solve_good, verify_good
from capnet.oracle import exact_optimum, gen_single_pair_gap, gen_triangle_gap
from capnet.util import format_rational

COLUMNS = ("family", "R", "plain_lp", "cover_lp", "reference", "exact", "gap")


@dataclass(frozen=True)
class SweepConfig:
    triangle_rs: tuple = (2, 3, 5, 8, 10, 16)
    triangle_cost: int = 100
    star_rs: tuple = (4, 6, 8)
    out: str = None


def triangle_rows(config):
    for R in config.triangle_rs:
        instance = gen_triangle_gap(R, config.triangle_cost)
        _, plain = solve_good(instance, seed=0, kc=False)
        _, strong = solve_good(instance, seed=0)
        best = exact_optimum(instance)
        yield {
            "family": "triangle",
            "R": R,
            "plain_lp": format_rational(plain.cost),
            "cover_lp": format_rational(strong.cost),
            "reference": "",
            "exact": format_rational(best.cost),
            "gap": format_rational(Fraction(best.cost) / plain.cost),
        }


def star_rows(config):
    for R in config.star_rs:
        instance, reference = gen_single_pair_gap(R)
        problems = verify_good(instance, reference)
        if problems:
            sys.exit(f"star R={R}: the reference solution violates {problems}")
        best = exact_optimum(instance)
        yield {
            "family": "star",
            "R": R,
            "plain_lp": "",
            "cover_lp": "",
            "reference": format_rational(reference.cost()),
            "exact": format_rational(best.cost),
            "gap": format_rational(Fraction(best.cost) / reference.cost()),
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triangle-cost", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = SweepConfig()
    if args.triangle_cost is not None:
        config = replace(config, triangle_cost=args.triangle_cost)
    if args.out is not None:
        config = replace(config, out=args.out)

    sink = open(config.out, "w") if config.out else sys.stdout
    writer = csv.DictWriter(sink, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in triangle_rows(config):
        writer.writerow(row)
    for row in star_rows(config):
        writer.writerow(row)
    if config.out:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
