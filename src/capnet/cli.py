"""Command line front end: solve, bench, gen, verify, exact.

Exit codes: 0 success, 1 usage or capability error, 2 infeasible or
failed run (bench reports any per-trial error this way), 3 verification
failure or a broken internal invariant (InvariantError).  Every error is
also emitted as a single JSON line on stderr.  Reports are deterministic
byte-for-byte given the same flags; wall time goes to stderr only, never
into output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from .errors import (
    CapabilityError,
    DisconnectedError,
    InfeasibleError,
    InstanceFormatError,
    InvariantError,
)
from .graphs import parse_instance, serialize_instance
from .kclp import solve_good, variant_for, verify_good
from .multicopy import baseline_independent_pairs
from .multicopy import run as run_multicopy
from .oracle import (
    exact_optimum,
    exact_optimum_multicopy,
    gen_label_cover_reduction,
    gen_random,
    gen_single_pair_gap,
    gen_triangle_gap,
    sample_yes_instances,
    verify_yes_certificate,
)
from .rounding import round_solution
from .simplex import solve_box_covering_lp
from .util import derive_seed, format_rational

CSV_SCHEMA = "# capnet report schema v1"
CSV_COLUMNS = (
    "instance", "variant", "n", "m", "lp_cost", "alg_cost",
    "oracle_cost", "ratio", "attempts", "seed",
)
ALGORITHMS = ("uniform", "kway", "near-uniform", "multicopy")


def _emit_error(kind, message):
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(1)


def _write_output(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows, comments=()):
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row.get(col, "") for col in CSV_COLUMNS])
    for line in comments:
        buf.write("# " + line + "\n")
    return buf.getvalue()


def _json_text(rows, comments=()):
    doc = {"schema": "capnet.report.v1", "rows": rows}
    if comments:
        doc["aggregates"] = list(comments)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _report_text(rows, fmt, comments=()):
    return _csv_text(rows, comments) if fmt == "csv" else _json_text(rows, comments)


def _solve_row(instance, name, alg, seed, gamma, want_oracle):
    """One report row plus the JSON trace document."""
    row = {"instance": name, "variant": alg, "n": instance.n, "m": instance.m,
           "seed": "" if seed is None else seed}
    if alg == "multicopy":
        if gamma is not None:
            raise ValueError("--gamma applies to the near-uniform LP, not to multicopy")
        solution = run_multicopy(instance)
        row["alg_cost"] = format_rational(solution.cost)
        trace = json.loads(solution.to_json())
        oracle_cost = None
        if want_oracle:
            oracle_cost = exact_optimum_multicopy(instance).cost
    else:
        fractional, certificate = solve_good(instance, gamma=gamma, seed=seed)
        report = round_solution(fractional, seed=seed)
        row["lp_cost"] = format_rational(certificate.cost)
        row["alg_cost"] = format_rational(report.cost)
        row["attempts"] = report.attempt_count
        trace = {
            "schema": "capnet.solve-trace.v1",
            "certificate": json.loads(certificate.to_json()),
            "rounding": {
                "edges": list(report.edges),
                "cost": format_rational(report.cost),
                "attempts": [
                    {"seed": a.seed, "feasible": a.feasible,
                     "cost": format_rational(a.cost)}
                    for a in report.attempts
                ],
            },
        }
        oracle_cost = None
        if want_oracle:
            oracle_cost = exact_optimum(instance).cost
    if oracle_cost is not None:
        row["oracle_cost"] = format_rational(oracle_cost)
        alg_cost = Fraction(row["alg_cost"])
        row["ratio"] = format_rational(alg_cost / oracle_cost) if oracle_cost else ""
        trace["oracle_cost"] = format_rational(oracle_cost)
    return row, trace


def cmd_solve(args):
    with open(args.instance) as fh:
        instance = parse_instance(fh.read())
    expected = variant_for(instance).kind
    alg = args.alg or expected
    if alg != "multicopy" and args.seed is None:
        raise ValueError("--seed is required for randomized rounding")
    if alg != "multicopy" and alg != expected:
        raise ValueError(
            f"--alg {alg} does not match the instance requirements (expected {expected})"
        )
    row, trace = _solve_row(instance, args.instance, alg, args.seed, args.gamma, args.oracle)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(json.dumps(trace, sort_keys=True, separators=(",", ":")) + "\n")
    _write_output(_report_text([row], args.format), args.out)
    return 0


def cmd_bench(args):
    kind = {"uniform": "uniform", "kway": "kway",
            "near-uniform": "pairs", "multicopy": "pairs"}[args.alg]
    rows = []
    ratios = []
    failure = None
    for t in range(args.trials):
        inst_seed = derive_seed(args.seed, f"instance/{t}")
        run_seed = derive_seed(args.seed, f"run/{t}")
        try:
            instance = gen_random(
                kind, args.n, args.m, inst_seed,
                cap_range=(args.cap_lo, args.cap_hi),
                cost_range=(args.cost_lo, args.cost_hi),
                pairs=args.pairs, levels=args.levels,
                demand_cap=args.demand_cap,
            )
            row, _ = _solve_row(
                instance, f"gen-{kind}-{t}", args.alg, run_seed,
                None, args.oracle,
            )
        except (InfeasibleError, DisconnectedError, CapabilityError, ValueError) as exc:
            failure = exc
            break
        rows.append(row)
        if row.get("ratio"):
            ratios.append(Fraction(row["ratio"]))
    if ratios:
        comments = (
            f"aggregate mean_ratio={format_rational(sum(ratios) / len(ratios))}",
            f"aggregate max_ratio={format_rational(max(ratios))}",
        )
    elif rows:
        comments = ("aggregate ratio=n/a",)
    else:
        comments = ()
    if failure is not None:
        # Flush what completed, then fail the run.
        _write_output(_report_text(rows, args.format, comments), args.out)
        _emit_error(type(failure).__name__, failure)
        return 2
    _write_output(_report_text(rows, args.format, comments), args.out)
    return 0


def cmd_gen(args):
    instance = gen_random(
        args.kind, args.n, args.m, args.seed,
        cap_range=(args.cap_lo, args.cap_hi),
        cost_range=(args.cost_lo, args.cost_hi),
        pairs=args.pairs, levels=args.levels,
        demand_cap=args.demand_cap,
    )
    _write_output(serialize_instance(instance), args.out)
    return 0


def cmd_exact(args):
    with open(args.instance) as fh:
        instance = parse_instance(fh.read())
    if args.multicopy:
        result = exact_optimum_multicopy(instance)
        doc = {"cost": format_rational(result.cost), "copies": list(result.copies)}
    else:
        result = exact_optimum(instance)
        doc = {"cost": format_rational(result.cost), "edges": list(result.edges)}
    _write_output(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    return 0


def _verify_checks():
    """The paper's desk-scale claims as checks.  Yields (name, ok, detail)."""
    C = 100
    for R in (2, 3, 5, 8, 10, 16):
        triangle = gen_triangle_gap(R, C)
        _, plain = solve_good(triangle, seed=0, kc=False)
        _, cover = solve_good(triangle, seed=0)
        best = exact_optimum(triangle)
        yield (
            f"triangle-gap-R{R}",
            plain.cost == Fraction(C, R) and cover.cost == C
            and best.cost == C and 2 in best.edges,
            f"plain {format_rational(plain.cost)} (want {format_rational(Fraction(C, R))}), "
            f"cover {format_rational(cover.cost)} and optimum {format_rational(best.cost)} "
            f"(want {C}), edges {list(best.edges)}, gap {format_rational(best.cost / plain.cost)}",
        )

    # The simplex packs only the pool rows no earlier row implies: the
    # benchmark's anchor pool, every row packed, has the same optimum.
    anchor = gen_random("uniform", 12, 24, 7)
    sol, cert = solve_good(anchor, seed=0)
    rows = [(c.dense(anchor.m), c.rhs) for c in cert.constraints]
    x, cost = solve_box_covering_lp([e.cost for e in anchor.edges], rows)
    same = tuple(x) == sol.x and cost == cert.cost
    yield ("implied-rows-anchor", same, f"{cert.packed} of {len(rows)} pool rows packed, every row "
           f"packed gives {'the same' if same else 'another'} x and cost {format_rational(cost)}")

    for R in (4, 6, 8):
        star, reference = gen_single_pair_gap(R)
        problems = verify_good(star, reference)
        best = exact_optimum(star)
        yield (
            f"star-gap-R{R}",
            reference.cost() == 3 * R and not problems and best.cost == R * (R + 1) // 2,
            f"reference {format_rational(reference.cost())} (want {3 * R}), "
            f"{len(problems)} violated conditions, optimum {format_rational(best.cost)} "
            f"(want {R * (R + 1) // 2}), gap {format_rational(best.cost / reference.cost())}",
        )

    # The forest algorithm against the copy oracle and the no-sharing
    # baseline: both buy feasible copy vectors, so neither beats the oracle.
    beaten, over_oracle, over_baseline = 0, [], []
    for t in range(40):
        instance = gen_random("pairs", 7, 11, derive_seed(2024, t), pairs=3, demand_cap=3)
        forest = run_multicopy(instance).cost
        baseline = baseline_independent_pairs(instance).cost
        oracle = exact_optimum_multicopy(instance).cost
        beaten += oracle > min(forest, baseline)
        if oracle:
            over_oracle.append(forest / oracle)
        if baseline:
            over_baseline.append(forest / baseline)
    yield (
        "multicopy-ratios",
        beaten == 0,
        f"40 instances, forest/oracle mean {format_rational(sum(over_oracle) / len(over_oracle))}"
        f" max {format_rational(max(over_oracle))}, forest/baseline max "
        f"{format_rational(max(over_baseline))}, oracle above either on {beaten}",
    )

    for i, lc in enumerate(sample_yes_instances()):
        reduction = gen_label_cover_reduction(lc)
        check = verify_yes_certificate(reduction, lc)
        yield (
            f"label-cover-certificate-{i}",
            check.ok,
            f"cost {format_rational(check.cost)} (want {check.expected_cost}), "
            f"flow {check.flow} (want {check.expected_flow})",
        )


def cmd_verify(args):
    failed = []
    lines = []
    for name, ok, detail in _verify_checks():
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    if failed:
        _emit_error("VerifyFailure", "failed checks: " + ", ".join(failed))
        return 3
    return 0


def _add_common(parser, *flags, seed_required=False):
    """--out, and those of --seed and --format that the subcommand reads."""
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if "--seed" in flags:
        parser.add_argument("--seed", type=int, required=seed_required, default=None)
    if "--format" in flags:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_generator_flags(parser):
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--cap-lo", type=int, default=1)
    parser.add_argument("--cap-hi", type=int, default=10)
    parser.add_argument("--cost-lo", type=int, default=0)
    parser.add_argument("--cost-hi", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--levels", type=int, default=1)
    parser.add_argument("--demand-cap", type=int, default=None)


def build_parser():
    parser = _Parser(prog="capnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("instance")
    p.add_argument("--alg", choices=ALGORITHMS, default=None)
    p.add_argument("--gamma", default=None,
                   help="demand spread bound for near-uniform (rational, e.g. 3/2)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact oracle and report the ratio")
    p.add_argument("--trace", default=None, help="write the JSON trace here")
    _add_common(p, "--seed", "--format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="seeded random sweep")
    p.add_argument("--alg", choices=ALGORITHMS, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    _add_generator_flags(p)
    _add_common(p, "--seed", "--format", seed_required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=("uniform", "kway", "pairs"), required=True)
    _add_generator_flags(p)
    _add_common(p, "--seed", seed_required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check the paper's desk-scale claims")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact optimum of one instance file")
    p.add_argument("instance")
    p.add_argument("--multicopy", action="store_true",
                   help="optimize copy counts instead of a subset")
    _add_common(p)
    p.set_defaults(func=cmd_exact)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gamma", None) is not None:
        try:
            args.gamma = Fraction(args.gamma)
        except (ValueError, ZeroDivisionError):
            parser.error(f"bad --gamma value {args.gamma!r}")
    started = time.monotonic()
    try:
        code = args.func(args)
    except (InstanceFormatError, CapabilityError, ValueError, OSError) as exc:
        _emit_error(type(exc).__name__, exc)
        return 1
    except (InfeasibleError, DisconnectedError) as exc:
        _emit_error(type(exc).__name__, exc)
        return 2
    except InvariantError as exc:
        _emit_error(type(exc).__name__, exc)
        return 3
    finally:
        sys.stderr.write(f"wall time: {time.monotonic() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
