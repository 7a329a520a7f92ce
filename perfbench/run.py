"""capnet benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload uniform-lp --seed 1 --seconds 30 --trace 0

Set-up imports capnet from ``src/`` of the checkout, generates the
workload's population with ``capnet.oracle.gen_random`` and solves one
small warm-up instance.  ``setup_s`` is the median of five such set-ups,
each timed in a fresh interpreter by setup_probe.py, so that the run's
own memory holds one import and one population.

Every time the end-to-end metrics report is scaled to reference host
speed, read by a fixed pure-Python probe before, during and after the
timed region (hostspeed.py): the shared host's speed moves up to 1.5
times between runs, which no run length averages away.  The wall-clock
figures are printed on the ``extra`` line.

The run then solves the population in the order ``--seed`` gives, one
instance at a time, in whole passes, and starts another pass only while
that brings the measured time closer to ``--seconds``.  Each instance is
timed through exactly what ``capnet solve --oracle`` runs.  Its results
are checked after its timed region: the first time against the stored
fingerprints and the correctness checks, on later passes against the
first pass.  A failed check or an exception fails the instance; the run
goes on and exits 1 at the end.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run with capnet's public functions wrapped (see tracer.py) and
reports per-layer metrics for one pass over the population.  It solves
each instance untraced right before tracing it, and reports traced over
untraced time as ``trace.overhead``.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``--record`` stores the fingerprints of the instances it solves instead
of comparing against them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from hostspeed import Meter  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, check, fingerprint, import_capnet, install_tracing, population, ratio, solve,
    warm_up,
)


def setup_seconds(args):
    """Medians of SETUP_PROBES set-ups, each in a fresh interpreter:
    (scaled to reference host speed, wall clock)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
            str(args.population), str(args.limit or 0)]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        wall_s, scaled_s = map(float, proc.stdout.split()[-2:])
        wall.append(wall_s)
        scaled.append(scaled_s)
    return statistics.median(scaled), statistics.median(wall)


def provenance():
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else ():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


def tail(sorted_values):
    """(percentile, value) of the sample with exactly ten samples above it:
    the highest percentile that has ten beyond it.  With 20 samples or
    fewer that is no higher than the median, and the maximum, the hardest
    instance, stands in."""
    count = len(sorted_values)
    if count <= 20:
        return 100.0, sorted_values[-1]
    return 100 * (count - 10) / count, sorted_values[count - 11]


def load_fingerprints():
    if FINGERPRINTS.is_file():
        return json.loads(FINGERPRINTS.read_text())
    return {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="orders the closed loop")
    parser.add_argument("--seconds", type=float, required=True, help="measured time to aim for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--population", type=int, default=1,
                        help="which instance population to solve (fingerprints stored for 1 and 2)")
    parser.add_argument("--limit", type=int, default=None,
                        help="solve only the first N instances of the population")
    parser.add_argument("--record", action="store_true",
                        help="store this population's fingerprints instead of checking them")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        capnet = import_capnet()
    except ImportError as exc:
        sys.exit(f"run.py: {exc}")
    cases = population(capnet, workload, args.population, args.limit)
    warm_up(capnet, workload)
    setup_s = setup_wall_s = None
    if not args.trace:
        setup_s, setup_wall_s = setup_seconds(args)

    stored = load_fingerprints().get(args.workload, {}).get(str(args.population), {})
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer, capnet)
    gc.collect()
    gc.freeze()  # keep the population out of every collection the run pays for

    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)
    first = {}       # case index -> fingerprint from the first pass
    times = []       # wall seconds per completed instance
    scaled = []      # the same at reference host speed (traced runs: wall)
    untraced = []    # traced runs only: the same instances without tracing
    attempted = failed = passes = 0
    measured = 0.0   # sum of timed regions
    moved = []
    missing = 0
    meter = Meter()
    while True:
        pass_time = 0.0
        for index in order:
            case = cases[index]
            attempted += 1
            gc.collect()  # every instance starts from the same heap
            started = time.perf_counter()
            try:
                if tracer is None:
                    with meter:
                        outcome = solve(capnet, workload, case)
                    elapsed, scaled_s = meter.wall, meter.scaled
                else:
                    # The same instance untraced right before, for the overhead.
                    # No host probes here: their handler would add to the spans.
                    solve(capnet, workload, case)
                    untraced.append(time.perf_counter() - started)
                    gc.collect()
                    started = time.perf_counter()
                    with tracer.root("instance"):
                        outcome = solve(capnet, workload, case)
                    elapsed = scaled_s = time.perf_counter() - started
            except Exception as exc:  # a raising instance is a failed one; the run goes on
                elapsed = time.perf_counter() - started
                measured += elapsed
                pass_time += elapsed
                failed += 1
                print(f"FAIL {case.label}: {type(exc).__name__}: {exc}")
                continue
            measured += elapsed
            pass_time += elapsed
            times.append(elapsed)
            scaled.append(scaled_s)

            fp = fingerprint(workload, outcome)
            if index in first:
                problems = [] if fp == first[index] else [f"result changed between passes: {fp}"]
            else:
                problems = check(capnet, workload, case, outcome)
                first[index] = fp
                want = stored.get(case.label)
                if want is None:
                    missing += 1
                elif not args.record:
                    for key in ("lp_cost", "oracle_cost"):
                        if fp.get(key) != want.get(key):
                            problems.append(f"{key} {fp.get(key)} != stored {want.get(key)}")
                    if fp["alg_cost"] != want["alg_cost"]:
                        moved.append(f"{case.label}: alg_cost {want['alg_cost']} -> {fp['alg_cost']}")
            del outcome
            if args.record:
                print(f"  {case.label:10s} {elapsed:8.3f}s {json.dumps(fp, sort_keys=True)}")
            if problems:
                failed += 1
                print(f"FAIL {case.label}: " + "; ".join(problems))
        passes += 1
        if args.record or tracer is not None or measured + pass_time / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload} population {args.population} seed {args.seed}: "
          f"{len(cases)} instances, {passes} passes, {attempted} attempted, {failed} failed, "
          f"fail_rate {failed / attempted:.4f}")
    if missing and not args.record:
        print(f"note: {missing} instances have no stored fingerprint")
    for line in moved:
        print(f"moved {line}")

    if args.record:
        data = load_fingerprints()
        data.setdefault(args.workload, {}).setdefault(str(args.population), {}).update(
            {cases[i].label: fp for i, fp in first.items()})
        FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(first)} fingerprints")

    if tracer is None:
        metrics = end_to_end(times, scaled, setup_s, setup_wall_s, peak_rss_mb, first,
                             attempted, failed)
    else:
        metrics = per_layer(tracer, times, untraced)
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(times, scaled, setup_s, setup_wall_s, peak_rss_mb, first, attempted, failed):
    """The gated end-to-end metrics, times at reference host speed.  The
    same figures in wall-clock time, the tail's percentile and sample
    count, and the fail rate go on an "extra" line: the fail rate is 0,
    which has no relative spread to bound."""
    p, tail_value = tail(sorted(scaled))
    _, tail_wall = tail(sorted(times))
    ratios = [r for r in map(ratio, first.values()) if r is not None]
    ratio_mean = sum(ratios, Fraction(0)) / len(ratios)
    extra = {
        "tail_percentile": p,
        "samples": len(scaled),
        "host_speed": sum(scaled) / sum(times),
        "wall.instances_per_s": len(times) / sum(times),
        "wall.instance_s.p50": statistics.median(times),
        "wall.instance_s.tail": tail_wall,
        "wall.setup_s": setup_wall_s,
        "fail_rate": failed / attempted,
        "ratio_mean_exact": str(ratio_mean),
        "ratio_instances": len(ratios),
    }
    print("extra " + json.dumps(extra))
    print(f"instance_s.tail is p{p:.4g} of {len(scaled)} samples")
    return {
        "instances_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
        "instance_s.p50": {"value": statistics.median(scaled), "unit": "s"},
        "instance_s.tail": {"value": tail_value, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ratio_mean": {"value": float(ratio_mean), "unit": "ratio"},
    }


def per_layer(tracer, times, untraced):
    spans = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def share(numerator, denominator):
        return float(numerator / denominator) if denominator else 0.0

    instance_s = secs("instance")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("simplex.solve_box_covering_lp", "cutenum.enumerate_cuts_within",
                 "graphs.kway_cut_from_assignment", "graphs.max_flow",
                 "graphs.global_min_cut", "graphs.check_feasible"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.s", secs(name), "s")
    put("simplex.tableau_entries", counters["simplex.tableau_entries"], "count")
    put("kclp.solve_good.s", secs("kclp.solve_good"), "s")
    put("kclp.solve_good.self_s", secs("kclp.solve_good", "self_s"), "s")
    put("kclp.rounds", counters["kclp.rounds"], "count")
    put("kclp.pool_rows", counters["kclp.pool_rows"], "count")
    put("cutenum.masks_scanned", counters["cutenum.masks_scanned"], "count")
    put("cutenum.cuts_kept_per_scanned",
        share(counters["cutenum.cuts_kept"], counters["cutenum.masks_scanned"]), "ratio")
    put("rounding.round_solution.s", secs("rounding.round_solution"), "s")
    put("rounding.attempts", counters["rounding.attempts"], "count")
    put("rounding.feasible_per_attempt",
        share(calls("rounding.round_solution"), counters["rounding.attempts"]), "ratio")
    put("oracle.exact_optimum.s", secs("oracle.exact_optimum"), "s")
    put("oracle.exact_optimum.nodes", counters["oracle.exact_optimum.nodes"], "count")
    put("oracle.constraint_rows.s", secs("oracle.constraint_rows"), "s")
    put("oracle.constraint_rows.rows", counters["oracle.constraint_rows.rows"], "count")
    put("oracle.exact_optimum_multicopy.s", secs("oracle.exact_optimum_multicopy"), "s")
    put("oracle.exact_optimum_multicopy.nodes",
        counters["oracle.exact_optimum_multicopy.nodes"], "count")
    put("multicopy.run.s", secs("multicopy.run"), "s")
    put("multicopy.run.iterations", counters["multicopy.run.iterations"], "count")
    put("multicopy.charge_use",
        share(counters["multicopy.cost"], counters["multicopy.charge_bound"]), "ratio")
    put("multicopy.baseline_independent_pairs.s", secs("multicopy.baseline_independent_pairs"), "s")
    put("runtime.gc.collections", tracer.gc_collections, "count")
    put("runtime.gc.s", tracer.gc_ns / 1e9, "s")
    put("trace.instances_per_s", len(times) / sum(times), "1/s")
    put("trace.overhead", sum(times) / sum(untraced), "ratio")
    put("trace.uncovered_share", share(secs("instance", "self_s"), instance_s), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
