"""Run every workload and print every metric by name with its unit.

    python3 perfbench/report.py --seeds 1,2,3 --seconds 30 [--population 2] [--out FILE]

For each workload this runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run on the first seed, each in its own process and one after
another.  It prints the median and quartiles of every end-to-end metric
with its spread (quartile distance over median) next to the bound in
BENCHMARK.json, and the per-layer metrics and tracing overhead of the
traced run.  The wall-clock figures and host speed from each run's
"extra" line are summarised too, without a bound.  ``--out`` also writes all of it, with
the provenance of the runs, as JSON.  Exits 1 when any run fails or
reports a failed instance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
# Unscaled figures from each run's "extra" line, summarised without a bound.
WALL_COLUMNS = (("host_speed", "ratio"), ("wall.instances_per_s", "1/s"),
                ("wall.instance_s.p50", "s"), ("wall.instance_s.tail", "s"), ("wall.setup_s", "s"))


def run_once(workload, seed, seconds, trace, population):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--population", str(population)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    notes = [line for line in lines if line.startswith(("FAIL", "moved", "note", "provenance",
                                                        "workload"))]
    extra = next((json.loads(line[6:]) for line in lines if line.startswith("extra ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr)
    return {"seed": seed, "trace": trace, "exit": proc.returncode, "result": result,
            "extra": extra, "notes": notes}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--population", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the results here as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    doc = {"seconds": args.seconds, "population": args.population, "seeds": seeds,
           "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, args.seconds, 0, args.population) for s in seeds]
        runs.append(run_once(workload, seeds[0], args.seconds, 1, args.population))
        doc["workloads"][workload] = {"runs": runs}
        print(f"== {workload} (population {args.population}, seeds {args.seeds})")
        for run in runs:
            for note in run["notes"]:
                if note.startswith("provenance"):
                    doc.setdefault("provenance", json.loads(note.split(" ", 1)[1]))
                else:
                    print(f"   [seed {run['seed']} trace {run['trace']}] {note}")
            result = run["result"]
            if run["exit"] != 0 or result is None or not result["correct"]:
                ok = False
                print(f"   run seed {run['seed']} trace {run['trace']} FAILED (exit {run['exit']})")

        plain = [r for r in runs if r["trace"] == 0 and r["result"]]
        summary = {}
        if plain:
            attempted = sum(r["result"]["attempted"] for r in plain)
            failed = sum(r["result"]["failed"] for r in plain)
            print(f"   fail_rate {failed / attempted:.4f} ({failed} of {attempted} instances)")
            print(f"   {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
                  f"{'bound':>6s} unit")
            columns = [(name, metric["unit"], [r["result"]["metrics"][name]["value"] for r in plain])
                       for name, metric in plain[0]["result"]["metrics"].items()]
            if all(r["extra"] for r in plain):
                columns += [(name, unit, [r["extra"][name] for r in plain])
                            for name, unit in WALL_COLUMNS]
            for name, unit, values in columns:
                if len(values) > 1:
                    median, q1, q3, share = spread(values)
                else:
                    median = q1 = q3 = values[0]
                    share = 0.0
                summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                                 "unit": unit}
                bound = f"{bounds[name]:6.3f}" if name in bounds else "     -"
                print(f"   {name:24s} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
                      f"{bound} {unit}")
        traced = [r["result"] for r in runs if r["trace"] == 1 and r["result"]]
        if traced:
            layers = traced[0]["metrics"]
            print("   per-layer metrics, one traced pass:")
            for name, metric in layers.items():
                print(f"     {name:46s} {metric['value']:14.6g} {metric['unit']}")
            print(f"   tracing overhead: traced/untraced time of the same instances = "
                  f"{layers['trace.overhead']['value']:.4f}")
        doc["workloads"][workload]["summary"] = summary

    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
