"""The benchmark's own test: its work counters repeat exactly.

    python3 -m pytest -q perfbench/test_counters.py

Each case runs a short traced slice of a workload twice, in separate
processes, and requires every count metric (rounds, pool rows, simplex
calls and tableau entries, B&B nodes, partitions built, masks scanned)
to be identical.  The uniform slice is the anchor instance alone, whose
cutting-plane loop takes 14 rounds and ends with 435 pool rows.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
# Garbage collections depend on allocation counts, not only on the work done.
NOT_DETERMINISTIC = {"runtime.gc.collections"}


def traced_counts(workload, limit, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--limit", str(limit)],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"] for name, metric in result["metrics"].items()
        if metric["unit"] == "count" and name not in NOT_DETERMINISTIC
    }


@pytest.mark.parametrize("workload, limit", [("kway-partition", 2), ("pairs-multicopy", 20)])
def test_counters_repeat_across_runs(workload, limit):
    first = traced_counts(workload, limit, seed=1)
    assert first == traced_counts(workload, limit, seed=2)
    assert any(first.values())


def test_anchor_counters_repeat_and_match_the_roadmap():
    first = traced_counts("uniform-lp", 1, seed=1)
    assert first == traced_counts("uniform-lp", 1, seed=2)
    assert first["kclp.rounds"] == 14
    assert first["kclp.pool_rows"] == 435
    assert first["simplex.solve_box_covering_lp.calls"] == 13
