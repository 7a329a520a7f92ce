"""Command line behavior: formats, determinism, exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import capnet
from capnet.cli import CSV_COLUMNS, CSV_SCHEMA, main
from capnet.graphs import (
    CutFamily,
    FlowResult,
    Instance,
    Uniform,
    cut_family,
    parse_instance,
    serialize_instance,
)
from capnet.multicopy import run as run_multicopy
from capnet.oracle import (
    CopyOptimum,
    gen_label_cover_reduction,
    gen_random,
    gen_triangle_gap,
    sample_yes_instances,
)


def _write_instance(tmp_path, instance, name="inst.json"):
    path = tmp_path / name
    path.write_text(serialize_instance(instance))
    return str(path)


def _read_report(text):
    """Split a CSV report into (rows as dicts, trailing comment lines)."""
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA
    comments = [l for l in lines[1:] if l.startswith("#")]
    data = [l for l in lines[1:] if not l.startswith("#")]
    reader = csv.reader(data)
    header = next(reader)
    assert tuple(header) == CSV_COLUMNS
    return [dict(zip(header, row)) for row in reader], comments


def _stderr_error(capsys):
    err = [l for l in capsys.readouterr().err.splitlines()
           if l.startswith("{")]
    assert err, "expected a JSON error line on stderr"
    return json.loads(err[-1])


# ---------------------------------------------------------------------------
# gen

def test_gen_is_canonical_and_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--kind", "uniform", "--n", "6", "--m", "9", "--seed", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = parse_instance(out1.read_text())
    assert inst.n == 6 and inst.m == 9
    # Without --out the document goes to stdout.
    assert main(argv) == 0
    assert capsys.readouterr().out == out1.read_text()


def test_gen_requires_a_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "uniform", "--n", "5", "--m", "7"])
    assert exc.value.code == 1
    assert _stderr_error(capsys)["error"] == "UsageError"


def test_gen_refuses_more_pairs_than_vertex_pairs(capsys):
    argv = ["gen", "--kind", "pairs", "--n", "2", "--m", "1", "--pairs", "2", "--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(l)["error"] for l in err if l.startswith("{")] == ["ValueError"]


def test_gen_draws_every_vertex_pair(capsys):
    argv = ["gen", "--kind", "pairs", "--n", "20", "--m", "19", "--pairs", "190", "--seed", "1"]
    assert main(argv) == 0
    assert len(parse_instance(capsys.readouterr().out).requirements.pairs) == 190


# ---------------------------------------------------------------------------
# solve

def test_solve_reports_costs_and_ratio(tmp_path, capsys):
    inst = gen_random("uniform", n=6, m=9, seed=4)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path, "--seed", "3", "--oracle"]) == 0
    rows, _ = _read_report(capsys.readouterr().out)
    (row,) = rows
    assert row["instance"] == path
    assert row["variant"] == "uniform"
    assert (int(row["n"]), int(row["m"])) == (6, 9)
    assert int(row["attempts"]) >= 1
    assert row["seed"] == "3"
    lp, alg, oracle = (Fraction(row[c]) for c in ("lp_cost", "alg_cost", "oracle_cost"))
    assert lp <= oracle <= alg
    assert Fraction(row["ratio"]) == alg / oracle


def test_kway_solve_with_oracle_builds_one_cut_family(tmp_path, capsys, monkeypatch):
    path = _write_instance(tmp_path, gen_random("kway", n=7, m=11, seed=3, levels=2))
    built = []
    init = CutFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CutFamily, "__init__", counting_init)
    cut_family.cache_clear()
    assert main(["solve", path, "--seed", "3", "--oracle"]) == 0
    rows, _ = _read_report(capsys.readouterr().out)
    assert rows[0]["oracle_cost"]
    assert len(built) == 1  # the solve's family serves rounding and the oracle


def test_solve_trace_document(tmp_path):
    inst = gen_random("pairs", n=5, m=8, seed=9, pairs=2)
    path = _write_instance(tmp_path, inst)
    trace_path = tmp_path / "trace.json"
    out_path = tmp_path / "row.csv"
    assert main(["solve", path, "--seed", "1", "--oracle",
                 "--trace", str(trace_path), "--out", str(out_path)]) == 0
    trace = json.loads(trace_path.read_text())
    assert trace["schema"] == "capnet.solve-trace.v1"
    assert trace["certificate"]["schema"] == "capnet.good-solution.v1"
    assert trace["rounding"]["attempts"]
    assert "oracle_cost" in trace
    rows, _ = _read_report(out_path.read_text())
    assert Fraction(rows[0]["alg_cost"]) == Fraction(trace["rounding"]["cost"])


def test_solve_multicopy_row_shape(tmp_path, capsys):
    inst = gen_random("pairs", n=5, m=8, seed=2, pairs=2, demand_cap=4)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path, "--alg", "multicopy", "--oracle"]) == 0
    rows, _ = _read_report(capsys.readouterr().out)
    (row,) = rows
    assert row["variant"] == "multicopy"
    assert row["lp_cost"] == "" and row["attempts"] == "" and row["seed"] == ""
    assert Fraction(row["alg_cost"]) >= Fraction(row["oracle_cost"])


def test_solve_alg_mismatch(tmp_path, capsys):
    inst = gen_random("uniform", n=5, m=7, seed=1)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path, "--alg", "near-uniform", "--seed", "0"]) == 1
    assert _stderr_error(capsys)["error"] == "ValueError"
    assert main(["solve", path, "--alg", "multicopy"]) == 1


def test_solve_requires_seed_for_rounding(tmp_path, capsys):
    inst = gen_random("uniform", n=5, m=7, seed=1)
    path = _write_instance(tmp_path, inst)
    assert main(["solve", path]) == 1
    assert "--seed" in _stderr_error(capsys)["message"]


def test_solve_missing_and_mangled_files(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), "--seed", "0"]) == 1
    assert _stderr_error(capsys)["error"] == "FileNotFoundError"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--seed", "0"]) == 1
    assert _stderr_error(capsys)["error"] == "InstanceFormatError"


def test_solve_bad_gamma(tmp_path, capsys):
    inst = gen_random("pairs", n=5, m=7, seed=1)
    path = _write_instance(tmp_path, inst)
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--seed", "0", "--gamma", "fast"])
    assert exc.value.code == 1
    assert _stderr_error(capsys)["error"] == "UsageError"


def test_solve_refuses_gamma_without_meaning(tmp_path, capsys):
    uniform = _write_instance(tmp_path, gen_random("uniform", n=5, m=7, seed=1), "uniform.json")
    pairs = _write_instance(tmp_path, gen_random("pairs", n=5, m=7, seed=1), "pairs.json")
    for argv in (["solve", uniform, "--seed", "3"], ["solve", pairs, "--alg", "multicopy"]):
        assert main(argv + ["--gamma", "1/2"]) == 1
        err = _stderr_error(capsys)
        assert err["error"] == "ValueError" and "gamma" in err["message"]


def test_solve_infeasible_instance(tmp_path, capsys):
    split = Instance(4, ((0, 1, 2, 1), (2, 3, 2, 1)), Uniform(1))
    path = _write_instance(tmp_path, split)
    assert main(["solve", path, "--seed", "0"]) == 2
    assert _stderr_error(capsys)["error"] == "InfeasibleError"


# ---------------------------------------------------------------------------
# bench

BENCH = ["bench", "--alg", "uniform", "--trials", "3", "--seed", "11",
         "--n", "6", "--m", "10", "--oracle"]


def test_bench_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(BENCH + ["--out", str(a)]) == 0
    assert main(BENCH + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows, comments = _read_report(a.read_text())
    assert len(rows) == 3
    assert all(Fraction(r["ratio"]) >= 1 for r in rows)
    assert any("mean_ratio=" in c for c in comments)
    assert any("max_ratio=" in c for c in comments)


def test_bench_without_oracle_has_no_ratio(tmp_path, capsys):
    assert main(["bench", "--alg", "near-uniform", "--trials", "2",
                 "--seed", "5", "--n", "6", "--m", "9", "--pairs", "2"]) == 0
    rows, comments = _read_report(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(r["ratio"] == "" and r["oracle_cost"] == "" for r in rows)
    assert comments == ["# aggregate ratio=n/a"]


def test_bench_zero_trials(capsys):
    assert main(["bench", "--alg", "uniform", "--trials", "0",
                 "--seed", "1", "--n", "5", "--m", "7"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [CSV_SCHEMA, ",".join(CSV_COLUMNS)]


def test_bench_over_the_node_budget_flushes_its_rows_and_exits_2(capsys, monkeypatch):
    # The three trials' subset searches take 135, 151 and 45 nodes, so
    # a budget of 140 stops the second one.
    monkeypatch.setattr("capnet.oracle.NODE_BUDGET", 140)
    assert main(["bench", "--alg", "uniform", "--trials", "3", "--seed", "1",
                 "--n", "8", "--m", "14", "--oracle"]) == 2
    captured = capsys.readouterr()
    rows, _ = _read_report(captured.out)  # checks the header lines too
    assert [r["instance"] for r in rows] == ["gen-uniform-0"]
    errors = [json.loads(l) for l in captured.err.splitlines() if l.startswith("{")]
    assert errors == [{"error": "CapabilityError",
                       "message": "search passed NODE_BUDGET = 140 nodes"}]


def test_bench_json_format(capsys):
    assert main(["bench", "--alg", "multicopy", "--trials", "2",
                 "--seed", "7", "--n", "5", "--m", "8", "--cost-lo", "1",
                 "--demand-cap", "3", "--oracle", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "capnet.report.v1"
    assert len(doc["rows"]) == 2
    assert doc["aggregates"]
    for row in doc["rows"]:
        assert row["variant"] == "multicopy"
        assert "lp_cost" not in row
        assert Fraction(row["ratio"]) >= 1


# ---------------------------------------------------------------------------
# verify and exact

def test_verify_passes_the_builtin_checks(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert all(l.startswith("ok  ") for l in lines)
    detail = dict(l[5:].split(": ", 1) for l in lines)
    assert detail["triangle-gap-R2"] == (
        "plain 50 (want 50), cover 100 and optimum 100 (want 100), edges [0, 1, 2], gap 2")
    assert detail["star-gap-R8"] == (
        "reference 24 (want 24), 0 violated conditions, optimum 36 (want 36), gap 3/2")
    assert detail["multicopy-ratios"] == (
        "40 instances, forest/oracle mean 98641/97240 max 13/11, "
        "forest/baseline max 14/13, oracle above either on 0")
    assert detail["implied-rows-anchor"] == (
        "235 of 435 pool rows packed, every row packed gives the same x and cost 38")


def test_verify_fails_an_oracle_above_the_forest(capsys, monkeypatch):
    # An "optimum" one above the forest's cost: the forest beats it.
    monkeypatch.setattr(
        "capnet.cli.exact_optimum_multicopy",
        lambda instance: CopyOptimum(run_multicopy(instance).cost + 1, (), 0),
    )
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    failed = [l for l in captured.out.splitlines() if not l.startswith("ok  ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL multicopy-ratios: 40 instances, ")
    assert failed[0].endswith(", oracle above either on 40")
    assert "failed checks: multicopy-ratios" in captured.err


def test_verify_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        "capnet.cli._verify_checks",
        lambda: iter([("doomed", False, "synthetic failure")]),
    )
    assert main(["verify"]) == 3
    assert capsys.readouterr().out.startswith("FAIL doomed")


@pytest.mark.parametrize("command,flag", [
    ("verify", "--format=json"), ("verify", "--seed=1"), ("verify", "--force"),
    ("exact", "--format=csv"), ("exact", "--seed=1"), ("exact", "--force"),
    ("gen", "--format=json"), ("gen", "--force"),
])
def test_flags_a_subcommand_ignores_are_usage_errors(command, flag, capsys):
    argv = {"verify": ["verify"], "exact": ["exact", "inst.json"],
            "gen": ["gen", "--kind", "uniform", "--n", "5", "--m", "7", "--seed", "1"]}
    with pytest.raises(SystemExit) as exc:
        main(argv[command] + [flag])
    assert exc.value.code == 1
    error = _stderr_error(capsys)
    assert error["error"] == "UsageError"
    assert error["message"] == f"unrecognized arguments: {flag}"


def test_broken_invariant_exits_3(tmp_path, capsys, monkeypatch):
    inst = gen_random("pairs", n=5, m=8, seed=2, pairs=2, demand_cap=4)
    path = _write_instance(tmp_path, inst)
    # A max flow that always reports zero breaks the per-pair check.
    monkeypatch.setattr("capnet.multicopy.max_flow",
                        lambda *args, **kw: FlowResult(0, True, frozenset()))
    assert main(["solve", path, "--alg", "multicopy"]) == 3
    assert _stderr_error(capsys)["error"] == "InvariantError"


UNDER_O = """
import sys
from fractions import Fraction
import capnet.kclp, capnet.multicopy
from capnet import InvariantError, gen_random, round_solution, run_multicopy, solve_good
from capnet.graphs import FlowResult
if not sys.flags.optimize:
    sys.exit("not running under -O")
sol, _ = solve_good(gen_random("uniform", 6, 10, 8), seed=8)
round_solution(sol, seed=8)
pairs = gen_random("pairs", 5, 8, 2, pairs=2, demand_cap=4)
run_multicopy(pairs)
capnet.multicopy.max_flow = lambda *args, **kw: FlowResult(0, True, frozenset())
# An LP that always answers x = 0 leaves round 1's rows violated, all in the pool.
capnet.kclp.solve_box_covering_lp = lambda costs, rows: ([Fraction(0)] * len(costs), Fraction(0))
for call in (lambda: run_multicopy(pairs), lambda: solve_good(gen_random("uniform", 6, 10, 8))):
    try:
        call()
    except InvariantError as exc:
        print("tripped:", exc)
"""


def test_invariants_survive_python_O():
    src = Path(capnet.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", UNDER_O],
                         capture_output=True, text=True, timeout=300, env=env)
    assert run.returncode == 0, run.stderr
    flow, stall = run.stdout.splitlines()
    assert flow.startswith("tripped: pair ") and flow.endswith(" left infeasible; this is a bug")
    assert stall == "tripped: separation reported violations but none were new"
    verify = subprocess.run([sys.executable, "-O", "-m", "capnet", "verify"],
                            capture_output=True, text=True, timeout=300, env=env)
    assert verify.returncode == 0, verify.stderr
    lines = verify.stdout.splitlines()
    assert len(lines) == 16 and all(l.startswith("ok  ") for l in lines)


def test_exact_subset_and_copy_documents(tmp_path, capsys):
    inst = gen_random("pairs", n=4, m=5, seed=6, demand_cap=4)
    path = _write_instance(tmp_path, inst)
    assert main(["exact", path]) == 0
    subset = json.loads(capsys.readouterr().out)
    assert set(subset) == {"cost", "edges"}
    assert main(["exact", path, "--multicopy"]) == 0
    copies = json.loads(capsys.readouterr().out)
    assert set(copies) == {"cost", "copies"}
    assert len(copies["copies"]) == inst.m


def test_exact_past_the_old_edge_caps(tmp_path, capsys):
    # m = 26 and m = 13, past the subset and copy oracles' old edge caps
    # of 24 and 12; tests/test_oracle.py pins the same optima.
    subset = _write_instance(tmp_path, gen_random("uniform", 12, 26, 500), "subset.json")
    assert main(["exact", subset]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == "48"
    pairs = _write_instance(tmp_path, gen_random("pairs", 8, 13, 501, pairs=3), "pairs.json")
    assert main(["exact", pairs, "--multicopy"]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == "24"


def test_exact_over_its_node_budget_exits_1(tmp_path, capsys, monkeypatch):
    # tests/test_oracle.py runs this search to the real budget; a smaller
    # one keeps the CLI path quick.
    monkeypatch.setattr("capnet.oracle.NODE_BUDGET", 10_000)
    path = _write_instance(tmp_path, gen_label_cover_reduction(sample_yes_instances()[3]))
    assert main(["exact", path, "--multicopy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [json.loads(l) for l in captured.err.splitlines() if l.startswith("{")]
    assert errors == [{"error": "CapabilityError",
                       "message": "search passed NODE_BUDGET = 10000 nodes"}]


def test_solve_past_its_round_cap_exits_1(tmp_path, capsys, endless_separation):
    path = _write_instance(tmp_path, gen_triangle_gap(2, 1))
    assert main(["solve", path, "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [json.loads(l) for l in captured.err.splitlines() if l.startswith("{")]
    message = "cutting-plane loop passed its round cap 50 * m * n = 450 rounds"
    assert errors == [{"error": "CapabilityError", "message": message}]


def test_console_script_smoke(tmp_path):
    # Install the declared entry point the way an installer does, so the
    # test runs this checkout and not whatever `capnet` is on PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        spec = tomllib.load(f)["project"]["scripts"]["capnet"]
    ep = EntryPoint("capnet", spec, "console_scripts")
    script = tmp_path / "bin" / "capnet"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n"
    )
    script.chmod(0o755)
    src = Path(capnet.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(script.parent), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    exe = shutil.which("capnet", path=env["PATH"])
    assert exe == str(script), "console script should be installed"
    proc = subprocess.run(
        ["capnet", "gen", "--kind", "uniform", "--n", "5", "--m", "7", "--seed", "2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    inst = parse_instance(proc.stdout)
    assert inst.n == 5
    assert "wall time:" in proc.stderr
