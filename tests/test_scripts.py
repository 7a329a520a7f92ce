"""The sweep scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import capnet

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(*argv):
    src = Path(capnet.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=300, env=env)


def test_sweep_scripts_smoke():
    gap = _run(SCRIPTS / "gap_sweep.py")
    assert gap.returncode == 0, gap.stderr
    lines = gap.stdout.splitlines()
    assert lines[0] == "family,R,plain_lp,cover_lp,reference,exact,gap"
    assert "triangle,2,50,100,,100,2" in lines
    ratios = _run(SCRIPTS / "multicopy_ratios.py", "--trials", "2")
    assert ratios.returncode == 0, ratios.stderr
    assert ratios.stdout.splitlines()[0] == (
        "trial,n,m,pairs,forest_cost,ell_total,charge_bound,"
        "baseline_cost,oracle_cost,ratio_oracle,ratio_baseline"
    )
