"""The example scripts under scripts/ run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_random_graph_sweep_prints_its_table():
    out = _run("random_graph_sweep.py", "--n", "8", "--m-init", "9", "--c", "8", "--k-max", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "n=8 m_init=9 c=8 seed=0"
    assert lines[1].split() == ["k", "tau_greedy", "tau_rounded", "opt", "lower", "upper", "gap"]
    assert [line.split()[0] for line in lines[2:]] == ["1", "2"]


def test_intel_pipeline_help():
    out = _run("intel_pipeline.py", "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: intel_pipeline.py")
    assert "Full pipeline on the Intel Research Lab pose graph." in out.stdout
