"""The example scripts under scripts/ run end to end as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

from treesynth.cli import main

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


def test_intel_pipeline_help():
    out = _run("intel_pipeline.py", "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: intel_pipeline.py")
    assert "Full pipeline on the Intel Research Lab pose graph." in out.stdout


def test_intel_pipeline_certifies_like_the_cli(tmp_path):
    mini = ROOT / "tests" / "data" / "mini.g2o"
    out = _run("intel_pipeline.py", "--dataset", str(mini), "--k", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "dataset", "poses", "full-graph objective", "greedy", "relaxation", "certificate",
    ]
    artifact = tmp_path / "cert.json"
    assert main(["certify", "--g2o", str(mini), "--k", "2", "--output", str(artifact)]) == 0
    bundle = json.loads(artifact.read_text())["bundle"]
    _, lower, *between, upper = lines[-1].split()[:6]
    assert between == ["<=", "OPT", "<="]
    assert (lower, upper) == (f"{bundle['lower']:.6f}", f"{bundle['upper']:.6f}")
    # the legs' lines print the values the bundle was built from
    assert lines[3].startswith(f"greedy: tau={bundle['tau_greedy']:.6f} ")
    assert lines[4].startswith(
        f"relaxation: tau*={bundle['tau_cvx_star']:.6f} rounded={bundle['tau_cvx']:.6f} "
    )
