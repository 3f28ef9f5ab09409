"""The example scripts under scripts/ run end to end as subprocesses."""

import importlib.util
import json
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


def _paired_bench():
    spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_bench_summarizes_canned_runs():
    pb = _paired_bench()
    # greedy_s per pair (base, change); the change wins pairs 0-3 and loses pair 4
    times = [(0.020, 0.015), (0.022, 0.016), (0.021, 0.017), (0.023, 0.015), (0.016, 0.018)]
    # instances attempted per run: the faster change fits more into a run
    counts = [(40, 60), (42, 57), (41, 62), (39, 61), (44, 55)]
    runs = []
    for pair, (values, attempted) in enumerate(zip(times, counts)):
        for side, value, n in zip(("base", "change"), values, attempted):
            stdout = "\n".join([
                "workload posegraph-300 seed 1 trace 0",
                'metric greedy_s s {"median": 0.0}',
                json.dumps({"correct": True, "attempted": n, "metrics": {
                    "greedy_s": {"value": value, "unit": "s"},
                    "cert_width": {"value": 16.25, "unit": "nats"},
                }}),
                "",
            ])
            runs.append({"workload": "posegraph-300", "seed": 1, "pair": pair, "side": side,
                         "result": pb.last_json(stdout)})
    summary = pb.summarize(runs, {"greedy_s": "lower"})["posegraph-300"]["1"]
    greedy = summary["greedy_s"]
    assert greedy["base"]["median"] == 0.021
    assert (greedy["base"]["q1"], greedy["base"]["q3"]) == (0.020, 0.022)
    assert greedy["change"]["median"] == 0.016
    assert greedy["wins"] == 4 and greedy["pairs"] == 5
    assert greedy["clear"]  # 0.005 apart, base IQR 0.002
    assert greedy["change_rel"] == (0.016 - 0.021) / 0.021
    # equal values win no pair and are not a clear change
    width = summary["cert_width"]
    assert width["wins"] == 0 and not width["clear"] and width["better"] == "lower"
    # a higher-is-better metric counts wins the other way
    flipped = pb.summarize(runs, {"greedy_s": "higher"})["posegraph-300"]["1"]["greedy_s"]
    assert flipped["wins"] == 1 and not flipped["clear"]
    # each side's attempted counts, in quartiles, sit beside the metrics
    attempted = summary["attempted"]
    assert set(attempted) == {"base", "change"}
    assert (attempted["base"]["q1"], attempted["base"]["median"], attempted["base"]["q3"]) == (
        40, 41, 42)
    assert (attempted["change"]["q1"], attempted["change"]["median"],
            attempted["change"]["q3"]) == (57, 60, 61)
    assert attempted["change"]["n"] == 5


def test_paired_bench_help():
    out = _run("paired_bench.py", "--help")
    assert out.returncode == 0, out.stderr
    assert "Paired benchmark of the working tree against a base commit." in out.stdout
