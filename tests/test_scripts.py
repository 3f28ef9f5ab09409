"""The example scripts under scripts/ run end to end as subprocesses, and
the README's library quick start runs as written."""

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # minor page faults per attempted instance: the change's heap layout differs
    faults = [(280.0, 4100.0), (290.0, 4300.0), (285.0, 4200.0), (295.0, 4338.0),
              (278.0, 4114.0)]
    # round_rand_s, printed only on a metric line; the change halves it
    rounding = [(0.0020, 0.0010), (0.0021, 0.0011), (0.0019, 0.0010), (0.0020, 0.0009),
                (0.0022, 0.0010)]
    runs = []
    for pair, (values, attempted, minflt, rr) in enumerate(zip(times, counts, faults, rounding)):
        for side, value, n, per_call, rr_s in zip(("base", "change"), values, attempted, minflt,
                                                  rr):
            stdout = "\n".join([
                "workload posegraph-300 seed 1 trace 0",
                # the JSON line's value wins over a metric line's
                'metric greedy_s s {"median": 0.0}',
                "metric round_rand_s s " + json.dumps({"median": rr_s, "n": 30}),
                'metric fail_ratio ratio {"attempted": {"relax": 30}, "failed": {}, "value": 0.0}',
                json.dumps({"correct": True, "attempted": n, "metrics": {
                    "greedy_s": {"value": value, "unit": "s"},
                    "cert_width": {"value": 16.25, "unit": "nats"},
                }}),
                "",
            ])
            result = pb.parse_run(stdout)
            assert result["metrics"]["round_rand_s"] == {"value": rr_s, "unit": "s"}
            assert result["metrics"]["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
            runs.append({"workload": "posegraph-300", "seed": 1, "pair": pair, "side": side,
                         "result": result, "minflt_per_call": per_call})
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
    # and so do each side's quartiles of the faults per attempted instance
    minflt = summary["minflt_per_call"]
    assert (minflt["base"]["q1"], minflt["base"]["median"], minflt["base"]["q3"]) == (
        280.0, 285.0, 290.0)
    assert (minflt["change"]["q1"], minflt["change"]["median"],
            minflt["change"]["q3"]) == (4114.0, 4200.0, 4300.0)
    assert minflt["base"]["n"] == minflt["change"]["n"] == 5
    # the metric lines' metrics reach the summary
    assert summary["round_rand_s"]["base"]["median"] == 0.002
    assert summary["round_rand_s"]["change"]["median"] == 0.001
    assert summary["round_rand_s"]["wins"] == 5 and summary["round_rand_s"]["clear"]
    assert summary["fail_ratio"]["change_rel"] is None and summary["fail_ratio"]["wins"] == 0
    # the printed verdict: one line per end-to-end metric held, then the
    # other metrics by name, then the faults
    lines = pb.verdict_lines(pb.summarize(runs, {"greedy_s": "lower"}),
                             ["greedy_s", "cert_width", "peak_rss_mb"])
    assert lines == [
        "posegraph-300 seed 1 greedy_s: base 0.021 change 0.016 (-23.8%), wins 4/5, clear yes",
        "posegraph-300 seed 1 cert_width: base 16.25 change 16.25 (+0.0%), wins 0/5, clear no",
        "posegraph-300 seed 1 fail_ratio: base 0 change 0 (n/a), wins 0/5, clear no",
        "posegraph-300 seed 1 round_rand_s: base 0.002 change 0.001 (-50.0%), wins 5/5, "
        "clear yes",
        "posegraph-300 seed 1 faults per call: base 285.0 [280.0-290.0], "
        "change 4200.0 [4114.0-4300.0]",
    ]


def test_paired_bench_help():
    out = _run("paired_bench.py", "--help")
    assert out.returncode == 0, out.stderr
    assert "Paired benchmark of the working tree against a base commit." in out.stdout


def test_tau_crossover_runs_and_agrees(tmp_path):
    from treesynth import graphs

    out = tmp_path / "crossover.json"
    proc = _run("tau_crossover.py", "--repeat", "1", "--number", "1", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["cut"] == graphs.LEMMA_MAX_EXTRA
    assert set(doc["orders"]) == {"posegraph-300", "intel-shape"}
    for name, order in doc["orders"].items():
        # a case on each side of the cut, and both routes give one tau
        assert {case["route"] for case in order["cases"]} == {"lemma", "dense"}, name
        assert all(abs(case["tau_diff"]) <= 1e-9 for case in order["cases"]), name


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    first, second = printed.getvalue().splitlines()
    assert float(first) == pytest.approx(math.log(11), rel=1e-15)
    lower, upper, width = map(float, second.split())
    assert lower <= upper and width == upper - lower
