"""Paired benchmark of the working tree against a base commit.

Runs the unchanged ``perfbench/run.py`` alternately in a temporary
export of the base commit (``git archive``) and in this working tree,
``--pairs`` times per workload and seed; within each pair the side that
runs first alternates, so a drift in the machine's speed does not favour
either. Each run's last line of standard output is its JSON result, and
its ``metric`` lines add the metrics that JSON leaves out. The
output file holds every run's metrics and, per workload, seed and metric,
each side's median and quartiles and the number of pairs the change won,
and per workload and seed each side's quartiles of the runs' attempted
instance counts, by which a per-process figure such as peak_rss_mb can be
read per call, and of the runs' minor page faults per attempted instance
(the run process's faults, from getrusage, over its attempted count). A
fault count that jumps between sides on code the change does not touch
is a sign of a different heap layout, not of different work. After
writing the file it prints the verdict: per workload, seed and end-to-end
metric of BENCHMARK.json and then every other metric the runs reported,
each side's median, the relative change, the pairs won and whether the
change is clear, and each side's faults per call in quartiles.

Usage:
    python scripts/paired_bench.py --base HEAD~1 --workload posegraph-300 \\
        --seed 1 --seed 3 --seconds 55 --pairs 10 --output BENCH_name.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def parse_run(stdout: str) -> dict:
    """A run's result: the JSON object on its last non-empty line of output.

    Its ``metrics`` also gain every ``metric NAME UNIT {...}`` line the run
    printed for a metric the JSON does not hold (round_rand_s, fail_ratio,
    opt_gap), valued at the record's median, or else its value.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    metrics = result.setdefault("metrics", {})
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, unit, rec = line.split(" ", 3)
            rec = json.loads(rec)
            metrics.setdefault(name, {"value": rec.get("median", rec.get("value")), "unit": unit})
    return result


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile, and their distance (inclusive method)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload, seed and metric: each side's quartiles, and the change's wins.

    ``runs`` holds one record per run: workload, seed, pair, side and the
    run's parsed JSON (``result``). ``better`` maps a metric to "lower" or
    "higher"; metrics it does not name are lower-is-better. A pair is a
    win when the change's value is strictly better than the base's;
    ``clear`` says whether the medians differ, in the better direction, by
    more than the base's interquartile range. Beside the metrics, the
    entries ``attempted`` and ``minflt_per_call`` hold each side's
    quartiles of the runs' attempted counts and of the runs' minor page
    faults per attempted instance (a run record's ``minflt_per_call``).
    """
    values: dict = {}
    counts: dict = {}
    for r in runs:
        slot = values.setdefault(r["workload"], {}).setdefault(str(r["seed"]), {})
        for metric, rec in r["result"].get("metrics", {}).items():
            slot.setdefault(metric, {}).setdefault(r["pair"], {})[r["side"]] = rec["value"]
        for name, value in (("attempted", r["result"].get("attempted")),
                            ("minflt_per_call", r.get("minflt_per_call"))):
            if value is not None:
                per_side = counts.setdefault((r["workload"], str(r["seed"]), name), {})
                per_side.setdefault(r["side"], []).append(value)
    out: dict = {}
    for (workload, seed, name), per_side in counts.items():
        out.setdefault(workload, {}).setdefault(seed, {})[name] = {
            side: quartiles(per_side[side]) for side in SIDES if side in per_side}
    for workload, seeds in values.items():
        for seed, metrics in seeds.items():
            for metric, pairs in metrics.items():
                sign = -1.0 if better.get(metric, "lower") == "higher" else 1.0
                both = [p for p in pairs.values() if all(s in p for s in SIDES)]
                if not both:
                    continue
                side = {s: quartiles([p[s] for p in both]) for s in SIDES}
                gain = sign * (side["base"]["median"] - side["change"]["median"])
                base_median = side["base"]["median"]
                out.setdefault(workload, {}).setdefault(seed, {})[metric] = {
                    "better": "higher" if sign < 0 else "lower",
                    **side,
                    "change_rel": (side["change"]["median"] - base_median) / base_median
                    if base_median else None,
                    "wins": sum(sign * (p["base"] - p["change"]) > 0 for p in both),
                    "pairs": len(both),
                    "clear": gain > side["base"]["iqr"],
                }
    return out


def verdict_lines(summary: dict, metrics: list[str]) -> list[str]:
    """The summary's verdict as text, per workload and seed.

    One line per metric of ``metrics`` that the summary holds, then per
    other metric it holds (such as round_rand_s), in name order: each
    side's median, the relative change, the pairs the change won and
    whether the change is clear; then one line with each side's minor page
    faults per call, median [first-third quartile].
    """
    lines = []
    for workload, seeds in summary.items():
        for seed, entries in seeds.items():
            others = sorted(set(entries) - set(metrics) - {"attempted", "minflt_per_call"})
            for metric in [*metrics, *others]:
                m = entries.get(metric)
                if m is None:
                    continue
                rel = "n/a" if m["change_rel"] is None else f"{m['change_rel']:+.1%}"
                lines.append(
                    f"{workload} seed {seed} {metric}: base {m['base']['median']:.6g} "
                    f"change {m['change']['median']:.6g} ({rel}), "
                    f"wins {m['wins']}/{m['pairs']}, clear {'yes' if m['clear'] else 'no'}")
            faults = entries.get("minflt_per_call")
            if faults:
                lines.append(f"{workload} seed {seed} faults per call: " + ", ".join(
                    f"{side} {q['median']:.1f} [{q['q1']:.1f}-{q['q3']:.1f}]"
                    for side, q in faults.items()))
    return lines


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int]:
    """The run's JSON result and the minor page faults of its process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}")
    return parse_run(proc.stdout), faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--output", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    base_sha = _git("rev-parse", args.base)
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        tree = {"base": Path(tmp) / "base", "change": ROOT}
        tree["base"].mkdir()
        archive = subprocess.run(["git", "archive", base_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree["base"])], input=archive, check=True)
        for workload in args.workload:
            for seed in args.seed:
                for pair in range(args.pairs):
                    for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                        result, faults = _run(tree[side], workload, seed, args.seconds)
                        attempted = result.get("attempted")
                        per_call = faults / attempted if attempted else None
                        runs.append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": side, "result": result,
                                     "minflt_per_call": per_call})
                        got = result["metrics"]
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              + " ".join(f"{k}={v['value']:.6g}" for k, v in got.items())
                              + f" attempted={attempted} minflt_per_call="
                              + (f"{per_call:.1f}" if per_call is not None else "None"),
                              flush=True)

    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "base": base_sha,
        "change": f"working tree on {_git('rev-parse', 'HEAD')}"
                  + (" with uncommitted changes" if _git("status", "--porcelain") else ""),
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "nproc": os.cpu_count()},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.output}")
    for line in verdict_lines(doc["summary"], [m["name"] for m in spec.get("end_to_end", [])]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
