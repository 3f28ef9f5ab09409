"""Benchmark of treesynth: pose-graph certificates and small oracle-checked instances.

One run measures one workload in a fresh process:

    python3 perfbench/run.py --workload posegraph-300 --seed 1 --seconds 55 --trace 0

With ``--trace 0`` nothing is wrapped and the last line of standard output
is a JSON object with the end-to-end metrics. With ``--trace 1`` the
public functions of every treesynth module and the numpy/scipy
linear-algebra calls are wrapped in spans, exactly one pass over the
workload's inputs runs, and the JSON carries per-layer metrics; the spans
are written to ``perfbench/out/``. Lines before the last one report every
metric with its sample count, the failure ledger and the environment.

    python3 perfbench/run.py --all --seed 1 --seconds 55

runs every workload untraced and traced, each in its own process, and
prints each end-to-end metric by name and unit per workload, with the
tracing overhead. Any wrong answer makes either form exit non-zero.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread, set before numpy is first imported, so that timings do
# not depend on how many cores a shared machine leaves free.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

# Runs of the set-up (input generation and warm-up) whose median is setup_s.
SETUP_REPEATS = 3

# The metrics BENCHMARK.json lists as end_to_end, in its order.
END_TO_END = {
    "certify_s": "s",
    "greedy_s": "s",
    "relax_s": "s",
    "cert_width": "nats",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Also reported by every untraced run, but zero or absent on some
# workloads, so not in BENCHMARK.json.
REPORTED = {
    "round_rand_s": "s",
    "fail_ratio": "ratio",
    "opt_gap": "nats",
}
UNITS = {**END_TO_END, **REPORTED}


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import treesynth
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import treesynth from {ROOT / 'src'}: {exc}")
    # measure the checkout's sources, never an installed copy
    if not Path(treesynth.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: treesynth imported from {treesynth.__file__}, not {ROOT / 'src'}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# environment


def _libc_sysconf(name: int) -> int | None:
    import ctypes

    try:
        value = ctypes.CDLL(None).sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        # glibc answers these from cpuid (_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE)
        "l2_bytes": _libc_sysconf(191),
        "l3_bytes": _libc_sysconf(194),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# statistics


def summarize(per_instance: list[list[float]]) -> dict:
    """The mean over instances of each instance's median, the sample count
    and, given enough samples, the highest percentile of all samples that
    still has at least ten samples beyond it.

    A workload's instances differ in size, so a median pooled over all of
    them would be one instance's time; the mean of per-instance medians
    weighs every instance and every pass alike.
    """
    medians = [statistics.median(xs) for xs in per_instance if xs]
    values = sorted(x for xs in per_instance for x in xs)
    out = {"median": statistics.fmean(medians), "n": len(values), "instances": len(medians)}
    if len(values) >= 20:
        p = int(100 * (1 - 10 / len(values)))
        out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one workload


def layer_metrics(summary, outcomes, channels: int, certify_s: float, span_count: int) -> dict:
    s = summary
    chol, _ = s.under("convex.solve_p2", "kernel.cholesky")
    trsm, _ = s.under("convex.solve_p2", "kernel.trsm")
    _, project_s = s.under("convex.solve_p2", "convex.project")
    subsets, _ = s.under("greedy.exhaustive", "greedy.absolute", direct=True)
    rounds = sum(o.greedy_rounds for o in outcomes)

    def med(xs):
        xs = [x for x in xs if x is not None]
        return statistics.median(xs) if xs else 0.0

    m = {
        "greedy.rounds": (rounds, "count"),
        "greedy.round_s": (s.seconds["greedy.greedy_select"] / rounds if rounds else 0.0, "s"),
        "treeconn.batch_resistance.calls": (s.calls["treeconn.batch_resistance"], "count"),
        "treeconn.batch_resistance.columns": (int(s.units["treeconn.batch_resistance"]), "count"),
        "treeconn.batch_resistance.s": (s.seconds["treeconn.batch_resistance"], "s"),
        "graphs.with_edge.calls": (s.calls["graphs.with_edge"], "count"),
        "graphs.with_edge.s": (s.seconds["graphs.with_edge"], "s"),
        "convex.iterations": (sum(o.iterations for o in outcomes), "count"),
        "convex.objective_evals": (trsm // channels, "count"),
        "convex.line_search_evals": ((chol - trsm) // channels, "count"),
        "convex.factorizations": (chol, "count"),
        "convex.project_s": (project_s, "s"),
        "convex.self_s": (s.layer_self["convex"], "s"),
        "convex.kkt_residual": (med(o.kkt_residual for o in outcomes), "1"),
        "convex.fw_gap": (med(o.fw_gap for o in outcomes), "nats"),
        "convex.round_rand.s": (s.seconds["convex.round_rand"], "s"),
        "convex.round_rand.nonfinite": (sum(o.nonfinite for o in outcomes), "count"),
        "graphs.graph_init.calls": (s.calls["graphs.graph_init"], "count"),
        "graphs.graph_init.s": (s.seconds["graphs.graph_init"], "s"),
        "graphs.build_laplacian.calls": (s.calls["graphs.build_laplacian"], "count"),
        "graphs.build_laplacian.s": (s.seconds["graphs.build_laplacian"], "s"),
        "graphs.laplacian_init.calls": (s.calls["graphs.laplacian_init"], "count"),
        "graphs.laplacian_init.s": (s.seconds["graphs.laplacian_init"], "s"),
        "treeconn.tree_connectivity.calls": (s.calls["treeconn.tree_connectivity"], "count"),
        "treeconn.tree_connectivity.s": (s.seconds["treeconn.tree_connectivity"], "s"),
        "greedy.exhaustive.subsets": (subsets, "count"),
        "greedy.exhaustive.s": (s.seconds["greedy.exhaustive"], "s"),
        "cli.self_s": (s.layer_self["cli"], "s"),
        "slam.parse_s": (s.seconds["slam.parse"], "s"),
        "slam.to_instance_s": (s.seconds["slam.to_instance"], "s"),
        "kernel.cholesky.calls": (s.calls["kernel.cholesky"], "count"),
        "kernel.cholesky.gflop_computed": (s.flops["kernel.cholesky"] / 1e9, "GFLOP"),
        "kernel.trsm.columns": (int(s.units["kernel.trsm"]), "count"),
        "kernel.trsm.gflop_computed": (s.flops["kernel.trsm"] / 1e9, "GFLOP"),
        "kernel.det.matrices": (int(s.units["kernel.det"] + s.units["kernel.slogdet"]), "count"),
    }
    for layer in ("slam", "graphs", "treeconn", "greedy", "certificates", "kernel"):
        m[f"{layer}.self_s"] = (s.layer_self[layer], "s")
    m["trace.spans"] = (span_count, "count")
    m["trace.certify_s"] = (certify_s, "s")
    return m


def run_workload(wl_mod, name: str, seed: int, seconds: float, traced: bool) -> int:
    t_import = time.perf_counter() - _T_START
    wl = wl_mod.WORKLOADS[name]
    checks = wl_mod.Checks()
    ledger = wl_mod.Ledger()
    OUT_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = wl.prepare(seed, workdir)
            wl.warm_up(workdir, checks)
            setup.append(time.perf_counter() - t0)

        tracer = None
        if traced:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        tracing = wl_mod.Tracing(tracer)

        per_instance = [[] for _ in items]
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            for runs, item in zip(per_instance, items):
                runs.append(wl.run(item, ledger, checks, tracing))
            now = time.perf_counter()
            # Whole passes sample every instance alike; another pass starts
            # only if one as long as the last still ends within --seconds.
            # Traced runs make one pass, so their counts repeat exactly.
            if traced or (now - start) + (now - p0) > seconds:
                break
        if tracer is not None:
            tracer.close()

    outcomes = [o for runs in per_instance for o in runs]
    report = {"setup_s": {"median": t_import + statistics.median(setup), "n": len(setup),
                          "import_s": t_import}}
    for key in ("certify_s", "greedy_s", "relax_s", "round_rand_s", "cert_width", "opt_gap"):
        values = [[getattr(o, key) for o in runs if getattr(o, key) is not None]
                  for runs in per_instance]
        if any(values):
            report[key] = summarize(values)
    report["fail_ratio"] = {"value": ledger.fail_ratio, "attempted": ledger.attempted,
                            "failed": ledger.failed}
    report["peak_rss_mb"] = {"value": peak_rss_mb()}

    print(f"workload {name} seed {seed} trace {int(traced)} instances {len(items)} "
          f"samples {len(outcomes)} stage calls {sum(ledger.attempted.values())}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for key, rec in report.items():
        print(f"metric {key} {UNITS[key]} " + json.dumps(rec, sort_keys=True))
    if traced:
        summary = tracer.summary()
        for (kernel, owner), (calls, units_, flops) in sorted(summary.kernel_by_parent.items()):
            print(f"kernel {kernel} under {owner}: calls {calls} units {int(units_)} "
                  f"gflop_computed {flops / 1e9:.6f}")
        path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
        tracer.save(path)
        print(f"spans {tracer.span_count} written to {path.relative_to(ROOT)}")
        metrics = layer_metrics(summary, outcomes, wl.channels, report["certify_s"]["median"],
                                tracer.span_count)
    else:
        metrics = {}
        for key, unit in END_TO_END.items():
            rec = report.get(key)
            checks.expect(rec is not None, f"{key}: no instance produced a value")
            metrics[key] = (rec.get("median", rec.get("value")) if rec else 0.0, unit)

    for err in checks.errors:
        print(f"WRONG {err}", file=sys.stderr)
    correct = not checks.errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.certified for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload


def run_all(workloads, seed: int, seconds: float) -> int:
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"  {line}")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{name} trace {trace}: exit code {proc.returncode}")
                continue
            results[trace] = lines
        if 0 in results:
            for line in results[0]:
                if line.startswith("metric "):
                    _, key, unit, rec = line.split(" ", 3)
                    rows.append((name, key, unit, json.loads(rec)))
        if 0 in results and 1 in results:
            plain = json.loads(results[0][-1])["metrics"]["certify_s"]["value"]
            traced = json.loads(results[1][-1])["metrics"]["trace.certify_s"]["value"]
            rows.append((name, "trace_overhead", "%", {"value": 100 * (traced / plain - 1)}))

    print(f"{'workload':<15} {'metric':<15} {'unit':<6} {'median':>12} {'n':>4}  more")
    for name, key, unit, rec in rows:
        value = rec.pop("median", rec.pop("value", None))
        n = rec.pop("n", "")
        more = " ".join(f"{k}={v}" for k, v in rec.items())
        print(f"{name:<15} {key:<15} {unit:<6} {value:>12.6g} {n:>4}  {more}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = ap.parse_args(argv)
    if args.all is (args.workload is not None):
        ap.error("pass one of --workload NAME and --all")
    wl_mod = _import_program()
    if args.all:
        return run_all(wl_mod, args.seed, args.seconds)
    if args.workload not in wl_mod.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(wl_mod.WORKLOADS)}")
    return run_workload(wl_mod, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
