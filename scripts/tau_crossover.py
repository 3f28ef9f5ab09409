"""Where the tau rule's determinant lemma stops being faster than the dense factor.

A connected graph that holds the path 1-2-...-n plus |X| other edges has
two exact routes to its tau: the determinant lemma over the path
(``graphs.path_lemma_tau``, an |X| x |X| form built from the path's
closed-form whitening, about |X|^2 order flops) and the dense factor of
its (n-1) x (n-1) reduced Laplacian (about order^3 / 3 flops). This
script times both on the benchmark's seeded pose graphs
(``perfbench/posegraph.py``, read only): the 300-pose graph (order 299,
285 closures) and the Intel-shaped one (order 942, 895 closures), each
with its odometry path plus a seeded random share of its closures, from
30% of the order up to every closure, on the translational weights. Each
case times the two routes alternately, ``--repeat`` times ``--number``
calls each, and keeps each route's fastest mean. The crossing of an order
is the largest share up to which the lemma is never slower; the cut
``graphs.LEMMA_MAX_EXTRA`` is meant to sit at the smallest crossing, so
that no graph of either order takes the slower route below it.

One BLAS thread, set before numpy is imported. At these sizes a lone
call's time also follows glibc's dynamic malloc thresholds (a freed
reduced Laplacian may be unmapped and faulted in again on the next
call), so the committed run pins them, and the output records the
MALLOC_* variables it ran with. Usage:
    MALLOC_MMAP_THRESHOLD_=4194304 MALLOC_TRIM_THRESHOLD_=67108864 \
        PYTHONPATH=src python scripts/tau_crossover.py --output BENCH_tau_crossover.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHARES = [round(0.30 + 0.05 * i, 2) for i in range(15)]  # 0.30 .. 1.00


def _load_posegraph():
    path = ROOT / "perfbench" / "posegraph.py"
    spec = importlib.util.spec_from_file_location("_perfbench_posegraph", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _time_pair(lemma, dense, number: int, repeat: int) -> tuple[float, float]:
    """Each route's fastest mean seconds per call, the two timed alternately."""
    best = [float("inf"), float("inf")]
    for _ in range(repeat):
        for i, f in enumerate((lemma, dense)):
            best[i] = min(best[i], timeit.timeit(f, number=number) / number)
    return best[0], best[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="pose-graph generator seed")
    ap.add_argument("--number", type=int, default=5)
    ap.add_argument("--repeat", type=int, default=9)
    ap.add_argument("--output", type=Path, required=True)
    args = ap.parse_args(argv)

    import treesynth as ts
    from treesynth import graphs

    posegraph = _load_posegraph()
    doc = {"command": "python scripts/tau_crossover.py " + " ".join(argv or sys.argv[1:]),
           "machine": {"platform": platform.platform(), "python": platform.python_version(),
                       "nproc": os.cpu_count(), "blas_threads": 1,
                       "malloc_env": {k: v for k, v in sorted(os.environ.items())
                                      if k.startswith("MALLOC_")}},
           "cut": graphs.LEMMA_MAX_EXTRA, "orders": {}}
    for name, spec in (("posegraph-300", posegraph.MID_SIZE), ("intel-shape", posegraph.INTEL_SHAPED)):
        ds = ts.parse_g2o(posegraph.generate_g2o(spec, args.seed).splitlines())
        closures = [ds.loop_closures[i] for i in
                    np.random.default_rng(args.seed).permutation(len(ds.loop_closures))]
        order = ds.poses - 1
        cases = []
        for share in SHARES:
            x = min(int(share * order), len(closures))
            g = ts.WeightedGraph(ds.poses, tuple((e[0], e[1], e[2]) for e in ds.odometry + tuple(closures[:x])))
            u, v, w = g._columns
            on_path = v - u == 1
            assert np.count_nonzero(on_path) == order, "the odometry is not the path 1-2-...-n"
            pairs, off_w = np.stack((u[~on_path], v[~on_path]), axis=1), w[~on_path]
            lemma = lambda: graphs.path_lemma_tau(w[on_path], pairs, off_w)
            dense = lambda: graphs.build_reduced_laplacian(g).log_det()
            lemma_s, dense_s = _time_pair(lemma, dense, args.number, args.repeat)
            cases.append({"extra": x, "share": x / order, "lemma_ms": lemma_s * 1e3,
                          "dense_ms": dense_s * 1e3, "ratio": lemma_s / dense_s,
                          "tau_diff": lemma() - dense(),
                          "route": "lemma" if x <= graphs.LEMMA_MAX_EXTRA * order else "dense"})
            print(f"{name} order {order} |X| {x} ({x / order:.2f}): lemma {lemma_s * 1e3:.3f} ms, "
                  f"dense {dense_s * 1e3:.3f} ms, ratio {lemma_s / dense_s:.2f}", flush=True)
            if x == len(closures):
                break
        crossing = 0.0
        for case in cases:
            if case["ratio"] > 1.0:
                break
            crossing = case["share"]
        doc["orders"][name] = {"order": order, "closures": len(closures), "crossing": crossing,
                               "cases": cases}
        print(f"{name}: the lemma is never slower up to share {crossing:.2f}", flush=True)
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
