"""Full pipeline on the Intel Research Lab pose graph.

Parses intel.g2o, reports dataset structure, then synthesizes k loop
closures on top of the odometry spanning chain with both selectors and
prints the resulting certificate. Exits quietly when the dataset is not
available; point TREECONN_DATA_DIR at a directory containing intel.g2o
to run it.

Usage: python scripts/intel_pipeline.py [--k 161] [--tolerance 1e-7]
"""

import argparse
import sys
import time

from treesynth import (
    build_bundle,
    dataset_proxy,
    find_dataset,
    greedy_select,
    parse_g2o,
    round_deterministic,
    solve_p2,
    to_instance,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=161)
    ap.add_argument("--tolerance", type=float, default=1e-7)
    ap.add_argument("--dataset", default="intel.g2o")
    args = ap.parse_args()

    path = find_dataset(args.dataset)
    if path is None:
        print(
            f"{args.dataset} not found; set TREECONN_DATA_DIR to a directory "
            "holding it. Nothing to do.",
        )
        return 0

    ds = parse_g2o(path)
    print(f"dataset: {path}")
    print(f"poses: {ds.poses}  odometry: {len(ds.odometry)}  closures: {len(ds.loop_closures)}")
    print(f"full-graph objective: {dataset_proxy(ds):.4f}")

    inst = to_instance(ds, args.k)
    t0 = time.perf_counter()
    gr = greedy_select(inst)
    t_greedy = time.perf_counter() - t0
    print(f"greedy: tau={gr.tau_achieved:.6f} ({t_greedy:.1f}s, "
          f"baseline {gr.baseline:.6f})")

    t0 = time.perf_counter()
    relaxed = solve_p2(inst, tolerance=args.tolerance)
    rounded = round_deterministic(inst, relaxed.pi)
    t_convex = time.perf_counter() - t0
    print(f"relaxation: tau*={relaxed.tau_cvx_star:.6f} rounded={rounded.tau_achieved:.6f} "
          f"({t_convex:.1f}s, {relaxed.iterations} iterations, stop {relaxed.stop_reason}, "
          f"gap {relaxed.fw_gap:.3e})")

    bundle = build_bundle(
        gr.baseline, gr.tau_achieved, rounded.tau_achieved, relaxed.tau_cvx_star
    )
    print(f"certificate: {bundle.lower:.6f} <= OPT <= {bundle.upper:.6f} "
          f"(width {bundle.upper - bundle.lower:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
