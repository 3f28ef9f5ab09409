"""Full pipeline on the Intel Research Lab pose graph.

Parses intel.g2o, reports dataset structure, then synthesizes k loop
closures on top of the odometry spanning chain with both selectors (one
certify call) and prints each leg and the resulting certificate. Exits
quietly when the dataset is not available; point TREECONN_DATA_DIR at a
directory containing intel.g2o to run it.

Usage: python scripts/intel_pipeline.py [--k 161] [--tolerance TOL] [--dataset intel.g2o]
"""

import argparse
import sys

from treesynth import certify, dataset_proxy, find_dataset, parse_g2o, to_instance
from treesynth.convex import DEFAULT_TOLERANCE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=161)
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
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

    bundle = certify(to_instance(ds, args.k), tolerance=args.tolerance)
    gr, relaxed, rounded = bundle.greedy, bundle.relaxed, bundle.rounded
    print(f"greedy: tau={gr.tau_achieved:.6f} ({gr.elapsed:.1f}s, "
          f"baseline {gr.baseline:.6f})")
    print(f"relaxation: tau*={relaxed.tau_cvx_star:.6f} rounded={rounded.tau_achieved:.6f} "
          f"({relaxed.elapsed + rounded.elapsed:.1f}s, {relaxed.iterations} iterations, "
          f"stop {relaxed.stop_reason}, gap {relaxed.fw_gap:.3e})")
    print(f"certificate: {bundle.lower:.6f} <= OPT <= {bundle.upper:.6f} "
          f"(width {bundle.upper - bundle.lower:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
