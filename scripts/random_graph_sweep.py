"""Budget sweep on random graphs: greedy vs relaxation vs exhaustive.

Generates one random instance, sweeps the selection budget, and prints
a table of the achieved objective for each method next to the two-sided
certificate. Exhaustive values appear while the subset count stays
small enough to enumerate.

Usage: python scripts/random_graph_sweep.py [--n 12] [--m-init 16] [--seed 0]
"""

import argparse
import dataclasses
import sys

from treesynth import (
    build_bundle,
    exhaustive_select,
    greedy_select,
    random_instance,
    round_deterministic,
    solve_p2,
)
from treesynth.greedy import exhaustive_fits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--m-init", type=int, default=16, dest="m_init")
    ap.add_argument("--c", type=int, default=20)
    ap.add_argument("--k-max", type=int, default=8, dest="k_max")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    base = random_instance(
        n=args.n, m_init=args.m_init, candidate_mode="sampled", sample_size=args.c,
        weight_range=(1.0, 4.0), seed=args.seed,
    )
    print(f"n={args.n} m_init={args.m_init} c={args.c} seed={args.seed}")
    print(f"{'k':>3} {'tau_greedy':>12} {'tau_rounded':>12} {'opt':>12} "
          f"{'lower':>12} {'upper':>12} {'gap':>8}")
    for k in range(1, args.k_max + 1):
        inst = dataclasses.replace(base, k=k)
        gr = greedy_select(inst)
        relaxed = solve_p2(inst)
        rounded = round_deterministic(inst, relaxed.pi)
        bundle = build_bundle(
            gr.baseline, gr.tau_achieved, rounded.tau_achieved, relaxed.tau_cvx_star
        )
        if exhaustive_fits(inst):
            opt = f"{exhaustive_select(inst).tau_achieved:12.6f}"
        else:
            opt = f"{'-':>12}"
        print(
            f"{k:>3} {gr.tau_achieved:12.6f} {rounded.tau_achieved:12.6f} {opt} "
            f"{bundle.lower:12.6f} {bundle.upper:12.6f} {bundle.upper - bundle.lower:8.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
