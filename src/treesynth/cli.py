"""Command-line frontend.

Subcommands: gen (random instances), synthesize (run selectors),
certify (bound a run against OPT), evaluate (inspect a graph or
dataset), bench (sweep tables for plots).

Exit codes: 0 success, 2 argument errors, 3 data errors, 4 solver
non-convergence. Artifacts written for a fixed seed and config are
byte-identical across runs at a fixed BLAS thread count (the test suite
and the benchmark pin it to one; another count can move the last digits,
as BLAS sums in another order); wall-clock timing therefore goes to the
console (and into bench tables only behind --timings).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import certify, gap_for_design
from .convex import DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE, round_deterministic, solve_p2, solve_p3
from .errors import (
    ArgumentError,
    ConvergenceError,
    DataError,
    TreesynthError,
)
from .graphs import (
    DIRECTION_REMOVE,
    OBJECTIVE_SLAM,
    EdgeSelectionInstance,
    _as_seed,
    _json_int,
    _read_json,
    load_instance,
    instance_to_json_dict,
    random_instance,
    reduce_removal_to_addition,
    removal_set_from_addition,
)
from .greedy import (
    EXHAUSTIVE_MAX_SUBSETS,
    exhaustive_fits,
    exhaustive_select,
    greedy_select,
    greedy_to_threshold,
)
from .slam import PoseGraphDataset, channel_taus, find_dataset, parse_g2o, to_instance
from .treeconn import tree_connectivity

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_ARGUMENT = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

def _emit_json(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _say(msg: str, to_stderr: bool = False) -> None:
    print(msg, file=sys.stderr if to_stderr else sys.stdout)


# ---------------------------------------------------------------------------
# instance loading


def _load_base_pairs(path: str) -> set[tuple[int, int]]:
    doc = _read_json(path, "base-edge override file")
    if not isinstance(doc, list):
        raise DataError("base-edge override must be a JSON array of [i, j] pairs")
    pairs = set()
    for entry in doc:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise DataError(f"base-edge override entries must be [i, j] pairs, got {entry!r}")
        pairs.add(tuple(_json_int(x, "base-edge pose id") for x in entry))
    return pairs


def _load_dataset(args) -> PoseGraphDataset:
    path = find_dataset(args.g2o)
    if path is None:
        raise DataError(
            f"dataset not found: {args.g2o} (also looked under $TREECONN_DATA_DIR)"
        )
    base_pairs = _load_base_pairs(args.base_edges) if args.base_edges else None
    return parse_g2o(path, normalize=args.normalize, base_pairs=base_pairs)


def _load_instance_from_args(args, *, need_k: bool = True) -> EdgeSelectionInstance:
    if args.instance and args.g2o:
        raise ArgumentError("pass exactly one of --instance and --g2o")
    if args.instance:
        inst = load_instance(args.instance)
        if args.k is not None:
            inst = dataclasses.replace(inst, k=args.k)
        return inst
    if not args.g2o:
        raise ArgumentError("pass one of --instance or --g2o")
    ds = _load_dataset(args)
    if args.k is None and need_k:
        raise ArgumentError("--k is required with --g2o")
    return to_instance(ds, args.k or 0)


def _as_addition(inst: EdgeSelectionInstance) -> EdgeSelectionInstance:
    """The instance itself, or the addition form of a removal instance."""
    return reduce_removal_to_addition(inst) if inst.direction == DIRECTION_REMOVE else inst


def _random_instance(args, *, m_init: int, seed: int, k: int) -> EdgeSelectionInstance:
    return random_instance(
        n=args.n,
        m_init=m_init,
        candidate_mode=args.mode,
        weight_range=tuple(args.weight_range),
        seed=seed,
        k=k,
        sample_size=args.c,
    )


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    inst = _random_instance(args, m_init=args.m_init, seed=args.seed, k=args.k)
    _emit_json(instance_to_json_dict(inst), args.output)
    if args.output:
        d = inst.describe()
        _say(f"wrote {args.output}: n={d['n']} m_init={d['m_init']} c={d['c']} k={d['k']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize


def _selection_doc(res, original, reduced) -> dict:
    doc = res.to_dict()
    if original.direction == DIRECTION_REMOVE:
        removed = removal_set_from_addition(reduced, res.selected)
        doc["removed"] = list(removed)
        doc["removed_edges"] = [list(original.candidates[i]) for i in removed]
    return doc


def _run_convex(work, args):
    if args.lam is not None:
        relaxed = solve_p3(work, args.lam, tolerance=args.tolerance, max_iters=args.max_iters)
        k_eff = min(len(relaxed.pi), max(0, int(round(float(relaxed.pi.sum())))))
        return relaxed, round_deterministic(work, relaxed.pi, k_eff)
    relaxed = solve_p2(work, tolerance=args.tolerance, max_iters=args.max_iters)
    return relaxed, round_deterministic(work, relaxed.pi)


def cmd_synthesize(args) -> int:
    if args.tau_min is not None and args.algorithm != "greedy":
        raise ArgumentError("--tau-min is a greedy stopping rule; use --algorithm greedy")
    if args.lam is not None and args.algorithm != "convex":
        raise ArgumentError("--lambda applies to --algorithm convex")
    if args.repeat < 1:
        raise ArgumentError(f"--repeat must be at least 1, got {args.repeat}")

    original = _load_instance_from_args(args, need_k=args.tau_min is None)
    if original.direction == DIRECTION_REMOVE:
        # both choose their own design size, and a removal design must
        # remove exactly k
        if args.tau_min is not None:
            raise ArgumentError("--tau-min applies to addition instances")
        if args.lam is not None:
            raise ArgumentError("--lambda applies to addition instances")
    work = _as_addition(original)

    algorithms = ["greedy", "convex", "exhaustive"] if args.algorithm == "all" else [args.algorithm]
    if args.algorithm == "all" and not exhaustive_fits(work):
        algorithms.remove("exhaustive")
        _say(
            f"note: skipping exhaustive search, C(c, k) = "
            f"{math.comb(work.num_candidates, work.k)} subsets "
            f"exceeds the {EXHAUSTIVE_MAX_SUBSETS} guard",
            to_stderr=True,
        )

    results: dict[str, dict] = {}
    timings: dict[str, list[float]] = {name: [] for name in algorithms}
    for _ in range(args.repeat):
        for name in algorithms:
            if name == "greedy":
                if args.tau_min is not None:
                    res = greedy_to_threshold(work, args.tau_min)
                else:
                    res = greedy_select(work)
                timings[name].append(res.elapsed)
                results[name] = _selection_doc(res, original, work)
            elif name == "convex":
                relaxed, rounded = _run_convex(work, args)
                timings[name].append(relaxed.elapsed + rounded.elapsed)
                doc = _selection_doc(rounded, original, work)
                doc["relaxed"] = relaxed.to_dict()
                results[name] = doc
            else:
                res = exhaustive_select(work)
                timings[name].append(res.elapsed)
                results[name] = _selection_doc(res, original, work)

    config = {
        "algorithm": args.algorithm,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }
    if args.tau_min is not None:
        config["tau_min"] = args.tau_min
    if args.lam is not None:
        config["lambda"] = args.lam
    doc = {"instance": original.describe(), "config": config, "results": results}
    _emit_json(doc, args.output)

    for name in algorithms:
        med = statistics.median(timings[name])
        line = (
            f"{name}: tau={results[name]['tau']!r} "
            f"selected={len(results[name]['selected'])} median_elapsed_s={med:.6f}"
        )
        _say(line, to_stderr=args.output is None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _read_design(path: str) -> list[int]:
    doc = _read_json(path, "design file")
    if not isinstance(doc, list):
        raise DataError("design file must hold a JSON array of candidate indices")
    return [_json_int(x, "design index") for x in doc]


def cmd_certify(args) -> int:
    original = _load_instance_from_args(args)
    work = _as_addition(original)
    bundle = certify(work, tolerance=args.tolerance, max_iters=args.max_iters)
    doc = {"instance": original.describe(), "bundle": bundle.to_dict()}
    if args.design:
        design = _read_design(args.design)
        if original.direction == DIRECTION_REMOVE:
            # removing a set is keeping its complement in the reduced instance
            design = removal_set_from_addition(original, design)
        doc["gap"] = gap_for_design(work, design, bundle).to_dict()
    _emit_json(doc, args.output)
    relaxed = bundle.relaxed
    _say(
        f"lower={bundle.lower!r} upper={bundle.upper!r} "
        f"(greedy={bundle.tau_greedy!r}, rounded={bundle.tau_cvx!r}, "
        f"relaxed={bundle.tau_cvx_star!r})\n"
        f"legs: greedy_s={bundle.greedy.elapsed:.6f} relax_s={relaxed.elapsed:.6f} "
        f"round_s={bundle.rounded.elapsed:.6f} iterations={relaxed.iterations} "
        f"stop={relaxed.stop_reason} fw_gap={relaxed.fw_gap!r} "
        f"newton_steps={relaxed.newton_steps}",
        to_stderr=args.output is None,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    # both sources fall through to the instance loader, which refuses them
    if args.g2o and not args.instance:
        ds = _load_dataset(args)
        tau_p, tau_t = channel_taus(ds.poses, ds.odometry + ds.loop_closures)
        doc = {
            "poses": ds.poses,
            "odometry_edges": len(ds.odometry),
            "loop_closures": len(ds.loop_closures),
            "ignored_lines": ds.report.ignored_lines,
            "offdiag_flagged": ds.report.offdiag_flagged,
            "normalization_alpha": ds.report.alpha,
            "tau_p": tau_p,
            "tau_theta": tau_t,
            "dopt_proxy": 2.0 * tau_p + tau_t,
        }
    else:
        inst = _load_instance_from_args(args, need_k=False)
        doc = {"instance": inst.describe()}
        proxy = {"base": 0.0, "full": 0.0}
        for channel, mult in inst.channels:
            base = inst.base_graph(channel)
            full = base.with_edges(inst.candidate_edges(range(inst.num_candidates), channel))
            prefix = "tau" if channel is None else f"tau_{channel}"
            for which, g in (("base", base), ("full", full)):
                tau = tree_connectivity(g).tau
                doc[f"{prefix}_{which}"] = tau
                proxy[which] += mult * tau
        if inst.objective == OBJECTIVE_SLAM:
            doc.update({f"dopt_proxy_{which}": value for which, value in proxy.items()})
    _emit_json(doc, args.output)
    if args.output is not None:
        _say(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _parse_sweep(spec: str, what: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ArgumentError(f"{what} must look like LO:HI or LO:HI:STEP, got {spec!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ArgumentError(f"{what} bounds must be integers, got {spec!r}") from None
    if step < 1:
        raise ArgumentError(f"{what} step must be >= 1, got {step}")
    values = list(range(lo, hi + 1, step))
    if not values:
        raise ArgumentError(f"{what} {spec!r} is an empty range")
    return values


def _bench_row(inst: EdgeSelectionInstance, d: dict, sweep: str, value: int, args) -> dict:
    """certify (and the oracle) on addition instance inst; d describes the original.

    The keys, in order, are the bench table's columns (_write_bench).
    """
    bundle = certify(inst, tolerance=args.tolerance, max_iters=args.max_iters)
    oracle = exhaustive_select(inst) if args.oracle and exhaustive_fits(inst) else None
    return {
        "sweep": sweep,
        "value": value,
        "n": d["n"],
        "m_init": d["m_init"],
        "c": d["c"],
        "k": d["k"],
        **bundle.to_dict(),  # tau_init .. upper, in column order
        "opt": oracle.tau_achieved if oracle else None,
        "t_greedy_s": bundle.greedy.elapsed if args.timings else None,
        "t_convex_s": bundle.relaxed.elapsed + bundle.rounded.elapsed if args.timings else None,
        "t_oracle_s": oracle.elapsed if args.timings and oracle else None,
    }


def _write_bench(rows: list[dict], args) -> None:
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])  # the header: _bench_row's keys, in order
        for row in rows:
            writer.writerow(
                "" if x is None else repr(x) if isinstance(x, float) else x for x in row.values()
            )
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
        _say(f"wrote {args.output}: {len(rows)} sweep points")
    else:
        sys.stdout.write(text)


def cmd_bench(args) -> int:
    if bool(args.k_sweep) == bool(args.m_init_sweep):
        raise ArgumentError("pass exactly one of --k-sweep and --m-init-sweep")

    rows = []
    if args.k_sweep:
        values = _parse_sweep(args.k_sweep, "--k-sweep")
        if args.instance or args.g2o:
            original = _load_instance_from_args(args, need_k=False)
        else:
            if args.n is None or args.m_init is None:
                raise ArgumentError("generated bench instances need --n and --m-init")
            original = _random_instance(args, m_init=args.m_init, seed=args.seed, k=0)
        work = _as_addition(original)
        c = work.num_candidates
        for kk in values:
            if not 0 <= kk <= c:
                raise ArgumentError(f"sweep point k={kk} outside 0..{c} candidates")
            # removing kk candidates is keeping the other c - kk
            inst = work.with_budget(c - kk if original.direction == DIRECTION_REMOVE else kk)
            rows.append(_bench_row(inst, {**original.describe(), "k": kk}, "k", kk, args))
    else:
        if args.instance or args.g2o:
            raise ArgumentError("--m-init-sweep generates its instances; drop --instance and --g2o")
        values = _parse_sweep(args.m_init_sweep, "--m-init-sweep")
        if args.n is None or args.k is None:
            raise ArgumentError("--m-init-sweep needs --n and --k")
        children = np.random.SeedSequence(_as_seed(args.seed)).spawn(len(values))
        for child, m in zip(children, values):
            inst = _random_instance(args, m_init=m, seed=int(child.generate_state(1)[0]), k=args.k)
            rows.append(_bench_row(inst, inst.describe(), "m_init", m, args))

    _write_bench(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesynth",
        description="Synthesize sparse graphs with maximum tree-connectivity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--instance", help="JSON instance file")
    source.add_argument("--g2o", help="g2o pose graph (path or name under $TREECONN_DATA_DIR)")
    source.add_argument("--k", type=int, help="selection budget (overrides the instance file)")
    source.add_argument(
        "--normalize",
        action="store_true",
        help="globally rescale dataset weights below 1 up to 1",
    )
    source.add_argument(
        "--base-edges",
        help="JSON [i, j] pose-id pairs overriding the odometry convention",
    )

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=0,
        help="master random seed of bench; synthesize draws nothing at random and only "
        "records it in the artifact's config",
    )

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relaxation stop: KKT residual, or Frank-Wolfe gap relative to its start",
    )
    solver.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS, help="solver iteration cap")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", help="write the artifact here instead of stdout")

    p = sub.add_parser("gen", parents=[out], help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-init", type=int, required=True, dest="m_init")
    p.add_argument("--mode", choices=["complement", "sampled"], default="complement")
    p.add_argument("--c", type=int, help="candidate count for --mode sampled")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--weight-range", type=float, nargs=2, default=[1.0, 1.0], metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("synthesize", parents=[source, seeded, solver, out], help="select edges")
    p.add_argument(
        "--algorithm",
        choices=["greedy", "convex", "exhaustive", "all"],
        default="greedy",
    )
    p.add_argument("--tau-min", type=float, dest="tau_min", help="greedy gain threshold instead of a budget")
    p.add_argument("--lambda", type=float, dest="lam", help="L1 penalty for the box relaxation")
    p.add_argument("--repeat", type=int, default=1, help="median-of-N wall-clock timing")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("certify", parents=[source, solver, out], help="bound OPT")
    p.add_argument("--design", help="JSON candidate-index list to judge against the bounds")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("evaluate", parents=[source, out], help="inspect a graph or dataset")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", parents=[source, seeded, solver, out], help="sweep tables")
    p.add_argument("--n", type=int)
    p.add_argument("--m-init", type=int, dest="m_init")
    p.add_argument("--mode", choices=["complement", "sampled"], default="complement")
    p.add_argument("--c", type=int)
    p.add_argument("--weight-range", type=float, nargs=2, default=[1.0, 1.0], metavar=("LO", "HI"))
    p.add_argument("--k-sweep", dest="k_sweep", help="LO:HI[:STEP] budget sweep")
    p.add_argument("--m-init-sweep", dest="m_init_sweep", help="LO:HI[:STEP] base-size sweep")
    p.add_argument("--oracle", action="store_true", help="add exhaustive OPT when small enough")
    p.add_argument("--timings", action="store_true", help="include wall-clock columns")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_bench)

    return parser


# Built on the first main() call: rebuilding it per call leaves the
# memory of in-process callers a little higher each time.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point stdout at devnull
        # so that the interpreter's last flush does not fail again, as the
        # Python docs recommend (signal module, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(argv) -> int:
    """Parse argv and run its command; TreesynthErrors become exit codes."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except TreesynthError as exc:
        _say(f"error: {exc}", to_stderr=True)
        if isinstance(exc, ArgumentError):
            return EXIT_ARGUMENT
        if isinstance(exc, ConvergenceError):
            best = exc.best
            if best is not None:
                _say("best iterate: " + json.dumps({
                    "tau_cvx_star": best.tau_cvx_star,
                    "stop_reason": best.stop_reason,
                    "fw_gap": best.fw_gap,
                    "iterations": best.iterations,
                }), to_stderr=True)
            return EXIT_CONVERGENCE
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
