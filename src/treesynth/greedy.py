"""Greedy and exhaustive edge selection.

The gain of adding a candidate subset, tree-connectivity of the base
plus the subset minus that of the base alone, is normalized, monotone
and submodular, so the classic greedy sweep earns the 1 - 1/e factor.
Each greedy round reads every candidate's gain off effective resistances
that a Sherman-Morrison (Woodbury) update keeps current from each
channel's whitened, weighted incidence Z = C^-1 A diag(sqrt(w)) in the
instance's kernels: a commit costs O(order * c + c * t) in round t, no solve.

Exhaustive search scores k-subsets on the same kernels, a stacked
determinant-lemma batch at a time, so its memory is a fixed byte budget
rather than C(c, k); the near-ties of the best are then re-scored from
scratch, which keeps the lexicographic tie rule and a from-scratch tau.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InfeasibleError, SizeGuardError
from .graphs import EdgeSelectionInstance, _design_indices, build_reduced_laplacian

# exhaustive_select refuses to walk more subsets than this
EXHAUSTIVE_MAX_SUBSETS = 10**6
# batched exhaustive scores this close (relative) to the best are
# re-scored from scratch; the two agree to about 1e-14 relative
EXHAUSTIVE_TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class TraceStep:
    """One greedy round: chosen candidate, its score(s) and exact gain.

    score is w * Delta for single-weight instances and a per-channel
    (translational, rotational) pair for slam-double ones.
    """

    index: int
    u: int
    v: int
    score: float | tuple[float, float]
    gain: float


@dataclass(frozen=True)
class SelectionResult:
    """A selected candidate subset with its objective value.

    tau_achieved is the full objective of the final design (baseline
    included); for slam-double instances every tau here is the combined
    2:1 channel objective.
    """

    selected: tuple[int, ...]
    edges: tuple[tuple, ...]
    baseline: float
    tau_achieved: float
    trace: tuple[TraceStep, ...]
    elapsed: float

    @property
    def gain(self) -> float:
        return self.tau_achieved - self.baseline

    def to_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "edges": [list(e) for e in self.edges],
            "baseline": self.baseline,
            "tau": self.tau_achieved,
            "trace": [
                {
                    "index": s.index,
                    "u": s.u,
                    "v": s.v,
                    "score": list(s.score) if isinstance(s.score, tuple) else s.score,
                    "gain": s.gain,
                }
                for s in self.trace
            ],
        }


@dataclass(frozen=True)
class GainFunction:
    """Tree-connectivity gain of candidate subsets over the base graph.

    Calling it with an index subset rebuilds the augmented graph from
    scratch, a new graph, reduced Laplacian and Cholesky factor per
    channel, so it is the slow, trustworthy evaluation the fast greedy
    path is checked against. It walks no connectivity: the instance guard
    proved the base graph connected, adding candidates keeps it so, and
    the factor's pivot floor still refuses what float64 cannot resolve.
    Empty subsets return exactly 0. The baselines, each channel's base
    tau, are read off the instance's kernels.
    """

    instance: EdgeSelectionInstance
    baselines: tuple[float, ...]

    @property
    def baseline_total(self) -> float:
        return sum(m * b for (_, m), b in zip(self.instance.channels, self.baselines))

    def __call__(self, subset: Iterable[int]) -> float:
        inst = self.instance
        idx = _design_indices(inst, subset)
        total = 0.0
        for (channel, mult), tau0 in zip(inst.channels, self.baselines):
            g = inst.base_graph(channel).with_edges(inst.candidate_edges(idx, channel))
            total += mult * (build_reduced_laplacian(g).log_det() - tau0)
        return total

    def absolute(self, subset: Iterable[int]) -> float:
        """Objective of the completed design, baseline included.

        Computed directly rather than as baseline + gain, so the value
        is bit-identical to evaluating the final graph from scratch.
        """
        inst = self.instance
        idx = _design_indices(inst, subset)
        total = 0.0
        for channel, mult in inst.channels:
            g = inst.base_graph(channel).with_edges(inst.candidate_edges(idx, channel))
            total += mult * build_reduced_laplacian(g).log_det()
        return total


def gain_function(inst: EdgeSelectionInstance) -> GainFunction:
    # each kernel's log_det0 is the base graph's tau, the from-scratch bits
    return GainFunction(inst, tuple(kernel.log_det0 for _, kernel in inst.kernels))


def _greedy_run(
    inst: EdgeSelectionInstance,
    budget: int,
    stop_threshold: float | None = None,
) -> SelectionResult:
    start = time.perf_counter()
    fn = gain_function(inst)
    c = inst.num_candidates
    pairs = inst.candidate_pairs
    # Exact duplicate candidates share one kernel column, so their gains
    # tie exactly and the lowest index wins, as it does from scratch; BLAS
    # matrix-vector products can round two identical columns differently.
    keys = inst.candidate_array.copy()
    keys[:, :2].sort(axis=1)
    _, first, col = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    col = col.reshape(-1)
    # per channel: the kernel's Z rows of the distinct candidates and their
    # current w * resistance, which the commits below keep up to date
    kernels = [(mult, kern.Zt[first], kern.gram_diag[first]) for mult, kern in inst.kernels]
    # rows t of U[j] are the low-rank factor of channel j; grown by doubling
    U = np.empty((len(kernels), min(budget, 16), len(first)))

    available = np.ones(c, dtype=bool)
    selected: list[int] = []
    trace: list[TraceStep] = []
    gained = 0.0  # running sum of the trace's exact gains

    for t in range(budget):
        if stop_threshold is not None and gained >= stop_threshold:
            break
        scores = [resist[col] for _, _, resist in kernels]
        gains = sum(mult * np.log1p(s) for (mult, _, _), s in zip(kernels, scores))
        gains[~available] = -np.inf
        idx = int(np.argmax(gains))  # first max wins, lowest index on ties
        available[idx] = False
        e = col[idx]
        if t == U.shape[1]:
            U = np.concatenate((U, np.empty_like(U)), axis=1)
        for (_, Zt, resist), Uj in zip(kernels, U):
            # column e of the current Gram matrix Z^T Z - U^T U (Sherman-Morrison)
            g = Zt @ Zt[e] - Uj[:t].T @ Uj[:t, e]
            Uj[t] = g / math.sqrt(1.0 + g[e])
            resist -= Uj[t] ** 2
        step_score = tuple(float(s[idx]) for s in scores)
        step_score = step_score[0] if len(step_score) == 1 else step_score
        selected.append(idx)
        trace.append(TraceStep(idx, *pairs[idx], step_score, float(gains[idx])))
        gained += float(gains[idx])

    return SelectionResult(
        selected=tuple(selected),
        edges=tuple(inst.candidates[i] for i in selected),
        baseline=fn.baseline_total,
        tau_achieved=fn.absolute(selected),
        trace=tuple(trace),
        elapsed=time.perf_counter() - start,
    )


def greedy_select(inst: EdgeSelectionInstance) -> SelectionResult:
    """k rounds of greedy candidate selection.

    Each round picks the remaining candidate with the largest exact gain
    (ties to the lowest index) and commits it. The gains come from the
    instance's whitened, weighted incidence Z per channel: committing an
    edge appends a row to a low-rank factor whose squared column norms
    come off the weighted resistances, so no round solves or refactorizes
    anything. Memory is O(order * c + c * k).
    """
    return _greedy_run(inst, budget=inst.k)


def greedy_to_threshold(inst: EdgeSelectionInstance, tau_min: float) -> SelectionResult:
    """Greedy rounds until the gain reaches tau_min (budget ignored).

    The stop test reads the running sum of the rounds' exact gains, so no
    round rebuilds the graph; tau_achieved is still computed from scratch.
    Raises InfeasibleError when even the full candidate pool falls
    short, reporting the maximum achievable gain.
    """
    tau_min = float(tau_min)
    fn = gain_function(inst)
    if tau_min <= 0.0:
        return _greedy_run(inst, budget=0)
    achievable = fn(range(inst.num_candidates))
    if tau_min > achievable:
        raise InfeasibleError(
            f"requested gain {tau_min} exceeds the maximum achievable "
            f"{achievable} (all candidates selected)"
        )
    return _greedy_run(inst, budget=inst.num_candidates, stop_threshold=tau_min)


def exhaustive_fits(inst: EdgeSelectionInstance) -> bool:
    """Whether exhaustive search accepts the instance: C(c, k) <= 10^6."""
    return math.comb(inst.num_candidates, inst.k) <= EXHAUSTIVE_MAX_SUBSETS


def exhaustive_select(inst: EdgeSelectionInstance) -> SelectionResult:
    """Optimal selection by trying every k-subset. Small instances only.

    Memory is the instance's kernels, LEMMA_BATCH_BYTES and the near-tie
    shortlist. Ties keep the lexicographically smallest index subset, and
    tau_achieved is the from-scratch objective. Guarded to 10^6 subsets.
    """
    c, k = inst.num_candidates, inst.k
    if not exhaustive_fits(inst):
        raise SizeGuardError(
            f"exhaustive search refused: C({c}, {k}) = {math.comb(c, k)} "
            f"subsets exceeds the {EXHAUSTIVE_MAX_SUBSETS} limit"
        )
    start = time.perf_counter()
    fn = gain_function(inst)
    shortlist = _exhaustive_shortlist(inst)
    # max keeps the first of equal values, the lexicographically smallest
    best_val, best = max(((fn.absolute(s), s) for s in shortlist), key=lambda vs: vs[0])
    return SelectionResult(
        selected=best,
        edges=tuple(inst.candidates[i] for i in best),
        baseline=fn.baseline_total,
        tau_achieved=best_val,
        trace=(),
        elapsed=time.perf_counter() - start,
    )


def _exhaustive_shortlist(inst: EdgeSelectionInstance) -> list[tuple[int, ...]]:
    """k-subsets, in lexicographic order, whose batched objective ties the best.

    Ties are relative to the size of the summed terms, which bounds the
    rounding of both the batched and the from-scratch evaluation.
    """
    lemmas, k = inst.kernels, inst.k
    scale = 1.0 + sum(abs(mult * lemma.log_det0) for mult, lemma in lemmas)

    def floor(top: float) -> float:
        return top - EXHAUSTIVE_TIE_MARGIN * (scale + abs(top))

    combos = itertools.combinations(range(inst.num_candidates), k)
    best = -math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    while chunk := list(itertools.islice(combos, lemmas[0][1].batch_rows(k))):
        cols = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
        vals = sum(mult * lemma(cols) for mult, lemma in lemmas)
        best = max(best, float(vals.max()))
        near = vals >= floor(best)
        if near.any():
            kept.append((cols[near], vals[near]))
    return [tuple(row) for s, v in kept for row in s[v >= floor(best)].tolist()]
