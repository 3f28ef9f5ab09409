"""Greedy and exhaustive edge selection.

The gain of adding a candidate subset, tree-connectivity of the base
plus the subset minus that of the base alone, is normalized, monotone
and submodular, so the classic greedy sweep earns the 1 - 1/e factor.
Each greedy round reads every candidate's gain off effective resistances
that a Sherman-Morrison (Woodbury) update keeps current from each
channel's whitened, weighted incidence Z = C^-1 A diag(sqrt(w)) in the
instance's kernels: a commit costs O(order * c + c * t) in round t, no solve.

Exhaustive search walks a tree of candidate prefixes on the same
kernels, depth first: a child's objective is its parent's plus the log
of one Cholesky pivot, which greedy's commit keeps current. It walks the
k-subsets or, for k > c / 2, their complements, so the tree is at most
11 deep, and one frontier chunk of a fixed byte budget is live per
depth, so memory does not grow with C(c, k). The near-ties of the best
are then re-scored from scratch, which keeps the lexicographic tie rule
and a from-scratch tau.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import treeconn
from ._lapack import dpotrf, dtrtri
from .errors import InfeasibleError, SizeGuardError
from .graphs import EdgeSelectionInstance, _design_indices, build_reduced_laplacian

# exhaustive_select refuses to walk more subsets than this
EXHAUSTIVE_MAX_SUBSETS = 10**6
# chained exhaustive scores this close (relative) to the best are
# re-scored from scratch; they agree with the determinant lemma to about
# 3e-16 relative while G's diagonal is moderate, and both drift to about
# 3e-11 from scratch with duplicate candidates of weight 1e6 on a light
# base, still well inside this margin
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
    The gain is absolute(subset) - baseline_total, exactly 0 for the
    empty subset: the baselines, each channel's base tau read off the
    instance's kernels, are the from-scratch bits of the base graphs.
    """

    instance: EdgeSelectionInstance
    baselines: tuple[float, ...]

    @property
    def baseline_total(self) -> float:
        return sum(m * b for (_, m), b in zip(self.instance.channels, self.baselines))

    def __call__(self, subset: Iterable[int]) -> float:
        return self.absolute(subset) - self.baseline_total

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


def _selection_result(
    inst: EdgeSelectionInstance,
    selected: Iterable[int],
    start: float,
    trace: tuple[TraceStep, ...] = (),
    tau: float | None = None,
) -> SelectionResult:
    """The scored design: tau is GainFunction.absolute's unless the caller holds it."""
    fn = gain_function(inst)
    selected = tuple(selected)
    return SelectionResult(
        selected=selected,
        edges=tuple(inst.candidates[i] for i in selected),
        baseline=fn.baseline_total,
        tau_achieved=fn.absolute(selected) if tau is None else tau,
        trace=trace,
        elapsed=time.perf_counter() - start,
    )


def _greedy_run(
    inst: EdgeSelectionInstance,
    budget: int,
    stop_threshold: float | None = None,
) -> SelectionResult:
    start = time.perf_counter()
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

    return _selection_result(inst, selected, start, tuple(trace))


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
    if tau_min <= 0.0:
        return _greedy_run(inst, budget=0)
    achievable = gain_function(inst)(range(inst.num_candidates))
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

    Memory is the instance's kernels, one c x c matrix per channel when
    k >= 2 or k > c / 2, one frontier chunk of about LEMMA_BATCH_BYTES
    (or one node) per depth, min(k, c - k) depths, and the near-tie
    shortlist. Ties keep the lexicographically smallest index subset,
    and tau_achieved is the from-scratch objective. Guarded to 10^6
    subsets.
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
    return _selection_result(inst, best, start, tau=best_val)


def _exhaustive_shortlist(inst: EdgeSelectionInstance) -> list[tuple[int, ...]]:
    """k-subsets, in lexicographic order, whose chained objective ties the best.

    Ties are relative to the size of the summed terms, which bounds the
    rounding of both the chained and the from-scratch evaluation.
    """
    scale = 1.0 + sum(abs(mult * kern.log_det0) for mult, kern in inst.kernels)

    def floor(top: float) -> float:
        return top - EXHAUSTIVE_TIE_MARGIN * (scale + abs(top))

    best = -math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for vals, rows in _subset_values(inst):
        best = max(best, float(vals.max()))
        near = vals >= floor(best)
        if near.any():
            kept.append((rows(near), vals[near]))
    # a walk over complements meets the subsets out of lexicographic order
    return sorted(tuple(row) for s, v in kept for row in s[v >= floor(best)].tolist())


class _Level:
    """One frontier chunk of exhaustive search: N prefixes of t picks each.

    Per node: the index of its parent in the chunk one depth up, its last
    pick, its chained objective and, per channel, the residual diagonal d
    and the node's own row u of its prefix's low-rank factor, both on the
    columns lo..c-1 that its descendants can pick and stored nch x w x N,
    so that updates run along the nodes. Node n's children pick
    last[n] + 1..hi, the p-th child of the chunk picking p + shift[its parent].
    """

    __slots__ = ("parent", "last", "val", "lo", "d", "u", "cum", "shift", "pos")

    def __init__(self, parent, last, val, lo, d, u, hi):
        self.parent, self.last, self.val, self.lo, self.d, self.u = parent, last, val, lo, d, u
        counts = hi - last
        self.cum = np.cumsum(counts)
        self.shift = last + 1 - self.cum + counts
        self.pos = 0  # children drawn so far


def _subset_values(inst: EdgeSelectionInstance):
    """The objective of every k-subset, chained down a tree of candidate prefixes.

    Yields (values, rows) per chunk of leaves; rows(mask) is the index
    array, each row ascending, of the masked leaves' subsets and is valid
    until the next chunk is drawn.

    The walk picks the smaller side: the k-subsets S themselves, or,
    when k > c / 2, their complements T, so the tree is never deeper than
    min(k, c - k), at most 11 below the 10^6-subset guard. Its leaves
    come in lexicographic order of the picked side. On S it chains the
    pivots of I + G_SS, G = Z^T Z; on T those of K_TT, K = (I + G)^-1,
    since log det(I + G_SS) = log det(I + G) + log det K_TT.

    A child that appends candidate j to its parent adds mult * log p_j
    per channel, p being the parent's pivots (1 + d for G, d for K, d the
    residual diagonal). Its row of the low-rank factor U of its prefix is
    u = (M[j, >j] - U[:, j]^T U[:, >j]) / sqrt(p_j), and d -= u^2:
    greedy's Sherman-Morrison commit. A leaf's value is thus log det L(S)
    with Cholesky's backward stability, whether s or order is the larger.
    The walk is depth first: one chunk per depth is live, its d and u
    within LEMMA_BATCH_BYTES (or one node), and a node's U is its
    ancestors' rows. The one c x c matrix per channel is G when 2 <= k <=
    c / 2 (the kernel's own when it keeps one, c <= order), or K when k >
    c / 2; it is dropped when the walk ends.
    """
    c, k = inst.num_candidates, inst.k
    kernels = inst.kernels
    complement = 2 * k > c
    r = c - k if complement else k  # depth of the tree
    mult = np.array([m for m, _ in kernels])
    base = sum(m * kern.log_det0 for m, kern in kernels)
    mats, diags = [], []
    for m, kern in kernels:
        if not complement:
            diags.append(kern.gram_diag)
            if r >= 2:
                mats.append(kern.Zt @ kern.Zt.T if kern.gram is None else kern.gram)
            continue
        K, log_det = _complement_kernel(kern)
        base += m * log_det
        mats.append(K)
        diags.append(np.diag(K))
    offset = 0.0 if complement else 1.0  # pivots are offset + d

    def subsets(picks: np.ndarray) -> np.ndarray:
        if not complement:
            return picks
        keep = np.ones((picks.shape[0], c), dtype=bool)
        keep[np.arange(picks.shape[0])[:, None], picks] = False
        return np.nonzero(keep)[1].reshape(-1, k)

    if r == 0:
        yield np.array([base]), lambda mask: subsets(np.empty((int(mask.sum()), 0), np.intp))
        return
    root = np.zeros(1, dtype=np.intp)
    levels = [_Level(root, root - 1, np.array([base]), 0, np.stack(diags)[:, :, None], None,
                     c - r)]
    while levels:
        lv = levels[-1]
        t = len(levels) - 1  # picks made by the nodes of lv
        if lv.pos == lv.cum[-1]:
            levels.pop()
            continue
        leaf = t + 1 == r
        # bytes per child: its pick, parent, value and pivots, and its d and u
        per_child = 8 * (4 + len(mult) * (2 if leaf else 2 * (c - lv.lo)))
        end = min(int(lv.cum[-1]), lv.pos + max(1, treeconn.LEMMA_BATCH_BYTES // per_child))
        p = np.arange(lv.pos, end)
        lv.pos = end
        par = np.searchsorted(lv.cum, p, side="right")
        j = p + lv.shift[par]
        pivot = offset + lv.d[:, j - lv.lo, par]
        val = lv.val[par] + mult @ np.log(pivot)
        if leaf:
            yield val, _leaf_rows(levels, par, j, subsets)
            continue
        lo = int(j.min()) + 1
        # M is symmetric: its columns j are its rows j
        g = np.stack([np.take(M[lo:], j, axis=1) for M in mats])
        p -= p[0]
        anc = par
        for up in levels[t:0:-1]:
            row = np.take(up.u, anc, axis=2)
            a = row[:, j - up.lo, p]
            row = row[:, lo - up.lo:]
            row *= a[:, None]
            g -= row
            anc = up.parent[anc]
        g /= np.sqrt(pivot)[:, None]
        d = np.take(lv.d[:, lo - lv.lo:], par, axis=2)
        d -= g * g
        # the last depth before the leaves needs d alone
        u = g if t + 2 < r else None
        levels.append(_Level(par, j, val, lo, d, u, c - r + t + 1))


def _complement_kernel(kern: treeconn.SubsetLogDet) -> tuple[np.ndarray, float]:
    """K = (I + G)^-1 and log det(I + G), from one Cholesky factor of I + G."""
    A = kern.Zt @ kern.Zt.T if kern.gram is None else kern.gram.copy()
    A.flat[:: A.shape[0] + 1] += 1.0
    R, _ = dpotrf(A, lower=1, overwrite_a=1)  # I + G = R R^T has no pivot below 1
    log_det = 2.0 * float(np.sum(np.log(np.diag(R))))
    Rinv, _ = dtrtri(R, lower=1, overwrite_c=1)  # R's buffer, freed on return
    return Rinv.T @ Rinv, log_det


def _leaf_rows(levels: list[_Level], par: np.ndarray, j: np.ndarray, subsets):
    """rows(mask): the subsets of the masked leaves, read up the parent links."""

    def rows(mask: np.ndarray) -> np.ndarray:
        idx = par[mask]
        picks = [j[mask]]
        for up in levels[:0:-1]:
            picks.append(up.last[idx])
            idx = up.parent[idx]
        return subsets(np.stack(picks[::-1], axis=1))

    return rows
