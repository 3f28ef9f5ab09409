"""Greedy and exhaustive edge selection.

The gain of adding a candidate subset, tree-connectivity of the base
plus the subset minus that of the base alone, is normalized, monotone
and submodular, so the classic greedy sweep earns the 1 - 1/e factor.
Each greedy round reads every candidate's gain off effective resistances
that a Sherman-Morrison (Woodbury) update keeps current from each
channel's whitened, weighted incidence Z = C^-1 A diag(sqrt(w)) in the
instance's kernels: a commit costs O(c * (s + t)) in round t, no solve, for
the s columns on which the picked row of Z is nonzero (on a path base, the
path edges between the candidate's ends).

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
from .errors import ArgumentError, InfeasibleError, SizeGuardError
from .graphs import EdgeSelectionInstance

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

    Calling it with an index subset scores the augmented graph from
    scratch (EdgeSelectionInstance.design_taus: the base's and the
    design's merged columns, each channel read by the one tau rule,
    graphs.connected_tau), so it is the slow, trustworthy evaluation the
    fast greedy path is checked against. It checks no connectivity: the
    instance guard proved the base graph connected, adding candidates
    keeps it so, and the factor's refusal (graphs._cholesky) still
    refuses what float64 cannot resolve.
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
        total = 0.0
        for (_, mult), tau in zip(self.instance.channels, self.instance.design_taus(subset)):
            total += mult * tau
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
    mults = [mult for mult, _ in inst.kernels]
    # Exact duplicate candidates read one kernel row, their lowest index's,
    # so their gains tie exactly and the lowest index wins, as it does from
    # scratch; BLAS products can round two identical rows differently.
    # rep[i] is that row for candidate i, found by one stable lexsort; the
    # kernel's Z is read in place, and the rows of later duplicates are
    # updated but never read.
    u, v, w = inst._candidate_columns
    keys = np.column_stack((np.minimum(u, v), np.maximum(u, v), w))
    order = np.lexsort(keys.T)  # stable: equal rows stay in index order
    ranked = keys[order]
    new = np.ones(c, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rep = np.empty(c, dtype=np.intp)
    rep[order] = order[np.maximum.accumulate(np.where(new, np.arange(c), 0))]
    Zs = [kern.Zt for _, kern in inst.kernels]
    resist = np.stack([kern.gram_diag for _, kern in inst.kernels])
    # per channel, the column range lo:hi of each row's nonzeros (on a path
    # base, the path edges between the candidate's ends): column e of Z^T Z
    # reads only row e's range
    spans = []
    for Zt in Zs:
        nz = Zt != 0.0
        spans.append((nz.argmax(axis=1), Zt.shape[1] - nz[:, ::-1].argmax(axis=1)))
    # resist[j] is channel j's current w * resistance of each kernel row,
    # and rows t of U[j] its low-rank factor, grown by doubling;
    # the commits below keep both up to date
    U = np.empty((len(Zs), min(budget, 16), resist.shape[1]))
    g = np.empty_like(resist)

    available = np.ones(c, dtype=bool)
    selected: list[int] = []
    trace: list[TraceStep] = []
    gained = 0.0  # running sum of the trace's exact gains
    if stop_threshold is not None:
        fn = gain_function(inst)
        # the running sum rounds apart from the from-scratch gain, by well under this
        slack = EXHAUSTIVE_TIE_MARGIN * (1.0 + abs(fn.baseline_total) + stop_threshold)

    for t in range(budget):
        if stop_threshold is not None and gained >= stop_threshold - slack and (
                gained >= stop_threshold + slack or fn(selected) >= stop_threshold):
            break
        gains = sum(mult * np.log1p(s) for mult, s in zip(mults, resist))[rep]
        gains[~available] = -np.inf
        idx = int(np.argmax(gains))  # first max wins, lowest index on ties
        available[idx] = False
        e = int(rep[idx])
        step_score = tuple(float(s[e]) for s in resist)
        step_score = step_score[0] if len(step_score) == 1 else step_score
        if t == U.shape[1]:
            U = np.concatenate((U, np.empty_like(U)), axis=1)
        # column e of each current Gram matrix Z^T Z - U^T U (Sherman-Morrison)
        for Zt, (lo, hi), gj in zip(Zs, spans, g):
            span = slice(lo[e], hi[e])
            np.matmul(Zt[:, span], Zt[e, span], out=gj)
        g -= np.matmul(U[:, None, :t, e], U[:, :t])[:, 0]
        np.divide(g, np.sqrt(1.0 + g[:, e])[:, None], out=U[:, t])
        resist -= U[:, t] ** 2
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

    It stops at the first design whose from-scratch gain (GainFunction)
    reaches tau_min, so greedy_select(k).gain as tau_min gives greedy's k
    edges. No round rebuilds the graph: the stop test reads the running
    sum of the rounds' exact gains, and only a sum within rounding of
    tau_min is decided from scratch. tau_achieved is from scratch too.
    Raises InfeasibleError when even the full candidate pool falls
    short, reporting the maximum achievable gain, and ArgumentError for
    a NaN tau_min.
    """
    tau_min = float(tau_min)
    if math.isnan(tau_min):
        raise ArgumentError("the gain threshold tau_min must not be NaN")
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
    ancestors' rows. The one c x c matrix per channel, dropped when the
    walk ends, is G when 2 <= k <= c / 2, or K when k > c / 2.
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
                mats.append(kern.gram_rows(np.arange(c), principal=True))
            continue
        K, log_det = kern.complement()
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
