"""Convex relaxation of edge selection.

Relaxing the 0/1 selector of each candidate to pi_i in [0, 1] makes the
selector-weighted reduced Laplacian L(pi) an affine matrix function, so
log det L(pi) is concave and the budgeted relaxation

    maximize log det L(pi)  subject to  sum pi = k, 0 <= pi <= 1

is solved by projected-gradient ascent with an Armijo backtracking
line search. Once the support of pi has settled, its first trial is the
projected Newton step on the free selectors, whose Hessian
-(W_FF o W_FF) is read off the gradient's triangular solve; otherwise,
or when that trial fails, it is the Barzilai-Borwein step fitted to the
last move, clipped to [BB_STEP_MIN, BB_STEP_MAX]. The objective and
gradient come from the matrix determinant lemma on each channel's
candidate Gram matrix, restricted to the support of pi
(treeconn.SubsetLogDet): O(s^3 + s^2 c) per iteration for s nonzero
selectors, against O(order^3 + order^2 c) on L(pi) itself. The optimum
upper-bounds every integral design of the same budget, and so does f(pi)
plus the Frank-Wolfe gap at any feasible pi, which is what the solver
reports; rounding pi back to a k-subset recovers a feasible design. An
L1-penalized box variant trades the hard budget for a sparsity price
lambda. One ascent runs both forms; each passes only its feasible set
and the value it reports.

For slam-double instances the objective is the 2:1 channel combination
throughout, matching the rest of the package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import treeconn
from ._lapack import dpotrs
from .errors import ArgumentError, ConvergenceError, NumericalError
from .graphs import (
    EdgeSelectionInstance,
    ReducedLaplacian,
    _as_seed,
    _as_vertex,
    _cholesky,
    _merge_columns,
)
from .greedy import SelectionResult, _selection_result

ARMIJO_SIGMA = 1e-4
BACKTRACK_SHRINK = 0.5
# safeguard interval of the Barzilai-Borwein first trial step
BB_STEP_MIN = 1e-3
BB_STEP_MAX = 1e3
DEFAULT_TOLERANCE = 1e-7
DEFAULT_MAX_ITERS = 5000
# capped-simplex projection: |sum(x) - k| <= SUM_TOLERANCE * max(1, k)
SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RelaxedSolution:
    """Solver output: the fractional selector and its objective.

    The shared ascent (_projected_ascent) builds every one, and its
    solver supplies tau_cvx_star: the certified bound for solve_p2, the
    unpenalized objective for solve_p3. kkt_residual is the infinity
    norm of pi - P(pi + grad), the projected-gradient fixed-point
    residual, zero exactly at an optimum. fw_gap is the Frank-Wolfe gap
    max_x grad.(x - pi) over the feasible set at the final pi; by
    concavity the optimum is at most f(pi) + fw_gap. objective_curve
    holds one value per accepted iterate and never decreases; its last
    entry is f(pi). stop_reason is "residual" or "gap"; the best iterate
    carried by a ConvergenceError says "iteration cap" or "line search
    stalled". newton_steps counts the iterations that took the Newton
    trial, and elapsed is the solve's wall-clock seconds from before the
    objective is built, as in SelectionResult.elapsed; like the other
    fields after kkt_residual, they stay out of to_dict().
    """

    pi: np.ndarray
    tau_cvx_star: float
    iterations: int
    kkt_residual: float
    objective_curve: tuple[float, ...]
    fw_gap: float
    stop_reason: str
    newton_steps: int
    elapsed: float

    def __post_init__(self) -> None:
        pi = np.array(self.pi, dtype=float)
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    def to_dict(self) -> dict:
        return {
            "pi": [float(x) for x in self.pi],
            "tau_cvx_star": self.tau_cvx_star,
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
        }


def _finite_vector(x, c: int, what: str) -> np.ndarray:
    """x as c finite floats; ArgumentError naming ``what`` otherwise."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (c,):
        raise ArgumentError(f"{what} must have {c} entries, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ArgumentError(f"{what} entries must be finite")
    return x


def _validate_pi(pi, c: int) -> np.ndarray:
    pi = _finite_vector(pi, c, "selector")
    if np.any(pi < -1e-9) or np.any(pi > 1.0 + 1e-9):
        raise ArgumentError("selector entries must lie in [0, 1]")
    return np.clip(pi, 0.0, 1.0)


def laplacian_of_pi(
    inst: EdgeSelectionInstance, pi, channel: str | None = None
) -> ReducedLaplacian:
    """Reduced Laplacian of base plus pi-scaled candidates, one channel.

    The base's merged columns, then the candidates at weights pi_i w_i, merged once.
    """
    pi = _validate_pi(pi, inst.num_candidates)
    u, v, w = (np.concatenate(cols) for cols in zip(inst._base_columns, inst._candidate_columns))
    w = w[:, inst._channel_index(channel)]
    w[w.size - pi.size:] *= pi
    return ReducedLaplacian._of_columns(inst.n, *_merge_columns(u, v, w, inst.n))


def relaxed_objective_and_gradient(
    inst: EdgeSelectionInstance, pi
) -> tuple[float, np.ndarray]:
    """Objective value and gradient of the relaxation at pi.

    The gradient entry for candidate i is w_i times its effective
    resistance in the pi-weighted graph (channel-combined), always
    nonnegative: the objective is monotone in every selector.
    """
    pi = _validate_pi(pi, inst.num_candidates)
    objective = _Objective(inst)
    value, grad = objective(pi)
    return objective.offset + value, grad


def project_capped_simplex(v, k: float) -> np.ndarray:
    """Euclidean projection onto {x : 0 <= x <= 1, sum x = k}.

    The projection is clip(v - theta, 0, 1) for the shift theta at which
    the sum s(theta) of that vector equals k. s is piecewise linear and
    non-increasing with breakpoints at v_i - 1 and v_i, so one sort and
    one prefix sum evaluate it at all 2c breakpoints, and theta solves
    the linear piece that brackets k (Wang and Lu, "Projection onto the
    capped simplex", 2015). The leftover sum defect of the clipped vector
    is then spread over the strictly interior coordinates, so the output
    meets |sum(x) - k| <= SUM_TOLERANCE * max(1, k); anything sloppier
    leaves a systematic per-coordinate bias that the ascent line search
    reads as a descent direction once the true step shrinks below it.
    Entries must be finite and below 2**52 in magnitude, where v_i - 1
    is still a float distinct from v_i.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    c = v.size
    k = float(k)
    if not 0.0 <= k <= c:
        raise ArgumentError(f"target sum {k} outside 0..{c}")
    if c == 0:
        return np.zeros(0)
    a = np.sort(v)  # NaN sorts last
    if not (-(2.0**52) < a[0] and a[-1] < 2.0**52):
        raise ArgumentError("projection needs finite entries below 2**52 in magnitude")
    if k == 0.0:
        return np.zeros(c)
    if k == float(c):
        return np.ones(c)
    lo = a - 1.0
    prefix = np.zeros(c + 1)
    np.cumsum(a, out=prefix[1:])
    theta = np.concatenate((lo, a))
    theta.sort()
    # at theta, the coordinates below `zeros` clip to 0, those from `ones` on to 1
    zeros = np.searchsorted(a, theta, "right")
    ones = np.searchsorted(lo, theta, "left")
    s = (c - ones) + (prefix[ones] - prefix[zeros]) - theta * (ones - zeros)
    # s[0] = c > k > 0 = s[-1]: the last breakpoint with s >= k starts the piece
    j = np.flatnonzero(s >= k)[-1]
    shift = theta[j] + (s[j] - k) * (theta[j + 1] - theta[j]) / (s[j] - s[j + 1])
    x = np.clip(v - shift, 0.0, 1.0)
    free = (x > 0.0) & (x < 1.0)
    n_free = int(free.sum())
    if n_free:
        x[free] += (k - float(x.sum())) / n_free
        np.clip(x, 0.0, 1.0, out=x)
    return x


def _projected_ascent(inst, lam, project, fw_gap, newton, start, tolerance, max_iters, certified):
    """The one relaxation ascent: Armijo backtracking along the projection arc.

    It climbs f = _Objective(inst, lam) from ``start`` over the feasible
    set that ``project``, ``fw_gap`` and ``newton`` describe, and builds
    every RelaxedSolution, returned or in a ConvergenceError, with
    tau_cvx_star = ``certified(objective, pi, f(pi), gap)``.

    Once the support of pi is the one of the previous accepted iterate,
    the first trial is the projected Newton point (Bertsekas, SIAM J.
    Control Optim. 1982): pi with its free block pi_F, F = {0 < pi < 1},
    replaced by ``newton(solve, grad_F, pi_F)``, where solve applies Q^-1
    for Q = -Hessian_FF, which the objective builds from the gradient's
    solve when it is asked for F's block. That is the Newton step on
    F projected onto F's own face, so the selectors at 0 and 1 keep their
    exact values: the projection of the whole vector would lift every
    zero to about 1e-16 whenever the rounding of the step's sum makes its
    shift negative, and the support would jump to all c. The Newton trial
    is skipped when F has fewer than 2 entries or Q is singular
    (_newton_point). It must also strictly raise f: a gain that rounds
    to 0 passes the Armijo test and would hold pi on a face that is not
    optimal. A rejected one falls through to the Barzilai-Borwein trials.
    Those start at P(pi + alpha * grad) with the Barzilai-Borwein step
    alpha = s.s / s.y of the last accepted move, s = pi_new - pi_old and
    y = grad_old - grad_new (Barzilai and Borwein, IMA J. Numer. Anal.
    1988; projected as SPG by Birgin, Martinez and Raydan, SIAM J. Optim.
    2000). f is concave, so s.y >= 0; alpha is clipped to [BB_STEP_MIN,
    BB_STEP_MAX], and s.y <= 0, which only rounding can cause, takes
    BB_STEP_MAX. Iteration 0 tries the unit step. A rejected trial halves
    the step. Every trial, Newton or not, passes the same Armijo test.

    Accepted steps never decrease the objective (the projection
    inequality makes the directional derivative nonnegative), so the
    recorded curve is monotone. The loop stops at the first iterate
    where the residual |pi - P(pi + grad)|_inf is at most ``tolerance``
    ("residual") or where the Frank-Wolfe gap ``fw_gap(grad, pi)`` is at
    most tolerance * max(1, gap0), gap0 being the gap at the start
    ("gap"). The gap threshold is relative to gap0 and not to |f|:
    scaling every weight by s shifts log det by order * log s but leaves
    the gradient, and with it the gap and Q, unchanged. For the same
    reason the Armijo test compares only the part of f that depends on
    pi; the constant ``objective.offset`` is added when f is recorded,
    which keeps the curve monotone.
    """
    t0 = time.perf_counter()
    tolerance, max_iters = float(tolerance), _as_vertex(max_iters, "max_iters")
    if not (tolerance >= 0.0 and max_iters >= 0):
        raise ArgumentError(f"tolerance and max_iters must be >= 0, got {tolerance}, {max_iters}")
    objective = _Objective(inst, lam)
    pi = project(_finite_vector(start, inst.num_candidates, "start"))
    value, grad = objective(pi)
    curve = [objective.offset + value]
    iterations = newton_steps = 0
    threshold = tolerance * max(1.0, fw_gap(grad, pi))
    alpha = 1.0
    Q = None  # the free block's -Hessian once the support has settled

    def accepts(cand, newton=False):
        gd = float(grad @ (cand - pi))
        # objective only here; the gradient is computed on acceptance
        cand_value = objective.value_only(cand)
        return gd > 0.0 and cand_value >= value + ARMIJO_SIGMA * gd and (cand_value > value or not newton)

    def solution(reason):
        return RelaxedSolution(pi, certified(objective, pi, curve[-1], gap), iterations, residual,
                               tuple(curve), gap, reason, newton_steps, time.perf_counter() - t0)

    while True:
        residual = float(np.max(np.abs(pi - project(pi + grad)))) if pi.size else 0.0
        gap = fw_gap(grad, pi)
        if residual <= tolerance:
            return solution("residual")
        if gap <= threshold:
            return solution("gap")
        if iterations >= max_iters:
            raise ConvergenceError(
                f"projected gradient did not reach tolerance {tolerance} in "
                f"{max_iters} iterations (residual {residual:.3e})",
                best=solution("iteration cap"),
            )
        cand = None
        if Q is not None:
            trial = _newton_point(Q, free, newton, pi, grad)
            if trial is not None and accepts(trial, newton=True):
                cand = trial
                newton_steps += 1
        t = 1.0
        while cand is None:
            trial = project(pi + (t * alpha) * grad)
            if accepts(trial):
                cand = trial
                break
            t *= BACKTRACK_SHRINK
            if t < 1e-18:
                raise ConvergenceError(
                    "line search stalled before reaching tolerance "
                    f"(residual {residual:.3e})",
                    best=solution("line search stalled"),
                )
        s = cand - pi
        old_grad = grad
        free = np.flatnonzero((cand > 0.0) & (cand < 1.0))
        settled = free.size >= 2 and np.array_equal(cand > 0.0, pi > 0.0)
        pi = cand
        value, grad, Q = objective(pi, free) if settled else (*objective(pi), None)
        sy = float(s @ (old_grad - grad))
        alpha = min(max(float(s @ s) / sy, BB_STEP_MIN), BB_STEP_MAX) if sy > 0.0 else BB_STEP_MAX
        curve.append(objective.offset + value)
        iterations += 1


def _newton_point(Q, free, newton, pi, grad):
    """The Newton trial point on pi's free set ``free``, Q = -Hessian_FF, or None.

    None when _cholesky refuses Q at the floor |F| eps max diag(Q): exact
    duplicate candidates in F make Q singular.
    """
    try:
        R = _cholesky(Q, free.size * np.finfo(float).eps * np.diag(Q).max())
    except NumericalError:
        return None
    point = pi.copy()
    point[free] = newton(lambda b: dpotrs(R, b, lower=1)[0], grad[free], pi[free])
    return point


class _Objective:
    """Channel-combined log det L(pi) minus lam * sum(pi); lam = 0 is P2.

    Calls return the part of f that depends on pi, evaluated on each
    channel's kernel (EdgeSelectionInstance.kernels); ``offset``, the
    base graphs' sum mult * log_det0, completes f. Scaling every weight
    by a power of two leaves the kernels' Z, and so every returned bit,
    unchanged. P3 keeps pi >= 0, so its L1 penalty is this linear term.
    It lives for one solve and keeps the factors of the last point it
    evaluated: the gradient at an accepted line-search trial reuses them.
    """

    def __init__(self, inst: EdgeSelectionInstance, lam: float = 0.0):
        self.kernels = inst.kernels
        self.lam = lam
        self.offset = sum(mult * kernel.log_det0 for mult, kernel in self.kernels)
        self._last = None  # (pi, each channel's factor) of the last point

    def _factors(self, pi):
        if self._last is None or not np.array_equal(pi, self._last[0]):
            self._last = (pi.copy(), [kernel.factor(pi) for _, kernel in self.kernels])
        return self._last[1]

    def __call__(self, pi, free=None):
        """(value, grad); with ``free``, also Q = -Hessian_FF = sum mult * W_FF o W_FF.

        Q is positive semidefinite by the Schur product theorem, and the
        penalty, linear, adds nothing to it.
        """
        value = 0.0
        grad = np.zeros(pi.size)
        Q = 0.0
        for (mult, kernel), factor in zip(self.kernels, self._factors(pi)):
            g, W = kernel.grad(factor, free)
            value += mult * kernel.log_det(factor)
            grad += mult * g
            if W is not None:
                Q = Q + mult * W ** 2
        out = (value - self.lam * float(pi.sum()), grad - self.lam)
        return out if free is None else (*out, Q)

    def log_det(self, pi):
        """The channel-combined log det L(pi), less the offset and without the penalty."""
        return sum(mult * kernel.log_det(factor)
                   for (mult, kernel), factor in zip(self.kernels, self._factors(pi)))

    def value_only(self, pi):
        return self.log_det(pi) - self.lam * float(pi.sum())


def _fp_allowance(order: int, value: float, objective: _Objective) -> float:
    """Floating-point allowance added to f(pi) + gap in the certified bound.

    Each channel's log det sums the logs of at most 2 * order Cholesky
    pivots, log_det0 and the lemma's factor, and the gap sums c gradient
    terms twice. Every log det is nonnegative (the base graph is
    connected and weights are >= 1), so eps * order * |f| covers the
    first sums. Gradient entry i is diag(G)_i - |x_i|^2 or |x_i|^2, both
    terms at most diag(G)_i, so eps * c * sum(mult * diag(G)) covers the
    second. The backward error of the factorizations themselves, which
    grows with the condition number of L(pi), is not covered, nor is the
    error of log_det0 and Z on a base that takes the dense factor; the
    path base of every g2o instance carries none beyond rounding
    (graphs.connected_tau).
    """
    diag = sum(mult * kernel.gram_diag for mult, kernel in objective.kernels)
    return float(np.finfo(float).eps * (order * abs(value) + diag.size * diag.sum()))


def solve_p2(
    inst: EdgeSelectionInstance,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
    start: Sequence[float] | None = None,
) -> RelaxedSolution:
    """Budgeted relaxation: maximize the objective over the capped simplex.

    Any ``start`` of c finite entries may be supplied (it is projected
    first; another length or a non-finite entry raises ArgumentError);
    the default is the uniform k/c vector. The ascent stops once the
    residual |pi - P(pi + grad)|_inf is at most ``tolerance`` or the
    Frank-Wolfe gap sum top-k(grad) - grad.pi is at most tolerance *
    max(1, gap at the start). f is concave, so f(pi) + gap bounds the
    relaxation optimum (Jaggi, "Revisiting Frank-Wolfe", ICML 2013),
    which bounds tau of every k-edge integral design. tau_cvx_star is
    that certified value plus a floating-point allowance
    (_fp_allowance), and the best iterate of a ConvergenceError carries
    it too.
    """
    c, k = inst.num_candidates, inst.k

    def budget_gap(grad, p):
        top = np.partition(grad, c - k)[c - k:].sum() if k else 0.0
        return max(0.0, float(top - grad @ p))

    def budget_newton(solve, g, p):
        # maximize g.d - d.Q.d / 2 subject to sum d = 0: d = a - (sum a / sum b) b;
        # the face keeps the free block's sum
        a, b = solve(np.column_stack((g, np.ones_like(g)))).T
        return project_capped_simplex(p + a - (a.sum() / b.sum()) * b, p.sum())

    if start is None:
        start = np.full(c, k / c if c else 0.0)
    return _projected_ascent(
        inst, 0.0, lambda v: project_capped_simplex(v, k), budget_gap, budget_newton, start,
        tolerance, max_iters,
        lambda objective, p, f, gap: f + gap + _fp_allowance(inst.n - 1, f, objective))


def solve_p3(
    inst: EdgeSelectionInstance,
    lam: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
    start: Sequence[float] | None = None,
) -> RelaxedSolution:
    """L1-penalized relaxation over the box [0, 1]^c.

    lambda = 0 drives every selector to 1; lambda above the largest
    initial score w_i * Delta_i drives them all to 0. The stop rule is
    solve_p2's, with the box gap sum max(grad, 0) - grad.pi of the
    penalized objective. tau_cvx_star reports the unpenalized objective
    at the final selector while the recorded curve tracks the penalized
    one the solver climbs; it is not a certificate. ``start`` is checked
    and projected as in solve_p2; the default is 0.5 everywhere.
    """
    lam = float(lam)
    if lam < 0 or not math.isfinite(lam):
        raise ArgumentError(f"lambda must be finite and >= 0, got {lam!r}")

    def box_gap(grad, p):
        return max(0.0, float(np.maximum(grad, 0.0).sum() - grad @ p))

    if start is None:
        start = np.full(inst.num_candidates, 0.5)
    return _projected_ascent(
        inst, lam, lambda v: np.clip(v, 0.0, 1.0), box_gap,
        lambda solve, g, p: np.clip(p + solve(g), 0.0, 1.0), start, tolerance, max_iters,
        lambda objective, p, f, gap: objective.offset + objective.log_det(p))


def round_deterministic(
    inst: EdgeSelectionInstance, pi, k: int | None = None
) -> SelectionResult:
    """Keep the k largest selectors (ties to the lowest index).

    Returns the rounded design with its exact tau; a fractional
    relaxation optimum rounded this way is the certificate's feasible
    convex leg. A binary relaxation optimum survives rounding intact.
    """
    start = time.perf_counter()
    pi = _validate_pi(pi, inst.num_candidates)
    if k is None:
        k = inst.k
    k = _as_vertex(k, "k")
    if not 0 <= k <= inst.num_candidates:
        raise ArgumentError(f"k={k} outside 0..{inst.num_candidates}")
    order = np.argsort(-pi, kind="stable")  # stable: equal values keep index order
    return _selection_result(inst, sorted(int(i) for i in order[:k]), start)


@dataclass(frozen=True)
class RandomizedRounding:
    """Independent Bernoulli(pi_i) rounding trials, each distinct one scored once.

    num_selected[t] is the size of trial t's selection; log_tree_counts[t, j]
    is the log weighted spanning-tree count of the trial's design under
    channel j (base edges always included, so counts stay positive even
    when a trial keeps nothing). In expectation the selection size is
    sum(pi) and each channel's tree count is det L(pi).
    """

    pi: np.ndarray
    seed: int
    channels: tuple[str | None, ...]
    num_selected: np.ndarray
    log_tree_counts: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.num_selected.size)

    @property
    def tree_counts(self) -> np.ndarray:
        """Raw counts, exp of log_tree_counts; inf beyond the float64 range."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_tree_counts)

    @property
    def mean_num_selected(self) -> float:
        return float(self.num_selected.mean())

    @property
    def mean_tree_counts(self) -> np.ndarray:
        return self.tree_counts.mean(axis=0)

    @property
    def mean_log_tree_counts(self) -> np.ndarray:
        """log of mean_tree_counts, finite where the raw counts overflow."""
        top = self.log_tree_counts.max(axis=0)
        return top + np.log(np.exp(self.log_tree_counts - top).mean(axis=0))


def round_randomized(
    inst: EdgeSelectionInstance,
    pi,
    seed: int = 0,
    trials: int = 1000,
) -> RandomizedRounding:
    """Sample Bernoulli roundings of pi and tabulate per-trial statistics.

    Trials are drawn in chunks whose bits fit LEMMA_BATCH_BYTES; each
    distinct design of a chunk is scored once per channel through the
    relaxation's own factor and log det at its 0/1 indicator (the
    instance's kernels, treeconn.SubsetLogDet), so a trial's counts do
    not depend on the other trials drawn with it. Memory is the kernels,
    one chunk of bits and its float64 draws (8x the bits), and the factor
    of one design.
    """
    pi = _validate_pi(pi, inst.num_candidates)
    trials = _as_vertex(trials, "trials")
    if trials < 1:
        raise ArgumentError("trials must be >= 1")
    seed = _as_seed(seed)
    c = inst.num_candidates
    lemmas = inst.kernels

    num_selected = np.zeros(trials, dtype=int)
    log_counts = np.zeros((trials, len(lemmas)))
    rng = np.random.default_rng(seed)
    batch = max(1, treeconn.LEMMA_BATCH_BYTES // max(1, c))  # a chunk's bits, one byte each
    for done in range(0, trials, batch):
        bits = rng.random((min(batch, trials - done), c)) < pi
        rows = slice(done, done + len(bits))
        num_selected[rows] = bits.sum(axis=1)
        # one raw-bytes key per trial (c = 0: one design) sorts 3-12x faster
        # than np.unique(axis=0)
        packed = np.packbits(bits, axis=1)
        keys = packed.view(f"V{packed.shape[1]}")[:, 0] if c else np.zeros(len(bits))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        designs = bits[first].astype(float)  # the chunk's distinct 0/1 indicators
        for j, (_, lemma) in enumerate(lemmas):
            scores = np.array([lemma.log_det(lemma.factor(d)) for d in designs])
            log_counts[rows, j] = lemma.log_det0 + scores[inverse]

    num_selected.setflags(write=False)
    log_counts.setflags(write=False)
    return RandomizedRounding(
        pi=pi,
        seed=seed,
        channels=tuple(ch for ch, _ in inst.channels),
        num_selected=num_selected,
        log_tree_counts=log_counts,
    )
