import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import (
    ArgumentError,
    ConvergenceError,
    EdgeSelectionInstance,
    exhaustive_select,
    laplacian_of_pi,
    project_capped_simplex,
    random_instance,
    relaxed_objective_and_gradient,
    round_deterministic,
    round_randomized,
    solve_p2,
    solve_p3,
    tree_connectivity,
)
from treesynth import convex, treeconn
from conftest import direct_log_det_and_grad, random_add_instance, slam_instance


def star_instance(k=2):
    base = ((1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0))
    cands = ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0))
    return EdgeSelectionInstance(4, base, cands, k)


def path_with_chords(k=5, n=40):
    """A path with short and long chords; at k=3 its line search backtracks."""
    path = tuple((i, i + 1, 1.0) for i in range(1, n))
    chords = tuple((i, i + 2, 1.0) for i in range(1, n - 1))
    chords += tuple((i, i + n // 2, 3.0) for i in range(1, n // 2 + 1))
    return EdgeSelectionInstance(n, path, chords, k)


def scaled(inst, s):
    """The instance with every weight of every channel multiplied by s."""
    def mul(edges):
        return tuple((u, v, *(w * s for w in ws)) for u, v, *ws in edges)

    return EdgeSelectionInstance(
        inst.n, mul(inst.base_edges), mul(inst.candidates), inst.k, objective=inst.objective)


# ---------------------------------------------------------------------------
# projection


@settings(max_examples=200)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30).map(np.array),
    st.floats(0.0, 1.0),
)
def test_projection_feasibility(v, frac):
    k = frac * v.size
    x = project_capped_simplex(v, k)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(x.sum() - k) <= 1e-9


@settings(max_examples=100)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=20).map(np.array))
def test_projection_preserves_order(v):
    x = project_capped_simplex(v, v.size / 2.0)
    order = np.argsort(v)
    assert np.all(np.diff(x[order]) >= -1e-12)


def test_projection_degenerate_budgets_are_exact():
    v = np.array([0.3, -2.0, 5.0, 0.7])
    assert np.array_equal(project_capped_simplex(v, 0.0), np.zeros(4))
    assert np.array_equal(project_capped_simplex(v, 4.0), np.ones(4))


def test_projection_identity_on_feasible_points():
    v = np.array([0.2, 0.5, 0.3])
    x = project_capped_simplex(v, 1.0)
    assert np.allclose(x, v, atol=1e-12)


def test_projection_rejects_impossible_budget():
    with pytest.raises(ArgumentError):
        project_capped_simplex(np.array([0.5]), 2.0)


def bisect_projection(v, k):
    """Reference: bisection on theta until the bracket is two adjacent floats."""
    lo, hi = v.min() - 1.0, v.max()
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return np.clip(v - mid, 0.0, 1.0)
        s = np.clip(v - mid, 0.0, 1.0).sum()
        if s == k:
            return np.clip(v - mid, 0.0, 1.0)
        lo, hi = (mid, hi) if s > k else (lo, mid)


def test_projection_matches_reference_bisection():
    rng = np.random.default_rng(19)
    sizes = [1, 2, 3, 5, 18, 100, 285, 2000]
    for trial in range(400):
        c = sizes[trial % len(sizes)]
        scale, offset = 10.0 ** rng.uniform(-8, 4, size=2)
        v = scale * rng.standard_normal(c) + offset * rng.standard_normal()
        if trial % 3 == 0:
            v = np.round(v / scale * 2) * scale / 2  # tied entries
        k = float(rng.integers(1, c + 1)) if trial % 2 else rng.uniform(0, c)
        x = project_capped_simplex(v, k)
        scale_v = max(1.0, float(np.max(np.abs(v))))
        assert np.max(np.abs(x - bisect_projection(v, k))) <= 1e-12 * scale_v
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert abs(x.sum() - k) <= convex.SUM_TOLERANCE * max(1.0, k)
        # KKT: the free coordinates share one shift theta, the clipped
        # ones lie on the right side of it
        free = (x > 0.0) & (x < 1.0)
        if free.any():
            shift = v[free] - x[free]
            theta = float(np.median(shift))
            assert np.max(np.abs(shift - theta)) <= 1e-12 * scale_v
            assert np.all(v[x == 0.0] <= theta + 1e-12 * scale_v)
            assert np.all(v[x == 1.0] >= theta + 1.0 - 1e-12 * scale_v)


def test_projection_rejects_nonfinite_entries():
    for bad in (np.nan, np.inf, -np.inf, 2.0**60):
        with pytest.raises(ArgumentError):
            project_capped_simplex(np.array([0.5, bad]), 1.0)


def test_projection_minimizes_distance_against_enumeration():
    # brute-force the KKT structure: compare against a fine grid optimum
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.uniform(-2, 2, size=3)
        x = project_capped_simplex(v, 1.5)
        best = None
        for a in np.linspace(0, 1, 61):
            b_lo = max(0.0, 1.5 - a - 1.0)
            b_hi = min(1.0, 1.5 - a)
            if b_lo > b_hi:
                continue
            for b in np.linspace(b_lo, b_hi, 31):
                c = 1.5 - a - b
                if not -1e-12 <= c <= 1 + 1e-12:
                    continue
                cand = np.array([a, b, min(max(c, 0.0), 1.0)])
                d = float(np.sum((cand - v) ** 2))
                if best is None or d < best:
                    best = d
        assert float(np.sum((x - v) ** 2)) <= best + 1e-6


# ---------------------------------------------------------------------------
# objective and gradient


def test_gradient_is_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = random_add_instance(rng, 6, 8, 6, 3)
        pi = rng.uniform(0.0, 1.0, size=6)
        _, grad = relaxed_objective_and_gradient(inst, pi)
        assert np.all(grad >= -1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    inst = random_add_instance(rng, 6, 8, 6, 3)
    pi = rng.uniform(0.2, 0.8, size=6)
    _, grad = relaxed_objective_and_gradient(inst, pi)
    eps = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = eps
        hi, _ = relaxed_objective_and_gradient(inst, pi + e)
        lo, _ = relaxed_objective_and_gradient(inst, pi - e)
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


def test_objective_at_integer_points_matches_tree_connectivity():
    inst = star_instance()
    g = inst.base_graph()
    for bits in itertools.product([0.0, 1.0], repeat=3):
        pi = np.array(bits)
        value, _ = relaxed_objective_and_gradient(inst, pi)
        sub = [i for i, b in enumerate(bits) if b]
        tau = tree_connectivity(g.with_edges(inst.candidate_edges(sub))).tau
        assert value == pytest.approx(tau, abs=1e-10)


def test_laplacian_of_pi_channel_rules():
    inst = star_instance()
    laplacian_of_pi(inst, np.zeros(3))
    with pytest.raises(ArgumentError):
        laplacian_of_pi(inst, np.zeros(3), "p")
    base = tuple((u, v, w, w) for u, v, w in inst.base_edges)
    cands = tuple((u, v, w, w) for u, v, w in inst.candidates)
    dual = EdgeSelectionInstance(4, base, cands, 2, objective="slam-double")
    laplacian_of_pi(dual, np.zeros(3), "p")
    for channel in (None, "bogus"):
        with pytest.raises(ArgumentError):
            laplacian_of_pi(dual, np.zeros(3), channel)


def _bareiss_log_det(rows):
    """log det of a matrix of Fractions with nonzero leading minors, exact up to the logs.

    Bareiss elimination: step i's pivot is the i-th leading minor, every
    division is exact, and the last pivot is the determinant.
    """
    M = [list(r) for r in rows]
    prev = Fraction(1)
    for i in range(len(M) - 1):
        for j in range(i + 1, len(M)):
            for col in range(i + 1, len(M)):
                M[j][col] = (M[j][col] * M[i][i] - M[j][i] * M[i][col]) / prev
        prev = M[i][i]
    det = M[-1][-1]
    return math.log(det.numerator) - math.log(det.denominator)


def test_laplacian_of_pi_matches_an_exact_determinant():
    # the reduced Laplacian of base plus pi_i w_i-weighted candidates,
    # assembled exactly in Fractions from the float inputs, against the
    # dense factor of laplacian_of_pi; weights spread over 8 decades, a
    # third of the selectors are 0, and a reversed candidate on a base pair
    # merges with that base edge. The dense factor's error grows with the
    # condition number, so the bound is the first-order eps order^2 kappa
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for t in range(20):
        n = int(rng.integers(6, 10))
        topo = random_add_instance(rng, n, int(rng.integers(n - 1, n + 3)), int(rng.integers(4, 9)), 1)
        width = 1 + t % 2  # single-weight, then slam-double

        def spread(edges):
            return tuple((u, v, *(float(10 ** rng.uniform(0.0, 8.0)) for _ in range(width)))
                         for u, v, *_ in edges)

        base = spread(topo.base_edges)
        cands = spread(topo.candidates + ((base[0][1], base[0][0], 1.0),))
        inst = EdgeSelectionInstance(n, base, cands, 1, objective=("single-weight", "slam-double")[t % 2])
        pi = rng.uniform(0.0, 1.0, size=len(cands))
        pi[rng.permutation(len(cands))[: len(cands) // 3]] = 0.0
        for j, (channel, _) in enumerate(inst.channels):
            L = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
            weighted = [(e[0], e[1], Fraction(e[2 + j])) for e in base]
            weighted += [(e[0], e[1], Fraction(p) * Fraction(e[2 + j])) for e, p in zip(cands, pi)]
            for u, v, w in weighted:
                for a, b, sign in ((u, u, 1), (v, v, 1), (u, v, -1), (v, u, -1)):
                    if a < n and b < n:  # vertex n is the anchor
                        L[a - 1][b - 1] += sign * w
            lap = laplacian_of_pi(inst, pi, channel)
            bound = eps * (n - 1) ** 2 * np.linalg.cond(lap.matrix)
            assert abs(lap.log_det() - _bareiss_log_det(L)) <= bound


def test_pi_validation():
    inst = star_instance()
    with pytest.raises(ArgumentError):
        relaxed_objective_and_gradient(inst, np.zeros(2))
    with pytest.raises(ArgumentError):
        relaxed_objective_and_gradient(inst, np.array([0.5, 0.5, 1.5]))
    with pytest.raises(ArgumentError):
        relaxed_objective_and_gradient(inst, np.array([0.5, np.nan, 0.5]))


def test_solvers_refuse_nan_or_negative_stop_settings():
    inst = star_instance()
    for solve in (solve_p2, lambda i, **kw: solve_p3(i, 0.5, **kw)):
        # a warm start of another length once failed in numpy's broadcast,
        # and a NaN entry was returned as the solution
        for bad in ({"tolerance": math.nan}, {"tolerance": -1.0}, {"max_iters": -3},
                    {"start": np.zeros(2)}, {"start": [math.nan, 0.0, 0.0]},
                    {"start": [0.5, math.inf, 0.5]}):
            with pytest.raises(ArgumentError):
                solve(inst, **bad)
        # a finite start outside the feasible set is projected
        pi = solve(inst, start=[5.0, -3.0, 0.2]).pi
        assert np.all((pi >= 0.0) & (pi <= 1.0))
    # a zero tolerance and a zero iteration cap stay accepted
    assert solve_p2(inst, tolerance=0.0).stop_reason == "residual"
    assert solve_p2(inst, max_iters=0).iterations == 0


# ---------------------------------------------------------------------------
# budgeted solver


def test_solver_finds_symmetric_optimum_from_asymmetric_start():
    sol = solve_p2(star_instance(), start=np.array([0.95, 0.6, 0.1]))
    assert np.allclose(sol.pi, 2.0 / 3.0, atol=1e-5)
    assert sol.kkt_residual <= 1e-7


def test_solver_objective_curve_is_monotone():
    rng = np.random.default_rng(23)
    for _ in range(8):
        inst = random_add_instance(rng, 7, 9, 8, 4)
        sol = solve_p2(inst, start=np.linspace(0.05, 0.95, 8))
        curve = sol.objective_curve
        assert all(b >= a for a, b in zip(curve, curve[1:]))


def test_solver_two_starts_agree_on_objective():
    rng = np.random.default_rng(29)
    inst = random_add_instance(rng, 7, 9, 8, 4)
    s1 = solve_p2(inst, start=np.full(8, 0.5))
    s2 = solve_p2(inst, start=np.linspace(0.01, 0.99, 8))
    assert abs(s1.tau_cvx_star - s2.tau_cvx_star) <= 1e-6


def test_solver_degenerate_budgets():
    z = solve_p2(star_instance(k=0))
    assert np.array_equal(z.pi, np.zeros(3))
    f = solve_p2(star_instance(k=3))
    assert np.array_equal(f.pi, np.ones(3))
    assert f.kkt_residual == 0.0


def test_solver_iteration_cap_raises_with_best_iterate():
    rng = np.random.default_rng(31)
    inst = random_add_instance(rng, 8, 10, 9, 4)
    with pytest.raises(ConvergenceError) as err:
        solve_p2(inst, max_iters=1, start=np.linspace(0.05, 0.95, 9))
    best = err.value.best
    assert best is not None
    assert best.pi.size == 9
    assert best.iterations == 1


def test_solver_factors_each_accepted_point_once(monkeypatch):
    rng = np.random.default_rng(12)
    inst = slam_instance(random_add_instance(rng, 9, 12, 10, 4), rng)
    calls = []
    cholesky = treeconn._cholesky  # the kernels' binding of the one factor routine
    monkeypatch.setattr(treeconn, "_cholesky", lambda *a: calls.append(1) or cholesky(*a))
    reused = solve_p2(inst)
    reused_calls = len(calls)

    factors = convex._Objective._factors

    def fresh(self, pi):
        self._last = None  # forget the kept factors: every call factors
        return factors(self, pi)

    monkeypatch.setattr(convex._Objective, "_factors", fresh)
    calls.clear()
    rebuilt = solve_p2(inst)
    assert np.array_equal(reused.pi, rebuilt.pi)
    assert reused.objective_curve == rebuilt.objective_curve
    assert reused.iterations == rebuilt.iterations > 0
    assert len(calls) - reused_calls == 2 * reused.iterations


def test_solver_projects_each_step_once(monkeypatch):
    rng = np.random.default_rng(12)
    # the path with chords at k=3 backtracks; the random slam-double
    # instance never does
    cases = [
        slam_instance(random_add_instance(rng, 9, 12, 10, 4), rng),
        path_with_chords(3),
    ]
    projections, trials = [], []
    project = convex.project_capped_simplex
    value_only = convex._Objective.value_only
    monkeypatch.setattr(
        convex, "project_capped_simplex",
        lambda *a, **kw: projections.append(1) or project(*a, **kw))
    monkeypatch.setattr(
        convex._Objective, "value_only",
        lambda self, pi: trials.append(1) or value_only(self, pi))
    backtracks = 0
    for inst in cases:
        projections.clear()
        trials.clear()
        sol = solve_p2(inst)
        # every line-search trial evaluates the objective once, and each
        # accepted iteration ended with exactly one accepted trial
        backtracked = len(trials) - sol.iterations
        # the start, one residual check per iteration plus the final
        # one, and one per line-search trial: the first trial is the
        # Newton or the Barzilai-Borwein step, not the residual's unit step
        assert len(projections) == 1 + (sol.iterations + 1) + len(trials)
        backtracks += backtracked
    assert backtracks > 0


def test_certified_bound_is_above_exhaustive_optimum():
    # f(pi) at a loosely converged iterate can sit below OPT; f(pi) plus
    # the Frank-Wolfe gap cannot
    rng = np.random.default_rng(43)
    for i in range(30):
        inst = random_add_instance(rng, 8, 10, 9, 4)
        if i % 2:
            inst = slam_instance(inst, rng)
        opt = exhaustive_select(inst).tau_achieved
        for tol in (1e-1, 1e-2, 1e-3):
            sol = solve_p2(inst, tolerance=tol)
            assert sol.tau_cvx_star >= opt
            assert sol.tau_cvx_star >= sol.objective_curve[-1] + sol.fw_gap


def test_stop_rule_is_scale_free():
    # scaling every weight by a power of two scales L(pi) exactly and
    # leaves the gradient's bits alone, while log det shifts by
    # order * log(s): a rule relative to |f| would stop elsewhere, and an
    # Armijo test on absolute log dets would accept other steps
    rng = np.random.default_rng(7)
    cases = [path_with_chords(k) for k in (3, 5, 8)]
    for i in range(6):
        inst = random_add_instance(rng, 9, 12, 10, 4)
        cases.append(slam_instance(inst, rng) if i % 2 else inst)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for i in range(20):
            inst = random_add_instance(rng, 9, 12, 10, 4)
            cases.append(slam_instance(inst, rng) if i % 2 else inst)
    reasons = set()
    for inst in cases:
        ref = solve_p2(inst)
        reasons.add(ref.stop_reason)
        for s in (4.0, 16.0):
            sol = solve_p2(scaled(inst, s))
            assert (sol.iterations, sol.stop_reason) == (ref.iterations, ref.stop_reason)
            assert sol.pi.tobytes() == ref.pi.tobytes()
            assert sol.fw_gap == ref.fw_gap
    assert reasons == {"gap", "residual"}


def test_rounding_allowance_covers_the_kernel_against_direct_evaluation():
    # f and the gap from the determinant-lemma kernel differ from those of
    # the assembled L(pi) by less than the allowance in tau_cvx_star
    rng = np.random.default_rng(47)
    cases = [path_with_chords(3), path_with_chords(8, n=60)]
    for i in range(8):
        inst = random_add_instance(rng, 12, 16, 14, 5)
        cases.append(slam_instance(inst, rng) if i % 2 else inst)
    for inst in cases:
        sol = solve_p2(inst)
        k = inst.k
        f, grad = 0.0, 0.0
        for channel, mult in inst.channels:
            value, g = direct_log_det_and_grad(inst, sol.pi, channel)
            f, grad = f + mult * value, grad + mult * g
        gap = np.sort(grad)[-k:].sum() - grad @ sol.pi
        allowance = sol.tau_cvx_star - sol.objective_curve[-1] - sol.fw_gap
        assert abs(f - sol.objective_curve[-1]) + abs(gap - sol.fw_gap) <= allowance


def test_gap_stop_certifies_its_bound():
    # at k=3 the Newton trial reaches the residual tolerance first
    inst = path_with_chords(5)
    c, k, order = inst.num_candidates, inst.k, inst.n - 1
    sol = solve_p2(inst)
    assert sol.stop_reason == "gap"
    assert sol.kkt_residual > convex.DEFAULT_TOLERANCE
    value, grad = relaxed_objective_and_gradient(inst, sol.pi)
    assert value == sol.objective_curve[-1]
    # the gap at the uniform start sets the scale of the stop threshold
    _, grad0 = relaxed_objective_and_gradient(inst, np.full(c, k / c))
    gap0 = np.sort(grad0)[-k:].sum() - grad0.sum() * k / c
    assert 0.0 < sol.fw_gap <= convex.DEFAULT_TOLERANCE * gap0
    assert sol.fw_gap == pytest.approx(np.sort(grad)[-k:].sum() - grad @ sol.pi, rel=1e-9)
    # tau_cvx_star = f(pi) + gap + eps * (order * |log det| + c * sum diag(G)),
    # diag(G) being the gradient at pi = 0 (the base graph's w_i * Delta_i)
    _, diag = relaxed_objective_and_gradient(inst, np.zeros(c))
    eps_fp = np.finfo(float).eps * (order * abs(value) + c * diag.sum())
    excess = sol.tau_cvx_star - value - sol.fw_gap
    assert abs(excess - eps_fp) <= 4 * np.spacing(value) < eps_fp / 10
    assert sol.to_dict().keys() == {"pi", "tau_cvx_star", "iterations", "kkt_residual"}


def test_convergence_error_carries_the_certified_bound(monkeypatch):
    rng = np.random.default_rng(31)
    inst = slam_instance(random_add_instance(rng, 8, 10, 9, 4), rng)
    with pytest.raises(ConvergenceError) as err:
        solve_p2(inst, max_iters=2)
    best = err.value.best
    assert (best.iterations, best.stop_reason) == (2, "iteration cap")
    value, grad = relaxed_objective_and_gradient(inst, best.pi)
    assert best.fw_gap > 1e-3
    assert best.tau_cvx_star == pytest.approx(value + best.fw_gap, rel=1e-12)
    assert best.tau_cvx_star > value + best.fw_gap
    # every trial point fails the Armijo test: the line search stalls at the start
    monkeypatch.setattr(convex._Objective, "value_only", lambda self, pi: -math.inf)
    with pytest.raises(ConvergenceError) as err:
        solve_p2(inst)
    best = err.value.best
    assert (best.iterations, best.stop_reason) == (0, "line search stalled")
    assert best.tau_cvx_star > best.objective_curve[-1] + best.fw_gap


def test_p3_convergence_error_carries_the_unpenalized_objective():
    rng = np.random.default_rng(31)
    inst = slam_instance(random_add_instance(rng, 8, 10, 9, 4), rng)
    with pytest.raises(ConvergenceError) as err:
        solve_p3(inst, 0.5, max_iters=1)
    best = err.value.best
    assert (best.iterations, best.stop_reason) == (1, "iteration cap")
    assert best.tau_cvx_star == relaxed_objective_and_gradient(inst, best.pi)[0]


def test_solver_converges_at_defaults_on_random_instances():
    # with the unit step as every first trial, some of these instances
    # need hundreds of iterations; the Barzilai-Borwein trial alone needs
    # up to 14, and with the Newton trial on a settled support up to 8
    rng = np.random.default_rng(5)
    for i in range(100):
        n, c = int(rng.integers(8, 14)), int(rng.integers(4, 11))
        m = int(rng.integers(n - 1, min(n * (n - 1) // 2 - c, 2 * n) + 1))
        inst = random_add_instance(rng, n, m, c, int(rng.integers(1, c)))
        if i % 2:
            inst = slam_instance(inst, rng)
        sol = solve_p2(inst)
        assert sol.iterations <= 12
        assert sol.tau_cvx_star >= exhaustive_select(inst).tau_achieved


def test_solver_leaves_a_face_whose_newton_gain_rounds_to_zero():
    # on these a Newton trial passed the Armijo test with an objective
    # increase of exactly 0 in every iteration, so pi stayed on a face that
    # is not optimal until the 5,000-iteration cap; a Newton trial must now
    # raise f, and the Barzilai-Borwein trials that follow a rejected one
    # leave the face
    for n, m, seed, k, c in ((8, 9, 38, 4, 5), (14, 16, 0, 4, 7), (14, 16, 56, 5, 7)):
        inst = random_instance(n, m, "sampled", (1.0, 5.0), seed=seed, k=k, sample_size=c)
        sol = solve_p2(inst)
        assert sol.iterations <= 12 and sol.newton_steps > 0
        assert sol.tau_cvx_star >= exhaustive_select(inst).tau_achieved


def test_newton_curvature_matches_central_differences():
    # Q = -Hessian of f over the free selectors, against central
    # differences of the gradient
    rng = np.random.default_rng(14)
    narrow = random_add_instance(rng, 14, 20, 8, 3)  # c = 8 <= order = 13: G kept
    wide = random_instance(7, 6, "complement", (1.0, 3.0), seed=2, k=3)  # c = 15 > 6
    forms = set()
    for inst in (narrow, wide, slam_instance(narrow, rng), slam_instance(wide, rng)):
        c, order = inst.num_candidates, inst.n - 1
        for s in (min(c, order) - 1, c):
            support = rng.permutation(c)[:s]
            pi = np.zeros(c)
            pi[support] = rng.uniform(0.2, 0.8, size=s)
            pi[support[0]] = 1.0  # in the support, not free
            free = np.flatnonzero((pi > 0.0) & (pi < 1.0))
            objective = convex._Objective(inst)
            value, grad, Q = objective(pi, free)
            assert (value, grad.tolist()) == (objective(pi)[0], objective(pi)[1].tolist())
            h = 1e-5
            H = np.empty_like(Q)
            for j, i in enumerate(free):
                e = np.zeros(c)
                e[i] = h
                H[:, j] = (objective(pi + e)[1] - objective(pi - e)[1])[free] / (2 * h)
            np.testing.assert_allclose(Q, -H, rtol=0, atol=1e-6 * np.abs(Q).max())
            assert np.array_equal(Q, Q.T)
            # the objective last factored pi - e: pi's new factor gives the same bits
            assert np.array_equal(objective(pi, free)[2], Q)
            forms.add((c <= order, s > order))
    # the s x s form with G kept and with its rows formed from Z, and the
    # order x order form
    assert forms == {(True, False), (False, False), (False, True)}


def test_newton_falls_back_on_duplicate_free_candidates(monkeypatch):
    # exact duplicates in the free set make Q singular: no Newton trial
    points = []
    newton_point = convex._newton_point

    def record(Q, free, newton, pi, grad):
        point = newton_point(Q, free, newton, pi, grad)
        points.append((pi.copy(), point))
        return point

    monkeypatch.setattr(convex, "_newton_point", record)
    rng = np.random.default_rng(3)
    singular = 0
    for i in range(8):
        inst = random_add_instance(rng, 10, 13, 6, 3)
        if i % 2:
            inst = slam_instance(inst, rng)
        # candidates 0 and 1 again, and candidate 2 reversed
        dups = inst.candidates[:2] + tuple((v, u, *w) for u, v, *w in inst.candidates[2:3])
        inst = EdgeSelectionInstance(inst.n, inst.base_edges, inst.candidates + dups, 4,
                                     objective=inst.objective)
        points.clear()
        sol = solve_p2(inst)
        assert sol.tau_cvx_star >= exhaustive_select(inst).tau_achieved
        for pi, point in points:
            free = (pi > 0.0) & (pi < 1.0)
            if any(free[j] and free[6 + j] for j in range(3)):
                assert point is None
                singular += 1
    assert singular > 0


def test_newton_steps_keep_the_face_and_are_reported(monkeypatch):
    trials = []
    newton_point = convex._newton_point

    def record(Q, free, newton, pi, grad):
        trials.append((pi.copy(), newton_point(Q, free, newton, pi, grad)))
        return trials[-1][1]

    monkeypatch.setattr(convex, "_newton_point", record)
    rng = np.random.default_rng(6)
    cases = [(path_with_chords(8, n=60), None), (random_add_instance(rng, 60, 80, 60, 12), None),
             (path_with_chords(n=60), 0.5)]
    for inst, lam in cases:
        trials.clear()
        sol = solve_p2(inst) if lam is None else solve_p3(inst, lam)
        assert 0 < sol.newton_steps <= sol.iterations
        assert "newton_steps" not in sol.to_dict()
        # the selectors at 0 and at 1 keep their exact values
        for pi, trial in trials:
            fixed = (pi == 0.0) | (pi == 1.0)
            assert trial is not None and np.array_equal(trial[fixed], pi[fixed])


def test_relaxation_upper_bounds_every_integral_point():
    rng = np.random.default_rng(37)
    for _ in range(6):
        inst = random_add_instance(rng, 6, 7, 6, 3)
        sol = solve_p2(inst)
        for sub in itertools.combinations(range(6), 3):
            pi = np.zeros(6)
            pi[list(sub)] = 1.0
            value, _ = relaxed_objective_and_gradient(inst, pi)
            assert value <= sol.tau_cvx_star + 1e-6


# ---------------------------------------------------------------------------
# penalized solver


def test_penalty_zero_saturates_all_coordinates():
    sol = solve_p3(star_instance(), 0.0)
    assert np.allclose(sol.pi, 1.0)


def test_penalty_large_kills_all_coordinates():
    sol = solve_p3(star_instance(), 50.0)
    assert np.allclose(sol.pi, 0.0, atol=1e-7)


def test_penalty_monotone_shrinks_support():
    rng = np.random.default_rng(41)
    inst = random_add_instance(rng, 7, 9, 8, 4)
    sums = [solve_p3(inst, lam).pi.sum() for lam in (0.0, 0.1, 0.3, 1.0)]
    assert all(a >= b - 1e-7 for a, b in zip(sums, sums[1:]))


def test_penalty_rejects_negative_lambda():
    with pytest.raises(ArgumentError):
        solve_p3(star_instance(), -0.5)


def test_penalized_solver_reports_the_box_gap():
    # at n=40 and lambda=1 the Newton trial reaches the residual tolerance first
    inst, lam = path_with_chords(n=60), 0.5
    sol = solve_p3(inst, lam)
    assert sol.stop_reason == "gap"
    _, grad = relaxed_objective_and_gradient(inst, sol.pi)
    grad = grad - lam  # the penalized objective's gradient
    gap = np.maximum(grad, 0.0).sum() - grad @ sol.pi
    assert 0.0 < sol.fw_gap == pytest.approx(gap, rel=1e-9)


def test_penalized_report_carries_unpenalized_objective():
    inst = star_instance()
    sol = solve_p3(inst, 0.2)
    value, _ = relaxed_objective_and_gradient(inst, sol.pi)
    assert sol.tau_cvx_star == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# rounding


def test_deterministic_rounding_takes_top_k():
    inst = star_instance()
    res = round_deterministic(inst, np.array([0.2, 0.9, 0.5]))
    assert res.selected == (1, 2)


def test_deterministic_rounding_breaks_ties_low_index():
    inst = star_instance()
    res = round_deterministic(inst, np.array([0.5, 0.5, 0.5]))
    assert res.selected == (0, 1)


def test_deterministic_rounding_k_override_and_tau():
    inst = star_instance()
    res = round_deterministic(inst, np.array([0.9, 0.1, 0.4]), k=1)
    assert res.selected == (0,)
    g = inst.base_graph().with_edges(inst.candidate_edges((0,)))
    assert res.tau_achieved == pytest.approx(tree_connectivity(g).tau, abs=1e-12)


def test_randomized_rounding_is_seed_reproducible():
    inst = star_instance()
    pi = np.array([0.3, 0.7, 0.5])
    a = round_randomized(inst, pi, seed=9, trials=500)
    b = round_randomized(inst, pi, seed=9, trials=500)
    assert np.array_equal(a.tree_counts, b.tree_counts)
    assert np.array_equal(a.num_selected, b.num_selected)
    c = round_randomized(inst, pi, seed=10, trials=500)
    assert not np.array_equal(a.tree_counts, c.tree_counts)


def test_randomized_rounding_expectations_match_enumeration():
    inst = EdgeSelectionInstance(
        4,
        ((1, 2, 1.0), (2, 3, 1.5), (3, 4, 1.0), (1, 4, 2.0)),
        ((1, 3, 1.25), (2, 4, 1.0), (1, 4, 1.0)),
        2,
    )
    pi = np.array([0.3, 0.7, 0.5])
    g0 = inst.base_graph()
    exact = 0.0
    for bits in itertools.product([0, 1], repeat=3):
        p = math.prod(pi[i] if b else 1 - pi[i] for i, b in enumerate(bits))
        sub = [i for i, b in enumerate(bits) if b]
        exact += p * math.exp(tree_connectivity(g0.with_edges(inst.candidate_edges(sub))).tau)

    # the fractional determinant carries the same expectation
    det = math.exp(laplacian_of_pi(inst, pi).log_det())
    assert det == pytest.approx(exact, rel=1e-12)

    rr = round_randomized(inst, pi, seed=5, trials=40000)
    se = float(np.std(rr.tree_counts[:, 0])) / math.sqrt(rr.trials)
    assert abs(rr.mean_tree_counts[0] - exact) <= 4 * se
    assert rr.mean_num_selected == pytest.approx(float(pi.sum()), abs=0.05)


def test_randomized_rounding_trials_do_not_depend_on_batch(monkeypatch):
    rng = np.random.default_rng(4)
    inst = slam_instance(random_add_instance(rng, 8, 10, 12, 4), rng)
    pi = rng.uniform(0.1, 0.9, size=12)
    short = round_randomized(inst, pi, seed=6, trials=300)
    long = round_randomized(inst, pi, seed=6, trials=600)
    # chunks of 7 trials' bits (c = 12) instead of one chunk of all 600
    monkeypatch.setattr(treeconn, "LEMMA_BATCH_BYTES", 12 * 7)
    split = round_randomized(inst, pi, seed=6, trials=600)
    assert np.array_equal(short.tree_counts, long.tree_counts[:300])
    assert np.array_equal(short.num_selected, long.num_selected[:300])
    assert np.array_equal(split.tree_counts, long.tree_counts)
    assert np.array_equal(split.num_selected, long.num_selected)


def test_randomized_rounding_factors_each_distinct_design_once(monkeypatch):
    rng = np.random.default_rng(4)
    inst = slam_instance(random_add_instance(rng, 8, 10, 12, 4), rng)
    channels = len(inst.channels)
    calls = []
    factor = treeconn.SubsetLogDet.factor

    def counted(self, pi):
        calls.append(pi.copy())
        return factor(self, pi)

    monkeypatch.setattr(treeconn.SubsetLogDet, "factor", counted)
    # a 0/1 pi: all 300 trials keep candidates 0-3, one design
    pi = (np.arange(12) < 4) * 1.0
    rr = round_randomized(inst, pi, seed=6, trials=300)
    assert len(calls) == channels and all(np.array_equal(p, pi) for p in calls)
    assert np.all(rr.num_selected == 4)
    assert np.all(rr.log_tree_counts == rr.log_tree_counts[0])
    # two fair coins on top: at most four designs in each chunk of 7 trials
    pi[[5, 9]] = 0.5
    monkeypatch.setattr(treeconn, "LEMMA_BATCH_BYTES", 12 * 7)
    calls.clear()
    round_randomized(inst, pi, seed=6, trials=300)
    bits = np.random.default_rng(6).random((300, 12)) < pi
    distinct = sum(len(np.unique(bits[t : t + 7], axis=0)) for t in range(0, 300, 7))
    assert len(calls) == channels * distinct
    assert 4 < distinct < 300  # several designs, fewer factors than trials


def test_randomized_rounding_counts_match_dense_determinants():
    rng = np.random.default_rng(8)
    single = random_add_instance(rng, 7, 9, 10, 4)
    # complement candidates: c = 6 > order = 4, so most trials keep more
    # candidates than the Laplacian has rows
    wide = random_instance(5, 4, "complement", (1.0, 3.0), seed=1, k=3)
    pi = rng.uniform(0.1, 0.9, size=10)
    # the slam case keeps few candidates, so some of its trials keep none
    cases = [(single, pi), (wide, np.full(6, 0.85)), (slam_instance(single, rng), pi / 4)]
    sizes = []
    for inst, p in cases:
        rr = round_randomized(inst, p, seed=2, trials=40)
        bits = np.random.default_rng(2).random((40, inst.num_candidates)) < p
        assert np.array_equal(rr.num_selected, bits.sum(axis=1))
        sizes.append(rr.num_selected)
        for t in range(40):
            chosen = np.flatnonzero(bits[t])
            for j, (channel, _) in enumerate(inst.channels):
                g = inst.base_graph(channel).with_edges(inst.candidate_edges(chosen, channel))
                dense = np.linalg.det(g.full_laplacian()[:-1, :-1])
                assert rr.tree_counts[t, j] == pytest.approx(dense, rel=1e-12)
    assert np.any(sizes[1] > 4) and np.any(sizes[2] == 0)


def test_randomized_rounding_overflow_reads_inf_at_every_size():
    huge = EdgeSelectionInstance(3, ((1, 2, 1e200), (2, 3, 1e200)), ((1, 3, 1e200),), 1)
    # a large instance too: a 401-vertex path of weight-100 edges has
    # 1e800 trees, and 320 chords make c * order^2 about 5e7
    n = 401
    path = tuple((i, i + 1, 100.0) for i in range(1, n))
    long = EdgeSelectionInstance(n, path, tuple((i, i + 2, 1.0) for i in range(1, 321)), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst in (huge, long):
            rr = round_randomized(inst, np.full(inst.num_candidates, 0.5), seed=0, trials=20)
            assert np.all(np.isposinf(rr.tree_counts))


def test_randomized_rounding_log_counts():
    rng = np.random.default_rng(15)
    inst = slam_instance(random_add_instance(rng, 8, 10, 12, 4), rng)
    rr = round_randomized(inst, rng.uniform(0.1, 0.9, size=12), seed=3, trials=500)
    assert np.array_equal(rr.tree_counts, np.exp(rr.log_tree_counts))
    assert rr.mean_log_tree_counts == pytest.approx(np.log(rr.mean_tree_counts), rel=1e-12)
    # a 300-vertex path of weight-100 edges has 1e598 trees: every raw
    # count overflows, the logs do not
    n = 300
    path = tuple((i, i + 1, 100.0) for i in range(1, n))
    chords = tuple((i, i + 2, 1.0) for i in range(1, 286))
    big = EdgeSelectionInstance(n, path, chords, 51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rr = round_randomized(big, np.full(285, 51 / 285), seed=0, trials=10)
        mean_log = rr.mean_log_tree_counts
    assert np.all(np.isposinf(rr.tree_counts))
    assert np.all(np.isfinite(rr.log_tree_counts))
    assert np.all(rr.log_tree_counts.min(axis=0) <= mean_log)
    assert np.all(mean_log <= rr.log_tree_counts.max(axis=0))
