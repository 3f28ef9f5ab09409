"""One candidate kernel per instance, shared by every solver.

EdgeSelectionInstance.kernels holds each channel's whitened, weighted
candidate incidence Z. Greedy, the relaxation, both roundings and
exhaustive search read it, so it is built once per channel. It keeps no
per-call state: what it builds lazily (the Gram matrix and its diagonal)
must not change any later result.
"""

import numpy as np

from treesynth import (
    EdgeSelectionInstance,
    exhaustive_select,
    greedy_select,
    relaxed_objective_and_gradient,
    round_deterministic,
    round_randomized,
    solve_p2,
    solve_p3,
    treeconn,
)
from conftest import random_add_instance, slam_instance


def _instances():
    rng = np.random.default_rng(91)
    single = random_add_instance(rng, 9, 12, 8, 3)
    return single, slam_instance(single, rng)


def _fresh(inst):
    return EdgeSelectionInstance(
        inst.n, inst.base_edges, inst.candidates, inst.k, inst.direction, inst.objective
    )


def test_every_solver_reads_one_kernel_per_channel(monkeypatch):
    built = []
    init = treeconn.SubsetLogDet.__init__

    def count(self, n, base, pairs, weights):
        built.append(len(pairs))
        init(self, n, base, pairs, weights)

    monkeypatch.setattr(treeconn.SubsetLogDet, "__init__", count)
    for inst in _instances():
        built.clear()
        greedy_select(inst)
        relaxed = solve_p2(inst)
        solve_p3(inst, 0.5)
        round_randomized(inst, relaxed.pi, seed=3, trials=20)
        exhaustive_select(inst)
        relaxed_objective_and_gradient(inst, relaxed.pi)
        assert built == [inst.num_candidates] * len(inst.channels)


def test_solvers_leave_only_the_kernels_own_arrays():
    # the kernel is a function of its instance: after every solver it holds
    # Z^T, log_det0 and what it builds lazily, and no factor of a selector
    for inst in _instances():
        relaxed = solve_p2(inst)
        greedy_select(inst)
        solve_p3(inst, 0.5)
        relaxed_objective_and_gradient(inst, relaxed.pi)
        round_deterministic(inst, relaxed.pi)
        round_randomized(inst, relaxed.pi, seed=3, trials=20)
        exhaustive_select(inst)
        for _, kernel in inst.kernels:
            assert set(vars(kernel)) <= {"log_det0", "Zt", "gram", "gram_diag"}


def _same_relaxed(a, b):
    assert np.array_equal(a.pi, b.pi)
    assert a.tau_cvx_star == b.tau_cvx_star
    assert a.iterations == b.iterations
    assert a.stop_reason == b.stop_reason
    assert a.objective_curve == b.objective_curve


def test_shared_kernel_state_does_not_leak():
    for inst in _instances():
        first = solve_p2(inst)
        _same_relaxed(first, solve_p2(_fresh(inst)))
        _same_relaxed(solve_p3(inst, 0.5), solve_p3(_fresh(inst), 0.5))
        _same_relaxed(solve_p2(inst), first)
        greedy, again = greedy_select(inst), greedy_select(_fresh(inst))
        assert greedy.selected == again.selected
        assert greedy.trace == again.trace
        assert greedy.tau_achieved == again.tau_achieved
        shared = round_randomized(inst, first.pi, seed=5, trials=50)
        fresh = round_randomized(_fresh(inst), first.pi, seed=5, trials=50)
        assert np.array_equal(shared.num_selected, fresh.num_selected)
        assert np.array_equal(shared.log_tree_counts, fresh.log_tree_counts)
        # and greedy's rounds leave nothing behind for the relaxation
        _same_relaxed(solve_p2(inst), first)
        # exhaustive search reads the G the relaxation left (c <= order
        # here), or builds it first on a fresh instance: same bits
        other = _fresh(inst)
        best, again = exhaustive_select(inst), exhaustive_select(other)
        assert (best.selected, best.tau_achieved) == (again.selected, again.tau_achieved)
        _same_relaxed(solve_p2(other), first)
