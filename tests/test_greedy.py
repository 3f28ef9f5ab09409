import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from treesynth import (
    ArgumentError,
    EdgeSelectionInstance,
    GainFunction,
    InfeasibleError,
    NumericalError,
    SizeGuardError,
    WeightedGraph,
    build_bundle,
    certify,
    exhaustive_select,
    gain_function,
    greedy_select,
    gap_for_design,
    greedy_to_threshold,
    parse_g2o,
    random_instance,
    reduce_removal_to_addition,
    removal_set_from_addition,
    round_deterministic,
    round_randomized,
    solve_p2,
    solve_p3,
    to_instance,
    tree_connectivity,
)
from treesynth import greedy, treeconn
from treesynth.greedy import EXHAUSTIVE_TIE_MARGIN
from conftest import direct_log_det_and_grad, random_add_instance, slam_instance


def star_instance(k=2):
    base = ((1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0))
    cands = ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0))
    return EdgeSelectionInstance(4, base, cands, k)


# ---------------------------------------------------------------------------
# gain function


def test_gain_baselines_are_the_base_graphs_tau_bit_for_bit():
    rng = np.random.default_rng(17)
    single = random_add_instance(rng, 10, 14, 8, 3)
    for inst in (single, slam_instance(single, rng)):
        assert gain_function(inst).baselines == tuple(
            tree_connectivity(inst.base_graph(channel)).tau for channel, _ in inst.channels)


def test_path_base_baselines_are_the_trees_tau_bit_for_bit():
    # the kernels factor nothing on a path base: their log_det0 and every
    # from-scratch tau follow one rule, so the empty design still gains 0.0
    rng = np.random.default_rng(19)
    path = tuple((a, a + 1, float(10 ** rng.uniform(0.0, 8.0))) for a in range(1, 10))
    cands = ((1, 10, 2.0), (3, 7, 1.5), (9, 2, 4.0), (4, 5, 2.5))
    inst = slam_instance(EdgeSelectionInstance(10, path, cands, 2), rng)
    fn = gain_function(inst)
    assert fn.baselines == tuple(
        tree_connectivity(inst.base_graph(channel)).tau for channel, _ in inst.channels)
    assert fn(()) == 0.0
    assert greedy_select(inst).baseline == fn.baseline_total


def test_greedy_picks_the_lowest_of_exact_duplicates():
    # the duplicates, one of them reversed, are the best candidates, also
    # in the second round; the near-copy (a lighter weight) has a kernel
    # row of its own
    path = tuple((a, a + 1, 1.0) for a in range(1, 9))
    cands = ((2, 3, 1.0), (1, 9, 3.0), (9, 1, 3.0), (1, 9, 3.0), (1, 9, 3.0 - 1e-12))
    base = EdgeSelectionInstance(9, path, cands, 2)
    chord = EdgeSelectionInstance(9, (*path, (2, 7, 2.0)), cands, 2)
    slam = EdgeSelectionInstance(9, tuple((*e, 2.0) for e in path),
                                 tuple((*e, 1.5) for e in cands), 2, objective="slam-double")
    for inst in (base, chord, slam):
        res = greedy_select(inst)
        assert res.selected == (1, 2)
    plain = EdgeSelectionInstance(9, path, cands[:2], 2)
    assert greedy_select(plain).selected == (1, 0)


def test_greedy_never_takes_a_later_exact_duplicate_first():
    # random path bases whose pools repeat about 30% of their candidates,
    # some reversed: a candidate's exact duplicates of lower index are
    # picked before it. Duplicate rows of Z updated on their own can round
    # apart in BLAS: with one OpenBLAS build, 7 of these instances then pick
    # a later copy first
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(5, 40))
        path = tuple((a, a + 1, float(np.exp(rng.uniform(0, 5)))) for a in range(1, n))
        cands = []
        for _ in range(int(rng.integers(3, 30))):
            if cands and rng.random() < 0.3:
                u, v, w = cands[int(rng.integers(len(cands)))]
                cands.append((v, u, w) if rng.random() < 0.5 else (u, v, w))
            else:
                u, v = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False).tolist())
                cands.append((u, v, float(np.exp(rng.uniform(0, 5)))))
        k = int(rng.integers(1, len(cands) + 1))
        sel = greedy_select(EdgeSelectionInstance(n, path, tuple(cands), k)).selected
        key = [(min(u, v), max(u, v), w) for u, v, w in cands]
        for t, i in enumerate(sel):
            assert all(j in sel[:t] for j in range(i) if key[j] == key[i])


def test_gain_of_empty_set_is_exactly_zero():
    fn = gain_function(star_instance())
    assert fn(()) == 0.0


def test_gain_matches_direct_tau_difference():
    inst = star_instance()
    fn = gain_function(inst)
    g = inst.base_graph()
    before = tree_connectivity(g).tau
    after = tree_connectivity(g.with_edges(inst.candidate_edges((0, 2)))).tau
    assert fn((0, 2)) == pytest.approx(after - before, abs=1e-12)


def test_gain_rejects_bad_subsets():
    fn = gain_function(star_instance())
    with pytest.raises(ArgumentError):
        fn((0, 0))
    with pytest.raises(ArgumentError):
        fn((5,))
    with pytest.raises(ArgumentError):
        fn((-1,))


# every solver entry point, called with valid arguments on a removal instance
ADDITION_ONLY = {
    "gain_function": gain_function,
    "greedy_select": greedy_select,
    "greedy_to_threshold": lambda inst: greedy_to_threshold(inst, 0.5),
    "exhaustive_select": exhaustive_select,
    "solve_p2": solve_p2,
    "solve_p3": lambda inst: solve_p3(inst, 0.1),
    "round_deterministic": lambda inst: round_deterministic(inst, [0.5]),
    "round_randomized": lambda inst: round_randomized(inst, [0.5], trials=4),
    "certify": certify,
}


@pytest.mark.parametrize("entry", list(ADDITION_ONLY))
def test_every_solver_requires_addition_instances(entry):
    base = ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0))
    inst = EdgeSelectionInstance(3, base, ((1, 3, 1.0),), 1, direction="remove")
    with pytest.raises(ArgumentError, match="addition instance"):
        ADDITION_ONLY[entry](inst)


def test_monotone_and_diminishing_on_random_probes():
    rng = np.random.default_rng(9)
    for _ in range(25):
        inst = random_add_instance(rng, 6, 7, 6, 3)
        fn = gain_function(inst)
        idx = rng.permutation(6)
        small = tuple(sorted(int(i) for i in idx[:2]))
        big = tuple(sorted(int(i) for i in idx[:4]))
        probe = int(idx[5])
        # monotone: adding edges never hurts
        assert fn(big) >= fn(small) - 1e-9
        # diminishing returns of the same probe edge
        d_small = fn(small + (probe,)) - fn(small)
        d_big = fn(big + (probe,)) - fn(big)
        assert d_small >= d_big - 1e-9


# ---------------------------------------------------------------------------
# greedy


def test_greedy_zero_budget():
    res = greedy_select(star_instance(k=0))
    assert res.selected == ()
    assert res.tau_achieved == pytest.approx(res.baseline)


def test_greedy_full_budget_selects_everything():
    res = greedy_select(star_instance(k=3))
    assert sorted(res.selected) == [0, 1, 2]


def test_greedy_trace_gains_are_nonincreasing():
    rng = np.random.default_rng(13)
    for _ in range(10):
        inst = random_add_instance(rng, 7, 9, 8, 5)
        res = greedy_select(inst)
        gains = [step.gain for step in res.trace]
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))


def test_greedy_breaks_ties_by_lowest_index():
    # two interchangeable candidates; the scan must take index 0 first
    base = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0))
    cands = ((1, 3, 1.0), (1, 3, 1.0))
    inst = EdgeSelectionInstance(4, base, cands, 1)
    res = greedy_select(inst)
    assert res.selected == (0,)


def reference_greedy(inst):
    """Greedy from scratch: each round takes the argmax of the gain
    function over selected + [i], every graph rebuilt, lowest index on
    ties. Returns the selection and the marginal gain of each round."""
    fn = gain_function(inst)
    selected, gains = [], []
    for _ in range(inst.k):
        value = fn(selected)
        best, best_value = None, -math.inf
        for i in range(inst.num_candidates):
            if i not in selected:
                v = fn(selected + [i])
                if v > best_value:
                    best, best_value = i, v
        selected.append(best)
        gains.append(best_value - value)
    return tuple(selected), gains


def check_against_reference(inst):
    res = greedy_select(inst)
    selected, gains = reference_greedy(inst)
    assert res.selected == selected
    assert [s.gain for s in res.trace] == pytest.approx(gains, abs=1e-9)
    assert res.tau_achieved == gain_function(inst).absolute(selected)
    return selected


def test_greedy_matches_from_scratch_reference():
    rng = np.random.default_rng(21)
    for _ in range(8):
        single = random_add_instance(rng, 8, 10, 9, 4)
        check_against_reference(single)
        check_against_reference(slam_instance(single, rng))
    for seed in range(3):
        # complement candidates: c = 19 > order = 7
        wide = random_instance(8, 9, "complement", (1.0, 4.0), seed=seed, k=6)
        check_against_reference(wide)
        check_against_reference(slam_instance(wide, rng))
    repeats = 0
    for _ in range(3):
        single = random_add_instance(rng, 7, 8, 5, 5)
        for inst in (single, slam_instance(single, rng)):
            # each candidate three times, once with its endpoints swapped:
            # every round breaks an exact tie between copies
            swapped = tuple((e[1], e[0], *e[2:]) for e in inst.candidates)
            cands = inst.candidates + swapped + inst.candidates
            selected = check_against_reference(
                EdgeSelectionInstance(inst.n, inst.base_edges, cands, 5, objective=inst.objective)
            )
            # a second copy of one edge taken in a later round
            repeats += len({i % 5 for i in selected}) < len(selected)
    assert repeats >= 2
    # a heavy chord copied 7 and 13 times outscores the weak candidates
    # in every round, so each round takes the lowest remaining copy
    path = tuple((i, i + 1, 100.0) for i in range(1, 13))
    weak = tuple((i, i + 1, 1.0) for i in range(1, 13))
    for copies in (7, 13):
        inst = EdgeSelectionInstance(13, path, weak + ((1, 13, 50.0),) * copies, 5)
        assert check_against_reference(inst) == (12, 13, 14, 15, 16)


def test_greedy_reports_fresh_tau():
    rng = np.random.default_rng(2)
    inst = random_add_instance(rng, 7, 8, 7, 4)
    res = greedy_select(inst)
    fn = gain_function(inst)
    assert res.tau_achieved == pytest.approx(res.baseline + fn(res.selected), abs=1e-12)


def test_greedy_result_serialization_excludes_timing_by_default():
    res = greedy_select(star_instance())
    doc = res.to_dict()
    assert "elapsed_s" not in doc
    assert res.elapsed >= 0.0
    assert doc["selected"] == list(res.selected)


# ---------------------------------------------------------------------------
# exhaustive


def test_exhaustive_beats_or_matches_greedy():
    rng = np.random.default_rng(31)
    for _ in range(15):
        inst = random_add_instance(rng, 6, 7, 7, 3)
        gr = greedy_select(inst)
        ex = exhaustive_select(inst)
        assert ex.tau_achieved >= gr.tau_achieved - 1e-12


def test_exhaustive_prefers_lexicographically_smallest_tie():
    base = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0))
    cands = ((1, 3, 1.0), (1, 3, 1.0))
    inst = EdgeSelectionInstance(4, base, cands, 1)
    assert exhaustive_select(inst).selected == (0,)
    # k = 2 of 3 walks the complements, which meet (0, 2) before (0, 1)
    both = EdgeSelectionInstance(4, base, ((2, 4, 1.0),) + cands, 2)
    assert exhaustive_select(both).selected == (0, 1)


def reference_exhaustive(inst):
    """First maximum of the from-scratch objective over all k-subsets."""
    fn = gain_function(inst)
    best, best_value = None, -math.inf
    for subset in itertools.combinations(range(inst.num_candidates), inst.k):
        v = fn.absolute(subset)
        if v > best_value:
            best, best_value = subset, v
    return best, best_value


def check_exhaustive(inst):
    res = exhaustive_select(inst)
    selected, tau = reference_exhaustive(inst)
    assert res.selected == selected
    assert res.tau_achieved == tau
    return res


def test_exhaustive_matches_from_scratch_reference():
    rng = np.random.default_rng(41)
    for k in (0, 1, 3, 7):  # k = 7 = c
        single = random_add_instance(rng, 7, 9, 7, k)
        check_exhaustive(single)
        check_exhaustive(slam_instance(single, rng))
    for seed in range(3):
        # complement candidates: c = 6 > order = 4, and k = 5 > order
        # takes the order x order Sylvester form
        wide = random_instance(5, 4, "complement", (1.0, 4.0), seed=seed, k=5)
        check_exhaustive(wide)
        check_exhaustive(slam_instance(wide, rng))
    for _ in range(3):
        n = 6
        base = tuple((u, v, float(rng.uniform(1.0, 3.0)))
                     for u in range(1, n + 1) for v in range(u + 1, n + 1))
        cands = tuple(base[i] for i in rng.choice(len(base), size=7, replace=False))
        removal = EdgeSelectionInstance(n, base, cands, 3, direction="remove")
        check_exhaustive(reduce_removal_to_addition(removal))
    # an 8-cycle with all 20 chords at one weight: rotations and
    # reflections of a design tie exactly, so the from-scratch rounding
    # decides among them, which batched scores alone get wrong here
    cycle = tuple((i, i % 8 + 1, 1.0) for i in range(1, 9))
    chords = tuple((u, v, 1.0) for u in range(1, 8) for v in range(u + 2, 9) if (u, v) != (1, 8))
    check_exhaustive(EdgeSelectionInstance(8, cycle, chords, 3))


def test_exhaustive_does_not_depend_on_batch(monkeypatch):
    rng = np.random.default_rng(43)
    single = random_add_instance(rng, 8, 10, 10, 4)
    # a heavy chord copied 6 times: the optimum ties across chunks; with
    # k = 5 of 8 the walk runs over the complements
    path = tuple((i, i + 1, 100.0) for i in range(1, 9))
    chords = ((1, 5, 1.0), (2, 7, 2.0)) + ((1, 9, 50.0),) * 6
    copies = EdgeSelectionInstance(9, path, chords, 3)
    most = EdgeSelectionInstance(9, path, chords, 5)
    cases = [single, slam_instance(single, rng), copies, most]
    whole = [check_exhaustive(inst) for inst in cases]
    assert whole[2].selected == (2, 3, 4)
    assert whole[3].selected == (2, 3, 4, 5, 6)

    chunks = []
    walk = greedy._subset_values

    def record(inst):
        for vals, rows in walk(inst):
            chunks.append(vals.size)
            yield vals, rows

    rescored = []
    absolute = GainFunction.absolute

    def count(self, subset):
        rescored.append(subset)
        return absolute(self, subset)

    monkeypatch.setattr(greedy, "_subset_values", record)
    monkeypatch.setattr(GainFunction, "absolute", count)
    # the frontier budget down to one node per chunk at every depth, then
    # a few nodes per chunk
    for budget in (8, 8 * 80):
        monkeypatch.setattr(treeconn, "LEMMA_BATCH_BYTES", budget)
        for inst, res, ties in zip(cases, whole, (1, 1, math.comb(6, 3), math.comb(6, 5))):
            chunks.clear()
            rescored.clear()
            split = exhaustive_select(inst)
            assert split.selected == res.selected
            assert split.tau_achieved == res.tau_achieved
            # only the near-ties of the best are scored from scratch
            assert len(rescored) == ties
            assert sum(chunks) == math.comb(inst.num_candidates, inst.k)
            if budget == 8:
                assert set(chunks) == {1}
            else:
                assert 1 < max(chunks) < sum(chunks)


def chained_values(inst):
    """Every k-subset, in the walk's order, and its chained objective."""
    subsets, values = [], []
    for vals, rows in greedy._subset_values(inst):
        subsets.append(rows(np.ones(vals.shape, dtype=bool)))
        values.append(vals)
    return np.concatenate(subsets), np.concatenate(values)


def scale_of(inst):
    """1 + sum |mult * log det L0|, the size EXHAUSTIVE_TIE_MARGIN is relative to."""
    return 1.0 + sum(abs(mult * kern.log_det0) for mult, kern in inst.kernels)


def test_chained_values_match_the_lemma_on_every_subset():
    rng = np.random.default_rng(47)
    cases = []
    for k in (0, 1, 3, 8):  # k = 8 = c
        single = random_add_instance(rng, 7, 9, 8, k)
        cases += [single, slam_instance(single, rng)]
    for seed in range(2):
        # complement candidates: c = 9 > order = 5, and s = 7 > order
        wide = random_instance(6, 6, "complement", (1.0, 4.0), seed=seed, k=7)
        cases += [wide, slam_instance(wide, rng)]
    heavy = random_add_instance(rng, 8, 10, 9, 4, weight_range=(1.0, 1e6))
    dup = EdgeSelectionInstance(heavy.n, heavy.base_edges,
                                heavy.candidates + heavy.candidates[:3], 4)
    cases += [heavy, dup, slam_instance(dup, rng)]
    walked_complements = 0
    for inst in cases:
        c, k = inst.num_candidates, inst.k
        subsets, values = chained_values(inst)
        # the walk takes the smaller side, S or its complement, in
        # lexicographic order
        side = [tuple(s) if 2 * k <= c else tuple(sorted(set(range(c)) - set(s)))
                for s in subsets.tolist()]
        assert side == sorted(side)
        walked_complements += 2 * k > c
        assert sorted(tuple(s) for s in subsets.tolist()) == list(
            itertools.combinations(range(c), k))
        # an independent reference: slogdet of the assembled Laplacian at
        # each subset's 0/1 indicator
        dense = np.array([
            sum(mult * direct_log_det_and_grad(inst, np.isin(np.arange(c), s) * 1.0, ch)[0]
                for ch, mult in inst.channels)
            for s in subsets])
        assert np.all(np.abs(values - dense) <= 1e-12 * (scale_of(inst) + np.abs(dense)))
    assert walked_complements == 6


def test_chained_values_of_heavy_duplicates_stay_inside_the_tie_margin():
    # duplicate candidates of weight up to 1e6 across a light path: G's
    # diagonal reaches about 1e6, so a duplicate's pivot cancels about six
    # digits, and the chain, like the lemma, drifts about 3e-11 (relative)
    # from the from-scratch objective, still well inside the tie margin
    rng = np.random.default_rng(53)
    path = tuple((i, i + 1, float(rng.uniform(1.0, 2.0))) for i in range(1, 9))
    cands = tuple((int(u), int(v), float(w)) for u, v, w in zip(
        rng.integers(1, 5, 6), rng.integers(5, 10, 6), rng.uniform(1.0, 1e6, 6)))
    for k in (4, 6):  # 6 of 9 walks the complements
        inst = EdgeSelectionInstance(9, path, cands + cands[:3], k)
        assert max(kern.gram_diag.max() for _, kern in inst.kernels) > 1e5
        subsets, values = chained_values(inst)
        fn = gain_function(inst)
        scratch = np.array([fn.absolute(s) for s in subsets.tolist()])
        drift = np.abs(values - scratch) / (scale_of(inst) + np.abs(scratch))
        assert drift.max() < EXHAUSTIVE_TIE_MARGIN / 10
        check_exhaustive(inst)


def test_exhaustive_memory_stays_within_its_formula():
    """Peak: a c x c matrix, a frontier chunk per depth, the shortlist."""
    rng = np.random.default_rng(59)
    # the two oracle-small shapes: 5 of 18 candidates, and pruning 4 of 16
    # edges from a complete graph on 9 vertices, which keeps 12 > order = 8
    oracle_add = random_add_instance(rng, 12, 16, 18, 5)
    n = 9
    full = tuple((u, v, float(rng.uniform(1.0, 3.0)))
                 for u in range(1, n + 1) for v in range(u + 1, n + 1))
    pruned = tuple(full[i] for i in rng.choice(len(full), size=16, replace=False))
    removal = reduce_removal_to_addition(
        EdgeSelectionInstance(n, full, pruned, 4, direction="remove"))
    assert removal.k > removal.kernels[0][1].Zt.shape[1]
    mid = random_add_instance(rng, 30, 40, 40, 3)
    # k = 1 over 1690 candidates: a c x c matrix would be 22 MiB
    wide = random_instance(60, 80, "complement", (1.0, 4.0), seed=1, k=1)
    budget = treeconn.LEMMA_BATCH_BYTES
    for inst in (oracle_add, removal, mid, wide):
        c, k, order = inst.num_candidates, inst.k, inst.kernels[0][1].Zt.shape[1]
        assert c > order  # so no kernel keeps a G of its own
        depth = min(k, c - k)
        matrix = 8 * len(inst.kernels) * c * c if k >= 2 or 2 * k > c else 0
        tracemalloc.start()
        try:
            exhaustive_select(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk per depth and one in the making; a shortlist of one
        # subset and its from-scratch rescoring fit in the last
        assert peak <= matrix + (depth + 2) * budget
        if inst in (oracle_add, removal):
            assert peak <= 1 << 20
    assert peak < 8 * wide.num_candidates ** 2 / 16


def test_exhaustive_size_guard():
    rng = np.random.default_rng(1)
    inst = random_add_instance(rng, 12, 20, 40, 12)
    with pytest.raises(SizeGuardError):
        exhaustive_select(inst)


def test_greedy_factor_bound_spot_check():
    eta = 1.0 - math.exp(-1.0)
    rng = np.random.default_rng(77)
    for _ in range(12):
        inst = random_add_instance(rng, 6, 7, 8, 3)
        gr = greedy_select(inst)
        ex = exhaustive_select(inst)
        bound = eta * ex.tau_achieved + (1.0 - eta) * gr.baseline
        assert gr.tau_achieved >= bound - 1e-9


# ---------------------------------------------------------------------------
# threshold variant


def test_threshold_spec_example_single_step():
    base = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))
    cands = ((1, 3, 1.0), (1, 4, 1.0))
    res = greedy_to_threshold(EdgeSelectionInstance(4, base, cands, 2), math.log(3.0))
    assert res.selected == (1,)
    assert res.gain == pytest.approx(math.log(4.0), rel=1e-12)


def test_threshold_zero_selects_nothing():
    base = ((1, 2, 1.0), (2, 3, 1.0))
    res = greedy_to_threshold(EdgeSelectionInstance(3, base, ((1, 3, 1.0),), 1), 0.0)
    assert res.selected == ()


def test_threshold_nan_is_refused():
    # NaN fails both of the threshold's comparisons, and would select every candidate
    with pytest.raises(ArgumentError, match="NaN"):
        greedy_to_threshold(star_instance(k=3), math.nan)


def test_threshold_at_full_gain_is_feasible_boundary():
    inst = star_instance(k=3)
    fn = gain_function(inst)
    full = fn((0, 1, 2))
    res = greedy_to_threshold(inst, full)
    assert res.gain >= full
    with pytest.raises(InfeasibleError):
        greedy_to_threshold(inst, full + 1e-6)


def test_threshold_stops_as_soon_as_reached():
    inst = star_instance(k=3)
    res = greedy_to_threshold(inst, 0.5)
    # one edge already gains log 2 > 0.5
    assert len(res.selected) == 1


def test_threshold_stop_builds_no_graph_per_round(monkeypatch):
    from treesynth import graphs

    rng = np.random.default_rng(21)
    for inst in (random_add_instance(rng, 10, 14, 12, 4),
                 slam_instance(random_add_instance(rng, 10, 14, 12, 4), rng)):
        full = greedy_select(EdgeSelectionInstance(
            inst.n, inst.base_edges, inst.candidates, 12, objective=inst.objective))
        gains = np.cumsum([s.gain for s in full.trace])
        inst.kernels  # built once, before counting
        calls = []
        for name in ("connected_tau", "_merge_columns"):
            scratch = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda *a, name=name, scratch=scratch:
                                calls.append(name) or scratch(*a))
        build = graphs.WeightedGraph.__post_init__
        monkeypatch.setattr(graphs.WeightedGraph, "__post_init__",
                            lambda g: calls.append("graph") or build(g))
        counts = []
        for rounds in (1, 3, 8):
            calls.clear()
            # halfway between the gains after rounds - 1 and rounds rounds
            tau_min = gains[rounds - 1] - 0.5 * full.trace[rounds - 1].gain
            res = greedy_to_threshold(inst, tau_min)
            assert res.selected == full.selected[:rounds]
            assert res.gain >= tau_min
            counts.append(tuple(map(calls.count, ("graph", "_merge_columns", "connected_tau"))))
        monkeypatch.undo()
        # no graph at all; the full-pool check and the final design: one
        # merge each for all channels and one tau per channel; the
        # baselines come from the instance's kernels
        assert counts == [(0, 2, 2 * len(inst.channels))] * 3


def test_threshold_stop_at_greedys_own_gain_keeps_its_k_edges():
    """Stop rule: before the first round whose design's from-scratch gain reaches tau_min.

    With tau_min = greedy_select(k).gain, the running sum of the rounds'
    gains lands a few 1e-13 nats below tau_min at k = 10, 25 and 40 on
    this pose graph; within the rounding allowance the from-scratch gain
    decides, so the threshold run stops at greedy's k edges.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "posegraph.py"
    spec = importlib.util.spec_from_file_location("_perfbench_posegraph", path)
    posegraph = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = posegraph  # its dataclasses look their module up there
    spec.loader.exec_module(posegraph)
    text = posegraph.generate_g2o(posegraph.MID_SIZE, 0)
    inst = to_instance(parse_g2o(text.splitlines()), 51)
    for k in (10, 25, 40, 51):
        target = greedy_select(inst.with_budget(k))
        res = greedy_to_threshold(inst, target.gain)
        assert res.selected == target.selected
        assert res.tau_achieved == target.tau_achieved


# ---------------------------------------------------------------------------
# removal via reduction


def test_removal_greedy_equals_direct_search_on_k4():
    base = tuple((u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5))
    cands = ((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0))
    inst = EdgeSelectionInstance(4, base, cands, 2, direction="remove")
    red = reduce_removal_to_addition(inst)
    best = exhaustive_select(red)

    # direct: try all pairs of removals on the original graph
    import itertools

    g = WeightedGraph(4, base)
    direct = max(
        tree_connectivity(g.without_pairs([cands[i][:2] for i in rm])).tau
        for rm in itertools.combinations(range(3), 2)
    )
    assert best.tau_achieved == direct


@pytest.mark.parametrize("score", [
    lambda inst, design: gain_function(inst).absolute(design),
    lambda inst, design: removal_set_from_addition(inst, design),
    lambda inst, design: gap_for_design(inst, design, build_bundle(0.0, 1.0, 1.0, 2.0)),
], ids=["absolute", "removal_set", "gap_for_design"])
@pytest.mark.parametrize("design", [[0.9, 1.7], [0.5, 2.2], [0, "1"]])
def test_design_indices_are_checked_not_truncated(score, design):
    # int() once read [0.9, 1.7] as the design (0, 1)
    inst = random_instance(6, 7, seed=1, k=2)
    with pytest.raises(ArgumentError, match="candidate index must be an integer"):
        score(inst, design)
    score(inst, [np.int64(0), 1])  # numpy integers are integers


def test_overflowing_candidate_resistance_is_refused_by_every_solver():
    # the path 1-...-6 at unit weights: the candidate {1, 3} at 1e308 has
    # w times its resistance 2 beyond float64, which one solver refused,
    # another blamed on its caller and a third returned as inf
    path = tuple((a, a + 1, 1.0) for a in range(1, 6))
    inst = EdgeSelectionInstance(6, path, ((2, 5, 2.0), (1, 3, 1e308)), 1)
    pi = np.array([0.5, 0.5])
    for solve in (greedy_select, exhaustive_select, solve_p2,
                  lambda inst: round_randomized(inst, pi, trials=4)):
        with pytest.raises(NumericalError, match="weighted resistance overflows"):
            solve(inst)
