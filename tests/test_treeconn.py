import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from treesynth import (
    DataError,
    EdgeSelectionInstance,
    GainFunction,
    SizeGuardError,
    WeightedGraph,
    batch_effective_resistance,
    build_reduced_laplacian,
    count_spanning_trees_bruteforce,
    effective_resistance,
    greedy_select,
    parse_g2o,
    random_instance,
    reduce_removal_to_addition,
    to_instance,
    tree_connectivity,
    tree_connectivity_spectral,
    treeconn,
)
from conftest import (
    direct_log_det_and_grad,
    random_add_instance,
    random_connected_graph,
    slam_instance,
)


def test_weighted_triangle_tree_count():
    g = WeightedGraph(3, ((1, 2, 2.0), (2, 3, 3.0), (1, 3, 4.0)))
    # trees: {12,23}=6, {12,13}=8, {23,13}=12, total 26
    assert math.exp(tree_connectivity(g).tau) == pytest.approx(26.0, rel=1e-12)
    assert count_spanning_trees_bruteforce(g) == pytest.approx(26.0)


def test_complete_graph_unit_weights_cayley():
    g4 = WeightedGraph(4, tuple((u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5)))
    assert math.exp(tree_connectivity(g4).tau) == pytest.approx(16.0, rel=1e-12)


def test_cycle_tree_count_equals_length():
    c4 = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)))
    assert math.exp(tree_connectivity(c4).tau) == pytest.approx(4.0, rel=1e-12)


def test_degenerate_and_disconnected():
    assert tree_connectivity(WeightedGraph(1, ())).tau == 0.0
    split = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
    tc = tree_connectivity(split)
    assert tc.tau == 0.0
    assert not tc.connected


def test_tree_has_tau_zero_with_unit_weights():
    path = WeightedGraph(5, tuple((i, i + 1, 1.0) for i in range(1, 5)))
    assert tree_connectivity(path).tau == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the one tau rule: a spanning tree is its own only tree


def _random_tree(rng, n, shape, top):
    """A tree on 1..n, weights log-uniform in [1, top].

    shape "path" is the path 1-2-...-n; "relabelled path", "star" and
    "random" (each vertex attached to a random earlier one) have their
    vertices permuted.
    """
    perm = np.arange(1, n + 1) if shape == "path" else rng.permutation(n) + 1
    edges = []
    for i in range(1, n):
        parent = {"star": 0, "random": int(rng.integers(0, i))}.get(shape, i - 1)
        edges.append((int(perm[i]), int(perm[parent]), float(top ** rng.uniform(0.0, 1.0))))
    return WeightedGraph(n, tuple(edges))


def test_tau_rule_sums_log_weights_on_trees():
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for trial in range(240):
        n = int(rng.integers(2, 30))
        top = 1e8 if trial % 2 else 10.0
        shape = ("path", "relabelled path", "star", "random")[trial % 4]
        g = _random_tree(rng, n, shape, top)
        tau = tree_connectivity(g).tau
        assert tau == float(np.sum(np.log([w for _, _, w in g.edges])))
        L = build_reduced_laplacian(g)
        dense = L.log_det()
        # The dense value carries the factor's backward error, C C^T = L + E
        # with |E| <= (n + 1) eps |C| |C^T| (Higham, Thm 10.3), which moves
        # log det by up to |L^-1| : |E| to first order, plus the rounding of
        # the logs and their sum. With weights up to 1e8 that reaches a few
        # 1e-10 relative (one cancelling pivot per heavy edge beside a light
        # one), which the rule does not have.
        C = np.abs(L.cholesky)
        bound = eps * ((n + 1) * np.sum(np.abs(np.linalg.inv(L.matrix)) * (C @ C.T))
                       + n * abs(tau))
        assert abs(dense - tau) <= bound, (trial, shape, n)
        if top == 10.0:
            assert dense == pytest.approx(tau, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the one tau rule: the determinant lemma over the path 1-2-...-n


def _exact_tau(g):
    """tau of g in exact arithmetic: a Bareiss determinant of the reduced
    Laplacian over Fractions of the float weights, then a 60-digit log."""
    order = g.n - 1
    L = [[Fraction(0)] * order for _ in range(order)]
    for u, v, w in g.edges:
        w = Fraction(w)
        for a in (u, v):
            if a <= order:
                L[a - 1][a - 1] += w
        if v <= order:
            L[u - 1][v - 1] -= w
            L[v - 1][u - 1] -= w
    prev = Fraction(1)
    for k in range(order - 1):  # Bareiss: every division is exact
        for i in range(k + 1, order):
            for j in range(k + 1, order):
                L[i][j] = (L[i][j] * L[k][k] - L[i][k] * L[k][j]) / prev
        prev = L[k][k]
    det = L[-1][-1]
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(det.numerator).ln() - Decimal(det.denominator).ln()


def _path_with_chords(rng, n, chords, e):
    """A graph on 1..n holding the path {a, a + 1} and ``chords`` other edges.

    It is drawn with its vertices relabelled (its Hamiltonian path visits
    a random permutation), then labelled along that path, so the path is
    1-2-...-n; one path edge comes as two parallel edges, and the edge
    list is shuffled with random orientations. Weights are 10^U(0, e).
    Returns the relabelled graph and the drawn one, which has the same tau.
    """
    perm = rng.permutation(n) + 1
    weight = lambda: float(10 ** rng.uniform(0.0, e))
    pairs = [(int(perm[i]), int(perm[i + 1])) for i in range(n - 1)]
    edges = [(a, b, weight()) for a, b in pairs]
    edges.append((*pairs[int(rng.integers(0, n - 1))], weight()))  # merged with its twin
    taken = {frozenset(p) for p in pairs}
    while len(taken) < n - 1 + chords:
        a, b = (int(x) for x in rng.choice(perm, 2, replace=False))
        if frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            edges.append((a, b, weight()))
    label = {int(p): i + 1 for i, p in enumerate(perm)}
    relabelled = [(label[b], label[a], w) if rng.random() < 0.5 else (label[a], label[b], w)
                  for a, b, w in edges]
    order = rng.permutation(len(edges))
    return (WeightedGraph(n, tuple(relabelled[i] for i in order)),
            WeightedGraph(n, tuple(edges)))


@pytest.mark.parametrize("e", [4, 8, 12])
def test_tau_rule_takes_the_lemma_over_the_path(e, monkeypatch):
    from treesynth import graphs

    assembled = []  # the one assembly, behind every dense factor
    assemble = graphs._laplacian
    monkeypatch.setattr(graphs, "_laplacian",
                        lambda *cols: assembled.append(cols) or assemble(*cols))
    rng = np.random.default_rng(100 + e)
    eps = np.finfo(float).eps
    n, chords = 10, 3
    for _ in range(12):
        g, drawn = _path_with_chords(rng, n, chords, e)
        tau = tree_connectivity(g).tau
        assert assembled == []  # the lemma, not the dense factor
        exact = _exact_tau(drawn)
        # the lemma's own R: R R^T = K = I + Z_X^T Z_X, X the chords. Z's
        # entries, sqrt(w) / sqrt(p), are nonnegative (u < v) and within
        # 3 roundings, so with the Gram product, the + I and the factor's
        # backward error (Higham, Thm 10.3) K is perturbed by at most
        # (order + |X| + 8) / 2 eps |R| |R^T| <= (n + 1) eps |R| |R^T|,
        # which moves log det by up to |K^-1| : that to first order; the
        # logs and the sum of nonnegative terms add n eps |tau|
        u, v, w = (np.array(c) for c in zip(*g.edges))
        on_path = v - u == 1
        Zt = graphs.path_whitened_incidence(w[on_path], np.stack((u, v), 1)[~on_path], w[~on_path])
        K = Zt @ Zt.T + np.eye(chords)
        R = np.abs(np.linalg.cholesky(K))
        bound = eps * ((n + 1) * np.sum(np.abs(np.linalg.inv(K)) * (R @ R.T)) + n * abs(tau))
        assert abs(Decimal(tau) - exact) <= Decimal(bound), (e, tau, exact, bound)
        # the design score is the same rule: from scratch, bit for bit
        base = tuple((a, a + 1, w) for a, w in zip(range(1, n), w[on_path]))
        inst = EdgeSelectionInstance(n, base, tuple(zip(u[~on_path].tolist(), v[~on_path].tolist(),
                                                        w[~on_path].tolist())), chords)
        assert GainFunction(inst, (0.0,)).absolute(range(chords)) == tau
        assert assembled == []
    # the cut: the path plus LEMMA_MAX_EXTRA * order other edges takes the
    # lemma, one more edge the dense factor
    path = tuple((a, a + 1, 2.0) for a in range(1, n))
    others = ((1, 3, 1.5), (2, 7, 3.0), (4, 9, 1.0), (5, 10, 2.5), (1, 10, 4.0), (3, 8, 0.5),
              (2, 5, 1.25))
    last = math.floor(graphs.LEMMA_MAX_EXTRA * (n - 1))
    assert 0 < last < len(others)
    for extra, dense in ((last, 0), (last + 1, 1)):
        g = WeightedGraph(n, path + others[:extra])
        tau = tree_connectivity(g).tau
        assert len(assembled) == dense
        assert tau == pytest.approx(float(_exact_tau(g)), rel=1e-14, abs=0.0)
        assembled.clear()


def test_path_whitened_incidence_writes_only_the_spans():
    def with_cumsum(path_weights, pairs, weights):
        # the construction it replaced: a difference array of +-sqrt(w),
        # a cumulative sum along rows and a division of every entry
        order = len(path_weights)
        uv = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        lo, hi = uv.min(axis=1) - 1, uv.max(axis=1) - 1
        d = np.where(uv[:, 0] < uv[:, 1], 1.0, -1.0) * np.sqrt(weights)
        Zt = np.zeros((len(uv), order))
        rows = np.arange(len(uv))
        Zt[rows, lo] = d
        inside = hi < order
        Zt[rows[inside], hi[inside]] = -d[inside]
        np.cumsum(Zt, axis=1, out=Zt)
        Zt /= np.sqrt(path_weights)
        return Zt

    from treesynth.graphs import path_whitened_incidence

    rng = np.random.default_rng(57)
    for n, c in ((2, 3), (9, 1), (12, 30), (60, 200)):
        p = 10 ** rng.uniform(0.0, 8.0, n - 1)
        pairs = [rng.choice(np.arange(1, n + 1), 2, replace=False) for _ in range(c)]
        w = 10 ** rng.uniform(0.0, 8.0, c)
        Zt = path_whitened_incidence(p, pairs, w)
        ref = with_cumsum(p, pairs, w)
        assert Zt.flags.c_contiguous and Zt.shape == ref.shape
        assert Zt.tobytes() == ref.tobytes()
    assert path_whitened_incidence(np.ones(3), np.empty((0, 2), int), np.empty(0)).shape == (0, 3)


def test_three_paths_agree_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        g = random_connected_graph(rng, n, m, weight_range=(1.0, 5.0))
        t_chol = math.exp(tree_connectivity(g).tau)
        t_brute = count_spanning_trees_bruteforce(g)
        t_spec = math.exp(tree_connectivity_spectral(g).tau)
        assert t_chol == pytest.approx(t_brute, rel=1e-9)
        assert t_spec == pytest.approx(t_brute, rel=1e-8)


def test_bruteforce_size_guard():
    g = WeightedGraph(9, tuple((u, v, 1.0) for u in range(1, 10) for v in range(u + 1, 10)))
    with pytest.raises(SizeGuardError):
        count_spanning_trees_bruteforce(g)


def test_spectral_rejects_disconnected():
    with pytest.raises(DataError):
        tree_connectivity_spectral(WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))))


# ---------------------------------------------------------------------------
# effective resistance


def test_path_resistance_sums_in_series():
    g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
    L = build_reduced_laplacian(g)
    assert effective_resistance(L, 1, 4).value == pytest.approx(3.0, rel=1e-12)
    assert effective_resistance(L, 1, 3).value == pytest.approx(2.0, rel=1e-12)


def test_cycle_resistance_combines_in_parallel():
    c4 = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)))
    L = build_reduced_laplacian(c4)
    # antipodal: two length-2 paths in parallel, 2*2/(2+2)
    assert effective_resistance(L, 1, 3).value == pytest.approx(1.0, rel=1e-12)


def test_resistance_scales_inversely_with_weight():
    g1 = WeightedGraph(2, ((1, 2, 1.0),))
    g5 = WeightedGraph(2, ((1, 2, 5.0),))
    r1 = effective_resistance(build_reduced_laplacian(g1), 1, 2).value
    r5 = effective_resistance(build_reduced_laplacian(g5), 1, 2).value
    assert r1 == pytest.approx(5.0 * r5, rel=1e-12)


def test_batch_matches_single_pair_queries():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 8, 14, weight_range=(1.0, 3.0))
    L = build_reduced_laplacian(g)
    pairs = [(1, 2), (3, 7), (2, 8), (4, 5), (1, 8)]
    batch = batch_effective_resistance(L, pairs)
    for (u, v), r in zip(pairs, batch):
        assert r == pytest.approx(effective_resistance(L, u, v).value, rel=1e-12)


def test_candidate_score_is_gain_exponent():
    g = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
    step = greedy_select(EdgeSelectionInstance(4, g.edges, ((1, 4, 1.0),), 1)).trace[0]
    assert step.score == pytest.approx(3.0, rel=1e-12)
    assert step.gain == pytest.approx(math.log(4.0), rel=1e-12)
    # the gain must equal the realized tau difference
    before = tree_connectivity(g).tau
    after = tree_connectivity(g.with_edges(((1, 4, 1.0),))).tau
    assert step.gain == pytest.approx(after - before, abs=1e-12)


def test_score_respects_candidate_weight():
    g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0)))
    L = build_reduced_laplacian(g)
    r = effective_resistance(L, 1, 3).value
    step = greedy_select(EdgeSelectionInstance(3, g.edges, ((1, 3, 2.5),), 1)).trace[0]
    assert step.score == pytest.approx(2.5 * r, rel=1e-12)


def _kernel_memory(kernel):
    gram = kernel.gram
    return (kernel.log_det0, kernel.Zt.tobytes(), None if gram is None else gram.tobytes(),
            kernel.gram_diag.tobytes())


def test_selector_kernel_matches_direct_evaluation():
    rng = np.random.default_rng(14)
    narrow = random_add_instance(rng, 14, 20, 8, 3)  # c = 8 <= order = 13: Gram kept
    wide = random_instance(7, 6, "complement", (1.0, 3.0), seed=2, k=3)  # c = 15 > 6
    # exact duplicates, one of them reversed, and candidates at the anchor (vertex n)
    path = tuple((i, i + 1, 1.0) for i in range(1, 8))
    dups = ((1, 8, 2.0), (8, 1, 2.0), (3, 8, 1.0), (2, 5, 1.5), (2, 5, 1.5))
    dup = EdgeSelectionInstance(8, path, dups, 2)
    dups = ((1, 4, 2.0), (4, 1, 2.0), (2, 4, 1.0), (1, 3, 1.5), (1, 3, 1.5))
    dup_wide = EdgeSelectionInstance(4, path[:3], dups, 2)
    # order 1: Z^T is c x 1, C- and Fortran-contiguous at once, so an
    # in-place solve on the order side would land in the kernel's memory
    single = EdgeSelectionInstance(2, ((1, 2, 1.0),), ((1, 2, 2.0), (2, 1, 1.5), (1, 2, 3.0)), 1)
    # dup's base is the path 1-2-...-8, so its Z comes in closed form; its
    # twin relabels the path 1-3-2-4-...-8, which is whitened by the solve
    twisted = ((1, 3, 1.0), (3, 2, 1.0), *path[2:])
    dup_twin = EdgeSelectionInstance(8, twisted, dup.candidates, 2)
    assert _solved_channels(dup) == 0 and _solved_channels(dup_twin) == 1
    cases = [narrow, wide, dup, dup_twin, dup_wide, single,
             slam_instance(narrow, rng), slam_instance(wide, rng)]
    forms = set()
    for inst in cases:
        c, order = inst.num_candidates, inst.n - 1
        mixed = rng.uniform(0.05, 1.0, size=c)
        mixed[rng.permutation(c)[: c // 2]] = 0.0
        few = np.zeros(c)
        few[rng.permutation(c)[: min(c, order) - 1]] = 0.5
        # the gradient's solve overwrites its own buffer in place, never
        # the kernel's arrays (G is built here so that it is compared too)
        memory = [_kernel_memory(kernel) for _, kernel in inst.kernels]
        for pi in (np.zeros(c), np.ones(c), rng.uniform(0.05, 1.0, size=c), mixed, few):
            free = np.flatnonzero((pi > 0.0) & (pi < 1.0))
            for (channel, _), (_, kernel), before in zip(inst.channels, inst.kernels, memory):
                factor = kernel.factor(pi)
                value = kernel.log_det(factor)
                grad, none = kernel.grad(factor)
                assert _kernel_memory(kernel) == before and none is None
                ref_value, ref_grad = direct_log_det_and_grad(inst, pi, channel)
                assert kernel.log_det0 + value == pytest.approx(ref_value, rel=1e-10)
                np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=0)
                grad_f, W = kernel.grad(factor, free)
                assert _kernel_memory(kernel) == before
                assert np.array_equal(grad_f, grad)
                assert W.shape == (free.size, free.size)
                forms.add((c <= order, int(np.count_nonzero(pi)) <= order))
    # the s x s form with G kept (c <= order) and with its rows formed from
    # Z (c > order), and the order x order form (s > order)
    assert forms == {(True, True), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# the odometry path: whitened incidence in closed form


def _solved_channels(inst):
    """Channels of a fresh copy of inst whose kernel whitens by a triangular solve."""
    calls = []
    solve = treeconn.whitened_incidence
    fresh = EdgeSelectionInstance(inst.n, inst.base_edges, inst.candidates, inst.k,
                                  inst.direction, inst.objective)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treeconn, "whitened_incidence",
                   lambda L, pairs: calls.append(1) or solve(L, pairs))
        fresh.kernels
    return len(calls)


def _assert_kernels_match_the_solve(inst):
    for (channel, _), (_, kernel) in zip(inst.channels, inst.kernels):
        L = build_reduced_laplacian(inst.base_graph(channel))
        Z = treeconn.whitened_incidence(L, inst.candidate_pairs)
        Z *= np.sqrt(inst.candidate_weights(channel))
        assert kernel.Zt.shape == Z.T.shape and kernel.Zt.flags.c_contiguous
        np.testing.assert_allclose(kernel.Zt, Z.T, rtol=0, atol=1e-12 * np.abs(Z).max())
        assert kernel.log_det0 == tree_connectivity(inst.base_graph(channel)).tau
        assert kernel.log_det0 == pytest.approx(L.log_det(), rel=1e-12, abs=0.0)


def test_path_base_whitens_in_closed_form():
    rng = np.random.default_rng(23)
    path = tuple((a, a + 1, float(rng.uniform(1.0, 50.0))) for a in range(1, 9))
    # reversed candidates, candidates at the anchor (vertex 9), exact duplicates
    cands = ((1, 9, 2.0), (9, 1, 2.0), (3, 9, 1.0), (9, 4, 7.5), (2, 5, 1.5), (2, 5, 1.5),
             (6, 3, 4.0), (8, 9, 3.0), (1, 2, 2.5))
    anchored = EdgeSelectionInstance(9, path, cands, 3)
    # parallel base edges, one of them reversed, merge into the path 1-2-3-4
    merged = EdgeSelectionInstance(
        4, ((1, 2, 1.0), (2, 1, 2.0), (2, 3, 1.5), (3, 4, 1.0), (3, 4, 3.0)),
        ((1, 4, 2.0), (4, 2, 1.0), (3, 1, 1.5)), 1)
    single = EdgeSelectionInstance(2, ((1, 2, 3.0),), ((1, 2, 2.0), (2, 1, 1.5)), 1)  # order 1
    n = 40
    long = tuple((a, a + 1, float(10 ** rng.uniform(0.0, 3.0))) for a in range(1, n))
    pairs = [rng.choice(np.arange(1, n + 1), 2, replace=False) for _ in range(60)]
    randomized = EdgeSelectionInstance(
        n, long, tuple((int(u), int(v), float(rng.uniform(1.0, 5.0))) for u, v in pairs), 5)
    for inst in (anchored, merged, single, randomized,
                 slam_instance(anchored, rng), slam_instance(randomized, rng)):
        assert _solved_channels(inst) == 0
        _assert_kernels_match_the_solve(inst)
    # exact on the path: sign(v - u) sqrt(w / w_a) on each path edge a between u and v
    (_, kernel), = anchored.kernels
    row = np.zeros(8)
    row[3:8] = -np.sqrt(7.5 / np.array([w for _, _, w in path[3:8]]))
    np.testing.assert_allclose(kernel.Zt[3], row, rtol=4 * np.finfo(float).eps, atol=0)
    assert np.count_nonzero(kernel.Zt[2]) == 6 and not np.any(kernel.Zt[1] + kernel.Zt[0])


def test_bases_that_are_not_the_path_keep_the_solve():
    path = tuple((a, a + 1, 1.0 + a) for a in range(1, 7))
    cands = ((1, 7, 2.0), (7, 2, 1.0), (3, 5, 1.5))
    chord = EdgeSelectionInstance(7, (*path, (2, 6, 4.0)), cands, 1)
    # the path 1-2-3-4-5-7-6: a tree, but not the consecutive-id path
    relabelled = EdgeSelectionInstance(7, (*path[:4], (5, 7, 6.0), (7, 6, 7.0)), cands, 1)
    for inst in (chord, relabelled, slam_instance(chord, np.random.default_rng(4))):
        assert _solved_channels(inst) == len(inst.channels)
        _assert_kernels_match_the_solve(inst)


def test_path_base_kernels_assemble_and_factor_nothing(monkeypatch):
    from treesynth import _lapack, graphs

    calls = []
    for module, name in ((graphs, "_laplacian"), (graphs, "dpotrf"),
                         (treeconn, "dpotrf"), (_lapack, "dpotrf")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    rng = np.random.default_rng(31)
    path = tuple((a, a + 1, float(10 ** rng.uniform(0.0, 8.0))) for a in range(1, 12))
    cands = tuple((int(u), int(v), float(rng.uniform(1.0, 5.0)))
                  for u, v in (rng.choice(np.arange(1, 13), 2, replace=False) for _ in range(15)))
    single = EdgeSelectionInstance(12, path, cands, 3)
    for inst in (single, slam_instance(single, rng)):
        for (channel, _), (_, kernel) in zip(inst.channels, inst.kernels):
            weights = [w for _, _, w in inst.base_graph(channel).edges]
            assert kernel.log_det0 == float(np.sum(np.log(weights)))
    assert calls == []
    # a base that is not the path is assembled once per channel, through the
    # one assembly, and factored for Z; the path plus one chord takes the tau
    # rule's determinant lemma, whose 1 x 1 form is factored for log_det0
    chord = EdgeSelectionInstance(12, (*path, (2, 9, 3.0)), cands, 3)
    chord.kernels
    assert calls == ["_laplacian", "dpotrf", "dpotrf"]


def test_g2o_instances_take_the_closed_form(mini_g2o):
    # a regression guard: the odometry chain is the base the paper's
    # pose graphs use, so the closed form is what SLAM instances run
    ds = parse_g2o(mini_g2o)
    added = to_instance(ds, 2)
    removed = reduce_removal_to_addition(to_instance(ds, 2, direction="remove"))
    for inst in (added, removed):
        assert len(inst.channels) == 2
        assert _solved_channels(inst) == 0
        _assert_kernels_match_the_solve(inst)
    generic = random_add_instance(np.random.default_rng(8), 10, 13, 6, 2)
    assert _solved_channels(generic) == 1
