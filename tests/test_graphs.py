import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import graphs
from treesynth.graphs import _merge_parallel
from treesynth import (
    ArgumentError,
    DataError,
    EdgeSelectionInstance,
    InfeasibleError,
    NumericalError,
    ReducedLaplacian,
    WeightedGraph,
    build_reduced_laplacian,
    certify,
    greedy_select,
    instance_from_json_dict,
    instance_to_json_dict,
    is_connected,
    load_instance,
    parse_g2o,
    random_instance,
    reduce_removal_to_addition,
    removal_set_from_addition,
    round_deterministic,
    round_randomized,
    save_instance,
    solve_p2,
    to_instance,
    tree_connectivity,
)
from treesynth.cli import main

TRIANGLE = ((1, 2, 2.0), (2, 3, 3.0), (1, 3, 4.0))


# ---------------------------------------------------------------------------
# WeightedGraph


def test_graph_edges_canonicalized():
    g = WeightedGraph(3, ((3, 2, 3.0), (2, 1, 2.0), (1, 3, 4.0)))
    assert g.edges == ((1, 2, 2.0), (1, 3, 4.0), (2, 3, 3.0))


def test_graph_parallel_edges_merge_by_weight_sum():
    g = WeightedGraph(3, ((1, 2, 2.0), (2, 1, 3.0), (2, 3, 1.0)))
    assert g.weight(1, 2) == 5.0
    assert len(g.edges) == 2


def test_parallel_edges_merge_to_the_same_bits_everywhere():
    # three closures on pose pair 0-2 (vertices 1-3), one of them reversed;
    # the sum of 1.1, 2.2 and 3.3 depends on the order of the additions
    wp, wt = (1.1, 2.2, 3.3), (1.1, 3.3, 2.2)
    merged = ((wp[0] + wp[1]) + wp[2], (wt[0] + wt[1]) + wt[2])
    assert merged[0] != (wp[0] + wp[2]) + wp[1]
    assert merged[1] != (wt[0] + wt[2]) + wt[1]
    odometry = [f"EDGE_SE2 {i} {i + 1} 0 0 0 1 0 0 1 0 1" for i in range(3)]
    closures = [f"EDGE_SE2 {i} {j} 0 0 0 {p} 0 0 {p} 0 {t}"
                for (i, j), p, t in zip(((0, 2), (2, 0), (0, 2)), wp, wt)]
    ds = parse_g2o(odometry + closures)
    edges = ds.odometry + ds.loop_closures

    for channel in range(2):
        g = WeightedGraph(4, tuple((u, v, e[channel]) for u, v, *e in edges))
        assert g.weight(1, 3) == merged[channel]
    inst = EdgeSelectionInstance(4, edges, (), 0, objective="slam-double")
    u, v, w = inst._base_columns  # merged once for both channels
    assert (1, 3, *merged) in zip(u.tolist(), v.tolist(), *w.T.tolist())
    for channel, bits in zip(("p", "theta"), merged):
        assert inst.base_graph(channel).weight(1, 3) == bits
    assert to_instance(ds, 1, "remove").candidates == ((1, 3, *merged),)
    # a removal candidate carrying the merged weights is a base edge
    removal = EdgeSelectionInstance(4, inst.base_edges, ((3, 1, *merged),), 1,
                                    direction="remove", objective="slam-double")
    assert removal.candidates == ((3, 1, *merged),)


@pytest.mark.parametrize(
    "edges",
    [
        ((0, 1, 1.0),),          # vertex below range
        ((1, 4, 1.0),),          # vertex above range
        ((2, 2, 1.0),),          # self loop
        ((1, 2, 0.0),),          # nonpositive weight
        ((1, 2, -3.0),),
        ((1, 2, float("nan")),),
        ((1, 2, 0.5),),          # below unit
    ],
)
def test_graph_rejects_bad_edges(edges):
    with pytest.raises(ArgumentError):
        WeightedGraph(3, edges)


# the first offending edge is named, whatever its fault
FIRST_BAD_EDGE = [
    (((1, 2, 1.0), (2, 3, 0.5), (1, 9, 1.0)), "got 0.5"),
    (((1, 2, 1.0), (3, 3, 1.0), (2, 3, 0.5)), "self-loop at vertex 3"),
    (((1, 2, 1.0), (2, 1.0, 1.0), (1, 9, 1.0)), "vertex ids must be integers, got 1.0"),
    (((1, 2, 1.0), (2, 3), (1, 9, 1.0)), "edge must be (u, v, weight), got (2, 3)"),
    (((1, 9, 1.0), (2, 3, math.inf)), "out of range 1..3: (1, 9)"),
    # float() of an integer beyond the float range raises OverflowError
    (((1, 2, 1.0), (2, 3, 10**400), (1, 9, 1.0)), "got an overflowing integer"),
]


@pytest.mark.parametrize("edges, message", FIRST_BAD_EDGE)
def test_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ArgumentError, match=re.escape(message)):
        WeightedGraph(3, edges)


@pytest.mark.parametrize("objective", ["single-weight", "slam-double"])
@pytest.mark.parametrize("what", ["base edge", "candidate"])
@pytest.mark.parametrize("edges, message", FIRST_BAD_EDGE)
def test_instance_names_the_first_bad_edge_and_its_list(edges, message, what, objective):
    # instances run the graph's checker; on slam-double the bad weight sits
    # in the second weight column, behind a good first one
    path = ((1, 2, 1.0), (2, 3, 1.0))
    if objective == "slam-double":
        path, edges = (tuple((*e[:2], 1.0, *e[2:]) if len(e) == 3 else e for e in es)
                       for es in (path, edges))
        message = message.replace("(u, v, weight)", "(u, v, wp, wt)")
    message = message.replace("edge must be", f"{what} must be")
    base, cands = (edges, ()) if what == "base edge" else (path, edges)
    with pytest.raises(ArgumentError, match=re.escape(message)) as err:
        EdgeSelectionInstance(3, base, cands, 0, objective=objective)
    assert str(err.value).startswith(f"{what} ")


def test_graph_refuses_vertex_counts_whose_pair_keys_overflow():
    from treesynth.graphs import MAX_VERTICES

    n = MAX_VERTICES
    assert (n + 1) ** 2 <= 2**63 < (n + 2) ** 2
    assert WeightedGraph(n, ((n, n - 1, 1.0), (1, n, 2.0))).edges == ((1, n, 2.0), (n - 1, n, 1.0))
    with pytest.raises(ArgumentError, match="vertex count"):
        WeightedGraph(n + 1, ((1, 2, 1.0),))


def test_graph_accepts_what_int_and_float_accept():
    g = WeightedGraph(3, ((True, np.int64(2), "2.5"), (np.uint8(3), 2, np.float32(1.5))))
    assert g.edges == ((1, 2, 2.5), (2, 3, 1.5))
    assert all(type(x) is int for e in g.edges for x in e[:2])
    with pytest.raises(TypeError):
        WeightedGraph(3, ((1, 2, None),))


def test_graph_weight_lookup_and_edit_methods():
    g = WeightedGraph(3, TRIANGLE)
    assert g.weight(2, 1) == 2.0
    assert g.weight(1, 3) == 4.0
    bigger = g.with_edges(((1, 2, 1.0),))
    assert bigger.weight(1, 2) == 3.0
    smaller = g.without_pairs([(1, 3)])
    assert len(smaller.edges) == 2
    with pytest.raises(ArgumentError):
        g.without_pairs([(1, 5)])


def test_connectivity_queries():
    path = WeightedGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
    assert is_connected(path)
    split = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
    assert not is_connected(split)
    assert split.component_count == 2
    assert WeightedGraph(5, ()).component_count == 5


def test_full_laplacian_structure():
    g = WeightedGraph(3, TRIANGLE)
    L = g.full_laplacian()
    assert np.allclose(L, L.T)
    assert np.allclose(L.sum(axis=0), 0.0)
    assert L[0, 0] == 6.0  # vertex 1 touches weights 2 and 4


# ---------------------------------------------------------------------------
# array assembly against the per-edge loops it replaced


def reference_edges(edges):
    """The dict merge: u < v, weights of a pair summed in input order, sorted by pair."""
    merged = {}
    for u, v, *ws in edges:
        pair = (min(u, v), max(u, v))
        merged[pair] = tuple(a + b for a, b in zip(merged[pair], ws)) if pair in merged else tuple(ws)
    return tuple(pair + merged[pair] for pair in sorted(merged))


def reference_laplacian(n, canonical_edges):
    """The per-edge loop over canonical edges."""
    L = np.zeros((n, n))
    for u, v, w in canonical_edges:
        i, j = u - 1, v - 1
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def random_multigraph(rng, n, pairs, columns=1):
    """Random edges on distinct pairs, some pairs 3-5 times, in random order
    and orientation, weights spread over 1..1e16 so that the order of a
    sum shows in its bits. Starts with a pair whose order matters."""
    edges = [(1, 2, *[1e16] * columns), (1, 2, *[1.0] * columns), (2, 1, *[1.0] * columns)]
    for _ in range(pairs):
        u, v = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        for _ in range(int(rng.choice([1, 1, 3, 5]))):
            ws = (float(10.0 ** rng.uniform(0, 16)) for _ in range(columns))
            edges.append((u, v, *ws) if rng.random() < 0.5 else (v, u, *ws))
    order = rng.permutation(len(edges) - 3) + 3
    return edges[:3] + [edges[i] for i in order]


def test_parallel_weights_sum_in_input_order():
    g = WeightedGraph(3, ((1, 2, 1e16), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0)))
    assert g.weight(1, 2) == (1e16 + 1.0) + 1.0 != 1e16 + (1.0 + 1.0)


@pytest.mark.parametrize("seed", range(25))
def test_array_assembly_matches_the_per_edge_loops(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    edges = random_multigraph(rng, n, int(rng.integers(n, 4 * n)))
    g = WeightedGraph(n, tuple(edges))
    assert g.edges == reference_edges(edges)
    L = reference_laplacian(n, g.edges)
    assert np.array_equal(g.full_laplacian(), L)
    reduced = build_reduced_laplacian(g).matrix
    assert reduced.flags.c_contiguous
    assert np.array_equal(reduced, L[:-1, :-1])
    # the merge of instance edges, two weight columns at once
    two = random_multigraph(rng, n, int(rng.integers(n, 4 * n)), columns=2)
    assert _merge_parallel(two) == reference_edges(two)


@given(st.permutations(list(TRIANGLE)))
def test_graph_edge_order_is_canonical_under_permutation(perm):
    assert WeightedGraph(3, tuple(perm)).edges == WeightedGraph(3, TRIANGLE).edges


# ---------------------------------------------------------------------------
# ReducedLaplacian


def test_reduced_laplacian_default_anchor_is_last_vertex():
    g = WeightedGraph(3, TRIANGLE)
    L = build_reduced_laplacian(g)
    assert L.matrix.shape == (2, 2)
    assert list(L.reduced_index([1, 2, 3])) == [0, 1, -1]
    # det of the reduced Laplacian is the weighted tree count, here 26
    assert math.exp(L.log_det()) == pytest.approx(26.0, rel=1e-12)


def test_reduced_laplacian_checks_outside_input_only():
    g = WeightedGraph(4, ((1, 2, 1.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0), (1, 3, 1.0)))
    full = g.full_laplacian()
    # assembled matrices skip the check: exactly symmetric, read-only,
    # and what the checked constructor makes of the same matrix
    built = build_reduced_laplacian(g)
    assert np.array_equal(built.matrix, full[:-1, :-1])
    assert np.array_equal(built.matrix, built.matrix.T)
    assert not built.matrix.flags.writeable
    m = full[:-1, :-1].copy()
    checked = ReducedLaplacian(4, m)
    assert built.n == checked.n
    assert built.log_det() == checked.log_det()
    m[0, 0] = 99.0  # the checked constructor keeps its own copy
    assert checked.matrix[0, 0] == full[0, 0]
    m[0, 1] += 1e-9
    with pytest.raises(ArgumentError, match="symmetric"):
        ReducedLaplacian(4, m)
    with pytest.raises(ArgumentError, match="shape"):
        ReducedLaplacian(4, full)
    with pytest.raises(ArgumentError):
        ReducedLaplacian(1, np.zeros((0, 0)))


def test_reduced_laplacian_disconnected_graph_fails_factorization():
    g = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
    L = build_reduced_laplacian(g)
    with pytest.raises(NumericalError, match="not positive definite"):
        L.cholesky  # noqa: B018  (property access is the operation under test)


def test_cholesky_refusal_names_both_causes(tmp_path, capsys):
    # 1e15 in series with 1 on the path 1-2-3: the base plus the candidate
    # is the path plus one edge, which the tau rule's determinant lemma
    # answers exactly, det = 1e15 * 1 + 2 * (1e15 + 1)
    path = EdgeSelectionInstance(3, ((1, 2, 1e15), (2, 3, 1.0)), ((1, 3, 2.0),), 1)
    tau = greedy_select(path).tau_achieved
    assert abs(tau - math.log(3e15 + 2)) <= 2 * math.ulp(math.log(3e15 + 2))
    # the same weights on the path 1-3-2, which the lemma does not take:
    # connected, but the second pivot of its dense factor is at rounding level
    inst = EdgeSelectionInstance(3, ((1, 3, 1e15), (3, 2, 1.0)), ((1, 2, 2.0),), 1)
    assert is_connected(inst.base_graph())
    for call in (lambda: greedy_select(inst), lambda: certify(inst), lambda: inst.kernels):
        with pytest.raises(NumericalError) as err:
            call()
        message = str(err.value)
        assert "disconnected up to rounding" in message
        assert "weights spread more widely than float64 resolves" in message
    refused = tmp_path / "refused.json"
    save_instance(inst, refused)
    assert main(["certify", "--instance", str(refused)]) == 3
    assert "disconnected up to rounding" in capsys.readouterr().err
    # the lemma's form overflows: K = 1 + 2e308 is inf, which the factor
    # takes without complaint, so the rule refuses the non-finite log det
    overflow = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1e308)))
    with pytest.raises(NumericalError) as err:
        tree_connectivity(overflow)
    assert "disconnected up to rounding" in str(err.value)
    assert "weights spread more widely than float64 resolves" in str(err.value)


def test_incidence_vector_anchor_handling():
    g = WeightedGraph(3, TRIANGLE)
    L = build_reduced_laplacian(g)
    a = L.incidence_matrix([(1, 2)])[:, 0]
    assert list(a) == [1.0, -1.0]
    a2 = L.incidence_matrix([(1, 3)])[:, 0]  # anchored endpoint drops out
    assert list(a2) == [1.0, 0.0]


def test_with_edge_matches_full_rebuild():
    rng = np.random.default_rng(0)
    from conftest import random_connected_graph

    for _ in range(40):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n, min(n + 3, n * (n - 1) // 2))
        L = build_reduced_laplacian(g)
        _ = L.cholesky
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        w = float(rng.uniform(1.0, 4.0))
        updated = L.with_edge(int(u), int(v), w)
        rebuilt = build_reduced_laplacian(g.with_edges(((int(u), int(v), w),)))
        assert np.allclose(updated.matrix, rebuilt.matrix)
        assert abs(updated.log_det() - rebuilt.log_det()) < 1e-9
        # the seeded factor must match a from-scratch factorization
        assert np.allclose(updated.cholesky, rebuilt.cholesky, atol=1e-9)
        # a read-only lower factor, exactly zero above the diagonal
        C = updated.cholesky
        assert not C.flags.writeable
        assert not np.triu(C, 1).any()
        scale = np.abs(updated.matrix).max()
        np.testing.assert_allclose(C @ C.T, updated.matrix, rtol=0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# EdgeSelectionInstance


def test_instance_validation_basics():
    base = ((1, 2, 1.0), (2, 3, 1.0))
    cands = ((1, 3, 1.0),)
    inst = EdgeSelectionInstance(3, base, cands, 1)
    assert inst.num_candidates == 1
    assert inst.channels == ((None, 1.0),)
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(3, base, cands, 2)  # k > c
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(3, base, cands, -1)
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(3, base, cands, 1, direction="sideways")
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(3, base, cands, 1, objective="triple")


def test_instance_needs_two_vertices(tmp_path):
    # every solver needs a reduced Laplacian, so n = 1 is refused up front
    with pytest.raises(ArgumentError, match="at least 2 vertices"):
        EdgeSelectionInstance(1, (), (), 0)
    doc = {"n": 1, "base_edges": [], "candidates": [], "k": 0,
           "direction": "add", "objective": "single-weight"}
    with pytest.raises(DataError, match="at least 2 vertices"):
        instance_from_json_dict(doc)


def test_instance_requires_connected_base():
    with pytest.raises(DataError):
        EdgeSelectionInstance(4, ((1, 2, 1.0), (3, 4, 1.0)), ((2, 3, 1.0),), 1)


def test_connectivity_memory_is_bounded_by_the_edges():
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"\(999999 components\)"):
            EdgeSelectionInstance(10**6, ((1, 2, 1.0),), (), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=10),
    ))
)
def test_component_count_is_n_minus_the_laplacian_rank(case):
    # repeated pairs are parallel edges; vertices no pair names are isolated
    n, pairs = case
    g = WeightedGraph(n, tuple((u, v, 1.0) for u, v in pairs if u != v))
    assert g.component_count == n - np.linalg.matrix_rank(g.full_laplacian())
    assert g.connected == (g.component_count == 1)


@pytest.mark.parametrize("value", [2.5, math.inf])
@pytest.mark.parametrize("name", ["n", "k", "round k", "trials", "max_iters", "m_init", "sample_size"])
def test_counts_must_be_integers(name, value):
    inst = EdgeSelectionInstance(3, ((1, 2, 1.0), (2, 3, 1.0)), ((1, 3, 2.0),), 1)
    pi = np.ones(1)
    calls = {
        "n": lambda: EdgeSelectionInstance(value, inst.base_edges, inst.candidates, 1),
        "k": lambda: EdgeSelectionInstance(3, inst.base_edges, inst.candidates, value),
        "round k": lambda: round_deterministic(inst, pi, k=value),
        "trials": lambda: round_randomized(inst, pi, trials=value),
        "max_iters": lambda: solve_p2(inst, max_iters=value),
        "m_init": lambda: random_instance(4, value),
        "sample_size": lambda: random_instance(4, 3, "sampled", sample_size=value),
    }
    what = name.split()[-1]
    with pytest.raises(ArgumentError, match=rf"^{what} must be an integer, got {value!r}$"):
        calls[name]()


@pytest.mark.parametrize("seed", [2.9, 1.5, -1])
@pytest.mark.parametrize("name", ["round_randomized", "random_instance"])
def test_seeds_must_be_nonnegative_integers(name, seed):
    inst = EdgeSelectionInstance(3, ((1, 2, 1.0), (2, 3, 1.0)), ((1, 3, 2.0),), 1)
    calls = {
        "round_randomized": lambda: round_randomized(inst, np.ones(1), seed=seed),
        "random_instance": lambda: random_instance(4, 3, seed=seed),
    }
    with pytest.raises(ArgumentError, match="^seed must be"):
        calls[name]()


def test_instance_dual_channel_shapes():
    base = ((1, 2, 1.0, 2.0), (2, 3, 1.5, 2.5))
    cands = ((1, 3, 1.0, 1.0),)
    inst = EdgeSelectionInstance(3, base, cands, 1, objective="slam-double")
    assert inst.channels == (("p", 2.0), ("theta", 1.0))
    assert inst.base_graph("p").weight(1, 2) == 1.0
    assert inst.base_graph("theta").weight(1, 2) == 2.0
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(3, base, ((1, 3, 1.0),), 1, objective="slam-double")


@pytest.mark.parametrize("objective, good, bad", [
    ("single-weight", (None,), ("p", "theta", "bogus")),
    ("slam-double", ("p", "theta"), (None, "bogus")),
])
def test_instance_channel_accessors_share_one_check(objective, good, bad):
    # candidate_edges and candidate_weights once read a fixed column, so
    # "theta" on a single-weight instance raised IndexError
    base, cands = ((1, 2, 1.0, 2.0), (2, 3, 1.5, 2.5)), ((1, 3, 3.0, 4.0),)
    if objective == "single-weight":
        base, cands = (tuple(e[:3] for e in es) for es in (base, cands))
    inst = EdgeSelectionInstance(3, base, cands, 1, objective=objective)
    for col, channel in enumerate(good, start=2):
        assert inst.base_graph(channel).weight(1, 2) == base[0][col]
        assert inst.candidate_weights(channel).tolist() == [cands[0][col]]
        assert inst.candidate_edges([0], channel) == [(1, 3, cands[0][col])]
    accessors = (inst.base_graph, inst.candidate_weights, lambda ch: inst.candidate_edges([0], ch))
    for channel in bad:
        for accessor in accessors:
            with pytest.raises(ArgumentError, match="channel"):
                accessor(channel)


def test_remove_candidates_must_live_in_base():
    base = ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0))
    EdgeSelectionInstance(3, base, ((1, 3, 1.0),), 1, direction="remove")
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(3, base, ((1, 3, 2.0),), 1, direction="remove")
    with pytest.raises(ArgumentError):
        EdgeSelectionInstance(4, base + ((3, 4, 1.0),), ((1, 4, 1.0),), 1, direction="remove")


# ---------------------------------------------------------------------------
# removal reduction


def test_reduction_budget_and_candidates():
    base = tuple((u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5))
    cands = ((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0))
    inst = EdgeSelectionInstance(4, base, cands, 2, direction="remove")
    red = reduce_removal_to_addition(inst)
    assert red.direction == "add"
    assert red.k == 1
    assert red.candidates == cands
    assert len(red.base_edges) == len(base) - len(cands)


def test_reduction_rejects_disconnected_skeleton():
    base = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))
    inst = EdgeSelectionInstance(4, base, ((2, 3, 1.0),), 1, direction="remove")
    with pytest.raises(InfeasibleError):
        reduce_removal_to_addition(inst)


def test_reduction_names_the_skeleton_components():
    base = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))
    inst = EdgeSelectionInstance(4, base, ((1, 2, 1.0), (3, 4, 1.0)), 1, direction="remove")
    with pytest.raises(InfeasibleError, match=re.escape("(3 components)")):
        reduce_removal_to_addition(inst)


@pytest.mark.parametrize("objective", ["single-weight", "slam-double"])
def test_reduction_builds_one_graph_per_channel(monkeypatch, objective):
    # the reduced instance's own construction walks the skeleton; no probe graph
    arity = 3 if objective == "single-weight" else 4
    base = tuple((u, v, 1.0 + u, 2.0 + v)[:arity] for u in range(1, 5) for v in range(u + 1, 5))
    inst = EdgeSelectionInstance(4, base, (base[0], base[4]), 1, direction="remove",
                                 objective=objective)
    built = []
    init = WeightedGraph.__post_init__

    def counted(self):
        built.append(self.n)
        init(self)

    monkeypatch.setattr(WeightedGraph, "__post_init__", counted)
    red = reduce_removal_to_addition(inst)
    for channel, _ in red.channels:
        red.base_graph(channel)
    assert len(built) == len(red.channels)


def test_with_budget_shares_kernels_on_addition_instances_only():
    base = tuple((u, v, 1.0) for u in range(1, 6) for v in range(u + 1, 6))
    cands = ((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0))
    removal = EdgeSelectionInstance(5, base, cands, 2, direction="remove")
    fewer = removal.with_budget(1)
    assert (fewer.k, fewer.direction, fewer.candidates) == (1, "remove", cands)
    addition = reduce_removal_to_addition(removal)
    more = addition.with_budget(2)
    assert more.k == 2 and more.kernels is addition.kernels


def test_removal_set_is_complement_of_kept():
    base = tuple((u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5))
    cands = ((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0))
    inst = EdgeSelectionInstance(4, base, cands, 2, direction="remove")
    red = reduce_removal_to_addition(inst)
    assert removal_set_from_addition(red, (1,)) == (0, 2)
    with pytest.raises(ArgumentError):
        removal_set_from_addition(red, (1, 2))  # wrong cardinality


# ---------------------------------------------------------------------------
# generation and serialization


def test_random_instance_is_seed_deterministic():
    a = random_instance(n=10, m_init=14, seed=7, k=3, candidate_mode="sampled", sample_size=6)
    b = random_instance(n=10, m_init=14, seed=7, k=3, candidate_mode="sampled", sample_size=6)
    assert a == b
    c = random_instance(n=10, m_init=14, seed=8, k=3, candidate_mode="sampled", sample_size=6)
    assert a != c


def test_random_instance_base_connected_and_weights_in_range():
    inst = random_instance(n=12, m_init=16, weight_range=(2.0, 3.0), seed=1, k=2)
    assert is_connected(inst.base_graph())
    for _, _, w in inst.base_edges:
        assert 2.0 <= w <= 3.0


def test_random_instance_complement_mode_disjoint_from_base():
    inst = random_instance(n=7, m_init=9, candidate_mode="complement", seed=4)
    base_pairs = {(u, v) for u, v, _ in inst.base_edges}
    cand_pairs = {(u, v) for u, v, _ in inst.candidates}
    assert not base_pairs & cand_pairs
    assert len(cand_pairs) == 7 * 6 // 2 - len(base_pairs)


def test_random_instance_gives_up_after_the_tries_constant(monkeypatch):
    # 19 of the 190 pairs of 20 vertices rarely form a spanning tree
    monkeypatch.setattr(graphs, "RANDOM_BASE_TRIES", 3)
    with pytest.raises(DataError, match="n=20, m_init=19 after 3 tries"):
        random_instance(n=20, m_init=19, seed=0)


def test_random_instance_sample_size_needs_sampled_mode():
    with pytest.raises(ArgumentError, match="sample_size"):
        random_instance(n=8, m_init=9, candidate_mode="complement", sample_size=4)
    # sampled mode still needs it
    with pytest.raises(ArgumentError, match="sample_size"):
        random_instance(n=8, m_init=9, candidate_mode="sampled")


def test_instance_json_round_trip(tmp_path):
    inst = random_instance(n=6, m_init=8, seed=2, k=2, candidate_mode="sampled", sample_size=4)
    doc = instance_to_json_dict(inst)
    assert instance_from_json_dict(doc) == inst
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_load_instance_errors(tmp_path):
    with pytest.raises(DataError):
        load_instance(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_instance(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"n": 3, "base_edges": [[1, 2, 1.0]], "candidates": [], "k": 0}))
    with pytest.raises(DataError):
        load_instance(wrong)  # disconnected base surfaces as a data error


def _instance_doc(objective: str) -> dict:
    w = (1.0,) if objective == "single-weight" else (1.0, 2.0)
    return {"n": 3, "base_edges": [[1, 2, *w], [2, 3, *w]], "candidates": [[1, 3, *w]],
            "k": 1, "direction": "add", "objective": objective}


@pytest.mark.parametrize("objective, arity", [("single-weight", 3), ("slam-double", 4)])
@pytest.mark.parametrize("key", ["base_edges", "candidates"])
def test_instance_file_entries_of_any_length_are_data_errors(objective, arity, key):
    doc = _instance_doc(objective)
    for length in (0, 1, 2, arity + 1):
        entry = [1, 3, 1.0, 2.0, 3.0][:length]
        with pytest.raises(DataError, match=re.escape(f"got {tuple(entry)!r}")):
            instance_from_json_dict({**doc, key: doc[key] + [entry]})


@pytest.mark.parametrize(
    "entry", [[1, 3, True], [True, 3, 1.0], [1, False, 1.0], [1, 3, 1.0, True], [1, 3, False, 1.0]]
)
def test_instance_file_refuses_booleans_in_edges(entry):
    # JSON true is not the weight 1.0, nor the vertex 1
    doc = _instance_doc("single-weight" if len(entry) == 3 else "slam-double")
    for key in ("base_edges", "candidates"):
        with pytest.raises(DataError, match="arrays of numbers"):
            instance_from_json_dict({**doc, key: doc[key] + [entry]})


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.floats(1.0, 9.0)),
        min_size=1,
        max_size=10,
    )
)
def test_graph_construction_is_idempotent(raw):
    edges = tuple((u, v, w) for u, v, w in raw if u != v)
    if not edges:
        return
    g = WeightedGraph(6, edges)
    again = WeightedGraph(6, g.edges)
    assert g.edges == again.edges
    assert g == again


@pytest.mark.parametrize("objective", ["single-weight", "slam-double"])
def test_design_taus_match_the_per_channel_graph_route_bit_for_bit(objective):
    """design_taus merges the base's columns and the design's once for all
    channels; the route it replaced built a graph per channel."""
    def graph_route(inst, idx):
        return tuple(tree_connectivity(inst.base_graph(ch).with_edges(inst.candidate_edges(idx, ch))).tau
                     for ch, _ in inst.channels)

    columns = 1 if objective == "single-weight" else 2
    rng = np.random.default_rng(7 + columns)
    weight = lambda: tuple(float(10.0 ** rng.uniform(0.0, 6.0)) for _ in range(columns))
    routes = set()
    for trial in range(16):
        n = int(rng.integers(5, 40))
        # the path 1-...-n, one link twice, orientations mixed; every other
        # trial adds chords to the base, so that it is not the path
        base = [(a, a + 1, *weight()) if rng.random() < 0.5 else (a + 1, a, *weight())
                for a in range(1, n)]
        base.append((2, 1, *weight()))
        pair = lambda: tuple(int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        if trial % 2:
            base += [(*pair(), *weight()) for _ in range(3)]
        # candidates: random pairs in either orientation, base pairs, exact duplicates
        cands = [(*pair(), *weight()) for _ in range(2 * n)]
        cands += [(a + 1, a, *weight()) for a in rng.choice(np.arange(1, n), size=3)]
        cands += [cands[int(i)] for i in rng.choice(len(cands), size=4)]
        inst = EdgeSelectionInstance(n, tuple(base), tuple(cands), 0, objective=objective)
        order, c = n - 1, len(cands)
        on_path = [i for i, e in enumerate(cands) if abs(e[0] - e[1]) == 1]
        designs = [(), on_path, list(range(c)), rng.permutation(c)[: int(0.3 * order)].tolist(),
                   rng.permutation(c)[: int(0.8 * order)].tolist()]
        for idx in designs:
            taus = inst.design_taus(idx)
            assert taus == graph_route(inst, idx), (trial, idx)
            g = inst.base_graph(inst.channels[0][0]).with_edges(inst.candidate_edges(idx, inst.channels[0][0]))
            u, v, _ = g._columns
            if g.num_edges == order:
                routes.add("tree")
            elif g.num_edges - order <= graphs.LEMMA_MAX_EXTRA * order and np.sum(v - u == 1) == order:
                routes.add("lemma")
            else:
                routes.add("dense")
    assert routes == {"tree", "lemma", "dense"}
