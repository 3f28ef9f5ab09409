"""Weighted graphs, reduced Laplacians, and edge-selection instances.

Conventions used throughout the package:

* vertices are labeled 1..n externally; matrix code is 0-based,
* edge weights are >= 1 so that every tree-connectivity value is
  nonnegative; datasets with smaller weights are rescaled once, at g2o
  ingestion (slam.parse_g2o, ``--normalize``),
* the reduced Laplacian drops vertex n, the anchor; its determinant,
  the weighted spanning-tree count, does not depend on that choice,
* all tree-connectivity arithmetic happens in log space.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._lapack import dpotrf
from .errors import ArgumentError, DataError, InfeasibleError, NumericalError

DIRECTION_ADD = "add"
DIRECTION_REMOVE = "remove"
OBJECTIVE_SINGLE = "single-weight"
OBJECTIVE_SLAM = "slam-double"

# Cholesky pivots below this fraction of the largest diagonal entry are
# refused with _UNRESOLVED instead of silently producing a garbage factor.
PIVOT_RTOL = 1e-12
# The largest n whose pair keys u * (n + 1) + v fit in int64 (_merge_columns).
MAX_VERTICES = 3_037_000_498
# random_instance draws at most this many base graphs before giving up
RANDOM_BASE_TRIES = 10000
_UNRESOLVED = (
    "the graph is disconnected up to rounding, or its weights spread more "
    "widely than float64 resolves"
)


def _canonical_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _as_vertex(x) -> int:
    try:
        return int(operator.index(x))
    except TypeError:
        raise ArgumentError(f"vertex ids must be integers, got {x!r}") from None


def _check_edge(e, n: int, weights: int = 1, what: str = "edge") -> tuple:
    """One (u, v, *weights) edge on vertices 1..n, checked and normalized.

    The only code that words an edge error: integer vertices in 1..n,
    u != v, weights >= 1 and finite. ArgumentError names the edge and its
    list ``what`` ("edge", "base edge", "candidate").
    """
    e = tuple(e)
    if len(e) != 2 + weights:
        shape = "(u, v, weight)" if weights == 1 else "(u, v, wp, wt)"
        raise ArgumentError(f"{what} must be {shape}, got {e!r}")
    at = f"{what} {e!r}"
    try:
        u, v = _as_vertex(e[0]), _as_vertex(e[1])
    except ArgumentError as exc:
        raise ArgumentError(f"{at}: {exc}") from None
    try:
        ws = tuple(float(x) for x in e[2:])
    except OverflowError:  # an integer beyond the float range
        raise ArgumentError(
            f"{at}: weight must be >= 1 and finite, got an overflowing integer"
        ) from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise ArgumentError(f"{at}: vertex id out of range 1..{n}: ({u}, {v})")
    if u == v:
        raise ArgumentError(f"{at}: self-loop at vertex {u} is not allowed")
    for w in ws:
        if not 1.0 <= w < math.inf:  # refuses nan too
            raise ArgumentError(f"{at}: weight must be >= 1 and finite, got {w!r}")
    return (u, v, *ws)


def _edge_columns(edges: tuple, weights: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Integer u and v columns and the (m, weights) float weights of edges.

    None when an entry has another arity, or a column does not type as
    integers (vertices) or real numbers (weights), e.g. bools or strings:
    _check_edge then decides, one edge at a time, what they mean.
    """
    if not edges:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty((0, weights))
    try:
        cols = tuple(map(np.array, zip(*edges, strict=True)))
    except (TypeError, ValueError):
        return None
    if len(cols) != 2 + weights or any(c.ndim != 1 for c in cols):
        return None
    u, v, *ws = cols
    if any(c.dtype.kind not in "iu" for c in (u, v)) or any(w.dtype.kind not in "iuf" for w in ws):
        return None
    return u, v, np.stack(ws, axis=1).astype(float, copy=False)


def _check_edges(
    edges: Iterable[Sequence], n: int, weights: int = 1, what: str = "edge"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one edge check of graphs and instances: u, v and w columns.

    The list is checked on arrays; its first bad edge goes to _check_edge,
    which raises naming it and ``what``. Lists that do not type as arrays
    are normalized edge by edge first. u and v keep each edge's
    orientation; w is (m, weights).
    """
    edges = tuple(edges)
    cols = _edge_columns(edges, weights)
    if cols is None:
        cols = _edge_columns(tuple(_check_edge(e, n, weights, what) for e in edges), weights)
    u, v, w = cols
    bad = (np.minimum(u, v) < 1) | (np.maximum(u, v) > n) | (u == v)
    bad |= ~((w >= 1.0) & (w < math.inf)).all(axis=1)  # refuses nan too
    if bad.any():  # _check_edge raises, naming the first bad edge
        i = int(bad.argmax())
        _check_edge((int(u[i]), int(v[i]), *w[i].tolist()), n, weights, what)
    return u, v, w


def _merge_columns(
    lo: np.ndarray, hi: np.ndarray, w: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge columns with lo < hi in 1..n, one row per pair, sorted by pair.

    w holds one weight column, shape (m,), or several, (m, j). One stable
    sort on the pair key lo * (n + 1) + hi finds each pair's first edge,
    and bincount sums each pair's weights from 0.0 in input order, so a
    pair's first weights keep their bits and later copies add on in the
    order they came, as a dict merge over the edges would.
    """
    key = lo * (n + 1) + hi
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    pairs = order[first]
    group = np.searchsorted(sorted_key[first], key)
    if w.ndim == 1:
        sums = np.bincount(group, weights=w, minlength=len(pairs))
    else:
        sums = np.stack([np.bincount(group, weights=c, minlength=len(pairs)) for c in w.T], axis=1)
    return lo[pairs], hi[pairs], sums


def _merge_parallel(edges: Iterable[tuple]) -> tuple[tuple, ...]:
    """(u, v, *weights) edges with u < v, one per pair, sorted by pair.

    Parallel edges sum each weight column in input order (_merge_columns).
    """
    edges = tuple(edges)
    if not edges:
        return ()
    u, v, *ws = (np.array(c) for c in zip(*edges))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    lo, hi, sums = _merge_columns(lo, hi, np.stack(ws, axis=1).astype(float), int(hi.max()))
    return tuple(zip(lo.tolist(), hi.tolist(), *sums.T.tolist()))


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on vertices 1..n with edge weights >= 1.

    Edges are canonicalized at construction, on arrays: endpoints ordered
    u < v, one stable sort on the endpoint pair, and parallel edges merged
    by summing their weights in input order (_merge_columns). ``edges`` is
    the resulting tuple of (u, v, w); the same columns are kept as arrays
    for Laplacian assembly. Weights below 1 are refused; datasets with
    smaller weights are rescaled at g2o ingestion.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        n = _as_vertex(self.n)
        if not 1 <= n <= MAX_VERTICES:
            raise ArgumentError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        object.__setattr__(self, "n", n)

        u, v, w = _check_edges(self.edges, n)
        lo, hi = (a.astype(np.int64, copy=False) for a in (np.minimum(u, v), np.maximum(u, v)))
        u, v, w = _merge_columns(lo, hi, w[:, 0], n)
        for a in (u, v, w):
            a.setflags(write=False)
        object.__setattr__(self, "_columns", (u, v, w))
        object.__setattr__(self, "edges", tuple(zip(u.tolist(), v.tolist(), w.tolist())))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def pair_weights(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    def weight(self, u: int, v: int) -> float | None:
        """Merged weight of the edge {u, v}, or None if absent."""
        return self.pair_weights.get(_canonical_pair(_as_vertex(u), _as_vertex(v)))

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def connected(self) -> bool:
        return self.component_count == 1

    @cached_property
    def component_count(self) -> int:
        seen = [False] * (self.n + 1)
        components = 0
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            components += 1
            stack = [start]
            seen[start] = True
            while stack:
                x = stack.pop()
                for y in self._adjacency[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
        return components

    def with_edges(self, extra: Iterable[Sequence]) -> WeightedGraph:
        """New graph with ``extra`` (u, v, w) edges merged in."""
        extra_t = tuple(tuple(e) for e in extra)
        return WeightedGraph(self.n, self.edges + extra_t)

    def without_pairs(self, pairs: Iterable[Sequence]) -> WeightedGraph:
        """New graph with the given endpoint pairs deleted entirely."""
        drop = set()
        for p in pairs:
            u, v = _as_vertex(p[0]), _as_vertex(p[1])
            pair = _canonical_pair(u, v)
            if pair not in self.pair_weights:
                raise ArgumentError(f"no edge {pair} to remove")
            drop.add(pair)
        kept = tuple(e for e in self.edges if (e[0], e[1]) not in drop)
        return WeightedGraph(self.n, kept)

    def full_laplacian(self) -> np.ndarray:
        """Dense n x n weighted Laplacian, assembled from the edge arrays.

        The diagonal is one bincount in a per-edge loop's summation order,
        so the bits are that loop's (_laplacian).
        """
        return _laplacian(self, self.n)


def _laplacian(g: WeightedGraph, order: int) -> np.ndarray:
    """The leading order x order block of g's Laplacian, assembled from arrays.

    The diagonal is one bincount over the interleaved ends u0, v0, u1,
    v1, ...: each vertex adds its edges' weights from 0.0 in edge order,
    the order of a per-edge loop, so the bits are that loop's. Each
    off-diagonal pair occurs once, so it is set to -w.
    """
    u, v, w = g._columns
    L = np.zeros((order, order))
    ends = np.stack((u, v), axis=1).ravel()
    L.flat[:: order + 1] = np.bincount(ends, weights=np.repeat(w, 2), minlength=g.n + 1)[1 : order + 1]
    inside = v <= order  # u < v, so v is the end past the block
    i, j, w = u[inside] - 1, v[inside] - 1, w[inside]
    L[i, j] = -w
    L[j, i] = -w
    return L


def is_connected(g: WeightedGraph) -> bool:
    return g.connected


@dataclass(frozen=True)
class ReducedLaplacian:
    """Weighted Laplacian with vertex n's row and column removed.

    Vertex n is the anchor, so row i belongs to vertex i + 1. Positive
    definite exactly when the generating graph is connected, in which
    case its determinant is the weighted spanning-tree count. The
    lower Cholesky factor, LAPACK's dpotrf in Fortran order, is computed
    on first use and cached. Pivots below PIVOT_RTOL times the largest
    diagonal entry raise NumericalError: the graph is disconnected up to
    rounding, or it is connected but its weights spread more widely than
    float64 resolves (a 1e15 edge in series with a 1 edge).
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = _as_vertex(self.n)
        if n < 2:
            raise ArgumentError("reduced Laplacian needs at least 2 vertices")
        m = np.array(self.matrix, dtype=float)
        if m.shape != (n - 1, n - 1):
            raise ArgumentError(
                f"matrix shape {m.shape} does not match order {n - 1}"
            )
        if m.size and not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise ArgumentError("reduced Laplacian must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, n: int, matrix: np.ndarray) -> ReducedLaplacian:
        """Wrap a matrix the package assembled itself, without __post_init__.

        For float matrices of the right order that are symmetric by
        construction and owned by no one else: the copy and the symmetry
        check are about half of a small build.
        """
        lap = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(lap, "n", n)
        object.__setattr__(lap, "matrix", matrix)
        return lap

    @property
    def order(self) -> int:
        return self.n - 1

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor C with C C^T = matrix, Fortran-ordered, zero above."""
        factor, info = dpotrf(self.matrix, lower=1, clean=1)
        if info:
            raise NumericalError(
                f"Cholesky factorization failed, matrix is not positive definite: {_UNRESOLVED}"
            )
        pivots = np.diag(factor) ** 2
        floor = PIVOT_RTOL * float(np.max(np.diag(self.matrix)))
        if np.any(pivots < floor):
            raise NumericalError(f"Cholesky pivot underflow: {_UNRESOLVED}")
        factor.setflags(write=False)
        return factor

    def log_det(self) -> float:
        """log det of the matrix, computed from the Cholesky diagonal."""
        return float(2.0 * np.sum(np.log(np.diag(self.cholesky))))

    def reduced_index(self, vertex):
        """Row index of an external vertex, -1 for the anchor, vertex n.

        Accepts an integer or an integer array of any shape.
        """
        x = np.asarray(vertex)
        if x.dtype.kind not in "iu":
            if x.size:
                raise ArgumentError(f"vertex ids must be integers, got {vertex!r}")
            x = x.astype(int)
        bad = x[(x < 1) | (x > self.n)]
        if bad.size:
            raise ArgumentError(f"vertex {bad.flat[0]} out of range 1..{self.n}")
        return np.where(x == self.n, -1, x - 1)

    def incidence_matrix(self, pairs) -> np.ndarray:
        """Signed incidence columns of edges {u, v}, anchor coordinate dropped.

        Column j is +1 at u and -1 at v of the j-th pair, order x len(pairs).
        """
        idx = self.reduced_index(np.asarray(list(pairs)).reshape(-1, 2))
        if np.any(idx[:, 0] == idx[:, 1]):
            raise ArgumentError("edge endpoints must differ")
        A = np.zeros((self.order, len(idx)))
        for end, sign in ((idx[:, 0], 1.0), (idx[:, 1], -1.0)):
            keep = end >= 0
            A[end[keep], np.flatnonzero(keep)] = sign
        return A

    def incidence_vector(self, u: int, v: int) -> np.ndarray:
        """Signed incidence column of edge {u, v}, anchor coordinate dropped."""
        return self.incidence_matrix([(u, v)])[:, 0]

    def with_edge(self, u: int, v: int, w: float) -> ReducedLaplacian:
        """Commit edge {u, v} with weight w: the matrix gains w a a^T.

        The factor of the result is computed afresh on first use.
        """
        w = float(w)
        if not math.isfinite(w) or w <= 0:
            raise ArgumentError(f"edge weight must be positive and finite, got {w!r}")
        a = self.incidence_vector(u, v)
        return ReducedLaplacian(self.n, self.matrix + w * np.outer(a, a))


def build_reduced_laplacian(g: WeightedGraph) -> ReducedLaplacian:
    """Assemble the reduced Laplacian of g, dropping vertex n.

    The (n-1) x (n-1) matrix is assembled directly (_laplacian): one
    bincount for the diagonal, in a per-edge loop's summation order.
    """
    if g.n < 2:
        raise ArgumentError("reduced Laplacian needs at least 2 vertices")
    return ReducedLaplacian._trusted(g.n, _laplacian(g, g.n - 1))


@dataclass(frozen=True)
class EdgeSelectionInstance:
    """A budgeted edge-selection problem over a connected base graph.

    direction "add" asks for k candidates to append to the base graph,
    "remove" for k candidates to delete from it. objective
    "single-weight" carries one weight per edge, [u, v, w]; "slam-double"
    carries translational and rotational precisions, [u, v, wp, wt], and
    scores designs by twice the translational tree-connectivity plus the
    rotational one.

    Candidate order is significant: greedy ties break toward the lowest
    index and selections are reported as indices into ``candidates``.

    Construction is the one edge check and the one connectivity walk:
    base edges and candidates go through _check_edges, with one weight
    column per channel, and come out as (int, int, float, ...) tuples in
    their given orientation; the base graph must be connected. The
    channels share one topology, so only the first channel's graph is
    walked. Every design adds edges to a connected base, so scoring one
    (greedy.GainFunction) walks nothing.
    """

    n: int
    base_edges: tuple[tuple, ...]
    candidates: tuple[tuple, ...]
    k: int
    direction: str = DIRECTION_ADD
    objective: str = OBJECTIVE_SINGLE

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_ADD, DIRECTION_REMOVE):
            raise ArgumentError(f"direction must be add or remove, got {self.direction!r}")
        if self.objective not in (OBJECTIVE_SINGLE, OBJECTIVE_SLAM):
            raise ArgumentError(
                f"objective must be {OBJECTIVE_SINGLE!r} or {OBJECTIVE_SLAM!r}, "
                f"got {self.objective!r}"
            )
        n = _as_vertex(self.n)
        if n < 2:
            raise ArgumentError(f"instances need at least 2 vertices, got n={n}")

        def checked(edges, what: str) -> tuple[tuple, ...]:
            u, v, w = _check_edges(edges, n, len(self.channels), what)
            return tuple(zip(u.tolist(), v.tolist(), *w.T.tolist()))

        base = checked(self.base_edges, "base edge")
        cands = checked(self.candidates, "candidate")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base_edges", base)
        object.__setattr__(self, "candidates", cands)

        k = _as_vertex(self.k)
        if not 0 <= k <= len(cands):
            raise ArgumentError(f"budget k={k} outside 0..{len(cands)}")
        object.__setattr__(self, "k", k)

        g = self.base_graph(self.channels[0][0])
        if not g.connected:
            raise DataError(f"base graph is disconnected ({g.component_count} components)")

        if self.direction == DIRECTION_REMOVE:
            merged = {e[:2]: e[2:] for e in self.merged_base_edges()}
            seen: set[tuple[int, int]] = set()
            for e in cands:
                pair = _canonical_pair(e[0], e[1])
                if pair in seen:
                    raise ArgumentError(f"duplicate removal candidate {pair}")
                seen.add(pair)
                if pair not in merged:
                    raise ArgumentError(f"removal candidate {pair} is not a base edge")
                for cw, bw in zip(e[2:], merged[pair]):
                    if abs(cw - bw) > 1e-9 * max(1.0, abs(bw)):
                        raise ArgumentError(
                            f"removal candidate {pair} weight {cw} does not match "
                            f"the (merged) base edge weight {bw}"
                        )

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @cached_property
    def channels(self) -> tuple[tuple[str | None, float], ...]:
        """Weight channels with their objective multipliers."""
        if self.objective == OBJECTIVE_SINGLE:
            return ((None, 1.0),)
        return (("p", 2.0), ("theta", 1.0))

    def _channel_index(self, channel: str | None) -> int:
        """Position of ``channel`` in ``channels``: the one channel check.

        A channel's weight is entry 2 + index of an instance edge and
        column 2 + index of ``candidate_array``.
        """
        for i, (ch, _) in enumerate(self.channels):
            if ch == channel:
                return i
        if self.objective == OBJECTIVE_SINGLE:
            raise ArgumentError("single-weight instances have no named channels")
        raise ArgumentError(
            f"slam-double instances require a channel, 'p' or 'theta', got {channel!r}"
        )

    @cached_property
    def _base_graphs(self) -> tuple[WeightedGraph, ...]:
        cols = tuple(zip(*self.base_edges)) or ((),) * (2 + len(self.channels))
        return tuple(WeightedGraph(self.n, tuple(zip(cols[0], cols[1], w))) for w in cols[2:])

    def base_graph(self, channel: str | None = None) -> WeightedGraph:
        return self._base_graphs[self._channel_index(channel)]

    @cached_property
    def candidate_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e[0], e[1]) for e in self.candidates)

    @cached_property
    def candidate_array(self) -> np.ndarray:
        """The candidates as a read-only c x (2 + channels) float array."""
        a = np.array(self.candidates, dtype=float).reshape(self.num_candidates, 2 + len(self.channels))
        a.setflags(write=False)
        return a

    @cached_property
    def kernels(self) -> tuple:
        """(multiplier, treeconn.SubsetLogDet over all candidates) per channel.

        The one candidate kernel that greedy, the relaxation, both roundings
        and exhaustive search read, so it is also their one guard: removal
        instances raise ArgumentError here, to be reduced first
        (reduce_removal_to_addition). Built on first use and held for the
        instance's lifetime: order * c floats per channel (Z), plus c^2 (G)
        once the relaxation, or exhaustive search with k >= 2, has run
        with c <= order, plus the last selector's factor, at most
        min(c, order)^2. While the relaxation runs, each gradient also
        holds one s * c array for s nonzero selectors (order * c when s >
        order), its one right-side triangular solve overwriting the
        gathered rows, until it returns, and the Newton trial the free
        block's Hessian, |F|^2; the kernel keeps neither.

        A channel whose merged base edges are {a, a + 1} for a = 1..n-1,
        the odometry path of every g2o instance (slam.to_instance, and
        reduce_removal_to_addition's base), gets Z in closed form with no
        solve; every other base is whitened by a triangular solve.
        """
        from .treeconn import SubsetLogDet  # treeconn imports this module

        if self.direction != DIRECTION_ADD:
            raise ArgumentError(
                "the solvers expect an addition instance; reduce removal "
                "instances first (reduce_removal_to_addition)"
            )
        kernels = []
        for ch, mult in self.channels:
            g = self.base_graph(ch)
            u, v, w = g._columns
            # g is connected, so edges that all join a and a + 1 are the whole path
            path = w if np.all(v - u == 1) else None
            kernels.append((mult, SubsetLogDet(build_reduced_laplacian(g), self.candidate_pairs,
                                               self.candidate_weights(ch), path)))
        return tuple(kernels)

    def with_budget(self, k: int) -> EdgeSelectionInstance:
        """The instance with budget k, sharing this one's kernels (built here if new).

        The kernels do not depend on k, so a budget sweep builds them once.
        """
        inst = replace(self, k=k)
        inst.__dict__["kernels"] = self.kernels
        return inst

    def candidate_weights(self, channel: str | None = None) -> np.ndarray:
        w = np.ascontiguousarray(self.candidate_array[:, 2 + self._channel_index(channel)])
        w.setflags(write=False)
        return w

    def candidate_edges(self, indices: Iterable[int], channel: str | None = None) -> list[tuple[int, int, float]]:
        """Materialize (u, v, w) triples for a selection, per channel."""
        col = 2 + self._channel_index(channel)
        return [(e[0], e[1], e[col]) for e in map(self.candidates.__getitem__, indices)]

    def merged_base_edges(self) -> tuple[tuple, ...]:
        """Base edges after parallel-edge merging, in instance arity."""
        return _merge_parallel(self.base_edges)

    def describe(self) -> dict:
        return {
            "n": self.n,
            "m_init": self.base_graph(self.channels[0][0]).num_edges,
            "c": self.num_candidates,
            "k": self.k,
            "direction": self.direction,
            "objective": self.objective,
        }


def reduce_removal_to_addition(inst: EdgeSelectionInstance) -> EdgeSelectionInstance:
    """Rewrite a removal instance as an equivalent addition instance.

    The base becomes the skeleton with every removal candidate deleted,
    the candidates stay put, and the budget flips to c - k: keeping a
    subset S of candidates is the same design as removing its complement,
    with identical objective value. The returned instance's construction
    is the skeleton's one connectivity walk; a disconnected skeleton
    raises InfeasibleError naming its number of components.
    """
    if inst.direction != DIRECTION_REMOVE:
        raise ArgumentError("only removal instances can be reduced")
    cand_pairs = {_canonical_pair(e[0], e[1]) for e in inst.candidates}
    skeleton = tuple(e for e in inst.merged_base_edges() if e[:2] not in cand_pairs)
    try:
        return EdgeSelectionInstance(
            n=inst.n,
            base_edges=skeleton,
            candidates=inst.candidates,
            k=inst.num_candidates - inst.k,
            direction=DIRECTION_ADD,
            objective=inst.objective,
        )
    except DataError as exc:
        raise InfeasibleError(
            "the skeleton left after deleting every removal candidate cannot "
            f"be the base of an addition instance: {exc}"
        ) from exc


def _design_indices(
    inst: EdgeSelectionInstance, design: Iterable[int], size: int | None = None
) -> list[int]:
    """The design's candidate indices, checked: no repeats, each in 0..c-1,
    and exactly ``size`` of them when given."""
    idx = [int(i) for i in design]
    bad = [i for i in idx if not 0 <= i < inst.num_candidates]
    if bad:
        raise ArgumentError(
            f"candidate indices outside 0..{inst.num_candidates - 1}: {sorted(bad)}"
        )
    if len(set(idx)) != len(idx):
        raise ArgumentError("a design may not repeat candidate indices")
    if size is not None and len(idx) != size:
        raise ArgumentError(f"design has {len(idx)} candidates, the budget is k={size}")
    return idx


def removal_set_from_addition(inst: EdgeSelectionInstance, design: Iterable[int]) -> tuple[int, ...]:
    """The candidates a design of exactly ``inst.k`` indices leaves out.

    The kept set of a reduced instance maps to the removal set of the
    original, and a removal design of the original (pass the original)
    to the kept set of its reduction.
    """
    chosen = set(_design_indices(inst, design, size=inst.k))
    return tuple(i for i in range(inst.num_candidates) if i not in chosen)


def random_instance(
    n: int,
    m_init: int,
    candidate_mode: str = "complement",
    weight_range: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
    *,
    k: int = 0,
    sample_size: int | None = None,
) -> EdgeSelectionInstance:
    """Sample a random single-weight addition instance.

    The base graph has exactly m_init edges drawn uniformly among vertex
    pairs and is resampled until connected, at most RANDOM_BASE_TRIES
    draws (DataError after that). candidate_mode "complement"
    takes every non-base pair as a candidate; "sampled" draws
    ``sample_size`` of them without replacement; a ``sample_size`` in
    complement mode is refused, not ignored. Weights are uniform in
    ``weight_range`` (bounds must be >= 1). Deterministic per seed.
    """
    n = _as_vertex(n)
    if n < 2:
        raise ArgumentError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    if m_init < n - 1:
        raise ArgumentError(f"m_init={m_init} cannot connect {n} vertices (need >= {n - 1})")
    if m_init > max_edges:
        raise ArgumentError(f"m_init={m_init} exceeds the {max_edges} available pairs")
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not (1.0 <= lo <= hi) or not math.isfinite(hi):
        raise ArgumentError(f"weight_range must satisfy 1 <= lo <= hi, got {weight_range!r}")
    if candidate_mode not in ("complement", "sampled"):
        raise ArgumentError(f"candidate_mode must be complement or sampled, got {candidate_mode!r}")
    if candidate_mode == "complement" and sample_size is not None:
        raise ArgumentError(
            "sample_size applies to candidate_mode='sampled' only; complement "
            "mode takes every non-base pair"
        )

    rng = np.random.default_rng(seed)
    all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]

    base_pairs: list[tuple[int, int]] | None = None
    base_weights: np.ndarray | None = None
    for _ in range(RANDOM_BASE_TRIES):
        idx = sorted(rng.choice(len(all_pairs), size=m_init, replace=False).tolist())
        pairs = [all_pairs[i] for i in idx]
        weights = rng.uniform(lo, hi, size=m_init)
        probe = WeightedGraph(n, tuple((u, v, float(w)) for (u, v), w in zip(pairs, weights)))
        if probe.connected:
            base_pairs, base_weights = pairs, weights
            break
    if base_pairs is None:
        raise DataError(
            f"could not sample a connected base graph with n={n}, m_init={m_init} "
            f"after {RANDOM_BASE_TRIES} tries"
        )

    base_set = set(base_pairs)
    complement = [p for p in all_pairs if p not in base_set]
    if candidate_mode == "complement":
        cand_pairs = complement
    else:
        if sample_size is None:
            raise ArgumentError("candidate_mode='sampled' requires sample_size")
        if not 0 <= sample_size <= len(complement):
            raise ArgumentError(
                f"sample_size={sample_size} outside 0..{len(complement)} available pairs"
            )
        idx = sorted(rng.choice(len(complement), size=sample_size, replace=False).tolist())
        cand_pairs = [complement[i] for i in idx]
    cand_weights = rng.uniform(lo, hi, size=len(cand_pairs))

    return EdgeSelectionInstance(
        n=n,
        base_edges=tuple((u, v, float(w)) for (u, v), w in zip(base_pairs, base_weights)),
        candidates=tuple((u, v, float(w)) for (u, v), w in zip(cand_pairs, cand_weights)),
        k=k,
        direction=DIRECTION_ADD,
        objective=OBJECTIVE_SINGLE,
    )


# ---------------------------------------------------------------------------
# JSON instance files


def instance_to_json_dict(inst: EdgeSelectionInstance) -> dict:
    return {
        "n": inst.n,
        "base_edges": [list(e) for e in inst.base_edges],
        "candidates": [list(e) for e in inst.candidates],
        "k": inst.k,
        "direction": inst.direction,
        "objective": inst.objective,
    }


def _json_int(x, what: str) -> int:
    if isinstance(x, bool):
        raise DataError(f"{what} must be an integer, got {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise DataError(f"{what} must be an integer, got {x!r}")


def instance_from_json_dict(doc: dict) -> EdgeSelectionInstance:
    if not isinstance(doc, dict):
        raise DataError("instance file must hold a JSON object")
    missing = {"n", "base_edges", "candidates", "k", "direction", "objective"} - set(doc)
    if missing:
        raise DataError(f"instance file is missing keys: {sorted(missing)}")

    def edge_list(entries, what: str) -> tuple[tuple, ...]:
        """JSON typing only; the instance checks the edges themselves."""
        if not isinstance(entries, list):
            raise DataError(f"{what} must be a JSON array")
        out = []
        for e in entries:
            if not isinstance(e, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in e
            ):
                raise DataError(f"{what} entries must be arrays of numbers, got {e!r}")
            out.append((*(_json_int(x, what) for x in e[:2]), *e[2:]))
        return tuple(out)

    try:
        return EdgeSelectionInstance(
            n=_json_int(doc["n"], "n"),
            base_edges=edge_list(doc["base_edges"], "base_edges"),
            candidates=edge_list(doc["candidates"], "candidates"),
            k=_json_int(doc["k"], "k"),
            direction=doc["direction"],
            objective=doc["objective"],
        )
    except ArgumentError as exc:
        raise DataError(f"invalid instance file: {exc}") from exc


def _read_json(path: str | Path, what: str):
    """Parsed JSON of a file; DataError naming ``what`` when unreadable."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_instance(path: str | Path) -> EdgeSelectionInstance:
    return instance_from_json_dict(_read_json(path, "instance file"))


def save_instance(inst: EdgeSelectionInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_json_dict(inst), indent=2) + "\n")
