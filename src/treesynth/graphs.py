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

# Each objective's weight channels with their multipliers: slam-double scores
# twice the translational tree-connectivity plus the rotational one.
CHANNELS = {OBJECTIVE_SINGLE: ((None, 1.0),), OBJECTIVE_SLAM: (("p", 2.0), ("theta", 1.0))}
# A reduced Laplacian's squared Cholesky pivots at or below this fraction of
# its largest diagonal entry are refused (_cholesky), not made a garbage factor.
PIVOT_RTOL = 1e-12
# The largest n whose pair keys u * (n + 1) + v fit in int64 (_merge_columns).
MAX_VERTICES = 3_037_000_498
# connected_tau scores a graph that holds the path 1-2-...-n by the
# determinant lemma while its other edges number at most this share of the
# order, and by the dense factor beyond. With one BLAS thread and glibc's
# malloc thresholds pinned, the lemma stops being faster between shares
# 0.55 and 0.60 at order 299 and between 0.65 and 0.70 at order 942, and
# takes 2.2-2.4 times the dense factor's on a full g2o graph (share 0.95):
# scripts/tau_crossover.py, BENCH_tau_crossover.json. The cut is the
# smaller crossing, so below it neither order takes the slower route.
LEMMA_MAX_EXTRA = 0.55
# random_instance draws at most this many base graphs before giving up
RANDOM_BASE_TRIES = 10000
_UNRESOLVED = (
    "the graph is disconnected up to rounding, or its weights spread more "
    "widely than float64 resolves"
)


def _cholesky(A: np.ndarray, floor: float) -> np.ndarray:
    """The lower Cholesky factor of A, Fortran-ordered and zero above: the one factorization.

    Its one refusal rule: NumericalError naming both causes (_UNRESOLVED)
    when dpotrf fails, a pivot is not finite, or a squared pivot is at or
    below ``floor``. A reduced Laplacian's floor is PIVOT_RTOL times its
    largest diagonal entry. A determinant-lemma form I + Z_S^T Z_S has all
    eigenvalues at least 1, so with Cholesky's backward error (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3) its floor is 0.
    """
    R, info = dpotrf(A, lower=1, clean=1)
    # pivots are >= 0 and a NaN propagates to the min; Python floats square without warnings
    low, high = float(R.diagonal().min(initial=math.inf)), float(R.diagonal().max(initial=0.0))
    if info or not (low * low > floor and high < math.inf):
        raise NumericalError(
            f"Cholesky factorization refused, the matrix is not positive definite: {_UNRESOLVED}"
        )
    return R


def _canonical_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _as_vertex(x, what: str | None = None) -> int:
    """x as a Python int, the one integer check of counts and vertex ids.

    ArgumentError names ``what``, a count such as "k" or "max_iters";
    without it the value is a vertex id.
    """
    try:
        return int(operator.index(x))
    except TypeError:
        if what is None:
            raise ArgumentError(f"vertex ids must be integers, got {x!r}") from None
        raise ArgumentError(f"{what} must be an integer, got {x!r}") from None


def _as_seed(seed) -> int:
    """A random seed, checked: an integer >= 0, as numpy's generators take it."""
    seed = _as_vertex(seed, "seed")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    return seed


def _component_count(n: int, u: Iterable[int], v: Iterable[int]) -> int:
    """Connected components of the graph on 1..n with edges (u[i], v[i]).

    The one connectivity check: a union-find whose parent map holds only
    the edges' ends, so a vertex that no edge touches costs nothing and
    memory is bounded by the edges, not by n. Each union joins two
    components, so the count is n minus the unions.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while (p := parent.get(x, x)) != x:
            parent[x] = p = parent.get(p, p)  # path halving
            x = p
        return x

    unions = 0
    for a, b in zip(u, v):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            unions += 1
    return n - unions


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


def _merge_columns(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> tuple:
    """An edge set's merged columns: lo < hi in 1..n, one row per pair, sorted by pair.

    The canonical form, the one the tau rule reads. u and v come in either
    orientation; w holds one weight column, (m,), or one per channel,
    (m, j). One stable sort on the pair key lo * (n + 1) + hi finds each
    pair's first edge, and bincount sums each pair's weights from 0.0 in
    input order, so a pair's first weights keep their bits and later
    copies add on in the order they came, as a dict merge would.
    """
    lo = np.minimum(u, v).astype(np.int64, copy=False)
    hi = np.maximum(u, v).astype(np.int64, copy=False)
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
    lo, hi, sums = _merge_columns(u, v, np.stack(ws, axis=1).astype(float), int(np.maximum(u, v).max()))
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
        n = _as_vertex(self.n, "n")
        if not 1 <= n <= MAX_VERTICES:
            raise ArgumentError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        object.__setattr__(self, "n", n)

        u, v, w = _check_edges(self.edges, n)
        u, v, w = _merge_columns(u, v, w[:, 0], n)
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
    def connected(self) -> bool:
        return self.component_count == 1

    @cached_property
    def component_count(self) -> int:
        u, v, _ = self._columns
        return _component_count(self.n, u.tolist(), v.tolist())

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
        return _laplacian(*self._columns, self.n)


def _laplacian(u: np.ndarray, v: np.ndarray, w: np.ndarray, order: int) -> np.ndarray:
    """The leading order x order block of a Laplacian, from merged columns.

    The one assembly. The diagonal is one bincount over the interleaved
    ends u0, v0, u1, v1, ...: each vertex adds its edges' weights from
    0.0 in edge order, the order of a per-edge loop, so the bits are that
    loop's. Each off-diagonal pair occurs once, so it is set to -w.
    """
    L = np.zeros((order, order))
    ends = np.stack((u, v), axis=1).ravel()
    L.flat[:: order + 1] = np.bincount(ends, weights=np.repeat(w, 2), minlength=order + 1)[1 : order + 1]
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
    lower Cholesky factor is computed on first use and cached; _cholesky
    refuses it at the floor PIVOT_RTOL times the largest diagonal entry,
    which a 1e15 edge in series with a 1 edge falls below.
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = _as_vertex(self.n, "n")
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
    def _of_columns(cls, n: int, u, v, w) -> ReducedLaplacian:
        """The reduced Laplacian of merged columns on 1..n (_merge_columns), by _laplacian.

        The package's own constructor: its matrix is symmetric by
        construction and owned by no one else, so it skips __post_init__,
        whose copy and symmetry check are about half of a small build.
        """
        lap = object.__new__(cls)
        matrix = _laplacian(u, v, w, n - 1)
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
        factor = _cholesky(self.matrix, PIVOT_RTOL * float(np.max(np.diag(self.matrix))))
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

    def with_edge(self, u: int, v: int, w: float) -> ReducedLaplacian:
        """Commit edge {u, v} with weight w: the matrix gains w a a^T.

        The factor of the result is computed afresh on first use.
        """
        w = float(w)
        if not math.isfinite(w) or w <= 0:
            raise ArgumentError(f"edge weight must be positive and finite, got {w!r}")
        a = self.incidence_matrix([(u, v)])[:, 0]
        return ReducedLaplacian(self.n, self.matrix + w * np.outer(a, a))


def build_reduced_laplacian(g: WeightedGraph) -> ReducedLaplacian:
    """The reduced Laplacian of g, dropping vertex n, from its merged columns."""
    if g.n < 2:
        raise ArgumentError("reduced Laplacian needs at least 2 vertices")
    return ReducedLaplacian._of_columns(g.n, *g._columns)


def path_whitened_incidence(path_weights: np.ndarray, pairs, weights) -> np.ndarray:
    """Z^T = (C^{-1} A diag(sqrt(w)))^T in closed form when the base is the path 1-2-...-n.

    ``path_weights[j]`` is the weight p_j of the base edge {j + 1, j + 2},
    the graph's merged edges in order. The path's reduced Laplacian is
    B P B^T, B its bidiagonal incidence (1 on the diagonal, -1 below), so
    its Cholesky factor is C = B P^{1/2} and B^{-1} is the lower triangle
    of ones: C^{-1} a_uv is +-1 / sqrt(p_j) on the path edges j between u
    and v, + when u < v. Row i of Z^T is d_i / sqrt(p_j), d_i = sign_i
    sqrt(w_i), on its span of columns j in [min(u, v) - 1, max(u, v) - 1)
    (column n - 1, the anchor's, is dropped) and zero elsewhere; only the
    spans are written, one division per nonzero. No solve, so each entry
    is exact to a few ulps whatever the base's condition number; c x
    order, C-ordered.
    """
    order = len(path_weights)
    uv = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    lo, hi = uv.min(axis=1) - 1, uv.max(axis=1) - 1
    d = np.where(uv[:, 0] < uv[:, 1], 1.0, -1.0) * np.sqrt(weights)
    # the (row, column) of every span entry, row by row
    lens = hi - lo
    rows = np.repeat(np.arange(len(uv)), lens)
    cols = np.arange(len(rows)) + np.repeat(lo + lens - np.cumsum(lens), lens)
    Zt = np.zeros((len(uv), order))
    Zt[rows, cols] = d[rows] / np.sqrt(path_weights)[cols]
    return Zt


def path_lemma_tau(path_weights: np.ndarray, pairs, weights) -> float:
    """tau of the path 1-2-...-n plus the edges X by the determinant lemma.

    ``path_weights[j]`` is the weight of the path edge {j + 1, j + 2};
    ``pairs`` and ``weights`` are the edges X, none of them a path pair.
    tau = sum log p + log det(I + Z_X^T Z_X), Z_X the path's closed-form
    whitening of X (path_whitened_incidence), from one Cholesky factor of
    the |X| x |X| form, refused as _cholesky refuses every lemma form.
    """
    Zt = path_whitened_incidence(path_weights, pairs, weights)
    with np.errstate(over="ignore"):  # refused by the factor
        K = Zt @ Zt.T
    K.flat[:: K.shape[0] + 1] += 1.0
    R = _cholesky(K, 0.0)
    return float(np.sum(np.log(path_weights))) + 2.0 * float(np.sum(np.log(np.diag(R))))


def connected_tau(n: int, u, v, w, lap: ReducedLaplacian | None = None) -> float:
    """tau, the log weighted spanning-tree count, of a connected graph on 1..n.

    The one tau rule, on one channel of merged columns (_merge_columns):

    * a graph with n - 1 merged edges is its own only spanning tree, so
      tau is the sum of its log weights, exact to the rounding of the
      logs and the sum, with nothing assembled or factored;
    * a graph whose merged edges contain the path {a, a + 1}, a =
      1..n-1, and at most LEMMA_MAX_EXTRA * order other edges (order =
      n - 1) takes the determinant lemma over that path (path_lemma_tau);
    * every other graph takes the log det of its reduced Laplacian's
      dense factor, ``lap`` when the caller has assembled it, whose error
      grows with the matrix's condition number.

    The first two carry no condition-number term: the lemma's Z is exact
    to a few ulps per entry (path_whitened_incidence) and its form's
    eigenvalues are all at least 1. Both factors are refused by the one
    rule of _cholesky. The lemma costs about |X|^2 order flops and the
    dense factor about order^3 / 3, so past some share of extra edges the
    dense factor is faster; LEMMA_MAX_EXTRA is the measured share (see
    its comment), so the designs of the paper's budgets, well under half
    the poses, take the lemma and full g2o graphs, with about as many
    closures as poses, the dense factor. The graph must be connected;
    the caller checks.
    """
    order = n - 1
    if len(w) == order:
        return float(np.sum(np.log(w)))
    on_path = v - u == 1
    if len(w) - order <= LEMMA_MAX_EXTRA * order and np.count_nonzero(on_path) == order:
        off = ~on_path
        return path_lemma_tau(w[on_path], np.stack((u[off], v[off]), axis=1), w[off])
    return (ReducedLaplacian._of_columns(n, u, v, w) if lap is None else lap).log_det()


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

    Construction is the one edge check, merge and connectivity check:
    base edges and candidates go through _check_edges, with one weight
    column per channel, and come out as (int, int, float, ...) tuples in
    their given orientation. The channels share one topology, so the base
    is merged once for all of them (_merge_columns), and those merged
    columns, kept with the candidates' checked ones for design_taus, must
    be connected (_component_count).
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
        n = _as_vertex(self.n, "n")
        if n < 2:
            raise ArgumentError(f"instances need at least 2 vertices, got n={n}")

        def checked(edges, what: str) -> tuple[tuple, tuple[np.ndarray, ...]]:
            u, v, w = cols = _check_edges(edges, n, len(self.channels), what)
            return tuple(zip(u.tolist(), v.tolist(), *w.T.tolist())), cols

        base, base_cols = checked(self.base_edges, "base edge")
        cands, cand_cols = checked(self.candidates, "candidate")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "base_edges", base)
        object.__setattr__(self, "candidates", cands)

        k = _as_vertex(self.k, "k")
        if not 0 <= k <= len(cands):
            raise ArgumentError(f"budget k={k} outside 0..{len(cands)}")
        object.__setattr__(self, "k", k)

        merged_cols = _merge_columns(*base_cols, n)
        for a in (*merged_cols, *cand_cols):
            a.setflags(write=False)
        object.__setattr__(self, "_base_columns", merged_cols)
        object.__setattr__(self, "_candidate_columns", cand_cols)
        u, v, w = merged_cols
        components = _component_count(n, u.tolist(), v.tolist())
        if components != 1:
            raise DataError(f"base graph is disconnected ({components} components)")

        if self.direction == DIRECTION_REMOVE:
            merged = dict(zip(zip(u.tolist(), v.tolist()), w.tolist()))
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
        """Weight channels with their objective multipliers (CHANNELS)."""
        return CHANNELS[self.objective]

    def _channel_index(self, channel: str | None) -> int:
        """Position of ``channel`` in ``channels``: the one channel check.

        A channel's weight is entry 2 + index of an instance edge and
        column index of the instance's weight columns.
        """
        for i, (ch, _) in enumerate(self.channels):
            if ch == channel:
                return i
        if self.objective == OBJECTIVE_SINGLE:
            raise ArgumentError("single-weight instances have no named channels")
        raise ArgumentError(
            f"slam-double instances require a channel, 'p' or 'theta', got {channel!r}"
        )

    def base_graph(self, channel: str | None = None) -> WeightedGraph:
        u, v, w = self._base_columns
        ws = w[:, self._channel_index(channel)].tolist()
        return WeightedGraph(self.n, tuple(zip(u.tolist(), v.tolist(), ws)))

    @cached_property
    def candidate_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e[0], e[1]) for e in self.candidates)

    @cached_property
    def kernels(self) -> tuple:
        """(multiplier, treeconn.SubsetLogDet over all candidates) per channel.

        The one candidate kernel that greedy, the relaxation, both roundings
        and exhaustive search read, so it is also their one guard: removal
        instances raise ArgumentError here, to be reduced first
        (reduce_removal_to_addition). Each is built on first use from its
        channel of the merged base columns and held for the instance's
        lifetime; how it builds itself, what it refuses and what it keeps,
        SubsetLogDet states.
        """
        from .treeconn import SubsetLogDet

        if self.direction != DIRECTION_ADD:
            raise ArgumentError(
                "the solvers expect an addition instance; reduce removal "
                "instances first (reduce_removal_to_addition)"
            )
        u, v, w = self._base_columns
        pairs = self.candidate_pairs
        return tuple((mult, SubsetLogDet(self.n, (u, v, w[:, i]), pairs, self.candidate_weights(ch)))
                     for i, (ch, mult) in enumerate(self.channels))

    def with_budget(self, k: int) -> EdgeSelectionInstance:
        """The instance with budget k; an addition instance shares its kernels.

        They do not depend on k, so a budget sweep builds them once, here if new.
        """
        inst = replace(self, k=k)
        if self.direction == DIRECTION_ADD:
            inst.__dict__["kernels"] = self.kernels
        return inst

    def candidate_weights(self, channel: str | None = None) -> np.ndarray:
        w = np.ascontiguousarray(self._candidate_columns[2][:, self._channel_index(channel)])
        w.setflags(write=False)
        return w

    def candidate_edges(self, indices: Iterable[int], channel: str | None = None) -> list[tuple[int, int, float]]:
        """Materialize (u, v, w) triples for a selection, per channel."""
        col = 2 + self._channel_index(channel)
        return [(e[0], e[1], e[col]) for e in map(self.candidates.__getitem__, indices)]

    def design_taus(self, indices: Iterable[int] = ()) -> tuple[float, ...]:
        """Each channel's tau, by the tau rule, of the base plus the candidates ``indices``.

        The design's candidate columns go after the merged base columns, in
        the order given, and all channels are merged at once, so each pair's
        weights add as in base_graph(ch).with_edges(candidate_edges(indices,
        ch)). A removal instance's candidates are base edges already: it
        scores its base only (a removal design is scored on its reduction).
        """
        idx = _design_indices(self, indices)
        if idx and self.direction != DIRECTION_ADD:
            raise ArgumentError("a removal instance scores its base only; reduce it first")
        cols = (np.concatenate((b, c[idx])) for b, c in zip(self._base_columns, self._candidate_columns))
        u, v, w = _merge_columns(*cols, self.n)
        return tuple(connected_tau(self.n, u, v, w[:, i]) for i in range(len(self.channels)))

    def describe(self) -> dict:
        return {
            "n": self.n,
            "m_init": len(self._base_columns[0]),
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
    is the skeleton's one connectivity check; a disconnected skeleton
    raises InfeasibleError naming its number of components.
    """
    if inst.direction != DIRECTION_REMOVE:
        raise ArgumentError("only removal instances can be reduced")
    cand_pairs = {_canonical_pair(e[0], e[1]) for e in inst.candidates}
    u, v, w = inst._base_columns
    skeleton = tuple(e for e in zip(u.tolist(), v.tolist(), *w.T.tolist()) if e[:2] not in cand_pairs)
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
    idx = [_as_vertex(i, "candidate index") for i in design]
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
    n, m_init = _as_vertex(n, "n"), _as_vertex(m_init, "m_init")
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

    rng = np.random.default_rng(_as_seed(seed))
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
        sample_size = _as_vertex(sample_size, "sample_size")
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
