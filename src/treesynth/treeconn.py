"""Tree-connectivity of weighted graphs.

The weighted spanning-tree count of a connected graph equals the
determinant of any reduced Laplacian, so its log (tau, the quantity this
package maximizes) comes from the one tau rule (graphs.connected_tau):
straight from the weights of a spanning tree, by the determinant lemma
over the path 1-2-...-n when the graph holds that path and at most
LEMMA_MAX_EXTRA * order other edges (0.55 of the order, where the
measured costs cross), and otherwise from one dense Cholesky factor of
the reduced Laplacian. A spectral form, sum of log nonzero Laplacian
eigenvalues minus log n, serves as an independent cross-check, and a literal subset-enumeration oracle covers
small graphs in tests. Whether a graph is connected, and the oracle's
test of whether n - 1 edges form a spanning tree, are both the one
union-find of graphs._component_count.

Scoring a candidate edge {u, v} with weight w against a graph reduces to
its effective resistance Delta: appending the edge multiplies the tree
count by exactly 1 + w * Delta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dpotrf, dtrsm
from .errors import DataError, NumericalError, SizeGuardError
from .graphs import ReducedLaplacian, WeightedGraph, _component_count, connected_tau, is_connected

# The enumeration oracle walks all (n-1)-subsets of edges; refuse
# anything that is big on both axes.
ORACLE_MAX_EDGES = 12
ORACLE_MAX_VERTICES = 8
# bytes of one batch of subset work: the gathered columns of one
# SubsetLogDet call (randomized rounding) and the d and u of one frontier
# chunk of exhaustive search; larger batches bought little speed and
# raised peak memory
LEMMA_BATCH_BYTES = 1 << 17


@dataclass(frozen=True)
class TreeConnectivity:
    """Natural log of the weighted spanning-tree count.

    Disconnected graphs report tau = 0 by convention (rather than -inf),
    which keeps downstream bound arithmetic finite.
    """

    tau: float
    connected: bool


def tree_connectivity(g: WeightedGraph) -> TreeConnectivity:
    """tau by the one tau rule (graphs.connected_tau). The production path.

    A spanning tree's tau is its sum of log weights; a graph that holds
    the path 1-2-...-n and at most LEMMA_MAX_EXTRA * order other edges
    (graphs.LEMMA_MAX_EXTRA) adds the log det of the determinant lemma's
    small form over that path; every other connected graph's comes from
    one Cholesky factorization of its reduced Laplacian.
    """
    if not is_connected(g):
        return TreeConnectivity(0.0, False)
    return TreeConnectivity(connected_tau(g), True)


def tree_connectivity_spectral(g: WeightedGraph) -> TreeConnectivity:
    """tau from the full Laplacian spectrum; cross-check path.

    Requires a connected input: the zero eigenvalue is dropped and the
    remaining n-1 are logged, so near-zero algebraic connectivity has no
    meaningful value here.
    """
    if not is_connected(g):
        raise DataError("spectral tree-connectivity needs a connected graph")
    if g.n == 1:
        return TreeConnectivity(0.0, True)
    lam = np.linalg.eigvalsh(g.full_laplacian())
    if lam[1] <= 1e-12 * max(float(lam[-1]), 1.0):
        raise DataError("algebraic connectivity is zero up to rounding")
    tau = float(np.sum(np.log(lam[1:])) - math.log(g.n))
    return TreeConnectivity(tau, True)


def count_spanning_trees_bruteforce(g: WeightedGraph) -> float:
    """Weighted spanning-tree count by literal enumeration.

    Sums the weight product of every (n-1)-edge subset that forms a
    spanning tree. Exponential on purpose: this is the independent
    oracle the linear-algebra paths are tested against. Guarded to
    graphs with at most 12 edges or at most 8 vertices.
    """
    if g.num_edges > ORACLE_MAX_EDGES and g.n > ORACLE_MAX_VERTICES:
        raise SizeGuardError(
            f"enumeration oracle refused: {g.num_edges} edges and {g.n} vertices "
            f"(limits: <= {ORACLE_MAX_EDGES} edges or <= {ORACLE_MAX_VERTICES} vertices)"
        )
    if g.n == 1:
        return 1.0
    if g.num_edges < g.n - 1:
        return 0.0
    total = 0.0
    for subset in itertools.combinations(g.edges, g.n - 1):
        u, v, w = zip(*subset)
        if _component_count(g.n, u, v) == 1:  # n - 1 edges, no cycle: a spanning tree
            total += math.prod(w)
    return total


def whitened_incidence(L: ReducedLaplacian, pairs) -> np.ndarray:
    """Y = C^{-1} A for the incidence columns A of ``pairs``, C the factor of L.

    Y_i . Y_j = a_i^T L^{-1} a_j, so the squared column norms are the
    effective resistances and Y^T Y is the pairs' Gram matrix, which
    greedy selection and randomized rounding update without forming it.
    One right-side triangular solve, Y^T = A^T C^{-T}, written over the
    fresh A; order x len(pairs). Its error grows with the condition
    number of L; on a path base the kernel uses the closed form
    (graphs.path_whitened_incidence) instead.
    """
    A = L.incidence_matrix(pairs)
    return dtrsm(1.0, L.cholesky, A.T, side=1, lower=1, trans_a=1, overwrite_b=1).T


class SubsetLogDet:
    """log det L(S) of candidate subsets S, or selectors pi, by the determinant lemma.

    det L(S) = det L0 * det(I + Z_S^T Z_S), where L(S) is the base L0
    plus the candidates in S and Z = C^{-1} A diag(sqrt(w)) is the
    whitened, weighted incidence of all candidates, kept as Z^T (c x
    order). The instance builds both (EdgeSelectionInstance.kernels):
    log_det0 is the base graph's tau by the one tau rule
    (graphs.connected_tau), and Z comes in closed form on the path base
    1-2-...-n (graphs.path_whitened_incidence), exact to a few ulps per
    entry, and otherwise from one triangular solve against the base
    factor (whitened_incidence), whose error grows with L0's condition
    number. On a tree base, the path of every g2o instance among them,
    log_det0 is the sum of the base's log weights, and on the path plus
    at most LEMMA_MAX_EXTRA * order other edges it comes from the
    determinant lemma over the path, neither with a condition-number
    term; on any other base it comes from L0's dense factor. A batch shares one
    stacked slogdet on the smaller Sylvester form, s x s or
    order x order, and each subset's value does not depend on the rest
    of its batch. Memory is O(order * c) plus the batch.

    A selector pi with support S and r = sqrt(pi_S) gives log det L(pi)
    = log_det0 + log det(I + r G_SS r), G = Z^T Z the candidate Gram
    matrix, or the order x order side if smaller: O(s^3 + s^2 c) per
    evaluation, whose factor (factor(pi)) the kernel returns and never
    keeps. G is kept only when c <= order, so it is no larger than Z.
    The gradient is one right-side triangular solve, X^T = B^T R^{-T}:
    on the s x s form it is written over the gathered rows B, so the
    call holds one s x c array (order x c on the order side, where Z is
    copied and never written). X also gives the Hessian block of any
    free set F at |F|^2 s extra flops; it is dropped when the call
    returns.
    """

    def __init__(self, log_det0: float, Zt: np.ndarray):
        self.log_det0 = log_det0
        self.Zt = Zt

    def batch_rows(self, width: int) -> int:
        """Subsets of ``width`` candidates per call within LEMMA_BATCH_BYTES."""
        return max(1, LEMMA_BATCH_BYTES // (8 * max(1, width * self.Zt.shape[1])))

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        """log det L(S) for every row S of the b x s index array ``cols``.

        Randomized rounding scores its trials here; exhaustive search
        chains Cholesky pivots down its subset tree instead.
        """
        Zs = self.Zt[cols]  # b x s x order
        if cols.shape[1] <= self.Zt.shape[1]:
            gram = Zs @ Zs.transpose(0, 2, 1)
        else:
            gram = Zs.transpose(0, 2, 1) @ Zs
        gram += np.eye(gram.shape[-1])
        return self.log_det0 + np.linalg.slogdet(gram)[1]

    @cached_property
    def gram(self) -> np.ndarray | None:
        c, order = self.Zt.shape
        return self.Zt @ self.Zt.T if c <= order else None

    @cached_property
    def gram_diag(self) -> np.ndarray:
        """diag(G): the squared column norms of Z, w_i times i's base resistance."""
        return np.einsum("ij,ij->i", self.Zt, self.Zt)

    def factor(self, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, r, R) at pi: its support, sqrt(pi) on it, the lower factor of the smaller form."""
        S = np.flatnonzero(pi)
        r = np.sqrt(pi[S])
        if S.size <= self.Zt.shape[1] and self.gram is not None:
            K = self.gram[S][:, S] * r
            K *= r[:, None]
        else:
            U = self.Zt[S] * r[:, None]
            K = U @ U.T if S.size <= self.Zt.shape[1] else U.T @ U
        K.flat[:: K.shape[0] + 1] += 1.0
        R, info = dpotrf(K, lower=1, clean=0)
        if info:
            raise NumericalError("selector-weighted Laplacian lost positive definiteness")
        return S, r, R

    def log_det(self, factor: tuple) -> float:
        """log det L(pi) - log_det0 from pi's factor; power-of-2 weight scaling leaves it exact."""
        return float(2.0 * np.sum(np.log(np.diag(factor[2]))))

    def grad(self, factor: tuple, free: np.ndarray | None = None) -> tuple:
        """(w_i a_i^T L(pi)^{-1} a_i for all i, W_FF or None) from pi's factor and ``free``.

        Column-wise, the gradient is diag(G) - |R^{-1} r G_S|^2 (Woodbury)
        on the s x s form and |R^{-1} Z|^2 on the order x order one. W =
        Z^T (I + Z diag(pi) Z^T)^{-1} Z, W_ij = sqrt(w_i w_j) a_i^T L(pi)^{-1}
        a_j, is the whitened Hessian: d^2 log det L(pi) / dpi_i dpi_j =
        -W_ij^2. With the same solve X, W_FF = G_FF - X_F^T X_F on the
        s x s form and X_F^T X_F on the order side.
        """
        S, r, R = factor
        order_side = S.size > self.Zt.shape[1]
        if order_side:
            # without overwrite_b dtrsm solves on a copy: Zt is never written
            Xt = dtrsm(1.0, R, self.Zt, side=1, lower=1, trans_a=1)
            grad = np.einsum("ij,ij->i", Xt, Xt)
        else:
            # B is fresh (a gather or a product); B.T is its memory in
            # Fortran order, which the solve overwrites with X^T
            B = self.Zt[S] @ self.Zt.T if self.gram is None else self.gram[S]
            B *= r[:, None]
            Xt = dtrsm(1.0, R, B.T, side=1, lower=1, trans_a=1, overwrite_b=1)
            grad = self.gram_diag - np.einsum("ij,ij->i", Xt, Xt)
        if free is None:
            return grad, None
        XF = Xt[free]
        W = XF @ XF.T
        if not order_side:
            ZF = self.Zt[free]
            W = (ZF @ ZF.T if self.gram is None else self.gram[np.ix_(free, free)]) - W
        return grad, W


@dataclass(frozen=True)
class EffectiveResistance:
    value: float
    endpoints: tuple[int, int]


def effective_resistance(L: ReducedLaplacian, u: int, v: int) -> EffectiveResistance:
    """Effective resistance between u and v: a_uv^T L^{-1} a_uv.

    One right-side triangular solve against the cached Cholesky factor;
    the squared norm of the solution is the quadratic form.
    """
    y = whitened_incidence(L, [(u, v)])[:, 0]
    return EffectiveResistance(float(y @ y), (u, v))


def batch_effective_resistance(L: ReducedLaplacian, pairs) -> np.ndarray:
    """Effective resistances for many vertex pairs in one solve."""
    Y = whitened_incidence(L, pairs)
    return np.einsum("ij,ij->j", Y, Y)
