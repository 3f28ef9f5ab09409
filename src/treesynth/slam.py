"""Planar pose-graph ingestion (g2o text format).

EDGE_SE2 lines carry a relative pose and the upper triangle of a 3x3
information matrix [I11 I12 I13; . I22 I23; . . I33]. Only the diagonal
feeds the scalar weights used here: the translational precision is the
mean of I11 and I22, the rotational precision is I33. Discarded
off-diagonal mass is counted in the load report when it is not
negligible. Edges between consecutive poses are odometry, everything
else a loop-closure candidate; a --base-edges style override can
replace that convention.

The D-optimality proxy of a dual-weighted graph, twice the
translational tree-connectivity plus the rotational one, is the
objective every selection in this package maximizes on SLAM data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import ArgumentError, DataError
from .graphs import (
    CHANNELS,
    DIRECTION_ADD,
    DIRECTION_REMOVE,
    OBJECTIVE_SLAM,
    EdgeSelectionInstance,
    _as_vertex,
    _canonical_pair,
    _merge_parallel,
)

VERTEX_TAG = "VERTEX_SE2"
EDGE_TAG = "EDGE_SE2"
# an edge's discarded off-diagonal mass is flagged above this fraction
# of its diagonal norm
OFFDIAG_FLAG_RATIO = 0.01

DATA_DIR_ENV = "TREECONN_DATA_DIR"


@dataclass(frozen=True)
class LoadReport:
    """What parsing did to the file: counts, rescaling, chain gaps."""

    source: str
    ignored_lines: int
    offdiag_flagged: int
    alpha: float
    min_raw_weight: float
    missing_links: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PoseGraphDataset:
    """Parsed pose graph: dual-weighted edges split into odometry and
    loop closures, vertices relabeled 1..n."""

    poses: int
    odometry: tuple[tuple[int, int, float, float], ...]
    loop_closures: tuple[tuple[int, int, float, float], ...]
    report: LoadReport


def parse_g2o(
    source,
    *,
    normalize: bool = False,
    base_pairs: set[tuple[int, int]] | None = None,
) -> PoseGraphDataset:
    """Parse a g2o file (path or iterable of lines) into a dataset.

    Parameters
    ----------
    source : str | Path | iterable of str
        Path to a g2o file, or the lines themselves (say, an open file).
    normalize : bool
        Rescale both weight channels by the smallest global factor that
        lifts every weight to 1. Without it, weights below 1 fail the
        load: silently rescaling would change absolute tau values.
    base_pairs : set of (i, j), optional
        0-based pose-id pairs that should count as base (odometry)
        edges, replacing the consecutive-id convention. Needed for
        datasets whose odometry is not id-consecutive.

    Raises DataError on malformed lines and on weights that overflow
    float64, raw or normalized (both with a line number), on information
    diagonals that are not positive and finite, and on pose
    ids that are not contiguous 0..n-1: the VERTEX ids, or without VERTEX
    lines the ids the edges reference.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise DataError(f"pose graph file not found: {path}")
        lines: Iterable[str] = path.read_text().splitlines()
        name = str(path)
    else:
        lines = source
        name = getattr(source, "name", "<stream>")

    override = None
    if base_pairs is not None:
        override = {_canonical_pair(_as_vertex(i), _as_vertex(j)) for i, j in base_pairs}

    vertex_ids: set[int] = set()
    raw_edges: list[tuple[int, int, int, float, float]] = []  # lineno, i, j, wp, wt
    ignored = 0
    flagged = 0

    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == VERTEX_TAG:
            if len(tokens) != 5:
                raise DataError(f"{name}:{lineno}: {VERTEX_TAG} needs 5 fields, got {len(tokens)}")
            try:
                vid = int(tokens[1])
                for t in tokens[2:]:
                    float(t)
            except ValueError:
                raise DataError(f"{name}:{lineno}: malformed numeric field") from None
            if vid < 0:
                raise DataError(f"{name}:{lineno}: negative vertex id {vid}")
            vertex_ids.add(vid)
        elif tag == EDGE_TAG:
            if len(tokens) != 12:
                raise DataError(f"{name}:{lineno}: {EDGE_TAG} needs 12 fields, got {len(tokens)}")
            try:
                i, j = int(tokens[1]), int(tokens[2])
                nums = [float(t) for t in tokens[3:]]
            except ValueError:
                raise DataError(f"{name}:{lineno}: malformed numeric field") from None
            if i < 0 or j < 0:
                raise DataError(f"{name}:{lineno}: negative pose id")
            if i == j:
                raise DataError(f"{name}:{lineno}: self-loop edge on pose {i}")
            i11, i12, i13, i22, i23, i33 = nums[3:]
            if not all(0.0 < x < math.inf for x in (i11, i22, i33)):  # refuses nan too
                raise DataError(
                    f"{name}:{lineno}: information diagonal must be positive and finite "
                    f"(I11={i11}, I22={i22}, I33={i33})"
                )
            offdiag = math.sqrt(2.0 * (i12 * i12 + i13 * i13 + i23 * i23))
            diag = math.sqrt(i11 * i11 + i22 * i22 + i33 * i33)
            if offdiag > OFFDIAG_FLAG_RATIO * diag:
                flagged += 1
            raw_edges.append((lineno, i, j, 0.5 * (i11 + i22), i33))
        else:
            ignored += 1

    if not raw_edges:
        raise DataError(f"{name}: no {EDGE_TAG} lines found")

    # the poses are the VERTEX ids, or else the ids the edges reference;
    # either way they must be 0..n-1, so n is bounded by the file's lines
    ids = vertex_ids or {x for _, i, j, _, _ in raw_edges for x in (i, j)}
    n = max(ids) + 1
    if len(ids) != n:
        what = "vertex ids" if vertex_ids else "pose ids of the edges"
        raise DataError(f"{name}: {what} are not contiguous 0..{n - 1}")
    for lineno, i, j, _, _ in raw_edges:
        if i >= n or j >= n:
            raise DataError(f"{name}:{lineno}: edge references pose {max(i, j)} >= {n}")

    min_raw = min(min(wp, wt) for _, _, _, wp, wt in raw_edges)
    alpha = 1.0
    if min_raw < 1.0:
        if not normalize:
            raise DataError(
                f"{name}: extracted weights fall below 1 (minimum {min_raw}); "
                "pass normalize to rescale both channels globally"
            )
        alpha = 1.0 / min_raw
        while min_raw * alpha < 1.0:
            alpha = math.nextafter(alpha, math.inf)

    odometry = []
    closures = []
    for lineno, i, j, wp, wt in raw_edges:
        is_base = (
            _canonical_pair(i, j) in override if override is not None else abs(i - j) == 1
        )
        edge = (i + 1, j + 1, wp * alpha, wt * alpha)
        if math.inf in edge:
            raise DataError(f"{name}:{lineno}: weight overflows float64 (0.5 * (I11 + I22) = "
                            f"{wp}, I33 = {wt}, normalization alpha = {alpha})")
        (odometry if is_base else closures).append(edge)

    if override is None:
        # reported in the file's own 0-based pose ids so the gap is greppable
        present = {_canonical_pair(u, v) for u, v, _, _ in odometry}
        missing = tuple(
            (i - 1, i) for i in range(1, n) if _canonical_pair(i, i + 1) not in present
        )
    else:
        missing = ()

    report = LoadReport(
        source=name,
        ignored_lines=ignored,
        offdiag_flagged=flagged,
        alpha=alpha,
        min_raw_weight=min_raw,
        missing_links=missing,
    )
    return PoseGraphDataset(
        poses=n,
        odometry=tuple(odometry),
        loop_closures=tuple(closures),
        report=report,
    )


def to_instance(
    ds: PoseGraphDataset, k: int, direction: str = DIRECTION_ADD
) -> EdgeSelectionInstance:
    """Edge-selection instance from a dataset.

    "add": base is the odometry graph, candidates the loop closures.
    "remove": base is the whole graph, candidates the (merged) closure
    edges to consider pruning. The instance checks k.
    """
    if ds.report.missing_links:
        shown = ", ".join(f"{a}-{b}" for a, b in ds.report.missing_links[:8])
        more = "" if len(ds.report.missing_links) <= 8 else ", ..."
        raise DataError(
            f"odometry chain is disconnected, missing links: {shown}{more} "
            "(use a base-edge override if this dataset does not follow the "
            "consecutive-id convention)"
        )
    if direction == DIRECTION_ADD:
        base = ds.odometry
        cands: tuple = ds.loop_closures
    elif direction == DIRECTION_REMOVE:
        base = ds.odometry + ds.loop_closures
        cands = _merge_parallel(ds.loop_closures)
    else:
        raise ArgumentError(f"direction must be add or remove, got {direction!r}")
    return EdgeSelectionInstance(
        n=ds.poses,
        base_edges=base,
        candidates=cands,
        k=k,
        direction=direction,
        objective=OBJECTIVE_SLAM,
    )


def channel_taus(n: int, edges: Iterable[tuple]) -> tuple[float, float]:
    """(tau_p, tau_theta): tree-connectivity of each weight channel.

    Over (u, v, wp, wt) edges on vertices 1..n, the base of a
    slam-double instance without candidates, merged once for both
    channels (EdgeSelectionInstance.design_taus). DataError when the
    graph is disconnected (the proxy would be meaningless).
    """
    return EdgeSelectionInstance(n, tuple(edges), (), 0, objective=OBJECTIVE_SLAM).design_taus()


def dopt_proxy(n: int, edges: Iterable[tuple]) -> float:
    """D-optimality proxy of a dual-weighted graph: its channel taus weighted
    as the slam-double objective weights them (graphs.CHANNELS)."""
    return sum(mult * tau for (_, mult), tau in zip(CHANNELS[OBJECTIVE_SLAM], channel_taus(n, edges)))


def find_dataset(name: str | Path) -> Path | None:
    """Resolve a dataset path directly or under $TREECONN_DATA_DIR."""
    p = Path(name)
    if p.exists():
        return p
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        q = Path(env) / p
        if q.exists():
            return q
    return None
