"""Seeded synthetic SE(2) pose graphs, written as g2o text.

A robot takes a random walk inside a square area, turning at random and
reflecting off the walls. Consecutive poses are joined by odometry
edges. Loop closures come from proximity: any two poses at least two
steps apart and within ``radius`` of each other can be joined. Closures
spanning at most ``local_span`` steps count as local, the rest as
long-range revisits; both kinds are drawn without replacement so that
the closure count is exact.

Every information diagonal is at least 1, so ``parse_g2o`` loads the
text without ``normalize``. Off-diagonal information is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PoseGraphSpec:
    """Shape of one synthetic pose graph."""

    poses: int
    closures: int
    side_m: float          # edge length of the square area
    step_m: float          # mean odometry step
    radius_m: float        # proximity radius for closure candidates
    local_span: int        # closures spanning at most this many steps are local
    local_share: float     # fraction of closures drawn from the local pool
    odo_info: tuple[float, float]      # translational precision range, odometry
    odo_rot_info: tuple[float, float]  # rotational precision range, odometry
    lc_info: tuple[float, float]       # translational precision range, closures
    lc_rot_info: tuple[float, float]   # rotational precision range, closures


# Shaped like the Intel Research Lab log: 943 poses, 942 odometry edges
# and 895 loop closures inside a building about 30 m across.
INTEL_SHAPED = PoseGraphSpec(
    poses=943,
    closures=895,
    side_m=30.0,
    step_m=0.6,
    radius_m=1.5,
    local_span=20,
    local_share=0.4,
    odo_info=(20.0, 60.0),
    odo_rot_info=(100.0, 500.0),
    lc_info=(2.0, 30.0),
    lc_rot_info=(10.0, 200.0),
)

MID_SIZE = PoseGraphSpec(
    poses=300,
    closures=285,
    side_m=15.0,
    step_m=0.6,
    radius_m=1.5,
    local_span=20,
    local_share=0.4,
    odo_info=(20.0, 60.0),
    odo_rot_info=(100.0, 500.0),
    lc_info=(2.0, 30.0),
    lc_rot_info=(10.0, 200.0),
)


def _trajectory(spec: PoseGraphSpec, rng: np.random.Generator) -> np.ndarray:
    """(poses, 3) array of x, y, heading; a reflected random walk."""
    xy = np.empty((spec.poses, 2))
    theta = np.empty(spec.poses)
    xy[0] = rng.uniform(0.0, spec.side_m, size=2)
    theta[0] = rng.uniform(-math.pi, math.pi)
    for i in range(1, spec.poses):
        heading = theta[i - 1] + rng.normal(0.0, 0.35)
        step = spec.step_m * rng.uniform(0.5, 1.5)
        p = xy[i - 1] + step * np.array([math.cos(heading), math.sin(heading)])
        for axis in range(2):  # a step is shorter than the side: one bounce at most
            if p[axis] < 0.0:
                p[axis] = -p[axis]
            elif p[axis] > spec.side_m:
                p[axis] = 2.0 * spec.side_m - p[axis]
            else:
                continue
            heading = math.pi - heading if axis == 0 else -heading
        xy[i] = p
        theta[i] = math.atan2(math.sin(heading), math.cos(heading))
    return np.column_stack([xy, theta])


def _closure_pairs(spec: PoseGraphSpec, pose: np.ndarray, rng: np.random.Generator):
    i, j = np.triu_indices(spec.poses, k=2)
    near = np.hypot(pose[i, 0] - pose[j, 0], pose[i, 1] - pose[j, 1]) <= spec.radius_m
    i, j = i[near], j[near]
    local = (j - i) <= spec.local_span
    local_pool = np.flatnonzero(local)
    long_pool = np.flatnonzero(~local)
    if local_pool.size + long_pool.size < spec.closures:
        raise ValueError(
            f"only {local_pool.size + long_pool.size} proximity pairs for "
            f"{spec.closures} closures"
        )
    n_local = min(local_pool.size, round(spec.closures * spec.local_share))
    n_long = min(long_pool.size, spec.closures - n_local)
    n_local = spec.closures - n_long
    picked = np.concatenate([
        rng.choice(local_pool, size=n_local, replace=False),
        rng.choice(long_pool, size=n_long, replace=False),
    ])
    picked.sort()
    return i[picked], j[picked]


def _relative(pose: np.ndarray, a: int, b: int) -> tuple[float, float, float]:
    xa, ya, ta = pose[a]
    xb, yb, tb = pose[b]
    c, s = math.cos(ta), math.sin(ta)
    dx, dy = xb - xa, yb - ya
    dt = math.atan2(math.sin(tb - ta), math.cos(tb - ta))
    return c * dx + s * dy, -s * dx + c * dy, dt


def generate_g2o(spec: PoseGraphSpec, seed: int, shuffle_seed: int | None = None) -> str:
    """g2o text of one pose graph; the same arguments give the same text.

    ``seed`` fixes the graph. ``shuffle_seed``, when given, permutes the
    order of the loop-closure lines, and with it the candidate order of
    the instance, without changing the graph.
    """
    rng = np.random.default_rng(seed)
    pose = _trajectory(spec, rng)
    ci, cj = _closure_pairs(spec, pose, rng)
    info = rng.uniform(size=(spec.poses - 1 + spec.closures, 2))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(spec.closures)
        ci, cj = ci[order], cj[order]
        info[spec.poses - 1:] = info[spec.poses - 1:][order]
    lines = [f"VERTEX_SE2 {v} {x:.6f} {y:.6f} {t:.6f}" for v, (x, y, t) in enumerate(pose)]
    edges = [(a, a + 1, spec.odo_info, spec.odo_rot_info) for a in range(spec.poses - 1)]
    edges += [(int(a), int(b), spec.lc_info, spec.lc_rot_info) for a, b in zip(ci, cj)]
    for (a, b, (lo, hi), (rlo, rhi)), (up, ut) in zip(edges, info):
        dx, dy, dt = _relative(pose, a, b)
        ip = lo + (hi - lo) * up
        it = rlo + (rhi - rlo) * ut
        lines.append(
            f"EDGE_SE2 {a} {b} {dx:.6f} {dy:.6f} {dt:.6f} "
            f"{ip:.6f} 0 0 {ip:.6f} 0 {it:.6f}"
        )
    return "\n".join(lines) + "\n"
