"""Spans around the public functions of treesynth's modules.

The tracer never edits the package. It replaces names where they are
looked up: a function imported with ``from .treeconn import
batch_effective_resistance`` is rebound in every ``treesynth`` module
that holds it, a method is replaced on its class, and the dense
linear-algebra calls are replaced on ``numpy.linalg`` (or rebound, for
scipy's ``solve_triangular``, in the treesynth modules that imported
it). Each wrapped call records a span: name, parent, start and end,
plus two numbers the call's arguments imply, units (columns, matrices)
and computed floating-point operations. Spans stay in memory in flat
arrays until ``summary`` folds them into per-layer figures.

A layer is the part of a span name before the first dot: the package
modules ``slam``, ``graphs``, ``treeconn``, ``greedy``, ``convex``,
``certificates`` and ``cli``, and ``kernel`` for numpy/scipy calls.
Self time is a span's duration minus that of its direct children;
calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("slam", "graphs", "treeconn", "greedy", "convex", "certificates", "cli", "kernel")


def _square(a):
    a = np.asarray(a)
    n = a.shape[-1] if a.ndim >= 2 else 0
    return n, math.prod(a.shape[:-2])


def _chol_size(args, kwargs):
    n, batch = _square(args[0])
    return batch, batch * n**3 / 3.0


def _lu_size(args, kwargs):
    n, batch = _square(args[0])
    return batch, batch * 2.0 * n**3 / 3.0


def _trsm_size(args, kwargs):
    n = np.shape(args[0])[0]
    b = np.shape(args[1])
    cols = b[1] if len(b) == 2 else 1
    return cols, float(n) * n * cols


def _pairs_size(args, kwargs):
    pairs = args[1] if len(args) > 1 else kwargs.get("pairs", ())
    return (len(pairs) if hasattr(pairs, "__len__") else 0), 0.0


# (span name, owner module, attribute path, size function). An attribute
# path with a dot is a method on a class of that module.
PACKAGE_TARGETS = (
    ("slam.parse", "treesynth.slam", "parse_g2o", None),
    ("slam.to_instance", "treesynth.slam", "to_instance", None),
    ("slam.dopt_proxy", "treesynth.slam", "dopt_proxy", None),
    ("graphs.graph_init", "treesynth.graphs", "WeightedGraph.__post_init__", None),
    ("graphs.laplacian_init", "treesynth.graphs", "ReducedLaplacian.__post_init__", None),
    ("graphs.with_edge", "treesynth.graphs", "ReducedLaplacian.with_edge", None),
    ("graphs.build_laplacian", "treesynth.graphs", "build_reduced_laplacian", None),
    ("graphs.reduce_removal", "treesynth.graphs", "reduce_removal_to_addition", None),
    ("graphs.load_instance", "treesynth.graphs", "load_instance", None),
    ("treeconn.tree_connectivity", "treesynth.treeconn", "tree_connectivity", None),
    ("treeconn.batch_resistance", "treesynth.treeconn", "batch_effective_resistance", _pairs_size),
    ("treeconn.effective_resistance", "treesynth.treeconn", "effective_resistance", None),
    ("greedy.greedy_select", "treesynth.greedy", "greedy_select", None),
    ("greedy.greedy_to_threshold", "treesynth.greedy", "greedy_to_threshold", None),
    ("greedy.exhaustive", "treesynth.greedy", "exhaustive_select", None),
    ("greedy.gain_function", "treesynth.greedy", "gain_function", None),
    ("greedy.gain", "treesynth.greedy", "GainFunction.__call__", None),
    ("greedy.absolute", "treesynth.greedy", "GainFunction.absolute", None),
    ("convex.solve_p2", "treesynth.convex", "solve_p2", None),
    ("convex.solve_p3", "treesynth.convex", "solve_p3", None),
    ("convex.project", "treesynth.convex", "project_capped_simplex", None),
    ("convex.objective_and_gradient", "treesynth.convex", "relaxed_objective_and_gradient", None),
    ("convex.round_det", "treesynth.convex", "round_deterministic", None),
    ("convex.round_rand", "treesynth.convex", "round_randomized", None),
    ("certificates.build_bundle", "treesynth.certificates", "build_bundle", None),
    ("certificates.certify", "treesynth.certificates", "certify", None),
    ("certificates.gap_for_design", "treesynth.certificates", "gap_for_design", None),
    ("cli.main", "treesynth.cli", "main", None),
)

# numpy.linalg functions are looked up on the module at call time.
NUMPY_TARGETS = (
    ("kernel.cholesky", "cholesky", _chol_size),
    ("kernel.det", "det", _lu_size),
    ("kernel.slogdet", "slogdet", _lu_size),
)


class Tracer:
    """Installs wrappers, records spans while ``active``, undoes on ``close``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.flops = array("d")
        self._stack: list[int] = []
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for span, module, attr, size in PACKAGE_TARGETS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(span, cls.__dict__[meth], size))
            else:
                self._rebind(getattr(mod, attr), self.wrap(span, getattr(mod, attr), size))
        for span, attr, size in NUMPY_TARGETS:
            self._set(np.linalg, attr, self.wrap(span, getattr(np.linalg, attr), size))
        orig = scipy.linalg.solve_triangular
        self._rebind(orig, self.wrap("kernel.trsm", orig, _trsm_size))

    def close(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapped) -> None:
        # every treesynth module (the package namespace too) that bound
        # the original under any name now looks up the wrapper
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "treesynth" or modname.startswith("treesynth.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def wrap(self, span: str, fn, size=None):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            units, flops = size(args, kwargs) if size else (0, 0.0)
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.units.append(units)
            self.flops.append(flops)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return wrapper

    # -- results ------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name)

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy .npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            units=np.frombuffer(self.units),
            flops_computed=np.frombuffer(self.flops),
        )


class TraceSummary:
    """Per-span-name and per-layer totals folded from a tracer's spans."""

    def __init__(self, tr: Tracer) -> None:
        names = tr.names
        name = np.frombuffer(tr.name, dtype=np.int32)
        parent = np.frombuffer(tr.parent, dtype=np.int32)
        dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.units: defaultdict = defaultdict(float)
        self.flops: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        per_name = np.bincount(name, minlength=len(names))
        for nid, span in enumerate(names):
            self.calls[span] = int(per_name[nid])
        for arr, out in ((dur, self.seconds), (np.frombuffer(tr.units), self.units),
                         (np.frombuffer(tr.flops), self.flops)):
            sums = np.bincount(name, weights=arr, minlength=len(names))
            for nid, span in enumerate(names):
                out[span] = float(sums[nid])
        layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names], dtype=int)
        layer_self = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            self.layer_self[layer] = float(layer_self[i])

        # kernel work by the layer of the span that called it
        self.kernel_by_parent: defaultdict = defaultdict(lambda: [0, 0.0, 0.0])
        for sid in np.flatnonzero(layer_of[name] == LAYERS.index("kernel")):
            p = parent[sid]
            owner = names[name[p]].split(".")[0] if p >= 0 else "benchmark"
            row = self.kernel_by_parent[(names[name[sid]], owner)]
            row[0] += 1
            row[1] += float(tr.units[sid])
            row[2] += float(tr.flops[sid])

        # spans below a given ancestor, counted by name
        self._name = name
        self._parent = parent
        self._names = names
        self._dur = dur

    def _id(self, span: str) -> int:
        return self._names.index(span) if span in self._names else -1

    def under(self, ancestor: str, span: str, direct: bool = False) -> tuple[int, float]:
        """Count and total duration of ``span`` spans below ``ancestor`` spans."""
        aid, sid = self._id(ancestor), self._id(span)
        if aid < 0 or sid < 0:
            return 0, 0.0
        count, secs = 0, 0.0
        for s in np.flatnonzero(self._name == sid):
            p = self._parent[s]
            while p >= 0:
                if self._name[p] == aid:
                    count += 1
                    secs += float(self._dur[s])
                    break
                if direct:
                    break
                p = self._parent[p]
        return count, secs
