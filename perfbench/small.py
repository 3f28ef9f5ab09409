"""Seeded small single-weight instances for the exhaustive oracle.

Two shapes, both small enough that exhaustive search finds OPT:

* addition: a sparse connected base graph on 12 vertices and 18
  candidate pairs outside it, of which 5 are to be added;
* removal: a complete graph on 9 vertices from which 4 of 16 candidate
  edges are to be pruned. The solvers see the equivalent addition
  instance that keeps 12 of the 16, so greedy runs with a budget close
  to the candidate count.

Instances are plain dicts in the JSON instance format the CLI reads;
``present`` relabels one without changing the problem.
"""

from __future__ import annotations

import itertools

import numpy as np

ADD_N, ADD_M_INIT, ADD_C, ADD_K = 12, 16, 18, 5
REMOVE_N, REMOVE_C, REMOVE_K = 9, 16, 4
WEIGHT_RANGE = (1.0, 4.0)


def _connected(n: int, pairs) -> bool:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, n + 1)}) == 1


def _weight(rng: np.random.Generator) -> float:
    return round(float(rng.uniform(*WEIGHT_RANGE)), 6)


def addition_instance(rng: np.random.Generator, n: int = ADD_N, m_init: int = ADD_M_INIT,
                      c: int = ADD_C, k: int = ADD_K) -> dict:
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        idx = rng.choice(len(all_pairs), size=m_init + c, replace=False)
        base = sorted(all_pairs[i] for i in idx[:m_init])
        if _connected(n, base):
            break
    cands = sorted(all_pairs[i] for i in idx[m_init:])
    return {
        "n": n,
        "base_edges": [[u, v, _weight(rng)] for u, v in base],
        "candidates": [[u, v, _weight(rng)] for u, v in cands],
        "k": k,
        "direction": "add",
        "objective": "single-weight",
    }


def removal_instance(rng: np.random.Generator) -> dict:
    all_pairs = list(itertools.combinations(range(1, REMOVE_N + 1), 2))
    weights = {p: _weight(rng) for p in all_pairs}
    while True:
        idx = set(rng.choice(len(all_pairs), size=REMOVE_C, replace=False).tolist())
        skeleton = [p for i, p in enumerate(all_pairs) if i not in idx]
        if _connected(REMOVE_N, skeleton):
            break
    cands = [all_pairs[i] for i in sorted(idx)]
    return {
        "n": REMOVE_N,
        "base_edges": [[u, v, weights[(u, v)]] for u, v in all_pairs],
        "candidates": [[u, v, weights[(u, v)]] for u, v in cands],
        "k": REMOVE_K,
        "direction": "remove",
        "objective": "single-weight",
    }


def present(doc: dict, rng: np.random.Generator) -> dict:
    """The same problem under a random vertex labelling and candidate order."""
    label = np.concatenate([[0], rng.permutation(doc["n"]) + 1])

    def move(e):
        return [int(label[e[0]]), int(label[e[1]]), *e[2:]]

    cands = [move(e) for e in doc["candidates"]]
    return {
        **doc,
        "base_edges": [move(e) for e in doc["base_edges"]],
        "candidates": [cands[i] for i in rng.permutation(len(cands))],
    }


def instance_set(seed: int, additions: int, removals: int) -> list[dict]:
    """``additions`` addition instances followed by ``removals`` removal ones."""
    rng = np.random.default_rng(seed)
    return [addition_instance(rng) for _ in range(additions)] + [
        removal_instance(rng) for _ in range(removals)
    ]
