import os
from pathlib import Path

# One BLAS/OpenMP thread, as perfbench runs: small threaded BLAS calls
# stall on machines with few cores. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from treesynth import EdgeSelectionInstance, WeightedGraph, find_dataset, random_instance  # noqa: E402

DATA = Path(__file__).parent / "data"


def random_connected_graph(rng, n, m, weight_range=(1.0, 5.0)):
    """Random connected graph helper shared across test modules."""
    seed = int(rng.integers(0, 2**31 - 1))
    inst = random_instance(
        n=n, m_init=m, weight_range=weight_range, seed=seed, candidate_mode="sampled",
        sample_size=0,
    )
    return inst.base_graph()


def random_add_instance(rng, n, m, c, k, weight_range=(1.0, 5.0)):
    seed = int(rng.integers(0, 2**31 - 1))
    return random_instance(
        n=n, m_init=m, candidate_mode="sampled", sample_size=c, k=k,
        weight_range=weight_range, seed=seed,
    )


def slam_instance(inst, rng):
    """A single-weight instance with a second, random channel weight."""
    def second(edges):
        return tuple((*e, float(rng.uniform(1.0, 5.0))) for e in edges)

    return EdgeSelectionInstance(
        inst.n, second(inst.base_edges), second(inst.candidates), inst.k, objective="slam-double"
    )


@pytest.fixture
def mini_g2o():
    return DATA / "mini.g2o"


@pytest.fixture
def intel_path():
    path = find_dataset("intel.g2o")
    if path is None:
        pytest.skip("intel.g2o not present (set TREECONN_DATA_DIR to enable)")
    return path


def direct_log_det_and_grad(inst, pi, channel=None):
    """log det L(pi) and its gradient for one channel, from the assembled matrix.

    slogdet and an explicit inverse of laplacian_of_pi: an evaluation that
    shares nothing with the relaxation's determinant-lemma kernel.
    """
    from treesynth import build_reduced_laplacian, laplacian_of_pi

    M = laplacian_of_pi(inst, pi, channel).matrix
    A = build_reduced_laplacian(inst.base_graph(channel)).incidence_matrix(inst.candidate_pairs)
    quad = np.einsum("ij,ij->j", A, np.linalg.inv(M) @ A)
    return np.linalg.slogdet(M)[1], inst.candidate_weights(channel) * quad
