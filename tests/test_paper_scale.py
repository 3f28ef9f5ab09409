"""certify at the paper's scale, with library defaults.

The Intel Research Lab log (943 poses, 895 loop closures, k=161) cannot
be downloaded, so these tests run on the benchmark's Intel-shaped
synthetic pose graphs, generated in memory by perfbench/posegraph.py.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from treesynth import certify, gain_function, graphs, parse_g2o, to_instance, tree_connectivity_spectral

POSEGRAPH = Path(__file__).resolve().parents[1] / "perfbench" / "posegraph.py"
K = 161


def _load_posegraph():
    spec = importlib.util.spec_from_file_location("_perfbench_posegraph", POSEGRAPH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _spectral_objective(inst, selected):
    """The design's 2:1 channel objective from each full Laplacian's spectrum."""
    return sum(
        mult * tree_connectivity_spectral(
            inst.base_graph(channel).with_edges(inst.candidate_edges(selected, channel))).tau
        for channel, mult in inst.channels
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_certify_at_intel_shape_with_library_defaults(seed, monkeypatch):
    posegraph = _load_posegraph()
    text = posegraph.generate_g2o(posegraph.INTEL_SHAPED, seed)
    inst = to_instance(parse_g2o(text.splitlines()), K)
    assert (inst.n, inst.num_candidates) == (943, 895)

    # the odometry path is a tree: each kernel's log_det0 is its sum of log
    # weights, with nothing assembled or factored
    for (channel, _), (_, kernel) in zip(inst.channels, inst.kernels):
        weights = [w for _, _, w in inst.base_graph(channel).edges]
        assert kernel.log_det0 == float(np.sum(np.log(weights)))

    # every design certify scores holds the path and k <= LEMMA_MAX_EXTRA *
    # order other edges, so the tau rule's determinant lemma scores it: no
    # Laplacian is assembled, through the one assembly, once the kernels are built
    assembled = []
    assemble = graphs._laplacian
    monkeypatch.setattr(graphs, "_laplacian", lambda *cols: assembled.append(cols) or assemble(*cols))
    bundle = certify(inst)  # a ConvergenceError fails the test
    assert assembled == []
    # the guard sees the dense case: a design past the cut is assembled once per channel
    assert 600 > graphs.LEMMA_MAX_EXTRA * (inst.n - 1)
    gain_function(inst).absolute(range(600))
    assert len(assembled) == len(inst.channels)
    assembled.clear()
    assert bundle.relaxed.stop_reason in ("residual", "gap")
    assert bundle.lower <= bundle.upper
    for design in (bundle.greedy, bundle.rounded):
        assert len(design.selected) == K
        spectral = _spectral_objective(inst, design.selected)
        assert design.tau_achieved == pytest.approx(spectral, rel=1e-10, abs=0.0)
