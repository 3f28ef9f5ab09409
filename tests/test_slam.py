import math

import pytest

from treesynth import (
    ArgumentError,
    DataError,
    dopt_proxy,
    find_dataset,
    parse_g2o,
    to_instance,
    tree_connectivity,
    WeightedGraph,
)


def test_mini_fixture_counts_and_classification(mini_g2o):
    ds = parse_g2o(mini_g2o)
    assert ds.poses == 6
    assert len(ds.odometry) == 5
    assert len(ds.loop_closures) == 3
    assert ds.report.ignored_lines == 1   # the FIX line
    assert ds.report.offdiag_flagged == 1  # edge 1-4 carries I12 = 1.5
    assert ds.report.alpha == 1.0
    assert ds.report.missing_links == ()


def test_mini_fixture_weight_extraction(mini_g2o):
    ds = parse_g2o(mini_g2o)
    # first odometry edge: I11 = I22 = 40, I33 = 60; poses shifted to 1-based
    assert ds.odometry[0] == (1, 2, 40.0, 60.0)
    # closure 1-3: I11 = I22 = 25, I33 = 39
    assert (2, 4, 25.0, 39.0) in ds.loop_closures


def test_parse_accepts_line_iterables():
    lines = [
        "EDGE_SE2 0 1 0 0 0 2.0 0 0 2.0 0 3.0",
        "EDGE_SE2 1 2 0 0 0 2.0 0 0 2.0 0 3.0",
        "EDGE_SE2 0 2 0 0 0 4.0 0 0 4.0 0 5.0",
    ]
    ds = parse_g2o(lines)
    assert ds.poses == 3
    assert len(ds.odometry) == 2
    assert len(ds.loop_closures) == 1


@pytest.mark.parametrize(
    "line, what",
    [
        ("VERTEX_SE2 0 0.0 0.0", "field count"),
        ("VERTEX_SE2 x 0.0 0.0 0.0", "numeric"),
        ("EDGE_SE2 0 1 0 0 0 1 0 0 1 0", "field count"),
        ("EDGE_SE2 0 one 0 0 0 1 0 0 1 0 1", "numeric"),
        ("EDGE_SE2 0 0 0 0 0 1 0 0 1 0 1", "self loop"),
        ("EDGE_SE2 -1 1 0 0 0 1 0 0 1 0 1", "negative id"),
        ("EDGE_SE2 0 1 0 0 0 -1 0 0 1 0 1", "nonpositive information"),
        ("EDGE_SE2 0 1 0 0 0 1 0 0 1 0 0", "nonpositive information"),
    ],
)
def test_parse_rejects_malformed_lines(line, what):
    good = "EDGE_SE2 0 1 0 0 0 2.0 0 0 2.0 0 3.0"
    with pytest.raises(DataError) as err:
        parse_g2o([good, line])
    assert ":2:" in str(err.value)  # line numbers point at the offender


def test_parse_rejects_structural_problems():
    with pytest.raises(DataError, match="no EDGE_SE2"):
        parse_g2o(["VERTEX_SE2 0 0 0 0"])
    with pytest.raises(DataError, match="not contiguous"):
        parse_g2o([
            "VERTEX_SE2 0 0 0 0",
            "VERTEX_SE2 2 0 0 0",
            "EDGE_SE2 0 2 0 0 0 1 0 0 1 0 1",
        ])
    with pytest.raises(DataError, match=">="):
        parse_g2o([
            "VERTEX_SE2 0 0 0 0",
            "VERTEX_SE2 1 0 0 0",
            "EDGE_SE2 0 7 0 0 0 1 0 0 1 0 1",
        ])
    # without VERTEX lines the edges' pose ids must be contiguous: one
    # 37-byte line may not stand for a million poses
    with pytest.raises(DataError, match="pose ids of the edges are not contiguous 0..1000000"):
        parse_g2o(["EDGE_SE2 0 1000000 0 0 0 1 0 0 1 0 1"])
    with pytest.raises(DataError, match="file not found"):
        parse_g2o("/nonexistent/file.g2o")


def test_subunit_weights_need_explicit_normalization():
    lines = [
        "EDGE_SE2 0 1 0 0 0 0.5 0 0 0.5 0 2.0",
        "EDGE_SE2 1 2 0 0 0 2.0 0 0 2.0 0 3.0",
    ]
    with pytest.raises(DataError, match="below 1"):
        parse_g2o(lines)
    ds = parse_g2o(lines, normalize=True)
    assert ds.report.alpha >= 2.0
    assert ds.report.min_raw_weight == 0.5
    weights = [w for e in ds.odometry for w in e[2:]]
    assert min(weights) >= 1.0


def test_missing_odometry_link_blocks_instance_conversion():
    lines = [
        "EDGE_SE2 0 1 0 0 0 2 0 0 2 0 3",
        "EDGE_SE2 2 3 0 0 0 2 0 0 2 0 3",  # 1-2 link absent
        "EDGE_SE2 0 3 0 0 0 2 0 0 2 0 3",
    ]
    ds = parse_g2o(lines)
    assert ds.report.missing_links == ((1, 2),)
    with pytest.raises(DataError, match="missing links: 1-2"):
        to_instance(ds, 1)


def test_base_pair_override_reclassifies_and_skips_chain_check():
    lines = [
        "EDGE_SE2 0 1 0 0 0 2 0 0 2 0 3",
        "EDGE_SE2 2 3 0 0 0 2 0 0 2 0 3",
        "EDGE_SE2 0 3 0 0 0 2 0 0 2 0 3",
        "EDGE_SE2 1 2 0 0 0 2 0 0 2 0 3",
    ]
    ds = parse_g2o(lines, base_pairs={(0, 1), (2, 3), (0, 3), (1, 2)})
    assert len(ds.odometry) == 4
    assert ds.loop_closures == ()
    assert ds.report.missing_links == ()
    inst = to_instance(ds, 0)
    assert inst.num_candidates == 0
    # override ids are pose ids: a fractional one is refused, not truncated
    with pytest.raises(ArgumentError, match="vertex ids must be integers, got 0.5"):
        parse_g2o(lines, base_pairs={(0.5, 1)})


def test_to_instance_shapes(mini_g2o):
    ds = parse_g2o(mini_g2o)
    add = to_instance(ds, 2)
    assert add.direction == "add"
    assert add.objective == "slam-double"
    assert add.n == 6
    assert len(add.base_edges) == 5
    assert add.num_candidates == 3

    rem = to_instance(ds, 1, direction="remove")
    assert rem.direction == "remove"
    assert len(rem.base_edges) == 8
    assert rem.num_candidates == 3

    with pytest.raises(ArgumentError):
        to_instance(ds, 99)
    with pytest.raises(ArgumentError):
        to_instance(ds, 1, direction="diagonal")


def test_dopt_proxy_values(mini_g2o):
    ds = parse_g2o(mini_g2o)
    edges = ds.odometry + ds.loop_closures
    gp = WeightedGraph(6, tuple((u, v, wp) for u, v, wp, _ in edges))
    gt = WeightedGraph(6, tuple((u, v, wt) for u, v, _, wt in edges))
    expected = 2.0 * tree_connectivity(gp).tau + tree_connectivity(gt).tau
    assert dopt_proxy(ds.poses, edges) == pytest.approx(expected, abs=1e-12)


def test_dopt_proxy_reports_component_count():
    edges = [(1, 2, 1.0, 1.0), (3, 4, 1.0, 1.0)]
    with pytest.raises(DataError, match="2 components"):
        dopt_proxy(4, edges)


def test_find_dataset_resolution(tmp_path, monkeypatch, mini_g2o):
    assert find_dataset(mini_g2o) == mini_g2o
    assert find_dataset("definitely_absent.g2o") is None
    target = tmp_path / "local.g2o"
    target.write_text(mini_g2o.read_text())
    monkeypatch.setenv("TREECONN_DATA_DIR", str(tmp_path))
    assert find_dataset("local.g2o") == target


def test_intel_structural_facts(intel_path):
    ds = parse_g2o(intel_path)
    assert ds.poses == 943
    assert len(ds.odometry) == 942
    assert len(ds.loop_closures) == 895
