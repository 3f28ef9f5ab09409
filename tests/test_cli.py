import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treesynth import (
    ArgumentError,
    ConvergenceError,
    EdgeSelectionInstance,
    WeightedGraph,
    certify,
    cli,
    gap_for_design,
    load_instance,
    reduce_removal_to_addition,
    save_instance,
    solve_p2,
    tree_connectivity,
)
from treesynth.cli import main
from treesynth.convex import DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE

from conftest import random_add_instance, slam_instance


def run(*argv):
    return main(list(argv))


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    assert run(
        "gen", "--n", "8", "--m-init", "10", "--mode", "sampled", "--c", "8",
        "--k", "3", "--weight-range", "1", "4", "--seed", "5",
        "--output", str(path),
    ) == 0
    return path


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "treesynth" in capsys.readouterr().out


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen", "--n", "6", "--m-init", "7", "--k", "2", "--seed", "9"]
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run(*args[:-2], "--seed", "10", "--output", str(c)) == 0
    assert a.read_bytes() != c.read_bytes()


def test_back_to_back_calls_are_independent(tmp_path, inst_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    synth = ["synthesize", "--instance", str(inst_path), "--algorithm", "all", "--output"]
    assert run(*synth, str(tmp_path / "s1.json")) == 0
    # a gen call on defaults after calls that set --k, --seed and
    # --weight-range: nothing carries over
    assert run("gen", "--n", "6", "--m-init", "7", "--output", str(tmp_path / "d.json")) == 0
    assert run("transmogrify") == 2
    assert run(*synth, str(tmp_path / "s2.json"), "--seed", "3") == 0
    assert run(
        "gen", "--n", "6", "--m-init", "7", "--k", "0", "--seed", "0", "--mode", "complement",
        "--weight-range", "1", "1", "--output", str(tmp_path / "e.json"),
    ) == 0
    assert run("--version") == 0
    assert run(*synth, str(tmp_path / "s3.json")) == 0
    assert (tmp_path / "d.json").read_bytes() == (tmp_path / "e.json").read_bytes()
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s3.json").read_bytes()
    assert len(builds) == 1


def test_gen_writes_loadable_instance(inst_path):
    doc = json.loads(inst_path.read_text())
    assert doc["n"] == 8
    assert doc["k"] == 3
    assert len(doc["candidates"]) == 8


def test_synthesize_artifacts_are_byte_identical(tmp_path, inst_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["synthesize", "--instance", str(inst_path), "--algorithm", "all"]
    assert run(*args, "--output", str(out1)) == 0
    assert run(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc["results"]) == {"greedy", "convex", "exhaustive"}
    assert doc["results"]["exhaustive"]["tau"] >= doc["results"]["greedy"]["tau"] - 1e-12


def test_synthesize_prints_json_without_output(inst_path, capsys):
    assert run("synthesize", "--instance", str(inst_path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "greedy" in doc["results"]


def test_synthesize_budget_override(inst_path, capsys):
    assert run("synthesize", "--instance", str(inst_path), "--k", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]["greedy"]["selected"]) == 1


def test_synthesize_tau_min_flow(tmp_path, capsys):
    path = tmp_path / "path.json"
    inst = EdgeSelectionInstance(
        4,
        ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)),
        ((1, 3, 1.0), (1, 4, 1.0)),
        1,
    )
    save_instance(inst, path)
    assert run("synthesize", "--instance", str(path), "--tau-min", "1.0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["greedy"]["selected"] == [1]
    # threshold plus non-greedy algorithm is contradictory
    assert run(
        "synthesize", "--instance", str(path), "--tau-min", "1.0",
        "--algorithm", "convex",
    ) == 2


def test_synthesize_lambda_flow(inst_path, capsys):
    assert run(
        "synthesize", "--instance", str(inst_path), "--algorithm", "convex",
        "--lambda", "0.8",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "relaxed" in doc["results"]["convex"]
    assert run("synthesize", "--instance", str(inst_path), "--lambda", "0.8") == 2


def test_removal_flow_reports_removed_edges(tmp_path, capsys):
    path = tmp_path / "rem.json"
    base = tuple((u, v, 1.0) for u in range(1, 6) for v in range(u + 1, 6))
    cands = ((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 5, 1.0))
    save_instance(EdgeSelectionInstance(5, base, cands, 2, direction="remove"), path)
    assert run("synthesize", "--instance", str(path)) == 0
    doc = json.loads(capsys.readouterr().out)
    g = doc["results"]["greedy"]
    assert len(g["removed"]) == 2
    assert sorted(g["removed"] + g["selected"]) == [0, 1, 2, 3]
    assert all(len(e) == 3 for e in g["removed_edges"])


def test_certify_with_design(tmp_path, inst_path, capsys):
    design = tmp_path / "design.json"
    design.write_text("[0, 1, 2]")
    out = tmp_path / "cert.json"
    assert run(
        "certify", "--instance", str(inst_path), "--design", str(design),
        "--output", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["bundle"]["lower"] <= doc["bundle"]["upper"] + 1e-9
    assert doc["gap"]["gap_upper"] >= doc["gap"]["gap_lower"] - 1e-12
    bad = tmp_path / "bad_design.json"
    bad.write_text("[0, 1]")
    assert run("certify", "--instance", str(inst_path), "--design", str(bad)) == 2


def test_certify_removal_design_judges_its_kept_complement(tmp_path, capsys):
    path = tmp_path / "rem.json"
    base = tuple((u, v, 1.0 + 0.1 * (u + v)) for u in range(1, 7) for v in range(u + 1, 7))
    cands = ((1, 2, 1.3), (1, 3, 1.4), (2, 4, 1.6), (3, 5, 1.8), (4, 6, 2.0), (2, 6, 1.8))
    inst = EdgeSelectionInstance(6, base, cands, 2, direction="remove")
    save_instance(inst, path)
    design = tmp_path / "design.json"
    design.write_text("[3, 1]")
    assert run("certify", "--instance", str(path), "--design", str(design)) == 0
    doc = json.loads(capsys.readouterr().out)
    reduced = reduce_removal_to_addition(inst)
    expected = gap_for_design(reduced, [0, 2, 4, 5], certify(reduced))
    assert doc["gap"] == expected.to_dict()
    # too few removals, a repeated index, an index past the candidates
    for bad in ("[1]", "[1, 1]", "[1, 6]"):
        design.write_text(bad)
        assert run("certify", "--instance", str(path), "--design", str(design)) == 2


def test_certify_prints_its_legs(tmp_path, inst_path, capsys):
    assert run("certify", "--instance", str(inst_path), "--output", str(tmp_path / "c.json")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("lower=")
    head, *fields = lines[1].split()
    legs = dict(field.split("=") for field in fields)
    assert head == "legs:"
    assert list(legs) == ["greedy_s", "relax_s", "round_s", "iterations", "stop", "fw_gap",
                          "newton_steps"]
    assert all(float(legs[f"{leg}_s"]) > 0.0 for leg in ("greedy", "relax", "round"))
    relaxed = certify(load_instance(inst_path)).relaxed
    assert int(legs["iterations"]) == relaxed.iterations
    assert legs["stop"] == relaxed.stop_reason
    assert float(legs["fw_gap"]) == relaxed.fw_gap
    assert int(legs["newton_steps"]) == relaxed.newton_steps


def test_evaluate_instance(inst_path, capsys):
    assert run("evaluate", "--instance", str(inst_path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_full"] >= doc["tau_base"]


def test_evaluate_slam_double_instance(tmp_path, capsys):
    rng = np.random.default_rng(11)
    inst = slam_instance(random_add_instance(rng, 8, 10, 6, 2), rng)
    path = tmp_path / "slam.json"
    save_instance(inst, path)
    assert run("evaluate", "--instance", str(path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "instance", "tau_p_base", "tau_p_full", "tau_theta_base", "tau_theta_full",
        "dopt_proxy_base", "dopt_proxy_full",
    ]
    for channel in ("p", "theta"):
        base = inst.base_graph(channel)
        full = base.with_edges(inst.candidate_edges(range(inst.num_candidates), channel))
        assert doc[f"tau_{channel}_base"] == tree_connectivity(base).tau
        assert doc[f"tau_{channel}_full"] == tree_connectivity(full).tau
    for key in ("base", "full"):
        assert doc[f"dopt_proxy_{key}"] == 2.0 * doc[f"tau_p_{key}"] + doc[f"tau_theta_{key}"]


def test_evaluate_removal_instance_full_graph_is_its_base(tmp_path, capsys):
    # K4 at unit weights has 16 spanning trees; the removal candidates are
    # base edges already, so they were once counted twice in tau_full
    k4 = tuple((u, v, 1.0) for u in range(1, 5) for v in range(u + 1, 5))
    removal = EdgeSelectionInstance(4, k4, ((1, 2, 1.0), (1, 3, 1.0)), 1, direction="remove")
    with pytest.raises(ArgumentError, match="scores its base only"):
        removal.design_taus([0])
    path = tmp_path / "remove.json"
    save_instance(removal, path)
    assert run("evaluate", "--instance", str(path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau_full"] == doc["tau_base"] == tree_connectivity(WeightedGraph(4, k4)).tau
    assert doc["tau_base"] == pytest.approx(math.log(16), rel=1e-14, abs=0.0)


def test_evaluate_g2o(mini_g2o, capsys):
    assert run("evaluate", "--g2o", str(mini_g2o)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["poses"] == 6
    assert doc["odometry_edges"] == 5
    assert doc["loop_closures"] == 3
    assert doc["dopt_proxy"] == pytest.approx(2 * doc["tau_p"] + doc["tau_theta"])


def test_g2o_synthesize_roundtrip(mini_g2o, tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    args = ["synthesize", "--g2o", str(mini_g2o), "--k", "2", "--algorithm", "all"]
    assert run(*args, "--output", str(out1)) == 0
    assert run(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["instance"]["objective"] == "slam-double"


def test_bench_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = [
        "bench", "--n", "9", "--m-init", "11", "--k-sweep", "1:3", "--seed", "3",
        "--oracle",
    ]
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("sweep,value,n,m_init")
    assert len(lines) == 4
    # timing columns stay empty unless requested
    assert all(line.endswith(",,,") or line.endswith("t_oracle_s") for line in lines)


def test_bench_timings_fill_columns(tmp_path):
    out = tmp_path / "t.csv"
    assert run(
        "bench", "--n", "8", "--m-init", "9", "--k-sweep", "1:2", "--seed", "1",
        "--timings", "--output", str(out),
    ) == 0
    rows = out.read_text().splitlines()[1:]
    assert all(not r.endswith(",,,") for r in rows)
    # t_greedy_s is greedy's elapsed, t_convex_s the relaxation's plus its rounding's
    for row in csv.DictReader(io.StringIO(out.read_text())):
        assert float(row["t_greedy_s"]) > 0.0
        assert float(row["t_convex_s"]) > 0.0
        assert row["t_oracle_s"] == ""  # no --oracle


def test_bench_k_sweep_with_oracle_brackets_opt(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(
        "bench", "--n", "8", "--m-init", "9", "--mode", "sampled", "--c", "8",
        "--weight-range", "1", "4", "--k-sweep", "1:2", "--oracle", "--output", str(out),
    ) == 0
    # the 17 columns the README lists
    assert out.read_text().splitlines()[0].split(",") == (
        "sweep,value,n,m_init,c,k,tau_init,tau_greedy,tau_cvx,tau_cvx_star,"
        "u_greedy,lower,upper,opt,t_greedy_s,t_convex_s,t_oracle_s"
    ).split(",")
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [row["k"] for row in rows] == ["1", "2"]
    assert all(row["c"] == "8" for row in rows)
    for row in rows:
        lower, opt, upper = float(row["lower"]), float(row["opt"]), float(row["upper"])
        assert lower <= opt <= upper


def test_bench_k_sweep_builds_one_kernel_per_channel(monkeypatch, mini_g2o, capsys):
    from treesynth import treeconn

    built = []
    init = treeconn.SubsetLogDet.__init__
    monkeypatch.setattr(
        treeconn.SubsetLogDet, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    sweeps = (
        (("--n", "12", "--m-init", "14", "--c", "10", "--mode", "sampled"), "1:5", 1),
        (("--g2o", str(mini_g2o)), "1:3", 2),  # slam-double, 3 candidates
    )
    for source, sweep, channels in sweeps:
        built.clear()
        assert run("bench", *source, "--k-sweep", sweep) == 0
        # the candidate kernel does not depend on k
        assert len(built) == channels
    assert len(capsys.readouterr().out.splitlines()) == 6 + 4


def test_bench_k_sweep_on_removal_instance_matches_certify(tmp_path, capsys):
    # k counts removed candidates, as in certify --k on the same file
    path = tmp_path / "rem.json"
    skeleton = ((1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.5), (4, 5, 3.0))
    cands = ((1, 3, 2.5), (2, 4, 1.0), (3, 5, 4.0), (1, 5, 1.5))
    save_instance(EdgeSelectionInstance(5, skeleton + cands, cands, 2, direction="remove"), path)
    assert run("bench", "--instance", str(path), "--k-sweep", "0:4", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in rows] == [0, 1, 2, 3, 4]
    for row in rows:
        assert run("certify", "--instance", str(path), "--k", str(row["k"])) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (row["lower"], row["upper"]) == (doc["bundle"]["lower"], doc["bundle"]["upper"])
        assert row["m_init"] == doc["instance"]["m_init"] == 8


def test_bench_m_init_sweep_json(tmp_path):
    out = tmp_path / "m.json"
    assert run(
        "bench", "--n", "9", "--k", "2", "--m-init-sweep", "9:13:2", "--seed", "4",
        "--format", "json", "--output", str(out),
    ) == 0
    rows = json.loads(out.read_text())
    assert [r["value"] for r in rows] == [9, 11, 13]
    assert all(r["lower"] <= r["upper"] + 1e-9 for r in rows)


def test_bench_m_init_sweep_refuses_an_instance_source(inst_path, mini_g2o, capsys):
    # the sweep generates its own instances; a given one was once ignored
    for source in (("--instance", str(inst_path)), ("--g2o", str(mini_g2o))):
        assert run("bench", *source, "--m-init-sweep", "9:10", "--n", "7", "--k", "2") == 2
        captured = capsys.readouterr()
        assert "--m-init-sweep" in captured.err and not captured.out


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_missing_instance_file():
    assert run("synthesize", "--instance", "/no/such/file.json", "--k", "1") == 3


def test_exit_code_boolean_edge_weight(tmp_path, capsys):
    # [1, 3, true] once loaded as weight 1.0
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "n": 3, "base_edges": [[1, 2, 1.0], [2, 3, 1.0]], "candidates": [[1, 3, True]],
        "k": 1, "direction": "add", "objective": "single-weight",
    }))
    assert run("evaluate", "--instance", str(path)) == 3
    assert "[1, 3, True]" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["evaluate", "synthesize"])
def test_exit_code_weight_beyond_float_range(tmp_path, capsys, cmd):
    # float() of a 401-digit weight once raised OverflowError, a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": 3, "base_edges": [[1, 2, 1.0], [2, 3, 1.0]], "candidates": [[1, 3, 10**400]],
        "k": 1, "direction": "add", "objective": "single-weight",
    }))
    assert run(cmd, "--instance", str(path)) == 3
    err = capsys.readouterr().err
    assert "candidate (1, 3, 1000" in err and "overflowing integer" in err


def test_exit_code_candidate_count_needs_sampled_mode(capsys):
    # --c in the default complement mode was once ignored silently
    assert run("gen", "--n", "8", "--m-init", "9", "--c", "4") == 2
    assert run("bench", "--n", "8", "--m-init", "9", "--c", "4", "--k-sweep", "1:2") == 2
    assert capsys.readouterr().out == ""


def test_exit_code_empty_sweep():
    assert run("bench", "--n", "6", "--m-init", "7", "--k-sweep", "5:2", "--seed", "0") == 2


def test_exit_code_negative_seed(capsys):
    # every seed goes through one check, the m_init sweep's seed sequence too
    assert run("gen", "--n", "6", "--m-init", "7", "--seed", "-1") == 2
    assert run("bench", "--n", "6", "--k", "2", "--m-init-sweep", "6:7", "--seed", "-1") == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_exit_code_blank_source():
    assert run("synthesize", "--k", "1") == 2


def test_exit_code_both_sources(tmp_path, inst_path, mini_g2o):
    assert run(
        "synthesize", "--instance", str(inst_path), "--g2o", str(mini_g2o), "--k", "1"
    ) == 2


def test_exit_code_budget_out_of_range(mini_g2o):
    assert run("synthesize", "--g2o", str(mini_g2o), "--k", "99") == 2


def test_exit_code_one_vertex_instance(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "base_edges": [], "candidates": [], "k": 0,
                                "direction": "add", "objective": "single-weight"}))
    assert run("synthesize", "--instance", str(path)) == 3


def test_exit_code_certify_takes_no_seed(inst_path):
    # certify is deterministic; only synthesize and bench take a seed
    assert run("certify", "--instance", str(inst_path), "--seed", "1") == 2


def test_solver_option_defaults_are_the_library_defaults():
    for command in ("synthesize", "certify", "bench"):
        args = cli.build_parser().parse_args([command])
        assert args.tolerance == DEFAULT_TOLERANCE
        assert args.max_iters == DEFAULT_MAX_ITERS


def test_exit_code_unknown_subcommand(capsys):
    assert run("transmogrify") == 2


def test_exit_code_solver_nonconvergence(inst_path):
    assert run(
        "synthesize", "--instance", str(inst_path), "--algorithm", "convex",
        "--max-iters", "1",
    ) == 4


def test_exit_code_solver_nonconvergence_reports_best_iterate(inst_path, capsys):
    assert run(
        "synthesize", "--instance", str(inst_path), "--algorithm", "convex",
        "--max-iters", "1",
    ) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    error, best_line = captured.err.splitlines()
    assert error.startswith("error: projected gradient did not reach tolerance")
    label, doc = best_line.split(": ", 1)
    assert label == "best iterate"
    with pytest.raises(ConvergenceError) as err:
        solve_p2(load_instance(inst_path), max_iters=1)
    best = err.value.best
    assert json.loads(doc) == {
        "tau_cvx_star": best.tau_cvx_star,
        "stop_reason": "iteration cap",
        "fw_gap": best.fw_gap,
        "iterations": 1,
    }


def test_exit_code_nan_gain_threshold(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert run("gen", "--n", "8", "--m-init", "9", "--k", "3", "--seed", "2",
               "--weight-range", "1", "3", "--output", str(path)) == 0
    capsys.readouterr()
    assert run("synthesize", "--instance", str(path), "--tau-min", "nan") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN" in captured.err


@pytest.mark.parametrize("flags", [("--tolerance", "nan"), ("--tolerance", "-1"),
                                   ("--max-iters", "-3")])
def test_exit_code_bad_solver_stop_settings(inst_path, capsys, flags):
    assert run("certify", "--instance", str(inst_path), *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= 0" in captured.err


def test_zero_solver_stop_settings_stay_accepted(inst_path, capsys):
    # the solver runs: it converges, or stops with exit 4 and its best iterate
    for flags in (("--tolerance", "0"), ("--max-iters", "0")):
        assert run("certify", "--instance", str(inst_path), *flags) in (0, 4)
        assert "must be >= 0" not in capsys.readouterr().err


def test_exit_code_malformed_g2o(tmp_path):
    bad = tmp_path / "bad.g2o"
    bad.write_text("EDGE_SE2 0 1 broken\n")
    assert run("evaluate", "--g2o", str(bad)) == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_exit_code_nonfinite_information_g2o(tmp_path, capsys, value):
    bad = tmp_path / "bad.g2o"
    bad.write_text("EDGE_SE2 0 1 0 0 0 1 0 0 1 0 1\nEDGE_SE2 1 2 0 0 0 1 0 0 1 0 1\n"
                   "EDGE_SE2 0 2 0 0 0 1 0 0 1 0 1\n"
                   f"EDGE_SE2 0 1 1 0 0 {value} 0 0 1 0 1\n")
    for argv in (("evaluate", "--g2o", str(bad)), ("certify", "--g2o", str(bad), "--k", "1")):
        assert run(*argv) == 3
        assert f"{bad}:4: information diagonal" in capsys.readouterr().err


@pytest.mark.parametrize("closure, flags", [
    ("EDGE_SE2 0 2 0 0 0 1e308 0 0 1e308 0 1", ()),
    ("EDGE_SE2 0 2 0 0 0 1e308 0 0 1 0 0.25", ("--normalize",)),  # alpha = 4
], ids=["raw", "normalized"])
def test_exit_code_overflowing_weight_g2o(tmp_path, capsys, closure, flags):
    bad = tmp_path / "bad.g2o"
    bad.write_text("EDGE_SE2 0 1 0 0 0 1 0 0 1 0 1\nEDGE_SE2 1 2 0 0 0 1 0 0 1 0 1\n"
                   "EDGE_SE2 0 2 0 0 0 1 0 0 1 0 1\n" + closure + "\n")
    for argv in (("evaluate", "--g2o", str(bad)), ("synthesize", "--g2o", str(bad), "--k", "1")):
        assert run(*argv, *flags) == 3
        assert f"{bad}:4: weight overflows float64" in capsys.readouterr().err


def test_exit_code_repeat_below_one(inst_path, capsys):
    assert run("synthesize", "--instance", str(inst_path), "--repeat", "0") == 2
    # refused before anything is written
    assert capsys.readouterr().out == ""


def test_exit_code_design_file_needs_integers(tmp_path, inst_path, capsys):
    design = tmp_path / "design.json"
    design.write_text("[true, false, 2]")
    assert run("certify", "--instance", str(inst_path), "--design", str(design)) == 3
    # integral floats count as integers, as they do in instance files
    design.write_text("[0.0, 1, 2.0]")
    assert run("certify", "--instance", str(inst_path), "--design", str(design)) == 0
    assert json.loads(capsys.readouterr().out)["gap"]["design_tau"] > 0


@pytest.mark.parametrize("pairs", ['[["a", 1]]', "[[0.5, 1]]", "[[0, true]]"])
def test_exit_code_base_edges_need_integers(tmp_path, mini_g2o, pairs):
    base = tmp_path / "base.json"
    base.write_text(pairs)
    assert run("evaluate", "--g2o", str(mini_g2o), "--base-edges", str(base)) == 3


def test_exit_code_lambda_on_removal_instance(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rem.json"
    base = tuple((u, v, 1.0) for u in range(1, 6) for v in range(u + 1, 6))
    cands = ((1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 5, 1.0))
    save_instance(EdgeSelectionInstance(5, base, cands, 2, direction="remove"), path)
    args = ["synthesize", "--instance", str(path), "--algorithm", "convex"]
    solved = []
    solve_p3 = cli.solve_p3
    monkeypatch.setattr(cli, "solve_p3", lambda *a, **kw: solved.append(1) or solve_p3(*a, **kw))
    assert run(*args, "--lambda", "0.8") == 2
    # refused before the relaxation runs and before anything is written
    assert solved == []
    out = capsys.readouterr()
    assert out.out == "" and "--lambda applies to addition instances" in out.err
    assert run(*args) == 0


def test_exit_code_evaluate_both_sources(inst_path, mini_g2o, capsys):
    assert run("evaluate", "--instance", str(inst_path), "--g2o", str(mini_g2o)) == 2
    out = capsys.readouterr()
    assert out.out == "" and "exactly one of --instance and --g2o" in out.err


# stdout is a TextIOWrapper whose first write after a newline has gone out
# waits for a byte on stdin: the reader sends it once it has read one line
# and closed its end, so the write meets a closed pipe on every run, not
# only when the scheduler lets the reader win the race that
# `treesynth ... | head -1` runs
GATED_MAIN = """
import io, sys
from treesynth.cli import main

class Gate(io.TextIOWrapper):
    newline_out = False

    def write(self, s):
        if Gate.newline_out:
            sys.stdin.read(1)  # returns at once after the reader's close
        Gate.newline_out = Gate.newline_out or "\\n" in s
        return super().write(s)

sys.stdout = Gate(sys.stdout.detach(), write_through=True)
sys.exit(main())
"""


def test_closed_stdout_ends_without_a_traceback(mini_g2o, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    argv = ["certify", "--g2o", str(mini_g2o), "--k", "2", "--output", str(tmp_path / "c.json")]
    proc = subprocess.Popen([sys.executable, "-c", GATED_MAIN, *argv], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        proc.stdin.write(b"x")
        proc.stdin.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()  # no-op once it has exited
        proc.stderr.close()
    assert code == cli.EXIT_BROKEN_PIPE
    assert first.startswith(b"lower=")
    assert "Traceback" not in err
    assert err == ""  # nor "Exception ignored" from the interpreter's last flush
