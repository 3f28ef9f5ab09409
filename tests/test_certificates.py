import dataclasses
import math

import numpy as np
import pytest

from treesynth import (
    ArgumentError,
    EdgeSelectionInstance,
    GREEDY_FACTOR,
    build_bundle,
    certify,
    exhaustive_select,
    gap_for_design,
    greedy_select,
    parse_g2o,
    random_instance,
    round_deterministic,
    solve_p2,
    to_instance,
)
from conftest import DATA, random_add_instance


def test_greedy_factor_constant():
    assert GREEDY_FACTOR == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_bundle_arithmetic():
    b = build_bundle(tau_init=1.0, tau_greedy=2.0, tau_cvx=1.8, tau_cvx_star=2.5)
    ratio = 1.0 / GREEDY_FACTOR
    assert b.u_greedy == pytest.approx(ratio * 2.0 + (1.0 - ratio) * 1.0)
    assert b.lower == 2.0
    assert b.upper == pytest.approx(min(b.u_greedy, 2.5))
    doc = b.to_dict()
    assert set(doc) == {
        "tau_init", "tau_greedy", "tau_cvx", "tau_cvx_star", "u_greedy", "lower", "upper",
    }


def test_certify_brackets_exhaustive_optimum():
    rng = np.random.default_rng(51)
    for _ in range(8):
        inst = random_add_instance(rng, 6, 7, 8, 3)
        bundle = certify(inst)
        opt = exhaustive_select(inst).tau_achieved
        assert bundle.lower <= opt + 1e-6
        assert opt <= bundle.upper + 1e-6


def test_zero_gain_certificates_bracket_the_optimum():
    # at zero gain the greedy bound's rescaling rounds an ulp or two below
    # tau_greedy, which once made upper < lower = OPT for 28 of these 200
    for seed in range(200):
        inst = random_instance(8, 9, "sampled", sample_size=6, seed=seed, k=0)
        bundle = certify(inst)
        assert bundle.lower <= exhaustive_select(inst).tau_achieved <= bundle.upper
        assert bundle.u_greedy >= bundle.tau_greedy
    # with a gain the rescaled value is kept as it is
    b = build_bundle(tau_init=1.0, tau_greedy=2.0, tau_cvx=1.8, tau_cvx_star=2.5)
    assert b.u_greedy == 2.0 / GREEDY_FACTOR + (1.0 - 1.0 / GREEDY_FACTOR) * 1.0


def test_certify_lower_never_exceeds_upper_on_larger_instances():
    rng = np.random.default_rng(53)
    for _ in range(5):
        inst = random_add_instance(rng, 14, 20, 25, 8)
        bundle = certify(inst)
        assert bundle.lower <= bundle.upper + 1e-9


def test_gap_for_design_values():
    rng = np.random.default_rng(57)
    inst = random_add_instance(rng, 6, 7, 6, 3)
    bundle = certify(inst)
    best = greedy_select(inst)
    gap = gap_for_design(inst, best.selected, bundle)
    assert gap.design_tau == pytest.approx(best.tau_achieved, abs=1e-9)
    assert gap.gap_lower >= 0.0
    assert gap.gap_upper >= gap.gap_lower - 1e-12
    assert gap.ratio_bound >= 1.0 - 1e-12


def test_gap_for_design_validation():
    rng = np.random.default_rng(59)
    inst = random_add_instance(rng, 6, 7, 6, 3)
    bundle = certify(inst)
    with pytest.raises(ArgumentError):
        gap_for_design(inst, (0, 0, 1), bundle)
    with pytest.raises(ArgumentError):
        gap_for_design(inst, (0, 1), bundle)  # cardinality != k
    with pytest.raises(ArgumentError):
        gap_for_design(inst, (0, 1, 99), bundle)


def test_gap_ratio_undefined_at_zero_tau():
    # unit-weight tree base: tau stays 0 when nothing is added
    base = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))
    inst = EdgeSelectionInstance(4, base, ((1, 3, 1.0), (1, 4, 1.0)), 0)
    bundle = certify(inst)
    gap = gap_for_design(inst, (), bundle)
    assert gap.design_tau == 0.0
    assert gap.ratio_bound is None


def _fields_but_elapsed(result) -> dict:
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
            if f.name != "elapsed"}


def _assert_bit_identical(a, b) -> None:
    fa, fb = _fields_but_elapsed(a), _fields_but_elapsed(b)
    assert fa.keys() == fb.keys()
    for name in fa:
        if isinstance(fa[name], np.ndarray):
            assert np.array_equal(fa[name], fb[name]), name
        else:
            assert fa[name] == fb[name], name


@pytest.mark.parametrize("make", [
    lambda: random_add_instance(np.random.default_rng(61), 10, 13, 12, 4),
    lambda: to_instance(parse_g2o(DATA / "mini.g2o"), 2),  # slam-double
], ids=["single-weight", "slam-double"])
def test_certify_carries_the_legs_it_bounds(make):
    bundle = certify(make())
    # standalone calls on a fresh copy of the instance, with its own kernels
    inst = make()
    greedy = greedy_select(inst)
    relaxed = solve_p2(inst)
    rounded = round_deterministic(inst, relaxed.pi)
    _assert_bit_identical(bundle.greedy, greedy)
    _assert_bit_identical(bundle.relaxed, relaxed)
    _assert_bit_identical(bundle.rounded, rounded)
    assert bundle.greedy.elapsed > 0.0 and bundle.relaxed.elapsed > 0.0
    # the legs ride along outside the artifact and outside equality
    assert set(bundle.to_dict()) == {
        "tau_init", "tau_greedy", "tau_cvx", "tau_cvx_star", "u_greedy", "lower", "upper",
    }
    assert bundle == build_bundle(
        greedy.baseline, greedy.tau_achieved, rounded.tau_achieved, relaxed.tau_cvx_star
    )
    assert build_bundle(1.0, 2.0, 1.8, 2.5).greedy is None
