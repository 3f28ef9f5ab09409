"""Near-optimality certificates.

Greedy selection and the convex relaxation bracket the unknown optimum
from both sides. The greedy value and the rounded relaxation are
feasible, hence lower bounds; the relaxation optimum upper-bounds OPT
directly, and the 1 - 1/e guarantee inverts into a second upper bound
from the greedy value alone. Any candidate design can then be judged
against the resulting sandwich without ever computing OPT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

from .convex import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOLERANCE,
    RelaxedSolution,
    round_deterministic,
    solve_p2,
)
from .graphs import EdgeSelectionInstance, _design_indices
from .greedy import SelectionResult, gain_function, greedy_select

# The classic greedy guarantee factor for monotone submodular gains.
GREEDY_FACTOR = 1.0 - math.exp(-1.0)
# Its inverse, used to turn the guarantee into an upper bound on OPT.
GREEDY_RATIO = 1.0 / GREEDY_FACTOR


@dataclass(frozen=True)
class CertificateBundle:
    """The two-sided bound on OPT for one instance and budget.

    lower = max(tau_greedy, tau_cvx) <= OPT <= min(u_greedy, tau_cvx_star)
    = upper, where u_greedy rescales the greedy value by the inverse
    1 - 1/e factor. All values are combined-objective taus. lower <= OPT
    holds in exact arithmetic only: lower is a feasible design's computed
    value, which can exceed the exact OPT by its rounding. A bundle
    from certify also carries the legs it was built from, the greedy
    design, the relaxed solution and its rounding; they stay out of
    to_dict() and of comparisons, and are None on a bundle assembled by
    build_bundle.
    """

    tau_init: float
    tau_greedy: float
    tau_cvx: float
    tau_cvx_star: float
    u_greedy: float
    lower: float
    upper: float
    greedy: SelectionResult | None = field(default=None, repr=False, compare=False)
    relaxed: RelaxedSolution | None = field(default=None, repr=False, compare=False)
    rounded: SelectionResult | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "tau_init": self.tau_init,
            "tau_greedy": self.tau_greedy,
            "tau_cvx": self.tau_cvx,
            "tau_cvx_star": self.tau_cvx_star,
            "u_greedy": self.u_greedy,
            "lower": self.lower,
            "upper": self.upper,
        }


def build_bundle(
    tau_init: float, tau_greedy: float, tau_cvx: float, tau_cvx_star: float
) -> CertificateBundle:
    """Assemble the sandwich from the two legs' tau values.

    u_greedy is never below tau_greedy: at zero gain (k = 0, or no
    candidate gains) the rescaling rounds a few ulps under it.
    """
    u_greedy = max(GREEDY_RATIO * tau_greedy + (1.0 - GREEDY_RATIO) * tau_init, tau_greedy)
    return CertificateBundle(
        tau_init=tau_init,
        tau_greedy=tau_greedy,
        tau_cvx=tau_cvx,
        tau_cvx_star=tau_cvx_star,
        u_greedy=u_greedy,
        lower=max(tau_greedy, tau_cvx),
        upper=min(u_greedy, tau_cvx_star),
    )


def certify(
    inst: EdgeSelectionInstance,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CertificateBundle:
    """Run both legs (greedy, relax + round) and bundle the bounds with them.

    lower is a computed design value (see CertificateBundle).
    """
    greedy = greedy_select(inst)
    relaxed = solve_p2(inst, tolerance=tolerance, max_iters=max_iters)
    rounded = round_deterministic(inst, relaxed.pi)
    bundle = build_bundle(
        tau_init=greedy.baseline,
        tau_greedy=greedy.tau_achieved,
        tau_cvx=rounded.tau_achieved,
        tau_cvx_star=relaxed.tau_cvx_star,
    )
    return replace(bundle, greedy=greedy, relaxed=relaxed, rounded=rounded)


@dataclass(frozen=True)
class GapReport:
    """How far a concrete design can be from OPT.

    gap_lower <= OPT - tau(design) <= gap_upper, and when the design has
    positive tau, OPT / tau(design) <= ratio_bound.
    """

    design_tau: float
    gap_lower: float
    gap_upper: float
    ratio_bound: float | None

    def to_dict(self) -> dict:
        return {
            "design_tau": self.design_tau,
            "gap_lower": self.gap_lower,
            "gap_upper": self.gap_upper,
            "ratio_bound": self.ratio_bound,
        }


def gap_for_design(
    inst: EdgeSelectionInstance, design: Iterable[int], bundle: CertificateBundle
) -> GapReport:
    """Judge a k-edge design against a certificate bundle."""
    design_tau = gain_function(inst).absolute(_design_indices(inst, design, size=inst.k))
    return GapReport(
        design_tau=design_tau,
        gap_lower=max(0.0, bundle.lower - design_tau),
        gap_upper=bundle.upper - design_tau,
        ratio_bound=bundle.upper / design_tau if design_tau > 0 else None,
    )
