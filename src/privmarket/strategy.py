"""Equilibrium data-reporting strategies.

A user with d friends observes her private signal s and the sum f of her d
noisy group signals.  Her equilibrium action is non-disclosive (report a
fixed bit regardless of s) when f is far enough from d/2, and a symmetric
randomized response on s at privacy level xi(f) in the middle band.  The
band edges come from the clamped quantities Upsilon_0 / Upsilon_1 evaluated
at the solved level xi(f); xi(f) itself is the root of the concave
first-order condition J'(eta) = 0.

Under equal priors J'(eta) is proportional to
e^(eta - eps) (1 + e^eps)^2 / (1 + e^eta)^2 g'(eps) - g'(eta), whose root
is eta = eps, so xi = eps in closed form (0 when g'(eps) = 0).  Under
unequal priors xi(f) is bisected: the group-signal likelihood ratio
(theta1/(1-theta1))^(d-2f) is carried in log space, so degrees near the
sparsity cap do not overflow, and J' is strictly decreasing for convex
costs, so bisection on an expanding bracket is guaranteed to converge.

A degree's table (`DegreeStrategy`) is a set of arrays indexed by f: the
regime, the level, both cuts, and the probabilities of reporting 1 and 0
given the private signal.  A report is one bit; every user participates.

This solver builds the tables `privmarket strategy` exports and is the only
encoding of the profile under unequal priors.  Under equal priors both
cuts are d/2 +- `equal_priors_tau`, so simulation and the closed forms
play the same profile as the (tau, epsilon) law `analytics.ReportLaw`;
the tables here are their reference.  Both turn cuts into integer band
ends with `band_ends`, which puts a sum within `CUT_TOL` of a cut inside
the band, so the two agree cell by cell.  At epsilon = 0 the band is the
tie alone and randomizing there is a fair coin, so the table's action
rows are the all-non-disclosive baseline's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CostFunctionError, ModelParams

__all__ = [
    "DegreeStrategy",
    "StrategyDomainError",
    "bar_A",
    "solve_xi",
    "upsilon",
    "band_ends",
    "equal_priors_tau",
    "build_mv_strategy",
    "table_to_text",
]

XI_TOLERANCE = 1e-10
# A group-signal sum within CUT_TOL of a cut lies on it: both cuts belong
# to the band.
CUT_TOL = 1e-9
XI_CEILING = 1e6


def band_ends(cut_low, cut_high) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the least and greatest integer sums of the band [cut_low, cut_high].

    A sum within `CUT_TOL` of a cut counts as on it.  The cuts are floats
    or arrays of them; an integer f lies below the band exactly when
    f < lo, and above it exactly when f > hi.
    """
    return (
        np.ceil(cut_low - CUT_TOL).astype(np.int64),
        np.floor(cut_high + CUT_TOL).astype(np.int64),
    )


class StrategyDomainError(ValueError):
    """A strategy computation left its admissible domain (bad cost function)."""


def bar_A(theta0: float, theta1: float) -> float:
    """Half-width of the private-signal tiebreak region of the ML rule."""
    return 0.5 * math.log(theta0 / (1.0 - theta0)) / math.log(theta1 / (1.0 - theta1))


def _log_ratio_power(d: int, f: int, theta1: float) -> float:
    """log of (theta1/(1-theta1))^(d-2f)."""
    return (d - 2 * f) * math.log(theta1 / (1.0 - theta1))


def _j_prime(eta: float, f: int, d: int, params: ModelParams) -> float:
    """Derivative of the symmetric-randomization utility in the privacy level."""
    eps = params.epsilon
    gp_eps = params.cost.derivative(eps)
    if gp_eps <= 0.0:
        return -params.cost.derivative(eta)
    t = _log_ratio_power(d, f, params.theta1)
    p1, p0 = params.prior_w1, 1.0 - params.prior_w1
    log_c = (
        math.log(gp_eps / 2.0)
        + np.logaddexp(0.0, t)
        - np.logaddexp(math.log(p1), math.log(p0) + t)
    )
    log_term = (eta - eps) + 2.0 * (np.logaddexp(0.0, eps) - np.logaddexp(0.0, eta)) + log_c
    return float(np.exp(log_term)) - params.cost.derivative(eta)


def solve_xi(f: int, d: int, params: ModelParams) -> float:
    """Optimal SR privacy level: the root of J'(eta) = 0, or 0 if J'(0) <= 0.

    Under equal priors the root is epsilon whenever g'(epsilon) > 0, since
    J'(0) = cosh^2(eps/2) g'(eps) - g'(0) > 0 for a convex cost and eps > 0;
    otherwise J' = -g' <= 0 and the level is 0.  Unequal priors are bisected.
    """
    if not 0 <= f <= d:
        raise ValueError(f"need 0 <= f <= d, got f={f}, d={d}")
    if params.equal_priors:
        return params.epsilon if params.cost.derivative(params.epsilon) > 0.0 else 0.0
    return _bisect_xi(f, d, params)


def _bisect_xi(f: int, d: int, params: ModelParams) -> float:
    """Root of J'(eta) = 0 by bisection, or 0 if J'(0) <= 0; any priors.

    J' is strictly decreasing (J is concave for convex costs), so an
    expanding bracket plus bisection converges; failure to bracket within
    the ceiling signals an invalid cost function.
    """
    if _j_prime(0.0, f, d, params) <= 0.0:
        return 0.0
    lo, hi = 0.0, params.epsilon + 1.0
    while _j_prime(hi, f, d, params) > 0.0:
        hi *= 2.0
        if hi > XI_CEILING:
            raise CostFunctionError(
                "J' never becomes negative: the cost derivative fails to grow"
            )
    while hi - lo > XI_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if _j_prime(mid, f, d, params) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _b_value(eta: float, params: ModelParams) -> float:
    """Scaled cost term entering the band-edge computation: g(eta)(e^eta+1)/Z."""
    g_eta = params.cost.value(eta)
    if g_eta == 0.0:
        return 0.0
    gp_eps = params.cost.derivative(params.epsilon)
    if gp_eps <= 0.0:
        raise CostFunctionError("g'(epsilon) = 0 with g(eta) > 0: degenerate design scalar")
    eps = params.epsilon
    return (
        (2.0 * params.theta0 - 1.0)
        * 2.0
        * math.exp(eps)
        * (g_eta / gp_eps)
        * (math.exp(eta) + 1.0)
        / (math.exp(eps) + 1.0) ** 2
    )


def upsilon(side: int, eta: float, params: ModelParams) -> float:
    """Band half-width on the given side (0: low-f cut, 1: high-f cut).

    Computes the raw cut A_side(eta) and clamps it to [0, bar_A].  The prior
    weight with a minus sign sits on the opposite world state of the side
    under evaluation, which makes the two sides coincide under equal priors.
    """
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    th0, th1 = params.theta0, params.theta1
    b = _b_value(eta, params)
    p = {1: params.prior_w1, 0: 1.0 - params.prior_w1}
    num = math.exp(eta) * th0 + 1.0 - th0 - p[1 - side] * b
    den = math.exp(eta) * (1.0 - th0) + th0 + p[side] * b
    if den <= 0.0:
        raise StrategyDomainError(
            f"band-edge logarithm domain violated (den={den}); "
            "the cost function drives the scaled cost term negative"
        )
    if num <= 0.0:
        # Randomization loses to the fixed report everywhere on this side:
        # the raw cut diverges to -inf, so the clamp takes over.
        return 0.0
    a = math.log(num / den) / (2.0 * math.log(th1 / (1.0 - th1)))
    return min(max(a, 0.0), bar_A(th0, th1))


def equal_priors_tau(params: ModelParams) -> float:
    """Closed-form symmetric band half-width when both world states are equally likely."""
    if not params.equal_priors:
        raise ValueError("closed-form tau requires equal priors")
    eps, th0, th1 = params.epsilon, params.theta0, params.theta1
    if eps == 0.0:
        return 0.0
    gp = params.cost.derivative(eps)
    if gp <= 0.0:
        return 0.0
    ratio = params.cost.value(eps) / gp
    ee = math.exp(eps)
    num = ee * (ee * th0 + 1.0 - (2.0 * th0 - 1.0) * ratio) + 1.0 - th0
    den = ee * (ee * (1.0 - th0) + 1.0 + (2.0 * th0 - 1.0) * ratio) + th0
    a = math.log(num / den) / (2.0 * math.log(th1 / (1.0 - th1)))
    return min(max(a, 0.0), bar_A(th0, th1))


@dataclass(frozen=True, eq=False)
class DegreeStrategy:
    """Equilibrium actions of a user with d friends, indexed by her group-signal sum f.

    * `sr[f]`: she randomizes her signal (True) or reports the majority;
    * `xi[f]`: the solved level, also where she does not randomize;
    * `p1[f, s]`, `p0[f, s]`: Pr(report 1), Pr(report 0) given her signal s;
    * `cut_low[f]`, `cut_high[f]`: the band's cuts d/2 - Upsilon_0 and
      d/2 + Upsilon_1 at xi[f].

    Every array is read-only and has d + 1 rows.
    """

    d: int
    sr: np.ndarray
    xi: np.ndarray
    p1: np.ndarray
    p0: np.ndarray
    cut_low: np.ndarray
    cut_high: np.ndarray


def build_mv_strategy(d: int, params: ModelParams) -> DegreeStrategy:
    """Equilibrium majority-voting strategy table for one degree.

    Per f: solve the SR level xi(f) and evaluate both clamped cuts at
    xi(f); then `band_ends` classifies every cell.  The band includes both
    cuts (to within `CUT_TOL`), so a friendless user always randomizes at
    xi(0) and a sum exactly at a cut randomizes too.  A randomizer keeps
    her signal with probability e^xi / (1 + e^xi).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    cells = []
    for f in range(d + 1):
        xi = solve_xi(f, d, params)
        cells.append((xi, d / 2 - upsilon(0, xi, params), d / 2 + upsilon(1, xi, params)))
    xi, cut_low, cut_high = map(np.array, zip(*cells))
    lo, hi = band_ends(cut_low, cut_high)
    f = np.arange(d + 1)
    sr = (lo <= f) & (f <= hi)
    keep = np.array([math.exp(x) / (1.0 + math.exp(x)) for x in xi.tolist()])[:, None]
    majority = (f > hi).astype(float)[:, None]
    p1 = np.where(sr[:, None], np.hstack([1.0 - keep, keep]), majority)
    p0 = np.where(sr[:, None], np.hstack([keep, 1.0 - keep]), 1.0 - majority)
    table = DegreeStrategy(d=d, sr=sr, xi=xi, p1=p1, p0=p0, cut_low=cut_low, cut_high=cut_high)
    for array in (sr, xi, p1, p0, cut_low, cut_high):
        array.flags.writeable = False
    return table


def table_to_text(strategies: Sequence[DegreeStrategy]) -> str:
    """Flat tab-separated export: degree, f, s, p1, p0, regime, xi."""
    lines = ["degree\tf\ts\tp1\tp0\tregime\txi"]
    for strat in strategies:
        for f in range(strat.d + 1):
            regime = "sr" if strat.sr[f] else "nd"
            for s in (0, 1):
                lines.append(
                    f"{strat.d}\t{f}\t{s}\t{strat.p1[f, s]:.17g}\t{strat.p0[f, s]:.17g}"
                    f"\t{regime}\t{strat.xi[f]:.17g}"
                )
    return "\n".join(lines) + "\n"
