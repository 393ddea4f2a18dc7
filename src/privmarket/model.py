"""Market model: parameters, privacy cost functions, and world/signal sampling.

The market has a binary world state W, one private signal per user, and one
noisy "group signal" per directed edge of the social graph: a friend's
private signal, flipped with probability alpha.  Everything in this module
is either an immutable parameter object or a pure sampling function driven
by an explicitly passed `numpy.random.Generator`.  The group signals are
not sampled edge by edge: a user acts on hers only through their sum's side
of her band, which the Monte Carlo engine draws from its exact law
(`analytics.ReportLaw.side_table`) with the same uniform as her report.

Randomness contract: streams are derived from a master seed plus a purpose
tag and index via `substream`, so that any piece of the simulation can be
re-drawn independently of scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CostFunction",
    "ModelParams",
    "ParameterError",
    "CostFunctionError",
    "theta1",
    "quadratic_cost",
    "linear_capped_cost",
    "table_cost",
    "audit_cost_function",
    "substream",
    "sample_world",
    "sample_private_signals",
]


class ParameterError(ValueError):
    """A model parameter is outside its admissible open range."""


class CostFunctionError(ValueError):
    """A user-supplied privacy cost function violates the required shape."""


# Purpose tags for RNG substreams.  Keyed into SeedSequence spawn keys so the
# same (master_seed, tag, index) always yields the same stream.
TAG_GRAPH = 4
TAG_TRIAL = 5


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, purpose tag, index...)."""
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    )


@dataclass(frozen=True)
class CostFunction:
    """Privacy cost g: level zeta >= 0 -> cost, with its derivative.

    Must be convex, nondecreasing, nonnegative and satisfy g(0) = 0.
    `audit_cost_function` checks these conditions on a sampled grid.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    name: str = "custom"

    def __call__(self, zeta: float) -> float:
        return self.value(zeta)


def quadratic_cost() -> CostFunction:
    """Default cost g(zeta) = zeta^2."""
    return CostFunction(value=lambda z: z * z, derivative=lambda z: 2.0 * z, name="quadratic")


def linear_capped_cost() -> CostFunction:
    """Linear cost g(zeta) = zeta (slope capped at 1)."""
    return CostFunction(value=lambda z: z, derivative=lambda z: 1.0, name="linear-capped")


def table_cost(zetas: Sequence[float], values: Sequence[float]) -> CostFunction:
    """Piecewise-linear cost from sampled (zeta, g(zeta)) pairs.

    The derivative is the segment slope, extended by the last slope beyond
    the table.  The resulting function is audited like any other cost.
    """
    z = np.asarray(zetas, dtype=float)
    v = np.asarray(values, dtype=float)
    if z.ndim != 1 or z.shape != v.shape or len(z) < 2:
        raise CostFunctionError("cost table needs at least two (zeta, value) pairs")
    if not (np.isfinite(z).all() and np.isfinite(v).all()):
        raise CostFunctionError("cost table entries must be finite numbers")
    order = np.argsort(z)
    z, v = z[order], v[order]
    if z[0] != 0.0:
        raise CostFunctionError("cost table must start at zeta = 0")
    gaps = np.diff(z)
    if np.any(gaps == 0.0):
        raise CostFunctionError(f"cost table repeats zeta = {z[1:][gaps == 0.0][0]:g}")
    slopes = np.diff(v) / gaps

    def value(x: float) -> float:
        return float(np.interp(x, z, v)) if x <= z[-1] else float(v[-1] + slopes[-1] * (x - z[-1]))

    def derivative(x: float) -> float:
        if x >= z[-1]:
            return float(slopes[-1])
        i = int(np.searchsorted(z, x, side="right")) - 1
        return float(slopes[max(i, 0)])

    cost = CostFunction(value=value, derivative=derivative, name="table")
    audit_cost_function(cost)
    return cost


_AUDIT_GRID = np.linspace(0.0, 10.0, 1000)


def audit_cost_function(cost: CostFunction) -> None:
    """Check finiteness, g(0)=0, monotonicity, nonnegativity and convexity on a grid."""
    vals = np.array([cost.value(z) for z in _AUDIT_GRID])
    ders = np.array([cost.derivative(z) for z in _AUDIT_GRID])
    if not (np.isfinite(vals).all() and np.isfinite(ders).all()):
        raise CostFunctionError("cost or its derivative is not finite on the audit grid [0, 10]")
    if abs(vals[0]) > 1e-12:
        raise CostFunctionError(f"g(0) = {vals[0]!r}, expected 0")
    if np.any(vals < -1e-12):
        raise CostFunctionError("cost takes negative values")
    if np.any(np.diff(vals) < -1e-12):
        raise CostFunctionError("cost is not nondecreasing")
    if np.any(ders < -1e-12):
        raise CostFunctionError("cost derivative takes negative values")
    if np.any(np.diff(ders) < -1e-9):
        raise CostFunctionError("cost derivative is not nondecreasing (cost not convex)")


def theta1(theta0: float, alpha: float) -> float:
    """Group-signal quality induced by private quality theta0 and crossover alpha."""
    if not 0.5 < theta0 < 1.0:
        raise ParameterError(f"theta0 must lie in (0.5, 1), got {theta0}")
    if not 0.0 <= alpha < 0.5:
        raise ParameterError(f"alpha must lie in [0, 0.5), got {alpha}")
    return theta0 * (1.0 - alpha) + (1.0 - theta0) * alpha


@dataclass(frozen=True)
class ModelParams:
    """All market constants.

    prior_w1:   Pr(W = 1), in (0, 1)
    theta0:     private-signal quality, in (0.5, 1)
    alpha:      group-signal crossover probability, in [0, 0.5)
    cost:       privacy cost function g
    epsilon:    randomized-response privacy level at a group-signal tie, >= 0
    population: number of users N >= 2
    """

    prior_w1: float
    theta0: float
    alpha: float
    cost: CostFunction = field(default_factory=quadratic_cost)
    epsilon: float = 0.1
    population: int = 250

    def __post_init__(self) -> None:
        if not 0.0 < self.prior_w1 < 1.0:
            raise ParameterError(f"prior_w1 must lie in (0, 1), got {self.prior_w1}")
        theta1(self.theta0, self.alpha)  # validates theta0 and alpha ranges
        if self.epsilon < 0.0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.population < 2:
            raise ParameterError(f"population must be >= 2, got {self.population}")

    @property
    def theta1(self) -> float:
        return theta1(self.theta0, self.alpha)

    @property
    def equal_priors(self) -> bool:
        return self.prior_w1 == 0.5


def sample_world(rng: np.random.Generator, params: ModelParams, size: int | None = None):
    """Draw W: 1 with probability prior_w1; an int, or an int array of `size` draws."""
    if size is None:
        return int(rng.random() < params.prior_w1)
    return (rng.random(size) < params.prior_w1).astype(np.int64)


def sample_private_signals(rng: np.random.Generator, w, params: ModelParams) -> np.ndarray:
    """Draw N private signals per world bit, each equal to it with probability theta0.

    `w` is a bit or an array of bits, one per trial; the result has shape
    `w.shape + (N,)`.
    """
    w = np.asarray(w, dtype=np.int8)[..., None]
    match = rng.random(w.shape[:-1] + (params.population,)) < params.theta0
    return (match ^ (w == 0)).view(np.int8)
