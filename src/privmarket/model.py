"""Market model: parameters, privacy cost functions, and world/signal sampling.

The market has a binary world state W, one private signal per user, and one
noisy "group signal" per directed edge of the social graph: a friend's
private signal, flipped with probability alpha.  Everything in this module
is either an immutable parameter object or a pure sampling function driven
by an explicitly passed `numpy.random.Generator`.  The group signals are
not sampled edge by edge: a user acts on hers only through their sum's side
of her band, which the Monte Carlo engine draws from its exact law
(`analytics.ReportLaw.side_table`) together with her report, as one move:
the low 31 bits of the same raw 64-bit word whose high bits give her
private signal (`sample_signals_and_moves`).

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
    "EPSILON_MAX",
    "ParameterError",
    "CostFunctionError",
    "theta1",
    "quadratic_cost",
    "linear_capped_cost",
    "table_cost",
    "audit_cost_function",
    "substream",
    "sample_world",
    "sample_signals_and_moves",
    "fixed_point",
    "FIXED_ONE",
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
        raise CostFunctionError(f"g(0) = {vals[0]:g}, expected 0")
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


# The largest privacy level epsilon accepted.  The closed forms square e^epsilon
# (`mechanism.design_Z`, `strategy.equal_priors_tau` and the band edges), and
# e^(2 * 300) is about 3.8e260, which leaves a factor of about 1e48 below the
# largest float for the cost terms they multiply it by; e^epsilon alone
# overflows from epsilon 709.8, and its square from 354.9.
EPSILON_MAX = 300.0


@dataclass(frozen=True)
class ModelParams:
    """All market constants.

    prior_w1:   Pr(W = 1), in (0, 1)
    theta0:     private-signal quality, in (0.5, 1)
    alpha:      group-signal crossover probability, in [0, 0.5)
    cost:       privacy cost function g
    epsilon:    randomized-response privacy level at a group-signal tie, in [0, EPSILON_MAX]
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
        if not 0.0 <= self.epsilon <= EPSILON_MAX:
            raise ParameterError(f"epsilon must lie in [0, {EPSILON_MAX:g}], got {self.epsilon}")
        if self.population < 2:
            raise ParameterError(f"population must be >= 2, got {self.population}")

    @property
    def theta1(self) -> float:
        return theta1(self.theta0, self.alpha)

    @property
    def equal_priors(self) -> bool:
        return self.prior_w1 == 0.5


# The engine's probabilities are fixed-point: p is held as the integer
# round(p * 2**31), and a user-trial's move is a uniform 31-bit integer.
_MOVE_BITS = 31
FIXED_ONE = 1 << _MOVE_BITS


def sample_world(rng: np.random.Generator, params: ModelParams, size: int) -> np.ndarray:
    """`size` draws of W, each 1 with probability prior_w1, as an int64 array."""
    return (rng.random(size) < params.prior_w1).astype(np.int64)


def fixed_point(p) -> np.ndarray:
    """round(p * 2**31) as uint32: probabilities in [0, 1] on the engine's 2**-31 grid.

    Rounding is monotone, so ordered tables stay ordered; 0 and 1 stay
    exact (0 and 2**31); any other p moves by at most 2**-32.
    """
    scaled = np.rint(np.asarray(p, dtype=float) * FIXED_ONE)
    return np.clip(scaled, 0, FIXED_ONE).astype(np.uint32)


def sample_signals_and_moves(rng: np.random.Generator, w, params: ModelParams, out):
    """(signals, moves) written into `out`: one raw 64-bit word per user and world bit.

    `w` is a bit or an array of bits, one per trial; `out` is the caller's
    (signals, moves) pair of int8 and uint32 arrays of shape
    `w.shape + (N,)`, filled and returned.  A user's signal equals the
    world bit when the word's high 31 bits fall below
    `fixed_point(theta0)`, so with probability theta0 to within 2**-32.
    Her move is the word's low 31 bits, uniform on 0 .. 2**31 - 1: the
    engine plays it against `fixed_point` tables (`sim._Point.play`).
    Both halves are cut by integer arithmetic, not by a byte view, so they
    do not depend on byte order.
    """
    signals, moves = out
    words = rng.bit_generator.random_raw(moves.shape)
    match = signals.view(np.bool_)
    # high 31 bits below T  <=>  word <= T * 2**33 - 1, which fits in 64 bits as T <= 2**31
    np.less_equal(words, np.uint64((int(fixed_point(params.theta0)) << (64 - _MOVE_BITS)) - 1),
                  out=match)
    np.logical_xor(match, np.asarray(w)[..., None] == 0, out=match)
    np.copyto(moves, words, casting="unsafe")  # the low 32 bits
    moves &= np.uint32(FIXED_ONE - 1)
    return signals, moves
