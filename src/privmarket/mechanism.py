"""Peer-prediction payment constants.

All operations are pure.  `design_Z` and `design_Z0_Z1` are composed with
the majority-consistency probability in one place, `analytics.predict`;
the engine in `sim` applies the resulting `MechanismConfig` to report
counts, and the per-user reference rules live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CostFunction

__all__ = [
    "MechanismConfig",
    "MechanismError",
    "design_Z",
    "design_Z0_Z1",
]


class MechanismError(ValueError):
    """Degenerate mechanism design inputs."""


@dataclass(frozen=True)
class MechanismConfig:
    """Payment constants: z1 pays a 1-report, z0 a 0-report, matching the others' majority."""

    z0: float
    z1: float

    def __post_init__(self) -> None:
        if self.z0 <= 0.0 or self.z1 <= 0.0:
            raise MechanismError("payment constants must be positive")


def design_Z(epsilon: float, theta0: float, cost: CostFunction) -> float:
    """Base design scalar for a target tie-level privacy epsilon.

    Z = g'(eps) (e^eps + 1)^2 / (2 e^eps (2 theta0 - 1)).  A zero marginal
    cost at eps makes every payment vanish; that degenerate case is raised
    rather than silently returned.
    """
    if epsilon < 0.0:
        raise MechanismError("epsilon must be >= 0")
    gp = cost.derivative(epsilon)
    if gp <= 0.0:
        raise MechanismError(
            f"payment design: model.cost has marginal cost g' = {gp:g} at model.epsilon = "
            f"{epsilon:g}; a zero marginal cost gives a degenerate zero payment"
        )
    ee = math.exp(epsilon)
    return gp * (ee + 1.0) ** 2 / (2.0 * ee * (2.0 * theta0 - 1.0))


def design_Z0_Z1(z: float, beta0: float, beta1: float, prior_w1: float) -> tuple[float, float]:
    """Per-report payment constants from the base scalar and majority accuracies."""
    if z <= 0.0:
        raise MechanismError("z must be positive")
    denom = beta0 + beta1 - 1.0
    if denom <= 0.0:
        raise MechanismError("need beta0 + beta1 > 1")
    p1 = prior_w1
    p0 = 1.0 - prior_w1
    if p0 <= 0.0 or p1 <= 0.0:
        raise MechanismError("priors must be interior")
    z0 = z * (p1 * beta1 + p0 * (1.0 - beta0)) / (denom * p1 * p0)
    z1 = z * (p1 * (1.0 - beta1) + p0 * beta0) / (denom * p1 * p0)
    return z0, z1
