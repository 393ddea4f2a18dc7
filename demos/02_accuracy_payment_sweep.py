"""Estimation accuracy and payments as social learning strengthens.

Sweeps the average degree of an Erdos-Renyi social graph with everything
else at the defaults (N = 250, equal priors, theta0 = 0.7, alpha = 0.25,
epsilon = 0.1, quadratic cost) and compares Monte Carlo estimates with the
closed-form predictions: richer social learning improves the collector's
accuracy while driving the users' privacy costs down.
"""

from privmarket.config import apply_overrides, default_config
from privmarket.sim import sweep, sweep_csv

cfg = apply_overrides(default_config(), [
    "sim.trials=1500", "sim.workers=2", "sweep.axis=avg_degree", "sweep.values=1,2,4,8,16"])
results = sweep(cfg)

print(f"{'E[D]':>5} {'accuracy':>9} {'payment/user':>13} {'privacy cost':>13}"
      f" {'mu1 (mc)':>9} {'mu1 (cf)':>9} {'beta':>8}")
for r in results:
    print(
        f"{r.axis_value:5.0f} {r.accuracy.value:9.4f} {r.avg_payment_per_user.value:13.4f}"
        f" {r.avg_privacy_cost.value:13.6f} {r.empirical_mu1.value:9.4f}"
        f" {r.analytic.mu1:9.4f} {r.analytic.beta:8.5f}"
    )

print("\nplot-ready CSV:\n")
print(sweep_csv(results))
