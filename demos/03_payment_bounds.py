"""Payment bounds: when is data collection (almost) free?

If the error target is loose enough, every user can play the zero-cost
majority baseline and the total payment can be pushed arbitrarily close to
zero.  Tighter targets need the equilibrium profile with real randomized
responses, whose expected payment this script evaluates; the Bhattacharyya
distances of the two profiles mark the crossover.
"""

import math

from privmarket import ModelParams, bhattacharyya, nd_moments, payment_bound, predict
from privmarket.analytics import mv_moments_equal_priors
from privmarket.config import apply_overrides, default_config
from privmarket.graph import DegreeDistribution
from privmarket.sim import run_experiment

params = ModelParams(prior_w1=0.5, theta0=0.7, alpha=0.25, epsilon=0.1, population=250)
dist = DegreeDistribution.binomial(249, 4.0 / 249.0)

nd, mv = nd_moments(params, dist), mv_moments_equal_priors(params, dist)
design = predict(params, mv.mu1, mv.kappa1)  # Z0, Z1 and the payout at the equilibrium
b_nd = bhattacharyya(250, *nd)
print(f"B(baseline) = {b_nd:.3f}  -> free-collection threshold e^-B = {math.exp(-b_nd):.4f}")
print(f"B(equilibrium) = {design.bhattacharyya:.3f} (>= baseline)\n")

for p_e in (0.5, math.exp(-b_nd), math.exp(-b_nd) / 10.0, 1e-4):
    rep = payment_bound(p_e, design, b_nd)
    if rep.regime == "slack":
        print(f"target P_e = {p_e:9.2e}: slack -- any delta*N total payment suffices")
    else:
        print(f"target P_e = {p_e:9.2e}: tight -- per-user bound {rep.bound_per_user:.4f}")

print("\nsimulated baseline run (all users non-disclosive, payments scaled for delta = 1e-6):")
(ref,) = run_experiment([apply_overrides(default_config(), ["sim.profile=nd", "sim.trials=300"])])
scale = 1e-6 / ref.analytic.payment_per_user
cfg = apply_overrides(
    default_config(),
    ["sim.profile=nd", "sim.trials=2000", f"mechanism.payment_scale={scale!r}"],
)
(result,) = run_experiment([cfg])
print(f"  avg privacy cost: {result.avg_privacy_cost.value} (exactly zero)")
print(f"  total payment:    {result.avg_payment_per_user.value * 250:.3e} "
      f"(target {1e-6 * 250:.3e})")
print(f"  accuracy:         {result.accuracy.value:.4f}")
