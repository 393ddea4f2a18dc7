"""How the equilibrium reporting strategy splits into regimes.

A user with d friends sees her own signal s and the sum f of her d noisy
group signals.  At equilibrium she reports the group majority outright
(non-disclosive, zero privacy cost) when f is far from d/2, and otherwise
randomizes her own signal at privacy level epsilon.  This script prints the
per-(d, f) regime map and shows how the randomization band widens with the
group-signal noise alpha and with the payment level epsilon.
"""

import numpy as np

from privmarket import ModelParams, build_mv_strategy, equal_priors_tau


def show_table(params: ModelParams, d_max: int = 8) -> None:
    tau = equal_priors_tau(params)
    print(f"theta0={params.theta0}  alpha={params.alpha}  epsilon={params.epsilon}"
          f"  -> theta1={params.theta1:.3f}, band half-width tau={tau:.4f}")
    for d in range(d_max + 1):
        strat = build_mv_strategy(d, params)
        cells = []
        for f in range(d + 1):
            if strat.sr[f]:
                cells.append("SR")
            else:
                cells.append("0 " if strat.p1[f, 0] == 0.0 else "1 ")
        print(f"  d={d}: f=0..{d}: " + " ".join(cells))
    print()


print("=== noiseless group signals: simple majority, randomize only at ties ===")
show_table(ModelParams(prior_w1=0.5, theta0=0.7, alpha=0.0, epsilon=0.3))

print("=== noisy group signals: the band appears once tau reaches 1 ===")
show_table(ModelParams(prior_w1=0.5, theta0=0.7, alpha=0.25, epsilon=0.5))
show_table(ModelParams(prior_w1=0.5, theta0=0.7, alpha=0.45, epsilon=2.0))

print("=== band width vs alpha (epsilon = 0.5) ===")
for alpha in np.arange(0.0, 0.46, 0.05):
    params = ModelParams(prior_w1=0.5, theta0=0.7, alpha=round(float(alpha), 2), epsilon=0.5)
    print(f"  alpha={alpha:4.2f}: tau = {equal_priors_tau(params):.4f}")

print("\n=== unequal priors: the solved privacy level shifts away from epsilon ===")
from privmarket import solve_xi

params = ModelParams(prior_w1=0.7, theta0=0.7, alpha=0.25, epsilon=0.5)
for f in range(5):
    print(f"  d=4, f={f}: xi(f) = {solve_xi(f, 4, params):.4f}")
