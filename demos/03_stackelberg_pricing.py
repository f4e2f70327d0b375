"""The aggregator's pricing problem and its closed-form check.

The leader trades off margin against volume: a higher posted price attracts
more DER supply but shrinks the day-ahead arbitrage spread.  For uniform
fully dependent capacity with linear utility the equilibrium has a closed
form, so the numeric search can be verified exactly.
"""

import numpy as np

import deragg as dg

sc = dg.GameScenario(
    n_prosumers=1,
    d0=20.0,
    capacity=dg.dependent_uniform(mu=10.0, sigma=3.3),
    utility=dg.linear_utility(2.5),
    lambda_da=4.0,
    lambda_rt=4.0,
)

print("leader profit along the price grid:")
for rho in np.linspace(2.5, 4.0, 7):
    x = dg.symmetric_follower_response(sc, float(rho))
    print(f"  rho={rho:5.3f}  x*={x:7.4f}  profit={(4.0 - rho) * x:8.4f}")

res = dg.stackelberg_solve(sc)
rho_cf, curve = dg.closed_form_equilibrium(dg.closed_form_params(sc))
print(f"\nnumeric : rho* = {res.rho_star:.6f}  x* = {res.x_star:.6f}")
print(f"closed  : rho* = {rho_cf:.6f}  x* = {curve(rho_cf):.6f}")
print(f"profit  : {res.leader_profit:.6f}   concave on the hull: {res.diagnostics.concavity_ok}")

print("\nmore uncertainty -> higher posted price, smaller offers:")
for sigma in (3.3, 4.0, 4.8, 5.6):
    cap = dg.dependent_uniform(10.0, sigma)
    sig_sc = dg.GameScenario(1, cap.cbar + 1.0, cap, dg.linear_utility(2.5), 4.0, 4.0)
    r = dg.stackelberg_solve(sig_sc)
    print(f"  sigma={sigma:3.1f}  rho*={r.rho_star:6.4f}  x*={r.x_star:7.4f}")
