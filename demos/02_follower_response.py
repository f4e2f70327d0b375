"""The symmetric prosumer response to the aggregator's posted price.

Prosumers offer nothing below the price floor (selling is worse than
consuming), everything above the ceiling (the shortfall risk is priced in),
and in between the offer solves a scalar first-order condition.
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

rho_min, rho_max = dg.offer_price_bounds(sc)
print(f"price floor  rho_min = {rho_min}   (marginal utility)")
print(f"price cap    rho_max = {rho_max}   (floor + real-time price)")

print("\nrho   ->  x*(rho)")
for rho in np.linspace(2.0, 7.0, 11):
    x = dg.symmetric_follower_response(sc, float(rho))
    print(f"{rho:4.1f}  ->  {x:8.4f}")

# The first-order-condition gap is the quantity the solver drives to zero:
# positive gap means the prosumer wants to offer more.
rho = 3.0
print(f"\nfirst-order gap at rho={rho}:")
for x in (4.0, 5.0, 5.7132, 7.0, 10.0):
    g = dg.follower_foc_gap(sc, rho, x)
    print(f"  x={x:7.4f}   gap={g:+.5f}")
print("the solver brackets the sign change by bisection; here the root is")
print("x* =", dg.symmetric_follower_response(sc, rho))
