"""Independent capacities in the large-population limit.

With iid capacities a prosumer hopes rivals' surplus covers their own
shortfall.  That hope is the coverage term h(x) of the first-order
condition (rho - E[u'])/lambda_rt = F(x)^N + h(x).  As the population
grows the right-hand side falls to the mean-field beta(x) * F(x), and the
game collapses to a scalar fixed point in beta and the symmetric offer.
Every number below is exact: nothing is sampled.
"""

import deragg as dg

cap = dg.iid_uniform(mu=10.0, sigma=3.3)


def game(n):
    return dg.GameScenario(n, cap.cbar + 1.0, cap, dg.linear_utility(2.5), 4.0, 4.0)


x = 12.0
f = dg.cdf_marginal(cap, x)
beta = (x - cap.mean) / dg.expected_shortfall(cap, x)
print(f"F^N + h at x = {x:g} falls toward the mean-field beta*F = {beta * f:.5f}:")
for n in (2, 4, 8, 12, 16, 32):
    h = dg.partial_coverage_term(game(n), x)
    print(f"  N={n:3d}  F^N={f**n:.5f}  h={h:.5f}  F^N+h={f**n + h:.5f}")

sc = game(8)
print("\nmean-field fixed point across prices:")
for rho in (2.4, 2.5, 3.0, 4.0, 5.5):
    sol = dg.meanfield_solve(sc, rho)
    print(f"  rho={rho:3.1f}  beta={sol.beta:6.4f}  x*={sol.x_star:8.4f}")
print("at the indifference price the offer equals the mean capacity, and")
print("above it prosumers offer more than they expect to have.\n")

# the coverage term vanishes under full dependence: a rival with surplus
# then means every prosumer has surplus
print("finite-N coverage correction (N=2):")
for x in (7.0, 9.0, 11.0):
    print(f"  x={x:4.1f}  h={dg.partial_coverage_term(game(2), x):.4f}")

eq, sol = dg.meanfield_stackelberg(sc)
print(f"\nmean-field pricing game: rho*={eq.rho_star:.4f}  x*={eq.x_star:.4f}"
      f"  beta={sol.beta:.4f}")
print("the leader settles at the indifference price and buys the mean capacity.")
