"""Equilibrium and market-efficiency toolkit for aggregated DER supply.

A profit-seeking aggregator buys uncertain DER capacity from prosumers at a
posted price and resells it day-ahead; shortfall buy-back costs are shared
among the prosumers who caused them.  This package solves the resulting
pricing game, constructs the implied wholesale supply offers, clears a
stylized day-ahead market under aggregated vs. direct DER participation,
and reports the price of aggregation (the cost ratio between the two).
"""

from .agents import (
    EquilibriumResult,
    GameScenario,
    SolverDiagnostics,
    UtilitySpec,
    linear_utility,
    prosumer_payoff,
    tabulated_utility,
)
from .capacity import (
    SQRT3,
    CapacityModel,
    cdf_marginal,
    dependent_uniform,
    deterministic,
    expected_shortfall,
    iid_uniform,
    sample,
)
from .closedform import (
    AffineOfferCurve,
    ProcurementCosts,
    UniformLinearParams,
    closed_form_equilibrium,
    closed_form_params,
    inverse_supply_aggregated,
    inverse_supply_direct,
    procurement_costs,
    sigma_band,
)
from .equilibrium import (
    MeanFieldSolution,
    follower_foc_gap,
    meanfield_solve,
    meanfield_stackelberg,
    offer_price_bounds,
    partial_coverage_term,
    stackelberg_solve,
    symmetric_follower_response,
)
from .errors import (
    AdmissibilityError,
    DerAggError,
    MarketInfeasibleError,
    SolverError,
    ValidationError,
)
from .market import (
    DispatchOutcome,
    GeneratorSpec,
    PoAgReport,
    SupplyCurve,
    aggregated_affine_curve,
    build_supply_curve_aggregated,
    build_supply_curve_direct,
    clear_market,
    der_curves,
    direct_affine_curve,
    price_of_aggregation,
)
from .penalty import expected_penalty, penalty_shares

__version__ = "0.1.0"
