"""Command line: validate scenarios, solve equilibria, build offer curves,
clear markets, run sweeps, and emit figure-ready CSV files.

Exit codes: 0 ok, 2 invalid scenario or an ``--out`` that cannot be
written, 3 solver non-convergence or a ``sweep`` with a failed point,
4 closed-form admissibility violation.

``main(argv)`` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it after that, and it looks
up the ``cmd_<command>`` handler on this module at each call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .closedform import (
    UniformLinearParams,
    closed_form_equilibrium,
    closed_form_params,
    inverse_supply_aggregated,
    inverse_supply_direct,
    procurement_costs,
)
from .equilibrium import meanfield_stackelberg, stackelberg_solve
from .errors import (
    AdmissibilityError,
    MarketInfeasibleError,
    SolverError,
    ValidationError,
)
from .market import (
    TIE_RULE,
    clear_market,
    der_curves,
    price_of_aggregation,
)
from .penalty import penalty_shares
from .scenario import SCHEMA_VERSION, ScenarioFile, SolverSettings, apply_sweep_value, load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_ADMISSIBILITY = 4

# reference parameter set behind the figure commands
FIG_PARAMS = UniformLinearParams(gamma=2.5, mu=10.0, sigma=3.3, lambda_da=4.0, lambda_rt=4.0)
FIG_KAPPA = 3.25
FIG_DEMAND_PER_PROSUMER = 10.0
FIG_SIGMA_SWEEP = (3.30, 5.77, 26)
FIG_MU_SWEEP = (6.0, 10.0, 21)
FIG4_FIXED_QUANTITY = 3.0

FIGURE_NAMES = ("fig3", "fig4", "fig5", "fig6-left", "fig6-right")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.10g}"
    if v is None:
        return ""
    return str(v)


def _render_csv(meta: dict, rows: list[dict]) -> str:
    """``#`` metadata lines, then the rows, whose keys name the columns."""
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(rows[0]))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # remove, then create: truncating the old file (or renaming over it)
    # makes ext4 flush it on close (auto_da_alloc), which stalls every
    # write when output is rerun into the same directory
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _settings(args, solver: SolverSettings) -> SolverSettings:
    """``solver`` with ``--seed`` and ``--draws`` applied.

    The seed is applied, and so checked, before the draw count.
    """
    if args.seed is not None:
        solver = replace(solver, seed=args.seed)
    if args.draws is not None:
        solver = replace(solver, draws=args.draws)
    return solver


def _load(args) -> ScenarioFile:
    """The command's scenario file, its solver settings after the overrides."""
    sf = load_scenario(args.file)
    return replace(sf, solver=_settings(args, sf.solver))


def _write(args, sf: ScenarioFile, rows: list[dict], **meta) -> None:
    """The rows as CSV to ``--out``, after the run's metadata and ``meta``."""
    s = sf.solver
    head = {"schema_version": SCHEMA_VERSION, "seed": s.seed, "draws": s.draws,
            "build": f"deragg-{__version__}", **meta}
    _emit(_render_csv(head, rows), args.out)


def _solve(sf: ScenarioFile, mean_field: bool = False):
    """The finite-N or mean-field equilibrium under the scenario file's solver settings."""
    s = sf.solver
    leader = meanfield_stackelberg if mean_field else stackelberg_solve
    return leader(sf.scenario, grid_points=s.rho_grid_points, draws=s.draws, seed=s.seed)


def _penalty_axiom_issues(seed: int, instances: int = 10_000) -> list[str]:
    """Randomized check of the five sharing axioms; returns violation notes.

    Instances are drawn and checked in batches of ``_AXIOM_BATCH``, one
    ``penalty_shares`` call per batch; a single 10k-row batch would raise
    the process's peak memory by several megabytes.
    """
    rng = np.random.default_rng(seed)
    failed = set()
    for start in range(0, instances, _AXIOM_BATCH):
        failed |= _axiom_violations(rng, min(_AXIOM_BATCH, instances - start))
    return [f"{axiom} violated" for axiom in _AXIOMS if axiom in failed]


_AXIOMS = ("nonnegativity", "budget balance", "no-exploitation", "monotonicity", "symmetry")
_AXIOM_BATCH = 1_000


def _axiom_violations(rng, k: int) -> set[str]:
    """Axioms violated by ``k`` random instances of 2 to 8 prosumers.

    Rows are padded to 8 prosumers with zero offers and capacities, which
    owe nothing, and one pair per row is forced to equal shortfalls.
    """
    rows = np.arange(k)
    n = rng.integers(2, 9, size=k)
    cbar = rng.uniform(1.0, 20.0, size=k)
    active = np.arange(8) < n[:, None]
    x = np.where(active, rng.uniform(0.0, 1.0, (k, 8)) * cbar[:, None], 0.0)
    c = np.where(active, rng.uniform(0.0, 1.0, (k, 8)) * cbar[:, None], 0.0)
    i = rng.integers(0, n)
    j = rng.integers(0, n)
    c[rows, j] = np.clip(x[rows, j] - (x[rows, i] - c[rows, i]), 0.0, cbar)
    lam = rng.uniform(0.0, 10.0, size=k)

    shares = penalty_shares(x, c, lam)
    pool = lam * np.maximum(x.sum(axis=1) - c.sum(axis=1), 0.0)
    net = x - c
    tied = np.abs(net[rows, i] - net[rows, j]) <= 1e-12
    ranked = np.take_along_axis(shares, np.argsort(net, axis=1), axis=1)
    holds = {
        "nonnegativity": np.all(shares >= 0.0),
        "budget balance":
            np.all(np.abs(shares.sum(axis=1) - pool) <= 1e-9 * np.maximum(pool, 1.0)),
        "no-exploitation": np.all(shares[net <= 0.0] == 0.0),
        "monotonicity": np.all(np.diff(ranked, axis=1) >= -1e-12),
        "symmetry": np.all(np.abs(shares[rows, i] - shares[rows, j])[tied] <= 1e-9),
    }
    return {axiom for axiom, ok in holds.items() if not ok}


def cmd_validate(args) -> int:
    # nothing here samples, but a bad draws override is still an error
    sf = _load(args)
    issues = _penalty_axiom_issues(sf.solver.seed)
    if args.closed_form:
        closed_form_params(sf.scenario)  # AdmissibilityError where the closed form fails
    report = [
        f"scenario: ok ({args.file})",
        f"penalty axioms: {'ok' if not issues else '; '.join(issues)}",
    ]
    _emit("\n".join(report) + "\n", args.out)
    return EXIT_OK if not issues else EXIT_INVALID


def cmd_equilibrium(args) -> int:
    sf = _load(args)
    if args.mean_field:
        res, sol = _solve(sf, mean_field=True)
        extra = {"beta": sol.beta}
    else:
        res = _solve(sf)
        d = res.diagnostics
        extra = {"concavity_ok": d.concavity_ok, "multiple_maxima": d.multiple_maxima}
    _write(args, sf, [{"rho_star": res.rho_star, "x_star": res.x_star,
                       "aggregate_x": res.aggregate_x, "leader_profit": res.leader_profit,
                       **extra}])
    print(
        f"rho_star={res.rho_star:.6g} x_star={res.x_star:.6g} profit={res.leader_profit:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_supply_curve(args) -> int:
    sf = _load(args)
    s = sf.solver
    build, _ = der_curves(sf.scenario, "numeric", s.draws, s.seed, s.rho_grid_points)
    curve = build[args.mode]()
    _write(args, sf, [{"quantity": q, "price": p} for q, p in curve.breakpoints])
    return EXIT_OK


def cmd_dispatch(args) -> int:
    sf = _load(args)
    demand = sf.demand_per_prosumer * sf.scenario.n_prosumers
    curve = None
    if args.mode != "noder":
        s = sf.solver
        build, _ = der_curves(sf.scenario, args.curve_source, s.draws, s.seed,
                              s.rho_grid_points)
        curve = build[args.mode]()  # only the curve that clears
    outcome = clear_market(sf.generators, demand, curve)
    _write(args, sf, [{
        "mode": "aggregated" if args.mode == "agg" else args.mode,
        "clearing_price": outcome.clearing_price,
        "cleared_der": outcome.cleared_der,
        "cleared_generation": sum(outcome.cleared_generator),
        "total_cost": outcome.total_cost,
    }], tie_rule=TIE_RULE)
    return EXIT_OK


def _poag(sf: ScenarioFile, curve_source: str):
    """The PoAg report of the scenario file and its six shared CSV columns."""
    s = sf.solver
    rep = price_of_aggregation(
        sf.scenario, sf.generators, sf.demand_per_prosumer,
        curve_source=curve_source, draws=s.draws, seed=s.seed, grid_points=s.rho_grid_points,
    )
    return rep, {
        "cost_aggregated": rep.cost_aggregated, "cost_direct": rep.cost_direct,
        "cost_noder": rep.cost_noder, "poag": rep.poag,
        "cleared_der_aggregated": rep.outcome_aggregated.cleared_der,
        "cleared_der_direct": rep.outcome_direct.cleared_der,
    }


def cmd_poag(args) -> int:
    sf = _load(args)
    report, columns = _poag(sf, args.curve_source)
    _write(args, sf, [{**columns, "demand": report.demand,
                       "curve_source": report.curve_source}])
    print(f"poag={report.poag:.6g}", file=sys.stderr)
    return EXIT_OK


# the columns of an ok sweep row, which a failed point's row leaves empty
_SWEEP_COLUMNS = [
    "value", "rho_star", "x_star", "aggregate_x",
    "cost_aggregated", "cost_direct", "cost_noder", "poag",
    "cleared_der_aggregated", "cleared_der_direct",
    "concavity_ok", "multiple_maxima", "status",
]


def _sweep_point(sf: ScenarioFile, parameter: str, value: float) -> dict:
    try:
        point = apply_sweep_value(sf, parameter, value)
        res = _solve(point)
        _, poag_columns = _poag(point, "auto")
        d = res.diagnostics
        return {
            "value": value, "rho_star": res.rho_star, "x_star": res.x_star,
            "aggregate_x": res.aggregate_x, **poag_columns,
            "concavity_ok": d.concavity_ok, "multiple_maxima": d.multiple_maxima,
            "status": "ok",
        }
    except (ValidationError, AdmissibilityError, SolverError, MarketInfeasibleError) as exc:
        reason = str(exc).replace(",", ";").replace("\n", " ")
        return {**dict.fromkeys(_SWEEP_COLUMNS), "value": value, "status": f"failed: {reason}"}


def cmd_sweep(args) -> int:
    sf = _load(args)
    if sf.sweep is None:
        raise ValidationError(f"{args.file} has no sweep block")
    values = np.linspace(sf.sweep.start, sf.sweep.stop, sf.sweep.steps)
    rows = [_sweep_point(sf, sf.sweep.parameter, float(v)) for v in values]
    _write(args, sf, rows, sweep_parameter=sf.sweep.parameter)
    n_failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} points, {n_failed} failed", file=sys.stderr)
    return EXIT_OK if n_failed == 0 else EXIT_SOLVER


def _figure_tables(name: str):
    """(filename, rows) tables for one named reference figure."""
    sigmas = np.linspace(*FIG_SIGMA_SWEEP)
    if name == "fig3":
        rows_curve, rows_eq = [], []
        for sigma in (3.3, 3.9, 4.5, 5.1, 5.7):
            rho_star, curve = closed_form_equilibrium(replace(FIG_PARAMS, sigma=sigma))
            for rho in np.linspace(FIG_PARAMS.gamma, FIG_PARAMS.gamma + FIG_PARAMS.lambda_rt, 51):
                rows_curve.append({"sigma": sigma, "rho": rho, "x_star": curve(rho)})
            rows_eq.append({"sigma": sigma, "rho_star": rho_star, "x_star": curve(rho_star)})
        return [("fig3_offer_curves.csv", rows_curve), ("fig3_equilibrium.csv", rows_eq)]
    if name == "fig4":
        hi = FIG_PARAMS.support[1]
        rows_agg = [{"quantity": q, "price": inverse_supply_aggregated(FIG_PARAMS, q)}
                    for q in np.linspace(0.0, hi / 2.0, 41)]
        rows_dir = [{"quantity": q, "price": inverse_supply_direct(FIG_PARAMS, q)}
                    for q in np.linspace(0.0, hi, 41)]
        rows_sigma = []
        for sigma in sigmas:
            ps = replace(FIG_PARAMS, sigma=sigma)
            rows_sigma.append({
                "sigma": sigma,
                "price_aggregated": inverse_supply_aggregated(ps, FIG4_FIXED_QUANTITY),
                "price_direct": inverse_supply_direct(ps, FIG4_FIXED_QUANTITY),
            })
        return [
            ("fig4_offer_aggregated.csv", rows_agg),
            ("fig4_offer_direct.csv", rows_dir),
            ("fig4_price_vs_sigma.csv", rows_sigma),
        ]
    if name in ("fig5", "fig6-left"):
        rows_cost, rows_clear, rows_poag = [], [], []
        for sigma in sigmas:
            c = procurement_costs(replace(FIG_PARAMS, sigma=sigma), FIG_KAPPA,
                                  FIG_DEMAND_PER_PROSUMER)
            rows_cost.append({"sigma": sigma, "cost_noder": c.cost_noder,
                              "cost_aggregated": c.cost_aggregated,
                              "cost_direct": c.cost_direct})
            # the aggregator clears half of what direct participation clears
            rows_clear.append({"sigma": sigma, "cleared_aggregated": 0.5 * c.q_star,
                               "cleared_direct": c.q_star})
            rows_poag.append({"sigma": sigma, "poag": c.poag})
        if name == "fig5":
            return [("fig5_costs.csv", rows_cost), ("fig5_cleared_der.csv", rows_clear)]
        return [("fig6_left_poag_vs_sigma.csv", rows_poag)]
    if name == "fig6-right":
        mu_lo, mu_hi, mu_n = FIG_MU_SWEEP
        rows = []
        for mu in np.linspace(mu_lo, mu_hi, mu_n):
            poag = procurement_costs(replace(FIG_PARAMS, mu=mu), FIG_KAPPA,
                                     FIG_DEMAND_PER_PROSUMER).poag
            rows.append({"mu": mu, "integration_pct": 100.0 * mu / mu_hi, "poag": poag})
        return [("fig6_right_poag_vs_integration.csv", rows)]
    raise ValidationError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")


def cmd_figures(args) -> int:
    # nothing here samples, but a bad draws override is still an error
    seed = _settings(args, SolverSettings()).seed
    os.makedirs(args.out, exist_ok=True)
    # every figure is a closed form: no draw count applies
    meta = {"schema_version": SCHEMA_VERSION, "seed": seed, "build": f"deragg-{__version__}"}
    written = []
    for filename, rows in _figure_tables(args.name):
        path = os.path.join(args.out, filename)
        _emit(_render_csv(meta, rows), path)
        written.append(path)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _add_common(sub, out_dir=False):
    sub.add_argument("--seed", type=int, default=None, help="seed override")
    sub.add_argument("--draws", type=int, default=None, help="Monte-Carlo draws override")
    if out_dir:  # the command writes several files
        sub.add_argument("--out", required=True, help="output directory")
    else:
        sub.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deragg",
        description="DER aggregation game equilibria and market clearing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file and the sharing axioms")
    p.add_argument("file")
    p.add_argument("--closed-form", action="store_true",
                   help="also require closed-form admissibility (exit 4 if violated)")
    _add_common(p)

    p = sub.add_parser("equilibrium", help="solve the pricing game")
    p.add_argument("file")
    p.add_argument("--mean-field", action="store_true",
                   help="solve the large-N mean-field game instead")
    _add_common(p)

    p = sub.add_parser("supply-curve", help="tabulate a wholesale offer curve")
    p.add_argument("file")
    p.add_argument("--mode", choices=("agg", "direct"), required=True)
    _add_common(p)

    p = sub.add_parser("dispatch", help="clear the day-ahead market once")
    p.add_argument("file")
    p.add_argument("--mode", choices=("agg", "direct", "noder"), required=True)
    p.add_argument("--curve-source", choices=("auto", "closedform", "numeric"), default="auto")
    _add_common(p)

    p = sub.add_parser("poag", help="price of aggregation across the three modes")
    p.add_argument("file")
    p.add_argument("--curve-source", choices=("auto", "closedform", "numeric"), default="auto")
    _add_common(p)

    p = sub.add_parser("sweep", help="run the scenario's sweep block")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("figures", help="emit plot-ready CSV for a named reference figure")
    p.add_argument("name", choices=FIGURE_NAMES)
    _add_common(p, out_dir=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up now, not bound into the parser, so a replaced cmd_* is the one called
    handler = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return handler(args)
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (ValidationError, MarketInfeasibleError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"solver failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # only a write gets here: a scenario that cannot be read is invalid
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
