"""Scenario file ingestion: strict JSON with explicit schema versioning.

Unknown keys are fatal so a typo cannot silently fall back to a default,
and every domain invariant is revalidated on load through the regular
constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .agents import TABULATED, GameScenario, UtilitySpec, linear_utility, tabulated_utility
from .capacity import (
    DEPENDENT_UNIFORM,
    DETERMINISTIC,
    IID_UNIFORM,
    CapacityModel,
    check_seed,
    dependent_uniform,
    deterministic,
    iid_uniform,
)
from .equilibrium import DEFAULT_GRID_POINTS, DEFAULT_TOL_X
from .errors import ValidationError
from .market import GeneratorSpec
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

SCHEMA_VERSION = "1"

SWEEPABLE = (
    "sigma",
    "mu",
    "gamma",
    "kappa",
    "lambda_da",
    "lambda_rt",
    "demand_per_prosumer",
)


@dataclass(frozen=True)
class SolverSettings:
    draws: int = DEFAULT_DRAWS
    seed: int = DEFAULT_SEED
    tol_x: float = DEFAULT_TOL_X
    rho_grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.draws < 1:
            raise ValidationError(f"draws must be >= 1, got {self.draws}")
        if self.rho_grid_points < 4:
            raise ValidationError(f"rho_grid_points must be >= 4, got {self.rho_grid_points}")
        check_seed(self.seed)
        if self.tol_x <= 0.0:
            raise ValidationError(f"tol_x must be positive, got {self.tol_x}")


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValidationError(
                f"sweep parameter {self.parameter!r} not in {SWEEPABLE}"
            )
        if self.steps < 2:
            raise ValidationError("sweep needs at least 2 steps")


@dataclass(frozen=True)
class ScenarioFile:
    """Full contents of one scenario file."""

    schema_version: str
    scenario: GameScenario
    generators: tuple[GeneratorSpec, ...]
    demand_per_prosumer: float
    solver: SolverSettings
    sweep: SweepSettings | None

    def __post_init__(self):
        if self.demand_per_prosumer < 0.0:
            raise ValidationError("demand_per_prosumer must be nonnegative")


def _take(mapping, where, required=(), optional=()):
    """Pop known keys; anything left over is a fatal unknown key."""
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where}: expected an object")
    data = dict(mapping)
    out = {}
    for key in required:
        if key not in data:
            raise ValidationError(f"{where}: missing required key {key!r}")
        out[key] = data.pop(key)
    for key in optional:
        if key in data:
            out[key] = data.pop(key)
    if data:
        raise ValidationError(f"{where}: unknown keys {sorted(data)}")
    return out


def _integer(value, where: str) -> int:
    """``value`` as an int: an int, or a float with an integral value such as 1e4."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{where} must be an integer, got {value!r}")


def _capacity_from(obj) -> CapacityModel:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == DETERMINISTIC:
        f = _take(obj, "capacity", required=("kind", "cbar"))
        return deterministic(float(f["cbar"]))
    if kind in (DEPENDENT_UNIFORM, IID_UNIFORM):
        f = _take(obj, "capacity", required=("kind", "mu", "sigma"), optional=("cbar",))
        maker = dependent_uniform if kind == DEPENDENT_UNIFORM else iid_uniform
        cbar = float(f["cbar"]) if "cbar" in f else None
        return maker(float(f["mu"]), float(f["sigma"]), cbar)
    raise ValidationError(f"capacity: unknown kind {kind!r}")


def _utility_from(obj) -> UtilitySpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "linear":
        f = _take(obj, "utility", required=("kind", "gamma"))
        return linear_utility(float(f["gamma"]))
    if kind == "tabulated":
        f = _take(obj, "utility", required=("kind", "marginal_points"))
        return tabulated_utility([(float(z), float(m)) for z, m in f["marginal_points"]])
    raise ValidationError(f"utility: unknown kind {kind!r}")


def _generator_from(obj, idx) -> GeneratorSpec:
    f = _take(obj, f"generators[{idx}]", required=("kappa",), optional=("qmin", "qmax", "segments"))
    qmax = f.get("qmax", None)
    return GeneratorSpec(
        kappa=float(f["kappa"]),
        qmin=float(f.get("qmin", 0.0)),
        qmax=float("inf") if qmax is None else float(qmax),
        segments=tuple((float(p), float(w)) for p, w in f["segments"]) if "segments" in f else None,
    )


def parse_scenario(data: dict, where: str = "scenario file") -> ScenarioFile:
    top = _take(
        data,
        where,
        required=("schema_version", "scenario", "generators", "demand_per_prosumer"),
        optional=("solver", "sweep"),
    )
    if str(top["schema_version"]) != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {top['schema_version']!r}; expected {SCHEMA_VERSION!r}"
        )
    sc = _take(
        top["scenario"],
        "scenario",
        required=("n_prosumers", "d0", "capacity", "utility", "lambda_da", "lambda_rt"),
    )
    game = GameScenario(
        n_prosumers=_integer(sc["n_prosumers"], "scenario.n_prosumers"),
        d0=float(sc["d0"]),
        capacity=_capacity_from(sc["capacity"]),
        utility=_utility_from(sc["utility"]),
        lambda_da=float(sc["lambda_da"]),
        lambda_rt=float(sc["lambda_rt"]),
    )
    gens = top["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValidationError("generators: expected a nonempty list")
    generators = tuple(_generator_from(g, i) for i, g in enumerate(gens))

    solver = SolverSettings()
    if "solver" in top:
        f = _take(
            top["solver"], "solver",
            # older files still set the retired price tolerance: accepted, ignored
            optional=("draws", "seed", "tol_x", "tol_rho", "rho_grid_points"),
        )
        solver = SolverSettings(
            draws=_integer(f.get("draws", solver.draws), "solver.draws"),
            seed=_integer(f.get("seed", solver.seed), "solver.seed"),
            tol_x=float(f.get("tol_x", solver.tol_x)),
            rho_grid_points=_integer(f.get("rho_grid_points", solver.rho_grid_points),
                                     "solver.rho_grid_points"),
        )
    sweep = None
    if "sweep" in top:
        f = _take(top["sweep"], "sweep", required=("parameter", "from", "to", "steps"))
        sweep = SweepSettings(
            parameter=str(f["parameter"]),
            start=float(f["from"]),
            stop=float(f["to"]),
            steps=_integer(f["steps"], "sweep.steps"),
        )
    return ScenarioFile(
        schema_version=SCHEMA_VERSION,
        scenario=game,
        generators=generators,
        demand_per_prosumer=float(top["demand_per_prosumer"]),
        solver=solver,
        sweep=sweep,
    )


def load_scenario(path) -> ScenarioFile:
    """Parse and validate one scenario file; raises ValidationError on any issue."""
    def reject_non_finite(token):
        raise ValidationError(f"{path}: non-finite number {token:.20} is not allowed")

    def finite(token, kind):
        # a literal such as 1e999, or an integer of 400 digits, overflows a float
        return kind(token) if math.isfinite(float(token)) else reject_non_finite(token)

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=reject_non_finite,
                             parse_float=lambda t: finite(t, float),
                             parse_int=lambda t: finite(t, int))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(data, where=str(path))


def apply_sweep_value(sf: ScenarioFile, parameter: str, value: float) -> ScenarioFile:
    """Copy of the scenario file with one swept parameter substituted."""
    game = sf.scenario
    cap = game.capacity
    if parameter in ("sigma", "mu"):
        if cap.kind == DETERMINISTIC:
            raise ValidationError(f"cannot sweep {parameter!r} on deterministic capacity")
        mu = value if parameter == "mu" else cap.mu
        sigma = value if parameter == "sigma" else cap.sigma
        maker = dependent_uniform if cap.kind == DEPENDENT_UNIFORM else iid_uniform
        # an explicit cbar above the support stays; a default one follows the support
        new_cap = maker(mu, sigma, cap.cbar if cap.cbar > cap.support[1] else None)
        # keep d0 above the (possibly grown) installed capacity; with linear
        # utility d0 never affects best responses, only a payoff constant
        d0 = max(game.d0, new_cap.cbar * (1.0 + 1e-9) + 1e-9)
        game = replace(game, capacity=new_cap, d0=d0)
    elif parameter == "gamma":
        if game.utility.kind == TABULATED:
            # the table, not gamma, gives a tabulated utility's marginal
            raise ValidationError("cannot sweep gamma on a tabulated utility")
        game = replace(game, utility=linear_utility(value))
    elif parameter in ("lambda_da", "lambda_rt"):
        game = replace(game, **{parameter: value})
    elif parameter == "kappa":
        if sf.generators[0].segments is not None:
            # the segments, not kappa, price a segmented generator's output
            raise ValidationError("cannot sweep kappa on a generator with segments")
        gens = (replace(sf.generators[0], kappa=value),) + sf.generators[1:]
        return replace(sf, generators=gens)
    elif parameter == "demand_per_prosumer":
        return replace(sf, demand_per_prosumer=value)
    else:
        raise ValidationError(f"unknown sweep parameter {parameter!r}")
    return replace(sf, scenario=game)
