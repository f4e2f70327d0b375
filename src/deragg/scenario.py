"""Scenario file ingestion: strict JSON with explicit schema versioning.

Unknown keys are fatal so a typo cannot silently fall back to a default,
and every domain invariant is revalidated on load through the regular
constructors.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace

from .agents import GameScenario, UtilitySpec, linear_utility, tabulated_utility
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
from .equilibrium import DEFAULT_GRID_POINTS, _check_grid
from .errors import ValidationError, as_number, as_pairs
from .market import GeneratorSpec
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

SCHEMA_VERSION = "1"

# each sweepable parameter and the key of the scenario file it replaces
SWEEPABLE = {
    "sigma": ("scenario", "capacity", "sigma"),
    "mu": ("scenario", "capacity", "mu"),
    "gamma": ("scenario", "utility", "gamma"),
    "kappa": ("generators", 0, "kappa"),
    "lambda_da": ("scenario", "lambda_da"),
    "lambda_rt": ("scenario", "lambda_rt"),
    "demand_per_prosumer": ("demand_per_prosumer",),
}


@dataclass(frozen=True)
class SolverSettings:
    draws: int = DEFAULT_DRAWS
    seed: int = DEFAULT_SEED
    rho_grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.draws < 1:
            raise ValidationError(f"draws must be >= 1, got {self.draws}")
        _check_grid(self.rho_grid_points)
        check_seed(self.seed)


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValidationError(
                f"sweep parameter {self.parameter!r} not in {tuple(SWEEPABLE)}"
            )
        if self.steps < 2:
            raise ValidationError("sweep needs at least 2 steps")


@dataclass(frozen=True)
class ScenarioFile:
    """Full contents of one scenario file, and the mapping it was parsed from."""

    scenario: GameScenario
    generators: tuple[GeneratorSpec, ...]
    demand_per_prosumer: float
    solver: SolverSettings
    sweep: SweepSettings | None
    source: dict = field(compare=False, repr=False)

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
        return deterministic(as_number(f["cbar"], "capacity.cbar"))
    if kind in (DEPENDENT_UNIFORM, IID_UNIFORM):
        f = _take(obj, "capacity", required=("kind", "mu", "sigma"), optional=("cbar",))
        maker = dependent_uniform if kind == DEPENDENT_UNIFORM else iid_uniform
        cbar = as_number(f["cbar"], "capacity.cbar") if "cbar" in f else None
        return maker(as_number(f["mu"], "capacity.mu"), as_number(f["sigma"], "capacity.sigma"), cbar)
    raise ValidationError(f"capacity: unknown kind {kind!r}")


def _utility_from(obj) -> UtilitySpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "linear":
        f = _take(obj, "utility", required=("kind", "gamma"))
        return linear_utility(as_number(f["gamma"], "utility.gamma"))
    if kind == "tabulated":
        f = _take(obj, "utility", required=("kind", "marginal_points"))
        return tabulated_utility(as_pairs(f["marginal_points"], "utility.marginal_points"))
    raise ValidationError(f"utility: unknown kind {kind!r}")


def _generator_from(obj, idx) -> GeneratorSpec:
    where = f"generators[{idx}]"
    f = _take(obj, where, required=("kappa",), optional=("qmin", "qmax", "segments"))
    qmax = f.get("qmax", None)
    return GeneratorSpec(
        kappa=as_number(f["kappa"], f"{where}.kappa"),
        qmin=as_number(f.get("qmin", 0.0), f"{where}.qmin"),
        qmax=float("inf") if qmax is None else as_number(qmax, f"{where}.qmax"),
        segments=as_pairs(f["segments"], f"{where}.segments") if "segments" in f else None,
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
        d0=as_number(sc["d0"], "scenario.d0"),
        capacity=_capacity_from(sc["capacity"]),
        utility=_utility_from(sc["utility"]),
        lambda_da=as_number(sc["lambda_da"], "scenario.lambda_da"),
        lambda_rt=as_number(sc["lambda_rt"], "scenario.lambda_rt"),
    )
    gens = top["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValidationError("generators: expected a nonempty list")
    generators = tuple(_generator_from(g, i) for i, g in enumerate(gens))

    solver = SolverSettings()
    if "solver" in top:
        f = _take(
            top["solver"], "solver",
            # older files still set the retired tolerances: accepted, ignored
            optional=("draws", "seed", "tol_x", "tol_rho", "rho_grid_points"),
        )
        solver = SolverSettings(
            draws=_integer(f.get("draws", solver.draws), "solver.draws"),
            seed=_integer(f.get("seed", solver.seed), "solver.seed"),
            rho_grid_points=_integer(f.get("rho_grid_points", solver.rho_grid_points),
                                     "solver.rho_grid_points"),
        )
    sweep = None
    if "sweep" in top:
        f = _take(top["sweep"], "sweep", required=("parameter", "from", "to", "steps"))
        sweep = SweepSettings(
            parameter=str(f["parameter"]),
            start=as_number(f["from"], "sweep.from"),
            stop=as_number(f["to"], "sweep.to"),
            steps=_integer(f["steps"], "sweep.steps"),
        )
    return ScenarioFile(
        scenario=game,
        generators=generators,
        demand_per_prosumer=as_number(top["demand_per_prosumer"], "demand_per_prosumer"),
        solver=solver,
        sweep=sweep,
        source=data,
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
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValidationError(f"{path}: JSON nested too deeply") from exc
    return parse_scenario(data, where=str(path))


def apply_sweep_value(sf: ScenarioFile, parameter: str, value: float) -> ScenarioFile:
    """The scenario file with the swept parameter's key set to ``value``.

    The point is parsed and checked as a file is, and keeps ``sf.solver``.
    """
    if parameter == "kappa" and sf.generators[0].segments is not None:
        # the segments, not kappa, price a segmented generator's output
        raise ValidationError("cannot sweep kappa on a generator with segments")
    data = copy.deepcopy(sf.source)
    *parents, key = SWEEPABLE[parameter]
    node = data
    for k in parents:
        node = node[k]
    if key not in node:  # e.g. sigma on deterministic capacity
        raise ValidationError(f"cannot sweep {parameter!r} on {node['kind']} {parents[-1]}")
    node[key] = value
    return replace(parse_scenario(data), solver=sf.solver)
