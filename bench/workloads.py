"""The benchmark's workloads: CLI command lists on fixed scenario inputs.

Each workload is a closed loop with one caller: the benchmark runs its
command list in order, again and again, in one process.  The workload seed
reaches the program only as ``--seed``.  Why each workload exists is in
``README.md`` next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

FIGURES = ("fig3", "fig4", "fig5", "fig6-left", "fig6-right")

# dependent uniform capacity, N=1, with a 4-knot nonincreasing marginal
# utility: only Monte-Carlo E[u'] makes it expensive
TABULATED_SCENARIO = {
    "schema_version": "1",
    "scenario": {
        "n_prosumers": 1,
        "d0": 16.5,
        "capacity": {"kind": "dependent_uniform", "mu": 10.0, "sigma": 3.3},
        "utility": {"kind": "tabulated",
                    "marginal_points": [[0.0, 3.4], [12.0, 2.8], [22.0, 2.2], [34.0, 1.9]]},
        "lambda_da": 4.0,
        "lambda_rt": 4.0,
    },
    "generators": [{"kappa": 3.25}],
    "demand_per_prosumer": 10.0,
    "solver": {"draws": 50000, "seed": 7, "tol_x": 1e-8, "tol_rho": 1e-6,
               "rho_grid_points": 64},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``kind`` names its per-command time metric."""

    kind: str
    argv: tuple[str, ...]
    out_dir: str | None = None  # figures write files here instead of stdout


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    commands: tuple[Command, ...]
    # traced layers this workload must call, and layers it must never call
    uses: frozenset = field(default_factory=frozenset)
    never: frozenset = field(default_factory=frozenset)


def build(name: str, seed: int, work_dir: str) -> Workload:
    """The workload's commands; writes any generated scenario into ``work_dir``."""
    s = ("--seed", str(seed))
    if name == "iid-finite":
        iid = "scenarios/iid.json"
        return Workload(
            name, (iid,),
            (Command("equilibrium", ("equilibrium", iid) + s),
             Command("meanfield", ("equilibrium", iid, "--mean-field") + s)),
            uses=frozenset({"cli", "scenario.load", "equilibrium.leader", "equilibrium.foc",
                            "equilibrium.coverage", "equilibrium.bounds", "capacity.sample",
                            "agents.emu", "equilibrium.meanfield",
                            "equilibrium.meanfield_solve"}),
        )
    if name == "dependent-market":
        base = "scenarios/base.json"
        figs = tuple(
            Command("figures", ("figures", f, "--out", os.path.join(work_dir, f)) + s,
                    out_dir=os.path.join(work_dir, f))
            for f in FIGURES
        )
        # the 70 ms equilibrium solve runs 10 times a pass so its median is steady
        return Workload(
            name, (base,),
            (Command("validate", ("validate", base) + s),)
            + (Command("equilibrium", ("equilibrium", base) + s),) * 10
            + (Command("supply_curve", ("supply-curve", base, "--mode", "agg") + s),
               Command("poag", ("poag", base, "--curve-source", "numeric") + s),
               Command("sweep", ("sweep", base) + s))
            + figs,
            uses=frozenset({"cli", "scenario.load", "equilibrium.leader", "equilibrium.foc",
                            "equilibrium.bounds", "agents.emu", "market.curve_agg",
                            "market.curve_direct", "market.clear", "market.poag",
                            "penalty.shares", "cli.sweep", "cli.sweep.point"}),
            never=frozenset({"equilibrium.coverage", "capacity.sample"}),
        )
    if name == "tabulated-utility":
        path = os.path.join(work_dir, "tabulated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(TABULATED_SCENARIO, fh, indent=1)
        return Workload(
            name, (path,),
            (Command("equilibrium", ("equilibrium", path) + s),
             Command("supply_curve", ("supply-curve", path, "--mode", "direct") + s)),
            uses=frozenset({"cli", "scenario.load", "equilibrium.leader", "equilibrium.foc",
                            "equilibrium.bounds", "agents.emu", "capacity.sample",
                            "market.curve_direct"}),
            never=frozenset({"equilibrium.coverage"}),
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("iid-finite", "dependent-market", "tabulated-utility")
