import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deragg.cli as cli
from deragg.agents import GameScenario, linear_utility, tabulated_utility
from deragg.capacity import dependent_uniform, iid_uniform
from deragg.equilibrium import meanfield_stackelberg
from deragg.errors import ValidationError
from deragg.market import GeneratorSpec, build_supply_curve_aggregated, clear_market
from deragg.scenario import SolverSettings, apply_sweep_value, load_scenario, parse_scenario
from workloads import TABULATED_SCENARIO

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

BASE = {
    "schema_version": "1",
    "scenario": {
        "n_prosumers": 1,
        "d0": 20.0,
        "capacity": {"kind": "dependent_uniform", "mu": 10.0, "sigma": 3.3},
        "utility": {"kind": "linear", "gamma": 2.5},
        "lambda_da": 4.0,
        "lambda_rt": 4.0,
    },
    "generators": [{"kappa": 3.25}],
    "demand_per_prosumer": 10.0,
    "solver": {"seed": 7, "rho_grid_points": 128},
}


def write_scenario(tmp_path, payload, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_table(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    return rows


def deep(payload, *edits):
    out = json.loads(json.dumps(payload))
    for path, value in edits:
        node = out
        for key in path[:-1]:
            node = node[key]
        if value is ...:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return out


def test_load_valid(tmp_path):
    sf = load_scenario(write_scenario(tmp_path, BASE))
    assert sf.scenario.n_prosumers == 1
    assert sf.generators[0].kappa == 3.25
    assert sf.solver.seed == 7
    assert sf.sweep is None


def test_unknown_keys_fatal():
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_scenario(deep(BASE, (("typo_key",), 1)))
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_scenario(deep(BASE, (("scenario", "extra"), 1)))
    with pytest.raises(ValidationError, match="missing required key"):
        parse_scenario(deep(BASE, (("scenario", "d0"), ...)))
    with pytest.raises(ValidationError, match="schema_version"):
        parse_scenario(deep(BASE, (("schema_version",), "99")))


def test_json_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": "1",\n  oops\n}', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 3"):
        load_scenario(str(path))


def test_sweep_parsing_and_application():
    payload = deep(BASE, (("sweep",), {"parameter": "sigma", "from": 3.3, "to": 5.77, "steps": 5}))
    sf = parse_scenario(payload)
    assert sf.sweep.steps == 5
    moved = apply_sweep_value(sf, "sigma", 5.0)
    assert moved.scenario.capacity.sigma == 5.0
    assert moved.solver == sf.solver
    moved = apply_sweep_value(sf, "kappa", 3.4)
    assert moved.generators[0].kappa == 3.4
    with pytest.raises(ValidationError):
        parse_scenario(deep(payload, (("sweep", "parameter"), "voltage")))
    deterministic = load_scenario(SCENARIOS / "deterministic.json")
    with pytest.raises(ValidationError, match="cannot sweep 'sigma' on deterministic capacity"):
        apply_sweep_value(deterministic, "sigma", 3.0)


def test_kappa_sweep_rejected_on_segmented_generator():
    # segments, not kappa, price the first generator: a kappa sweep would
    # repeat one market at every point
    payload = deep(BASE, (("generators",), [{"kappa": 1.0, "segments": [[3.0, 5], [3.5, 100]]}]))
    sf = parse_scenario(payload)
    with pytest.raises(ValidationError, match="segments"):
        apply_sweep_value(sf, "kappa", 3.25)


def test_sigma_and_mu_sweeps_keep_an_explicit_cbar():
    # an explicit cbar stays put, even one equal to the support top; a
    # default cbar follows the support
    iid = json.loads((SCENARIOS / "iid.json").read_text(encoding="utf-8"))
    explicit = parse_scenario(deep(iid, (("scenario", "capacity", "cbar"), 20),
                                   (("scenario", "d0"), 25)))
    for parameter, value in (("sigma", 3.5), ("mu", 9.0)):
        assert apply_sweep_value(explicit, parameter, value).scenario.capacity.cbar == 20.0
    top = 10.0 + math.sqrt(3.0) * 3.3
    at_top = parse_scenario(deep(BASE, (("scenario", "capacity", "cbar"), top)))
    assert apply_sweep_value(at_top, "sigma", 3.0).scenario.capacity.cbar == top
    with pytest.raises(ValidationError, match="exceeds cbar"):
        apply_sweep_value(at_top, "sigma", 3.5)
    moved = apply_sweep_value(load_scenario(SCENARIOS / "base.json"), "sigma", 3.5)
    assert moved.scenario.capacity.cbar == moved.scenario.capacity.support[1]


def test_mu_sweep_point_that_outgrows_d0_fails_as_the_file_would():
    # d0 stays as the file sets it: a point whose capacity outgrows it is
    # rejected with the loader's own message
    base = json.loads((SCENARIOS / "base.json").read_text(encoding="utf-8"))
    with pytest.raises(ValidationError, match="d0=20.0 must exceed") as loaded:
        parse_scenario(deep(base, (("scenario", "capacity", "mu"), 16.0)))
    with pytest.raises(ValidationError) as swept:
        apply_sweep_value(parse_scenario(base), "mu", 16.0)
    assert str(swept.value) == str(loaded.value)


def test_gamma_sweep_rejected_on_tabulated_utility(tmp_path, capsys):
    # the table, not gamma, gives a tabulated utility's marginal: a gamma
    # sweep would throw the table away and solve a linear-utility game
    table = {"kind": "tabulated", "marginal_points": [[0.0, 3.4], [12.0, 2.8], [34.0, 1.9]]}
    payload = deep(BASE, (("scenario", "utility"), table),
                   (("sweep",), {"parameter": "gamma", "from": 2.0, "to": 2.5, "steps": 2}))
    with pytest.raises(ValidationError, match="cannot sweep 'gamma' on tabulated utility"):
        apply_sweep_value(parse_scenario(payload), "gamma", 2.0)
    assert cli.main(["sweep", write_scenario(tmp_path, payload)]) == cli.EXIT_SOLVER
    rows = read_table(capsys.readouterr().out)
    assert [r["status"].startswith("failed:") for r in rows] == [True, True]


@pytest.mark.parametrize("key,value", [
    (("scenario", "n_prosumers"), 2.5),
    (("scenario", "n_prosumers"), True),
    (("solver", "draws"), 20000.7),
    (("solver", "seed"), 7.9),
    (("solver", "seed"), "7"),
    (("solver", "rho_grid_points"), 96.5),
    (("sweep", "steps"), 3.9),
], ids=["n_prosumers", "n_prosumers-bool", "draws", "seed", "seed-string", "rho_grid_points",
        "sweep-steps"])
def test_integer_keys_reject_non_integral_values(tmp_path, capsys, key, value):
    sweep = {"parameter": "sigma", "from": 3.3, "to": 5.77, "steps": 3}
    payload = deep(BASE, (("sweep",), sweep), (key, value))
    with pytest.raises(ValidationError, match=".".join(key) + " must be an integer"):
        parse_scenario(payload)
    assert cli.main(["validate", write_scenario(tmp_path, payload)]) == 2
    assert "must be an integer" in capsys.readouterr().err


TABLE = {"kind": "tabulated", "marginal_points": [[0.0, 3.4], [12.0, 2.8], [34.0, 1.9]]}


@pytest.mark.parametrize("key,value,needle", [
    (("scenario", "lambda_da"), "4.0", "scenario.lambda_da must be a number"),
    (("scenario", "lambda_rt"), True, "scenario.lambda_rt must be a number"),
    (("demand_per_prosumer",), "10", "demand_per_prosumer must be a number"),
    (("scenario", "capacity", "mu"), "10", "capacity.mu must be a number"),
    (("scenario", "capacity", "sigma"), [3.3], "capacity.sigma must be a number"),
    (("generators", 0, "kappa"), "3.25", "generators[0].kappa must be a number"),
    (("generators", 0, "qmin"), {"v": 1}, "generators[0].qmin must be a number"),
    (("sweep", "from"), "3.3", "sweep.from must be a number"),
    (("scenario", "d0"), None, "scenario.d0 must be a number"),
    (("scenario", "utility"), {**TABLE, "marginal_points": [[0, 3], 5]},
     "utility.marginal_points must be a list of [number, number] pairs"),
    (("scenario", "utility"), {**TABLE, "marginal_points": [[0, 3], [1, 2, 1]]},
     "utility.marginal_points must be a list of [number, number] pairs"),
    (("generators", 0, "segments"), [[3.0, "x"]], "generators[0].segments[0] must be a number"),
    (("generators", 0, "segments"), None, "generators[0].segments must be a list"),
], ids=["lambda_da-string", "lambda_rt-bool", "demand-string", "mu-string",
        "sigma-list", "kappa-string", "qmin-object", "sweep-from-string", "d0-null",
        "marginal_points-scalar", "marginal_points-triple", "segments-string", "segments-null"])
def test_number_keys_and_pair_lists_reject_non_numbers(tmp_path, capsys, key, value, needle):
    sweep = {"parameter": "sigma", "from": 3.3, "to": 5.77, "steps": 3}
    payload = deep(BASE, (("sweep",), sweep), (key, value))
    with pytest.raises(ValidationError, match=re.escape(needle)):
        parse_scenario(payload)
    code = cli.main(["validate", write_scenario(tmp_path, payload)])
    assert_one_line_rejection(code, capsys, needle)


def test_integer_keys_accept_integral_floats_and_keep_large_seeds():
    sf = parse_scenario(deep(BASE, (("scenario", "n_prosumers"), 2.0),
                             (("solver", "draws"), 1e4), (("solver", "seed"), 2**100)))
    assert (sf.scenario.n_prosumers, sf.solver.draws, sf.solver.seed) == (2, 10_000, 2**100)
    assert type(sf.solver.draws) is int


@pytest.mark.parametrize("key,token", [
    (("solver", "draws"), "1e999"),
    (("scenario", "n_prosumers"), "1e999"),
    (("sweep", "steps"), "1e999"),
    (("scenario", "d0"), "9" * 400),
    (("demand_per_prosumer",), "1e999"),
], ids=["draws", "n_prosumers", "sweep-steps", "d0-400-digits", "demand"])
def test_cli_rejects_numbers_that_overflow_a_float(tmp_path, capsys, key, token):
    sweep = {"parameter": "sigma", "from": 3.3, "to": 5.77, "steps": 3}
    payload = deep(BASE, (("sweep",), sweep), (key, "OVERFLOW"))
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(payload).replace('"OVERFLOW"', token), encoding="utf-8")
    with pytest.raises(ValidationError, match="non-finite number"):
        load_scenario(str(path))
    assert cli.main(["validate", str(path)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_cli_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", write_scenario(tmp_path, BASE)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_rejects_d0_below_capacity(tmp_path, capsys):
    bad = deep(BASE, (("scenario", "d0"), 5.0))
    code = cli.main(["validate", write_scenario(tmp_path, bad)])
    assert code == cli.EXIT_INVALID
    assert "d0" in capsys.readouterr().err


def test_cli_rejects_zero_real_time_price(tmp_path, capsys):
    path = write_scenario(tmp_path, deep(BASE, (("scenario", "lambda_rt"), 0)))
    code = cli.main(["supply-curve", path, "--mode", "direct"])
    assert code == cli.EXIT_INVALID
    assert "lambda_rt" in capsys.readouterr().err


COMMANDS = [
    ["validate"], ["equilibrium"], ["supply-curve", "--mode", "agg"], ["poag"],
    ["dispatch", "--mode", "direct"], ["sweep"], ["figures"],
]


def assert_one_line_rejection(code, capsys, needle):
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["iid.json", "base.json"])
@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_cli_rejects_out_of_range_seed(name, seed, tmp_path, capsys):
    path = str(SCENARIOS / name)
    for command in (["equilibrium", path], ["validate", path], ["figures", "fig3"]):
        code = cli.main([*command, "--seed", seed, "--out", str(tmp_path / "out")])
        assert_one_line_rejection(code, capsys, "seed must be >= 0 and < 2**128")


@pytest.mark.parametrize("name", ["iid.json", "base.json"])
def test_cli_rejects_negative_seed_from_environment(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
    code = cli.main(["equilibrium", str(SCENARIOS / name)])
    assert_one_line_rejection(code, capsys, "seed must be >= 0")
    monkeypatch.setenv(cli.SEED_ENV_VAR, "seven")
    code = cli.main(["figures", "fig3", "--out", str(tmp_path)])
    assert_one_line_rejection(code, capsys, "is not an integer")


def test_scenario_seed_out_of_range_rejected(tmp_path, capsys):
    for seed in (-1, 2**128):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            parse_scenario(deep(BASE, (("solver", "seed"), seed)))
    path = write_scenario(tmp_path, deep(BASE, (("solver", "seed"), -1)))
    code = cli.main(["equilibrium", path])
    assert_one_line_rejection(code, capsys, "seed must be >= 0")
    assert parse_scenario(deep(BASE, (("solver", "seed"), 2**128 - 1))).solver.seed == 2**128 - 1


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("draws", ["-5", "0"])
def test_cli_rejects_draws_below_one(command, draws, tmp_path, capsys):
    if command == ["figures"]:
        argv = ["figures", "fig3", "--out", str(tmp_path)]
    else:
        argv = [command[0], str(SCENARIOS / "base.json"), *command[1:]]
    code = cli.main([*argv, "--draws", draws])
    assert_one_line_rejection(code, capsys, f"draws must be >= 1, got {draws}")


def test_cli_validate_closed_form_band(tmp_path, capsys):
    off_band = deep(BASE, (("scenario", "capacity", "sigma"), 3.0))
    path = write_scenario(tmp_path, off_band)
    assert cli.main(["validate", path]) == 0  # fine without the closed-form gate
    code = cli.main(["validate", path, "--closed-form"])
    assert code == cli.EXIT_ADMISSIBILITY
    assert "admissibility" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["iid.json", "deterministic.json", "tabulated"])
def test_cli_closed_form_outside_its_model_exits_4(name, tmp_path, capsys):
    # a valid scenario that is not dependent-uniform with linear utility
    path = (write_scenario(tmp_path, TABULATED_SCENARIO) if name == "tabulated"
            else str(SCENARIOS / name))
    assert cli.main(["validate", path]) == cli.EXIT_OK
    capsys.readouterr()
    for argv in (["validate", path, "--closed-form"],
                 ["poag", path, "--curve-source", "closedform"]):
        assert cli.main(argv) == cli.EXIT_ADMISSIBILITY
        assert capsys.readouterr().err == (
            "admissibility error: closed forms need fully dependent uniform capacity "
            "and linear utility\n"
        )


def test_cli_equilibrium_row(tmp_path, capsys):
    assert cli.main(["equilibrium", write_scenario(tmp_path, BASE)]) == 0
    row = read_table(capsys.readouterr().out)[0]
    assert float(row["rho_star"]) == pytest.approx(2.5005, abs=1e-3)
    assert row["concavity_ok"] == "true"


@pytest.mark.parametrize("key", ["tol_x", "tol_rho"])
def test_cli_ignores_a_retired_solver_tolerance(tmp_path, capsys, key):
    # each search stops at a fixed fraction of cbar, whatever an older file sets
    outs = []
    for payload in (BASE, deep(BASE, (("solver", key), 1e-3))):
        assert cli.main(["equilibrium", write_scenario(tmp_path, payload)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_equilibrium_at_zero_capacity(tmp_path, capsys):
    zero = deep(BASE, (("scenario", "capacity"), {"kind": "deterministic", "cbar": 0.0}))
    assert cli.main(["equilibrium", write_scenario(tmp_path, zero)]) == 0
    row = read_table(capsys.readouterr().out)[0]
    assert (float(row["rho_star"]), float(row["x_star"])) == (2.5, 0.0)


def test_cli_mean_field_reads_the_solve_draws_and_seed(tmp_path, capsys):
    # with a tabulated utility E[u'] is Monte Carlo: the mean field must read
    # it off the draws and seed that the CSV header names
    iid = json.loads((SCENARIOS / "iid.json").read_text(encoding="utf-8"))
    iid["scenario"]["utility"] = {
        "kind": "tabulated",
        "marginal_points": [[0.0, 3.4], [12.0, 2.8], [22.0, 2.2], [34.0, 1.9]],
    }
    path = write_scenario(tmp_path, iid)
    outs = []
    for seed in ("1", "2", "1"):
        argv = ["equilibrium", path, "--mean-field", "--draws", "5000", "--seed", seed]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2]
    rho_1, rho_2 = (float(read_table(out)[0]["rho_star"]) for out in outs[:2])
    assert rho_1 != rho_2
    sf = load_scenario(path)
    res, _ = meanfield_stackelberg(sf.scenario, grid_points=sf.solver.rho_grid_points,
                                   draws=5000, seed=1)
    assert read_table(outs[0])[0]["rho_star"] == f"{res.rho_star:.10g}"


def test_cli_equilibrium_mean_field(tmp_path, capsys):
    iid = deep(BASE, (("scenario", "capacity", "kind"), "iid_uniform"),
               (("scenario", "n_prosumers"), 4))
    assert cli.main(["equilibrium", write_scenario(tmp_path, iid), "--mean-field"]) == 0
    row = read_table(capsys.readouterr().out)[0]
    assert float(row["beta"]) == 0.0
    assert float(row["x_star"]) == pytest.approx(10.0, abs=1e-9)
    assert float(row["rho_star"]) == pytest.approx(2.5, abs=1e-9)


def test_cli_poag_and_dispatch(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    assert cli.main(["poag", path]) == 0
    row = read_table(capsys.readouterr().out)[0]
    assert float(row["poag"]) == pytest.approx(1.143, abs=2e-3)
    for mode, der in (("noder", 0.0), ("agg", 3.2138), ("direct", 6.4276)):
        assert cli.main(["dispatch", path, "--mode", mode]) == 0
        drow = read_table(capsys.readouterr().out)[0]
        assert float(drow["cleared_der"]) == pytest.approx(der, abs=1e-4)


def test_cli_poag_iid_below_one(capsys):
    # pooling iid capacities hedges shortfalls, so aggregation can be cheaper
    assert cli.main(["poag", str(SCENARIOS / "iid.json")]) == 0
    assert float(read_table(capsys.readouterr().out)[0]["poag"]) < 1.0


def test_cli_numeric_poag_clears_aggregated_der_at_support_low_end(capsys):
    # at kappa = 3.25 the leader buys the whole flat run rho = gamma up to N*lo
    path = SCENARIOS / "base.json"
    assert cli.main(["poag", str(path), "--curve-source", "numeric"]) == 0
    row = read_table(capsys.readouterr().out)[0]
    capacity = load_scenario(path).scenario.capacity
    half_step = 0.5 * capacity.cbar / 256
    assert float(row["cleared_der_aggregated"]) == pytest.approx(
        capacity.support[0], abs=half_step
    )
    assert float(row["poag"]) == pytest.approx(1.0282, abs=1e-3)


def shipped(name, *edits):
    """A shipped scenario file's mapping with ``edits`` applied (see ``deep``)."""
    return deep(json.loads((SCENARIOS / name).read_text(encoding="utf-8")), *edits)


MU = ("scenario", "capacity", "mu")


def test_cli_poag_off_the_closed_form_band_reads_the_numeric_curves(tmp_path, capsys):
    # mu = 12 puts sigma = 3.3 below the band's minimum: auto falls back to numeric
    path = write_scenario(tmp_path, shipped("base.json", (MU, 12.0)))
    rows = []
    for source in ("auto", "numeric"):
        assert cli.main(["poag", path, "--curve-source", source]) == cli.EXIT_OK
        rows.append(read_table(capsys.readouterr().out)[0])
    assert rows[0] == rows[1]
    assert rows[0]["curve_source"] == "numeric"
    assert rows[0]["poag"] == "1.029699122"
    assert cli.main(["poag", path, "--curve-source", "closedform"]) == cli.EXIT_ADMISSIBILITY
    assert "below the admissible minimum" in capsys.readouterr().err


def test_cli_mu_sweep_keeps_the_points_off_the_closed_form_band(tmp_path, capsys):
    sweep = {"parameter": "mu", "from": 6.0, "to": 16.0, "steps": 6}
    with pytest.warns(UserWarning, match="outside the closed-form band"):
        code = cli.main(["sweep", write_scenario(tmp_path, shipped("base.json", (("sweep",), sweep)))])
    assert code == cli.EXIT_SOLVER
    rows = read_table(capsys.readouterr().out)
    assert [r["value"] for r in rows] == ["6", "8", "10", "12", "14", "16"]
    assert [r["status"] for r in rows[:5]] == ["ok"] * 5
    assert rows[5]["status"].startswith("failed: d0=20.0 must exceed installed capacity cbar=")
    for row in rows[3:5]:  # mu = 12 and 14, below the band: the numeric PoAg of that point
        point = write_scenario(tmp_path, shipped("base.json", (MU, float(row["value"]))), "point.json")
        assert cli.main(["poag", point, "--curve-source", "numeric"]) == cli.EXIT_OK
        assert read_table(capsys.readouterr().out)[0]["poag"] == row["poag"]


def test_cli_aggregated_curve_is_read_off_the_solver_grid(tmp_path, capsys):
    # iid.json solves on 96 offers, and its aggregated curve is the hull of those offers
    sf = load_scenario(SCENARIOS / "iid.json")
    assert sf.solver.rho_grid_points == 96
    settings = ["--draws", "2000", "--seed", "3"]
    paths, curves = {}, {}
    for grid in (96, 512):
        paths[grid] = write_scenario(
            tmp_path, shipped("iid.json", (("solver", "rho_grid_points"), grid)), f"g{grid}.json")
        assert cli.main(["supply-curve", paths[grid], "--mode", "agg", *settings]) == 0
        curves[grid] = [(r["quantity"], r["price"]) for r in read_table(capsys.readouterr().out)]
    expected = build_supply_curve_aggregated(sf.scenario, 96, 2000, 3)
    assert curves[96] == [(cli._fmt(q), cli._fmt(p)) for q, p in expected.breakpoints]
    assert curves[96] != curves[512]
    # dispatch and poag clear that same curve
    assert cli.main(["dispatch", paths[96], "--mode", "agg", *settings]) == 0
    demand = sf.demand_per_prosumer * sf.scenario.n_prosumers
    cleared = clear_market(sf.generators, demand, expected).cleared_der
    assert read_table(capsys.readouterr().out)[0]["cleared_der"] == cli._fmt(cleared)
    assert cli.main(["poag", paths[96], *settings]) == 0
    assert read_table(capsys.readouterr().out)[0]["cleared_der_aggregated"] == cli._fmt(cleared)


def test_cli_supply_curve(tmp_path, capsys):
    assert cli.main(["supply-curve", write_scenario(tmp_path, BASE), "--mode", "direct"]) == 0
    rows = read_table(capsys.readouterr().out)
    qs = [float(r["quantity"]) for r in rows]
    ps = [float(r["price"]) for r in rows]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_cli_sweep_rows_ordered_and_complete(tmp_path, capsys):
    payload = deep(BASE, (("sweep",), {"parameter": "sigma", "from": 3.3, "to": 5.77, "steps": 6}))
    assert cli.main(["sweep", write_scenario(tmp_path, payload)]) == 0
    rows = read_table(capsys.readouterr().out)
    assert len(rows) == 6
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values)
    poags = [float(r["poag"]) for r in rows]
    assert all(b < a for a, b in zip(poags, poags[1:]))
    assert all(r["status"] == "ok" for r in rows)


def test_cli_sweep_marks_failed_points(tmp_path, capsys):
    # sigma = 3 is below the closed-form band, so its PoAg is numeric; sigma = 6
    # puts the support's low end below zero, which the loader rejects
    payload = deep(BASE, (("sweep",), {"parameter": "sigma", "from": 3.0, "to": 6.0, "steps": 4}))
    with pytest.warns(UserWarning, match="outside the closed-form band"):
        code = cli.main(["sweep", write_scenario(tmp_path, payload)])
    assert code == cli.EXIT_SOLVER
    rows = read_table(capsys.readouterr().out)
    assert [r["status"] for r in rows[:3]] == ["ok"] * 3
    assert rows[-1]["status"].startswith("failed: support low end")
    assert rows[-1]["poag"] == ""  # no NaN cells


def test_cli_poag_and_sweep_where_direct_participation_costs_nothing(tmp_path, capsys):
    # PoAg = C_agg / C_direct is undefined at zero demand: poag exits 2 and a
    # sweep marks that point alone failed
    assert cli.main(["poag", write_scenario(tmp_path, deep(BASE, (("demand_per_prosumer",), 0)))]
                    ) == cli.EXIT_INVALID
    assert "zero cost" in capsys.readouterr().err
    sweep = {"parameter": "demand_per_prosumer", "from": 0, "to": 10, "steps": 3}
    assert cli.main(["sweep", write_scenario(tmp_path, deep(BASE, (("sweep",), sweep)))]
                    ) == cli.EXIT_SOLVER
    status = [r["status"] for r in read_table(capsys.readouterr().out)]
    assert "zero cost" in status[0] and status[1:] == ["ok", "ok"]


def test_cli_figures_fig5_ordering(tmp_path):
    assert cli.main(["figures", "fig5", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fig5_costs.csv").read_text()
    for row in read_table(text):
        no_der = float(row["cost_noder"])
        agg = float(row["cost_aggregated"])
        direct = float(row["cost_direct"])
        assert no_der >= agg >= direct


def test_cli_figures_needs_an_output_directory():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SCENARIOS.parent / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-m", "deragg", "figures", "fig3", "--seed", "3"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "the following arguments are required: --out" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["missing-directory", "file-as-directory"])
def test_cli_unwritable_out_exits_2_in_one_line(tmp_path, case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SCENARIOS.parent / "src"), env.get("PYTHONPATH")) if p
    )
    if case == "missing-directory":
        out = tmp_path / "missing" / "eq.csv"
        argv = ["equilibrium", str(SCENARIOS / "base.json"), "--out", str(out)]
    else:
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        argv = ["figures", "fig3", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "deragg", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"cannot write {out}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_importing_the_package_leaves_the_cli_unbuilt():
    # bench/probe.py times this import as setup_s; the parser is built by main, not on import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SCENARIOS.parent / "src"), env.get("PYTHONPATH")) if p
    )
    # numpy.polynomial, which holds the exact coverage term's Gauss-Legendre rule,
    # loads on first use: only where a bare import numpy already loads it
    code = ("import sys, numpy; bare = 'numpy.polynomial' in sys.modules; "
            "import deragg, deragg.scenario; "
            "print(sorted({'deragg.cli', 'argparse'} & set(sys.modules)), "
            "('numpy.polynomial' in sys.modules) == bare)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[] True"


def test_cli_builds_its_parser_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_calls_share_no_parsed_state(tmp_path, capsys):
    # options of one call (--mean-field, --draws, --out) do not carry into the next
    out = tmp_path / "mean_field.csv"
    assert cli.main(["equilibrium", str(SCENARIOS / "iid.json"), "--mean-field",
                     "--draws", "7", "--out", str(out)]) == 0
    assert "# draws=7" in out.read_text()
    capsys.readouterr()
    assert cli.main(["equilibrium", str(SCENARIOS / "base.json")]) == 0
    text = capsys.readouterr().out
    assert "# draws=100000" in text
    assert "concavity_ok" in text and "beta" not in text


def test_cli_usage_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["equilibrium", str(SCENARIOS / "base.json"), "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert cli.main(["equilibrium", str(SCENARIOS / "base.json")]) == cli.EXIT_OK
    assert "rho_star=" in capsys.readouterr().err


def test_cli_calls_the_handler_on_the_module_at_call_time(monkeypatch, capsys):
    # the parser is built by the first call; a handler replaced after that
    # (as bench/tracer.py replaces cmd_sweep) is still the one called
    base = str(SCENARIOS / "base.json")
    assert cli.main(["sweep", base]) == cli.EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.file) or 41)
    assert cli.main(["sweep", base]) == 41
    assert seen == [base]


def every_subcommand(values):
    """(name, argv) for every subcommand of the parser, with a value for
    each argument it requires: its first choice, else ``values[dest]``."""
    parser = cli.build_parser()
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for name, sub in subcommands.items():
        argv = [name]
        for action in sub._actions:
            if action.required:
                value = action.choices[0] if action.choices else values[action.dest]
                argv += [*action.option_strings[:1], value]
        yield name, argv


def test_cli_smoke_every_subcommand(tmp_path, capsys):
    values = {"file": str(SCENARIOS / "base.json"), "out": str(tmp_path)}
    for _, argv in every_subcommand(values):
        assert cli.main([*argv, "--seed", "3"]) == cli.EXIT_OK, argv
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["figures", "fig3", "--seed", "3"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_cli_figures_fig3_slope(tmp_path):
    assert cli.main(["figures", "fig3", "--out", str(tmp_path)]) == 0
    rows = read_table((tmp_path / "fig3_offer_curves.csv").read_text())
    by_sigma = {}
    for r in rows:
        by_sigma.setdefault(float(r["sigma"]), []).append((float(r["rho"]), float(r["x_star"])))
    for sigma, pts in by_sigma.items():
        (r0, x0), (r1, x1) = pts[0], pts[-1]
        slope = (x1 - x0) / (r1 - r0)
        assert slope == pytest.approx(2.0 * 3.0**0.5 * sigma / 4.0, rel=1e-6)


def test_cli_seed_env_override(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path, BASE)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    assert cli.main(["equilibrium", path]) == 0
    out = capsys.readouterr().out
    assert "# seed=123" in out
    assert cli.main(["equilibrium", path, "--seed", "9"]) == 0
    assert "# seed=9" in capsys.readouterr().out


def test_cli_settings_resolve_alike_in_every_subcommand(tmp_path, monkeypatch, capsys):
    # base.json sets seed 7 and 100000 draws; --seed beats DERAGG_SEED beats
    # the scenario, and figures, which read no scenario, fall back to the default
    figures = tmp_path / "figures"
    validate_seeds = []
    monkeypatch.setattr(cli, "_penalty_axiom_issues",
                        lambda seed: validate_seeds.append(seed) or [])

    def run(argv, env=None):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        assert cli.main(argv) == cli.EXIT_OK, argv
        return capsys.readouterr().out

    def meta(name, argv, env=None):
        out = run(argv, env)
        if name == "validate":
            return {"seed": str(validate_seeds[-1])}
        if name == "figures":
            heads = {tuple(l for l in f.read_text().splitlines() if l.startswith("# "))
                     for f in figures.iterdir()}
            assert len(heads) == 1  # one header for every file of the figure
            out = "\n".join(heads.pop())
        return dict(l[2:].split("=", 1) for l in out.splitlines() if l.startswith("# "))

    base = str(SCENARIOS / "base.json")
    for name, argv in every_subcommand({"file": base, "out": str(figures)}):
        default = str(SolverSettings().seed if name == "figures" else 7)
        for extra, env, seed, draws in (
            ([], None, default, "100000"),
            ([], "123", "123", "100000"),
            (["--seed", "9"], "123", "9", "100000"),
            (["--draws", "5000"], None, default, "5000"),
        ):
            got = meta(name, [*argv, *extra], env)
            assert got["seed"] == seed, (argv, extra, env)
            assert got.get("draws", draws) == draws, (argv, extra)
            assert name in ("validate", "figures") or "draws" in got
        if name != "figures":  # --out names a file, which gets stdout's bytes
            target = tmp_path / f"{name}.out"
            text = run(argv)
            assert run([*argv, "--out", str(target)]) == ""
            assert target.read_bytes() == text.encode()


def test_cli_validate_writes_its_report_to_out(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert cli.main(["validate", str(SCENARIOS / "base.json"), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == f"scenario: ok ({SCENARIOS / 'base.json'})\npenalty axioms: ok\n"


def test_cli_out_file(tmp_path):
    target = tmp_path / "eq.csv"
    assert cli.main(["equilibrium", write_scenario(tmp_path, BASE), "--out", str(target)]) == 0
    assert target.read_text().startswith("# schema_version=1\n")
    assert target.read_bytes().count(b"\r") == 0  # unix newlines


def test_cli_validate_reports_axiom_violation(tmp_path, monkeypatch, capsys):
    def negative_shares(offers, capacities, lambda_rt):
        return -np.ones(np.shape(capacities))

    monkeypatch.setattr(cli, "penalty_shares", negative_shares)
    assert cli.main(["validate", write_scenario(tmp_path, BASE)]) == cli.EXIT_INVALID
    assert "nonnegativity violated" in capsys.readouterr().out


def test_emit_replaces_longer_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("x" * 1000)
    cli._emit("short\n", str(target))
    assert target.read_bytes() == b"short\n"


CAP = dependent_uniform(10.0, 3.3)
LIN = linear_utility(2.5)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: dependent_uniform(math.nan, 1.0, cbar=20.0), id="capacity-mu-nan"),
    pytest.param(lambda: iid_uniform(10.0, math.inf, cbar=20.0), id="capacity-sigma-inf"),
    pytest.param(lambda: GameScenario(1, math.inf, CAP, LIN, 4.0, 4.0), id="scenario-d0-inf"),
    pytest.param(lambda: GameScenario(1, 20.0, CAP, LIN, math.nan, 4.0),
                 id="scenario-lambda-da-nan"),
    pytest.param(lambda: GameScenario(1, 20.0, CAP, LIN, 4.0, math.inf),
                 id="scenario-lambda-rt-inf"),
    pytest.param(lambda: linear_utility(math.inf), id="utility-gamma-inf"),
    pytest.param(lambda: tabulated_utility([(0.0, 3.0), (math.nan, 2.0)]), id="utility-table-nan"),
    pytest.param(lambda: GeneratorSpec(kappa=math.nan), id="generator-kappa-nan"),
])
def test_non_finite_input_rejected(build):
    with pytest.raises(ValidationError, match="finite"):
        build()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_token_rejected(tmp_path, token):
    text = json.dumps(BASE).replace('"lambda_da": 4.0', f'"lambda_da": {token}')
    path = tmp_path / "scn.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"non-finite number {token}"):
        load_scenario(str(path))
