import json
import math
import os

import numpy as np
import pytest

import deragg.cli as cli
from deragg.agents import GameScenario, linear_utility, tabulated_utility
from deragg.capacity import dependent_uniform, iid_uniform
from deragg.errors import ValidationError
from deragg.market import GeneratorSpec
from deragg.scenario import apply_sweep_value, load_scenario, parse_scenario


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
    moved = apply_sweep_value(sf, "kappa", 3.4)
    assert moved.generators[0].kappa == 3.4
    with pytest.raises(ValidationError):
        parse_scenario(deep(payload, (("sweep", "parameter"), "voltage")))


def test_cli_validate_ok(tmp_path, capsys):
    assert cli.main(["validate", write_scenario(tmp_path, BASE)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_rejects_d0_below_capacity(tmp_path, capsys):
    bad = deep(BASE, (("scenario", "d0"), 5.0))
    code = cli.main(["validate", write_scenario(tmp_path, bad)])
    assert code == cli.EXIT_INVALID
    assert "d0" in capsys.readouterr().err


def test_cli_validate_closed_form_band(tmp_path, capsys):
    off_band = deep(BASE, (("scenario", "capacity", "sigma"), 3.0))
    path = write_scenario(tmp_path, off_band)
    assert cli.main(["validate", path]) == 0  # fine without the closed-form gate
    code = cli.main(["validate", path, "--closed-form"])
    assert code == cli.EXIT_ADMISSIBILITY
    assert "admissibility" in capsys.readouterr().err


def test_cli_equilibrium_row(tmp_path, capsys):
    assert cli.main(["equilibrium", write_scenario(tmp_path, BASE)]) == 0
    row = read_table(capsys.readouterr().out)[0]
    assert float(row["rho_star"]) == pytest.approx(2.5005, abs=1e-3)
    assert row["concavity_ok"] == "true"


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
    payload = deep(BASE, (("sweep",), {"parameter": "sigma", "from": 3.0, "to": 3.6, "steps": 4}))
    code = cli.main(["sweep", write_scenario(tmp_path, payload)])
    assert code == cli.EXIT_SOLVER
    rows = read_table(capsys.readouterr().out)
    assert rows[0]["status"].startswith("failed:")
    assert rows[0]["poag"] == ""  # no NaN cells
    assert rows[-1]["status"] == "ok"


def test_cli_figures_fig5_ordering(tmp_path):
    assert cli.main(["figures", "fig5", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fig5_costs.csv").read_text()
    for row in read_table(text):
        no_der = float(row["cost_noder"])
        agg = float(row["cost_aggregated"])
        direct = float(row["cost_direct"])
        assert no_der >= agg >= direct


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
