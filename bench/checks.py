"""Output checks: every failed check counts its command as failed.

* every command exits with 0;
* CSV bytes are identical across the repetitions of one command at one seed;
* dependent-market: rho* is within 1e-4 of the closed form for
  ``equilibrium`` and for every sweep point, and no sweep point failed;
* tabulated-utility: rho* is within 2e-3 of the exact oracle (about ten
  times the Monte-Carlo spread of the 50k-draw solve across seeds);
* every PoAg the workload prints is >= 1.
"""

from __future__ import annotations

import json
import math

from oracles import closed_form_poag, closed_form_rho, tabulated_inverse_response, tabulated_rho_star

RHO_TOL_CLOSED_FORM = 1e-4
RHO_TOL_TABULATED = 2e-3


def parse_csv(text: str) -> list[dict]:
    """Rows of a deragg CSV as dicts, skipping the ``#`` metadata lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV header in output")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class Checker:
    """Checks one workload's command outputs and collects its accuracy numbers."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}  # argv -> first output, for the byte-identity check
        self.accuracy = {"rho_err": 0.0, "poag_err": 0.0}
        self.solution = None  # (rho*, x*) of the finite-N equilibrium
        self.scenario = None
        if workload.name in ("dependent-market", "tabulated-utility"):
            with open(workload.scenarios[0], encoding="utf-8") as fh:
                self.scenario = json.load(fh)
        if workload.name == "tabulated-utility":
            self.tab_rho, self.tab_x = tabulated_rho_star(self.scenario)

    def check(self, cmd, rc, output) -> list[str]:
        """Problems with one execution; ``output`` is stdout text or {file: bytes}."""
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        ref = self.first.setdefault(cmd.argv, output)
        if ref != output:
            problems.append("CSV bytes differ from the first repetition")
        try:
            problems += self._oracle(cmd, output)
        except (ValueError, KeyError) as exc:
            problems.append(f"unparseable output: {exc}")
        return problems

    def _note(self, key, err):
        self.accuracy[key] = max(self.accuracy[key], err)

    def _cf_rho(self, sigma):
        sc = self.scenario["scenario"]
        return closed_form_rho(sc["utility"]["gamma"], sc["capacity"]["mu"], sigma,
                               sc["lambda_da"], sc["lambda_rt"])

    def _oracle(self, cmd, output) -> list[str]:
        name, problems = self.workload.name, []
        if cmd.kind == "equilibrium":
            row = parse_csv(output)[0]
            rho, x = float(row["rho_star"]), float(row["x_star"])
            self.solution = (rho, x)
            if name == "dependent-market":
                err = abs(rho - self._cf_rho(self.scenario["scenario"]["capacity"]["sigma"]))
                self._note("rho_err", err)
                if err > RHO_TOL_CLOSED_FORM:
                    problems.append(f"rho*={rho} is {err:.3g} from the closed form")
            elif name == "tabulated-utility":
                err = abs(rho - self.tab_rho)
                self._note("rho_err", err)
                if err > RHO_TOL_TABULATED:
                    problems.append(f"rho*={rho} is {err:.3g} from the exact oracle")
        elif cmd.kind == "sweep":
            for row in parse_csv(output):
                if row["status"] != "ok":
                    problems.append(f"sweep point {row['value']}: {row['status']}")
                    continue
                err = abs(float(row["rho_star"]) - self._cf_rho(float(row["value"])))
                self._note("rho_err", err)
                if err > RHO_TOL_CLOSED_FORM:
                    problems.append(f"sweep point {row['value']}: rho* {err:.3g} from closed form")
                problems += _poag_at_least_one(float(row["poag"]))
        elif cmd.kind == "poag":
            poag = float(parse_csv(output)[0]["poag"])
            problems += _poag_at_least_one(poag)
            sc = self.scenario["scenario"]
            exact = closed_form_poag(
                sc["utility"]["gamma"], sc["capacity"]["mu"], sc["capacity"]["sigma"],
                sc["lambda_da"], sc["lambda_rt"], self.scenario["generators"][0]["kappa"],
                self.scenario["demand_per_prosumer"])
            self._note("poag_err", abs(poag - exact))
        elif cmd.kind == "figures":
            for fname, data in output.items():
                if "poag" in fname:
                    for row in parse_csv(data.decode("utf-8")):
                        problems += _poag_at_least_one(float(row["poag"]))
        return problems

    def emu_err(self, draws, seed):
        """|Monte-Carlo E[u'] - exact| at the solved x* (tabulated utility only)."""
        if self.workload.name != "tabulated-utility" or self.solution is None:
            return 0.0
        from deragg.agents import expected_marginal_utility
        from deragg.scenario import load_scenario

        emu, _, _ = tabulated_inverse_response(self.scenario)
        x = self.solution[1]
        sc = load_scenario(self.workload.scenarios[0]).scenario
        return abs(expected_marginal_utility(sc, x, draws=draws, seed=seed) - float(emu(x)))


def _poag_at_least_one(poag: float) -> list[str]:
    if not (math.isfinite(poag) and poag >= 1.0):
        return [f"PoAg {poag} < 1"]
    return []
