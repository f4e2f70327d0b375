"""The CLI's CSV output, pinned row by row against ``data/cli_rows.json``.

Metadata lines, headers, strings and booleans must match exactly; numbers
must agree to ``rel_tol=1e-9`` (a flip of the last of the 10 printed
digits).  Regenerate the file only for a change that is meant to move the
numbers:

    PYTHONPATH=src:bench python tests/test_cli_rows.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import deragg.cli as cli
from workloads import TABULATED_SCENARIO

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "cli_rows.json"
FILES = ("base.json", "deterministic.json", "iid.json", "tabulated")
COMMANDS = [
    *[[c, f, *rest] for f in FILES for c, *rest in (
        ["equilibrium"], ["supply-curve", "--mode", "agg"], ["supply-curve", "--mode", "direct"],
        ["poag", "--curve-source", "numeric"],
        *[["dispatch", "--mode", m, "--curve-source", "numeric"]
          for m in ("agg", "direct", "noder")])],
    ["sweep", "base.json"],
    ["equilibrium", "iid.json", "--mean-field"],
    # the closed-form curves clear through the same merit order as the numeric ones
    ["poag", "base.json", "--curve-source", "closedform"],
    *[["dispatch", "base.json", "--mode", m, "--curve-source", "closedform"]
      for m in ("agg", "direct")],
]


def run(argv, tabulated_path):
    """stdout of ``cli.main`` at ``--seed 3``; ``tabulated`` names the bench's tabulated file."""
    command, name, *rest = argv
    path = tabulated_path if name == "tabulated" else str(ROOT / "scenarios" / name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, path, *rest, "--seed", "3"]) == cli.EXIT_OK
    return out.getvalue()


def same_cell(got, want):
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12)
    except ValueError:  # a string or a boolean: only an exact match will do
        return False


@pytest.fixture(scope="module")
def tabulated_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "tabulated.json"
    path.write_text(json.dumps(TABULATED_SCENARIO), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_rows_match_the_pinned_output(argv, tabulated_path):
    want = json.loads(PINNED.read_text(encoding="utf-8"))[" ".join(argv)].splitlines()
    got = run(argv, tabulated_path).splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.startswith("#"):
            assert g == w
            continue
        cells, pinned = g.split(","), w.split(",")
        assert len(cells) == len(pinned), (g, w)
        assert all(same_cell(a, b) for a, b in zip(cells, pinned)), (g, w)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tab = Path(tmp) / "tabulated.json"
        tab.write_text(json.dumps(TABULATED_SCENARIO), encoding="utf-8")
        pinned = {" ".join(argv): run(argv, str(tab)) for argv in COMMANDS}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} outputs to {PINNED}", file=sys.stderr)
