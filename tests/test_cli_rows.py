"""The CLI's CSV output, pinned row by row against ``data/cli_rows.json``,
and the figure CSV files against ``data/figure_rows.json``.

Metadata lines, headers, strings and booleans must match exactly; numbers
must agree to ``rel_tol=1e-9`` (a flip of the last of the 10 printed
digits).  Regenerate the files only for a change that is meant to move the
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
PINNED_FIGURES = ROOT / "tests" / "data" / "figure_rows.json"
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


def figure_files(name, out_dir):
    """{filename: text} of the CSV files ``figures <name>`` writes at ``--seed 3``."""
    assert cli.main(["figures", name, "--out", str(out_dir), "--seed", "3"]) == cli.EXIT_OK
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(out_dir).iterdir())}


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


def assert_same_table(got, want):
    got, want = got.splitlines(), want.splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.startswith("#"):
            assert g == w
            continue
        cells, pinned = g.split(","), w.split(",")
        assert len(cells) == len(pinned), (g, w)
        assert all(same_cell(a, b) for a, b in zip(cells, pinned)), (g, w)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_rows_match_the_pinned_output(argv, tabulated_path):
    want = json.loads(PINNED.read_text(encoding="utf-8"))[" ".join(argv)]
    assert_same_table(run(argv, tabulated_path), want)


@pytest.mark.parametrize("name", cli.FIGURE_NAMES)
def test_figure_rows_match_the_pinned_output(name, tmp_path):
    want = json.loads(PINNED_FIGURES.read_text(encoding="utf-8"))[name]
    got = figure_files(name, tmp_path)
    assert sorted(got) == sorted(want)
    for filename, text in got.items():
        assert_same_table(text, want[filename])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tab = Path(tmp) / "tabulated.json"
        tab.write_text(json.dumps(TABULATED_SCENARIO), encoding="utf-8")
        pinned = {" ".join(argv): run(argv, str(tab)) for argv in COMMANDS}
        figures = {name: figure_files(name, Path(tmp) / name) for name in cli.FIGURE_NAMES}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    PINNED_FIGURES.write_text(json.dumps(figures, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} outputs to {PINNED} and {len(figures)} figures to "
          f"{PINNED_FIGURES}", file=sys.stderr)
