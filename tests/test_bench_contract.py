"""The benchmark's trace contract holds for every workload.

``bench/workloads.py`` names, for each workload, the traced layers its
commands must call (``uses``) and must never call (``never``); a benchmark
run that breaks either list fails.  Each distinct command of each workload
runs once untraced and then once under the benchmark's own tracer, so a
change that moves work out of a named layer fails this test before it
fails the benchmark.
"""

import pytest

import deragg.cli as cli
import tracer
import workloads

from conftest import ROOT


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_trace_contract(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.build(name, 1, str(tmp_path))
    commands = list(dict.fromkeys(wl.commands))
    # the untraced run builds the CLI parser before the tracer swaps its
    # wrappers in, so a handler bound into the parser bypasses them whatever
    # ran before this test
    for cmd in commands:
        cli.main(list(cmd.argv))
    t = tracer.Tracer()
    t.install()
    try:
        codes = {cmd.argv: cli.main(list(cmd.argv)) for cmd in commands}
    finally:
        t.uninstall()
    assert set(codes.values()) == {0}, codes
    calls = {layer: row[tracer.CALLS] for layer, row in t.snapshot()[0].items()}
    assert sorted(n for n in wl.uses if not calls.get(n)) == []
    assert sorted(n for n in wl.never if calls.get(n)) == []


def test_benchmark_self_check_passes(monkeypatch):
    # the benchmark's hand-counted iid N=2, grid-4 solve: one capacity
    # sample, and one coverage-kernel call per FOC evaluation
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # bench/run.py pins them on import
    import run

    assert run.self_check() == []
