"""deragg benchmark: run one workload's CLI command list and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload, one process each

Run from the root of a source checkout; deragg is imported from ``src/``.
The process is single-threaded apart from the program's own ``sweep``
pool.  It drives ``deragg.cli.main`` in-process, pass after pass, for at
most S seconds, checks every output (see ``checks.py``) and prints one
provenance line and then, as the last line, the result JSON.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones (see ``tracer.py``), and the trace is written to
``.bench_out/trace_<workload>_<seed>.json``.  The exit code is 0 only if
every check passed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

# one compute thread: pin numpy's thread pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 21

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import CALLS, CPU, INCL, QMAX, QSUM, SELF, Tracer, diff  # noqa: E402


def median(values):
    return statistics.median(values) if values else 0.0


def probe_setup(scenarios) -> float:
    """Seconds from starting a fresh interpreter to deragg imported and scenarios loaded."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), *scenarios],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def record_pool_workers(cli) -> list:
    """Record ``max_workers`` of every thread pool the CLI creates."""
    workers = []
    base = getattr(cli, "ThreadPoolExecutor", None)
    if base is not None:
        class CountingPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        cli.ThreadPoolExecutor = CountingPool
    return workers


def run_pass(cli, wl, checker, cmd_times, failures):
    """Run the command list once; returns (pass wall time, failed commands)."""
    done = []
    t0 = perf_counter()
    for cmd in wl.commands:
        out, err = io.StringIO(), io.StringIO()
        c0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(cmd.argv))
        except Exception:  # a crash is a failed command, not a crashed benchmark
            rc = "exception"
            err.write(traceback.format_exc())
        done.append((cmd, rc, out.getvalue(), err.getvalue(), perf_counter() - c0))
    wall = perf_counter() - t0
    failed = 0
    for cmd, rc, text, errtext, dt in done:
        if cmd_times is not None:
            cmd_times.setdefault(cmd.kind, {}).setdefault(cmd.argv, []).append(dt)
        output = text
        if cmd.out_dir is not None and rc == 0:
            output = {}
            for fname in sorted(os.listdir(cmd.out_dir)):
                with open(os.path.join(cmd.out_dir, fname), "rb") as fh:
                    output[fname] = fh.read()
        problems = checker.check(cmd, rc, output)
        failed += bool(problems)
        for problem in problems:
            failures.append(f"{' '.join(cmd.argv)}: {problem} {errtext.strip()[-500:]}")
    return wall, failed


def command_time(cmd_times, kind) -> float:
    """Median time of each distinct command of ``kind``, summed over those commands."""
    return sum(median(ts) for ts in cmd_times.get(kind, {}).values())


def self_check() -> list[str]:
    """Hand-counted case: iid N=2, grid 4 samples capacities once and calls
    the coverage kernel exactly once per FOC evaluation."""
    import deragg as dg

    sc = dg.GameScenario(2, 20.0, dg.iid_uniform(10.0, 3.3), dg.linear_utility(2.5), 4.0, 4.0)
    tracer = Tracer()
    tracer.install()
    try:
        dg.stackelberg_solve(sc, grid_points=4, draws=20_000, seed=1)
    finally:
        tracer.uninstall()
    t = tracer.snapshot()[0]

    def calls(name):
        return t.get(name, [0])[CALLS]

    problems = []
    if calls("capacity.sample") != 1:
        problems.append(f"self-check: capacity.sample.calls={calls('capacity.sample')}, expected 1")
    if calls("equilibrium.foc") == 0 or calls("equilibrium.coverage") != calls("equilibrium.foc"):
        problems.append(f"self-check: coverage.calls={calls('equilibrium.coverage')} "
                        f"!= foc.calls={calls('equilibrium.foc')}")
    return problems


def layer_metrics(traced, untraced_walls, cmd_times, extra):
    """Per-layer metrics: medians over the traced passes of per-pass values."""

    def per_pass(fn):
        return median([fn(t, main_self, wall) for t, main_self, wall in traced])

    def get(t, name, i):
        return t[name][i] if name in t else 0

    def field(name, i, scale=1.0):
        return per_pass(lambda t, *_: get(t, name, i) * scale)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("equilibrium.coverage", "equilibrium.foc", "equilibrium.leader", "agents.emu",
                  "capacity.sample", "market.curve_agg", "market.curve_direct", "market.clear",
                  "market.poag", "penalty.shares", "scenario.load"):
        m[f"{layer}.calls"] = (field(layer, CALLS), "count")
        m[f"{layer}.self_s"] = (field(layer, SELF), "s")
    m["equilibrium.coverage.melems"] = (field("equilibrium.coverage", QSUM, 1e-6), "Melem")
    m["equilibrium.coverage.se"] = (extra["se_h"], "1")
    m["equilibrium.foc.per_solve"] = (per_pass(lambda t, *_: ratio(
        get(t, "equilibrium.foc", CALLS), get(t, "equilibrium.leader", CALLS))), "count")
    m["equilibrium.bounds.calls"] = (field("equilibrium.bounds", CALLS), "count")
    m["agents.emu.err"] = (extra["emu_err"], "1")
    m["capacity.sample.mb"] = (field("capacity.sample", QMAX, 1e-6), "MB")
    m["equilibrium.meanfield.calls"] = (field("equilibrium.meanfield_solve", CALLS), "count")
    m["equilibrium.meanfield.self_s"] = (per_pass(lambda t, *_: get(
        t, "equilibrium.meanfield", SELF) + get(t, "equilibrium.meanfield_solve", SELF)), "s")
    m["cli.self_s"] = (field("cli", SELF), "s")
    m["cli.sweep.cpu_per_wall"] = (per_pass(lambda t, *_: ratio(
        get(t, "cli.sweep.point", CPU), get(t, "cli.sweep", INCL))), "ratio")
    m["cli.sweep.wait_s"] = (per_pass(lambda t, *_: get(t, "cli.sweep.point", INCL)
                                      - get(t, "cli.sweep.point", CPU)), "s")
    m["trace.overhead"] = (median([w for *_, w in traced]) / median(untraced_walls) - 1.0,
                           "ratio")
    m["trace.accounted"] = (per_pass(lambda t, main_self, wall: main_self / wall), "ratio")
    for kind in ("meanfield", "supply_curve", "poag", "sweep", "validate", "figures"):
        m[f"{kind}_s"] = (command_time(cmd_times, kind), "s")
    m["rho_err"] = (extra["rho_err"], "price")
    m["poag_err"] = (extra["poag_err"], "ratio")
    m["x_se"] = (extra["x_se"], "capacity")
    m["fail_frac"] = (extra["fail_frac"], "ratio")
    return m


def run_workload(name, seed, seconds, trace):
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, work):
    cli_seed = seed % 2**31
    wl = workloads.build(name, cli_seed, work)
    setup = [probe_setup(wl.scenarios) for _ in range(SETUP_PROBES)]

    import numpy as np
    from deragg import cli

    workers = record_pool_workers(cli)
    checker = checks.Checker(wl)
    tracer = Tracer() if trace else None
    failures, attempted, failed = [], 0, 0

    def run_check(problems):
        nonlocal attempted, failed
        attempted += 1
        failed += bool(problems)
        failures.extend(problems)

    if trace:
        run_check(self_check())

    # untraced and (with --trace 1) traced passes alternate until the next
    # pass would end after the deadline
    cmd_times, untraced, traced = {}, [], []
    deadline = perf_counter() + seconds
    while True:
        next_traced = trace and len(traced) < len(untraced)
        if next_traced:
            before, main_before = tracer.snapshot()
            tracer.install()
            try:
                wall, bad = run_pass(cli, wl, checker, None, failures)
            finally:
                tracer.uninstall()
            after, main_after = tracer.snapshot()
            traced.append((diff(after, before), main_after - main_before, wall))
        else:
            wall, bad = run_pass(cli, wl, checker, cmd_times, failures)
            untraced.append(wall)
        attempted += len(wl.commands)
        failed += bad
        next_traced = trace and len(traced) < len(untraced)
        estimate = (traced[-1][2] if traced else 2.0 * wall) if next_traced else untraced[-1]
        if perf_counter() + estimate > deadline and (traced or not trace):
            break

    with open(wl.scenarios[0], encoding="utf-8") as fh:
        solver = json.load(fh).get("solver", {})
    draws, grid = solver.get("draws", 100_000), solver.get("rho_grid_points", 512)
    extra = dict(checker.accuracy, x_se=0.0, se_h=0.0, emu_err=checker.emu_err(draws, cli_seed))
    if name == "iid-finite":
        extra["x_se"], extra["se_h"] = _iid_x_se(checker, draws, cli_seed)
        ok = extra["x_se"] > 0.0 and np.isfinite(extra["x_se"])
        run_check([] if ok else [f"x_se={extra['x_se']} is not a positive error bar"])
    if trace:
        total = {}
        for t, *_ in traced:
            for layer, row in t.items():
                total[layer] = total.get(layer, 0) + row[CALLS]
        missing = sorted(n for n in wl.uses if total.get(n, 0) == 0)
        unexpected = sorted(n for n in wl.never if total.get(n, 0) != 0)
        run_check([f"trace: no calls to {missing}; unexpected calls to {unexpected}"]
                  if missing or unexpected else [])
    extra["fail_frac"] = failed / attempted

    provenance = {
        "workload": name, "seed": seed, "cli_seed": cli_seed, "draws": draws, "grid": grid,
        "run_seconds": seconds, "trace": trace, "passes": len(untraced),
        "traced_passes": len(traced), "setup_probes": SETUP_PROBES,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": git_commit(),
        "sweep_workers": max(workers, default=0),
        "wall_s_passes": untraced,
        "command_s": {k: command_time(cmd_times, k) for k in sorted(cmd_times)},
        "accuracy": extra, "failures": failures[:20],
    }
    if trace:
        metrics = layer_metrics(traced, untraced, cmd_times, extra)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{name}_{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance, **tracer.dump()}, fh)
    else:
        metrics = {
            "setup_s": (median(setup), "s"),
            "wall_s": (median(untraced), "s"),
            "equilibrium_s": (command_time(cmd_times, "equilibrium"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"provenance": provenance}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _iid_x_se(checker, draws, seed):
    from deragg.scenario import load_scenario
    from oracles import coverage_x_se

    if checker.solution is None:
        return 0.0, 0.0
    rho, x = checker.solution
    return coverage_x_se(load_scenario(checker.workload.scenarios[0]).scenario,
                         rho, x, draws, seed)


def run_all(args) -> int:
    """Each workload in a fresh process; prints each result, then a combined one."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"workload {name} printed no result (exit {proc.returncode})")
        print(name, lines[-1])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in ("src/deragg/__init__.py", "scenarios/base.json", "scenarios/iid.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"bench: {needed} is missing; run from a deragg source checkout",
                  file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
