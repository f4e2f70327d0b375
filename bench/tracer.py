"""Per-layer tracing of the deragg package from outside it.

The package binds functions with ``from .x import f``, so a function has
one reference in its home module and one in every module that imports it.
``Tracer.install`` wraps each traced function and swaps the wrapper into
every ``deragg`` module (and the package namespace) that holds the
original, so no call site is missed; ``uninstall`` puts the originals
back, which lets one process alternate traced and untraced passes.

Each thread keeps its own span stack and its own aggregate table, so the
self time of a span (its duration minus its children's, on the same
thread) stays correct when ``sweep`` runs points on its thread pool.
Everything is kept in memory; ``dump`` writes it out at the end.
"""

from __future__ import annotations

import inspect
import sys
import threading
from time import perf_counter, thread_time

# trace name -> (module, function).  Coarse spans are also kept as
# individual span records; the rest, called up to millions of times per
# pass, are only aggregated per thread.
LAYERS = {
    "capacity.sample": ("capacity", "sample"),
    "agents.emu": ("agents", "expected_marginal_utility"),
    "penalty.shares": ("penalty", "penalty_shares"),
    "equilibrium.coverage": ("equilibrium", "partial_coverage_samples"),
    "equilibrium.foc": ("equilibrium", "follower_foc_gap"),
    "equilibrium.bounds": ("equilibrium", "offer_price_bounds"),
    "equilibrium.leader": ("equilibrium", "stackelberg_solve"),
    "equilibrium.meanfield": ("equilibrium", "meanfield_stackelberg"),
    "equilibrium.meanfield_solve": ("equilibrium", "meanfield_solve"),
    "market.curve_agg": ("market", "build_supply_curve_aggregated"),
    "market.curve_direct": ("market", "build_supply_curve_direct"),
    "market.clear": ("market", "clear_market"),
    "market.poag": ("market", "price_of_aggregation"),
    "scenario.load": ("scenario", "load_scenario"),
    "cli": ("cli", "main"),
    "cli.sweep": ("cli", "cmd_sweep"),
    "cli.sweep.point": ("cli", "_sweep_point"),
}
COARSE = {
    "equilibrium.leader", "equilibrium.meanfield", "market.curve_agg",
    "market.curve_direct", "market.clear", "market.poag", "scenario.load",
    "cli", "cli.sweep", "cli.sweep.point",
}


def _sample_bytes(args):
    return 8.0 * args["n"] * args.get("draws", 1)


def _coverage_elems(args):
    return float(args["draws"] * args["scenario"].n_prosumers)


# per-call quantities read from the arguments: summed and maximised
QUANTITIES = {"capacity.sample": _sample_bytes, "equilibrium.coverage": _coverage_elems}

# table row fields
CALLS, INCL, SELF, CPU, QSUM, QMAX = range(6)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []  # (thread ident, {name: row}) per thread ever seen
        self._spans = []  # per-thread lists of coarse span records
        self._next_id = 0
        self._saved = []  # (module, attribute, original) to restore

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            table, spans = {}, []
            st = self._local.st = ([], table, spans)
            with self._lock:
                self._tables.append((threading.get_ident(), table))
                self._spans.append(spans)
        return st

    def _span_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, name, fn):
        quantity = QUANTITIES.get(name)
        sig = inspect.signature(fn) if quantity else None
        coarse = name in COARSE
        state = self._state
        span_id = self._span_id

        def traced(*args, **kwargs):
            stack, table, spans = state()
            frame = [0.0, span_id() if coarse else None]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            c0 = thread_time() if coarse else 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0, 0.0, 0.0, 0.0]
                row[CALLS] += 1
                row[INCL] += dur
                row[SELF] += dur - frame[0]
                if coarse:
                    cpu = thread_time() - c0
                    row[CPU] += cpu
                    spans.append((frame[1], parent, threading.get_ident(), name, t0, t1, cpu))
                if quantity:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    q = quantity(bound.arguments)
                    row[QSUM] += q
                    row[QMAX] = max(row[QMAX], q)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap a wrapper into every deragg module that binds a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "deragg" or n.startswith("deragg."))]
        for name, (mod, attr) in LAYERS.items():
            original = getattr(sys.modules[f"deragg.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def snapshot(self):
        """Totals so far: {name: row} over all threads, and main-thread self time."""
        total, main_self = {}, 0.0
        main = threading.main_thread().ident
        with self._lock:
            tables = list(self._tables)
        for ident, table in tables:
            for name, row in table.items():
                acc = total.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, 0.0])
                for i in (CALLS, INCL, SELF, CPU, QSUM):
                    acc[i] += row[i]
                acc[QMAX] = max(acc[QMAX], row[QMAX])
                if ident == main:
                    main_self += row[SELF]
        return total, main_self

    def dump(self):
        """Span records and per-thread tables, for writing out at the end."""
        with self._lock:
            return {
                "spans": [
                    dict(zip(("id", "parent", "thread", "name", "start", "end", "cpu_s"), s))
                    for spans in self._spans for s in spans
                ],
                "threads": [
                    {"thread": ident,
                     "layers": {n: dict(zip(("calls", "incl_s", "self_s", "cpu_s",
                                             "qty_sum", "qty_max"), row))
                                for n, row in table.items()}}
                    for ident, table in self._tables
                ],
            }


def diff(after, before):
    """Per-pass table: ``after - before`` (maxima are taken from ``after``)."""
    out = {}
    for name, row in after.items():
        prev = before.get(name, [0, 0.0, 0.0, 0.0, 0.0, 0.0])
        d = [row[i] - prev[i] for i in (CALLS, INCL, SELF, CPU, QSUM)]
        out[name] = d + [row[QMAX]]
    return out
