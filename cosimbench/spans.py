"""Span recording for the traced benchmark run, and the arithmetic on spans.

A span is one call across a layer boundary: a name, start and end times, the
span that was open when it started (its parent) and the run and episode it
belongs to. The recorder keeps spans in flat arrays while the workload runs;
the worker writes them out when it ends. A span's self time is its duration
minus the time its children cover, so the self times of all spans under a
root add up to the root's duration with nothing counted twice.

`instrument` installs the wrappers. The scenario module imports functions by
name, so each wrapper is installed where its caller looks the function up
(for example both `analyse.market.solve_power_flow` and
`analyse.grid.solve_power_flow`). The program itself is not changed.

Only the standard library and stats.py are imported at module level, so
importing this module in the measured process adds nothing to the program's
import time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from pathlib import Path

from stats import percentile

ROOT = "worker"


class Recorder:
    """Spans of one process, kept in memory until `write`."""

    def __init__(self, t0: float):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.episode = array("l")
        self.counters: dict[str, float] = {}
        self.run_index = -1
        self.episode_index = -1
        self._stack = [-1]
        self.root = self.enter(self.name_id(ROOT), t0)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int, t: float | None = None) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.start.append(time.perf_counter() if t is None else t)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_index)
        self.episode.append(self.episode_index)
        self._stack.append(i)
        return i

    def exit(self, i: int, t: float | None = None) -> None:
        self.end[i] = time.perf_counter() if t is None else t
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[self.name[i]]} closed out of order")

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def write(self, path: Path) -> None:
        """Spans as `<path>.json` (names, layout) and `<path>.bin` (columns)."""
        columns = ("name", "start", "end", "parent", "run", "episode")
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode, getattr(self, c).itemsize] for c in columns],
            "counters": self.counters,
        }
        path.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")
        with path.with_suffix(".bin").open("wb") as fh:
            for c in columns:
                getattr(self, c).tofile(fh)


@contextlib.contextmanager
def span(rec: Recorder | None, name: str):
    """A span around the enclosed block; nothing when there is no recorder."""
    if rec is None:
        yield
        return
    i = rec.enter(rec.name_id(name))
    try:
        yield
    finally:
        rec.exit(i)


def self_times(parent, start, end) -> list[float]:
    """Duration minus the time covered by direct children, per span.

    Spans come from one thread and a call stack, so children nest inside
    their parent and do not overlap one another; a parent always has a lower
    index than its children.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_of(name: str) -> str:
    return "trace.root" if name == ROOT else name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# wrappers


def _wrap(rec: Recorder, name: str, fn, before=None, after=None):
    nid = rec.name_id(name)
    enter, exit_ = rec.enter, rec.exit

    if before is None and after is None:
        def wrapper(*args, **kwargs):
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i)
    else:
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(i)
            if after is not None:
                after(result)
            return result

    return functools.update_wrapper(wrapper, fn)


def instrument(rec: Recorder) -> None:
    """Wrap the public calls of every layer where their callers find them."""
    from analyse import (
        agents, design, environment, grid, kernel, market, network, runner, scenario,
        telemetry, validation,
    )

    def patch(name, fn, sites, before=None, after=None):
        wrapper = _wrap(rec, name, fn, before, after)
        for owner, attr in sites:
            setattr(owner, attr, wrapper)

    def on_solve(state):
        rec.count("grid.nr_iterations", state.iterations)

    def on_clear(result):
        rec.count("market.resolved", 1 if result.resolved else 0)

    def on_run(args):
        rec.run_index += 1

    def on_reset(args):
        rec.episode_index += 1

    def on_close(args):
        sink = args[0]
        if not sink.closed:
            held = rec.counters.get("telemetry.records_held", 0)
            rec.counters["telemetry.records_held"] = max(held, len(sink.records))

    patch("grid.solve", grid.solve_power_flow,
          [(grid, "solve_power_flow"), (market, "solve_power_flow"),
           (scenario, "solve_power_flow")], after=on_solve)
    patch("grid.sensitivity", market.voltage_sensitivity, [(market, "voltage_sensitivity")])
    patch("market.clear", scenario.clear_market, [(scenario, "clear_market")], after=on_clear)

    for cls in (scenario.WeatherSimulator, scenario.ProfilesSimulator, scenario.PvSimulator,
                scenario.GridSimulator, scenario.BiddersSimulator, scenario.NetSimulator,
                scenario.MarketSimulator):
        patch(f"scenario.adapter.{cls.SIM_ID}", cls.__call__, [(cls, "__call__")])
    patch("scenario.load", scenario.load_document, [(scenario, "load_document")])
    patch("scenario.parse", scenario.parse_scenario, [(scenario, "parse_scenario")])
    patch("scenario.assemble", scenario.assemble, [(scenario, "assemble")])
    patch("feeders.load", scenario.load_data_series, [(scenario, "load_data_series")])

    patch("network.send", network.Network.send, [(network.Network, "send")])
    patch("network.advance", network.Network.advance, [(network.Network, "advance")])
    patch("network.read", network.Network.read_counters, [(network.Network, "read_counters")])
    patch("network.delivered", network.Network.delivered, [(network.Network, "delivered")])

    patch("kernel.run_until", kernel.Kernel.run_until, [(kernel.Kernel, "run_until")])

    patch("telemetry.emit", telemetry.RunSink.emit, [(telemetry.RunSink, "emit")])
    patch("telemetry.close", telemetry.RunSink.close, [(telemetry.RunSink, "close")],
          before=on_close)
    patch("telemetry.summarize", telemetry.summarize, [(telemetry, "summarize")])
    patch("telemetry.compare", telemetry.compare, [(telemetry, "compare")])

    patch("environment.reset", environment.Environment.reset,
          [(environment.Environment, "reset")], before=on_reset)
    patch("environment.step", environment.Environment.step,
          [(environment.Environment, "step")])
    patch("environment.run_phase", environment.run_phase, [(runner, "run_phase")])

    patch("agents.act", environment.muscle_act, [(environment, "muscle_act")])
    patch("agents.act", agents.ScriptedAgent.act, [(agents.ScriptedAgent, "act")])
    patch("agents.cem_update", environment.cem_update, [(environment, "cem_update")])

    patch("design.derive_seed", design.derive_seed,
          [(design, "derive_seed"), (environment, "derive_seed"), (scenario, "derive_seed")])

    patch("validation.validate", validation.validate_document,
          [(validation, "validate_document"), (runner, "validate_document")])
    patch("runner.execute_run", runner.execute_run, [(runner, "execute_run")], before=on_run)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition

ADAPTERS = ("net", "grid", "market")
PARTITION = (
    "grid", "market", "network", "kernel", "scenario", "telemetry", "environment",
    "agents", "design", "feeders", "validation", "runner", "trace.root",
)


def layer_metrics(rec: Recorder, logs: list[dict],
                  report_passes: int) -> tuple[dict[str, float], float]:
    """Per-layer metrics and the partition error of one traced repetition.

    `logs` describes each run log (records, bytes, frames delivered and
    dropped); the logs were summarized `report_passes` times. The
    `<layer>.self_s` metrics partition the root span (process start to the
    last log closed); the returned error is how far their sum is from the
    root's duration.
    """
    names = [rec.names[k] for k in rec.name]
    start, end, parent = rec.start, rec.end, rec.parent
    own = self_times(parent, start, end)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    partition = dict.fromkeys(PARTITION, 0.0)
    samples: dict[str, list[float]] = {"grid.solve": [], "market.clear": [],
                                       "scenario.assemble": []}
    in_root = bytearray(len(names))
    in_clear = bytearray(len(names))
    solves_in_clear = 0
    for i, name in enumerate(names):
        d = end[i] - start[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if name in samples:
            samples[name].append(d)
        p = parent[i]
        in_root[i] = i == rec.root or (p >= 0 and in_root[p])
        in_clear[i] = name == "market.clear" or (p >= 0 and in_clear[p])
        if in_root[i]:
            partition[layer_of(name)] += own[i]
        if name == "grid.solve" and in_clear[i]:
            solves_in_clear += 1

    def n(name):
        return count.get(name, 0)

    def s(name, table):
        return table.get(name, 0.0)

    run_s = end[rec.root] - start[rec.root]
    steps = n("environment.step")
    clearings = n("market.clear")
    log_records = sum(log["records"] for log in logs)
    delivered = sum(log["frames_delivered"] for log in logs)
    summarize_s = s("telemetry.summarize", total) / report_passes
    stepper_calls = sum(v for k, v in count.items() if k.startswith("scenario.adapter."))
    m = {
        "grid.solves": n("grid.solve"),
        "grid.nr_iterations": rec.counters.get("grid.nr_iterations", 0),
        "grid.solve_us_p50": percentile(samples["grid.solve"], 0.5) * 1e6,
        "grid.solve_self_s": s("grid.solve", self_s),
        "grid.sensitivity_calls": n("grid.sensitivity"),
        "grid.sensitivity_s": s("grid.sensitivity", total),
        "grid.solves_per_interval": n("grid.solve") / steps,
        "market.clearings": clearings,
        "market.clear_ms_p50": percentile(samples["market.clear"], 0.5) * 1e3,
        "market.clear_ms_p90": percentile(samples["market.clear"], 0.9) * 1e3,
        "market.solves_per_clearing": solves_in_clear / clearings,
        "market.resolved_ratio": rec.counters.get("market.resolved", 0) / clearings,
        "network.frames_sent": n("network.send"),
        "network.frames_delivered": delivered,
        "network.frames_dropped": sum(log["frames_dropped"] for log in logs),
        "network.send_s": s("network.send", self_s),
        "network.advance_s": s("network.advance", self_s),
        "network.read_counters_calls": n("network.read"),
        "network.read_s": s("network.read", self_s),
        "network.frames_per_net_step": delivered / n("scenario.adapter.net"),
        "kernel.dispatch_us": s("kernel.run_until", self_s) / stepper_calls * 1e6,
        "scenario.assemble_calls": n("scenario.assemble"),
        "scenario.assemble_ms_p50": percentile(samples["scenario.assemble"], 0.5) * 1e3,
        "telemetry.records": n("telemetry.emit"),
        "telemetry.bytes": sum(log["bytes"] for log in logs),
        "telemetry.emit_s": s("telemetry.emit", self_s),
        "telemetry.emit_us_per_record": s("telemetry.emit", self_s) / n("telemetry.emit") * 1e6,
        "telemetry.records_held": rec.counters.get("telemetry.records_held", 0),
        "telemetry.summarize_s": summarize_s,
        "telemetry.summarize_records_per_s": log_records / summarize_s,
        "environment.steps": steps,
        "environment.resets": n("environment.reset"),
        "environment.step_self_s": s("environment.step", self_s),
        "agents.act_calls": n("agents.act"),
        "agents.act_s": s("agents.act", total),
        "agents.cem_updates": n("agents.cem_update"),
        "runner.import_s": s("runner.import", total),
        "validation.validate_s": s("validation.validate", total),
        "feeders.load_s": s("feeders.load", total),
        "trace.run_s": run_s,
    }
    for sim in ADAPTERS:
        m[f"kernel.steps.{sim}"] = n(f"scenario.adapter.{sim}")
        m[f"scenario.adapter_self_s.{sim}"] = s(f"scenario.adapter.{sim}", self_s)
    for layer, value in partition.items():
        m["trace.root_self_s" if layer == "trace.root" else f"{layer}.self_s"] = value
    return m, abs(sum(partition.values()) - run_s)
