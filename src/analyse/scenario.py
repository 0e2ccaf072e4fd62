"""Scenario documents: parsing, validation, and co-simulation assembly.

A scenario YAML declares the grid, the data feeders, the PV units, the
reactive-power market with its scripted bidders, the communication network
(including pre-declared attack rules), the agent's sensors/actuators and
objective, and the schedule of train/test phases; its schema states, as a
`default`, what each omitted optional field means. parse_scenario turns such
a document, schema-valid and with its defaults filled in by validation, into
a typed ScenarioConfig with one record for each configured thing, which all
its consumers share. The grid section is one GridModel whose compiled
topology serves every episode's power flows; its Load and Sgen records carry
the scenario's names (and a load its profile key), which the solver ignores.
A PV unit is a feeders.PvUnit, a bidder a market.Bidder, an attack rule a
network.AttackRule, and the agent section its Objective and LearnerConfig.
Once the cross-check passes, validation reads the data series with
load_data_series into the config's `series`, so a run needs the config alone.
assemble is the one description of the co-simulation: which adapters exist
follows from the config alone, it makes every connection, and it returns the
wired Kernel. validation.cross_check is the one sensor/actuator endpoint
check; it resolves the ids against a dry assembly, so there is no second
endpoint table to keep in step:

    weather --> pv --> grid --> market
    profiles ------^              ^  \\ (outbox, time-shifted)
    bidders --> net --------------+   --> net --> pv (inbox, time-shifted)

Offers and dispatch setpoints travel as application frames through the
network simulator; the market only sees offers whose frames arrived before
gate closure, which is exactly the denial-of-service attack surface. Every
inbox and outbox link is a kernel message connection, so each adapter
receives only the frames (or messages) new since its last step. An inbox
item is an `(arrival, network.Frame)` pair, as the network delivered it.

Market timing: offers submitted at time t carry interval t/I + 2; the
clearing at time t settles interval t/I + 1 and its dispatch frames reach the
PV units in time for that interval's start at t + I.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

import yaml

from . import feeders
from .agents import ActuatorSpec, LearnerConfig, Objective, Phase, SensorSpec
from .design import STREAM_JITTER, STREAM_NET, derive_seed
from .errors import ScenarioError
from .feeders import FeederError, LoadProfile, PvUnit, WeatherSeries, pv_output
from .grid import Bus, GridModel, GridState, Line, Load, Sgen, solve_power_flow
from .kernel import Kernel, ModelSpec, SimulatorDescriptor
from .market import (
    MAX_PAYMENT_EUR,
    Bidder,
    MarketError,
    Offer,
    VoltageBand,
    baseline_bid,
    clear_market,
    dispatch_from_payload,
    offer_from_payload,
)
from .network import (
    AttackRule,
    InterfaceCounters,
    LinkSpec,
    MatchSpec,
    Network,
    NetworkTopology,
    NodeSpec,
)
from .telemetry import canonical_json, mean

SCHEMA_VERSION = 1
ADVERSARY_MODEL = "adversary"


# ---------------------------------------------------------------------------
# document loading


# pyyaml's binding to libyaml when it was built with one: it reads the
# scenario schema about seven times as fast as the pure-Python loader
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# Text libyaml reads where the pure loader refuses it, found by fuzzing the
# bundled files: a tab as a separator, a "?" inside a flow scalar, a tag
# before a flow indicator, a byte-order mark that starts a later line. Bytes
# that hold a tab, "?" or "!", or any non-ASCII byte, skip libyaml.
_PURE_ONLY = (b"\t", b"?", b"!")


def parse_yaml(data: bytes, name) -> Any:
    """What the YAML bytes hold, read as pyyaml's pure-Python SafeLoader reads them.

    libyaml parses them when pyyaml has it and the bytes are ASCII with none
    of _PURE_ONLY. Bytes it refuses are parsed again with the SafeLoader,
    whose line, column and problem the ScenarioError then names after
    `name`, so an error reads the same whichever way pyyaml was built.
    """
    if data.isascii() and not any(c in data for c in _PURE_ONLY):
        try:
            return yaml.load(data, Loader=_FAST_LOADER)
        except Exception:  # a YAMLError, or a constructor error as below
            pass
    try:
        return yaml.load(data, Loader=yaml.SafeLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ScenarioError(f"{name}:{mark.line + 1}:{mark.column + 1}: {exc.problem}") from exc
    except Exception as exc:
        # a YAMLError, or what pyyaml's constructors raise unwrapped on a bad
        # tagged value, such as ValueError for `!!int abc`
        raise ScenarioError(f"{name}: {exc}") from exc


def load_document(path: str | Path) -> dict:
    """The mapping a YAML file holds.

    A file that is not YAML, or holds no mapping, raises ScenarioError with
    a message that names the path once.
    """
    doc = parse_yaml(Path(path).read_bytes(), path)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: document is not a mapping")
    return doc


def resolve_data_path(ref: str, base_dir: Path) -> Path:
    """Resolve a data file reference; "pkg:" points into the bundled data."""
    if ref.startswith("pkg:"):
        import importlib.resources as resources

        return Path(str(resources.files("analyse").joinpath("data", ref[4:])))
    p = Path(ref)
    return p if p.is_absolute() else base_dir / p


# ---------------------------------------------------------------------------
# typed configuration


class MarketConfig(NamedTuple):
    band: VoltageBand
    interval_s: int
    gate_closure_s: float
    operator_host: str
    bidders: tuple[Bidder, ...]


class NetworkConfig(NamedTuple):
    step_s: int
    utilization_window_s: float
    topology: NetworkTopology
    rules: tuple[AttackRule, ...]
    restartable: tuple[tuple[str, float], ...]


class AgentConfig(NamedTuple):
    agent_id: str
    sensors: tuple[SensorSpec, ...]
    actuators: tuple[ActuatorSpec, ...]
    objective: Objective
    learner: LearnerConfig


class ScenarioConfig(NamedTuple):
    name: str
    seed: int
    grid_step_s: int
    grid: GridModel  # the configured loads and sgens; step models share its topology
    profiles: dict[str, Path]
    weather_path: Path | None
    pv_units: tuple[PvUnit, ...]
    market: MarketConfig
    network: NetworkConfig
    agent: AgentConfig
    schedule: tuple[Phase, ...]
    # the load profiles by key and the weather series, as validation read
    # them; a dry assembly, which only lists endpoints, reads neither
    series: tuple[dict[str, LoadProfile], WeatherSeries | None] = ({}, None)


def _rule_from_doc(doc: dict) -> AttackRule:
    match = doc["match"]
    action = doc["action"]
    contains = match["payload_contains"]
    active_until = doc["active_until"]
    return AttackRule(
        rule_id=str(doc["rule_id"]),
        at_node=str(doc["at_node"]),
        match=MatchSpec(
            src=match["src"],
            dst=match["dst"],
            payload_contains=contains.encode("utf-8") if contains is not None else None,
        ),
        action=action["kind"],
        replacement=action["replacement"].encode("utf-8"),
        extra_ms=float(action["extra_ms"]),
        active_from=float(doc["active_from"]),
        active_until=float("inf") if active_until is None else float(active_until),
        enabled=bool(doc["enabled"]),
    )


def parse_scenario(doc: dict, base_dir: Path) -> ScenarioConfig:
    """Typed configuration from a schema-valid scenario document with its
    defaults filled in (validation.with_defaults). Only the three optional
    fields that have no schema default are read with `get`."""
    gdoc = doc["grid"]
    grid = GridModel(
        base_mva=float(gdoc["base_mva"]),
        buses=tuple(
            Bus(int(b["id"]), b["kind"], float(b["vm_setpoint_pu"]))
            for b in gdoc["buses"]
        ),
        lines=tuple(
            Line(
                int(l["from"]), int(l["to"]), float(l["r_pu"]), float(l["x_pu"]),
                float(l["b_pu"]), float(l["rating_mva"]),
            )
            for l in gdoc["lines"]
        ),
        loads=tuple(
            Load(
                int(l["bus"]), float(l["p_mw"]), float(l["q_mvar"]),
                str(l["name"]), l["profile"],
            )
            for l in gdoc["loads"]
        ),
        sgens=tuple(
            Sgen(
                int(s["bus"]), float(s["p_mw"]), float(s["q_mvar"]),
                float(s["q_min_mvar"]), float(s["q_max_mvar"]), str(s["name"]),
            )
            for s in gdoc["sgens"]
        ),
    )

    data = doc["data"]
    profiles = {
        str(name): resolve_data_path(str(ref["path"]), base_dir)
        for name, ref in data["load_profiles"].items()
    }
    weather_ref = data.get("weather")  # absent: no weather series
    weather_path = resolve_data_path(str(weather_ref["path"]), base_dir) if weather_ref else None

    pv_units = tuple(
        PvUnit(
            str(u["name"]), str(u["sgen"]), float(u["p_peak_mw"]),
            float(u["temp_coeff"]), str(u["host"]),
        )
        for u in doc["pv"]["units"]
    )

    mdoc = doc["market"]
    market = MarketConfig(
        band=VoltageBand(
            v_min_pu=float(mdoc["band"]["v_min_pu"]),
            v_max_pu=float(mdoc["band"]["v_max_pu"]),
        ),
        interval_s=int(mdoc["interval_s"]),
        gate_closure_s=float(mdoc["gate_closure_s"]),
        operator_host=str(mdoc["operator_host"]),
        bidders=tuple(
            Bidder(
                asset=str(b["asset"]),
                agent_id=str(b["agent"]),
                host=str(b["host"]),
                strategy=b["strategy"],
                price_eur_per_mvar=float(b["price_eur_per_mvar"]),
                side=b["side"],
            )
            for b in mdoc["bidders"]
        ),
    )

    ndoc = doc["network"]
    topology = NetworkTopology(
        nodes=tuple(NodeSpec(str(n["id"])) for n in ndoc["nodes"]),
        links=tuple(
            LinkSpec(
                str(l["a"]), str(l["b"]), float(l["latency_ms"]),
                None if l["bandwidth_kbps"] in (None, 0) else float(l["bandwidth_kbps"]),
                float(l["loss_prob"]),
            )
            for l in ndoc["links"]
        ),
    )
    network = NetworkConfig(
        step_s=int(ndoc["step_s"]),
        utilization_window_s=float(ndoc["utilization_window_s"]),
        topology=topology,
        rules=tuple(_rule_from_doc(r) for r in ndoc["rules"]),
        restartable=tuple(
            (str(r["node"]), float(r["downtime_s"]))
            for r in ndoc["restartable"]
        ),
    )

    adoc = doc["agents"][0]
    odoc = adoc["objective"]
    ldoc = adoc["learner"]
    agent = AgentConfig(
        agent_id=str(adoc["agent_id"]),
        sensors=tuple(
            SensorSpec(str(s["id"]), float(s["lo"]), float(s["hi"]))
            for s in adoc["sensors"]
        ),
        actuators=tuple(
            ActuatorSpec(
                str(a["id"]), float(a["lo"]), float(a["hi"]),
                float(a.get("default", a["lo"])),  # absent: the actuator's lo
            )
            for a in adoc["actuators"]
        ),
        objective=Objective(
            kind=odoc["kind"],
            agents=tuple(odoc["agents"]),
            cost_per_mvar=float(odoc["cost_per_mvar"]),
            weights=dict(odoc["weights"]),
        ),
        learner=LearnerConfig(
            kind=str(adoc["kind"]),
            population=int(ldoc["population"]),
            generations=int(ldoc["generations"]),
            sigma0=float(ldoc["sigma0"]),
            replay=tuple(tuple(row) for row in adoc["replay"]),
        ),
    )

    return ScenarioConfig(
        name=str(doc["name"]),
        seed=int(doc["seed"]),
        grid_step_s=int(gdoc.get("step_s", market.interval_s)),  # absent: the market interval
        grid=grid,
        profiles=profiles,
        weather_path=weather_path,
        pv_units=pv_units,
        market=market,
        network=network,
        agent=agent,
        schedule=tuple(
            Phase(str(p["name"]), str(p["mode"]), int(p["episodes"]), int(p["episode_length"]))
            for p in doc["schedule"]
        ),
    )


# ---------------------------------------------------------------------------
# simulator adapters

# The attributes below carry messages (inbox, outbox) or objects (the grid
# solver's model and state), not numbers; no agent sensor or actuator may
# name one.
NON_NUMERIC_ATTRS = frozenset({"inbox", "outbox", "model", "state"})


def sensed_models(config: ScenarioConfig, sim_id: str) -> frozenset[str]:
    """The models of simulator sim_id that a sensor of the agent names."""
    ids = (s.id.split(".") for s in config.agent.sensors)
    return frozenset(parts[1] for parts in ids if len(parts) == 3 and parts[0] == sim_id)


class GridSimulator:
    """Solves the power flow. The solver model outputs the model and state
    the market reads at every step; a converged step also outputs the bus,
    line and slack models that a sensor names, and no other, since nothing
    else reads them."""

    SIM_ID = "grid"

    def __init__(self, config: ScenarioConfig, emit: Callable):
        self.config = config
        self.emit = emit
        self.last: GridState | None = None  # latest converged step: the next warm start
        sensed = sensed_models(config, self.SIM_ID)
        # (index in the state's per-bus or per-line values, model id) of each sensed model
        self._buses = tuple((i, f"bus_{b.bus_id}") for i, b in enumerate(config.grid.buses)
                            if f"bus_{b.bus_id}" in sensed)
        self._lines = tuple((i, f"line_{i}") for i in range(len(config.grid.lines))
                            if f"line_{i}" in sensed)
        self._slack = "slack" in sensed

    def descriptor(self) -> SimulatorDescriptor:
        cfg = self.config
        models = [
            ModelSpec(f"bus_{b.bus_id}", outputs=("vm_pu", "va_rad")) for b in cfg.grid.buses
        ]
        models += [
            ModelSpec(f"line_{i}", outputs=("loading",)) for i in range(len(cfg.grid.lines))
        ]
        models.append(ModelSpec("slack", outputs=("p_mw", "q_mvar")))
        models.append(ModelSpec("solver", outputs=("converged", "iterations", "model", "state")))
        models += [
            ModelSpec(f"load_{l.name}", inputs={"p_mw": l.p_mw, "q_mvar": l.q_mvar})
            for l in cfg.grid.loads
        ]
        models += [
            ModelSpec(f"sgen_{s.name}", inputs={"p_mw": s.p_mw, "q_mvar": s.q_mvar})
            for s in cfg.grid.sgens
        ]
        return SimulatorDescriptor(self.SIM_ID, self.config.grid_step_s, tuple(models))

    def __call__(self, t: int, inputs: dict) -> dict:
        cfg = self.config
        loads = tuple(
            Load(l.bus, float(inputs[f"load_{l.name}"]["p_mw"]),
                 float(inputs[f"load_{l.name}"]["q_mvar"]), l.name, l.profile)
            for l in cfg.grid.loads
        )
        sgens = []
        for s in cfg.grid.sgens:
            setpoint = inputs[f"sgen_{s.name}"]
            q = min(max(float(setpoint["q_mvar"]), s.q_min_mvar), s.q_max_mvar)
            sgens.append(
                Sgen(s.bus, float(setpoint["p_mw"]), q, s.q_min_mvar, s.q_max_mvar, s.name))
        model = cfg.grid.with_injections(loads, tuple(sgens))
        state = solve_power_flow(model, self.last)
        outputs: dict = {"solver": {
            "converged": 1.0 if state.converged else 0.0,
            "iterations": state.iterations,
            "model": model,
            "state": state,
        }}
        record = {"t": t, "vm": {}, "converged": state.converged,
                  "iterations": state.iterations,
                  "slack_p_mw": None, "slack_q_mvar": None, "max_line_loading": None}
        # a diverged solve's last iterate is no power flow: log and output none of it
        if state.converged:
            self.last = state
            record["vm"] = {str(b.bus_id): v for b, v in zip(cfg.grid.buses, state.vm)}
            record["slack_p_mw"] = state.slack_p_mw
            record["slack_q_mvar"] = state.slack_q_mvar
            record["max_line_loading"] = max(state.line_loading) if state.line_loading else 0.0
            for i, model_id in self._buses:
                outputs[model_id] = {"vm_pu": state.vm[i], "va_rad": state.va[i]}
            for i, model_id in self._lines:
                outputs[model_id] = {"loading": state.line_loading[i]}
            if self._slack:
                outputs["slack"] = {"p_mw": state.slack_p_mw, "q_mvar": state.slack_q_mvar}
        self.emit("grid", "grid.step", float(t), record)
        return outputs


class ProfilesSimulator:
    SIM_ID = "profiles"

    def __init__(self, config: ScenarioConfig, loads: list[Load],
                 series: dict[str, LoadProfile]):
        self.config = config
        self.loads = loads  # the loads that name a profile
        self.series = series  # profile key -> factors (base 1.0)

    def descriptor(self) -> SimulatorDescriptor:
        models = [ModelSpec(f"load_{l.name}", outputs=("p_mw", "q_mvar")) for l in self.loads]
        return SimulatorDescriptor(self.SIM_ID, self.config.grid_step_s, tuple(models))

    def __call__(self, t: int, inputs: dict) -> dict:
        outputs = {}
        for l in self.loads:
            factor = self.series[l.profile].at(t)
            outputs[f"load_{l.name}"] = {"p_mw": factor * l.p_mw, "q_mvar": factor * l.q_mvar}
        return outputs


class WeatherSimulator:
    SIM_ID = "weather"

    def __init__(self, config: ScenarioConfig, series: WeatherSeries):
        self.config = config
        self.series = series

    def descriptor(self) -> SimulatorDescriptor:
        return SimulatorDescriptor(
            self.SIM_ID,
            self.config.grid_step_s,
            (ModelSpec("station", outputs=("ghi_w_m2", "t_air_c")),),
        )

    def __call__(self, t: int, inputs: dict) -> dict:
        sample = self.series.at(t)
        return {"station": {"ghi_w_m2": sample.ghi_w_m2, "t_air_c": sample.t_air_c}}


class PvSimulator:
    SIM_ID = "pv"

    def __init__(self, config: ScenarioConfig):
        self.config = config
        sgens = {s.name: s for s in config.grid.sgens}
        # each unit's sgen by unit name, whose q range a dispatch is clamped to
        self.sgens = {u.name: sgens[u.sgen] for u in config.pv_units}
        self._q: dict[str, float] = dict.fromkeys(self.sgens, 0.0)

    def descriptor(self) -> SimulatorDescriptor:
        models = [
            ModelSpec(
                u.name,
                inputs={"ghi_w_m2": 0.0, "t_air_c": 15.0, "inbox": ()},
                outputs=("p_mw", "q_mvar"),
            )
            for u in self.config.pv_units
        ]
        return SimulatorDescriptor(self.SIM_ID, self.config.grid_step_s, tuple(models))

    def __call__(self, t: int, inputs: dict) -> dict:
        outputs = {}
        for u in self.config.pv_units:
            name, sgen, model_in = u.name, self.sgens[u.name], inputs[u.name]
            for _, frame in model_in["inbox"]:
                try:
                    msg = json.loads(frame.payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue
                # the market addresses a dispatch to the asset, the unit's sgen;
                # any other frame leaves the previous setpoint
                q = dispatch_from_payload(msg, u.sgen)
                if q is not None:
                    self._q[name] = min(max(q, sgen.q_min_mvar), sgen.q_max_mvar)
            p_mw = pv_output(u, model_in["ghi_w_m2"], model_in["t_air_c"])
            outputs[name] = {"p_mw": p_mw, "q_mvar": self._q[name]}
        return outputs


class BiddersSimulator:
    SIM_ID = "bidders"

    def __init__(self, config: ScenarioConfig, jitter_rng: random.Random):
        self.config = config
        sgens = {s.name: s for s in config.grid.sgens}
        self.bidders = [(b, sgens[b.asset]) for b in config.market.bidders]
        self.rng = jitter_rng

    def descriptor(self) -> SimulatorDescriptor:
        models = [
            ModelSpec(
                b.asset,
                inputs={"price": b.price_eur_per_mvar, "q_scale": 1.0},
                outputs=("outbox",),
            )
            for b in self.config.market.bidders
        ]
        return SimulatorDescriptor(self.SIM_ID, self.config.market.interval_s, tuple(models))

    def __call__(self, t: int, inputs: dict) -> dict:
        interval_s = self.config.market.interval_s
        # Offers bid for the interval cleared at t + interval_s (pipeline:
        # submit at t, clear at t+I, deliver from t+2I).
        interval = t // interval_s + 2
        op_host = self.config.market.operator_host
        outputs = {}
        for b, sgen in self.bidders:
            offer = baseline_bid(
                b,
                sgen,
                interval,
                self.rng,
                offer_id=f"{b.asset}-{interval:05d}",
                price=float(inputs[b.asset]["price"]),
                q_scale=float(inputs[b.asset]["q_scale"]),
            )
            messages = ()
            if offer is not None:
                payload = canonical_json(offer._asdict()).encode("utf-8")
                messages = ((op_host, payload),)
            outputs[b.asset] = {"outbox": messages}
        return outputs


class NetSimulator:
    """Steps the network. Each node model outputs as `inbox` the `(arrival,
    Frame)` pairs Network.delivered gives for it. A sensed node also outputs
    its four interface counters, only when one changed since its last output
    (the kernel keeps the last values); no other node's counters are read, so
    only the sensed nodes are the network's utilization nodes."""

    SIM_ID = "net"

    def __init__(self, config: ScenarioConfig, rng: random.Random, emit: Callable):
        self.config = config
        net_cfg = config.network
        self._sensed = sensed_models(config, self.SIM_ID)
        self.network = Network(
            net_cfg.topology, rng,
            emit=functools.partial(emit, "net"),
            utilization_window_s=net_cfg.utilization_window_s,
            utilization_nodes=self._sensed,
        )
        for rule in net_cfg.rules:
            if rule.enabled:
                self.network.install_rule(rule)
        self._restart_state: dict[str, bool] = {node: False for node, _ in net_cfg.restartable}
        self._nodes = tuple(n.node_id for n in net_cfg.topology.nodes)
        self._counters: dict[str, InterfaceCounters] = {}  # sensed node -> last output

    def descriptor(self) -> SimulatorDescriptor:
        net_cfg = self.config.network
        models = [
            ModelSpec(
                n.node_id,
                inputs={"outbox": ()},
                outputs=("inbox", "bytes_in", "bytes_out", "frames_dropped", "utilization"),
            )
            for n in net_cfg.topology.nodes
        ]
        adversary_inputs: dict[str, Any] = {
            f"rule_{rule.rule_id}": (1.0 if rule.enabled else 0.0) for rule in net_cfg.rules
        }
        for node, _ in net_cfg.restartable:
            adversary_inputs[f"restart_{node}"] = 0.0
        models.append(ModelSpec(ADVERSARY_MODEL, inputs=adversary_inputs, outputs=("rules_active",)))
        return SimulatorDescriptor(self.SIM_ID, net_cfg.step_s, tuple(models))

    def next_event_time(self) -> float | None:
        """The earliest in-flight frame event. Besides at that time, the
        kernel steps the net when frames are queued for it, an adversary
        actuator changed, or the agent's sensors read it."""
        return self.network.next_event_time()

    def __call__(self, t: int, inputs: dict) -> dict:
        # Flush in-flight events first: they carry continuous timestamps from
        # (previous step, t], and telemetry must stay time-ordered. Frames
        # injected below are timestamped t and processed on the next step.
        self.network.advance(float(t))

        adversary = inputs[ADVERSARY_MODEL]
        rules_active = 0
        for rule in self.config.network.rules:
            rid = rule.rule_id
            want = float(adversary[f"rule_{rid}"]) > 0.5
            if want and not self.network.has_rule(rid):
                self.network.install_rule(rule)
            elif not want:
                self.network.remove_rule(rid)
            rules_active += want
        for node, downtime in self.config.network.restartable:
            want = float(adversary[f"restart_{node}"]) > 0.5
            if want and not self._restart_state[node]:
                self.network.restart_node(node, downtime)
            self._restart_state[node] = want

        for node in self._nodes:
            for dst, payload in inputs[node]["outbox"]:
                self.network.send(node, dst, payload, float(t))

        outputs: dict[str, dict] = {
            ADVERSARY_MODEL: {"rules_active": float(rules_active)}
        }
        last, sensed = self._counters, self._sensed
        for node in self._nodes:
            delivered = self.network.delivered(node)
            out = {}
            if node in sensed:
                counters = self.network.read_counters(node)
                if counters != last.get(node):
                    last[node] = counters
                    out = counters._asdict()
            if delivered:
                out["inbox"] = delivered
            if out:
                outputs[node] = out
        return outputs


class MarketSimulator:
    SIM_ID = "market"

    def __init__(self, config: ScenarioConfig, emit: Callable):
        self.config = config
        self.emit = emit
        sgens = {s.name: s for s in config.grid.sgens}
        self.bidders = {b.asset: (b, sgens[b.asset]) for b in config.market.bidders}

    def descriptor(self) -> SimulatorDescriptor:
        return SimulatorDescriptor(
            self.SIM_ID,
            self.config.market.interval_s,
            (
                ModelSpec(
                    "op",
                    inputs={"grid_model": None, "grid_state": None, "inbox": ()},
                    outputs=(
                        "outbox", "last_price", "last_cost", "last_resolved",
                        "last_accepted_mvar",
                    ),
                ),
            ),
        )

    @staticmethod
    def _refusal(offer: Offer, bidder: Bidder | None, sgen: Sgen | None, interval: int,
                 pending: dict) -> str | None:
        """Why an offer cannot enter the book of the interval being cleared;
        bidder and sgen are those of the asset its offer_id names, if any.

        A legitimate offer always arrives at the clearing of its own
        interval, so an offer for any other interval is refused. So is one
        whose payment exceeds MAX_PAYMENT_EUR, whether a bidder's price set
        it or a tamper rule wrote it, so that no sum of payments overflows.
        """
        if bidder is None:
            return "unknown asset"
        if bidder.agent_id != offer.agent_id:
            return "asset of another agent"
        if sgen.bus != offer.bus:
            return "asset at another bus"
        if not (sgen.q_min_mvar <= offer.q_mvar <= sgen.q_max_mvar):
            return "exceeds headroom"
        if offer.price_eur_per_mvar * abs(offer.q_mvar) > MAX_PAYMENT_EUR:
            return "payment over limit"
        if offer.interval < interval:
            return "interval closed"
        if offer.interval > interval:
            return "interval not open"
        if offer.offer_id in pending:
            return "duplicate offer_id"
        return None

    def __call__(self, t: int, inputs: dict) -> dict:
        cfg = self.config.market
        model_in = inputs["op"]
        interval = t // cfg.interval_s + 1
        # offer_id -> (arrival, offer, the asset it is bound to)
        pending: dict[str, tuple[float, Offer, str]] = {}
        rejected: list[dict] = []
        for arrival, frame in model_in["inbox"]:
            try:
                doc = json.loads(frame.payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                rejected.append({"reason": "unparseable", "src": frame.src})
                continue
            if not isinstance(doc, dict) or "offer_id" not in doc:
                continue  # not an offer (e.g. a looped-back dispatch)
            try:
                offer = offer_from_payload(doc)
            except MarketError as exc:
                rejected.append({"reason": str(exc), "src": frame.src})
                continue
            asset_id = offer.offer_id.rsplit("-", 1)[0]
            bidder, sgen = self.bidders.get(asset_id, (None, None))
            reason = self._refusal(offer, bidder, sgen, interval, pending)
            if reason is None:
                pending[offer.offer_id] = (arrival, offer, asset_id)
            else:
                rejected.append({"reason": reason, "offer_id": offer.offer_id})

        gate = t - cfg.gate_closure_s
        book = [offer for arrival, offer, _ in pending.values() if arrival <= gate]
        late = len(pending) - len(book)

        grid_model: GridModel = model_in["grid_model"]  # the grid steps first at every t
        # Dispatch replaces each asset's setpoint, so the clearing baseline is
        # the grid with all market assets at zero committed reactive power.
        sgens = tuple(
            Sgen(s.bus, s.p_mw, 0.0, s.q_min_mvar, s.q_max_mvar, s.name)
            if s.name in self.bidders else s
            for s in grid_model.sgens
        )
        baseline = grid_model.with_injections(grid_model.loads, sgens)
        start: GridState = model_in["grid_state"]  # near the baseline's state
        result = clear_market(book, baseline, cfg.band, start if start.converged else None)

        accepted_by_asset: dict[str, float] = {}
        for a in result.accepted:
            asset_id = pending[a.offer_id][2]
            accepted_by_asset[asset_id] = accepted_by_asset.get(asset_id, 0.0) + a.q_mvar
        messages = []
        for b in cfg.bidders:
            q = accepted_by_asset.get(b.asset, 0.0)
            payload = canonical_json({
                "type": "dispatch", "unit": b.asset, "q_mvar": q,
                "interval": interval, "accepted": q != 0.0,
            }).encode("utf-8")
            messages.append((b.host, payload))

        accepted_mvar = result.accepted_mvar_by_agent()
        self.emit("market", "market.clearing", float(t), {
            "t": t,
            "interval": interval,
            "offers": [o._asdict() for o in sorted(book, key=lambda o: o.offer_id)],
            "accepted": [
                {"offer_id": a.offer_id, "q_accepted_mvar": a.q_mvar,
                 "price_eur_per_mvar": a.price_eur_per_mvar}
                for a in result.accepted
            ],
            "payments_eur": result.payments_eur,
            "accepted_mvar": accepted_mvar,
            "resolved": result.resolved,
            "aborted": result.aborted,
            "iterations": len(result.accepted),
            "total_cost_eur": result.total_cost_eur,
            "final_vm": {str(k): v for k, v in result.final_vm.items()},
            "excursions": result.excursions,
            "rejected": rejected,
            "late": late,
        })
        prices = [a.price_eur_per_mvar for a in result.accepted]
        return {
            "op": {
                "outbox": tuple(messages),
                "last_price": mean(prices) if prices else 0.0,
                "last_cost": result.total_cost_eur,
                "last_resolved": 1.0 if result.resolved else 0.0,
                "last_accepted_mvar": sum(abs(a.q_mvar) for a in result.accepted),
            }
        }


# ---------------------------------------------------------------------------
# assembly


def load_data_series(config: ScenarioConfig) -> tuple[dict[str, LoadProfile], WeatherSeries | None]:
    """The load profiles, then the weather series, that the config names. A
    FeederError's `field` is the document field naming the file it was
    reading, so a file named twice is blamed where its reader failed."""
    profiles = {}
    weather = None
    try:
        for key, path in config.profiles.items():
            field = f"data/load_profiles/{key}/path"
            profiles[key] = feeders.read_load_profile_csv(path)
        if config.weather_path is not None:
            field = "data/weather/path"
            weather = feeders.read_weather_csv(config.weather_path)
    except FeederError as exc:
        exc.field = field
        raise
    return profiles, weather


def assemble(config: ScenarioConfig, seed: int,
             emit: Callable[[str, str, float, dict], None]) -> Kernel:
    """Build and wire a fresh kernel for one episode with the given seed.

    This is the one description of the co-simulation: which adapters exist
    follows from the config alone, and every connection is made here. The
    adapters step through `config.series`; no descriptor reads it.
    """
    profiles, weather = config.series
    profiled = [l for l in config.grid.loads if l.profile]
    op_host = config.market.operator_host

    # Registration order is step order.
    kernel = Kernel()
    adapters: list[Any] = []
    if config.weather_path is not None:
        adapters.append(WeatherSimulator(config, weather))
    if profiled:
        adapters.append(ProfilesSimulator(config, profiled, profiles))
    if config.pv_units:
        adapters.append(PvSimulator(config))
    adapters += [
        GridSimulator(config, emit),
        BiddersSimulator(config, random.Random(derive_seed(seed, STREAM_JITTER))),
        NetSimulator(config, random.Random(derive_seed(seed, STREAM_NET)), emit),
        MarketSimulator(config, emit),
    ]
    for sim in adapters:
        kernel.register_simulator(sim.descriptor(), sim)

    connect = kernel.connect
    for l in profiled:
        for attr in ("p_mw", "q_mvar"):
            connect(("profiles", f"load_{l.name}", attr), ("grid", f"load_{l.name}", attr))
    for u in config.pv_units:
        for attr in ("ghi_w_m2", "t_air_c"):
            connect(("weather", "station", attr), ("pv", u.name, attr))
        for attr in ("p_mw", "q_mvar"):
            connect(("pv", u.name, attr), ("grid", f"sgen_{u.sgen}", attr))
        connect(("net", u.host, "inbox"), ("pv", u.name, "inbox"),
                time_shifted=True, message=True)
    connect(("grid", "solver", "model"), ("market", "op", "grid_model"))
    connect(("grid", "solver", "state"), ("market", "op", "grid_state"))
    connect(("net", op_host, "inbox"), ("market", "op", "inbox"), message=True)
    for b in config.market.bidders:
        connect(("bidders", b.asset, "outbox"), ("net", b.host, "outbox"), message=True)
    connect(("market", "op", "outbox"), ("net", op_host, "outbox"),
            time_shifted=True, message=True)
    return kernel
