import collections
import copy
import json
import random
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from analyse import design, grid, market, scenario
from analyse.cli import main
from analyse.environment import Environment
from analyse.grid import CompiledGrid, solve_power_flow
from analyse.kernel import Kernel
from analyse.network import Frame
from analyse.runner import execute_run
from analyse.scenario import (
    NetSimulator,
    PvSimulator,
    assemble,
    load_document,
)
from analyse.telemetry import canonical_json, summarize
from analyse.validation import (
    load_schema,
    schema_violations,
    validate_document,
    validate_experiment,
    validate_run,
    validate_scenario,
    with_defaults,
)

from conftest import MINI, packaged, parsed
from oracles import recount_log


class Recorder:
    def __init__(self):
        self.records = []

    def __call__(self, source, kind, t_sim, payload):
        self.records.append((source, kind, t_sim, payload))

    def of(self, kind):
        return [r for r in self.records if r[1] == kind]


def build(doc, seed=1):
    config = parsed(doc)
    recorder = Recorder()
    kernel = assemble(config, seed, recorder)
    return config, kernel, recorder


# -- validation -------------------------------------------------------------


def test_bundled_scenarios_validate():
    for name in ("feeder4.yaml", "gaming.yaml"):
        path = packaged(name)
        doc = load_document(path)
        assert validate_scenario(doc, path.parent) == []


@pytest.mark.parametrize("validate", [validate_scenario, validate_experiment, validate_run])
def test_non_mapping_is_a_schema_violation(validate):
    assert validate([1, 2], Path(".")) == [("(document root)", "[1, 2] is not of type 'object'")]


def test_bundled_experiment_validates():
    path = packaged("dos_experiment.yaml")
    assert validate_document(load_document(path), path.parent) == []


def test_missing_bus_reference_caught(mini_doc):
    mini_doc["grid"]["loads"][0]["bus"] = 99
    errors = validate_scenario(mini_doc, Path("."))
    assert errors == [("grid/loads/0/bus", "unknown bus 99")]


def test_every_grid_fault_is_listed_at_its_field(mini_doc):
    grid = mini_doc["grid"]
    grid["buses"] += [{"id": 2, "kind": "slack"}, {"id": 7}]
    grid["lines"].append({"from": 4, "to": 9, "r_pu": 0.01, "x_pu": 0.03, "rating_mva": 5.0})
    grid["loads"][0]["bus"] = 8
    grid["sgens"][1]["q_mvar"] = 3.0
    assert validate_scenario(mini_doc, Path(".")) == [
        ("grid/buses/4/id", "duplicate id 2"),
        ("grid/buses", "exactly one slack bus required, found 2"),
        ("grid/lines/3/to", "unknown bus 9"),
        ("grid/loads/0/bus", "unknown bus 8"),
        ("grid/buses/5/id", "bus 7 is not connected to bus 1"),
        ("grid/sgens/1/q_mvar", "q_mvar 3.0 outside [-1.2, 1.2]"),
    ]


def test_unknown_sensor_path_caught(mini_doc):
    mini_doc["agents"][0]["sensors"][0]["id"] = "grid.bus_9.vm_pu"
    errors = validate_scenario(mini_doc, Path("."))
    assert any("bus_9" in msg and "sensor" in msg for _, msg in errors)


@pytest.mark.parametrize("name, outputs, numeric_outputs, free_inputs, numeric_free_inputs", [
    ("feeder4.yaml", 73, 60, 10, 9),
    ("gaming.yaml", 57, 44, 23, 22),  # with feeder4's, the 31 numeric actuators
])
def test_endpoints_keep_their_counts_and_order(name, outputs, numeric_outputs, free_inputs,
                                               numeric_free_inputs):
    config = parsed(yaml.safe_load(packaged(name).read_text(encoding="utf-8")),
                    packaged(name).parent)
    listed = assemble(config, 0, lambda *a: None).endpoints()
    assert [len(endpoints) for endpoints in listed] == [outputs, free_inputs]
    assert [sum(e[2] not in scenario.NON_NUMERIC_ATTRS for e in endpoints)
            for endpoints in listed] == [numeric_outputs, numeric_free_inputs]
    # registration order: each simulator's endpoints in one run, in step order
    order = ["weather", "profiles", "pv", "grid", "bidders", "net", "market"]
    for endpoints in listed:
        assert [e[0] for e in endpoints] == sorted((e[0] for e in endpoints), key=order.index)
    if name == "feeder4.yaml":  # declaration order within a simulator and a model
        assert [".".join(e) for e in listed[1]] == [
            "bidders.pv1.price", "bidders.pv1.q_scale", "bidders.pv2.price",
            "bidders.pv2.q_scale", "bidders.pv3.price", "bidders.pv3.q_scale",
            "bidders.pv4.price", "bidders.pv4.q_scale", "net.sw.outbox",
            "net.adversary.rule_dos_pv3"]
        assert [".".join(e) for e in listed[0][:4]] == [
            "weather.station.ghi_w_m2", "weather.station.t_air_c",
            "profiles.load_l2.p_mw", "profiles.load_l2.q_mvar"]


def test_actuator_must_be_free_input(mini_doc):
    for actuator in (
        "grid.sgen_s1.q_mvar",  # wired from the weather-driven pv simulator
        "bidders.nope.price",  # no such model
    ):
        mini_doc["agents"][0]["actuators"] = [{"id": actuator, "lo": -1, "hi": 1, "default": 0}]
        errors = validate_scenario(mini_doc, Path("."))
        assert any("actuator" in msg for _, msg in errors), actuator
    mini_doc["agents"][0]["actuators"] = [
        {"id": "bidders.s1.price", "lo": 1, "hi": 50, "default": 8}
    ]
    assert validate_scenario(mini_doc, Path(".")) == []


def test_unknown_host_and_operator_caught(mini_doc):
    mini_doc["market"]["operator_host"] = "ghost"
    mini_doc["market"]["bidders"][0]["host"] = "ghost2"
    errors = validate_scenario(mini_doc, Path("."))
    assert any("ghost" in msg for _, msg in errors)
    assert any("ghost2" in msg for _, msg in errors)


def test_schema_rejects_nonsense():
    errors = validate_document({"kind": "scenario"}, Path("."))
    assert errors
    errors = validate_document(None, Path("."))
    assert errors
    errors = validate_document({"kind": "unknown"}, Path("."))
    assert errors == [("kind", "document kind must be one of scenario, experiment, run")]


def test_duplicate_rule_ids_caught(mini_doc):
    mini_doc["network"]["rules"] = [
        {"rule_id": "r", "at_node": "sw"},
        {"rule_id": "r", "at_node": "sw"},
    ]
    errors = validate_scenario(mini_doc, Path("."))
    assert errors == [("network/rules/1/rule_id", "duplicate rule_id 'r'")]


def test_objective_weights_must_name_an_aggregate(mini_doc):
    objective = mini_doc["agents"][0]["objective"] = {"kind": "custom", "weights": {
        "payments_eur.agent_b": 1.0, "frames_dropped": -1.0,
    }}
    assert validate_scenario(mini_doc, Path(".")) == []
    objective["weights"] = {"payments_eur.agent_zz": 1.0, "payments_eur": 1.0, "bogus": 1.0}
    assert sorted(validate_scenario(mini_doc, Path("."))) == [
        (f"agents/0/objective/weights/{name}", f"weight {name!r} names no aggregate")
        for name in ("bogus", "payments_eur", "payments_eur.agent_zz")
    ]


CROSS_CHECKS = {
    "duplicate load": (lambda d: d["grid"]["loads"][1].update(name="l2"),
                       ("grid/loads/1/name", "duplicate name 'l2'")),
    "duplicate sgen": (lambda d: d["grid"]["sgens"].append({"name": "s1", "bus": 2}),
                       ("grid/sgens/2/name", "duplicate name 's1'")),
    "duplicate pv": (lambda d: d["pv"]["units"][1].update(name="s1"),
                     ("pv/units/1/name", "duplicate name 's1'")),
    "unknown profile": (lambda d: d["grid"]["loads"][0].update(profile="peak"),
                        ("grid/loads/0/profile", "unknown load profile 'peak'")),
    "missing profile file": (
        lambda d: d["data"].update(load_profiles={"day": {"path": "nope.csv"}}),
        ("data/load_profiles/day/path", "file not found: {base}/nope.csv")),
    "missing weather file": (lambda d: d["data"]["weather"].update(path="nope.csv"),
                             ("data/weather/path", "file not found: {base}/nope.csv")),
    "pv without weather": (lambda d: d["data"].pop("weather"),
                           ("data/weather", "pv units declared but no weather series")),
    "reserved node id": (
        lambda d: (d["network"]["nodes"].append({"id": "adversary", "kind": "host"}),
                   d["network"]["links"].append({"a": "adversary", "b": "sw", "latency_ms": 2.0,
                                                 "bandwidth_kbps": 10000})),
        ("network/nodes/4/id", "node id 'adversary' is reserved")),
    "unknown pv sgen": (lambda d: d["pv"]["units"][0].update(sgen="zz"),
                        ("pv/units/0/sgen", "unknown sgen 'zz'")),
    "unknown pv host": (lambda d: d["pv"]["units"][0].update(host="zz"),
                        ("pv/units/0/host", "unknown network node 'zz'")),
    "unknown bidder sgen": (lambda d: d["market"]["bidders"][0].update(asset="zz"),
                            ("market/bidders/0/asset", "unknown sgen 'zz'")),
    "unknown bidder host": (lambda d: d["market"]["bidders"][0].update(host="zz"),
                            ("market/bidders/0/host", "unknown network node 'zz'")),
    "second sender on a host": (
        lambda d: d["market"]["bidders"][1].update(host="h1"),
        ("market/bidders/1/host", "host 'h1' already sends frames; one sender per host")),
    "bidder on the operator host": (
        lambda d: d["market"]["bidders"][0].update(host="op"),
        ("market/bidders/0/host", "host 'op' already sends frames; one sender per host")),
    "duplicate bidder asset": (lambda d: d["market"]["bidders"][1].update(asset="s1"),
                               ("market/bidders/1/asset", "duplicate asset 's1'")),
    "rule at unknown node": (
        lambda d: d["network"].update(rules=[{"rule_id": "r", "at_node": "zz"}]),
        ("network/rules/0/at_node", "unknown network node 'zz'")),
    "restart at unknown node": (
        lambda d: d["network"].update(restartable=[{"node": "zz", "downtime_s": 60}]),
        ("network/restartable/0/node", "unknown network node 'zz'")),
    "replay without rows": (lambda d: d["agents"][0].update(kind="replay"),
                            ("agents/0/replay", "replay agent needs setpoint rows")),
    "profit without agents": (
        lambda d: d["agents"][0].update(objective={"kind": "profit"}),
        ("agents/0/objective/agents", "profit objective needs market agent ids")),
}


@pytest.mark.parametrize("case", CROSS_CHECKS)
def test_cross_check_violations(tmp_path, mini_doc, case):
    mutate, (path, message) = CROSS_CHECKS[case]
    mutate(mini_doc)
    assert validate_scenario(mini_doc, tmp_path) == [(path, message.format(base=tmp_path))]


def _set(*keys_and_value):
    """A mutation that sets doc[k1]...[kn] to the value."""
    *keys, last, value = keys_and_value

    def mutate(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return mutate


# The rules that only validation checks, since constructors trust the values
# a valid document gives them: each mutates feeder4 once and is refused at
# the one field at fault.
REFUSED_ONCE = {
    "objective kind": (_set("agents", 0, "objective", "kind", "harm"),
                       "agents/0/objective/kind"),
    "infinite weight": (_set("agents", 0, "objective", {
        "kind": "custom", "weights": {"violation_sum_pu": float("inf")}}),
        "agents/0/objective/weights/violation_sum_pu"),
    "empty schedule": (_set("schedule", []), "schedule"),
    "phase mode": (_set("schedule", 0, "mode", "evaluate"), "schedule/0/mode"),
    "phase episodes": (_set("schedule", 0, "episodes", 0), "schedule/0/episodes"),
    "phase episode_length": (_set("schedule", 0, "episode_length", 0),
                             "schedule/0/episode_length"),
    "population of 3": (_set("agents", 0, "learner", {"population": 3}),
                         "agents/0/learner/population"),
    "learner kind": (_set("agents", 0, "kind", "ppo"), "agents/0/kind"),
    "replay agent without rows": (_set("agents", 0, "kind", "replay"), "agents/0/replay"),
    "bid strategy": (_set("market", "bidders", 1, "strategy", "greedy"),
                     "market/bidders/1/strategy"),
    "bid side": (_set("market", "bidders", 1, "side", "both"), "market/bidders/1/side"),
    "rule action": (_set("network", "rules", 0, "action", "kind", "reroute"),
                    "network/rules/0/action/kind"),
    "node kind": (_set("network", "nodes", 1, "kind", "hub"), "network/nodes/1/kind"),
    "link loss_prob": (_set("network", "links", 2, "loss_prob", 1.5),
                       "network/links/2/loss_prob"),
    "link latency_ms": (_set("network", "links", 2, "latency_ms", -1.0),
                        "network/links/2/latency_ms"),
    "pv p_peak_mw of 0": (_set("pv", "units", 1, "p_peak_mw", 0), "pv/units/1/p_peak_mw"),
    "pv sgen whose q range excludes 0": (
        _set("grid", "sgens", 1, {"name": "pv2", "bus": 3, "q_mvar": 0.5,
                                  "q_min_mvar": 0.2, "q_max_mvar": 1.2}),
        "pv/units/1/sgen"),
    "utilization window of 0": (_set("network", "utilization_window_s", 0),
                                "network/utilization_window_s"),
    "link from an unknown node": (lambda d: d["network"]["links"].append({"a": "zz", "b": "sw"}),
                                  "network/links/5/a"),
    "link to an unknown node": (lambda d: d["network"]["links"].append({"a": "sw", "b": "zz"}),
                                "network/links/5/b"),
    "duplicate node id": (lambda d: d["network"]["nodes"].append({"id": "h2"}),
                          "network/nodes/6/id"),
    "self link": (lambda d: d["network"]["links"].append({"a": "h2", "b": "h2"}),
                  "network/links/5/b"),
    "disconnected node": (lambda d: d["network"]["nodes"].append({"id": "h5"}),
                          "network/nodes/6/id"),
    "pv unit on another host than its bidder": (_set("pv", "units", 2, "host", "h4"),
                                                "pv/units/2/host"),
    "two pv units on one sgen": (
        _set("pv", "units", 3, {"name": "pv4", "sgen": "pv3", "p_peak_mw": 0.5, "host": "h3"}),
        "pv/units/3/sgen"),
    "bidder sgen whose q range excludes 0": (
        lambda d: (d["pv"]["units"].pop(3),
                   d["grid"]["sgens"][3].update(q_mvar=0.5, q_min_mvar=0.2)),
        "market/bidders/3/asset"),
    "duplicate bus id": (lambda d: d["grid"]["buses"].append({"id": 4}), "grid/buses/4/id"),
    "two slack buses": (_set("grid", "buses", 1, "kind", "slack"), "grid/buses"),
    "no slack bus": (_set("grid", "buses", 0, "kind", "pq"), "grid/buses"),
    "line from an unknown bus": (
        lambda d: d["grid"]["lines"].append({"from": 9, "to": 4, "r_pu": 0.01, "x_pu": 0.03,
                                             "rating_mva": 5.0}),
        "grid/lines/3/from"),
    "line to an unknown bus": (
        lambda d: d["grid"]["lines"].append({"from": 4, "to": 9, "r_pu": 0.01, "x_pu": 0.03,
                                             "rating_mva": 5.0}),
        "grid/lines/3/to"),
    "load at an unknown bus": (_set("grid", "loads", 1, "bus", 9), "grid/loads/1/bus"),
    "sgen at an unknown bus": (_set("grid", "sgens", 2, "bus", 9), "grid/sgens/2/bus"),
    "disconnected bus": (lambda d: d["grid"]["buses"].append({"id": 5}), "grid/buses/4/id"),
    "sgen q_mvar outside its range": (_set("grid", "sgens", 0, "q_mvar", 1.5),
                                      "grid/sgens/0/q_mvar"),
}


@pytest.mark.parametrize("case", REFUSED_ONCE)
def test_each_document_rule_is_refused_at_its_field(case):
    path = packaged("feeder4.yaml")
    doc = load_document(path)
    mutate, where = REFUSED_ONCE[case]
    mutate(doc)
    assert [at for at, _ in validate_document(doc, path.parent)] == [where]


@pytest.mark.parametrize("base, text, message", [
    ("absent.yaml", None, "file not found: {path}"),
    ("list.yaml", "- 1\n", "cannot load base scenario: {path}: document is not a mapping"),
])
def test_experiment_base_scenario_violations(tmp_path, base, text, message):
    path = tmp_path / base
    if text is not None:
        path.write_text(text, encoding="utf-8")
    doc = dict(load_document(packaged("dos_experiment.yaml")), base_scenario=base)
    assert validate_experiment(doc, tmp_path) == [("base_scenario", message.format(path=path))]


# -- schema defaults ----------------------------------------------------------

# Every optional property of the scenario schema that states no `default`, and why.
NO_DEFAULT = {
    "grid/step_s": "computed: the market's interval_s when left out",
    "data/weather": "left out means no weather series; it is typed object, so a null "
                    "default would fail its own schema",
    "agents/*/actuators/*/default": "computed: the actuator's lo when left out",
}


def schema_properties(schema, path=()):
    """(path, schema, required) of every property a schema declares, at any
    depth; `*` stands for a list item or a key of a map."""
    for name, sub in schema.get("properties", {}).items():
        yield (*path, name), sub, name in schema.get("required", ())
        yield from schema_properties(sub, (*path, name))
    for keyword in ("items", "additionalProperties"):
        if isinstance(schema.get(keyword), dict):
            yield from schema_properties(schema[keyword], (*path, "*"))


def default_slots(node, schema, path=()):
    """(path, default) of every property present in `node` whose schema has a default."""
    if isinstance(node, dict):
        for name, sub in schema.get("properties", {}).items():
            if name in node:
                if "default" in sub:
                    yield (*path, name), sub["default"]
                yield from default_slots(node[name], sub, (*path, name))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from default_slots(item, schema.get("items", {}), (*path, i))


def test_every_schema_default_passes_its_own_property_schema():
    checked = 0
    for name in ("scenario", "experiment", "run"):
        for path, sub, _ in schema_properties(load_schema(name)):
            if "default" in sub:
                assert schema_violations(sub["default"], sub) == [], (name, path)
                assert list(jsonschema.Draft202012Validator(sub).iter_errors(sub["default"])) \
                    == [], (name, path)
                checked += 1
    assert checked >= 50


@pytest.mark.parametrize("name", ["feeder4.yaml", "gaming.yaml", "MINI"])
def test_leaving_out_a_property_means_its_schema_default(name):
    schema = load_schema("scenario")
    missing = {"/".join(path) for path, sub, required in schema_properties(schema)
               if not required and "default" not in sub}
    assert missing == NO_DEFAULT.keys()
    doc, base_dir = ((copy.deepcopy(MINI), Path(".")) if name == "MINI"
                     else (load_document(packaged(name)), packaged(name).parent))
    slots = list(default_slots(doc, schema))
    assert len(slots) > 40
    for path, default in slots:
        left_out, written = copy.deepcopy(doc), copy.deepcopy(doc)
        *parents, last = path
        parent_l, parent_w = left_out, written
        for key in parents:
            parent_l, parent_w = parent_l[key], parent_w[key]
        del parent_l[last]
        parent_w[last] = copy.deepcopy(default)
        checked, expected = (validate_scenario(d, base_dir) for d in (left_out, written))
        assert checked == expected, path
        if checked:
            # the default differs from the value the document wrote, and breaks
            # a rule of validation in both documents alike: the slack bus's
            # kind, or an emptied list or mapping that other fields refer to
            assert parsed(left_out, base_dir) == parsed(written, base_dir), path
        else:
            assert checked.value == expected.value, path


def test_validation_leaves_the_document_and_the_schema_as_they_were():
    feeder4, gaming, experiment = (load_document(packaged(name)) for name in
                                   ("feeder4.yaml", "gaming.yaml", "dos_experiment.yaml"))
    run = design.run_document(
        list(design.expand_runs(design.parse_experiment(experiment, feeder4)))[0])
    schema = copy.deepcopy(load_schema("scenario"))
    for doc in (feeder4, gaming, copy.deepcopy(MINI), experiment, run):
        before = copy.deepcopy(doc)
        assert validate_document(doc, packaged("feeder4.yaml").parent) == []
        assert doc == before
    filled = with_defaults({"market": {}}, load_schema("scenario"))
    assert filled["market"]["band"] == {"v_min_pu": 0.95, "v_max_pu": 1.05}
    filled["market"]["band"]["v_min_pu"] = 0.0
    filled["market"]["bidders"].append("changed")
    assert load_schema("scenario") == schema


def test_validation_parses_through_the_module_attribute(monkeypatch):
    # cosimbench/spans.py times the parse by replacing scenario.parse_scenario,
    # and tests/test_traced_benchmark.py looks for its span in a traced run
    seen = []
    parse = scenario.parse_scenario
    monkeypatch.setattr(scenario, "parse_scenario",
                        lambda doc, base_dir: seen.append(doc) or parse(doc, base_dir))
    assert validate_document(load_document(packaged("gaming.yaml")), packaged(".").parent) == []
    [doc] = seen
    assert doc["network"]["rules"] == [] and doc["data"] == {"load_profiles": {}}
    assert doc["market"]["bidders"][0]["side"] == "supply"


# -- assembly & data flow ----------------------------------------------------


def test_offers_flow_and_clear_next_interval(mini_doc):
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    clearings = recorder.of("market.clearing")
    assert [c[3]["interval"] for c in clearings] == [1, 2, 3]
    # interval 1 cleared at t=0 with an empty book (nothing has arrived)
    assert clearings[0][3]["offers"] == []
    assert clearings[0][3]["resolved"] is False  # violation, nothing to buy
    # interval 2, cleared at t=900, sees both t=0 offers
    book = clearings[1][3]["offers"]
    assert sorted(o["offer_id"] for o in book) == ["s1-00002", "s2-00002"]
    assert clearings[1][3]["resolved"] is True
    # cheapest-per-effect offer at the violated end of the feeder goes first
    assert clearings[1][3]["accepted"][0]["offer_id"] == "s2-00002"


def test_dispatch_reaches_grid_one_interval_after_clearing(mini_doc):
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(2701)
    steps = {r[3]["t"]: r[3] for r in recorder.of("grid.step")}
    # before any dispatch lands the feeder end is below the band
    assert steps[0]["vm"]["4"] < 0.95
    assert steps[900]["vm"]["4"] < 0.95
    # clearing at t=900 dispatched for interval 2; pv applies it at t=1800
    assert steps[1800]["vm"]["4"] >= 0.95
    q_out = kernel.get_output(("pv", "s2", "q_mvar"))
    assert q_out == pytest.approx(1.2)



def test_grid_steps_start_from_the_last_converged_step(mini_doc):
    config = parsed(mini_doc)
    grid = scenario.GridSimulator(config, Recorder())

    def step(t, scale, q):
        inputs = {f"load_{l.name}": {"p_mw": l.p_mw * scale, "q_mvar": l.q_mvar * scale}
                  for l in config.grid.loads}
        inputs.update({f"sgen_{s.name}": {"p_mw": 0.0, "q_mvar": q} for s in config.grid.sgens})
        solver = grid(t, inputs)["solver"]
        assert solver["model"].compiled is config.grid.compiled
        return solver["model"], solver["state"]

    model, first = step(0, 1.0, 0.0)
    assert first == solve_power_flow(model)  # nothing converged yet: a flat start
    model, second = step(900, 1.02, 0.5)
    assert second == solve_power_flow(model, first)
    assert second.iterations < solve_power_flow(model).iterations
    model, diverged = step(1800, 40.0, 0.0)
    assert not diverged.converged
    assert diverged.iterations > solve_power_flow(model).iterations  # warm, then flat
    model, fourth = step(2700, 0.98, -0.3)
    assert fourth == solve_power_flow(model, second)


def test_clearing_starts_from_the_grid_steps_state(mini_doc, monkeypatch):
    starts = []
    clear = scenario.clear_market

    def spy(offers, model, band, start=None):
        starts.append(start)
        return clear(offers, model, band, start)

    monkeypatch.setattr(scenario, "clear_market", spy)
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    assert len(starts) == 3
    assert all(start is not None and start.converged for start in starts)
    assert starts[-1] is kernel.get_output(("grid", "solver", "state"))


def test_run_compiles_one_grid_and_assembles_once_per_episode(tmp_path, mini_doc, monkeypatch):
    mini_doc["schedule"] = [{"name": "t", "mode": "test", "episodes": 3, "episode_length": 1}]
    calls = collections.Counter()
    compile_grid, assemble_run = CompiledGrid.__init__, scenario.assemble

    def counting_compile(self, model):
        calls["compile"] += 1
        compile_grid(self, model)

    def counting_assemble(*args):
        calls["assemble"] += 1
        return assemble_run(*args)

    monkeypatch.setattr(CompiledGrid, "__init__", counting_compile)
    monkeypatch.setattr(scenario, "assemble", counting_assemble)
    execute_run(mini_doc, Path("."), tmp_path)
    # the run uses validation's config, so one grid is compiled; one dry
    # assembly lists the endpoints, then one assembly per episode
    assert calls == {"compile": 1, "assemble": 3 + 1}


def test_a_run_that_fails_unexpectedly_leaves_its_log_on_disk(tmp_path, mini_doc, monkeypatch):
    from analyse import runner

    def failing(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(runner, "run_phase", failing)
    with pytest.raises(RuntimeError, match="injected fault") as raised:
        execute_run(mini_doc, Path("."), tmp_path)
    # the traceback in `raised` still holds the run's frames, and its sink
    lines = (tmp_path / "mini.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["kind"] for line in lines] == ["run.header"]
    assert raised.traceback


def short_gaming_log(tmp_path, monkeypatch, name, before_solve):
    """The log bytes of gaming with 64 training (its population times its
    generations) and 4 test episodes, calling before_solve(model, start)
    ahead of every power flow of the run."""
    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    doc["schedule"] = [{"name": "training", "mode": "train", "episodes": 64, "episode_length": 6},
                       {"name": "testing", "mode": "test", "episodes": 4, "episode_length": 6}]
    solve = grid.solve_power_flow

    def wrapped(model, start=None):
        before_solve(model, start)
        return solve(model, start)

    with monkeypatch.context() as patch:
        for owner in (grid, market, scenario):
            patch.setattr(owner, "solve_power_flow", wrapped)
        result = execute_run(doc, packaged("gaming.yaml").parent, tmp_path / name)
    return result.log_path.read_bytes()


def test_gaming_runs_newton_once_per_distinct_flow_and_logs_what_fresh_solves_log(
        tmp_path, monkeypatch):
    newton, newton_calls = grid._newton, []
    monkeypatch.setattr(grid, "_newton", lambda *args: newton_calls.append(1) or newton(*args))
    keys, solved = set(), []

    def count(model, start):
        s_pq = grid.specified_injections(model)[model.compiled.pq].tobytes()
        keys.add((id(model.compiled), s_pq) if start is None else (
            id(model.compiled), s_pq, np.array(start.vm).tobytes(),
            np.array(start.va).tobytes()))
        solved.append(len(newton_calls))

    memoized = short_gaming_log(tmp_path, monkeypatch, "memo", count)
    solved.append(len(newton_calls))
    ran_newton = sum(after > before for before, after in zip(solved, solved[1:]))
    assert ran_newton == len(keys)
    assert len(solved) - 1 > 10 * len(keys)  # most flows repeat an earlier one

    fresh = short_gaming_log(tmp_path, monkeypatch, "fresh",
                             lambda model, start: model._solves.clear())
    assert memoized == fresh


def test_drop_rule_excludes_bids_end_to_end(mini_doc):
    mini_doc["network"]["rules"] = [
        {"rule_id": "dos_b", "at_node": "sw", "enabled": True, "match": {"src": "h2"}}
    ]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    book = recorder.of("market.clearing")[1][3]["offers"]
    assert [o["offer_id"] for o in book] == ["s1-00002"]  # agent_b silenced
    drops = recorder.of("net.drop")
    assert drops and all(d[3]["src"] == "h2" for d in drops)


def test_tamper_rule_reaches_market_verbatim(mini_doc):
    # replace agent_b's interval-2 offer with a 999-priced copy in flight
    tampered = canonical_json({
        "offer_id": "s2-00002", "agent_id": "agent_b", "bus": 4,
        "q_mvar": 1.2, "price_eur_per_mvar": 999.0, "interval": 2,
    })
    mini_doc["network"]["rules"] = [{
        "rule_id": "tamper_b", "at_node": "sw", "enabled": True,
        "match": {"src": "h2", "payload_contains": '"interval":2'},
        "action": {"kind": "tamper", "replacement": tampered},
    }]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(901)
    book = recorder.of("market.clearing")[1][3]["offers"]
    prices = {o["offer_id"]: o["price_eur_per_mvar"] for o in book}
    assert prices["s2-00002"] == 999.0


def test_offer_for_another_agents_asset_rejected(mini_doc):
    # agent_b's interval-2 offer is rewritten to claim agent_a's unit s1,
    # whose own offers never arrive
    tampered = canonical_json({
        "offer_id": "s1-00002", "agent_id": "agent_b", "bus": 4,
        "q_mvar": 1.2, "price_eur_per_mvar": 5.0, "interval": 2,
    })
    mini_doc["network"]["rules"] = [
        {"rule_id": "silence_a", "at_node": "sw", "enabled": True, "match": {"src": "h1"}},
        {"rule_id": "steal", "at_node": "sw", "enabled": True,
         "match": {"src": "h2", "payload_contains": '"interval":2'},
         "action": {"kind": "tamper", "replacement": tampered}},
    ]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    clearing = recorder.of("market.clearing")[1][3]
    assert clearing["rejected"] == [{"reason": "asset of another agent", "offer_id": "s1-00002"}]
    assert clearing["offers"] == [] and clearing["payments_eur"] == {}
    assert kernel.get_output(("pv", "s1", "q_mvar")) == 0.0


def test_offer_arriving_after_its_clearing_rejected(mini_doc):
    # agent_b's offers take ~1000 s: the interval-2 offer submitted at t=0
    # misses the t=900 clearing and is read by the t=1800 one
    mini_doc["network"]["rules"] = [{
        "rule_id": "slow_b", "at_node": "h2", "enabled": True, "match": {"src": "h2"},
        "action": {"kind": "delay", "extra_ms": 1_000_000.0},
    }]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    clearings = [c[3] for c in recorder.of("market.clearing")]
    assert [o["offer_id"] for o in clearings[1]["offers"]] == ["s1-00002"]
    assert clearings[2]["rejected"] == [{"reason": "interval closed", "offer_id": "s2-00002"}]
    assert [o["offer_id"] for o in clearings[2]["offers"]] == ["s1-00003"]


@pytest.mark.parametrize("ahead", [1, 10**399], ids=["next", "400-digit"])
def test_offer_for_an_interval_not_yet_open_rejected(mini_doc, ahead):
    # agent_b's offers for intervals 2 and 3, sent at t=0 and t=900, are
    # rewritten in flight to bid further ahead
    mini_doc["network"]["rules"] = [{
        "rule_id": f"ahead{interval}", "at_node": "sw", "enabled": True,
        "match": {"src": "h2"},
        "action": {"kind": "tamper", "replacement": (
            '{"agent_id":"agent_b","bus":4,"interval":%d,"offer_id":"s2-%05d",'
            '"price_eur_per_mvar":5.0,"q_mvar":1.2}' % (interval + ahead, interval))},
        "active_from": 900.0 * (interval - 2), "active_until": 900.0 * (interval - 2) + 1.0,
    } for interval in (2, 3)]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    clearings = [c[3] for c in recorder.of("market.clearing")]
    assert [c["rejected"] for c in clearings] == [[]] + [
        [{"reason": "interval not open", "offer_id": f"s2-{interval:05d}"}] for interval in (2, 3)
    ]
    assert all(o["agent_id"] == "agent_a" for c in clearings for o in c["offers"])
    assert [len(c["offers"]) for c in clearings] == [0, 1, 1]


def test_duplicate_offer_id_rejected(mini_doc):
    # agent_a's interval-2 offer arrives twice: once as sent, once as a
    # rewritten copy of agent_b's frame
    duplicate = canonical_json({
        "offer_id": "s1-00002", "agent_id": "agent_a", "bus": 3,
        "q_mvar": 0.4, "price_eur_per_mvar": 1.0, "interval": 2,
    })
    mini_doc["network"]["rules"] = [{
        "rule_id": "dup", "at_node": "sw", "enabled": True,
        "match": {"src": "h2", "payload_contains": '"interval":2'},
        "action": {"kind": "tamper", "replacement": duplicate},
    }]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(901)
    clearing = recorder.of("market.clearing")[1][3]
    assert clearing["rejected"] == [{"reason": "duplicate offer_id", "offer_id": "s1-00002"}]
    assert [o["q_mvar"] for o in clearing["offers"]] == [1.2]


def test_late_offers_excluded_by_gate_closure(mini_doc):
    # a gate one full interval wide shuts out offers submitted at t=0
    mini_doc["market"]["gate_closure_s"] = 900.0
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(901)
    clearing = recorder.of("market.clearing")[1][3]
    assert clearing["offers"] == []
    assert clearing["late"] == 2


def test_headroom_violations_rejected(mini_doc):
    mini_doc["grid"]["sgens"][1]["q_max_mvar"] = 0.5  # s2 smaller than its bid
    mini_doc["market"]["bidders"][1]["price_eur_per_mvar"] = 5.0
    # the bid respects headroom; a tampered frame swaps in an oversized offer
    from analyse.telemetry import canonical_json as cj

    oversized = cj({
        "offer_id": "s2-00002", "agent_id": "agent_b", "bus": 4,
        "q_mvar": 3.0, "price_eur_per_mvar": 1.0, "interval": 2,
    })
    mini_doc["network"]["rules"] = [{
        "rule_id": "forge", "at_node": "sw", "enabled": True,
        "match": {"src": "h2", "payload_contains": '"interval":2'},
        "action": {"kind": "tamper", "replacement": oversized},
    }]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(901)
    clearing = recorder.of("market.clearing")[1][3]
    assert any(r.get("reason") == "exceeds headroom" for r in clearing["rejected"])
    assert "s2-00002" not in [o["offer_id"] for o in clearing["offers"]]


def test_an_aborted_clearing_dispatches_no_offer_that_broke_the_flow(mini_doc):
    # s2 offers its whole 1000 Mvar headroom at bus 4; the re-solve with it
    # accepted diverges, so the clearing aborts and dispatches none of it
    mini_doc["grid"]["sgens"][1]["q_max_mvar"] = 1000.0
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(901)
    clearing = recorder.of("market.clearing")[1][3]
    assert [o["q_mvar"] for o in clearing["offers"]] == [1.2, 1000.0]
    assert clearing["aborted"] and clearing["accepted"] == []
    assert clearing["payments_eur"] == {} and clearing["accepted_mvar"] == {}
    dispatches = [json.loads(payload) for _, payload in kernel.get_output(("market", "op", "outbox"))]
    assert [(d["unit"], d["q_mvar"]) for d in dispatches] == [("s1", 0.0), ("s2", 0.0)]


def test_non_finite_offers_rejected_and_clearing_logged(mini_doc):
    offer = ('{"agent_id":"agent_%s","bus":%d,"interval":2,"offer_id":"%s-00002",'
             '"price_eur_per_mvar":%s,"q_mvar":%s}')
    mini_doc["network"]["rules"] = [
        {"rule_id": f"forge_{src}", "at_node": "sw", "enabled": True,
         "match": {"src": src, "payload_contains": '"interval":2'},
         "action": {"kind": "tamper", "replacement": replacement}}
        for src, replacement in (
            ("h1", offer % ("a", 3, "s1", "NaN", "0.5")),
            ("h2", offer % ("b", 4, "s2", "1.0", "Infinity")),
        )
    ]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(901)
    clearing = recorder.of("market.clearing")[1][3]
    assert clearing["offers"] == []
    assert sorted(r["reason"] for r in clearing["rejected"]) == [
        f"offer {asset}-00002: non-finite q_mvar or price" for asset in ("s1", "s2")
    ]
    canonical_json(clearing)  # the clearing record still serializes


def test_pv_skips_dispatch_without_a_finite_q(mini_doc):
    config = parsed(mini_doc)
    pv = PvSimulator(config)

    def q_after(q):
        inputs = {u.name: {"ghi_w_m2": 0.0, "t_air_c": 15.0, "inbox": ()}
                  for u in config.pv_units}
        payload = '{"q_mvar":%s,"type":"dispatch","unit":"s1"}' % q
        inputs["s1"]["inbox"] = ((0.0, Frame(0, "op", "h1", 0.0, payload.encode())),)
        return pv(0, inputs)["s1"]["q_mvar"]

    assert q_after("0.5") == 0.5
    for bad in ('"high"', "NaN", "-Infinity", "null", "[1]", "1" + "0" * 400):
        assert q_after(bad) == 0.5
    assert q_after("-0.25") == -0.25  # each call reads the frames it is given


def test_assembly_deterministic_with_seed(mini_doc):
    mini_doc["market"]["bidders"][0]["strategy"] = "jitter"

    def clearing_payloads(seed):
        _, kernel, recorder = build(mini_doc, seed)
        kernel.run_until(1801)
        return canonical_json([r[3] for r in recorder.of("market.clearing")])

    assert clearing_payloads(5) == clearing_payloads(5)
    assert clearing_payloads(5) != clearing_payloads(6)


def test_pv_follows_weather(mini_doc):
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1)
    assert kernel.get_output(("pv", "s1", "p_mw")) == 0.0  # midnight
    _, weather = config.series
    noon = weather.at(12 * 3600)
    assert noon.ghi_w_m2 > 500


def test_restart_actuator_takes_switch_down(mini_doc):
    mini_doc["network"]["restartable"] = [{"node": "sw", "downtime_s": 1200.0}]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1)
    kernel.set_input(("net", "adversary", "restart_sw"), 1.0)
    kernel.run_until(1801)
    restarts = recorder.of("net.restart")
    assert len(restarts) == 1  # edge-triggered, not re-fired every step
    assert restarts[0][3]["node"] == "sw"
    # offers submitted during the outage die at the switch, so the book for
    # the interval cleared at t=1800 is empty (t=0 offers predate the outage)
    drops = recorder.of("net.drop")
    assert drops and all(d[3]["node"] == "sw" for d in drops)
    clearings = recorder.of("market.clearing")
    assert clearings[1][3]["offers"] != []
    assert clearings[2][3]["offers"] == []


class PeriodicNet(NetSimulator):
    """The net adapter without next_event_time: the kernel steps it at every
    multiple of network.step_s, the reference for event-driven stepping."""

    next_event_time = None


def feeder4_run(tmp_path, monkeypatch, agent_kind, periodic, edit=None):
    doc = load_document(packaged("feeder4.yaml"))
    doc["agents"][0]["kind"] = agent_kind
    doc["agents"][0]["actuators"][0]["default"] = 1.0  # the DoS rule on
    if edit is not None:
        edit(doc)
    readings = []
    step = Environment.step

    def recording_step(self, setpoints):
        result = step(self, setpoints)
        readings.append(result[0])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(Environment, "step", recording_step)
        if periodic:
            patch.setattr(scenario, "NetSimulator", PeriodicNet)
        out = tmp_path / ("periodic" if periodic else "event")
        log = execute_run(doc, packaged("feeder4.yaml").parent, out).log_path
    lines = log.read_bytes().splitlines()
    net_steps = [json.loads(line)["payload"]["steps"]["net"]
                 for line in lines if b'"kind":"kernel.step"' in line]
    return readings, [line for line in lines if b'"kind":"kernel.step"' not in line], net_steps


def grid_and_clearing_payloads(out, edit):
    path = packaged("feeder4.yaml")
    doc = load_document(path)
    edit(doc)
    assert validate_document(doc, path.parent) == []
    records = map(json.loads, execute_run(doc, path.parent, out).log_path.read_bytes().splitlines())
    return [(r["kind"], r["payload"]) for r in records
            if r["kind"] in ("grid.step", "market.clearing")]


def test_pv_unit_name_does_not_change_its_dispatch(tmp_path):
    def rename(doc):
        for i, unit in enumerate(doc["pv"]["units"], 1):
            unit["name"] = f"solar{i}"  # each unit keeps its sgen, the dispatched asset

    payloads = grid_and_clearing_payloads(tmp_path / "solar", rename)
    assert payloads == grid_and_clearing_payloads(tmp_path / "pv", lambda doc: None)
    assert any(p["accepted"] for kind, p in payloads if kind == "market.clearing")


@pytest.mark.parametrize("agent_kind", ["none", "random"])
def test_event_driven_net_matches_periodic_net(tmp_path, monkeypatch, agent_kind):
    # "random" toggles the DoS rule at random, so the actuator trigger fires
    readings, lines, net_steps = feeder4_run(tmp_path, monkeypatch, agent_kind, periodic=False)
    ref_readings, ref_lines, ref_net_steps = feeder4_run(
        tmp_path, monkeypatch, agent_kind, periodic=True)
    assert readings == ref_readings  # every sensor, net.sw.utilization included
    assert lines == ref_lines  # every log byte outside kernel.step
    utilization = [r[2] for r in readings]
    assert len(set(utilization)) > 5  # the sensor moves, so staleness would show
    assert ref_net_steps == [86400 // 60 + 1]
    assert net_steps[0] < ref_net_steps[0] // 3


def attack_everything(rng, step_s, agent_kind):
    """An edit of feeder4: a random or replay agent drives the DoS drop rule,
    a delay rule, a tamper rule and a restart, and senses every node's
    utilization over a seeded window. The replay agent holds each actuator
    for a few intervals, so some agent steps change no input."""
    restart = rng.choice(("sw", "op", "h1", "h3"))
    rows = [[0.0] * 4]
    for _ in range(31):
        rows.append([1.0 - v if rng.random() < 0.3 else v for v in rows[-1]])

    def edit(doc):
        net = doc["network"]
        net["step_s"] = step_s
        net["utilization_window_s"] = rng.choice((60.0, 300.0, 900.0))
        net["rules"] += [
            {"rule_id": "slow", "at_node": rng.choice(("sw", "op", "h2")),
             "action": {"kind": "delay", "extra_ms": 5.0 * 190_000 ** rng.random()}},
            {"rule_id": "forge", "at_node": "sw", "match": {"src": rng.choice(("h1", "h4"))},
             "action": {"kind": "tamper", "replacement": "x" * rng.randint(0, 300)}},
        ]
        net["restartable"] = [{"node": restart, "downtime_s": rng.uniform(30.0, 1800.0)}]
        agent = doc["agents"][0]
        agent.update(kind=agent_kind, replay=rows)
        agent["sensors"] += [{"id": f"net.{node['id']}.utilization", "lo": 0.0, "hi": 1.0}
                             for node in net["nodes"] if node["id"] != "sw"]
        agent["actuators"] = [
            {"id": f"net.adversary.{name}", "lo": 0.0, "hi": 1.0, "default": 0.0}
            for name in ("rule_dos_pv3", "rule_slow", "rule_forge", f"restart_{restart}")
        ]
        doc["schedule"] = [{"name": "attack", "mode": "test", "episodes": 1,
                            "episode_length": 32}]
    return edit


@pytest.mark.parametrize("agent_kind", ["random", "replay"])
@pytest.mark.parametrize("step_s", [30, 60, 120])
def test_event_driven_net_matches_periodic_under_every_attack(
        tmp_path, monkeypatch, step_s, agent_kind):
    def edit():
        return attack_everything(random.Random(step_s), step_s, agent_kind)

    readings, lines, _ = feeder4_run(tmp_path, monkeypatch, agent_kind, False, edit())
    ref_readings, ref_lines, _ = feeder4_run(tmp_path, monkeypatch, agent_kind, True, edit())
    assert readings == ref_readings
    assert lines == ref_lines

    # c4: the same document and seed give the same bytes
    log = tmp_path / "event" / "feeder4.jsonl"
    doc = load_document(packaged("feeder4.yaml"))
    edit()(doc)
    again = execute_run(doc, packaged("feeder4.yaml").parent, tmp_path / "again").log_path
    assert again.read_bytes() == log.read_bytes()

    # frames balance: each one sent ends delivered once, dropped once, or in flight
    records = [json.loads(line) for line in lines]
    frames = collections.defaultdict(list)  # (src, frame_id) -> its records' kinds
    for r in records:
        if r["kind"] in ("net.send", "net.deliver", "net.drop"):
            p = r["payload"]
            frames[(p["src"], p["frame_id"])].append(r["kind"])
    kinds = collections.Counter(kind for events in frames.values() for kind in events)
    offline = sum(1 for events in frames.values() if events == ["net.drop"])
    in_flight = sum(1 for events in frames.values() if events == ["net.send"])
    assert all(events in (["net.send"], ["net.send", "net.deliver"], ["net.send", "net.drop"],
                          ["net.drop"]) for events in frames.values())
    assert kinds["net.send"] + offline == (
        kinds["net.deliver"] + kinds["net.drop"] + in_flight)
    assert kinds["net.deliver"] > 0 and kinds["net.send"] > 0

    # the two aggregation paths agree
    summary = summarize(log)
    recount = recount_log(log)
    assert (summary.frames_sent, summary.frames_delivered, summary.frames_dropped) == (
        recount["frames_sent"], recount["frames_delivered"], recount["frames_dropped"])
    assert (summary.clearings, summary.clearings_resolved, summary.violation_count) == (
        recount["clearings"], recount["clearings_resolved"], recount["violation_count"])
    assert summary.total_cost_eur == pytest.approx(recount["total_cost"])
    assert summary.payments_eur == pytest.approx(recount["payments"])


def attack_every_primitive(doc, rng):
    """Let a random agent drive a drop, a delay and a tamper rule and a
    restart in the document's network, and run two short episodes."""
    net = doc["network"]
    nodes = [node["id"] for node in net["nodes"]]
    hosts = [node for node in nodes if node != "sw"]
    restart = rng.choice(nodes)
    net["rules"] = net.get("rules", []) + [
        {"rule_id": "cut", "at_node": "sw", "enabled": False,
         "match": {"src": rng.choice(hosts)}, "action": {"kind": "drop"}},
        {"rule_id": "slow", "at_node": rng.choice(nodes),
         "action": {"kind": "delay", "extra_ms": 5.0 * 190_000 ** rng.random()}},
        {"rule_id": "forge", "at_node": "sw", "match": {"src": rng.choice(hosts)},
         "action": {"kind": "tamper", "replacement": "x" * rng.randint(0, 300)}},
    ]
    net["restartable"] = [{"node": restart, "downtime_s": rng.uniform(30.0, 1800.0)}]
    agent = doc["agents"][0]
    agent.pop("learner", None)
    agent.update(kind="random", objective={"kind": "damage"})
    agent["sensors"] = [{"id": f"net.{node}.utilization", "lo": 0.0, "hi": 1.0}
                        for node in nodes]
    agent["actuators"] = [
        {"id": f"net.adversary.{name}", "lo": 0.0, "hi": 1.0, "default": 0.0}
        for name in ("rule_cut", "rule_slow", "rule_forge", f"restart_{restart}")
    ]
    doc["schedule"] = [{"name": "attack", "mode": "test", "episodes": 2,
                        "episode_length": 16}]


@pytest.mark.parametrize("name", ["feeder4.yaml", "gaming.yaml"])
def test_net_counters_in_the_kernel_equal_the_network_at_every_boundary(
        tmp_path, monkeypatch, name):
    # The net outputs a node's counters only when one changed; the kernel
    # keeps the last values, so get_output still reads the network's.
    path = packaged(name)
    doc = load_document(path)
    attack_every_primitive(doc, random.Random(name))
    assert validate_document(doc, path.parent) == []
    attrs = ("bytes_in", "bytes_out", "frames_dropped", "utilization")
    boundaries, quiet, readings = [], [], set()
    run_until, step = Kernel.run_until, NetSimulator.__call__

    def checked_run_until(kernel, end_time):
        run_until(kernel, end_time)
        network = kernel._sims["net"].stepper.network
        for node in network.topology.nodes:
            counters = network.read_counters(node.node_id)
            assert tuple(kernel.get_output(("net", node.node_id, a)) for a in attrs) == counters
            readings.add(counters)
        boundaries.append(end_time)

    def counting_step(self, t, inputs):
        outputs = step(self, t, inputs)
        quiet.extend(node for node in self._nodes if "bytes_in" not in outputs.get(node, {}))
        return outputs

    monkeypatch.setattr(Kernel, "run_until", checked_run_until)
    monkeypatch.setattr(NetSimulator, "__call__", counting_step)
    log = execute_run(doc, path.parent, tmp_path).log_path
    kinds = collections.Counter(json.loads(line)["kind"] for line in log.read_bytes().splitlines())
    assert len(boundaries) == 2 * (1 + 16)  # a reset and 16 steps per episode
    assert quiet and len(readings) > 10
    assert all(kinds[kind] for kind in ("net.deliver", "net.drop", "net.rule", "net.restart"))


NET_COUNTERS = ("bytes_in", "bytes_out", "frames_dropped", "utilization")


def sensor_only(endpoint):
    """A grid bus, line or slack output, or a net node's counter: what only a sensor reads."""
    sim, model, attr = endpoint
    if sim == "grid":
        return model == "slack" or model.startswith(("bus_", "line_"))
    return sim == "net" and attr in NET_COUNTERS


@pytest.mark.parametrize("name", ["feeder4.yaml", "gaming.yaml"])
def test_outputs_only_a_sensor_reads_are_produced_only_where_one_does(
        tmp_path, monkeypatch, name):
    # gaming senses bus_4 of the grid and no net counter; feeder4 senses
    # bus_4 and the counters of sw. Nothing else reads these outputs: no
    # connection may, or it would read None from an output never produced.
    path = packaged(name)
    doc = load_document(path)
    sensed = {"feeder4.yaml": {("grid", "bus_4"), ("net", "sw")},
              "gaming.yaml": {("grid", "bus_4")}}[name]
    assert {tuple(s["id"].split(".")[:2]) for s in doc["agents"][0]["sensors"]
            if sensor_only(tuple(s["id"].split(".")))} == sensed
    sources, kernels, read = [], [], set()
    connect, run_until, read_counters = (
        Kernel.connect, Kernel.run_until, scenario.Network.read_counters)

    def recording_connect(self, src, dst, **kwargs):
        sources.append(src)
        connect(self, src, dst, **kwargs)

    def recording_run_until(self, end_time):
        kernels.append(self)
        run_until(self, end_time)

    def recording_read(self, node_id):
        read.add(node_id)
        return read_counters(self, node_id)

    monkeypatch.setattr(Kernel, "connect", recording_connect)
    monkeypatch.setattr(Kernel, "run_until", recording_run_until)
    monkeypatch.setattr(scenario.Network, "read_counters", recording_read)
    execute_run(doc, path.parent, tmp_path)
    assert sources and not [src for src in sources if sensor_only(src)]
    assert read == {model for sim, model in sensed if sim == "net"}
    produced = {(sim, model) for kernel in kernels for sim in ("grid", "net")
                for model, (store, _, _) in kernel._sims[sim].outputs.items()
                if any(sensor_only((sim, model, attr)) for attr in store)}
    assert produced == sensed


def test_only_a_sensed_node_keeps_utilization_windows():
    # every node of the bundled networks has a finite capacity, so each
    # would keep two windows; a gaming run senses no net node, and feeder4
    # and both dos runs sense sw alone
    feeder4, gaming, experiment = (load_document(packaged(name)) for name in
                                   ("feeder4.yaml", "gaming.yaml", "dos_experiment.yaml"))
    runs = list(design.expand_runs(design.parse_experiment(experiment, feeder4)))
    assert len(runs) == 2
    cases = [(gaming, set()), (feeder4, {"sw"})]
    cases += [(design.run_document(run)["scenario"], {"sw"}) for run in runs]
    for doc, windowed in cases:
        config = parsed(doc, packaged("."))
        nodes = assemble(config, 1, Recorder())._sims["net"].stepper.network._nodes
        assert all(node.capacity_bps for node in nodes.values())
        assert {node_id for node_id, node in nodes.items()
                if node.transit_in is not None or node.transit_out is not None} == windowed


def grid_reading(config, state, sensor_id):
    """What the sensor reads of a converged grid state; 0.0 before any."""
    _, model, attr = sensor_id.split(".")
    if state is None:
        return 0.0
    if model == "slack":
        return state.slack_p_mw if attr == "p_mw" else state.slack_q_mvar
    kind, key = model.split("_", 1)
    if kind == "line":
        return state.line_loading[int(key)]
    index = [b.bus_id for b in config.grid.buses].index(int(key))
    return (state.vm if attr == "vm_pu" else state.va)[index]


@pytest.mark.parametrize("name", ["feeder4.yaml", "gaming.yaml"])
def test_grid_sensors_read_the_last_converged_state_after_every_step(
        tmp_path, monkeypatch, name):
    # The grid outputs its bus, line and slack models only where a sensor
    # names them; sensing all of them, each reading is the adapter's last
    # converged power flow.
    path = packaged(name)
    doc = load_document(path)
    config = parsed(doc, path.parent)
    desc = scenario.GridSimulator(config, lambda *a: None).descriptor()
    ids = [f"grid.{m.model_id}.{attr}" for m in desc.models for attr in m.outputs
           if sensor_only(("grid", m.model_id, attr))]
    assert len(ids) == 2 * len(config.grid.buses) + len(config.grid.lines) + 2
    doc["agents"][0]["sensors"] = [{"id": i, "lo": -10.0, "hi": 10.0} for i in ids]
    doc["schedule"] = [{"name": "p", "mode": "test", "episodes": 2, "episode_length": 12}]
    assert validate_document(doc, path.parent) == []
    checked = []
    reset, step = Environment.reset, Environment.step

    def check(env, readings):
        state = env._kernel._sims["grid"].stepper.last
        assert readings == [grid_reading(config, state, i) for i in ids]
        checked.append(state is not None)

    def checked_reset(self, seed):
        readings = reset(self, seed)
        check(self, readings)
        return readings

    def checked_step(self, setpoints):
        readings, reward, done = step(self, setpoints)
        check(self, readings)
        return readings, reward, done

    monkeypatch.setattr(Environment, "reset", checked_reset)
    monkeypatch.setattr(Environment, "step", checked_step)
    execute_run(doc, path.parent, tmp_path)
    assert len(checked) == 2 * (1 + 12) and all(checked)


# -- tamper fuzz --------------------------------------------------------------

FEEDER4_BUS = {1: 3, 2: 3, 3: 4, 4: 4}  # pv asset number -> bus
WRONG_TYPES = {  # field -> JSON values of another type than the field's own
    "offer_id": ("7", "null", "[1]", "true"),
    "agent_id": ("7.5", "null", "{}", "false"),
    "bus": ('"3"', "3.0", "true", "null", "[3]"),
    "interval": ('"5"', "5.0", "false", "{}"),
    "q_mvar": ('"0.6"', "true", "null", "[0.6]"),
    "price_eur_per_mvar": ('"4.0"', "false", "{}", "null"),
}


def fuzz_replacement(rng, asset, interval, untouched):
    """A hostile replacement for pv<asset>'s offer for interval, and the key
    ("src", host) or ("offer_id", id) its market.clearing rejection must
    carry; None for payloads that are not offers at all.

    untouched lists the assets whose own offer for interval arrives as sent.
    """
    own_id = f"pv{asset}-{interval:05d}"
    fields = {
        "offer_id": f'"{own_id}"', "agent_id": f'"agent_pv{asset}"',
        "bus": str(FEEDER4_BUS[asset]), "q_mvar": "0.6",
        "price_eur_per_mvar": "4.0", "interval": str(interval),
    }
    host = ("src", f"h{asset}")
    kind = rng.choice(("non-finite", "huge", "huge bus", "wrong type", "missing",
                       "nothing offered", "unknown asset", "foreign asset", "duplicate",
                       "closed", "headroom", "unparseable", "not an offer"))
    if kind == "duplicate" and not untouched:
        kind = "foreign asset"
    if kind == "non-finite":
        fields[rng.choice(("q_mvar", "price_eur_per_mvar"))] = rng.choice(
            ("NaN", "Infinity", "-Infinity"))
        key = host
    elif kind == "huge":
        fields[rng.choice(("q_mvar", "price_eur_per_mvar"))] = rng.choice(("", "-")) + "9" * 400
        key = host
    elif kind == "huge bus":
        fields["bus"] = "9" * 400
        key = ("offer_id", own_id)
    elif kind == "wrong type":
        field = rng.choice(sorted(WRONG_TYPES))
        fields[field] = rng.choice(WRONG_TYPES[field])
        key = host
    elif kind == "missing":
        del fields[rng.choice(sorted(set(fields) - {"offer_id"}))]
        key = host
    elif kind == "nothing offered":
        if rng.random() < 0.5:
            fields["q_mvar"] = rng.choice(("0", "0.0", "-0.0"))
        else:
            fields["price_eur_per_mvar"] = "-1.5"
        key = host
    elif kind == "unknown asset":
        unknown = f"zz{asset}-{interval:05d}"
        fields["offer_id"] = f'"{unknown}"'
        key = ("offer_id", unknown)
    elif kind == "foreign asset":
        other = rng.choice([a for a in FEEDER4_BUS if a != asset])
        foreign = f"pv{other}-{interval:05d}"
        fields["offer_id"] = f'"{foreign}"'
        key = ("offer_id", foreign)
    elif kind == "duplicate":
        other = rng.choice(untouched)
        twin = f"pv{other}-{interval:05d}"
        fields.update(offer_id=f'"{twin}"', agent_id=f'"agent_pv{other}"',
                      bus=str(FEEDER4_BUS[other]))
        key = ("offer_id", twin)
    elif kind == "closed":
        fields["interval"] = str(interval - rng.randint(1, interval + 2))
        key = ("offer_id", own_id)
    elif kind == "headroom":
        fields["q_mvar"] = rng.choice(("1.5", "-2.0"))
        key = ("offer_id", own_id)
    elif kind == "unparseable":
        return rng.choice(('{"offer_id": ', "offer", '{"bus": 3,}')), host
    else:
        return rng.choice(("[1, 2]", '{"type": "dispatch"}', '"offer_id"', "17")), None
    return "{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}", key


def test_tamper_fuzz_rejects_every_malformed_offer(tmp_path):
    # Bidders submit the offer for interval i at t = 900 * (i - 2); the market
    # reads it at the next clearing, and the last one is at t = 86400.
    rng = random.Random(20261018)
    frames = sorted(rng.sample([(i, a) for i in range(2, 98) for a in FEEDER4_BUS], 240))
    tampered = set(frames)
    doc = load_document(packaged("feeder4.yaml"))
    expected = collections.Counter()
    for n, (interval, asset) in enumerate(frames):
        untouched = [a for a in FEEDER4_BUS if (interval, a) not in tampered]
        replacement, key = fuzz_replacement(rng, asset, interval, untouched)
        if key is not None:
            expected[key] += 1
        t = 900.0 * (interval - 2)
        doc["network"]["rules"].append({
            "rule_id": f"fuzz{n:03d}", "at_node": "sw", "enabled": True,
            "match": {"src": f"h{asset}"},
            "action": {"kind": "tamper", "replacement": replacement},
            "active_from": t, "active_until": t + 1.0,
        })
    scenario = tmp_path / "fuzz.yaml"
    scenario.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")

    logs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        assert main(["run", str(scenario), "--seed", "5", "-o", str(out)]) == 0
        (log,) = out.glob("*.jsonl")
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]

    rejected = collections.Counter()
    for line in logs[0].decode("utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] == "market.clearing":
            for entry in record["payload"]["rejected"]:
                rejected[("src", entry["src"]) if "src" in entry
                         else ("offer_id", entry["offer_id"])] += 1
    assert sum(expected.values()) >= 200
    assert rejected == expected


@pytest.mark.parametrize("q_field", ['"q_mvar":"0.3",', '"q_mvar":true,', "", None])
def test_a_tampered_dispatch_leaves_the_setpoint(mini_doc, q_field):
    # s2 is dispatched 1.2 Mvar at every clearing; from t=1000 its dispatch
    # is rewritten in flight to a q_mvar of another JSON type, or none, or
    # (q_field None) to text that is not JSON, which is no dispatch: the unit
    # keeps the setpoint it had
    tampered = ('{"accepted":true,"interval":3,%s"type":"dispatch","unit":"s2"}' % q_field
                if q_field is not None else "dispatch s2 q_mvar=0.3")
    mini_doc["network"]["rules"] = [{
        "rule_id": "tamper_dispatch", "at_node": "sw", "enabled": True, "active_from": 1000,
        "match": {"src": "op", "payload_contains": '"unit":"s2"'},
        "action": {"kind": "tamper", "replacement": tampered},
    }]
    config, kernel, recorder = build(mini_doc)
    kernel.run_until(1801)
    assert kernel.get_output(("pv", "s2", "q_mvar")) == pytest.approx(1.2)
    kernel.run_until(2701)
    assert [m[3]["rule_id"] for m in recorder.of("net.rule") if m[3].get("event") == "match"]
    assert kernel.get_output(("pv", "s2", "q_mvar")) == pytest.approx(1.2)


@pytest.fixture(scope="module")
def wire_runs(tmp_path_factory):
    """Every wire payload the codec made or read, every payload format the
    network built, and what Network.delivered returned, over the gaming run
    and the two dos_compare runs, and the memo sizes after the gaming run."""
    from analyse import network
    from analyse.network import Network

    seen = collections.defaultdict(list)

    def recording(name, function):
        def wrapped(*args):
            result = function(*args)
            seen[name].append((args, result))
            return result
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        for name in ("offer_payload", "dispatch_payload", "read_payload"):
            patch.setattr(scenario, name, recording(name, getattr(scenario, name)))
        patch.setattr(Network, "delivered", recording("delivered", Network.delivered))
        patch.setattr(network, "payload_format",
                      recording("payload_format", network.payload_format))
        path = packaged("gaming.yaml")
        execute_run(load_document(path), path.parent, tmp_path_factory.mktemp("wire"))
        memos = [f.cache_info() for f in (market._memo_offer, market._memo_dispatch,
                                           market.read_payload)]
        runs, logs = tmp_path_factory.mktemp("wireruns"), tmp_path_factory.mktemp("wirelogs")
        assert main(["design", str(packaged("dos_experiment.yaml")), "-o", str(runs)]) == 0
        for run_file in sorted(runs.glob("dos_compare-*.yaml")):
            assert main(["run", str(run_file), "-o", str(logs)]) == 0
    return seen, memos


def test_every_wire_payload_of_the_reference_runs_equals_a_fresh_encode(wire_runs):
    seen = wire_runs[0]
    for (offer,), payload in seen["offer_payload"]:
        assert payload == canonical_json(offer._asdict()).encode("utf-8")
    for (unit, q, interval), payload in seen["dispatch_payload"]:
        assert payload == canonical_json({
            "type": "dispatch", "unit": unit, "q_mvar": q, "interval": interval,
            "accepted": q != 0.0}).encode("utf-8")
    for (payload,), read in seen["read_payload"]:
        assert read == market.read_payload.__wrapped__(payload)
    # the memo served most of them: each payload repeats an earlier one
    counts = collections.Counter(payload for _, payload in seen["offer_payload"])
    assert len(counts) < len(seen["offer_payload"]) / 2
    assert all(len(seen[name]) > 1000
               for name in ("offer_payload", "dispatch_payload", "read_payload"))


def test_each_wire_memo_keeps_no_more_than_its_bound(wire_runs):
    memos = wire_runs[1]
    bounds = (market.WIRE_MEMO_SIZE, market.WIRE_MEMO_SIZE, 2 * market.WIRE_MEMO_SIZE)
    assert market.WIRE_MEMO_SIZE == 512
    for info, bound in zip(memos, bounds):
        assert info.maxsize == bound
        assert info.currsize <= info.maxsize and info.hits > 0


def test_a_frame_that_repeats_one_feeder4_day_later_is_served_from_the_memo(tmp_path):
    # A day of feeder4 is 97 intervals of 4 bidders: 388 offers and 388
    # dispatches. One episode later the 3 static bidders' offers and every
    # dispatch repeat byte for byte; the jitter bidder's offers do not.
    doc = load_document(packaged("feeder4.yaml"))
    doc["schedule"] = [{"name": "days", "mode": "test", "episodes": 2, "episode_length": 96}]
    memos = (market._memo_offer, market._memo_dispatch, market.read_payload)
    for memo in memos:
        memo.cache_clear()
    execute_run(doc, packaged("feeder4.yaml").parent, tmp_path)
    offers, dispatches, reads = (memo.cache_info().hits for memo in memos)
    assert offers >= 3 * 97 and dispatches >= 4 * 97 and reads > 0


def test_each_route_keeps_one_pair_of_frame_formats(wire_runs):
    # gaming's and both dos_compare runs' topologies: a route's net.send and
    # net.deliver formats are built once, when it is searched, for all episodes
    seen = wire_runs[0]
    topologies = {id(net.topology): net.topology for (net, _), _ in seen["delivered"]}
    routes = [route for topology in topologies.values() for route in topology.routes.values()]
    assert len(topologies) == 3 and len(routes) >= 3 * 4
    built = sorted(result for _, result in seen["payload_format"])
    assert built == sorted(f for _, send, deliver in routes for f in (send, deliver))


def test_the_net_asks_only_nodes_that_hold_frames_for_them(wire_runs):
    delivered = wire_runs[0]["delivered"]
    assert len(delivered) > 1000
    assert [frames for _, frames in delivered if not frames] == []

