import collections
import json
import random
from pathlib import Path

import pytest
import yaml

from analyse import scenario
from analyse.cli import main
from analyse.environment import Environment
from analyse.grid import CompiledGrid, solve_power_flow
from analyse.runner import execute_run
from analyse.scenario import (
    NetSimulator,
    PvSimulator,
    assemble,
    load_data_series,
    load_document,
    parse_scenario,
)
from analyse.telemetry import canonical_json
from analyse.validation import (
    validate_document,
    validate_experiment,
    validate_run,
    validate_scenario,
)

from conftest import packaged


class Recorder:
    def __init__(self):
        self.records = []

    def __call__(self, source, kind, t_sim, payload):
        self.records.append((source, kind, t_sim, payload))

    def of(self, kind):
        return [r for r in self.records if r[1] == kind]


def build(doc, seed=1):
    config = parse_scenario(doc, Path("."))
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
    assert any("99" in msg for _, msg in errors)


def test_unknown_sensor_path_caught(mini_doc):
    mini_doc["agents"][0]["sensors"][0]["id"] = "grid.bus_9.vm_pu"
    errors = validate_scenario(mini_doc, Path("."))
    assert any("bus_9" in msg and "sensor" in msg for _, msg in errors)


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
    assert any("duplicate rule ids" in msg for _, msg in errors)


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
    config = parse_scenario(mini_doc, Path("."))
    grid = scenario.GridSimulator(config, Recorder())

    def step(t, scale, q):
        inputs = {f"load_{l.name}": {"p_mw": l.p_mw * scale, "q_mvar": l.q_mvar * scale}
                  for l in config.loads}
        inputs.update({f"sgen_{s.name}": {"p_mw": 0.0, "q_mvar": q} for s in config.sgens})
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
    pv = PvSimulator(parse_scenario(mini_doc, Path(".")))

    def q_after(q):
        inputs = {name: {"ghi_w_m2": 0.0, "t_air_c": 15.0, "inbox": ()} for name in pv.units}
        payload = '{"q_mvar":%s,"type":"dispatch","unit":"s1"}' % q
        inputs["s1"]["inbox"] = ((0.0, "op", payload.encode()),)
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
    _, weather = load_data_series(config)
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


def feeder4_run(tmp_path, monkeypatch, agent_kind, periodic):
    doc = load_document(packaged("feeder4.yaml"))
    doc["agents"][0]["kind"] = agent_kind
    doc["agents"][0]["actuators"][0]["default"] = 1.0  # the DoS rule on
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
