import collections
import copy
import datetime
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from analyse.cli import main, render_summary
from analyse.kernel import Kernel
from analyse.market import MAX_PAYMENT_EUR
from analyse.scenario import NON_NUMERIC_ATTRS, assemble
from analyse.telemetry import RunSummary, summarize
from analyse.validation import validate_document

from conftest import MINI, assert_summary_matches_recount, packaged, parsed


@pytest.fixture()
def mini_path(tmp_path, mini_doc):
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(mini_doc, sort_keys=True), encoding="utf-8")
    return path


def experiment_path(tmp_path, scenario_name="mini.yaml", factors=None):
    doc = {
        "schema_version": 1,
        "kind": "experiment",
        "name": "miniexp",
        "base_scenario": scenario_name,
        "base_seed": 9,
        "strategy": "full_factorial",
        "factors": factors or [
            {"name": "price_b",
             "path": "market/bidders/1/price_eur_per_mvar",
             "levels": [5.0, 6.0, 7.0]},
            {"name": "gate", "path": "market/gate_closure_s", "levels": [0.0, 900.0]},
        ],
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return path


def test_validate_ok_bundled(capsys):
    assert main(["validate", str(packaged("feeder4.yaml"))]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_paths(tmp_path, capsys, mini_doc):
    mini_doc["agents"][0]["sensors"][0]["id"] = "grid.bus_9.vm_pu"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "agents/0/sensors/0/id" in out


@pytest.mark.parametrize("place, where, message", [
    pytest.param(lambda d, s: d["network"].update(
        rules=[{"rule_id": "r", "at_node": "sw", "match": {"payload_contains": s}}]),
        "network/rules/0/match/payload_contains", "'att\\ud800' does not encode as UTF-8",
        id="payload_contains"),
    pytest.param(lambda d, s: d["agents"][0].update(agent_id=s),
                 "agents/0/agent_id", "'att\\ud800' does not encode as UTF-8", id="agent_id"),
    pytest.param(lambda d, s: d["agents"][0].update(objective={"kind": "custom",
                                                               "weights": {s: 1.0}}),
                 "agents/0/objective/weights/'att\\ud800'",
                 "key 'att\\ud800' does not encode as UTF-8", id="weight key"),
    pytest.param(lambda d, s: d["agents"][0].update(objective={"kind": "custom",
                                                               "weights": {s: "x"}}),
                 "agents/0/objective/weights/'att\\ud800'", "'x' is not of type 'number'",
                 id="schema error under the key"),
])
def test_strings_that_are_not_utf8_are_refused_at_a_printable_path(
        tmp_path, capsys, mini_doc, place, where, message):
    # libyaml refuses "\ud800"; the pure-Python loader reads it as a lone surrogate
    place(mini_doc, "SURROGATE")
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(mini_doc).replace("SURROGATE", '"att\\ud800"'),
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert f"{bad}: {where}: {message}\n" in capsys.readouterr().out


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert main(["validate", str(empty)]) == 2


def test_design_counts_and_overwrite_guard(tmp_path, mini_path, capsys):
    exp = experiment_path(tmp_path)
    out = tmp_path / "runs"
    assert main(["design", str(exp), "-o", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["index.yaml"] + [f"miniexp-{i:04d}.yaml" for i in range(6)]
    # rerun without the flag refuses
    assert main(["design", str(exp), "-o", str(out)]) == 4
    # with the flag it rewrites byte-identically
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["design", str(exp), "-o", str(out), "--overwrite"]) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_design_index_lists_factors(tmp_path, mini_path):
    exp = experiment_path(tmp_path)
    out = tmp_path / "runs"
    main(["design", str(exp), "-o", str(out)])
    index = yaml.safe_load((out / "index.yaml").read_text())
    assert index["experiment"] == "miniexp"
    assert index["runs"]["miniexp-0000"]["factors"] == {"price_b": 5.0, "gate": 0.0}
    run_doc = yaml.safe_load((out / "miniexp-0003.yaml").read_text())
    assert run_doc["scenario"]["market"]["gate_closure_s"] == 900.0


def test_designed_runs_validate_without_edits(tmp_path, mini_path):
    from analyse.validation import validate_document

    exp = experiment_path(tmp_path)
    out = tmp_path / "runs"
    main(["design", str(exp), "-o", str(out)])
    for run_file in sorted(out.glob("miniexp-*.yaml")):
        doc = yaml.safe_load(run_file.read_text())
        assert validate_document(doc, out) == [], run_file.name


def test_design_reports_each_violation_of_the_base_scenario(tmp_path, capsys, mini_doc):
    mini_doc["agents"][0]["sensors"][0]["id"] = "grid.bus_9.vm_pu"
    mini_doc["agents"][0]["objective"] = {"kind": "custom", "weights": {"nothing": 1.0}}
    (tmp_path / "mini.yaml").write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    exp = experiment_path(tmp_path)
    out = tmp_path / "runs"
    assert main(["design", str(exp), "-o", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{exp}: base_scenario: (in mini.yaml) agents/0/sensors/0/id: ")
    assert lines[1].startswith(
        f"{exp}: base_scenario: (in mini.yaml) agents/0/objective/weights/nothing: ")
    assert not out.exists()


def test_run_twice_identical_logs_and_seed_override(tmp_path, mini_path, capsys):
    log_a = tmp_path / "a"
    log_b = tmp_path / "b"
    assert main(["run", str(mini_path), "-o", str(log_a)]) == 0
    assert main(["run", str(mini_path), "-o", str(log_b)]) == 0
    assert (log_a / "mini.jsonl").read_bytes() == (log_b / "mini.jsonl").read_bytes()

    log_c = tmp_path / "c"
    assert main(["run", str(mini_path), "-o", str(log_c), "--seed", "777"]) == 0
    header = json.loads((log_c / "mini.jsonl").read_text().splitlines()[0])
    assert header["payload"]["seed"] == 777
    assert header["payload"]["seed_overridden"] is True


def test_run_env_var_default_dir(tmp_path, mini_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("ANALYSE_LOG_DIR", str(out))
    assert main(["run", str(mini_path)]) == 0
    assert (out / "mini.jsonl").exists()


def test_run_invalid_grid_leaves_no_log(tmp_path, mini_doc):
    mini_doc["grid"]["lines"] = mini_doc["grid"]["lines"][:1]  # disconnect
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(bad), "-o", str(out)]) == 2
    assert not (out / "bad.jsonl").exists()


def test_report_single_log(tmp_path, mini_path, capsys):
    out = tmp_path / "logs"
    main(["run", str(mini_path), "-o", str(out)])
    capsys.readouterr()
    assert main(["report", str(out / "mini.jsonl")]) == 0
    text = capsys.readouterr().out
    assert "violation_count" in text
    assert "payments_eur.agent_b" in text


def test_report_csv_format(tmp_path, mini_path, capsys):
    out = tmp_path / "logs"
    main(["run", str(mini_path), "-o", str(out)])
    capsys.readouterr()
    assert main(["report", str(out), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("run_id,")
    assert len(lines) == 2  # header + one run


def test_render_summary_text_and_csv():
    summary = RunSummary(
        run_id="r1", experiment="exp", seed=7, violation_count=3,
        max_excursion_pu=0.0123456789, diverged_count=1, clearings=4, clearings_resolved=3,
        total_cost_eur=12.5, frames_sent=1_000_000, frames_delivered=999_998, frames_dropped=2,
        payments_eur={"agent_b": 2.5, "agent_a": 10.0},
        accepted_mvar={"agent_b": 0.25, "agent_a": 1.0},
        returns={"b": [1.0, 2.0], "a": [0.5]}, parse_errors=[(9, "bad json")],
    )
    rows = [
        ("run_id", "r1"), ("experiment", "exp"), ("seed", "7"), ("violation_count", "3"),
        ("max_excursion_pu", "0.0123457"), ("diverged_count", "1"), ("clearings", "4"),
        ("clearings_resolved", "3"), ("resolution_rate", "0.75"), ("total_cost_eur", "12.5"),
        ("frames_sent", "1000000"), ("frames_delivered", "999998"), ("frames_dropped", "2"),
        ("payments_eur.agent_a", "10"), ("payments_eur.agent_b", "2.5"),
        ("accepted_mvar.agent_a", "1"), ("accepted_mvar.agent_b", "0.25"),
        ("episodes.a", "1"), ("mean_return.a", "0.5"),
        ("episodes.b", "2"), ("mean_return.b", "1.5"),
        ("parse_error.line_9", "bad json"),
    ]
    assert render_summary(summary) == "\n".join(f"{k:<21}  {v}" for k, v in rows)
    assert render_summary(summary, "csv") == "\n".join(
        ["metric,value"] + [f"{k},{v}" for k, v in rows])


def test_report_group_by_unknown_factor(tmp_path, mini_path, capsys):
    exp = experiment_path(
        tmp_path,
        factors=[{"name": "gate", "path": "market/gate_closure_s", "levels": [0.0, 900.0]}],
    )
    runs = tmp_path / "runs"
    logs = tmp_path / "logs"
    main(["design", str(exp), "-o", str(runs)])
    for run_file in sorted(runs.glob("miniexp-*.yaml")):
        assert main(["run", str(run_file), "-o", str(logs)]) == 0
    capsys.readouterr()
    assert main(["report", str(logs), "--group-by", "nope"]) == 2
    err = capsys.readouterr().err
    assert "known factors: gate" in err
    assert main(["report", str(logs), "--group-by", "gate"]) == 0


def test_report_missing_logs(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["report", str(empty)]) == 4
    assert main(["report", str(tmp_path / "missing")]) == 4


def test_run_rejects_garbage_yaml(tmp_path):
    bad = tmp_path / "garbage.yaml"
    bad.write_text("kind: [unclosed", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert main(["validate", str(bad)]) == 2


def _run_doc(**fields):
    doc = {"schema_version": 1, "kind": "run", "run_id": "r1", "seed": 3,
           "scenario": copy.deepcopy(MINI)}
    doc.update(fields)
    return doc


def _without_run_id():
    doc = _run_doc()
    del doc["run_id"]
    return doc


@pytest.mark.parametrize("doc, path", [
    pytest.param(_without_run_id(), "(document root): 'run_id' is a required property",
                 id="run without run_id"),
    pytest.param(_run_doc(seed="abc"), "seed: 'abc' is not of type 'integer'",
                 id="run with a string seed"),
    pytest.param(dict(copy.deepcopy(MINI), seed="abc"), "seed: 'abc' is not of type 'integer'",
                 id="scenario with a string seed"),
])
def test_run_validates_before_reading_the_envelope(tmp_path, capsys, doc, path):
    doc_path = tmp_path / "doc.yaml"
    doc_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(doc_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert err.count(str(doc_path)) == 1
    assert not list(tmp_path.rglob("*.jsonl"))


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_run_refuses_an_experiment_before_validating_it(tmp_path, capsys, monkeypatch):
    from analyse import scenario

    calls = collections.Counter()
    _counting(monkeypatch, scenario, "load_document", calls)
    exp = experiment_path(tmp_path, scenario_name="missing.yaml")
    assert main(["run", str(exp), "-o", str(tmp_path / "logs")]) == 2
    assert "document is neither a run nor a scenario" in capsys.readouterr().err
    assert calls == {"load_document": 1}


def test_design_refuses_a_scenario_before_validating_it(tmp_path, capsys, monkeypatch):
    from analyse import scenario

    calls = collections.Counter()
    _counting(monkeypatch, scenario, "parse_scenario", calls)
    assert main(["design", str(packaged("feeder4.yaml")), "-o", str(tmp_path / "runs")]) == 2
    assert "design needs an experiment document" in capsys.readouterr().err
    assert calls == {}


def test_design_loads_each_file_and_parses_the_experiment_once(tmp_path, monkeypatch):
    from analyse import scenario, validation

    calls = collections.Counter()
    _counting(monkeypatch, scenario, "load_document", calls)
    _counting(monkeypatch, validation, "parse_experiment", calls)
    argv = ["design", str(packaged("dos_experiment.yaml")), "-o", str(tmp_path / "runs")]
    assert main(argv) == 0
    assert calls == {"load_document": 2, "parse_experiment": 1}


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_run_directory_reports_every_bad_file(tmp_path, capsys, parallel):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "a_list.yaml").write_text("- 1\n- 2\n", encoding="utf-8")
    (runs / "b_garbage.yaml").write_text("kind: [unclosed", encoding="utf-8")
    (runs / "c_run.yaml").write_text(yaml.safe_dump(_run_doc()), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(runs), "-o", str(out), "--parallel", parallel]) == 2
    lines = capsys.readouterr().out.splitlines()
    statuses = [line.split(";")[0] for line in lines
                if line.startswith(("a_list.yaml", "b_garbage.yaml", "c_run.yaml"))]
    assert statuses == ["a_list.yaml: exit 2", "b_garbage.yaml: exit 2", "c_run.yaml: ok"]
    assert (out / "r1.jsonl").exists()


@pytest.mark.parametrize("text", ["- 1\n- 2\n", "kind: [unclosed", "seed: !!int abc\n",
                                  "when: !!timestamp 2020-13-45\n"])
def test_single_file_load_error_names_the_path_once(tmp_path, capsys, text):
    doc_path = tmp_path / "a.yaml"
    doc_path.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    for argv in (["validate", str(doc_path)], ["run", str(doc_path), "-o", out],
                 ["design", str(doc_path), "-o", out]):
        assert main(argv) == 2
        assert capsys.readouterr().err.count(str(doc_path)) == 1


def test_run_directory_sequential_and_parallel(tmp_path, mini_path):
    exp = experiment_path(
        tmp_path,
        factors=[{"name": "gate", "path": "market/gate_closure_s", "levels": [0.0, 900.0]}],
    )
    runs = tmp_path / "runs"
    main(["design", str(exp), "-o", str(runs)])
    seq_logs = tmp_path / "seq"
    par_logs = tmp_path / "par"
    assert main(["run", str(runs), "-o", str(seq_logs)]) == 0
    assert main(["run", str(runs), "-o", str(par_logs), "--parallel", "2"]) == 0
    for name in ("miniexp-0000.jsonl", "miniexp-0001.jsonl"):
        assert (seq_logs / name).read_bytes() == (par_logs / name).read_bytes()


def test_run_directory_starts_no_more_workers_than_files(tmp_path, mini_path, monkeypatch):
    import concurrent.futures

    class InlineExecutor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    workers = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    exp = experiment_path(
        tmp_path,
        factors=[{"name": "gate", "path": "market/gate_closure_s", "levels": [0.0, 900.0]}],
    )
    runs = tmp_path / "runs"
    assert main(["design", str(exp), "-o", str(runs)]) == 0
    assert main(["run", str(runs), "-o", str(tmp_path / "logs"), "--parallel", "500"]) == 0
    assert workers == [2]


def test_run_directory_empty_is_io_error(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["run", str(empty)]) == 4


def test_simulation_abort_exit_code_and_partial_log(tmp_path, mini_path, monkeypatch):
    import json

    from analyse.scenario import GridSimulator

    original = GridSimulator.__call__

    def failing(self, t, inputs):
        if t >= 900:
            raise RuntimeError("injected fault")
        return original(self, t, inputs)

    monkeypatch.setattr(GridSimulator, "__call__", failing)
    out = tmp_path / "logs"
    assert main(["run", str(mini_path), "-o", str(out)]) == 3
    lines = (out / "mini.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    assert last["kind"] == "run.abort"
    assert "injected fault" in last["payload"]["error"]


def test_large_finite_returns_end_the_run_and_its_report(tmp_path, capsys):
    # A profit objective that pays 2e306 per offered Mvar gives episode
    # returns near 5e307, whose sum overflows: the run must still end with
    # run.end, and the report read it. (Prices cannot give such returns: the
    # market refuses a payment above MAX_PAYMENT_EUR.)
    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    doc["agents"][0]["kind"] = "random"
    doc["agents"][0]["objective"]["cost_per_mvar"] = -2e306
    doc["schedule"] = [{"name": "testing", "mode": "test", "episodes": 4, "episode_length": 6}]
    path = tmp_path / "big.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(path), "-o", str(out)]) == 0
    records = [json.loads(line) for line in (out / "gaming.jsonl").read_text().splitlines()]
    returns = [r["payload"]["return"] for r in records if r["kind"] == "agent.episode"]
    assert math.isinf(sum(returns)) and max(returns) < 1.8e308
    assert records[-1]["kind"] == "run.end"
    assert 1e307 < records[-1]["payload"]["phases"][0]["mean_return"] <= max(returns)
    capsys.readouterr()
    assert main(["report", str(out / "gaming.jsonl")]) == 0
    assert "mean_return.attacker" in capsys.readouterr().out


def test_a_run_end_the_log_cannot_hold_aborts_with_exit_3(tmp_path, mini_path, monkeypatch):
    from analyse.environment import PhaseReport

    monkeypatch.setattr(PhaseReport, "mean_return", property(lambda self: math.inf))
    out = tmp_path / "logs"
    assert main(["run", str(mini_path), "-o", str(out)]) == 3
    records = [json.loads(line) for line in (out / "mini.jsonl").read_text().splitlines()]
    assert [r["kind"] for r in records[-2:]] == ["agent.episode", "run.abort"]
    assert records[-1]["payload"]["error"] == "non-finite float in payload: inf"


def test_bad_data_series_is_validation_error(tmp_path, mini_doc, capsys):
    csv = tmp_path / "w.csv"
    csv.write_text("t_s,ghi_w_m2,t_air_c\n0,0,10\n900,1,11\n2000,2,12\n", encoding="utf-8")
    mini_doc["data"]["weather"]["path"] = str(csv)
    doc_path = tmp_path / "mini.yaml"
    doc_path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert main(["validate", str(doc_path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{doc_path}: data/weather/path: {csv}: time steps must be uniform whole seconds > 0",
        "1 problem(s) found"]
    out = tmp_path / "logs"
    assert main(["run", str(doc_path), "-o", str(out)]) == 2
    assert not (out / "mini.jsonl").exists()


WEATHER_HEADER = b"t_s,ghi_w_m2,t_air_c\n"


@pytest.mark.parametrize("series, text, problem", [
    ("weather", WEATHER_HEADER + b"0,0,10\n0.5,1,11\n1,2,12\n",
     ": time steps must be uniform whole seconds > 0"),
    ("weather", WEATHER_HEADER + b"0,0,10\n1.5,1,11\n3,2,12\n",
     ": time steps must be uniform whole seconds > 0"),
    ("weather", WEATHER_HEADER + b"0,0,10\n900,abc,11\n",
     ":3: could not convert string to float: 'abc'"),
    ("weather", WEATHER_HEADER + b"0,0,10\n900,-5,11\n",
     ": ghi must be >= 0, found -5 at t_s=900"),
    ("weather", WEATHER_HEADER + b"0,0,10\n900,nan,11\n", ":3: not a finite number"),
    ("weather", WEATHER_HEADER + b"0,\xff,10\n", ": 'utf-8' codec can't decode byte 0xff"),
    ("weather", WEATHER_HEADER + b"0,1" + b"0" * 200_000 + b",10\n",
     ": field larger than field limit"),
    ("profile", b"t_s,factor\n0,1\n0.5,0.8\n", ": time steps must be uniform whole seconds > 0"),
    # a valid profile is refused at the weather field, which its reader failed
    ("profile+weather", b"t_s,factor\n0,1\n900,0.8\n", ":2: expected 3 fields"),
], ids=["sub-second", "non-integer", "non-numeric", "negative-ghi", "non-finite", "not-utf8",
        "overlong-field", "profile-sub-second", "profile-as-weather"])
def test_a_bad_data_series_is_refused_at_the_field_naming_it(
        tmp_path, mini_doc, capsys, series, text, problem):
    csv = tmp_path / "series.csv"
    csv.write_bytes(text)
    if "weather" in series:
        mini_doc["data"]["weather"]["path"] = str(csv)
    if "profile" in series:
        mini_doc["data"]["load_profiles"] = {"day": {"path": str(csv)}}
        mini_doc["grid"]["loads"][0]["profile"] = "day"
    where = "data/load_profiles/day/path" if series == "profile" else "data/weather/path"
    doc_path = tmp_path / "mini.yaml"
    doc_path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert main(["validate", str(doc_path)]) == 2
    violation, summary = capsys.readouterr().out.splitlines()
    assert violation.startswith(f"{doc_path}: {where}: {csv}{problem}")
    assert summary == "1 problem(s) found"
    assert main(["run", str(doc_path), "-o", str(tmp_path / "logs")]) == 2
    assert not (tmp_path / "logs").exists()


def test_a_data_series_that_cannot_be_read_is_an_io_error(tmp_path, mini_doc):
    folder = tmp_path / "weather.csv"
    folder.mkdir()
    mini_doc["data"]["weather"]["path"] = str(folder)
    doc_path = tmp_path / "mini.yaml"
    doc_path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert main(["validate", str(doc_path)]) == 4
    assert main(["run", str(doc_path), "-o", str(tmp_path / "logs")]) == 4
    assert not (tmp_path / "logs").exists()


def _custom_weights(weights):
    doc = copy.deepcopy(MINI)
    doc["agents"][0]["objective"] = {"kind": "custom", "weights": weights}
    return doc


@pytest.mark.parametrize("doc, where, message", [
    (_run_doc(run_id="bad", factors={"when": datetime.date(2020, 1, 1)}),
     "factors/when", "datetime.date(2020, 1, 1) is not a JSON value"),
    (_run_doc(run_id="bad", factors={1: 0.5}), "factors/1", "key 1 is not a string"),
    (_run_doc(run_id="bad", factors={"blob": b"\x00"}),
     "factors/blob", "b'\\x00' is not a JSON value"),
    (_run_doc(run_id="bad", factors={"levels": {"a"}}),
     "factors/levels", "{'a'} is not a JSON value"),
    (_custom_weights({1: 2.0}), "agents/0/objective/weights/1", "key 1 is not a string"),
], ids=["date", "integer-key", "binary", "set", "integer-weight-key"])
def test_values_json_cannot_hold_are_refused_at_their_path(tmp_path, capsys, doc, where, message):
    runs = tmp_path / "runs"
    runs.mkdir()
    bad = runs / "a_bad.yaml"
    bad.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{bad}: {where}: {message}", "1 problem(s) found"]
    out = tmp_path / "logs"
    assert main(["run", str(bad), "-o", str(out)]) == 2
    assert not out.exists()
    # in a directory, the bad file does not stop the one after it
    (runs / "b_run.yaml").write_text(yaml.safe_dump(_run_doc()), encoding="utf-8")
    assert main(["run", str(runs), "-o", str(out)]) == 2
    statuses = [line.split(";")[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith(("a_bad.yaml", "b_run.yaml"))]
    assert statuses == ["a_bad.yaml: exit 2", "b_run.yaml: ok"]
    assert [p.name for p in out.glob("*.jsonl")] == ["r1.jsonl"]


@pytest.mark.parametrize("case", ["sensor range", "actuator default", "band", "weight",
                                  "rule window", "huge integer"])
def test_values_constructors_reject_are_violations(tmp_path, mini_doc, capsys, case):
    agent = mini_doc["agents"][0]
    if case == "sensor range":
        agent["sensors"][0].update(lo=1.1, hi=0.8)
    elif case == "actuator default":
        agent["actuators"] = [{"id": "bidders.s1.price", "lo": 1, "hi": 50, "default": 80}]
    elif case == "band":
        mini_doc["market"]["band"] = {"v_min_pu": 1.05, "v_max_pu": 0.95}
    elif case == "rule window":
        mini_doc["network"]["rules"] = [
            {"rule_id": "r", "at_node": "sw", "active_from": 100.0, "active_until": 50.0}
        ]
    elif case == "huge integer":
        agent["sensors"][0]["lo"] = 10**400  # a YAML int that float() cannot hold
    else:
        agent["objective"] = {"kind": "custom", "weights": {"diverged": float("inf")}}
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "-o", str(tmp_path / "logs")]) == 2
    assert "problem(s) found" in capsys.readouterr().out


def test_non_finite_numbers_rejected_with_their_path(tmp_path, mini_doc, capsys):
    mini_doc["network"]["links"][0]["latency_ms"] = float("nan")
    mini_doc["market"]["gate_closure_s"] = float("inf")
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert ".nan" in path.read_text() and ".inf" in path.read_text()
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "network/links/0/latency_ms: nan is not a finite number" in out
    assert "market/gate_closure_s: inf is not a finite number" in out
    assert main(["run", str(path), "-o", str(tmp_path / "logs")]) == 2


def feeder4_with(edit):
    doc = yaml.safe_load(packaged("feeder4.yaml").read_text(encoding="utf-8"))
    edit(doc, doc["agents"][0])
    return doc


def add_sensor(sensor_id):
    return lambda doc, agent: agent["sensors"].append({"id": sensor_id, "lo": 0, "hi": 1})


# (edit of feeder4, path, message) of each document that validation refuses
# with one violation
PATH_CASES = [
    (lambda doc, agent: agent.update(
        kind="random", actuators=[{"id": "net.sw.outbox", "lo": 0, "hi": 1, "default": 0}]),
     "agents/0/actuators/0/id",
     "actuator path 'net.sw.outbox' carries messages or objects, not a number"),
    (add_sensor("grid.solver.state"), "agents/0/sensors/3/id",
     "sensor path 'grid.solver.state' carries messages or objects, not a number"),
    (add_sensor("net.h1.inbox"), "agents/0/sensors/3/id",
     "sensor path 'net.h1.inbox' carries messages or objects, not a number"),
    (add_sensor("market.op.outbox"), "agents/0/sensors/3/id",
     "sensor path 'market.op.outbox' carries messages or objects, not a number"),
    (lambda doc, agent: doc["market"].update(band={"v_min_pu": 1.05, "v_max_pu": 0.95}),
     "market/band", "need v_min_pu < v_max_pu"),
    (lambda doc, agent: doc["network"]["rules"][0].update(active_from=600.0, active_until=300.0),
     "network/rules/0/active_until", "rule dos_pv3: active_from > active_until"),
    (lambda doc, agent: agent["sensors"][0].update(lo=1.1, hi=0.8),
     "agents/0/sensors/0/hi", "sensor grid.bus_4.vm_pu: need lo < hi"),
    (lambda doc, agent: agent["actuators"][0].update(lo=1.0, hi=1.0, default=1.0),
     "agents/0/actuators/0/hi", "actuator net.adversary.rule_dos_pv3: need lo < hi"),
    (lambda doc, agent: agent["actuators"][0].update(default=2.0),
     "agents/0/actuators/0/default",
     "actuator net.adversary.rule_dos_pv3: default outside [lo, hi]"),
    (lambda doc, agent: agent["sensors"][1].update(hi=10**400),
     "agents/0/sensors/1/hi", "integer too large for a float"),
    (lambda doc, agent: doc["grid"]["sgens"][0].update(q_min_mvar=0.5, q_mvar=0.6),
     "pv/units/0/sgen", "sgen 'pv1': q range must contain zero"),
    (lambda doc, agent: agent.update(kind="replay", replay=[[1.0], []]),
     "agents/0/replay/1", "replay row has 0 values for 1 actuators"),
    (lambda doc, agent: agent.update(kind="replay", replay=[[1.0, 0.0]]),
     "agents/0/replay/0", "replay row has 2 values for 1 actuators"),
]


@pytest.mark.parametrize("edit, where, message", PATH_CASES, ids=[
    "actuator-outbox", "sensor-solver-state", "sensor-inbox", "sensor-market-outbox", "band",
    "rule-window", "sensor-range", "actuator-range", "actuator-default", "huge-integer",
    "pv-q-range", "replay-row-short", "replay-row-long"])
def test_every_violation_names_its_path(tmp_path, capsys, edit, where, message):
    doc = feeder4_with(edit)
    assert validate_document(doc, packaged("feeder4.yaml").parent) == [(where, message)]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert f"{where}: {message}" in capsys.readouterr().out
    assert main(["run", str(path), "-o", str(tmp_path / "logs")]) == 2
    assert f"{where}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "logs").exists()


def test_a_cem_train_phase_must_declare_the_episodes_it_runs(tmp_path, capsys):
    # a cem train phase runs population x generations candidate episodes
    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    doc["schedule"][0]["episodes"] = 1
    doc["schedule"].append({"name": "again", "mode": "train", "episodes": 65,
                            "episode_length": 6})
    path = tmp_path / "gaming.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: schedule/0/episodes: a cem train phase runs population x generations"
        " = 64 episodes, not 1",
        f"{path}: schedule/2/episodes: a cem train phase runs population x generations"
        " = 64 episodes, not 65",
        "2 problem(s) found"]
    assert main(["run", str(path), "-o", str(tmp_path / "logs")]) == 2
    assert not (tmp_path / "logs").exists()
    doc["schedule"][0]["episodes"] = doc["schedule"][2]["episodes"] = 64
    doc["schedule"][1]["episodes"] = 3  # a test phase runs what it declares
    assert validate_document(doc, packaged("gaming.yaml").parent) == []
    doc["agents"][0]["kind"] = "random"  # the rule binds a cem learner alone
    doc["schedule"][0]["episodes"] = 1
    assert validate_document(doc, packaged("gaming.yaml").parent) == []


def test_a_bidder_sgen_whose_q_range_excludes_zero_is_refused(tmp_path, capsys):
    # the market's clearing baseline sets every asset's q to 0, outside this range
    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    doc["grid"]["sgens"][2].update(q_min_mvar=0.1, q_max_mvar=0.5, q_mvar=0.2)
    path = tmp_path / "gaming.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: market/bidders/2/asset: sgen 'comp_a': q range must contain zero",
        "1 problem(s) found"]
    assert main(["run", str(path), "-o", str(tmp_path / "logs")]) == 2
    assert not (tmp_path / "logs").exists()


@pytest.mark.parametrize("name", ["feeder4.yaml", "gaming.yaml"])
def test_every_endpoint_an_agent_can_name_is_refused_or_runnable(tmp_path, monkeypatch, name):
    base = yaml.safe_load(packaged(name).read_text(encoding="utf-8"))
    base["schedule"] = [{"name": "p", "mode": "test", "episodes": 1, "episode_length": 1}]
    base_dir = packaged(name).parent
    config = parsed(base, base_dir)
    descriptors = []
    register = Kernel.register_simulator
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "register_simulator", lambda self, desc, stepper: (
            descriptors.append(desc), register(self, desc, stepper)))
        kernel = assemble(config, 0, lambda *a: None)
    outputs = [(d.sim_id, m.model_id, a) for d in descriptors for m in d.models for a in m.outputs]
    free_inputs = [(d.sim_id, m.model_id, a) for d in descriptors for m in d.models
                   for a in m.inputs if kernel.is_free_input((d.sim_id, m.model_id, a))]
    assert len(outputs) > 40 and len(free_inputs) > 5

    def with_agent(sensors, actuators):
        doc = copy.deepcopy(base)
        agent = doc["agents"][0]
        agent["sensors"] = [{"id": ".".join(e), "lo": 0, "hi": 1} for e in sensors]
        if actuators is not None:
            agent["kind"] = "random"
            agent["actuators"] = [{"id": ".".join(e), "lo": 0, "hi": 1, "default": 0}
                                  for e in actuators]
        return doc

    # each endpoint on its own: refused only for naming a message or an object
    accepted = {}
    for kind, endpoints in (("sensors", outputs), ("actuators", free_inputs)):
        for endpoint in endpoints:
            doc = with_agent([endpoint], None) if kind == "sensors" else with_agent([], [endpoint])
            refused = validate_document(doc, base_dir)
            assert bool(refused) == (endpoint[2] in NON_NUMERIC_ATTRS), (endpoint, refused)
            if not refused:
                accepted.setdefault(kind, []).append(endpoint)
    # every accepted one runs: all sensors together, and all actuators driven at random
    for n, doc in enumerate((with_agent(accepted["sensors"], None),
                             with_agent(accepted["sensors"], accepted["actuators"]))):
        path = tmp_path / f"endpoints{n}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", str(path), "-o", str(tmp_path / f"logs{n}")]) == 0


def test_agent_weight_reads_zero_while_the_agent_is_unpaid(tmp_path):
    # the dos rule silences pv3 from the start, so no step pays agent_pv3
    doc = yaml.safe_load(packaged("feeder4.yaml").read_text(encoding="utf-8"))
    doc["network"]["rules"][0]["enabled"] = True
    doc["agents"][0]["actuators"][0]["default"] = 1.0
    doc["agents"][0]["objective"] = {"kind": "custom", "weights": {"payments_eur.agent_pv3": 1.0}}
    path = tmp_path / "dos.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(path), "-o", str(out)]) == 0
    records = [json.loads(line) for line in (out / f"{doc['name']}.jsonl").read_text().splitlines()]
    rewards = [r["payload"]["reward"] for r in records if r["kind"] == "agent.action"]
    assert len(rewards) == 96 and set(rewards) == {0.0}
    assert records[-1]["kind"] == "run.end"


# -- validation fuzz ------------------------------------------------------------

FUZZ_ENDPOINTS = (
    "grid.bus_4.vm_pu", "grid.bus_9.vm_pu", "market.op.last_price", "net.sw.utilization",
    "bidders.s1.price", "bidders.s2.q_scale", "grid.sgen_s1.q_mvar", "pv.s1.inbox",
    "net.adversary.rule_r", "grid.load_l2.p_mw", "grid.bus_4", "weather.station.ghi_w_m2",
)
FUZZ_WEIGHTS = (
    "violation_sum_pu", "diverged", "payments_eur.agent_a", "offered_mvar.agent_b",
    "accepted_mvar.agent_zz", "payments_eur", "bogus", "frames_dropped.agent_a",
)


def numeric_leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [p for key, child in items for p in numeric_leaves(child, (*path, key))]


FUZZ_SERIES = {  # flaw: the times, and the value at the second time (None: a sound one)
    "valid": ((0, 900, 1800), None),
    "sub-second": ((0, 0.5, 1), None),
    "non-integer": ((0, 1.5, 3), None),
    "non-uniform": ((0, 900, 2000), None),
    "non-numeric": ((0, 900, 1800), "abc"),
    "negative": ((0, 900, 1800), "-5"),
}


def fuzz_mutation(rng, doc, data_dir):
    """Apply one seeded mutation to a MINI document in place; a data series
    it writes goes into data_dir."""
    agent = doc["agents"][0]
    kind = rng.choice(("swap", "non-finite", "weight", "endpoint", "band", "default", "q-range",
                       "series"))
    if kind == "swap":
        spec, lo, hi = rng.choice(
            [(s, "lo", "hi") for s in agent["sensors"] + agent["actuators"]]
            + [(s, "q_min_mvar", "q_max_mvar") for s in doc["grid"]["sgens"]]
            + [(doc["market"]["band"], "v_min_pu", "v_max_pu")])
        spec[lo], spec[hi] = spec[hi], spec[lo]
    elif kind == "non-finite":
        *parents, leaf = rng.choice(numeric_leaves(doc))
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = rng.choice((float("nan"), float("inf"), float("-inf")))
    elif kind == "weight":
        agent["objective"] = {"kind": "custom",
                              "weights": {rng.choice(FUZZ_WEIGHTS): rng.choice((1.0, -2.5))}}
    elif kind == "endpoint":
        rng.choice(agent["sensors"] + agent["actuators"])["id"] = rng.choice(FUZZ_ENDPOINTS)
    elif kind == "q-range":
        # a q range off zero, on an sgen that a bidder names, with or without its PV unit
        sgen = rng.choice(doc["grid"]["sgens"])
        lo, hi = rng.choice(((0.1, 0.5), (-0.5, -0.1)))
        sgen.update(q_min_mvar=lo, q_max_mvar=hi, q_mvar=(lo + hi) / 2)
        if rng.random() < 0.5:
            doc["pv"]["units"] = [u for u in doc["pv"]["units"] if u["sgen"] != sgen["name"]]
    elif kind == "series":
        # a weather series or a load profile, with or without a flaw, for MINI's first load
        times, flawed = FUZZ_SERIES[rng.choice(sorted(FUZZ_SERIES))]
        weather = rng.random() < 0.5
        header, sound = ("t_s,ghi_w_m2,t_air_c", "400,15") if weather else ("t_s,factor", "0.5")
        rows = [f"{t},{sound}" for t in times]
        if flawed is not None:
            rows[1] = f"{times[1]},{flawed}" + (",15" if weather else "")
        path = data_dir / f"series{rng.getrandbits(32):08x}.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        if weather:
            doc["data"]["weather"] = {"path": str(path)}
        else:
            doc["data"]["load_profiles"] = {"day": {"path": str(path)}}
            doc["grid"]["loads"][0]["profile"] = "day"
    elif kind == "band":
        v_min, v_max = rng.choice(((0.95, 0.95), (1.1, 0.9), (0.5, 1.5), (0.99, 1.0)))
        doc["market"]["band"] = {"v_min_pu": v_min, "v_max_pu": v_max}
    else:
        agent["actuators"][0]["default"] = rng.choice((-5.0, 1.0, 8.0, 100.0))


def test_validation_fuzz_accepts_only_runnable_documents(tmp_path, mini_doc):
    # validate ends with exit 0 or 2, never a traceback, and whatever it
    # accepts runs to the end (exit 0): an abort (exit 3) is a failure too
    rng = random.Random(20261018)
    mini_doc["agents"][0]["actuators"] = [
        {"id": "bidders.s1.price", "lo": 1.0, "hi": 50.0, "default": 8.0}]
    mini_doc["schedule"][0]["episode_length"] = 2
    outcomes = collections.Counter()
    for n in range(128):
        doc = copy.deepcopy(mini_doc)
        doc["agents"][0]["kind"] = rng.choice(("none", "random"))
        for _ in range(rng.randint(1, 2)):
            fuzz_mutation(rng, doc, tmp_path)
        path = tmp_path / f"fuzz{n:02d}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = main(["validate", str(path)])
        assert code in (0, 2), doc
        if code == 0:
            code = main(["run", str(path), "-o", str(tmp_path / "logs")])
            assert code == 0, doc
        outcomes[code] += 1
    assert outcomes[2] >= 10 and outcomes[0] >= 10


def random_load_run(tmp_path, hi):
    """Run gaming with a random agent setting bus 4's load in [0, hi] MW for
    4 test episodes of 6 steps; returns the log and its payloads by kind."""
    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    doc["agents"][0]["kind"] = "random"
    doc["agents"][0]["actuators"] = [
        {"id": "grid.load_l4.p_mw", "lo": 0.0, "hi": hi, "default": 4.6}]
    doc["schedule"] = [{"name": "testing", "mode": "test", "episodes": 4, "episode_length": 6}]
    path = tmp_path / "heavy.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(path), "-o", str(out)]) == 0
    log = out / "gaming.jsonl"
    payloads = collections.defaultdict(list)
    for r in map(json.loads, log.read_text().splitlines()):
        payloads[r["kind"]].append(r["payload"])
    return log, payloads


def test_a_diverged_grid_step_logs_no_voltages_and_adds_no_excursion(tmp_path, capsys):
    # A random load at bus 4 up to 1e6 MW makes some power flows diverge;
    # their last Newton iterate is no voltage, so the log carries none and
    # the band aggregates see only converged steps.
    from oracles import recount_log

    log, payloads = random_load_run(tmp_path, 1e6)
    steps = payloads["grid.step"]
    diverged = [p for p in steps if not p["converged"]]
    assert diverged and all(p["vm"] == {} for p in diverged)
    assert all(p[k] is None for p in diverged
               for k in ("slack_p_mw", "slack_q_mvar", "max_line_loading"))
    assert all(len(p["vm"]) == 4 for p in steps if p["converged"])
    aborted = [p for p in payloads["market.clearing"] if p["aborted"]]
    assert aborted and all(p["final_vm"] == {} for p in aborted)
    summary, recount = summarize(log), recount_log(log)
    assert summary.diverged_count == len(diverged)
    assert summary.violation_count == recount["violation_count"]
    assert (summary.clearings, summary.clearings_resolved) == (
        recount["clearings"], recount["clearings_resolved"])
    assert summary.total_cost_eur == pytest.approx(recount["total_cost"])
    assert summary.payments_eur == pytest.approx(recount["payments"])
    assert summary.returns == recount["episodes"]
    assert summary.max_excursion_pu < 1


@pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is quiet
def test_loads_near_1e300_end_the_run_and_report_finite_numbers(tmp_path, capsys):
    # Such a load overflows the solver's iterate to inf; none of it may reach
    # the log, so the run ends normally and so does its report.
    log, payloads = random_load_run(tmp_path, 1e300)
    assert payloads["run.end"]
    assert any(not p["converged"] for p in payloads["grid.step"])
    assert any(p["aborted"] for p in payloads["market.clearing"])
    capsys.readouterr()
    assert main(["report", str(log), "--format", "csv"]) == 0
    rows = [line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]]
    numbers = [float(value) for name, value in rows if name not in ("run_id", "experiment")]
    assert len(numbers) > 10 and all(math.isfinite(x) for x in numbers)


def random_prices(hi, strategy="static"):
    """A random agent sets both attacker prices in [1, hi] for 4 episodes of 6
    steps, with every bidder's strategy set to strategy."""
    def edit(doc):
        doc["agents"][0]["kind"] = "random"
        for bidder in doc["market"]["bidders"]:
            bidder["strategy"] = strategy
        for actuator in doc["agents"][0]["actuators"]:
            actuator["lo"], actuator["hi"] = 1.0, hi
        doc["schedule"] = [{"name": "testing", "mode": "test", "episodes": 4, "episode_length": 6}]
    return edit


def tampered_offers(price, q_mvar=2.0):
    """Two tamper rules at sw rewrite both attacker offers for interval 3 to
    q_mvar at price, over 2 episodes of 6 steps."""
    def edit(doc):
        doc["agents"][0]["kind"] = "none"
        doc["network"]["rules"] = [
            {"rule_id": f"forge_{asset}", "at_node": "sw", "enabled": True,
             "match": {"src": host, "payload_contains": f"{asset}-00003"},
             "action": {"kind": "tamper", "replacement": json.dumps({
                 "offer_id": f"{asset}-00003", "agent_id": "attacker", "bus": 4,
                 "q_mvar": q_mvar, "price_eur_per_mvar": price, "interval": 3})}}
            for asset, host in (("att_a", "ha"), ("att_b", "hb"))]
        doc["schedule"] = [{"name": "testing", "mode": "test", "episodes": 2, "episode_length": 6}]
    return edit


@pytest.mark.parametrize("edit", [
    random_prices(1e307), random_prices(1.7e308), random_prices(1.7e308, "jitter"),
    tampered_offers(1e308), tampered_offers(1e307),
], ids=["prices-1e307", "prices-1.7e308", "jitter-1.7e308", "tamper-1e308", "tamper-1e307"])
def test_an_offer_whose_payment_exceeds_the_limit_is_refused(tmp_path, capsys, edit):
    # An actuator and a tamper rule reach the same price field. Without the
    # limit, a payment near the float maximum aborts the run or overflows
    # the summed costs; with it the market refuses every such offer, so the
    # run ends, its report prints finite numbers, and both aggregation
    # paths agree.
    from oracles import recount_log

    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "pricey.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "logs"
    assert main(["run", str(path), "-o", str(out)]) == 0
    log = out / "gaming.jsonl"
    clearings = [r["payload"] for r in map(json.loads, log.read_text().splitlines())
                 if r["kind"] == "market.clearing"]
    refused = [r for p in clearings for r in p["rejected"] if r["reason"] == "payment over limit"]
    assert len(refused) >= 2
    assert all(o["price_eur_per_mvar"] * abs(o["q_mvar"]) <= MAX_PAYMENT_EUR
               for p in clearings for o in p["offers"])
    summary, recount = summarize(log), recount_log(log)
    assert (summary.frames_sent, summary.frames_delivered, summary.frames_dropped) == (
        recount["frames_sent"], recount["frames_delivered"], recount["frames_dropped"])
    assert (summary.clearings, summary.clearings_resolved, summary.violation_count) == (
        recount["clearings"], recount["clearings_resolved"], recount["violation_count"])
    assert summary.total_cost_eur == pytest.approx(recount["total_cost"])
    assert summary.payments_eur == pytest.approx(recount["payments"])
    assert summary.returns == recount["episodes"]
    capsys.readouterr()
    assert main(["report", str(log), "--format", "csv"]) == 0
    rows = [line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]]
    numbers = [float(value) for name, value in rows if name not in ("run_id", "experiment")]
    assert len(numbers) > 10 and all(math.isfinite(x) for x in numbers)
    assert summary.total_cost_eur < MAX_PAYMENT_EUR


def test_the_mean_accepted_price_a_sensor_reads_stays_finite(tmp_path):
    # 1e-300 Mvar at 1e308 EUR/Mvar asks 1e8 EUR, under the payment limit,
    # so both tampered offers are accepted; the mean of their prices, which
    # gaming's market.op.last_price sensor reads, must not overflow to inf.
    doc = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    tampered_offers(1e308, q_mvar=1e-300)(doc)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(path), "-o", str(out)]) == 0
    records = [json.loads(line) for line in (out / "gaming.jsonl").read_text().splitlines()]
    accepted = [[a["price_eur_per_mvar"] for a in r["payload"]["accepted"]]
                for r in records if r["kind"] == "market.clearing"]
    assert any(prices.count(1e308) == 2 for prices in accepted)
    readings = [r["payload"]["value"] for r in records
                if r["kind"] == "agent.clamp" and r["payload"]["sensor"] == "market.op.last_price"]
    assert any(1e307 < value < 1e308 for value in readings)


def assert_the_report_is_finite(log, capsys):
    """`analyse report --format csv` reads the log and prints only finite numbers."""
    capsys.readouterr()
    assert main(["report", str(log), "--format", "csv"]) == 0
    rows = [line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]]
    numbers = [float(value) for name, value in rows if name not in ("run_id", "experiment")]
    assert len(numbers) > 10 and all(math.isfinite(x) for x in numbers)


def never_due(edit):
    """feeder4 for 12 steps, edited so that its frames never come due."""
    doc = feeder4_with(edit)
    doc["name"] = edit.__name__
    doc["schedule"] = [{"name": "p", "mode": "test", "episodes": 1, "episode_length": 12}]
    return doc


def delay_of_1e300_ms(doc, agent):  # held on by its actuator's default
    doc["network"]["rules"][0]["action"] = {"kind": "delay", "extra_ms": 1e300}
    agent["actuators"][0]["default"] = 1.0


def links_of_1e_300_kbps(doc, agent):
    for link in doc["network"]["links"]:
        link["bandwidth_kbps"] = 1e-300


def links_of_subnormal_kbps(doc, agent):  # a frame's transmission time is inf
    for link in doc["network"]["links"]:
        link["bandwidth_kbps"] = 5e-324


def test_a_frame_that_never_comes_due_leaves_the_run_to_end(tmp_path, capsys):
    # Such a frame's event time is 1e297 s or more. The kernel finds the
    # grid time at or after it in exact arithmetic; stepping through the
    # float quotient's rounding error instead would hang the run, so the
    # documents run in a process of their own, under a timeout.
    runs = tmp_path / "runs"
    runs.mkdir()
    edits = (delay_of_1e300_ms, links_of_1e_300_kbps, links_of_subnormal_kbps)
    for edit in edits:
        doc = never_due(edit)
        assert validate_document(doc, packaged("feeder4.yaml").parent) == []
        (runs / f"{edit.__name__}.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    src = Path(__file__).parent.parent / "src"
    program = ("import sys; sys.path.insert(0, sys.argv[1]); from analyse.cli import main; "
               "sys.exit(main(sys.argv[2:]))")
    try:
        done = subprocess.run([sys.executable, "-c", program, str(src), "run", str(runs),
                               "-o", str(tmp_path / "logs")],
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("a run whose frames never come due did not end within 60 s")
    assert done.returncode == 0, done.stdout + done.stderr
    for edit in edits:
        log = tmp_path / "logs" / f"{edit.__name__}.jsonl"
        kinds = [json.loads(line)["kind"] for line in log.read_text().splitlines()]
        assert kinds[-1] == "run.end" and "net.send" in kinds
        # over links this slow no frame arrives; the delay holds back only h3's
        assert ("net.deliver" in kinds) == (edit is delay_of_1e300_ms)
        assert_the_report_is_finite(log, capsys)


def widest_actuators(doc):
    doc["agents"][0]["kind"] = "random"
    for actuator in doc["agents"][0]["actuators"]:
        actuator.update(lo=-1e308, hi=1e308, default=0.0)
    doc["schedule"] = [{"name": "p", "mode": "test", "episodes": 2, "episode_length": 6}]


def widest_sensors(bound):
    def edit(doc):
        for sensor in doc["agents"][0]["sensors"]:
            sensor.update(lo=-bound, hi=bound)
        doc["agents"][0]["learner"].update(population=4, generations=2)
        doc["schedule"] = [{"name": "training", "mode": "train", "episodes": 8,
                            "episode_length": 6},
                           {"name": "testing", "mode": "test", "episodes": 2,
                            "episode_length": 6}]
    return edit


@pytest.mark.parametrize("name, edit", [
    ("feeder4.yaml", widest_actuators), ("gaming.yaml", widest_actuators),
    ("gaming.yaml", widest_sensors(1e308)), ("gaming.yaml", widest_sensors(1.7e308)),
], ids=["random-actuator-1e308-feeder4", "random-actuators-1e308-gaming",
        "cem-sensors-1e308", "cem-sensors-1.7e308"])
def test_a_range_whose_span_overflows_runs_to_its_end(tmp_path, capsys, name, edit):
    # hi - lo of these ranges is inf. The random agent's draw, the CEM
    # muscle's half-span and each sensor's normalisation take spans in
    # halves, so every value the agent reads and sets stays finite.
    doc = yaml.safe_load(packaged(name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "logs"
    assert main(["run", str(path), "-o", str(out)]) == 0
    log = next(out.glob("*.jsonl"))
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records[-1]["kind"] == "run.end"
    setpoints = [v for r in records if r["kind"] == "agent.action"
                 for v in r["payload"]["setpoints"].values()]
    assert setpoints and all(math.isfinite(v) for v in setpoints)
    assert_summary_matches_recount(log)
    assert_the_report_is_finite(log, capsys)
