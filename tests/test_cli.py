import collections
import copy
import json
import random

import pytest
import yaml

from analyse.cli import main, render_summary
from analyse.telemetry import RunSummary

from conftest import MINI, packaged


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
    from analyse import cli, scenario

    calls = collections.Counter()
    _counting(monkeypatch, scenario, "load_document", calls)
    _counting(monkeypatch, cli, "load_document", calls)
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
    from analyse import cli, scenario, validation

    calls = collections.Counter()
    _counting(monkeypatch, scenario, "load_document", calls)
    _counting(monkeypatch, cli, "load_document", calls)
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


@pytest.mark.parametrize("text", ["- 1\n- 2\n", "kind: [unclosed"])
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

    from analyse import runner

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
    monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
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


def test_bad_data_series_is_validation_error(tmp_path, mini_doc):
    csv = tmp_path / "w.csv"
    csv.write_text("t_s,ghi_w_m2,t_air_c\n0,0,10\n900,1,11\n2000,2,12\n", encoding="utf-8")
    mini_doc["data"]["weather"]["path"] = str(csv)
    doc_path = tmp_path / "mini.yaml"
    doc_path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    out = tmp_path / "logs"
    assert main(["run", str(doc_path), "-o", str(out)]) == 2
    assert not (out / "mini.jsonl").exists()


@pytest.mark.parametrize("case", ["sensor range", "actuator default", "band", "weight"])
def test_values_constructors_reject_are_violations(tmp_path, mini_doc, capsys, case):
    agent = mini_doc["agents"][0]
    if case == "sensor range":
        agent["sensors"][0].update(lo=1.1, hi=0.8)
    elif case == "actuator default":
        agent["actuators"] = [{"id": "bidders.s1.price", "lo": 1, "hi": 50, "default": 80}]
    elif case == "band":
        mini_doc["market"]["band"] = {"v_min_pu": 1.05, "v_max_pu": 0.95}
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


def fuzz_mutation(rng, doc):
    """Apply one seeded mutation to a MINI document in place."""
    agent = doc["agents"][0]
    kind = rng.choice(("swap", "non-finite", "weight", "endpoint", "band", "default"))
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
    elif kind == "band":
        v_min, v_max = rng.choice(((0.95, 0.95), (1.1, 0.9), (0.5, 1.5), (0.99, 1.0)))
        doc["market"]["band"] = {"v_min_pu": v_min, "v_max_pu": v_max}
    else:
        agent["actuators"][0]["default"] = rng.choice((-5.0, 1.0, 8.0, 100.0))


def test_validation_fuzz_accepts_only_runnable_documents(tmp_path, mini_doc):
    # validate ends with exit 0 or 2, never a traceback, and whatever it
    # accepts runs to the end or aborts cleanly (exit 0 or 3)
    rng = random.Random(20261018)
    mini_doc["agents"][0]["actuators"] = [
        {"id": "bidders.s1.price", "lo": 1.0, "hi": 50.0, "default": 8.0}]
    mini_doc["schedule"][0]["episode_length"] = 2
    outcomes = collections.Counter()
    for n in range(64):
        doc = copy.deepcopy(mini_doc)
        doc["agents"][0]["kind"] = rng.choice(("none", "random"))
        for _ in range(rng.randint(1, 2)):
            fuzz_mutation(rng, doc)
        path = tmp_path / f"fuzz{n:02d}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = main(["validate", str(path)])
        assert code in (0, 2), doc
        if code == 0:
            code = main(["run", str(path), "-o", str(tmp_path / "logs")])
            assert code in (0, 3), doc
        outcomes[code] += 1
    assert outcomes[2] >= 10 and outcomes[0] + outcomes[3] >= 10
