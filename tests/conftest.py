import copy
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles / grids helpers

REFERENCE_SCENARIO = "pkg:feeder4.yaml"
GAMING_SCENARIO = "pkg:gaming.yaml"
DOS_EXPERIMENT = "pkg:dos_experiment.yaml"


def packaged(name: str) -> Path:
    import importlib.resources as resources

    return Path(str(resources.files("analyse").joinpath("data", name)))


def fresh_modules(code, *args):
    """The sys.modules names a new interpreter holds after running code."""
    program = f"import sys; sys.path.insert(0, sys.argv[1])\n{code}\nprint(' '.join(sys.modules))"
    src = Path(__file__).parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", program, str(src), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def parsed(doc: dict, base_dir: Path = Path(".")):
    """The ScenarioConfig of a scenario document whose defaults are filled in,
    and whose data series are read, as validation does; nothing is validated."""
    from analyse.scenario import load_data_series, parse_scenario
    from analyse.validation import load_schema, with_defaults

    config = parse_scenario(with_defaults(doc, load_schema("scenario")), base_dir)
    return config._replace(series=load_data_series(config))


def assert_summary_matches_recount(log):
    """telemetry.summarize agrees with the independent line-by-line recount
    on every aggregate both of them take from the log."""
    from analyse.telemetry import summarize
    from oracles import recount_log

    summary, recount = summarize(log), recount_log(log)
    assert summary.parse_errors == [] and summary.unknown_kinds == {}
    assert (summary.frames_sent, summary.frames_delivered, summary.frames_dropped) == (
        recount["frames_sent"], recount["frames_delivered"], recount["frames_dropped"])
    assert (summary.clearings, summary.clearings_resolved, summary.violation_count) == (
        recount["clearings"], recount["clearings_resolved"], recount["violation_count"])
    assert summary.total_cost_eur == pytest.approx(recount["total_cost"])
    assert summary.payments_eur == pytest.approx(recount["payments"])
    assert summary.accepted_mvar == pytest.approx(recount["accepted_mvar"])
    assert summary.returns == recount["episodes"]
    return recount


# A deliberately small constant-load scenario (two assets, three intervals)
# for fast environment and wiring tests. Loads at scale 4.2 keep bus 4 below
# the band until reactive power is dispatched.
MINI = {
    "schema_version": 1,
    "kind": "scenario",
    "name": "mini",
    "seed": 11,
    "grid": {
        "base_mva": 10.0,
        "step_s": 900,
        "buses": [
            {"id": 1, "kind": "slack", "vm_setpoint_pu": 1.0},
            {"id": 2, "kind": "pq"},
            {"id": 3, "kind": "pq"},
            {"id": 4, "kind": "pq"},
        ],
        "lines": [
            {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.03, "rating_mva": 5.0},
            {"from": 2, "to": 3, "r_pu": 0.01, "x_pu": 0.03, "rating_mva": 5.0},
            {"from": 3, "to": 4, "r_pu": 0.01, "x_pu": 0.03, "rating_mva": 5.0},
        ],
        "loads": [
            {"name": "l2", "bus": 2, "p_mw": 5.04, "q_mvar": 1.68},
            {"name": "l3", "bus": 3, "p_mw": 5.04, "q_mvar": 1.68},
            {"name": "l4", "bus": 4, "p_mw": 5.04, "q_mvar": 1.68},
        ],
        "sgens": [
            {"name": "s1", "bus": 3, "q_min_mvar": -1.2, "q_max_mvar": 1.2},
            {"name": "s2", "bus": 4, "q_min_mvar": -1.2, "q_max_mvar": 1.2},
        ],
    },
    "data": {"weather": {"path": "pkg:weather_day.csv"}},
    "pv": {
        "units": [
            {"name": "s1", "sgen": "s1", "p_peak_mw": 0.5, "host": "h1"},
            {"name": "s2", "sgen": "s2", "p_peak_mw": 0.5, "host": "h2"},
        ]
    },
    "market": {
        "band": {"v_min_pu": 0.95, "v_max_pu": 1.05},
        "interval_s": 900,
        "gate_closure_s": 0.0,
        "operator_host": "op",
        "bidders": [
            {"agent": "agent_a", "asset": "s1", "host": "h1",
             "strategy": "static", "price_eur_per_mvar": 8.0},
            {"agent": "agent_b", "asset": "s2", "host": "h2",
             "strategy": "static", "price_eur_per_mvar": 5.0},
        ],
    },
    "network": {
        "step_s": 60,
        "utilization_window_s": 900.0,
        "nodes": [
            {"id": "op", "kind": "host"},
            {"id": "sw", "kind": "switch"},
            {"id": "h1", "kind": "host"},
            {"id": "h2", "kind": "host"},
        ],
        "links": [
            {"a": "op", "b": "sw", "latency_ms": 2.0, "bandwidth_kbps": 10000},
            {"a": "h1", "b": "sw", "latency_ms": 2.0, "bandwidth_kbps": 10000},
            {"a": "h2", "b": "sw", "latency_ms": 2.0, "bandwidth_kbps": 10000},
        ],
        "rules": [],
    },
    "agents": [
        {
            "agent_id": "attacker",
            "kind": "none",
            "sensors": [
                {"id": "grid.bus_4.vm_pu", "lo": 0.8, "hi": 1.1},
                {"id": "market.op.last_price", "lo": 0.0, "hi": 100.0},
            ],
            "actuators": [],
            "objective": {"kind": "damage"},
        }
    ],
    "schedule": [
        {"name": "t", "mode": "test", "episodes": 1, "episode_length": 3}
    ],
}


@pytest.fixture()
def mini_doc():
    return copy.deepcopy(MINI)


@pytest.fixture(scope="session")
def reference_runs(tmp_path_factory):
    """The bundled reference scenario run three times: seed 1 twice, seed 2."""
    from analyse.runner import execute_run
    from analyse.scenario import load_document

    out = tmp_path_factory.mktemp("refruns")
    doc = load_document(packaged("feeder4.yaml"))
    paths = {}
    for label, seed, sub in (("a", 1, "a"), ("b", 1, "b"), ("c", 2, "c")):
        result = execute_run(copy.deepcopy(doc), packaged(".").parent, out / sub,
                             seed_override=seed)
        paths[label] = result.log_path
    return paths


@pytest.fixture(scope="session")
def gaming_log(tmp_path_factory):
    """The log of the bundled gaming scenario: CEM training, then testing."""
    from analyse.runner import execute_run
    from analyse.scenario import load_document

    path = packaged("gaming.yaml")
    return execute_run(load_document(path), path.parent,
                       tmp_path_factory.mktemp("gaming")).log_path


@pytest.fixture(scope="session")
def dos_logs(tmp_path_factory):
    """The logs of the bundled dos experiment, designed and run with the CLI."""
    from analyse.cli import main as cli_main

    runs_dir = tmp_path_factory.mktemp("dosruns")
    logs_dir = tmp_path_factory.mktemp("doslogs")
    assert cli_main(["design", str(packaged("dos_experiment.yaml")),
                     "-o", str(runs_dir)]) == 0
    for run_file in sorted(runs_dir.glob("dos_compare-*.yaml")):
        assert cli_main(["run", str(run_file), "-o", str(logs_dir)]) == 0
    return logs_dir
