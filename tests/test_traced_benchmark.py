import json
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).parent.parent


def test_benchmark_spans_install_on_the_program():
    # cosimbench/spans.py wraps program functions and methods by name; a
    # rename or deletion of one of them breaks the traced benchmark here.
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import spans; "
        "spans.instrument(spans.Recorder(0.0))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "cosimbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# Runs the packaged feeder4 scenario under the benchmark's instrumentation and
# prints how many spans of each name it recorded.
TRACED_RUN = """
import collections, json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from analyse import runner, scenario
rec = spans.Recorder(0.0)
spans.instrument(rec)
doc_path = Path(sys.argv[3])
runner.execute_run(scenario.load_document(doc_path), doc_path.parent, Path(sys.argv[4]))
print(json.dumps(collections.Counter(rec.names[k] for k in rec.name)))
"""

TRACED_LAYERS = [
    *(f"scenario.adapter.{sim}"
      for sim in ("weather", "profiles", "pv", "grid", "bidders", "net", "market")),
    "scenario.parse", "feeders.load", "validation.validate", "runner.execute_run",
    "environment.reset", "environment.step", "environment.run_phase", "agents.act",
    "kernel.run_until", "grid.solve", "grid.sensitivity", "market.clear",
    "network.send", "network.advance", "network.read", "network.delivered",
    "telemetry.emit", "telemetry.close",
]


def test_traced_run_records_a_span_in_every_layer(tmp_path):
    # A seam the spans patch (a module global or a method looked up at call
    # time) that the program stops calling through drops its layer from the
    # traced benchmark without an error; this run shows it.
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "cosimbench"), str(ROOT / "src"),
         str(ROOT / "src" / "analyse" / "data" / "feeder4.yaml"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    assert [name for name in TRACED_LAYERS if not counts.get(name)] == []
    assert counts.get("scenario.assemble", 0) >= 2  # validation's dry build, then the episode


def test_traced_cem_run_records_its_policy_and_its_updates(tmp_path):
    # feeder4's agent is scripted; the benchmark's gaming workload trains a
    # CEM attacker, whose policy runs through environment.muscle_act and
    # whose brain through environment.cem_update, both patched by name.
    doc = yaml.safe_load((ROOT / "src" / "analyse" / "data" / "gaming.yaml").read_text())
    doc["agents"][0]["learner"].update(population=4, generations=1)
    doc["schedule"] = [
        {"name": "training", "mode": "train", "episodes": 4, "episode_length": 2},
        {"name": "testing", "mode": "test", "episodes": 1, "episode_length": 2},
    ]
    path = tmp_path / "gaming.yaml"
    path.write_text(yaml.safe_dump(doc))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "cosimbench"), str(ROOT / "src"),
         str(path), str(tmp_path / "logs")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    assert counts.get("agents.act") == 5 * 2  # one per agent step, train and test
    assert counts.get("agents.cem_update") == 1


def test_untraced_step_clock_times_a_real_run(tmp_path, monkeypatch):
    # cosimbench/worker.py's StepClock wraps Environment.reset(env, seed) and
    # step(env, setpoints) by position; a change to either signature fails
    # here instead of in the benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "cosimbench"))
    from worker import StepClock

    from analyse import runner, scenario
    from analyse.environment import Environment

    for name in ("reset", "step"):  # restored when the test ends
        monkeypatch.setattr(Environment, name, getattr(Environment, name))
    clock = StepClock()
    clock.install(Environment)
    t0 = clock.clock()
    doc_path = ROOT / "src" / "analyse" / "data" / "feeder4.yaml"
    runner.execute_run(scenario.load_document(doc_path), doc_path.parent, tmp_path)
    assert [run for run, _ in clock.resets] == [0]
    assert len(clock.steps) == 96
    assert 0.0 < clock.setup_s(t0) <= clock.steps[0][1] - t0
