import json

import pytest

from analyse import environment
from analyse.agents import ActuatorSpec, Phase
from analyse.environment import AgentRunState, Environment, run_phase
from analyse.telemetry import RunSink

from conftest import MINI, parsed


def make_env(tmp_path, doc=None, actuators=(), objective=None, learner=None,
             name="env.jsonl"):
    """An environment over MINI's config, with the agent's actuators replaced
    and the fields named in `objective` and `learner` set."""
    config = parsed(doc or MINI)
    agent = config.agent._replace(
        actuators=tuple(actuators),
        objective=config.agent.objective._replace(**(objective or {})),
        learner=config.agent.learner._replace(**(learner or {})))
    config = config._replace(agent=agent)
    sink = RunSink(tmp_path / name, "envtest")
    env = Environment(config, sink)
    env.episode_length = 3
    return env, sink


def logged(sink, kind):
    """Close the sink and read back the records of one kind from its log."""
    sink.close()
    records = [json.loads(line) for line in sink.path.read_text().splitlines()]
    return [r for r in records if r["kind"] == kind]


def test_reset_seed_deterministic_first_readings(tmp_path):
    env, sink = make_env(tmp_path)
    first = env.reset(7)
    again = env.reset(7)
    assert first == again
    assert len(first) == 2
    assert 0.8 <= first[0] <= 1.1
    sink.close()


def test_step_returns_reward_and_done(tmp_path):
    env, sink = make_env(tmp_path)
    env.reset(3)
    total = 0.0
    for i in range(3):
        readings, reward, done = env.step([])
        total += reward
        assert done is (i == 2)
    assert total > 0.0  # undervoltage persists in the first intervals
    sink.close()


def test_default_actuators_reproduce_agent_free_baseline(tmp_path):
    actuator = ActuatorSpec("bidders.s1.price", 1.0, 50.0, default=8.0)

    def vm_trace(actuators, setpoints):
        env, sink = make_env(tmp_path, actuators=actuators,
                             name=f"b{len(actuators)}.jsonl")
        env.reset(13)
        for _ in range(3):
            env.step(setpoints)
        return [r["payload"]["vm"] for r in logged(sink, "grid.step")]

    baseline = vm_trace([], [])
    defaults_applied = vm_trace([actuator], [actuator.default])
    assert baseline == defaults_applied


def test_actuator_setpoints_clipped_at_boundary(tmp_path):
    actuator = ActuatorSpec("bidders.s1.price", 1.0, 50.0, default=8.0)
    env, sink = make_env(tmp_path, actuators=[actuator])
    env.reset(1)
    env.step([500.0])  # way above hi
    applied = logged(sink, "agent.action")[0]["payload"]["setpoints"]["bidders.s1.price"]
    assert applied == 50.0
    clamps = logged(sink, "agent.clamp")
    assert clamps and clamps[0]["payload"]["actuator"] == "bidders.s1.price"


def test_environment_determinism_across_instances(tmp_path):
    def episode_rewards(name):
        env, sink = make_env(tmp_path, name=name)
        env.reset(21)
        rewards = [env.step([])[1] for _ in range(3)]
        sink.close()
        return rewards

    assert episode_rewards("a.jsonl") == episode_rewards("b.jsonl")


def test_run_phase_scripted_episode_accounting(tmp_path):
    env, sink = make_env(tmp_path, learner={"kind": "random"})
    report = run_phase(env, Phase("p", "test", 3, 2), run_seed=5, state=AgentRunState())
    episodes = logged(sink, "agent.episode")
    assert len(episodes) == 3
    assert len(report.returns) == 3
    assert [e["payload"]["episode"] for e in episodes] == [0, 1, 2]


def test_run_phase_replay_and_none(tmp_path):
    actuator = ActuatorSpec("bidders.s1.price", 1.0, 50.0, default=8.0)
    replay = {"kind": "replay", "replay": ((9.0,), (10.0,))}
    env, sink = make_env(tmp_path, actuators=[actuator], learner=replay)
    report = run_phase(env, Phase("p", "test", 1, 3), 5, AgentRunState())
    assert len(report.returns) == 1
    sink.close()


def test_train_then_test_uses_best_theta(tmp_path, monkeypatch):
    actuator = ActuatorSpec("bidders.s2.price", 1.0, 50.0, default=5.0)
    env, sink = make_env(
        tmp_path,
        actuators=[actuator],
        objective={"kind": "profit", "agents": ("agent_b",)},
        learner={"kind": "cem", "population": 4, "generations": 2},
    )
    state = AgentRunState()
    train = run_phase(env, Phase("tr", "train", 8, 2), 5, state)
    assert len(train.returns) == 8  # population * generations
    assert state.best_theta is not None
    assert train.best_return == max(train.returns)
    used = []
    muscle_act = environment.muscle_act
    monkeypatch.setattr(environment, "muscle_act",
                        lambda theta, *args: used.append(theta) or muscle_act(theta, *args))
    test = run_phase(env, Phase("te", "test", 2, 2), 5, state)
    assert len(test.returns) == 2
    assert used and all(theta == state.best_theta for theta in used)
    sink.close()


def test_kernel_step_counts_logged_at_episode_end(tmp_path):
    env, sink = make_env(tmp_path)
    env.reset(1)
    for _ in range(3):
        env.step([])
    stats = logged(sink, "kernel.step")
    assert len(stats) == 1
    steps = stats[0]["payload"]["steps"]
    assert steps["grid"] == 4      # t = 0, 900, 1800, 2700
    assert steps["market"] == 4
    # the net steps only when frames move and at each agent boundary:
    # t = 0, 60, 120, 900, 960, 1020, 1800, 1860, 1920, 2700
    assert steps["net"] == 10


def test_full_run_end_to_end_deterministic(tmp_path):
    def run(name):
        env, sink = make_env(tmp_path, learner={"kind": "random"}, name=name)
        state = AgentRunState()
        report = run_phase(env, Phase("p", "test", 2, 3), 9, state)
        sink.close()
        return report.returns

    assert run("r1.jsonl") == run("r2.jsonl")


def test_damage_reward_sums_every_grid_step_of_the_window(tmp_path, mini_doc):
    mini_doc["grid"]["step_s"] = 300  # three grid steps per 900 s agent interval
    env, sink = make_env(tmp_path, doc=mini_doc)
    env.reset(3)
    _, reward, _ = env.step([])
    window = [r["payload"] for r in logged(sink, "grid.step") if 0 < r["payload"]["t"] <= 900]
    assert [p["t"] for p in window] == [300, 600, 900]
    excursions = [
        max(0.95 - vm, vm - 1.05, 0.0) for p in window for vm in p["vm"].values()
    ]
    assert sum(excursions) > 0.0
    assert reward == pytest.approx(sum(excursions), rel=1e-6)


def test_sink_holds_at_most_one_step_of_records(tmp_path):
    env, sink = make_env(tmp_path)
    for seed in (1, 2):
        env.reset(seed)
        for _ in range(3):
            emitted_before = sink._seq
            env.step([])
            assert 0 < len(sink.records) <= sink._seq - emitted_before
    sink.close()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is quiet
def test_grid_sensors_keep_the_last_converged_step_through_a_diverged_one(tmp_path, mini_doc):
    # A diverged solve outputs nothing but its solver model, so the bus, line
    # and slack sensors read the last converged step, and 0.0 before any.
    mini_doc["agents"][0]["sensors"] = [
        {"id": f"grid.{name}", "lo": -1e9, "hi": 1e9}
        for name in ("bus_4.vm_pu", "line_2.loading", "slack.p_mw", "slack.q_mvar")
    ]
    mini_doc["grid"]["loads"][2]["p_mw"] = 1e300  # the t=0 step diverges
    load = ActuatorSpec("grid.load_l4.p_mw", 0.0, 1e300, default=5.04)
    env, sink = make_env(tmp_path, doc=mini_doc, actuators=[load])
    assert env.reset(3) == [0.0] * 4
    converged, _, _ = env.step([5.04])
    assert 0.8 < converged[0] < 1.0 and all(converged)
    assert env.step([1e300])[0] == converged
    steps = [r["payload"] for r in logged(sink, "grid.step")]
    assert [p["converged"] for p in steps] == [False, True, False]
    assert steps[1]["slack_p_mw"] == pytest.approx(converged[2])
