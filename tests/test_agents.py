import math
import random

import pytest

from analyse.agents import (
    ActuatorSpec,
    CemDistribution,
    Objective,
    ScriptedAgent,
    SensorSpec,
    cem_update,
    muscle_act,
    objective_eval,
)
from analyse.scenario import load_document

from conftest import packaged

SENSORS = [SensorSpec("grid.bus_4.vm_pu", 0.8, 1.2)]
ACTUATORS = [ActuatorSpec("bidders.a.price", 0.0, 10.0, default=5.0)]
DAMAGE = Objective("damage", (), 0.0, {})


def test_zero_policy_returns_actuator_defaults():
    theta = (0.0, 0.0)
    assert muscle_act(theta, [1.0], SENSORS, ACTUATORS) == [5.0]


def test_muscle_clips_to_actuator_range():
    # bias so large that the raw output exceeds hi by far
    theta = (0.0, 100.0)
    assert muscle_act(theta, [1.0], SENSORS, ACTUATORS) == [10.0]


def test_muscle_deterministic():
    theta = (0.35, -0.2)
    a = muscle_act(theta, [0.97], SENSORS, ACTUATORS)
    b = muscle_act(theta, [0.97], SENSORS, ACTUATORS)
    assert a == b


def test_muscle_clamps_out_of_range_readings():
    theta = (1.0, 0.0)
    inside = muscle_act(theta, [1.2], SENSORS, ACTUATORS)
    outside = muscle_act(theta, [5.0], SENSORS, ACTUATORS)
    assert inside == outside  # reading clamped to the sensor hi first


def test_cem_equal_returns_tie_break_lowest_index():
    population = [((float(i),), 1.0) for i in range(10)]
    dist = cem_update(population)
    # elites are the first ceil(0.2*10)=2 candidates by index
    assert dist.mean == [0.5]


def test_cem_sigma_floor():
    population = [((1.0,), 1.0)] * 8
    dist = cem_update(population)
    assert dist.sigma == [0.01]


def test_cem_converges_on_quadratic():
    rng = random.Random(3)
    dist = CemDistribution.initial(1, sigma0=1.0)
    for _ in range(50):
        population = []
        for _ in range(16):
            theta = dist.sample(rng)
            population.append((theta, -((theta[0] - 0.3) ** 2)))
        dist = cem_update(population)
    assert abs(dist.mean[0] - 0.3) < 0.05


def test_cem_elite_mean_improves_on_monotone_landscape():
    # During the improving regime (before the sigma floor dominates) the
    # per-generation elite-mean return is non-decreasing in at least 19 of
    # 20 seeded trials.
    monotone = 0
    for seed in range(20):
        rng = random.Random(seed)
        dist = CemDistribution.initial(2, sigma0=1.0)
        trace = []
        for _ in range(6):
            population = []
            for _ in range(16):
                theta = dist.sample(rng)
                ret = -((theta[0] - 0.3) ** 2 + (theta[1] + 0.7) ** 2)
                population.append((theta, ret))
            order = sorted(range(16), key=lambda i: (-population[i][1], i))
            k = math.ceil(0.2 * 16)
            trace.append(sum(population[i][1] for i in order[:k]) / k)
            dist = cem_update(population)
        if all(b >= a for a, b in zip(trace, trace[1:])):
            monotone += 1
    assert monotone >= 19


def test_objective_damage():
    agg = {"violation_sum_pu": 0.0, "diverged": 0}
    assert objective_eval(agg, DAMAGE) == 0.0
    agg = {"violation_sum_pu": 0.01, "diverged": 0}
    assert objective_eval(agg, DAMAGE) == pytest.approx(0.01)
    agg = {"violation_sum_pu": 0.0, "diverged": 1}
    assert objective_eval(agg, DAMAGE) == pytest.approx(10.0)


def test_damage_nonnegative_and_zero_iff_clean():
    rng = random.Random(11)
    for _ in range(200):
        agg = {
            "violation_sum_pu": rng.choice([0.0, rng.uniform(0, 0.2)]),
            "diverged": rng.choice([0, 1]),
        }
        damage = objective_eval(agg, DAMAGE)
        assert damage >= 0.0
        clean = agg["violation_sum_pu"] == 0.0 and agg["diverged"] == 0
        assert (damage == 0.0) == clean


def test_objective_profit():
    agg = {"payments_eur": {"att": 5.0, "other": 9.0}, "offered_mvar": {"att": 2.0}}
    assert objective_eval(agg, Objective("profit", ("att",), 0.0, {})) == pytest.approx(5.0)
    with_cost = Objective("profit", ("att",), 0.5, {})
    assert objective_eval(agg, with_cost) == pytest.approx(4.0)


def test_objective_custom_weighted_and_unknown_name():
    agg = {"violation_sum_pu": 0.2, "frames_dropped": 3}
    obj = Objective("custom", (), 0.0, {"violation_sum_pu": 10.0, "frames_dropped": -1.0})
    assert objective_eval(agg, obj) == pytest.approx(-1.0)


def test_objective_custom_agent_entry_reads_zero_when_absent():
    agg = {"payments_eur": {"a1": 4.0}, "payments_eur.a1": 4.0, "diverged": 0}
    obj = Objective("custom", (), 0.0, {"payments_eur.a1": 2.0, "payments_eur.a2": 5.0})
    assert objective_eval(agg, obj) == 8.0


def test_scripted_agents():
    acts = [ActuatorSpec("x", 0.0, 1.0, 0.25), ActuatorSpec("y", -1.0, 1.0, 0.0)]
    none_agent = ScriptedAgent("none", acts, ())
    none_agent.reset(random.Random(0))
    assert none_agent.act([0.0]) == [0.25, 0.0]

    rand_agent = ScriptedAgent("random", acts, ())
    rand_agent.reset(random.Random(5))
    first = [rand_agent.act([0.0]) for _ in range(5)]
    rand_agent.reset(random.Random(5))
    second = [rand_agent.act([0.0]) for _ in range(5)]
    assert first == second
    assert all(0.0 <= a <= 1.0 and -1.0 <= b <= 1.0 for a, b in first)

    replay = ScriptedAgent("replay", acts, replay=[[0.1, 0.2], [0.9, -0.5]])
    replay.reset(random.Random(0))
    assert replay.act([0.0]) == [0.1, 0.2]
    assert replay.act([0.0]) == [0.9, -0.5]
    assert replay.act([0.0]) == [0.1, 0.2]  # cycles


def test_random_draw_is_uniform_on_every_bundled_actuator_range():
    # Drawn in halves, so that hi - lo cannot overflow; on every range a
    # bundled scenario uses, the draw keeps random.uniform's bits, so no
    # pinned log moves.
    ranges = {(float(a["lo"]), float(a["hi"]))
              for name in ("feeder4.yaml", "gaming.yaml")
              for a in load_document(packaged(name))["agents"][0]["actuators"]}
    assert ranges == {(0.0, 1.0), (1.0, 100.0)}
    acts = [ActuatorSpec(f"a{i}", lo, hi, lo) for i, (lo, hi) in enumerate(sorted(ranges))]
    for seed in range(20):
        agent = ScriptedAgent("random", acts, ())
        agent.reset(random.Random(seed))
        reference = random.Random(seed)
        for _ in range(50):
            assert agent.act([]) == [reference.uniform(a.lo, a.hi) for a in acts]


WIDEST = [(-1e308, 1e308), (-1.7e308, 1.7e308), (-1.7e308, -1e300), (0.0, 1.7e308)]


@pytest.mark.parametrize("lo, hi", WIDEST)
def test_a_range_whose_span_overflows_still_draws_acts_and_normalizes_finitely(lo, hi):
    act = ActuatorSpec("x", lo, hi, default=lo / 2 + hi / 2)
    agent = ScriptedAgent("random", [act], ())
    agent.reset(random.Random(3))
    draws = [agent.act([])[0] for _ in range(200)]
    assert all(lo <= x <= hi for x in draws)
    # an all-zero theta, the CEM distribution's initial mean, gives the default
    sensor = SensorSpec("s", lo, hi)
    assert muscle_act((0.0, 0.0), [hi], [sensor], [act]) == [act.default]
    assert muscle_act((0.0, 1.0), [lo], [sensor], [act]) == [hi]
    assert muscle_act((0.0, -1.0), [lo], [sensor], [act]) == [lo]
    assert sensor.normalize(lo) == -1.0 and sensor.normalize(hi) == 1.0
    assert sensor.normalize(math.inf) == 1.0 and sensor.normalize(-math.inf) == -1.0
    assert -1.0 <= sensor.normalize(lo / 2 + hi / 2) <= 1.0


SUBNORMAL = [(5e-324, 1e-323), (-1e-323, -5e-324), (-5e-324, 5e-324), (0.0, 5e-324)]


@pytest.mark.parametrize("lo, hi", SUBNORMAL)
def test_a_subnormal_sensor_range_normalizes_without_dividing_by_zero(lo, hi):
    # halves of these bounds round to 0, so a sensor takes its span in
    # halves only where hi - lo overflows
    sensor = SensorSpec("s", lo, hi)
    assert sensor.normalize(lo) == -1.0 and sensor.normalize(hi) == 1.0
    assert sensor.normalize(-math.inf) == -1.0 and sensor.normalize(math.inf) == 1.0


@pytest.mark.parametrize("lo, hi", SUBNORMAL)
def test_a_random_draw_on_a_subnormal_range_stays_inside_it(lo, hi):
    # the draw is taken in halves, and a subnormal half can round to 0:
    # unclipped, 47 of these 100 draws on [5e-324, 1e-323] were 0.0
    agent = ScriptedAgent("random", [ActuatorSpec("x", lo, hi, lo)], ())
    agent.reset(random.Random(1))
    draws = [agent.act([])[0] for _ in range(100)]
    assert all(lo <= x <= hi for x in draws)
