"""Learning and scripted attacker agents under a brain/muscle split.

The muscle is a linear policy given as a flat parameter tuple theta: sensor
readings are normalized to [-1, 1], mapped affinely, scaled by each actuator's
half-span around its default, and clipped to the declared range. The brain is
a cross-entropy-method loop over theta. Their sizes follow from the agent
section: run_phase sizes theta from the same sensors and actuators it passes.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Sequence


class SensorSpec(NamedTuple):
    """lo < hi; validation.cross_check holds a document to it."""

    id: str  # dotted endpoint path simulator.model.attribute
    lo: float
    hi: float

    def normalize(self, value: float) -> float:
        """Clamp into [lo, hi] and map onto [-1, 1], in halves where hi - lo overflows."""
        clamped = min(max(value, self.lo), self.hi)
        span = self.hi - self.lo
        if span == math.inf:  # only then: halves of a subnormal range round to 0
            return (clamped / 2 - self.lo / 2) / (self.hi / 2 - self.lo / 2) * 2.0 - 1.0
        return (clamped - self.lo) / span * 2.0 - 1.0


class ActuatorSpec(NamedTuple):
    """lo < hi and lo <= default <= hi; validation.cross_check holds a document to it."""

    id: str
    lo: float
    hi: float
    default: float

    def clip(self, value: float) -> float:
        return min(max(value, self.lo), self.hi)


def muscle_act(
    theta: Sequence[float],
    readings: Sequence[float],
    sensors: Sequence[SensorSpec],
    actuators: Sequence[ActuatorSpec],
) -> list[float]:
    """Deterministic setpoints for one readings vector.

    theta has len(actuators) * (len(sensors) + 1) entries, laid out row-wise
    as [w_1..w_S, bias] per actuator; readings has one value per sensor. For
    each actuator the affine output scales the half-span around the declared
    default before clipping, so all-zero parameters return every actuator's
    default.
    """
    x = [spec.normalize(value) for value, spec in zip(readings, sensors)]
    width = len(sensors) + 1
    setpoints = []
    for j, act in enumerate(actuators):
        row = theta[j * width : (j + 1) * width]
        u = sum(w * xi for w, xi in zip(row[:-1], x)) + row[-1]
        half_span = act.hi / 2 - act.lo / 2  # finite on any finite range
        setpoints.append(act.clip(act.default + u * half_span))
    return setpoints


ELITE_FRACTION = 0.2
SIGMA_FLOOR = 0.01


class CemDistribution(NamedTuple):
    mean: list[float]
    sigma: list[float]

    @classmethod
    def initial(cls, dim: int, sigma0: float) -> "CemDistribution":
        return cls(mean=[0.0] * dim, sigma=[sigma0] * dim)

    def sample(self, rng: random.Random) -> tuple[float, ...]:
        return tuple(rng.gauss(m, s) for m, s in zip(self.mean, self.sigma))


def cem_update(population: Sequence[tuple[Sequence[float], float]]) -> CemDistribution:
    """Refit the sampling distribution to the elite candidates.

    population is a list of (theta, episode return). Keeps the top
    ceil(ELITE_FRACTION * n) candidates by return (ties keep the lowest
    index), then returns their per-parameter mean and standard deviation,
    floored at SIGMA_FLOOR. The schema holds a document's population to >= 4.
    """
    n = len(population)
    dim = len(population[0][0])
    order = sorted(range(n), key=lambda i: (-population[i][1], i))
    k = math.ceil(ELITE_FRACTION * n)
    elites = [population[i][0] for i in order[:k]]
    mean = [sum(theta[d] for theta in elites) / k for d in range(dim)]
    sigma = []
    for d in range(dim):
        var = sum((theta[d] - mean[d]) ** 2 for theta in elites) / k
        sigma.append(max(math.sqrt(var), SIGMA_FLOOR))
    return CemDistribution(mean=mean, sigma=sigma)


class Objective(NamedTuple):
    """A known kind and finite weights; the schema and validation hold a document to it."""

    kind: str  # damage | profit | custom
    agents: tuple[str, ...]  # market agent ids owned by this attacker
    cost_per_mvar: float
    weights: dict


DIVERGENCE_PENALTY = 10.0


def objective_eval(aggregates: dict, objective: Objective) -> float:
    """Reward for one agent step from the step's telemetry aggregates.

    `aggregates` is telemetry.RunSummary.aggregates() over the records of
    one agent step, so every value is summed over that step: with a grid
    step shorter than the agent interval, the excursions of every grid step
    in the interval add up, and each diverged power flow counts.

    damage: summed band excursions (pu) plus 10 per diverged power flow.
    profit: own market payments minus cost_per_mvar * own offered volume.
    custom: declared weighted sum over named scalar aggregates; a
    `<map>.<agent>` name reads 0.0 when that agent has no entry in the step.
    """
    if objective.kind == "damage":
        return aggregates["violation_sum_pu"] + DIVERGENCE_PENALTY * aggregates["diverged"]
    if objective.kind == "profit":
        payments = aggregates["payments_eur"]
        offered = aggregates["offered_mvar"]
        earned = sum(payments.get(a, 0.0) for a in objective.agents)
        cost = objective.cost_per_mvar * sum(offered.get(a, 0.0) for a in objective.agents)
        return earned - cost
    value = 0.0
    for name, weight in objective.weights.items():  # names checked by validation
        value += weight * aggregates.get(name, 0.0)
    return value


class LearnerConfig(NamedTuple):
    kind: str  # none | random | replay | cem
    population: int
    generations: int
    sigma0: float
    replay: tuple


class Phase(NamedTuple):
    """A known mode, episodes >= 1 and episode_length >= 1; the schema holds a document to it."""

    name: str
    mode: str  # train | test
    episodes: int
    episode_length: int


class ScriptedAgent:
    """Non-learning baselines "none", "random" and "replay"; validation requires replay rows."""

    def __init__(self, kind: str, actuators: Sequence[ActuatorSpec],
                 replay: Sequence[Sequence[float]]):
        self.kind = kind
        self.actuators = list(actuators)
        self.replay = [list(row) for row in replay]
        self._step = 0
        self._rng: random.Random | None = None

    def reset(self, rng: random.Random) -> None:
        self._step = 0
        self._rng = rng

    def act(self, readings: Sequence[float]) -> list[float]:
        if self.kind == "none":
            out = [a.default for a in self.actuators]
        elif self.kind == "random":
            assert self._rng is not None, "reset() before act()"
            # random.uniform(lo, hi) in halves, so that hi - lo cannot overflow,
            # clipped because the halves of a subnormal range round to 0
            out = [a.clip(2.0 * (a.lo / 2 + (a.hi / 2 - a.lo / 2) * self._rng.random()))
                   for a in self.actuators]
        else:
            row = self.replay[self._step % len(self.replay)]
            out = [a.clip(v) for a, v in zip(self.actuators, row)]
        self._step += 1
        return out
