"""Sensor/actuator environment over an assembled co-simulation.

The environment is built from the typed scenario config, which carries the
data series validation read for it, and the run's log sink. The config's agent
section names the sensors, actuators and objective; its market section gives
the agent interval and the voltage band rewards are measured against.

reset(seed) rebuilds every simulator with scenario.assemble and the episode
seed; step(setpoints) applies actuator values, advances the kernel by one
agent interval (the market interval), and derives the reward from the
telemetry records the interval produced, drained from the sink: those of a
kind in telemetry.AGGREGATE_KINDS, the only kinds its aggregates sum, are fed
to a telemetry.RunSummary. Episode telemetry times are offset so t_sim stays
non-decreasing per source across episodes within one run log. step trusts
run_phase, which resets before an episode's first step and passes one
setpoint per actuator.

Sensor and actuator ids are checked once, by validation.cross_check, before
a run builds its environment. An environment built directly with a sensor
that names no output fails with KernelError at its first reset, and one with
an actuator that names no free input at its first step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from . import scenario as scn
from .agents import (
    CemDistribution,
    Phase,
    ScriptedAgent,
    cem_update,
    muscle_act,
    objective_eval,
)
from .design import STREAM_CEM, STREAM_EPISODE, STREAM_SCRIPTED, derive_seed
from .kernel import Kernel
from .telemetry import AGGREGATE_KINDS, RunSink, RunSummary, mean


class Environment:
    episode_length: int  # agent steps per episode, set by run_phase for each phase

    def __init__(self, config: scn.ScenarioConfig, sink: RunSink):
        self.config = config
        self.sink = sink
        self._sensor_eps = [tuple(s.id.split(".")) for s in config.agent.sensors]
        self._actuator_eps = [tuple(a.id.split(".")) for a in config.agent.actuators]
        self._t_offset = 0.0
        self._kernel: Kernel | None = None
        self._local_t = 0
        self._step_index = 0
        self.resets = 0  # numbers and seeds the run's episodes

    def _emit_offset(self, source: str, kind: str, t_sim: float, payload: dict) -> None:
        self.sink.emit(source, kind, t_sim + self._t_offset, payload)

    @property
    def telemetry_time(self) -> float:
        """Current run-global telemetry time (offset plus episode-local time)."""
        return self._t_offset + self._local_t

    def reset(self, seed: int) -> list[float]:
        if self._kernel is not None:
            # Keep later episodes' telemetry times above everything emitted so far.
            self._t_offset += self._local_t + self.config.market.interval_s
        self._kernel = scn.assemble(self.config, seed, self._emit_offset)
        self._local_t = 0
        self._step_index = 0
        self.resets += 1
        self._kernel.run_until(1)  # step everything due at t=0
        self.sink.drain()  # the t=0 records belong to no agent step
        return self._readings()

    def _readings(self) -> list[float]:
        assert self._kernel is not None
        values = []
        for spec, ep in zip(self.config.agent.sensors, self._sensor_eps):
            raw = self._kernel.get_output(ep)
            value = float(raw) if raw is not None else 0.0
            if not (spec.lo <= value <= spec.hi):
                self._emit_offset("agent", "agent.clamp", float(self._local_t), {
                    "sensor": spec.id, "value": value,
                    "clipped": min(max(value, spec.lo), spec.hi),
                })
            values.append(value)
        return values

    def step(self, setpoints: Sequence[float]) -> tuple[list[float], float, bool]:
        applied = {}
        for value, spec, ep in zip(setpoints, self.config.agent.actuators, self._actuator_eps):
            clipped = spec.clip(float(value))
            if clipped != value:
                self._emit_offset("agent", "agent.clamp", float(self._local_t), {
                    "actuator": spec.id, "value": float(value), "clipped": clipped,
                })
            self._kernel.set_input(ep, clipped)
            applied[spec.id] = clipped
        market = self.config.market
        self._local_t += market.interval_s
        self._kernel.run_until(self._local_t + 1)
        window = RunSummary(band=market.band)
        for kind, payload in self.sink.drain():
            if kind in AGGREGATE_KINDS:
                window.feed(kind, payload)
        reward = objective_eval(window.aggregates(), self.config.agent.objective)
        self._step_index += 1
        self._emit_offset("agent", "agent.action", float(self._local_t), {
            "step": self._step_index, "setpoints": applied, "reward": reward,
        })
        done = self._step_index >= self.episode_length
        readings = self._readings()
        if done:
            self._emit_offset("kernel", "kernel.step", float(self._local_t), {
                "episode": self.resets - 1,
                "steps": self._kernel.step_counts,
            })
        return readings, reward, done


@dataclass
class PhaseReport:
    name: str
    mode: str
    returns: list[float] = field(default_factory=list)
    best_return: float | None = None

    @property
    def mean_return(self) -> float:
        return mean(self.returns) if self.returns else 0.0


@dataclass
class AgentRunState:
    """Carries the trained policy across phases."""

    best_theta: tuple[float, ...] | None = None
    best_return: float = float("-inf")


def run_phase(
    env: Environment,
    phase: Phase,
    run_seed: int,
    state: AgentRunState,
) -> PhaseReport:
    """Execute one schedule phase with the learner of the environment's config.

    Train mode with the cem learner runs generations of sampled policies, one
    episode per candidate, and keeps the best candidate seen. Test mode runs
    the declared number of episodes with the frozen best policy (scripted
    agents just act). Per-episode returns are logged as agent.episode records.
    """
    env.episode_length = phase.episode_length
    report = PhaseReport(name=phase.name, mode=phase.mode)
    episode_stream = derive_seed(run_seed, STREAM_EPISODE)
    agent = env.config.agent
    sensors, actuators, learner = agent.sensors, agent.actuators, agent.learner
    dim = len(actuators) * (len(sensors) + 1)

    def run_episode(actor, label: str) -> float:
        episode_seed = derive_seed(episode_stream, env.resets)
        readings = env.reset(episode_seed)
        total = 0.0
        done = False
        while not done:
            readings, reward, done = env.step(actor(readings))
            total += reward
        env.sink.emit("agent", "agent.episode", env.telemetry_time, {
            "agent": agent.agent_id, "phase": phase.name, "mode": phase.mode,
            "episode": env.resets - 1, "return": total, "label": label,
            "steps": env.episode_length, "seed": episode_seed,
        })
        report.returns.append(total)
        return total

    if learner.kind == "cem" and phase.mode == "train":
        rng = random.Random(derive_seed(run_seed, STREAM_CEM))
        dist = CemDistribution.initial(dim, sigma0=learner.sigma0)
        for gen in range(learner.generations):
            population: list[tuple[tuple[float, ...], float]] = []
            for _ in range(learner.population):
                theta = dist.sample(rng)
                ret = run_episode(
                    lambda obs: muscle_act(theta, obs, sensors, actuators),
                    label=f"gen{gen}",
                )
                population.append((theta, ret))
                if ret > state.best_return:
                    state.best_return = ret
                    state.best_theta = theta
            dist = cem_update(population)
            returns = [r for _, r in population]
            env.sink.emit("agent", "agent.generation", env.telemetry_time, {
                "generation": gen, "mean_return": mean(returns),
                "best_return": max(returns),
                "sigma_mean": mean(dist.sigma),
            })
    elif learner.kind == "cem":
        theta = state.best_theta or (0.0,) * dim
        for _ in range(phase.episodes):
            run_episode(
                lambda obs: muscle_act(theta, obs, sensors, actuators),
                label="test",
            )
    else:
        scripted = ScriptedAgent(learner.kind, actuators, learner.replay)
        scripted_stream = derive_seed(run_seed, STREAM_SCRIPTED)
        for episode in range(phase.episodes):
            scripted.reset(random.Random(derive_seed(scripted_stream, env.resets)))
            run_episode(lambda obs: scripted.act(obs), label=learner.kind)

    if learner.kind == "cem":
        report.best_return = state.best_return if state.best_theta else None
    return report
