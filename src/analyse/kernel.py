"""Deterministic co-simulation kernel.

Simulators register with a fixed integer step size and a set of models whose
named attributes form typed endpoints. Connections move attribute values
between endpoints; the kernel advances simulation time and steps every due
simulator, ordering same-time steps topologically along non-time-shifted
connections (ties broken by registration order).

Data-flow semantics: a simulator stepping at time t reads, per non-shifted
input connection, the source value produced at the largest source step <= t;
per time-shifted connection, the value produced at the largest source step
strictly < t (the input's declared default before that). Time-shifted
connections are the cycle-breaking device for feedback loops.

Message connections deliver each item exactly once. Every non-empty value
the source produces is a sequence of items, queued with its step time per
destination; a consumer stepping at t receives, as one tuple in production
order, every queued item produced at a source step <= t (< t when
time-shifted), and () when nothing is due. Delivered items leave the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

Endpoint = tuple[str, str, str]  # (simulator, model, attribute)

# Stepper callback: (time, {model: {attr: value}}) -> {model: {attr: value}}
# Returned outputs may be sparse; omitted attributes keep their last value.
Stepper = Callable[[int, dict[str, dict[str, Any]]], Mapping[str, Mapping[str, Any]] | None]


class KernelError(Exception):
    pass


class KernelStepError(KernelError):
    """A stepper callback raised; carries the failing simulator and time."""

    def __init__(self, sim_id: str, time: int, cause: BaseException):
        super().__init__(f"simulator {sim_id!r} failed at t={time}: {cause}")
        self.sim_id = sim_id
        self.time = time


@dataclass(frozen=True)
class ModelSpec:
    """One model of a simulator: named inputs (with defaults) and outputs."""

    model_id: str
    inputs: Mapping[str, Any] = field(default_factory=dict)
    outputs: Sequence[str] = ()


@dataclass(frozen=True)
class SimulatorDescriptor:
    sim_id: str
    step_size: int
    models: Sequence[ModelSpec] = ()

    def validate(self) -> None:
        if self.step_size < 1:
            raise KernelError(f"simulator {self.sim_id!r}: step_size must be >= 1")
        seen = set()
        for model in self.models:
            if model.model_id in seen:
                raise KernelError(
                    f"simulator {self.sim_id!r}: duplicate model id {model.model_id!r}"
                )
            seen.add(model.model_id)
            overlap = set(model.inputs) & set(model.outputs)
            if overlap:
                raise KernelError(
                    f"{self.sim_id}.{model.model_id}: attributes both input and output: "
                    f"{sorted(overlap)}"
                )


@dataclass(frozen=True)
class Connection:
    src: Endpoint
    dst: Endpoint
    time_shifted: bool = False
    message: bool = False


@dataclass
class _SimEntry:
    desc: SimulatorDescriptor
    stepper: Stepper
    order: int
    steps: int = 0


class Kernel:
    def __init__(self) -> None:
        self._sims: dict[str, _SimEntry] = {}
        self._connections: dict[Endpoint, Connection] = {}  # keyed by dst
        self._inputs: dict[Endpoint, Any] = {}  # declared defaults
        self._outputs: set[Endpoint] = set()
        # per produced endpoint: (last_t, last_value, prev_t, prev_value)
        self._store: dict[Endpoint, tuple[int, Any, int | None, Any]] = {}
        # message connections: (step time, items) queues per destination,
        # reached from the source endpoint as well
        self._queues: dict[Endpoint, deque] = {}
        self._fanout: dict[Endpoint, list[deque]] = {}
        self._external: dict[Endpoint, Any] = {}
        self._next_due: dict[str, int] = {}
        self._started = False

    # -- construction ------------------------------------------------------

    def register_simulator(self, desc: SimulatorDescriptor, stepper: Stepper) -> None:
        if self._started:
            raise KernelError("cannot register simulators after the run has started")
        if desc.sim_id in self._sims:
            raise KernelError(f"duplicate simulator id {desc.sim_id!r}")
        desc.validate()
        self._sims[desc.sim_id] = _SimEntry(desc, stepper, order=len(self._sims))
        self._next_due[desc.sim_id] = 0
        for model in desc.models:
            for attr, default in model.inputs.items():
                self._inputs[(desc.sim_id, model.model_id, attr)] = default
            for attr in model.outputs:
                self._outputs.add((desc.sim_id, model.model_id, attr))

    def connect(
        self,
        src: Endpoint,
        dst: Endpoint,
        time_shifted: bool = False,
        message: bool = False,
    ) -> None:
        src = tuple(src)
        dst = tuple(dst)
        if src not in self._outputs:
            raise KernelError(f"unknown source endpoint {src}")
        if dst not in self._inputs:
            raise KernelError(f"unknown destination endpoint {dst}")
        if dst in self._connections:
            raise KernelError(f"destination endpoint {dst} already connected")
        connection = Connection(src, dst, time_shifted, message)
        if not time_shifted and len(self._topo_ranks((connection,))) < len(self._sims):
            raise KernelError(
                f"connection {src} -> {dst} would close a cycle of non-time-shifted "
                "connections; break the loop with time_shifted=True"
            )
        self._connections[dst] = connection
        if message:
            queue = self._queues[dst] = deque()
            self._fanout.setdefault(src, []).append(queue)

    # -- external I/O (environment boundary) --------------------------------

    def set_input(self, endpoint: Endpoint, value: Any) -> None:
        """Override an unconnected input; read by the simulator every step."""
        endpoint = tuple(endpoint)
        if endpoint not in self._inputs:
            raise KernelError(f"unknown input endpoint {endpoint}")
        if endpoint in self._connections:
            raise KernelError(f"input endpoint {endpoint} is connected; cannot override")
        self._external[endpoint] = value

    def get_output(self, endpoint: Endpoint) -> Any:
        endpoint = tuple(endpoint)
        if endpoint not in self._outputs:
            raise KernelError(f"unknown output endpoint {endpoint}")
        entry = self._store.get(endpoint)
        return entry[1] if entry else None

    def is_free_input(self, endpoint: Endpoint) -> bool:
        """A declared input that no connection feeds, so set_input may override it."""
        endpoint = tuple(endpoint)
        return endpoint in self._inputs and endpoint not in self._connections

    def has_output(self, endpoint: Endpoint) -> bool:
        return tuple(endpoint) in self._outputs

    # -- execution -----------------------------------------------------------

    def _topo_ranks(self, extra: tuple[Connection, ...] = ()) -> dict[str, int]:
        """Step order along non-time-shifted connections, ties broken by
        registration order; simulators on a cycle get no rank."""
        edges: dict[str, set[str]] = {s: set() for s in self._sims}
        indegree = {s: 0 for s in self._sims}
        for conn in (*self._connections.values(), *extra):
            if conn.time_shifted:
                continue
            a, b = conn.src[0], conn.dst[0]
            if b not in edges[a]:
                edges[a].add(b)
                indegree[b] += 1
        ranks: dict[str, int] = {}
        ready = sorted(
            (s for s in self._sims if indegree[s] == 0),
            key=lambda s: self._sims[s].order,
        )
        rank = 0
        while ready:
            sim = ready.pop(0)
            ranks[sim] = rank
            rank += 1
            for nxt in sorted(edges[sim], key=lambda s: self._sims[s].order):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort(key=lambda s: self._sims[s].order)
        return ranks

    def _read_input(self, conn: Connection, fallback: Any, t: int) -> Any:
        if conn.message:
            queue = self._queues[conn.dst]
            if not queue:
                return ()
            limit = t if conn.time_shifted else t + 1
            items: list = []
            while queue and queue[0][0] < limit:
                items.extend(queue.popleft()[1])
            return tuple(items)
        entry = self._store.get(conn.src)
        if entry is None:
            return fallback
        last_t, last_v, prev_t, prev_v = entry
        if not conn.time_shifted or last_t < t:
            return last_v
        return prev_v if prev_t is not None else fallback

    def _gather_inputs(self, sim_id: str, t: int) -> dict[str, dict[str, Any]]:
        desc = self._sims[sim_id].desc
        inputs: dict[str, dict[str, Any]] = {}
        for model in desc.models:
            values: dict[str, Any] = {}
            for attr, default in model.inputs.items():
                endpoint = (sim_id, model.model_id, attr)
                conn = self._connections.get(endpoint)
                if conn is not None:
                    values[attr] = self._read_input(conn, default, t)
                elif endpoint in self._external:
                    values[attr] = self._external[endpoint]
                else:
                    values[attr] = default
            inputs[model.model_id] = values
        return inputs

    def _record_outputs(self, sim_id: str, t: int, outputs: Mapping | None) -> None:
        if not outputs:
            return
        for model_id, attrs in outputs.items():
            for attr, value in attrs.items():
                endpoint = (sim_id, model_id, attr)
                if endpoint not in self._outputs:
                    raise KernelError(
                        f"simulator {sim_id!r} produced undeclared output {endpoint}"
                    )
                queues = self._fanout.get(endpoint)
                if queues is not None and value:
                    for queue in queues:
                        queue.append((t, value))
                entry = self._store.get(endpoint)
                if entry is None:
                    self._store[endpoint] = (t, value, None, None)
                elif entry[0] == t:
                    # Same-step overwrite keeps the older value as "previous".
                    self._store[endpoint] = (t, value, entry[2], entry[3])
                else:
                    self._store[endpoint] = (t, value, entry[0], entry[1])

    def run_until(self, end_time: int) -> dict[str, int]:
        """Advance until all step times < end_time are executed.

        Resumable: repeated calls with increasing end_time continue the same
        run. Returns the number of steps each simulator took in this call.
        """
        if end_time <= 0:
            raise KernelError("end_time must be > 0")
        if not self._sims:
            raise KernelError("no simulators registered")
        self._started = True
        ranks = self._topo_ranks()
        counts = {s: 0 for s in self._sims}
        while True:
            t = min(self._next_due.values())
            if t >= end_time:
                break
            due = [s for s, due_t in self._next_due.items() if due_t == t]
            due.sort(key=lambda s: (ranks[s], self._sims[s].order))
            for sim_id in due:
                entry = self._sims[sim_id]
                inputs = self._gather_inputs(sim_id, t)
                try:
                    outputs = entry.stepper(t, inputs)
                    self._record_outputs(sim_id, t, outputs)
                except Exception as exc:
                    raise KernelStepError(sim_id, t, exc) from exc
                entry.steps += 1
                counts[sim_id] += 1
                self._next_due[sim_id] = t + entry.desc.step_size
        return counts

    @property
    def step_counts(self) -> dict[str, int]:
        return {s: e.steps for s, e in self._sims.items()}
