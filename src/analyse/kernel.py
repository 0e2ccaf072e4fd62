"""Deterministic co-simulation kernel.

Simulators register with a fixed integer step size and a set of models whose
named attributes form typed endpoints. Connections move attribute values
between endpoints; the kernel advances simulation time and steps every due
simulator, same-time steps in registration order. A connection without a
time shift must therefore feed a simulator registered after its source.

Stepper contract: a simulator stepping at time t is called with t and a
mapping from each of its model ids to that model's input values. A model
with declared inputs gets a new dict of all of them at every step; a model
without inputs gets one shared, read-only empty mapping.

Data-flow semantics: a simulator stepping at time t reads, per plain input
connection, the source value produced at the largest source step <= t (the
input's declared default before that). Message connections deliver each
item exactly once. Every non-empty value the source produces is a sequence
of items, queued with its step time per destination; a consumer stepping at
t receives, as one tuple in production order, every queued item produced at
a source step <= t (< t when time-shifted), and () when nothing is due.
Delivered items leave the queue. Only a message connection may be
time-shifted, so a feedback loop closes through a time-shifted message
connection into a simulator registered earlier.

Step rule: a simulator steps only at multiples of its step size, and only
when something is due. Its grid times are those multiples. A stepper
without a `next_event_time` method steps at every grid time. A stepper with
`next_event_time() -> float | None` (asked after each of its steps; None
means nothing is pending) is event-driven: its connections must all be
message connections, and after a step at t it steps at the earliest of:

- the first grid time at or after its next event and strictly after t;
- the first grid time at which an item queued for it can be read: >= the
  production time, > it on a time-shifted connection;
- the first grid time not yet executed, after set_input changed one of its
  inputs (setting an equal value changes nothing);
- run_until(end) steps it at floor((end-1)/h)*h, so get_output after the
  call returns what a step at every grid time would have left there.

For a stepper whose idle steps change nothing but time-dependent outputs,
every item its consumers receive and every get_output at a run_until
boundary equals what stepping at every grid time gives.

Registration gives each simulator one record: its free input values and,
per model, one store of its latest output values, keyed by attribute. connect
adds to those records the read, message queue and wake-up that the
connection implies; the reads are the only record of what is connected.
After the first run_until, simulators and connections can no longer be added,
so that call plans each simulator's input gathering once: the models that
have inputs, and the message queues it reads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

Endpoint = tuple[str, str, str]  # (simulator, model, attribute)

# Stepper callback: (time, {model: {attr: value}}) -> {model: {attr: value}}
# Returned outputs may be sparse; omitted attributes keep their last value.
Stepper = Callable[[int, dict[str, Mapping[str, Any]]], Mapping[str, Mapping[str, Any]] | None]

_NEVER = math.inf
# the inputs of every model that declares none
_NO_INPUTS: Mapping[str, Any] = MappingProxyType({})
# the output record of a model a simulator does not declare: it takes no attribute
_UNDECLARED: tuple = ({}, frozenset(), {})


class KernelError(Exception):
    pass


class KernelStepError(KernelError):
    """A stepper callback raised; carries the failing simulator and time."""

    def __init__(self, sim_id: str, time: int, cause: BaseException):
        super().__init__(f"simulator {sim_id!r} failed at t={time}: {cause}")
        self.sim_id = sim_id
        self.time = time


class ModelSpec(NamedTuple):
    """One model of a simulator: named inputs (with defaults) and outputs."""

    model_id: str
    inputs: Mapping[str, Any] = MappingProxyType({})
    outputs: Sequence[str] = ()


class SimulatorDescriptor(NamedTuple):
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


def _grid_at_or_after(x: float, h: int) -> float:
    """The smallest multiple of h that is >= x, inf for x = inf. Exact in
    integers, since a float quotient's rounding error grows with x."""
    return _NEVER if x == _NEVER else -(-math.ceil(x) // h) * h


@dataclass
class _SimEntry:
    desc: SimulatorDescriptor
    stepper: Stepper
    order: int
    next_event: Callable[[], float | None] | None
    due: float = 0  # the next time it steps
    steps: int = 0
    last: int = -1  # time of the latest step
    # model id -> (free input values: declared defaults, then set_input's;
    # connected reads [(attr, message queue | None, source store, source
    # attr, time_shifted)])
    inputs: dict = field(default_factory=dict)
    # model id -> (store {attr: latest value}, declared attrs, message
    # outputs {attr: (message queues, event-driven message consumers as
    # [(consumer, time_shifted)])})
    outputs: dict = field(default_factory=dict)
    # the input plan, made at the first run_until: {model id: _NO_INPUTS} for
    # every model in declaration order, [(model id, free values, reads)] of
    # the models with inputs, and [(message queue, time_shifted)] of its reads
    blank: dict = field(default_factory=dict)
    fed: list = field(default_factory=list)
    queues: list = field(default_factory=list)

    def plan_inputs(self) -> None:
        self.blank = dict.fromkeys(self.inputs, _NO_INPUTS)
        self.fed = [(model_id, free, reads)
                    for model_id, (free, reads) in self.inputs.items() if free]
        self.queues = [(queue, shifted) for _, _, reads in self.fed
                       for _, queue, _, _, shifted in reads if queue is not None]


class Kernel:
    def __init__(self) -> None:
        self._sims: dict[str, _SimEntry] = {}
        self._horizon = 0  # every time < horizon has been executed
        self._ordered: list[_SimEntry] = []  # registration order, set when the run starts

    # -- construction ------------------------------------------------------

    def register_simulator(self, desc: SimulatorDescriptor, stepper: Stepper) -> None:
        if self._ordered:
            raise KernelError("cannot register simulators after the run has started")
        if desc.sim_id in self._sims:
            raise KernelError(f"duplicate simulator id {desc.sim_id!r}")
        desc.validate()
        entry = self._sims[desc.sim_id] = _SimEntry(
            desc, stepper, len(self._sims), getattr(stepper, "next_event_time", None)
        )
        for model in desc.models:
            entry.inputs[model.model_id] = (dict(model.inputs), [])
            entry.outputs[model.model_id] = ({}, frozenset(model.outputs), {})

    def connect(
        self,
        src: Endpoint,
        dst: Endpoint,
        time_shifted: bool = False,
        message: bool = False,
    ) -> None:
        if self._ordered:
            raise KernelError("cannot connect endpoints after the run has started")
        out = self._output_model(src)
        if out is None:
            raise KernelError(f"unknown source endpoint {src}")
        model = self._input_model(dst)
        if model is None:
            raise KernelError(f"unknown destination endpoint {dst}")
        if any(read[0] == dst[2] for read in model[1]):
            raise KernelError(f"destination endpoint {dst} already connected")
        source, consumer = self._sims[src[0]], self._sims[dst[0]]
        if not message and (time_shifted or source.next_event or consumer.next_event):
            raise KernelError(f"connection {src} -> {dst}: only a message connection may "
                              "be time-shifted or join an event-driven simulator")
        if not time_shifted and source.order >= consumer.order:
            raise KernelError(f"connection {src} -> {dst}: without a time shift a connection "
                              "must feed a simulator registered after its source; register "
                              "the source first or use a time-shifted message connection")
        store, _, messages = out
        queue = deque() if message else None
        model[1].append((dst[2], queue, store, src[2], time_shifted))
        if message:
            queues, wakes = messages.setdefault(src[2], ([], []))
            queues.append(queue)
            if consumer.next_event is not None:
                wakes.append((consumer, time_shifted))

    def _output_model(self, endpoint: tuple) -> tuple | None:
        """(store, declared, message outputs) of the model declaring an output, else None."""
        entry = self._sims.get(endpoint[0]) if len(endpoint) == 3 else None
        out = entry.outputs.get(endpoint[1]) if entry else None
        return out if out is not None and endpoint[2] in out[1] else None

    def _input_model(self, endpoint: tuple) -> tuple | None:
        """(free values, reads) of the model declaring an input, else None."""
        entry = self._sims.get(endpoint[0]) if len(endpoint) == 3 else None
        model = entry.inputs.get(endpoint[1]) if entry else None
        return model if model is not None and endpoint[2] in model[0] else None

    # -- external I/O (environment boundary) --------------------------------

    def set_input(self, endpoint: Endpoint, value: Any) -> None:
        """Override an unconnected input; read by the simulator every step."""
        model = self._input_model(endpoint)
        if model is None:
            raise KernelError(f"unknown input endpoint {endpoint}")
        if any(read[0] == endpoint[2] for read in model[1]):
            raise KernelError(f"input endpoint {endpoint} is connected; cannot override")
        values = model[0]
        changed = values[endpoint[2]] != value
        values[endpoint[2]] = value
        if changed:
            entry = self._sims[endpoint[0]]
            due = _grid_at_or_after(self._horizon, entry.desc.step_size)
            if due < entry.due:
                entry.due = due

    def get_output(self, endpoint: Endpoint) -> Any:
        out = self._output_model(endpoint)
        if out is None:
            raise KernelError(f"unknown output endpoint {endpoint}")
        return out[0].get(endpoint[2])

    def is_free_input(self, endpoint: Endpoint) -> bool:
        """A declared input that no connection feeds, so set_input may override it."""
        model = self._input_model(endpoint)
        return model is not None and all(read[0] != endpoint[2] for read in model[1])

    def has_output(self, endpoint: Endpoint) -> bool:
        return self._output_model(endpoint) is not None

    # -- execution -----------------------------------------------------------

    def _gather_inputs(self, entry: _SimEntry, t: int) -> dict[str, Mapping[str, Any]]:
        inputs = entry.blank.copy()
        for model_id, free, reads in entry.fed:
            values = free.copy()
            for attr, queue, store, src_attr, shifted in reads:
                if queue is not None:
                    limit = t - 1 if shifted else t
                    if queue and queue[0][0] <= limit:
                        items: list = []
                        while queue and queue[0][0] <= limit:
                            items.extend(queue.popleft()[1])
                        values[attr] = tuple(items)
                    else:
                        values[attr] = ()
                elif src_attr in store:  # else the declared default
                    values[attr] = store[src_attr]
            inputs[model_id] = values
        return inputs

    def _record_outputs(self, entry: _SimEntry, t: int, outputs: Mapping | None) -> None:
        if not outputs:
            return
        for model_id, attrs in outputs.items():
            store, declared, messages = entry.outputs.get(model_id, _UNDECLARED)
            if not attrs.keys() <= declared:
                attr = next(a for a in attrs if a not in declared)
                raise KernelError(
                    f"simulator {entry.desc.sim_id!r} produced undeclared output "
                    f"{(entry.desc.sim_id, model_id, attr)}"
                )
            for attr, (queues, wakes) in messages.items():
                value = attrs.get(attr)
                if value:
                    for queue in queues:
                        queue.append((t, value))
                    for consumer, shifted in wakes:
                        ready = _grid_at_or_after(t + shifted, consumer.desc.step_size)
                        if ready < consumer.due:
                            consumer.due = ready
            store.update(attrs)

    def _due_after(self, entry: _SimEntry, t: int, end_time: int) -> float:
        """When an event-driven simulator that just stepped at t is next due,
        in a run_until(end_time) call."""
        h = entry.desc.step_size
        boundary = (end_time - 1) // h * h
        due: float = boundary if boundary > t else _NEVER
        event = entry.next_event()
        if event is not None:
            due = min(due, max(_grid_at_or_after(event, h), t + h))
        for queue, shifted in entry.queues:  # queued items not yet readable
            if queue:
                due = min(due, _grid_at_or_after(queue[0][0] + shifted, h))
        return due

    def run_until(self, end_time: int) -> None:
        """Advance until all step times < end_time are executed.

        Resumable: repeated calls with increasing end_time continue the same
        run; step_counts tells how often each simulator has stepped.
        """
        if end_time <= 0:
            raise KernelError("end_time must be > 0")
        if not self._sims:
            raise KernelError("no simulators registered")
        if not self._ordered:
            self._ordered = list(self._sims.values())
            for entry in self._ordered:
                entry.plan_inputs()
        ordered = self._ordered
        for entry in ordered:
            if entry.next_event is not None:
                boundary = (end_time - 1) // entry.desc.step_size * entry.desc.step_size
                if entry.last < boundary < entry.due:
                    entry.due = boundary
        while True:
            t = min([entry.due for entry in ordered])
            if t >= end_time:
                break
            for entry in ordered:
                if entry.due != t:
                    continue
                entry.due = _NEVER  # inputs produced during the step may lower it
                inputs = self._gather_inputs(entry, t)
                try:
                    outputs = entry.stepper(t, inputs)
                    self._record_outputs(entry, t, outputs)
                    if entry.next_event is None:
                        entry.due = t + entry.desc.step_size
                    else:
                        entry.due = min(entry.due, self._due_after(entry, t, end_time))
                except Exception as exc:
                    raise KernelStepError(entry.desc.sim_id, t, exc) from exc
                entry.last = t
                entry.steps += 1
        self._horizon = max(self._horizon, end_time)

    @property
    def step_counts(self) -> dict[str, int]:
        return {s: e.steps for s, e in self._sims.items()}
