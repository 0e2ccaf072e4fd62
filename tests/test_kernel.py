import heapq
import math
import random
from fractions import Fraction

import pytest

from analyse.kernel import (
    Kernel,
    KernelError,
    KernelStepError,
    ModelSpec,
    SimulatorDescriptor,
    _grid_at_or_after,
)


def counter_sim(sim_id, step, log=None):
    desc = SimulatorDescriptor(
        sim_id, step, (ModelSpec("m", inputs={"x": 0.0}, outputs=("y",)),)
    )

    def stepper(t, inputs):
        if log is not None:
            log.append((sim_id, t, inputs["m"]["x"]))
        return {"m": {"y": float(t)}}

    return desc, stepper


def relay_sim(sim_id, step, log=None):
    """A message endpoint: logs the items it receives and sends one item,
    (sim_id, t), at every step."""
    desc = SimulatorDescriptor(
        sim_id, step, (ModelSpec("m", inputs={"inbox": ()}, outputs=("out",)),)
    )

    def stepper(t, inputs):
        if log is not None:
            log.append((sim_id, t, inputs["m"]["inbox"]))
        return {"m": {"out": ((sim_id, t),)}}

    return desc, stepper


def test_register_duplicate_id_rejected():
    k = Kernel()
    desc, stepper = counter_sim("grid", 900)
    k.register_simulator(desc, stepper)
    with pytest.raises(KernelError, match="duplicate"):
        k.register_simulator(*counter_sim("grid", 900))


def test_register_initial_schedule_and_models():
    k = Kernel()
    desc = SimulatorDescriptor(
        "net", 1,
        tuple(ModelSpec(f"m{i}", inputs={"a": None}, outputs=("b",)) for i in range(3)),
    )
    k.register_simulator(desc, lambda t, i: None)
    assert k._sims["net"].due == 0
    outputs, free_inputs = k.endpoints()
    assert all(("net", f"m{i}", "b") in outputs for i in range(3))
    assert all(("net", f"m{i}", "a") in free_inputs for i in range(3))


def test_register_after_start_rejected():
    k = Kernel()
    k.register_simulator(*counter_sim("a", 1))
    k.run_until(2)
    with pytest.raises(KernelError, match="after the run has started"):
        k.register_simulator(*counter_sim("b", 1))


def test_connect_after_start_rejected():
    k = Kernel()
    k.register_simulator(*counter_sim("a", 1))
    k.register_simulator(*counter_sim("b", 1))
    k.run_until(2)
    with pytest.raises(KernelError, match="after the run has started"):
        k.connect(("a", "m", "y"), ("b", "m", "x"))
    assert ("b", "m", "x") in k.endpoints()[1]


def test_step_size_must_be_positive():
    k = Kernel()
    with pytest.raises(KernelError, match="step_size"):
        k.register_simulator(*counter_sim("a", 0))


def test_connect_validates_endpoints():
    k = Kernel()
    k.register_simulator(*counter_sim("a", 1))
    k.register_simulator(*counter_sim("b", 1))
    k.connect(("a", "m", "y"), ("b", "m", "x"))
    free_inputs = k.endpoints()[1]
    assert ("a", "m", "x") in free_inputs
    assert ("b", "m", "x") not in free_inputs  # fed by the connection
    assert ("a", "m", "y") not in free_inputs  # an output
    with pytest.raises(KernelError, match="unknown source"):
        k.connect(("a", "m", "nope"), ("b", "m", "x"))
    with pytest.raises(KernelError, match="already connected"):
        k.connect(("a", "m", "y"), ("b", "m", "x"))


def test_endpoints_list_outputs_and_unfed_inputs_in_order():
    k = Kernel()
    k.register_simulator(SimulatorDescriptor("b", 1, (
        ModelSpec("m2", inputs={"z": 0.0, "x": 0.0}, outputs=("y", "w")),
        ModelSpec("m1", outputs=("v",)),
    )), lambda t, i: None)
    k.register_simulator(*counter_sim("a", 1))
    k.connect(("b", "m2", "y"), ("a", "m", "x"))
    with pytest.raises(KernelError, match="register the source first"):
        k.connect(("a", "m", "y"), ("b", "m2", "z"))
    # registration order, then declaration order; a refused connection feeds nothing
    assert k.endpoints() == ([("b", "m2", "y"), ("b", "m2", "w"), ("b", "m1", "v"),
                              ("a", "m", "y")],
                             [("b", "m2", "z"), ("b", "m2", "x")])


def test_non_shifted_cycle_rejected():
    k = Kernel()
    k.register_simulator(*relay_sim("a", 1))
    k.register_simulator(*relay_sim("b", 1))
    k.connect(("a", "m", "out"), ("b", "m", "inbox"), message=True)
    with pytest.raises(KernelError, match="registered after its source.*time-shifted message"):
        k.connect(("b", "m", "out"), ("a", "m", "inbox"), message=True)
    assert ("a", "m", "inbox") in k.endpoints()[1]


def test_cycle_broken_by_time_shift():
    log = []
    k = Kernel()
    k.register_simulator(*relay_sim("a", 1, log))
    k.register_simulator(*relay_sim("b", 1, log))
    k.connect(("a", "m", "out"), ("b", "m", "inbox"), message=True)
    k.connect(("b", "m", "out"), ("a", "m", "inbox"), time_shifted=True, message=True)
    k.run_until(3)
    assert log == [
        ("a", 0, ()), ("b", 0, (("a", 0),)),
        ("a", 1, (("b", 0),)), ("b", 1, (("a", 1),)),
        ("a", 2, (("b", 1),)), ("b", 2, (("a", 2),)),
    ]


@pytest.mark.parametrize("shifted, src_event, dst_event", [
    (True, False, False), (False, False, True), (False, True, False),
], ids=["shifted", "into_event_driven", "out_of_event_driven"])
def test_connect_refuses_plain_shifted_or_event_driven(shifted, src_event, dst_event):
    k = Kernel()
    for sim_id, event_driven in (("a", src_event), ("b", dst_event)):
        desc, stepper = counter_sim(sim_id, 1)
        if event_driven:
            stepper.next_event_time = lambda: None
        k.register_simulator(desc, stepper)
    with pytest.raises(KernelError, match="only a message connection"):
        k.connect(("a", "m", "y"), ("b", "m", "x"), time_shifted=shifted)
    assert ("b", "m", "x") in k.endpoints()[1]


def test_step_counts_for_mixed_step_sizes():
    k = Kernel()
    k.register_simulator(*counter_sim("a", 1))
    k.register_simulator(*counter_sim("b", 4))
    assert k.run_until(8) is None
    assert k.step_counts == {"a": 8, "b": 2}


def test_single_simulator_step_times():
    log = []
    k = Kernel()
    k.register_simulator(*counter_sim("g", 900, log))
    k.run_until(3600)
    assert k.step_counts == {"g": 4}
    assert [t for _, t, _ in log] == [0, 900, 1800, 2700]


def test_time_shift_reads_previous_step_with_default():
    log = []
    k = Kernel()
    k.register_simulator(*relay_sim("prod", 1))
    k.register_simulator(*relay_sim("cons", 1, log))
    k.connect(("prod", "m", "out"), ("cons", "m", "inbox"), time_shifted=True, message=True)
    k.run_until(3)
    # at t=0 nothing is due, so the inbox reads (), its declared default;
    # afterwards what the previous step sent
    assert log == [("cons", 0, ()), ("cons", 1, (("prod", 0),)), ("cons", 2, (("prod", 1),))]


def test_non_shifted_same_time_value():
    seen = []
    k = Kernel()
    k.register_simulator(*counter_sim("prod", 1))
    desc = SimulatorDescriptor("cons", 1, (ModelSpec("m", inputs={"x": -1.0}),))
    k.register_simulator(desc, lambda t, i: seen.append((t, i["m"]["x"])))
    k.connect(("prod", "m", "y"), ("cons", "m", "x"))
    k.run_until(3)
    assert seen == [(0, 0.0), (1, 1.0), (2, 2.0)]


def test_unconnected_input_reads_declared_default_and_override():
    seen = []
    k = Kernel()
    desc = SimulatorDescriptor("s", 1, (ModelSpec("m", inputs={"x": 7.5}),))
    k.register_simulator(desc, lambda t, i: seen.append(i["m"]["x"]))
    k.run_until(1)
    k.set_input(("s", "m", "x"), 9.0)
    k.run_until(2)
    assert seen == [7.5, 9.0]


def test_a_model_without_inputs_gets_one_shared_read_only_empty_mapping():
    seen = []
    k = Kernel()
    desc = SimulatorDescriptor("s", 1, (
        ModelSpec("sensor", outputs=("y",)),
        ModelSpec("m", inputs={"x": 7.5}),
        ModelSpec("probe", outputs=("z",)),
    ))

    def stepper(t, inputs):
        seen.append(inputs)
        inputs["m"]["x"] = -1.0  # a stepper's own copy
        with pytest.raises(TypeError):
            inputs["sensor"]["y"] = 1.0

    k.register_simulator(desc, stepper)
    k.run_until(3)
    assert [list(inputs) for inputs in seen] == [["sensor", "m", "probe"]] * 3
    first = seen[0]["sensor"]
    assert first == {} and not isinstance(first, dict)
    assert all(inputs["sensor"] is first and inputs["probe"] is first for inputs in seen)
    assert [inputs["m"] for inputs in seen] == [{"x": -1.0}] * 3
    assert len({id(inputs["m"]) for inputs in seen}) == 3


def test_set_input_rejected_for_connected_endpoint():
    k = Kernel()
    k.register_simulator(*counter_sim("a", 1))
    k.register_simulator(*counter_sim("b", 1))
    k.connect(("a", "m", "y"), ("b", "m", "x"))
    with pytest.raises(KernelError, match="connected"):
        k.set_input(("b", "m", "x"), 1.0)


def test_connection_against_registration_order_refused():
    order = []

    def sim(sim_id):
        desc = SimulatorDescriptor(
            sim_id, 1, (ModelSpec("m", inputs={"x": 0.0}, outputs=("y",)),)
        )
        return desc, lambda t, i: order.append((sim_id, i["m"]["x"])) or {"m": {"y": t + 1}}

    k = Kernel()
    for sim_id in ("c", "b", "a"):
        k.register_simulator(*sim(sim_id))
    for src, dst in (("a", "b"), ("b", "c"), ("a", "c"), ("b", "b")):
        with pytest.raises(KernelError, match="register the source first"):
            k.connect((src, "m", "y"), (dst, "m", "x"))
        assert (dst, "m", "x") in k.endpoints()[1]
    k.connect(("c", "m", "y"), ("b", "m", "x"))
    k.connect(("b", "m", "y"), ("a", "m", "x"))
    k.run_until(1)
    assert order == [("c", 0.0), ("b", 1), ("a", 1)]  # each reads the same-time value


def test_ties_broken_by_registration_order():
    order = []

    def sim(sim_id):
        desc = SimulatorDescriptor(sim_id, 1, (ModelSpec("m", outputs=("y",)),))
        return desc, lambda t, i: order.append(sim_id) or {"m": {"y": t}}

    k = Kernel()
    for sim_id in ("z", "m", "a"):
        k.register_simulator(*sim(sim_id))
    k.run_until(1)
    assert order == ["z", "m", "a"]


def test_replay_determinism_of_step_sequences():
    def run_once():
        log = []
        k = Kernel()
        k.register_simulator(*relay_sim("a", 3, log))
        k.register_simulator(*relay_sim("b", 5, log))
        k.register_simulator(*relay_sim("c", 7, log))
        k.connect(("a", "m", "out"), ("b", "m", "inbox"), message=True)
        k.connect(("b", "m", "out"), ("c", "m", "inbox"), time_shifted=True, message=True)
        k.run_until(100)
        return log

    assert run_once() == run_once()


def test_causality_data_never_from_the_future():
    log = []
    k = Kernel()
    k.register_simulator(*relay_sim("p", 3))
    k.register_simulator(*relay_sim("plain", 2, log))
    k.register_simulator(*relay_sim("shifted", 2, log))
    k.connect(("p", "m", "out"), ("plain", "m", "inbox"), message=True)
    k.connect(("p", "m", "out"), ("shifted", "m", "inbox"), time_shifted=True, message=True)
    k.run_until(30)
    for kind, t, items in log:
        for _, produced in items:
            assert produced <= t if kind == "plain" else produced < t
    for kind in ("plain", "shifted"):
        assert [p for c, _, items in log if c == kind for _, p in items] == list(range(0, 30, 3))


def test_stepper_failure_aborts_with_context():
    def bad(t, inputs):
        if t == 4:
            raise RuntimeError("boom")

    k = Kernel()
    k.register_simulator(SimulatorDescriptor("ok", 1, (ModelSpec("m"),)), lambda t, i: None)
    k.register_simulator(SimulatorDescriptor("bad", 2, (ModelSpec("m"),)), bad)
    with pytest.raises(KernelStepError) as info:
        k.run_until(10)
    assert info.value.sim_id == "bad"
    assert info.value.time == 4


def test_undeclared_output_rejected():
    k = Kernel()
    desc = SimulatorDescriptor("s", 1, (ModelSpec("m", outputs=("y",)),))
    k.register_simulator(desc, lambda t, i: {"m": {"z": 1}})
    with pytest.raises(KernelStepError):
        k.run_until(1)


def test_run_until_requires_positive_end():
    k = Kernel()
    k.register_simulator(*counter_sim("a", 1))
    with pytest.raises(KernelError):
        k.run_until(0)


def test_run_until_is_resumable():
    log = []
    k = Kernel()
    k.register_simulator(*counter_sim("a", 2, log))
    k.run_until(5)    # t = 0, 2, 4
    assert k.step_counts == {"a": 3}
    k.run_until(9)    # t = 6, 8
    assert k.step_counts == {"a": 5}
    assert [t for _, t, _ in log] == [0, 2, 4, 6, 8]


# -- message connections -------------------------------------------------------


def message_kernel(batches, producer_step=1, consumers=(("c", 1, False),)):
    """A producer emitting batches[t] at step t, wired by message connections
    to consumers (sim_id, step size, time_shifted); returns the kernel and
    each consumer's (t, received) list."""
    k = Kernel()
    prod = SimulatorDescriptor("p", producer_step, (ModelSpec("m", outputs=("out",)),))
    k.register_simulator(prod, lambda t, i: {"m": {"out": batches.get(t, ())}})
    seen = {}
    for sim_id, step, shifted in consumers:
        received = seen[sim_id] = []
        desc = SimulatorDescriptor(sim_id, step, (ModelSpec("m", inputs={"inbox": ()}),))
        k.register_simulator(
            desc, lambda t, i, received=received: received.append((t, i["m"]["inbox"]))
        )
        k.connect(("p", "m", "out"), (sim_id, "m", "inbox"), time_shifted=shifted, message=True)
    return k, seen


def test_message_items_delivered_once_in_order():
    k, seen = message_kernel({0: ("a", "b"), 1: ("c",), 3: ("d", "e")})
    k.run_until(5)
    assert seen["c"] == [(0, ("a", "b")), (1, ("c",)), (2, ()), (3, ("d", "e")), (4, ())]


def test_message_shifted_holds_back_same_step_items():
    k, seen = message_kernel(
        {0: ("a",), 2: ("b",)}, consumers=(("plain", 1, False), ("shifted", 1, True))
    )
    k.run_until(4)
    assert seen["plain"] == [(0, ("a",)), (1, ()), (2, ("b",)), (3, ())]
    assert seen["shifted"] == [(0, ()), (1, ("a",)), (2, ()), (3, ("b",))]


def test_slow_message_consumer_gets_every_batch():
    batches = {t: (f"x{t}",) for t in range(10)}
    k, seen = message_kernel(batches, consumers=(("c", 4, False),))
    k.run_until(10)
    assert seen["c"] == [
        (0, ("x0",)), (4, ("x1", "x2", "x3", "x4")), (8, ("x5", "x6", "x7", "x8")),
    ]
    k.run_until(13)
    assert seen["c"][-1] == (12, ("x9",))


def test_message_fan_out_delivers_everything_to_each_consumer():
    batches = {0: ("a",), 1: ("b", "c"), 2: ("d",)}
    k, seen = message_kernel(batches, consumers=(("c1", 1, False), ("c2", 3, False)))
    k.run_until(4)
    assert [item for _, got in seen["c1"] for item in got] == ["a", "b", "c", "d"]
    assert seen["c2"] == [(0, ("a",)), (3, ("b", "c", "d"))]


def test_message_consumer_receives_empty_tuple_when_nothing_queued():
    k, seen = message_kernel({}, producer_step=2, consumers=(("c", 1, True),))
    k.run_until(3)
    assert seen["c"] == [(0, ()), (1, ()), (2, ())]
    _, _, messages = k._sims["p"].outputs["m"]
    queues, _ = messages["out"]
    assert queues and not any(queues)


# -- event-driven stepping -------------------------------------------------------


class EventSim:
    """Steps only when due: `events` are future times it wants a step at or
    after. Every step records its time and its inputs, and outputs y = t."""

    def __init__(self, events=(), inputs=None):
        self.events = sorted(events)
        self.times = []
        self.received = []
        self.inputs = inputs or {}

    def descriptor(self, step):
        return SimulatorDescriptor(
            "e", step, (ModelSpec("m", inputs=dict(self.inputs), outputs=("y",)),))

    def next_event_time(self):
        return self.events[0] if self.events else None

    def __call__(self, t, inputs):
        self.times.append(t)
        self.received.append(inputs["m"])
        while self.events and self.events[0] <= t:
            self.events.pop(0)
        return {"m": {"y": t}}


def event_kernel(sim):
    k = Kernel()
    k.register_simulator(sim.descriptor(step=10), sim)
    return k


def test_event_on_the_grid_steps_at_that_time():
    sim = EventSim(events=(30, 45))
    k = event_kernel(sim)
    k.run_until(61)
    # 30 lies on the grid; 45 waits for 50; 60 is the run_until boundary
    assert sim.times == [0, 30, 50, 60]


def test_event_at_the_current_step_time_steps_next_grid_time():
    class SendsAtStep(EventSim):
        def __call__(self, t, inputs):
            out = super().__call__(t, inputs)
            if t == 20:
                self.events.insert(0, 20)  # like a frame sent at t, timestamped t
            return out

    sim = SendsAtStep(events=(20,))
    k = event_kernel(sim)
    k.run_until(51)
    assert sim.times == [0, 20, 30, 50]


@pytest.mark.parametrize("h", [1, 7, 60, 900])
def test_grid_time_is_exact_for_any_event_time(h):
    # A frame on a link of subnormal bandwidth is due at inf, and a delay
    # rule can push one to 1e297 s: the grid time is the least multiple of h
    # at or after x in exact arithmetic, found without stepping through
    # the float quotient's rounding error, which grows with x.
    assert _grid_at_or_after(math.inf, h) == math.inf
    rng = random.Random(h)
    times = [0, 1, 59.5, 60.0, 2.0**53 + 2, 1e17, 1e300, 1.7e308, 5e-324]
    times += [rng.random() * 10.0 ** rng.randint(0, 307) for _ in range(300)]
    for x in times:
        g = _grid_at_or_after(x, h)
        assert g % h == 0 and Fraction(g - h) < Fraction(x) <= Fraction(g), (x, h)


def message_to_event_sim(time_shifted, step):
    """A producer sending one item at t=15 over a message connection to an
    event-driven simulator with the given step size."""
    k = Kernel()
    prod = SimulatorDescriptor("p", 5, (ModelSpec("m", outputs=("out",)),))
    k.register_simulator(prod, lambda t, i: {"m": {"out": ("hello",) if t == 15 else ()}})
    sim = EventSim(inputs={"inbox": ()})
    k.register_simulator(sim.descriptor(step=step), sim)
    k.connect(("p", "m", "out"), ("e", "m", "inbox"), time_shifted=time_shifted, message=True)
    return k, sim


def test_message_on_plain_connection_steps_first_grid_time_at_or_after():
    k, sim = message_to_event_sim(time_shifted=False, step=10)
    k.run_until(41)
    assert sim.times == [0, 20, 40]
    assert [r["inbox"] for r in sim.received] == [(), ("hello",), ()]
    k, sim = message_to_event_sim(time_shifted=False, step=5)
    k.run_until(26)
    assert sim.times == [0, 15, 25]  # read in the step of its production time
    assert sim.received[1]["inbox"] == ("hello",)


def test_message_on_time_shifted_connection_steps_strictly_after():
    k, sim = message_to_event_sim(time_shifted=True, step=10)
    k.run_until(41)
    assert sim.times == [0, 20, 40]
    k, sim = message_to_event_sim(time_shifted=True, step=5)
    k.run_until(26)
    assert sim.times == [0, 20, 25]  # not 15: the item is read only after it
    assert sim.received[1]["inbox"] == ("hello",)
    k, sim = message_to_event_sim(time_shifted=True, step=5)
    sim.events = [15]  # due at 15 anyway, after the producer's step at 15
    k.run_until(26)
    assert sim.times == [0, 15, 20, 25]
    assert [r["inbox"] for r in sim.received] == [(), (), ("hello",), ()]


def test_changed_input_steps_first_grid_time_not_yet_executed():
    sim = EventSim(inputs={"x": 0.0})
    k = event_kernel(sim)
    k.run_until(11)
    assert sim.times == [0, 10]
    k.set_input(("e", "m", "x"), 1.0)
    k.run_until(100)
    assert sim.times == [0, 10, 20, 90]
    assert [r["x"] for r in sim.received] == [0.0, 0.0, 1.0, 1.0]


def test_unchanged_input_does_not_step():
    sim = EventSim(inputs={"x": 0.0})
    k = event_kernel(sim)
    k.run_until(11)
    k.set_input(("e", "m", "x"), 0.0)  # the declared default: nothing changed
    k.run_until(100)
    k.set_input(("e", "m", "x"), 2.0)
    k.set_input(("e", "m", "x"), 2.0)
    k.run_until(200)
    assert sim.times == [0, 10, 90, 100, 190]


def test_run_until_boundary_output_is_fresh():
    sim = EventSim()
    k = event_kernel(sim)
    k.run_until(1)
    assert k.get_output(("e", "m", "y")) == 0
    k.run_until(35)
    assert k.get_output(("e", "m", "y")) == 30
    k.run_until(36)  # 30 already executed: no step
    k.run_until(900)
    assert k.get_output(("e", "m", "y")) == 890
    assert sim.times == [0, 30, 890]


class ToyNetwork:
    """An event-driven toy network: each item received is delivered after a
    seeded delay; it outputs delivered items as messages, a cumulative count
    and a trailing-window load that changes with time alone. A `mode` input
    of 1 drops items. Idle steps change nothing but the load."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.heap = []
        self.delivered_at = []
        self.count = 0
        self.mode_changes = 0
        self.mode = 0.0
        self.seq = 0

    def next_event_time(self):
        return self.heap[0][0] if self.heap else None

    def __call__(self, t, inputs):
        out = []
        while self.heap and self.heap[0][0] <= t:
            at, _, item = heapq.heappop(self.heap)
            out.append((at, item))
            self.delivered_at.append(at)
            self.count += 1
        model = inputs["m"]
        if model["mode"] != self.mode:
            self.mode = model["mode"]
            self.mode_changes += 1
        for item in model["inbox"]:
            if self.mode < 0.5:
                heapq.heappush(self.heap, (t + self.rng.uniform(0.0, 40.0), self.seq, item))
                self.seq += 1
        load = sum(1 for at in self.delivered_at if t - 30 < at <= t)
        return {"m": {"out": tuple(out), "count": self.count, "load": load,
                      "changes": self.mode_changes}}


def toy_network_run(seed, event_driven):
    rng = random.Random(seed)
    toy = ToyNetwork(seed)
    k = Kernel()
    k.register_simulator(
        SimulatorDescriptor("src", 7, (ModelSpec("m", outputs=("items",)),)),
        lambda t, i: {"m": {"items": tuple(f"i{t}.{n}" for n in range(t % 3))}},
    )
    k.register_simulator(
        SimulatorDescriptor("net", 3, (ModelSpec(
            "m", inputs={"inbox": (), "mode": 0.0},
            outputs=("out", "count", "load", "changes")),)),
        toy if event_driven else (lambda t, i: toy(t, i)),
    )
    seen = {}
    for sim_id, step, shifted in (("plain_out", 6, False), ("shifted_out", 2, True)):
        got = seen[sim_id] = []
        k.register_simulator(
            SimulatorDescriptor(sim_id, step, (ModelSpec("m", inputs={"x": ()}),)),
            lambda t, i, got=got: got.append((t, i["m"]["x"])),
        )
        k.connect(("net", "m", "out"), (sim_id, "m", "x"), time_shifted=shifted, message=True)
    k.connect(("src", "m", "items"), ("net", "m", "inbox"), message=True)
    end = 0
    boundary = []
    for _ in range(40):
        end += rng.randint(1, 60)
        if rng.random() < 0.3:
            k.set_input(("net", "m", "mode"), rng.choice((0.0, 1.0)))
        k.run_until(end)
        boundary.append(tuple(k.get_output(("net", "m", a)) for a in ("count", "load", "changes")))
    return seen, boundary, k.step_counts["net"]


@pytest.mark.parametrize("seed", range(20))
def test_event_driven_equals_stepping_every_grid_time(seed):
    seen, boundary, steps = toy_network_run(seed, event_driven=True)
    ref_seen, ref_boundary, ref_steps = toy_network_run(seed, event_driven=False)
    assert seen == ref_seen
    assert boundary == ref_boundary
    assert any(x for _, x in seen["plain_out"])
    assert steps < ref_steps
