import collections
import dataclasses
import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest

import analyse.grid
from analyse.grid import (
    Bus,
    GridModel,
    Line,
    Load,
    GridState,
    MAX_ITERATIONS,
    MEMO_FLOATS,
    MEMO_MIN,
    SensitivityError,
    Sgen,
    solve_power_flow,
    voltage_sensitivity,
)

from grids import (
    ALL_BUNDLED, chain6, eager_flows, feeder4, mesh5, power_balance_residual,
    reference_jacobian, total_losses_mw, two_bus,
)
from oracles import gauss_seidel_solve, gs_slack_injection, onesided_sensitivity


def test_flat_no_load_network():
    model = GridModel(
        10.0,
        (Bus(1, "slack", 1.0), Bus(2), Bus(3)),
        (Line(1, 2, 0.01, 0.03, 0.0, 1.0), Line(2, 3, 0.01, 0.03, 0.0, 1.0)),
        (),
    )
    state = solve_power_flow(model)
    assert state.converged
    assert state.vm == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert state.va == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert state.slack_p_mw == pytest.approx(0.0, abs=1e-7)


def test_two_bus_against_frozen_oracle_values():
    # Frozen from the Gauss-Seidel oracle (tol 1e-10): slack 1.0 pu feeding
    # p=0.5 pu over x=0.1 pu.
    state = solve_power_flow(two_bus(0.5, 0.0))
    assert state.converged
    assert state.vm[1] == pytest.approx(0.9987460731, abs=1e-6)
    assert state.slack_p_mw == pytest.approx(5.0, abs=1e-5)
    assert state.slack_q_mvar == pytest.approx(0.2506281446, abs=1e-5)


def test_feeder4_peak_matches_frozen_oracle_vector():
    # Frozen Gauss-Seidel solution of the reference feeder at scale 4.0.
    expected = (1.0, 0.9679656217, 0.9470055187, 0.9366577055)
    state = solve_power_flow(feeder4(4.0))
    assert state.converged
    for got, want in zip(state.vm, expected):
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("name", sorted(ALL_BUNDLED))
def test_newton_matches_gauss_seidel_oracle(name):
    model = ALL_BUNDLED[name]()
    state = solve_power_flow(model)
    assert state.converged, name
    vm, va, ok = gauss_seidel_solve(model)
    assert ok, f"oracle did not converge on {name}"
    for got, want in zip(state.vm, vm):
        assert abs(got - want) < 1e-6
    assert power_balance_residual(model, state) < 1e-8


@pytest.mark.parametrize("name", sorted(ALL_BUNDLED))
def test_slack_balances_and_losses_nonnegative(name):
    model = ALL_BUNDLED[name]()
    state = solve_power_flow(model)
    losses = total_losses_mw(model, state)
    total_load = sum(l.p_mw for l in model.loads)
    total_gen = sum(s.p_mw for s in model.sgens)
    residual = state.slack_p_mw - (total_load - total_gen + losses)
    assert abs(residual) / model.base_mva < 1e-6
    assert losses >= 0.0
    oracle_p, oracle_q = gs_slack_injection(model, vm=state.vm, va=state.va)
    assert state.slack_p_mw == pytest.approx(oracle_p, abs=1e-6)
    assert state.slack_q_mvar == pytest.approx(oracle_q, abs=1e-6)


def test_monotone_voltage_drop_with_load():
    light = solve_power_flow(feeder4(1.0))
    heavy = solve_power_flow(feeder4(2.5))
    for i in range(1, 4):  # all downstream buses
        assert heavy.vm[i] < light.vm[i]


def test_nonconvergence_is_reported_not_raised():
    state = solve_power_flow(feeder4(40.0))  # far beyond the nose point
    assert not state.converged
    assert state.iterations >= 1
    assert len(state.vm) == 4  # last iterate is still reported


def test_line_loading_from_pi_model():
    model = two_bus(0.5, 0.0)
    state = solve_power_flow(model)
    # |S| at the sending end is slightly above the 5 MW load (line Q), and
    # the rating is 10 MVA.
    assert 0.5 < state.line_loading[0] < 0.53


def central_difference_sensitivity(model, observed_bus, injection_bus):
    """d vm(observed) / d Q(injection) in pu per Mvar from two Newton solves
    with +/- 1e-4 * base_mva Mvar injected at the injection bus."""
    delta = 1e-4 * model.base_mva
    obs = [b.bus_id for b in model.buses].index(observed_bus)
    plus = solve_power_flow(model.with_injection(injection_bus, +delta))
    minus = solve_power_flow(model.with_injection(injection_bus, -delta))
    assert plus.converged and minus.converged
    return (plus.vm[obs] - minus.vm[obs]) / (2.0 * delta)


def test_sensitivity_zero_at_slack():
    model = feeder4(3.8)
    state = solve_power_flow(model)
    assert voltage_sensitivity(model, state, 4)[1] == 0.0
    assert voltage_sensitivity(model, state, 1) == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}


def test_sensitivity_positive_at_feeder_end():
    model = feeder4(3.8)
    state = solve_power_flow(model)
    assert voltage_sensitivity(model, state, 4)[4] > 0.0


@pytest.mark.parametrize("model", [feeder4(3.8), chain6(2.0), mesh5()],
                         ids=["feeder4", "chain6", "mesh5"])
def test_sensitivity_row_matches_central_difference(model):
    state = solve_power_flow(model)
    pq = [b.bus_id for b in model.buses if b.kind != "slack"]
    for observed in pq:
        row = voltage_sensitivity(model, state, observed)
        assert set(row) == {b.bus_id for b in model.buses}
        for injection in pq:
            want = central_difference_sensitivity(model, observed, injection)
            assert row[injection] == pytest.approx(want, rel=1e-6)


def test_sensitivity_matrix_matches_onesided_oracle():
    model = feeder4(3.8)
    state = solve_power_flow(model)
    for observed in (2, 3, 4):
        row = voltage_sensitivity(model, state, observed)
        for injection in (2, 3, 4):
            want = onesided_sensitivity(model, observed, injection)
            assert row[injection] == pytest.approx(want, rel=0.10)


def test_sensitivity_needs_a_converged_regular_state():
    model = feeder4(40.0)
    state = solve_power_flow(model)
    assert not state.converged
    with pytest.raises(SensitivityError, match="converge"):
        voltage_sensitivity(model, state, 4)
    # On a lossless line, |V2| = 0.5 pu in phase with the slack is the nose
    # point: dQ2/d|V2| = 20 |V2| - 10 cos(va2) = 0 and dP2/d|V2| = 0.
    nose = GridState(vm=(1.0, 0.5), va=(0.0, 0.0), converged=True, iterations=1,
                     max_mismatch_pu=0.0)
    with pytest.raises(SensitivityError, match="singular"):
        voltage_sensitivity(two_bus(), nose, 2)


def test_with_injection_appends_sgen():
    model = two_bus()
    bigger = model.with_injection(2, -0.7)
    assert len(bigger.sgens) == len(model.sgens) + 1
    assert bigger.sgens[-1].q_mvar == -0.7


def random_injections(model, rng, load_scale):
    """Loads scaled by one factor in [0, load_scale) and each sgen q drawn
    within its limits, on the model's own topology."""
    factor = rng.uniform(0.0, load_scale)
    loads = tuple(Load(l.bus, l.p_mw * factor, l.q_mvar * factor) for l in model.loads)
    sgens = tuple(
        Sgen(s.bus, s.p_mw, rng.uniform(s.q_min_mvar, s.q_max_mvar), s.q_min_mvar, s.q_max_mvar)
        for s in model.sgens
    )
    return model.with_injections(loads, sgens)


def lighter_neighbour(model, rng):
    """Each load scaled by its own factor in [0.85, 1], each sgen q moved by
    up to 0.1 Mvar within its limits: a nearby injection set that converges
    a little past the target's last converging load."""
    loads = tuple(
        Load(l.bus, l.p_mw * rng.uniform(0.85, 1.0), l.q_mvar * rng.uniform(0.85, 1.0))
        for l in model.loads
    )
    sgens = tuple(
        Sgen(s.bus, s.p_mw, min(max(s.q_mvar + rng.uniform(-0.1, 0.1), s.q_min_mvar),
                                s.q_max_mvar), s.q_min_mvar, s.q_max_mvar)
        for s in model.sgens
    )
    return model.with_injections(loads, sgens)


# Loads are drawn up to about 1.25 times the last load factor that converges
# on each grid, so some cases fail from both starts.
LOAD_SCALES = {"two_bus": 12.5, "feeder4": 19.0, "chain6": 7.5, "mesh5": 3.4}


@pytest.mark.parametrize("name", sorted(LOAD_SCALES))
def test_warm_start_matches_flat_start_on_random_injections(name):
    rng = random.Random(f"warm-{name}")
    base = ALL_BUNDLED[name]()
    outcomes = []
    while len(outcomes) < 60:
        target = random_injections(base, rng, LOAD_SCALES[name])
        neighbour = solve_power_flow(lighter_neighbour(target, rng))
        if not neighbour.converged:
            continue
        cold = solve_power_flow(target)
        warm = solve_power_flow(target, neighbour)
        assert warm.converged == cold.converged
        outcomes.append(cold.converged)
        for got, want in zip(warm.vm + warm.va, cold.vm + cold.va):
            assert abs(got - want) <= 1e-7
    assert 0 < outcomes.count(False) < 30


def test_warm_start_that_fails_is_retried_flat():
    # The nose-point solution of the two-bus grid is a converged state from
    # which Newton-Raphson runs away on a light load.
    nose = solve_power_flow(two_bus(5.0))
    assert nose.converged
    target = two_bus(0.5)
    cold = solve_power_flow(target)
    warm = solve_power_flow(target, nose)
    assert cold.converged and warm.converged
    assert (warm.vm, warm.va, warm.line_loading) == (cold.vm, cold.va, cold.line_loading)
    assert warm.iterations == MAX_ITERATIONS + cold.iterations


@pytest.mark.parametrize("p_pu", [4.95, 4.99])
def test_warm_start_that_converges_to_another_root_is_retried_flat(p_pu):
    # From a start near the nose point, Newton-Raphson on a light load
    # converges to the low-voltage root (p = 4.95) or to the right voltages
    # with every angle shifted by 2 pi (p = 4.99).
    near_nose = solve_power_flow(two_bus(p_pu))
    assert near_nose.converged
    target = two_bus(0.1)
    cold = solve_power_flow(target)
    warm = solve_power_flow(target, near_nose)
    assert cold.converged and warm.converged
    assert (warm.vm, warm.va) == (cold.vm, cold.va)
    assert warm.iterations > cold.iterations  # both attempts are counted


def fresh_topology(model):
    """An equal model that shares neither the compiled topology nor the memo."""
    return GridModel(model.base_mva, model.buses, model.lines, model.loads, model.sgens)


def seeded_states(name, rng, count):
    """Solved states of the named grid over random injections, warm and cold,
    converged or not, with the model each was solved on."""
    base = ALL_BUNDLED[name]()
    states = []
    while len(states) < count:
        target = random_injections(base, rng, LOAD_SCALES[name])
        states.append((target, solve_power_flow(target)))
        neighbour = solve_power_flow(lighter_neighbour(target, rng))
        if neighbour.converged:
            states.append((target, solve_power_flow(target, neighbour)))
    return states


@pytest.mark.parametrize("name", sorted(LOAD_SCALES))
def test_lazy_flows_equal_the_eager_expressions_bit_for_bit(name):
    for model, state in seeded_states(name, random.Random(f"flows-{name}"), 60):
        loading, slack_p, slack_q = eager_flows(model, state)
        assert state.line_loading == loading
        assert (state.slack_p_mw, state.slack_q_mvar) == (slack_p, slack_q)
        if state.converged:
            assert np.array_equal(state.jacobian, reference_jacobian(model, state))


@pytest.mark.parametrize("name", sorted(LOAD_SCALES))
def test_warm_start_reusing_its_jacobian_equals_a_start_without_solver_arrays(name):
    rng = random.Random(f"reuse-{name}")
    base = ALL_BUNDLED[name]()
    reused = 0
    for _ in range(40):
        target = random_injections(base, rng, LOAD_SCALES[name])
        start = solve_power_flow(lighter_neighbour(target, rng))
        if not start.converged:
            continue
        bare = GridState(vm=start.vm, va=start.va, converged=True,
                         iterations=start.iterations, max_mismatch_pu=start.max_mismatch_pu)
        warm = solve_power_flow(target, start)
        want = solve_power_flow(fresh_topology(target), bare)  # not a repeat of warm
        reused += "jacobian" in vars(start)
        assert warm == want
        assert (warm.line_loading, warm.slack_p_mw, warm.slack_q_mvar) == (
            want.line_loading, want.slack_p_mw, want.slack_q_mvar)
        assert np.array_equal(warm.v, want.v) and np.array_equal(warm.ip, want.ip)
    assert reused >= 20


def test_sensitivity_then_resolve_builds_one_jacobian(monkeypatch):
    model = feeder4(3.8)
    state = solve_power_flow(model)
    built = []
    jacobian = analyse.grid._jacobian
    monkeypatch.setattr(analyse.grid, "_jacobian",
                        lambda *args: built.append(args) or jacobian(*args))
    row = voltage_sensitivity(model, state, 4)
    assert voltage_sensitivity(model, state, 3) != row  # same state, no new Jacobian
    assert len(built) == 1
    resolved = solve_power_flow(model.with_injection(4, 0.5), state)
    assert resolved.converged and resolved.iterations >= 2
    # The start's Jacobian serves iteration 0; each later step builds one.
    assert len(built) == resolved.iterations


def test_start_must_be_a_converged_state_of_the_same_buses():
    model = feeder4(40.0)
    diverged = solve_power_flow(model)
    with pytest.raises(ValueError, match="converged"):
        solve_power_flow(feeder4(), diverged)
    with pytest.raises(ValueError, match="converged"):
        solve_power_flow(feeder4(), solve_power_flow(two_bus()))


def test_sibling_shares_the_compiled_topology():
    base = feeder4(3.8)
    sibling = base.with_injections(base.loads, base.sgens[:2])
    assert sibling.compiled is base.compiled
    assert base.with_injection(4, 0.5).compiled is base.compiled
    fresh = feeder4(3.8)
    assert fresh.compiled is not base.compiled
    state = solve_power_flow(sibling)
    assert state == solve_power_flow(GridModel(
        fresh.base_mva, fresh.buses, fresh.lines, fresh.loads, fresh.sgens[:2]))
    assert voltage_sensitivity(sibling, state, 4) == voltage_sensitivity(fresh, state, 4)


def bits(values) -> bytes:
    return np.asarray(values).tobytes()


def assert_same_bits(got, want, model, fresh):
    """Every value of got equals want's bit for bit: the solve, the solver's
    arrays, the flows, the Jacobian and each sensitivity row."""
    assert (got.converged, got.iterations, got.singular) == (
        want.converged, want.iterations, want.singular)
    for name in ("vm", "va", "max_mismatch_pu", "v", "ip", "line_loading",
                 "slack_p_mw", "slack_q_mvar", "jacobian"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    if got.converged:
        for bus in model.buses:
            assert voltage_sensitivity(model, got, bus.bus_id) == voltage_sensitivity(
                fresh, want, bus.bus_id)


@pytest.mark.parametrize("name", sorted(LOAD_SCALES))
def test_a_repeat_equals_a_fresh_solve_on_a_fresh_topology_bit_for_bit(name):
    rng = random.Random(f"memo-{name}")
    base = ALL_BUNDLED[name]()
    seen = collections.Counter()
    for n in range(40):
        target = random_injections(base, rng, LOAD_SCALES[name])
        same = base.with_injections(target.loads, target.sgens)  # equal injections
        named = base.with_injections(  # names and profile keys are no part of the key
            tuple(l._replace(name=f"load{i}", profile="day") for i, l in enumerate(target.loads)),
            tuple(s._replace(name=f"sgen{i}") for i, s in enumerate(target.sgens)))
        fresh = fresh_topology(target)
        first = solve_power_flow(target)
        assert solve_power_flow(same) is first  # a flat start
        assert solve_power_flow(named) is first
        assert_same_bits(first, solve_power_flow(fresh), same, fresh)
        seen["diverged" if not first.converged else "flat"] += 1
        made = solve_power_flow(lighter_neighbour(target, rng))
        if not made.converged:
            continue
        bare = GridState(vm=made.vm, va=made.va, converged=True,
                         iterations=made.iterations, max_mismatch_pu=made.max_mismatch_pu)
        # Whichever start comes first fills the memo; the other one hits it.
        first_start, repeat_start = (made, bare) if n % 2 else (bare, made)
        warm = solve_power_flow(target, first_start)
        if n % 3 == 0:  # a repeat also hands out the flows, Jacobian and rows computed so far
            warm.line_loading, warm.slack_p_mw
            if warm.converged:
                voltage_sensitivity(target, warm, target.buses[-1].bus_id)
        assert solve_power_flow(same, repeat_start) is warm
        assert solve_power_flow(named, repeat_start) is warm
        fresh = fresh_topology(target)
        assert_same_bits(warm, solve_power_flow(fresh, repeat_start), same, fresh)
        seen["solver-made" if repeat_start is made else "hand-built"] += 1
    assert min(seen[k] for k in ("flat", "diverged", "solver-made", "hand-built")) >= 3, seen


def test_a_singular_repeat_equals_a_fresh_solve():
    # A line charging of 10 pu zeroes the second column of the flat Jacobian.
    model = GridModel(10.0, (Bus(1, "slack", 1.0), Bus(2)), (Line(1, 2, 0.0, 0.1, 10.0, 1.0),),
                      loads=(Load(2, 1.0, 0.0),))
    first = solve_power_flow(model)
    assert first.singular and not first.converged
    assert solve_power_flow(model.with_injections(model.loads, ())) is first
    fresh = fresh_topology(model)
    assert_same_bits(first, solve_power_flow(fresh), model, fresh)


class CountingNumpy:
    """Stands in for the grid module's numpy and records each attribute read."""

    def __init__(self):
        self.reads = []

    def __getattr__(self, name):
        self.reads.append(name)
        return getattr(np, name)


def test_a_repeat_makes_no_numpy_call(monkeypatch):
    base = feeder4(3.8)
    start = solve_power_flow(base)
    first = (solve_power_flow(base.with_injection(4, 0.5)),
             solve_power_flow(base.with_injection(4, 0.5), start))
    counting = CountingNumpy()
    monkeypatch.setattr(analyse.grid, "np", counting)
    # an equal trial model, built again, hits the memo with and without a start
    assert solve_power_flow(base.with_injection(4, 0.5)) is first[0]
    assert solve_power_flow(base.with_injection(4, 0.5), start) is first[1]
    assert counting.reads == []
    solve_power_flow(base.with_injection(4, 0.6), start)  # a miss goes through the proxy
    assert counting.reads


def with_load(model, index, **changes):
    loads = list(model.loads)
    loads[index] = loads[index]._replace(**changes)
    return model.with_injections(tuple(loads), model.sgens)


def test_signed_zeros_and_nans_share_a_solve_only_where_a_fresh_solve_has_the_same_bits():
    base = feeder4(3.8)
    start = solve_power_flow(base)
    hand = [GridState(vm=start.vm, va=(zero,) + start.va[1:], converged=True, iterations=1,
                      max_mismatch_pu=0.0) for zero in (0.0, -0.0, -0.0)]
    sgens = base.sgens[:3]
    cases = [  # (model, start), two alike in each pair but for a zero's sign or a NaN's object
        (with_load(base, 0, q_mvar=0.0), None), (with_load(base, 0, q_mvar=-0.0), None),
        (with_load(base, 1, p_mw=-0.0), start), (with_load(base, 1, p_mw=0.0), start),
        (base.with_injections(base.loads, sgens + (Sgen(4, -0.0, -0.0, -1.2, 1.2),)), None),
        (base.with_injections(base.loads, sgens + (Sgen(4, 0.0, 0.0, -1.2, 1.2),)), None),
        (with_load(base, 2, p_mw=float("nan")), None),
        (with_load(base, 2, p_mw=float("nan")), None),
        (base, hand[0]), (base, hand[1]), (base, hand[2]),
    ]
    with np.errstate(invalid="ignore"):  # the NaN flows
        got = [solve_power_flow(model, s) for model, s in cases]
        want = []
        for (model, s), state in zip(cases, got):
            fresh = fresh_topology(model)
            want.append(solve_power_flow(fresh, s))
            assert_same_bits(state, want[-1], model, fresh)
        for i, j in itertools.combinations(range(len(cases)), 2):
            if got[i] is got[j]:  # one memo entry: a fresh solve must give the same bits
                assert_same_bits(want[i], want[j], cases[i][0], cases[j][0])
    shared = [got[i] is got[i + 1] for i in range(0, 10, 2)] + [got[9] is got[10]]
    # the zeros sum to +0.0 either way; NaNs never equal; start bytes keep the sign
    assert shared == [True, True, True, False, False, True]
    assert solve_power_flow(cases[6][0]) is got[6]  # the same NaN object is a repeat


def test_the_memo_keeps_the_newest_solves_up_to_its_bound():
    assert feeder4().compiled.memo_max == MEMO_FLOATS // 36 == 910
    assert two_bus().compiled.memo_max == MEMO_FLOATS // 4
    chain32 = GridModel(10.0, (Bus(1, "slack", 1.0),) + tuple(Bus(b) for b in range(2, 33)),
                        tuple(Line(b, b + 1, 0.001, 0.002, 0.0, 1.0) for b in range(1, 32)),
                        loads=(Load(32, 0.0, 0.0),))
    assert chain32.compiled.memo_max == MEMO_MIN
    for base, count in ((chain32, 30), (feeder4(), 1000)):
        loaded = [base.with_injections((Load(base.buses[-1].bus_id, 0.001 * i, 0.0),), ())
                  for i in range(count)]
        states = [solve_power_flow(model) for model in loaded]
        memo = base._solves
        assert len(memo) == base.compiled.memo_max < count
        assert list(memo.values()) == states[-len(memo):]  # the oldest went first
        assert solve_power_flow(loaded[-1]) is states[-1]
        again = solve_power_flow(loaded[0])  # evicted: solved anew, to the same bits
        assert again is not states[0] and again == states[0]
        assert len(memo) == base.compiled.memo_max


def test_a_repeat_still_raises_what_a_first_solve_raises():
    base = feeder4(3.8)
    start = solve_power_flow(base)
    within = base.with_injections(base.loads, (Sgen(3, 0.0, 1.0, -1.2, 1.2),))
    for _ in range(2):
        solve_power_flow(within)
        solve_power_flow(within, start)
        with pytest.raises(ValueError, match="converged"):  # the same vm and va as start
            solve_power_flow(within, dataclasses.replace(start, converged=False))


def test_a_dropped_model_frees_its_topology_without_the_cycle_collector():
    gc.disable()
    try:
        model = feeder4(3.8)
        state = solve_power_flow(model)
        voltage_sensitivity(model, state, 4)
        state.line_loading, state.slack_p_mw
        sibling = model.with_injection(4, 0.5)
        assert solve_power_flow(sibling, state).converged
        topology = weakref.ref(model.compiled)
        del model, sibling, state
        assert topology() is None
    finally:
        gc.enable()


def test_shared_states_cannot_be_changed_by_a_caller():
    model = feeder4(3.8)
    state = solve_power_flow(model)
    for name in ("v", "ip", "jacobian"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(state, name)[0] = 0.0
    row = voltage_sensitivity(model, state, 4)
    want = dict(row)
    row[3] = 99.0
    again = voltage_sensitivity(model, state, 4)
    assert again == want and again is not row
    assert voltage_sensitivity(model, state, 1) is not voltage_sensitivity(model, state, 1)
