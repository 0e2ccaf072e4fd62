import math

import pytest

from analyse.grid import (
    Bus,
    GridModel,
    GridModelError,
    Line,
    Load,
    GridState,
    SensitivityError,
    Sgen,
    power_balance_residual,
    solve_power_flow,
    total_losses_mw,
    voltage_sensitivity,
)

from grids import ALL_BUNDLED, chain6, feeder4, mesh5, two_bus
from oracles import gauss_seidel_solve, gs_slack_injection, onesided_sensitivity


def test_model_invariants():
    with pytest.raises(GridModelError, match="slack"):
        GridModel(10.0, (Bus(1), Bus(2)), (Line(1, 2, 0.01, 0.02),)).validate()
    with pytest.raises(GridModelError, match="x_pu"):
        GridModel(10.0, (Bus(1, "slack"), Bus(2)), (Line(1, 2, 0.01, 0.0),)).validate()
    with pytest.raises(GridModelError, match="not connected"):
        GridModel(
            10.0, (Bus(1, "slack"), Bus(2), Bus(3)), (Line(1, 2, 0.01, 0.02),)
        ).validate()
    with pytest.raises(GridModelError, match="outside"):
        GridModel(
            10.0, (Bus(1, "slack"), Bus(2)), (Line(1, 2, 0.01, 0.02),),
            sgens=(Sgen(2, 0.0, 2.0, -1.0, 1.0),),
        ).validate()


def test_flat_no_load_network():
    model = GridModel(
        10.0,
        (Bus(1, "slack", 1.0), Bus(2), Bus(3)),
        (Line(1, 2, 0.01, 0.03), Line(2, 3, 0.01, 0.03)),
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
    obs = model.bus_index(observed_bus)
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
    slack = model.buses[model.slack_index].bus_id
    pq = [b.bus_id for b in model.buses if b.bus_id != slack]
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
    nose = GridState((1.0, 0.5), (0.0, 0.0), (0.0,), 0.0, 0.0, True, 1, 0.0)
    with pytest.raises(SensitivityError, match="singular"):
        voltage_sensitivity(two_bus(), nose, 2)


def test_with_injection_appends_sgen():
    model = two_bus()
    bigger = model.with_injection(2, -0.7)
    assert len(bigger.sgens) == len(model.sgens) + 1
    assert bigger.sgens[-1].q_mvar == -0.7
    bigger.validate()
