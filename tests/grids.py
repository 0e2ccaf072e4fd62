"""Bundled small grids shared across the test suite (all <= 6 buses), and
checks of a solved state that the solver itself does not need."""

from __future__ import annotations

import numpy as np

from analyse.grid import Bus, GridModel, GridState, Line, Load, Sgen
from oracles import gs_injections, gs_ybus


def two_bus(p_pu: float = 0.5, q_pu: float = 0.0) -> GridModel:
    """Slack feeding one PQ load over a purely reactive line (r=0, x=0.1)."""
    base = 10.0
    return GridModel(
        base_mva=base,
        buses=(Bus(1, "slack", 1.0), Bus(2)),
        lines=(Line(1, 2, 0.0, 0.1, 0.0, 10.0),),
        loads=(Load(2, p_pu * base, q_pu * base),),
    )


def feeder4(scale: float = 1.0, pv_q: tuple[float, float, float, float] = (0, 0, 0, 0)) -> GridModel:
    """The reference radial feeder: buses 1-2-3-4, two PV assets per load bus."""
    sgens = (
        Sgen(3, 0.0, pv_q[0], -1.2, 1.2),
        Sgen(3, 0.0, pv_q[1], -1.2, 1.2),
        Sgen(4, 0.0, pv_q[2], -1.2, 1.2),
        Sgen(4, 0.0, pv_q[3], -1.2, 1.2),
    )
    return GridModel(
        base_mva=10.0,
        buses=(Bus(1, "slack", 1.0), Bus(2), Bus(3), Bus(4)),
        lines=(
            Line(1, 2, 0.01, 0.03, 0.0, 5.0),
            Line(2, 3, 0.01, 0.03, 0.0, 5.0),
            Line(3, 4, 0.01, 0.03, 0.0, 5.0),
        ),
        loads=tuple(Load(b, 1.2 * scale, 0.4 * scale) for b in (2, 3, 4)),
        sgens=sgens,
    )


def mesh5() -> GridModel:
    """Five buses with a loop and a shunt-charged line."""
    return GridModel(
        base_mva=10.0,
        buses=(Bus(1, "slack", 1.02), Bus(2), Bus(3), Bus(4), Bus(5)),
        lines=(
            Line(1, 2, 0.02, 0.06, 0.02, 8.0),
            Line(1, 3, 0.08, 0.24, 0.02, 6.0),
            Line(2, 3, 0.06, 0.18, 0.01, 6.0),
            Line(2, 4, 0.06, 0.18, 0.01, 6.0),
            Line(2, 5, 0.04, 0.12, 0.01, 6.0),
            Line(3, 4, 0.01, 0.03, 0.0, 6.0),
            Line(4, 5, 0.08, 0.24, 0.02, 6.0),
        ),
        loads=(Load(2, 2.0, 1.0), Load(3, 4.5, 1.5), Load(4, 4.0, 0.5), Load(5, 6.0, 1.0)),
        sgens=(Sgen(3, 2.0, 0.0, -2.0, 2.0),),
    )


def chain6(scale: float = 1.0) -> GridModel:
    """Six-bus radial chain with mixed impedances and a mid-feeder generator."""
    return GridModel(
        base_mva=10.0,
        buses=(Bus(1, "slack", 1.0), Bus(2), Bus(3), Bus(4), Bus(5), Bus(6)),
        lines=(
            Line(1, 2, 0.01, 0.03, 0.0, 6.0),
            Line(2, 3, 0.02, 0.05, 0.01, 6.0),
            Line(3, 4, 0.01, 0.04, 0.0, 6.0),
            Line(4, 5, 0.03, 0.06, 0.01, 6.0),
            Line(5, 6, 0.01, 0.02, 0.0, 6.0),
        ),
        loads=tuple(Load(b, 0.9 * scale, 0.3 * scale) for b in (2, 3, 4, 5, 6)),
        sgens=(Sgen(4, 1.0, 0.2, -1.0, 1.0),),
    )


ALL_BUNDLED = {
    "two_bus": two_bus,
    "feeder4": feeder4,
    "mesh5": mesh5,
    "chain6": chain6,
}


def _voltages(state: GridState) -> np.ndarray:
    return np.array(state.vm) * np.exp(1j * np.array(state.va))


def power_balance_residual(model: GridModel, state: GridState) -> float:
    """Max |scheduled - calculated| injection over non-slack buses, in pu.

    Re-evaluated from vm/va with the oracle's own admittance matrix and
    injections, independent of the solver's mismatch bookkeeping.
    """
    v = _voltages(state)
    ds = np.array(gs_injections(model)) - v * np.conj(np.array(gs_ybus(model)) @ v)
    keep = [i for i, b in enumerate(model.buses) if b.kind != "slack"]
    if not keep:
        return 0.0
    return float(np.max(np.abs(np.concatenate([ds.real[keep], ds.imag[keep]]))))


def total_losses_mw(model: GridModel, state: GridState) -> float:
    """Real power lost in the lines, summed line by line from the pi model, in MW."""
    v = _voltages(state)
    index = {b.bus_id: i for i, b in enumerate(model.buses)}
    losses = 0.0
    for line in model.lines:
        vi, vj = v[index[line.from_bus]], v[index[line.to_bus]]
        y_series = 1.0 / complex(line.r_pu, line.x_pu)
        y_shunt = 1j * line.b_shunt_pu / 2.0
        s_from = vi * np.conj((vi - vj) * y_series + vi * y_shunt)
        s_to = vj * np.conj((vj - vi) * y_series + vj * y_shunt)
        losses += (s_from + s_to).real
    return float(losses * model.base_mva)


def eager_flows(model: GridModel, state: GridState) -> tuple[tuple[float, ...], float, float]:
    """(line_loading, slack_p_mw, slack_q_mvar) of a state, computed the way
    the solver computed them eagerly before they became lazy: the reference
    that the lazy values must match bit for bit."""
    grid = model.compiled
    vm, va = np.array(state.vm), np.array(state.va)
    v = vm * np.exp(1j * va)
    s_slack = v[grid.slack] * np.conj(grid.ybus[grid.slack] @ v) * grid.base_mva
    v_from, v_to = v[grid.line_from], v[grid.line_to]
    i_from = (v_from - v_to) * grid.y_series + v_from * grid.y_shunt
    i_to = (v_to - v_from) * grid.y_series + v_to * grid.y_shunt
    s_max = np.maximum(np.abs(v_from * np.conj(i_from)), np.abs(v_to * np.conj(i_to)))
    loadings = np.divide(s_max, grid.rating_pu, out=np.zeros_like(s_max),
                         where=grid.rating_pu > 0)
    return tuple(loadings.tolist()), float(s_slack.real), float(s_slack.imag)


def reference_jacobian(model: GridModel, state: GridState) -> np.ndarray:
    """The power-flow Jacobian at a state, assembled block by block as the
    solver did before it filled one complex block: the reference that the
    solver's Jacobian must match bit for bit."""
    grid = model.compiled
    vm = np.array(state.vm)
    v = vm * np.exp(1j * np.array(state.va))
    ip = grid.ybus_pq_rows @ v
    m = len(grid.pq)
    vp = v[grid.pq]
    vmp = vm[grid.pq]
    outer = vp[:, None] * np.conj(grid.ybus_pq * vp[None, :])
    ds_dva = -1j * outer
    ds_dvm = outer / vmp[None, :]
    diag = np.arange(m)
    ds_dva[diag, diag] += 1j * vp * np.conj(ip)
    ds_dvm[diag, diag] += np.conj(ip) * vp / vmp
    jac = np.empty((2 * m, 2 * m))
    jac[:m, :m] = ds_dva.real
    jac[:m, m:] = ds_dvm.real
    jac[m:, :m] = ds_dva.imag
    jac[m:, m:] = ds_dvm.imag
    return jac
