"""Minimal AC power-flow solver: one slack bus, PQ buses, pi-model lines.

Loads draw power, static generators (sgens) inject it; both are plain PQ
injections. The solver is Newton-Raphson in polar coordinates from a flat
start. Non-convergence is a reported state rather than an exception, because
attack scenarios intentionally push the grid toward infeasibility.

Voltage sensitivities are analytic: d|V|/dQ is read from the inverse of the
power-flow Jacobian at a converged state (the V-Q sensitivity of Kundur,
"Power System Stability and Control", 1994), one transposed solve per
observed bus. Newton-Raphson and the sensitivity build that Jacobian with the
same helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

TOL_PU = 1e-8  # Newton-Raphson converges below this max |dP|, |dQ|
MAX_ITERATIONS = 20


class GridModelError(Exception):
    pass


@dataclass(frozen=True)
class Bus:
    bus_id: int
    kind: str = "pq"  # "slack" or "pq"
    vm_setpoint_pu: float = 1.0


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    b_shunt_pu: float = 0.0  # total line charging, split half per end
    rating_mva: float = 1.0


@dataclass(frozen=True)
class Load:
    bus: int
    p_mw: float
    q_mvar: float = 0.0


@dataclass(frozen=True)
class Sgen:
    bus: int
    p_mw: float = 0.0
    q_mvar: float = 0.0
    q_min_mvar: float = 0.0
    q_max_mvar: float = 0.0


@dataclass(frozen=True)
class GridModel:
    base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[Load, ...] = ()
    sgens: tuple[Sgen, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "sgens", tuple(self.sgens))

    def validate(self) -> None:
        if self.base_mva <= 0:
            raise GridModelError("base_mva must be positive")
        ids = [b.bus_id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise GridModelError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise GridModelError(f"exactly one slack bus required, found {len(slacks)}")
        for b in self.buses:
            if b.kind not in ("slack", "pq"):
                raise GridModelError(f"bus {b.bus_id}: unknown kind {b.kind!r}")
        known = set(ids)
        for line in self.lines:
            if line.from_bus not in known or line.to_bus not in known:
                raise GridModelError(f"line {line.from_bus}-{line.to_bus}: unknown bus")
            if line.r_pu < 0:
                raise GridModelError(f"line {line.from_bus}-{line.to_bus}: r_pu < 0")
            if line.x_pu <= 0:
                raise GridModelError(f"line {line.from_bus}-{line.to_bus}: x_pu must be > 0")
        for item in list(self.loads) + list(self.sgens):
            if item.bus not in known:
                raise GridModelError(f"injection at unknown bus {item.bus}")
        for sg in self.sgens:
            if not (sg.q_min_mvar <= sg.q_mvar <= sg.q_max_mvar):
                raise GridModelError(
                    f"sgen at bus {sg.bus}: q={sg.q_mvar} outside "
                    f"[{sg.q_min_mvar}, {sg.q_max_mvar}]"
                )
        # Connectivity over the line graph.
        adjacency: dict[int, set[int]] = {i: set() for i in ids}
        for line in self.lines:
            adjacency[line.from_bus].add(line.to_bus)
            adjacency[line.to_bus].add(line.from_bus)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != known:
            raise GridModelError(f"grid is not connected; unreachable buses {sorted(known - seen)}")

    def bus_index(self, bus_id: int) -> int:
        for i, b in enumerate(self.buses):
            if b.bus_id == bus_id:
                return i
        raise GridModelError(f"unknown bus id {bus_id}")

    @property
    def slack_index(self) -> int:
        for i, b in enumerate(self.buses):
            if b.kind == "slack":
                return i
        raise GridModelError("no slack bus")

    def with_injection(self, bus: int, q_mvar: float, p_mw: float = 0.0) -> "GridModel":
        """Model with one extra sgen injection (used when testing offers)."""
        extra = Sgen(
            bus=bus,
            p_mw=p_mw,
            q_mvar=q_mvar,
            q_min_mvar=min(0.0, q_mvar),
            q_max_mvar=max(0.0, q_mvar),
        )
        return replace(self, sgens=self.sgens + (extra,))


@dataclass(frozen=True)
class GridState:
    vm: tuple[float, ...]  # per bus, model order, pu
    va: tuple[float, ...]  # per bus, rad; slack at 0
    line_loading: tuple[float, ...]  # per line, |S|max / rating
    slack_p_mw: float
    slack_q_mvar: float
    converged: bool
    iterations: int
    max_mismatch_pu: float
    singular: bool = False


def build_ybus(model: GridModel) -> np.ndarray:
    n = len(model.buses)
    index = {b.bus_id: i for i, b in enumerate(model.buses)}
    ybus = np.zeros((n, n), dtype=complex)
    for line in model.lines:
        i, j = index[line.from_bus], index[line.to_bus]
        y_series = 1.0 / complex(line.r_pu, line.x_pu)
        y_shunt = 1j * line.b_shunt_pu / 2.0
        ybus[i, i] += y_series + y_shunt
        ybus[j, j] += y_series + y_shunt
        ybus[i, j] -= y_series
        ybus[j, i] -= y_series
    return ybus


def specified_injections(model: GridModel) -> np.ndarray:
    """Net scheduled complex power per bus in pu (generation minus load)."""
    n = len(model.buses)
    index = {b.bus_id: i for i, b in enumerate(model.buses)}
    s = np.zeros(n, dtype=complex)
    for load in model.loads:
        s[index[load.bus]] -= complex(load.p_mw, load.q_mvar)
    for sg in model.sgens:
        s[index[sg.bus]] += complex(sg.p_mw, sg.q_mvar)
    return s / model.base_mva


def _line_flows(model: GridModel, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-line loading fraction and total series losses (pu) from the pi model."""
    index = {b.bus_id: i for i, b in enumerate(model.buses)}
    loadings = np.zeros(len(model.lines))
    losses = 0.0
    for k, line in enumerate(model.lines):
        i, j = index[line.from_bus], index[line.to_bus]
        y_series = 1.0 / complex(line.r_pu, line.x_pu)
        y_shunt = 1j * line.b_shunt_pu / 2.0
        i_from = (v[i] - v[j]) * y_series + v[i] * y_shunt
        i_to = (v[j] - v[i]) * y_series + v[j] * y_shunt
        s_from = v[i] * np.conj(i_from)
        s_to = v[j] * np.conj(i_to)
        rating_pu = line.rating_mva / model.base_mva
        loadings[k] = max(abs(s_from), abs(s_to)) / rating_pu if rating_pu > 0 else 0.0
        losses += (s_from + s_to).real
    return loadings, losses


def _jacobian(ybus: np.ndarray, v: np.ndarray, vm: np.ndarray, pq_ix) -> np.ndarray:
    """d[P; Q] / d[va; vm] over the PQ buses, as one (2m, 2m) real array.

    From the complex power derivatives dS/dVa = j diag(V) conj(diag(I) - Y
    diag(V)) and dS/dVm = diag(V) conj(Y diag(V/|V|)) + conj(diag(I))
    diag(V/|V|), restricted to the rows and columns in pq_ix (an np.ix_ pair).
    """
    rows = pq_ix[0][:, 0]
    m = len(rows)
    vp = v[rows]
    vmp = vm[rows]
    ip = (ybus @ v)[rows]
    # diag(V) conj(Y diag(V)) on the PQ block; its columns scaled by 1/|V|
    # give the off-diagonal part of dS/dVm.
    outer = vp[:, None] * np.conj(ybus[pq_ix] * vp[None, :])
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


def solve_power_flow(model: GridModel) -> GridState:
    """Newton-Raphson in polar coordinates from a flat start.

    Converged means max |dP|, |dQ| < TOL_PU at every non-slack bus within
    MAX_ITERATIONS. On a singular Jacobian the state is returned with
    singular=True and the last iterate.
    """
    model.validate()
    n = len(model.buses)
    slack = model.slack_index
    pq = [i for i in range(n) if i != slack]
    pq_ix = np.ix_(pq, pq)
    m = len(pq)
    ybus = build_ybus(model)
    s_spec = specified_injections(model)

    vm = np.ones(n)
    vm[slack] = model.buses[slack].vm_setpoint_pu
    va = np.zeros(n)

    singular = False
    converged = False
    iterations = 0
    mismatch_max = float("inf")

    for iterations in range(MAX_ITERATIONS + 1):
        v = vm * np.exp(1j * va)
        ds = (s_spec - v * np.conj(ybus @ v))[pq]
        mis = np.concatenate([ds.real, ds.imag])
        mismatch_max = float(np.max(np.abs(mis))) if mis.size else 0.0
        if mismatch_max < TOL_PU:
            converged = True
            break
        if iterations == MAX_ITERATIONS:
            break
        try:
            dx = np.linalg.solve(_jacobian(ybus, v, vm, pq_ix), mis)
        except np.linalg.LinAlgError:
            singular = True
            break
        if not np.all(np.isfinite(dx)):
            singular = True
            break
        va[pq] += dx[:m]
        vm[pq] += dx[m:]

    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(ybus @ v)
    loadings, _ = _line_flows(model, v)
    return GridState(
        vm=tuple(float(x) for x in vm),
        va=tuple(float(x) for x in va),
        line_loading=tuple(float(x) for x in loadings),
        slack_p_mw=float(s_calc[slack].real * model.base_mva),
        slack_q_mvar=float(s_calc[slack].imag * model.base_mva),
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch_max,
        singular=singular,
    )


def power_balance_residual(model: GridModel, state: GridState) -> float:
    """Max |scheduled - calculated| injection over non-slack buses, in pu.

    Re-evaluated directly from vm/va and the admittance matrix, independent
    of the solver's own mismatch bookkeeping.
    """
    v = np.array(state.vm) * np.exp(1j * np.array(state.va))
    s_calc = v * np.conj(build_ybus(model) @ v)
    ds = specified_injections(model) - s_calc
    slack = model.slack_index
    keep = [i for i in range(len(model.buses)) if i != slack]
    if not keep:
        return 0.0
    return float(np.max(np.abs(np.concatenate([ds.real[keep], ds.imag[keep]]))))


def total_losses_mw(model: GridModel, state: GridState) -> float:
    v = np.array(state.vm) * np.exp(1j * np.array(state.va))
    _, losses = _line_flows(model, v)
    return float(losses * model.base_mva)


class SensitivityError(Exception):
    """No voltage sensitivity exists: the state did not converge or its
    Jacobian is singular."""


def voltage_sensitivity(
    model: GridModel,
    state: GridState,
    observed_bus: int,
) -> dict[int, float]:
    """d vm(observed_bus) / d Q(j) in pu per Mvar, for every bus id j.

    One row of the inverse Jacobian at the converged state, from a single
    transposed solve J^T y = e_vm(observed). Injections at the slack bus, and
    every injection when the slack bus is observed, give 0.0.
    """
    if not state.converged:
        raise SensitivityError("state did not converge")
    row = {b.bus_id: 0.0 for b in model.buses}
    slack = model.slack_index
    obs = model.bus_index(observed_bus)
    if obs == slack:
        return row
    pq = [i for i in range(len(model.buses)) if i != slack]
    m = len(pq)
    vm = np.array(state.vm)
    v = vm * np.exp(1j * np.array(state.va))
    jac = _jacobian(build_ybus(model), v, vm, np.ix_(pq, pq))
    e_obs = np.zeros(2 * m)
    e_obs[m + pq.index(obs)] = 1.0
    try:
        y = np.linalg.solve(jac.T, e_obs)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError("singular Jacobian") from exc
    if not np.all(np.isfinite(y)):
        raise SensitivityError("singular Jacobian")
    for k, i in enumerate(pq):
        row[model.buses[i].bus_id] = float(y[m + k]) / model.base_mva
    return row
