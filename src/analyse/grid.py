"""Minimal AC power-flow solver: one slack bus, PQ buses, pi-model lines.

Loads draw power, static generators (sgens) inject it; both are plain PQ
injections. Each carries the scenario's name for it, and a load the key of
the profile that scales it; the solver ignores both. A model is trusted to
be sound: a positive base_mva, unique bus ids with one slack bus, lines with r >= 0 and x > 0 whose ends, like every
injection, are buses of the model, every bus connected, and each sgen's q
within [q_min, q_max]. The schema and `validation.cross_check` refuse a
document whose grid breaks one of these rules; code that builds a model
keeps them itself. A model's topology is compiled into arrays once, and
models made by `with_injections` share it. The solver is Newton-Raphson in
polar coordinates from a converged state of nearby injections (a warm start),
retried from a flat start when that does not converge or converges to
another root of the power-flow equations (an angle outside (-pi, pi]), or
from flat alone. Non-convergence is a reported state rather than an
exception, because attack scenarios intentionally push the grid toward
infeasibility.

A result keeps the solver's complex voltages and bus currents. Line flows and
slack power are computed from them on first read, so solves whose flows
nobody reads (those of a market clearing) skip them. The Jacobian is built at
most once per state: a warm start from a state of the same topology takes its
voltages, currents and Jacobian for the first Newton step, so a sensitivity
at a state followed by a re-solve from it builds one Jacobian, not two.

A solve is a pure function of the topology, the injections and the start
voltages, and a run solves the same flow many times (every episode replays
one scenario). So a model and its `with_injections` siblings share a memo of
solves, keyed by the model's per-bus injection sums and the start's vm and
va as bytes, if there is a start. Each model sums its injections once and
each state makes its start key once, so a repeat costs one dict lookup and
no numpy call; the solver's arrays are built only on a miss. A repeat
returns the stored state itself, with its flows, Jacobian and sensitivity
rows already computed; its arrays are read-only. The memo keeps the newest
max(MEMO_MIN, MEMO_FLOATS // (2m)^2) solves for m PQ buses (910 for 4 buses,
8 for 32) and drops the oldest first. It hangs off the models, which no
state references, so a dropped model frees its memo at once.

Voltage sensitivities are analytic: d|V|/dQ is read from the inverse of the
power-flow Jacobian at a converged state (the V-Q sensitivity of Kundur,
"Power System Stability and Control", 1994), one transposed solve per
observed bus. Newton-Raphson and the sensitivity build that Jacobian with the
same helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

TOL_PU = 1e-8  # Newton-Raphson converges below this max |dP|, |dQ|
MAX_ITERATIONS = 20
# A topology's memo of solves holds at most MEMO_FLOATS // (2m)^2 states for
# m PQ buses, about MEMO_FLOATS Jacobian floats, and never fewer than MEMO_MIN.
MEMO_FLOATS = 2**15
MEMO_MIN = 8


class Bus(NamedTuple):
    # the defaults repeat the scenario schema's; cosimbench/radial32.py builds Bus(b)
    bus_id: int
    kind: str = "pq"  # "slack" or "pq"
    vm_setpoint_pu: float = 1.0


class Line(NamedTuple):
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    b_shunt_pu: float  # total line charging, split half per end
    rating_mva: float


class Load(NamedTuple):
    bus: int
    p_mw: float
    q_mvar: float
    name: str = ""
    profile: str | None = None  # the load profile key that scales it


class Sgen(NamedTuple):
    bus: int
    p_mw: float
    q_mvar: float
    q_min_mvar: float
    q_max_mvar: float
    name: str = ""


@dataclass(frozen=True)
class GridModel:
    """A grid, trusted to keep the rules of the module docstring; the schema
    and validation.cross_check hold a document's grid to them."""

    base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[Load, ...]
    sgens: tuple[Sgen, ...] = ()  # cosimbench/radial32.py leaves it out

    @cached_property
    def compiled(self) -> CompiledGrid:
        """The topology as arrays, built on first use."""
        return CompiledGrid(self)

    @cached_property
    def _solves(self) -> dict[tuple, GridState]:
        """Solves of this topology by key, oldest first (see solve_power_flow)."""
        return {}

    @cached_property
    def injections(self) -> tuple[complex, ...]:
        """Net scheduled complex power per bus in MVA, model order (generation
        minus load): each bus's loads subtracted, then its sgens added, from +0j."""
        index = self.compiled.index
        s = [0j] * len(index)
        for load in self.loads:
            s[index[load.bus]] -= complex(load.p_mw, load.q_mvar)
        for sg in self.sgens:
            s[index[sg.bus]] += complex(sg.p_mw, sg.q_mvar)
        return tuple(s)

    def with_injections(self, loads, sgens) -> GridModel:
        """Model with these injections that shares this model's compiled topology."""
        sibling = GridModel(self.base_mva, self.buses, self.lines, loads, sgens)
        sibling.__dict__["compiled"] = self.compiled
        sibling.__dict__["_solves"] = self._solves
        return sibling

    def with_injection(self, bus: int, q_mvar: float) -> GridModel:
        """Model with one extra reactive sgen injection (used when testing offers)."""
        extra = Sgen(bus, 0.0, q_mvar, min(0.0, q_mvar), max(0.0, q_mvar))
        return self.with_injections(self.loads, self.sgens + (extra,))


class CompiledGrid:
    """What a solve needs that depends on the topology alone, in pu: the bus
    id -> position map (model order), the slack and PQ positions, Ybus with
    its PQ rows and PQ block, and per line its end positions, series and
    half-shunt admittances and rating."""

    def __init__(self, model: GridModel):
        buses = model.buses
        self.n = n = len(buses)
        self.base_mva = model.base_mva
        self.index = {b.bus_id: i for i, b in enumerate(buses)}
        self.slack = next(i for i, b in enumerate(buses) if b.kind == "slack")
        self.vm_flat = np.ones(n)
        self.vm_flat[self.slack] = buses[self.slack].vm_setpoint_pu
        self.pq = np.array([i for i in range(n) if i != self.slack], dtype=np.intp)
        self.pq_ids = [buses[i].bus_id for i in self.pq]
        self.memo_max = max(MEMO_MIN, MEMO_FLOATS // max(1, 4 * len(self.pq) ** 2))
        lines = model.lines
        self.line_from = np.array([self.index[l.from_bus] for l in lines], dtype=np.intp)
        self.line_to = np.array([self.index[l.to_bus] for l in lines], dtype=np.intp)
        self.y_series = np.array([1.0 / complex(l.r_pu, l.x_pu) for l in lines], dtype=complex)
        self.y_shunt = np.array([1j * l.b_shunt_pu / 2.0 for l in lines], dtype=complex)
        self.rating_pu = np.array([l.rating_mva / model.base_mva for l in lines])
        ybus = np.zeros((n, n), dtype=complex)
        for i, j, y_series, y_shunt in zip(self.line_from, self.line_to, self.y_series,
                                           self.y_shunt):
            ybus[i, i] += y_series + y_shunt
            ybus[j, j] += y_series + y_shunt
            ybus[i, j] -= y_series
            ybus[j, i] -= y_series
        self.ybus = ybus
        self.ybus_pq_rows = ybus[self.pq]
        self.ybus_pq = ybus[np.ix_(self.pq, self.pq)]


@dataclass(frozen=True)
class GridState:
    """One power-flow result.

    The solver also keeps its last iterate: the topology it solved on (grid),
    the complex bus voltages v and the PQ bus currents ip = (Ybus @ v)[pq].
    Line flows, slack power and the Jacobian are computed from them on first
    read. These arrays take no part in ==; a state built by hand has none, and
    still serves as a start and for voltage_sensitivity. A solved state's
    arrays are read-only, because repeated solves hand out the same state.
    """

    vm: tuple[float, ...]  # per bus, model order, pu
    va: tuple[float, ...]  # per bus, rad; slack at 0
    converged: bool
    iterations: int
    max_mismatch_pu: float
    singular: bool = False
    grid: CompiledGrid | None = field(default=None, compare=False, repr=False)
    v: np.ndarray | None = field(default=None, compare=False, repr=False)
    ip: np.ndarray | None = field(default=None, compare=False, repr=False)

    @cached_property
    def line_loading(self) -> tuple[float, ...]:
        """Per line, the larger |S| of its two pi-model ends over its rating."""
        grid, v = self.grid, self.v
        v_from, v_to = v[grid.line_from], v[grid.line_to]
        i_from = (v_from - v_to) * grid.y_series + v_from * grid.y_shunt
        i_to = (v_to - v_from) * grid.y_series + v_to * grid.y_shunt
        s_max = np.maximum(np.abs(v_from * np.conj(i_from)), np.abs(v_to * np.conj(i_to)))
        loadings = np.divide(s_max, grid.rating_pu, out=np.zeros_like(s_max),
                             where=grid.rating_pu > 0)
        return tuple(loadings.tolist())

    @cached_property
    def _slack_mva(self) -> complex:
        grid, v = self.grid, self.v
        return complex(v[grid.slack] * np.conj(grid.ybus[grid.slack] @ v) * grid.base_mva)

    @property
    def slack_p_mw(self) -> float:
        return self._slack_mva.real

    @property
    def slack_q_mvar(self) -> float:
        return self._slack_mva.imag

    @cached_property
    def jacobian(self) -> np.ndarray:
        """The power-flow Jacobian at this state, read-only (see _jacobian)."""
        grid = self.grid
        vmp = np.array(self.vm)[grid.pq]
        jac = _jacobian(grid, self.v[grid.pq], vmp, self.ip)
        jac.flags.writeable = False
        return jac

    @cached_property
    def _start_key(self) -> bytes:
        """This start's part of solve_power_flow's memo key: the bytes of
        vm, then of va, each as the array a fresh solve makes of it."""
        return np.array(self.vm).tobytes() + np.array(self.va).tobytes()

    @cached_property
    def _sensitivity_rows(self) -> dict[int, tuple[float, ...]]:
        """voltage_sensitivity's rows at this state by observed bus id, over
        the PQ buses."""
        return {}


def specified_injections(model: GridModel) -> np.ndarray:
    """Net scheduled complex power per bus in pu (generation minus load)."""
    return np.array(model.injections) / model.base_mva


def _jacobian(grid: CompiledGrid, vp: np.ndarray, vmp: np.ndarray, ip: np.ndarray) -> np.ndarray:
    """d[P; Q] / d[va; vm] over the PQ buses, as one (2m, 2m) real array.

    From the complex power derivatives dS/dVa = j diag(V) conj(diag(I) - Y
    diag(V)) and dS/dVm = diag(V) conj(Y diag(V/|V|)) + conj(diag(I))
    diag(V/|V|), restricted to the PQ rows and columns; vp, vmp and ip are
    the voltage, its magnitude and the bus current Ybus @ v at the PQ buses.
    Both derivatives fill one complex (m, 2m) block whose real and imaginary
    parts are the P and Q rows.
    """
    m = len(vp)
    conj_ip = np.conj(ip)
    # diag(V) conj(Y diag(V)) on the PQ block; its columns scaled by 1/|V|
    # give the off-diagonal part of dS/dVm.
    outer = vp[:, None] * np.conj(grid.ybus_pq * vp[None, :])
    block = np.empty((m, 2 * m), dtype=complex)
    np.multiply(-1j, outer, out=block[:, :m])
    np.divide(outer, vmp[None, :], out=block[:, m:])
    flat = block.reshape(-1)
    flat[::2 * m + 1] += 1j * vp * conj_ip  # the diagonal of dS/dVa
    flat[m::2 * m + 1] += conj_ip * vp / vmp  # the diagonal of dS/dVm
    jac = np.empty((2 * m, 2 * m))
    jac[:m] = block.real
    jac[m:] = block.imag
    return jac


def _newton(grid: CompiledGrid, s_pq: np.ndarray, vm: np.ndarray, va: np.ndarray,
            start: GridState | None = None):
    """Newton-Raphson from (vm, va), which it updates in place; returns
    (v, ip, converged, iterations, max mismatch, singular) at the last
    iterate. start, if given, is a state solved on grid at exactly (vm, va):
    iteration 0 takes its v, ip and Jacobian instead of computing them."""
    pq = grid.pq
    m = len(pq)
    mis = np.empty(2 * m)
    if start is None:
        v = vm * np.exp(1j * va)
        ip = grid.ybus_pq_rows @ v
    else:
        v, ip = start.v, start.ip
    for iterations in range(MAX_ITERATIONS + 1):
        vp = v[pq]
        ds = s_pq - vp * np.conj(ip)
        mis[:m] = ds.real
        mis[m:] = ds.imag
        mismatch = float(np.abs(mis).max()) if m else 0.0
        if mismatch < TOL_PU:
            return v, ip, True, iterations, mismatch, False
        if iterations == MAX_ITERATIONS:
            break
        if iterations == 0 and start is not None:
            jac = start.jacobian
        else:
            jac = _jacobian(grid, vp, vm[pq], ip)
        try:
            dx = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            return v, ip, False, iterations, mismatch, True
        if not np.isfinite(dx).all():
            return v, ip, False, iterations, mismatch, True
        va[pq] += dx[:m]
        vm[pq] += dx[m:]
        v = vm * np.exp(1j * va)
        ip = grid.ybus_pq_rows @ v
    return v, ip, False, iterations, mismatch, False


def solve_power_flow(model: GridModel, start: GridState | None = None) -> GridState:
    """Newton-Raphson in polar coordinates from start, or flat without one.

    start must be a converged state of a model with the same buses. When the
    solve from start does not converge, or converges with an angle outside
    (-pi, pi] (another root of the power-flow equations, which a distant
    start can reach), it is repeated from a flat start, and iterations counts
    both attempts. Converged means max |dP|, |dQ| < TOL_PU at every non-slack
    bus within MAX_ITERATIONS. On a singular Jacobian the state is returned
    with singular=True and the last iterate.

    A solve whose key equals that of a solve still in the model's memo
    returns that solve's state (start is checked first, as for a fresh
    solve). The key is model.injections and the start's vm and va as bytes
    (None for a flat start). Equal keys mean bit-equal solver inputs: the
    memo's models share base_mva, and equal floats have equal bits but for
    zeros and NaNs, yet sums started at +0j never hold -0.0 and a NaN never
    equals itself (a tuple takes only the same object, bits and all, for
    it). The state is what a fresh solve would return, because _newton
    rebuilds from vm and va exactly what a start of this topology carries.
    """
    grid = model.compiled
    if start is not None and (not start.converged or len(start.vm) != grid.n):
        raise ValueError("a start must be a converged state of the same buses")
    key = (model.injections, None if start is None else start._start_key)
    memo = model._solves
    state = memo.get(key)
    if state is not None:
        return state
    s_pq = specified_injections(model)[grid.pq]
    iterations = 0
    converged = False
    # An iterate that overflows is a divergence, which the checks below and
    # GridState already report; numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        if start is not None:
            vm, va = np.array(start.vm), np.array(start.va)
            v, ip, converged, iterations, mismatch, singular = _newton(
                grid, s_pq, vm, va, start if start.grid is grid else None)
            angles = va.tolist()
            if converged and not (-np.pi < min(angles) and max(angles) <= np.pi):
                converged = False  # another root of the power-flow equations
        if not converged:
            vm, va = grid.vm_flat.copy(), np.zeros(grid.n)
            v, ip, converged, flat_iterations, mismatch, singular = _newton(grid, s_pq, vm, va)
            iterations += flat_iterations
    v.flags.writeable = False
    ip.flags.writeable = False
    state = GridState(
        vm=tuple(vm.tolist()),
        va=tuple(va.tolist()),
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
        singular=singular,
        grid=grid,
        v=v,
        ip=ip,
    )
    if len(memo) >= grid.memo_max:
        del memo[next(iter(memo))]  # the oldest solve
    memo[key] = state
    return state


class SensitivityError(Exception):
    """No voltage sensitivity exists: the state did not converge or its
    Jacobian is singular."""


def voltage_sensitivity(
    model: GridModel,
    state: GridState,
    observed_bus: int,
) -> dict[int, float]:
    """d vm(observed_bus) / d Q(j) in pu per Mvar, for every bus id j;
    observed_bus is a bus of model.

    One row of the inverse Jacobian at the converged state, from a single
    transposed solve J^T y = e_vm(observed). Injections at the slack bus, and
    every injection when the slack bus is observed, give 0.0. The row is
    kept on a solved state of model's topology, so asking again at that state
    solves nothing; each call returns a new dict.
    """
    if not state.converged:
        raise SensitivityError("state did not converge")
    grid = model.compiled
    obs = grid.index[observed_bus]
    if obs == grid.slack:
        return dict.fromkeys(grid.index, 0.0)
    if state.grid is not grid:  # built by hand or on another topology
        vm = np.array(state.vm)
        v = vm * np.exp(1j * np.array(state.va))
        state = replace(state, grid=grid, v=v, ip=grid.ybus_pq_rows @ v)
    rows = state._sensitivity_rows
    if observed_bus not in rows:
        m = len(grid.pq)
        e_obs = np.zeros(2 * m)
        e_obs[m + obs - (obs > grid.slack)] = 1.0  # obs's position among the PQ buses
        try:
            y = np.linalg.solve(state.jacobian.T, e_obs)
        except np.linalg.LinAlgError as exc:
            raise SensitivityError("singular Jacobian") from exc
        if not np.isfinite(y).all():
            raise SensitivityError("singular Jacobian")
        rows[observed_bus] = tuple((y[m:] / grid.base_mva).tolist())
    row = dict.fromkeys(grid.index, 0.0)
    row.update(zip(grid.pq_ids, rows[observed_bus]))
    return row
