"""Seeded synthetic 32-bus radial feeder for the `radial32` workload.

The feeder is a radial tree grown the way `tests/grids.py:chain6` is laid
out (slack at bus 1, one line into each later bus), except that each bus
hangs off one of the three buses before it, so the tree has laterals. Every
PQ bus carries a load on the bundled day profile; eight PV units sit on the
outer half of the feeder and bid their reactive headroom with jittered
prices. The line impedances are scaled as a whole so that the lowest bus
voltage at the profile's peak load is TARGET_VMIN_PU: the band is violated
at peak (so the market works) while every interval still converges.

Only the seed varies the document, and the same seed gives the same
document. `write_document` validates it before anyone uses it.
"""

from __future__ import annotations

import random
from pathlib import Path

N_BUSES = 32
N_PV = 8
TOTAL_LOAD_MW = 5.4  # nominal, before the profile factor; on a 10 MVA base
BASE_MVA = 10.0
TARGET_VMIN_PU = 0.88  # lowest voltage at peak load with no reactive support
DAYS = 2
PROFILE_REF = "pkg:load_day.csv"
WEATHER_REF = "pkg:weather_day.csv"


class GeneratorError(Exception):
    pass


def _skeleton(seed: int) -> dict:
    """Every seeded choice, with line impedances in relative units."""
    rng = random.Random(f"radial32-{seed}")
    lines = []
    for bus in range(2, N_BUSES + 1):
        parent = rng.randrange(max(1, bus - 3), bus)
        r_rel = rng.uniform(0.5, 1.5)
        lines.append((parent, bus, r_rel, r_rel * rng.uniform(1.5, 3.0)))
    weights = [rng.uniform(0.5, 1.5) for _ in range(2, N_BUSES + 1)]
    q_ratio = [rng.uniform(0.25, 0.4) for _ in range(2, N_BUSES + 1)]
    pv_buses = sorted(rng.sample(range(N_BUSES // 2 + 1, N_BUSES + 1), N_PV))
    prices = [round(rng.uniform(4.0, 12.0), 2) for _ in range(N_PV)]
    total_w = sum(weights)
    loads = [
        (bus, TOTAL_LOAD_MW * w / total_w, TOTAL_LOAD_MW * w / total_w * qr)
        for bus, w, qr in zip(range(2, N_BUSES + 1), weights, q_ratio)
    ]
    return {"lines": lines, "loads": loads, "pv_buses": pv_buses, "prices": prices}


def _grid_at(skel: dict, z_pu: float, load_factor: float):
    from analyse.grid import Bus, GridModel, Line, Load

    return GridModel(
        base_mva=BASE_MVA,
        buses=(Bus(1, "slack", 1.0),) + tuple(Bus(b) for b in range(2, N_BUSES + 1)),
        lines=tuple(
            Line(a, b, round(r * z_pu, 6), round(x * z_pu, 6), 0.0, 10.0)
            for a, b, r, x in skel["lines"]
        ),
        loads=tuple(Load(b, p * load_factor, q * load_factor) for b, p, q in skel["loads"]),
    )


def _peak_factor() -> float:
    from analyse import feeders
    from analyse.scenario import resolve_data_path

    profile = feeders.read_load_profile_csv(resolve_data_path(PROFILE_REF, Path(".")))
    return max(profile.factors)


def _calibrate(skel: dict) -> float:
    """Impedance scale (pu per relative unit) that puts the peak vmin on target."""
    from analyse.grid import solve_power_flow

    peak = _peak_factor()

    def vmin(z: float) -> float:
        state = solve_power_flow(_grid_at(skel, z, peak))
        return min(state.vm) if state.converged else 0.0

    lo, hi = 1e-4, 0.02
    if vmin(lo) < TARGET_VMIN_PU or vmin(hi) > TARGET_VMIN_PU:
        raise GeneratorError("impedance search interval does not bracket the target")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if vmin(mid) > TARGET_VMIN_PU:
            lo = mid
        else:
            hi = mid
    z = round(lo, 7)
    if not solve_power_flow(_grid_at(skel, z, peak)).converged:
        raise GeneratorError("calibrated feeder does not converge at peak load")
    return z


def generate(seed: int) -> dict:
    """The radial32 scenario document for one workload seed."""
    skel = _skeleton(seed)
    z = _calibrate(skel)
    hosts = [f"h{i + 1}" for i in range(N_PV)]
    return {
        "schema_version": 1,
        "kind": "scenario",
        "name": "radial32",
        "seed": seed,
        "grid": {
            "base_mva": BASE_MVA,
            "step_s": 900,
            "buses": [{"id": 1, "kind": "slack", "vm_setpoint_pu": 1.0}]
            + [{"id": b, "kind": "pq"} for b in range(2, N_BUSES + 1)],
            "lines": [
                {"from": a, "to": b, "r_pu": round(r * z, 6), "x_pu": round(x * z, 6),
                 "b_pu": 0.0, "rating_mva": 10.0}
                for a, b, r, x in skel["lines"]
            ],
            "loads": [
                {"name": f"l{b}", "bus": b, "p_mw": round(p, 6), "q_mvar": round(q, 6),
                 "profile": "default"}
                for b, p, q in skel["loads"]
            ],
            "sgens": [
                {"name": f"pv{i + 1}", "bus": b, "p_mw": 0.0, "q_mvar": 0.0,
                 "q_min_mvar": -1.0, "q_max_mvar": 1.0}
                for i, b in enumerate(skel["pv_buses"])
            ],
        },
        "data": {
            "load_profiles": {"default": {"path": PROFILE_REF}},
            "weather": {"path": WEATHER_REF},
        },
        "pv": {
            "units": [
                {"name": f"pv{i + 1}", "sgen": f"pv{i + 1}", "p_peak_mw": 0.4, "host": h}
                for i, h in enumerate(hosts)
            ],
        },
        "market": {
            "band": {"v_min_pu": 0.95, "v_max_pu": 1.05},
            "interval_s": 900,
            "gate_closure_s": 0.0,
            "operator_host": "op",
            "bidders": [
                {"agent": f"agent_pv{i + 1}", "asset": f"pv{i + 1}", "host": h,
                 "strategy": "jitter", "price_eur_per_mvar": price}
                for i, (h, price) in enumerate(zip(hosts, skel["prices"]))
            ],
        },
        "network": {
            "step_s": 60,
            "utilization_window_s": 900.0,
            "nodes": [{"id": "op", "kind": "host"}, {"id": "sw", "kind": "switch"}]
            + [{"id": h, "kind": "host"} for h in hosts],
            "links": [
                {"a": node, "b": "sw", "latency_ms": 2.0, "bandwidth_kbps": 10000,
                 "loss_prob": 0.0}
                for node in ["op"] + hosts
            ],
        },
        "agents": [{
            "agent_id": "observer",
            "kind": "none",
            "sensors": [
                {"id": f"grid.bus_{N_BUSES}.vm_pu", "lo": 0.8, "hi": 1.1},
                {"id": "market.op.last_price", "lo": 0.0, "hi": 100.0},
            ],
            "actuators": [],
            "objective": {"kind": "damage"},
        }],
        "schedule": [
            {"name": "days", "mode": "test", "episodes": DAYS, "episode_length": 96},
        ],
    }


def write_document(seed: int, path: Path) -> Path:
    """Generate, validate and write the document; raises if it is invalid."""
    import yaml
    from analyse.validation import validate_document

    doc = generate(seed)
    violations = validate_document(doc, path.parent)
    if violations:
        lines = "; ".join(f"{where}: {msg}" for where, msg in violations)
        raise GeneratorError(f"generated radial32 document is invalid: {lines}")
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return path
