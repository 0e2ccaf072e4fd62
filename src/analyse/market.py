"""Local reactive-power market.

The operator collects offers per interval and, whenever a bus voltage leaves
the admissible band, greedily accepts the offer with the best price per unit
of voltage effectiveness at the worst-violated bus, re-solving the power flow
after each acceptance. Settlement is pay-as-bid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .grid import GridModel, SensitivityError, solve_power_flow, voltage_sensitivity

EFFECTIVENESS_EPSILON = 1e-6  # pu per Mvar; offers below this do not count


class MarketError(Exception):
    pass


@dataclass(frozen=True)
class Offer:
    offer_id: str
    agent_id: str
    bus: int
    q_mvar: float  # signed; positive injects
    price_eur_per_mvar: float
    interval: int

    def validate(self) -> None:
        if not (math.isfinite(self.q_mvar) and math.isfinite(self.price_eur_per_mvar)):
            raise MarketError(f"offer {self.offer_id}: non-finite q_mvar or price")
        if self.q_mvar == 0:
            raise MarketError(f"offer {self.offer_id}: q_mvar must be nonzero")
        if self.price_eur_per_mvar < 0:
            raise MarketError(f"offer {self.offer_id}: negative price")

    def wire_payload(self) -> dict:
        return {
            "offer_id": self.offer_id,
            "agent_id": self.agent_id,
            "bus": self.bus,
            "q_mvar": self.q_mvar,
            "price_eur_per_mvar": self.price_eur_per_mvar,
            "interval": self.interval,
        }


def _field(payload: dict, key: str, kind: type | tuple[type, ...]):
    """payload[key] if it has the JSON type kind; bools are not numbers."""
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key} has type {type(value).__name__}")
    return value


def offer_from_payload(payload: dict) -> Offer:
    """Offer from a decoded wire payload, with no coercion between types."""
    try:
        offer = Offer(
            offer_id=_field(payload, "offer_id", str),
            agent_id=_field(payload, "agent_id", str),
            bus=_field(payload, "bus", int),
            q_mvar=float(_field(payload, "q_mvar", (int, float))),
            price_eur_per_mvar=float(_field(payload, "price_eur_per_mvar", (int, float))),
            interval=_field(payload, "interval", int),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise MarketError(f"malformed offer payload: {exc}") from exc
    offer.validate()
    return offer


@dataclass(frozen=True)
class VoltageBand:
    v_min_pu: float = 0.95
    v_max_pu: float = 1.05

    def __post_init__(self):
        if not (0 < self.v_min_pu < self.v_max_pu):
            raise MarketError("need 0 < v_min < v_max")

    def excursion(self, vm: float) -> float:
        return max(self.v_min_pu - vm, vm - self.v_max_pu, 0.0)


@dataclass(frozen=True)
class AcceptedOffer:
    offer_id: str
    agent_id: str
    bus: int
    q_accepted_mvar: float
    price_eur_per_mvar: float


@dataclass
class ClearingResult:
    interval: int
    accepted: list[AcceptedOffer] = field(default_factory=list)
    payments_eur: dict[str, float] = field(default_factory=dict)
    resolved: bool = False
    iterations: int = 0
    final_vm: dict[int, float] = field(default_factory=dict)
    excursions: list[float] = field(default_factory=list)  # worst excursion per iteration
    base_converged: bool = True
    aborted: bool = False

    @property
    def total_cost_eur(self) -> float:
        return sum(self.payments_eur.values())

    def accepted_mvar_by_agent(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for a in self.accepted:
            out[a.agent_id] = out.get(a.agent_id, 0.0) + abs(a.q_accepted_mvar)
        return out


def _worst_violation(model: GridModel, vm: tuple[float, ...], band: VoltageBand):
    """(bus_id, excursion, direction) of the largest band excursion, or None.

    direction is +1 when the voltage must rise, -1 when it must fall. Ties go
    to the lowest bus id.
    """
    worst = None
    for b, v in zip(model.buses, vm):
        exc = band.excursion(v)
        if exc <= 0:
            continue
        direction = 1.0 if v < band.v_min_pu else -1.0
        if worst is None or exc > worst[1] or (exc == worst[1] and b.bus_id < worst[0]):
            worst = (b.bus_id, exc, direction)
    return worst


def clear_market(
    offers: list[Offer],
    model: GridModel,
    band: VoltageBand,
    epsilon: float = EFFECTIVENESS_EPSILON,
) -> ClearingResult:
    """Greedy merit-order clearing against the voltage band.

    Loop while a violation remains and unaccepted offers exist: find the
    worst-violated bus, read the analytic sensitivity of its voltage to
    reactive injection at every bus (one Jacobian solve per iteration), score
    each remaining offer by price divided by its effectiveness there
    (sensitivity at the offer's bus times offer direction times needed
    correction sign), drop offers at or below epsilon effectiveness for this
    iteration, accept the cheapest-per-effect offer at full quantity (ties to
    the lower offer_id), and re-solve. If the base flow or a re-solve
    diverges the clearing is aborted. A singular Jacobian ends the clearing
    unresolved, the same way as when no effective offer is left.
    """
    interval = offers[0].interval if offers else 0
    result = ClearingResult(interval=interval)
    for offer in offers:
        offer.validate()

    state = solve_power_flow(model)
    if not state.converged:
        result.base_converged = False
        result.aborted = True
        result.final_vm = {b.bus_id: v for b, v in zip(model.buses, state.vm)}
        return result

    remaining = sorted(offers, key=lambda o: o.offer_id)
    work = model
    while True:
        worst = _worst_violation(work, state.vm, band)
        if worst is None:
            result.resolved = True
            break
        result.excursions.append(worst[1])
        if not remaining:
            break
        worst_bus, _, direction = worst
        try:
            sensitivity = voltage_sensitivity(work, state, worst_bus)
        except SensitivityError:
            break  # singular Jacobian: no offer has a defined effect
        best = None
        best_score = None
        for offer in remaining:
            effectiveness = (
                sensitivity[offer.bus] * (1.0 if offer.q_mvar > 0 else -1.0) * direction
            )
            if effectiveness <= epsilon:
                continue
            score = offer.price_eur_per_mvar / effectiveness
            if best is None or score < best_score or (
                score == best_score and offer.offer_id < best.offer_id
            ):
                best = offer
                best_score = score
        if best is None:
            break  # violation remains but nothing effective is left
        result.iterations += 1
        remaining.remove(best)
        result.accepted.append(
            AcceptedOffer(
                offer_id=best.offer_id,
                agent_id=best.agent_id,
                bus=best.bus,
                q_accepted_mvar=best.q_mvar,
                price_eur_per_mvar=best.price_eur_per_mvar,
            )
        )
        work = work.with_injection(best.bus, best.q_mvar)
        state = solve_power_flow(work)
        if not state.converged:
            result.aborted = True
            break

    result.final_vm = {b.bus_id: v for b, v in zip(work.buses, state.vm)}
    result.payments_eur = settle(result)
    return result


def settle(result: ClearingResult) -> dict[str, float]:
    """Pay-as-bid: each accepted offer earns its own price times |quantity|."""
    payments: dict[str, float] = {}
    for a in result.accepted:
        eur = a.price_eur_per_mvar * abs(a.q_accepted_mvar)
        payments[a.agent_id] = payments.get(a.agent_id, 0.0) + eur
    return payments


@dataclass(frozen=True)
class BidderAsset:
    agent_id: str
    bus: int
    q_min_mvar: float
    q_max_mvar: float


@dataclass(frozen=True)
class BidStrategy:
    kind: str = "static"  # "static" or "jitter"
    price_eur_per_mvar: float = 10.0
    side: str = "supply"  # "supply" offers q_max, "absorb" offers q_min

    def __post_init__(self):
        if self.kind not in ("static", "jitter"):
            raise MarketError(f"unknown bid strategy {self.kind!r}")
        if self.side not in ("supply", "absorb"):
            raise MarketError(f"unknown bid side {self.side!r}")


JITTER_SPREAD = 0.2  # relative price jitter, uniform in +/- this


def baseline_bid(
    asset: BidderAsset,
    strategy: BidStrategy,
    interval: int,
    rng: random.Random,
    offer_id: str,
    price_override: float | None = None,
    q_scale: float = 1.0,
) -> Offer | None:
    """One scripted offer: full available headroom at the strategy's price.

    "jitter" multiplies the price by (1 + u), u uniform in [-0.2, 0.2] drawn
    from the run's seeded stream. Returns None when there is no headroom.
    """
    q_scale = min(max(q_scale, 0.0), 1.0)
    headroom = asset.q_max_mvar if strategy.side == "supply" else asset.q_min_mvar
    q = headroom * q_scale
    if q == 0.0:
        return None
    price = strategy.price_eur_per_mvar if price_override is None else price_override
    if strategy.kind == "jitter":
        price = price * (1.0 + rng.uniform(-JITTER_SPREAD, JITTER_SPREAD))
    return Offer(
        offer_id=offer_id,
        agent_id=asset.agent_id,
        bus=asset.bus,
        q_mvar=q,
        price_eur_per_mvar=price,
        interval=interval,
    )
