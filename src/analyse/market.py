"""Local reactive-power market.

The operator collects offers per interval and, whenever a bus voltage leaves
the admissible band, greedily accepts the offer with the best price per unit
of voltage effectiveness at the worst-violated bus, re-solving the power flow
after each acceptance. Settlement is pay-as-bid.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .grid import (GridModel, GridState, SensitivityError, Sgen, solve_power_flow,
                   voltage_sensitivity)
from .telemetry import VoltageBand

EFFECTIVENESS_EPSILON = 1e-6  # pu per Mvar; offers below this do not count
# The largest pay-as-bid payment, price times |q|, an offer may ask. The market
# refuses an offer above it, so a sum of payments stays finite: it would take
# more than 1e296 accepted offers to overflow a float.
MAX_PAYMENT_EUR = 1e12


class MarketError(Exception):
    pass


class Offer(NamedTuple):
    offer_id: str
    agent_id: str
    bus: int
    q_mvar: float  # signed; positive injects
    price_eur_per_mvar: float
    interval: int


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
    if not (math.isfinite(offer.q_mvar) and math.isfinite(offer.price_eur_per_mvar)):
        raise MarketError(f"offer {offer.offer_id}: non-finite q_mvar or price")
    if offer.q_mvar == 0:
        raise MarketError(f"offer {offer.offer_id}: q_mvar must be nonzero")
    if offer.price_eur_per_mvar < 0:
        raise MarketError(f"offer {offer.offer_id}: negative price")
    return offer


def dispatch_from_payload(payload, unit: str) -> float | None:
    """The q_mvar a decoded wire payload dispatches to unit, or None if it is
    no dispatch to unit or its q_mvar is not a finite JSON number, read with
    no coercion as offer_from_payload reads an offer."""
    if not (isinstance(payload, dict) and payload.get("type") == "dispatch"
            and payload.get("unit") == unit):
        return None
    try:
        q = float(_field(payload, "q_mvar", (int, float)))
    except (KeyError, TypeError, OverflowError):
        return None
    return q if math.isfinite(q) else None


@dataclass
class ClearingResult:
    accepted: list[Offer] = field(default_factory=list)  # always at full quantity
    payments_eur: dict[str, float] = field(default_factory=dict)
    resolved: bool = False
    final_vm: dict[int, float] = field(default_factory=dict)
    excursions: list[float] = field(default_factory=list)  # worst excursion per iteration
    aborted: bool = False

    @property
    def total_cost_eur(self) -> float:
        return sum(self.payments_eur.values())

    def accepted_mvar_by_agent(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for a in self.accepted:
            out[a.agent_id] = out.get(a.agent_id, 0.0) + abs(a.q_mvar)
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
    start: GridState | None = None,
) -> ClearingResult:
    """Greedy merit-order clearing against the voltage band.

    Loop while a violation remains and unaccepted offers exist: find the
    worst-violated bus, read the analytic sensitivity of its voltage to
    reactive injection at every bus (one Jacobian solve per iteration), score
    each remaining offer by price divided by its effectiveness there
    (sensitivity at the offer's bus times offer direction times needed
    correction sign), drop offers at or below EFFECTIVENESS_EPSILON for this
    iteration, accept the cheapest-per-effect offer at full quantity (ties to
    the lower offer_id), and re-solve from the state before. The base flow
    starts from start, if given. If a flow diverges even from a flat start
    the clearing is aborted, with no final_vm: the offer whose acceptance
    made it diverge is neither accepted nor paid, and the offers accepted
    before it stand. A singular Jacobian ends the clearing unresolved, the
    same way as when no effective offer is left. Offers are trusted as
    offer_from_payload checks them.
    """
    result = ClearingResult()
    state = solve_power_flow(model, start)
    if not state.converged:
        result.aborted = True
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
            if effectiveness <= EFFECTIVENESS_EPSILON:
                continue
            score = offer.price_eur_per_mvar / effectiveness
            if best is None or score < best_score or (
                score == best_score and offer.offer_id < best.offer_id
            ):
                best = offer
                best_score = score
        if best is None:
            break  # violation remains but nothing effective is left
        remaining.remove(best)
        trial = work.with_injection(best.bus, best.q_mvar)
        state = solve_power_flow(trial, state)
        if not state.converged:
            result.aborted = True
            break
        result.accepted.append(best)
        work = trial

    if not result.aborted:  # a diverged iterate is no voltage
        result.final_vm = {b.bus_id: v for b, v in zip(work.buses, state.vm)}
    result.payments_eur = settle(result)
    return result


def settle(result: ClearingResult) -> dict[str, float]:
    """Pay-as-bid: each accepted offer earns its own price times |quantity|."""
    payments: dict[str, float] = {}
    for a in result.accepted:
        eur = a.price_eur_per_mvar * abs(a.q_mvar)
        payments[a.agent_id] = payments.get(a.agent_id, 0.0) + eur
    return payments


class Bidder(NamedTuple):
    """A scripted bidder with a known strategy and side; the schema holds a
    document to them."""

    asset: str  # the name of the sgen it bids; also the model id and offer id prefix
    agent_id: str
    host: str  # the network node it sends its offers from
    strategy: str  # "static" or "jitter"
    price_eur_per_mvar: float
    side: str  # "supply" offers q_max, "absorb" offers q_min


JITTER_SPREAD = 0.2  # relative price jitter, uniform in +/- this


def baseline_bid(
    bidder: Bidder,
    sgen: Sgen,
    interval: int,
    rng: random.Random,
    offer_id: str,
    price: float,
    q_scale: float,
) -> Offer | None:
    """One scripted offer: q_scale (clamped to [0, 1]) of the headroom of
    the bidder's sgen, at price.

    "jitter" multiplies the price by (1 + u), u uniform in [-0.2, 0.2] drawn
    from the run's seeded stream, and caps the product at the float maximum,
    so the offer still encodes and the market refuses its payment as over
    MAX_PAYMENT_EUR. Returns None when there is no headroom.
    """
    q_scale = min(max(q_scale, 0.0), 1.0)
    headroom = sgen.q_max_mvar if bidder.side == "supply" else sgen.q_min_mvar
    q = headroom * q_scale
    if q == 0.0:
        return None
    if bidder.strategy == "jitter":
        price = price * (1.0 + rng.uniform(-JITTER_SPREAD, JITTER_SPREAD))
        price = min(max(price, -sys.float_info.max), sys.float_info.max)
    return Offer(
        offer_id=offer_id,
        agent_id=bidder.agent_id,
        bus=sgen.bus,
        q_mvar=q,
        price_eur_per_mvar=price,
        interval=interval,
    )
