"""Local reactive-power market.

The operator collects offers per interval and, whenever a bus voltage leaves
the admissible band, greedily accepts the offer with the best price per unit
of voltage effectiveness at the worst-violated bus, re-solving the power flow
after each acceptance. Settlement is pay-as-bid.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .grid import (GridModel, GridState, SensitivityError, Sgen, solve_power_flow,
                   voltage_sensitivity)
from .telemetry import VoltageBand, canonical_json

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


# The JSON types of an offer's fields, in Offer order; a number is an int or
# a float, and a bool is neither.
_NUMBERS = (int, float)
_OFFER_KINDS = (str, str, int, _NUMBERS, _NUMBERS, int)


def offer_from_payload(payload: dict) -> Offer:
    """Offer from a decoded wire payload, with no coercion between types.

    The fields are checked in Offer order, and the first one at fault names
    the MarketError: a missing field, one of the wrong JSON type, or a
    number too large for a float.
    """
    get = payload.get
    offer_id, agent_id, bus = get("offer_id"), get("agent_id"), get("bus")
    q, price, interval = get("q_mvar"), get("price_eur_per_mvar"), get("interval")
    # a decoded payload holds exact JSON types; any other dict takes the loop
    if not (type(offer_id) is str and type(agent_id) is str and type(bus) is int
            and type(q) in _NUMBERS and type(price) in _NUMBERS and type(interval) is int):
        offer_id, agent_id, bus, q, price, interval = _checked_fields(payload)
    try:
        offer = Offer(offer_id, agent_id, bus, float(q), float(price), interval)
    except OverflowError as exc:
        raise MarketError(f"malformed offer payload: {exc}") from exc
    if not (math.isfinite(offer.q_mvar) and math.isfinite(offer.price_eur_per_mvar)):
        raise MarketError(f"offer {offer.offer_id}: non-finite q_mvar or price")
    if offer.q_mvar == 0:
        raise MarketError(f"offer {offer.offer_id}: q_mvar must be nonzero")
    if offer.price_eur_per_mvar < 0:
        raise MarketError(f"offer {offer.offer_id}: negative price")
    return offer


def _checked_fields(payload: dict) -> list:
    """The offer's field values in Offer order, a number as a float; the
    first field at fault raises MarketError."""
    values = []
    for key, kind in zip(Offer._fields, _OFFER_KINDS):
        if key not in payload:
            raise MarketError(f"malformed offer payload: {key!r}")
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise MarketError(f"malformed offer payload: {key} has type {type(value).__name__}")
        if kind is _NUMBERS:
            try:
                value = float(value)
            except OverflowError as exc:
                raise MarketError(f"malformed offer payload: {exc}") from exc
        values.append(value)
    return values


# The wire format of offers and dispatches is this module's. Frames repeat:
# every episode of a run replays one scenario, so most offers and dispatches
# are byte for byte those of an earlier episode. Each codec function below
# keeps an exact memo of its newest results, sized so that a frame that
# repeats one feeder4 day later is still held: a day is 97 intervals of 4
# bidders, so 388 offers and 388 dispatches, which fit the encoders'
# WIRE_MEMO_SIZE entries each; read_payload reads both kinds and keeps twice
# as many. That raised dos_week's peak memory from 37.33 to 38.51 MiB
# (+3.2%). A memo key holds each value's type, and -0.0, which equals 0.0
# as a key but encodes as "-0", is encoded afresh; an encoding that raises
# is not kept.
WIRE_MEMO_SIZE = 512


def _encode_offer(offer_id, agent_id, bus, q_mvar, price_eur_per_mvar, interval) -> bytes:
    return canonical_json({
        "offer_id": offer_id, "agent_id": agent_id, "bus": bus, "q_mvar": q_mvar,
        "price_eur_per_mvar": price_eur_per_mvar, "interval": interval,
    }).encode()


def _encode_dispatch(unit, q_mvar, interval) -> bytes:
    return canonical_json({
        "type": "dispatch", "unit": unit, "q_mvar": q_mvar, "interval": interval,
        "accepted": q_mvar != 0.0,
    }).encode()


_memo_offer = functools.lru_cache(maxsize=WIRE_MEMO_SIZE, typed=True)(_encode_offer)
_memo_dispatch = functools.lru_cache(maxsize=WIRE_MEMO_SIZE, typed=True)(_encode_dispatch)


def offer_payload(offer: Offer) -> bytes:
    """The wire payload of an offer: its canonical JSON object. A non-finite
    number raises UnserializableError."""
    q, price = offer.q_mvar, offer.price_eur_per_mvar
    if (q != 0 or math.copysign(1.0, q) > 0) and (price != 0 or math.copysign(1.0, price) > 0):
        return _memo_offer(*offer)
    return _encode_offer(*offer)


def dispatch_payload(unit: str, q_mvar: float, interval: int) -> bytes:
    """The wire payload of the market's dispatch of q_mvar to the asset unit
    for interval; `accepted` says whether q_mvar is nonzero. A non-finite
    q_mvar raises UnserializableError."""
    if q_mvar != 0 or math.copysign(1.0, q_mvar) > 0:
        return _memo_dispatch(unit, q_mvar, interval)
    return _encode_dispatch(unit, q_mvar, interval)


_scan = json.JSONDecoder().scan_once  # json.loads's scanner, without its three Python frames


@functools.lru_cache(maxsize=2 * WIRE_MEMO_SIZE)
def read_payload(payload: bytes) -> tuple[Offer | str | None, tuple[str, float] | None]:
    """What a frame's payload says to the market and to a PV unit:
    (offer, dispatch).

    offer is the Offer, or the reason the market refuses it when json cannot
    decode the payload ("unparseable") or offer_from_payload refuses it, or
    None when the payload is no JSON object with an offer_id, which is no
    offer. dispatch is (unit, q_mvar) when the payload is a JSON object with
    "type": "dispatch", a string unit and a q_mvar that is a finite JSON
    number, read with no coercion as an offer is; else None.
    """
    try:
        text = payload.decode()
        try:
            doc, end = _scan(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):  # whitespace around the value, or no JSON: json.loads decides
            doc = json.loads(text)
    except (ValueError, RecursionError):  # too many digits or too deep, or no UTF-8 JSON
        return "unparseable", None
    if type(doc) is not dict:
        return None, None
    dispatch = None
    if doc.get("type") == "dispatch":
        unit, q = doc.get("unit"), doc.get("q_mvar")
        if type(unit) is str and type(q) in _NUMBERS:
            try:
                q = float(q)
            except OverflowError:  # an int beyond the floats
                q = math.nan
            if math.isfinite(q):
                dispatch = (unit, q)
    offer = None
    if "offer_id" in doc:
        try:
            offer = offer_from_payload(doc)
        except MarketError as exc:
            offer = str(exc)
    return offer, dispatch


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
