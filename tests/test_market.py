import random

import pytest

from analyse import market
from analyse.grid import SensitivityError
from analyse.market import (
    BidderAsset,
    BidStrategy,
    MarketError,
    Offer,
    VoltageBand,
    baseline_bid,
    clear_market,
    offer_from_payload,
    settle,
)
from analyse.telemetry import canonical_json

from grids import feeder4
from oracles import brute_force_resolving_subsets, greedy_clearing_oracle

BAND = VoltageBand()

FIXTURE_OFFERS = [
    Offer("o1", "a1", 3, 1.0, 10.0, 5),
    Offer("o2", "a2", 4, 1.0, 5.0, 5),
    Offer("o3", "a3", 3, 2.0, 20.0, 5),
]


def test_no_violation_accepts_nothing():
    result = clear_market(FIXTURE_OFFERS, feeder4(1.0), BAND)
    assert result.resolved
    assert result.accepted == []
    assert result.payments_eur == {}
    assert settle(result) == {}


def test_empty_book_with_violation_unresolved():
    result = clear_market([], feeder4(4.0), BAND)
    assert not result.resolved
    assert result.accepted == []
    assert result.iterations == 0


def test_greedy_fixture_matches_hand_stepped_oracle():
    # Frozen output of the step-by-step greedy oracle (Gauss-Seidel solves,
    # one-sided sensitivities) on the reference feeder at scale 4.0: o2 (bus 4,
    # cheapest per effect) first, then o1 restores the band; o3 unused.
    result = clear_market(FIXTURE_OFFERS, feeder4(4.0), BAND)
    assert [a.offer_id for a in result.accepted] == ["o2", "o1"]
    assert result.resolved
    assert result.payments_eur == pytest.approx({"a2": 5.0, "a1": 10.0})
    assert result.total_cost_eur == pytest.approx(15.0)
    # and the oracle run agrees live, not just as frozen constants
    accepted, payments, resolved = greedy_clearing_oracle(FIXTURE_OFFERS, feeder4(4.0), BAND)
    assert accepted == ["o2", "o1"]
    assert resolved
    assert payments == pytest.approx(result.payments_eur)


def test_excursions_strictly_decrease_on_fixture():
    result = clear_market(FIXTURE_OFFERS, feeder4(4.0), BAND)
    assert all(b < a for a, b in zip(result.excursions, result.excursions[1:]))
    assert result.iterations <= len(FIXTURE_OFFERS)


def test_base_nonconvergence_aborts_clearing():
    result = clear_market(FIXTURE_OFFERS, feeder4(40.0), BAND)
    assert result.aborted
    assert not result.base_converged
    assert result.accepted == []


def test_singular_jacobian_ends_clearing_unresolved(monkeypatch):
    def singular(model, state, observed_bus):
        raise SensitivityError("singular Jacobian")

    monkeypatch.setattr(market, "voltage_sensitivity", singular)
    result = clear_market(FIXTURE_OFFERS, feeder4(4.0), BAND)
    assert not result.resolved and not result.aborted
    assert result.accepted == [] and result.iterations == 0
    assert len(result.excursions) == 1


def test_determinism_same_book_same_result():
    a = clear_market(FIXTURE_OFFERS, feeder4(4.0), BAND)
    b = clear_market(list(reversed(FIXTURE_OFFERS)), feeder4(4.0), BAND)
    assert [x.offer_id for x in a.accepted] == [x.offer_id for x in b.accepted]
    assert a.payments_eur == b.payments_eur


def test_offer_tie_breaks_on_lower_offer_id():
    offers = [
        Offer("b", "x", 4, 1.0, 5.0, 1),
        Offer("a", "y", 4, 1.0, 5.0, 1),
    ]
    result = clear_market(offers, feeder4(3.6), BAND)
    assert result.accepted[0].offer_id == "a"


def test_ineffective_offers_skipped():
    # Negative-q offers worsen an undervoltage; they must never be accepted.
    offers = [
        Offer("bad", "x", 4, -1.0, 0.1, 1),
        Offer("good", "y", 4, 1.0, 50.0, 1),
    ]
    result = clear_market(offers, feeder4(3.6), BAND)
    assert [a.offer_id for a in result.accepted] == ["good"]


def test_payments_nonnegative_and_only_for_accepted():
    result = clear_market(FIXTURE_OFFERS, feeder4(4.0), BAND)
    assert all(v >= 0 for v in result.payments_eur.values())
    assert "a3" not in result.payments_eur


def test_greedy_vs_brute_force_on_random_cases():
    rng = random.Random(20240811)
    agree = 0
    cases = 0
    ratios = []
    while cases < 12:
        scale = rng.uniform(2.0, 4.3)
        model = feeder4(scale)
        n = rng.randint(1, 5)
        offers = []
        for i in range(n):
            bus = rng.choice((2, 3, 4))
            q = rng.choice((0.4, 0.8, 1.2, -0.5))
            offers.append(Offer(f"r{i}", f"ag{i}", bus, q, rng.uniform(1, 30), 1))
        cases += 1
        result = clear_market(offers, model, BAND)
        if result.aborted:
            continue
        feasible, any_feasible = brute_force_resolving_subsets(offers, model, BAND)
        assert result.resolved == any_feasible, (
            f"feasibility disagreement at scale={scale:.3f} offers={offers}"
        )
        agree += 1
        if result.resolved and any_feasible:
            optimal = min(cost for _, cost in feasible)
            if optimal > 0:
                ratios.append(result.total_cost_eur / optimal)
    assert agree == cases
    assert all(r >= 1.0 - 1e-9 for r in ratios)


def test_greedy_exhaustion_property():
    # When greedy ends unresolved with offers on the table, the full book
    # also fails (checked by one extra solve with everything accepted).
    model = feeder4(4.3)
    offers = [Offer(f"t{i}", f"g{i}", 3, 0.3, 5.0, 1) for i in range(3)]
    result = clear_market(offers, model, BAND)
    if not result.resolved:
        from analyse.grid import solve_power_flow

        work = model
        for o in offers:
            work = work.with_injection(o.bus, o.q_mvar)
        state = solve_power_flow(work)
        assert state.converged
        assert any(not (BAND.v_min_pu <= v <= BAND.v_max_pu) for v in state.vm)


def test_settle_single_offer_arithmetic():
    result = clear_market(
        [Offer("one", "solo", 4, 1.0, 5.0, 1)], feeder4(3.6), BAND
    )
    assert result.accepted
    assert settle(result) == pytest.approx({"solo": 5.0})


def test_baseline_bid_static():
    asset = BidderAsset("a", 4, -1.5, 1.5)
    offer = baseline_bid(asset, BidStrategy("static", 8.0), 3, random.Random(0), "a-3")
    assert offer.q_mvar == 1.5
    assert offer.price_eur_per_mvar == 8.0
    assert offer.interval == 3


def test_baseline_bid_zero_headroom():
    asset = BidderAsset("a", 4, 0.0, 0.0)
    assert baseline_bid(asset, BidStrategy("static", 8.0), 3, random.Random(0), "a-3") is None


def test_baseline_bid_jitter_bounds_and_determinism():
    asset = BidderAsset("a", 4, -1.5, 1.5)
    strategy = BidStrategy("jitter", 10.0)

    def sequence(seed):
        rng = random.Random(seed)
        return [
            baseline_bid(asset, strategy, i, rng, f"a-{i}").price_eur_per_mvar
            for i in range(50)
        ]

    first, second = sequence(99), sequence(99)
    assert first == second
    assert sequence(100) != first
    assert all(8.0 <= p <= 12.0 for p in first)


def test_offer_wire_payload_round_trip():
    offer = FIXTURE_OFFERS[0]
    payload = canonical_json(offer.wire_payload())
    assert payload.startswith('{"agent_id":"a1"')  # keys sorted
    import json

    assert offer_from_payload(json.loads(payload)) == offer
    with pytest.raises(MarketError):
        offer_from_payload({"offer_id": "x"})
    with pytest.raises(MarketError):
        offer_from_payload({**offer.wire_payload(), "q_mvar": 0.0})


@pytest.mark.parametrize("key,value", [
    ("q_mvar", "1.0"), ("q_mvar", True), ("price_eur_per_mvar", None),
    ("bus", 3.0), ("bus", "3"), ("interval", [5]), ("offer_id", 7), ("agent_id", {}),
])
def test_offer_payload_fields_are_not_coerced(key, value):
    with pytest.raises(MarketError, match=f"malformed offer payload: {key} has type"):
        offer_from_payload({**FIXTURE_OFFERS[0].wire_payload(), key: value})
