import random

import pytest

from analyse import market
from analyse.grid import SensitivityError, Sgen, solve_power_flow
from analyse.market import (
    Bidder,
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

BAND = VoltageBand(0.95, 1.05)

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
    assert len(result.accepted) <= len(FIXTURE_OFFERS)


def test_base_nonconvergence_aborts_clearing():
    result = clear_market(FIXTURE_OFFERS, feeder4(40.0), BAND)
    assert result.aborted and not result.accepted  # only the base flow was solved


@pytest.mark.filterwarnings("error::RuntimeWarning")  # divergence is quiet
def test_a_re_solve_that_diverges_aborts_clearing():
    # 1000 Mvar at bus 4 is effective against the undervoltage at scale 4.0,
    # but the flow with it accepted diverges even from a flat start, so it is
    # neither accepted nor paid.
    result = clear_market([Offer("big", "a1", 4, 1000.0, 1.0, 5)], feeder4(4.0), BAND)
    assert result.aborted and not result.resolved
    assert result.final_vm == {}
    assert result.accepted == []
    assert result.payments_eur == {}
    assert result.total_cost_eur == 0.0
    assert len(result.excursions) == 1  # only the base flow was measured


def test_offers_accepted_before_a_diverging_re_solve_stand():
    # the cheap offer is accepted under a converged flow, the violation
    # remains, and the big one then makes the re-solve diverge
    offers = [Offer("big", "a1", 4, 1000.0, 1.0, 5), Offer("small", "a2", 3, 0.1, 0.1, 5)]
    result = clear_market(offers, feeder4(4.0), BAND)
    assert result.aborted and not result.resolved
    assert result.final_vm == {}
    assert [a.offer_id for a in result.accepted] == ["small"]
    assert result.payments_eur == {"a2": 0.1 * 0.1}
    assert len(result.excursions) == 2  # the base flow and the flow with "small"


def test_singular_jacobian_ends_clearing_unresolved(monkeypatch):
    def singular(model, state, observed_bus):
        raise SensitivityError("singular Jacobian")

    monkeypatch.setattr(market, "voltage_sensitivity", singular)
    result = clear_market(FIXTURE_OFFERS, feeder4(4.0), BAND)
    assert not result.resolved and not result.aborted
    assert result.accepted == []
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



def test_warm_started_clearing_matches_flat_started_clearing(monkeypatch):
    # The base solve from a nearby converged state (and every re-solve from
    # the state before it) accepts the same offers as from flat starts.
    solves = []

    def spy(model, start=None):
        solves.append((start, solve_power_flow(model, start)))
        return solves[-1][1]

    rng = random.Random(0x3A6D)
    for _ in range(40):
        scale = rng.uniform(2.0, 4.3)
        offers = [
            Offer(f"w{i}", f"ag{i}", rng.choice((2, 3, 4)), rng.choice((0.4, 0.8, 1.2, -0.5)),
                  rng.uniform(1, 30), 1)
            for i in range(rng.randint(1, 5))
        ]
        start = solve_power_flow(feeder4(scale * rng.uniform(0.8, 1.0)))
        cold = clear_market(offers, feeder4(scale), BAND)
        solves.clear()
        with monkeypatch.context() as patched:
            patched.setattr(market, "solve_power_flow", spy)
            warm = clear_market(offers, feeder4(scale), BAND, start)
        assert solves[0][0] is start
        assert all(now[0] is before[1] for before, now in zip(solves, solves[1:]))
        assert warm.accepted == cold.accepted
        assert warm.payments_eur == cold.payments_eur
        assert (warm.resolved, warm.aborted) == (cold.resolved, cold.aborted)
        assert warm.excursions == pytest.approx(cold.excursions, abs=1e-7)
        assert warm.final_vm == pytest.approx(cold.final_vm, abs=1e-7)

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
    bidder = Bidder("a", "a", "h", "static", 8.0, "supply")
    sgen = Sgen(4, 0.0, 0.0, -1.5, 1.5)
    offer = baseline_bid(bidder, sgen, 3, random.Random(0), "a-3", 8.0, 1.0)
    assert offer.q_mvar == 1.5
    assert offer.price_eur_per_mvar == 8.0
    assert offer.interval == 3


def test_baseline_bid_zero_headroom():
    bidder = Bidder("a", "a", "h", "static", 8.0, "supply")
    sgen = Sgen(4, 0.0, 0.0, 0.0, 0.0)
    offer = baseline_bid(bidder, sgen, 3, random.Random(0), "a-3", 8.0, 1.0)
    assert offer is None


def test_baseline_bid_jitter_bounds_and_determinism():
    bidder = Bidder("a", "a", "h", "jitter", 10.0, "supply")
    sgen = Sgen(4, 0.0, 0.0, -1.5, 1.5)

    def sequence(seed):
        rng = random.Random(seed)
        return [
            baseline_bid(bidder, sgen, i, rng, f"a-{i}", 10.0, 1.0).price_eur_per_mvar
            for i in range(50)
        ]

    first, second = sequence(99), sequence(99)
    assert first == second
    assert sequence(100) != first
    assert all(8.0 <= p <= 12.0 for p in first)


def test_offer_wire_payload_round_trip():
    offer = FIXTURE_OFFERS[0]
    payload = canonical_json(offer._asdict())
    assert payload.startswith('{"agent_id":"a1"')  # keys sorted
    import json

    assert offer_from_payload(json.loads(payload)) == offer
    with pytest.raises(MarketError):
        offer_from_payload({"offer_id": "x"})
    with pytest.raises(MarketError):
        offer_from_payload({**offer._asdict(), "q_mvar": 0.0})


@pytest.mark.parametrize("key,value", [
    ("q_mvar", "1.0"), ("q_mvar", True), ("price_eur_per_mvar", None),
    ("bus", 3.0), ("bus", "3"), ("interval", [5]), ("offer_id", 7), ("agent_id", {}),
])
def test_offer_payload_fields_are_not_coerced(key, value):
    with pytest.raises(MarketError, match=f"malformed offer payload: {key} has type"):
        offer_from_payload({**FIXTURE_OFFERS[0]._asdict(), key: value})
