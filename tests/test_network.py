import math
import random

import pytest

from analyse.network import (
    AttackRule,
    Frame,
    LinkSpec,
    MatchSpec,
    Network,
    NetworkError,
    NetworkTopology,
    NodeSpec,
)


def line_topology(loss=0.0, latency_ms=10.0, bandwidth_kbps=None):
    return NetworkTopology(
        nodes=(NodeSpec("a"), NodeSpec("sw", "switch"), NodeSpec("b")),
        links=(
            LinkSpec("a", "sw", latency_ms, bandwidth_kbps, loss),
            LinkSpec("sw", "b", latency_ms, bandwidth_kbps, loss),
        ),
    )


def single_link(loss=0.0, latency_ms=10.0, bandwidth_kbps=None):
    return NetworkTopology(
        nodes=(NodeSpec("a"), NodeSpec("b")),
        links=(LinkSpec("a", "b", latency_ms, bandwidth_kbps, loss),),
    )


def make(topology, seed=1, emit=None, window=900.0):
    return Network(topology, random.Random(seed), emit=emit, utilization_window_s=window)


def frame(net, src, dst, t, size=100, payload=b"x" * 100):
    return Frame(net.next_frame_id(src), src, dst, t, size, payload)


def test_topology_validation():
    with pytest.raises(NetworkError, match="unknown endpoint"):
        NetworkTopology((NodeSpec("a"),), (LinkSpec("a", "b"),)).validate()
    with pytest.raises(NetworkError, match="loss_prob"):
        NetworkTopology(
            (NodeSpec("a"), NodeSpec("b")), (LinkSpec("a", "b", loss_prob=1.5),)
        ).validate()
    with pytest.raises(NetworkError, match="not connected"):
        NetworkTopology((NodeSpec("a"), NodeSpec("b")), ()).validate()


def test_pure_latency_delivery_time_exact():
    net = make(single_link(latency_ms=10.0))
    net.send(frame(net, "a", "b", 5.0))
    net.advance(10.0)
    delivered = net.delivered("b")
    assert len(delivered) == 1
    assert delivered[0][0] == 5.0 + 10.0 / 1000.0  # exactly 5.010


def test_delivered_returns_each_frame_once():
    net = make(single_link())
    for i in range(3):
        net.send(frame(net, "a", "b", float(i)))
    net.advance(1.5)
    assert [f.frame_id for _, f in net.delivered("b")] == [0, 1]
    assert net.delivered("b") == []
    net.advance(10.0)
    assert [f.frame_id for _, f in net.delivered("b")] == [2]
    assert net.delivered("b") == []


def test_transmission_time_added_when_bandwidth_finite():
    net = make(single_link(latency_ms=0.0, bandwidth_kbps=100.0))  # 100 kbit/s
    net.send(frame(net, "a", "b", 0.0, size=1250, payload=b"y" * 1250))  # 10 kbit
    net.advance(10.0)
    assert net.delivered("b")[0][0] == pytest.approx(0.1, abs=1e-12)


def test_loss_one_never_delivers_and_counts():
    net = make(single_link(loss=1.0))
    net.send(frame(net, "a", "b", 0.0))
    net.advance(10.0)
    assert net.delivered("b") == []
    assert net.read_counters("b").frames_dropped == 1
    assert net.read_counters("a").bytes_out == 100
    assert net.read_counters("b").bytes_in == 0


def binomial_central_99(n, p):
    # smallest [lo, hi] with cdf(lo-1) <= 0.005 and cdf(hi) >= 0.995
    probs = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    cdf = 0.0
    lo = hi = None
    for k, pk in enumerate(probs):
        cdf += pk
        if lo is None and cdf > 0.005:
            lo = k
        if hi is None and cdf >= 0.995:
            hi = k
            break
    return lo, hi


def test_seeded_loss_delivery_count_in_binomial_interval():
    lo, hi = binomial_central_99(1000, 0.5)
    assert (lo, hi) == (459, 541)
    net = make(single_link(loss=0.5), seed=424242)
    for i in range(1000):
        net.send(frame(net, "a", "b", float(i)))
    net.advance(2000.0)
    delivered = len(net.delivered("b"))
    assert lo <= delivered <= hi
    assert delivered + net.read_counters("b").frames_dropped == 1000


def test_seeded_loss_pattern_reproducible():
    def pattern(seed):
        net = make(single_link(loss=0.5), seed=seed)
        for i in range(300):
            net.send(frame(net, "a", "b", float(i)))
        net.advance(1000.0)
        return [f.frame_id for _, f in net.delivered("b")]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)


def test_no_loss_delivers_exactly_once_in_order():
    net = make(line_topology())
    for i in range(50):
        net.send(frame(net, "a", "b", float(i) * 0.001))
    net.advance(10.0)
    delivered = net.delivered("b")
    assert len(delivered) == 50
    ids = [f.frame_id for _, f in delivered]
    assert ids == sorted(ids)


def test_delivery_time_reconstructible_from_hop_delays():
    events = []
    net = make(
        line_topology(latency_ms=3.0, bandwidth_kbps=5000.0),
        emit=lambda kind, t, p: events.append((kind, t, p)),
    )
    net.send(frame(net, "a", "b", 1.0))
    net.advance(5.0)
    deliver = next(p for kind, _, p in events if kind == "net.deliver")
    t = deliver["sent_at"]
    for hop in deliver["hop_delays"]:
        t = t + hop
    assert t == deliver["delivered_at"]  # exact float equality


def test_restart_node_offline_window():
    net = make(line_topology())
    net.advance(100.0)
    net.restart_node("sw", 30.0)
    net.send(frame(net, "a", "b", 110.0))
    net.advance(120.0)
    assert net.delivered("b") == []
    assert net.read_counters("sw").frames_dropped == 1
    net.advance(130.5)
    net.send(frame(net, "a", "b", 131.0))
    net.advance(140.0)
    assert len(net.delivered("b")) == 1


def test_restart_zero_downtime_no_effect():
    net = make(line_topology())
    net.restart_node("sw", 0.0)
    net.send(frame(net, "a", "b", 0.0))
    net.advance(1.0)
    assert len(net.delivered("b")) == 1


def test_offline_src_swallows_frame():
    events = []
    net = make(line_topology(), emit=lambda kind, t, p: events.append(kind))
    net.restart_node("a", 50.0)
    assert net.send(frame(net, "a", "b", 1.0)) is False
    net.advance(60.0)
    assert net.delivered("b") == []
    assert events.count("net.drop") == 1
    assert net.read_counters("a").bytes_out == 0


def test_counters_accounting_single_frame():
    net = make(line_topology())
    net.send(frame(net, "a", "b", 0.0, size=100))
    net.advance(1.0)
    assert net.read_counters("a").bytes_out == 100
    assert net.read_counters("b").bytes_in == 100
    assert net.read_counters("sw").bytes_in == 0  # transit, not terminus
    empty = make(line_topology())
    c = empty.read_counters("sw")
    assert (c.bytes_in, c.bytes_out, c.frames_dropped, c.utilization) == (0, 0, 0, 0.0)


def test_counter_conservation_with_losses_and_rules():
    net = make(line_topology(loss=0.3), seed=5)
    net.install_rule(AttackRule("r1", "sw", MatchSpec(src="a"), "drop",
                                active_from=20.0, active_until=40.0))
    sizes = []
    for i in range(200):
        size = 60 + (i % 5) * 17
        sizes.append(size)
        net.send(frame(net, "a", "b", float(i), size=size, payload=b"z" * size))
    net.advance(500.0)
    bytes_out = sum(net.read_counters(n).bytes_out for n in ("a", "sw", "b"))
    bytes_in = sum(net.read_counters(n).bytes_in for n in ("a", "sw", "b"))
    assert bytes_out == bytes_in + net.dropped_bytes_total
    assert bytes_out == sum(sizes)


def test_drop_rule_matches_and_window():
    net = make(line_topology())
    net.install_rule(AttackRule("dos", "sw", MatchSpec(src="a"), "drop",
                                active_from=0.0, active_until=100.0))
    net.send(frame(net, "a", "b", 1.0))
    net.advance(10.0)
    assert net.delivered("b") == []
    # outside the window the rule is inert
    net.send(frame(net, "a", "b", 200.0))
    net.advance(300.0)
    assert len(net.delivered("b")) == 1


def test_rule_window_entirely_past_has_no_effect():
    net = make(line_topology())
    net.advance(50.0)
    net.install_rule(AttackRule("old", "sw", MatchSpec(), "drop",
                                active_from=0.0, active_until=10.0))
    net.send(frame(net, "a", "b", 51.0))
    net.advance(60.0)
    assert len(net.delivered("b")) == 1


def test_tamper_rule_rewrites_payload_verbatim():
    net = make(line_topology())
    replacement = b'{"price_eur_per_mvar": 999}'
    net.install_rule(AttackRule("t", "sw", MatchSpec(payload_contains=b"price"),
                                "tamper", replacement=replacement))
    net.send(frame(net, "a", "b", 0.0, size=30, payload=b'{"price_eur_per_mvar": 5}'))
    net.advance(10.0)
    (_, delivered) = net.delivered("b")[0]
    assert delivered.payload == replacement


def test_delay_rule_adds_exactly_extra_ms():
    plain = make(line_topology(latency_ms=10.0))
    plain.send(frame(plain, "a", "b", 0.0))
    plain.advance(10.0)
    base_time = plain.delivered("b")[0][0]

    slowed = make(line_topology(latency_ms=10.0))
    slowed.install_rule(AttackRule("d", "sw", MatchSpec(), "delay", extra_ms=500.0))
    slowed.send(frame(slowed, "a", "b", 0.0))
    slowed.advance(10.0)
    assert slowed.delivered("b")[0][0] == pytest.approx(base_time + 0.5, abs=1e-12)


def test_duplicate_rule_id_rejected_and_remove_idempotent():
    net = make(line_topology())
    net.install_rule(AttackRule("r", "sw", MatchSpec(), "drop"))
    with pytest.raises(NetworkError, match="duplicate"):
        net.install_rule(AttackRule("r", "sw", MatchSpec(), "drop"))
    net.remove_rule("r")
    net.remove_rule("r")  # second removal is a no-op
    assert not net.has_rule("r")


def test_frame_ids_must_increase_per_sender():
    net = make(line_topology())
    net.send(Frame(5, "a", "b", 0.0, 10, b"0123456789"))
    with pytest.raises(NetworkError, match="increasing"):
        net.send(Frame(5, "a", "b", 1.0, 10, b"0123456789"))


def test_shortest_path_ties_lexicographic():
    # two equal-cost two-hop paths b->x->c and b->y->c; x wins on name
    topology = NetworkTopology(
        nodes=(NodeSpec("b"), NodeSpec("x", "switch"), NodeSpec("y", "switch"), NodeSpec("c")),
        links=(LinkSpec("b", "x"), LinkSpec("b", "y"), LinkSpec("x", "c"), LinkSpec("y", "c")),
    )
    net = make(topology)
    assert net.shortest_path("b", "c") == ["b", "x", "c"]


def test_utilization_matches_event_recount():
    window = 10.0
    bandwidth = 800.0  # kbit/s
    events = []
    net = make(single_link(latency_ms=1.0, bandwidth_kbps=bandwidth),
               emit=lambda kind, t, p: events.append((kind, t, p)),
               window=window)
    k, size = 7, 500
    for i in range(k):
        net.send(frame(net, "a", "b", float(i) * 0.5, size=size, payload=b"q" * size))
    net.advance(window)
    got = net.read_counters("a", window).utilization
    # recount departures at "a" from the event log inside the window
    sent_bytes = sum(p["size_bytes"] for kind, t, p in events
                     if kind == "net.send" and t >= net.now - window)
    assert got == pytest.approx(sent_bytes * 8.0 / (bandwidth * 1000.0 * window))
    assert got == pytest.approx(k * size * 8.0 / (bandwidth * 1000.0 * window))
    assert 0.0 <= got <= 1.0


def test_utilization_matches_resummed_window_after_every_advance():
    # h3 reaches the switch through a router on an unlimited link, so h3 and
    # r have no enforced capacity; every other interface does.
    window = 2.0
    topology = NetworkTopology(
        nodes=(NodeSpec("h1"), NodeSpec("h2"), NodeSpec("h3"),
               NodeSpec("r", "router"), NodeSpec("sw", "switch")),
        links=(LinkSpec("h1", "sw", 5.0, 800.0), LinkSpec("h2", "sw", 3.0, 400.0),
               LinkSpec("r", "sw", 1.0, 2000.0), LinkSpec("h3", "r", 1.0, None)),
    )
    capacity_bps = {"h1": 800e3, "h2": 400e3, "sw": 3200e3, "h3": None, "r": None}
    links = {(l.a, l.b): l for l in topology.links}
    links.update({(l.b, l.a): l for l in topology.links})
    net = make(topology, window=window)
    rng = random.Random(7)
    hops = []  # (node, "in" | "out", time, size) of every hop, in the network's arithmetic
    now = 0.0
    busy = 0
    for _ in range(200):
        for _ in range(rng.randint(0, 3)):
            src, dst = rng.sample(("h1", "h2", "h3"), 2)
            size = rng.randint(1, 1500)
            net.send(frame(net, src, dst, now, size=size, payload=b"x" * size))
            t = now
            path = net.shortest_path(src, dst)
            for a, b in zip(path, path[1:]):
                hops.append((a, "out", t, size))
                link = links[(a, b)]
                tx_s = 0.0
                if link.bandwidth_kbps is not None:
                    tx_s = size * 8.0 / (link.bandwidth_kbps * 1000.0)
                t = t + (link.latency_ms / 1000.0 + tx_s)
                hops.append((b, "in", t, size))
        now += rng.uniform(0.0, 1.0)
        net.advance(now)
        for node, capacity in capacity_bps.items():
            got = net.read_counters(node).utilization
            if capacity is None:
                assert got == 0.0
                continue
            total = {"in": 0, "out": 0}
            for n, direction, t, size in hops:
                if n == node and now - window <= t <= now:
                    total[direction] += size
            assert got == 8.0 * max(total.values()) / (capacity * window), (node, now)
            busy += got > 0.0
    assert busy > 100


def test_unknown_nodes_rejected():
    net = make(line_topology())
    with pytest.raises(NetworkError):
        net.read_counters("zz")
    with pytest.raises(NetworkError):
        net.restart_node("zz", 1.0)
    with pytest.raises(NetworkError):
        net.send(Frame(0, "zz", "b", 0.0, 1, b"x"))
