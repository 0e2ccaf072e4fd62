import math
import random

import pytest

from analyse.network import (
    AttackRule,
    LinkSpec,
    MatchSpec,
    Network,
    NetworkTopology,
    NodeSpec,
)


EVERY_FRAME = MatchSpec(None, None, None)


def line_topology(loss=0.0, latency_ms=10.0, bandwidth_kbps=None):
    return NetworkTopology(
        nodes=(NodeSpec("a"), NodeSpec("sw"), NodeSpec("b")),
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


def send(net, src, dst, t, payload=b"x" * 100):
    return net.send(src, dst, payload, t)


def test_pure_latency_delivery_time_exact():
    net = make(single_link(latency_ms=10.0))
    send(net, "a", "b", 5.0)
    net.advance(10.0)
    delivered = net.delivered("b")
    assert len(delivered) == 1
    assert delivered[0][0] == 5.0 + 10.0 / 1000.0  # exactly 5.010


def test_delivered_returns_each_frame_once():
    net = make(single_link())
    for i in range(3):
        send(net, "a", "b", float(i))
    net.advance(1.5)
    assert [f.frame_id for _, f in net.delivered("b")] == [0, 1]
    assert net.delivered("b") == []
    net.advance(10.0)
    assert [f.frame_id for _, f in net.delivered("b")] == [2]
    assert net.delivered("b") == []


def test_holding_names_the_nodes_with_frames_to_deliver_in_arrival_order():
    net = make(line_topology())
    assert net.holding() == ()
    send(net, "b", "a", 0.0)  # reaches a at 0.02
    send(net, "a", "b", 0.005)  # reaches b at 0.025
    send(net, "sw", "b", 0.0)  # reaches b at 0.01
    net.advance(0.015)
    assert net.holding() == ("b",)
    net.advance(1.0)
    assert net.holding() == ("b", "a")  # b got its first frame first
    assert [f.frame_id for _, f in net.delivered("b")] == [0, 0]
    assert net.holding() == ("a",)
    assert net.delivered("b") == []  # a node that holds nothing still answers
    assert len(net.delivered("a")) == 1
    assert net.holding() == ()
    send(net, "sw", "a", 1.0)
    net.advance(2.0)
    assert net.holding() == ("a",)


def test_transmission_time_added_when_bandwidth_finite():
    net = make(single_link(latency_ms=0.0, bandwidth_kbps=100.0))  # 100 kbit/s
    send(net, "a", "b", 0.0, b"y" * 1250)  # 10 kbit
    net.advance(10.0)
    assert net.delivered("b")[0][0] == pytest.approx(0.1, abs=1e-12)


def test_loss_one_never_delivers_and_counts():
    net = make(single_link(loss=1.0))
    send(net, "a", "b", 0.0)
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
        send(net, "a", "b", float(i))
    net.advance(2000.0)
    delivered = len(net.delivered("b"))
    assert lo <= delivered <= hi
    assert delivered + net.read_counters("b").frames_dropped == 1000


def test_seeded_loss_pattern_reproducible():
    def pattern(seed):
        net = make(single_link(loss=0.5), seed=seed)
        for i in range(300):
            send(net, "a", "b", float(i))
        net.advance(1000.0)
        return [f.frame_id for _, f in net.delivered("b")]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)


def test_no_loss_delivers_exactly_once_in_order():
    net = make(line_topology())
    for i in range(50):
        send(net, "a", "b", float(i) * 0.001)
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
    send(net, "a", "b", 1.0)
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
    send(net, "a", "b", 110.0)
    net.advance(120.0)
    assert net.delivered("b") == []
    assert net.read_counters("sw").frames_dropped == 1
    net.advance(130.5)
    send(net, "a", "b", 131.0)
    net.advance(140.0)
    assert len(net.delivered("b")) == 1


def test_restart_zero_downtime_no_effect():
    net = make(line_topology())
    net.restart_node("sw", 0.0)
    send(net, "a", "b", 0.0)
    net.advance(1.0)
    assert len(net.delivered("b")) == 1


def test_offline_src_swallows_frame():
    events = []
    net = make(line_topology(), emit=lambda kind, t, p: events.append(kind))
    net.restart_node("a", 50.0)
    assert send(net, "a", "b", 1.0) is False
    net.advance(60.0)
    assert net.delivered("b") == []
    assert events.count("net.drop") == 1
    assert net.read_counters("a").bytes_out == 0


def test_counters_accounting_single_frame():
    net = make(line_topology())
    send(net, "a", "b", 0.0)
    net.advance(1.0)
    assert net.read_counters("a").bytes_out == 100
    assert net.read_counters("b").bytes_in == 100
    assert net.read_counters("sw").bytes_in == 0  # transit, not terminus
    empty = make(line_topology())
    c = empty.read_counters("sw")
    assert (c.bytes_in, c.bytes_out, c.frames_dropped, c.utilization) == (0, 0, 0, 0.0)


def test_counter_conservation_with_losses_and_rules():
    net = make(line_topology(loss=0.3), seed=5)
    net.install_rule(AttackRule("r1", "sw", MatchSpec("a", None, None), "drop", b"", 0.0,
                                20.0, 40.0))
    sizes = []
    for i in range(200):
        size = 60 + (i % 5) * 17
        sizes.append(size)
        send(net, "a", "b", float(i), b"z" * size)
    net.advance(500.0)
    bytes_out = sum(net.read_counters(n).bytes_out for n in ("a", "sw", "b"))
    bytes_in = sum(net.read_counters(n).bytes_in for n in ("a", "sw", "b"))
    assert bytes_out == bytes_in + net.dropped_bytes_total
    assert bytes_out == sum(sizes)


def test_drop_rule_matches_and_window():
    net = make(line_topology())
    net.install_rule(AttackRule("dos", "sw", MatchSpec("a", None, None), "drop", b"", 0.0,
                                0.0, 100.0))
    send(net, "a", "b", 1.0)
    net.advance(10.0)
    assert net.delivered("b") == []
    # outside the window the rule is inert
    send(net, "a", "b", 200.0)
    net.advance(300.0)
    assert len(net.delivered("b")) == 1


def test_rule_window_entirely_past_has_no_effect():
    net = make(line_topology())
    net.advance(50.0)
    net.install_rule(AttackRule("old", "sw", EVERY_FRAME, "drop", b"", 0.0, 0.0, 10.0))
    send(net, "a", "b", 51.0)
    net.advance(60.0)
    assert len(net.delivered("b")) == 1


def test_tamper_rule_rewrites_payload_verbatim():
    net = make(line_topology())
    replacement = b'{"price_eur_per_mvar": 999}'
    net.install_rule(AttackRule("t", "sw", MatchSpec(None, None, b"price"), "tamper",
                                replacement, 0.0, 0.0, math.inf))
    send(net, "a", "b", 0.0, b'{"price_eur_per_mvar": 5}')
    net.advance(10.0)
    (_, delivered) = net.delivered("b")[0]
    assert delivered.payload == replacement


def test_delay_rule_adds_exactly_extra_ms():
    plain = make(line_topology(latency_ms=10.0))
    send(plain, "a", "b", 0.0)
    plain.advance(10.0)
    base_time = plain.delivered("b")[0][0]

    slowed = make(line_topology(latency_ms=10.0))
    slowed.install_rule(AttackRule("d", "sw", EVERY_FRAME, "delay", b"", 500.0, 0.0, math.inf))
    send(slowed, "a", "b", 0.0)
    slowed.advance(10.0)
    assert slowed.delivered("b")[0][0] == pytest.approx(base_time + 0.5, abs=1e-12)


def test_remove_rule_is_idempotent():
    net = make(line_topology())
    net.install_rule(AttackRule("r", "sw", EVERY_FRAME, "drop", b"", 0.0, 0.0, math.inf))
    net.remove_rule("r")
    net.remove_rule("r")  # second removal is a no-op
    assert not net.has_rule("r")


def test_network_numbers_frames_from_zero_per_source():
    events = []
    net = make(line_topology(), emit=lambda kind, t, p: events.append((kind, p)))
    net.restart_node("a", 1.5)
    for t in (1.0, 2.0, 3.0):  # a's first frame is swallowed offline, and still numbered
        send(net, "a", "b", t)
        send(net, "b", "a", t + 1.0, payload=b"yy")
    net.advance(10.0)
    sent = [(p["src"], p["frame_id"]) for kind, p in events if kind in ("net.send", "net.drop")]
    assert sent == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    assert [f.frame_id for _, f in net.delivered("b")] == [1, 2]
    assert [f.frame_id for _, f in net.delivered("a")] == [0, 1, 2]
    sizes = {p["src"]: p["size_bytes"] for kind, p in events if kind == "net.deliver"}
    assert sizes == {"a": 100, "b": 2}


def test_shortest_path_ties_lexicographic():
    # two equal-cost two-hop paths b->x->c and b->y->c; x wins on name
    topology = NetworkTopology(
        nodes=(NodeSpec("b"), NodeSpec("x"), NodeSpec("y"),
               NodeSpec("c")),
        links=tuple(LinkSpec(a, b, 1.0, None, 0.0)
                    for a, b in (("b", "x"), ("b", "y"), ("x", "c"), ("y", "c"))),
    )
    net = make(topology)
    assert net.shortest_path("b", "c") == ["b", "x", "c"]



def test_routes_are_searched_once_and_never_shared():
    topology = NetworkTopology(
        nodes=(NodeSpec("b"), NodeSpec("x"), NodeSpec("y"),
               NodeSpec("c")),
        links=tuple(LinkSpec(a, b, 1.0, None, 0.0)
                    for a, b in (("b", "x"), ("b", "y"), ("x", "c"), ("y", "c"))),
    )
    events = []
    net = make(topology, emit=lambda kind, t, p: events.append((kind, p)))
    first = net.shortest_path("b", "c")
    first.append("tampered")
    assert net.shortest_path("b", "c") == ["b", "x", "c"]
    for i in range(3):
        send(net, "b", "c", float(i))
        send(net, "c", "b", float(i))
    net.advance(10.0)
    assert net._routes == {("b", "c"): ("b", "x", "c"), ("c", "b"): ("c", "x", "b")}
    paths = [p["path"] for kind, p in events if kind == "net.send"]
    assert paths == [["b", "x", "c"], ["c", "x", "b"]] * 3
    assert len({id(p) for p in paths}) == len(paths)

def test_utilization_matches_event_recount():
    window = 10.0
    bandwidth = 800.0  # kbit/s
    events = []
    net = make(single_link(latency_ms=1.0, bandwidth_kbps=bandwidth),
               emit=lambda kind, t, p: events.append((kind, t, p)),
               window=window)
    k, size = 7, 500
    for i in range(k):
        send(net, "a", "b", float(i) * 0.5, b"q" * size)
    net.advance(window)
    got = net.read_counters("a").utilization
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
               NodeSpec("r"), NodeSpec("sw")),
        links=(LinkSpec("h1", "sw", 5.0, 800.0, 0.0), LinkSpec("h2", "sw", 3.0, 400.0, 0.0),
               LinkSpec("r", "sw", 1.0, 2000.0, 0.0), LinkSpec("h3", "r", 1.0, None, 0.0)),
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
            send(net, src, dst, now, b"x" * size)
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


@pytest.mark.parametrize("bandwidth_kbps", [None, 10_000.0])
def test_transit_windows_hold_only_what_utilization_reads(bandwidth_kbps):
    window = 1.0
    events = []
    net = make(line_topology(latency_ms=1.0, bandwidth_kbps=bandwidth_kbps),
               emit=lambda kind, t, p: events.append((kind, p)), window=window)
    n = 20_000
    for i in range(n):
        send(net, "a", "b", i * 0.1)
    net.advance(n * 0.1)
    # every hop's time, in the network's arithmetic, from the delivery records
    transit = {"a": [], "sw": [], "b": []}
    for kind, p in events:
        if kind == "net.deliver":
            at_sw = p["sent_at"] + p["hop_delays"][0]
            transit["a"].append(p["sent_at"])
            transit["sw"] += [at_sw, at_sw]  # in, then out
            transit["b"].append(p["delivered_at"])
    assert len(transit["b"]) == n
    capacity_bps = {"a": 1e7, "sw": 2e7, "b": 1e7} if bandwidth_kbps else {}
    held = 0
    for node, times in transit.items():
        got = net.read_counters(node).utilization
        if node not in capacity_bps:
            assert got == 0.0
            continue
        recent = sum(t >= net.now - window for t in times)
        held += recent
        busiest = 100 * (recent // 2 if node == "sw" else recent)
        assert got == 8.0 * busiest / (capacity_bps[node] * window), node
    # a window is kept only where utilization reads it, and only its records
    windows = [w for node in net._nodes.values()
               for w in (node.transit_in, node.transit_out) if w is not None]
    assert len(windows) == len(capacity_bps) * 2
    assert sum(len(w._records) for w in windows) == held
    # a network whose counters are never read holds no more: each window
    # keeps only the records within one window of its newest
    unread = make(line_topology(latency_ms=1.0, bandwidth_kbps=bandwidth_kbps), window=window)
    for i in range(n):
        send(unread, "a", "b", i * 0.1)
    unread.advance(n * 0.1)
    windows = [w for node in unread._nodes.values()
               for w in (node.transit_in, node.transit_out) if w is not None]
    assert len(windows) == len(capacity_bps) * 2
    used = [w for w in windows if w._records]  # a out, sw in and out, b in
    assert len(used) == (4 if bandwidth_kbps else 0)
    for w in used:
        newest = w._records[-1][0]
        assert all(t >= newest - window for t, _ in w._records)
        assert len(w._records) <= 11 and w._total == 100 * len(w._records)


@pytest.mark.parametrize("bandwidth_kbps", [None, 10_000.0])
def test_only_the_utilization_nodes_keep_windows(bandwidth_kbps):
    window = 1.0
    events = []
    net = Network(line_topology(latency_ms=1.0, bandwidth_kbps=bandwidth_kbps),
                  random.Random(1), emit=lambda kind, t, p: events.append((kind, p)),
                  utilization_window_s=window, utilization_nodes={"sw"})
    n = 2_000
    for i in range(n):
        send(net, "a", "b", i * 0.1)
    net.advance(n * 0.1)
    windowed = {node_id for node_id, node in net._nodes.items()
                if (node.transit_in, node.transit_out) != (None, None)}
    assert windowed == ({"sw"} if bandwidth_kbps else set())
    # sw's utilization is the exact recount of its hops, both ways, as where
    # every node keeps a window
    at_sw = [p["sent_at"] + p["hop_delays"][0] for kind, p in events if kind == "net.deliver"]
    assert len(at_sw) == n
    recent = sum(t >= net.now - window for t in at_sw)
    assert recent > 0
    busiest = 8.0 * 100 * recent / (2e7 * window) if bandwidth_kbps else 0.0
    assert net.read_counters("sw").utilization == busiest
    # a node outside the set: 0.0 where its link is unlimited, as everywhere;
    # a finite capacity it refuses, rather than read a window it did not keep
    for node in ("a", "b"):
        if bandwidth_kbps:
            with pytest.raises(ValueError, match="not one of the network's utilization nodes"):
                net.read_counters(node)
        else:
            assert net.read_counters(node).utilization == 0.0
