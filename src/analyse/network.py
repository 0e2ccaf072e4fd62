"""Discrete-event communication network with attack actuators.

Hosts, switches and routers exchange application frames over links with
latency, optional bandwidth (transmission time) and independent per-link
loss. Frames follow the unique shortest path by hop count (ties resolved by
the lexicographically smallest next node). There is no queueing model: a
frame's delivery time is the sum of per-hop latency, transmission time and
any matching delay-rule extras, so delivery times are exactly reconstructible
from the event log. send takes a source, a destination, a payload and a send
time; the network numbers each source's frames from 0 in send order, and a
frame's size is its payload's length, also after a tamper rule replaced it.

Attack surface: install_rule/remove_rule (drop, tamper, delay at a node) and
restart_node (a node goes offline for a downtime window; frames through it
are dropped). Sensors: cumulative per-node counters plus trailing-window
interface utilization.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class NodeSpec:
    node_id: str


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    latency_ms: float
    bandwidth_kbps: float | None  # None means unlimited (no tx time)
    loss_prob: float


@dataclass(frozen=True)
class NetworkTopology:
    """A sound, connected graph; the schema and validation.cross_check hold a document to it."""

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]

    @cached_property
    def neighbors(self) -> dict[str, list[str]]:
        """Each node's peers, in sorted order."""
        neighbors: dict[str, list[str]] = {n.node_id: [] for n in self.nodes}
        for link in self.links:
            neighbors[link.a].append(link.b)
            neighbors[link.b].append(link.a)
        for peers in neighbors.values():
            peers.sort()
        return neighbors

    @cached_property
    def hops(self) -> dict[tuple[str, str], tuple[float, float | None, float]]:
        """(latency in s, bandwidth in bit/s or None when unlimited, loss
        probability) per directed link."""
        hops = {}
        for link in self.links:
            bandwidth_bps = None if link.bandwidth_kbps is None else link.bandwidth_kbps * 1000.0
            hops[(link.a, link.b)] = hops[(link.b, link.a)] = (
                link.latency_ms / 1000.0, bandwidth_bps, link.loss_prob)
        return hops

    @cached_property
    def routes(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(src, dst) -> the route Network.shortest_path found; every network
        on this topology fills and reads it."""
        return {}


@dataclass(frozen=True)
class Frame:
    frame_id: int  # numbered by the network, from 0 per source
    src: str
    dst: str
    sent_at: float
    payload: bytes  # its length is the frame's size in bytes


@dataclass(frozen=True)
class MatchSpec:
    src: str | None  # None matches every frame
    dst: str | None
    payload_contains: bytes | None

    def matches(self, frame: Frame) -> bool:
        if self.src is not None and frame.src != self.src:
            return False
        if self.dst is not None and frame.dst != self.dst:
            return False
        if self.payload_contains is not None and self.payload_contains not in frame.payload:
            return False
        return True


@dataclass(frozen=True)
class AttackRule:
    """A known action; the schema holds a document to it."""

    rule_id: str
    at_node: str
    match: MatchSpec
    action: str  # drop | tamper | delay
    replacement: bytes
    extra_ms: float
    active_from: float
    active_until: float  # inf: never ends
    enabled: bool = True  # installed at the start of an episode

    def active_at(self, t: float) -> bool:
        return self.active_from <= t < self.active_until


class InterfaceCounters(NamedTuple):
    bytes_in: int
    bytes_out: int
    frames_dropped: int
    utilization: float


class _Tally:
    """A node's cumulative counters, as the network updates them."""

    __slots__ = ("bytes_in", "bytes_out", "frames_dropped")

    def __init__(self):
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_dropped = 0


class _ByteWindow:
    """Timestamped byte counts, with a running total of the ones still held."""

    def __init__(self):
        self._records: deque[tuple[float, int]] = deque()
        self._total = 0

    def add(self, t: float, size: int) -> None:
        self._records.append((t, size))
        self._total += size

    def total_since(self, cutoff: float) -> int:
        """Bytes recorded at or after cutoff; older records are forgotten."""
        records = self._records
        while records and records[0][0] < cutoff:
            self._total -= records.popleft()[1]
        return self._total


class Network:
    """Event-queue network; advance(t) processes everything due through t.
    It trusts its topology, a window > 0, every node id it is given and
    unique rule ids, as validation holds a document to them, and a time that
    never goes back, as the kernel steps it."""

    def __init__(
        self,
        topology: NetworkTopology,
        rng: random.Random,
        utilization_window_s: float,
        emit: Callable[[str, float, dict], None] | None = None,
    ):
        self.topology = topology
        self._rng = rng
        self._emit = emit or (lambda kind, t, payload: None)
        self.utilization_window_s = utilization_window_s
        self.now = 0.0
        self._seq = 0
        self._heap: list = []
        self._neighbors = topology.neighbors
        self._hops = topology.hops
        self._routes = topology.routes
        self._offline_until: dict[str, float] = {}
        self._rules: dict[str, AttackRule] = {}
        # node -> the rules installed at it, in rule_id order
        self._rules_at: dict[str, tuple[AttackRule, ...]] = {}
        self._counters = {n.node_id: _Tally() for n in topology.nodes}
        self._next_frame_id: dict[str, int] = {}
        self._delivered: dict[str, list[tuple[float, Frame]]] = {
            n.node_id: [] for n in topology.nodes
        }
        # hop-level transit bytes per node, for the utilization window
        self._transit_in = {n.node_id: _ByteWindow() for n in topology.nodes}
        self._transit_out = {n.node_id: _ByteWindow() for n in topology.nodes}
        # interface capacity per node; 0.0 when a link is unlimited or there
        # is none, and then utilization is not enforced
        self._capacity_bps: dict[str, float] = {}
        for node_id, peers in self._neighbors.items():
            capacity_bps = 0.0
            for peer in peers:
                bandwidth_bps = self._hops[(node_id, peer)][1]
                if bandwidth_bps is None:
                    capacity_bps = 0.0
                    break
                capacity_bps += bandwidth_bps
            self._capacity_bps[node_id] = capacity_bps
        self.dropped_bytes_total = 0

    # -- helpers -------------------------------------------------------------

    def is_online(self, node_id: str, t: float) -> bool:
        return t >= self._offline_until.get(node_id, 0.0)

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Hop-count shortest path; equal-cost ties take the lexicographically
        smallest next node (BFS over sorted neighbor lists from dst). Each
        (src, dst) route is searched once per topology, and every network on
        that topology reads it from there; every call returns a new list."""
        route = self._routes.get((src, dst))
        if route is not None:
            return list(route)
        if src == dst:
            return [src]
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt_frontier = []
            for node in frontier:
                for peer in self._neighbors[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        nxt_frontier.append(peer)
            frontier = nxt_frontier
        path = [src]
        node = src
        while node != dst:
            node = min(p for p in self._neighbors[node] if dist.get(p, 1 << 30) == dist[node] - 1)
            path.append(node)
        self._routes[(src, dst)] = tuple(path)
        return path

    def _push(self, time: float, node: str, frame: Frame, path: list[str], idx: int,
              hop_delays: list[float], entry_size: int) -> None:
        heapq.heappush(self._heap, (time, self._seq, node, frame, path, idx, hop_delays, entry_size))
        self._seq += 1

    def _drop(self, node: str, frame: Frame, t: float, reason: str, entry_size: int) -> None:
        self._counters[node].frames_dropped += 1
        self.dropped_bytes_total += entry_size
        self._emit("net.drop", t, {
            "node": node, "reason": reason, "src": frame.src, "dst": frame.dst,
            "frame_id": frame.frame_id, "size_bytes": entry_size,
        })

    # -- operations ------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes, t: float) -> bool:
        """Route a frame of `payload` from src to dst at t; returns False if
        rejected at entry. An offline source silently swallows the frame
        (telemetry only, no counters: the frame never entered the network)."""
        frame_id = self._next_frame_id.get(src, 0)
        self._next_frame_id[src] = frame_id + 1
        size = len(payload)
        if not self.is_online(src, t):
            self._emit("net.drop", t, {"node": src, "reason": "src-offline", "src": src,
                                       "dst": dst, "frame_id": frame_id, "size_bytes": size})
            return False
        path = self.shortest_path(src, dst)
        self._counters[src].bytes_out += size
        self._emit("net.send", t, {"src": src, "dst": dst, "frame_id": frame_id,
                                   "size_bytes": size, "path": path})
        self._push(t, src, Frame(frame_id, src, dst, t, payload), path, 0, [], size)
        return True

    def restart_node(self, node_id: str, downtime_s: float) -> None:
        until = self.now + downtime_s
        self._offline_until[node_id] = max(self._offline_until.get(node_id, 0.0), until)
        self._emit("net.restart", self.now, {
            "node": node_id, "downtime_s": downtime_s, "online_at": until,
        })

    def _index_rules(self) -> None:
        rules_at: dict[str, list[AttackRule]] = {}
        for rule_id in sorted(self._rules):
            rule = self._rules[rule_id]
            rules_at.setdefault(rule.at_node, []).append(rule)
        self._rules_at = {node: tuple(rules) for node, rules in rules_at.items()}

    def install_rule(self, rule: AttackRule) -> None:
        self._rules[rule.rule_id] = rule
        self._index_rules()
        self._emit("net.rule", self.now, {
            "event": "install", "rule_id": rule.rule_id, "node": rule.at_node,
            "action": rule.action,
        })

    def remove_rule(self, rule_id: str) -> None:
        if self._rules.pop(rule_id, None) is not None:
            self._index_rules()
            self._emit("net.rule", self.now, {"event": "remove", "rule_id": rule_id})

    def has_rule(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def read_counters(self, node_id: str) -> InterfaceCounters:
        window = self.utilization_window_s
        capacity_bps = self._capacity_bps[node_id]
        if capacity_bps == 0.0:
            utilization = 0.0
        else:
            cutoff = self.now - window
            busiest = max(self._transit_in[node_id].total_since(cutoff),
                          self._transit_out[node_id].total_since(cutoff))
            utilization = 8.0 * busiest / (capacity_bps * window)
        c = self._counters[node_id]
        return InterfaceCounters(c.bytes_in, c.bytes_out, c.frames_dropped, utilization)

    def delivered(self, node_id: str) -> list[tuple[float, Frame]]:
        """(arrival, frame) pairs delivered to the node since the last call."""
        frames = self._delivered[node_id]
        self._delivered[node_id] = []
        return frames

    # -- event loop -------------------------------------------------------------

    def next_event_time(self) -> float | None:
        """Time of the earliest queued event, or None when nothing is in flight."""
        return self._heap[0][0] if self._heap else None

    def advance(self, to_time: float) -> None:
        while self._heap and self._heap[0][0] <= to_time:
            t, _, node, frame, path, idx, hop_delays, entry_size = heapq.heappop(self._heap)
            self._process(t, node, frame, path, idx, hop_delays, entry_size)
        self.now = to_time

    def _process(self, t: float, node: str, frame: Frame, path: list[str], idx: int,
                 hop_delays: list[float], entry_size: int) -> None:
        if not self.is_online(node, t):
            self._drop(node, frame, t, "node-offline", entry_size)
            return
        extra_s = 0.0
        for rule in self._rules_at.get(node, ()):
            if not rule.active_at(t) or not rule.match.matches(frame):
                continue
            self._emit("net.rule", t, {
                "event": "match", "rule_id": rule.rule_id, "node": node,
                "action": rule.action, "src": frame.src, "frame_id": frame.frame_id,
            })
            if rule.action == "drop":
                self._drop(node, frame, t, f"rule:{rule.rule_id}", entry_size)
                return
            if rule.action == "tamper":
                frame = replace(frame, payload=rule.replacement)
            else:  # delay
                extra_s += rule.extra_ms / 1000.0
        size = len(frame.payload)
        if idx > 0:
            self._transit_in[node].add(t, size)
        if node == frame.dst:
            self._delivered[node].append((t, frame))
            self._counters[node].bytes_in += entry_size
            self._emit("net.deliver", t, {
                "src": frame.src, "dst": frame.dst, "frame_id": frame.frame_id,
                "size_bytes": size, "sent_at": frame.sent_at,
                "delivered_at": t, "hop_delays": hop_delays,
            })
            return
        nxt = path[idx + 1]
        latency_s, bandwidth_bps, loss_prob = self._hops[(node, nxt)]
        if loss_prob > 0.0 and self._rng.random() < loss_prob:
            self._drop(nxt, frame, t, "link-loss", entry_size)
            return
        tx_s = 0.0
        if bandwidth_bps is not None:
            tx_s = size * 8.0 / bandwidth_bps
        hop = latency_s + tx_s + extra_s
        self._transit_out[node].add(t, size)
        self._push(t + hop, nxt, frame, path, idx + 1, hop_delays + [hop], entry_size)
