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
interface utilization, which reads 0.0 at a node with an unlimited link
(bandwidth_kbps null or 0). A network is told the nodes whose utilization
may be read (by default every node); only a node among them with no
unlimited link keeps a window, which holds only the hops of one window
before its newest, and read_counters refuses any other node with a finite
capacity rather than report a utilization it did not keep. A node's state
is one record.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, NamedTuple


class NodeSpec(NamedTuple):
    node_id: str


class LinkSpec(NamedTuple):
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


class Frame(NamedTuple):
    frame_id: int  # numbered by the network, from 0 per source
    src: str
    dst: str
    sent_at: float
    payload: bytes  # its length is the frame's size in bytes


class MatchSpec(NamedTuple):
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


class AttackRule(NamedTuple):
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


class _ByteWindow:
    """Timestamped byte counts, with a running total of the ones still held.
    Records are added in time order, and one older than `span` before the
    newest is forgotten, so a window that is never read stays bounded."""

    def __init__(self, span: float):
        self._span = span
        self._records: deque[tuple[float, int]] = deque()
        self._total = 0

    def add(self, t: float, size: int) -> None:
        records = self._records
        cutoff = t - self._span
        while records and records[0][0] < cutoff:
            self._total -= records.popleft()[1]
        records.append((t, size))
        self._total += size

    def total_since(self, cutoff: float) -> int:
        """Bytes recorded at or after cutoff; older records are forgotten."""
        records = self._records
        while records and records[0][0] < cutoff:
            self._total -= records.popleft()[1]
        return self._total


class _Node:
    """One node's state, as the network updates it."""

    __slots__ = ("bytes_in", "bytes_out", "frames_dropped", "next_frame_id", "offline_until",
                 "rules", "delivered", "capacity_bps", "transit_in", "transit_out")

    def __init__(self, capacity_bps: float, window_s: float | None):
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_dropped = 0
        self.next_frame_id = 0
        self.offline_until = 0.0
        self.rules: tuple[AttackRule, ...] = ()  # installed here, in rule_id order
        self.delivered: list[tuple[float, Frame]] = []
        self.capacity_bps = capacity_bps  # 0.0: a link is unlimited, or there is none
        # hop-level transit bytes for the utilization window, where one is
        # kept: at a finite capacity, given a window
        kept = capacity_bps and window_s is not None
        self.transit_in = _ByteWindow(window_s) if kept else None
        self.transit_out = _ByteWindow(window_s) if kept else None


class Network:
    """Event-queue network; advance(t) processes everything due through t.
    It trusts its topology, a window > 0, every node id it is given and
    unique rule ids, as validation holds a document to them, and a time that
    never goes back, as the kernel steps it. `utilization_nodes` names the
    nodes whose utilization read_counters may report; None: every node."""

    def __init__(
        self,
        topology: NetworkTopology,
        rng: random.Random,
        utilization_window_s: float,
        emit: Callable[[str, float, dict], None] | None = None,
        utilization_nodes: Collection[str] | None = None,
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
        self._rules: dict[str, AttackRule] = {}
        self._nodes: dict[str, _Node] = {}
        # the nodes holding frames that delivered has not handed out, in the
        # order their first one arrived
        self._holding: dict[str, None] = {}
        for node_id, peers in self._neighbors.items():
            bandwidths = [self._hops[(node_id, peer)][1] for peer in peers]
            capacity_bps = 0.0
            if None not in bandwidths:
                for bandwidth_bps in bandwidths:
                    capacity_bps += bandwidth_bps
            read = utilization_nodes is None or node_id in utilization_nodes
            self._nodes[node_id] = _Node(capacity_bps, utilization_window_s if read else None)
        self.dropped_bytes_total = 0

    # -- helpers -------------------------------------------------------------

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

    def _drop(self, node: str, frame: Frame, t: float, reason: str, entry_size: int) -> None:
        self._nodes[node].frames_dropped += 1
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
        node = self._nodes[src]
        frame_id = node.next_frame_id
        node.next_frame_id = frame_id + 1
        size = len(payload)
        if t < node.offline_until:
            self._emit("net.drop", t, {"node": src, "reason": "src-offline", "src": src,
                                       "dst": dst, "frame_id": frame_id, "size_bytes": size})
            return False
        path = self.shortest_path(src, dst)
        node.bytes_out += size
        self._emit("net.send", t, {"src": src, "dst": dst, "frame_id": frame_id,
                                   "size_bytes": size, "path": path})
        heapq.heappush(self._heap,
                       (t, self._seq, src, Frame(frame_id, src, dst, t, payload), path, 0, [], size))
        self._seq += 1
        return True

    def restart_node(self, node_id: str, downtime_s: float) -> None:
        until = self.now + downtime_s
        node = self._nodes[node_id]
        node.offline_until = max(node.offline_until, until)
        self._emit("net.restart", self.now, {
            "node": node_id, "downtime_s": downtime_s, "online_at": until,
        })

    def _index_rules(self) -> None:
        rules = [self._rules[rule_id] for rule_id in sorted(self._rules)]
        for node_id, node in self._nodes.items():
            node.rules = tuple(rule for rule in rules if rule.at_node == node_id)

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
        """The node's counters; a node with a finite capacity must be one of
        the utilization nodes, as no other keeps the hops its utilization sums."""
        node = self._nodes[node_id]
        utilization = 0.0
        if node.capacity_bps:
            if node.transit_in is None:
                raise ValueError(f"the utilization of node {node_id!r} is not kept: "
                                 "it is not one of the network's utilization nodes")
            window = self.utilization_window_s
            cutoff = self.now - window
            busiest = max(node.transit_in.total_since(cutoff),
                          node.transit_out.total_since(cutoff))
            utilization = 8.0 * busiest / (node.capacity_bps * window)
        return InterfaceCounters(node.bytes_in, node.bytes_out, node.frames_dropped, utilization)

    def delivered(self, node_id: str) -> list[tuple[float, Frame]]:
        """(arrival, frame) pairs delivered to the node since the last call."""
        node = self._nodes[node_id]
        frames, node.delivered = node.delivered, []
        self._holding.pop(node_id, None)
        return frames

    def holding(self) -> tuple[str, ...]:
        """The nodes for which delivered has frames, in the order their
        first frame since the last delivered call arrived."""
        return tuple(self._holding)

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
        state = self._nodes[node]
        if t < state.offline_until:
            self._drop(node, frame, t, "node-offline", entry_size)
            return
        extra_s = 0.0
        for rule in state.rules:
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
                frame = frame._replace(payload=rule.replacement)
            else:  # delay
                extra_s += rule.extra_ms / 1000.0
        size = len(frame.payload)
        if idx > 0 and state.transit_in is not None:
            state.transit_in.add(t, size)
        if node == frame.dst:
            if not state.delivered:
                self._holding[node] = None
            state.delivered.append((t, frame))
            state.bytes_in += entry_size
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
        if state.transit_out is not None:
            state.transit_out.add(t, size)
        heapq.heappush(self._heap,
                       (t + hop, self._seq, nxt, frame, path, idx + 1, hop_delays + [hop], entry_size))
        self._seq += 1
