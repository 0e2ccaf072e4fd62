"""Discrete-event communication network with attack actuators.

Hosts, switches and routers exchange application frames over links with
latency, optional bandwidth (transmission time) and independent per-link
loss. Frames follow the unique shortest path by hop count (ties resolved by
the lexicographically smallest next node). There is no queueing model: a
frame's delivery time is the sum of per-hop latency, transmission time and
any matching delay-rule extras, so delivery times are exactly reconstructible
from the event log.

Attack surface: install_rule/remove_rule (drop, tamper, delay at a node) and
restart_node (a node goes offline for a downtime window; frames through it
are dropped). Sensors: cumulative per-node counters plus trailing-window
interface utilization.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable


class NetworkError(Exception):
    pass


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    kind: str = "host"  # host | switch | router


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    latency_ms: float = 1.0
    bandwidth_kbps: float | None = None  # None means unlimited (no tx time)
    loss_prob: float = 0.0


@dataclass(frozen=True)
class NetworkTopology:
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))

    def validate(self) -> None:
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate node ids")
        known = set(ids)
        for n in self.nodes:
            if n.kind not in ("host", "switch", "router"):
                raise NetworkError(f"node {n.node_id}: unknown kind {n.kind!r}")
        for link in self.links:
            if link.a not in known or link.b not in known:
                raise NetworkError(f"link {link.a}-{link.b}: unknown endpoint")
            if link.a == link.b:
                raise NetworkError(f"link {link.a}-{link.b}: self link")
            if not (0.0 <= link.loss_prob <= 1.0):
                raise NetworkError(f"link {link.a}-{link.b}: loss_prob outside [0, 1]")
            if link.latency_ms < 0:
                raise NetworkError(f"link {link.a}-{link.b}: negative latency")
        if ids:
            adjacency: dict[str, set[str]] = {i: set() for i in ids}
            for link in self.links:
                adjacency[link.a].add(link.b)
                adjacency[link.b].add(link.a)
            seen = {ids[0]}
            stack = [ids[0]]
            while stack:
                for nxt in adjacency[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if seen != known:
                raise NetworkError(f"topology not connected; unreachable {sorted(known - seen)}")


@dataclass(frozen=True)
class Frame:
    frame_id: int  # strictly increasing per sender
    src: str
    dst: str
    sent_at: float
    size_bytes: int
    payload: bytes

    def __post_init__(self):
        if self.size_bytes < len(self.payload):
            raise NetworkError("size_bytes must cover the payload")


@dataclass(frozen=True)
class MatchSpec:
    src: str | None = None
    dst: str | None = None
    payload_contains: bytes | None = None

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
    rule_id: str
    at_node: str
    match: MatchSpec = field(default_factory=MatchSpec)
    action: str = "drop"  # drop | tamper | delay
    replacement: bytes = b""
    extra_ms: float = 0.0
    active_from: float = 0.0
    active_until: float = float("inf")

    def __post_init__(self):
        if self.action not in ("drop", "tamper", "delay"):
            raise NetworkError(f"rule {self.rule_id}: unknown action {self.action!r}")
        if self.active_from > self.active_until:
            raise NetworkError(f"rule {self.rule_id}: active_from > active_until")

    def active_at(self, t: float) -> bool:
        return self.active_from <= t < self.active_until


@dataclass
class InterfaceCounters:
    node_id: str
    bytes_in: int = 0
    bytes_out: int = 0
    frames_dropped: int = 0
    utilization: float = 0.0


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
    """Event-queue network; advance(t) processes everything due through t."""

    def __init__(
        self,
        topology: NetworkTopology,
        rng: random.Random,
        emit: Callable[[str, float, dict], None] | None = None,
        utilization_window_s: float = 900.0,
    ):
        topology.validate()
        self.topology = topology
        self._rng = rng
        self._emit = emit or (lambda kind, t, payload: None)
        self.utilization_window_s = utilization_window_s
        self.now = 0.0
        self._seq = 0
        self._heap: list = []
        self._links: dict[tuple[str, str], LinkSpec] = {}
        for link in topology.links:
            self._links[(link.a, link.b)] = link
            self._links[(link.b, link.a)] = link
        self._neighbors: dict[str, list[str]] = {n.node_id: [] for n in topology.nodes}
        for link in topology.links:
            self._neighbors[link.a].append(link.b)
            self._neighbors[link.b].append(link.a)
        for peers in self._neighbors.values():
            peers.sort()
        self._offline_until: dict[str, float] = {}
        self._rules: dict[str, AttackRule] = {}
        self._counters: dict[str, InterfaceCounters] = {
            n.node_id: InterfaceCounters(n.node_id) for n in topology.nodes
        }
        self._last_frame_id: dict[str, int] = {}
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
                bandwidth_kbps = self._links[(node_id, peer)].bandwidth_kbps
                if bandwidth_kbps is None:
                    capacity_bps = 0.0
                    break
                capacity_bps += bandwidth_kbps * 1000.0
            self._capacity_bps[node_id] = capacity_bps
        self.dropped_bytes_total = 0

    # -- helpers -------------------------------------------------------------

    def _require_node(self, node_id: str) -> None:
        if node_id not in self._neighbors:
            raise NetworkError(f"unknown node {node_id!r}")

    def is_online(self, node_id: str, t: float | None = None) -> bool:
        self._require_node(node_id)
        t = self.now if t is None else t
        return t >= self._offline_until.get(node_id, 0.0)

    def next_frame_id(self, src: str) -> int:
        return self._last_frame_id.get(src, -1) + 1

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Hop-count shortest path; equal-cost ties take the lexicographically
        smallest next node (BFS over sorted neighbor lists from dst)."""
        self._require_node(src)
        self._require_node(dst)
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
        if src not in dist:
            raise NetworkError(f"no path {src} -> {dst}")
        path = [src]
        node = src
        while node != dst:
            node = min(p for p in self._neighbors[node] if dist.get(p, 1 << 30) == dist[node] - 1)
            path.append(node)
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

    def send(self, frame: Frame) -> bool:
        """Route a frame from its source; returns False if rejected at entry.

        An offline source silently swallows the frame (telemetry only, no
        counters: the frame never entered the network).
        """
        self._require_node(frame.src)
        self._require_node(frame.dst)
        if frame.frame_id <= self._last_frame_id.get(frame.src, -1):
            raise NetworkError(
                f"frame ids must be strictly increasing per sender "
                f"({frame.src}: {frame.frame_id})"
            )
        self._last_frame_id[frame.src] = frame.frame_id
        if not self.is_online(frame.src, frame.sent_at):
            self._emit("net.drop", frame.sent_at, {
                "node": frame.src, "reason": "src-offline", "src": frame.src,
                "dst": frame.dst, "frame_id": frame.frame_id, "size_bytes": frame.size_bytes,
            })
            return False
        path = self.shortest_path(frame.src, frame.dst)
        self._counters[frame.src].bytes_out += frame.size_bytes
        self._emit("net.send", frame.sent_at, {
            "src": frame.src, "dst": frame.dst, "frame_id": frame.frame_id,
            "size_bytes": frame.size_bytes, "path": path,
        })
        self._push(frame.sent_at, frame.src, frame, path, 0, [], frame.size_bytes)
        return True

    def restart_node(self, node_id: str, downtime_s: float) -> None:
        self._require_node(node_id)
        until = self.now + downtime_s
        self._offline_until[node_id] = max(self._offline_until.get(node_id, 0.0), until)
        self._emit("net.restart", self.now, {
            "node": node_id, "downtime_s": downtime_s, "online_at": until,
        })

    def install_rule(self, rule: AttackRule) -> None:
        self._require_node(rule.at_node)
        if rule.rule_id in self._rules:
            raise NetworkError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        self._emit("net.rule", self.now, {
            "event": "install", "rule_id": rule.rule_id, "node": rule.at_node,
            "action": rule.action,
        })

    def remove_rule(self, rule_id: str) -> None:
        if self._rules.pop(rule_id, None) is not None:
            self._emit("net.rule", self.now, {"event": "remove", "rule_id": rule_id})

    def has_rule(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def read_counters(self, node_id: str, window_s: float | None = None) -> InterfaceCounters:
        self._require_node(node_id)
        window = self.utilization_window_s if window_s is None else window_s
        capacity_bps = self._capacity_bps[node_id]
        if window <= 0 or capacity_bps == 0.0:
            utilization = 0.0
        else:
            cutoff = self.now - window
            busiest = max(self._transit_in[node_id].total_since(cutoff),
                          self._transit_out[node_id].total_since(cutoff))
            utilization = 8.0 * busiest / (capacity_bps * window)
        c = self._counters[node_id]
        return InterfaceCounters(node_id, c.bytes_in, c.bytes_out, c.frames_dropped, utilization)

    def delivered(self, node_id: str) -> list[tuple[float, Frame]]:
        """(arrival, frame) pairs delivered to the node since the last call."""
        self._require_node(node_id)
        frames = self._delivered[node_id]
        self._delivered[node_id] = []
        return frames

    # -- event loop -------------------------------------------------------------

    def advance(self, to_time: float) -> None:
        if to_time < self.now:
            raise NetworkError("time must be monotone")
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
        for rule_id in sorted(self._rules):
            rule = self._rules[rule_id]
            if rule.at_node != node or not rule.active_at(t) or not rule.match.matches(frame):
                continue
            self._emit("net.rule", t, {
                "event": "match", "rule_id": rule_id, "node": node,
                "action": rule.action, "src": frame.src, "frame_id": frame.frame_id,
            })
            if rule.action == "drop":
                self._drop(node, frame, t, f"rule:{rule_id}", entry_size)
                return
            if rule.action == "tamper":
                frame = replace(frame, payload=rule.replacement,
                                size_bytes=len(rule.replacement))
            else:  # delay
                extra_s += rule.extra_ms / 1000.0
        if idx > 0:
            self._transit_in[node].add(t, frame.size_bytes)
        if node == frame.dst:
            self._delivered[node].append((t, frame))
            self._counters[node].bytes_in += entry_size
            self._emit("net.deliver", t, {
                "src": frame.src, "dst": frame.dst, "frame_id": frame.frame_id,
                "size_bytes": frame.size_bytes, "sent_at": frame.sent_at,
                "delivered_at": t, "hop_delays": hop_delays,
            })
            return
        nxt = path[idx + 1]
        link = self._links[(node, nxt)]
        if link.loss_prob > 0.0 and self._rng.random() < link.loss_prob:
            self._drop(nxt, frame, t, "link-loss", entry_size)
            return
        tx_s = 0.0
        if link.bandwidth_kbps is not None:
            tx_s = frame.size_bytes * 8.0 / (link.bandwidth_kbps * 1000.0)
        hop = link.latency_ms / 1000.0 + tx_s + extra_s
        self._transit_out[node].add(t, frame.size_bytes)
        self._push(t + hop, nxt, frame, path, idx + 1, hop_delays + [hop], entry_size)
