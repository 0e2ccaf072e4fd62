"""Structured event logging and post-hoc aggregation.

Every component emits records (source, kind, t_sim, payload) through the
run's single RunSink, which adds the run id and a per-run seq. Records are
serialized as canonical JSON (sorted keys, compact separators, floats at 9
significant digits, no wall-clock fields), one record per line, so that two
runs of the same seeded scenario produce byte-identical log files.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple


class TelemetryError(Exception):
    pass


class SinkClosedError(TelemetryError):
    pass


class UnserializableError(TelemetryError):
    pass


_encode_str = json.encoder.encode_basestring_ascii  # = json.dumps(s, ensure_ascii=True)


# Finite non-zero float -> its text; at most _FLOAT_TEXTS_MAX of them. Zero is
# left out, as 0.0 and -0.0 are one key but encode as "0" and "-0", and so is
# an instance of a float subclass, which may format otherwise.
_FLOAT_TEXTS: dict[float, str] = {}
_FLOAT_TEXTS_MAX = 256


def _format_float(x: float) -> str:
    """The text of x, kept in _FLOAT_TEXTS; callers look there first."""
    if not math.isfinite(x):
        raise UnserializableError(f"non-finite float in payload: {x!r}")
    text = f"{x:.9g}"
    if x and type(x) is float:
        if len(_FLOAT_TEXTS) >= _FLOAT_TEXTS_MAX:
            _FLOAT_TEXTS.clear()
        _FLOAT_TEXTS[x] = text
    return text


# Dict key tuple (insertion order) -> ((key, prefix), ...) in sorted key order,
# where prefix is '{"key":' for the first key and ',"key":' after it. Only
# shapes whose keys all encode are kept, at most _KEY_SHAPES_MAX of them.
_KEY_PREFIXES: dict[tuple, tuple[tuple[str, str], ...]] = {}
_KEY_SHAPES_MAX = 4096


def _key_prefixes(value: dict, shape: tuple) -> tuple[tuple[str, str], ...]:
    """The sorted keys of value with their prefixes, cached under shape."""
    try:
        keys = sorted(value)
    except TypeError:  # keys of mixed types
        keys = [next(k for k in value if not isinstance(k, str))]
    prefixes = []
    sep = "{"
    for key in keys:
        if not isinstance(key, str):
            raise UnserializableError(f"non-string key: {key!r}")
        prefixes.append((key, sep + _encode_str(key) + ":"))
        sep = ","
    if len(_KEY_PREFIXES) >= _KEY_SHAPES_MAX:
        del _KEY_PREFIXES[next(iter(_KEY_PREFIXES))]  # the oldest shape
    prefixes = _KEY_PREFIXES[shape] = tuple(prefixes)
    return prefixes


def _canonical(value: Any, out: list[str]) -> None:
    """Append the canonical JSON of value to out, dispatching on its exact type.

    The str, float and int members of a dict or list are encoded in place;
    only other members take a recursive call. A subclass of a JSON type
    encodes like its base type, so a record (a NamedTuple), like any tuple
    subclass, encodes as an array of its field values.
    """
    kind = type(value)
    append = out.append
    if kind is str:
        append(_encode_str(value))
    elif kind is float:
        append(_FLOAT_TEXTS.get(value) or _format_float(value))
    elif kind is int:
        append(str(value))
    elif kind is dict:
        shape = tuple(value)
        prefixes = _KEY_PREFIXES.get(shape)
        if prefixes is None:
            prefixes = _key_prefixes(value, shape)
        for key, prefix in prefixes:
            append(prefix)
            item = value[key]
            item_kind = type(item)
            if item_kind is str:
                append(_encode_str(item))
            elif item_kind is float:
                append(_FLOAT_TEXTS.get(item) or _format_float(item))
            elif item_kind is int:
                append(str(item))
            else:
                _canonical(item, out)
        append("}" if prefixes else "{}")
    elif kind is list or kind is tuple:
        sep = "["
        for item in value:
            append(sep)
            sep = ","
            item_kind = type(item)
            if item_kind is str:
                append(_encode_str(item))
            elif item_kind is float:
                append(_FLOAT_TEXTS.get(item) or _format_float(item))
            elif item_kind is int:
                append(str(item))
            else:
                _canonical(item, out)
        append("]" if value else "[]")
    elif value is None:
        append("null")
    elif kind is bool:
        append("true" if value else "false")
    elif isinstance(value, int):  # subclasses encode like their base type
        append(str(value))
    elif isinstance(value, float):
        append(_format_float(value))
    elif isinstance(value, str):
        append(_encode_str(value))
    elif isinstance(value, dict):
        _canonical(dict(value), out)
    elif isinstance(value, (list, tuple)):
        _canonical(tuple(value), out)
    else:
        raise UnserializableError(f"unsupported payload type: {type(value).__name__}")


def mean(values) -> float:
    """The mean of a non-empty sequence of finite floats, finite like them.

    It is sum(values) / len(values) wherever that is finite, so logged means
    keep their bits; where the sum overflows it is the exactly rounded mean,
    which is no larger than the largest value.
    """
    average = sum(values) / len(values)
    if math.isfinite(average):
        return average
    import statistics  # here, so that no run without an overflow imports it

    return statistics.mean(values)


def canonical_json(value: Any) -> str:
    """Serialize to the canonical form used for log lines and wire payloads."""
    out: list[str] = []
    _canonical(value, out)
    return "".join(out)


# A record's line is one canonical JSON object, its fields in sorted order:
# the kind's head, the payload, the run id's part, seq, the source's part, t_sim.


def _kind_head(kind: str) -> str:
    return '{"kind":' + canonical_json(kind) + ',"payload":'


def _run_id_part(run_id: str) -> str:
    return ',"run_id":' + canonical_json(run_id) + ',"seq":'


def _source_part(source: str) -> str:
    return ',"source":' + canonical_json(source) + ',"t_sim":'


def _line(head: str, payload: Any, run_id_part: str, seq: int, source_part: str,
          t_sim: float) -> str:
    out = [head]
    _canonical(payload, out)
    out.append(run_id_part)
    out.append(str(seq))
    out.append(source_part)
    _canonical(t_sim, out)
    out.append("}")
    return "".join(out)


class RunSink:
    """Single-writer, append-only JSONL sink for one run.

    Assigns the per-run seq counter and enforces non-decreasing t_sim per
    source. `records` holds the (kind, payload) pair of each record emitted
    since the last drain(): the environment drains once per agent step, so
    memory stays bounded by the records of one step however long the run is.
    The encoded parts of the run id, of each kind and of each source are kept
    for the sink's life.
    """

    def __init__(self, path: str | Path, run_id: str):
        self.path = Path(path)
        self.run_id = run_id
        self.records: list[tuple[str, dict]] = []
        self._seq = 0
        self._last_t: dict[str, float] = {}
        self._run_id_part = _run_id_part(run_id)
        self._heads: dict[str, str] = {}  # kind -> _kind_head(kind)
        self._source_parts: dict[str, str] = {}  # source -> _source_part(source)
        self._fh = self.path.open("w", encoding="utf-8", newline="\n")
        self._closed = False

    def emit(self, source: str, kind: str, t_sim: float, payload: dict) -> None:
        if self._closed:
            raise SinkClosedError(f"emit on closed sink for run {self.run_id}")
        last = self._last_t.get(source)
        if last is not None and t_sim < last:
            raise TelemetryError(
                f"t_sim went backwards for source {source!r}: {t_sim} < {last}"
            )
        head = self._heads.get(kind)
        if head is None:
            head = self._heads[kind] = _kind_head(kind)
        source_part = self._source_parts.get(source)
        if source_part is None:
            source_part = self._source_parts[source] = _source_part(source)
        line = _line(head, payload, self._run_id_part, self._seq, source_part, t_sim)
        self._fh.write(line + "\n")
        self._seq += 1
        self._last_t[source] = t_sim
        self.records.append((kind, payload))

    def drain(self) -> list[tuple[str, dict]]:
        """Return the (kind, payload) pairs not yet drained and forget them."""
        records, self.records = self.records, []
        return records

    def close(self) -> None:
        if not self._closed:
            self._fh.flush()
            self._fh.close()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RunSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class VoltageBand(NamedTuple):
    """0 < v_min_pu < v_max_pu; the schema and validation.cross_check hold a document to it."""

    v_min_pu: float
    v_max_pu: float

    def excursion(self, vm: float) -> float:
        return max(self.v_min_pu - vm, vm - self.v_max_pu, 0.0)


_IGNORED_KINDS = frozenset((
    "run.end",
    "run.abort",
    "kernel.step",
    "agent.generation",
    "agent.action",
    "agent.clamp",
    "net.rule",
    "net.restart",
))


@dataclass
class RunSummary:
    """Aggregates of a stream of log records, fed one record at a time.

    summarize() feeds every record of a log file; the environment feeds the
    records of one agent step and derives the step reward from aggregates().
    `band` is the voltage band excursions are measured against; a run.header
    record replaces it with the run's band. A diverged grid.step logs an empty
    `vm`, so it counts as diverged and adds no excursion.
    """

    run_id: str = ""
    experiment: str | None = None
    factors: dict = field(default_factory=dict)
    seed: int | None = None
    # the schema's default band: summarize() needs one for a log that has no
    # run.header, whose band would replace it
    band: VoltageBand = VoltageBand(0.95, 1.05)
    violation_count: int = 0
    violation_sum_pu: float = 0.0
    max_excursion_pu: float = 0.0
    diverged_count: int = 0
    payments_eur: dict = field(default_factory=dict)
    offered_mvar: dict = field(default_factory=dict)
    accepted_mvar: dict = field(default_factory=dict)
    clearings: int = 0
    clearings_resolved: int = 0
    total_cost_eur: float = 0.0
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    returns: dict = field(default_factory=dict)
    unknown_kinds: dict = field(default_factory=dict)
    parse_errors: list = field(default_factory=list)

    @property
    def resolution_rate(self) -> float:
        return self.clearings_resolved / self.clearings if self.clearings else 1.0

    def feed(self, kind: str, payload: dict) -> None:
        """Add one record's payload to the aggregates."""
        if kind == "run.header":
            self.experiment = payload.get("experiment")
            self.factors = payload.get("factors", {})
            self.seed = payload.get("seed")
            band = payload.get("band", {})
            self.band = VoltageBand(band.get("v_min_pu", self.band.v_min_pu),
                                    band.get("v_max_pu", self.band.v_max_pu))
        elif kind == "grid.step":
            if not payload.get("converged", True):
                self.diverged_count += 1
            for vm in payload.get("vm", {}).values():
                excursion = self.band.excursion(vm)
                if excursion > 0.0:
                    self.violation_count += 1
                    self.violation_sum_pu += excursion
                    self.max_excursion_pu = max(self.max_excursion_pu, excursion)
        elif kind == "market.clearing":
            self.clearings += 1
            if payload.get("resolved", False):
                self.clearings_resolved += 1
            self.total_cost_eur += payload.get("total_cost_eur", 0.0)
            for agent, eur in payload.get("payments_eur", {}).items():
                self.payments_eur[agent] = self.payments_eur.get(agent, 0.0) + eur
            for agent, q in payload.get("accepted_mvar", {}).items():
                self.accepted_mvar[agent] = self.accepted_mvar.get(agent, 0.0) + q
            for offer in payload.get("offers", []):
                agent = offer.get("agent_id", "?")
                self.offered_mvar[agent] = (
                    self.offered_mvar.get(agent, 0.0) + abs(offer.get("q_mvar", 0.0))
                )
        elif kind == "net.send":
            self.frames_sent += 1
        elif kind == "net.deliver":
            self.frames_delivered += 1
        elif kind == "net.drop":
            self.frames_dropped += 1
        elif kind == "agent.episode":
            agent = payload.get("agent", "agent")
            self.returns.setdefault(agent, []).append(payload.get("return", 0.0))
        elif kind not in _IGNORED_KINDS:
            self.unknown_kinds[kind] = self.unknown_kinds.get(kind, 0) + 1

    def aggregates(self) -> dict:
        """The named aggregates objective_eval reads (see docs/schemas/README.md).

        Scenario documents name these in custom objective weights: the scalar
        totals, and `<name>.<agent>` for each per-agent map.
        """
        agg = {
            "violation_sum_pu": self.violation_sum_pu,
            "diverged": self.diverged_count,
            "payments_eur": self.payments_eur,
            "offered_mvar": self.offered_mvar,
            "accepted_mvar": self.accepted_mvar,
            "frames_dropped": self.frames_dropped,
            "clearing_cost_eur": self.total_cost_eur,
            "resolution_failures": self.clearings - self.clearings_resolved,
        }
        for name in ("payments_eur", "offered_mvar", "accepted_mvar"):
            for agent, value in agg[name].items():
                agg[f"{name}.{agent}"] = value
        return agg


_REQUIRED_FIELDS = ("run_id", "seq", "t_sim", "source", "kind", "payload")


def _number(x: Any) -> bool:
    """A JSON number a float sum can take: neither true nor false, nor too large."""
    return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)


def _numbers(x: Any) -> bool:
    return isinstance(x, dict) and all(map(_number, x.values()))


def _offers(x: Any) -> bool:
    return isinstance(x, list) and all(
        isinstance(o, dict) and isinstance(o.get("agent_id", "?"), str)
        and _number(o.get("q_mvar", 0.0)) for o in x)


# kind -> {payload field RunSummary.feed reads: whether a value has its JSON type}
_FED_FIELDS = {
    "run.header": {"factors": lambda x: isinstance(x, dict), "band": _numbers},
    "grid.step": {"vm": _numbers},
    "market.clearing": {"total_cost_eur": _number, "payments_eur": _numbers,
                        "accepted_mvar": _numbers, "offers": _offers},
    "agent.episode": {"agent": lambda x: isinstance(x, str), "return": _number},
}


def summarize(path: str | Path) -> RunSummary:
    """Scan one JSONL log and aggregate it into a RunSummary.

    Malformed lines are recorded as (line_no, message) in parse_errors and
    skipped, so they add nothing to the aggregates: a record whose kind is no
    string, whose payload is no object, or whose payload has a field that
    feed reads of another JSON type is one. Unknown record kinds are
    tolerated and counted.
    """
    path = Path(path)
    summary = RunSummary()
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("record is not an object")
                missing = [f for f in _REQUIRED_FIELDS if f not in rec]
                if missing:
                    raise ValueError(f"missing fields: {', '.join(missing)}")
                if not isinstance(rec["kind"], str) or not isinstance(rec["payload"], dict):
                    raise ValueError("kind is not a string or payload is not an object")
                for name, typed in _FED_FIELDS.get(rec["kind"], {}).items():
                    if name in rec["payload"] and not typed(rec["payload"][name]):
                        raise ValueError(f"{rec['kind']} field {name!r} has the wrong type")
            except ValueError as exc:
                summary.parse_errors.append((line_no, str(exc)))
                continue
            if not summary.run_id:
                summary.run_id = rec["run_id"]
            summary.feed(rec["kind"], rec["payload"])
    return summary


METRIC_KEYS = (  # RunSummary scalars that reports and comparisons list, in this order
    "violation_count",
    "max_excursion_pu",
    "diverged_count",
    "clearings",
    "clearings_resolved",
    "resolution_rate",
    "total_cost_eur",
    "frames_sent",
    "frames_delivered",
    "frames_dropped",
)


class ComparisonTable(NamedTuple):
    factor: str
    columns: list[str]
    rows: list[dict]  # one per factor level: {"level": .., metric: mean, ..}
    deltas: list[dict]  # same shape, each level minus the first level


def _summary_metrics(s: RunSummary) -> dict[str, float]:
    metrics: dict[str, float] = {k: float(getattr(s, k)) for k in METRIC_KEYS}
    for agent in sorted(s.payments_eur):
        metrics[f"payments_eur.{agent}"] = s.payments_eur[agent]
    for agent in sorted(s.accepted_mvar):
        metrics[f"accepted_mvar.{agent}"] = s.accepted_mvar[agent]
    for agent in sorted(s.returns):
        metrics[f"mean_return.{agent}"] = mean(s.returns[agent])
    return metrics


def compare(summaries: list[RunSummary], group_by: str) -> ComparisonTable:
    """Group run summaries by one factor's levels and tabulate metric means.

    Levels are ordered by first appearance (summaries are expected in run_id
    order, which follows the expansion order of the experiment). Deltas are
    taken against the first level.
    """
    if len(summaries) < 2:
        raise ValueError("compare needs at least two run summaries")
    experiments = {s.experiment for s in summaries}
    if len(experiments) > 1:
        raise ValueError(f"summaries from different experiments: {sorted(map(str, experiments))}")
    known = sorted({name for s in summaries for name in s.factors})
    if any(group_by not in s.factors for s in summaries):
        raise ValueError(
            f"unknown factor {group_by!r}; known factors: {', '.join(known) or '(none)'}"
        )

    levels: list[Any] = []
    grouped: dict[str, list[RunSummary]] = {}
    for s in sorted(summaries, key=lambda s: s.run_id):
        level = s.factors[group_by]
        key = canonical_json(level)
        if key not in grouped:
            levels.append(level)
            grouped[key] = []
        grouped[key].append(s)

    columns: list[str] = []
    per_level: list[dict] = []
    for level in levels:
        members = grouped[canonical_json(level)]
        metric_lists: dict[str, list[float]] = {}
        for s in members:
            for name, value in _summary_metrics(s).items():
                metric_lists.setdefault(name, []).append(value)
        means = {name: mean(vals) for name, vals in metric_lists.items()}
        for name in means:
            if name not in columns:
                columns.append(name)
        row = {"level": level, "runs": len(members)}
        row.update(means)
        per_level.append(row)

    base = per_level[0]
    deltas = []
    for row in per_level:
        delta = {"level": row["level"], "runs": row["runs"]}
        for name in columns:
            delta[name] = row.get(name, 0.0) - base.get(name, 0.0)
        deltas.append(delta)
    return ComparisonTable(factor=group_by, columns=columns, rows=per_level, deltas=deltas)
