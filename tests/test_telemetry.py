import collections
import dataclasses
import enum
import json
import math
import random

import numpy as np
import pytest

from analyse import telemetry
from analyse.telemetry import (
    RunSink,
    RunSummary,
    SinkClosedError,
    TelemetryError,
    UnserializableError,
    VoltageBand,
    canonical_json,
    compare,
    mean,
    summarize,
)


def test_canonical_json_sorted_compact():
    value = {"b": 1, "a": {"z": True, "y": None}, "c": [1, 2.5, "s"]}
    assert canonical_json(value) == '{"a":{"y":null,"z":true},"b":1,"c":[1,2.5,"s"]}'


def test_canonical_json_float_formatting():
    assert canonical_json(0.1) == "0.1"
    assert canonical_json(1.0) == "1"
    assert canonical_json(1234567.891) == "1234567.89"  # 9 significant digits
    assert canonical_json(1e-7) == "1e-07"
    # formatted floats still parse as JSON numbers
    assert json.loads(canonical_json([1e20, -0.0, 3.14159265358979])) == [
        1e20, -0.0, 3.14159265,
    ]


def test_canonical_json_rejects_nonfinite_and_bad_types():
    with pytest.raises(UnserializableError):
        canonical_json(math.nan)
    with pytest.raises(UnserializableError):
        canonical_json(math.inf)
    with pytest.raises(UnserializableError):
        canonical_json({1: "non-string key"})
    with pytest.raises(UnserializableError):
        canonical_json(b"bytes")


def test_canonical_json_mixed_key_types_unserializable():
    # sorting {1: .., "b": ..} raises TypeError; the log writer must not
    with pytest.raises(UnserializableError, match="non-string key: 1"):
        canonical_json({1: "a", "b": 2})
    with pytest.raises(UnserializableError):
        canonical_json([{"ok": 1.0}, {None: 0, "b": 2}])


# -- the previous encoder, kept as the byte-for-byte reference -----------------


def _reference_format_float(x):
    if not math.isfinite(x):
        raise UnserializableError(f"non-finite float in payload: {x!r}")
    return f"{x:.9g}"


def _reference_canonical(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_reference_format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise UnserializableError(f"non-string key: {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _reference_canonical(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _reference_canonical(item, out)
        out.append("]")
    else:
        raise UnserializableError(f"unsupported payload type: {type(value).__name__}")


class _Level(enum.IntEnum):
    LOW = 1


class _Text(str):
    pass


_Pair = collections.namedtuple("_Pair", "a b")

_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 123456789.0, 1234567.891, 0.1, 1e-7,
           1e20, 2.5, 1.7976931348623157e308, 2.0 ** 53 + 1)
_INTS = (0, 1, -1, 2 ** 53 + 1, 2 ** 70, -(10 ** 400), 10 ** 399)
_PIECES = ("", "a", "Z9", "é", "日本", "😀", "\n", "\t", '"', "\\", "/", "\x00", "\x1f",
           "\x7f", "\u2028", "\ud800", "offer_id", "q_mvar")
_BAD_LEAVES = (math.nan, -math.nan, math.inf, -math.inf, b"bytes", {1, 2}, object(), 1j,
               np.bool_(True), np.int64(3), np.float32(1.5), np.float64(math.nan))


def _text(rng):
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 3)))


def _leaf(rng, bad):
    r = rng.random()
    if bad and r < 0.05:
        return rng.choice(_BAD_LEAVES)
    if r < 0.1:
        return rng.choice((None, True, False))
    if r < 0.25:
        return rng.choice(_INTS) if rng.random() < 0.3 else rng.randint(-10 ** 6, 10 ** 6)
    if r < 0.5:
        return rng.choice(_FLOATS) if rng.random() < 0.4 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30)
    if r < 0.55:  # subclasses encode like their base types
        return rng.choice((np.float64(rng.uniform(-5, 5)), _Level.LOW, _Text(_text(rng))))
    return _text(rng)


def _payload(rng, depth, bad):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng, bad)
    items = [_payload(rng, depth - 1, bad) for _ in range(rng.randint(0, 4))]
    r = rng.random()
    if r < 0.45:
        keys = [_text(rng) for _ in items]
        if bad and rng.random() < 0.04:
            keys[:1] = [rng.choice((1, 2.5, None, ("t",)))] * len(keys[:1])
        if bad and rng.random() < 0.04:
            keys.append(7)  # strings and an int: sorting the keys raises TypeError
            items.append(0)
        cls = collections.OrderedDict if rng.random() < 0.05 else dict
        return cls(zip(keys, items))
    if r < 0.75:
        return items
    if r < 0.95:
        return tuple(items)
    return _Pair(*(items + [None, None])[:2])


def _outcome(encode, value):
    try:
        return "ok", encode(value)
    except UnserializableError as exc:
        return "unserializable", str(exc)
    except TypeError as exc:
        return "typeerror", str(exc)


def test_canonical_json_matches_reference_on_random_payloads():
    def reference(value):
        out = []
        _reference_canonical(value, out)
        return "".join(out)

    rng = random.Random(20231)
    kinds = collections.Counter()
    for i in range(12000):
        value = _payload(rng, rng.randint(0, 5), bad=i % 3 == 0)
        want, got = _outcome(reference, value), _outcome(canonical_json, value)
        if want[0] == "typeerror":
            # the reference crashed on keys of mixed types; now that is an
            # UnserializableError, which the runner turns into run.abort
            assert got[0] == "unserializable" and got[1].startswith("non-string key"), value
            kinds["mixed keys"] += 1
        else:
            assert got == want, value
            kinds[want[0] if want[0] == "ok" else want[1].split(":")[0]] += 1
    assert kinds["ok"] >= 8000
    for error in ("mixed keys", "non-string key", "non-finite float in payload",
                  "unsupported payload type"):
        assert kinds[error] >= 50, kinds


def test_sink_writes_canonical_json_of_each_envelope(tmp_path):
    # Random payloads, a third of them drawn with unencodable members, go
    # through RunSink.emit under four run ids: a line that encodes is
    # canonical_json of its envelope, one that does not is written nowhere
    # and takes no seq; floats repeat and zeros keep their sign.
    rng = random.Random(20232)
    kinds = collections.Counter()
    for part in range(4):
        path = tmp_path / f"{part}.jsonl"
        run_id = _text(rng)
        lines = []
        with RunSink(path, run_id) as sink:
            for i in range(3000):
                payload = _payload(rng, rng.randint(0, 5), bad=i % 3 == 0)
                if i % 10 == 0:
                    payload = [rng.choice(_FLOATS) for _ in range(6)]
                # int, fractional and whole float times, rising
                t_sim = i if i % 2 else i + 0.25 if i % 4 else float(i)
                source, kind = _text(rng), _text(rng)
                envelope = {"run_id": run_id, "seq": len(lines), "t_sim": t_sim,
                            "source": source, "kind": kind, "payload": payload}
                want = _outcome(canonical_json, envelope)
                got = _outcome(lambda p: sink.emit(source, kind, t_sim, p), payload)
                if want[0] == "ok":
                    assert got == ("ok", None), payload
                    assert sink.drain() == [(kind, payload)], payload
                    lines.append(want[1])
                else:
                    assert got == want and sink.records == [], payload
                kinds[want[0]] += 1
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    assert kinds["ok"] >= 8000 and kinds["unserializable"] >= 400, kinds
    assert canonical_json([0.0, -0.0, 0.0, -0.0, 2.5, 2.5]) == "[0,-0,0,-0,2.5,2.5]"


def test_non_string_keys_raise_on_every_call():
    for value in ({1: "a"}, {None: 0, "b": 2}, {"b": 2, 7: 0}, {("t",): 1}):
        for _ in range(3):
            with pytest.raises(UnserializableError, match="non-string key"):
                canonical_json(value)
        assert tuple(value) not in telemetry._KEY_PREFIXES


def test_key_shape_cache_stays_at_its_cap():
    for i in range(10000):
        assert canonical_json({f"k{i}": i, "a": None}) == f'{{"a":null,"k{i}":{i}}}'
    assert len(telemetry._KEY_PREFIXES) == telemetry._KEY_SHAPES_MAX
    assert ("k9999", "a") in telemetry._KEY_PREFIXES
    assert ("k0", "a") not in telemetry._KEY_PREFIXES
    assert canonical_json({"k0": 0, "a": None}) == '{"a":null,"k0":0}'


def test_record_that_fails_to_encode_writes_nothing(tmp_path):
    path = tmp_path / "r.jsonl"
    with RunSink(path, "r") as sink:
        sink.emit("a", "k.x", 0.0, {})
        for bad in ({"x": math.nan}, {1: "a"}, {"x": b"bytes"}):
            with pytest.raises(UnserializableError):
                sink.emit("a", "k.y", 1.0, bad)
        sink.emit("a", "k.z", 2.0, {})
        assert sink.records == [("k.x", {}), ("k.z", {})]
    assert [(json.loads(l)["kind"], json.loads(l)["seq"])
            for l in path.read_text().splitlines()] == [("k.x", 0), ("k.z", 1)]


def test_sink_assigns_sequential_seq(tmp_path):
    path = tmp_path / "r.jsonl"
    with RunSink(path, "r") as sink:
        sink.emit("a", "k.x", 0.0, {})
        sink.emit("a", "k.y", 1.0, {})
        assert sink.records == [("k.x", {}), ("k.y", {})]
    lines = path.read_text().splitlines()
    assert [json.loads(l)["seq"] for l in lines] == [0, 1]


def test_sink_rejects_after_close(tmp_path):
    sink = RunSink(tmp_path / "r.jsonl", "r")
    sink.close()
    with pytest.raises(SinkClosedError):
        sink.emit("a", "k", 0.0, {})


def test_sink_enforces_time_order_per_source(tmp_path):
    sink = RunSink(tmp_path / "r.jsonl", "r")
    sink.emit("a", "k", 5.0, {})
    sink.emit("b", "k", 1.0, {})  # other source may lag
    with pytest.raises(TelemetryError, match="backwards"):
        sink.emit("a", "k", 4.0, {})
    sink.close()


def test_lines_are_self_contained(tmp_path):
    path = tmp_path / "r.jsonl"
    with RunSink(path, "r") as sink:
        sink.emit("s", "kind.one", 0.0, {"vm": {"1": 0.99}})
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) == {"run_id", "seq", "t_sim", "source", "kind", "payload"}


def fixture_sink(path, run_id="fix", band=(0.95, 1.05), factors=None):
    """Write the fixture log; the closed sink still holds every record."""
    with RunSink(path, run_id) as sink:
        sink.emit("runner", "run.header", 0.0, {
            "run_id": run_id, "seed": 7, "experiment": "exp",
            "factors": factors or {"dos": False},
            "band": {"v_min_pu": band[0], "v_max_pu": band[1]},
        })
        sink.emit("grid", "grid.step", 0.0,
                  {"vm": {"1": 1.0, "2": 0.94}, "converged": True})
        sink.emit("grid", "grid.step", 900.0,
                  {"vm": {"1": 1.0, "2": 0.97}, "converged": False})
        sink.emit("market", "market.clearing", 900.0, {
            "resolved": True, "total_cost_eur": 12.5,
            "payments_eur": {"a1": 12.5}, "accepted_mvar": {"a1": 2.5},
            "offers": [{"agent_id": "a1", "q_mvar": -3.0}],
        })
        sink.emit("net", "net.send", 900.0, {})
        sink.emit("net", "net.deliver", 900.5, {})
        sink.emit("net", "net.drop", 901.0, {})
        sink.emit("agent", "agent.episode", 900.0, {"agent": "att", "return": 3.5})
        sink.emit("weird", "custom.kind", 901.0, {})
    return sink


def write_fixture_log(path, run_id="fix", band=(0.95, 1.05), factors=None):
    return fixture_sink(path, run_id, band, factors).path


def test_summarize_counts(tmp_path):
    path = write_fixture_log(tmp_path / "fix.jsonl")
    s = summarize(path)
    assert s.run_id == "fix"
    assert s.violation_count == 1
    assert s.max_excursion_pu == pytest.approx(0.01)
    assert s.diverged_count == 1
    assert s.clearings == 1 and s.clearings_resolved == 1
    assert s.total_cost_eur == 12.5
    assert (s.frames_sent, s.frames_delivered, s.frames_dropped) == (1, 1, 1)
    assert s.payments_eur == {"a1": 12.5}
    assert s.returns == {"att": [3.5]}
    assert s.unknown_kinds == {"custom.kind": 1}


def test_mean_is_the_logged_formula_and_never_overflows_on_finite_values():
    rng = random.Random(16)
    for _ in range(2000):
        values = [rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-3, 300)
                  for _ in range(rng.randint(1, 12))]
        assert mean(values).hex() == (sum(values) / len(values)).hex()
    big = 1.7976931348623157e308
    assert mean([big, big, big]) == big
    assert mean([1e308, 1e308, -1e308, 1e308]) == 5e307
    assert mean([-big, -big]) == -big
    assert mean([3e307] * 24) == 3e307
    summaries = [RunSummary(run_id=f"r{i}", factors={"f": i % 2},
                            returns={"att": [3e307] * 24}) for i in range(4)]
    assert all(mean(s.returns["att"]) == 3e307 for s in summaries)
    table = compare(summaries, "f")
    assert [row["mean_return.att"] for row in table.rows] == [3e307, 3e307]


def test_feed_in_memory_matches_summarize(tmp_path):
    sink = fixture_sink(tmp_path / "fix.jsonl", band=(0.98, 1.04))
    fed = RunSummary(run_id=sink.run_id)
    for kind, payload in sink.records:
        fed.feed(kind, payload)
    assert fed == summarize(sink.path)
    assert fed.band == VoltageBand(0.98, 1.04)
    assert fed.violation_count == 2  # 0.94 and 0.97 both leave the header's band
    assert fed.aggregates() == {
        "violation_sum_pu": pytest.approx(0.04 + 0.01),
        "diverged": 1,
        "payments_eur": {"a1": 12.5},
        "offered_mvar": {"a1": 3.0},
        "accepted_mvar": {"a1": 2.5},
        "frames_dropped": 1,
        "clearing_cost_eur": 12.5,
        "resolution_failures": 0,
        "payments_eur.a1": 12.5,
        "offered_mvar.a1": 3.0,
        "accepted_mvar.a1": 2.5,
    }


def test_sink_drain_hands_over_records_once(tmp_path):
    path = tmp_path / "r.jsonl"
    with RunSink(path, "r") as sink:
        sink.emit("a", "k.x", 0.0, {"n": 0})
        assert sink.drain() == [("k.x", {"n": 0})]
        assert sink.records == [] and sink.drain() == []
        sink.emit("a", "k.y", 1.0, {})
        assert sink.drain() == [("k.y", {})]
    assert [json.loads(l)["seq"] for l in path.read_text().splitlines()] == [0, 1]


def test_summarize_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    s = summarize(path)
    assert s.violation_count == 0
    assert s.clearings == 0
    assert s.resolution_rate == 1.0


def test_summarize_single_drop(tmp_path):
    path = tmp_path / "d.jsonl"
    with RunSink(path, "d") as sink:
        sink.emit("net", "net.drop", 0.0, {})
    assert summarize(path).frames_dropped == 1


def test_summarize_reports_malformed_line_numbers(tmp_path):
    path = write_fixture_log(tmp_path / "fix.jsonl")
    content = path.read_text().splitlines()
    content.insert(2, "{not json")
    content.insert(5, '{"missing": "fields"}')
    path.write_text("\n".join(content) + "\n", encoding="utf-8")
    s = summarize(path)
    assert [line for line, _ in s.parse_errors] == [3, 6]


def test_summarize_reports_a_payload_of_the_wrong_shape_and_adds_nothing(tmp_path, capsys):
    from analyse.cli import main

    path = write_fixture_log(tmp_path / "fix.jsonl")
    clean = summarize(path)
    bad = [
        ("grid.step", {"vm": [1.0]}),
        ("grid.step", {"vm": {"1": 0.5, "2": "low"}, "converged": False}),
        ("market.clearing", {"resolved": True, "total_cost_eur": "3",
                             "payments_eur": {"a1": 1.0}}),
        ("market.clearing", {"resolved": True, "total_cost_eur": 1.0,
                             "accepted_mvar": {"a1": 1.0}, "offers": [{"q_mvar": True}]}),
        ("market.clearing", {"total_cost_eur": int("1" + "0" * 400)}),
        ("market.clearing", [1.0]),
        ("agent.episode", {"agent": "att", "return": None}),
        ("run.header", {"band": {"v_min_pu": "0.9"}}),
        (5, {}),
    ]
    lines = path.read_text().splitlines()
    for i, (kind, payload) in enumerate(bad):
        lines.insert(2 * i + 1, json.dumps({"run_id": "fix", "seq": 100 + i, "t_sim": 0.0,
                                            "source": "x", "kind": kind, "payload": payload}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    s = summarize(path)
    assert [line for line, _ in s.parse_errors] == [2 * i + 2 for i in range(len(bad))]
    assert "field 'total_cost_eur' has the wrong type" in s.parse_errors[2][1]
    assert dataclasses.replace(s, parse_errors=[]) == clean
    capsys.readouterr()
    assert main(["report", str(path)]) == 0
    assert "parse_error.line_2 " in capsys.readouterr().out


def test_compare_identical_summaries_zero_deltas(tmp_path):
    a = summarize(write_fixture_log(tmp_path / "a.jsonl", "exp-0000", factors={"dos": False}))
    b = summarize(write_fixture_log(tmp_path / "b.jsonl", "exp-0001", factors={"dos": True}))
    table = compare([a, b], "dos")
    assert table.rows[0]["level"] is False
    for column in table.columns:
        assert table.deltas[1][column] == pytest.approx(0.0)
    assert table.deltas[0]["runs"] == 1


def test_compare_unknown_factor_named(tmp_path):
    a = summarize(write_fixture_log(tmp_path / "a.jsonl", "exp-0000"))
    b = summarize(write_fixture_log(tmp_path / "b.jsonl", "exp-0001"))
    with pytest.raises(ValueError, match="known factors: dos"):
        compare([a, b], "nope")


def test_compare_mismatched_experiments(tmp_path):
    a = summarize(write_fixture_log(tmp_path / "a.jsonl", "exp-0000"))
    b = summarize(write_fixture_log(tmp_path / "b.jsonl", "exp-0001"))
    b.experiment = "other"
    with pytest.raises(ValueError, match="different experiments"):
        compare([a, b], "dos")


def test_compare_needs_two_summaries(tmp_path):
    a = summarize(write_fixture_log(tmp_path / "a.jsonl"))
    with pytest.raises(ValueError):
        compare([a], "dos")
