"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest cosimbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import radial32  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from stats import TooFewSamples, percentile  # noqa: E402


def test_radial32_same_seed_same_document(tmp_path):
    a = radial32.write_document(7, tmp_path / "a.yaml").read_bytes()
    b = radial32.write_document(7, tmp_path / "b.yaml").read_bytes()
    other = radial32.write_document(8, tmp_path / "c.yaml").read_bytes()
    assert a == b
    assert a != other


def test_radial32_is_a_valid_radial_tree():
    from analyse.validation import validate_document

    doc = radial32.generate(3)
    assert validate_document(doc, Path(".")) == []
    grid = doc["grid"]
    assert len(grid["buses"]) == radial32.N_BUSES
    assert len(grid["lines"]) == radial32.N_BUSES - 1  # connected with n-1 lines: a tree
    assert all(line["from"] < line["to"] for line in grid["lines"])
    assert sum(load["p_mw"] for load in grid["loads"]) == pytest.approx(
        radial32.TOTAL_LOAD_MW, rel=1e-4)
    assert len(doc["market"]["bidders"]) == radial32.N_PV


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    # (which holds d [6, 7] and e [7.5, 8]).
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    own = spans.self_times(parent, start, end)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_recorder_builds_the_same_tree():
    rec = spans.Recorder(0.0)
    a = rec.enter(rec.name_id("grid.solve"), 1.0)
    rec.exit(rec.enter(rec.name_id("telemetry.emit"), 2.0), 3.0)
    rec.exit(a, 4.0)
    rec.exit(rec.root, 10.0)
    assert list(rec.parent) == [-1, 0, 1]
    own = spans.self_times(rec.parent, rec.start, rec.end)
    assert own == pytest.approx([7.0, 2.0, 1.0])
    assert [spans.layer_of(rec.names[k]) for k in rec.name] == ["trace.root", "grid", "telemetry"]


def test_recorder_refuses_spans_closed_out_of_order():
    rec = spans.Recorder(0.0)
    outer = rec.enter(rec.name_id("outer"))
    rec.enter(rec.name_id("inner"))
    with pytest.raises(RuntimeError):
        rec.exit(outer)


def test_p90_needs_one_hundred_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)


def test_median_needs_one_sample():
    assert percentile([4.0], 0.5) == 4.0
    assert percentile([3.0, 1.0, 2.0, 10.0], 0.5) == 2.5
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)


def _rep(seed, slowdown, run_s, steps_ms):
    return {"seed": seed, "slowdown": slowdown, "setup_s": run_s / 10, "run_s": run_s,
            "report_s": run_s / 100, "intervals_per_s": len(steps_ms) / run_s,
            "peak_rss_mb": 50.0, "step_ms": steps_ms}


def test_timings_scale_each_repetition_then_average_the_input_seeds():
    steps = [1.0] * 100
    reps = [
        _rep(2, 2.0, 20.0, [2 * x for x in steps]),  # 10 s at the reference speed
        _rep(2, 1.0, 12.0, steps),
        _rep(2, 0.5, 4.0, [0.5 * x for x in steps]),  # 8 s
        _rep(3, 1.0, 6.0, [3 * x for x in steps]),
    ]
    m = run.timings(reps)
    # seed 2: median of 10, 12 and 8 is 10; seed 3: 6; their mean is 8
    assert m["run_s"] == pytest.approx(8.0)
    assert m["setup_s"] == pytest.approx(0.8)
    assert m["intervals_per_s"] == pytest.approx((10.0 + 100 / 6) / 2)
    assert m["step_ms_p90"] == pytest.approx(2.0)  # 1 ms for seed 2, 3 ms for seed 3
    assert m["peak_rss_mb"] == 50.0
    assert m["host.slowdown"] == pytest.approx(1.0)


def test_input_seeds_of_different_seeds_are_disjoint():
    seen = [s for seed in range(50) for s in run.input_seeds(seed)]
    assert len(set(seen)) == len(seen) == 50 * run.SUB_SEEDS
    assert run.input_seeds(7) == run.input_seeds(7)


def test_gauge_keeps_its_slices_off_the_program_clock():
    t0 = worker.time.perf_counter() - 3.5 * worker.GAUGE_EVERY_S
    gauge = worker.HostGauge(t0)
    before = gauge.now()
    gauge.tick()
    assert gauge.slices == 3  # one per GAUGE_EVERY_S since the first was due
    assert gauge.spent > 0.0
    assert gauge.now() - before < gauge.spent
    gauge.tick()  # not due again yet
    assert gauge.slices == 3
    assert gauge.slowdown() == pytest.approx(
        gauge.spent / 3 / worker.NOMINAL_SLICE_S)
