"""The measured process: one repetition of one workload.

run.py starts this script once per repetition, one at a time, with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, and passes a JSON spec:

    python3 cosimbench/worker.py <spec.json>

The clock starts at the first statement, before the program is imported.
The process imports the program from the checkout's `src/`, runs the
workload through the program's public functions, summarizes the logs it
wrote, and writes a JSON result: timings, peak RSS, and per run log its
sha256, record count and summary. Untraced, its only hooks are timestamps on
`Environment.reset` and `Environment.step`; traced, it also records spans
(see spans.py) and adds the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import weakref  # noqa: E402
from pathlib import Path  # noqa: E402

REPORT_PASSES = 5  # report_s is the median pass; one pass is too short to time alone
GAUGE_EVERY_S = 0.01  # program time between two host-speed samples
REF_SLICE_SOLVES = 24
NOMINAL_SLICE_S = 5.0e-4  # reference_slice on the host the benchmark was built on


class HostGauge:
    """Host speed, sampled between environment steps while the workload runs.

    On a shared host the same code runs up to twice as slowly at one time as
    at another, because of what its neighbours do. So after each environment
    step the gauge times a fixed slice of work (`reference_slice`)
    once for every GAUGE_EVERY_S of program time since its last sample, which
    keeps the samples near a tenth of the run. Their mean time against
    NOMINAL_SLICE_S is the repetition's slowdown, and run.py divides every
    host time of the repetition by it. The slices themselves are taken out
    of the program's clock: `now` is perf_counter minus the time spent in
    them.
    """

    def __init__(self, t0: float):
        self.spent = 0.0
        self.slices = 0
        self._due = t0 + GAUGE_EVERY_S

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def tick(self) -> None:
        t = time.perf_counter()
        now = t - self.spent
        if now < self._due:
            return
        # one slice per GAUGE_EVERY_S since the last one, so that the
        # samples keep pace with the program however long its steps are
        n = 1 + int((now - self._due) / GAUGE_EVERY_S)
        for _ in range(n):
            reference_slice()
        self.spent += time.perf_counter() - t
        self.slices += n
        self._due = now + GAUGE_EVERY_S

    def slowdown(self) -> float | None:
        return self.spent / self.slices / NOMINAL_SLICE_S if self.slices else None


def reference_slice() -> float:
    """A fixed slice of the kind of work the program's hot paths do: small
    numpy calls made one after another from the interpreter. It tracks the
    workloads' own slowdowns more closely than a pure-Python loop does."""
    import numpy as np

    a = np.eye(24) * 4.0 + 0.01
    b = np.ones(24)
    for _ in range(REF_SLICE_SOLVES):
        b = np.linalg.solve(a, b) + b
    return float(b.sum())


class StepClock:
    """Start and end times of every Environment.reset and Environment.step,
    read from `clock` (the program's clock), with `after_step` called once a
    step's end has been taken."""

    def __init__(self, clock=time.perf_counter, after_step=None):
        self.clock = clock
        self.after_step = after_step
        self.resets: list[tuple[int, float]] = []  # (run, start)
        self.steps: list[tuple[int, float, float]] = []  # (run, start, end)
        self._runs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self, environment_cls) -> None:
        reset, step = environment_cls.reset, environment_cls.step
        runs, resets, steps, clock = self._runs, self.resets, self.steps, self.clock
        after_step = self.after_step

        def timed_reset(env, seed):
            run = runs.setdefault(env, len(runs))
            resets.append((run, clock()))
            return reset(env, seed)

        def timed_step(env, setpoints):
            t = clock()
            out = step(env, setpoints)
            steps.append((runs[env], t, clock()))
            if after_step is not None:
                after_step()
            return out

        environment_cls.reset = timed_reset
        environment_cls.step = timed_step

    def setup_s(self, t0: float) -> float:
        """Process start to the first run's first reset, plus, for each later
        run, the end of the previous run's last step to its first reset."""
        first_reset: dict[int, float] = {}
        for run, t in self.resets:
            first_reset.setdefault(run, t)
        last_step: dict[int, float] = {}
        for run, _, t in self.steps:
            last_step[run] = t
        total = first_reset[0] - t0
        for run in range(1, len(first_reset)):
            total += first_reset[run] - last_step[run - 1]
        return total


def run_workload(spec: dict, rec) -> None:
    """Drive the program through its public functions, as `analyse run` does."""
    from analyse import design, runner, scenario, validation
    from spans import span

    out = Path(spec["out"])
    doc_path = Path(spec["doc"])
    kind = spec["workload"]
    if kind == "gaming":
        doc = scenario.load_document(doc_path)
        runner.execute_run(doc, doc_path.parent, out, seed_override=spec["seed"])
    elif kind == "radial32":
        doc = scenario.load_document(doc_path)
        runner.execute_run(doc, doc_path.parent, out)
    elif kind == "dos_week":
        experiment = scenario.load_document(doc_path)
        violations = validation.validate_document(experiment, doc_path.parent)
        if violations:
            raise RuntimeError(f"experiment document invalid: {violations}")
        import yaml

        runs_dir = Path(spec["runs"])
        with span(rec, "design.expand"):
            base_path = scenario.resolve_data_path(experiment["base_scenario"], doc_path.parent)
            base = scenario.load_document(base_path)
            runs = design.expand_runs(design.parse_experiment(experiment, base))
            runs_dir.mkdir(parents=True, exist_ok=True)
            for run in runs:
                (runs_dir / f"{run.run_id}.yaml").write_text(
                    yaml.safe_dump(design.run_document(run), sort_keys=True), encoding="utf-8"
                )
        results = runner.execute_run_directory(runs_dir, out, parallel=1)
        failed = [r for r in results if r[1] != runner.EXIT_OK]
        if failed:
            raise RuntimeError(f"runs failed: {failed}")
    else:
        raise ValueError(f"unknown workload {kind!r}")


def describe_log(path: Path, summary) -> dict:
    """Identity and counts of one run log, read after the timed part."""
    data = path.read_bytes()
    drops_by_src: dict[str, int] = {}
    for line in data.splitlines():
        if b'"kind":"net.drop"' in line:
            src = json.loads(line)["payload"]["src"]
            drops_by_src[src] = drops_by_src.get(src, 0) + 1
    return {
        "file": path.name,
        "run_id": summary.run_id,
        "sha256": hashlib.sha256(data).hexdigest(),
        "records": data.count(b"\n"),
        "bytes": len(data),
        "factors": summary.factors,
        "episodes": sum(len(r) for r in summary.returns.values()),
        "clearings": summary.clearings,
        "clearings_resolved": summary.clearings_resolved,
        "diverged": summary.diverged_count,
        "parse_errors": len(summary.parse_errors),
        "unknown_kinds": summary.unknown_kinds,
        "payments_eur": summary.payments_eur,
        "accepted_mvar": summary.accepted_mvar,
        "frames_sent": summary.frames_sent,
        "frames_delivered": summary.frames_delivered,
        "frames_dropped": summary.frames_dropped,
        "drops_by_src": drops_by_src,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans

    rec = spans.Recorder(T0) if spec["traced"] else None
    sys.path.insert(0, spec["src"])
    with spans.span(rec, "runner.import"):
        import analyse.runner  # noqa: F401  (imports every layer of the program)
        from analyse import environment, telemetry
    if rec is not None:
        spans.instrument(rec)
    # Traced repetitions feed only the per-layer metrics, which are not
    # normalised, so they take no host-speed samples.
    gauge = None if rec is not None else HostGauge(T0)
    clock = StepClock() if gauge is None else StepClock(gauge.now, gauge.tick)
    clock.install(environment.Environment)

    run_workload(spec, rec)
    t_closed = clock.clock()
    if gauge is not None and not gauge.slices:
        raise RuntimeError("the workload ended before the host speed was sampled")
    if rec is not None:
        rec.exit(rec.root, t_closed)

    logs = sorted(Path(spec["out"]).glob("*.jsonl"))
    report_times = []
    for _ in range(REPORT_PASSES):
        t_report = time.perf_counter()
        summaries = [telemetry.summarize(p) for p in logs]
        comparison = telemetry.compare(summaries, "dos") if spec["workload"] == "dos_week" else None
        report_times.append(time.perf_counter() - t_report)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_s = clock.setup_s(T0)
    run_s = t_closed - T0
    result = {
        "ok": True,
        "setup_s": setup_s,
        "run_s": run_s,
        "report_s": statistics.median(report_times),
        "steps": len(clock.steps),
        "intervals_per_s": len(clock.steps) / (run_s - setup_s),
        "step_ms": [(end - start) * 1e3 for _, start, end in clock.steps],
        "peak_rss_mb": peak_rss_mb,
        "slowdown": gauge.slowdown() if gauge is not None else None,
        "gauge_slices": gauge.slices if gauge is not None else 0,
        "logs": [describe_log(p, s) for p, s in zip(logs, summaries)],
        "deltas": comparison.deltas if comparison is not None else None,
    }
    if rec is not None:
        result["layers"], result["partition_error_s"] = spans.layer_metrics(
            rec, result["logs"], REPORT_PASSES)
        rec.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
