"""Co-simulation benchmark: run one workload, check its outputs, print metrics.

    python3 cosimbench/run.py --workload gaming --seed 1 --seconds 40 --trace 0

Each workload is a closed loop of one: repetitions run back to back, each in
a fresh single-threaded worker process (worker.py), until `--seconds` is
used up. The seed only shapes the inputs: two input seeds are derived from
it and taken in turn, and each reaches the program as `seed_override`
(gaming) or inside the generated documents (dos_week, radial32). There are
at least three repetitions, so that the first input seed always runs twice
and determinism is checked. Host times are scaled to a reference host speed
that the worker samples while it runs (worker.HostGauge).

With `--trace 0` every repetition is untraced and the end-to-end metrics are
printed. With `--trace 1` untraced and traced repetitions alternate; the
per-layer metrics come from the traced ones and `trace.overhead_ratio`
compares the two. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `attempted` counts runs
(dos_week has two per repetition); a run fails when it raises, exits
non-zero or fails an output check, and the failure does not stop the others.
Metric names and units are read from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "analyse" / "data"
WORK = ROOT / ".cosimbench-work"
WORKLOADS = ("gaming", "dos_week", "radial32")
DOS_DAYS = 7  # one-day episodes of the feeder4 day per dos_week run
VICTIM_AGENT, VICTIM_HOST = "agent_pv3", "h3"  # target of the bundled dos rule
# Each run measures SUB_SEEDS input seeds, derived from --seed, in turn:
# the work of gaming and radial32 depends on the seed, and averaging over
# two seeds halves the share of that in the spread between runs. MIN_REPS
# repeats the first input seed, so that determinism is always checked.
SUB_SEEDS = 2
MIN_REPS = 3
WORKER_TIMEOUT_S = 120
# Every metric the untraced repetitions yield. step_ms_p50, step_ms_p90 and
# report_s are declared per-layer in BENCHMARK.json: the step percentiles sit
# where the share of clearing-heavy steps, which the seed sets, moves them,
# and report_s times short stretches of pure Python.
TIMING_UNITS = {
    "setup_s": "s", "run_s": "s", "intervals_per_s": "1/s", "step_ms_p50": "ms",
    "step_ms_p90": "ms", "report_s": "s", "peak_rss_mb": "MiB",
    # for reading only: the repetitions' host slowdown and their raw run_s
    "host.slowdown": "ratio", "wall.run_s": "s",
}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from stats import percentile  # noqa: E402


@dataclass(frozen=True)
class Plan:
    """Inputs of one workload and what its logs must show."""

    doc: Path
    runs: int  # runs per repetition
    episodes: int  # per run
    clearings: int  # per run
    every_interval_converges: bool


def _load_yaml(path: Path) -> dict:
    import yaml

    return yaml.safe_load(path.read_text(encoding="utf-8"))


def _write_yaml(path: Path, doc: dict) -> Path:
    import yaml

    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return path


def _schedule_counts(scenario: dict) -> tuple[int, int]:
    """(episodes, clearings) per run: the market also clears at t=0."""
    phases = scenario["schedule"]
    return (sum(p["episodes"] for p in phases),
            sum(p["episodes"] * (p["episode_length"] + 1) for p in phases))


def prepare(workload: str, seed: int, inputs: Path) -> Plan:
    """Write the workload's documents for this seed; the same seed, the same bytes."""
    inputs.mkdir(parents=True)
    if workload == "gaming":
        doc = DATA / "gaming.yaml"
        episodes, clearings = _schedule_counts(_load_yaml(doc))
        return Plan(doc, 1, episodes, clearings, False)
    if workload == "dos_week":
        base = _load_yaml(DATA / "feeder4.yaml")
        base["schedule"] = [
            {"name": "week", "mode": "test", "episodes": DOS_DAYS, "episode_length": 96}
        ]
        _write_yaml(inputs / "feeder4_week.yaml", base)
        experiment = _load_yaml(DATA / "dos_experiment.yaml")
        experiment["base_scenario"] = "feeder4_week.yaml"
        experiment["base_seed"] = seed
        runs = 1
        for factor in experiment["factors"]:
            runs *= len(factor["levels"])
        episodes, clearings = _schedule_counts(base)
        return Plan(_write_yaml(inputs / "dos_week.yaml", experiment), runs, episodes,
                    clearings, True)
    if workload == "radial32":
        import radial32

        doc = radial32.write_document(seed, inputs / "radial32.yaml")
        episodes, clearings = _schedule_counts(_load_yaml(doc))
        return Plan(doc, 1, episodes, clearings, True)
    raise ValueError(f"unknown workload {workload!r}")


def run_worker(workload: str, seed: int, plan: Plan, rep_dir: Path, traced: bool) -> dict:
    """One repetition in a fresh process; returns its result or the error."""
    rep_dir.mkdir(parents=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "src": str(SRC),
        "doc": str(plan.doc),
        "out": str(rep_dir / "logs"),
        "runs": str(rep_dir / "runs"),
        "result": str(rep_dir / "result.json"),
        "spans": str(rep_dir / "spans"),
    }
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced,
                "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(rep_dir / "logs", ignore_errors=True)
        shutil.rmtree(rep_dir / "runs", ignore_errors=True)
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"ok": False, "traced": traced,
                "error": f"worker exited {proc.returncode}: {tail}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["traced"] = traced
    result["seed"] = seed
    return result


def check(workload: str, plan: Plan, rep: dict,
          reference: dict[tuple[int, str], str]) -> list[str]:
    """Output checks of one completed repetition; one message per failed run."""
    problems: dict[str, list[str]] = {}

    def fail(run: str, message: str) -> None:
        problems.setdefault(run, []).append(message)

    logs = rep["logs"]
    if len(logs) != plan.runs:
        return [f"expected {plan.runs} logs, found {len(logs)}"] * plan.runs
    for log in logs:
        run = log["file"]
        if reference.setdefault((rep["seed"], run), log["sha256"]) != log["sha256"]:
            fail(run, "log bytes differ from the first repetition with this seed")
        if log["parse_errors"] or log["unknown_kinds"]:
            fail(run, f"summarize: {log['parse_errors']} parse errors, "
                      f"unknown kinds {log['unknown_kinds']}")
        if log["episodes"] != plan.episodes or log["clearings"] != plan.clearings:
            fail(run, f"{log['episodes']} episodes / {log['clearings']} clearings, "
                      f"planned {plan.episodes} / {plan.clearings}")
        if plan.every_interval_converges and log["diverged"]:
            fail(run, f"{log['diverged']} power flows diverged")
    if workload == "dos_week":
        for log in logs:
            run, paid = log["file"], log["payments_eur"].get(VICTIM_AGENT, 0.0)
            dropped = log["drops_by_src"].get(VICTIM_HOST, 0)
            if log["factors"].get("dos") == 1.0:
                if paid != 0.0 or log["accepted_mvar"].get(VICTIM_AGENT, 0.0) != 0.0:
                    fail(run, f"dos=1 still pays {VICTIM_AGENT} {paid} EUR")
                if dropped == 0:
                    fail(run, f"dos=1 dropped no frames from {VICTIM_HOST}")
            elif paid <= 0.0 or dropped:
                fail(run, f"dos=0: {VICTIM_AGENT} paid {paid} EUR, {dropped} frames dropped")
        baseline = next((log for log in logs if log["factors"].get("dos") == 0.0), None)
        delta = rep["deltas"][1].get(f"payments_eur.{VICTIM_AGENT}")
        expected = -baseline["payments_eur"].get(VICTIM_AGENT, 0.0) if baseline else None
        if (expected is None or delta is None
                or abs(delta - expected) > 1e-9 * max(1.0, abs(expected))):
            for log in logs:
                fail(log["file"], f"compare delta {delta} for {VICTIM_AGENT}, expected {expected}")
    if rep["traced"] and rep["partition_error_s"] > 1e-6:
        for log in logs:
            fail(log["file"], f"layer self times miss run_s by {rep['partition_error_s']} s")
    return [f"{run}: {'; '.join(msgs)}" for run, msgs in sorted(problems.items())]


def timings(reps: list[dict]) -> dict[str, float]:
    """Host-time metrics of untraced repetitions, keyed like TIMING_UNITS.

    Every time is first divided by its own repetition's slowdown (see
    worker.HostGauge), so that it reads in seconds at the reference host
    speed. A metric is then the median over the repetitions of one input
    seed, averaged over the input seeds. Step-latency percentiles are taken
    per input seed over its repetitions' pooled steps, and averaged the same
    way.
    """
    by_seed: dict[int, list[dict]] = {}
    for r in reps:
        by_seed.setdefault(r["seed"], []).append(r)

    def over_seeds(of_group) -> float:
        return statistics.fmean(of_group(group) for group in by_seed.values())

    def median(name: str, power: int) -> float:
        return over_seeds(lambda group: statistics.median(
            [r[name] * r["slowdown"] ** power for r in group]))

    def step_ms(q: float) -> float:
        return over_seeds(lambda group: percentile(
            [x / r["slowdown"] for r in group for x in r["step_ms"]], q))

    metrics = {name: median(name, -1) for name in ("setup_s", "run_s", "report_s")}
    metrics["intervals_per_s"] = median("intervals_per_s", 1)
    metrics["peak_rss_mb"] = median("peak_rss_mb", 0)
    metrics["step_ms_p50"] = step_ms(0.5)
    metrics["step_ms_p90"] = step_ms(0.9)
    metrics["host.slowdown"] = statistics.median([r["slowdown"] for r in reps])
    metrics["wall.run_s"] = median("run_s", 0)
    return metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {name: statistics.median([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
    run_s = [statistics.median([r["run_s"] for r in reps]) for reps in (traced, untraced)]
    metrics["trace.overhead_ratio"] = run_s[0] / run_s[1] - 1.0
    return metrics


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "analyse").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, reps: list[dict]) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    first: dict[int, dict] = {}
    for r in reps:
        if r["ok"]:
            first.setdefault(r["seed"], r)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": input_seeds(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "repetitions": len(reps),
        "traced_repetitions": sum(1 for r in reps if r["traced"]),
        "logs": [{"input_seed": seed, "run": log["file"], "sha256": log["sha256"],
                  "records": log["records"]}
                 for seed, r in sorted(first.items()) for log in r["logs"]],
    }


def input_seeds(seed: int) -> list[int]:
    """The input seeds one run measures: disjoint for different --seed values."""
    return [(seed * SUB_SEEDS + j) % 2**32 for j in range(SUB_SEEDS)]


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "analyse" / "__init__.py").is_file():
        print(f"cosimbench: no program under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sys.path.insert(0, str(SRC))
    seeds = input_seeds(args.seed)
    plans = {seed: prepare(args.workload, seed, work / f"inputs-{seed}") for seed in seeds}
    plan = plans[seeds[0]]  # the counts to check are the same for every input seed
    compileall.compile_dir(SRC / "analyse", quiet=1)

    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        # traced runs take each input seed twice, untraced then traced
        i = len(reps)
        traced = bool(args.trace) and i % 2 == 1
        seed = seeds[(i // 2 if args.trace else i) % SUB_SEEDS]
        reps.append(run_worker(args.workload, seed, plans[seed], work / f"rep-{i:02d}", traced))
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break

    attempted = plan.runs * len(reps)
    failures: list[str] = []
    reference: dict[tuple[int, str], str] = {}
    for i, rep in enumerate(reps):
        if not rep["ok"]:
            failures += [f"repetition {i}: {rep['error']}"] * plan.runs
        else:
            problems = check(args.workload, plan, rep, reference)
            failures += [f"repetition {i}: {msg}" for msg in problems]
    done = [r for r in reps if r["ok"]]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        for msg in failures:
            print(msg, file=sys.stderr)
        print("cosimbench: no repetition completed", file=sys.stderr)
        return 1
    metrics = timings(untraced)
    if args.trace:
        metrics.update(per_layer(untraced, traced))
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics that are not measured: {missing}")

    prov = provenance(args, reps)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"provenance": prov, "failures": failures, "result": result,
         "repetitions": [{k: v for k, v in r.items() if k != "step_ms"} for r in reps]},
        indent=1), encoding="utf-8")
    for msg in failures:
        print(msg, file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        for name, unit in TIMING_UNITS.items():
            if name not in units:
                print(f"{name:40s} {metrics[name]:14.6g} {unit} (not gated)")
    ratio = len(failures) / attempted
    print(f"{'fail_ratio':40s} {ratio:14.6g} ({len(failures)}/{attempted} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
