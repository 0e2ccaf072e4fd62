"""End-to-end execution of run documents: validate, simulate, log.

execute_run refuses an experiment, validates a run or scenario document
before it reads anything from it, and builds the environment from the
ScenarioConfig that validation built, its data series included. A directory
run executes every run file on its own and reports one (file, exit code,
message) per file: a file that is not a YAML mapping or fails validation exits
2 without stopping the others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from . import scenario as scn
from .environment import AgentRunState, Environment, PhaseReport, run_phase
from .errors import EXIT_IO, EXIT_OK, EXIT_SIMULATION, EXIT_VALIDATION, RunError
from .kernel import KernelError
from .telemetry import RunSink, TelemetryError, canonical_json
from .validation import document_kind, validate_document


@dataclass
class RunResult:
    run_id: str
    log_path: Path
    reports: list[PhaseReport] = field(default_factory=list)


def execute_run(
    doc: dict,
    base_dir: Path,
    out_dir: Path,
    seed_override: int | None = None,
) -> RunResult:
    """Run all schedule phases and write <run_id>.jsonl into out_dir.

    An experiment is refused unvalidated; any other document is validated
    before anything else reads it. Raises RunError with the documented exit
    code on validation failure (2), simulation abort (3), or I/O trouble (4);
    a data series file that cannot be read raises OSError from validation.
    Validation failures leave no partial log behind because the sink is only
    opened after they pass; once open, it is closed on every exit path.
    """
    kind = document_kind(doc)
    if kind == "experiment":
        raise RunError("document is neither a run nor a scenario", EXIT_VALIDATION)
    checked = validate_document(doc, base_dir)
    if checked:
        lines = "\n".join(f"  {path}: {msg}" for path, msg in checked)
        raise RunError(f"validation failed:\n{lines}", EXIT_VALIDATION)
    config = checked.value
    if kind == "run":
        run_id, seed, scenario_doc = doc["run_id"], int(doc["seed"]), doc["scenario"]
        experiment, factors = doc.get("experiment") or None, doc.get("factors", {})
    else:
        run_id, seed, scenario_doc = config.name, config.seed, doc
        experiment, factors = None, {}
    seed_overridden = seed_override is not None
    if seed_overridden:
        seed = int(seed_override)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        sink = RunSink(out_dir / f"{run_id}.jsonl", run_id)
    except OSError as exc:
        raise RunError(f"cannot open log sink: {exc}", EXIT_IO) from exc

    with sink:
        digest = hashlib.sha256(canonical_json(scenario_doc).encode("utf-8")).hexdigest()
        sink.emit("runner", "run.header", 0.0, {
            "run_id": run_id,
            "seed": seed,
            "seed_overridden": seed_overridden,
            "experiment": experiment,
            "factors": factors,
            "scenario": config.name,
            "scenario_sha256": digest,
            "schema_version": scn.SCHEMA_VERSION,
            "band": {
                "v_min_pu": config.market.band.v_min_pu,
                "v_max_pu": config.market.band.v_max_pu,
            },
            "agent": config.agent.agent_id,
            "agent_kind": config.agent.learner.kind,
        })

        env = Environment(config, sink)
        state = AgentRunState()
        reports: list[PhaseReport] = []
        try:
            for phase in config.schedule:
                reports.append(run_phase(env, phase, seed, state))
            sink.emit("runner", "run.end", env.telemetry_time, {
                "status": "ok",
                "phases": [
                    {
                        "name": r.name,
                        "mode": r.mode,
                        "episodes": len(r.returns),
                        "mean_return": r.mean_return,
                        "best_return": r.best_return,
                    }
                    for r in reports
                ],
            })
        except (KernelError, TelemetryError) as exc:
            sink.emit("runner", "run.abort", env.telemetry_time, {"error": str(exc)})
            raise RunError(f"simulation aborted: {exc}", EXIT_SIMULATION) from exc
    return RunResult(run_id=run_id, log_path=sink.path, reports=reports)


def _run_one_file(path_str: str, out_dir_str: str, seed_override: int | None) -> tuple[str, int, str]:
    """Worker for directory execution; returns (file, exit code, message)."""
    path = Path(path_str)
    try:
        doc = scn.load_document(path)
        result = execute_run(doc, path.parent, Path(out_dir_str), seed_override)
        return (path.name, EXIT_OK, f"log at {result.log_path}")
    except scn.ScenarioError as exc:
        return (path.name, EXIT_VALIDATION, str(exc))
    except RunError as exc:
        return (path.name, exc.exit_code, str(exc))
    except OSError as exc:
        return (path.name, EXIT_IO, str(exc))


def execute_run_directory(
    run_dir: Path,
    out_dir: Path,
    parallel: int = 1,
    seed_override: int | None = None,
) -> list[tuple[str, int, str]]:
    """Execute every run YAML in a directory, up to `parallel` at a time.

    Runs are fully isolated (one kernel and one log sink each), so worker
    processes never share state; results come back in file-name order.
    """
    run_files = sorted(p for p in run_dir.glob("*.yaml") if p.name != "index.yaml")
    if not run_files:
        raise RunError(f"no run files found under {run_dir}", EXIT_IO)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(parallel, len(run_files))
    if workers <= 1:
        return [_run_one_file(str(p), str(out_dir), seed_override) for p in run_files]
    import concurrent.futures  # here, so that a single run never imports it

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_one_file, str(p), str(out_dir), seed_override)
            for p in run_files
        ]
        return [f.result() for f in futures]
