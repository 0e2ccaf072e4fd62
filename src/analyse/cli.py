"""Command-line entry point: validate, design, run, report.

Exit codes: 0 ok, 2 validation failure, 3 simulation abort, 4 I/O error.
The ANALYSE_LOG_DIR environment variable supplies the default output
directory for run logs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import yaml

from . import __version__
from .design import expand_runs, run_document
from .runner import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    RunError,
    execute_run,
    execute_run_directory,
)
from .scenario import ScenarioError, load_document
from .telemetry import METRIC_KEYS, ComparisonTable, RunSummary, compare, summarize
from .validation import document_kind, validate_document


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analyse",
        description="Co-simulated grid/market/network attack experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario, experiment, or run document")
    p.add_argument("path", type=Path)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("design", help="expand an experiment into run files")
    p.add_argument("path", type=Path)
    p.add_argument("-o", "--out-dir", type=Path, required=True)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("run", help="execute a run/scenario document, or every run in a directory")
    p.add_argument("path", type=Path)
    p.add_argument("--seed", type=int, default=None, help="override the run seed (recorded)")
    p.add_argument("-o", "--out-dir", type=Path, default=None,
                   help="log directory (default: $ANALYSE_LOG_DIR or .)")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="with a directory, execute up to N isolated runs concurrently")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize one log or compare a directory of logs")
    p.add_argument("path", type=Path)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--group-by", default=None, metavar="FACTOR")
    p.set_defaults(func=cmd_report)
    return parser


def cmd_validate(args) -> int:
    doc = load_document(args.path)
    violations = validate_document(doc, args.path.parent)
    if violations:
        for where, message in violations:
            print(f"{args.path}: {where}: {message}")
        print(f"{len(violations)} problem(s) found")
        return EXIT_VALIDATION
    print(f"{args.path}: ok")
    return EXIT_OK


def cmd_design(args) -> int:
    doc = load_document(args.path)
    if document_kind(doc) in ("scenario", "run"):
        print(f"{args.path}: design needs an experiment document", file=sys.stderr)
        return EXIT_VALIDATION
    checked = validate_document(doc, args.path.parent)
    if checked:
        for where, message in checked:
            print(f"{args.path}: {where}: {message}")
        return EXIT_VALIDATION
    experiment = checked.value
    runs = expand_runs(experiment)

    out: Path = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    index_path = out / "index.yaml"
    targets = [index_path] + [out / f"{run.run_id}.yaml" for run in runs]
    existing = [t for t in targets if t.exists()]
    if existing and not args.overwrite:
        print(f"refusing to overwrite {len(existing)} existing file(s) in {out}; "
              "pass --overwrite", file=sys.stderr)
        return EXIT_IO
    index = {
        "experiment": experiment.name,
        "strategy": experiment.strategy,
        "base_seed": experiment.base_seed,
        "runs": {run.run_id: {"seed": run.seed, "factors": run.factors} for run in runs},
    }
    index_path.write_text(yaml.safe_dump(index, sort_keys=True), encoding="utf-8")
    for run in runs:
        (out / f"{run.run_id}.yaml").write_text(
            yaml.safe_dump(run_document(run), sort_keys=True), encoding="utf-8"
        )
    print(f"wrote {len(runs)} run file(s) and index.yaml to {out}")
    return EXIT_OK


def _default_out_dir(flag: Path | None) -> Path:
    if flag is not None:
        return flag
    env = os.environ.get("ANALYSE_LOG_DIR")
    return Path(env) if env else Path(".")


def cmd_run(args) -> int:
    out_dir = _default_out_dir(args.out_dir)
    if args.path.is_dir():
        results = execute_run_directory(args.path, out_dir, parallel=args.parallel,
                                        seed_override=args.seed)
        worst = EXIT_OK
        for name, code, message in results:
            status = "ok" if code == EXIT_OK else f"exit {code}"
            print(f"{name}: {status}; {message}")
            worst = max(worst, code)
        return worst
    doc = load_document(args.path)
    try:
        result = execute_run(doc, args.path.parent, out_dir, args.seed)
    except RunError as exc:
        raise RunError(f"{args.path}: {exc}", exc.exit_code) from exc
    print(f"run {result.run_id} complete; log at {result.log_path}")
    for report in result.reports:
        print(f"  phase {report.name} ({report.mode}): episodes={len(report.returns)} "
              f"mean_return={report.mean_return:.6g}")
    return EXIT_OK


def cmd_report(args) -> int:
    path: Path = args.path
    if path.is_file():
        summary = summarize(path)
        print(render_summary(summary, args.format))
        return EXIT_OK
    if not path.is_dir():
        raise RunError(f"no such file or directory: {path}", EXIT_IO)
    logs = sorted(path.glob("*.jsonl"))
    if not logs:
        raise RunError(f"no logs found under {path}", EXIT_IO)
    summaries = [summarize(p) for p in logs]
    if args.group_by is None:
        print(render_summaries(summaries, args.format))
        return EXIT_OK
    try:
        table = compare(summaries, args.group_by)
    except ValueError as exc:
        raise RunError(str(exc), EXIT_VALIDATION) from exc
    print(render_comparison(table, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_summary(s: RunSummary, fmt: str = "text") -> str:
    rows = [
        ("run_id", s.run_id),
        ("experiment", s.experiment or ""),
        ("seed", s.seed if s.seed is not None else ""),
    ]
    rows += [(k, getattr(s, k)) for k in METRIC_KEYS]
    for agent in sorted(s.payments_eur):
        rows.append((f"payments_eur.{agent}", s.payments_eur[agent]))
    for agent in sorted(s.accepted_mvar):
        rows.append((f"accepted_mvar.{agent}", s.accepted_mvar[agent]))
    for agent in sorted(s.returns):
        stats = s.episode_stats(agent)
        rows.append((f"episodes.{agent}", stats["episodes"]))
        rows.append((f"mean_return.{agent}", stats["mean"]))
    for line_no, message in s.parse_errors:
        rows.append((f"parse_error.line_{line_no}", message))
    if fmt == "csv":
        lines = ["metric,value"] + [f"{k},{_fmt(v)}" for k, v in rows]
        return "\n".join(lines)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {_fmt(v)}" for k, v in rows)


def render_summaries(summaries: list[RunSummary], fmt: str = "text") -> str:
    cols = ["run_id", "violation_count", "clearings", "resolution_rate",
            "total_cost_eur", "frames_dropped"]
    rows = [
        [s.run_id, s.violation_count, s.clearings, s.resolution_rate,
         s.total_cost_eur, s.frames_dropped]
        for s in summaries
    ]
    return _table(cols, rows, fmt)


def render_comparison(table: ComparisonTable, fmt: str = "text") -> str:
    cols = [f"{table.factor}", "runs"] + table.columns
    rows = []
    for row in table.rows:
        rows.append([row["level"], row["runs"]] + [row.get(c, 0.0) for c in table.columns])
    out = [_table(cols, rows, fmt)]
    delta_rows = []
    for delta in table.deltas:
        delta_rows.append(
            [delta["level"], delta["runs"]] + [delta.get(c, 0.0) for c in table.columns]
        )
    if fmt == "csv":
        out.append(_table([f"delta.{c}" if i >= 2 else c for i, c in enumerate(cols)],
                          delta_rows, fmt))
    else:
        out.append("deltas vs first level:")
        out.append(_table(cols, delta_rows, fmt))
    return "\n\n".join(out)


def _table(cols: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(cols)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines)
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in str_rows)) if str_rows else len(c)
              for i, c in enumerate(cols)]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    sep = "  ".join("-" * w for w in widths)
    body = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in str_rows]
    return "\n".join([header, sep] + body)


if __name__ == "__main__":
    sys.exit(main())
