"""Experiment documents, factor expansion, and per-run seed derivation.

Seed derivation is pinned bit-exactly so independently produced run sets
interoperate:

    GOLDEN = 0x9E3779B97F4A7C15
    derive_seed(base, index) = splitmix64(base XOR ((index + 1) * GOLDEN mod 2^64))

where splitmix64(x) is the standard generator output for state x:

    z = (x + GOLDEN) mod 2^64
    z = (z XOR z >> 30) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR z >> 27) * 0x94D049BB133111EB mod 2^64
    return z XOR z >> 31

Random sampling of factor assignments uses the same primitive: the level
index for run i, factor f (0-based, F factors) is
derive_seed(base_seed, 1 + i * F + f) mod len(levels), sampled with
replacement.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, NamedTuple

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Substream indexes hung off a run or episode seed via derive_seed.
STREAM_NET = 1
STREAM_JITTER = 2
STREAM_CEM = 3
STREAM_SCRIPTED = 4
STREAM_EPISODE = 7


class DesignError(Exception):
    pass


def splitmix64(x: int) -> int:
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    return splitmix64((base_seed ^ (((index + 1) * GOLDEN) & MASK64)) & MASK64)


class Factor(NamedTuple):
    name: str
    path: str  # slash-delimited path into the scenario document
    levels: tuple[Any, ...]


class Experiment(NamedTuple):
    name: str
    base_scenario: dict
    factors: tuple[Factor, ...]
    strategy: str  # "full_factorial" or "random"
    samples: int  # for strategy "random"
    base_seed: int


class RunDefinition(NamedTuple):
    run_id: str
    seed: int
    document: dict  # resolved scenario
    factors: dict[str, Any]
    experiment: str


def resolve_path(document: Any, path: str) -> tuple[Any, str | int]:
    """Walk a slash-delimited path; returns (container, final key or index)."""
    parts = path.split("/")
    node = document
    for depth, part in enumerate(parts, start=1):
        if isinstance(node, list):
            key = _list_index(node, part, path)
        elif isinstance(node, dict) and part in node:
            key = part
        else:
            raise DesignError(f"dangling factor path {path!r} (missing {part!r})")
        if depth == len(parts):
            return node, key
        node = node[key]


def _list_index(node: list, part: str, path: str) -> int:
    try:
        idx = int(part)
    except ValueError:
        raise DesignError(f"dangling factor path {path!r} ({part!r} is not an index)") from None
    if not (0 <= idx < len(node)):
        raise DesignError(f"dangling factor path {path!r} (index {idx} out of range)")
    return idx


def substitute(document: dict, path: str, value: Any) -> None:
    container, key = resolve_path(document, path)
    container[key] = value


def parse_experiment(document: dict, base_scenario: dict) -> Experiment:
    """Typed experiment from a valid experiment document: the rules the schema
    cannot state (unique factor names, factor paths that resolve in the base
    scenario, samples for the random strategy, a 64-bit base_seed) are
    checked by validation.validate_experiment."""
    return Experiment(
        name=document["name"],
        base_scenario=base_scenario,
        factors=tuple(Factor(raw["name"], raw["path"], tuple(raw["levels"]))
                      for raw in document.get("factors", [])),
        strategy=document.get("strategy", "full_factorial"),
        samples=int(document.get("samples", 0)),
        base_seed=int(document.get("base_seed", 0)),
    )


def expand_runs(experiment: Experiment) -> list[RunDefinition]:
    """Expand the factor space into concrete seeded run definitions.

    full_factorial enumerates the Cartesian product in declared factor order
    with the last factor varying fastest; random draws `samples` assignments
    uniformly with replacement (duplicates permitted and recorded).
    """
    factors = experiment.factors
    if experiment.strategy == "full_factorial":
        if factors:
            assignments = [
                dict(zip((f.name for f in factors), combo))
                for combo in itertools.product(*(f.levels for f in factors))
            ]
        else:
            assignments = [{}]
    else:
        nf = len(factors)
        assignments = []
        for i in range(experiment.samples):
            assignment = {}
            for j, f in enumerate(factors):
                draw = derive_seed(experiment.base_seed, 1 + i * nf + j)
                assignment[f.name] = f.levels[draw % len(f.levels)]
            assignments.append(assignment)

    runs = []
    for index, assignment in enumerate(assignments):
        document = copy.deepcopy(experiment.base_scenario)
        for f in factors:
            substitute(document, f.path, assignment[f.name])
        runs.append(
            RunDefinition(
                run_id=f"{experiment.name}-{index:04d}",
                seed=derive_seed(experiment.base_seed, index),
                document=document,
                factors=dict(assignment),
                experiment=experiment.name,
            )
        )
    return runs


def run_document(run: RunDefinition) -> dict:
    """The self-contained YAML-serializable run file content."""
    return {
        "schema_version": 1,
        "kind": "run",
        "run_id": run.run_id,
        "experiment": run.experiment,
        "seed": run.seed,
        "factors": copy.deepcopy(run.factors),
        "scenario": copy.deepcopy(run.document),
    }
