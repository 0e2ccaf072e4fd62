import gc
import hashlib
import time
import tracemalloc

import pytest
import yaml

from analyse.cli import main
from analyse.design import (
    MAX_RUNS,
    DesignError,
    derive_seed,
    expand_runs,
    parse_experiment,
    run_document,
    splitmix64,
    substitute,
)
from analyse.validation import validate_experiment

from conftest import packaged
from oracles import reference_derive_seed

BASE = {
    "name": "base",
    "market": {"band": {"v_min_pu": 0.95}},
    "network": {"rules": [{"enabled": False}]},
}


def experiment_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "experiment",
        "name": "exp",
        "base_scenario": "base.yaml",
        "base_seed": 42,
        "strategy": "full_factorial",
        "factors": [
            {"name": "a", "path": "market/band/v_min_pu", "levels": [1, 2, 3]},
            {"name": "b", "path": "network/rules/0/enabled", "levels": ["x", "y"]},
        ],
    }
    doc.update(overrides)
    return doc


def test_minimal_document_one_implicit_run():
    experiment = parse_experiment(experiment_doc(factors=[]), BASE)
    runs = list(expand_runs(experiment))
    assert len(runs) == 1
    assert runs[0].document == BASE
    assert runs[0].document is not experiment.base_scenario  # deep copy
    assert runs[0].run_id == "exp-0000"


def violations(**overrides):
    """validate_experiment's violations for experiment_doc over feeder4, which
    holds both factor paths of BASE."""
    doc = experiment_doc(base_scenario="feeder4.yaml", **overrides)
    return validate_experiment(doc, packaged("feeder4.yaml").parent)


def test_dangling_factor_path_rejected():
    assert violations() == []
    assert violations(factors=[{"name": "a", "path": "market/nope", "levels": [1]}]) == [
        ("factors/0/path", "dangling factor path 'market/nope' (missing 'nope')")]
    assert violations(factors=[
        {"name": "a", "path": "market/band/v_min_pu", "levels": [1]},
        {"name": "b", "path": "network/rules/5/enabled", "levels": [1]},
    ]) == [("factors/1/path",
            "dangling factor path 'network/rules/5/enabled' (index 5 out of range)")]


def test_duplicate_factor_names_rejected():
    assert violations(factors=[
        {"name": "a", "path": "market/band/v_min_pu", "levels": [1]},
        {"name": "a", "path": "network/rules/0/enabled", "levels": [2]},
    ]) == [("factors/1/name", "duplicate factor name 'a'")]


def test_full_factorial_order_last_factor_fastest():
    runs = list(expand_runs(parse_experiment(experiment_doc(), BASE)))
    assert len(runs) == 6
    combos = [(r.factors["a"], r.factors["b"]) for r in runs]
    assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y"), (3, "x"), (3, "y")]
    assert [r.run_id for r in runs] == [f"exp-{i:04d}" for i in range(6)]
    # substitution landed in each resolved document
    assert runs[0].document["market"]["band"]["v_min_pu"] == 1
    assert runs[1].document["network"]["rules"][0]["enabled"] == "y"


def test_random_strategy_reproducible():
    doc = experiment_doc(strategy="random", samples=4)
    first = list(expand_runs(parse_experiment(doc, BASE)))
    second = list(expand_runs(parse_experiment(doc, BASE)))
    assert [r.factors for r in first] == [r.factors for r in second]
    assert len(first) == 4
    other = expand_runs(parse_experiment(experiment_doc(strategy="random", samples=4,
                                                        base_seed=43), BASE))
    assert [r.factors for r in first] != [r.factors for r in other]


def test_random_needs_samples():
    assert violations(strategy="random") == [("samples", "random strategy needs samples")]
    assert violations(strategy="random", samples=0) == [
        ("samples", "0 is less than the minimum of 1")]


def test_base_seed_must_fit_in_64_bits():
    assert violations(base_seed=2**64 - 1) == []
    assert violations(base_seed=2**64) == [("base_seed", "must fit in 64 bits")]


def test_expansion_pure_function():
    a = expand_runs(parse_experiment(experiment_doc(), BASE))
    b = expand_runs(parse_experiment(experiment_doc(), BASE))
    assert [run_document(r) for r in a] == [run_document(r) for r in b]
    assert [r.seed for r in a] == [r.seed for r in b]


def test_run_count_matches_level_product():
    doc = experiment_doc(
        factors=[
            {"name": "a", "path": "market/band/v_min_pu", "levels": [1, 2]},
            {"name": "b", "path": "network/rules/0/enabled", "levels": [1, 2, 3, 4]},
        ]
    )
    assert len(list(expand_runs(parse_experiment(doc, BASE)))) == 8


def test_derive_seed_deterministic_and_matches_reference():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    # frozen from the bit-level reference implementation
    assert derive_seed(0, 0) == 7960286522194355700
    for base in (0, 1, 42, 2**64 - 1):
        for index in (0, 1, 2, 999):
            assert derive_seed(base, index) == reference_derive_seed(base, index)


def test_thousand_derived_seeds_distinct():
    seeds = {derive_seed(123456789, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_splitmix64_range():
    assert splitmix64(2**64 - 1) < 2**64


def test_substitute_list_and_mapping_paths():
    doc = {"a": {"b": [10, {"c": 1}]}}
    substitute(doc, "a/b/0", 99)
    substitute(doc, "a/b/1/c", 7)
    assert doc == {"a": {"b": [99, {"c": 7}]}}
    with pytest.raises(DesignError):
        substitute(doc, "a/b/x", 0)


def test_validation_fills_the_experiment_defaults_and_leaves_the_document():
    doc = experiment_doc(base_scenario="feeder4.yaml")
    for name in ("base_seed", "strategy", "factors"):
        del doc[name]
    before = dict(doc)
    checked = validate_experiment(doc, packaged("feeder4.yaml").parent)
    assert checked == [] and doc == before
    experiment = checked.value
    assert (experiment.strategy, experiment.base_seed, experiment.factors) == (
        "full_factorial", 0, ())
    assert experiment.samples is None
    assert [r.run_id for r in expand_runs(experiment)] == ["exp-0000"]


def test_run_count_is_bounded_at_its_field():
    assert violations(factors=[
        {"name": "a", "path": "market/band/v_min_pu", "levels": list(range(100))},
        {"name": "b", "path": "network/rules/0/enabled", "levels": list(range(100))},
    ]) == []
    assert MAX_RUNS == 100 * 100
    assert violations(factors=[
        {"name": "a", "path": "market/band/v_min_pu", "levels": list(range(73))},
        {"name": "b", "path": "network/rules/0/enabled", "levels": list(range(137))},
    ]) == [("factors", "10001 runs; at most 10000 are allowed")]
    assert violations(strategy="random", samples=MAX_RUNS) == []


def test_a_trillion_samples_are_refused_without_expanding(tmp_path, capsys):
    start = time.perf_counter()
    assert violations(strategy="random", samples=10**12) == [
        ("samples", "1000000000000 runs; at most 10000 are allowed")]
    doc = experiment_doc(base_scenario="pkg:feeder4.yaml", strategy="random", samples=10**12)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["design", str(path), "-o", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "out").exists()
    assert "samples: 1000000000000 runs" in capsys.readouterr().out


def test_expansion_holds_one_run_at_a_time(mini_doc):
    factors = [{"name": "a", "path": "market/band/v_min_pu", "levels": [0.9, 0.95]}]

    def peak(samples, traced=True):
        experiment = parse_experiment(
            experiment_doc(strategy="random", samples=samples, factors=factors), mini_doc)
        if traced:
            tracemalloc.start()
        for _ in expand_runs(experiment):
            pass
        held = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return held

    # The interpreter keeps up to 2,000 freed tuples of each small size for
    # reuse, and tracemalloc counts a kept tuple as held: fill those stores
    # untraced first, and keep the collector, which empties them, off while
    # counting.
    gc.disable()
    try:
        peak(2500, traced=False)
        assert peak(1000) <= 1.5 * peak(100)
    finally:
        gc.enable()


# The smallest scenario that validates: two buses, one line, one network node.
TINY = """\
schema_version: 1
kind: scenario
name: tiny
grid:
  base_mva: 10.0
  buses: [{id: 1, kind: slack}, {id: 2}]
  lines: [{from: 1, to: 2, r_pu: 0.01, x_pu: 0.03}]
market: {operator_host: op}
network:
  nodes: [{id: op}]
  links: []
agents: [{agent_id: a}]
schedule: [{name: t, mode: test, episodes: 1, episode_length: 1}]
"""

THREE_FACTORS = """\
schema_version: 1
kind: experiment
base_scenario: tiny.yaml
base_seed: 7
factors:
  - {name: r, path: grid/lines/0/r_pu,
     levels: [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]}
  - {name: x, path: grid/lines/0/x_pu,
     levels: [0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21, 0.24, 0.27, 0.3]}
  - {name: mva, path: grid/base_mva, levels: [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]}
"""


def file_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def designed(tmp_path, experiment_path):
    out = tmp_path / "out"
    assert main(["design", str(experiment_path), "-o", str(out)]) == 0
    return file_digests(out)


def test_dos_experiment_designs_to_its_pinned_bytes(tmp_path):
    assert designed(tmp_path, packaged("dos_experiment.yaml")) == {
        "dos_compare-0000.yaml": "503cc37602f55572da00f926eba00af8f4f50a65794ddc8800eeb2e1e409f998",
        "dos_compare-0001.yaml": "62cc2a0ad11515b321655be5e4140f393c5d49a70ab493c83f7e6d4ca2b97e6c",
        "index.yaml": "619de011a90aa39dde922348ae42ac5fb337d829e8c817c41e276b3183803131",
    }


@pytest.mark.parametrize("head, runs, digest", [
    ("name: grid3\nstrategy: full_factorial\n", 1000,
     "80710e734494e71786f45528955c2b372e242e92cc09f140e1561e20123cf1ee"),
    ("name: grid3r\nstrategy: random\nsamples: 7\n", 7,
     "053c255492c90c03289597336acbf829e0fba9cb94f6b0febb76a56f888e6318"),
], ids=["3x10 factorial", "random 7"])
def test_a_design_writes_its_pinned_bytes(tmp_path, head, runs, digest):
    (tmp_path / "tiny.yaml").write_text(TINY, encoding="utf-8")
    (tmp_path / "exp.yaml").write_text(head + THREE_FACTORS, encoding="utf-8")
    digests = designed(tmp_path, tmp_path / "exp.yaml")
    assert len(digests) == runs + 1
    listing = "".join(f"{value}  {name}\n" for name, value in digests.items())
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


LINES_FACTOR = """\
schema_version: 1
kind: experiment
name: lines2
base_scenario: tiny.yaml
factors:
  - {name: lines, path: grid/lines, levels: [
      [{from: 1, to: 2, r_pu: 0.01, x_pu: 0.03}],
      [{from: 1, to: 2, r_pu: 0.02, x_pu: 0.06, rating_mva: 5.0}]]}
  - {name: mva, path: grid/base_mva, levels: [10, 20]}
"""


def test_the_index_writes_each_runs_factors_in_full(tmp_path):
    (tmp_path / "tiny.yaml").write_text(TINY, encoding="utf-8")
    (tmp_path / "exp.yaml").write_text(LINES_FACTOR, encoding="utf-8")
    designed(tmp_path, tmp_path / "exp.yaml")
    text = (tmp_path / "out" / "index.yaml").read_text(encoding="utf-8")
    assert "&" not in text and "*" not in text  # no anchor, no alias
    experiment = validate_experiment(yaml.safe_load(LINES_FACTOR), tmp_path).value
    assert {run_id: entry["factors"] for run_id, entry in yaml.safe_load(text)["runs"].items()} == {
        run.run_id: run.factors for run in expand_runs(experiment)}
