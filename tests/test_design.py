import pytest

from analyse.design import (
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
    runs = expand_runs(experiment)
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
    runs = expand_runs(parse_experiment(experiment_doc(), BASE))
    assert len(runs) == 6
    combos = [(r.factors["a"], r.factors["b"]) for r in runs]
    assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y"), (3, "x"), (3, "y")]
    assert [r.run_id for r in runs] == [f"exp-{i:04d}" for i in range(6)]
    # substitution landed in each resolved document
    assert runs[0].document["market"]["band"]["v_min_pu"] == 1
    assert runs[1].document["network"]["rules"][0]["enabled"] == "y"


def test_random_strategy_reproducible():
    doc = experiment_doc(strategy="random", samples=4)
    first = expand_runs(parse_experiment(doc, BASE))
    second = expand_runs(parse_experiment(doc, BASE))
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
    assert len(expand_runs(parse_experiment(doc, BASE))) == 8


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
