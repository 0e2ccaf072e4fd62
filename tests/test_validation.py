"""The schema checker against jsonschema, and the YAML loader against pyyaml's
pure-Python loader.

validation checks the packaged schemas itself; jsonschema's Draft 2020-12
validator is the reference its (path, message) lists must equal, the way
tests/oracles.py serves the solver. The program never imports jsonschema.
"""

import copy
import random
from pathlib import Path

import jsonschema
import pytest
import yaml

from analyse import design, scenario, validation

from conftest import MINI, fresh_modules, packaged

ROOT = Path(__file__).parent.parent
SCHEMAS = ("scenario", "experiment", "run")


def reference(doc, schema):
    errors = jsonschema.Draft202012Validator(schema).iter_errors(doc)
    return validation.sorted_violations((tuple(e.absolute_path), e.message) for e in errors)


def assert_matches_reference(doc, schema):
    got = validation.schema_violations(doc, schema)
    assert got == reference(doc, schema), doc
    return got


def bundled_documents():
    feeder4, gaming, experiment = (scenario.load_document(packaged(name)) for name in
                                   ("feeder4.yaml", "gaming.yaml", "dos_experiment.yaml"))
    runs = design.expand_runs(design.parse_experiment(experiment, feeder4))
    return [feeder4, gaming, experiment, copy.deepcopy(MINI)] + [
        design.run_document(run) for run in runs]


# -- the checker against jsonschema -----------------------------------------

def test_checker_matches_jsonschema_on_bundled_documents():
    # each document against every schema: its own passes, the others fail
    for doc in bundled_documents():
        results = [assert_matches_reference(doc, validation.load_schema(name))
                   for name in SCHEMAS]
        assert results.count([]) == 1, doc.get("kind")


def test_checker_matches_jsonschema_on_the_validation_fuzz(tmp_path, mini_doc):
    # the documents of test_cli.test_validation_fuzz_accepts_only_runnable_documents
    from test_cli import fuzz_mutation

    rng = random.Random(20261018)
    mini_doc["agents"][0]["actuators"] = [
        {"id": "bidders.s1.price", "lo": 1.0, "hi": 50.0, "default": 8.0}]
    mini_doc["schedule"][0]["episode_length"] = 2
    for _ in range(128):
        doc = copy.deepcopy(mini_doc)
        doc["agents"][0]["kind"] = rng.choice(("none", "random"))
        for _ in range(rng.randint(1, 2)):
            fuzz_mutation(rng, doc, tmp_path)
        assert_matches_reference(doc, validation.load_schema("scenario"))


MUTANT_VALUES = (
    None, True, False, 0, 1, -1, 4, 1.0, 0.5, -0.25, 1e300, 10**20, float("nan"),
    float("inf"), "", "x", "pq", "scenario", "run", "drop", [], [1], ["a", "b"], [{}], {},
    {"id": 1}, {"kind": "none"},
)
MUTANT_KEYS = ("extra", "kind", "id", "name", 7, "path")


def _slots(node, out):
    """Every (container, key) pair under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def mutate(rng, doc):
    """One seeded change somewhere in doc: replace, delete, add or empty a value.
    Returns the document (a new one when the root itself is replaced)."""
    slots = _slots(doc, []) if isinstance(doc, (dict, list)) else []
    if not slots or rng.random() < 0.02:
        return copy.deepcopy(rng.choice(MUTANT_VALUES))
    parent, key = rng.choice(slots)
    op = rng.random()
    if op < 0.5:
        parent[key] = copy.deepcopy(rng.choice(MUTANT_VALUES))
    elif op < 0.7:
        del parent[key]
    elif op < 0.85:
        if isinstance(parent, dict):
            parent[rng.choice(MUTANT_KEYS)] = copy.deepcopy(rng.choice(MUTANT_VALUES))
        else:
            parent.append(copy.deepcopy(rng.choice(parent)))
    elif isinstance(parent[key], (dict, list)):
        parent[key].clear()
    else:
        parent[key] = [parent[key]]
    return doc


def mutants(seed, count):
    rng = random.Random(seed)
    sources = bundled_documents()
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            doc = mutate(rng, doc)
        yield doc


def test_checker_matches_jsonschema_on_seeded_mutations():
    # a one-off run of the same generator over 5,000 and more mutants is
    # recorded in CHANGES.md; this keeps 1,000 of them in the suite
    schemas = [validation.load_schema(name) for name in SCHEMAS]
    failing = 0
    for n, doc in enumerate(mutants(20261018, 1000)):
        failing += bool(assert_matches_reference(doc, schemas[n % 3]))
    assert failing > 500


@pytest.mark.parametrize("schema, instance, expected", [
    # a type mismatch does not stop the other keywords
    ({"type": "string", "minimum": 0}, -1,
     ["-1 is not of type 'string'", "-1 is less than the minimum of 0"]),
    ({"const": 1}, True, ["1 was expected"]),
    ({"const": 1}, 1.0, []),
    ({"enum": [1, "a"]}, True, ["True is not one of [1, 'a']"]),
    ({"enum": [False]}, 0, ["0 is not one of [False]"]),
    ({"type": "integer"}, 1.0, []),
    ({"type": "integer"}, True, ["True is not of type 'integer'"]),
    ({"type": "number"}, False, ["False is not of type 'number'"]),
    ({"type": ["number", "null"], "minimum": 0}, None, []),
    ({"minLength": 1}, "", ["'' should be non-empty"]),
    ({"minLength": 2}, "a", ["'a' is too short"]),
    ({"minItems": 1}, [], ["[] should be non-empty"]),
    ({"minItems": 2}, [1], ["[1] is too short"]),
    ({"maxItems": 1}, [1, 2], ["[1, 2] is too long"]),
    ({"maxItems": 0}, [1], ["[1] is expected to be empty"]),
    ({"exclusiveMinimum": 0}, 0, ["0 is less than or equal to the minimum of 0"]),
    ({"maximum": 1}, 1.5, ["1.5 is greater than the maximum of 1"]),
    ({"properties": {"a": {}}, "additionalProperties": False}, {"a": 1, "c": 2, "b": 3},
     ["Additional properties are not allowed ('b', 'c' were unexpected)"]),
    ({"additionalProperties": {"type": "number"}}, {"w": "x"}, ["'x' is not of type 'number'"]),
    ({"required": ["b", "a"]}, {}, ["'b' is a required property", "'a' is a required property"]),
])
def test_checker_keeps_jsonschema_semantics(schema, instance, expected):
    assert [message for _, message in assert_matches_reference(instance, schema)] == expected


def test_list_indices_sort_as_numbers():
    doc = scenario.load_document(packaged("gaming.yaml"))
    buses = doc["grid"]["buses"]
    buses += [{"id": i, "kind": "pq"} for i in range(len(buses) + 1, 13)]
    buses[2]["id"], buses[10]["id"] = "two", "ten"
    assert validation.validate_document(doc, Path(".")) == [
        ("grid/buses/2/id", "'two' is not of type 'integer'"),
        ("grid/buses/10/id", "'ten' is not of type 'integer'"),
    ]


@pytest.mark.parametrize("text", [
    "type: string\npattern: '^a'\n",
    "properties: {a: {$ref: '#/x'}}\n",
    "items: {oneOf: [{type: string}]}\n",
    "additionalProperties: {format: date}\n",
    "type: interger\n",
    "properties: {a: {const: [1]}}\n",
])
def test_load_schema_refuses_what_the_checker_does_not_implement(tmp_path, monkeypatch, text):
    (tmp_path / "schemas").mkdir()
    (tmp_path / "schemas" / "bad.schema.yaml").write_text(text, encoding="utf-8")
    monkeypatch.setattr(validation.resources, "files", lambda package: tmp_path)
    monkeypatch.setattr(validation, "_SCHEMA_CACHE", {})
    with pytest.raises(ValueError, match="bad.schema.yaml"):
        validation.load_schema("bad")


# -- the YAML loader against the pure-Python loader ---------------------------

YAML_FILES = sorted((ROOT / "src" / "analyse" / "data").glob("*.yaml")) + sorted(
    (ROOT / "src" / "analyse" / "schemas").glob("*.yaml"))


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda p: p.name)
def test_parse_yaml_reads_bundled_files_as_the_pure_loader_does(path):
    data = path.read_bytes()
    assert scenario.parse_yaml(data, path) == yaml.load(data, Loader=yaml.SafeLoader)


BREAKERS = (b":", b"[", b"]", b"{", b"}", b'"', b"'", b"\t", b"-", b"&a", b"*a", b"!", b"? ",
            b"?", b"%", b"\x00", b"#", b",", b"\n", b"  ", b"|", b">", b"\xff", b"\r", b"`",
            b"\xc2\x85", b"\xef\xbb\xbf", b"!!int ", b"!!timestamp ", b"---\n", b"<<: *a")


def pure_outcome(path):
    """What load_document gave when it parsed with yaml.safe_load alone."""
    try:
        doc = yaml.safe_load(path.read_bytes())
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        return f"{path}:{mark.line + 1}:{mark.column + 1}: {exc.problem}"
    except yaml.YAMLError as exc:
        return f"{path}: {exc}"
    except Exception as exc:  # a constructor error pyyaml does not wrap, reported like a YAMLError
        return f"{path}: {exc}"
    return doc if isinstance(doc, dict) else f"{path}: document is not a mapping"


def outcome(path):
    try:
        return scenario.load_document(path)
    except scenario.ScenarioError as exc:
        return str(exc)
    except Exception as exc:
        return repr(exc)


def test_load_document_errors_read_as_the_pure_loader_wrote_them(tmp_path):
    rng = random.Random(20261018)
    sources = [p.read_bytes() for p in YAML_FILES if p.stat().st_size < 2000]
    outcomes = set()
    for n in range(150):
        data = bytearray(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(data))
            if rng.random() < 0.3:
                del data[i:i + rng.randint(1, 4)]
            else:
                data[i:i + rng.choice((0, 1))] = rng.choice(BREAKERS)
        path = tmp_path / f"broken{n:03d}.yaml"
        path.write_bytes(bytes(data))
        expected = pure_outcome(path)
        assert outcome(path) == expected, bytes(data)
        outcomes.add(type(expected).__name__)
    assert outcomes == {"dict", "str"}


# -- what a fresh interpreter imports ----------------------------------------

def test_a_validated_run_never_imports_jsonschema():
    modules = fresh_modules(
        "from pathlib import Path\n"
        "import analyse.runner\n"
        "from analyse import scenario, validation\n"
        "path = Path(sys.argv[2])\n"
        "assert validation.validate_document(scenario.load_document(path), path.parent) == []",
        packaged("gaming.yaml"))
    assert "analyse.runner" in modules and "jsonschema" not in modules


def test_report_imports_neither_numpy_nor_jsonschema(tmp_path, mini_doc):
    from analyse.cli import main

    mini_path = tmp_path / "mini.yaml"
    mini_path.write_text(yaml.safe_dump(mini_doc), encoding="utf-8")
    assert main(["run", str(mini_path), "-o", str(tmp_path)]) == 0
    modules = fresh_modules(
        "from analyse import cli\n"
        "assert cli.main(['report', sys.argv[2]]) == 0",
        tmp_path / "mini.jsonl")
    assert "analyse.cli" in modules
    assert "numpy" not in modules and "jsonschema" not in modules
