import importlib.resources as resources
import re
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
REPO_DOCS = REPO / "docs" / "schemas"
PUBLISHED = REPO / "src" / "analyse" / "schemas"

NAMES = ("scenario.schema.yaml", "experiment.schema.yaml", "run.schema.yaml")


@pytest.mark.parametrize("name", NAMES)
def test_published_schema_matches_packaged_copy(name):
    # docs/schemas/README.md publishes the schemas by linking to the package
    # source, which is the one copy in the repo; the validator loads the copy
    # the package ships.
    readme = (REPO_DOCS / "README.md").read_text()
    assert set(re.findall(r"`(\w+\.schema\.yaml)`", readme)) == set(NAMES)
    assert "](../../src/analyse/schemas/)" in readme
    packaged = resources.files("analyse").joinpath("schemas", name).read_bytes()
    assert (PUBLISHED / name).read_bytes() == packaged, f"src/analyse/schemas/{name} is out of sync"
    assert not list(REPO_DOCS.glob("*.yaml")), "docs/schemas keeps a copy of a schema"


def endpoint_table():
    """(id regex, "output" or "input", value kind) of each row of the README's
    table of endpoints an agent can name; <...> stands for one id without a dot."""
    readme = (REPO_DOCS / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Endpoints an agent can name", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (output|input)\b[^|]*\| (\w+) \|$", section, re.M)
    assert len(rows) == section.count("\n| `"), "a row the pattern above does not read"
    return [(re.compile("".join("[^.]+" if part.startswith("<") else re.escape(part)
                                for part in re.split(r"(<\w+>)", pattern))), kind, value)
            for pattern, kind, value in rows]


def test_every_endpoint_matches_one_documented_pattern_and_every_pattern_is_used():
    import yaml

    from analyse.scenario import NON_NUMERIC_ATTRS, assemble
    from conftest import packaged, parsed

    table = endpoint_table()
    feeder4 = yaml.safe_load(packaged("feeder4.yaml").read_text(encoding="utf-8"))
    restartable = yaml.safe_load(packaged("feeder4.yaml").read_text(encoding="utf-8"))
    restartable["network"]["restartable"] = [{"node": "h3"}]
    gaming = yaml.safe_load(packaged("gaming.yaml").read_text(encoding="utf-8"))
    used = set()
    for doc in (feeder4, gaming, restartable):
        outputs, free_inputs = assemble(parsed(doc, packaged("feeder4.yaml").parent), 0,
                                        lambda *a: None).endpoints()
        for kind, endpoints in (("output", outputs), ("input", free_inputs)):
            for endpoint in endpoints:
                name = ".".join(endpoint)
                rows = [row for row in table if row[0].fullmatch(name)]
                assert len(rows) == 1, (name, rows)
                assert rows[0][1] == kind, name
                assert (rows[0][2] == "number") == (endpoint[2] not in NON_NUMERIC_ATTRS), name
                used.add(rows[0][0].pattern)
    assert [row[0].pattern for row in table if row[0].pattern not in used] == []
