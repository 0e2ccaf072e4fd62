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
