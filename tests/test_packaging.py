import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).parent.parent


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _name(requirement):
    """The distribution a requirement names: "numpy>=1.24" gives "numpy"."""
    return re.match(r"[\w.-]+", requirement)[0]


def _top_level_imports(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_runtime_dependencies_are_what_the_package_imports():
    imported = set().union(*map(_top_level_imports, (ROOT / "src/kava").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"kava"}
    dependencies = set(map(_name, _project()["dependencies"]))
    assert third_party == dependencies == {"numpy"}


def test_the_test_extra_holds_what_the_tests_import():
    imported = set().union(*map(_top_level_imports, (ROOT / "tests").glob("*.py")))
    # the tests also import one another and the scripts of bench/ and scripts/
    local = {p.stem for d in ("tests", "bench", "scripts") for p in (ROOT / d).glob("*.py")}
    third_party = imported - set(sys.stdlib_module_names) - {"kava"} - local
    test_extra = set(map(_name, _project()["optional-dependencies"]["test"]))
    assert "jsonschema" in third_party & test_extra
    assert third_party <= test_extra | set(map(_name, _project()["dependencies"]))
