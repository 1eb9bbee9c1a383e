from __future__ import annotations

import re
import types
from pathlib import Path

import kgagent

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_root_binds_only_the_version():
    # code imports the submodule it uses (from kgagent.agent import run); an
    # imported submodule becomes an attribute of the package, so it is not counted
    public = {
        name
        for name, value in vars(kgagent).items()
        if not name.startswith("_")
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"kgagent.{name}")
    }
    assert public == set()
    assert isinstance(kgagent.__version__, str)


def test_version_matches_pyproject():
    # a regex, not tomllib: tomllib is 3.11+ and requires-python is >= 3.10
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL)
    assert project is not None
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1), re.MULTILINE)
    assert version is not None
    assert kgagent.__version__ == version.group(1)
