from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path

import kgagent

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# the package under test, installed or not
PACKAGE = Path(kgagent.__file__).resolve().parent


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


def _project_table() -> str:
    """pyproject's [project] table; a regex, not tomllib: tomllib is 3.11+
    and requires-python is >= 3.10."""
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL)
    assert project is not None
    return project.group(1)


def test_version_matches_pyproject():
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', _project_table(), re.MULTILINE)
    assert version is not None
    assert kgagent.__version__ == version.group(1)


def test_the_package_needs_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"kgagent"}
            ]
    assert outside == []
    assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", _project_table(), re.MULTILINE)


def test_exception_classes_are_the_six_that_callers_tell_apart():
    # a provider failure, an unusable action and a bad input file are each one
    # class; EmbeddingError, AgentError and UsageError each get their own exit
    defined = set()
    for module_info in pkgutil.iter_modules(kgagent.__path__, "kgagent."):
        module = importlib.import_module(module_info.name)
        defined |= {
            f"{module.__name__}.{name}"
            for name, value in vars(module).items()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        }
    assert defined == {
        "kgagent.action.ActionError",
        "kgagent.agent.AgentError",
        "kgagent.cli.UsageError",
        "kgagent.embedding.EmbeddingError",
        "kgagent.kg.InputError",
        "kgagent.llm.ProviderError",
    }


def test_every_module_uses_every_name_it_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_reader_takes_a_file_path():
    # each input is read from a file, so no reader takes a list or a stream
    readers = [
        ("kg", "load_triples"), ("kg", "load_labels"), ("kg", "load_kg"),
        ("kg", "numbered_text_lines"), ("kg", "load_json_records"),
        ("evaluation", "load_dataset"), ("llm", "load_script"),
    ]
    for module, name in readers:
        function = getattr(importlib.import_module(f"kgagent.{module}"), name)
        first = next(iter(inspect.signature(function).parameters.values()))
        assert first.annotation == "str | Path", f"{module}.{name}"
