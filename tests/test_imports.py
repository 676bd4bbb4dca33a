"""Module boundaries of the package, read from its source with ``ast``."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import nuceft

SRC = Path(nuceft.__file__).parent


def nuceft_imports():
    """(module file, imported module, name) of every ``from ... import``
    of a nuceft module, at any depth of the source."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("nuceft")):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_no_module_imports_a_private_name_of_another():
    """What one module keeps private no other module relies on."""
    found = list(nuceft_imports())
    assert ("encodings.py", "pauli", "PauliSum") in found
    assert [i for i in found if i[2].startswith("_")] == []


def top_level_imports():
    """(module file, top-level package) of every import of the source, at
    any depth; a relative import is of nuceft."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, alias.name.partition(".")[0]
            elif isinstance(node, ast.ImportFrom):
                yield path.name, ("nuceft" if node.level else
                                  node.module.partition(".")[0])


def test_the_package_needs_numpy_alone():
    """Every import is of the standard library, numpy or nuceft."""
    found = set(top_level_imports())
    assert ("fock.py", "numpy") in found
    allowed = sys.stdlib_module_names | {"numpy", "nuceft"}
    assert sorted(i for i in found if i[1] not in allowed) == []


def test_the_lazy_exports_are_the_modules_names():
    """The algebra and the oracle load on first access to their names."""
    for name, module in nuceft._LAZY.items():
        assert getattr(nuceft, name) is getattr(
            importlib.import_module(f"nuceft.{module}"), name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        nuceft.nope
