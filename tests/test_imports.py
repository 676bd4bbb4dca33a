"""Module boundaries of the package, read from its source with ``ast``."""

import ast
from pathlib import Path

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
