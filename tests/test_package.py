"""Public names: every name in ``bfamily.__all__`` and in README's Python examples resolves."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import bfamily

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    """(module, name) for every ``from bfamily... import name`` in README's Python blocks.

    ``import bfamily.module`` gives (``bfamily.module``, None).
    """
    found = []
    for block in re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bfamily":
                found.extend((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "bfamily")
    return found


def test_readme_has_library_imports():
    assert ("bfamily", "track_run") in readme_imports()


@pytest.mark.parametrize("module, name", readme_imports())
def test_readme_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"README imports {name!r} from {module}, which lacks it"


def test_all_names_resolve_once():
    assert len(set(bfamily.__all__)) == len(bfamily.__all__)
    missing = [name for name in bfamily.__all__ if not hasattr(bfamily, name)]
    assert missing == []
