"""The runtime imports only the standard library (``dependencies = []``)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gaudin").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib(path):
    outside = sorted({name for name in absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names})
    assert outside == []
