"""Public API: ``qslkit.__all__`` is exactly what the package imports, and every name resolves."""

import ast
import inspect

import qslkit


def test_all_names_resolve():
    missing = [name for name in qslkit.__all__ if not hasattr(qslkit, name)]
    assert missing == []


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(inspect.getsource(qslkit))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(qslkit.__all__) == len(set(qslkit.__all__))
    assert set(qslkit.__all__) == imported
