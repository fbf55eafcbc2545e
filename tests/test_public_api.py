"""Public API: ``qslkit.__all__`` is exactly what the package imports, every name resolves, and every name has a use."""

import ast
import inspect
import os

import qslkit
from qslkit.cli import FIGURES


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


# Public names with no use inside the package: the paper's closed forms that the
# tests hold the numerics against, the figures ``cli`` reaches by name, and the
# one-target calls of the evaluation pass (``bounds.evaluate_crossings``), which
# the package evaluates for all targets at once.
UNREFERENCED_KEEP = (
    {"tau_q_unitary", "quantumness_dissipation", "speed_dissipation"}
    | {"first_crossing_time", "tau_q_at_crossing", "tau_b_fidelity"}
    | set(FIGURES)
)


def _package_references() -> set:
    """Names the package's modules other than ``__init__`` use outside the definitions of those names.

    A use is a bare name read, or an attribute read on one of the package's
    modules (``harness.validate``); a method or field of the same name
    elsewhere is not a use.
    """
    pkg = os.path.dirname(qslkit.__file__)
    modules = {name[:-3] for name in os.listdir(pkg) if name.endswith(".py")}
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
            used.add(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr not in inside:
                used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for name in sorted(modules - {"__init__"}):
        with open(os.path.join(pkg, name + ".py"), encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), frozenset())
    return used


def test_every_public_name_is_used_or_kept_on_purpose():
    unreferenced = set(qslkit.__all__) - _package_references()
    assert unreferenced == UNREFERENCED_KEEP
