"""Every library module compiles with warnings turned into errors, so that
no source depends on syntax a later Python rejects (e.g. invalid escapes).
No library module holds an assert statement, so python -O cannot drop a
check that guards a value, and none keeps a module-level import that
nothing reads."""

import ast
import warnings
from pathlib import Path

import pytest

import flagcoh

SOURCES = sorted(Path(flagcoh.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_compiles_with_warnings_as_errors(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _imported_names(tree):
    """(name, line) for every binding made by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used_names(tree):
    """Every name read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    assert [(name, line) for name, line in _imported_names(tree)
            if name not in used] == []
