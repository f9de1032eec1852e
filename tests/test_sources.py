"""Every library module compiles with warnings turned into errors, so that
no source depends on syntax a later Python rejects (e.g. invalid escapes).
No library module holds an assert statement, so python -O cannot drop a
check that guards a value."""

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
