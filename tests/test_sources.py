"""Every library module compiles with warnings turned into errors, so that
no source depends on syntax a later Python rejects (e.g. invalid escapes),
and every library module and script parses as Python 3.10, the oldest
version `requires-python` admits.
No library module holds an assert statement or reads `__debug__` or
`sys.flags`, so python -O cannot drop a check that guards a value or change
what runs.  No library module, test or script keeps a module-level import
that nothing reads.  The docs name only what exists."""

import ast
import importlib
import re
import warnings
from pathlib import Path

import pytest

import flagcoh

SOURCES = sorted(Path(flagcoh.__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))
TESTS_AND_SCRIPTS = sorted(ROOT.glob("tests/*.py")) + SCRIPTS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_compiles_with_warnings_as_errors(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda p: str(
    p.relative_to(ROOT) if p in SCRIPTS else p.name))
def test_module_parses_as_python_3_10(path):
    """`requires-python` is >=3.10, and tier-1 runs on a later Python: no
    library module or script may use syntax that 3.10 lacks."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    """Nor an `if __debug__` or any other read of `__debug__` or `sys.flags`:
    -O strips asserts and `__debug__` blocks and sets `sys.flags.optimize`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"
             or isinstance(node, ast.Attribute) and node.attr == "flags"
             and isinstance(node.value, ast.Name) and node.value.id == "sys"
             or isinstance(node, ast.ImportFrom) and node.module == "sys"
             and any(a.name == "flags" for a in node.names)]
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


@pytest.mark.parametrize("path", SOURCES + TESTS_AND_SCRIPTS, ids=lambda p: str(
    p.relative_to(ROOT) if p in TESTS_AND_SCRIPTS else p.name))
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    assert [(name, line) for name, line in _imported_names(tree)
            if name not in used] == []


def _imports_verify(tree):
    """Whether any import in tree, at module level or not, loads
    `flagcoh.verify`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "flagcoh.verify" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "verify" or (
                    node.module in (None, "flagcoh")
                    and any(a.name == "verify" for a in node.names)):
                return True
    return False


def test_only_cli_imports_verify():
    """`verify` holds the paper's published values; only the CLI, besides
    the tests, reads it, so no computing layer can depend on them."""
    importers = [p.name for p in SOURCES
                 if _imports_verify(ast.parse(p.read_text(encoding="utf-8")))]
    assert importers == ["cli.py"]


def _family_readers(path):
    """(module, top-level definition) for every `.family` read in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(path.name, top.name) for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "family"}


def test_only_rootsys_bott_and_verify_read_the_type_family():
    """The type family picks the Cartan matrix (`rootsys`), the realization
    of a Grassmannian (`bott.grassmannian_rs`) and a published k
    (`verify.published_k_value`).  Every other layer computes from the root
    datum alone, so no type gets a branch of its own there."""
    readers = set().union(*(_family_readers(p) for p in SOURCES if p.name != "rootsys.py"))
    assert readers == {("bott.py", "grassmannian_rs"), ("verify.py", "published_k_value")}


def test_cli_multiplies_no_forms():
    """The forms command reads its products from `invforms.theta_products`,
    as criterion 5 does, so the two cannot drift apart."""
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    named = [node.lineno for node in ast.walk(tree) if "barwedge_inv" in (
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))]
    assert named == []


def test_cli_reads_no_private_name_of_another_module():
    """The CLI reaches each layer through its public names only (a preset
    name is normalised by `bott.preset_key`), so a layer can rename its
    internals without breaking the command line."""
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1]
    modules = {a.asname or a.name for node in relative if node.module is None
               for a in node.names}
    private = [(node.lineno, a.name) for node in relative for a in node.names
               if a.name.startswith("_")]
    private += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


DOCS = [ROOT / p for p in ("README.md", "docs/json_schemas.md")]
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
MODULES = [f"flagcoh.{p.stem}" for p in SOURCES if p.stem != "__init__"]


def _resolve(name):
    """The object a dotted name in the docs names: a path from `flagcoh`,
    from one of its modules, from a class one of them defines, or else
    from a standard-library module."""
    head, *rest = name.split(".")
    if head == "flagcoh":
        obj = flagcoh
    elif f"flagcoh.{head}" in MODULES:
        obj = importlib.import_module(f"flagcoh.{head}")
    else:
        owners = [vars(m)[head] for m in map(importlib.import_module, MODULES)
                  if isinstance(vars(m).get(head), type)]
        obj = owners[0] if owners else importlib.import_module(head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_docs_name_only_what_exists(path):
    """Every backticked dotted name in the docs resolves, so that the docs
    cannot name a deleted internal."""
    names = sorted(set(DOTTED.findall(path.read_text(encoding="utf-8"))))
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []


def test_a_deleted_name_does_not_resolve():
    assert _resolve("liecoh.GModuleBasis.bracket_coords")
    assert _resolve("Derivation.bracket") and _resolve("fractions.Fraction")
    for name in ("liecoh._G_BASIS_CACHE", "liecoh.GModuleBasis.project_nplus",
                 "liecoh.GModuleBasis.expand", "liecoh._simple_roots_eps",
                 "NoSuchClass.method", "liecho.build_g_basis",
                 "bott.PUBLISHED_TABLE_DEVIATIONS", "bott.published_k_value",
                 "spectral.flagged_32_comparison", "spectral.published_e3_rows",
                 "exterior._leibniz_into", "superfields._apply_into", "bott._norm_name",
                 "liecoh._accumulate", "liecoh._entries", "liecoh._span_rows",
                 "liecoh._span_solve", "repdecomp._exterior_newton",
                 "liecoh._differential", "LeviDatum._two_rho",
                 "VectorValuedForm.components", "liecoh.invariant_one_cochains",
                 "liecoh._cochain_system", "liecoh._invariant_cochains",
                 "invforms.theta_barwedge_theta",
                 "repdecomp.char_dim", "SuperPolynomial.nvars", "SuperDerivation.nvars",
                 "GrassmannElement.one", "exterior.barwedge", "invforms._entries_within",
                 "invforms.MatrixPairSpace.coords", "SuperPolynomial.make",
                 "superfields._is_monomial", "InvariantVectorForm.value", "QSqrt2.sqrt",
                 "VectorValuedForm.zero", "invforms._add_into", "VecTensor._accumulate"):
        with pytest.raises((AttributeError, ImportError)):
            _resolve(name)
    # a field without a default is no class attribute: read the fields
    for cls, field in (("bott.HermitianSymmetricSpace", "neighbors"),
                       ("verify.CheckResult", "criterion")):
        assert field not in _resolve(cls)._fields
