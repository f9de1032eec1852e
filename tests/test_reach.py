"""Product reach as a tier-1 fact: the functions of src/flagcoh that no CLI
golden and no `verify-all` run enters (`scripts/reach.py`) are exactly the
ones listed here, each with the one reason it stays.  A new function that
no product path runs, or a listed one that a product path now enters,
fails the test until the list or the code changes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PIN = "perfbench pin"
GUARD = "refusal or read-only guard"
PROTOCOL = "protocol method"
TESTED = "reached only by a tier-1 test"
_MAPPING = "Mapping; tests/test_bott.py::test_invariant_counts_equal_the_subset_route"

UNENTERED = {
    "cli._stop": (GUARD, "usage and help; tests/test_cli.py::"
                         "test_a_named_command_keeps_its_help_and_argparse_exit_codes"),
    "cli.parse_space_list": (TESTED, "the verify-all manifest's spaces; tests/test_cli.py::"
                                     "test_verify_all_manifest_spaces_keep_grassmannians"),
    "exterior._mismatch": (GUARD, "the mismatch ValueError; tests/test_record.py::"
                                  "test_every_foreign_operand_meets_the_refusal_contract"),
    "exterior._Terms._read_only": (GUARD, "tests/test_record.py::"
                                          "test_a_term_map_is_read_only"),
    "liecoh.invariant_zero_cochains": (PIN, "perfbench/tracing.py LAYERS"),
    "liecoh.is_invariant_coboundary": (PIN, "perfbench/tracing.py LAYERS"),
    "liecoh.roots_key": (PIN, "the only caller of liecoh.solve, whose binding "
                              "perfbench/test_perfbench.py asserts"),
    "liecoh.two_cochain_is_coboundary": (PIN, "perfbench/tracing.py LAYERS"),
    "record.Record.__delattr__": (GUARD, "tests/test_record.py::test_fields_are_read_only"),
    "record.Record.__repr__": (PROTOCOL, "repr; tests/test_record.py"),
    "record.Record.__setattr__": (GUARD, "tests/test_record.py::test_fields_are_read_only"),
    "repdecomp.InvariantCharacter.__getitem__": (PROTOCOL, _MAPPING),
    "repdecomp.InvariantCharacter.__iter__": (PROTOCOL, _MAPPING),
    "repdecomp.InvariantCharacter.__len__": (PROTOCOL, _MAPPING),
    "repdecomp.exterior_power": (PIN, "perfbench/tracing.py LAYERS"),
    "repdecomp.irreducible_character": (PIN, "perfbench/tracing.py LAYERS"),
    "repdecomp.irreducible_character.<locals>.inner2": (
        PIN, "inside repdecomp.irreducible_character"),
    "repdecomp.tensor": (PIN, "perfbench/tracing.py LAYERS"),
    "repdecomp.trivial_character": (PIN, "called only by repdecomp.exterior_power"),
    "rootsys.RootDatum.dominant_representative": (PIN, "perfbench/tracing.py LAYERS"),
    "scalars.QSqrt2.__rtruediv__": (PROTOCOL, "a rational over a QSqrt2; tests/test_scalars.py::"
                                              "test_solve_splits_qsqrt2_rhs_of_rational_matrix"),
    "scalars.solve": (PIN, "perfbench/tracing.py LAYERS"),
    "superfields.qn_bracket": (PIN, "perfbench/tracing.py LAYERS"),
    "superfields.qn_bracket.<locals>.block": (PIN, "inside superfields.qn_bracket"),
    "superfields.qn_bracket.<locals>.rows": (PIN, "inside superfields.qn_bracket"),
}


def test_every_function_no_product_path_enters_is_listed_with_its_reason():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "reach.py")],
                         capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.split()) == set(UNENTERED)
