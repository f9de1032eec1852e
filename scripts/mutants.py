"""A standing mutation run: each mutant is one exact text edit of the library
that the tests named beside it must notice.

    python3 scripts/mutants.py

Each mutant is applied, one at a time, to a fresh temporary copy of the
tree, and its tests run there with `pytest -x`.  A mutant is killed when
they fail and survives when they pass.  First the tests of every mutant run
once on an unmutated copy, which must pass, so that a kill is the mutant's
doing.  One line per mutant gives killed or survived and seconds.  The exit
code is 1 if a mutant survives or its old text does not occur exactly once
in its file (a refactor must then update the list), and 2 if the unmutated
tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str           # relative to src/flagcoh
    old: str            # must occur exactly once in the file
    new: str
    tests: Tuple[str, ...]   # pytest node ids, relative to the tree


MUTANTS: List[Mutant] = [
    Mutant("rootsys.fold reflects the wrong way", "rootsys.py",
           "            v[i] -= c\n", "            v[i] += c\n",
           ("tests/test_rootsys.py",)),
    Mutant("rootsys root strings grow a root at p = <beta, alpha_i>", "rootsys.py",
           "(beta[i] - c - 1,)", "(beta[i] - c,)",
           ("tests/test_rootsys.py::test_root_strings_give_the_positive_half_of_the_weyl_orbit",)),
    # grown on the left, the walk visits the minimal representatives of the
    # cosets w W_S instead of W_S w; it ends, with the wrong weights
    Mutant("RootDatum.coset_weights grows w on the left", "rootsys.py",
           "                for j, r in enumerate(images):\n"
           "                    key = tuple(a - b for a, b in zip(wt, r))\n"
           "                    if key not in grown and any(r[i] > 0 for i in outside):\n"
           "                        # w s_j (alpha_k) = w(alpha_k) - <alpha_k, alpha_j> w(alpha_j)\n"
           "                        grown[key] = tuple(tuple(x - row[j] * y for x, y in zip(im, r))\n"
           "                                           for im, row in zip(images, self.cartan))\n",
           "                for j in range(l):\n"
           "                    c = 1 + sum(a * row[j] for a, row in zip(wt, self.cartan))\n"
           "                    key = tuple(a - c * (i == j) for i, a in enumerate(wt))\n"
           "                    if key not in grown and c > 0 and all(\n"
           "                            images[i] != tuple(int(k == j) for k in range(l)) for i in S):\n"
           "                        # s_j w (alpha_k) = w(alpha_k) - <w(alpha_k), alpha_j> alpha_j\n"
           "                        grown[key] = tuple(tuple(\n"
           "                            x - (i == j) * sum(y * row[j] for y, row in zip(im, self.cartan))\n"
           "                            for i, x in enumerate(im)) for im in images)\n",
           ("tests/test_bott.py::test_euler_characteristic_of_every_bott_column",)),
    Mutant("repdecomp.decompose skips the W_S check for a plain dict", "repdecomp.py",
           "if chi.__class__ is not InvariantCharacter or chi.levi is not L:",
           "if isinstance(chi, InvariantCharacter) and chi.levi is not L:",
           ("tests/test_repdecomp.py::"
            "test_a_character_that_is_not_invariant_is_refused_with_one_message",)),
    Mutant("repdecomp.decompose drops the fold's sign", "repdecomp.py",
           "(-m if steps % 2 else m)", "m",
           ("tests/test_repdecomp.py",)),
    # the weight contract has one owner per part: a dropped check must show
    Mutant("RootDatum.simple_pairings truncates a weight of the wrong length", "rootsys.py",
           "        self.check_weight(v)\n        return [sum(map(mul, v, col))",
           "        return [sum(map(mul, v, col))",
           ("tests/test_bott.py::test_a_weight_of_the_wrong_length_is_refused",)),
    Mutant("LeviDatum.check_S_dominant refuses nothing", "repdecomp.py",
           "        if not self.is_S_dominant(lam):\n"
           "            raise ValueError(\"weight is not S-dominant for this space\")\n", "",
           ("tests/test_bott.py::test_a_weight_that_is_not_S_dominant_is_refused_with_one_message",)),
    Mutant("Derivation.bracket flips the second half's sign", "exterior.py",
           "self._into(acc, mine[1], sign, theirs)",
           "self._into(acc, mine[1], -sign, theirs)",
           ("tests/test_exterior.py",)),
    Mutant("Derivation.bracket skips self's half where other's image is zero",
           "exterior.py", "self._into(acc, mine[1], sign, theirs)",
           "self._into(acc, [(k, a) for k, a in mine[1] if k in theirs[2]], sign, theirs)",
           ("tests/test_exterior.py",)),
    Mutant("Derivation.bracket walks only self's nonzero images", "exterior.py",
           "self._into(acc, theirs[1], 1, mine)",
           "self._into(acc, [(k, theirs[2].get(k, ())) for k, _ in mine[1]], 1, mine)",
           ("tests/test_exterior.py",)),
    # the flat terms: a bracket that keeps a cancelled key, and a hash that
    # leaves the labels out
    Mutant("Derivation.bracket keeps zero-valued entries", "exterior.py",
           "            self._into(acc, mine[1], sign, theirs)\n"
           "        return self._relabel(grade, _frozen(acc))\n",
           "            self._into(acc, mine[1], sign, theirs)\n"
           "        return self._relabel(grade, _Terms(acc))\n",
           ("tests/test_superfields.py::"
            "test_flat_brackets_and_applies_match_the_per_image_kernel",)),
    Mutant("Derivation.__hash__ ignores the labels", "exterior.py",
           "h = hash(self._key())", "h = hash(self.terms)",
           ("tests/test_record.py::test_equal_values_compare_and_hash_equal",)),
    Mutant("Derivation._leibniz keys the letter tables without m", "exterior.py",
           "self._letter_tables[m]", "self._letter_tables[0]",
           ("tests/test_superfields.py",)),
    Mutant("Derivation._leibniz keeps one set-up per class, not per derivation",
           "exterior.py",
           'setfield(self, "_setup", setup)', "type(self)._setup = setup",
           ("tests/test_exterior.py",)),
    Mutant("Derivation._leibniz keeps one compiled action per class, not per derivation",
           "exterior.py", "setup = ({}, ", "setup = (self._letter_tables[-1], ",
           ("tests/test_exterior.py",)),
    Mutant("Derivation._compile keys the product memo on k alone", "exterior.py",
           "key = (k, rest)", "key = k",
           ("tests/test_exterior.py",)),
    Mutant("Derivation._compile drops the exponent factor e", "exterior.py",
           "t = e * v if s > 0 else -e * v", "t = v if s > 0 else -v",
           ("tests/test_superfields.py",)),
    Mutant("Derivation._compile drops the odd-place sign", "exterior.py",
           "if j % 2 and (grade + odd_len(k)) % 2:", "if False:",
           ("tests/test_exterior.py",)),
    # the refusal contract: the class test comes before any attribute of
    # the operand is read
    Mutant("Derivation._same_space drops its class test", "exterior.py",
           "        if other.__class__ is not self.__class__:\n"
           "            raise _mismatch(op, self, other)\n", "",
           ("tests/test_record.py::test_every_foreign_operand_meets_the_refusal_contract",)),
    Mutant("exterior._merge_sign drops the anticommutation sign", "exterior.py",
           "if (len(a) - i) % 2 == 1:", "if False:",
           ("tests/test_exterior.py",)),
    Mutant("spectral.apply_d2 reads theta at -b in step (iii)", "spectral.py",
           "for c, Px in zip(coeffs, P)", "for c, Px in zip(theta_for(H, a, -b), P)",
           ("tests/test_spectral.py",)),
    Mutant("liecoh scales every n- root vector by 1", "liecoh.py",
           "scale = {_neg(a): canonical(H.rd.inner(a, a) / 2) for a in plus}",
           "scale = {_neg(a): 1 for a in plus}",
           ("tests/test_liecoh.py",)),
    Mutant("liecoh._chevalley drops the norm ratio of the rotation", "liecoh.py",
           "return exact_quotient(norm[c] * n(b, c), norm[a])",
           "return n(b, c)",
           ("tests/test_liecoh.py::test_structure_constants_on_every_type",)),
    Mutant("liecoh._code packs coordinates in base 8", "liecoh.py",
           "c << 6 * i", "c << 3 * i",
           ("tests/test_liecoh.py::test_root_codes_are_injective_on_every_vector_the_table_forms",)),
    Mutant("invforms.theta_products swaps x and y", "invforms.py",
           "barwedge_inv(x, y) for y in basis", "barwedge_inv(y, x) for y in basis",
           ("tests/test_invforms.py",)),
    Mutant("invforms.barwedge_inv's u-side feed tests the v-side merge", "invforms.py",
           "(_merge_sign(ku, urest),) if us is not None]",
           "(_merge_sign(ku, urest),) if _merge_sign(kv, lv)[0] is not None]",
           ("tests/test_invforms.py",)),
    Mutant("invforms.barwedge_inv drops the slot sign (-1)^k", "invforms.py",
           "(us, -su if k % 2 else su, kv, wc)", "(us, su, kv, wc)",
           ("tests/test_invforms.py",)),
    Mutant("invforms.barwedge_inv keys the v-merge memo on kv alone", "invforms.py",
           "merges = v_merges.setdefault(lv, {})", "merges = v_merges.setdefault(None, {})",
           ("tests/test_invforms.py::test_barwedge_matches_the_slot_by_slot_loop",)),
    Mutant("VecTensor.__sub__ drops the sign", "invforms.py",
           "return self._sum(other, -1)", "return self._sum(other, 1)",
           ("tests/test_invforms.py",)),
    Mutant("exterior._frozen keeps a cancelled entry", "exterior.py",
           "for k, v in acc.items() if v}", "for k, v in acc.items()}",
           ("tests/test_liecoh.py::"
            "test_no_form_or_cochain_builder_stores_a_zero_or_an_empty_vector",
            "tests/test_liecoh.py")),
    Mutant("VecTensor._check_like skips a label", "invforms.py",
           "        for f in self._fields:\n", "        for f in self._fields[:-1]:\n",
           ("tests/test_liecoh.py::"
            "test_cochains_with_different_coefficient_modules_do_not_add",)),
    Mutant("liecoh._pair_reads drops the antisymmetry sign at (b, a)", "liecoh.py",
           "yield b, a, v, u, -x", "yield b, a, v, u, x",
           ("tests/test_liecoh.py",)),
    Mutant("scalars._gauss_jordan keeps a row whose pivot is -1 undivided too", "scalars.py",
           "row if row[c] == 1 else", "row if row[c] in (1, -1) else",
           ("tests/test_scalars.py::test_fraction_free_kernel_matches_fraction_gauss_jordan",)),
    Mutant("scalars.sparse_rref negates the sqrt2 part of the target", "scalars.py",
           "[b.b if isinstance(b, QSqrt2) else 0 for b in rhs]",
           "[-b.b if isinstance(b, QSqrt2) else 0 for b in rhs]",
           ("tests/test_scalars.py",)),
    Mutant("scalars.sqrt_of_rational drops the sqrt2 branch", "scalars.py",
           "    v = _frac_sqrt(Fraction(q) / 2)\n    return None if v is None else QSqrt2(0, v)\n",
           "    return None\n",
           ("tests/test_scalars.py::test_sqrt_in_field",)),
    Mutant("superfields jet skips sigma on an odd frame row", "superfields.py",
           "head = z0.sigma() if odd else z0", "head = z0",
           ("tests/test_superfields.py",)),
    Mutant("superfields.qn_structure_constants drops the odd-odd sign", "superfields.py",
           "acc[k] = acc.get(k, 0) + (1 if p and q else -1)",
           "acc[k] = acc.get(k, 0) - 1",
           ("tests/test_superfields.py",)),
    Mutant("bott.bott_irreducible reads 2gamma in reversed index order", "bott.py",
           "zip(dom, two_gamma))", "zip(dom, two_gamma[::-1]))",
           ("tests/test_bott.py::test_serre_duality_of_every_bott_cell",)),
    Mutant("bott.bott_irreducible folds a weight on a wall", "bott.py",
           "    if 0 in pairs:\n        return None\n", "",
           ("tests/test_bott.py::test_bott_vanishes_exactly_on_the_walls_of_dominant_representative",)),
    Mutant("liecoh._Delta drops the (-1)^i of its face sum", "liecoh.py",
           "(z,), -co if i % 2 else co)", "(z,), co)",
           ("tests/test_liecoh.py::test_delta_squared_zero_through_degree_3",)),
    Mutant("liecoh._equivariant_system flips the V-side sign of the 0-cochain solve",
           "liecoh.py", "row[k] = row.get(k, 0) - co", "row[k] = row.get(k, 0) + co",
           ("tests/test_liecoh.py::test_invariant_bases_match_reference_solves",)),
    Mutant("repdecomp.exterior_power ignores multiplicities", "repdecomp.py",
           "basis = [w for w in sorted(chi) for _ in range(chi[w])]", "basis = sorted(chi)",
           ("tests/test_repdecomp.py::test_exterior_newton_agrees_with_subsets",)),
    # the gate and the CLI: tests/test_acceptance.py holds the red-by-design
    # checks, so these name green node ids, not whole files
    Mutant("verify.check_c1_tables compares (adjoint, trivial) only", "verify.py",
           "if got != cell + (0,)]", "if got[:2] != cell]",
           ("tests/test_acceptance.py::test_verdicts_and_details_match_golden",)),
    Mutant("verify._c1_cells reads the published table at the next k", "verify.py",
           "published_table_entry(H.case, k, p, q)", "published_table_entry(H.case, k + 1, p, q)",
           ("tests/test_acceptance.py::test_verdicts_and_details_match_golden",)),
    Mutant("verify._regime_check drops the H-dims comparison", "verify.py",
           "    if got != expected_dims:\n", "    if False:\n",
           ("tests/test_acceptance.py::test_verdicts_and_details_match_golden",)),
    Mutant("verify's III-CP2 row drops the (1,1) trivial", "verify.py",
           "(1, 0): (0, 1), (1, 1): (0, 1)},\n}", "(1, 0): (0, 1)},\n}",
           ("tests/test_spectral.py::test_case_III",
            "tests/test_acceptance.py::test_criterion[7.III[CP2]]")),
    # a green check's failing return turned into a pass
    Mutant("verify.check_c1_tables_computed passes a wrong cell", "verify.py",
           'return False, f"(p={p},q={q}): {got} != {(ea + xa, et, eo)}"',
           'return True, f"(p={p},q={q}): {got} != {(ea + xa, et, eo)}"',
           ("tests/test_acceptance.py::test_criterion_1c_fails_on_a_wrong_cell",)),
    Mutant("verify.check_c6_d2_ranks passes without a coboundary witness", "verify.py",
           'return False, f"{name}: no coboundary witness for c_eta"',
           'return True, f"{name}: no coboundary witness for c_eta"',
           ("tests/test_acceptance.py::test_criterion_6_fails_on_a_wrong_eta_solve",)),
    Mutant("verify.check_c8_superfields passes a wrong n = 5 jet", "verify.py",
           'return False, f"y* formula failed at n=5, s={s}"',
           'return True, f"y* formula failed at n=5, s={s}"',
           ("tests/test_acceptance.py::test_criterion_8_fails_on_a_wrong_n5_jet",)),
    Mutant("cli._json writes dict keys unsorted", "cli.py",
           "for k, v in sorted(x.items())", "for k, v in x.items()",
           ("tests/test_cli.py::test_the_json_writer_writes_the_bytes_of_json_dumps",)),
    Mutant("cli._read lets the first occurrence of a flag win", "cli.py",
           'given[flag] = arguments[flag].get("type", str)(value)',
           'given.setdefault(flag, arguments[flag].get("type", str)(value))',
           ("tests/test_cli.py::test_a_repeated_flag_reads_its_last_value",)),
    Mutant("cli.cmd_cohomology_table flags no deviation", "cli.py",
           "deviations = verify.PUBLISHED_TABLE_DEVIATIONS.get(preset_key(args.space), {})",
           "deviations = {}",
           ("tests/test_cli.py::test_cohomology_table_flags_deviations",)),
    Mutant("bott.preset_key drops its normalisation", "bott.py",
           's = name.strip().replace(" ", "")', "s = name",
           ("tests/test_bott.py::test_preset_key_normalises_a_name_or_raises_space_from_presets_error",
            "tests/test_cli.py::test_space_list_splits_outside_parentheses_only")),
    # the reads and memos that decide each distinct value once: a read of
    # the wrong value or a key that drops a part must not pass
    Mutant("verify.check_c4_exterior reads every bracket at the first generator",
           "verify.py", "if br.terms != rhs:",
           "if {(g, mono): c for g in range(m) for (k, mono), c in br.terms.items()\n"
           "                    if k == 0} != rhs:",
           ("tests/test_acceptance.py::test_criterion[4.exterior]",)),
    Mutant("verify.check_c4_exterior keys super-Jacobi without s12", "verify.py",
           "repeat(s12)))", "repeat(1)))",
           ("tests/test_acceptance.py::test_criterion[4.exterior]",)),
    Mutant("superfields.homomorphism_check compares the target without the twist",
           "superfields.py", "signed[(sigma or 1) * twist]", "signed[sigma or 1]",
           ("tests/test_superfields.py::test_homomorphism_uniform_sign",)),
    Mutant("superfields.kernel_of_action solves the transposed matrix", "superfields.py",
           "kern = nullspace([rows[key] for key in sorted(rows)], len(fields))",
           "kern = nullspace([list(c) for c in zip(*(rows[key] for key in sorted(rows)))],\n"
           "                 len(rows))",
           ("tests/test_superfields.py::test_kernel_is_identity_line",)),
    Mutant("superfields.kernel_of_action keys a row by its monomial alone", "superfields.py",
           "rows.setdefault(key, [0] * len(fields))[col] = c",
           "rows.setdefault(key[1], [0] * len(fields))[col] = c",
           ("tests/test_superfields.py::test_kernel_is_identity_line",)),
    Mutant("superfields._combination drops the structure constant", "superfields.py",
           "            t = c * v\n", "            t = v\n",
           ("tests/test_superfields.py::test_homomorphism_uniform_sign",)),
    Mutant("HermitianSymmetricSpace.fold keys its memo without the weight", "bott.py",
           "        got = self._folds.get(a)\n"
           "        if got is None:\n"
           "            got = self._folds[a] = ",
           "        got = self._folds.get(0)\n"
           "        if got is None:\n"
           "            got = self._folds[0] = ",
           ("tests/test_bott.py::test_folds_are_read_only_and_shared_by_both_routes",)),
    # the value classes' shared dunders: equality across classes, a field
    # left out of the key, an assignable field
    Mutant("Record.__eq__ compares values of different classes", "record.py",
           "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
           "", ("tests/test_record.py::test_values_of_different_classes_are_never_equal",)),
    Mutant("Record._key drops the last field", "record.py",
           "for f in self._fields])", "for f in self._fields[:-1]])",
           ("tests/test_record.py::test_every_field_takes_part_in_equality",)),
    Mutant("TermAlgebra.__hash__ drops m", "exterior.py",
           "return hash((self.m, self.terms))", "return hash(self.terms)",
           ("tests/test_record.py::test_equal_values_compare_and_hash_equal",)),
    Mutant("TermAlgebra.__eq__ ignores m", "exterior.py",
           "return self.m == other.m and self.terms == other.terms",
           "return self.terms == other.terms",
           ("tests/test_record.py::test_every_field_takes_part_in_equality",)),
    Mutant("Record.__setattr__ assigns the field", "record.py",
           "        raise AttributeError(f\"cannot assign to {name!r} of a {type(self).__name__}\")\n",
           "        setfield(self, name, value)\n",
           ("tests/test_record.py::test_fields_are_read_only",)),
    # python -O: a result that changes under -O alone, and a guard that -O strips
    Mutant("spectral.apply_d2 cuts nothing under python -O", "spectral.py",
           "take = min(d.mult, cut.get(key, 0))",
           "take = min(d.mult, cut.get(key, 0)) if __debug__ else 0",
           ("tests/test_cli.py::test_the_golden_queries_and_the_gate_are_the_same_under_python_O",)),
    Mutant("spectral.apply_d2 guards its E3 bookkeeping with an assert", "spectral.py",
           '_require(not any(cut.values()), f"E3 bookkeeping: d2 cuts {cut} exceed E2")',
           'assert not any(cut.values()), f"E3 bookkeeping: d2 cuts {cut} exceed E2"',
           ("tests/test_sources.py::test_module_has_no_assert_statement[spectral.py]",)),
]


def copy_tree(dest: Path) -> Path:
    """A copy of the sources, tests and docs the tests read, under dest."""
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "out", "BENCH_*.json"))
    return tree


def run_tests(tree: Path, tests: Tuple[str, ...]) -> Tuple[int, float]:
    """(pytest exit code, seconds) of the tests in tree, stopping at the
    first failure; exit code -1 on a timeout."""
    started = time.monotonic()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.monotonic() - started


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, secs = run_tests(copy_tree(Path(tmp)), tests)
        print(f"unmutated: {'pass' if code == 0 else 'FAIL'} ({secs:.1f}s)", flush=True)
        if code != 0:
            return 2
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            path = tree / "src" / "flagcoh" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old text occurs {text.count(m.old)} times "
                      f"in {m.file}", flush=True)
                failed = True
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code, secs = run_tests(tree, m.tests)
        verdict = "killed" if code != 0 else "SURVIVED"
        if code == -1:
            verdict = "killed (timeout)"
        failed |= code == 0
        print(f"{verdict:<9} {m.name} ({secs:.1f}s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
