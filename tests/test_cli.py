import json
import subprocess
import sys
from pathlib import Path

import pytest

from flagcoh.bott import PRESET_NAMES
from flagcoh.cli import COMMANDS, _json, main
from flagcoh.scalars import QSqrt2, parse_scalar

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_json(capsys):
    code, out = run_cli(capsys, "roots", "B2")
    assert code == 0
    data = json.loads(out)
    assert data["n_coeffs"] == [1, 2]
    assert data["special_simple_roots"] == [0]
    assert len(data["positive_roots"]) == 4


@pytest.mark.parametrize("spec", ["", "B", "B+3", "B 3", "B\u00b3"])
def test_roots_rejects_a_type_that_is_not_a_letter_and_a_rank(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["roots", spec])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: simple type {spec!r} is not a letter and a rank, e.g. B3\n"


def test_bott_command(capsys):
    code, out = run_cli(capsys, "bott", "--space", "CP2", "--weight", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {"q": 0, "weight_star": [0, 0]}


def test_bott_vanishing(capsys):
    # delta - alpha0 on CP2 is singular
    code, out = run_cli(capsys, "bott", "--space", "CP2", "--weight", "1,0")
    assert code == 0
    assert json.loads(out)["result"] == "vanishes"


def test_cohomology_table_reproduces_case_II(capsys):
    code, out = run_cli(capsys, "cohomology-table", "--space", "Gr(4,2)")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "II" and data["k"] == 2
    assert data["published_table_deviations"] == []
    grid = {(e["p"], e["q"]): e["modules"] for e in data["entries"]}
    assert grid[(0, 0)][0]["tag"] == "adjoint"
    assert grid[(2, 1)][0]["mult"] == 2


def test_cohomology_table_flags_deviations(capsys):
    code, out = run_cli(capsys, "cohomology-table", "--space", "Q3")
    data = json.loads(out)
    devs = data["published_table_deviations"]
    assert len(devs) == 1 and (devs[0]["p"], devs[0]["q"]) == (2, 1)


def test_invariants_command(capsys):
    code, out = run_cli(capsys, "invariants", "--space", "Gr(4,2)",
                        "--p", "3", "--q", "2")
    assert code == 0
    data = json.loads(out)
    assert data["isotropy_route"] == data["bott_route"] == 2
    assert data["flag"] is None


@pytest.mark.parametrize("degrees", [("--p", "-1"), ("--q", "-1"), ("--p", "4"),
                                     ("--q", "4"), ("--p", "-1", "--q", "-1")])
def test_invariants_refuses_degrees_outside_zero_to_dim(capsys, degrees):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--space", "Q3", *degrees])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: p, q out of range\n"


def test_forms_command(capsys):
    code, out = run_cli(capsys, "forms", "--space", "Gr(4,2)")
    assert code == 0
    data = json.loads(out)
    assert data["rank_theta2_eta"] == 2
    sols = data["nilpotent_pairs"]["solutions"]
    assert len(sols) == 2 and not data["nilpotent_pairs"]["trivial_only"]


def test_d2_command_with_scalar_literals(capsys):
    code, out = run_cli(capsys, "d2", "--space", "Gr(4,2)", "--a", "0", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 0
    assert data["coboundary_witness"] is not None


def test_e3_command(capsys):
    code, out = run_cli(capsys, "e3", "--space", "Gr(4,2)", "--a", "0", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["H0"] == {"even": 15, "odd": 16}
    assert data["H1"] == {"even": 16, "odd": 15}


def test_pi_grassmannian_command(capsys):
    code, out = run_cli(capsys, "pi-grassmannian", "--n", "3", "--s", "1")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_dim"] == 1
    assert data["homomorphism"]["sigma"] == 1
    assert data["transitivity"]["even"] == 2


@pytest.mark.parametrize("space", ["Gr(4,2)", "Gr(5,2)"])
def test_d2_witness_read_back_as_dense_lists_is_a_coboundary(capsys, space):
    """The JSON witness holds one dense list of n^2 scalars per g-basis
    index; read back into a Cochain as those lists, its differential is
    c_theta (the substitution check of the benchmark's d2 operations)."""
    from fractions import Fraction

    from flagcoh import liecoh
    from flagcoh.bott import space_from_preset

    code, out = run_cli(capsys, "d2", "--space", space, "--a", "0", "--b", "1")
    assert code == 0
    witness = json.loads(out)["coboundary_witness"]
    gb = liecoh.build_g_basis(space_from_preset(space))
    assert witness and all(len(vec) == gb.n * gb.n for vec in witness.values())
    w = liecoh.Cochain(gb, 0, {
        int(k): [QSqrt2(Fraction(x["rat"]), Fraction(x["rt2"])) for x in vec]
        for k, vec in witness.items()})
    c = liecoh.cochain_from_form(gb, liecoh.theta_form(gb, 0, 1))
    assert not w.is_zero() and not c.is_zero()
    assert (liecoh.ce_differential(w) - c).is_zero()


def test_one_theta_family_elimination_per_basis_and_degree(capsys, monkeypatch):
    """Criterion 6 and the criterion-7 regimes on Gr(4,2) and Gr(5,2), plus
    a d2 query, reduce each space's theta family once per degree (criterion
    6 alone: once per space, not once per space and theta), and every
    rank, witness and adjoint verdict is a read of it: no elimination
    against a right-hand side runs besides."""
    from flagcoh import liecoh, verify
    liecoh._theta_family.cache_clear()
    built, eliminations, solves = [], [], []
    columns, reduce, rref = (liecoh._coboundary_columns, liecoh.reduce_targets,
                             liecoh.sparse_rref)
    monkeypatch.setattr(liecoh, "_coboundary_columns", lambda gb, degree: built.append(
        (str(gb.H.rd.type), gb.H.alpha0, degree)) or columns(gb, degree))
    monkeypatch.setattr(liecoh, "reduce_targets", lambda rows, n, targets: eliminations.append(
        len(targets)) or reduce(rows, n, targets))
    monkeypatch.setattr(liecoh, "sparse_rref", lambda rows, n, rhs=None: solves.append(
        rhs is not None) or rref(rows, n, rhs))
    assert verify.check_c6_d2_ranks()[0]
    assert built == [("A3", 1, 1), ("A4", 2, 1)] and eliminations == [2, 2]
    for _, name, a, b, regime, dims in verify.C7_REGIMES:
        if name in ("Gr(4,2)", "Gr(5,2)"):
            verify._regime_check(name, a, b, regime, dims)
    code, out = run_cli(capsys, "d2", "--space", "Gr(4,2)", "--a", "rt2", "--b", "1")
    assert code == 0 and json.loads(out)["rank"] == 15
    assert built == [("A3", 1, 1), ("A4", 2, 1), ("A4", 2, 2)]
    assert eliminations == [2, 2, 2] and not any(solves)
    info = liecoh._theta_family.cache_info()
    assert (info.misses, info.currsize) == (3, 3) and info.hits > 0


def test_markdown_format(capsys):
    code, out = run_cli(capsys, "--format", "markdown",
                        "cohomology-table", "--space", "CP2")
    assert code == 0
    assert out.startswith("#") and "| q \\ p |" in out


def test_csv_format(capsys):
    code, out = run_cli(capsys, "--format", "csv",
                        "cohomology-table", "--space", "CP2")
    assert code == 0
    assert out.splitlines()[0] == "p,q,tag,dim,mult"


def test_roots_markdown_and_csv(capsys):
    code, out = run_cli(capsys, "--format", "markdown", "roots", "B2")
    assert code == 0
    assert out == ("# root system B2\n\n- rank: 2\n"
                   "- highest root: [1, 2] (n-coefficients [1, 2])\n"
                   "- special simple roots: [0]\n- |positive roots|: 4\n")
    code, out = run_cli(capsys, "--format", "csv", "roots", "B2")
    assert code == 0
    assert out == "root\n0;1\n1;0\n1;1\n1;2\n"


BOTT_ARGV = ("bott", "--space", "CP2", "--weight", "0,0")


def test_markdown_without_a_renderer_is_fenced_json(capsys):
    _, plain = run_cli(capsys, *BOTT_ARGV)
    code, out = run_cli(capsys, "--format", "markdown", *BOTT_ARGV)
    assert code == 0
    assert out == "```json\n" + plain + "```\n"


def test_csv_without_a_renderer_exits_2_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "csv", *BOTT_ARGV])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: csv output is not defined for this command\n"


def test_unknown_space_fails_with_diagnostic(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology-table", "--space", "Gr(9,9)"])
    assert exc.value.code == 2


def test_byte_identical_output(capsys):
    _, out1 = run_cli(capsys, "cohomology-table", "--space", "Gr(4,2)")
    _, out2 = run_cli(capsys, "cohomology-table", "--space", "Gr(4,2)")
    assert out1 == out2


def test_verify_all_with_manifest(tmp_path, capsys):
    man = tmp_path / "manifest.txt"
    man.write_text("criteria = 3\n")
    code, out = run_cli(capsys, "verify-all", "--manifest", str(man))
    assert code == 0
    assert "[PASS] 3.k-values" in out


def _verify_all_names(out):
    return [line.split("] ", 1)[1].split(" (", 1)[0]
            for line in out.splitlines() if line.startswith("[")]


def test_verify_all_manifest_spaces_keep_grassmannians(tmp_path, capsys):
    man = tmp_path / "manifest.txt"
    man.write_text("criteria = 1\nspaces = Gr(4,2),Q3\n")
    code, out = run_cli(capsys, "verify-all", "--manifest", str(man))
    assert _verify_all_names(out) == [
        "1.tables[Q3]", "1c.tables-computed[Q3]",
        "1.tables[Gr(4,2)]", "1c.tables-computed[Gr(4,2)]"]
    assert "[PASS] 1.tables[Gr(4,2)]" in out
    assert code == 1  # 1.tables[Q3] is red by design


def test_verify_all_manifest_spaces_alone_runs_only_that_space(tmp_path, capsys):
    """Checks without a [space] in their name (4.exterior, 8.superfields,
    ...) are not about any one space and stay out of a spaces selection."""
    man = tmp_path / "manifest.txt"
    man.write_text("spaces = Q3\n")
    code, out = run_cli(capsys, "verify-all", "--manifest", str(man))
    assert _verify_all_names(out) == [
        "1.tables[Q3]", "1c.tables-computed[Q3]", "2.dual-route[Q3]", "7.I[Q3]"]
    assert code == 1  # 1.tables[Q3] is red by design


@pytest.mark.parametrize("manifest", [
    "criteria = 9\n",                       # no such criterion
    "criteria = 1\nspaces = Gr(5,3)\n",     # a preset no criterion-1 check covers
    "spaces = Gr(4\n",                      # not a preset
])
def test_verify_all_rejects_an_empty_or_unknown_selection(tmp_path, capsys, manifest):
    man = tmp_path / "manifest.txt"
    man.write_text(manifest)
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--manifest", str(man)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--format", "json", "verify-all"],
    ["--format=csv", "verify-all"],
    ["--format", "markdown", "verify-all", "--manifest", "unread.txt"],
], ids=lambda argv: " ".join(argv))
def test_verify_all_refuses_an_explicit_format(capsys, argv):
    """verify-all prints plain [PASS]/[FAIL] lines only, so a --format it
    would ignore is a usage error that names the flag, before any check runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: flagcoh verify-all [-h] [--manifest MANIFEST]\n"
        "flagcoh verify-all: error: argument --format: not allowed with "
        "verify-all, which prints plain [PASS]/[FAIL] lines\n")


def test_verify_all_has_no_parallel_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--parallel", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["roots", "B2"],
    ["--format", "csv", "cohomology-table", "--space", "CP2"],
    ["--format=markdown", "invariants", "--space", "Q3", "--p", "2"],
    ["e3", "--space=CP2", "--a=1", "--b=0"],
    ["cohomology-table", "--space", "Q3"],
], ids=lambda argv: " ".join(argv))
def test_a_query_builds_only_its_own_subparser(argv):
    """The parse reads the named command's entry of COMMANDS directly: a
    query, run in a fresh process, loads no stdlib parser and no message
    catalogue, whose first use costs more than the query; nor `dataclasses`
    and the `inspect` it imports, which no flagcoh class is built with."""
    probe = ("import sys\nfrom flagcoh.cli import main\n"
             f"assert main({argv!r}) == 0\n"
             "print(sorted({'argparse', 'gettext', 'dataclasses', 'inspect'} & set(sys.modules)),"
             " file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert run.returncode == 0 and run.stderr == "[]\n", run.stderr


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), ([], 2), (["nosuch"], 2), (["--format", "markdown"], 2),
])
def test_help_and_a_missing_or_unknown_command_list_every_command(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "{" + ",".join(COMMANDS) + "}" in captured.out + captured.err


@pytest.mark.parametrize("argv, code", [
    (["e3", "--help"], 0),
    (["e3"], 2),
    (["e3", "--space"], 2),
    (["--format", "xml", "e3", "--space", "CP2"], 2),
    (["roots", "B2", "--space", "CP2"], 2),
    (["e3", "--space", "CP2", "--c", "1"], 2),
    (["d2", "--space", "CP2", "--a"], 2),
    (["cohomology-table", "--space", "CP2", "--p", "x"], 2),
    (["e3", "CP2"], 2),
    (["e3", "--space", "CP2", "--format", "json"], 2),
    (["e3", "--spa", "CP2"], 2),
    (["--format=xml", "e3", "--space", "CP2"], 2),
])
def test_a_named_command_keeps_its_help_and_argparse_exit_codes(capsys, argv, code):
    """Help exits 0; malformed argv, among it an abbreviated flag, exits 2
    with a usage line on stderr and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "flagcoh" in captured.out + captured.err
    if code == 2:
        assert captured.out == "" and captured.err.startswith("usage: flagcoh ")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_help_names_each_of_its_flags(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag, _ in COMMANDS[name][2])


@pytest.mark.parametrize("argv", [
    ["cohomology-table", "--space", "CP2", "--p", "2", "--q", "1"],
    ["d2", "--space", "Gr(4,2)", "--a", "-1/2", "--b", "1"],
    ["pi-grassmannian", "--n", "3", "--s", "1"],
], ids=lambda argv: argv[0])
def test_each_flag_reads_the_same_with_equals(capsys, argv):
    """--flag value and --flag=value give the same stdout, flag by flag."""
    assert main(argv) == 0
    spaced = capsys.readouterr().out
    for i in range(1, len(argv), 2):
        glued = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
        assert main(glued) == 0
        assert capsys.readouterr().out == spaced, glued


def test_a_repeated_flag_reads_its_last_value(capsys):
    assert main(["bott", "--space", "CP2", "--weight", "0,0"]) == 0
    want = capsys.readouterr().out
    assert main(["bott", "--space", "Q3", "--weight", "1,1",
                 "--space=CP2", "--weight", "0,0"]) == 0
    assert capsys.readouterr().out == want


def test_space_list_splits_outside_parentheses_only():
    from flagcoh.cli import parse_space_list

    assert parse_space_list("Gr(4,2),Q3, Gr(5, 3),CP^2") == [
        "Gr(4,2)", "Q3", "Gr(5,3)", "CP2"]


def test_scalar_parsing():
    from fractions import Fraction

    assert parse_scalar("1/2") == QSqrt2(Fraction(1, 2), 0)
    assert parse_scalar("1+2*rt2") == QSqrt2(1, 2)
    assert parse_scalar("-rt2") == QSqrt2(0, -1)
    assert parse_scalar("3/2-1/2*rt2") == QSqrt2(Fraction(3, 2), Fraction(-1, 2))


@pytest.mark.parametrize("spaces", [None, "Gr(4,2),Q3"])
def test_run_tables_script_emits_one_section_per_space(spaces):
    from flagcoh.bott import DESK_PRESETS

    extra = [] if spaces is None else ["--spaces", spaces]
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_tables.py"), *extra],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    head = "# H^q(M, Omega^p x Theta) for "
    sections = [line[len(head):].split(" (")[0]
                for line in run.stdout.splitlines() if line.startswith(head)]
    assert sections == (list(DESK_PRESETS) if spaces is None else ["Gr(4,2)", "Q3"])
    assert "## nilpotent pairs on Gr(4,2)" in run.stdout
    assert "# E2/E3 for Q3, theta = (1) theta2 + (0) eta" in run.stdout


def test_run_tables_script_rejects_an_unknown_space():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_tables.py"), "--spaces", "Gr(4,2),P9"],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == "" and run.stderr.startswith("error: unknown space preset 'P9'")


@pytest.mark.parametrize("space", ["Gr(4,2)", "Gr(5,2)"])
def test_benchmark_worker_substitutes_the_d2_coboundary_witness(space):
    """The benchmark worker replaces a d2 query's coboundary witness by the
    verdict of its own substitution check, delta(w) == c.  It arms SIGALRM,
    so it runs in its own interpreter, never imported here."""
    argv = ["d2", "--space", space, "--a", "0", "--b", "1"]
    job = {"ops": [{"kind": "cli", "id": "w", "argv": argv}],
           "trace": False, "spans_out": None, "spawned": 0}
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")], input=json.dumps(job),
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    [result] = json.loads(run.stdout)["results"]
    assert result["rc"] == 0 and result["error"] is None
    assert result["payload"]["coboundary_witness"] == {"checked": True}


QUERIES = json.loads((ROOT / "tests" / "golden" / "queries.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_queries_match_golden_output(capsys, key):
    """Every CLI golden, one argv -> {rc, stdout, stderr} entry each:
    cohomology-table in json, markdown and csv and e3 in markdown on every
    desk preset, forms in json and markdown, d2 (its coboundary witness
    pins the order of the unknowns) and e3 in json, pi-grassmannian up to
    n = 5, roots on every preset's type and on A1, C2, D3, E6 and E7 (B2
    also in markdown and csv), invariants at (3, 2) on every preset and at
    (2, 1) and (4, 3) on Q5, Gr(5,2), Gr(5,3), LG3, S-D4 and Gr(6,3), bott
    on every preset at a vanishing weight, one with q = 0 and one with
    q > 0, bott and d2 on
    values that begin with '-', d2 with the rt2 factor first or last, and
    rejected inputs (among them a negative table size, the zero theta
    parameter, also where CP2 folds a theta2 + b eta to zero, a scalar with
    a zero denominator, two rt2 factors in a term or rt2 in a denominator,
    a weight that is not a list of integers, has too few or too many
    coordinates or is not S-dominant, an empty root type and a
    missing manifest, which exit 2 with one error line): exit code, stdout
    and stderr are byte-identical to the recorded ones."""
    try:
        code = main(key.split(" "))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert {"rc": code, "stdout": captured.out, "stderr": captured.err} == QUERIES[key]


def _json_payloads():
    """Every JSON payload among the golden stdouts, fenced markdown included."""
    for entry in QUERIES.values():
        text = entry["stdout"].strip()
        text = text[len("```json"):-len("```")] if text.startswith("```json") else text
        if text.startswith("{"):
            yield json.loads(text)


WRITER_EDGES = [
    {}, [], {"a": {}, "b": [], "c": [{}, []], "d": {"e": {"f": []}}},
    {"\u00e9t\u00e9": "\u03b8 \u2227 \u03b7", "tab\t": "quote \" back \\ \u0001", "\U0001d4d7": ""},
    [True, 1, False, 0, None, -1, "1", "true"],
    {"neg": -7, "big": 10 ** 40, "small": -(10 ** 40), "zero": 0},
    {"b": 1, "a": 2, "B": 3, "_": 4, "10": 5, "9": 6, "": 7},
]


def test_the_json_writer_writes_the_bytes_of_json_dumps():
    """`cli._json` against json.dumps(indent=2, sort_keys=True) on every JSON
    payload of the goldens and on empty containers, non-ASCII and escaped
    strings, booleans beside 1 and 0, None, large ints and key order."""
    payloads = list(_json_payloads())
    assert len(payloads) > 100
    for payload in payloads + WRITER_EDGES:
        assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    for bad in ({"x": 1.5}, {"x": (1, 2)}, {1: "x"}):
        with pytest.raises(TypeError):
            _json(bad)


def test_the_golden_queries_and_the_gate_are_the_same_under_python_O(under_python_O):
    """python -O drops assert statements and `if __debug__` blocks, which no
    library module holds (tests/test_sources.py), so no result may change
    under it.  The golden queries and the gate's verdicts and details replay
    under -O through pytest, whose rewritten asserts still run there, and
    one golden query runs as `python -O -m flagcoh.cli` (tests/conftest.py)."""
    run = under_python_O
    assert run.rc == 0, run.tail
    assert all(run.golden(key) for key in QUERIES)
    assert run.passed("tests.test_acceptance::test_verdicts_and_details_match_golden")
    assert run.cli == QUERIES[run.cli_key]


@pytest.mark.parametrize("key", ["d2 Gr(5,2) 0 1", "e3 Gr(5,2) 0 1",
                                 "d2 Gr(5,2) rt2 1", "e3 Gr(4,2) rt2 1"])
def test_optimized_interpreter_gives_same_output(under_python_O, key):
    """python -O drops assert statements; no d2 or e3 result may depend on
    them: its golden query replays unchanged under -O."""
    cmd, space, a, b = key.split(" ")
    assert under_python_O.golden(f"{cmd} --space {space} --a {a} --b {b}")["rc"] == 0


def test_rt2_factor_first_or_last_gives_one_output():
    first, last = (QUERIES[f"d2 --space Gr(4,2) --a {a}"] for a in ("rt2*3", "3*rt2"))
    assert first["rc"] == 0 and first == last


@pytest.mark.parametrize("spaced,glued,rc", [
    ("bott --space Q3 --weight -1,0", "bott --space Q3 --weight=-1,0", 0),
    ("bott --space CP2 --weight -1,0", "bott --space CP2 --weight=-1,0", 2),
    ("d2 --space Gr(4,2) --a -1/2 --b 1", "d2 --space Gr(4,2) --a=-1/2 --b 1", 0),
    ("d2 --space Gr(4,2) --a 1 --b -rt2", "d2 --space Gr(4,2) --a 1 --b=-rt2", 0),
])
def test_a_value_beginning_with_minus_reads_as_with_equals(capsys, spaced, glued, rc):
    """--opt -v and --opt=-v give the same exit code and stdout."""
    runs = []
    for argv in (spaced, glued):
        try:
            code = main(argv.split(" "))
        except SystemExit as exc:
            code = exc.code
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == rc


@pytest.mark.parametrize("command", ["d2", "e3"])
@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_an_empty_scalar_exits_2_with_one_line(capsys, command, flag):
    """An empty --a or --b is an error, not the option's default."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--space", "Gr(4,2)", "--a", "1", "--b", "1", flag, ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: empty scalar literal\n"


@pytest.mark.parametrize("weight", ["1,a", "1,,0", "", "1.5,0"])
def test_a_weight_that_is_not_integers_exits_2_with_one_line(capsys, weight):
    with pytest.raises(SystemExit) as exc:
        main(["bott", "--space", "CP2", "--weight", weight])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: weight must be comma-separated integers\n"


def test_bott_goldens_cover_every_preset_and_outcome():
    outcomes = {}
    for key, rec in QUERIES.items():
        if key.startswith("bott ") and rec["rc"] == 0:
            result = json.loads(rec["stdout"])["result"]
            kind = result if result == "vanishes" else min(result["q"], 1)
            outcomes.setdefault(key.split(" ")[2], set()).add(kind)
    assert outcomes == {name: {"vanishes", 0, 1} for name in PRESET_NAMES}
