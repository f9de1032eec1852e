"""Command-line surface: exact root-system, cohomology-table, invariant-form,
spectral-sequence and super-field computations with reproducible json / csv /
markdown output.

stdout carries the formatted result, stderr the diagnostics; the exit code
is 0 exactly when every requested check passed.
"""

from __future__ import annotations

import re
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from . import bott, invforms, liecoh, spectral, superfields, verify
from .bott import PRESET_NAMES, preset_key, space_from_preset
from .rootsys import root_system
from .scalars import format_scalar, parse_scalar


def _die(msg: str) -> "NoReturn":  # noqa: F821
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _json(x, indent: str = "\n") -> str:
    """The bytes of json.dumps(x, indent=2, sort_keys=True) for a payload of
    dicts with str keys, lists, str, int, bool and None, in one pass."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is dict or t is list:
        if not x:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        if t is list:
            return "[" + ",".join([inner + _json(v, inner) for v in x]) + indent + "]"
        return "{" + ",".join([f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                               for k, v in sorted(x.items())]) + indent + "}"
    if x is None or t is bool:
        return "null" if x is None else "true" if x else "false"
    if t is int:
        return repr(x)
    raise TypeError(f"{t.__name__} is not a JSON payload value")


def _emit(payload: Dict, fmt: str, markdown_fn=None, csv_fn=None) -> None:
    if fmt == "json":
        print(_json(payload))
    elif fmt == "markdown":
        if markdown_fn is None:
            print("```json\n" + _json(payload) + "\n```")
        else:
            print(markdown_fn(payload))
    else:
        if csv_fn is None:
            _die("csv output is not defined for this command")
        print(csv_fn(payload))


def module_label(tag: str, dim: int, mult: int) -> str:
    """Table label of a module summand: g, C or V<dim>, then ^mult if > 1."""
    base = "g" if tag == "adjoint" else "C" if tag == "trivial" else f"V{dim}"
    return base + (f"^{mult}" if mult > 1 else "")


def _modules_label(mods: List[Dict]) -> str:
    return " + ".join(module_label(m["tag"], m["dim"], m["mult"]) for m in mods)


def _grid(ps, qs, cells: Dict, label) -> List[str]:
    """Markdown `| q \\ p |` grid, one column per p and one row per q: the
    entry cells[(p, q)] written by label, or 0 where it is missing or empty."""
    lines = ["| q \\ p | " + " | ".join(map(str, ps)) + " |",
             "|" + "---|" * (len(ps) + 1)]
    for q in qs:
        lines.append(f"| {q} | " + " | ".join(
            label(cells[p, q]) if cells.get((p, q)) else "0" for p in ps) + " |")
    return lines


def parse_space_list(text: str) -> List[str]:
    """Comma-separated preset names, split only at commas outside
    parentheses (so `Gr(4,2),Q3` is two names), each normalised by
    `bott.preset_key`; an unknown name is an error."""
    try:
        return [preset_key(s) for s in re.split(r",(?![^()]*\))", text)]
    except ValueError as exc:
        _die(str(exc))


def _descriptor_json(d: bott.ModuleDescriptor) -> Dict:
    return {
        "tag": d.tag,
        "weight": list(d.weight),
        "dim": d.dim,
        "mult": d.mult,
    }


# --- commands -----------------------------------------------------------------

def cmd_roots(args) -> int:
    rd = root_system(args.type)
    payload = {
        "type": str(rd.type),
        "rank": rd.rank,
        "cartan": [list(r) for r in rd.cartan],
        "positive_roots": [list(r) for r in rd.positive_roots],
        "gamma": [str(g) for g in rd.gamma],
        "delta": list(rd.delta),
        "n_coeffs": list(rd.delta),
        "special_simple_roots": rd.special_simple_roots(),
    }

    def md(p):
        lines = [f"# root system {p['type']}", "",
                 f"- rank: {p['rank']}",
                 f"- highest root: {p['delta']} (n-coefficients {p['n_coeffs']})",
                 f"- special simple roots: {p['special_simple_roots']}",
                 f"- |positive roots|: {len(p['positive_roots'])}"]
        return "\n".join(lines)

    def csv(p):
        rows = ["root"] + [";".join(map(str, r)) for r in p["positive_roots"]]
        return "\n".join(rows)

    _emit(payload, args.format, md, csv)
    return 0


def cmd_bott(args) -> int:
    H = space_from_preset(args.space)
    try:
        lam = tuple(int(x) for x in args.weight.split(","))
    except ValueError:
        _die("weight must be comma-separated integers")
    res = bott.bott_irreducible(H, lam)
    payload = {
        "space": args.space,
        "weight": list(lam),
        "result": "vanishes" if res is None else {
            "q": res[0],
            "weight_star": list(res[1]),
        },
    }
    _emit(payload, args.format)
    return 0


def cmd_cohomology_table(args) -> int:
    H = space_from_preset(args.space)
    p_max, q_max = min(args.p, H.dim), args.q
    if min(p_max, q_max) < 0:
        _die("--p and --q must be nonnegative")
    entries = []
    for p in range(0, p_max + 1):
        col = bott.cohomology_omega_p_theta(H, p, q_max=q_max)
        for q in range(q_max + 1):
            if col[q]:
                entries.append({
                    "p": p, "q": q,
                    "modules": [_descriptor_json(d) for d in col[q]],
                })
    k = bott.k_value(H)
    deviations = verify.PUBLISHED_TABLE_DEVIATIONS.get(preset_key(args.space), {})
    payload = {
        "space": args.space,
        "case": H.case,
        "dim": H.dim,
        "k": k,
        "entries": entries,
        "published_table_deviations": [
            {"p": p, "q": q, "extra": [_descriptor_json(d) for d in ds]}
            for (p, q), ds in sorted(deviations.items())
        ],
    }

    def md(pl):
        lines = [f"# H^q(M, Omega^p x Theta) for {pl['space']} "
                 f"(case {pl['case']}, dim {pl['dim']}, k = {pl['k']})", ""]
        grid = {(e["p"], e["q"]): e["modules"] for e in pl["entries"]}
        lines += _grid(range(p_max + 1), range(q_max + 1), grid, _modules_label)
        if pl["published_table_deviations"]:
            lines.append("")
            lines.append("flagged deviations from the published tables:")
            for d in pl["published_table_deviations"]:
                lines.append(f"- (p={d['p']}, q={d['q']}): extra {_modules_label(d['extra'])}")
        return "\n".join(lines)

    def csv(pl):
        rows = ["p,q,tag,dim,mult"]
        for e in pl["entries"]:
            for m in e["modules"]:
                rows.append(f"{e['p']},{e['q']},{m['tag']},{m['dim']},{m['mult']}")
        return "\n".join(rows)

    _emit(payload, args.format, md, csv)
    return 0


def cmd_invariants(args) -> int:
    H = space_from_preset(args.space)
    p, q = args.p, args.q
    inv = bott.invariant_dimension(H, p, q)
    col = bott.cohomology_omega_p_theta(H, p, q_max=q)
    triv = bott.tag_counts(col[q])[1]
    stated = verify.published_k_value(H) if (p, q) == (3, 2) else None
    payload = {
        "space": args.space,
        "p": p,
        "q": q,
        "isotropy_route": inv,
        "bott_route": triv,
        "routes_agree": inv == triv,
        "published_k": stated,
        "flag": (None if stated is None or stated == inv
                 else f"computed {inv} disagrees with published {stated}"),
    }
    _emit(payload, args.format)
    return 0 if inv == triv else 1


def cmd_forms(args) -> int:
    H = space_from_preset(args.space)
    rs = bott.grassmannian_rs(H)
    basis = invforms.theta_basis(invforms.MatrixPairSpace(*rs)) if rs else ()
    if len(basis) < 2:
        _die("the eta family needs a Grassmannian with 2 <= s <= n-2")
    sp = basis[0].space
    forms3 = [invforms.theta_p(sp, 3), invforms.eta1(sp), invforms.eta2(sp), invforms.eta3(sp)]
    products = dict(zip(
        ("theta2^theta2", "theta2^eta", "eta^theta2", "eta^eta"),
        (invforms.independent_coefficients(f, forms3)
         for row in invforms.theta_products(sp) for f in row)))
    rep = invforms.nilpotent_pairs(sp)
    payload = {
        "space": args.space,
        "rank_theta3_eta123": invforms.rank_of(forms3),
        "rank_theta2_eta": invforms.rank_of(list(basis)),
        "products_in_basis_theta3_eta1_eta2_eta3": {
            k: ([format_scalar(c) for c in v] if v is not None else "outside span")
            for k, v in products.items()
        },
        "nilpotent_pairs": {
            "trivial_only": rep.trivial_only,
            "solutions": [
                {"theta": [format_scalar(c) for c in ab],
                 "phi": [format_scalar(c) for c in cd]}
                for ab, cd in rep.solutions
            ],
        },
    }

    def md(pl):
        lines = [f"# theta/eta forms on {pl['space']}", "",
                 f"- rank(theta3, eta1, eta2, eta3) = {pl['rank_theta3_eta123']}",
                 f"- rank(theta2, eta) = {pl['rank_theta2_eta']}"]
        for k, v in products.items():
            lines.append(f"- {k} = " + (
                "(" + ", ".join(map(str, v)) + ") in (theta3, eta1, eta2, eta3)"
                if v is not None else "outside span(theta3, eta1, eta2, eta3)"))
        lines += ["", f"## nilpotent pairs on {pl['space']}"]
        if rep.trivial_only:
            lines.append("- only trivial solutions")
        for ab, cd in rep.solutions:
            lines.append(f"- theta = ({ab[0]}) theta2 + ({ab[1]}) eta,  "
                         f"phi = ({cd[0]}) theta2 + ({cd[1]}) eta")
        return "\n".join(lines)

    _emit(payload, args.format, md)
    return 0


def cmd_d2(args) -> int:
    H = space_from_preset(args.space)
    a, b = parse_scalar(args.a), parse_scalar(args.b)
    spectral.theta_for(H, a, b)  # refuses a theta that is zero on H
    rank, res = liecoh.d2_on_vector_fields(H, a, b)
    witness = None
    if res.witness is not None:
        # the flat (w, t) map is written as one dense list of module_dim
        # scalars per basis element w
        dense: dict = {}
        zero = {"rat": "0", "rt2": "0"}
        for (w, t), x in res.witness.data.items():
            dense.setdefault(w, [zero] * res.witness.module_dim)[t] = format_scalar(x)
        witness = {str(w): dense[w] for w in sorted(dense)}
    payload = {
        "space": args.space,
        "a": format_scalar(a),
        "b": format_scalar(b),
        "rank": rank,
        "dim_g": liecoh.build_g_basis(H).dim,
        "coboundary_witness": witness,
    }
    _emit(payload, args.format)
    return 0


def cmd_e3(args) -> int:
    H = space_from_preset(args.space)
    a, b = parse_scalar(args.a), parse_scalar(args.b)
    report, res = spectral.cohomology_of_T(H, a, b)

    def table_json(table):
        out = []
        for (p, q), entry in sorted(table.items()):
            out.append({
                "p": p, "q": q,
                "summands": [
                    {"provenance": s.provenance, "status": s.status,
                     **_descriptor_json(s.descriptor)}
                    for s in entry
                ],
            })
        return out

    dims = report.dims()
    payload = {
        "space": args.space,
        "theta": {"a": format_scalar(a), "b": format_scalar(b)},
        "E2": table_json(res.E2),
        "E3": table_json(res.E3),
        "H0": {"even": dims["H0_even"], "odd": dims["H0_odd"]},
        "H1": {"even": dims["H1_even"], "odd": dims["H1_odd"]},
        "flag_32": verify.flagged_32_comparison(res),
        "notes": res.notes,
    }

    def md(pl):
        lines = [f"# E2/E3 for {pl['space']}, theta = ({a}) theta2 + ({b}) eta", ""]
        for nm in ("E2", "E3"):
            grid = {(e["p"], e["q"]): e["summands"] for e in pl[nm]}
            lines.append(f"## {nm}")
            lines += _grid(sorted({p for p, _ in grid}), sorted({q for _, q in grid}), grid,
                           lambda ss: " + ".join(
                               f"{s['provenance']}*({_modules_label([s])}"
                               + ("?)" if s["status"] == "undetermined" else ")")
                               for s in ss))
            lines.append("")
        lines.append(f"H0 = ({pl['H0']['even']} | {pl['H0']['odd']}), "
                     f"H1 = ({pl['H1']['even']} | {pl['H1']['odd']})")
        f32 = pl["flag_32"]
        lines.append(f"flag_32: computed trivial {f32['computed_trivial']}, "
                     f"published reading {f32['published_reading']}, "
                     f"agree {'yes' if f32['agree'] else 'no'}, k = {f32['k']}")
        lines += [f"- note: {note}" for note in pl["notes"]]
        return "\n".join(lines)

    _emit(payload, args.format, md)
    return 0


def cmd_pi_grassmannian(args) -> int:
    n, s = args.n, args.s
    if not 1 <= s <= n - 1:
        _die("need 1 <= s <= n-1")
    hom = superfields.homomorphism_check(n, s)
    ker = superfields.kernel_of_action(n, s)
    trans = superfields.transitivity_at_origin(n, s)
    weights = superfields.isotropy_weights(n, s)

    def field_json(f):
        return {
            "parity": f.parity,
            "d/dx": [
                {str(k): str(c) for k, c in p.terms} for p in f.c_x
            ],
            "d/dxi": [
                {str(k): str(c) for k, c in p.terms} for p in f.c_xi
            ],
        }

    sample = {}
    r = n - s
    for label, (i, j, odd) in {
        "a1.E00": (0, 0, False),
        "v.E(r)(0)": (r, 0, False),
        "y.E0(r)": (0, r, True),
    }.items():
        g = superfields.QnElement.unit(n, i, j, odd)
        sample[label] = field_json(superfields.fundamental_field(g, s))
    payload = {
        "n": n, "s": s,
        "homomorphism": hom,
        "kernel_dim": len(ker),
        "transitivity": trans,
        "isotropy_weights": {str(k): v for k, v in sorted(weights.items())},
        "sample_fields": sample,
    }
    _emit(payload, args.format)
    ok = len(ker) == 1 and trans["even"] == trans["odd"] == trans["expected"]
    return 0 if ok else 1


def _load_manifest(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read manifest {path}: {exc.strerror}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def cmd_verify_all(args) -> int:
    criteria = spaces = None
    if args.manifest:
        man = _load_manifest(args.manifest)
        if "criteria" in man:
            criteria = [c.strip() for c in man["criteria"].split(",")]
        if "spaces" in man:
            spaces = parse_space_list(man["spaces"])
    t0 = time.perf_counter()
    results = verify.run_all(criteria=criteria, spaces=spaces)
    n_pass = sum(1 for r in results if r.ok)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.name} ({r.seconds:.1f}s): {r.detail}")
    dt = time.perf_counter() - t0
    print(f"-- {n_pass}/{len(results)} checks passed in {dt:.0f}s")
    known_red = [r.name for r in results if not r.ok]
    if known_red:
        print("-- failing checks assert published values that the exact "
              "computation disproves; see the errata section of the README",
              file=sys.stderr)
    return 0 if n_pass == len(results) else 1


_SPACE = ("--space", {"required": True})
_FORMATS = ("json", "csv", "markdown")

# name -> (handler, help, arguments as (flag or positional, required/type/default/help))
COMMANDS: Dict[str, Tuple[Callable, str, Tuple]] = {
    "roots": (cmd_roots, "root-system report",
              (("type", {"required": True, "help": "simple type, e.g. B3"}),)),
    "bott": (cmd_bott, "Bott's algorithm for one bundle weight", (
        ("--space", {"required": True, "help": f"one of {PRESET_NAMES}"}),
        ("--weight", {"required": True,
                      "help": "S-dominant weight, comma-separated simple-root coords"}))),
    "cohomology-table": (cmd_cohomology_table, "H^q(M, Omega^p x Theta) table", (
        _SPACE, ("--p", {"type": int, "default": 4, "help": "max p (default 4)"}),
        ("--q", {"type": int, "default": 2, "help": "max q (default 2)"}))),
    "invariants": (cmd_invariants, "invariant dimension by both routes", (
        _SPACE, ("--p", {"type": int, "default": 3}), ("--q", {"type": int, "default": 2}))),
    "forms": (cmd_forms, "theta/eta family report", (_SPACE,)),
    "d2": (cmd_d2, "degree-2 differential rank on vector fields", (
        _SPACE, ("--a", {"default": "1", "help": "scalar, e.g. '1' or '1+2*rt2'"}),
        ("--b", {"default": "0"}))),
    "e3": (cmd_e3, "E2/E3 tables and H^0/H^1 report", (
        _SPACE, ("--a", {"default": "1"}), ("--b", {"default": "0"}))),
    "pi-grassmannian": (cmd_pi_grassmannian, "fundamental fields of the q_n action", (
        ("--n", {"type": int, "required": True}), ("--s", {"type": int, "required": True}))),
    "verify-all": (cmd_verify_all, "run the acceptance gate", (
        ("--manifest", {"help": "key=value file pinning criteria=.. and spaces=.."}),)),
}


def _stop(name: Optional[str], error: str = "") -> "NoReturn":  # noqa: F821
    """Exit 2 with a usage line and the error on stderr, or 0 with the help on stdout."""
    prog = "flagcoh" + (f" {name}" if name else "")
    if name is None:
        usage = f"[--format {{{','.join(_FORMATS)}}}] {{{','.join(COMMANDS)}}} ..."
        text, rows = __doc__.strip(), [(n, h) for n, (_, h, _) in COMMANDS.items()]
    else:
        _, text, arguments = COMMANDS[name]
        rows = [(f"{f} {f[2:].upper()}" if f[0] == "-" else f, kw.get("help", ""))
                for f, kw in arguments]
        usage = " ".join(w if kw.get("required") else f"[{w}]"
                         for (w, _), (_, kw) in zip(rows, arguments))
    lines = ([f"{prog}: error: {error}"] if error
             else ["", text, "", *(f"  {a:<22}{b}".rstrip() for a, b in rows)])
    print(f"usage: {prog} [-h] {usage}", *lines, sep="\n",
          file=sys.stderr if error else sys.stdout)
    sys.exit(2 if error else 0)


def _read(name: str, tokens) -> Dict:
    """The named command's arguments by dest, read from its tokens: a flag takes
    the text after `=`, else the next token (which may begin with '-'); the last wins."""
    arguments = dict(COMMANDS[name][2])
    free = [f for f in arguments if f[0] != "-"]
    given: Dict = {}
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if tok in ("-h", "--help"):
            _stop(name)
        elif flag[:1] != "-" and free:
            flag, value, eq = free.pop(0), tok, "="
        elif flag[:1] != "-" or flag not in arguments:
            _stop(name, f"unrecognized arguments: {tok}")
        if not eq and (value := next(tokens, None)) is None:
            _stop(name, f"argument {flag}: expected one argument")
        try:
            given[flag] = arguments[flag].get("type", str)(value)
        except ValueError:
            _stop(name, f"argument {flag}: invalid int value: {value!r}")
    for flag, kw in arguments.items():
        if kw.get("required") and flag not in given:
            _stop(name, f"the following arguments are required: {flag}")
    return {f.lstrip("-"): given.get(f, kw.get("default")) for f, kw in arguments.items()}


def main(argv: Optional[List[str]] = None) -> int:
    """Run `[--format FORMAT] COMMAND FLAGS...`, read against COMMANDS with flags in
    full; `-h` prints help, and malformed argv exits 2 with a usage line on stderr.
    `verify-all` prints plain lines only, so it refuses an explicit --format."""
    tokens, fmt = iter(sys.argv[1:] if argv is None else argv), None
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if tok in ("-h", "--help"):
            _stop(None)
        elif flag == "--format":
            fmt = value if eq else next(tokens, None)
            if fmt not in _FORMATS:
                _stop(None, f"argument --format: expected one of {', '.join(_FORMATS)}")
        elif tok not in COMMANDS:
            _stop(None, f"unknown command or option: {tok}")
        elif fmt and tok == "verify-all":
            _stop(tok, "argument --format: not allowed with verify-all, "
                       "which prints plain [PASS]/[FAIL] lines")
        else:
            try:
                return COMMANDS[tok][0](
                    SimpleNamespace(format=fmt or "json", **_read(tok, tokens)))
            except ValueError as exc:
                _die(str(exc))
    _stop(None, "the following arguments are required: command")


if __name__ == "__main__":
    sys.exit(main())
