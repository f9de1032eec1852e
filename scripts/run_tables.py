#!/usr/bin/env python3
"""Emit every desk-scale table this library computes, as markdown.

Usage: python scripts/run_tables.py [--spaces Gr(4,2),Q3,...]
"""

import argparse
import sys
import time

from flagcoh import bott, invforms, spectral
from flagcoh.bott import DESK_PRESETS, space_from_preset
from flagcoh.cli import module_label
from flagcoh.scalars import RT2, QSqrt2, format_scalar


def cohomology_section(name):
    H = space_from_preset(name)
    k = bott.invariant_dimension(H, 3, 2) if H.dim >= 3 else 0
    print(f"\n## {name} (case {H.case}, dim {H.dim}, k = {k})\n")
    p_max = min(4, H.dim)
    print("| q \\ p | " + " | ".join(str(p) for p in range(p_max + 1)) + " |")
    print("|" + "---|" * (p_max + 2))
    cols = {p: bott.cohomology_omega_p_theta(H, p, 2) for p in range(p_max + 1)}
    for q in range(3):
        cells = []
        for p in range(p_max + 1):
            mods = cols[p][q]
            cells.append(" + ".join(module_label(d.tag, d.dim, d.mult) for d in mods)
                         if mods else "0")
        print(f"| {q} | " + " | ".join(cells) + " |")
    devs = bott.PUBLISHED_TABLE_DEVIATIONS.get(name, {})
    if devs:
        print("\nDeviations from the published table (verified):")
        for (p, q), ds in sorted(devs.items()):
            print(f"- (p={p}, q={q}): extra "
                  + ", ".join(module_label(d.tag, d.dim, d.mult) for d in ds))


def e3_section(name, a, b, label):
    H = space_from_preset(name)
    theta = spectral.theta_for(H, a, b)
    report, res = spectral.cohomology_of_T(H, theta)
    dims = report.dims()
    print(f"\n## E3 rows, {name}, theta = {label}\n")
    rows = spectral.e3_rows_summary(res)
    ps = sorted({p for (p, q) in rows} | {-1, 0, 1, 2})
    print("| q \\ p | " + " | ".join(map(str, ps)) + " |")
    print("|" + "---|" * (len(ps) + 1))
    for q in (0, 1):
        cells = []
        for p in ps:
            a_, t_, o_ = rows.get((p, q), (0, 0, 0))
            parts = []
            if a_:
                parts.append("g" + (f"^{a_}" if a_ > 1 else ""))
            if t_:
                parts.append("C" + (f"^{t_}" if t_ > 1 else ""))
            if o_:
                parts.append(f"other^{o_}" if o_ > 1 else "other")
            cells.append(" + ".join(parts) if parts else "0")
        print(f"| {q} | " + " | ".join(cells) + " |")
    print(f"\nH0 = ({dims['H0_even']} | {dims['H0_odd']}), "
          f"H1 = ({dims['H1_even']} | {dims['H1_odd']})")
    for note in res.notes:
        print(f"- note: {note}")


def forms_section(name):
    H = space_from_preset(name)
    rs = bott.grassmannian_rs(H)
    if rs is None or min(rs) < 2:
        return
    sp = invforms.MatrixPairSpace(*rs)
    rep = invforms.nilpotent_pairs(sp)
    print(f"\n## nilpotent pairs on {name}")
    if rep.trivial_only:
        print("- only trivial solutions")
    for ab, cd in rep.solutions:
        print(f"- theta = ({ab[0]}) theta2 + ({ab[1]}) eta,  "
              f"phi = ({cd[0]}) theta2 + ({cd[1]}) eta")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spaces", default=",".join(DESK_PRESETS))
    args = ap.parse_args()
    spaces = [s.strip() for s in args.spaces.split(",")]

    t0 = time.time()
    print("# Bundle cohomology tables (computed, exact)")
    for name in spaces:
        cohomology_section(name)

    print("\n# Invariant-form products and nilpotent pairs")
    for name in spaces:
        forms_section(name)

    print("\n# E3 tables and tangent-sheaf cohomology")
    regimes = [
        ("Q3", 1, 0, "theta2"),
        ("Gr(4,2)", 1, 0, "theta2"),
        ("Gr(4,2)", 1, 1, "theta2 + eta (computed special value)"),
        ("Gr(4,2)", RT2, 1, "sqrt2 theta2 + eta (published special value)"),
        ("Gr(4,2)", 0, 1, "eta"),
        ("Gr(5,2)", 1, 0, "theta2"),
        ("Gr(5,2)", 0, 1, "eta"),
        ("CP2", 1, 0, "theta2"),
        ("CP3", 1, 0, "theta2"),
    ]
    for name, a, b, label in regimes:
        if name in spaces:
            e3_section(name, a, b, label)

    print(f"\n(total {time.time() - t0:.0f}s)", file=sys.stderr)


if __name__ == "__main__":
    main()
