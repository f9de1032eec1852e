#!/usr/bin/env python3
"""Emit every desk-scale table this library computes, as markdown, through
the flagcoh CLI: cohomology-table for each space, forms for each
Grassmannian Gr(n,s) with 2 <= s <= n-2, and e3 for each regime of the
acceptance gate plus the computed special value theta2 + eta on Gr(4,2).

Usage: python scripts/run_tables.py [--spaces "Gr(4,2),Q3,..."]
"""

import argparse
import sys
import time

from flagcoh import bott, cli
from flagcoh.bott import DESK_PRESETS, space_from_preset
from flagcoh.verify import C7_REGIMES

# (space, a, b) of theta = a theta2 + b eta
E3_REGIMES = [(nm, a, b) for _, nm, a, b, *_ in C7_REGIMES] + [("Gr(4,2)", 1, 1)]


def _markdown(*argv):
    print()
    if cli.main(["--format", "markdown", *argv]) != 0:
        sys.exit(f"flagcoh {' '.join(argv)} failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spaces", default=",".join(DESK_PRESETS))
    spaces = cli.parse_space_list(ap.parse_args().spaces)

    t0 = time.time()
    print("# Bundle cohomology tables (computed, exact)")
    for name in spaces:
        _markdown("cohomology-table", "--space", name)

    print("\n# Invariant-form products and nilpotent pairs")
    for name in spaces:
        rs = bott.grassmannian_rs(space_from_preset(name))
        if rs is not None and min(rs) >= 2:
            _markdown("forms", "--space", name)

    print("\n# E3 tables and tangent-sheaf cohomology")
    for name, a, b in E3_REGIMES:
        if name in spaces:
            _markdown("e3", "--space", name, "--a", repr(a), "--b", repr(b))

    print(f"\n(total {time.time() - t0:.0f}s)", file=sys.stderr)


if __name__ == "__main__":
    main()
