"""Regenerate `golden.json`: the answer of every unscaled benchmark query and
the verdict of every gate check, computed by the code in this checkout.

    python3 perfbench/make_golden.py

Run it only when an answer is meant to change; the benchmark compares every
operation against this file.
"""

import json
import sys
from fractions import Fraction

import oracle
import run
import workloads


def main() -> int:
    budget = run.Budget(limit_s=3600.0)
    gate = run.spawn({"ops": [{"kind": "gate", "exclude": []}], "trace": False}, budget)
    golden = {"gate": {r["id"]: r["ok"] for r in gate["results"]}, "cli": {}}
    for name in ("tables", "spectral"):
        for op in workloads.base_ops(name):
            if "query" in op:
                op["argv"] = workloads.scaled_argv(op.pop("query"), Fraction(1))
            res = run.spawn({"ops": [dict(op, id=op["key"])], "trace": False}, budget)
            r = res["results"][0]
            if r["error"]:
                print(f"{op['key']}: {r['error']}", file=sys.stderr)
                return 1
            golden["cli"][op["key"]] = {
                "rc": r["rc"], "answer": oracle.normalize(op["argv"], r["payload"])}
    with open(oracle.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
