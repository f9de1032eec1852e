"""Alternating parent/change runs of perfbench/run.py, summarised in one JSON.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
        [--first-seed S] [--held-out WORKLOAD]

DIR is the root of a checkout (one with `src/flagcoh` and `perfbench`).
Every workload runs ten pairs of `perfbench/run.py --seconds 20`; pair k
runs both checkouts on seed S + k (S = --first-seed, 101 by default), the
parent checkout first on even k and the change checkout first on odd k, so
that a drift in host speed does not favour either side.  With --held-out,
the named workload then runs ten more pairs the same way on the ten seeds
after those, S + 10 to S + 19, which checks a claim on seeds not used while
the change was built; they go into the record as `held_out`.  For each
workload and each end-to-end metric the record holds every run's value, the
median and quartiles per side, and the number of pairs in which the change
checkout was lower.  On `gate` it
also keeps each check's latency (its minimum over a run's passes), and on
every workload the per-layer metrics of one traced run per checkout
(`traced`).  Last, the change
checkout's test suite runs once, and its wall time, summary line, ten
slowest tests and the node id of every failed test go into the record, each
failed id marked whether it is a red-by-design gate check (one whose verdict
`tests/golden/verify_all.json` records as failing); beside them goes the
line count of each checkout's `src/flagcoh` (`src_lines`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import cpu_model  # noqa: E402 - perfbench is a directory of scripts

METRICS = ("run_s", "peak_rss_mb", "setup_s")
REPORTED = ("probe_ms", "wall_run_s")
WORKLOADS = ("gate", "tables", "spectral")
PAIRS = 10
SECONDS = 20


def bench(root: Path, workload: str, seed: int, trace: int = 0):
    """stdout lines of one perfbench invocation in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()


def run_once(root: Path, workload: str, seed: int) -> Dict:
    """One perfbench invocation: its result line, printed figures and the
    per-operation latencies of its record."""
    lines = bench(root, workload, seed)
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        name, eq, rest = line.partition(" = ")
        if eq and name in REPORTED:
            printed[name] = float(rest.split()[0])
    record = json.loads((root / "perfbench" / "out" / f"last-{workload}.json").read_text())
    ops: Dict[str, float] = {}
    for passed in record["latencies"]:
        for op, _argv, ref_s, _wall in passed:
            ops[op] = min(ops.get(op, ref_s), ref_s)
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            **{m: result["metrics"][m]["value"] for m in METRICS}, **printed,
            "ops": ops}


def spread(xs: List[float]) -> Dict:
    q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "values": xs}


def run_pairs(parent: Path, change: Path, workload: str, seeds: List[int]
              ) -> Dict[str, List[Dict]]:
    """One `run_once` per checkout and seed, alternating which runs first."""
    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(parent if side == "parent" else change, workload, seed))
        print(f"{workload} pair {k} (seed {seed}): run_s parent {runs['parent'][-1]['run_s']:.4f}"
              f" change {runs['change'][-1]['run_s']:.4f}", file=sys.stderr)
    return runs


def summarise(runs: Dict[str, List[Dict]], workload: str) -> Dict:
    parent, change = runs["parent"], runs["change"]
    out: Dict = {"pairs": len(parent),
                 "all_correct": all(r["correct"] for r in parent + change),
                 "failed_operations": {side: sum(r["failed"] for r in rs)
                                       for side, rs in runs.items()},
                 "metrics": {}}
    for m in METRICS + REPORTED:
        out["metrics"][m] = {
            "parent": spread([r[m] for r in parent]),
            "change": spread([r[m] for r in change]),
            "change_lower_in_pairs": sum(a[m] < b[m] for a, b in zip(change, parent)),
        }
    if workload == "gate":
        names = sorted(parent[0]["ops"])
        out["checks_ref_s_median"] = {
            op: {"parent": statistics.median(r["ops"][op] for r in parent),
                 "change": statistics.median(r["ops"][op] for r in change)}
            for op in names if all(op in r["ops"] for r in parent + change)}
    return out


def src_lines(root: Path) -> int:
    """Lines of the Python files in root/src/flagcoh, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "flagcoh").glob("*.py"))


def tier1(root: Path) -> Dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=10"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.splitlines()
    head = next(i for i, line in enumerate(lines) if "slowest 10 durations" in line)
    durations = [line for line in lines[head + 1:head + 11] if line.strip()]
    golden = json.loads((root / "tests" / "golden" / "verify_all.json").read_text(
        encoding="utf-8"))
    red = {f"tests/test_acceptance.py::test_criterion[{name}]"
           for name, (ok, _) in golden.items() if not ok}
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return {"command": "python -m pytest -q -rfE --continue-on-collection-errors --durations=10",
            "wall_s": round(wall, 1), "summary": lines[-1].strip("= "),
            "failed": [{"id": f, "red_by_design": f in red} for f in failed],
            "durations": durations}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--first-seed", type=int, default=101,
                    help="seed of the first pair; pair k runs on first seed + k")
    ap.add_argument("--held-out", choices=WORKLOADS,
                    help="a workload to run ten more pairs of, on the ten seeds after")
    args = ap.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))

    record: Dict = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {SECONDS}",
        "seeds": seeds,
        "order": "parent first on even pairs, change first on odd pairs",
        "python": sys.version.split()[0],
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "workloads": {},
    }
    for workload in WORKLOADS:
        record["workloads"][workload] = summarise(
            run_pairs(args.parent, args.change, workload, seeds), workload)
    if args.held_out:
        held_out = [seed + PAIRS for seed in seeds]
        record["held_out"] = {"workload": args.held_out, "seeds": held_out, **summarise(
            run_pairs(args.parent, args.change, args.held_out, held_out), args.held_out)}
    record["traced"] = {workload: {
        "seed": seeds[0],
        **{side: {k: v["value"] for k, v in json.loads(
            bench(root, workload, seeds[0], trace=1)[-1])["metrics"].items()}
           for side, root in (("parent", args.parent), ("change", args.change))}}
        for workload in WORKLOADS}
    record["tier1"] = tier1(args.change)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
