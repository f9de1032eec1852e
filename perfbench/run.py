"""flagcoh benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload {gate,tables,spectral} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/flagcoh`.  Every operation
runs in a fresh worker process (`worker.py`); workers are started one at a
time from this process, with no pool and no threads, so that two shared
cores give steady timings.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the host, every metric by name and unit, and any wrong answer, and
`perfbench/out/last-<workload>.json` keeps every operation's latency.

--trace 0 runs the number of passes `workloads.passes_for` derives from S
(about S seconds on an uncontended host) and reports the end-to-end
metrics.  Times are reference seconds: wall time scaled by the host speed
each worker measures while it runs (see `hostspeed.py`), so that they repeat
on a shared host whose speed drifts; the wall times are printed beside
them.  An operation's latency is its minimum over the passes.
--trace 1 runs one untraced and one traced pass of the same operations and
reports the per-layer metrics; traced answers must equal the untraced ones.
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
from typing import Dict, List, Optional

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_PROBES = 15         # extra import-only workers for setup_s
HARD_LIMIT_S = 165.0      # the whole invocation stays under 180 s
TAIL_BEYOND = 10          # op_tail_s: the percentile with 10 samples beyond it

# criteria with checks in the gate workload
GATE_CRITERIA = ("1", "1c", "2", "4", "5", "5c", "7", "8")
RREF_STATS = ("rows", "cols", "nnz", "density", "rank_frac", "qsqrt2_frac",
              "max_cells")


def end_to_end_spec() -> List[Dict]:
    """The end-to-end metrics of the result line, which BENCHMARK.json bounds."""
    return [
        {"name": "run_s", "unit": "s"},
        {"name": "peak_rss_mb", "unit": "MB"},
        {"name": "setup_s", "unit": "s"},
    ]


# Printed with every run but not in the result line.  op_p50_s and
# op_tail_s rest on single operations of 30-200 ms, which a stall of the
# vCPU between two probes slows unseen: over ten runs their spread reached
# 11 %, and one run read 30 % high, too close to any bound they could have.
# The wall times are those behind run_s and setup_s, and probe_ms the host
# speed they were scaled by.
REPORTED_ONLY = (
    {"name": "op_p50_s", "unit": "s"},
    {"name": "op_tail_s", "unit": "s"},
    {"name": "wall_run_s", "unit": "s"},
    {"name": "wall_setup_s", "unit": "s"},
    {"name": "probe_ms", "unit": "ms"},
)


def per_layer_spec() -> List[Dict]:
    """Every per-layer metric of a traced run, with unit and direction."""
    out = []
    for name in tracing.traced_names():
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out += [
        {"name": "repdecomp.decompose.char_weights", "unit": "count", "better": "lower"},
        {"name": "repdecomp.irreducible_character.weights", "unit": "count", "better": "lower"},
        {"name": "bott.bott_irreducible.vanish_frac", "unit": "frac", "better": "higher"},
    ]
    for name in tracing.REPEAT_COUNTED:
        out.append({"name": f"{name}.repeat_frac", "unit": "frac", "better": "lower"})
    for stat in RREF_STATS:
        unit = "frac" if stat.endswith("frac") or stat == "density" else "count"
        out.append({"name": f"scalars.rref.{stat}", "unit": unit, "better": "lower"})
    out += [{"name": f"verify.crit-{c}.s", "unit": "s", "better": "lower"}
            for c in GATE_CRITERIA]
    out += [
        {"name": "cli.main.unwrapped_s", "unit": "s", "better": "lower"},
        {"name": "trace_overhead_frac", "unit": "frac", "better": "lower"},
        {"name": "unattributed_frac", "unit": "frac", "better": "lower"},
    ]
    return out


# --- host record ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_record() -> Dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "flags": {k: getattr(sys.flags, k) for k in (
            "optimize", "dev_mode", "no_site", "ignore_environment",
            "hash_randomization")},
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "worker_hash_seed": "0",
    }


# --- workers ----------------------------------------------------------------------

class Budget:
    """Seconds left before an invocation must stop starting workers."""

    def __init__(self, limit_s: float = HARD_LIMIT_S):
        self.deadline = time.monotonic() + limit_s

    def left(self) -> float:
        return self.deadline - time.monotonic()


def worker_env() -> Dict[str, str]:
    """Workers import from this checkout, with a pinned hash seed, and keep
    its bytecode cache next to its sources whatever the caller's settings;
    the standard library's comes with the interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in (
        "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: Dict, budget: Budget) -> Dict:
    """Run one worker to its end; its setup_s is spawn to ready."""
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=worker_env(),
        cwd=str(ROOT), text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, budget.left()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failure": "worker timed out"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        return {"failure": f"worker exited {proc.returncode}: {err.strip()[-400:]}"}
    return json.loads(out.strip().splitlines()[-1])


def run_pass(workload: str, ops: List[Dict], trace: bool, budget: Budget,
             tag: str) -> Dict:
    """One pass: results in order, worker records, wrong answers."""
    golden = oracle.load()
    workers, results, wrong = [], [], []
    spans_out = str(OUT / f"spans-{workload}-{tag}.jsonl") if trace else None
    if workload == "gate":
        res = spawn({"ops": ops, "trace": trace, "spans_out": spans_out}, budget)
        workers.append(res)
        expected = [n for n in golden["gate"] if n not in ops[0]["exclude"]]
        got = {r["id"]: r for r in res.get("results", [])}
        for name in expected:
            r = got.get(name)
            why = res.get("failure", "check did not run") if r is None else \
                oracle.check_gate(golden, r)
            if r is not None:
                results.append(r)
            if why:
                wrong.append((name, why))
        return {"workers": workers, "results": results, "wrong": wrong,
                "attempted": len(expected)}
    for i, op in enumerate(ops):
        op = dict(op, id=op["key"])
        job = {"ops": [op], "trace": trace,
               "spans_out": spans_out and spans_out.replace(".jsonl", f"-{i}.jsonl")}
        res = spawn(job, budget)
        workers.append(res)
        if "results" in res:
            r = dict(res["results"][0], argv=op["argv"])
            results.append(r)
            why = oracle.check_cli(golden, op, r)
        else:
            why = res["failure"]
        if why:
            wrong.append((op["id"], why))
        if budget.left() <= 0:
            wrong += [(o["key"], "not run: time limit reached") for o in ops[i + 1:]]
            break
    return {"workers": workers, "results": results, "wrong": wrong,
            "attempted": len(ops)}


def warm_bytecode_cache() -> Optional[str]:
    """Compile flagcoh and the worker's modules into the workers' bytecode
    cache, so that no timed worker compiles a module, not even one that
    only some operations import.  Returns an error message, or None."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "--invalidation-mode",
         "timestamp", str(SRC / "flagcoh"), str(HERE)],
        env=worker_env(), cwd=str(ROOT), capture_output=True, text=True,
        timeout=120)
    return None if proc.returncode == 0 else proc.stdout[-400:] + proc.stderr[-400:]


def setup_probes(budget: Budget) -> List[Dict]:
    """Import-only workers."""
    return [spawn({"ops": [], "trace": False}, budget) for _ in range(SETUP_PROBES)]


# --- metrics -------------------------------------------------------------------------

def tail(latencies: List[float]):
    """(value, percentile, n): the highest order statistic with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def op_latencies(passes: List[Dict], key=lambda r: r["ref_s"]) -> Dict[str, float]:
    """Each operation's latency: the minimum over the run's passes.

    Contention from other tenants of a shared host only ever slows an
    operation, so the fastest repetition is the steadiest estimate.
    """
    best: Dict[str, float] = {}
    for p in passes:
        for r in p["results"]:
            best[r["id"]] = min(best.get(r["id"], key(r)), key(r))
    return best


def low_quartile(xs: List[float]) -> float:
    return statistics.quantiles(xs, n=4)[0] if len(xs) > 1 else xs[0]


def end_to_end(passes: List[Dict], probes: List[Dict]) -> Dict:
    lat = list(op_latencies(passes).values())
    wall = op_latencies(passes, lambda r: r["wall_s"] - r["probe_s"])
    workers = [w for p in passes for w in p["workers"]] + probes
    ok_workers = [w for w in workers if "setup_s" in w]
    tail_value, tail_pct, n = tail(lat)
    return {
        "run_s": sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mb": max(w["peak_rss_kb"] for w in ok_workers) / 1024.0,
        # the lower quartile over workers: a worker that a busy neighbour
        # slowed more than its probes saw does not move it
        "setup_s": low_quartile([w["setup_s"] for w in ok_workers]),
        "wall_run_s": sum(wall.values()),
        "wall_setup_s": low_quartile([w["setup_wall_s"] for w in ok_workers]),
        "probe_ms": statistics.median(w["probe_ms"] for w in ok_workers),
        "_tail": (tail_pct, n),
        "_passes": len(passes),
    }


def layer_metrics(traced: Dict, untraced_ref_s: float) -> Dict[str, float]:
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, Dict[str, float]] = {}
    max_cells = 0
    top = 0.0
    for w in traced["workers"]:
        for name, a in w.get("spans", {}).items():
            s = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in s:
                s[k] += a[k]
        for name, c in w.get("counts", {}).items():
            d = counts.setdefault(name, {})
            for k, v in c.items():
                d[k] = d.get(k, 0) + v
        max_cells = max(max_cells, w.get("max_cells", 0))
        top += w.get("top_level_s", 0.0)
    # span times are wall times and include the probes, so the identity
    # self times + unattributed = run_s holds for wall time with probes
    run_s = sum(r["wall_s"] for r in traced["results"])
    ref_s = sum(r["ref_s"] for r in traced["results"])

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def frac(num, den):
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for name in tracing.traced_names():
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["repdecomp.decompose.char_weights"] = counts.get(
        "repdecomp.decompose", {}).get("char_weights", 0)
    m["repdecomp.irreducible_character.weights"] = counts.get(
        "repdecomp.irreducible_character", {}).get("weights", 0)
    m["bott.bott_irreducible.vanish_frac"] = frac(
        counts.get("bott.bott_irreducible", {}).get("vanish", 0),
        get("bott.bott_irreducible", "calls"))
    for name in tracing.REPEAT_COUNTED:
        m[f"{name}.repeat_frac"] = frac(counts.get(name, {}).get("repeat", 0),
                                        get(name, "calls"))
    rc = counts.get("scalars.rref", {})
    calls = get("scalars.rref", "calls")
    m["scalars.rref.rows"] = rc.get("rows", 0)
    m["scalars.rref.cols"] = rc.get("cols", 0)
    m["scalars.rref.nnz"] = rc.get("nnz", 0)
    m["scalars.rref.density"] = frac(rc.get("nnz", 0), rc.get("cells", 0))
    m["scalars.rref.rank_frac"] = frac(rc.get("rank", 0), rc.get("rank_room", 0))
    m["scalars.rref.qsqrt2_frac"] = frac(rc.get("qsqrt2", 0), calls)
    m["scalars.rref.max_cells"] = max_cells
    for c in GATE_CRITERIA:
        m[f"verify.crit-{c}.s"] = get(f"verify.crit-{c}", "total_s")
    # cli.main's self time is time in no wrapped function: cli's own work is
    # cli._emit and cli.argparse, and the rest is unwrapped library code
    m["cli.main.unwrapped_s"] = get("cli.main", "self_s")
    m["trace_overhead_frac"] = frac(ref_s, untraced_ref_s) - 1.0
    m["unattributed_frac"] = frac(run_s - top, run_s)
    m["_run_s"] = run_s
    m["_self_sum"] = sum(s["self_s"] for s in spans.values())
    m["_layers"] = layer_shares(spans, run_s)
    m["_per_op"] = {}
    for w in traced["workers"]:
        for op, d in w.get("per_op", {}).items():
            m["_per_op"][op] = d
    return m


def layer_shares(spans: Dict, run_s: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, a in spans.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + a["self_s"]
    return {k: v / run_s for k, v in sorted(out.items(), key=lambda t: -t[1])} if run_s else {}


def dominance_report(workload: str, m: Dict) -> List[str]:
    """The layers each workload is stated to be dominated by, as measured."""
    shares = m["_layers"]
    lines = ["layer self-time shares of traced run_s: " + ", ".join(
        f"{k} {v:.1%}" for k, v in shares.items())]
    if workload == "tables":
        top = max((k for k in shares if k not in ("cli", "verify")),
                  key=shares.get, default=None)
        lines.append(f"largest library layer on tables: {top}")
    if workload == "spectral":
        both = shares.get("liecoh", 0) + shares.get("scalars", 0)
        lines.append(f"liecoh + scalars share on spectral: {both:.1%}")
        for op, d in sorted(m["_per_op"].items()):
            if op.startswith(("d2", "e3 --space Gr(5,2)")):
                fn = max(d, key=d.get)
                lines.append(f"largest self time in `{op}`: {fn} "
                             f"{d[fn] / (sum(d.values()) or 1.0):.1%}")
    return lines


# --- main ------------------------------------------------------------------------------

def refuse(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        return refuse("python -O / PYTHONOPTIMIZE strips the asserts "
                      "spectral.apply_d2 relies on; run without them")
    if not (SRC / "flagcoh" / "__init__.py").is_file():
        return refuse(f"no flagcoh sources under {SRC}; run from a checkout")
    OUT.mkdir(exist_ok=True)

    budget = Budget()
    host = host_record()
    error = warm_bytecode_cache()
    if error:
        return refuse("flagcoh does not compile: " + error)
    probes = setup_probes(budget)
    failed_probes = [p["failure"] for p in probes if "failure" in p]
    if failed_probes:
        return refuse("a worker could not start: " + failed_probes[0])

    passes: List[Dict] = []
    for index in range(1 if args.trace else workloads.passes_for(args.workload, args.seconds)):
        started = time.monotonic()
        ops = workloads.make_pass(args.workload, args.seed, index)
        passes.append(run_pass(args.workload, ops, False, budget, f"p{index}"))
        # on a host too slow for another pass in the time limit, stop early
        if budget.left() < 1.5 * (time.monotonic() - started):
            break
    traced = None
    if args.trace:
        ops = workloads.make_pass(args.workload, args.seed, 0)
        traced = run_pass(args.workload, ops, True, budget, "traced")

    attempted = sum(p["attempted"] for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    if traced is not None:
        attempted += traced["attempted"]
        wrong += [(op, "traced: " + why) for op, why in traced["wrong"]]
        flagged = {op for op, _ in traced["wrong"]}
        plain = {r["id"]: r for r in passes[0]["results"]}
        for r in traced["results"]:
            p = plain.get(r["id"], {})
            if r["id"] not in flagged and \
                    (r.get("payload"), r.get("ok")) != (p.get("payload"), p.get("ok")):
                wrong.append((r["id"], "traced answer differs from untraced"))

    if not any(p["results"] for p in passes):
        for op, why in wrong[:20]:
            print(f"WRONG {op}: {why}", file=sys.stderr)
        return refuse("no operation completed")
    e2e = end_to_end(passes, probes)
    print("host: " + json.dumps(host, sort_keys=True))
    for op, why in wrong[:20]:
        print(f"WRONG {op}: {why}")
    pct, n = e2e["_tail"]
    print(f"workload {args.workload}, seed {args.seed}: {e2e['_passes']} pass(es), "
          f"{attempted} operations")
    print(f"wrong_frac = {len(wrong) / max(attempted, 1):.4f} "
          f"({len(wrong)} of {attempted} operations wrong)")
    for spec in end_to_end_spec() + list(REPORTED_ONLY):
        note = f" (p{pct:.1f} of {n} operations)" if spec["name"] == "op_tail_s" else ""
        print(f"{spec['name']} = {e2e[spec['name']]:.6g} {spec['unit']}{note}")

    if traced is not None:
        lm = layer_metrics(traced, sum(r["ref_s"] for r in passes[0]["results"]))
        unattributed = lm["_run_s"] * lm["unattributed_frac"]
        print(f"traced wall run_s {lm['_run_s']:.4f} s = span self times "
              f"{lm['_self_sum']:.4f} s + unattributed {unattributed:.4f} s; "
              f"trace_overhead_frac {lm['trace_overhead_frac']:.4f}")
        for line in dominance_report(args.workload, lm):
            print(line)
        metrics = {s["name"]: {"value": lm[s["name"]], "unit": s["unit"]}
                   for s in per_layer_spec()}
    else:
        metrics = {s["name"]: {"value": e2e[s["name"]], "unit": s["unit"]}
                   for s in end_to_end_spec()}
    result = {"correct": not wrong, "attempted": attempted,
              "failed": len(wrong), "metrics": metrics}
    record = {"args": vars(args), "host": host, "result": result, "wrong": wrong,
              "latencies": [[(r["id"], r.get("argv"), r["ref_s"], r["wall_s"])
                             for r in p["results"]] for p in passes]}
    with open(OUT / f"last-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
