"""One benchmark worker: a fresh interpreter that imports flagcoh, notes when
it is ready, reads a job (JSON) on stdin, runs its operations and prints one
JSON result line on stdout.

Run by `run.py` with PYTHONPATH pointing at the checkout's `src`.  A job is
{"ops": [...], "trace": bool, "spans_out": path or null, "spawned": t}, t
being `run.py`'s `time.monotonic()` when it started this process.  An
operation is a CLI query ({"kind": "cli", "argv": [...]}) or the gate
({"kind": "gate", "exclude": [names]}), whose other checks run in gate
order.
"""

import time

import hostspeed

# probes run from before the import, so that they cover the set-up interval
hostspeed.start()

import flagcoh.cli  # noqa: E402
import flagcoh.verify  # noqa: E402

READY = time.monotonic()
hostspeed.probe()  # one probe at least, however short the import was

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402


def _scalar(d):
    from flagcoh.scalars import QSqrt2
    return QSqrt2(Fraction(d["rat"]), Fraction(d["rt2"]))


def witness_checked(payload) -> bool:
    """Substitution check of a `d2` coboundary witness: delta(w) == c."""
    from flagcoh import bott, liecoh
    H = bott.space_from_preset(payload["space"])
    gb = liecoh.build_g_basis(H)
    a, b = _scalar(payload["a"]), _scalar(payload["b"])
    c = liecoh.cochain_from_form(gb, liecoh.theta_form(gb, a, b))
    data = {int(k): [_scalar(x) for x in vec]
            for k, vec in payload["coboundary_witness"].items()}
    w = liecoh.Cochain(gb, 0, data)
    return (liecoh.ce_differential(w) - c).is_zero()


def run_cli(tracer, op):
    out = io.StringIO()
    result = {"error": None}
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            rc = tracer.call("cli.main", flagcoh.cli.main, op["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - a raising query is a wrong answer
        rc, result["error"] = None, traceback.format_exc()
    result.update(hostspeed.timed(t0, time.monotonic()))
    result["rc"] = rc
    tracer.active = False
    try:
        payload = json.loads(out.getvalue()) if rc == 0 else None
        if payload and payload.get("coboundary_witness") is not None:
            payload["coboundary_witness"] = {"checked": witness_checked(payload)}
    except Exception:  # noqa: BLE001
        payload, result["error"] = None, traceback.format_exc()
    result["payload"] = payload
    return result


def run_gate(tracer, op):
    results = []
    for job in flagcoh.verify.all_checks():
        crit, name, _ = job
        if name in op["exclude"]:
            continue
        tracer.op = name
        t0 = time.monotonic()
        r = tracer.call(f"verify.crit-{crit}", flagcoh.verify._run_one, job)
        error = r.detail if r.detail.startswith("exception") else None
        results.append(dict(hostspeed.timed(t0, time.monotonic()), id=name,
                            ok=r.ok, error=error))
    return results


def main() -> int:
    if sys.flags.optimize:
        print("error: the worker must not run under -O", file=sys.stderr)
        return 2
    job = json.loads(sys.stdin.read())
    tracer = tracing.Tracer()
    if job["trace"]:
        tracer.install()
    results = []
    for op in job["ops"]:
        tracer.op = op.get("id", "")
        tracer.active = job["trace"]
        if op["kind"] == "gate":
            results += run_gate(tracer, op)
        else:
            results.append(dict(run_cli(tracer, op), id=op["id"]))
        tracer.active = False
    tracer.uninstall()
    hostspeed.stop()
    setup = hostspeed.timed(job["spawned"], READY)
    out = {"setup_s": setup["ref_s"], "setup_wall_s": setup["wall_s"],
           "probe_ms": hostspeed.median_probe_ms(),
           "results": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if job["trace"]:
        out["spans"] = tracing.aggregate(tracer.spans)
        out["top_level_s"] = tracing.top_level_s(tracer.spans)
        out["counts"] = {k: dict(v) for k, v in tracer.counts.items()}
        out["max_cells"] = tracer.max_cells
        out["per_op"] = per_op_shares(tracer.spans)
        if job.get("spans_out"):
            with open(job["spans_out"], "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps(out))
    return 0


def per_op_shares(spans):
    """Per operation: self seconds of each span name."""
    out = {}
    for s, st in zip(spans, tracing.self_times(spans)):
        d = out.setdefault(s[0], {})
        d[s[1]] = d.get(s[1], 0.0) + st
    return out


if __name__ == "__main__":
    sys.exit(main())
