"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_nested_trace():
    # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,8]
    spans = [
        ("op", "a", 0.0, 10.0, -1),
        ("op", "b", 1.0, 4.0, 0),
        ("op", "c", 5.0, 9.0, 0),
        ("op", "d", 6.0, 8.0, 2),
        ("op", "b", 11.0, 12.5, -1),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.5]
    agg = tracing.aggregate(spans)
    assert agg["b"] == {"calls": 2, "self_s": 4.5, "total_s": 4.5}
    assert sum(a["self_s"] for a in agg.values()) == tracing.top_level_s(spans) == 11.5


def _binding_sites():
    import flagcoh.cli  # noqa: F401 - loads every flagcoh module
    mods = [sys.modules[m] for m in sorted(sys.modules) if m.startswith("flagcoh.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v) and not isinstance(v, type)}


def test_wrappers_cover_every_binding_site_and_restore_it():
    from flagcoh import liecoh, rootsys, scalars
    before = _binding_sites()
    method = vars(liecoh.GModuleBasis)["bracket_coords"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _binding_sites()
        for mod in ("flagcoh.liecoh", "flagcoh.invforms", "flagcoh.superfields"):
            site = (mod, "solve" if mod == "flagcoh.liecoh" else
                    "rank" if mod == "flagcoh.invforms" else "nullspace")
            assert during[site] is not before[site]
            assert during[site].__wrapped__ is before[site]
        assert during[("flagcoh.bott", "decompose")].__wrapped__ is \
            before[("flagcoh.repdecomp", "decompose")]
        assert during[("flagcoh.spectral", "d2_rank_on_vector_fields")] is \
            during[("flagcoh.liecoh", "d2_rank_on_vector_fields")]
        assert vars(liecoh.GModuleBasis)["bracket_coords"].__wrapped__ is method
        assert hasattr(vars(rootsys.RootDatum)["dominant_representative"], "__wrapped__")
        tracer.active = True
        one, two = Fraction(1), Fraction(2)
        assert scalars.rank([[one, two], [two, 2 * two]]) == 1
        assert [s[1] for s in tracer.spans] == ["scalars.rank", "scalars.rref"]
    finally:
        tracer.uninstall()
    assert _binding_sites() == before
    assert vars(liecoh.GModuleBasis)["bracket_coords"] is method


def _e3_op(golden, key):
    op = next(o for o in workloads.base_ops("spectral") if o["key"] == key)
    return dict(op, argv=workloads.scaled_argv(op["query"], 1)), golden["cli"][key]


def test_oracle_flags_a_wrong_h1_dimension():
    golden = oracle.load()
    op, want = _e3_op(golden, "e3 --space Gr(4,2) --a 1 --b 0")
    payload = copy.deepcopy(want["answer"])
    result = {"rc": 0, "payload": payload, "error": None}
    assert oracle.check_cli(golden, op, result) is None
    payload["H1"]["even"] += 1
    assert "differs" in oracle.check_cli(golden, op, result)
    result["rc"] = 2
    assert "exit code" in oracle.check_cli(golden, op, result)


def test_oracle_flags_a_flipped_gate_verdict():
    golden = oracle.load()
    assert sum(golden["gate"].values()) == 37 and len(golden["gate"]) == 47
    assert oracle.check_gate(golden, {"id": "7.I[Q3]", "ok": False}) is None
    assert oracle.check_gate(golden, {"id": "7.I[Q3]", "ok": True})
    assert oracle.check_gate(golden, {"id": "4.exterior", "ok": False})


def test_a_seed_changes_order_and_lambda_but_not_answers():
    import contextlib
    import io

    import flagcoh.cli
    golden = oracle.load()
    a = workloads.make_pass("spectral", 1, 0)
    b = workloads.make_pass("spectral", 2, 0)
    assert a == workloads.make_pass("spectral", 1, 0)
    assert [o["key"] for o in a] != [o["key"] for o in b]
    assert {o["key"]: o["lam"] for o in a} != {o["key"]: o["lam"] for o in b}
    cheap = ("e3 --space Gr(4,2) --a rt2 --b 1", "e3 --space CP2 --a 1 --b 0")
    for ops in (a, b):
        for op in ops:
            if op["key"] not in cheap:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = flagcoh.cli.main(op["argv"])
            result = {"rc": rc, "payload": json.loads(out.getvalue()), "error": None}
            assert oracle.check_cli(golden, dict(op, id=op["key"]), result) is None


def test_scalar_literals_parse_back():
    from flagcoh.scalars import QSqrt2, parse_scalar
    for x in ((1, 0), (0, -1), (-3, 2), (1, -1)):
        x = tuple(map(Fraction, x))
        assert parse_scalar(workloads.format_scalar(x)) == QSqrt2(*x)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and pct == pytest.approx(75.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [m["name"] for m in run.per_layer_spec()]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {m["name"] for m in run.end_to_end_spec()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_time_scales_wall_time_by_probe_speed():
    half = hostspeed.PROBE_REF_S * 2     # every probe at half speed
    probes = [(0.1 * k, half) for k in range(1, 10)]
    t = hostspeed.timed(0.0, 1.0, probes)
    assert t["probe_s"] == pytest.approx(9 * half)
    assert t["ref_s"] == pytest.approx((1.0 - 9 * half) / 2)
    # too few probes inside: the nearest ones set the speed
    t = hostspeed.timed(0.42, 0.44, probes)
    assert t["probe_s"] == 0 and t["ref_s"] == pytest.approx(0.01)
