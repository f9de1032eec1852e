"""The acceptance gate as a test module: every criterion check from
flagcoh.verify runs exactly once and prints one pass/fail line.

Checks suffixed `-published` / named `1.tables[...]`, `5.products-published`,
`5.nilpotent-published-sqrt2`, `7.I[Q3]`, `7.II-generic[Gr(5,2)]` and
`7.II-special-sqrt2[Gr(4,2)]` assert published table entries exactly as
stated.  Five spaces' tables and three product identities are disproved by
the exact computation (see README errata and the verified deviation
registry); those tests stay red by design rather than silently weakening
the criteria.  The `*c.*-computed` twins pin the verified values.
"""

import json
import time
from pathlib import Path

import pytest

from flagcoh import verify

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all.json"

_CHECKS = verify.all_checks()
_RESULTS = {}


def _run(crit, name, fn):
    if name not in _RESULTS:
        t0 = time.perf_counter()
        ok, detail = fn()
        _RESULTS[name] = (ok, detail, time.perf_counter() - t0)
    return _RESULTS[name]


@pytest.mark.parametrize(
    "crit,name,fn", _CHECKS, ids=[name for _, name, _ in _CHECKS]
)
def test_criterion(crit, name, fn):
    ok, detail, seconds = _run(crit, name, fn)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({seconds:.1f}s): {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion9_runtime_budget():
    """The whole gate, run sequentially above, fits the 10-minute budget."""
    # force everything to have run
    for crit, name, fn in _CHECKS:
        _run(crit, name, fn)
    total = sum(sec for _, _, sec in _RESULTS.values())
    print(f"[INFO] acceptance gate total compute time: {total:.0f}s")
    assert total < 600, f"acceptance gate took {total:.0f}s"


def test_verdicts_and_details_match_golden():
    """Every check's verdict and detail, from the runs above, equal the ones
    recorded in tests/golden/verify_all.json."""
    for crit, name, fn in _CHECKS:
        _run(crit, name, fn)
    got = {name: [ok, detail] for name, (ok, detail, _) in _RESULTS.items()}
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))
