"""Golden answers and the check of every operation's answer against them.

`golden.json` was generated once by `make_golden.py` from the unscaled
queries.  Only fields a rescaling of theta cannot change are compared.  A
`d2` coboundary witness is a particular solution that another correct
solver may choose differently, so the worker checks it by substitution and
only that verdict is compared.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

E3_FIELDS = ("space", "E2", "E3", "H0", "H1", "flag_32", "notes")
D2_FIELDS = ("space", "rank", "dim_g", "coboundary_witness")


def load() -> Dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def normalize(argv, payload):
    """The comparable part of a CLI answer."""
    if payload is None:
        return None
    if argv[0] == "e3":
        return {k: payload[k] for k in E3_FIELDS}
    if argv[0] == "d2":
        return {k: payload[k] for k in D2_FIELDS}
    return payload


def check_cli(golden: Dict, op: Dict, result: Dict) -> Optional[str]:
    """None when the answer is right, else why it is wrong."""
    want = golden["cli"].get(op["key"])
    if want is None:
        return f"no golden answer for {op['key']!r}"
    if result.get("error"):
        return "raised: " + result["error"].strip().splitlines()[-1]
    if result["rc"] != want["rc"]:
        return f"exit code {result['rc']} != {want['rc']}"
    got = normalize(op["argv"], result["payload"])
    if got != want["answer"]:
        return "answer differs from the golden answer"
    return None


def check_gate(golden: Dict, result: Dict) -> Optional[str]:
    want = golden["gate"].get(result["id"])
    if want is None:
        return f"no golden verdict for {result['id']!r}"
    if result.get("error"):
        return result["error"]
    if result["ok"] != want:
        return f"verdict {'PASS' if result['ok'] else 'FAIL'} != golden"
    return None
