import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUERIES = json.loads((ROOT / "tests" / "golden" / "queries.json").read_text(encoding="utf-8"))

# What python -O replays in process: every CLI golden, the gate's verdicts
# and details, and the two ValueErrors that must not live in an assert.
OPTIMIZED_TESTS = (
    "tests/test_cli.py::test_queries_match_golden_output",
    "tests/test_acceptance.py::test_verdicts_and_details_match_golden",
    "tests/test_exterior.py::test_inhomogeneous_j_map_raises_with_and_without_python_O[plain]",
    "tests/test_scalars.py::test_nested_qsqrt2_takes_no_second_part",
)
OPTIMIZED_CLI_QUERY = "pi-grassmannian --n 4 --s 2"


class OptimizedRun:
    """The outcome of each test of OPTIMIZED_TESTS under python -O, keyed
    like "tests.test_cli::test_queries_match_golden_output[forms --space
    Gr(4,2)]", pytest's exit code and output tail, and the rc, stdout and
    stderr of the golden query cli_key run as python -O -m flagcoh.cli."""

    def __init__(self, rc, tail, outcomes, cli):
        self.rc, self.tail, self.outcomes, self.cli = rc, tail, outcomes, cli
        self.cli_key = OPTIMIZED_CLI_QUERY

    def passed(self, test_id):
        return self.outcomes.get(test_id) == "passed"

    def golden(self, key):
        """The recorded entry of golden query `key`, once its replay under
        -O passed."""
        assert self.passed(f"tests.test_cli::test_queries_match_golden_output[{key}]"), key
        return QUERIES[key]


def _outcome(case):
    for tag, outcome in (("failure", "failed"), ("error", "failed"), ("skipped", "skipped")):
        if case.find(tag) is not None:
            return outcome
    return "passed"


@pytest.fixture(scope="session")
def under_python_O(tmp_path_factory):
    """python -O drops assert statements and `if __debug__` blocks, so the
    in-process checks of OPTIMIZED_TESTS run once more under -O, through
    pytest, whose rewritten asserts still run there, and one golden query
    runs as `python -O -m flagcoh.cli`.  Both runs happen once per session."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    report = tmp_path_factory.mktemp("python_O") / "junit.xml"
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *OPTIMIZED_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True)
    outcomes = ({f"{case.get('classname')}::{case.get('name')}": _outcome(case)
                 for case in ET.parse(report).iter("testcase")}
                if report.exists() else {})
    cli = subprocess.run([sys.executable, "-O", "-m", "flagcoh.cli",
                          *OPTIMIZED_CLI_QUERY.split(" ")],
                         env=env, capture_output=True, text=True)
    return OptimizedRun(run.returncode, run.stdout[-3000:], outcomes,
                        {"rc": cli.returncode, "stdout": cli.stdout, "stderr": cli.stderr})
