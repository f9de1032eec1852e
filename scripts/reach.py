"""The functions of src/flagcoh that no product path enters.

    python3 scripts/reach.py

Replays, in this process, every `tests/golden/queries.json` entry (its key
split on spaces, as `tests/test_cli.py::test_queries_match_golden_output`
splits it) and then `verify-all`, under a trace of calls only that is set
before `flagcoh` is imported, so the calls made at import count too.  It
prints the `module.qualname` of every function of src/flagcoh, nested
functions and lambdas included, that no replay entered, one per line in
sorted order.  `tests/test_reach.py` compares that list with a committed
one.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flagcoh"
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def functions(path: Path) -> set:
    """(qualname, first line) of every function compiled from path; module
    and class bodies are not optimized code, and comprehensions are skipped."""
    out = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if isinstance(const, CodeType):
                todo.append(const)
                if const.co_flags & CO_OPTIMIZED and const.co_name not in _COMPREHENSIONS:
                    out.add((const.co_qualname, const.co_firstlineno))
    return out


def unentered() -> list:
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_qualname, code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        from flagcoh.cli import main

        queries = json.loads((ROOT / "tests" / "golden" / "queries.json")
                             .read_text(encoding="utf-8"))
        for argv in [key.split(" ") for key in sorted(queries)] + [["verify-all"]]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except SystemExit:
                    pass
    finally:
        sys.settrace(None)
    return sorted({f"{path.stem}.{qualname}"
                   for path in SRC.glob("*.py")
                   for qualname, line in functions(path)
                   if (str(path), qualname, line) not in entered})


if __name__ == "__main__":
    print(*unentered(), sep="\n")
