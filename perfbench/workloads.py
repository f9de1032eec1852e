"""The benchmark's workloads: which operations one pass runs, and how the
seed turns them into concrete inputs.

An operation is one CLI query (run cold, in its own worker process) or one
acceptance-gate check (run in a single worker, in gate order, so the
library's in-process caches are reused across checks as in
`flagcoh verify-all`).

The seed permutes the order of a pass and, for `e3`/`d2` queries, rescales
the theta parameter (a, b) by a nonzero small-height rational lambda.  The
gate's checks are fixed, so `gate` ignores the seed.  A
rescaling changes no rank, E2/E3 table or H^0/H^1 dimension, so the golden
answers are keyed by the unscaled query.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

# (rational part, rt2 part) of a scalar a + b*sqrt(2)
Scalar = Tuple[Fraction, Fraction]

ONE: Scalar = (Fraction(1), Fraction(0))
ZERO: Scalar = (Fraction(0), Fraction(0))
RT2: Scalar = (Fraction(0), Fraction(1))

LAMBDAS = tuple(Fraction(s) for s in (
    "1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "1/3", "-1/3",
    "3/2", "-3/2", "2/3", "-2/3",
))

TABLE_SPACES = ("CP2", "CP3", "Q3", "Q5", "Gr(4,2)", "Gr(5,2)", "Gr(5,3)",
                "Gr(6,3)", "LG3", "S-D4")
INVARIANT_SPACES = ("Q5", "Gr(5,2)", "Gr(5,3)", "LG3", "S-D4", "Gr(6,3)")
INVARIANT_PQ = ((2, 1), (3, 2), (4, 3))

# (command, space, a, b).  The e3 query on Gr(5,2) is the 390x354 adjoint
# solve, nearly all of it dense elimination in `scalars.rref`.  The d2
# queries on Gr(5,2) run the same coboundary solve once over a rational and
# once over a Q(sqrt2) parameter; the one on Gr(5,3) is dominated by
# building the equivariant system, and the one on Gr(4,2) returns a
# coboundary witness.  The e3 queries on Gr(5,2) over Q(sqrt2), LG3 and
# S-D4 are left out: each takes another 10-20 s, which a run of the
# benchmark has no room for.
SPECTRAL_QUERIES: Tuple[Tuple[str, str, Scalar, Scalar], ...] = (
    ("e3", "Gr(5,2)", ZERO, ONE),
    ("d2", "Gr(5,2)", ZERO, ONE),
    ("d2", "Gr(5,2)", RT2, ONE),
    ("d2", "Gr(5,3)", ONE, ZERO),
    ("d2", "Gr(4,2)", ZERO, ONE),
    ("e3", "Gr(4,2)", ONE, ZERO),
    ("e3", "Gr(4,2)", ZERO, ONE),
    ("e3", "Gr(4,2)", RT2, ONE),
    ("e3", "Gr(4,2)", ONE, ONE),
    ("e3", "Q3", ONE, ZERO),
    ("e3", "Q5", ONE, ZERO),
    ("e3", "CP2", ONE, ZERO),
    ("e3", "CP3", ONE, ZERO),
)

# Gate checks left out of the `gate` workload.  The whole gate takes about
# 90 s on a 2-core host, more than one run of the benchmark may take.  The
# checks kept still exercise every layer.  Left out are the Gr(6,3)
# Freudenthal peeling (measured by `tables`), the Gr(5,2) d2 and adjoint
# solves and the checks that reuse their cached verdicts (the d2 solves are
# measured by `spectral`), and the three heaviest invariant-form checks.
GATE_EXCLUDED = (
    "1.tables[Gr(6,3)]",
    "1c.tables-computed[Gr(6,3)]",
    "2.dual-route[Gr(6,3)]",
    "3.k-values",
    "5.theta-products",
    "5.relations-ranks",
    "5c.nilpotent-computed",
    "6.d2-ranks",
    "7.II-generic[Gr(5,2)]",
    "7.II-eta[Gr(5,2)]",
    "7.pq-consistency",
    "7c.computed-deviations",
)

WORKLOADS = ("gate", "tables", "spectral")

# Seconds of --seconds that one pass stands for, on an uncontended 2-core
# host.  --seconds 20, as BENCHMARK.json sets it, gives one pass of each
# workload.  The number of passes follows from --seconds alone, so it, and
# the minimum taken over the passes, does not depend on how busy the host
# happens to be.
NOMINAL_PASS_S = {"gate": 21.0, "tables": 12.0, "spectral": 23.0}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def format_scalar(x: Scalar) -> str:
    """A literal `flagcoh` parses back to x, e.g. '-3/2*rt2' or '1-2*rt2'."""
    rat, rt2 = x
    if not rt2:
        return str(rat)
    tail = "rt2" if abs(rt2) == 1 else f"{abs(rt2)}*rt2"
    if not rat:
        return ("-" if rt2 < 0 else "") + tail
    return f"{rat}{'-' if rt2 < 0 else '+'}{tail}"


def _scale(lam: Fraction, x: Scalar) -> Scalar:
    return (lam * x[0], lam * x[1])


def scaled_argv(query, lam: Fraction) -> List[str]:
    cmd, space, a, b = query
    return [cmd, "--space", space, f"--a={format_scalar(_scale(lam, a))}",
            f"--b={format_scalar(_scale(lam, b))}"]


def spectral_key(cmd: str, space: str, a: Scalar, b: Scalar) -> str:
    return f"{cmd} --space {space} --a {format_scalar(a)} --b {format_scalar(b)}"


def base_ops(workload: str) -> List[Dict]:
    """The unscaled operations of one pass, in canonical order."""
    if workload == "gate":
        return [{"kind": "gate", "exclude": list(GATE_EXCLUDED)}]
    if workload == "tables":
        ops = [{"key": f"cohomology-table --space {s}",
                "argv": ["cohomology-table", "--space", s]}
               for s in TABLE_SPACES]
        ops += [{"key": f"invariants --space {s} --p {p} --q {q}",
                 "argv": ["invariants", "--space", s, "--p", str(p), "--q", str(q)]}
                for s in INVARIANT_SPACES for p, q in INVARIANT_PQ]
        return [dict(op, kind="cli") for op in ops]
    if workload == "spectral":
        return [{"kind": "cli", "key": spectral_key(*q), "query": q}
                for q in SPECTRAL_QUERIES]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def make_pass(workload: str, seed: int, index: int) -> List[Dict]:
    """The operations of pass `index` for `seed`: same seed, same inputs."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = []
    for op in base_ops(workload):
        op = dict(op)
        if "query" in op:
            lam = rng.choice(LAMBDAS)
            op["lam"] = str(lam)
            op["argv"] = scaled_argv(op.pop("query"), lam)
        ops.append(op)
    rng.shuffle(ops)
    return ops
