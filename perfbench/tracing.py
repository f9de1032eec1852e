"""Spans around flagcoh's layer functions, installed from outside the library.

`install` replaces each listed function at every place it is bound: the
defining module, every `from .x import f` copy (aliases included) in the
other flagcoh modules, and the class attribute for methods; it also wraps
the argparse methods `flagcoh.cli` builds and runs its parser with.
`uninstall` puts the originals back.  Spans are kept in memory as tuples
(op, name, start, end, parent) and written out by the caller at the end.
"""

from __future__ import annotations

import argparse
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "rootsys": ("build_root_system", "RootDatum.dominant_representative"),
    "repdecomp": ("decompose", "irreducible_character", "tensor", "exterior_power"),
    "bott": ("space_from_preset", "cohomology_omega_p_theta",
             "invariant_dimension", "bott_irreducible"),
    "scalars": ("rref", "solve", "nullspace", "rank"),
    "liecoh": ("build_g_basis", "GModuleBasis.bracket_coords",
               "invariant_zero_cochains", "ce_differential",
               "is_invariant_coboundary", "two_cochain_is_coboundary",
               "d2_rank_on_vector_fields", "d2_vanishes_on_adjoint_at_01"),
    "spectral": ("assemble_E2", "apply_d2", "cohomology_of_T"),
    "invforms": ("barwedge_inv", "rank_of", "independent_coefficients",
                 "nilpotent_pairs", "theta_p", "eta", "eta1", "eta2", "eta3"),
    "exterior": ("bracket", "apply_derivation", "j_map", "contraction_c",
                 "decompose_im_j_ker_c"),
    "superfields": ("qn_bracket", "fundamental_field", "bracket",
                    "homomorphism_check", "kernel_of_action",
                    "transitivity_at_origin"),
    "cli": ("_emit",),
}

# cli's own work besides writing its output: building the argument parser
# and parsing argv, all under one span name
ARGPARSE = "cli.argparse"
ARGPARSE_METHODS = ((argparse.ArgumentParser, "__init__"),
                    (argparse.ArgumentParser, "parse_args"),
                    (argparse._ActionsContainer, "add_argument"))

# functions whose repeated arguments within one worker are counted
REPEAT_COUNTED = ("bott.space_from_preset", "liecoh.build_g_basis",
                  "liecoh.d2_rank_on_vector_fields")

Span = Tuple[str, str, float, float, int]


def traced_names() -> List[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns] + [ARGPARSE]


def _arg_key(x):
    if isinstance(x, (int, str, bool, type(None))):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_arg_key(y) for y in x)
    return (type(x).__name__, str(x))


def _rref_counts(args, result) -> Dict[str, int]:
    mat = args[0]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    nnz = irrational = 0
    for row in mat:
        for x in row:
            if x:
                nnz += 1
                if getattr(x, "b", 0):
                    irrational = 1
    return {"rows": rows, "cols": cols, "cells": rows * cols, "nnz": nnz,
            "rank": len(result[1]), "rank_room": min(rows, cols),
            "qsqrt2": irrational}


# name -> f(args, result) -> counts added to that name's counters
COUNTERS: Dict[str, Callable] = {
    "repdecomp.decompose": lambda a, r: {"char_weights": len(a[1])},
    "repdecomp.irreducible_character": lambda a, r: {"weights": len(r)},
    "bott.bott_irreducible": lambda a, r: {"vanish": int(r is None)},
    "scalars.rref": _rref_counts,
}


class Tracer:
    """Span recorder; `op` names the operation new spans belong to."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        self.max_cells = 0
        self.seen: Dict[str, set] = defaultdict(set)
        self.op = ""
        self.active = False
        self._patches: List[Tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called `name`."""
        if not self.active:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.monotonic()
            stack.pop()
            spans[idx] = (self.op, name, t0, t1, parent)
        counter = COUNTERS.get(name)
        if counter is not None:
            got = counter(args, result)
            self.counts[name].update(got)
            self.max_cells = max(self.max_cells, got.get("cells", 0))
        if name in REPEAT_COUNTED:
            key = _arg_key(args) + _arg_key(tuple(sorted(kwargs.items())))
            seen = self.seen[name]
            self.counts[name]["repeat"] += key in seen
            seen.add(key)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every binding site of every function in LAYERS."""
        modules = [importlib.import_module(f"flagcoh.{m}") for m in (
            "rootsys", "repdecomp", "bott", "scalars", "invforms", "liecoh",
            "spectral", "exterior", "superfields", "verify", "cli")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"flagcoh.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self.wrap(name, vars(cls)[meth]))
                    continue
                original = getattr(home, fn_name)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, attr, wrapped)
        for cls, meth in ARGPARSE_METHODS:
            self._patch(cls, meth, self.wrap(ARGPARSE, vars(cls)[meth]))

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it; their durations add up to the covered time.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: number of calls, summed self time and summed duration."""
    agg: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s, st in zip(spans, self_times(spans)):
        a = agg[s[1]]
        a["calls"] += 1
        a["self_s"] += st
        a["total_s"] += s[3] - s[2]
    return dict(agg)


def top_level_s(spans: Sequence[Span]) -> float:
    """Time covered by spans without a parent."""
    return sum(s[3] - s[2] for s in spans if s[4] < 0)
