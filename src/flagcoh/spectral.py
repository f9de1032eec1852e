"""E2/E3 terms of the tangent-sheaf filtration spectral sequence of a
non-split supermanifold over a Hermitian symmetric space, the degree-2
differential ad_{l*[theta]}, and the resulting H^0/H^1 of the tangent sheaf.

Coordinates: entries are indexed (p, q) with q the TOTAL cohomology degree
(the row of the published tables) and p the filtration degree, so d2 maps
(p, q) -> (p+2, q+1).  Module summands stay symbolic (trivial / adjoint /
other) so G-equivariance can be exploited: d2 only connects summands of the
same type.  Entries whose d2 data is unknown are emitted `undetermined`,
never guessed.  theta = a theta2 + b eta has its one basis and its coordinates
in `invforms.theta_basis` and `invforms.theta_coordinates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .bott import (
    HermitianSymmetricSpace,
    ModuleDescriptor,
    _merge_descriptors,
    cohomology_omega_p_theta,
    grassmannian_rs,
    k_value,
    tag_counts,
)
from .invforms import product_table, theta_coordinates
from .liecoh import (
    build_g_basis,
    d2_rank_on_vector_fields,
    d2_vanishes_on_adjoint_at_01,
)
from .rootsys import _require
from .scalars import QSqrt2, narrow, rank


@dataclass(frozen=True)
class ThetaParameter:
    """The invariant (2,1)-form a theta2 + b eta parametrizing the supermanifold;
    `theta_for` reads (a, b) off `invforms.theta_coordinates`."""

    case: str
    a: QSqrt2
    b: QSqrt2

    def __post_init__(self):
        if not (self.a or self.b):
            raise ValueError("theta parameter must be nonzero")


def theta_for(H: HermitianSymmetricSpace, a=1, b=0) -> ThetaParameter:
    a, *b = theta_coordinates(build_g_basis(H).space, a, b)
    return ThetaParameter(H.case, QSqrt2(a), QSqrt2(b[0] if b else 0))


@dataclass
class Summand:
    provenance: str              # "i" | "l"
    descriptor: ModuleDescriptor
    status: str = "ok"           # "ok" | "undetermined"


Table = Dict[Tuple[int, int], List[Summand]]


def assemble_E2(H: HermitianSymmetricSpace, q_max: int = 2) -> Table:
    """E2 of the tangent sheaf of the split supermanifold, from the Bott
    columns: the (p, q) entry is i*(H^q(Omega^{p+1} (x) Theta)) followed by
    l*(H^q(Omega^p (x) Theta)), for q <= min(q_max, dim M) and p >= -1."""
    q_max = min(q_max, H.dim)
    cols = {p: cohomology_omega_p_theta(H, p, q_max) for p in range(H.dim + 1)}
    table: Table = {}
    for p in range(-1, H.dim + 1):
        for q in range(q_max + 1):
            entry = [Summand("i", d) for d in cols.get(p + 1, {}).get(q, ())]
            entry += [Summand("l", d) for d in cols.get(p, {}).get(q, ())]
            if entry:
                table[(p, q)] = entry
    return table


def _remove(entry: List[Summand], provenance: str, tag: str, count: int) -> None:
    """Remove count multiplicity from matching summands; raises if the entry
    holds less, since the d2 bookkeeping would then be wrong."""
    removed = 0
    for s in entry:
        if removed >= count:
            break
        if s.provenance == provenance and s.descriptor.tag == tag:
            take = min(s.descriptor.mult, count - removed)
            s.descriptor = ModuleDescriptor(
                s.descriptor.tag, s.descriptor.weight, s.descriptor.dim,
                s.descriptor.mult - take,
            )
            removed += take
    entry[:] = [s for s in entry if s.descriptor.mult > 0]
    if removed != count:
        raise AssertionError(
            f"E3 bookkeeping: {provenance}*-{tag} has multiplicity {removed}, "
            f"d2 needs {count}")


def _count(entry: List[Summand], provenance: str, tag: str) -> int:
    return sum(
        s.descriptor.mult
        for s in entry
        if s.provenance == provenance and s.descriptor.tag == tag
    )


@dataclass
class E3Result:
    H: HermitianSymmetricSpace
    E2: Table
    E3: Table
    rank_vector_fields: int
    kernel_dim_11: int
    adjoint_01_survives: bool
    notes: List[str] = field(default_factory=list)


def apply_d2(H: HermitianSymmetricSpace, theta: ThetaParameter) -> E3Result:
    if H.rd.type.family == "E":
        raise ValueError("E-type spectral tables are outside the desk scale")
    E2 = assemble_E2(H, 2)
    # one trivial i*-summand at (1,1) per invariant (2,1)-form of theta's basis
    space = build_g_basis(H).space
    P = product_table(space)
    avail = _count(E2.get((1, 1), []), "i", "trivial")
    if avail != len(P):
        raise ValueError(
            f"{H}: E2 has {avail} trivial i*-summands at (1,1) for the {len(P)} "
            f"invariant (2,1)-forms of its realization; the presentation of "
            f"Gr(4,2) with eta is (A3, 1)")
    E3: Table = {
        k: [Summand(s.provenance, s.descriptor, s.status) for s in v]
        for k, v in E2.items()
    }
    notes: List[str] = []
    a, b = narrow(theta.a), narrow(theta.b)

    # (i) E2^{-1,0}: w -> l*[theta /\ w], rank 0 or dim g (liecoh)
    rank_v = d2_rank_on_vector_fields(H, a, b)
    if rank_v:
        _remove(E3[(-1, 0)], "i", "adjoint", 1)
        _remove(E3[(1, 1)], "l", "adjoint", 1)

    # (ii) the grading field at (0,0) never survives: d2(eps) = -2 l*[theta]
    _remove(E3[(0, 0)], "i", "trivial", 1)
    _remove(E3[(2, 1)], "l", "trivial", 1)

    # (iii) i*-part of (1,1): phi -> l*[theta /\ phi] into the invariant part
    # of (3,2); on the invariant (2,1)-forms B_y, theta /\ B_y is
    # sum_x c_x B_x /\ B_y over theta's coordinates c_x, read on the product table
    coeffs = theta_coordinates(space, a, b)
    rank11 = rank([[sum(c * Px[y][j] for c, Px in zip(coeffs, P))
                    for j in range(len(P[0][y]))] for y in range(len(P))])
    kernel11 = len(P) - rank11
    _remove(E3[(1, 1)], "i", "trivial", rank11)
    # the image lands in the invariant part of (3,2)
    _remove(E3.get((3, 2), []), "l", "trivial", rank11)

    # (iv) adjoint summand at (0,1): structurally closed unless the target
    # (2,2)-l has an adjoint component; then decided by the exact solve
    adj01 = True
    if _count(E3.get((0, 1), []), "i", "adjoint"):
        if _count(E3.get((2, 2), []), "l", "adjoint"):
            adj01 = d2_vanishes_on_adjoint_at_01(H, a, b)
            if not adj01:
                _remove(E3[(0, 1)], "i", "adjoint", 1)
                _remove(E3[(2, 2)], "l", "adjoint", 1)
                notes.append(
                    "d2 is nonzero on the adjoint summand of E2^{0,1} "
                    "(absent from the published tables)"
                )

    # row q=2 bookkeeping: entries with possibly-unknown differentials are
    # flagged undetermined rather than guessed.  The only fully determined
    # row-2 summands are the trivial (invariant-class) l*-parts of (3,2):
    # l* of an invariant class is d2-closed and all incoming maps were
    # accounted above; everything else may have unknown d2 data.
    for (p, q), entry in E3.items():
        for s in entry:
            if q == 2 and not (p == 3 and s.provenance == "l"
                               and s.descriptor.tag == "trivial"):
                s.status = "undetermined"

    E3 = {k: v for k, v in E3.items() if v}
    return E3Result(H, E2, E3, rank_v, kernel11, adj01, notes)


# ---------------------------------------------------------------------------
# H^0 / H^1 readout (rows q = 0, 1 stabilize at E3)
# ---------------------------------------------------------------------------

@dataclass
class CohomologyReport:
    H0_even: List[ModuleDescriptor]
    H0_odd: List[ModuleDescriptor]
    H1_even: List[ModuleDescriptor]
    H1_odd: List[ModuleDescriptor]

    @staticmethod
    def _dim(items: List[ModuleDescriptor]) -> int:
        return sum(d.total_dim() for d in items)

    def dims(self) -> Dict[str, int]:
        return {
            "H0_even": self._dim(self.H0_even),
            "H0_odd": self._dim(self.H0_odd),
            "H1_even": self._dim(self.H1_even),
            "H1_odd": self._dim(self.H1_odd),
        }


def cohomology_of_T(H: HermitianSymmetricSpace,
                    theta: ThetaParameter) -> Tuple[CohomologyReport, E3Result]:
    res = apply_d2(H, theta)
    # (q, parity of p) in the field order H0_even, H0_odd, H1_even, H1_odd
    buckets = {(q, parity): [] for q in (0, 1) for parity in (0, 1)}
    for (p, q), entry in res.E3.items():
        for s in (entry if q <= 1 else ()):
            _require(s.status == "ok", "rows 0,1 must be fully determined")
            buckets[(q, p % 2)].append(s.descriptor)
    return CohomologyReport(*map(_merge_descriptors, buckets.values())), res


def pq_consistency(H: HermitianSymmetricSpace) -> Dict[str, object]:
    """For Gr(n,s) with theta = eta, the super vector-field dimensions must
    be (n^2 - 1 | n^2), matching q_n / <I>."""
    rs = grassmannian_rs(H)
    if rs is None:
        raise ValueError("pq consistency is a Grassmannian check")
    n = rs[0] + rs[1]
    theta = theta_for(H, 0, 1)
    report, _ = cohomology_of_T(H, theta)
    dims = report.dims()
    expected = {"even": n * n - 1, "odd": n * n}
    ok = dims["H0_even"] == expected["even"] and dims["H0_odd"] == expected["odd"]
    return {
        "space": str(H),
        "n": n,
        "H0_even": dims["H0_even"],
        "H0_odd": dims["H0_odd"],
        "expected": expected,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Published-table comparison (the acceptance layer asserts these)
# ---------------------------------------------------------------------------

def published_e3_rows(regime: str, n: Optional[int] = None
                      ) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Rows q = 0,1 of the published E3 tables as (adjoint, trivial) counts
    per (p, q).  regime: 'I', 'II-generic', 'II-special', 'II-eta',
    'III'. The II-special row follows the item-(3) statement."""
    t: Dict[Tuple[int, int], Tuple[int, int]] = {}
    if regime == "I":
        t[(0, 0)] = (1, 0)
        t[(1, 0)] = (0, 1)
        t[(0, 1)] = (1, 0)
    elif regime == "II-generic":
        t[(0, 0)] = (1, 0)
        t[(1, 0)] = (0, 1)
        t[(0, 1)] = (1, 0)
        t[(2, 1)] = (0, 1)
    elif regime == "II-special":
        t[(0, 0)] = (1, 0)
        t[(1, 0)] = (0, 1)
        t[(0, 1)] = (1, 0)
        t[(1, 1)] = (0, 1)
        t[(2, 1)] = (0, 1)
    elif regime == "II-eta":
        t[(-1, 0)] = (1, 0)
        t[(0, 0)] = (1, 0)
        t[(1, 0)] = (0, 1)
        t[(0, 1)] = (1, 0)
        t[(1, 1)] = (1, 0)
        t[(2, 1)] = (0, 1)
    elif regime == "III":
        t[(-1, 0)] = (1, 0)
        t[(0, 0)] = (1, 0)
        t[(1, 0)] = (0, 1)
        if n == 3:
            t[(1, 1)] = (0, 1)
    else:
        raise ValueError(regime)
    return t


def e3_rows_summary(res: E3Result) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
    """Computed (adjoint, trivial, other) totals per entry, rows 0,1."""
    out = {}
    for (p, q), entry in res.E3.items():
        counts = tag_counts([s.descriptor for s in entry])
        if q <= 1 and any(counts):
            out[(p, q)] = counts
    return out


def flagged_32_comparison(res: E3Result) -> Dict[str, object]:
    """The (3,2) entry: computed trivial part vs the published superscript
    read as k-1 (case I, theta = theta2) resp. k-2 (case II)."""
    H = res.H
    k = k_value(H)
    entry = res.E3.get((3, 2), [])
    computed = sum(
        s.descriptor.mult for s in entry
        if s.descriptor.tag == "trivial" and s.status == "ok"
    )
    if H.case == "II":
        published = max(k - 2, 0)
    else:
        published = max(k - 1, 0)
    return {
        "computed_trivial": computed,
        "published_reading": published,
        "agree": computed == published,
        "k": k,
    }
