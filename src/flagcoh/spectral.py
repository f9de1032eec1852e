"""E2/E3 terms of the tangent-sheaf filtration spectral sequence of a
non-split supermanifold over a Hermitian symmetric space, the degree-2
differential ad_{l*[theta]}, and the resulting H^0/H^1 of the tangent sheaf.

Coordinates: entries are indexed (p, q) with q the TOTAL cohomology degree
(the row of the published tables) and p the filtration degree, so d2 maps
(p, q) -> (p+2, q+1).  Module summands stay symbolic (trivial / adjoint /
other) so G-equivariance can be exploited: d2 only connects summands of the
same type.  Entries whose d2 data is unknown are emitted `undetermined`,
never guessed.  theta = a theta2 + b eta has its one basis and its coordinates
in `invforms.theta_basis` and `invforms.theta_coordinates`.  The module only
computes: the published E3 rows, the (3,2) reading and the (n^2-1 | n^2)
check it is compared against are `verify`'s.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .bott import (
    HermitianSymmetricSpace,
    ModuleDescriptor,
    _merge_descriptors,
    cohomology_omega_p_theta,
)
from .invforms import product_table, theta_coordinates
from .liecoh import (
    build_g_basis,
    d2_rank_on_vector_fields,
    d2_vanishes_on_adjoint_at_01,
)
from .record import Record
from .rootsys import _require
from .scalars import rank


def theta_for(H: HermitianSymmetricSpace, a, b) -> Tuple:
    """theta = a theta2 + b eta as its `invforms.theta_coordinates` on H's
    realization; the one check that theta is nonzero."""
    coeffs = theta_coordinates(build_g_basis(H).space, a, b)
    if not any(coeffs):
        raise ValueError("theta parameter must be nonzero")
    return coeffs


class Summand(Record):
    provenance: str              # "i" | "l"
    descriptor: ModuleDescriptor
    status: str = "ok"           # "ok" | "undetermined"
    _fields = ("provenance", "descriptor", "status")


Table = Dict[Tuple[int, int], List[Summand]]


def assemble_E2(H: HermitianSymmetricSpace, q_max: int) -> Table:
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


def _count(entry: List[Summand], provenance: str, tag: str) -> int:
    return sum(
        s.descriptor.mult
        for s in entry
        if s.provenance == provenance and s.descriptor.tag == tag
    )


class E3Result(Record):
    H: HermitianSymmetricSpace
    E2: Table
    E3: Table
    rank_vector_fields: int
    kernel_dim_11: int
    adjoint_01_survives: bool
    notes: List[str]
    _fields = ("H", "E2", "E3", "rank_vector_fields", "kernel_dim_11", "adjoint_01_survives",
               "notes")


def apply_d2(H: HermitianSymmetricSpace, a, b) -> E3Result:
    E2 = assemble_E2(H, 2)
    # one trivial i*-summand at (1,1) per invariant (2,1)-form of theta's basis
    P = product_table(build_g_basis(H).space)
    avail = _count(E2.get((1, 1), []), "i", "trivial")
    if avail != len(P):
        raise ValueError(
            f"{H}: E2 has {avail} trivial i*-summands at (1,1) for the {len(P)} "
            f"invariant (2,1)-forms of its realization; the presentation of "
            f"Gr(4,2) with eta is (A3, 1)")
    coeffs = theta_for(H, a, b)
    notes: List[str] = []

    # (i) E2^{-1,0}: w -> l*[theta /\ w], rank 0 or dim g (liecoh)
    rank_v = d2_rank_on_vector_fields(H, a, b)

    # (iii) i*-part of (1,1): phi -> l*[theta /\ phi] into the invariant part
    # of (3,2); on the invariant (2,1)-forms B_y, theta /\ B_y is
    # sum_x c_x B_x /\ B_y over theta's coordinates c_x, read on the product table
    rank11 = rank([[sum(c * Px[y][j] for c, Px in zip(coeffs, P))
                    for j in range(len(P[0][y]))] for y in range(len(P))])

    # (iv) adjoint summand at (0,1): structurally closed unless the target
    # (2,2)-l has an adjoint component; then decided by the exact solve
    adj01 = not (_count(E2.get((0, 1), []), "i", "adjoint")
                 and _count(E2.get((2, 2), []), "l", "adjoint")
                 ) or d2_vanishes_on_adjoint_at_01(H, a, b)
    if not adj01:
        notes.append("d2 is nonzero on the adjoint summand of E2^{0,1} "
                     "(absent from the published tables)")

    # each step's rank leaves the i*-part of (p, q) and the l*-part of (p+2, q+1)
    cut: Dict[Tuple[int, int, str, str], int] = {}
    for p, q, tag, r in (
        (-1, 0, "adjoint", int(rank_v > 0)),    # (i)
        (0, 0, "trivial", 1),   # (ii) the grading field: d2(eps) = -2 l*[theta]
        (1, 1, "trivial", rank11),              # (iii)
        (0, 1, "adjoint", int(not adj01)),      # (iv)
    ):
        cut[(p, q, "i", tag)] = cut[(p + 2, q + 1, "l", tag)] = r

    # row q=2: entries with possibly-unknown differentials are flagged
    # undetermined rather than guessed.  The only fully determined row-2
    # summands are the trivial (invariant-class) l*-parts of (3,2): l* of an
    # invariant class is d2-closed and every incoming map is cut above.
    E3: Table = {}
    for (p, q), entry in E2.items():
        for s in entry:
            d, key = s.descriptor, (p, q, s.provenance, s.descriptor.tag)
            take = min(d.mult, cut.get(key, 0))
            if take:
                cut[key] -= take
            if d.mult > take:
                status = ("undetermined" if q == 2 and key != (3, 2, "l", "trivial")
                          else "ok")
                E3.setdefault((p, q), []).append(Summand(
                    s.provenance, ModuleDescriptor(d.tag, d.weight, d.dim, d.mult - take), status))
    _require(not any(cut.values()), f"E3 bookkeeping: d2 cuts {cut} exceed E2")
    return E3Result(H, E2, E3, rank_v, len(P) - rank11, adj01, notes)


# ---------------------------------------------------------------------------
# H^0 / H^1 readout (rows q = 0, 1 stabilize at E3)
# ---------------------------------------------------------------------------

class CohomologyReport(Record):
    H0_even: List[ModuleDescriptor]
    H0_odd: List[ModuleDescriptor]
    H1_even: List[ModuleDescriptor]
    H1_odd: List[ModuleDescriptor]
    _fields = ("H0_even", "H0_odd", "H1_even", "H1_odd")

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


def cohomology_of_T(H: HermitianSymmetricSpace, a, b
                    ) -> Tuple[CohomologyReport, E3Result]:
    res = apply_d2(H, a, b)
    # (q, parity of p) in the field order H0_even, H0_odd, H1_even, H1_odd
    buckets = {(q, parity): [] for q in (0, 1) for parity in (0, 1)}
    for (p, q), entry in res.E3.items():
        for s in (entry if q <= 1 else ()):
            buckets[(q, p % 2)].append(s.descriptor)
    return CohomologyReport(*map(_merge_descriptors, buckets.values())), res
