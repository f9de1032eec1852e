"""K-invariant vector-valued (p,q)-forms on Hermitian symmetric spaces,
realized exactly by their values at the base point.

A form of bidegree (p, q) is stored as a sparse tensor over strictly
increasing index tuples (holomorphic group of size p over the n+ basis,
antiholomorphic group of size q over the dual n- basis), with values sparse
vectors in n+.  theta_p has a closed form; eta, eta1, eta2 and eta3 are each
the alternation over S_p x S_q of one matrix chain (u1 v u2, tr(u1 v1 u2 v2)
u3, (u1, v1) u2 v2 u3, u1 v1 u2 v2 u3), summed by `_alternate` over the
chain's nonzero ordered values.  Both families have integer entries, and
every tensor value is an int when integral and a Fraction otherwise;
scaling by a parameter with a sqrt(2) part gives QSqrt2 entries.  The
barwedge runs over the stored entries on the `exterior._merge_sign` sign
kernel; ranks and coordinates are taken over the sorted nonzero (key, n+
index) pairs only.

Two kinds of spaces: Grassmann matrix spaces (n+ = r x s matrices, trace
pairing, where the eta family lives) and generic root-vector spaces (only
the theta family, pairing normalized to the Kronecker form in the paired
bases).  theta = a theta2 + b eta is decided here alone: `theta_basis`
and `theta_coordinates` say where eta is a basis form and fold it on CP^n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exterior import _merge_sign
from .scalars import (Coeff, QSqrt2, SparseRow, canonical, narrow, nullspace, rank,
                      rref, sparse_rref)

Vec = Dict[int, Coeff]  # sparse vector in n+ coordinates (or QSqrt2 values)
Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class MatrixPairSpace:
    """n+ = Mat_{r x s} with basis E_{i,a} (row-major flat index i*s + a);
    n- = Mat_{s x r} indexed by the SAME flat index, k meaning E_{a,i} for
    (i, a) = coords(k), so the trace pairing is Kronecker on equal indices."""

    r: int
    s: int

    @property
    def dim(self) -> int:
        return self.r * self.s

    def index(self, i: int, a: int) -> int:
        return i * self.s + a

    def coords(self, k: int) -> Tuple[int, int]:
        return divmod(k, self.s)


@dataclass(frozen=True)
class RootPairSpace:
    """Root-vector basis of n+ with the normalized Killing pairing
    (e_alpha, f_beta) = delta; theta forms only."""

    dim: int


@dataclass
class InvariantVectorForm:
    space: object
    p: int
    q: int
    tensor: Dict[Key, Vec]

    def value(self, us: Sequence[int], vs: Sequence[int]) -> Vec:
        """Evaluate on arbitrary basis-index tuples via antisymmetry."""
        ku, su = _sorted_with_sign(us)
        kv, sv = _sorted_with_sign(vs)
        base = self.tensor.get((ku, kv), {})
        return base if su * sv == 1 else {k: -c for k, c in base.items()}

    def is_zero(self) -> bool:
        return not self.tensor

    def scale(self, c) -> "InvariantVectorForm":
        c = narrow(c)
        if not c:
            return InvariantVectorForm(self.space, self.p, self.q, {})
        return InvariantVectorForm(
            self.space, self.p, self.q,
            {k: {i: canonical(c * v) for i, v in vec.items()}
             for k, vec in self.tensor.items()},
        )

    def __add__(self, other: "InvariantVectorForm") -> "InvariantVectorForm":
        if self.space != other.space:
            raise ValueError(f"forms on {self.space} and {other.space}")
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("forms of different bidegree")
        out: Dict[Key, Vec] = {k: dict(v) for k, v in self.tensor.items()}
        for k, vec in other.tensor.items():
            tgt = out.setdefault(k, {})
            _add_into(tgt, 1, vec)
            if not tgt:
                out.pop(k)
        return InvariantVectorForm(self.space, self.p, self.q, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            (self.space, self.p, self.q) == (other.space, other.p, other.q)
            and _clean(self.tensor) == _clean(other.tensor)
        )


def _sorted_with_sign(group: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """The increasing tuple of group's indices and the sign of the sorting
    permutation, or (None, 0) when an index repeats."""
    mono: Optional[Tuple[int, ...]] = ()
    sign = 1
    for x in group:
        mono, s = _merge_sign(mono, (x,))
        if mono is None:
            return None, 0
        sign *= s
    return mono, sign


def _add_into(tgt: Vec, coeff, vec: Vec) -> None:
    """tgt += coeff * vec, dropping the entries that cancel and keeping the
    rational ones canonical (an int iff integral)."""
    for i, c in vec.items():
        nc = tgt.get(i, 0) + coeff * c
        if nc:
            tgt[i] = canonical(nc)
        else:
            tgt.pop(i, None)


def _clean(t: Dict[Key, Vec]) -> Dict[Key, Vec]:
    out = {}
    for k, vec in t.items():
        v = {i: c for i, c in vec.items() if c}
        if v:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# The theta family (any space): determinant formula over the pairing.
# ---------------------------------------------------------------------------

def theta_p(space, p: int) -> InvariantVectorForm:
    """The (p, p-1)-form with prefactor (p-1)!; theta_1 is the identity.

    With the Kronecker pairing the determinant of the pairing block between
    us minus u_k and vs is 1 when vs = us minus u_k (both sorted) and 0
    otherwise, so each entry is a single signed u_k."""
    n = space.dim
    if not 1 <= p <= n:
        raise ValueError(f"theta_{p} needs 1 <= p <= dim = {n}")
    pref = factorial(p - 1)
    tensor: Dict[Key, Vec] = {}
    for us in itertools.combinations(range(n), p):
        for k, uk in enumerate(us):
            sign = 1 if (p + k + 1) % 2 == 0 else -1
            tensor[(us, us[:k] + us[k + 1:])] = {uk: pref * sign}
    return InvariantVectorForm(space, p, p - 1, tensor)


# ---------------------------------------------------------------------------
# The eta family (Grassmann spaces only): alternations of one matrix chain.
# u = E_{ia} is the n+ index (i, a), v = E_{aj} the n- index (j, a), so a
# chain of matrix units is nonzero exactly on matching inner indices.
# ---------------------------------------------------------------------------

def _alternate(space, p: int, q: int, chains: Iterable[Tuple]) -> InvariantVectorForm:
    """Alt over S_p x S_q of a chain given by its nonzero ordered values:
    (us, vs, w) adds sgn(us) sgn(vs) E_w at the sorted key (us, vs), and a
    repeated index alternates to zero.  Keys come out in sorted order."""
    acc: Dict[Key, Dict[int, int]] = {}
    for us, vs, w in chains:
        ku, su = _sorted_with_sign(us)
        kv, sv = _sorted_with_sign(vs)
        if su and sv:
            vec = acc.setdefault((ku, kv), {})
            vec[w] = vec.get(w, 0) + su * sv
    tensor = {key: {w: c for w, c in acc[key].items() if c} for key in sorted(acc)}
    return InvariantVectorForm(space, p, q, {k: vec for k, vec in tensor.items() if vec})


def _cells(space: MatrixPairSpace, k: int):
    """Every k-tuple of row indices with every k-tuple of column indices."""
    return itertools.product(itertools.product(range(space.r), repeat=k),
                             itertools.product(range(space.s), repeat=k))


def eta(space: MatrixPairSpace) -> InvariantVectorForm:
    """(2,1)-form u1 v u2 - u2 v u1: E_{ia} E_{aj} E_{jb} = E_{ib}."""
    ix = space.index
    return _alternate(space, 2, 1, (
        ((ix(i, a), ix(j, b)), (ix(j, a),), ix(i, b))
        for (i, j), (a, b) in _cells(space, 2)))


def eta1(space: MatrixPairSpace) -> InvariantVectorForm:
    """2 Alt (u1 v1, u2 v2) u3, with tr(E_{ia} E_{aj} E_{jb} E_{bi}) = 1.

    No factor 2 here: by cyclicity of the trace the v1<->v2 chain equals the
    u1<->u2 chain, so the S_2 alternation over vs gives the displayed 2."""
    ix = space.index
    return _alternate(space, 3, 2, (
        ((ix(i, a), ix(j, b), x), (ix(j, a), ix(i, b)), x)
        for (i, j), (a, b) in _cells(space, 2) for x in range(space.dim)))


def eta2(space: MatrixPairSpace) -> InvariantVectorForm:
    """Alt (u1, v1) u2 v2 u3, the pairing being 1 exactly on u1 = v1."""
    ix = space.index
    return _alternate(space, 3, 2, (
        ((x, ix(i, a), ix(j, b)), (x, ix(j, a)), ix(i, b))
        for (i, j), (a, b) in _cells(space, 2) for x in range(space.dim)))


def eta3(space: MatrixPairSpace) -> InvariantVectorForm:
    """Alt u1 v1 u2 v2 u3: E_{ia} E_{aj} E_{jb} E_{bk} E_{kc} = E_{ic}."""
    ix = space.index
    return _alternate(space, 3, 2, (
        ((ix(i, a), ix(j, b), ix(k, c)), (ix(j, a), ix(k, b)), ix(i, c))
        for (i, j, k), (a, b, c) in _cells(space, 3)))


# ---------------------------------------------------------------------------
# barwedge on invariant forms: a sparse product over the stored entries.
# ---------------------------------------------------------------------------

def barwedge_inv(phi: InvariantVectorForm, psi: InvariantVectorForm
                 ) -> InvariantVectorForm:
    """Shuffle-sum insertion of psi into the first holomorphic slot of phi;
    equals the full alternation divided by (p1-1)! p2! q1! q2!, which makes
    theta2 /\\ theta2 = 2 theta3.

    Sparse over stored entries: psi's (ku, kv) -> w feeds slot k of phi's
    (lu, lv) when w has the index lu[k], at the keys `_merge_sign` gives for
    (ku, lu minus slot k) and (kv, lv), with (-1)^k times their signs."""
    if phi.space != psi.space:
        raise ValueError("forms live on different spaces")
    space = phi.space
    P = phi.p + psi.p - 1
    Q = phi.q + psi.q
    n = space.dim
    tensor: Dict[Key, Vec] = {}
    if P > n or Q > n or P < 0:
        return InvariantVectorForm(space, max(P, 0), Q, tensor)
    by_index: Dict[int, List[Tuple[Tuple[int, ...], Tuple[int, ...], Coeff]]] = {}
    for (ku, kv), w in psi.tensor.items():
        for widx, wc in w.items():
            by_index.setdefault(widx, []).append((ku, kv, wc))
    for (lu, lv), vec in phi.tensor.items():
        for k, widx in enumerate(lu):
            urest = lu[:k] + lu[k + 1:]
            for ku, kv, wc in by_index.get(widx, ()):
                us, su = _merge_sign(ku, urest)
                vs, sv = _merge_sign(kv, lv)
                if us is None or vs is None:
                    continue
                coeff = wc if su * sv == (-1) ** k else -wc
                _add_into(tensor.setdefault((us, vs), {}), coeff, vec)
    return InvariantVectorForm(space, P, Q, {k: v for k, v in tensor.items() if v})


def theta_barwedge_theta(space, p: int, q: int) -> InvariantVectorForm:
    """theta_p /\\ theta_q, which must equal p theta_{p+q-1}."""
    if p + q - 1 > space.dim:
        raise ValueError("degree overflow")
    return barwedge_inv(theta_p(space, p), theta_p(space, q))


# ---------------------------------------------------------------------------
# Linear algebra over the form spaces.
# ---------------------------------------------------------------------------

def _sparse_rows(forms: List[InvariantVectorForm]
                 ) -> Tuple[List[SparseRow], int]:
    """The forms as sparse rows over their nonzero (key, n+ index)
    coordinates in sorted order, and the number of those coordinates."""
    coords = sorted({(k, i) for f in forms for k, vec in f.tensor.items() for i in vec})
    col = {c: j for j, c in enumerate(coords)}
    rows = [{col[(k, i)]: c for k, vec in f.tensor.items() for i, c in vec.items()}
            for f in forms]
    return rows, len(coords)


def rank_of(forms: List[InvariantVectorForm]) -> int:
    if not forms:
        return 0
    p, q = forms[0].p, forms[0].q
    space = forms[0].space
    for f in forms[1:]:
        if (f.p, f.q) != (p, q) or f.space != space:
            raise ValueError("mixed bidegrees or spaces")
    rows, n_coords = _sparse_rows(forms)  # dense `rank`: perfbench traces that binding
    return rank([[row.get(j, 0) for j in range(n_coords)] for row in rows])


def independent_coefficients(
    target: InvariantVectorForm, basis: List[InvariantVectorForm]
) -> Optional[List[QSqrt2]]:
    """Exact coordinates of target in the span of basis, or None.

    One equation sum_j basis_j[c] x_j = target[c] per nonzero (key, n+ index)
    coordinate c; target's entries sit in column len(basis) until moved
    to the right-hand side."""
    n = len(basis)
    equations: Dict[Tuple[Key, int], SparseRow] = {}
    for j, f in enumerate(basis + [target]):
        for k, vec in f.tensor.items():
            for i, c in vec.items():
                equations.setdefault((k, i), {})[j] = c
    coords = sorted(equations)
    rhs = [equations[c].pop(n, 0) for c in coords]
    _, _, x = sparse_rref([equations[c] for c in coords], n, rhs)
    if x is None:
        return None
    return [QSqrt2(x.get(j, 0)) for j in range(n)]


# ---------------------------------------------------------------------------
# theta = a theta2 + b eta: its basis and coordinates, for every module; the
# product table; nilpotent pairs (a theta2 + b eta) /\ (c theta2 + d eta) = 0.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def theta_basis(space) -> Tuple[InvariantVectorForm, ...]:
    """The invariant (2,1)-forms theta has coordinates over: theta2, and eta
    where it is independent of theta2, on Mat_{r x s} with r, s >= 2."""
    if isinstance(space, MatrixPairSpace) and min(space.r, space.s) >= 2:
        return theta_p(space, 2), eta(space)
    return (theta_p(space, 2),)


def theta_coordinates(space, a, b) -> Tuple[Coeff, ...]:
    """theta = a theta2 + b eta over `theta_basis(space)`, narrowed: on CP^n
    eta = theta2 (r = 1) or -theta2 (s = 1) folds into a +- b, and off the
    Grassmannians eta is undefined and b != 0 raises ValueError."""
    if len(theta_basis(space)) == 2:
        return narrow(a), narrow(b)
    if isinstance(space, MatrixPairSpace):
        return (narrow(a + b if space.r == 1 else a - b),)
    if narrow(b):
        raise ValueError(f"eta undefined on {space}: theta = a theta2 takes b = 0")
    return (narrow(a),)


@lru_cache(maxsize=None)
def product_table(space) -> Tuple[Tuple[Tuple, ...], ...]:
    """P[x][y] = B_x /\\ B_y over `theta_basis(space)`, restricted to the
    pivot columns J of the products.  Restriction to J is injective on the
    span of the products, so every combination of them keeps its rank and
    kernel there; |J| <= 4."""
    basis = theta_basis(space)
    rows, n_coords = _sparse_rows([barwedge_inv(x, y) for x in basis for y in basis])
    J = sparse_rref(rows, n_coords)[1]
    P = [tuple(row.get(j, 0) for j in J) for row in rows]
    m = len(basis)
    return tuple(tuple(P[x * m:(x + 1) * m]) for x in range(m))


@dataclass
class NilpotentPairReport:
    space: MatrixPairSpace
    trivial_only: bool
    solutions: List[Tuple[Tuple[QSqrt2, QSqrt2], Tuple[QSqrt2, QSqrt2]]]


def nilpotent_pairs(space: MatrixPairSpace) -> NilpotentPairReport:
    """All ((a,b),(c,d)) with (a th2 + b eta) /\\ (c th2 + d eta) = 0, up to
    scalar, via the exact bilinear system on the product table.

    Raises ValueError when (a : b) solves a single quadratic whose roots lie
    outside Q(sqrt2)."""
    if len(theta_basis(space)) < 2:
        raise ValueError(f"eta is no basis form on {space}, so theta has one coordinate")
    (p00, p01), (p10, p11) = product_table(space)

    # theta /\ phi = a c P00 + a d P01 + b c P10 + b d P11; for fixed (a,b)
    # the map (c,d) -> result is linear with columns V1 = a P00 + b P10,
    # V2 = a P01 + b P11, read on the pivot columns J of the table.  A
    # nontrivial kernel needs the 2x2 minors over J to vanish:
    # A a^2 + B ab + C b^2 = 0 per pair in J.
    quads = [
        [p00[i] * p01[j] - p00[j] * p01[i],
         p00[i] * p11[j] - p00[j] * p11[i] + p10[i] * p01[j] - p10[j] * p01[i],
         p10[i] * p11[j] - p10[j] * p11[i]]
        for i, j in itertools.combinations(range(len(p00)), 2)
    ]
    solutions = []
    for (a, b) in _projective_roots(quads):
        kern = nullspace([[a * x00 + b * x10, a * x01 + b * x11]
                          for x00, x01, x10, x11 in zip(p00, p01, p10, p11)], 2)
        solutions.extend(((a, b), (c, d)) for c, d in kern)
    return NilpotentPairReport(space, not solutions, solutions)


def _projective_roots(quads) -> List[Tuple[QSqrt2, QSqrt2]]:
    """Common projective roots (a : b) of the quadratic forms
    A a^2 + B ab + C b^2 over Q(sqrt2), by the rank of the rows (A, B, C):
    (1 : 0) first, then (t : 1) in increasing (rational, sqrt2) order of t."""
    red, pivots = rref(quads) if quads else ([], [])
    quads = red[:len(pivots)]
    if not quads:
        # every (a,b) works; report the two coordinate axes as generators
        roots = [(1, 0), (0, 1)]
    elif len(quads) == 3:
        roots = []
    elif len(quads) == 2:
        # (a^2, ab, b^2) must span the kernel line of the two rows, which
        # their cross product w spans; that needs w1^2 = w0 w2
        (A1, B1, C1), (A2, B2, C2) = quads
        w0, w1, w2 = B1 * C2 - C1 * B2, C1 * A2 - A1 * C2, A1 * B2 - B1 * A2
        if w1 * w1 != w0 * w2:
            roots = []
        else:
            roots = [(w1 / w2, 1)] if w2 else [(1, 0)]
    elif not quads[0][0]:
        # b = 0 is a root, and b = 1 leaves B t + C = 0
        (_, B, C), = quads
        roots = [(1, 0)] + ([(-C / B, 1)] if B else [])
    else:
        (A, B, C), = quads
        sq = QSqrt2(B * B - 4 * A * C).sqrt()
        if sq is None:
            raise ValueError(f"the roots of {A} t^2 + {B} t + {C} lie outside Q(sqrt2)")
        ts = {(-B + sq) / (2 * A), (-B - sq) / (2 * A)}
        roots = [(t, 1) for t in sorted(ts, key=lambda t: (t.a, t.b))]
    return [(QSqrt2(a), QSqrt2(b)) for a, b in roots]
