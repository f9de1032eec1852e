"""K-invariant vector-valued (p,q)-forms on Hermitian symmetric spaces,
realized exactly by their values at the base point.

A form of bidegree (p, q) is stored as one flat read-only map
{((us, vs), w): nonzero value}: us and vs strictly increasing index tuples
(holomorphic group of size p over the n+ basis, antiholomorphic group of
size q over the dual n- basis), w an n+ index.  theta_p has a closed form;
eta, eta1, eta2 and eta3 are each the alternation over S_p x S_q of one
matrix chain (u1 v u2, tr(u1 v1 u2 v2) u3, (u1, v1) u2 v2 u3,
u1 v1 u2 v2 u3), summed by `_alternate` over the chain's nonzero ordered
values.  Both families have integer entries, and every value is an int
when integral and a Fraction otherwise; scaling by a parameter with a
sqrt(2) part gives QSqrt2 entries.  The barwedge runs over the stored
entries on the `exterior._merge_sign` sign kernel.  A form and a
`liecoh.Cochain` are both a `VecTensor`, an `exterior._Terms` map with
exterior's sum, scaling and zero rule, their same-label constructor and
label check, read off the fields, and `Record`'s equality and hash;
`span_solve` is their one span solve.

Two kinds of spaces: Grassmann matrix spaces (n+ = r x s matrices, trace
pairing, where the eta family lives) and generic root-vector spaces (only
the theta family, pairing normalized to the Kronecker form in the paired
bases).  theta = a theta2 + b eta is decided here alone: `theta_basis`
and `theta_coordinates` say where eta is a basis form and fold it on CP^n.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exterior import _frozen, _merge_sign, _scaled, _signed_sum, _Terms
from .record import Record
from .scalars import (Coeff, QSqrt2, SparseRow, narrow, nullspace, rank, rref, sparse_rref,
                      sqrt_of_rational)

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


class MatrixPairSpace(Record):
    """n+ = Mat_{r x s} with basis E_{i,a} (row-major flat index i*s + a);
    n- = Mat_{s x r} indexed by the SAME flat index, k meaning E_{a,i} for
    (i, a) = divmod(k, s), so the trace pairing is Kronecker on equal indices."""

    r: int
    s: int
    _fields = ("r", "s")

    @property
    def dim(self) -> int:
        return self.r * self.s

    def index(self, i: int, a: int) -> int:
        return i * self.s + a


class RootPairSpace(Record):
    """Root-vector basis of n+ with the normalized Killing pairing
    (e_alpha, f_beta) = delta; theta forms only."""

    dim: int
    _fields = ("dim",)


class VecTensor(Record):
    """One read-only `exterior._Terms` map {(key, index): nonzero value},
    the terms a derivation holds too, with its arithmetic.  A subclass is a
    `Record` that names its `_fields` and, in `_vecs`, the one holding that
    map; the others are its labels.  It takes equality and hash from
    `Record`, so two tensors are equal when their labels and their stored
    entries are."""

    _vecs: str

    def _values(self) -> _Terms:
        return getattr(self, self._vecs)

    def _like(self, terms: _Terms) -> "VecTensor":
        """A tensor with self's labels and the given terms, built through
        the subclass's constructor."""
        return type(self)(*[terms if f == self._vecs else getattr(self, f)
                            for f in self._fields])

    def _check_like(self, other: "VecTensor") -> None:
        """Raise ValueError unless other is of self's class with self's labels."""
        if other.__class__ is not self.__class__:
            raise ValueError(f"{type(self).__name__} and {type(other).__name__} "
                             "do not combine")
        for f in self._fields:
            if f != self._vecs and getattr(self, f) != getattr(other, f):
                raise ValueError(f"{type(self).__name__}s with different {f} "
                                 "do not combine")

    def is_zero(self) -> bool:
        return not self._values()

    def entries(self):
        """The nonzero coordinates as ((key, index), value) pairs."""
        return self._values().items()

    def scale(self, c) -> "VecTensor":
        return self._like(_scaled(self._values(), narrow(c)))

    def _sum(self, other: "VecTensor", sign: int) -> "VecTensor":
        """self + sign * other, for sign = 1 or -1, after one label check."""
        self._check_like(other)
        return self._like(_frozen(_signed_sum(self._values(), other._values().items(), sign)))

    def __add__(self, other: "VecTensor") -> "VecTensor":
        return self._sum(other, 1)

    def __sub__(self, other: "VecTensor") -> "VecTensor":
        return self._sum(other, -1)


class InvariantVectorForm(VecTensor):
    space: object
    p: int
    q: int
    tensor: _Terms
    _vecs = "tensor"
    _fields = ("space", "p", "q", "tensor")


def _sorted_with_sign(group: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """The increasing tuple of group's indices and the sign of the sorting
    permutation, or (None, 0) when an index repeats: the sign flips once
    per inversion."""
    sign = 1
    for k, x in enumerate(group, 1):
        for y in group[k:]:
            if x > y:
                sign = -sign
            elif x == y:
                return None, 0
    return tuple(sorted(group)), sign


def span_rows(columns: Sequence[Iterable[Tuple[object, Coeff]]],
              targets: Sequence[VecTensor]) -> Tuple[List[SparseRow], List[List[Coeff]]]:
    """The rows of the matrix whose j-th column has the (coordinate, entry)
    pairs columns[j], each coordinate at most once, as `VecTensor.entries`
    gives them, and the targets' entries as right-hand sides aligned with
    them; no solve depends on the row order."""
    rows: Dict[object, SparseRow] = {}
    for j, col in enumerate(columns):
        for coord, x in col:
            rows.setdefault(coord, {})[j] = x
    values = [t._values() for t in targets]
    for coord in itertools.chain(*values):
        rows.setdefault(coord, {})
    return list(rows.values()), [[v.get(coord, 0) for coord in rows] for v in values]


def span_solve(columns: Sequence[Iterable[Tuple[object, Coeff]]],
               target: Optional[VecTensor] = None):
    """`sparse_rref` of `span_rows`, against the target when given."""
    rows, rhs = span_rows(columns, [] if target is None else [target])
    return sparse_rref(rows, len(columns), *rhs)


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
    tensor: Dict[Tuple[Key, int], int] = {}
    for us in itertools.combinations(range(n), p):
        for k, uk in enumerate(us):
            sign = 1 if (p + k + 1) % 2 == 0 else -1
            tensor[((us, us[:k] + us[k + 1:]), uk)] = pref * sign
    return InvariantVectorForm(space, p, p - 1, _Terms(tensor))


# ---------------------------------------------------------------------------
# The eta family (Grassmann spaces only): alternations of one matrix chain.
# u = E_{ia} is the n+ index (i, a), v = E_{aj} the n- index (j, a), so a
# chain of matrix units is nonzero exactly on matching inner indices.
# ---------------------------------------------------------------------------

def _alternate(space, p: int, q: int, chains: Iterable[Tuple]) -> InvariantVectorForm:
    """Alt over S_p x S_q of a chain given by its nonzero ordered values:
    (us, vs, w) adds sgn(us) sgn(vs) E_w at the sorted key (us, vs), and a
    repeated index alternates to zero.  Keys come out in sorted order."""
    acc: Dict[Tuple[Key, int], int] = {}
    for us, vs, w in chains:
        ku, su = _sorted_with_sign(us)
        kv, sv = _sorted_with_sign(vs)
        if su and sv:
            coord = ((ku, kv), w)
            acc[coord] = acc.get(coord, 0) + su * sv
    return InvariantVectorForm(space, p, q, _frozen({c: acc[c] for c in sorted(acc)}))


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
    (ku, lu minus slot k) and (kv, lv), with (-1)^k times their signs.  The
    u side of that feed depends on lu alone and is built once per lu; each
    v-side merge is made once per (kv, lv), in a memo that lives for the call."""
    if phi.space != psi.space:
        raise ValueError("forms live on different spaces")
    space = phi.space
    P = phi.p + psi.p - 1
    Q = phi.q + psi.q
    n = space.dim
    if P > n or Q > n or P < 0:
        return InvariantVectorForm(space, max(P, 0), Q, _Terms())
    by_index: Dict[int, List[Tuple[Tuple[int, ...], Tuple[int, ...], Coeff]]] = {}
    for ((ku, kv), widx), wc in psi.tensor.items():
        by_index.setdefault(widx, []).append((ku, kv, wc))
    acc: Dict[Tuple[Key, int], Coeff] = {}
    feeds, v_merges = {}, {}  # lu -> its u-side feed; lv -> kv -> _merge_sign(kv, lv)
    for ((lu, lv), i), c in phi.tensor.items():
        feed = feeds.get(lu)
        if feed is None:
            feed = feeds[lu] = [
                (us, -su if k % 2 else su, kv, wc)
                for k, widx in enumerate(lu) for urest in (lu[:k] + lu[k + 1:],)
                for ku, kv, wc in by_index.get(widx, ())
                for us, su in (_merge_sign(ku, urest),) if us is not None]
        merges = v_merges.setdefault(lv, {})
        for us, su, kv, wc in feed:
            vs_sv = merges.get(kv)
            if vs_sv is None:
                vs_sv = merges[kv] = _merge_sign(kv, lv)
            vs, sv = vs_sv
            if vs is not None:
                coord = ((us, vs), i)
                acc[coord] = acc.get(coord, 0) + (wc * c if su == sv else -(wc * c))
    return InvariantVectorForm(space, P, Q, _frozen(acc))


# ---------------------------------------------------------------------------
# Linear algebra over the form spaces.
# ---------------------------------------------------------------------------

def _sparse_rows(forms: List[InvariantVectorForm]
                 ) -> Tuple[List[SparseRow], int]:
    """The forms as sparse rows over their nonzero (key, n+ index)
    coordinates in sorted order, and the number of those coordinates."""
    coords = sorted({c for f in forms for c, _ in f.entries()})
    col = {c: j for j, c in enumerate(coords)}
    return [{col[c]: x for c, x in f.entries()} for f in forms], len(coords)


def rank_of(forms: List[InvariantVectorForm]) -> int:
    if not forms:
        return 0
    for f in forms[1:]:
        forms[0]._check_like(f)
    rows, n_coords = _sparse_rows(forms)  # dense `rank`: perfbench traces that binding
    return rank([[row.get(j, 0) for j in range(n_coords)] for row in rows])


def independent_coefficients(
    target: InvariantVectorForm, basis: List[InvariantVectorForm]
) -> Optional[List[QSqrt2]]:
    """Exact coordinates of target in the span of basis by `span_solve`, or
    None."""
    x = span_solve([f.entries() for f in basis], target)[2]
    if x is None:
        return None
    return [QSqrt2(x.get(j, 0)) for j in range(len(basis))]


# ---------------------------------------------------------------------------
# theta = a theta2 + b eta: its basis, coordinates and products for every
# module; nilpotent pairs (a theta2 + b eta) /\ (c theta2 + d eta) = 0.
# ---------------------------------------------------------------------------

@functools.cache
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


def theta_products(space) -> Tuple[Tuple[InvariantVectorForm, ...], ...]:
    """B_x /\\ B_y over `theta_basis(space)`, as rows x of columns y.  Not
    cached: callers keep only what they read of it."""
    basis = theta_basis(space)
    return tuple(tuple(barwedge_inv(x, y) for y in basis) for x in basis)


@functools.cache
def product_table(space) -> Tuple[Tuple[Tuple, ...], ...]:
    """P[x][y] = `theta_products(space)`[x][y] restricted to the pivot
    columns J of the products.  Restriction to J is injective on the span
    of the products, so every combination of them keeps its rank and
    kernel there; |J| <= 4."""
    products = theta_products(space)
    rows, n_coords = _sparse_rows([f for row in products for f in row])
    J = sparse_rref(rows, n_coords)[1]
    P = [tuple(row.get(j, 0) for j in J) for row in rows]
    m = len(products)
    return tuple(tuple(P[x * m:(x + 1) * m]) for x in range(m))


class NilpotentPairReport(Record):
    space: MatrixPairSpace
    solutions: List[Tuple[Tuple[QSqrt2, QSqrt2], Tuple[QSqrt2, QSqrt2]]]
    _fields = ("space", "solutions")

    @property
    def trivial_only(self) -> bool:
        return not self.solutions


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
    return NilpotentPairReport(space, solutions)


def _projective_roots(quads) -> List[Tuple[QSqrt2, QSqrt2]]:
    """Common projective roots (a : b) in Q(sqrt2) of the rational quadratic
    forms A a^2 + B ab + C b^2, by the rank of the rows (A, B, C): (1 : 0)
    first, then (t : 1) in increasing (rational, sqrt2) order of t."""
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
        sq = sqrt_of_rational(narrow(B * B - 4 * A * C))
        if sq is None:
            raise ValueError(f"the roots of {A} t^2 + {B} t + {C} lie outside Q(sqrt2)")
        ts = {(-B + sq) / (2 * A), (-B - sq) / (2 * A)}
        roots = [(t, 1) for t in sorted(ts, key=lambda t: (t.a, t.b))]
    return [(QSqrt2(a), QSqrt2(b)) for a, b in roots]
