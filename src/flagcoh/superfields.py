"""Polynomial super vector fields on the Pi-symmetric super-Grassmannian
chart: the fundamental-field map of the q_n(C) action, computed as a
first-order jet with a square-zero parameter of the same parity as the
acting element, plus bracket / kernel / transitivity / isotropy utilities.

Chart data: even coordinates x_{i,a} and odd xi_{i,a} with 1 <= i <= r,
1 <= a <= s, r = n - s, arranged in the 2n x 2s coordinate matrix with
identity blocks in the frame rows.

The 2n^2 basis fields of q_n on the chart of s are built once per (n, s)
by the cached `basis_fields(n, s)`, which `homomorphism_check`,
`kernel_of_action`, `transitivity_at_origin` and `isotropy_weights` read;
their jets share one chart matrix per (n, s), `_coordinate_matrix`.
The field map g -> g* is linear, so `homomorphism_check` expands each basis
bracket [g1, g2]* as the combination of those fields with [g1, g2]'s
entries, instead of running the jet again on the bracket.  It reads those
entries, at most two, from the closed-form structure constants of
`qn_structure_constants` (E_ab E_cd = delta_bc E_ad), a read-only table
built once per n and shared by every s; the block-product
`qn_bracket` of two whole elements stays public and is their test oracle.
Each distinct combination is built once, with its negation and whether it
is zero, so a basis pair costs one bracket and one comparison.  Brackets
are not keyed by value: hashing a new field, a frozenset of its terms,
costs more than comparing its terms.

`SuperDerivation` is an `exterior.Derivation`: generator k < m is x_k and
k >= m is xi_(k-m), so `images` is c_x followed by c_xi, and it takes its
arithmetic and refusal (`exterior.TermMap`'s), `apply` and the bracket from
there.  It adds its labels (r, s, parity), the views `c_x` and `c_xi`, and
what `Derivation._compile` reads: a monomial's odd length (its xi-part's)
and its letters `_super_letters`, where x_k^e gives e x_k^(e-1) and xi_k a
place sign, kept in one table per m = r s.

`SuperPolynomial` takes its terms, sums, products and scaling from
`exterior.TermAlgebra`, the algebra `GrassmannElement` uses too; it adds
only its monomial product (the x-parts add, the xi-parts go through
`exterior._merge_sign`) and its constructors: `const`, and `x` and `xi`,
which check the variable index; every other polynomial is built from these
by the arithmetic, or by the kernels through `_from_dict` unchecked.
Coefficients and `QnElement` entries are ints when integral, Fractions
otherwise (`_canon`).
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .exterior import (Coeff, Derivation, TermAlgebra, _frozen, _merge_sign, _canon, _Terms,
                       terms_of)
from .record import Record, slot_setters
from .rootsys import _require
from .scalars import nullspace, rank

# monomial: (x-part as sorted tuple of (flat index, exponent), xi-part as
# sorted tuple of flat indices)
Monomial = Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]


def _merge_x(a, b):
    if not a:
        return b
    if not b:
        return a
    acc: Dict[int, int] = dict(a)
    for (k, e) in b:
        acc[k] = acc.get(k, 0) + e
    return tuple(sorted(acc.items()))


def _variable(nvars: int, k) -> int:
    """k, checked to index one of the nvars even or odd variables."""
    if not (type(k) is int and 0 <= k < nvars):
        raise ValueError(f"variable index {k!r} outside 0..{nvars - 1}")
    return k


class SuperPolynomial(TermAlgebra):
    """Polynomial in m commuting x's and m anticommuting xi's, exact
    rationals; the constructors take m as nvars."""

    __slots__ = ()

    @staticmethod
    def _mono_mul(a: Monomial, b: Monomial) -> Tuple[Optional[Monomial], int]:
        """The x-parts add, the xi-parts go through `_merge_sign`."""
        ss, sg = _merge_sign(a[1], b[1])
        if ss is None:
            return None, 0
        return (_merge_x(a[0], b[0]), ss), sg

    @staticmethod
    def const(nvars: int, c) -> "SuperPolynomial":
        return SuperPolynomial(nvars, _Terms({((), ()): _canon(c)} if c else ()))

    @staticmethod
    def x(nvars: int, k: int) -> "SuperPolynomial":
        return SuperPolynomial(nvars, _Terms({(((_variable(nvars, k), 1),), ()): 1}))

    @staticmethod
    def xi(nvars: int, k: int) -> "SuperPolynomial":
        return SuperPolynomial(nvars, _Terms({((), (_variable(nvars, k),)): 1}))

    def sigma(self) -> "SuperPolynomial":
        """Parity automorphism: negate odd terms."""
        return SuperPolynomial(self.m, _Terms({k: -c if len(k[1]) % 2 else c
                                               for k, c in self.terms.items()}))

    def constant_term(self) -> Coeff:
        return self.terms.get(((), ()), 0)


def _super_letters(mono: Monomial, nv: int):
    """The letters of `Derivation._compile`: x_k^e is (k, rest with x_k^(e-1), e,
    0), as d/dx_k is even, and xi_k at place j is (nv + k, rest, 1, j)."""
    xs, ss = mono
    return tuple(
        [(k, (xs[:pos] + (((k, e - 1),) if e > 1 else ()) + xs[pos + 1:], ss), e, 0)
         for pos, (k, e) in enumerate(xs)]
        + [(nv + k, (xs, ss[:j] + ss[j + 1:]), 1, j) for j, k in enumerate(ss)])


class SuperDerivation(Derivation):
    """Vector field sum c_x[k] d/dx_k + c_xi[k] d/dxi_k with polynomial
    coefficients; parity-homogeneous.  images is c_x followed by c_xi, and
    terms holds them under the keys (k, monomial)."""

    __slots__ = _fields = ("r", "s", "parity", "terms")
    _algebra = SuperPolynomial
    _letters = staticmethod(_super_letters)
    _odd_len = staticmethod(lambda mono: len(mono[1]))
    _grade_field = "parity"

    def __init__(self, r: int, s: int, parity: int, terms: _Terms):
        _set_r(self, r)
        _set_s(self, s)
        _set_parity(self, parity)
        _set_terms(self, terms if terms.__class__ is _Terms else _frozen(dict(terms)))

    def _key(self):
        return self.r, self.s, self.parity, self.terms

    @property
    def m(self) -> int:
        """The number of even (and of odd) variables, the term algebra's m."""
        return self.r * self.s

    _space = property(attrgetter("r", "s"))
    _n_gens = property(lambda self: 2 * self.r * self.s)

    def _bracket_label(self, other: "SuperDerivation") -> Tuple[int, int]:
        return self.parity ^ other.parity, 1 if self.parity and other.parity else -1

    def _relabel(self, parity: int, terms: _Terms) -> "SuperDerivation":
        return SuperDerivation(self.r, self.s, parity, terms)

    @property
    def c_x(self) -> Tuple[SuperPolynomial, ...]:
        return self.images[:self.m]

    @property
    def c_xi(self) -> Tuple[SuperPolynomial, ...]:
        return self.images[self.m:]

    def evaluate_at_origin(self) -> Tuple[List[Coeff], List[Coeff]]:
        return (
            [p.constant_term() for p in self.c_x],
            [p.constant_term() for p in self.c_xi],
        )


_set_r, _set_s, _set_parity, _set_terms = slot_setters(SuperDerivation)


def derivation_zero(r: int, s: int, parity: int) -> SuperDerivation:
    return SuperDerivation(r, s, parity, _Terms())


def bracket(d1: SuperDerivation, d2: SuperDerivation) -> SuperDerivation:
    """Super-commutator, evaluated on the coordinate generators
    (`Derivation.bracket`)."""
    return d1.bracket(d2)


# ---------------------------------------------------------------------------
# q_n elements and the fundamental-field map
# ---------------------------------------------------------------------------

class QnElement(Record):
    """Supermatrix [[A, B], [B, A]]: (A, 0) is the even part, (0, B) odd."""

    n: int
    A: Tuple[Tuple[Coeff, ...], ...]
    B: Tuple[Tuple[Coeff, ...], ...]
    _fields = ("n", "A", "B")

    @staticmethod
    def make(n: int, A=None, B=None) -> "QnElement":
        z = ((0,) * n,) * n
        fa = tuple(tuple(_canon(x) for x in row) for row in A) if A else z
        fb = tuple(tuple(_canon(x) for x in row) for row in B) if B else z
        return QnElement(n, fa, fb)

    @staticmethod
    def unit(n: int, i: int, j: int, odd: bool) -> "QnElement":
        m = [[0] * n for _ in range(n)]
        m[i][j] = 1
        m = tuple(tuple(row) for row in m)
        return QnElement.make(n, A=None if odd else m, B=m if odd else None)


def qn_basis(n: int) -> List[QnElement]:
    out = []
    for odd in (False, True):
        for i in range(n):
            for j in range(n):
                out.append(QnElement.unit(n, i, j, odd))
    return out


def qn_bracket(g1: QnElement, g2: QnElement) -> QnElement:
    """Supercommutator on q_n by blocks: even x even -> [A1,A2]; even x odd
    -> (0, A1 B2 - B2 A1); odd x odd -> (B1 B2 + B2 B1, 0).  In all,
    A = A1 A2 - A2 A1 + B1 B2 + B2 B1 and B = A1 B2 - B2 A1 + B1 A2 - A2 B1,
    summed over the nonzero entries only."""
    n = g1.n

    def rows(X) -> Dict[int, List[Tuple[int, Coeff]]]:
        nz = {i: [(k, x) for k, x in enumerate(row) if x] for i, row in enumerate(X)}
        return {i: row for i, row in nz.items() if row}

    a1, b1, a2, b2 = rows(g1.A), rows(g1.B), rows(g2.A), rows(g2.B)

    def block(products):
        acc: Dict[Tuple[int, int], Coeff] = {}
        for sign, X, Y in products:
            for i, xrow in X.items():
                for k, x in xrow:
                    for j, y in Y.get(k, ()):
                        t = x * y if sign > 0 else -(x * y)
                        old = acc.get((i, j))
                        acc[i, j] = t if old is None else old + t
        return tuple(tuple(_canon(acc.get((i, j), 0)) for j in range(n)) for i in range(n))

    A = block(((1, a1, a2), (-1, a2, a1), (1, b1, b2), (1, b2, b1)))
    B = block(((1, a1, b2), (-1, b2, a1), (1, b1, a2), (-1, a2, b1)))
    return QnElement(n, A, B)


@functools.cache
def _coordinate_matrix(n: int, s: int) -> Tuple[Tuple[SuperPolynomial, ...], ...]:
    """The 2n x 2s chart matrix, built once per (n, s)."""
    r = n - s
    nv = r * s
    zero = SuperPolynomial.zero(nv)
    one = SuperPolynomial.const(nv, 1)
    Z = [[zero for _ in range(2 * s)] for _ in range(2 * n)]
    for i in range(r):
        for a in range(s):
            x = SuperPolynomial.x(nv, i * s + a)
            xi = SuperPolynomial.xi(nv, i * s + a)
            Z[i][a] = Z[n + i][s + a] = x
            Z[i][s + a] = Z[n + i][a] = xi
    for a in range(s):
        Z[r + a][a] = Z[n + r + a][s + a] = one
    return tuple(map(tuple, Z))


def fundamental_field(g: QnElement, s: int) -> SuperDerivation:
    """The vector field of the q_n action: first-order jet of the left
    multiplication on the chart matrix, renormalized by the inverse of the
    frame block (I + t C)^{-1} = I - t C, signs flipped to make the map a
    homomorphism; g must be even (B = 0) or odd (A = 0)."""
    n = g.n
    if not 1 <= s <= n - 1:
        raise ValueError("need 1 <= s <= n-1")
    parts = [(M, odd) for M, odd in ((g.A, False), (g.B, True))
             if any(any(row) for row in M)]
    if len(parts) > 1:
        raise ValueError("mixed-parity element; apply fundamental_field to the parity parts")
    return _jet_field(n, s, *parts[0]) if parts else derivation_zero(n - s, s, 0)


def _jet_field(n: int, s: int, M, odd: bool) -> SuperDerivation:
    """The field of the parity part M: with a square-zero parameter t of
    M's parity, the chart matrix Z moves to Z + t MZ, where M acts in the
    [[A, B], [B, A]] pattern of its parity."""
    r = n - s
    nv = r * s
    Z = _coordinate_matrix(n, s)
    zero = SuperPolynomial.zero(nv)

    # row i of the pattern reads row j (even) or n + j (odd) of Z at M[i][j],
    # and row n + i reads the other half
    MZ = [[zero for _ in range(2 * s)] for _ in range(2 * n)]
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            if not c:
                continue
            for dst, src in ((i, n + j if odd else j), (n + i, j if odd else n + j)):
                for col in range(2 * s):
                    if Z[src][col].terms:
                        MZ[dst][col] = MZ[dst][col] + Z[src][col].scale(c)

    # frame block C = I + t C1 from rows r..r+s-1 and n+r..2n-1
    frame_rows = list(range(r, r + s)) + list(range(n + r, 2 * n))
    C1 = [MZ[fr] for fr in frame_rows]

    # Z'' = (Z + t MZ)(I - t C1): raw t-part = MZ - sigma^t(Z) C1
    C1_rows = [(k, row) for k, row in enumerate(C1) if any(p.terms for p in row)]

    def tparts(row):
        out = list(MZ[row])
        for k, c1 in C1_rows:
            z0 = Z[row][k]
            head = z0.sigma() if odd else z0
            for j, c in enumerate(c1):
                if c.terms:
                    out[j] = out[j] - head * c
        return out

    images = [zero] * (2 * nv)  # c_x, then c_xi
    for i in range(r):
        upper = tparts(i)
        lower = tparts(n + i)
        for j in range(2 * s):
            # Pi-symmetry of the chart: the lower half mirrors x <-> xi
            mirror = lower[j + s] if j < s else lower[j - s]
            _require(upper[j] == mirror, "Pi-symmetry broken in jet")
            # left extraction of the square-zero parameter, signs changed:
            # this makes a -> a* a homomorphism up to the super sign rule
            # (see homomorphism_check)
            k = i * s + j if j < s else nv + i * s + j - s
            images[k] = images[k] - upper[j]
    return SuperDerivation(r, s, int(odd), terms_of(images))


# ---------------------------------------------------------------------------
# Verification-style operations
# ---------------------------------------------------------------------------

@functools.cache
def basis_fields(n: int, s: int) -> Tuple[SuperDerivation, ...]:
    """The fields of `qn_basis(n)` on the chart of s, built once per (n, s)."""
    return tuple(fundamental_field(g, s) for g in qn_basis(n))


def homomorphism_check(n: int, s: int) -> Dict[str, object]:
    """Measure the uniform sign sigma in
        [g1*, g2*] = sigma (-1)^{p(g1) p(g2)} ([g1, g2])*
    over all basis pairs of q_n; fails loudly if no single sign works.

    The super sign rule factor is forced: a bare uniform sign cannot exist
    for a left action (rescaling odd generators by e would need e^2 = -1),
    and this twisted identity is exactly the standard supergeometric
    statement that the sign-changed fundamental fields form an action.
    """
    nn = n * n
    fields = basis_fields(n, s)
    consts = qn_structure_constants(n)
    sigma: Optional[int] = None
    checked = 0
    # each distinct (structure constants, parity) target is built once, with
    # whether it is zero and its two signs
    targets: Dict[Tuple[Tuple[Tuple[int, int], ...], int],
                  Tuple[bool, Dict[int, SuperDerivation]]] = {}
    for i in range(2 * nn):
        p1 = 1 if i >= nn else 0
        for j in range(2 * nn):
            p2 = 1 if j >= nn else 0
            br_fields = bracket(fields[i], fields[j])
            _require(br_fields.parity == p1 ^ p2, "parity bookkeeping broken")
            # the field map is linear: [g1, g2]* is the combination of the
            # basis fields with [g1, g2]'s structure constants
            key = (consts[i][j], br_fields.parity)
            entry = targets.get(key)
            if entry is None:
                target = _combination(fields, consts[i][j], n - s, s, br_fields.parity)
                entry = targets[key] = (target.is_zero(), {1: target, -1: -target})
            zero, signed = entry
            twist = -1 if (p1 and p2) else 1
            # both sides hold canonical terms; the first nonzero target fixes sigma
            if sigma is None and not zero:
                sigma = 1 if br_fields == signed[twist] else -1
            if br_fields != signed[(sigma or 1) * twist]:
                raise AssertionError(f"no uniform sign at basis pair ({i}, {j})")
            checked += 1
    return {
        "sigma": sigma or 1,
        "pairs": checked,
        "convention": "super sign rule: [g1*,g2*] = sigma (-1)^{p1 p2} [g1,g2]*",
    }


@functools.cache
def qn_structure_constants(n: int) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]:
    """[e_i, e_j] on the basis `qn_basis(n)` as its nonzero (k, c) terms in
    increasing k, built once per n as a read-only table.  With e_i = E_ab of
    parity p and e_j = E_cd of parity q, E_ab E_cd = delta_bc E_ad makes
    [e_i, e_j] = delta_bc E_ad -+ delta_da E_cb of parity p xor q, with +
    when both are odd (`qn_bracket` by blocks)."""
    nn = n * n
    table = []
    for i in range(2 * nn):
        p, (a, b) = i // nn, divmod(i % nn, n)
        row = []
        for j in range(2 * nn):
            q, (c, d) = j // nn, divmod(j % nn, n)
            off = (p ^ q) * nn
            acc: Dict[int, int] = {}
            if b == c:
                acc[off + a * n + d] = 1
            if d == a:
                k = off + c * n + b
                acc[k] = acc.get(k, 0) + (1 if p and q else -1)
            row.append(tuple((k, v) for k, v in sorted(acc.items()) if v))
        table.append(tuple(row))
    return tuple(table)


def _combination(fields: Tuple[SuperDerivation, ...],
                 entries: Tuple[Tuple[int, Coeff], ...], r: int, s: int,
                 parity: int) -> SuperDerivation:
    """sum c fields[k] over the (k, c) entries, their terms summed into one
    dict."""
    if not entries:
        return derivation_zero(r, s, parity)
    acc: Dict[Tuple[int, Monomial], Coeff] = {}
    for k, c in entries:
        for key, v in fields[k].terms.items():
            t = c * v
            old = acc.get(key)
            acc[key] = t if old is None else old + t
    return SuperDerivation(r, s, parity, _frozen(acc))


def kernel_of_action(n: int, s: int) -> List[QnElement]:
    """Exact nullspace of g -> g* over the 2 n^2 basis coefficients."""
    fields = basis_fields(n, s)
    # a row per term key (k, monomial), a column per basis field: z with
    # sum z_i field_i = 0
    rows: Dict[Tuple[int, Monomial], List[Coeff]] = {}
    for col, f in enumerate(fields):
        for key, c in f.terms.items():
            rows.setdefault(key, [0] * len(fields))[col] = c
    kern = nullspace([rows[key] for key in sorted(rows)], len(fields))
    out = []
    for vec in kern:
        A = [[0] * n for _ in range(n)]
        B = [[0] * n for _ in range(n)]
        for idx, c in enumerate(vec):
            odd, rem = divmod(idx, n * n)
            (B if odd else A)[rem // n][rem % n] = c
        out.append(QnElement.make(n, A, B))
    return out


def transitivity_at_origin(n: int, s: int) -> Dict[str, int]:
    """Dimensions of the even/odd spans of the evaluations at the origin."""
    r = n - s
    ev_rows, od_rows = [], []
    for f in basis_fields(n, s):
        cx, cxi = f.evaluate_at_origin()
        if f.parity == 0:
            if any(cx):
                ev_rows.append(cx)
            _require(not any(cxi), "an even field has an odd value at the origin")
        else:
            if any(cxi):
                od_rows.append(cxi)
            _require(not any(cx), "an odd field has an even value at the origin")
    return {
        "even": rank(ev_rows) if ev_rows else 0,
        "odd": rank(od_rows) if od_rows else 0,
        "expected": r * s,
    }


def isotropy_weights(n: int, s: int) -> Dict[Tuple[int, ...], Dict[str, int]]:
    """Weights of the isotropy representation on the coordinate germs,
    read from the linear parts of h* for diagonal h = E_jj; each weight
    -lambda_i + lambda_{r+a} occurs once per parity."""
    r = n - s
    nv = r * s
    weights: Dict[Tuple[int, ...], Dict[str, int]] = {}
    # E_jj is basis element j n + j
    diag_fields = [basis_fields(n, s)[j * n + j] for j in range(n)]
    for i in range(r):
        for a in range(s):
            k = i * s + a
            wvec = []
            for j in range(n):
                f = diag_fields[j]
                # coefficient of x_k in f(x_k)
                val = f.c_x[k].terms.get((((k, 1),), ()), 0)
                val_xi = f.c_xi[k].terms.get(((), (k,)), 0)
                _require(val == val_xi, "x and xi germs must share the weight")
                wvec.append(int(val))
            key = tuple(wvec)
            expected = tuple(
                (-1 if j == i else 0) + (1 if j == r + a else 0) for j in range(n)
            )
            _require(key == expected, f"isotropy weight {key} != {expected}")
            weights[key] = {"even": 1, "odd": 1}
    return weights
