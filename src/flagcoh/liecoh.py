"""Chevalley-Eilenberg cochains of the abelian nilradical n- with values in
Hom(g, n- (x) n+), the cocycle attached to an invariant (2,1)-form, exact
coboundary solves over the R-invariant subspace, and the resulting rank of
the degree-2 spectral differential on vector fields.

Works over explicit matrix realizations: sl_n for the Grassmannians, so/sp
for the classical case-I spaces.  R-invariants are cut out as the
simultaneous kernel of the Levi generators (torus weights block-diagonalize
everything; no averaging).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bott import HermitianSymmetricSpace, grassmannian_rs
from .invforms import (
    InvariantVectorForm,
    MatrixPairSpace,
    RootPairSpace,
    eta,
    theta_p,
)
from .scalars import QS_ONE, QS_ZERO, QSqrt2, nullspace, solve

Mat = Dict[Tuple[int, int], Fraction]


def _mat_mul(A: Mat, B: Mat) -> Mat:
    out: Mat = {}
    rows: Dict[int, List[Tuple[int, Fraction]]] = {}
    for (i, j), c in B.items():
        rows.setdefault(i, []).append((j, c))
    for (i, k), a in A.items():
        for (j, c) in rows.get(k, []):
            key = (i, j)
            v = out.get(key, Fraction(0)) + a * c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _mat_sub(A: Mat, B: Mat) -> Mat:
    out = dict(A)
    for k, c in B.items():
        v = out.get(k, Fraction(0)) - c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _commutator(A: Mat, B: Mat) -> Mat:
    return _mat_sub(_mat_mul(A, B), _mat_mul(B, A))


def _trace_prod(A: Mat, B: Mat) -> Fraction:
    tot = Fraction(0)
    for (i, j), c in A.items():
        tot += c * B.get((j, i), Fraction(0))
    return tot


@dataclass
class BasisElement:
    matrix: Mat
    eps_weight: Tuple[Fraction, ...]
    block: str            # "n+" | "n-" | "t" | "r"
    canonical: Tuple[int, int]


@dataclass
class GModuleBasis:
    """Weight basis of g split as n- (+) r (+) n+ per the parabolic."""

    H: HermitianSymmetricSpace
    elements: List[BasisElement]
    nplus_order: List[int]       # element indices in the invforms basis order
    nminus_order: List[int]      # dual order: (x_i, y_j) = delta_ij
    levi_raise: List[int]        # indices of e_{alpha_i}, i in S
    levi_lower: List[int]
    space: object                # the invforms pair space
    # (i, j) -> coordinates of [e_i, e_j], filled by bracket_coords
    _brackets: Dict[Tuple[int, int], Tuple[Fraction, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return len(self.nplus_order)

    def expand(self, X: Mat) -> List[Fraction]:
        """Coordinates of X in the basis.

        Root-vector supports are disjoint, so their coefficients read off
        canonical positions; the A-family torus (H_i = E_ii - E_{i+1,i+1})
        overlaps and uses cumulative diagonal sums instead.
        """
        out = []
        fam_a_torus = self.H.rd.type.family == "A"
        acc = Fraction(0)
        for el in self.elements:
            pos = el.canonical
            if el.block == "t" and fam_a_torus:
                acc += X.get(pos, Fraction(0))
                out.append(acc)
                continue
            c = X.get(pos, Fraction(0))
            ref = el.matrix.get(pos)
            out.append(c / ref)
        # safety: reconstruct
        rec: Mat = {}
        for c, el in zip(out, self.elements):
            if c:
                for k, v in el.matrix.items():
                    nv = rec.get(k, Fraction(0)) + c * v
                    if nv:
                        rec[k] = nv
                    else:
                        rec.pop(k, None)
        assert rec == {k: v for k, v in X.items() if v}, "expansion failed"
        return out

    def project_nplus(self, X: Mat) -> List[Fraction]:
        coords = self.expand(X)
        return [coords[i] for i in self.nplus_order]

    def bracket_coords(self, i: int, j: int) -> Tuple[Fraction, ...]:
        """Coordinates of [e_i, e_j], computed once per pair and basis."""
        coords = self._brackets.get((i, j))
        if coords is None:
            coords = self._brackets[(i, j)] = tuple(self.expand(_commutator(
                self.elements[i].matrix, self.elements[j].matrix)))
        return coords


def _eps_of_position(family: str, N: int, l: int, i: int) -> Tuple[Fraction, ...]:
    """epsilon-weight vector attached to matrix position i (0-based)."""
    v = [Fraction(0)] * l
    if family == "A":
        # gl_n: epsilon_i lives in an n-dimensional space
        v = [Fraction(0)] * N
        v[i] = Fraction(1)
        return tuple(v)
    if i < l:
        v[i] = Fraction(1)
    elif i >= N - l:
        v[N - 1 - i] = Fraction(-1)
    return tuple(v)


def _simple_roots_eps(family: str, l: int) -> List[Tuple[Fraction, ...]]:
    def e(i, n):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    if family == "A":
        n = l + 1
        return [sub(e(i, n), e(i + 1, n)) for i in range(l)]
    if family == "B":
        return [sub(e(i, l), e(i + 1, l)) for i in range(l - 1)] + [e(l - 1, l)]
    if family == "C":
        return [sub(e(i, l), e(i + 1, l)) for i in range(l - 1)] + [
            tuple(2 * c for c in e(l - 1, l))
        ]
    if family == "D":
        return [sub(e(i, l), e(i + 1, l)) for i in range(l - 1)] + [
            add(e(l - 2, l), e(l - 1, l))
        ]
    raise ValueError(family)


def _root_to_eps(H: HermitianSymmetricSpace, root) -> Tuple[Fraction, ...]:
    simple = _simple_roots_eps(H.rd.type.family, H.rd.rank)
    n = len(simple[0])
    out = [Fraction(0)] * n
    for c, s in zip(root, simple):
        for i in range(n):
            out[i] += Fraction(c) * s[i]
    return tuple(out)


_G_BASIS_CACHE: Dict[object, "GModuleBasis"] = {}
_VERDICT_CACHE: Dict[object, object] = {}


def build_g_basis(H: HermitianSymmetricSpace) -> GModuleBasis:
    key = (str(H.rd.type), H.alpha0)
    if key not in _G_BASIS_CACHE:
        _G_BASIS_CACHE[key] = _build_g_basis(H)
    return _G_BASIS_CACHE[key]


def _build_g_basis(H: HermitianSymmetricSpace) -> GModuleBasis:
    family = H.rd.type.family
    l = H.rd.rank
    if family == "E":
        raise ValueError("matrix realization not provided for E types")

    if family == "A":
        N = l + 1
        candidates = [
            ((i, j), {(i, j): Fraction(1)})
            for i in range(N) for j in range(N) if i != j
        ]
        cartan = [
            {(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)} for i in range(l)
        ]
        cartan_canon = [(i, i) for i in range(l)]
    else:
        N = 2 * l + 1 if family == "B" else 2 * l
        candidates = []
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                ip, jp = N - 1 - i, N - 1 - j
                if family == "C":
                    s = Fraction((1 if i < l else -1) * (1 if j < l else -1))
                    if (jp, ip) == (i, j):
                        # self-mirrored long-root direction: F = 2 E_{i,j}
                        m = {(i, j): Fraction(2)}
                    else:
                        m = {(i, j): Fraction(1), (jp, ip): -s}
                else:
                    if (jp, ip) == (i, j):
                        continue  # F_{i,i'} vanishes for the so families
                    m = {(i, j): Fraction(1), (jp, ip): Fraction(-1)}
                candidates.append(((i, j), m))
        cartan = [
            {(k, k): Fraction(1), (N - 1 - k, N - 1 - k): Fraction(-1)}
            for k in range(l)
        ]
        cartan_canon = [(k, k) for k in range(l)]

    # classify candidates by root (epsilon weight), keep one per root
    roots_eps = {}
    for r in H.rd.positive_roots:
        key = tuple(int(c) for c in r)
        roots_eps[_root_to_eps(H, key)] = key
        roots_eps[_root_to_eps(H, tuple(-c for c in key))] = tuple(
            -c for c in key
        )

    elements: List[BasisElement] = []
    used_roots = set()
    for (pos, m) in candidates:
        w = tuple(
            a - b
            for a, b in zip(
                _eps_of_position(family, N, l, pos[0]),
                _eps_of_position(family, N, l, pos[1]),
            )
        )
        if w not in roots_eps or w in used_roots:
            continue
        used_roots.add(w)
        root = roots_eps[w]
        a0c = root[H.alpha0]
        block = "n+" if a0c == 1 else "n-" if a0c == -1 else "r"
        elements.append(BasisElement(m, w, block, pos))
    n_roots = len(H.rd.positive_roots) * 2
    assert len(elements) == n_roots, (len(elements), n_roots)
    zero_eps = tuple(Fraction(0) for _ in elements[0].eps_weight)
    for m, pos in zip(cartan, cartan_canon):
        elements.append(BasisElement(m, zero_eps, "t", pos))

    # n+ ordering must match the invforms space
    rs = grassmannian_rs(H)
    by_root: Dict[Tuple[int, ...], int] = {}
    for idx, el in enumerate(elements):
        if el.block in ("n+", "n-"):
            key = tuple(int(c) for c in roots_key(H, el))
            by_root[(el.block,) + key] = idx
    nplus_order: List[int] = []
    nminus_order: List[int] = []
    if rs is not None:
        r, s = rs
        space = MatrixPairSpace(r, s)
        for i in range(r):
            for a in range(s):
                # epsilon weight of E_{i, r+a} is eps_i - eps_{r+a}
                for idx, el in enumerate(elements):
                    if el.block == "n+" and el.canonical == (i, r + a):
                        nplus_order.append(idx)
                    if el.block == "n-" and el.canonical == (r + a, i):
                        nminus_order.append(idx)
    else:
        space = RootPairSpace(H.dim)
        for root in H.N_plus:
            eps = _root_to_eps(H, root)
            neg = tuple(-c for c in eps)
            for idx, el in enumerate(elements):
                if el.block == "n+" and el.eps_weight == eps:
                    nplus_order.append(idx)
            for idx, el in enumerate(elements):
                if el.block == "n-" and el.eps_weight == neg:
                    nminus_order.append(idx)
    assert len(nplus_order) == H.dim and len(nminus_order) == H.dim

    # normalize n- representatives so that tr(x_i y_j) = delta_ij
    for k, (ip, im) in enumerate(zip(nplus_order, nminus_order)):
        t = _trace_prod(elements[ip].matrix, elements[im].matrix)
        assert t != 0
        if t != 1:
            el = elements[im]
            elements[im] = BasisElement(
                {p: c / t for p, c in el.matrix.items()},
                el.eps_weight, el.block, el.canonical,
            )
    for ip in nplus_order:
        for im in nminus_order:
            t = _trace_prod(elements[ip].matrix, elements[im].matrix)
            assert t == (1 if nplus_order.index(ip) == nminus_order.index(im) else 0)

    # Levi simple-root vectors
    levi_raise, levi_lower = [], []
    for i in H.levi.S:
        root = tuple(1 if j == i else 0 for j in range(l))
        eps = _root_to_eps(H, root)
        neg = tuple(-c for c in eps)
        up = [k for k, el in enumerate(elements) if el.block == "r" and el.eps_weight == eps]
        dn = [k for k, el in enumerate(elements) if el.block == "r" and el.eps_weight == neg]
        assert len(up) == 1 and len(dn) == 1
        levi_raise.append(up[0])
        levi_lower.append(dn[0])

    gb = GModuleBasis(H, elements, nplus_order, nminus_order,
                      levi_raise, levi_lower, space)
    _sanity_check(gb)
    return gb


def roots_key(H, el: BasisElement):
    """Root of a root-vector element in simple-root coordinates."""
    simple = _simple_roots_eps(H.rd.type.family, H.rd.rank)
    n = len(simple[0])
    mat = [[simple[j][i] for j in range(len(simple))] for i in range(n)]
    x = solve(mat, [Fraction(c) for c in el.eps_weight])
    assert x is not None
    return tuple(x)


def _sanity_check(gb: GModuleBasis) -> None:
    # torus eigenvalues match recorded weights
    for t_idx, el_t in enumerate(gb.elements):
        if el_t.block != "t":
            continue
        for el in gb.elements:
            if el.block == "t":
                continue
            br = _commutator(el_t.matrix, el.matrix)
            lam = _weight_eval(gb, el_t, el.eps_weight)
            want = {k: lam * v for k, v in el.matrix.items() if lam * v}
            assert br == want, "weight bookkeeping broken"


def _weight_eval(gb: GModuleBasis, torus_el: BasisElement, eps_weight) -> Fraction:
    """Evaluation of an epsilon-weight on a torus basis matrix."""
    fam = gb.H.rd.type.family
    tot = Fraction(0)
    for (i, j), c in torus_el.matrix.items():
        if i != j:
            continue
        if fam == "A":
            tot += c * eps_weight[i]
        else:
            l = gb.H.rd.rank
            if i < l:
                tot += c * eps_weight[i]
            # mirrored half carries the opposite weight and the basis matrix
            # already stores the -1 entry there, so skip it
    return tot


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------

EVec = List[QSqrt2]  # coordinates in the coefficient module


@dataclass
class Cochain:
    """CE cochain of n- with values in Hom(g, M), degree 0..2.

    The default coefficient module M is n- (x) n+ (coordinate v*n + u);
    mdim overrides the module dimension for other coefficient modules.
    """

    gb: GModuleBasis
    degree: int
    # deg 0: data[w] ; deg 1: data[(v, w)] ; deg 2: data[(v1, v2, w)], v1 < v2
    data: Dict[object, EVec]
    mdim: Optional[int] = None

    @property
    def module_dim(self) -> int:
        return self.mdim if self.mdim is not None else self.gb.n * self.gb.n

    def value(self, key) -> EVec:
        return self.data.get(key, [QS_ZERO] * self.module_dim)

    def is_zero(self) -> bool:
        return all(not any(v) for v in self.data.values())

    def __add__(self, other: "Cochain") -> "Cochain":
        assert self.degree == other.degree and self.module_dim == other.module_dim
        out = {k: list(v) for k, v in self.data.items()}
        for k, v in other.data.items():
            if k in out:
                out[k] = [a + b for a, b in zip(out[k], v)]
            else:
                out[k] = list(v)
        return Cochain(self.gb, self.degree, out, self.mdim)

    def scale(self, c) -> "Cochain":
        c = c if isinstance(c, QSqrt2) else QSqrt2(c)
        return Cochain(
            self.gb, self.degree,
            {k: [c * x for x in v] for k, v in self.data.items()},
            self.mdim,
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def flat(self) -> List[QSqrt2]:
        n = self.gb.n
        dim_g = self.gb.dim
        out: List[QSqrt2] = []
        md = self.module_dim
        if self.degree == 0:
            keys = list(range(dim_g))
        elif self.degree == 1:
            keys = [(v, w) for v in range(n) for w in range(dim_g)]
        else:
            keys = [
                (v1, v2, w)
                for v1 in range(n) for v2 in range(v1 + 1, n)
                for w in range(dim_g)
            ]
        for k in keys:
            out.extend(self.value(k))
        return out


def ce_differential(c: Cochain) -> Cochain:
    """delta with the convention (delta c)(y)(z) = c([y, z]) in degree 0 and
    (delta c)(y1,y2)(z) = c(y2)([y1,z]) - c(y1)([y2,z]) in degree 1
    (n- abelian, trivial action on the coefficients)."""
    gb = c.gb
    n, dim_g = gb.n, gb.dim
    md = c.module_dim
    if c.degree >= 2:
        raise ValueError("differential implemented for degrees 0 and 1 only")
    out: Dict[object, EVec] = {}
    if c.degree == 0:
        for v in range(n):
            for w in range(dim_g):
                coords = gb.bracket_coords(gb.nminus_order[v], w)
                acc = [QS_ZERO] * md
                for gi, co in enumerate(coords):
                    if co:
                        val = c.data.get(gi)
                        if val:
                            for t, x in enumerate(val):
                                if x:
                                    acc[t] = acc[t] + x * QSqrt2(co)
                if any(acc):
                    out[(v, w)] = acc
        return Cochain(gb, 1, out, c.mdim)

    for v1 in range(n):
        for v2 in range(v1 + 1, n):
            for w in range(dim_g):
                acc = [QS_ZERO] * md
                for (va, vb, sgn) in ((v1, v2, 1), (v2, v1, -1)):
                    coords = gb.bracket_coords(gb.nminus_order[va], w)
                    for gi, co in enumerate(coords):
                        if co:
                            val = c.data.get((vb, gi))
                            if val:
                                f = QSqrt2(sgn * co)
                                for t, x in enumerate(val):
                                    if x:
                                        acc[t] = acc[t] + x * f
                if any(acc):
                    out[(v1, v2, w)] = acc
    return Cochain(gb, 2, out, c.mdim)


def cochain_from_form(gb: GModuleBasis, theta: InvariantVectorForm) -> Cochain:
    """c_theta(v)(w) = sum_i e_i* (x) theta_o(e_i, pi(w), v), matching the
    worked examples (the displayed argument order differs by a global sign)."""
    if theta.space != gb.space:
        raise ValueError("form space does not match the algebra realization")
    n, dim_g = gb.n, gb.dim
    out: Dict[object, EVec] = {}
    for w in range(dim_g):
        pw = gb.project_nplus(gb.elements[w].matrix)
        if not any(pw):
            continue
        for v in range(n):
            acc = [QS_ZERO] * (n * n)
            for j, co in enumerate(pw):
                if not co:
                    continue
                f = QSqrt2(co)
                for i in range(n):
                    vec = theta.value([i, j], [v])
                    for u, x in vec.items():
                        acc[i * n + u] = acc[i * n + u] + f * x
            if any(acc):
                out[(v, w)] = acc
    return Cochain(gb, 1, out)


# ---------------------------------------------------------------------------
# R-invariance: weights and Levi generator actions
# ---------------------------------------------------------------------------

def _module_g(gb: GModuleBasis):
    """(weights, action) of g as an R-module via ad."""
    weights = [gb.elements[i].eps_weight for i in range(gb.dim)]

    def act(gen_idx: int, i: int) -> Tuple[Fraction, ...]:
        return gb.bracket_coords(gen_idx, i)

    return weights, act


def _module_nminus_nplus(gb: GModuleBasis):
    n = gb.n
    zero = tuple(Fraction(0) for _ in gb.elements[0].eps_weight)

    def wsum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    weights = []
    for v in range(n):
        for u in range(n):
            weights.append(
                wsum(
                    gb.elements[gb.nminus_order[v]].eps_weight,
                    gb.elements[gb.nplus_order[u]].eps_weight,
                )
            )

    def act(gen_idx: int, t: int) -> Dict[int, Fraction]:
        v, u = divmod(t, n)
        out: Dict[int, Fraction] = {}
        bv = gb.bracket_coords(gen_idx, gb.nminus_order[v])
        for vi, nm in enumerate(gb.nminus_order):
            c = bv[nm]
            if c:
                out[vi * n + u] = out.get(vi * n + u, Fraction(0)) + c
        bu = gb.bracket_coords(gen_idx, gb.nplus_order[u])
        for ui, npl in enumerate(gb.nplus_order):
            c = bu[npl]
            if c:
                out[v * n + ui] = out.get(v * n + ui, Fraction(0)) + c
        return out

    return weights, act


def invariant_zero_cochains(gb: GModuleBasis) -> List[Cochain]:
    """Basis of Hom_R(g, n- (x) n+) by the weight-blocked equivariant solve."""
    n, dim_g = gb.n, gb.dim
    g_weights, g_act = _module_g(gb)
    e_weights, e_act = _module_nminus_nplus(gb)

    unknowns = [
        (w, t)
        for w in range(dim_g)
        for t in range(n * n)
        if g_weights[w] == e_weights[t]
    ]
    index = {ut: k for k, ut in enumerate(unknowns)}
    rows: List[List[Fraction]] = []
    # the torus needs no equations: unknowns pair equal weights only
    for gen in gb.levi_raise + gb.levi_lower:
        e_imgs = [e_act(gen, s) for s in range(n * n)]
        for w in range(dim_g):
            coords = g_act(gen, w)  # [gen, g_w] in g-coordinates
            for t in range(n * n):
                # equation: sum over images; row over unknowns
                row = {}
                # term rho_E(gen) c(w) at coordinate t: c(w)_s contributes via
                # e_act(gen, s)[t]
                for s in range(n * n):
                    if (w, s) in index:
                        c = e_imgs[s].get(t)
                        if c:
                            row[index[(w, s)]] = row.get(index[(w, s)], Fraction(0)) + c
                # term -c([gen, w]) at coordinate t
                for w2, co in enumerate(coords):
                    if co and (w2, t) in index:
                        row[index[(w2, t)]] = row.get(index[(w2, t)], Fraction(0)) - co
                if row:
                    dense = [Fraction(0)] * len(unknowns)
                    for k, v in row.items():
                        dense[k] = v
                    rows.append(dense)
    basis = nullspace(rows, len(unknowns)) if rows else [
        [Fraction(1) if i == k else Fraction(0) for i in range(len(unknowns))]
        for k in range(len(unknowns))
    ]
    out = []
    for vec in basis:
        data: Dict[object, EVec] = {}
        for k, c in enumerate(vec):
            if c:
                w, t = unknowns[k]
                arr = data.setdefault(w, [QS_ZERO] * (n * n))
                arr[t] = arr[t] + QSqrt2(c)
        out.append(Cochain(gb, 0, data))
    return out


def is_r_invariant(c: Cochain) -> bool:
    """(x . c) = 0 for the torus and the Levi raise/lower generators."""
    gb = c.gb
    n, dim_g = gb.n, gb.dim
    _, e_act = _module_nminus_nplus(gb)
    gens = gb.levi_raise + gb.levi_lower + [
        i for i, el in enumerate(gb.elements) if el.block == "t"
    ]
    assert c.degree == 1
    for gen in gens:
        for v in range(n):
            brv = gb.bracket_coords(gen, gb.nminus_order[v])
            brv_in_nm = [brv[nm] for nm in gb.nminus_order]
            for w in range(dim_g):
                acc = [QS_ZERO] * (n * n)
                val = c.data.get((v, w))
                if val:
                    for s in range(n * n):
                        if val[s]:
                            for t, co in e_act(gen, s).items():
                                acc[t] = acc[t] + val[s] * QSqrt2(co)
                brw = gb.bracket_coords(gen, w)
                for w2, co in enumerate(brw):
                    if co:
                        v2 = c.data.get((v, w2))
                        if v2:
                            for t in range(n * n):
                                acc[t] = acc[t] - v2[t] * QSqrt2(co)
                for v2, co in enumerate(brv_in_nm):
                    if co:
                        val2 = c.data.get((v2, w))
                        if val2:
                            for t in range(n * n):
                                acc[t] = acc[t] - val2[t] * QSqrt2(co)
                if any(acc):
                    return False
    return True


def invariant_one_cochains(gb: GModuleBasis) -> List[Cochain]:
    """Basis of Hom_R(n- (x) g, n- (x) n+), i.e. the invariant 1-cochains."""
    n, dim_g = gb.n, gb.dim
    e_weights, e_act = _module_nminus_nplus(gb)

    def wsum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    v_weights = [
        wsum(gb.elements[gb.nminus_order[v]].eps_weight, gb.elements[w].eps_weight)
        for v in range(n) for w in range(dim_g)
    ]
    unknowns = [
        (k, t)
        for k in range(n * dim_g)
        for t in range(n * n)
        if v_weights[k] == e_weights[t]
    ]
    index = {ut: i for i, ut in enumerate(unknowns)}
    rows: List[List[Fraction]] = []
    gens = gb.levi_raise + gb.levi_lower
    for gen in gens:
        # action of gen on the (v, w) tensor basis
        act_v: Dict[int, Dict[int, Fraction]] = {}
        for v in range(n):
            brv = gb.bracket_coords(gen, gb.nminus_order[v])
            row = {}
            for vi, nm in enumerate(gb.nminus_order):
                if brv[nm]:
                    row[vi] = brv[nm]
            act_v[v] = row
        for k in range(n * dim_g):
            v, w = divmod(k, dim_g)
            img: Dict[int, Fraction] = {}
            for vi, c in act_v[v].items():
                key = vi * dim_g + w
                img[key] = img.get(key, Fraction(0)) + c
            for w2, c in enumerate(gb.bracket_coords(gen, w)):
                if c:
                    key = v * dim_g + w2
                    img[key] = img.get(key, Fraction(0)) + c
            for t in range(n * n):
                row = {}
                if (k, t) not in index and not img:
                    continue
                for s in range(n * n):
                    if (k, s) in index:
                        c = e_act(gen, s).get(t)
                        if c:
                            row[index[(k, s)]] = row.get(index[(k, s)], Fraction(0)) + c
                for k2, c in img.items():
                    if (k2, t) in index:
                        row[index[(k2, t)]] = row.get(index[(k2, t)], Fraction(0)) - c
                if row:
                    dense = [Fraction(0)] * len(unknowns)
                    for idx, val in row.items():
                        dense[idx] = val
                    rows.append(dense)
    basis = nullspace(rows, len(unknowns)) if rows else []
    out = []
    for vec in basis:
        data: Dict[object, EVec] = {}
        for i, c in enumerate(vec):
            if c:
                k, t = unknowns[i]
                v, w = divmod(k, dim_g)
                arr = data.setdefault((v, w), [QS_ZERO] * (n * n))
                arr[t] = arr[t] + QSqrt2(c)
        out.append(Cochain(gb, 1, data))
    return out


def h1_invariant_dimension(gb: GModuleBasis) -> int:
    """dim H^1(n-, Hom(g, n- (x) n+))^R = invariant cocycles modulo the
    differentials of invariant 0-cochains (delta commutes with R)."""
    ones = invariant_one_cochains(gb)
    if not ones:
        return 0
    from .scalars import rank as _rank

    diff_flat = [ce_differential(c).flat() for c in ones]
    n_rows = len(ones)
    cocycle_dim = n_rows - _rank(diff_flat)
    zeros = invariant_zero_cochains(gb)
    boundary_flat = [ce_differential(z).flat() for z in zeros]
    boundary_dim = _rank(boundary_flat) if boundary_flat else 0
    return cocycle_dim - boundary_dim


@dataclass
class CoboundaryResult:
    is_coboundary: bool
    witness: Optional[Cochain]


def is_invariant_coboundary(c: Cochain) -> CoboundaryResult:
    """Solve c = delta c0 over the R-invariant 0-cochains, exactly."""
    if c.degree != 1:
        raise ValueError("coboundary test implemented for 1-cochains")
    if not ce_differential(c).is_zero():
        raise ValueError("input is not a cocycle")
    gb = c.gb
    basis = invariant_zero_cochains(gb)
    images = [ce_differential(b).flat() for b in basis]
    target = c.flat()
    if not basis:
        return CoboundaryResult(not any(target), None)
    mat = [[images[j][i] for j in range(len(basis))] for i in range(len(target))]
    x = solve(mat, target)
    if x is None:
        return CoboundaryResult(False, None)
    witness = Cochain(gb, 0, {})
    for xj, b in zip(x, basis):
        witness = witness + b.scale(xj)
    return CoboundaryResult(True, witness)


# ---------------------------------------------------------------------------
# The degree-2 story: d2 on the adjoint summand of E2^{0,1} can hit the
# adjoint part of H^2(Omega^2 (x) Theta) where it is nonzero (the published
# tables miss those summands).  The image family is theta /\ (theta2 /\ w)
# evaluated at the base point; its H^2-class vanishes iff the corresponding
# 2-cochain with coefficients in Lambda^2 n- (x) n+ is a coboundary, and by
# torus equivariance a coboundary test only needs the weight-zero block.
# ---------------------------------------------------------------------------

def _lambda2_module(gb: GModuleBasis):
    """Basis bookkeeping for Lambda^2 n- (x) n+: ((i<j) pair, u)."""
    n = gb.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_index = {p: k for k, p in enumerate(pairs)}

    def wsum(*ws):
        return tuple(sum(c) for c in zip(*ws))

    weights = []
    for (i, j) in pairs:
        wi = gb.elements[gb.nminus_order[i]].eps_weight
        wj = gb.elements[gb.nminus_order[j]].eps_weight
        for u in range(n):
            weights.append(wsum(wi, wj, gb.elements[gb.nplus_order[u]].eps_weight))
    return pairs, pair_index, weights


def two_cochain_from_d2_image(gb: GModuleBasis, theta: InvariantVectorForm
                              ) -> Cochain:
    """The 2-cochain representing w -> [theta /\\ (theta2 /\\ w)] at o."""
    from .invforms import barwedge_inv

    n, dim_g = gb.n, gb.dim
    th2 = theta_p(gb.space, 2)
    pairs, pair_index, _ = _lambda2_module(gb)
    md = len(pairs) * n
    data: Dict[object, EVec] = {}
    for w in range(dim_g):
        pw = gb.project_nplus(gb.elements[w].matrix)
        if not any(pw):
            continue
        # phi_w(u; v) = theta2(pi(w), u; v), a (1,1)-form
        phi_tensor: Dict = {}
        for a in range(n):
            for b in range(n):
                vec = {}
                for j, co in enumerate(pw):
                    if co:
                        for u, x in th2.value([j, a], [b]).items():
                            nx = vec.get(u, QS_ZERO) + QSqrt2(co) * x
                            if nx:
                                vec[u] = nx
                            else:
                                vec.pop(u, None)
                if vec:
                    phi_tensor[((a,), (b,))] = vec
        phi_w = InvariantVectorForm(gb.space, 1, 1, phi_tensor)
        F_w = barwedge_inv(theta, phi_w)  # (2,2)-form
        for v1 in range(n):
            for v2 in range(v1 + 1, n):
                acc = [QS_ZERO] * md
                nonzero = False
                for (i, j) in pairs:
                    vec = F_w.value([i, j], [v1, v2])
                    for u, x in vec.items():
                        acc[pair_index[(i, j)] * n + u] = x
                        nonzero = True
                if nonzero:
                    data[(v1, v2, w)] = acc
    return Cochain(gb, 2, data, md)


def two_cochain_is_coboundary(gb: GModuleBasis, c2: Cochain) -> bool:
    """Solve delta x = c2 over the weight-zero block of the 1-cochains with
    coefficients in Lambda^2 n- (x) n+ (exact; sufficient by equivariance)."""
    n, dim_g = gb.n, gb.dim
    md = c2.module_dim
    _, _, mod_weights = _lambda2_module(gb)

    def wof(v, w):
        return tuple(
            a + b
            for a, b in zip(
                gb.elements[gb.nminus_order[v]].eps_weight,
                gb.elements[w].eps_weight,
            )
        )

    unknowns = []
    for v in range(n):
        for w in range(dim_g):
            wt = wof(v, w)
            unknowns.extend((v, w, t) for t in range(md) if wt == mod_weights[t])
    index = {u: k for k, u in enumerate(unknowns)}

    # rows: coordinates of delta x and of c2 over weight-zero keys
    rows: List[List[QSqrt2]] = []
    rhs: List[QSqrt2] = []
    for v1 in range(n):
        for v2 in range(v1 + 1, n):
            for w in range(dim_g):
                target = c2.data.get((v1, v2, w))
                coeffs: Dict[int, Dict[int, Fraction]] = {}
                for (va, vb, sgn) in ((v1, v2, 1), (v2, v1, -1)):
                    for gi, co in enumerate(
                            gb.bracket_coords(gb.nminus_order[va], w)):
                        if co:
                            col = coeffs.setdefault((vb, gi), {})
                            col[0] = col.get(0, Fraction(0)) + sgn * co
                if not coeffs and target is None:
                    continue
                for t in range(md):
                    row_entries = {}
                    for (vb, gi), cmap in coeffs.items():
                        if (vb, gi, t) in index:
                            row_entries[index[(vb, gi, t)]] = cmap[0]
                    tval = target[t] if target else QS_ZERO
                    if not row_entries and not tval:
                        continue
                    dense = [QS_ZERO] * len(unknowns)
                    for k, co in row_entries.items():
                        dense[k] = QSqrt2(co)
                    rows.append(dense)
                    rhs.append(tval)
    if not rows:
        return True
    mat = [list(r) for r in rows]
    return solve(mat, rhs) is not None


def _two_differential(c: Cochain) -> Dict[object, EVec]:
    """Private degree-2 -> 3 differential, used only to assert closedness."""
    gb = c.gb
    n, dim_g, md = gb.n, gb.dim, c.module_dim
    out: Dict[object, EVec] = {}
    for v1 in range(n):
        for v2 in range(v1 + 1, n):
            for v3 in range(v2 + 1, n):
                for w in range(dim_g):
                    acc = [QS_ZERO] * md
                    for (va, pair, sgn) in (
                        (v1, (v2, v3), 1), (v2, (v1, v3), -1), (v3, (v1, v2), 1)
                    ):
                        for gi, co in enumerate(
                            gb.bracket_coords(gb.nminus_order[va], w)
                        ):
                            if co:
                                val = c.data.get(pair + (gi,))
                                if val:
                                    f = QSqrt2(sgn * co)
                                    for t, x in enumerate(val):
                                        if x:
                                            acc[t] = acc[t] + x * f
                    if any(acc):
                        out[(v1, v2, v3, w)] = acc
    return out


def d2_vanishes_on_adjoint_at_01(H: HermitianSymmetricSpace, a, b) -> bool:
    """True when d2 annihilates the i*(adjoint) summand of E2^{0,1}, i.e.
    when the class family [theta /\\ (theta2 /\\ w)] in H^2(Omega^2 (x) Theta)
    vanishes; decided by the exact weight-zero coboundary solve."""
    key = ("adj01", str(H.rd.type), H.alpha0, QSqrt2(a), QSqrt2(b))
    if key in _VERDICT_CACHE:
        return _VERDICT_CACHE[key]
    gb = build_g_basis(H)
    th = theta_form(gb, a, b)
    c2 = two_cochain_from_d2_image(gb, th)
    if c2.is_zero():
        verdict = True
    else:
        assert not _two_differential(c2), "d2-image family must be a cocycle"
        verdict = two_cochain_is_coboundary(gb, c2)
    _VERDICT_CACHE[key] = verdict
    return verdict


def theta_form(gb: GModuleBasis, a, b) -> InvariantVectorForm:
    """a theta2 + b eta on the realization's pair space (eta needs Grassmann)."""
    a = a if isinstance(a, QSqrt2) else QSqrt2(a)
    b = b if isinstance(b, QSqrt2) else QSqrt2(b)
    th2 = theta_p(gb.space, 2)
    if isinstance(gb.space, MatrixPairSpace) and min(gb.space.r, gb.space.s) >= 2:
        return th2.scale(a) + eta(gb.space).scale(b)
    if b:
        # eta degenerates (or is undefined); fold it into theta2 where legal
        if isinstance(gb.space, MatrixPairSpace):
            sign = 1 if gb.space.r == 1 else -1
            return th2.scale(a + b * QSqrt2(sign))
        raise ValueError("eta undefined on non-Grassmann spaces")
    return th2.scale(a)


def d2_rank_on_vector_fields(H: HermitianSymmetricSpace, a, b) -> int:
    """Rank of ad_{l*[theta]}: H^0(M, T_-1) -> H^1(M, T_1): dim g when the
    CE class of c_theta is nonzero, 0 when it is an invariant coboundary."""
    key = ("rank", str(H.rd.type), H.alpha0, QSqrt2(a), QSqrt2(b))
    if key in _VERDICT_CACHE:
        return _VERDICT_CACHE[key]
    gb = build_g_basis(H)
    th = theta_form(gb, a, b)
    c = cochain_from_form(gb, th)
    if c.is_zero():
        rank = 0
    else:
        res = is_invariant_coboundary(c)
        rank = 0 if res.is_coboundary else gb.dim
    _VERDICT_CACHE[key] = rank
    return rank
