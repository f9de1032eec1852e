"""Chevalley-Eilenberg cochains of the abelian nilradical n- with values in
Hom(g, n- (x) n+), the cocycle attached to an invariant (2,1)-form, exact
coboundary solves over the R-invariant subspace, and the resulting rank of
the degree-2 spectral differential on vector fields.  theta = a theta2 +
b eta is read over `invforms.theta_basis` at `invforms.theta_coordinates`.

`GModuleBasis.bracket_coords` gives sparse g-coordinates without zeros.
A `Cochain` is an `invforms.VecTensor`, one flat map {(key, coordinate):
nonzero scalar} as a form's and a derivation's terms are, which gives it
its arithmetic, its label check and its equality and hash; its builders
fill one flat dict each, and its coboundary solves read `invforms.span_rows`.

g is described once, by the Chevalley structure constants of its root
datum (`_chevalley`); basis weights are roots in simple-root coordinates.
R-invariants are cut out by torus weights plus the raising generators
e_{alpha_i}, i in S, alone: the unknowns pair coordinates of equal weight,
and a weight-zero vector that every e_{alpha_i} kills is a highest-weight
vector of weight 0, which spans a trivial module (Humphreys, Introduction
to Lie Algebras and Representation Theory, 20-21), so the lowering
generators add no equation.  No averaging.
"""

from __future__ import annotations

import bisect
import functools
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .bott import HermitianSymmetricSpace, build_space, grassmannian_rs
from .exterior import _frozen, _Terms
from .invforms import (
    InvariantVectorForm,
    MatrixPairSpace,
    RootPairSpace,
    VecTensor,
    barwedge_inv,
    span_rows,
    span_solve,
    theta_basis,
    theta_coordinates,
    theta_p,
)
from .record import Record
from .rootsys import RootDatum, SimpleLieType, Weight, _require
from .scalars import (Coeff, SparseRow, canonical, combine_targets, exact_quotient,
                      reduce_targets, rref_kernel, solve, sparse_rref)


def _neg(r: Weight) -> Weight:
    return tuple(-c for c in r)


def _code(r: Weight) -> int:
    """sum_i r_i 64^i: additive, positive on the positive roots, and distinct
    on vectors with coordinates in (-32, 32), as all of `_chevalley`'s are."""
    return sum(c << 6 * i for i, c in enumerate(r))


@functools.cache
def _chevalley(rd: RootDatum) -> Tuple[Tuple[Weight, ...], Dict[Tuple[Weight, Weight], int]]:
    """The roots of rd and the Chevalley structure constants N(a, b), with
    [e_a, e_b] = N(a, b) e_{a+b} for every pair of roots whose sum is a
    root (Carter, Simple Groups of Lie Type, 4.1-4.2), built once per root
    datum, i.e. per simple type.

    The positive roots are ordered by height, then by decreasing
    coordinates, and followed by their negatives; on type A this order
    gives the signs of the matrix units E_ij.  N is p + 1 on each
    extraspecial pair (a, b), p the largest with b - p a a root.  Carter
    4.1.2 gives the rest: N(a, b) = -N(b, a) = -N(-a, -b), the rotation
    N(a, b)/(c, c) = N(b, c)/(a, a) = N(c, a)/(b, b) for a + b + c = 0, and
    the four-root relation for the other special pairs, taken by height.
    It runs on `_code`s: a sum is one int add and a root test one lookup;
    coordinates lie in [-4, 4] up to E7, so a + b and b - k a, k <= 4, fit.
    """
    pos = sorted(rd.positive_roots, key=lambda r: (sum(r), _neg(r)))
    roots = tuple(pos) + tuple(map(_neg, pos))
    root = {_code(r): r for r in roots}
    order = {_code(r): k for k, r in enumerate(pos)}
    norm = {a: canonical(rd.inner(r, r)) for a, r in root.items()}   # 1 or 2
    N: Dict[Tuple[int, int], int] = {}

    def string(a, b):
        """p + 1, p the largest with b - p a a root."""
        p = 0
        while (b := b - a) in norm:
            p += 1
        return p + 1

    def n(a, b):
        """N(a, b) from the pairs of one sign already in N, by rotation."""
        c = -(a + b)
        if (a > 0) == (b > 0):
            return N[a, b] if a > 0 else -N[-a, -b]
        if (b > 0) == (c > 0):
            return exact_quotient(norm[c] * n(b, c), norm[a])
        return exact_quotient(norm[c] * n(c, a), norm[b])

    def term(w, x, y, z):
        s = w + x
        return Fraction(n(w, x) * n(y, z), norm[s]) if s in norm else 0

    def put(a, b, v):
        """N(a, b) = v and N(b, a) = -v, once |v| = p + 1 is checked."""
        if abs(v) != string(a, b):
            raise AssertionError(f"N{root[a], root[b]} = {v} in {rd.type}")
        N[a, b], N[b, a] = int(v), -int(v)

    for xi in order:
        # the special pairs (a, b) of xi, a before b; the first is extraspecial
        special = [(a, xi - a) for a in order if order.get(xi - a, -1) > order[a]]
        if special:
            (a1, b1), *rest = special
            put(a1, b1, string(a1, b1))
            for a, b in rest:
                put(a, b, norm[xi] / N[a1, b1] * (term(b1, -a, a1, -b) + term(-a, a1, b1, -b)))
    for a in root:
        for b in root:
            if a + b in norm and (a, b) not in N:
                put(a, b, n(a, b))
    return roots, {(root[a], root[b]): v for (a, b), v in N.items()}


class BasisElement(Record):
    weight: Weight        # its root in simple-root coordinates, 0 on the torus
    block: str            # "n+" | "n-" | "t" | "r"
    scale: Coeff = 1      # the element is scale * e_weight; h_k on the torus
    _fields = ("weight", "block", "scale")


class GModuleBasis(Record):
    """Weight basis of g split as n- (+) r (+) n+ per the parabolic: root
    vectors, then the coroots h_1 .. h_l.  It hashes by identity, so the
    results computed from it are cached per basis with functools.cache."""

    H: HermitianSymmetricSpace
    elements: List[BasisElement]
    nplus_order: List[int]       # element indices in the invforms basis order
    nminus_order: List[int]      # dual order: (x_i, y_j) = delta_ij
    levi_raise: List[int]        # indices of e_{alpha_i}, i in S
    space: object                # the invforms pair space
    root_index: Dict[Weight, int]  # root -> index of its root vector
    constants: Dict[Tuple[Weight, Weight], int]  # N(a, b) of the type
    _fields = ("H", "elements", "nplus_order", "nminus_order", "levi_raise", "space",
               "root_index", "constants")
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return len(self.nplus_order)

    @functools.cache
    def bracket_coords(self, i: int, j: int) -> Mapping[int, Coeff]:
        """Coordinates of [b_i, b_j] in the basis's own scaling, read from the
        structure constants of the type, computed once per pair and basis
        and shared read-only."""
        x, y = self.elements[i], self.elements[j]
        rd = self.H.rd
        torus = self.dim - rd.rank
        out: SparseRow = {}
        if "t" in (x.block, y.block):
            if x.block != y.block:
                # [h_k, b] = <root of b, alpha_k^vee> b
                k, g, sign = (i - torus, j, 1) if x.block == "t" else (j - torus, i, -1)
                c = sign * rd.simple_pairings(self.elements[g].weight)[k]
                if c:
                    out[g] = c
        elif N := self.constants.get((x.weight, y.weight)):
            # [e_a, e_b] = N(a, b) e_{a+b}
            g = self.root_index[tuple(map(operator.add, x.weight, y.weight))]
            out[g] = exact_quotient(x.scale * y.scale * N, self.elements[g].scale)
        elif x.weight == _neg(y.weight):
            # [e_a, e_-a] = h_a = sum_k a_k (a_k, a_k)/(a, a) h_k
            norm = 2 * rd.inner(x.weight, x.weight)
            for k, a in enumerate(x.weight):
                if a:
                    out[torus + k] = canonical(x.scale * y.scale * a * rd.form2[k][k] / norm)
        return MappingProxyType(out)


def build_g_basis(H: HermitianSymmetricSpace) -> GModuleBasis:
    """The Chevalley basis of g for H, built once per space: the simple
    type and alpha0 fix H, and are the key, so a lookup does not hash the
    whole root datum."""
    return _g_basis(H.rd.type, H.alpha0)


@functools.cache
def _g_basis(t: SimpleLieType, alpha0: int) -> GModuleBasis:
    """Root vectors e_a, then h_1 .. h_l.  On type A e_a is the matrix unit
    E_ij, a = eps_i - eps_j, in row-major order; elsewhere the roots come in
    the order of `_chevalley`.  n+ follows the pair space, and n- is the
    opposite roots scaled by (a, a)/2, so that (x_k, y_k) = 1 under the
    invariant form with (e_a, e_-a) = 2/(a, a)."""
    H = build_space(t, alpha0)
    l = t.rank
    chevalley_roots, N = _chevalley(H.rd)
    rs = grassmannian_rs(H)
    if rs is not None:
        r, s = rs
        space = MatrixPairSpace(r, s)

        def eij(i, j):
            """eps_i - eps_j in simple-root coordinates."""
            return tuple(int(i <= k < j) - int(j <= k < i) for k in range(l))

        roots = [eij(i, j) for i in range(l + 1) for j in range(l + 1) if i != j]
        plus = [eij(i, r + a) for i in range(r) for a in range(s)]
    else:
        space = RootPairSpace(H.dim)
        roots = list(chevalley_roots)
        plus = list(H.N_plus)
    scale = {_neg(a): canonical(H.rd.inner(a, a) / 2) for a in plus}
    elements = [BasisElement(a, {1: "n+", -1: "n-"}.get(a[alpha0], "r"), scale.get(a, 1))
                for a in roots]
    elements += [BasisElement((0,) * l, "t") for _ in range(l)]
    index = {a: g for g, a in enumerate(roots)}
    nplus_order = [index[a] for a in plus]
    _require(sorted(nplus_order) == [g for g, el in enumerate(elements) if el.block == "n+"],
             "n+ basis does not match the pair space")
    return GModuleBasis(H, elements, nplus_order, [index[_neg(a)] for a in plus],
                        [index[H.rd.simple_roots[i]] for i in H.levi.S], space, index, N)


def roots_key(gb: GModuleBasis, g: int) -> Tuple:
    """The root of the root vector b_g in simple-root coordinates, read from
    the torus rows of the bracket table, [h_i, b_g] = <root, alpha_i^vee>
    b_g, by one solve against the transposed Cartan matrix."""
    rd = gb.H.rd
    torus = gb.dim - rd.rank
    pairings = [gb.bracket_coords(torus + i, g).get(g, 0) for i in range(rd.rank)]
    return tuple(solve([list(col) for col in zip(*rd.cartan)], pairings))


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------

class Cochain(VecTensor):
    """CE cochain of n- with values in Hom(g, M), of degree k >= 0.

    The default coefficient module M is n- (x) n+ (coordinate v*n + u),
    with mdim None; another module gives its dimension in mdim.  Cochains
    combine only on the same basis gb, in one degree and with one mdim.
    `data` is one read-only map {(key, t): nonzero scalar}, t a coordinate
    of M and key w in degree 0 and (v1, ..., vk, w), v1 < ... < vk, in
    degree k; an absent coordinate is zero.  The scalars are rational, an
    int when integral and a Fraction otherwise, and elements of Q(sqrt2)
    where the parameter of a theta form has a sqrt(2) part.
    """

    _vecs = "data"
    _fields = ("gb", "degree", "data", "mdim")

    def __init__(self, gb: GModuleBasis, degree: int, data: _Terms,
                 mdim: Optional[int] = None):
        # A dict from keys to dense lists of module_dim scalars (a JSON
        # witness, as `perfbench/worker.py` reads one back) is stored flat
        if any(isinstance(v, list) for v in data.values()):
            data = _Terms({(k, t): x for k, v in data.items() for t, x in enumerate(v) if x})
        super().__init__(gb, degree, data, mdim)

    @property
    def module_dim(self) -> int:
        return self.mdim if self.mdim is not None else self.gb.n * self.gb.n


@functools.cache
def _inverse_ad(gb: GModuleBasis) -> Dict[int, List[Tuple[int, int, Coeff]]]:
    """For each g coordinate gi, the (u, z, co) with co the gi coordinate of
    [y_u, b_z], y_u the u-th of n-, by u, then z; built once per basis."""
    inv: Dict[int, List[Tuple[int, int, Coeff]]] = {}
    for u, v in enumerate(gb.nminus_order):
        for z in range(gb.dim):
            for gi, co in gb.bracket_coords(v, z).items():
                inv.setdefault(gi, []).append((u, z, co))
    return inv


class _Delta(dict):
    """The CE differential on k-cochains,
    (delta c)(v0 < ... < vk)(w) = sum_i (-1)^i c(v0 .. ^vi .. vk)([vi, w])
    (n- abelian, trivial action on the coefficients), as a memo from a key of
    c to the [(key of delta c, coefficient)] it feeds, built on first read."""

    def __init__(self, gb: GModuleBasis, k: int):
        super().__init__()
        self.inv, self.k = _inverse_ad(gb), k

    def __missing__(self, key) -> list:
        rest, gi = (key[:-1], key[-1]) if self.k else ((), key)
        feeds = self[key] = []
        for u, z, co in self.inv.get(gi, ()):
            if u not in rest:
                i = bisect.bisect(rest, u)
                feeds.append((rest[:i] + (u,) + rest[i:] + (z,), -co if i % 2 else co))
        return feeds


_delta = functools.cache(_Delta)   # one memo per basis and degree


def ce_differential(c: Cochain) -> Cochain:
    """delta c in any degree (see _Delta): in degree 0,
    (delta c)(y)(z) = c([y, z]), and in degree 1,
    (delta c)(y1,y2)(z) = c(y2)([y1,z]) - c(y1)([y2,z])."""
    delta = _delta(c.gb, c.degree)
    acc: Dict[object, Coeff] = {}
    for (key, t), x in c.data.items():
        for tgt, co in delta[key]:
            coord = (tgt, t)
            acc[coord] = acc.get(coord, 0) + co * x
    return Cochain(c.gb, c.degree + 1, _frozen(acc), c.mdim)


def cochain_from_form(gb: GModuleBasis, theta: InvariantVectorForm) -> Cochain:
    """c_theta(v)(w) = sum_i e_i* (x) theta_o(e_i, pi(w), v), matching the
    worked examples (the displayed argument order differs by a global sign)."""
    if theta.space != gb.space:
        raise ValueError("form space does not match the algebra realization")
    n, nplus = gb.n, gb.nplus_order
    # pi(e_w) is the unit vector at w's position j in nplus_order
    return Cochain(gb, 1, _Terms({((v, nplus[j]), i * n + u): x
                                  for i, j, v, u, x in _pair_reads(theta)}))


def _pair_reads(form: InvariantVectorForm):
    """(i, j, v, u, x), x the n+ coordinate u of form(e_i, e_j; v), once each
    at (a, b) and, negated, at (b, a) of a (2,1)-form's entries (((a, b), (v,)), u)."""
    for (((a, b), (v,)), u), x in form.tensor.items():
        yield a, b, v, u, x
        yield b, a, v, u, -x


# ---------------------------------------------------------------------------
# R-invariance: one equivariant system over torus weights and raising
# generators
# ---------------------------------------------------------------------------

def _wsum(*ws) -> Tuple[int, ...]:
    return tuple(sum(c) for c in zip(*ws))


class _Module(NamedTuple):
    """An R-module in a weight basis: eps weights, and for each raising
    generator the sparse image of every basis vector."""

    weights: List[Tuple[int, ...]]
    act: Dict[int, List[SparseRow]]


def _ad_module(gb: GModuleBasis, idx: Sequence[int]) -> _Module:
    """The span of the basis elements idx under ad; g, n- and n+ are
    R-submodules of g."""
    pos = {i: k for k, i in enumerate(idx)}
    act = {x: [{pos[j]: co for j, co in gb.bracket_coords(x, i).items()}
               for i in idx]
           for x in gb.levi_raise}
    return _Module([gb.elements[i].weight for i in idx], act)


def _tensor(A: _Module, B: _Module) -> _Module:
    """A (x) B with basis a * dim B + b."""
    nb = len(B.weights)
    act = {}
    for x in A.act:
        imgs = []
        for a, ia in enumerate(A.act[x]):
            for b, ib in enumerate(B.act[x]):
                img = {a2 * nb + b: co for a2, co in ia.items()}
                for b2, co in ib.items():
                    img[a * nb + b2] = img.get(a * nb + b2, 0) + co
                imgs.append(img)
        act[x] = imgs
    return _Module([_wsum(wa, wb) for wa in A.weights for wb in B.weights], act)


def _weight_pairs(v_weights, e_weights) -> List[Tuple[int, int]]:
    """The pairs (i, t) of equal weight, i major, t minor."""
    by_weight: Dict[Tuple[int, ...], List[int]] = {}
    for t, w in enumerate(e_weights):
        by_weight.setdefault(w, []).append(t)
    return [(i, t) for i, w in enumerate(v_weights) for t in by_weight.get(w, ())]


def _equivariant_system(V: _Module, E: _Module
                        ) -> Tuple[List[Tuple[int, int]], List[SparseRow]]:
    """Unknowns and sparse rows of rho_E(x) f - f rho_V(x) = 0, f in Hom(V, E).

    The unknowns are the coordinates f(i)_t with equal weights of i and t,
    so the torus needs no equation, and x runs over the raising generators
    only (see the module docstring).
    """
    unknowns = _weight_pairs(V.weights, E.weights)
    by_source: Dict[int, List[Tuple[int, int]]] = {}
    for k, (i, t) in enumerate(unknowns):
        by_source.setdefault(i, []).append((t, k))
    rows: List[SparseRow] = []
    for x in V.act:
        eqs: Dict[Tuple[int, int], SparseRow] = {}
        for k, (i, s) in enumerate(unknowns):
            for t, co in E.act[x][s].items():
                row = eqs.setdefault((i, t), {})
                row[k] = row.get(k, 0) + co
        for i, img in enumerate(V.act[x]):
            for i2, co in img.items():
                for t, k in by_source.get(i2, ()):
                    row = eqs.setdefault((i, t), {})
                    row[k] = row.get(k, 0) - co
        rows.extend(eqs.values())
    return unknowns, rows


@functools.cache
def _invariant_zero(gb: GModuleBasis) -> Tuple[List[Cochain], List[Cochain]]:
    """The invariant 0-cochains, a basis of Hom_R(g, n- (x) n+), and their
    delta images, solved once per basis: the kernel of the equivariant
    system of the maps g -> n- (x) n+, one vector per free unknown."""
    nminus = _ad_module(gb, gb.nminus_order)
    unknowns, rows = _equivariant_system(
        _ad_module(gb, range(gb.dim)), _tensor(nminus, _ad_module(gb, gb.nplus_order)))
    red, pivots, _ = sparse_rref(rows, len(unknowns))
    # the unknown (i, t) is the coordinate t of the value at the basis element i
    basis = [Cochain(gb, 0, _Terms({unknowns[k]: x for k, x in vec.items()}))
             for vec in rref_kernel(red, pivots, len(unknowns))]
    return basis, [ce_differential(b) for b in basis]


def invariant_zero_cochains(gb: GModuleBasis) -> List[Cochain]:
    """Basis of Hom_R(g, n- (x) n+) by the weight-blocked equivariant solve."""
    return list(_invariant_zero(gb)[0])


def _coboundary_columns(gb: GModuleBasis, degree: int) -> list:
    """The columns of delta x = c for a `degree`-cochain c (1 or 2): the
    delta images of the invariant 0-cochains, or the deltas of the unknowns
    x(v, w)_t, (v, w) = divmod(i, dim g), of the weight-zero block of the
    1-cochains with coefficients in Lambda^2 n- (x) n+ (sufficient by torus
    equivariance)."""
    if degree == 1:
        return [im.entries() for im in _invariant_zero(gb)[1]]
    v_weights = [_wsum(gb.elements[v].weight, el.weight)
                 for v in gb.nminus_order for el in gb.elements]
    delta = _delta(gb, 1)
    return [[((tgt, t), co) for tgt, co in delta[divmod(i, gb.dim)]]
            for i, t in _weight_pairs(v_weights, _lambda2_module(gb)[2])]


class CoboundaryResult(Record):
    is_coboundary: bool
    witness: Optional[Cochain]
    _fields = ("is_coboundary", "witness")


def _coboundary_result(gb: GModuleBasis, x: Optional[SparseRow]) -> CoboundaryResult:
    """The verdict of a solution x on the degree-1 columns, and the witness
    sum_j x_j b_j over the invariant 0-cochains b_j (None when x is 0)."""
    if not x:
        return CoboundaryResult(x is not None, None)
    basis, acc = _invariant_zero(gb)[0], {}
    for j, xj in x.items():
        for coord, v in basis[j].data.items():
            acc[coord] = acc.get(coord, 0) + xj * v
    return CoboundaryResult(True, Cochain(gb, 0, _frozen(acc)))


def is_invariant_coboundary(c: Cochain) -> CoboundaryResult:
    """Solve c = delta c0 over the R-invariant 0-cochains, exactly (witness
    None when c = 0)."""
    if c.degree != 1:
        raise ValueError("coboundary test implemented for 1-cochains")
    if not ce_differential(c).is_zero():
        raise ValueError("input is not a cocycle")
    return _coboundary_result(c.gb, span_solve(_coboundary_columns(c.gb, 1), c)[2])


# ---------------------------------------------------------------------------
# The degree-2 story: d2 on the adjoint summand of E2^{0,1} can hit the
# adjoint part of H^2(Omega^2 (x) Theta) where it is nonzero (the published
# tables miss those summands).  The image family is theta /\ (theta2 /\ w)
# evaluated at the base point; its H^2-class vanishes iff the corresponding
# 2-cochain with coefficients in Lambda^2 n- (x) n+ is a coboundary, and by
# torus equivariance a coboundary test only needs the weight-zero block.
# ---------------------------------------------------------------------------

@functools.cache
def _lambda2_module(gb: GModuleBasis):
    """Basis bookkeeping for Lambda^2 n- (x) n+: ((i<j) pair, u), built
    once per basis; callers only read it."""
    n = gb.n
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    pair_index = {p: k for k, p in enumerate(pairs)}
    wm = [gb.elements[v].weight for v in gb.nminus_order]
    weights = tuple(_wsum(wm[i], wm[j], gb.elements[u].weight)
                    for (i, j) in pairs for u in gb.nplus_order)
    return pairs, pair_index, weights


def two_cochain_from_d2_image(gb: GModuleBasis, theta: InvariantVectorForm
                              ) -> Cochain:
    """The 2-cochain representing w -> [theta /\\ (theta2 /\\ w)] at o."""
    n = gb.n
    pairs, pair_index, _ = _lambda2_module(gb)
    # phi_w(u; v) = theta2(pi(w), u; v), a (1,1)-form; pi(e_w) is the unit
    # vector at w's position j in nplus_order
    phis: List[dict] = [{} for _ in range(n)]
    for j, u, v, t, x in _pair_reads(theta_p(gb.space, 2)):
        phis[j][(((u,), (v,)), t)] = x
    data = {}
    for phi, w in zip(phis, gb.nplus_order):
        phi_w = InvariantVectorForm(gb.space, 1, 1, _Terms(phi))
        # F_w = theta /\ phi_w, a (2,2)-form: its entry (((i, j), (v1, v2)), u)
        # is the value at (v1, v2, w) on the coordinate ((i, j), u)
        for (((i, j), (v1, v2)), u), x in barwedge_inv(theta, phi_w).tensor.items():
            data[((v1, v2, w), pair_index[(i, j)] * n + u)] = x
    return Cochain(gb, 2, _Terms(data), len(pairs) * n)


def two_cochain_is_coboundary(gb: GModuleBasis, c2: Cochain) -> bool:
    """Solve delta x = c2 over the weight-zero block of the 1-cochains with
    coefficients in Lambda^2 n- (x) n+ (exact; sufficient by equivariance)."""
    return span_solve(_coboundary_columns(gb, 2), c2)[2] is not None


def theta_form(gb: GModuleBasis, a, b) -> InvariantVectorForm:
    """a theta2 + b eta on the realization's pair space, summed over
    `invforms.theta_basis` at `invforms.theta_coordinates`; rational when a
    and b are."""
    theta, *rest = (f.scale(c) for c, f in zip(theta_coordinates(gb.space, a, b),
                                               theta_basis(gb.space)))
    for f in rest:
        theta = theta + f
    return theta


@functools.cache
def _theta_family(gb: GModuleBasis, degree: int):
    """The `degree` coboundary system reduced once per basis and degree
    against the cochains of `invforms.theta_basis`: c_theta in degree 1, the
    d2-image family in degree 2.  Both are linear in theta, so the family
    read at theta's coordinates solves the system for theta."""
    build = cochain_from_form if degree == 1 else two_cochain_from_d2_image
    targets = [build(gb, f) for f in theta_basis(gb.space)]
    _require(all(ce_differential(c).is_zero() for c in targets), "c_theta must be a cocycle")
    columns = _coboundary_columns(gb, degree)
    rows, rhs = span_rows(columns, targets)
    return reduce_targets(rows, len(columns), rhs)[2]


def _theta_solution(gb: GModuleBasis, degree: int, a, b) -> Optional[SparseRow]:
    return combine_targets(_theta_family(gb, degree), theta_coordinates(gb.space, a, b))


def d2_vanishes_on_adjoint_at_01(H: HermitianSymmetricSpace, a, b) -> bool:
    """True when d2 annihilates the i*(adjoint) summand of E2^{0,1}, i.e.
    when the class family [theta /\\ (theta2 /\\ w)] in H^2(Omega^2 (x) Theta)
    vanishes; read from the space's degree-2 theta family."""
    return _theta_solution(build_g_basis(H), 2, a, b) is not None


def d2_on_vector_fields(H: HermitianSymmetricSpace, a, b
                        ) -> Tuple[int, CoboundaryResult]:
    """The rank of ad_{l*[theta]}: H^0(M, T_-1) -> H^1(M, T_1) for theta =
    a theta2 + b eta, and the invariant-coboundary solve of the CE 1-cochain
    c_theta it is read from (witness None when c_theta = 0), a read of the
    space's degree-1 theta family (`_theta_family`)."""
    gb = build_g_basis(H)
    res = _coboundary_result(gb, _theta_solution(gb, 1, a, b))
    # dim g when the CE class of c_theta is nonzero, 0 when it vanishes
    return (0 if res.is_coboundary else gb.dim, res)


def d2_rank_on_vector_fields(H: HermitianSymmetricSpace, a, b) -> int:
    """Rank of ad_{l*[theta]}: H^0(M, T_-1) -> H^1(M, T_1); see
    `d2_on_vector_fields`."""
    return d2_on_vector_fields(H, a, b)[0]
