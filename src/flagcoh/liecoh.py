"""Chevalley-Eilenberg cochains of the abelian nilradical n- with values in
Hom(g, n- (x) n+), the cocycle attached to an invariant (2,1)-form, exact
coboundary solves over the R-invariant subspace, and the resulting rank of
the degree-2 spectral differential on vector fields.  theta = a theta2 +
b eta is read over `invforms.theta_basis` at `invforms.theta_coordinates`.

Every coefficient vector is a sparse `invforms.Vec` {coordinate: scalar}
without zero entries: the g-coordinates of `GModuleBasis.expand`, and each
value of a cochain, whose absent keys are zero.  Sums go through
`invforms._add_into`.

Works over explicit matrix realizations: sl_n for the Grassmannians, so/sp
for the classical case-I spaces.  R-invariants are cut out by torus weights
plus the raising generators e_{alpha_i}, i in S, alone: the unknowns pair
coordinates of equal weight, and a weight-zero vector that every
e_{alpha_i} kills is a highest-weight vector of weight 0, which spans a
trivial module (Humphreys, Introduction to Lie Algebras and Representation
Theory, 20-21), so the lowering generators add no equation.  No averaging.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .bott import HermitianSymmetricSpace, build_space, grassmannian_rs
from .invforms import (
    InvariantVectorForm,
    MatrixPairSpace,
    RootPairSpace,
    Vec,
    _add_into,
    barwedge_inv,
    theta_basis,
    theta_coordinates,
    theta_p,
)
from .rootsys import SimpleLieType, _require
from .scalars import (Coeff, SparseRow, canonical, combine_targets, exact_quotient,
                      reduce_targets, rref_kernel, solve, sparse_rref)

Mat = Dict[Tuple[int, int], Coeff]


def _mat_mul(A: Mat, B: Mat) -> Mat:
    out: Mat = {}
    rows: Dict[int, List[Tuple[int, Coeff]]] = {}
    for (i, j), c in B.items():
        rows.setdefault(i, []).append((j, c))
    for (i, k), a in A.items():
        for (j, c) in rows.get(k, []):
            key = (i, j)
            v = out.get(key, 0) + a * c
            if v:
                out[key] = canonical(v)
            else:
                out.pop(key, None)
    return out


def _commutator(A: Mat, B: Mat) -> Mat:
    out = _mat_mul(A, B)
    _add_into(out, -1, _mat_mul(B, A))
    return out


def _trace_prod(A: Mat, B: Mat) -> Coeff:
    tot = 0
    for (i, j), c in A.items():
        tot += c * B.get((j, i), 0)
    return canonical(tot)


@dataclass
class BasisElement:
    matrix: Mat
    eps_weight: Tuple[int, ...]
    block: str            # "n+" | "n-" | "t" | "r"
    canonical: Tuple[int, int]


@dataclass(eq=False)
class GModuleBasis:
    """Weight basis of g split as n- (+) r (+) n+ per the parabolic.  It
    hashes by identity, so the results computed from it are cached per
    basis with functools.cache."""

    H: HermitianSymmetricSpace
    elements: List[BasisElement]
    nplus_order: List[int]       # element indices in the invforms basis order
    nminus_order: List[int]      # dual order: (x_i, y_j) = delta_ij
    levi_raise: List[int]        # indices of e_{alpha_i}, i in S
    space: object                # the invforms pair space

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return len(self.nplus_order)

    def expand(self, X: Mat) -> Vec:
        """Coordinates of X in the basis, as element index -> coefficient.

        Root-vector supports are disjoint, so each nonzero cell of X at a
        canonical position gives one coefficient; the A-family torus
        (H_i = E_ii - E_{i+1,i+1}) overlaps and uses cumulative diagonal
        sums instead.  The coordinates must rebuild X exactly.
        """
        cells, torus = _cell_map(self)
        out: Vec = {}
        for pos, x in X.items():
            if x and pos in cells:
                g, entry = cells[pos]
                out[g] = exact_quotient(x, entry)
        acc = 0
        for g, pos in torus:
            acc += X.get(pos, 0)
            if acc:
                out[g] = acc
        rec: Mat = {}
        for g, c in out.items():
            _add_into(rec, c, self.elements[g].matrix)
        _require(rec == {k: v for k, v in X.items() if v}, "expansion failed")
        return out

    @functools.cache
    def bracket_coords(self, i: int, j: int) -> Mapping[int, Coeff]:
        """Coordinates of [e_i, e_j], computed once per pair and basis and
        shared read-only; for i > j they are those of -[e_j, e_i]."""
        if i > j:
            return MappingProxyType({g: -c for g, c in self.bracket_coords(j, i).items()})
        return MappingProxyType(self.expand(
            _commutator(self.elements[i].matrix, self.elements[j].matrix)))


@functools.cache
def _cell_map(gb: GModuleBasis):
    """{canonical cell: (element index, entry there)} for every element but
    the A-family torus, and the (element index, diagonal cell) pairs of that
    torus in order."""
    fam_a = gb.H.rd.type.family == "A"
    cells, torus = {}, []
    for g, el in enumerate(gb.elements):
        if el.block == "t" and fam_a:
            torus.append((g, el.canonical))
        else:
            cells[el.canonical] = (g, el.matrix[el.canonical])
    return cells, torus


def _eps_of_position(family: str, N: int, l: int, i: int) -> Tuple[int, ...]:
    """epsilon-weight vector attached to matrix position i (0-based)."""
    v = [0] * l
    if family == "A":
        # gl_n: epsilon_i lives in an n-dimensional space
        v = [0] * N
        v[i] = 1
        return tuple(v)
    if i < l:
        v[i] = 1
    elif i >= N - l:
        v[N - 1 - i] = -1
    return tuple(v)


@functools.cache
def _simple_roots_eps(family: str, l: int) -> Tuple[Tuple[int, ...], ...]:
    """The simple roots in epsilon coordinates, built once per family and
    rank."""
    def e(i, n, c=1):
        return tuple(c if j == i else 0 for j in range(n))

    if family == "A":
        return tuple(_wsum(e(i, l + 1), e(i + 1, l + 1, -1)) for i in range(l))
    chain = tuple(_wsum(e(i, l), e(i + 1, l, -1)) for i in range(l - 1))
    if family == "B":
        return chain + (e(l - 1, l),)
    if family == "C":
        return chain + (e(l - 1, l, 2),)
    if family == "D":
        return chain + (_wsum(e(l - 2, l), e(l - 1, l)),)
    raise ValueError(family)


def _root_to_eps(H: HermitianSymmetricSpace, root: Sequence[int]) -> Tuple[int, ...]:
    """An integral root in simple-root coordinates, in epsilon coordinates."""
    simple = _simple_roots_eps(H.rd.type.family, H.rd.rank)
    n = len(simple[0])
    out = [0] * n
    for c, s in zip(root, simple):
        for i in range(n):
            out[i] += c * s[i]
    return tuple(out)


def build_g_basis(H: HermitianSymmetricSpace) -> GModuleBasis:
    """The matrix realization of g for H, built once per space: the simple
    type and alpha0 fix H, and are the key, so a lookup does not hash the
    whole root datum."""
    return _g_basis(H.rd.type, H.alpha0)


@functools.cache
def _g_basis(t: SimpleLieType, alpha0: int) -> GModuleBasis:
    H = build_space(t, alpha0)
    family = H.rd.type.family
    l = H.rd.rank
    if family == "E":
        raise ValueError("matrix realization not provided for E types")

    if family == "A":
        N = l + 1
        candidates = [
            ((i, j), {(i, j): 1})
            for i in range(N) for j in range(N) if i != j
        ]
        cartan = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(l)]
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
                    s = (1 if i < l else -1) * (1 if j < l else -1)
                    if (jp, ip) == (i, j):
                        # self-mirrored long-root direction: F = 2 E_{i,j}
                        m = {(i, j): 2}
                    else:
                        m = {(i, j): 1, (jp, ip): -s}
                else:
                    if (jp, ip) == (i, j):
                        continue  # F_{i,i'} vanishes for the so families
                    m = {(i, j): 1, (jp, ip): -1}
                candidates.append(((i, j), m))
        cartan = [{(k, k): 1, (N - 1 - k, N - 1 - k): -1} for k in range(l)]
        cartan_canon = [(k, k) for k in range(l)]

    # classify candidates by root (epsilon weight), keep one per root
    roots_eps = {}
    for r in H.rd.positive_roots:
        roots_eps[_root_to_eps(H, r)] = r
        neg = tuple(-c for c in r)
        roots_eps[_root_to_eps(H, neg)] = neg

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
    _require(len(elements) == n_roots,
             f"{len(elements)} root vectors for {n_roots} roots")
    zero_eps = (0,) * len(elements[0].eps_weight)
    for m, pos in zip(cartan, cartan_canon):
        elements.append(BasisElement(m, zero_eps, "t", pos))

    # n+ ordering must match the invforms space; n- pairs with it
    rs = grassmannian_rs(H)
    if rs is not None:
        r, s = rs
        space = MatrixPairSpace(r, s)
        # E_{i, r+a} in n+ and E_{r+a, i} in n-, row-major in (i, a)
        index = {(el.block, el.canonical): k for k, el in enumerate(elements)}
        cells = [(i, r + a) for i in range(r) for a in range(s)]
        plus, minus = [("n+", c) for c in cells], [("n-", c[::-1]) for c in cells]
    else:
        space = RootPairSpace(H.dim)
        index = {(el.block, el.eps_weight): k for k, el in enumerate(elements)}
        eps = [_root_to_eps(H, root) for root in H.N_plus]
        plus = [("n+", e) for e in eps]
        minus = [("n-", tuple(-c for c in e)) for e in eps]
    nplus_order = [index[k] for k in plus if k in index]
    nminus_order = [index[k] for k in minus if k in index]
    _require(len(nplus_order) == H.dim and len(nminus_order) == H.dim,
             "n+/n- bases do not match the pair space")

    # normalize n- representatives so that tr(x_i y_j) = delta_ij
    for k, (ip, im) in enumerate(zip(nplus_order, nminus_order)):
        t = _trace_prod(elements[ip].matrix, elements[im].matrix)
        _require(t != 0, "n- representative orthogonal to its n+ partner")
        if t != 1:
            el = elements[im]
            elements[im] = BasisElement(
                {p: exact_quotient(c, t) for p, c in el.matrix.items()},
                el.eps_weight, el.block, el.canonical,
            )
    for k, ip in enumerate(nplus_order):
        for k2, im in enumerate(nminus_order):
            t = _trace_prod(elements[ip].matrix, elements[im].matrix)
            _require(t == (k == k2), "n+ and n- bases are not dual")

    # Levi simple-root vectors
    levi_raise = []
    for i in H.levi.S:
        eps = _root_to_eps(H, tuple(1 if j == i else 0 for j in range(l)))
        up = [k for k, el in enumerate(elements) if el.block == "r" and el.eps_weight == eps]
        _require(len(up) == 1, f"no single root vector for alpha_{i}")
        levi_raise.append(up[0])

    gb = GModuleBasis(H, elements, nplus_order, nminus_order, levi_raise, space)
    _sanity_check(gb)
    return gb


def roots_key(H, el: BasisElement):
    """Root of a root-vector element in simple-root coordinates."""
    simple = _simple_roots_eps(H.rd.type.family, H.rd.rank)
    n = len(simple[0])
    mat = [[simple[j][i] for j in range(len(simple))] for i in range(n)]
    x = solve(mat, list(el.eps_weight))
    _require(x is not None, "root-vector weight outside the root lattice")
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
            _require(br == want, "weight bookkeeping broken")


def _weight_eval(gb: GModuleBasis, torus_el: BasisElement, eps_weight) -> int:
    """Evaluation of an epsilon-weight on a torus basis matrix."""
    fam = gb.H.rd.type.family
    tot = 0
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

def _accumulate(data: Dict[object, Vec], key, coeff, vec: Vec) -> None:
    """data[key] += coeff * vec, dropping the key when its value cancels."""
    tgt = data.setdefault(key, {})
    _add_into(tgt, coeff, vec)
    if not tgt:
        del data[key]


@dataclass
class Cochain:
    """CE cochain of n- with values in Hom(g, M), of degree k >= 0.

    The default coefficient module M is n- (x) n+ (coordinate v*n + u);
    mdim overrides the module dimension for other coefficient modules.
    Each value is a sparse Vec {coordinate: scalar} without zeros, and a
    key whose value vanishes is absent.  The scalars are rational, an int
    when integral and a Fraction otherwise, and elements of Q(sqrt2) where
    the parameter of a theta form has a sqrt(2) part.
    """

    gb: GModuleBasis
    degree: int
    # deg 0: data[w] ; deg k >= 1: data[(v1, ..., vk, w)], v1 < ... < vk
    data: Dict[object, Vec]
    mdim: Optional[int] = None

    def __post_init__(self):
        # a value given as a dense list of module_dim scalars (a JSON
        # witness, a test oracle) is stored sparse
        if any(isinstance(v, list) for v in self.data.values()):
            sparse = ((k, {t: x for t, x in enumerate(v) if x}
                       if isinstance(v, list) else v) for k, v in self.data.items())
            self.data = {k: v for k, v in sparse if v}

    @property
    def module_dim(self) -> int:
        return self.mdim if self.mdim is not None else self.gb.n * self.gb.n

    def is_zero(self) -> bool:
        return not self.data

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.gb is not other.gb:
            raise ValueError("cochains on different bases of g")
        if self.degree != other.degree or self.module_dim != other.module_dim:
            raise ValueError("cochains of different degree or module")
        out = {k: dict(v) for k, v in self.data.items()}
        for k, v in other.data.items():
            _accumulate(out, k, 1, v)
        return Cochain(self.gb, self.degree, out, self.mdim)

    def scale(self, c) -> "Cochain":
        out: Dict[object, Vec] = {}
        for k, v in self.data.items():
            _accumulate(out, k, c, v)
        return Cochain(self.gb, self.degree, out, self.mdim)

    def __sub__(self, other):
        return self + other.scale(-1)


@functools.cache
def _delta(gb: GModuleBasis, k: int) -> Dict[object, list]:
    """The CE differential on k-cochains,
    (delta c)(v0 < ... < vk)(w) = sum_i (-1)^i c(v0 .. ^vi .. vk)([vi, w])
    (n- abelian, trivial action on the coefficients), as a map from each key
    of c to the [(key of delta c, coefficient)] it feeds; built once per
    basis and degree."""
    delta: Dict[object, list] = {}
    ad = [[gb.bracket_coords(v, w).items() for w in range(gb.dim)]
          for v in gb.nminus_order]
    for vs in itertools.combinations(range(gb.n), k + 1):
        for w in range(gb.dim):
            tgt = vs + (w,)
            for i, v in enumerate(vs):
                rest = vs[:i] + vs[i + 1:]
                for gi, co in ad[v][w]:
                    delta.setdefault(rest + (gi,) if rest else gi, []).append(
                        (tgt, -co if i % 2 else co))
    return delta


def _differential(c: Cochain) -> Cochain:
    """delta c in any degree (see _delta)."""
    delta = _delta(c.gb, c.degree)
    out: Dict[object, Vec] = {}
    for key, vec in c.data.items():
        for tgt, co in delta.get(key, ()):
            _accumulate(out, tgt, co, vec)
    return Cochain(c.gb, c.degree + 1, out, c.mdim)


def ce_differential(c: Cochain) -> Cochain:
    """delta with the convention (delta c)(y)(z) = c([y, z]) in degree 0 and
    (delta c)(y1,y2)(z) = c(y2)([y1,z]) - c(y1)([y2,z]) in degree 1
    (n- abelian, trivial action on the coefficients)."""
    if c.degree >= 2:
        raise ValueError("differential implemented for degrees 0 and 1 only")
    return _differential(c)


def cochain_from_form(gb: GModuleBasis, theta: InvariantVectorForm) -> Cochain:
    """c_theta(v)(w) = sum_i e_i* (x) theta_o(e_i, pi(w), v), matching the
    worked examples (the displayed argument order differs by a global sign)."""
    if theta.space != gb.space:
        raise ValueError("form space does not match the algebra realization")
    n = gb.n
    out: Dict[object, Vec] = {}
    # pi(e_w) is the unit vector at w's position j in nplus_order
    for j, w in enumerate(gb.nplus_order):
        for v in range(n):
            for i in range(n):
                _accumulate(out, (v, w), 1, {
                    i * n + u: x for u, x in theta.value([i, j], [v]).items()})
    return Cochain(gb, 1, out)


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
    return _Module([gb.elements[i].eps_weight for i in idx], act)


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


def _cochain_system(gb: GModuleBasis, degree: int):
    """The equivariant system of the `degree`-cochains (0 or 1), i.e. of
    the maps V -> n- (x) n+ for V = g or n- (x) g."""
    g = _ad_module(gb, range(gb.dim))
    nminus = _ad_module(gb, gb.nminus_order)
    V = g if degree == 0 else _tensor(nminus, g)
    return _equivariant_system(V, _tensor(nminus, _ad_module(gb, gb.nplus_order)))


def _invariant_cochains(gb: GModuleBasis, degree: int) -> List[Cochain]:
    """Basis of the invariant `degree`-cochains: the kernel of their
    equivariant system, one vector per free unknown."""
    unknowns, rows = _cochain_system(gb, degree)
    red, pivots, _ = sparse_rref(rows, len(unknowns))
    out = []
    for vec in rref_kernel(red, pivots, len(unknowns)):
        data: Dict[object, Vec] = {}
        for k, x in vec.items():
            i, t = unknowns[k]
            data.setdefault(i if degree == 0 else divmod(i, gb.dim), {})[t] = x
        out.append(Cochain(gb, degree, data))
    return out


@functools.cache
def _invariant_zero(gb: GModuleBasis) -> Tuple[List[Cochain], List[Cochain]]:
    """The invariant 0-cochains and their delta images, solved once per
    basis."""
    basis = _invariant_cochains(gb, 0)
    return basis, [ce_differential(b) for b in basis]


def invariant_zero_cochains(gb: GModuleBasis) -> List[Cochain]:
    """Basis of Hom_R(g, n- (x) n+) by the weight-blocked equivariant solve."""
    return list(_invariant_zero(gb)[0])


def invariant_one_cochains(gb: GModuleBasis) -> List[Cochain]:
    """Basis of Hom_R(n- (x) g, n- (x) n+), i.e. the invariant 1-cochains."""
    return _invariant_cochains(gb, 1)


def _entries(c: Cochain):
    """The nonzero coordinates of c as ((key, t), value) pairs."""
    return (((key, t), x) for key, vec in c.data.items() for t, x in vec.items())


def _span_rows(columns: Sequence[Iterable[Tuple[object, object]]],
               targets: Sequence[Cochain]):
    """The rows of the matrix whose j-th column has the (coordinate, entry)
    pairs columns[j], each coordinate at most once, and the target cochains
    as right-hand sides aligned with them; no solve depends on the row
    order."""
    rows: Dict[object, SparseRow] = {}
    for j, col in enumerate(columns):
        for coord, x in col:
            rows.setdefault(coord, {})[j] = x
    values = [dict(_entries(c)) for c in targets]
    for coord in itertools.chain(*values):
        rows.setdefault(coord, {})
    return list(rows.values()), [[v.get(coord, 0) for coord in rows] for v in values]


def _span_solve(columns: Sequence[Iterable[Tuple[object, object]]],
                target: Optional[Cochain] = None):
    """`sparse_rref` of `_span_rows`, against the target when given."""
    rows, rhs = _span_rows(columns, [] if target is None else [target])
    return sparse_rref(rows, len(columns), *rhs)


def _coboundary_columns(gb: GModuleBasis, degree: int) -> list:
    """The columns of delta x = c for a `degree`-cochain c (1 or 2): the
    delta images of the invariant 0-cochains, or the deltas of the unknowns
    x(v, w)_t, (v, w) = divmod(i, dim g), of the weight-zero block of the
    1-cochains with coefficients in Lambda^2 n- (x) n+ (sufficient by torus
    equivariance)."""
    if degree == 1:
        return [_entries(im) for im in _invariant_zero(gb)[1]]
    v_weights = [_wsum(gb.elements[v].eps_weight, el.eps_weight)
                 for v in gb.nminus_order for el in gb.elements]
    delta = _delta(gb, 1)
    return [[((tgt, t), co) for tgt, co in delta.get(divmod(i, gb.dim), ())]
            for i, t in _weight_pairs(v_weights, _lambda2_module(gb)[2])]


@dataclass
class CoboundaryResult:
    is_coboundary: bool
    witness: Optional[Cochain]


def _coboundary_result(gb: GModuleBasis, x: Optional[SparseRow]) -> CoboundaryResult:
    """The verdict of a solution x on the degree-1 columns, and the witness
    sum_j x_j b_j over the invariant 0-cochains b_j (None when x is 0)."""
    if not x:
        return CoboundaryResult(x is not None, None)
    data: Dict[object, Vec] = {}
    for j, xj in x.items():
        for key, vec in _invariant_zero(gb)[0][j].data.items():
            _accumulate(data, key, xj, vec)
    return CoboundaryResult(True, Cochain(gb, 0, data))


def is_invariant_coboundary(c: Cochain) -> CoboundaryResult:
    """Solve c = delta c0 over the R-invariant 0-cochains, exactly (witness
    None when c = 0)."""
    if c.degree != 1:
        raise ValueError("coboundary test implemented for 1-cochains")
    if not ce_differential(c).is_zero():
        raise ValueError("input is not a cocycle")
    return _coboundary_result(c.gb, _span_solve(_coboundary_columns(c.gb, 1), c)[2])


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
    wm = [gb.elements[v].eps_weight for v in gb.nminus_order]
    weights = [_wsum(wm[i], wm[j], gb.elements[u].eps_weight)
               for (i, j) in pairs for u in gb.nplus_order]
    return pairs, pair_index, weights


def two_cochain_from_d2_image(gb: GModuleBasis, theta: InvariantVectorForm
                              ) -> Cochain:
    """The 2-cochain representing w -> [theta /\\ (theta2 /\\ w)] at o."""
    n = gb.n
    th2 = theta_p(gb.space, 2)
    pairs, pair_index, _ = _lambda2_module(gb)
    data: Dict[object, Vec] = {}
    # pi(e_w) is the unit vector at w's position j in nplus_order
    for j, w in enumerate(gb.nplus_order):
        # phi_w(u; v) = theta2(pi(w), u; v), a (1,1)-form
        phi_tensor: Dict = {}
        for a in range(n):
            for b in range(n):
                _accumulate(phi_tensor, ((a,), (b,)), 1, th2.value([j, a], [b]))
        phi_w = InvariantVectorForm(gb.space, 1, 1, phi_tensor)
        # F_w = theta /\ phi_w, a (2,2)-form: its entry at ((i, j), (v1, v2))
        # is the value at (v1, v2, w) on the coordinates ((i, j), u)
        for ((i, j), (v1, v2)), vec in barwedge_inv(theta, phi_w).tensor.items():
            _accumulate(data, (v1, v2, w), 1, {
                pair_index[(i, j)] * n + u: x for u, x in vec.items()})
    return Cochain(gb, 2, data, len(pairs) * n)


def two_cochain_is_coboundary(gb: GModuleBasis, c2: Cochain) -> bool:
    """Solve delta x = c2 over the weight-zero block of the 1-cochains with
    coefficients in Lambda^2 n- (x) n+ (exact; sufficient by equivariance)."""
    return _span_solve(_coboundary_columns(gb, 2), c2)[2] is not None


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
    _require(all(_differential(c).is_zero() for c in targets), "c_theta must be a cocycle")
    columns = _coboundary_columns(gb, degree)
    rows, rhs = _span_rows(columns, targets)
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
