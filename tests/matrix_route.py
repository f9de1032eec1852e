"""Test-side matrix realization of g, the oracle of the Chevalley structure
constants in `liecoh`.

`liecoh` used to build g a second way, as sl_n, so_n and sp_2l matrices in
epsilon-coordinates, and to read brackets off matrix commutators.  That
realization is kept here: `root_matrices` gives one matrix root vector per
root, `matrix_basis` and `expand` the matrices of a type-A basis (E_ij and
E_kk - E_{k+1,k+1}) and the coordinates of a matrix in it, and
`chevalley_images` the images of any basis under the map fixed by the
simple root vectors.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from canonical import add_into

from flagcoh import liecoh
from flagcoh.rootsys import build_root_system

Mat = Dict[Tuple[int, int], Fraction]


def mat_mul(A: Mat, B: Mat) -> Mat:
    out: Mat = {}
    for (i, k), a in A.items():
        for (k2, j), b in B.items():
            if k == k2:
                add_into(out, a * b, {(i, j): 1})
    return out


def commutator(A: Mat, B: Mat) -> Mat:
    out = mat_mul(A, B)
    add_into(out, -1, mat_mul(B, A))
    return out


def combination(mats: List[Mat], coords) -> Mat:
    """sum_g coords[g] mats[g]."""
    out: Mat = {}
    for g, c in coords.items():
        add_into(out, c, mats[g])
    return out


def simple_roots_eps(family: str, l: int) -> List[Tuple[int, ...]]:
    """The simple roots in epsilon coordinates."""
    def e(i, n, c=1):
        return [c if j == i else 0 for j in range(n)]

    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    if family == "A":
        return [add(e(i, l + 1), e(i + 1, l + 1, -1)) for i in range(l)]
    chain = [add(e(i, l), e(i + 1, l, -1)) for i in range(l - 1)]
    return chain + [{"B": tuple(e(l - 1, l)), "C": tuple(e(l - 1, l, 2)),
                     "D": add(e(l - 2, l), e(l - 1, l))}[family]]


def _eps_of_position(family: str, N: int, l: int, i: int) -> Tuple[int, ...]:
    """The epsilon weight of matrix position i: eps_i on gl_N, and on so/sp
    eps_i for i < l and -eps_{N-1-i} for the mirrored half."""
    if family == "A":
        return tuple(int(j == i) for j in range(N))
    return tuple(int(j == i) - int(j == N - 1 - i) for j in range(l))


def _candidates(family: str, l: int):
    """(position, matrix) root-vector candidates: E_ij on sl_n, and on so/sp
    E_ij - (+-) E_{j'i'} (2 E_ij on the self-mirrored long roots of sp)."""
    if family == "A":
        N = l + 1
        return N, [((i, j), {(i, j): 1}) for i in range(N) for j in range(N) if i != j]
    N = 2 * l + 1 if family == "B" else 2 * l
    out = []
    for i in range(N):
        for j in range(N):
            ip, jp = N - 1 - i, N - 1 - j
            if i == j or ((jp, ip) == (i, j) and family != "C"):
                continue
            s = (1 if i < l else -1) * (1 if j < l else -1) if family == "C" else 1
            m = {(i, j): 2} if (jp, ip) == (i, j) else {(i, j): 1, (jp, ip): -s}
            out.append(((i, j), m))
    return N, out


def root_matrices(t) -> Dict[Tuple[int, ...], Mat]:
    """One matrix root vector per root (simple-root coordinates): the first
    candidate of its epsilon weight."""
    rd = build_root_system(t)
    l, fam = rd.rank, t.family
    simple = simple_roots_eps(fam, l)
    by_eps = {}
    for r in rd.positive_roots:
        for root in (r, tuple(-c for c in r)):
            by_eps[tuple(sum(c * s[k] for c, s in zip(root, simple))
                         for k in range(len(simple[0])))] = root
    N, candidates = _candidates(fam, l)
    out: Dict[Tuple[int, ...], Mat] = {}
    for (i, j), m in candidates:
        w = tuple(a - b for a, b in zip(_eps_of_position(fam, N, l, i),
                                        _eps_of_position(fam, N, l, j)))
        out.setdefault(by_eps.get(w), m)
    out.pop(None, None)
    assert len(out) == 2 * len(rd.positive_roots)
    return out


def matrix_basis(gb) -> List[Mat]:
    """The matrices of a type-A basis: E_ij at each root vector (every scale
    is 1 there), then E_kk - E_{k+1,k+1}."""
    assert gb.H.rd.type.family == "A"
    mats = root_matrices(gb.H.rd.type)
    out = []
    for el in gb.elements:
        if el.block == "t":
            k = len(out) - (gb.dim - gb.H.rd.rank)
            out.append({(k, k): 1, (k + 1, k + 1): -1})
        else:
            assert el.scale == 1
            out.append(mats[el.weight])
    return out


def expand(gb, X: Mat) -> Dict[int, Fraction]:
    """The coordinates of X in a type-A basis, by a scan over all dim g
    elements, each read at its one cell (cumulative diagonal sums for the
    torus), checked by rebuilding X."""
    mats = matrix_basis(gb)
    out = {}
    acc = 0
    for g, (el, m) in enumerate(zip(gb.elements, mats)):
        if el.block == "t":
            acc += X.get(min(m), 0)
            c = acc
        else:
            (pos, entry), = m.items()
            c = Fraction(X.get(pos, 0), entry)
        if c:
            out[g] = c
    assert combination(mats, out) == {k: v for k, v in X.items() if v}
    return out


def chevalley_images(gb) -> List[Mat]:
    """The matrices of gb's basis under the map that sends e_{alpha_i} to the
    matrix root vector of alpha_i, e_{-alpha_i} to that of -alpha_i scaled
    so that alpha_i(h_i) = 2, h_i to their bracket, and every other root
    vector e_{a+b}, a = +-alpha_i, to [e_a, e_b] / N(a, b)."""
    rd = gb.H.rd
    mats = root_matrices(rd.type)
    roots, N = liecoh._chevalley(rd)
    image, torus = {}, []
    for a in rd.simple_roots:
        e, f = mats[a], mats[tuple(-c for c in a)]
        h = commutator(e, f)
        pos, x = next(iter(e.items()))
        c = Fraction(2 * x, commutator(h, e)[pos])
        image[a], image[tuple(-y for y in a)] = e, combination([f], {0: c})
        torus.append(combination([h], {0: c}))
    for root in roots:
        if root not in image:
            sign = 1 if sum(root) > 0 else -1
            a = next(tuple(sign * x for x in s) for s in rd.simple_roots
                     if tuple(r - sign * x for r, x in zip(root, s)) in image)
            b = tuple(r - x for r, x in zip(root, a))
            image[root] = combination([commutator(image[a], image[b])],
                                      {0: Fraction(1, N[a, b])})
    hs = iter(torus)
    return [next(hs) if el.block == "t" else combination([image[el.weight]], {0: el.scale})
            for el in gb.elements]
