"""Test-side references for the representation layer.

The Bott layer used to build wedge^p n- as subset sums of roots (through
`repdecomp.exterior_power`), tensor whole characters and fold every weight
of the product.  That route is kept here as the oracle of Kostant's
weights and the Brauer-Klimyk fold, with the Fraction-valued Bott step it
fed.  Beside it are the helpers only the tests use: `dual` and
`trivial_multiplicity` (from `repdecomp` before), and `pairing_simple`,
`reflect` and `reflect_simple` (`RootDatum` methods before, now taking the
datum as their first argument).
"""

from fractions import Fraction

from flagcoh.bott import _descriptor, _merge_descriptors
from flagcoh.repdecomp import decompose, exterior_power, tensor
from flagcoh.rootsys import _require


def dual(chi):
    return {tuple(-c for c in w): m for w, m in chi.items()}


def trivial_multiplicity(L, chi):
    zero = (0,) * L.rd.rank
    return sum(k for w, k in decompose(L, chi) if w == zero)


def pairing_simple(rd, lam, i):
    """<lam, alpha_i> via the Cartan matrix; integral on the root lattice."""
    return sum(Fraction(lam[j]) * rd.cartan[j][i] for j in range(rd.rank))


def reflect(rd, lam, alpha):
    """sigma_alpha(lam) = lam - <lam,alpha> alpha; alpha must be a root."""
    al = tuple(Fraction(c) for c in alpha)
    if al not in set(rd.positive_roots) | {tuple(-c for c in r) for r in rd.positive_roots}:
        raise ValueError(f"{alpha} is not a root of {rd.type}")
    pr = 2 * rd.inner(lam, al) / rd.inner(al, al)
    return tuple(Fraction(x) - pr * a for x, a in zip(lam, al))


def reflect_simple(rd, lam, i):
    pr = pairing_simple(rd, lam, i)
    return tuple(
        Fraction(x) - pr if j == i else Fraction(x) for j, x in enumerate(lam)
    )


def wedge_n_minus(H, p):
    """decompose(wedge^p n-) by subset sums: [(highest weight, mult)]."""
    return decompose(H.levi, exterior_power(dual(H.n_plus_character()), p))


def bott_by_fractions(H, lam):
    """Bott's step on lam + gamma in Fractions, through
    `RootDatum.dominant_representative`: None or (q, lam*)."""
    rd = H.rd
    xi = tuple(Fraction(c) + g for c, g in zip(lam, rd.gamma))
    dom, index, singular = rd.dominant_representative(xi)
    if singular:
        return None
    lam_star = tuple(a - g for a, g in zip(dom, rd.gamma))
    _require(rd.is_dominant(lam_star), "Bott's lam* is dominant")
    return index, lam_star


def column_by_subsets(H, p, q_max=2):
    """H^q(M, Omega^p (x) Theta), q <= q_max, from the tensor character
    n+ (x) wedge^p n-, decomposed as a whole."""
    chi_n = H.n_plus_character()
    chi = tensor(chi_n, exterior_power(dual(chi_n), p))
    column = {q: [] for q in range(q_max + 1)}
    for lam, mult in decompose(H.levi, chi):
        res = bott_by_fractions(H, lam)
        if res is not None and res[0] <= q_max:
            column[res[0]].append(
                _descriptor(H, tuple(int(c) for c in res[1]), mult))
    return {q: _merge_descriptors(v) for q, v in column.items()}


def invariants_by_subsets(H, p, q):
    """The trivial multiplicity of wedge^p n- (x) wedge^q n+ (x) n+."""
    chi_n = H.n_plus_character()
    chi = tensor(
        tensor(exterior_power(dual(chi_n), p), exterior_power(chi_n, q)), chi_n
    )
    return trivial_multiplicity(H.levi, chi)
