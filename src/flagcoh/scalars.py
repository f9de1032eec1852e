"""Exact scalars: rationals, the quadratic field Q(sqrt 2), and sparse exact
linear algebra (rref/rank/nullspace/solve) generic over both.

The forms, structure constants and cochains are rational and held as ints
where integral, Fractions otherwise (`canonical`); sqrt(2) enters only
through a parameter (a, b) of theta = a theta2 + b eta and through the roots
of the nilpotent-pair quadratics.  `narrow` turns a parameter without a
sqrt(2) part into its int or Fraction where it enters, and mixed sums and
products fall through to QSqrt2's reflected operators.

`reduce_targets` is the one entry point to the sparse Gauss-Jordan kernel,
`_gauss_jordan`: it takes dict rows, a column count and right-hand sides,
which `combine_targets` reads at any combination; `sparse_rref` reads one
right-hand side, and the dense rref/rank/nullspace/solve are thin wrappers
over it.  Matrices whose entries are all rational are eliminated in
integers, whatever their entry type: `reduce_targets` scales each row to
coprime integers as it copies it, and `_gauss_jordan` combines rows as
a*row - b*prow divided by their content and divides a row by its pivot,
unless that is 1, only when the RREF is written.  A Q(sqrt2) right-hand
side of a rational system is read as its rational and sqrt(2) parts.
Q(sqrt2) arithmetic remains only for matrices that contain sqrt(2)."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

Coeff = Union[int, Fraction]  # an int when integral, see `canonical`


class QSqrt2:
    """Element a + b*sqrt(2) of Q(sqrt 2), with exact rational a, b.

    The only irrationality the library ever needs: the published parameter
    sqrt2 theta2 + eta and the nilpotent-pair roots involve sqrt(2) and
    nothing else.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        if isinstance(a, QSqrt2):
            if b:
                raise ValueError("QSqrt2(x, b) with x in Q(sqrt2) takes no b")
            self.a, self.b = a.a, a.b
            return
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- ring structure ----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return QSqrt2(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # equal to its rational part when b = 0, so it must hash like it
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*rt2"
        return f"{self.a}+{self.b}*rt2"


RT2 = QSqrt2(0, 1)
QS_ZERO = QSqrt2(0, 0)
QS_ONE = QSqrt2(1, 0)


def narrow(x):
    """x as an int when it is integral, a Fraction when it is rational, else
    the QSqrt2 itself."""
    if isinstance(x, QSqrt2):
        if x.b:
            return x
        x = x.a
    return canonical(Fraction(x))


def canonical(x):
    """x with an integral Fraction made an int; ints, other Fractions and
    QSqrt2 as they are."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _coerce(x) -> QSqrt2:
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, (int, Fraction)):
        return QSqrt2(x, 0)
    raise TypeError(f"cannot coerce {type(x)} into Q(sqrt2)")


def sqrt_of_rational(q) -> Optional[QSqrt2]:
    """A square root of the rational q inside Q(sqrt2): u when q = u^2,
    v*sqrt2 when q = 2 v^2, else None."""
    u = _frac_sqrt(q)
    if u is not None:
        return QSqrt2(u)
    v = _frac_sqrt(Fraction(q) / 2)
    return None if v is None else QSqrt2(0, v)


def _frac_sqrt(q: Fraction) -> Optional[Fraction]:
    q = Fraction(q)
    pn, pd = _int_sqrt(q.numerator), _int_sqrt(q.denominator)
    return None if pn is None or pd is None else Fraction(pn, pd)


def _int_sqrt(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _rt2_coefficient(term: str) -> Fraction:
    """c in a signed term c*rt2 whose factor stands alone ('-rt2'), last
    ('3*rt2', '1/2*rt2', '3rt2') or first ('rt2/2', 'rt2*3')."""
    head, tail = term.split("rt2")
    if head in ("", "+", "-"):
        unit = Fraction(-1 if head == "-" else 1)
        if not tail:
            return unit
        if tail[0] == "*":
            return unit * Fraction(tail[1:])
        if tail[0] == "/" and "/" not in tail[1:]:
            return unit / Fraction(tail[1:])
    elif not tail:
        return Fraction(head[:-1] if head.endswith("*") else head)
    raise ValueError(term)


def parse_scalar(text: str) -> QSqrt2:
    """Parse 'p/q', 'p/q+r/s*rt2', '-rt2', '2*rt2', 'rt2/2' style literals."""
    s = text.replace(" ", "").replace("sqrt2", "rt2").replace("√2", "rt2")
    if not s:
        raise ValueError("empty scalar literal")
    # split into signed terms
    terms: List[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    a = Fraction(0)
    b = Fraction(0)
    try:
        for t in terms:
            if t.count("rt2") > 1:
                raise ValueError(f"more than one rt2 factor in a term of {text!r}")
            if "rt2" in t:
                try:
                    b += _rt2_coefficient(t)
                except ValueError:
                    raise ValueError(
                        f"cannot read {t!r} in the scalar {text!r} as a multiple of "
                        f"rt2: write 3*rt2, 1/2*rt2, rt2/2 or rt2*3") from None
            else:
                a += Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in the scalar {text!r}") from None
    return QSqrt2(a, b)


def format_scalar(x) -> dict:
    """Loss-free JSON form: {"rat": "p/q", "rt2": "p/q"}."""
    x = _coerce(x) if not isinstance(x, QSqrt2) else x
    return {"rat": str(x.a), "rt2": str(x.b)}


# ---------------------------------------------------------------------------
# Exact sparse linear algebra over Fraction / QSqrt2 entries.
#
# Columns are reduced in their natural order, so the result is the unique
# reduced row echelon form whichever row serves as pivot; the candidate with
# the fewest nonzeros is taken, which keeps fill-in down.
# ---------------------------------------------------------------------------

Row = List
Matrix = List[Row]
SparseRow = Dict[int, object]


def reduce_targets(rows: List[SparseRow], n_cols: int, targets: Sequence[Row]):
    """(red, pivots, family): sparse rows (column -> entry) over n_cols
    columns, not modified and maybe holding zeros, reduced once with the
    right-hand sides `targets` (lists aligned with rows) as extra columns.

    red holds the nonzero rows of the RREF of rows, with pivot columns
    `pivots`; family, read by `combine_targets`, holds the target block (as
    target index -> entry) of the rows whose pivot is a target column, and
    of the others with their pivot columns.  Each row is copied with its
    targets and scaled to coprime integers (`_integral`), and rational rows,
    whatever their type, are eliminated in integers (`_gauss_jordan`) into
    ints and Fractions, an int iff integral.  One sqrt(2) part puts every
    row over QSqrt2, a row already scaled as a multiple of itself (same RREF).
    """
    work = [{c: x for c, x in row.items() if x} for row in rows]
    for j, target in enumerate(targets, n_cols):
        for row, b in zip(work, target):
            if b:
                row[j] = b
    integral = all(map(_integral, work))
    if not integral:
        work = [{c: _coerce(x) for c, x in row.items()} for row in work]
    red, pivots = _gauss_jordan(work, n_cols + len(targets), integral)
    blocks = [{j: row.pop(n_cols + j) for j in range(len(targets)) if n_cols + j in row}
              for row in red]
    k = sum(pc < n_cols for pc in pivots)
    return red[:k], pivots[:k], (blocks[k:], list(zip(pivots[:k], blocks[:k])))


def combine_targets(family, coeffs: Sequence) -> Optional[SparseRow]:
    """The solution, free unknowns 0, of rows . x = sum_j coeffs[j] targets[j]
    from the family of `reduce_targets`, or None: it exists iff the
    combination vanishes on every condition row, and is then that combination
    of the blocks (which the condition rows cleared from them do not change)."""
    conditions, blocks = family

    def at(block):
        return canonical(sum(c * block.get(j, 0) for j, c in enumerate(coeffs) if c))

    if any(at(rho) for rho in conditions):
        return None
    x = {pc: at(block) for pc, block in blocks}
    return {pc: v for pc, v in x.items() if v}


def sparse_rref(rows: List[SparseRow], n_cols: int, rhs: Optional[Row] = None
                ) -> Tuple[List[SparseRow], List[int], Optional[SparseRow]]:
    """(red, pivots, x) as in `reduce_targets`, with x the solution of rows .
    x = rhs (0 when None) whose free unknowns are 0, or None.  rhs = r +
    s*sqrt2 is read as the two targets [r, s] at (1, sqrt2), so a rational
    matrix stays rational; x is over QSqrt2 when rhs holds a QSqrt2."""
    rhs = rhs or ()
    red, pivots, family = reduce_targets(rows, n_cols, [
        [_rational(b) for b in rhs], [b.b if isinstance(b, QSqrt2) else 0 for b in rhs]])
    typed = any(isinstance(b, QSqrt2) for b in rhs)
    return red, pivots, combine_targets(family, (1, RT2 if typed else 0))


def rref_kernel(red: List[SparseRow], pivots: List[int], n_cols: int
                ) -> List[SparseRow]:
    """Basis of the right kernel from a sparse RREF, one vector per free
    column in increasing order, each as column -> value."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = {fc: 1}
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def exact_quotient(x, y):
    """x / y for int-or-Fraction x and y != 0, an int iff integral."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        if not r:
            return q
    return canonical(Fraction(x, y))


def _rational(x):
    """The rational part of x, as it is when x is an int or a Fraction."""
    return x.a if isinstance(x, QSqrt2) else x


def _integral(row: SparseRow) -> bool:
    """True, with row scaled in place to coprime integers, when its entries
    are rational, whatever their type (a row of ints by `_primitive` alone);
    False, row unchanged, when one has a sqrt(2) part."""
    try:
        _primitive(row)
    except TypeError:  # the gcd refuses a Fraction or QSqrt2 before any change
        if any(isinstance(x, QSqrt2) and x.b for x in row.values()):
            return False
        d = math.lcm(*(_rational(x).denominator for x in row.values()))
        for k, x in row.items():
            x = _rational(x)
            row[k] = x.numerator * (d // x.denominator)
        _primitive(row)
    return True


def _primitive(row: SparseRow) -> SparseRow:
    """row, an integer row, divided in place by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _gauss_jordan(rows: List[SparseRow], n_cols: int, integral: bool
                  ) -> Tuple[List[SparseRow], List[int]]:
    """The nonzero rows of the RREF of `rows` (consumed) and their pivots.

    Columns are reduced in order; a row is eliminated against the pivot row
    prow, whose entry in the pivot column is a where the row's is b, as
    row - (b/a)*prow over QSqrt2, and without fractions when `integral`
    (the rows are coprime integer rows, as `reduce_targets` scales them): an
    eliminated row becomes a*row - b*prow, (a, b) cut by their gcd, divided
    by the gcd of its entries (`_eliminate`; Bareiss, Math. Comp. 22, 1968,
    eliminates without fractions too).  Every row stays a nonzero multiple
    of the same row over the field, so the nonzero patterns, and with them
    the pivot choices, do not depend on `integral`.  The backward pass
    combines with the whole pivot row, whose pivot entry cancels.  A row is
    divided by its pivot only when it is written into red, and kept as it
    is when that pivot is 1, so red is the RREF either way, with int
    entries where they are integral.
    """
    combine = _eliminate if integral else _eliminate_over_field
    # column -> rows not yet used as a pivot that are nonzero there
    where: Dict[int, Set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    red: List[SparseRow] = []
    pivots: List[int] = []
    # forward pass: below each pivot, eliminate its column
    for c in range(n_cols):
        cand = where.pop(c, None)
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        cand.discard(p)
        prow = rows[p]
        piv = prow.pop(c)
        for k in prow:
            where[k].discard(p)
        for i in cand:
            combine(rows[i], piv, rows[i].pop(c), prow, where, i)
        prow[c] = piv
        red.append(prow)
        pivots.append(c)
    # backward pass, from the last pivot up: a pivot row holds no earlier
    # pivot column and, once cleared, no later one, so the rows that hold
    # pivot column c are those that held it after the forward pass
    holders: Dict[int, List[int]] = {c: [] for c in pivots}
    for i, row in enumerate(red):
        for c in row:
            if c in holders and c != pivots[i]:
                holders[c].append(i)
    for k in range(len(red) - 1, 0, -1):
        c, prow = pivots[k], red[k]
        for i in holders[c]:
            combine(red[i], prow[c], red[i][c], prow, None, 0)
    divide = exact_quotient if integral else operator.truediv
    return [row if row[c] == 1 else {j: divide(x, row[c]) for j, x in row.items()}
            for row, c in zip(red, pivots)], pivots


def _eliminate(row: SparseRow, a: int, b: int, prow: SparseRow,
               where: Optional[Dict[int, Set[int]]], i: int) -> None:
    """row = (a*row - b*prow) / content in place, for integer rows and
    nonzero a and b, (a, b) first cut by their gcd; keeps where[col] (if
    given) in step."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    _axpy(row, b, prow, where, i)
    _primitive(row)


def _eliminate_over_field(row: SparseRow, a, b, prow: SparseRow,
                          where: Optional[Dict[int, Set[int]]], i: int) -> None:
    """row -= (b/a) * prow in place, keeping where[col] (if given) in step."""
    _axpy(row, b / a, prow, where, i)


def _axpy(row: SparseRow, f, prow: SparseRow,
          where: Optional[Dict[int, Set[int]]], i: int) -> None:
    """row -= f * prow in place, keeping where[col] (if given) in step."""
    for k, x in prow.items():
        old = row.get(k)
        if old is None:
            row[k] = -f * x
            if where is not None:
                where.setdefault(k, set()).add(i)
            continue
        new = old - f * x
        if new:
            row[k] = new
        else:
            del row[k]
            if where is not None:
                where[k].discard(i)


def _dense(row: SparseRow, n_cols: int, typed: bool) -> Row:
    out = [QS_ZERO if typed else Fraction(0)] * n_cols
    for c, x in row.items():
        out[c] = _coerce(x) if typed else Fraction(x)
    return out


def _typed(mat: Matrix) -> bool:
    return any(isinstance(x, QSqrt2) for row in mat for x in row)


def rref(mat: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot columns.

    The rows come back dense, nonzero rows first in pivot order.  Entries
    are QSqrt2 when any entry of mat is, and Fraction otherwise.
    """
    n_cols = len(mat[0]) if mat else 0
    red, pivots, _ = sparse_rref([dict(enumerate(row)) for row in mat], n_cols)
    typed = _typed(mat)
    out = [_dense(row, n_cols, typed) for row in red]
    out.extend(_dense({}, n_cols, typed) for _ in range(len(mat) - len(red)))
    return out, pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix, n_cols: int) -> Matrix:
    """Basis of the right kernel; rows are the basis vectors.  With no rows
    the kernel is all of Q^n_cols."""
    red, pivots, _ = sparse_rref([dict(enumerate(row)) for row in mat], n_cols)
    typed = _typed(mat)
    return [_dense(v, n_cols, typed) for v in rref_kernel(red, pivots, n_cols)]


def solve(mat: Matrix, rhs: Row) -> Optional[Row]:
    """One exact solution of mat . x = rhs, or None if inconsistent; see
    `sparse_rref` for how a Q(sqrt2) right-hand side is reduced."""
    if not mat:
        return [] if not any(rhs) else None
    n_cols = len(mat[0])
    _, _, x = sparse_rref([dict(enumerate(row)) for row in mat], n_cols, rhs)
    if x is None:
        return None
    return _dense(x, n_cols, _typed(mat) or any(isinstance(b, QSqrt2) for b in rhs))
