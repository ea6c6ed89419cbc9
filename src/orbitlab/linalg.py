"""Exact elimination over rationals (or floats with a pivot tolerance).

Three forms, each written once, with one row step per number type:

- `RowReducer`, the sparse reduced row echelon form of dict-backed rows,
  built from rows given at once (`of`: Gauss-Jordan elimination, behind the
  premise's nullspaces, the witness's solves and the Gram inverse) or grown
  one row at a time (`try_add`: the separating-functional picks).  Both
  share one scalar row step; the pivot choice is the scalar context's
  `pivot_weight`.  Callers hand it sparse rows and read nullspace vectors
  (`null_vector`) or an augmented column off its rows.
- `Echelon`, a row echelon form grown one row at a time that answers only
  rank and independence questions (`row_rank`, `independent`).  In exact
  mode it is fraction-free: each row is scaled to coprime integers and
  reduced by the integer row step, so no Fraction is built at all.  Float
  mode hands its rows to a `RowReducer` and keeps the tolerance.
- `Bordered`, an L·D·U factor without pivoting that grows by one row and one
  column at a time: the pairing minors of triangularization and the Gram
  system of a growing identity-plus-finite-rank operator.  Its forward and
  back substitutions compute each b - sum t·x with `ctx.sub_products`, which
  in exact mode sums on integers over one denominator and builds a single
  Fraction per entry.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .scalars import EXACT, Scalar, ScalarContext


class RowReducer:
    """The reduced row echelon form of sparse rows, built at once or one row at a time.

    `rows` maps each pivot coordinate to its row, a dict of non-zero entries
    that is 1 at its pivot and 0 at every other pivot.  In exact mode the form
    is unique, so `of` and `try_add` give the same rows, whatever the order of
    the input.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.rows: Dict[int, Dict[int, Scalar]] = {}

    @classmethod
    def of(cls, rows: Sequence[Dict[int, Scalar]], ctx: ScalarContext = EXACT) -> "RowReducer":
        """Gauss-Jordan elimination of rows given all at once.

        Coordinates are taken in ascending order.  The pivot of a coordinate
        is the first row of largest `ctx.pivot_weight` from the current row
        on, in the current row order; it is swapped into place, normalised
        and cleared from every other row.  Float entries within the tolerance
        never pivot but are carried along, as in dense elimination.
        """
        reducer = cls(ctx)
        m = [dict(row) for row in rows]
        r = 0
        for c in sorted(set().union(*m)):
            if r == len(m):
                break
            weights = [ctx.pivot_weight(row.get(c, 0)) for row in m[r:]]
            best = max(weights)
            if not best:
                continue
            piv = r + weights.index(best)
            m[r], m[piv] = m[piv], m[r]
            pv = m[r][c]
            prow = m[r] = reducer.rows[c] = {i: v / pv for i, v in m[r].items()}
            for i, row in enumerate(m):
                if i != r and c in row:
                    _eliminate(row, row[c], prow, ctx)
            r += 1
        return reducer

    @property
    def rank(self) -> int:
        return len(self.rows)

    def null_vector(self, fc: int) -> Dict[int, Scalar]:
        """The nullspace vector of the free coordinate fc: 1 at fc and minus
        the entry at fc of each row at its pivot, in ascending coordinate order."""
        return dict(sorted([(pc, -row[fc]) for pc, row in self.rows.items() if fc in row]
                           + [(fc, self.ctx.one)]))

    def residual(self, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """vec minus its component in the span of the rows, zero at every pivot."""
        cur = {i: v for i, v in vec.items() if not self.ctx.is_zero(v)}
        # the rows are 0 at each other's pivots, so each one is subtracted once
        for coord in sorted(self.rows.keys() & cur.keys()):
            _eliminate(cur, cur[coord], self.rows[coord], self.ctx)
        return cur

    def try_add(self, vec: Dict[int, Scalar]) -> bool:
        """Reduce vec against the rows; if it is independent, keep it normalised
        at its lowest coordinate, clear that coordinate from the older rows and
        return True."""
        res = self.residual(vec)
        if not res:
            return False
        coord = min(res)
        lead = res[coord]
        row = {i: v / lead for i, v in res.items()}
        for other in self.rows.values():
            if coord in other:
                _eliminate(other, other[coord], row, self.ctx)
        self.rows[coord] = row
        return True


def _eliminate(target: Dict[int, Scalar], factor: Scalar, row: Dict[int, Scalar],
               ctx: ScalarContext) -> None:
    """target -= factor * row in place, dropping entries that become zero."""
    for i, v in row.items():
        nv = target.get(i, 0) - factor * v
        if ctx.is_zero(nv):
            target.pop(i, None)
        else:
            target[i] = nv


class Echelon:
    """A row echelon form grown one row at a time, for ranks and independence tests.

    In exact mode `rows` maps the lowest coordinate of each kept row to the
    row, a dict of coprime integers.  A new row is reduced against the kept
    rows in ascending pivot order, each step clearing its lowest coordinate,
    so no kept row is ever touched again; each result is divided by its
    content (fraction-free elimination: Geddes, Czapor and Labahn, Algorithms
    for Computer Algebra, 1992, ch. 9).  Bareiss's exact division (Math.
    Comp. 22, 1968) would need every remaining row updated at every step,
    and here the rows arrive one at a time.  Float rows go to a
    `RowReducer`, whose pivots honour the tolerance.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.rows: Dict[int, Dict[int, int]] = {}
        self._floats = RowReducer(ctx)

    @property
    def rank(self) -> int:
        return len(self.rows) + self._floats.rank

    def try_add(self, vec: Mapping[int, Scalar]) -> bool:
        """Keep vec and return True if it is independent of the kept rows."""
        scaled = self.ctx.integer_row(vec)
        if scaled is None:
            return self._floats.try_add(vec)
        row = _primitive(scaled[0])
        while row:
            lead = min(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                self.rows[lead] = row
                return True
            row = _int_step(row, pivot, lead)
        return False


def row_rank(rows: Iterable[Mapping[int, Scalar]], ctx: ScalarContext = EXACT) -> int:
    """Rank of a family of sparse rows."""
    echelon = Echelon(ctx)
    for row in rows:
        echelon.try_add(row)
    return echelon.rank


def independent(rows: Iterable[Mapping[int, Scalar]], ctx: ScalarContext = EXACT) -> bool:
    """Whether the sparse rows are linearly independent; stops at the first
    row that depends on the ones before it."""
    echelon = Echelon(ctx)
    return all(echelon.try_add(row) for row in rows)


def _int_step(row: Dict[int, int], pivot: Dict[int, int], lead: int) -> Dict[int, int]:
    """The primitive part of (a/g)·row - (b/g)·pivot, for a and b the entries
    of pivot and row at lead and g their gcd: zero at lead and below."""
    a, b = pivot[lead], row[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {i: a * v for i, v in row.items() if i != lead}
    for i, v in pivot.items():
        if i != lead:
            nv = out.get(i, 0) - b * v
            if nv:
                out[i] = nv
            else:
                del out[i]
    return _primitive(out)


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        return {i: v // content for i, v in row.items()}
    return row


class Bordered:
    """A = L·D·U, grown by one bordering row and column of A at a time.

    L and U^T are unit lower triangular; lower[0] and lower[1] hold their rows
    left of the diagonal as dicts of the non-zero entries, pivots the diagonal
    of D (Golub & Van Loan, Matrix Computations, §3.2).  As A^T = U^T·D·L^T,
    each operation takes a side: 0 for L, 1 for U^T.  There is no pivoting, so
    a pivot is det A_{n+1} / det A_n.  Zeros of L and U cost nothing in the
    substitutions, and each entry a substitution solves for, b - sum t·x, is
    one `ctx.sub_products`: in exact mode a sum on integers that builds a
    single Fraction.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.lower: Tuple[List[Dict[int, Scalar]], List[Dict[int, Scalar]]] = ([], [])
        self.pivots: List[Scalar] = []

    def border(self, side: int, entries: Sequence[Scalar]) -> Dict[int, Scalar]:
        """The next row of lower[side] for the bordering entries of A: the new
        row of A left of the diagonal for side 0, the new column above it for
        side 1.  Row n of A is (row of L)·D·U, so the row solves U^T·D x = entries."""
        z = _forward(self.lower[1 - side], entries, self.ctx)
        return {i: zi / d for i, (zi, d) in enumerate(zip(z, self.pivots)) if zi}

    def append(self, side: int, row: Dict[int, Scalar], col: Dict[int, Scalar],
               pivot: Scalar) -> None:
        """Border the factor: row joins lower[side], col joins lower[1 - side]."""
        self.lower[side].append(row)
        self.lower[1 - side].append(col)
        self.pivots.append(pivot)

    def back(self, side: int, rhs: Sequence[Scalar]) -> List[Scalar]:
        """x with T^T x = rhs for T the leading len(rhs) block of lower[side],
        solved row by row from the last."""
        n = len(rhs)
        cols: List[List[Tuple[int, Scalar]]] = [[] for _ in range(n)]  # rows of T^T
        for j, row in enumerate(self.lower[side][:n]):
            for k, t in row.items():
                cols[k].append((j, t))
        x = list(rhs)
        for k in range(n - 1, -1, -1):
            if cols[k]:
                x[k] = self.ctx.sub_products(x[k], [(t, x[j]) for j, t in cols[k]])
        return x

    def solve(self, rhs: Sequence[Scalar]) -> List[Scalar]:
        """x with A x = rhs: L y = rhs, then U x = D^{-1} y."""
        y = _forward(self.lower[0], rhs, self.ctx)
        return self.back(1, [yi / d if yi else yi for yi, d in zip(y, self.pivots)])


def _forward(lower: List[Dict[int, Scalar]], rhs: Sequence[Scalar],
             ctx: ScalarContext) -> List[Scalar]:
    """x with T x = rhs, T unit lower triangular given by its rows left of the diagonal."""
    x: List[Scalar] = []
    for row, b in zip(lower, rhs):
        x.append(ctx.sub_products(b, [(t, x[j]) for j, t in row.items()]) if row else b)
    return x
