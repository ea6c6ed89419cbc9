"""Exact, fraction-free elimination over rationals, in four forms:

- `RowReducer`, the sparse reduced row echelon form of dict-backed rows,
  built from rows given at once (`of`: the premise's nullspaces, the
  witness's solves, the dual system and the Gram inverse) or one row at a
  time (`try_add`: the separating-functional picks).  It keeps each row as
  coprime integers, and builds its Fractions, over the pivot entry, once
  `of` or `try_add` is done, for the rows that changed.  Callers read
  nullspace vectors (`null_vector`) or an augmented column off its rows.
- `Echelon`, a row echelon form grown one row at a time that answers only
  rank and independence questions (`row_rank`, `independent`) and builds no
  Fraction.  Both reduce by one integer row step, `_int_step`.
- `Bordered`, a factor without pivoting grown by one row and one column at
  a time: the Gram system of a growing identity-plus-finite-rank operator.
  Every step is an exact integer division that skips zeros.
- `Bareiss`, a right-looking pass over a dense integer matrix on pivots the
  caller picks, kept as the `Bordered` factor of the picked block: the
  triangularization's greedy picks, minors and basis check.
  `dense_independent` is the same pass with no forced pick.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .scalars import EXACT, Scalar, ScalarContext


class RowReducer:
    """The reduced row echelon form of sparse rows, built at once or one row at a time.

    `rows` maps each pivot coordinate to its row, a dict of non-zero entries
    that is 1 at its pivot and 0 at every other pivot.  The form is unique,
    so `of` and `try_add` give the same rows, whatever the order of the input.

    The rows are reduced fraction-free: the reducer keeps each row as coprime
    integers (as `ctx.integer_row` scales it), a multiple of its reduced row,
    and eliminates with `Echelon`'s integer row step.  The Fraction rows of
    `rows` are built from them once `of` or `try_add` is done, and only for
    the rows it changed.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.rows: Dict[int, Dict[int, Scalar]] = {}
        # each row as coprime integers, and the pivots whose row has changed
        self._ints: Dict[int, Dict[int, int]] = {}
        self._changed: set = set()

    @classmethod
    def of(cls, rows: Sequence[Dict[int, Scalar]], ctx: ScalarContext = EXACT) -> "RowReducer":
        """Gauss-Jordan elimination of rows given all at once; they join one
        at a time, as in `try_add`."""
        reducer = cls(ctx)
        for row in rows:
            if row:
                reducer._keep(reducer._reduce(ctx.integer_row(row)[0]))
        reducer._build()
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
        """vec minus its component in the span of the rows, zero at every pivot:
        vec less the sum of its entry at each pivot times that pivot's row.

        The reduced integer row is a multiple of the residual, and the
        residual's entry at one coordinate fixes the factor."""
        res = self._reduce(self.ctx.integer_row(vec)[0])
        if not res:
            return {}
        j = min(res)
        exact = vec.get(j, 0) - sum(vec[pc] * row[j] for pc, row in self.rows.items()
                                    if pc in vec and j in row)
        factor = exact / res[j]
        return {i: factor * v for i, v in res.items()}

    def try_add(self, vec: Dict[int, Scalar]) -> bool:
        """Reduce vec against the rows; if it is independent, keep it normalised
        at its lowest coordinate, clear that coordinate from the older rows and
        return True."""
        added = self._keep(self._reduce(self.ctx.integer_row(vec)[0]))
        self._build()
        return added

    def _reduce(self, row: Dict[int, int]) -> Dict[int, int]:
        """The primitive part of an integer row less its component in the
        span of the rows: zero at every pivot."""
        row = _primitive(row)
        for pc in [pc for pc in row if pc in self._ints]:
            row = _int_step(row, self._ints[pc], pc)
        return row

    def _keep(self, row: Dict[int, int]) -> bool:
        """Keep a reduced integer row at its lowest coordinate, clear that
        coordinate from the older rows and return True; False for a zero row."""
        if not row:
            return False
        coord, ints = min(row), self._ints
        for pc, other in ints.items():
            if coord in other:
                ints[pc] = _int_step(other, row, coord)
                self._changed.add(pc)
        ints[coord] = row
        self._changed.add(coord)
        return True

    def _build(self) -> None:
        """The Fraction row of each changed pivot, its integers over its pivot
        entry; new pivots join `rows` in ascending order."""
        for pc in sorted(self._changed):
            row = self._ints[pc]
            lead = row[pc]
            self.rows[pc] = {i: Fraction(v, lead) for i, v in row.items()}
        self._changed.clear()


class Echelon:
    """A row echelon form grown one row at a time, for ranks and independence tests.

    `rows` maps the lowest coordinate of each kept row to the row, a dict of
    coprime integers.  A new row is reduced against the kept rows in
    ascending pivot order, each step clearing its lowest coordinate, so no
    kept row is ever touched again; each result is divided by its content
    (fraction-free elimination: Geddes, Czapor and Labahn, Algorithms for
    Computer Algebra, 1992, ch. 9).  Bareiss's exact division (Math. Comp.
    22, 1968) would need every remaining row updated at every step, and here
    the rows arrive one at a time.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.rows: Dict[int, Dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def try_add(self, vec: Mapping[int, Scalar]) -> bool:
        """Keep vec and return True if it is independent of the kept rows."""
        row = _primitive(self.ctx.integer_row(vec)[0])
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


def dense_independent(rows: Sequence[Mapping[int, int]]) -> bool:
    """Whether integer rows are independent: a `Bareiss` pass over them,
    dense over the coordinates they use, finds as many pivots as rows."""
    cols = sorted(set().union(*rows))
    return Bareiss([[row.get(c, 0) for c in cols] for row in rows]).rank() == len(rows)


def _int_step(row: Dict[int, int], pivot: Dict[int, int], lead: int) -> Dict[int, int]:
    """The primitive part of (a/g)·row - (b/g)·pivot, for a and b the entries
    of pivot and row at lead and g their gcd: zero at lead, and wherever both
    row and pivot are.  The integer row step of `Echelon` and `RowReducer`."""
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
    """A fraction-free factor of an integer matrix A without pivoting, grown by
    one bordering row and column of A at a time.

    lower[0] holds the rows of the lower factor and lower[1] those of the
    transposed upper factor, each left of the diagonal as a dict of its
    non-zero entries.  As A^T swaps the two, each operation takes a side: 0
    for the lower factor, 1 for the transposed upper one.

    The factor is that of Bareiss (Math. Comp. 22, 1968) in the LU form of
    Zhou and Jeffrey (Front. Comput. Sci. China 2(1), 2008): pivots[k] is the
    leading minor Δ_{k+1} of A, and entry k of a row is the integer a⁽ᵏ⁾ that
    k steps a⁽ᵗ⁺¹⁾ = (Δ_{t+1}·a⁽ᵗ⁾ − l·u) / Δ_t make of A's entry, each an
    exact division.  A step whose l·u is zero only rescales by Δ_{t+1}/Δ_t,
    so it is skipped and the rescalings telescope: zeros cost nothing.
    """

    def __init__(self):
        self.lower: Tuple[List[Dict[int, int]], List[Dict[int, int]]] = ([], [])
        self.pivots: List[int] = []

    def scale(self, n: int) -> int:
        """The factor that `back` and `solve` put on their solutions for the
        leading n x n block: its minor Δ_n (1 for n = 0)."""
        return self.pivots[n - 1] if n else 1

    def _eliminated(self, a: int, steps: Iterable[Tuple[int, int, int]], k: int) -> int:
        """a⁽ᵏ⁾ for the entry a, given (t, l, u) for the steps t < k whose l·u
        is non-zero, in ascending t; a is a⁽ˢ⁾ before each of them."""
        d, s = self.scale, 0
        for t, l, u in steps:
            if s == t:
                a = (self.pivots[t] * a - l * u) // d(t)
            else:
                a = (self.pivots[t] * a * d(t) - l * u * d(s)) // (d(s) * d(t))
            s = t + 1
        return a if s == k else a * d(k) // d(s)

    def border(self, side: int, entries: Sequence[int]) -> Dict[int, int]:
        """The next row of lower[side] for the bordering entries of A: the new
        row of A left of the diagonal for side 0, the new column above it for
        side 1.  Entry k is the integer a⁽ᵏ⁾ of the bordering entry k."""
        other = self.lower[1 - side]
        out = {}
        # each step needs a non-zero entry of out, so a zero border stays zero
        for k, (col, b) in enumerate(zip(other, entries) if any(entries) else ()):
            steps = [(t, out[t], u) for t, u in col.items() if t in out]
            a = self._eliminated(b, steps, k) if b or steps else 0
            if a:
                out[k] = a
        return out

    def pivot(self, diagonal: int, row: Dict[int, int], col: Dict[int, int]) -> int:
        """The pivot Δ_{n+1} that borders the factor with `row` and `col`, as
        `border` gives them, and A's diagonal entry."""
        return self._eliminated(diagonal, [(t, row[t], u) for t, u in col.items() if t in row],
                                len(self.pivots))

    def append(self, side: int, row: Dict[int, int], col: Dict[int, int], pivot: int) -> None:
        """Border the factor: row joins lower[side], col joins lower[1 - side]."""
        self.lower[side].append(row)
        self.lower[1 - side].append(col)
        self.pivots.append(pivot)

    def back(self, side: int, rhs: Sequence[int]) -> List[int]:
        """scale(n)·x for x with T^T x = rhs, T the leading n = len(rhs) block
        of lower[side] with the diagonal of the fraction-free L̃ (the minors),
        solved from the last: each known x_j takes row j of T off the rest."""
        dn = self.scale(len(rhs))
        x = [v * dn for v in rhs]
        for j in range(len(rhs) - 1, -1, -1):
            if x[j]:
                x[j] = xj = x[j] // self.pivots[j]
                for k, t in self.lower[side][j].items():
                    x[k] -= t * xj
        return x

    def solve(self, rhs: Sequence[int]) -> List[int]:
        """scale(n)·x for x with A x = rhs: L y = rhs, then U x = D^{-1} y,
        where `border` gives y fraction-free."""
        y = self.border(1, rhs)
        return self.back(1, [y.get(k, 0) for k in range(len(rhs))])


class Bareiss(Bordered):
    """A right-looking fraction-free elimination of a dense integer matrix on
    pivots the caller picks, kept as the `Bordered` factor of the picked block.

    `rows` maps each unpicked row to its entries a⁽ⁿ⁾ at the unpicked columns
    `cols`, both in ascending order, after n picks.  By Sylvester's identity
    a⁽ⁿ⁾(i, j) is the minor of the picked rows and columns bordered by row i
    and column j, so each pivot is the next leading minor.  A step
    a⁽ⁿ⁺¹⁾ = (p·a⁽ⁿ⁾ − l·u) / Δ_n divides exactly.  Pivot column and row, read
    at the rows and columns picked later, join lower[0] and lower[1].
    """

    def __init__(self, matrix: Sequence[Sequence[int]]):
        super().__init__()
        self.rows = {i: list(row) for i, row in enumerate(matrix)}
        self.cols = list(range(len(matrix[0]) if matrix else 0))
        # each unpicked row's entries in the pivot columns, each pivot row by column
        self._left: Dict[int, Dict[int, int]] = {i: {} for i in self.rows}
        self._done: List[Dict[int, int]] = []

    def in_row(self, r: int) -> Optional[int]:
        """The first unpicked column where row r is non-zero, or None."""
        return next((c for c, a in zip(self.cols, self.rows[r]) if a), None)

    def in_column(self, c: int) -> Optional[int]:
        """The first unpicked row that is non-zero in column c, or None."""
        pos = self.cols.index(c)
        return next((i for i, row in self.rows.items() if row[pos]), None)

    def pick(self, r: int, c: int) -> None:
        """Pivot on the non-zero entry at row r and column c, eliminating its
        column from every other unpicked row."""
        n, pos = len(self.pivots), self.cols.index(c)
        u, prev = self.rows.pop(r), self.scale(n)
        p = u.pop(pos)
        del self.cols[pos]
        for i, row in self.rows.items():
            b = row.pop(pos)
            if b:
                self._left[i][n] = b
                self.rows[i] = [(p * x - b * y) // prev for x, y in zip(row, u)]
            else:
                self.rows[i] = [p * x // prev for x in row]
        self.append(0, self._left.pop(r), {k: d[c] for k, d in enumerate(self._done) if d[c]}, p)
        self._done.append(dict(zip(self.cols, u)))

    def rank(self) -> int:
        """Finish the elimination, each unpicked column pivoting on its first
        non-zero entry, and return the number of pivots: the rank."""
        for c in list(self.cols):
            if (r := self.in_column(c)) is not None:
                self.pick(r, c)
        return len(self.pivots)
