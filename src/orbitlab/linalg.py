"""Exact, fraction-free elimination over rationals, in four forms:

- `RowReducer`, the sparse reduced row echelon form of dict-backed rows,
  built from rows given at once (`of`: the premise's nullspaces, `solve`)
  or one row at a time (`try_add`: the separating-functional picks).  It
  keeps each row as coprime integers (`ints`) and reads nullspace vectors
  off them (`null_row`, `first_free`); `solve` reads an augmented system's
  solution off them: the witness's, the dual system and the Gram inverse.
- `Echelon`, a row echelon form grown one row at a time that answers only
  rank and independence questions (`row_rank`, `independent`) and builds no
  Fraction.  Both reduce by one integer row step, `_int_step`.
- `Bordered`, a factor without pivoting grown by one row and one column at
  a time: the Gram system of a growing identity-plus-finite-rank operator.
  Every step is an exact integer division that skips zeros.
- `Bareiss`, a right-looking pass over a dense integer matrix on pivots the
  caller picks, kept as the transposed upper factor and the pivots of the
  picked block: the triangularization's greedy picks, minors, combined
  vectors and basis check.

`RowReducer`, `Echelon` and `solve` take integer rows, dicts of non-zero
ints, and change none: a scaled row has the same rank and row space, so a
caller builds its rows from the integer forms its vectors keep
(`scalars.integer_of`) or scales a Fraction row once (`scalars.integer_row`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import Scalar, integer_row


class RowReducer:
    """The reduced row echelon form of sparse rows, built at once or one row at a time.

    `ints` maps each pivot coordinate to its row as coprime integers, a dict
    of non-zero entries that is a multiple of the reduced row: 0 at every
    other pivot.  The reduced form is unique, so `of` and `try_add` give the
    same rows up to their scale, whatever the order of the input.  Rows
    are reduced fraction-free, by `Echelon`'s integer row step.
    """

    def __init__(self):
        self.ints: Dict[int, Dict[int, int]] = {}

    @classmethod
    def of(cls, rows: Iterable[Dict[int, int]]) -> "RowReducer":
        """Gauss-Jordan elimination of integer rows given all at once; they
        join one at a time, as in `try_add`."""
        reducer = cls()
        for row in rows:
            if row:
                reducer._keep(reducer._reduce(row))
        return reducer

    @property
    def rank(self) -> int:
        return len(self.ints)

    def null_row(self, fc: int) -> Dict[int, int]:
        """The nullspace vector of the free coordinate fc, 1 at fc and minus
        the entry at fc of each row at its pivot, as a primitive integer row
        in ascending coordinate order: `integer_row` of that vector, whose
        entry at fc is the lcm of the entries' denominators."""
        parts, den = [], 1
        for pc, row in self.ints.items():
            if fc in row:
                # -row[fc] / row[pc] in lowest terms; lcm ignores the sign
                g = gcd(row[fc], row[pc])
                parts.append((pc, -row[fc] // g, row[pc] // g))
                den = lcm(den, row[pc] // g)
        return dict(sorted([(pc, n * (den // d)) for pc, n, d in parts] + [(fc, den)]))

    def first_free(self, vec: Dict[int, int], coords: Collection[int]) -> Optional[int]:
        """The least coordinate of coords that is no pivot and whose
        nullspace vector is non-zero on the integer row vec, or None.

        That vector pairs with vec as vec_c minus the sum of vec_pc times
        the entry at c of each pivot pc's reduced row, R_pc[c] / R_pc[pc]
        for the integer row R_pc; times `big`, the lcm of the R_pc[pc] over
        the pivots vec meets, the test runs on integers."""
        ints = self.ints
        hits = [(ints[pc], x, ints[pc][pc]) for pc, x in vec.items() if pc in ints]
        big = lcm(*[lead for _, _, lead in hits])
        hits = [(row, x * (big // lead)) for row, x, lead in hits]
        for fc in sorted(c for c in coords if c not in ints):
            if vec.get(fc, 0) * big != sum(row[fc] * m for row, m in hits if fc in row):
                return fc
        return None

    def residual(self, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """vec minus its component in the span of the rows, zero at every pivot:
        vec less the sum of its entry at each pivot times that pivot's row.

        The reduced integer row is a multiple of the residual, and the
        residual's entry at one coordinate fixes the factor."""
        res = self._reduce(integer_row(vec)[0])
        if not res:
            return {}
        j = min(res)
        exact = vec.get(j, 0) - sum(vec[pc] * Fraction(row[j], row[pc])
                                    for pc, row in self.ints.items() if pc in vec and j in row)
        factor = exact / res[j]
        return {i: factor * v for i, v in res.items()}

    def try_add(self, vec: Dict[int, int]) -> bool:
        """Reduce the integer row vec against the rows; if it is independent,
        keep it normalised at its lowest coordinate, clear that coordinate
        from the older rows and return True."""
        return self._keep(self._reduce(vec))

    def _reduce(self, row: Dict[int, int]) -> Dict[int, int]:
        """The primitive part of an integer row less its component in the
        span of the rows: zero at every pivot."""
        row = _primitive(row)
        for pc in [pc for pc in row if pc in self.ints]:
            row = _int_step(row, self.ints[pc], pc)
        return row

    def _keep(self, row: Dict[int, int]) -> bool:
        """Keep a reduced integer row at its lowest coordinate, clear that
        coordinate from the older rows and return True; False for a zero row."""
        if not row:
            return False
        coord, ints = min(row), self.ints
        for pc, other in ints.items():
            if coord in other:
                ints[pc] = _int_step(other, row, coord)
        ints[coord] = row
        return True


def solve(rows: Iterable[Dict[int, int]], k: int) -> Optional[Dict[int, Dict[int, Scalar]]]:
    """The solution X of A X = B for the integer rows [A | B], A the columns
    below k: each pivot unknown, in ascending order, mapped to its reduced
    row over B's columns keyed from 0, one Fraction per entry in ascending
    order; free unknowns are 0.  None when a pivot lands in B, so that no X
    exists (for B = I: A is singular)."""
    ints = RowReducer.of(rows).ints
    if any(pc >= k for pc in ints):
        return None
    return {pc: {c - k: Fraction(v, ints[pc][pc]) for c, v in sorted(ints[pc].items()) if c >= k}
            for pc in sorted(ints)}


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

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def try_add(self, vec: Dict[int, int]) -> bool:
        """Keep the integer row vec, as its primitive part, and return True
        if it is independent of the kept rows."""
        row = _primitive(vec)
        while row:
            lead = min(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                self.rows[lead] = row
                return True
            row = _int_step(row, pivot, lead)
        return False


def row_rank(rows: Iterable[Dict[int, int]]) -> int:
    """Rank of a family of sparse integer rows."""
    echelon = Echelon()
    for row in rows:
        echelon.try_add(row)
    return echelon.rank


def independent(rows: Iterable[Dict[int, int]]) -> bool:
    """Whether the sparse integer rows are linearly independent; stops at
    the first row that depends on the ones before it."""
    echelon = Echelon()
    return all(echelon.try_add(row) for row in rows)


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
    non-zero entries.  As A^T swaps the two, `border` takes a side: 0 for
    the lower factor, 1 for the transposed upper one; `back` solves with
    the transposed upper one.

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

    def append(self, row: Dict[int, int], col: Dict[int, int], pivot: int) -> None:
        """Border the factor: row joins lower[0], col joins lower[1]."""
        self.lower[0].append(row)
        self.lower[1].append(col)
        self.pivots.append(pivot)

    def back(self, rhs: Sequence[int]) -> List[int]:
        """scale(n)·x for x with T^T x = rhs, T the leading n = len(rhs) block
        of lower[1], the transposed upper factor, with the diagonal of the
        fraction-free L̃ (the minors), solved from the last: each known x_j
        takes row j of T off the rest."""
        dn = self.scale(len(rhs))
        x = [v * dn for v in rhs]
        for j in range(len(rhs) - 1, -1, -1):
            if x[j]:
                x[j] = xj = x[j] // self.pivots[j]
                for k, t in self.lower[1][j].items():
                    x[k] -= t * xj
        return x

    def solve(self, rhs: Sequence[int]) -> List[int]:
        """scale(n)·x for x with A x = rhs: L y = rhs, then U x = D^{-1} y,
        where `border` gives y fraction-free."""
        y = self.border(1, rhs)
        return self.back([y.get(k, 0) for k in range(len(rhs))])


class Bareiss(Bordered):
    """A right-looking fraction-free elimination of a dense integer matrix on
    pivots the caller picks, kept as the pivots and the transposed upper
    factor, lower[1], of the picked block's `Bordered` factor.

    `rows` maps each unpicked row to its entries a⁽ⁿ⁾ at the unpicked columns
    `cols`, both in ascending order, after n picks.  By Sylvester's identity
    a⁽ⁿ⁾(i, j) is the minor of the picked rows and columns bordered by row i
    and column j, so each pivot is the next leading minor.  A step
    a⁽ⁿ⁺¹⁾ = (p·a⁽ⁿ⁾ − l·u) / Δ_n divides exactly.  Each pivot row, read at
    the columns picked later, joins lower[1], all that `back` reads;
    lower[0] stays empty.
    """

    def __init__(self, matrix: Sequence[Sequence[int]]):
        super().__init__()
        self.rows = {i: list(row) for i, row in enumerate(matrix)}
        self.cols = list(range(len(matrix[0]) if matrix else 0))
        # each pivot row by column
        self._done: List[Dict[int, int]] = []

    def in_row(self, r: int) -> Optional[int]:
        """The first unpicked column where row r is non-zero, or None."""
        return next((c for c, a in zip(self.cols, self.rows[r]) if a), None)

    def in_column(self, c: int) -> Optional[int]:
        """The first unpicked row that is non-zero in column c, or None."""
        pos = self.cols.index(c)
        return next((i for i, row in self.rows.items() if row[pos]), None)

    def pick(self, r: int, c: int) -> Dict[int, int]:
        """Pivot on the non-zero entry at row r and column c, eliminating its
        column from every other unpicked row.  Return that column as it
        stood: row r and each other unpicked row non-zero there, mapped to
        its entry a⁽ⁿ⁾(i, c)."""
        pos = self.cols.index(c)
        u, prev = self.rows.pop(r), self.scale(len(self.pivots))
        p = u.pop(pos)
        column = {r: p}
        del self.cols[pos]
        for i, row in self.rows.items():
            b = row.pop(pos)
            if b:
                column[i] = b
                self.rows[i] = [(p * x - b * y) // prev for x, y in zip(row, u)]
            else:
                self.rows[i] = [p * x // prev for x in row]
        self.lower[1].append({k: d[c] for k, d in enumerate(self._done) if d[c]})
        self.pivots.append(p)
        self._done.append(dict(zip(self.cols, u)))
        return column

    def rank(self) -> int:
        """Finish the elimination, each unpicked column pivoting on its first
        non-zero entry, and return the number of pivots: the rank."""
        for c in list(self.cols):
            if (r := self.in_column(c)) is not None:
                self.pick(r, c)
        return len(self.pivots)
