"""Exact elimination over rationals (or floats with a pivot tolerance).

Three forms, each written once, with one row step per number type: the
integer row step `_int_step` (with `_primitive`) for exact rows, the scalar
row step `_eliminate` for float rows.

- `RowReducer`, the sparse reduced row echelon form of dict-backed rows,
  built from rows given at once (`of`, behind the premise's nullspaces, the
  witness's solves, the dual system and the Gram inverse) or grown one row
  at a time (`try_add`: the separating-functional picks).  In exact mode it
  is fraction-free: each row is kept as coprime integers, reduced by the
  integer row step, and divided by its pivot entry into Fractions only once
  `of` or `try_add` is done, for the rows that changed.  Float mode runs
  Gauss-Jordan elimination with the pivot choice of the scalar context's
  `pivot_weight`.  Callers hand it sparse rows and read nullspace vectors
  (`null_vector`) or an augmented column off its rows.
- `Echelon`, a row echelon form grown one row at a time that answers only
  rank and independence questions (`row_rank`, `independent`).  In exact
  mode it is fraction-free: each row is scaled to coprime integers and
  reduced by the integer row step, so no Fraction is built at all.  Float
  mode hands its rows to a `RowReducer` and keeps the tolerance.
- `Bordered`, a factor without pivoting that grows by one row and one
  column at a time: the pairing minors of triangularization and the Gram
  system of a growing identity-plus-finite-rank operator.  In exact mode it
  is fraction-free: callers border it with integers, it keeps the leading
  minors and the Bareiss entries, and every step is an exact integer
  division that skips zeros.  Float mode keeps an L·D·U whose substitutions
  fold each b - sum t·x with `ctx.sub_products`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .scalars import EXACT, Scalar, ScalarContext


class RowReducer:
    """The reduced row echelon form of sparse rows, built at once or one row at a time.

    `rows` maps each pivot coordinate to its row, a dict of non-zero entries
    that is 1 at its pivot and 0 at every other pivot.  In exact mode the form
    is unique, so `of` and `try_add` give the same rows, whatever the order of
    the input.

    Exact rows (those `ctx.integer_row` scales) are reduced fraction-free: the
    reducer keeps each row as coprime integers, a multiple of its reduced row,
    and eliminates with `Echelon`'s integer row step.  The Fraction rows of
    `rows` are built from them once `of` or `try_add` is done, and only for
    the rows it changed.  Float rows are kept normalised and eliminated by
    the scalar row step, which honours the tolerance.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.rows: Dict[int, Dict[int, Scalar]] = {}
        # exact mode: each row as coprime integers, and the pivots whose row has changed
        self._ints: Dict[int, Dict[int, int]] = {}
        self._changed: set = set()

    @classmethod
    def of(cls, rows: Sequence[Dict[int, Scalar]], ctx: ScalarContext = EXACT) -> "RowReducer":
        """Gauss-Jordan elimination of rows given all at once.

        Exact rows join one at a time, as in `try_add`.  In float mode the
        coordinates are taken in ascending order.  The pivot of a coordinate
        is the first row of largest `ctx.pivot_weight` from the current row
        on, in the current row order; it is swapped into place, normalised
        and cleared from every other row.  Float entries within the tolerance
        never pivot but are carried along, as in dense elimination.
        """
        reducer = cls(ctx)
        scaled = [ctx.integer_row(row) for row in rows if row]
        if None not in scaled:
            for row, _ in scaled:
                reducer._keep(reducer._reduce(row))
            reducer._build()
            return reducer
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
        """vec minus its component in the span of the rows, zero at every pivot:
        vec less the sum of its entry at each pivot times that pivot's row.

        In exact mode the reduced integer row is a multiple of the residual,
        and the residual's entry at one coordinate fixes the factor."""
        scaled = self.ctx.integer_row(vec)
        if scaled is None:
            cur = {i: v for i, v in vec.items() if not self.ctx.is_zero(v)}
            # the rows are 0 at each other's pivots, so each one is subtracted once
            for coord in sorted(self.rows.keys() & cur.keys()):
                _eliminate(cur, cur[coord], self.rows[coord], self.ctx)
            return cur
        res = self._reduce(scaled[0])
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
        scaled = self.ctx.integer_row(vec)
        if scaled is not None:
            added = self._keep(self._reduce(scaled[0]))
            self._build()
            return added
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


def _eliminate(target: Dict[int, Scalar], factor: Scalar, row: Dict[int, Scalar],
               ctx: ScalarContext) -> None:
    """target -= factor * row in place, dropping entries that become zero: the
    float row step."""
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
    """A factor of A without pivoting, grown by one bordering row and column of A at a time.

    lower[0] holds the rows of the lower factor and lower[1] those of the
    transposed upper factor, each left of the diagonal as a dict of its
    non-zero entries.  As A^T swaps the two, each operation takes a side: 0
    for the lower factor, 1 for the transposed upper one.

    In exact mode A is an integer matrix and the factor is fraction-free
    (Bareiss, Math. Comp. 22, 1968; the LU form of Zhou and Jeffrey, Front.
    Comput. Sci. China 2(1), 2008): pivots[k] is the leading minor Δ_{k+1}
    of A, and entry k of a row is the integer a⁽ᵏ⁾ that k steps
    a⁽ᵗ⁺¹⁾ = (Δ_{t+1}·a⁽ᵗ⁾ − l·u) / Δ_t make of A's entry, each an exact
    division.  A step whose l·u is zero only rescales by Δ_{t+1}/Δ_t, so it
    is skipped and the rescalings telescope: zeros cost nothing.  In float
    mode A = L·D·U with L and U^T unit lower triangular and pivots the
    diagonal of D (Golub & Van Loan, Matrix Computations, §3.2); each entry
    a substitution solves for, b - sum t·x, is one `ctx.sub_products`.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.integer = ctx.integer_row({}) is not None
        self.lower: Tuple[List[Dict[int, Scalar]], List[Dict[int, Scalar]]] = ([], [])
        self.pivots: List[Scalar] = []

    def scale(self, n: int) -> Scalar:
        """The factor that `back` and `solve` put on their solutions for the
        leading n x n block: its minor Δ_n in exact mode (1 for n = 0), 1 in
        float mode."""
        return self.pivots[n - 1] if n and self.integer else 1

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

    def border(self, side: int, entries: Sequence[Scalar]) -> Dict[int, Scalar]:
        """The next row of lower[side] for the bordering entries of A: the new
        row of A left of the diagonal for side 0, the new column above it for
        side 1.  In exact mode entry k is the integer a⁽ᵏ⁾ of the bordering
        entry k; in float mode row n of A is (row of L)·D·U, so the row solves
        U^T·D x = entries."""
        other = self.lower[1 - side]
        if self.integer:
            out = {}
            # each step needs a non-zero entry of out, so a zero border stays zero
            for k, (col, b) in enumerate(zip(other, entries) if any(entries) else ()):
                steps = [(t, out[t], u) for t, u in col.items() if t in out]
                a = self._eliminated(b, steps, k) if b or steps else 0
                if a:
                    out[k] = a
            return out
        z = _forward(other, entries, self.ctx)
        return {i: zi / d for i, (zi, d) in enumerate(zip(z, self.pivots)) if zi}

    def pivot(self, diagonal: Scalar, row: Dict[int, Scalar], col: Dict[int, Scalar]) -> Scalar:
        """The pivot that borders the factor with `row` and `col`, as `border`
        gives them, and A's diagonal entry: Δ_{n+1} in exact mode, the Schur
        complement diagonal - row·D·col in float mode."""
        if self.integer:
            return self._eliminated(diagonal, [(t, row[t], u) for t, u in col.items() if t in row],
                                    len(self.pivots))
        return self.ctx.sub_products(diagonal, [
            (row[i] * self.pivots[i], c) for i, c in col.items() if i in row])

    def append(self, side: int, row: Dict[int, Scalar], col: Dict[int, Scalar],
               pivot: Scalar) -> None:
        """Border the factor: row joins lower[side], col joins lower[1 - side]."""
        self.lower[side].append(row)
        self.lower[1 - side].append(col)
        self.pivots.append(pivot)

    def back(self, side: int, rhs: Sequence[Scalar]) -> List[Scalar]:
        """scale(n)·x for x with T^T x = rhs, T the leading n = len(rhs) block
        of lower[side] with the diagonal of a float factor's L or of an exact
        one's fraction-free L̃ (the minors), solved row by row from the last."""
        n = len(rhs)
        cols: List[List[Tuple[int, Scalar]]] = [[] for _ in range(n)]  # rows of T^T
        for j, row in enumerate(self.lower[side][:n]):
            for k, t in row.items():
                cols[k].append((j, t))
        x = list(rhs)
        if self.integer:
            dn = self.scale(n)
            for k in range(n - 1, -1, -1):
                if cols[k] or x[k]:
                    x[k] = (x[k] * dn - sum(t * x[j] for j, t in cols[k])) // self.pivots[k]
            return x
        for k in range(n - 1, -1, -1):
            if cols[k]:
                x[k] = self.ctx.sub_products(x[k], [(t, x[j]) for j, t in cols[k]])
        return x

    def solve(self, rhs: Sequence[Scalar]) -> List[Scalar]:
        """scale(n)·x for x with A x = rhs: L y = rhs, then U x = D^{-1} y,
        where in exact mode `border` gives y fraction-free."""
        if self.integer:
            y = self.border(1, rhs)
            return self.back(1, [y.get(k, 0) for k in range(len(rhs))])
        y = _forward(self.lower[0], rhs, self.ctx)
        return self.back(1, [yi / d if yi else yi for yi, d in zip(y, self.pivots)])


def _forward(lower: List[Dict[int, Scalar]], rhs: Sequence[Scalar],
             ctx: ScalarContext) -> List[Scalar]:
    """x with T x = rhs, T unit lower triangular given by its rows left of the diagonal."""
    x: List[Scalar] = []
    for row, b in zip(lower, rhs):
        x.append(ctx.sub_products(b, [(t, x[j]) for j, t in row.items()]) if row else b)
    return x
