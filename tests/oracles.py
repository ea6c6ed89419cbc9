"""Dense textbook linear algebra, used by the tests as slow independent oracles.

The program itself eliminates with `linalg.RowReducer` and `linalg.Bareiss`;
these helpers work on plain lists of row lists, share no code with it, and
exist only to check it.  Likewise the program pairs a vector only with the
terms its coordinate index finds; `apply_terms` and `dense_gram` pair every
term.  The program sums exact products on integers and factors exact
systems fraction-free; `combination`, `triangularize`, `apply_terms`,
`weight_gauge`, `determinant`, `solve` and `gram_solve` do every step in
the scalars themselves, and `simplex` pivots a Fraction tableau and prices
its costs afresh before every pivot.  A run decides the build-shift
continuity check by the shift's Neumann certificate alone, and draws no
vector; `random_window_vector` draws the seeded vectors on which the tests
sample the bound that the certificate gives.  The program powers the
shift lab's maps as integer columns composed from one factor pair
d·S = W·F of the kept forms; `dense_premise`, `dense_nilpotent` and
`dense_witness` multiply out the powers of a dense Fraction matrix
(`dense_matrix`), whose columns are `apply_terms` images.  The program's
shift demo is
the `orbit` of a backward-shift operator; `shift_demo` moves the entries of
a dict.  The program parses a plain rational from its two
integers; `parse_scalar` parses every text with `Fraction(text)`.  The
program separates and scans on integer forms; `separating_functional`
reads a Fraction nullspace vector (`null_vector`) off the dense `rref`
and rescales it, and `first_below` gauges every difference with
`weight_gauge` on a weight disk, never with `minkowski`, whose weight form
shares the program scan's kept inverse weights (`minkowski` only on a
generator disk).  The last
part holds helpers that only the tests need: encoders, l1 seminorm and disk
constructors, parsers, the failed checks of a verification, two
predicates and the benchmark's scenario generator.
"""

import csv
import sys
import types
from fractions import Fraction
from pathlib import Path

from orbitlab.errors import NoSeparation, NotInSpan, SingularOperator
from orbitlab.operators import BASE_IDENTITY
from orbitlab.reports import Table
from orbitlab.scalars import ONE, ZERO, format_scalar, parse
from orbitlab.simplex import Infeasible
from orbitlab.seminorms import L1, DiskSpec, SeminormSpec, dual_norm, eval_seminorm, minkowski
from orbitlab.serialize import encode_pairs
from orbitlab.vectors import CoordFunctional, SparseVector, combine


def apply_terms(op, x):
    """base(x) + sum_j f_j(x) v_j by the plain loop over every term."""
    return combine([(f.pair(x), v) for f, v in op.terms],
                   x if op.base == BASE_IDENTITY else SparseVector.zero())


def weight_gauge(weights, u):
    """sum_i |u_i| / d_i by the plain loop from a Fraction 0; NotInSpan at the
    first coordinate of u, in entry order, that carries no weight."""
    total = ZERO
    for i, v in u.entries.items():
        d = weights.get(i)
        if d is None:
            raise NotInSpan(f"coordinate {i} carries no disk weight")
        total += abs(v) / d
    return total


def null_vector(red, pivots, fc):
    """The nullspace vector of the free column fc off a dense reduced row
    echelon form (red, pivots), as `rref` returns it: 1 at fc and minus
    the entry at fc of each row at its pivot, zeros dropped, in ascending
    column order."""
    return dict(sorted([(pc, -red[r][fc]) for r, pc in enumerate(pivots) if red[r][fc]]
                       + [(fc, ONE)]))


def separating_functional(p, constraints, u):
    """The separating functional by dense Fractions: `rref` of the
    constraints' active projections over the ascending coordinates that
    they and u's active projection touch, then for the free coordinates
    in ascending order the first nullspace vector f with f(u) != 0, paired
    in Fractions, and f.scale(1 / dual_norm(p, f)).  NoSeparation as the
    program raises it."""
    def project(x):
        return {i: v for i, v in x.entries.items() if i in p.weights}

    projections = [project(x) for x in constraints]
    u_act = project(u)
    coords = sorted(set(u_act).union(*projections))
    if not coords:
        raise NoSeparation("u projects to zero on the active coordinates")
    red, pivots = rref([[x.get(c, ZERO) for c in coords] for x in projections])
    for fc in range(len(coords)):
        if fc not in pivots:
            f = CoordFunctional({coords[j]: v for j, v in null_vector(red, pivots, fc).items()})
            if f.pair(SparseVector(u_act)) != 0:
                return f.scale(1 / dual_norm(p, f))
    raise NoSeparation("u lies in span(constraints) + ker p")


def first_below(disk, pool, y, bound):
    """The first position of an x in pool whose gauge of x - y is below bound,
    every difference built and gauged in pool order; None if there is none.
    A weight disk gauges by `weight_gauge`, a generator disk by `minkowski`."""
    for pos, x in enumerate(pool):
        diff = x - y
        gauge = minkowski(disk, diff) if disk.weights is None else weight_gauge(disk.weights, diff)
        if gauge < bound:
            return pos
    return None


def random_window_vector(rng, window):
    """A seeded vector of up to 5 coordinates of 1..window, with entries n/d for
    n in -8..8 and d in 1, 2, 4."""
    return SparseVector({
        i: Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
        for i in rng.sample(range(1, window + 1), rng.randint(0, min(window, 5)))})


def dense_gram(terms):
    """G_rc = f_r(v_c) for every pair of terms."""
    return [[f.pair(v) for _, v in terms] for f, _ in terms]


def combination(coeffs, items, start=None):
    """start + sum of c * x, each coordinate summed in term order from start's
    entry and dropped where a partial sum is 0; terms with c == 0 skipped.
    The entries of the result, in insertion order."""
    acc = dict(start.entries) if start is not None else {}
    for c, x in zip(coeffs, items):
        if c:
            for i, v in x.entries.items():
                s = acc.get(i, 0) + v * c
                if s:
                    acc[i] = s
                else:
                    acc.pop(i, None)
    return acc


def triangularize(basis, funcs, stages):
    """The alternating greedy construction by determinants: (alpha, beta, coeffs,
    v, minors) with v as entry lists in insertion order.

    Step s forces the least unused functional (s even) or basis index (s odd)
    and scans the other kind for the first candidate whose extended leading
    pairing minor has a non-zero determinant; coeffs[m-1] solves A_m c = e_m
    and v_m is the combination of the chosen basis vectors with them.
    """
    picks = ([], [])
    items = (funcs, basis)
    for step in range(2 * stages):
        side = step % 2
        forced = min(i for i in range(1, len(items[side]) + 1) if i not in picks[side])
        picks[side].append(forced)
        for cand in range(1, len(items[1 - side]) + 1):
            if cand in picks[1 - side]:
                continue
            trial = picks[1 - side] + [cand]
            fs, us = (picks[0], trial) if side == 0 else (trial, picks[1])
            minor = [[funcs[a - 1].pair(basis[b - 1]) for b in us] for a in fs]
            if determinant(minor) != 0:
                picks[1 - side].append(cand)
                break
        else:
            raise AssertionError("no candidate keeps the minor invertible")
    alpha, beta = picks
    a = [[funcs[i - 1].pair(basis[j - 1]) for j in beta] for i in alpha]
    us = [basis[j - 1] for j in beta]
    coeffs, v, minors = [], [], []
    for m in range(1, len(alpha) + 1):
        block = [row[:m] for row in a[:m]]
        c = solve(block, [ONE if k == m - 1 else ZERO for k in range(m)])
        coeffs.append(tuple(c))
        v.append(list(combination(c, us[:m]).items()))
        minors.append(determinant(block))
    return tuple(alpha), tuple(beta), tuple(coeffs), v, tuple(minors)


def pairing_matrix(state):
    """A[j][k] = f_alpha(j+1)(u_beta(k+1)) for a triangularization state."""
    return [[state.funcs[a - 1].pair(state.basis[b - 1]) for b in state.beta]
            for a in state.alpha]


def shift_demo(window, x0, horizon):
    """The first `horizon` vectors of x0 cut to the window, each made from the
    one before by moving coordinate i + 1 to i for i < window."""
    out = []
    x = x0.restrict(range(1, window + 1))
    for _ in range(horizon):
        out.append(x)
        x = SparseVector(
            {i: x.get(i + 1) for i in range(1, window) if x.get(i + 1) != 0}
        )
    return out


def parse_scalar(text):
    """The scalar of its text by `Fraction(text)` for every form; ValueError
    "'<text>' is not a finite scalar" as `scalars.parse` raises it."""
    text = str(text).strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} is not a finite scalar") from None


def forward_solve(m, b):
    """z with m z = b for a lower triangular m, by forward substitution."""
    z = []
    for j, row in enumerate(m):
        val = b[j]
        for t in range(j):
            val -= row[t] * z[t]
        z.append(val / row[j])
    return z


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def determinant(a):
    """Gaussian elimination on the first non-zero pivot."""
    m = [list(row) for row in a]
    n, det = len(m), ONE
    for k in range(n):
        piv = k + next((i for i in range(n - k) if m[k + i][k]), 0)
        if m[piv][k] == 0:
            return ZERO
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def rref(a):
    """Dense Gauss-Jordan reduced row echelon form.  Returns (rows, pivot_columns).

    Columns in ascending order; the pivot, the first non-zero from the
    current row on, is swapped into place.  Zero entries are skipped: a zero
    of the pivot row is not divided and is not subtracted from the other rows,
    and every zero of the input (an int 0 included) comes out as a Fraction 0.
    """
    if not a:
        return [], []
    zero = ZERO
    m = [[v if v else zero for v in row] for row in a]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        prow = m[r] = [v / pv if v else zero for v in m[r]]
        support = [j for j, y in enumerate(prow) if y]
        for i in range(rows):
            row = m[i]
            f = row[c]
            if f and i != r:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a, cols=None):
    """Nullspace basis, one vector per free column: 1 there, minus the
    column's entries at the pivots."""
    if cols is None:
        cols = len(a[0]) if a else 0
    red, pivots = rref(a)
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            vec = [ZERO] * cols
            vec[fc] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
            basis.append(vec)
    return basis


def solve_any(a, b):
    """Any solution of a (possibly rectangular) system; None if none."""
    cols = len(a[0]) if a else 0
    red, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def rank(a):
    return len(rref(a)[1])


def solve(a, b):
    """The solution of a square system; SingularOperator if there is none."""
    n = len(a)
    red, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots != list(range(n)):
        raise SingularOperator(f"{n}x{n} system is singular")
    return [row[n] for row in red]


def simplex(c, a, b):
    """(value, x) minimizing c.x for costs c >= 0 over A x = b, x >= 0 by the
    two-phase Fraction tableau [A | I | b], a row with b_i < 0 negated, under
    Bland's rule: the lowest-index column of negative reduced cost enters,
    the lowest ratio leaves, ties to the lowest basic column.  The reduced
    costs are priced from scratch before each pivot.  Phase 1 minimizes the
    sum of the artificials and raises Infeasible if it stays positive; each
    artificial still basic after it leaves for the first column of its row
    that is non-zero; phase 2 lets no artificial enter.  Costs >= 0 bound
    the minimum below, so an entering column always has a positive entry."""
    nvars, nrows = len(c), len(a)
    ncols = nvars + nrows
    rows = []
    for i, (ai, bi) in enumerate(zip(a, b)):
        sign = -1 if bi < 0 else 1
        rows.append([sign * Fraction(v) for v in ai]
                    + [Fraction(int(k == i)) for k in range(nrows)] + [sign * Fraction(bi)])
    basis = list(range(nvars, ncols))

    def pivot(r, col):
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        basis[r] = col

    def minimize(costs, allowed):
        while True:
            red = [costs[j] - sum(costs[k] * row[j] for k, row in zip(basis, rows))
                   for j in range(allowed)]
            col = next((j for j in range(allowed) if red[j] < 0), None)
            if col is None:
                return
            best = None
            for i, row in enumerate(rows):
                if row[col] > 0 and (best is None or (row[ncols] / row[col], basis[i])
                                     < (rows[best][ncols] / rows[best][col], basis[best])):
                    best = i
            pivot(best, col)

    minimize([0] * nvars + [1] * nrows, ncols)
    infeas = sum((row[ncols] for k, row in zip(basis, rows) if k >= nvars), Fraction(0))
    if infeas != 0:
        raise Infeasible(f"phase 1 optimum {infeas} > 0")
    for i, row in enumerate(rows):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if row[j] != 0), None)
            if col is not None:
                pivot(i, col)
    minimize(list(c) + [0] * nrows, nvars)
    x = [Fraction(0)] * nvars
    for k, row in zip(basis, rows):
        if k < nvars:
            x[k] = row[ncols]
    return sum((c[j] * x[j] for j in range(nvars)), Fraction(0)), x


def gram_solve(j, u):
    """J^{-1} u for J = I + sum_j f_j (.) v_j by one pivoting k x k Gram solve:
    u - sum_j c_j v_j with (I_k + G) c = (f_i(u))_i, G_rc = f_r(v_c)."""
    assert j.base == BASE_IDENTITY
    if not j.terms:
        return u
    gram = [[g + (ONE if r == c else 0) for c, g in enumerate(row)]
            for r, row in enumerate(dense_gram(j.terms))]
    coeffs = solve(gram, [f.pair(u) for f, _ in j.terms])
    return combine(((-c, v) for (_, v), c in zip(j.terms, coeffs)), u)


def dense_matrix(op, indices):
    """The dense matrix of op over the coordinates `indices`, each column
    op e_j by `apply_terms`."""
    cols = [apply_terms(op, SparseVector.basis(j)) for j in indices]
    return [[col.get(i) for col in cols] for i in indices]


def dense_premise(t, window, depth):
    """Premise check on dense window matrices of S = T - base: powers by
    mat_mul, ranks and nullspaces by rref, window meet by a joint rank with
    the window basis.  (rows, span_dim, window_meet_dim), each row
    (n, rank S^n, dim ker S^n, dim of range(S^n) ∩ ker(S^n))."""
    s = t.linear_part()
    top = max([window] + [i for f, v in s.terms for i in f.support + v.support])
    s_mat = dense_matrix(s, range(1, top + 1))
    power = identity_matrix(top)
    rows, union = [], []
    for n in range(1, depth + 1):
        power = mat_mul(power, s_mat)
        double = mat_mul(power, power)
        meet = [mat_vec(power, y) for y in nullspace(double, cols=top)]
        rows.append((n, rank(power), len(nullspace(power, cols=top)), rank(meet)))
        union += meet
    span_dim = rank(union)
    window_rows = [[Fraction(int(j == i)) for j in range(top)] for i in range(window)]
    return rows, span_dim, span_dim + window - rank(union + window_rows)


def dense_nilpotent(s, top):
    """Whether S^(top + 1) = 0 for the dense matrix of s on 1..top."""
    s_mat = dense_matrix(s, range(1, top + 1))
    power = s_mat
    for _ in range(top):
        power = mat_mul(power, s_mat)
    return all(v == 0 for row in power for v in row)


def dense_witness(t, x, y, eps, max_n, p, window):
    """Witness search on the powers of T's dense matrix over every coordinate
    its orbit or the residual reads: 1..top, top the largest of the window,
    the supports of x, y and each term, and active(p), each column T e_j
    by `apply_terms`.  At each n <= max_n, z is x plus any solution on the
    free columns (the window coordinates outside active(p)) of the active
    rows, or x when they have none; the first (n, z) with p(z - x) < eps and
    p(T^n z - y) < eps, or None."""
    top = max([window, *x.support, *y.support, *p.weights]
              + [i for f, v in t.terms for i in f.support + v.support])
    indices = range(1, top + 1)
    active = [i for i in indices if i in p.weights]
    free = [i for i in range(1, window + 1) if i not in p.weights]
    t_mat = dense_matrix(t, indices)
    power = identity_matrix(top)
    for n in range(max_n + 1):
        if n:
            power = mat_mul(power, t_mat)
        tnx = mat_vec(power, [x.get(i) for i in indices])
        sol = solve_any([[power[i - 1][j - 1] for j in free] for i in active],
                        [y.get(i) - tnx[i - 1] for i in active])
        z = x + SparseVector(dict(zip(free, sol or [])))
        image = SparseVector(dict(zip(indices, mat_vec(power, [z.get(i) for i in indices]))))
        if eval_seminorm(p, z - x) < eps and eval_seminorm(p, image - y) < eps:
            return n, z
    return None


# Inverses, constructors and predicates the program itself never needs: the
# scenario encoders of seminorms and disks, l1 seminorms and disks with one
# weight, the vector text parser, the CSV reader, the failed checks of a
# verification and two support or dimension checks.

def encode_weights(weights):
    return [[i, format_scalar(w)] for i, w in sorted(weights.items())]


def encode_seminorm(p):
    return {"kind": p.kind, "weights": encode_weights(p.weights)}


def encode_disk(d):
    if d.weights is not None:
        return {"weights": encode_weights(d.weights)}
    return {"generators": [encode_pairs(g) for g in d.generators]}


def l1_seminorm(indices, weight=1):
    """p(x) = sum_i weight |x_i| over the indices."""
    return SeminormSpec(L1, {i: weight for i in indices})


def l1_disk(indices, weight=1):
    """The weight-form disk p_D(x) = sum_i |x_i| / weight over the indices."""
    return DiskSpec(weights={i: weight for i in indices})


def parse_vector(text):
    """Inverse of `serialize.format_vector`."""
    text = text.strip()
    if text == "0" or not text:
        return SparseVector.zero()
    entries = {}
    for chunk in text.split():
        idx, _, val = chunk.partition(":")
        entries[int(idx)] = parse(val)
    return SparseVector(entries)


def parse_csv_tables(blob):
    """Inverse of `reports.emit_csv` on the tabular sections."""
    tables = []
    current = None
    for line in blob.decode("utf-8").splitlines():
        if line.startswith("# table: "):
            current = Table(name=line[len("# table: "):], columns=[], rows=[])
            tables.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            cells = next(csv.reader([line]))
            if not current.columns:
                current.columns.extend(cells)
            else:
                current.rows.append(cells)
    return tables


def failures(report):
    """The checks of a `VerificationReport` that failed."""
    return [c for c in report.checks if not c.passed]


def kernel_contains(p, x):
    """x lies in ker p: its support misses the active coordinates."""
    return all(i not in p.weights for i in x.entries)


def dense_span(premise):
    """The premise span fills the whole probe window."""
    return premise.window_meet_dim == premise.window_dim


def benchmark_workloads():
    """perfbench/workloads.py as a module, executed from source so that no
    bytecode cache is written under perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def patch_scalars(monkeypatch, name, replacement):
    """Rebind the `scalars` function `name` to `replacement` in `scalars` and
    in every orbitlab module that imported it by name, so that a spy sees
    each call, wherever it is made from."""
    real = getattr(sys.modules["orbitlab.scalars"], name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("orbitlab") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)
    return real
