"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of :class:`~fractions.Fraction` (ints are
accepted too); vectors are lists.  Everything is immutable-by-convention:
functions never modify their arguments.  Every solver here goes through
:func:`solve_linear`, which eliminates on integer rows and builds
``Fraction`` entries only for the vectors it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalInconsistency

Q = Fraction


def solve_linear(rows, rhs):
    """Affine solution set of A x = b over the rationals.

    Returns ``(particular, nullspace_basis)``: the particular solution has
    all free variables set to zero, the basis spans the homogeneous
    solutions.  An inconsistent system returns ``(None, nullspace_basis)``.

    Each augmented row is scaled by the lcm of its entries' denominators and
    reduced Gauss-Jordan style on integers, pivoting on the first nonzero
    entry of each column; every updated row is divided by its content.  Each
    final row is a multiple of its row in the reduced row echelon form,
    which is unique, so dividing by the pivot entry gives the same vectors
    as elimination on Fractions.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [_primitive_row([*row, b]) for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        prow = aug[r]
        p = prow[c]
        for i in range(m):
            f = aug[i][c]
            if i != r and f:
                aug[i] = _divided_by_content([p * x - f * y for x, y in zip(aug[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    consistent = all(aug[i][n] == 0 for i in range(r, m))
    free = [c for c in range(n) if c not in pivots]
    null_basis = []
    for fc in free:
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-aug[i][fc], aug[i][pc])
        null_basis.append(vec)
    if not consistent:
        return None, null_basis
    sol = [Q(0)] * n
    for i, pc in enumerate(pivots):
        sol[pc] = Fraction(aug[i][n], aug[i][pc])
    return sol, null_basis


def _primitive_row(row) -> list[int]:
    """Integers proportional to a row of ints and Fractions, with content 1."""
    den = lcm(*[x.denominator for x in row])
    return _divided_by_content([x.numerator * (den // x.denominator) for x in row])


def _divided_by_content(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def nullspace(rows):
    if not rows:
        return []
    return solve_linear(rows, [Q(0)] * len(rows))[1]


def rank(rows) -> int:
    if not rows:
        return 0
    n = len(rows[0])
    if n == 0:
        return 0
    free = len(nullspace(rows))
    return n - free


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[Q(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v == 0:
                continue
            bt = b[t]
            row = out[i]
            for j in range(m):
                if bt[j] != 0:
                    row[j] += v * bt[j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Q(c)
    return [[x * c for x in row] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n):
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Q(0))


def charpoly_coeffs(a) -> list[Fraction]:
    """Characteristic polynomial det(tI - A), ascending coefficients.

    Faddeev-LeVerrier recursion; exact for rational matrices.
    """
    n = len(a)
    coeffs = [Q(0)] * (n + 1)
    coeffs[n] = Q(1)
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -trace(am) / k
        coeffs[n - k] = c
        m = mat_add(am, mat_scale(identity(n), c))
    return coeffs


def solve_matrix(b, y):
    """X with B X = Y for a full-column-rank B; raises if inconsistent."""
    ncols = len(y[0]) if y else 0
    xcols = []
    for j in range(ncols):
        col = [row[j] for row in y]
        sol, _ = solve_linear(b, col)
        if sol is None:
            raise InternalInconsistency("subspace is not invariant")
        xcols.append(sol)
    return transpose(xcols)


def column_span_contains(columns, vec) -> bool:
    """Whether vec lies in the span of the given column vectors."""
    if not columns:
        return all(x == 0 for x in vec)
    rows = transpose(columns)
    sol, _ = solve_linear(rows, vec)
    return sol is not None


def intersect_spans(cols_a, cols_b):
    """Basis (as column vectors) of the intersection of two column spans."""
    if not cols_a or not cols_b:
        return []
    n = len(cols_a[0])
    rows = [[cols_a[j][i] for j in range(len(cols_a))]
            + [-cols_b[j][i] for j in range(len(cols_b))] for i in range(n)]
    out = []
    for vec in nullspace(rows):
        coeffs = vec[: len(cols_a)]
        combo = [sum((c * cols_a[j][i] for j, c in enumerate(coeffs)), Q(0)) for i in range(n)]
        if any(x != 0 for x in combo):
            out.append(combo)
    # reduce to an independent set
    return independent_subset(out)


def independent_subset(vectors):
    """Greedy maximal linearly independent subset of the given vectors."""
    chosen = []
    for v in vectors:
        if not column_span_contains(chosen, v):
            chosen.append(list(v))
    return chosen
