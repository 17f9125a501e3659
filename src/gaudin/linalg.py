"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of :class:`~fractions.Fraction` (ints are
accepted too); vectors are lists.  Everything is immutable-by-convention:
functions never modify their arguments.  Every solver here goes through
:func:`solve_linear`, which eliminates on integer rows and builds
``Fraction`` entries only for the vectors it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InternalInconsistency
from .rational import _primitive, _scaled

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
    aug = [_primitive(_scaled([*row, b])[0]) for row, b in zip(rows, rhs)]
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
                aug[i] = _primitive([p * x - f * y for x, y in zip(aug[i], prow)])
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


def integer_scaled(a) -> tuple[list[list[int]], int]:
    """(D A, D) for a rational matrix A, D the lcm of its entries' denominators."""
    den = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def int_mat_mul(a, b):
    """Product of integer matrices, with no Fraction on the way."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_charpoly(x) -> list[int]:
    """det(tI - X) for an integer matrix X, ascending integer coefficients.

    Faddeev-LeVerrier recursion: M_0 = I, and at step k the coefficient of
    t^(n-k) is -tr(X M_(k-1)) / k and M_k = X M_(k-1) plus that coefficient
    on the diagonal.  The coefficients are integers, so each division by k
    is exact; one that is not raises.
    """
    n = len(x)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = int_mat_mul(x, m)
        tr = sum(am[i][i] for i in range(n))
        c, rem = divmod(-tr, k)
        if rem:
            raise InternalInconsistency("characteristic polynomial is not integral")
        coeffs[n - k] = c
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


def charpoly_coeffs(a) -> list[Fraction]:
    """Characteristic polynomial det(tI - A), ascending coefficients.

    :func:`int_charpoly` of the integer matrix D A, D the lcm of the
    entries' denominators: det(tI - DA) = D^n det((t/D) I - A), so its
    coefficient of t^j is D^(n-j) times A's.
    """
    b, den = integer_scaled(a)
    n = len(a)
    return [Q(c, den ** (n - j)) for j, c in enumerate(int_charpoly(b))]


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
