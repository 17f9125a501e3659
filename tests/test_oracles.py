"""Differential checks of the polynomial, rational-function, gcd and matrix layers against sympy.

sympy is a test-only oracle here; the engine itself stays stdlib-only.
The fraction-free Wronskian and the cross-multiplied edge comparison are
also checked against elimination and arithmetic over reduced ``RatFun``s,
a superflag's integer partial Wronskians against ``rational.wronskian``,
the integer Wronskian of a family line against its ``Poly`` formula,
the integer mixed-parity reproduction against the ``Poly`` product
formula it replaced, and the residue form of the Bethe equations against
per-root sums, the reproduction criterion and sympy's algebraic roots.
The gl(1|1) spectrum split on (integer block, denominator) pairs is
checked against a sympy split of commuting rational matrices.
Inputs are seeded random rational polynomials, many of them built from
shared and repeated factors so that gcds, radicals and root
multiplicities are nontrivial.  The ring kernels, derivatives, monic forms
and evaluation are also checked on wide inputs: degrees up to 20, mixed
denominators, leading coefficients of either sign with several digits,
and evaluation points with large denominators.
"""

import collections
import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from gaudin import bethe
from gaudin.bethe import (
    BethePoint,
    bae_check_criterion,
    bae_check_direct,
    bae_residue_holds,
    fermionic_reproduce,
    genericity_check,
    populate,
)
from gaudin.cli import build_parser
from gaudin.errors import (
    CriterionFailed,
    DegenerateInput,
    DegenerateReproduction,
    InternalInconsistency,
    InvalidConfiguration,
    InvalidFlag,
    InvalidInput,
)
from gaudin.linalg import charpoly_coeffs, integer_scaled, mat_mul, solve_linear
from gaudin.reps import _has_jordan_defect, _joint_eigen_decomposition
from gaudin.spaces import RationalSpace, SuperFlag, flag_polynomial
from gaudin.weights import ParitySequence, ProblemData, Weight, cartan_pairing, hook_weight, site_table
from gaudin.rational import (
    Poly,
    RatFun,
    multiplicity,
    poly_gcd,
    qq,
    radical,
    rational_roots,
    squarefree_decomposition,
    wronskian,
)

from conftest import LINEAR_SYSTEM_KINDS, random_linear_system
from test_bethe import _same_second_order
from test_golden import BUDGETED, COMMANDS, GOLDEN

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")
SEEDS = range(60)


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def from_sympy(p) -> Poly:
    return Poly([Q(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def random_scalar(rng, allow_zero=True):
    while True:
        c = Q(rng.randint(-9, 9), rng.randint(1, 4))
        if c or allow_zero:
            return c


def random_poly(rng, degree):
    return Poly([random_scalar(rng) for _ in range(degree)] + [random_scalar(rng, False)])


def random_factored(rng):
    """A nonzero constant times powers of rational linear and random quadratic factors."""
    p = Poly([random_scalar(rng, False)])
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.6:
            factor = Poly([-Q(rng.randint(-4, 4), rng.randint(1, 3)), 1])
        else:
            factor = random_poly(rng, 2)
        p = p * factor ** rng.randint(1, 2)
    return p


def wide_scalar(rng, allow_zero=True):
    """A rational with up to three digits above and below the line."""
    while True:
        c = Q(rng.randint(-999, 999), rng.choice((1, rng.randint(1, 9), rng.randint(10, 999))))
        if c or allow_zero:
            return c


def wide_poly(rng, degree):
    return Poly([wide_scalar(rng) for _ in range(degree)] + [wide_scalar(rng, False)])


def wide_divisor(rng, degree):
    """A nonzero polynomial whose leading coefficient has two or three digits."""
    lead = Q(rng.choice((-1, 1)) * rng.randint(10, 999), rng.choice((1, rng.randint(2, 99))))
    return Poly([wide_scalar(rng) for _ in range(degree)] + [lead])


def test_mul_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        a, b = wide_poly(rng, rng.randint(0, 20)), wide_poly(rng, rng.randint(0, 20))
        assert a * b == from_sympy(to_sympy(a) * to_sympy(b)), seed
        assert a * Poly.zero() == Poly.zero(), seed


def test_add_sub_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        a, b = wide_poly(rng, rng.randint(0, 12)), wide_divisor(rng, rng.randint(0, 12))
        # c agrees with a above degree 2, so a - c cancels its leading terms
        c = a + wide_poly(rng, 2)
        for x, y in ((a, b), (b, a), (a, c)):
            assert x + y == from_sympy(to_sympy(x) + to_sympy(y)), seed
            assert x - y == from_sympy(to_sympy(x) - to_sympy(y)), seed
        assert (a - a).is_zero(), seed


def test_derivative_and_monic_match_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        a = wide_divisor(rng, rng.randint(0, 12))  # the leading coefficient has either sign
        assert a.derivative() == from_sympy(to_sympy(a).diff(X)), seed
        assert a.monic() == from_sympy(to_sympy(a).monic()), seed
        assert (-a).monic() == a.monic(), seed


def test_evaluation_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        a = wide_divisor(rng, rng.randint(0, 12))
        for z in (
            Q(rng.randint(-9, 9)),
            wide_scalar(rng),
            Q(rng.randint(-(10**15), 10**15), rng.randint(1, 10**18)),
        ):
            value = to_sympy(a).eval(sympy.Rational(z.numerator, z.denominator))
            assert a(z) == Q(int(value.p), int(value.q)), seed
        assert Poly.zero()(Q(1, 3)) == 0


def test_divmod_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        b = wide_divisor(rng, rng.randint(0, 10))
        a = wide_poly(rng, rng.randint(0, 20))
        q, r = divmod(a, b)
        eq, er = sympy.div(to_sympy(a), to_sympy(b))
        assert (q, r) == (from_sympy(eq), from_sympy(er)), seed
        assert (a // b, a % b) == (q, r), seed


def test_exact_div_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        b = wide_divisor(rng, rng.randint(1, 10))
        c = wide_poly(rng, rng.randint(0, 10))
        a = b * c
        assert a.exact_div(b) == from_sympy(to_sympy(a).exquo(to_sympy(b))) == c, seed
        with pytest.raises(InternalInconsistency):
            (a + Poly.one()).exact_div(b)


def sympy_multiplicity(f, q) -> int:
    """How often sympy's div of f by q leaves no remainder in a row."""
    count = 0
    while True:
        quo, rem = sympy.div(f, q)
        if not rem.is_zero:
            return count
        f, count = quo, count + 1


def test_try_exact_div_and_multiplicity_match_sympy():
    # products of shared, repeated and non-monic rational factors, divided
    # by a factor, its powers, a product of factors and an unshared factor
    for seed in SEEDS:
        rng = random.Random(seed)
        factors = [random_scalar(rng, False) * Poly([random_scalar(rng), random_scalar(rng, False)]) for _ in range(2)]
        factors.append(random_poly(rng, 2) * random_scalar(rng, False))
        f = Poly([random_scalar(rng, False)])
        for g in factors:
            f = f * g ** rng.randint(0, 3)
        divisors = [g**k for g in factors for k in (1, 2)] + [factors[0] * factors[2], random_poly(rng, 1)]
        for d in divisors:
            quo, rem = sympy.div(to_sympy(f), to_sympy(d))
            want = from_sympy(quo) if rem.is_zero else None
            assert f.try_exact_div(d) == want, seed
            if d.degree >= 1:
                assert multiplicity(f, d) == sympy_multiplicity(to_sympy(f), to_sympy(d)), seed
        with pytest.raises(DegenerateInput):
            f.try_exact_div(Poly.zero())


def test_squarefree_decomposition_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        f = random_factored(rng) * random_factored(rng) * random_factored(rng)
        _, parts = to_sympy(f).sqf_list()
        expected = sorted(
            ((from_sympy(part.monic()), mult) for part, mult in parts if part.degree() > 0),
            key=lambda t: (t[1], t[0].coeffs),
        )
        assert squarefree_decomposition(f) == expected, seed


def test_gcd_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        if seed % 3 == 0:
            a, b = random_poly(rng, rng.randint(0, 6)), random_poly(rng, rng.randint(0, 6))
        else:
            common = random_factored(rng)
            a, b = common * random_factored(rng), common * random_factored(rng)
        expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic())
        assert poly_gcd(a, b) == expected, seed
        assert poly_gcd(a, Poly.zero()) == a.monic(), seed


def test_radical_matches_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        f = random_factored(rng) * random_factored(rng)
        if f.degree == 0:
            assert radical(f) == Poly.one(), seed
            continue
        assert radical(f) == from_sympy(to_sympy(f).sqf_part().monic()), seed


def check_rational_roots(f, seed):
    _, factors = to_sympy(f).factor_list()
    expected = {}
    for factor, mult in factors:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = -c0 / c1
            expected[Q(int(root.p), int(root.q))] = mult
    roots, rest = rational_roots(f)
    assert dict(roots) == expected, seed
    assert len(roots) == len(expected), seed
    product = rest
    for r, mult in roots:
        product = product * Poly([-r, 1]) ** mult
    assert product == f, seed


def wide_root_factor(rng):
    """x - u/v with u of 20 to 40 bits and v of up to 30, or an irreducible-looking quadratic."""
    if rng.random() < 0.7:
        u = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(20, 40))
        return Poly([-Q(u, rng.getrandbits(rng.randint(1, 30)) or 1), 1])
    return Poly([Q(rng.getrandbits(30) + 1), Q(rng.randint(-99, 99)), Q(rng.getrandbits(20) + 1)])


def end_bits(f: Poly) -> int:
    """Bits of the larger end coefficient of f with x^k pulled out."""
    ints = [c for c in f.ints if c] if f.ints else [0]
    return max(abs(ints[0]).bit_length(), abs(ints[-1]).bit_length())


def test_rational_roots_match_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        check_rational_roots(random_factored(rng) * random_factored(rng), seed)
    # end coefficients far beyond what a search over their divisors could reach
    bits = []
    for seed in SEEDS:
        rng = random.Random(f"wide roots/{seed}")
        f = Poly([Q(rng.getrandbits(40) + 1, rng.getrandbits(12) + 1)])
        for _ in range(rng.randint(2, 4)):
            f = f * wide_root_factor(rng) ** rng.randint(1, 2)
        bits.append(end_bits(f))
        check_rational_roots(f, seed)
    assert min(bits) >= 40 and max(bits) >= 64
    x = Poly.x()
    for name, f in {
        "61-bit root": (x - (2**61 - 1)) * (x**2 + 1),
        "denominator 7^15": (7**15 * x + 3) * (x - 2) ** 2,
        # 2 and 3 divide the leading coefficient and x^2 - 5 is a square mod 5:
        # the prime search ends at 7
        "lc 6": (2 * x - 1) * (3 * x - 1) * (x**2 - 5),
        # 1 and 7 meet mod 2 and mod 3 in a double root: it ends at 5
        "double root mod 2 and 3": (x - 1) * (x - 7) * (x**2 + x + 1),
        # 2 divides the leading coefficient and 1/2 and 2 meet mod 3: it ends at 5
        "lc 2, double root mod 3": (2 * x - 1) * (x - 2) ** 3 * x**2,
    }.items():
        check_rational_roots(f, name)


def cancelled(num, den) -> tuple[Poly, Poly]:
    """sympy's cancel of num/den, with the denominator scaled to be monic."""
    p, q = num.cancel(den, include=True)
    return from_sympy(p.quo_ground(q.LC())), from_sympy(q.monic())


def test_ratfun_arithmetic_matches_sympy_cancel():
    for seed in SEEDS:
        rng = random.Random(f"ratfun/{seed}")
        # operands over denominators with a common factor, some of them
        # repeated, so that every gcd of RatFun's small pieces can be nontrivial
        common = random_factored(rng)
        f = RatFun(random_factored(rng) * common, random_factored(rng) * common * random_factored(rng))
        g = RatFun(random_factored(rng), common * random_factored(rng))
        # f + h has the numerator e * common over f's denominator
        h = RatFun(random_factored(rng) * common - f.num, f.den)
        a, b, c, d, e, k = (to_sympy(p) for p in (f.num, f.den, g.num, g.den, h.num, h.den))
        for got, (num, den) in (
            (f + g, (a * d + c * b, b * d)),
            (f - g, (a * d - c * b, b * d)),
            (f * g, (a * c, b * d)),
            (f / g, (a * d, b * c)),
            (g**-2, (d**2, c**2)),
            (f.derivative(), (a.diff(X) * b - a * b.diff(X), b**2)),
            (f + h, (a * k + e * b, b * k)),
            (f - f, (a * b - a * b, b * b)),
        ):
            assert (got.num, got.den) == cancelled(num, den), seed


def random_matrix(rng, n, kind):
    """An n x n rational matrix: generic, singular (the last row a
    combination of the others), a conjugate P J Q of a block diagonal
    matrix with a repeated eigenvalue and a Jordan block, Q = P^(-1),
    integer-only, or wide: Hamiltonian-like entries h / (z_r - z_k) at
    points near 10^30, whose denominators are large and coprime."""
    if kind == "ints":
        return [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
    if kind == "wide":
        zs = [Q(10**30 + rng.randint(-10**6, 10**6), rng.choice([1, 3, 7, 11, 13])) for _ in range(n)]
        while len(set(zs)) < n:
            zs = [z + Q(1, rng.choice([17, 19])) for z in zs]
        rows = [[random_scalar(rng) / (zs[r] - zs[c]) if r != c else Q(0) for c in range(n)] for r in range(n)]
        for r in range(n):
            rows[r][r] = -sum(rows[r], Q(0)) + random_scalar(rng)
        return rows
    if kind == "repeated":
        eigen = [random_scalar(rng) for _ in range(rng.randint(1, n))]
        diag = sorted(eigen[i % len(eigen)] for i in range(n))
        j = [[diag[r] if r == c else Q(0) for c in range(n)] for r in range(n)]
        for r in range(n - 1):
            if diag[r] == diag[r + 1] and rng.random() < 0.5:
                j[r][r + 1] = Q(1)
        p = [[Q(int(r == c)) if c <= r else random_scalar(rng) for c in range(n)] for r in range(n)]
        p_inv = sympy.Matrix(p).inv()
        q = [[Q(int(e.p), int(e.q)) for e in p_inv.row(r)] for r in range(n)]
        return mat_mul(mat_mul(p, j), q)
    rows = [[random_scalar(rng) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        weights = [random_scalar(rng) for _ in range(n - 1)]
        rows[-1] = [sum((w * row[c] for w, row in zip(weights, rows)), Q(0)) for c in range(n)]
    return rows


@pytest.mark.parametrize("kind", ["generic", "singular", "repeated", "ints", "wide"])
def test_charpoly_matches_sympy(kind):
    assert charpoly_coeffs([]) == [1]
    for seed in range(30):
        rng = random.Random(seed)
        n = 1 + seed % 6
        a = random_matrix(rng, n, kind)
        m = to_sympy_matrix(a)
        expected = [Q(int(c.p), int(c.q)) for c in reversed(m.charpoly(X).all_coeffs())]
        got = charpoly_coeffs(a)
        assert got == expected, (kind, seed)
        if kind == "singular":
            assert got[0] == 0, seed
        if kind == "wide" and n > 1:
            assert max(c.denominator for c in got) > 10**25, seed


def to_sympy_matrix(a):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in a])


SPLIT_VALUES = [Q(-3, 2), Q(-1, 3), Q(0), Q(1, 2), Q(2), Q(5, 3)]


@st.composite
def commuting_families(draw):
    """Commuting rational matrices c0 + c1 B + c2 B^2 for one B = P J P^-1,
    each given to the split as (X, D) with X = s D A and the denominator s D,
    s drawn so that the pair need not be reduced.

    J holds repeated rational eigenvalues (with denominators), optionally
    the companion block of x^2 - r for a non-square r (an irrational pair)
    and optionally a planted Jordan block J_2.  P = L diag(q) U for unit
    triangular L and U, so it is invertible and P^-1 has denominators too.
    """
    values = draw(st.lists(st.sampled_from(SPLIT_VALUES), min_size=1, max_size=4))
    values.append(values[0])  # one repeat at least
    blocks = [[[v]] for v in values]
    if draw(st.booleans()):
        r = draw(st.sampled_from([Q(2), Q(3), Q(5, 4), Q(-1)]))
        blocks.append([[Q(0), r], [Q(1), Q(0)]])
    if draw(st.booleans()):
        lam = draw(st.sampled_from(SPLIT_VALUES))
        blocks.append([[lam, Q(1)], [Q(0), lam]])
    blocks = draw(st.permutations(blocks))
    n = sum(len(b) for b in blocks)
    j = [[Q(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            j[at + i][at : at + len(row)] = row
        at += len(b)
    small = st.integers(-2, 2)
    lower = [[Q(1) if r == c else Q(draw(small)) if c < r else Q(0) for c in range(n)] for r in range(n)]
    upper = [[Q(1) if r == c else Q(draw(small)) if c > r else Q(0) for c in range(n)] for r in range(n)]
    scales = [Q(draw(st.sampled_from([1, -1, 2, 3])), draw(st.sampled_from([1, 2, 5]))) for _ in range(n)]
    pmat = mat_mul(lower, [[q * x for x in row] for q, row in zip(scales, upper)])
    inverse = [[from_rational(e) for e in row] for row in to_sympy_matrix(pmat).inv().tolist()]
    b = mat_mul(mat_mul(pmat, j), inverse)
    square = mat_mul(b, b)
    coefficient = st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        c0, c1, c2 = draw(coefficient), draw(coefficient), draw(coefficient)
        if not (c1 or c2):
            c1 = Q(1)
        mats.append([[c0 * (r == c) + c1 * b[r][c] + c2 * square[r][c] for c in range(n)] for r in range(n)])
    pairs = []
    for a in mats:
        x, den = integer_scaled(a)
        s = draw(st.sampled_from([1, 2, 6]))
        pairs.append(([[s * v for v in row] for row in x], s * den))
    return mats, pairs


def sympy_rational_roots(m):
    """(rational eigenvalue, algebraic multiplicity) pairs of a sympy matrix,
    and the degree of the rest of its characteristic polynomial."""
    _, factors = sympy.factor_list(m.charpoly(X).as_expr(), X)
    roots, rest = [], 0
    for factor, mult in factors:
        if sympy.degree(factor, X) == 1:
            roots.append((sympy.solve(factor, X)[0], mult))
        else:
            rest += sympy.degree(factor, X) * mult
    return roots, rest


def sympy_split(mats):
    """The joint split by its definition, in sympy: each matrix restricted to
    each space found so far, each rational root's eigenspace kept.  Returns
    the sorted (eigenvalue tuple, dimension) pairs and the summed degree of
    the non-rational parts of the restricted characteristic polynomials."""
    n = len(mats[0])
    spaces = [((), sympy.eye(n))]
    irrational = 0
    for a in map(to_sympy_matrix, mats):
        new = []
        for eigs, basis in spaces:
            image = a * basis
            block = (basis.T * basis).inv() * basis.T * image
            assert basis * block == image
            roots, rest = sympy_rational_roots(block)
            irrational += rest
            for root, _ in roots:
                null = (block - root * sympy.eye(block.rows)).nullspace()
                new.append((eigs + (from_rational(root),), sympy.Matrix.hstack(*(basis * v for v in null))))
        spaces = new
    return sorted((eigs, basis.cols) for eigs, basis in spaces), irrational


def sympy_jordan_defect(mats):
    """Whether some matrix has a rational eigenvalue of algebraic
    multiplicity above its geometric one."""
    for a in map(to_sympy_matrix, mats):
        for root, mult in sympy_rational_roots(a)[0]:
            if a.rows - (a - root * sympy.eye(a.rows)).rank() < mult:
                return True
    return False


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(commuting_families())
def test_integer_split_matches_sympy(family):
    # the spectrum report's split and Jordan test on (integer block,
    # denominator) pairs: eigenvalue tuples mu / D, eigenspace dimensions,
    # the irrational dimension and the Jordan verdict
    mats, pairs = family
    spaces, irrational, first = _joint_eigen_decomposition(pairs)
    expected, expected_irrational = sympy_split(mats)
    assert sorted((eigs, len(vectors)) for eigs, vectors in spaces) == expected
    assert irrational == expected_irrational
    assert _has_jordan_defect(pairs, first) == sympy_jordan_defect(mats)


def from_rational(e) -> Q:
    return Q(int(e.p), int(e.q))


def rref_solution(rows, rhs):
    """Particular solution (free variables 0, None when inconsistent) and
    nullspace basis read off sympy's reduced row echelon form of [A | b]."""
    n = len(rows[0])
    aug = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in [*row, b]] for row, b in zip(rows, rhs)])
    reduced, pivots = aug.rref()
    null = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for i, pc in enumerate(pivots):
            if pc < n:
                vec[pc] = -from_rational(reduced[i, fc])
        null.append(vec)
    if n in pivots:
        return None, null
    sol = [Q(0)] * n
    for i, pc in enumerate(pivots):
        sol[pc] = from_rational(reduced[i, n])
    return sol, null


@pytest.mark.parametrize("kind", LINEAR_SYSTEM_KINDS)
def test_solve_linear_matches_sympy_rref(kind):
    for seed in range(30):
        rows, rhs = random_linear_system(random.Random(f"rref/{kind}/{seed}"), kind)
        assert solve_linear(rows, rhs) == rref_solution(rows, rhs), (kind, seed)


def gauss_wronskian(fs) -> RatFun:
    """Determinant of (f_j^(i-1))_{i,j} by Gaussian elimination over reduced RatFuns."""
    mat = [[RatFun(f) if isinstance(f, Poly) else f for f in fs]]
    for _ in range(len(fs) - 1):
        mat.append([f.derivative() for f in mat[-1]])
    r = len(fs)
    det = RatFun.one()
    for col in range(r):
        piv = next((i for i in range(col, r) if not mat[i][col].is_zero()), None)
        if piv is None:
            return RatFun.zero()
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = RatFun.one() / mat[col][col]
        for i in range(col + 1, r):
            if mat[i][col].is_zero():
                continue
            factor = mat[i][col] * inv
            for j in range(col, r):
                mat[i][j] = mat[i][j] - factor * mat[col][j]
    return det


small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
small_poly = st.lists(small, min_size=1, max_size=4).map(Poly)
nonzero_small_poly = small_poly.filter(bool)


BIG = 10**30
big_den = st.integers(BIG, BIG + 10**6)


@st.composite
def wronskian_family(draw):
    """r = 1..5 members, each a polynomial or a fraction of polynomials, all
    sharing one factor.  Some families start with a constant, repeat a
    member or end with a combination of two others.  In "wide" ones each
    member takes a scalar whose denominator is its own integer of 31
    digits, the last also a pole x + 1/e, e another such integer, and
    the first, if not the last, is a constant over such an integer."""
    shared = draw(nonzero_small_poly)
    fs = []
    for _ in range(draw(st.integers(1, 5))):
        num = draw(nonzero_small_poly) * shared
        fs.append(num if draw(st.booleans()) else RatFun(num, draw(nonzero_small_poly)))
    shape = draw(st.sampled_from(["plain", "constant first", "repeated", "combined", "wide"]))
    if shape == "constant first":
        fs[0] = Poly.const(draw(small.filter(bool)))
    elif shape == "repeated" and len(fs) > 1:
        fs[-1] = fs[draw(st.integers(0, len(fs) - 2))]
    elif shape == "combined" and len(fs) > 2:
        fs[-1] = RatFun.one() * fs[0] * draw(small) + RatFun.one() * fs[1] * draw(small)
    elif shape == "wide":
        dens = draw(st.lists(big_den, min_size=len(fs) + 1, max_size=len(fs) + 1, unique=True))
        fs = [RatFun.one() * f * Q(draw(st.integers(1, 10**6)), e) for f, e in zip(fs, dens)]
        fs[-1] = fs[-1] / Poly([Q(1, dens[-1]), 1])
        if len(fs) > 1:
            fs[0] = Poly.const(Q(draw(st.integers(1, 10**6)), dens[0]))
    return fs


PX = Poly.x()  # X is sympy's symbol


@given(fs=wronskian_family())
@example(fs=[Poly.one(), PX, PX**2, PX**3])
@example(fs=[Poly.const(3), RatFun(PX + 1, PX - 1), RatFun(PX**2, (PX - 1) ** 2)])
@example(fs=[RatFun(PX, PX + 2), PX**2 + 1, RatFun(PX, PX + 2)])
@example(fs=[PX * (PX - 1), 2 * PX * (PX - 1), RatFun(PX - 1, PX)])
@example(fs=[RatFun(PX * Q(7, BIG + 1), Poly([Q(1, BIG + 3), 1]))])
@example(fs=[Poly.const(Q(1, BIG + 1)), RatFun(PX, Poly([Q(1, BIG + 3), 1])), PX**2 * Q(5, BIG + 9),
             RatFun(Q(2, BIG + 11), Poly([Q(1, BIG + 3), 1]) ** 2), PX**4 + Q(1, BIG + 13)])
@example(fs=[RatFun(PX, PX + 2), PX**2 * Q(1, BIG + 1), RatFun(PX, PX + 2) * 3 + PX**2 * Q(1, BIG + 7)])
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
def test_wronskian_matches_gaussian_elimination(fs):
    got, want = wronskian(fs), gauss_wronskian(fs)
    assert (got.num.ints, got.num.den, got.den.ints, got.den.den) == (
        want.num.ints,
        want.num.den,
        want.den.ints,
        want.den.den,
    )


@given(fs=wronskian_family(), split=st.integers(0, 5))
@example(fs=[Poly.one(), PX, PX**2, PX**3], split=2)
@example(fs=[RatFun(PX, PX + 2), PX**2 + 1, RatFun(PX, PX + 2)], split=1)
@example(fs=[Poly.const(Q(1, BIG + 1)), RatFun(PX, Poly([Q(1, BIG + 3), 1])), PX**2 * Q(5, BIG + 9)], split=3)
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
def test_flag_dets_match_rational_wronskians(fs, split):
    # a flag of the family, its first k members even and the rest odd
    k = min(split, len(fs))
    rats = tuple(f if isinstance(f, RatFun) else RatFun(f) for f in fs)
    flag = SuperFlag(ParitySequence.standard(k, len(fs) - k), fs[:k], fs[k:])
    assert (flag.vorder, flag.uorder) == (rats[:k], rats[k:])
    den = flag.den
    for a in range(k + 1):
        for b in range(len(fs) - k + 1):
            members = rats[:a] + rats[k : k + b]
            want = wronskian(members) if members else RatFun.one()
            # det / den^(a+b) == want, cross-multiplied
            assert Poly(flag.det(a, b)) * want.den == den ** (a + b) * want.num
    if wronskian(fs).is_zero():
        assert flag.det(k, len(fs) - k) == []
        with pytest.raises(InvalidFlag):
            flag_polynomial(RationalSpace(fs[:k], fs[k:]), flag, k, len(fs) - k)


@st.composite
def wronskian_lines(draw):
    """(y, cand, rhs) with y and rhs nonzero: cand a multiple of y or drawn on
    its own, and rhs a multiple of y cand' - y' cand, when that is nonzero,
    or drawn on its own."""
    y = draw(nonzero_small_poly)
    cand = y * draw(small) if draw(st.booleans()) else draw(small_poly)
    w = y * cand.derivative() - y.derivative() * cand
    if w and draw(st.booleans()):
        return y, cand, w * draw(small.filter(bool))
    return y, cand, draw(nonzero_small_poly)


@given(line=wronskian_lines())
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_on_wronskian_line_matches_poly_wronskian(line):
    y, cand, rhs = line
    w = y * cand.derivative() - y.derivative() * cand
    assert bethe._on_wronskian_line(y, cand, rhs) == (w.is_zero() or w.monic() == rhs.monic())


def two_factorizations(phi, psi):
    """Unreduced pairs u, v, w, z with (D - u)(D - v) = (D - w)(D - z), the
    monic operator that kills phi and psi, and v = phi'/phi, z = psi'/psi."""
    wr = phi * psi.derivative() - phi.derivative() * psi
    dwr = wr.derivative()
    v, z = (phi.derivative(), phi), (psi.derivative(), psi)
    # u = W'/W - v and w = W'/W - z, as unreduced pairs
    u = (dwr * phi - wr * phi.derivative(), wr * phi)
    w = (dwr * psi - wr * psi.derivative(), wr * psi)
    return u, v, w, z


def reduced_second_order(u, v):
    """u + v and uv - v' over reduced RatFuns, for u and v given as pairs."""
    u, v = RatFun(*u), RatFun(*v)
    return u + v, u * v - v.derivative()


def test_second_order_comparison_matches_reduced_ratfuns():
    for seed in SEEDS:
        rng = random.Random(f"second order/{seed}")
        phi = random_factored(rng) * random_poly(rng, rng.randint(0, 2))
        psi = phi * random_poly(rng, rng.randint(1, 2)) + random_poly(rng, rng.randint(0, 3))
        if (phi * psi.derivative() - phi.derivative() * psi).is_zero():
            continue
        # the same fractions over a common factor h: (p h, q h)
        h = random_factored(rng)
        u, v, w, z = ((n * h, d * h) if rng.random() < 0.5 else (n, d) for n, d in two_factorizations(phi, psi))
        k = rng.randint(0, 4)
        near = (w[0] + PX**k * w[1].lc, w[1])  # w moved by x^k lc(den), one coefficient of its numerator
        for (a, b, c, d), expected in (((u, v, w, z), True), ((u, v, near, z), False), ((u, v, z, w), None)):
            oracle = reduced_second_order(a, b) == reduced_second_order(c, d)
            assert _same_second_order(a, b, c, d) == oracle, seed
            if expected is not None:
                assert oracle == expected, seed


def product_fermionic_reproduce(point, i):
    """The mixed reproduction as ``Poly`` products and a ``divmod``: the
    formula that ``bethe.fermionic_reproduce``'s integer kernel replaced."""
    data = point.problem.parity_data(point.parity)
    left, right = point.y(i - 1), point.y(i + 1)
    rhs = left * right * data.fermionic[i - 1] + data.radicals[i - 1] * (
        left.derivative() * right - left * right.derivative()
    )
    if rhs.is_zero():
        raise DegenerateReproduction(i)
    quo = rhs.try_exact_div(point.y(i))
    if quo is None or quo.is_zero():
        raise CriterionFailed(i)
    ys = list(point.ys)
    ys[i - 1] = quo.monic()
    return BethePoint(point.problem, point.parity.swapped(i), ys)


def golden_populations(kinds=("population", "space")):
    """The populations of the golden runs of the given commands, each once."""
    seen = set()
    for argv in (*COMMANDS.values(), BUDGETED[1]):
        if argv[0] in kinds and tuple(argv[1:]) not in seen:
            seen.add(tuple(argv[1:]))
            args = build_parser().parse_args([str(GOLDEN / a) if a.endswith(".json") else a for a in argv])
            with open(args.input) as fh:
                yield populate(*args.read(json.load(fh), args))


def oracle_points():
    """Nodes of the golden runs, then tuples the golden problems never give:
    gl(2|1) and gl(3|1) nodes at points with denominators, where the
    radicals and fermionic polynomials have denominators other than 1; a
    gl(1|1) tuple whose right side is zero; and a gl(2|1) tuple whose right
    side has a negative leading coefficient, since deg y_2 = 7 exceeds
    deg T_1 T_2 = 6 at parity (+,-,+)."""
    for pop in golden_populations():
        yield from pop.points()
    points = [0, Q(1, 2), Q(-2, 3)]
    for m in (2, 3):
        prob = ProblemData(m, 1, [Weight(m, 1, (1,) * m + (0,))] * 3, points=points)
        seed = BethePoint(prob, ParitySequence.standard(m, 1), [Poly.one()] * m)
        yield from populate(seed, [Q(-1, 3), Q(5, 2)], max_depth=3).points()
    # weight (0, 0): T_1 T_2 y_0 / y_2 = 1
    prob = ProblemData(1, 1, [Weight(1, 1, (0, 0))], points=[0])
    yield BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
    prob = ProblemData(2, 1, [Weight(2, 1, (1, 1, 0))] * 3, points=[0, 1, 2])
    yield BethePoint(prob, ParitySequence((1, -1, 1)), [Poly.one(), Poly([-7, 0, 0, 0, 0, 0, 0, 1])])


def test_fermionic_kernel_matches_product_formula():
    """Every mixed direction of every oracle point, as given and with y_i
    times a factor it does not divide, gives the child or the exception
    class of the product formula.  On the edge to the child, and to the
    child with y~_i times that factor, the edge check agrees with comparing
    the monic forms of y_i y~_i and the right side."""
    seen = {"child": 0, CriterionFailed: 0, DegenerateReproduction: 0}
    factor = Poly([Q(-13, 7), 1])
    for point in oracle_points():
        s = point.parity
        for i in range(1, len(s)):
            if s[i] == s[i + 1]:
                continue
            ys = list(point.ys)
            ys[i - 1] *= factor
            for p in (point, BethePoint(point.problem, s, ys)):
                outcomes = []
                for reproduce in (fermionic_reproduce, product_fermionic_reproduce):
                    try:
                        outcomes.append(reproduce(p, i))
                    except (CriterionFailed, DegenerateReproduction) as exc:
                        outcomes.append(type(exc))
                got, expected = outcomes
                assert got == expected, (p, i)
                if got is DegenerateReproduction:
                    # every y~_i keeps R
                    assert bethe._edge_keeps_operator(p, BethePoint(p.problem, s.swapped(i), p.ys), i)
                if isinstance(got, type):
                    seen[got] += 1
                    continue
                seen["child"] += 1
                rhs = bethe.fermionic_rhs(p, i).monic()
                for new, keeps in ((got.y(i), True), (got.y(i) * factor, False)):
                    ys = list(got.ys)
                    ys[i - 1] = new
                    target = BethePoint(p.problem, got.parity, ys)
                    assert ((p.y(i) * target.y(i)).monic() == rhs) is keeps
                    assert bethe._edge_keeps_operator(p, target, i) is keeps
    assert all(seen.values()), seen


def bae_root_sums(problem, parity, tlists):
    """The Bethe equations checked root by root: the check that
    ``bethe.bae_check_direct`` made before it read each colour's verdict
    off y_i | num(E_i).

    A colour whose simple root pairs nonzero with itself sums the residues
    at each of its roots; a colour whose simple root pairs to zero builds
    the numerator of its single-variable equation and compares each root's
    repeats with its multiplicity there.  All input checks, the repeats of
    self-interacting colours included, run before any colour's verdict.
    """
    if problem.points is None:
        raise InvalidInput("direct residue check needs rational evaluation points")
    s = parity
    size = len(s) - 1
    if len(tlists) != size:
        raise InvalidInput("one root list per colour is required")
    tlists = [[qq(t) for t in ts] for ts in tlists]
    zs = problem.points
    # pairs[k][i] is (L_k, alpha_i^s); a missing colour pairs to zero
    pairs = [dict(pairings) for _, _, pairings in site_table(s, problem.weights, zs)]

    # non-coincidence conditions
    flat = [(t, c + 1) for c, ts in enumerate(tlists) for t in ts]
    for j, (tj, cj) in enumerate(flat):
        for r, (tr, cr) in enumerate(flat):
            if r != j and cartan_pairing(s, cr, cj) != 0 and tj == tr and cr != cj:
                raise InvalidConfiguration("roots of interacting colours coincide")
        for k, z in enumerate(zs):
            if tj == z and cj in pairs[k]:
                raise InvalidConfiguration("root collides with an evaluation point")
    for colour, ts_c in enumerate(tlists, start=1):
        if cartan_pairing(s, colour, colour) != 0 and len(set(ts_c)) != len(ts_c):
            raise InvalidConfiguration("repeated root of a self-interacting colour")
    for colour in range(1, size + 1):
        ts_c = tlists[colour - 1]
        if not ts_c:
            continue
        if cartan_pairing(s, colour, colour) != 0:
            for j, tj in enumerate(ts_c):
                total = Q(0)
                for k, z in enumerate(zs):
                    if colour in pairs[k]:
                        total -= pairs[k][colour] / (tj - z)
                for cr in range(1, size + 1):
                    pairing = cartan_pairing(s, cr, colour)
                    if pairing == 0:
                        continue
                    for r, tr in enumerate(tlists[cr - 1]):
                        if cr == colour and r == j:
                            continue
                        total += pairing / (tj - tr)
                if total != 0:
                    return False
        else:
            num = colour_numerator(problem, s, tlists, colour)
            if num.is_zero():
                continue  # identically satisfied
            for t in set(ts_c):
                if ts_c.count(t) > multiplicity(num, Poly((-t, 1))):
                    return False
    return True


def colour_numerator(problem, parity, tlists, colour):
    """Numerator of the single-variable equation of a colour whose simple
    root pairs to zero with itself, over the product of its poles."""
    # sum of -c_k/(t-z_k) plus the cross-colour interaction terms
    terms: list[tuple[Q, Q]] = []
    for z, _, pairings in site_table(parity, problem.weights, problem.points):
        c = dict(pairings).get(colour)
        if c is not None:
            terms.append((-c, z))
    for cr in range(1, len(parity)):
        if cr == colour:
            continue
        pairing = cartan_pairing(parity, cr, colour)
        if pairing == 0:
            continue
        for tr in tlists[cr - 1]:
            terms.append((Q(pairing), tr))
    num = Poly.zero()
    den = Poly.one()
    for c, pole in terms:
        num = num * Poly((-pole, 1)) + c * den
        den = den * Poly((-pole, 1))
    return num


def bae_outcome(check, problem, parity, tlists):
    """The verdict of a direct check, or its exception's class and message."""
    try:
        return check(problem, parity, tlists)
    except InvalidInput as exc:
        return type(exc), str(exc)


BAE_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]
# roots around the points, so that some land on them
BAE_ROOTS = sorted({Q(a, b) for a in range(-12, 13) for b in (1, 2, 3, 4)})


@st.composite
def bae_inputs(draw):
    """A problem of 1-3 hook sites at distinct integer points, a parity of
    its shape and one root list per colour, possibly empty or with repeats."""
    m, n = draw(st.sampled_from(BAE_SHAPES))
    sites = draw(st.integers(1, 3))
    points = draw(st.lists(st.integers(-3, 3), min_size=sites, max_size=sites, unique=True))
    parts = st.lists(st.integers(1, 3), max_size=4).map(lambda mu: sorted(mu, reverse=True))
    hooks = parts.filter(lambda mu: len(mu) <= m or mu[m] <= n)
    weights = [hook_weight(draw(hooks), m, n) for _ in points]
    parity = draw(st.sampled_from(list(ParitySequence.all_sequences(m, n))))
    # a repeated root half of the time
    roots = st.one_of(
        st.lists(st.sampled_from(BAE_ROOTS), max_size=2),
        st.lists(st.sampled_from(BAE_ROOTS), min_size=1, max_size=2).map(lambda ts: ts + ts[:1]),
    )
    tlists = [draw(roots) for _ in range(m + n - 1)]
    problem = ProblemData(m, n, weights, points=points)
    zero = [c for c in range(1, m + n) if cartan_pairing(parity, c, c) == 0]
    if zero and draw(st.booleans()):
        # one such colour gets the rational roots of its equation, at their
        # multiplicities or with one copy too many
        c = draw(st.sampled_from(zero))
        num = colour_numerator(problem, parity, tlists, c)
        if num:
            ts = [t for t, mult in rational_roots(num)[0] for _ in range(mult)]
            tlists[c - 1] = ts + ts[:1] if draw(st.booleans()) else ts
    return problem, parity, tlists


@settings(max_examples=400, derandomize=True, deadline=None)
@given(bae_inputs())
def test_residue_form_matches_root_sums(case):
    """``bae_check_direct`` decides like the root sums, or raises the same
    exception with the same message."""
    assert bae_outcome(bae_check_direct, *case) == bae_outcome(bae_root_sums, *case), case


def rational_root_lists(point):
    """Each entry's roots with repeats, or None if one is irrational."""
    tlists = []
    for y in point.ys:
        roots, rest = rational_roots(y) if y.degree else ([], y)
        if rest.degree:
            return None
        tlists.append([t for t, mult in roots for _ in range(mult)])
    return tlists


def test_residue_form_matches_root_sums_on_golden_nodes():
    """Every golden node whose roots are all rational, and the same node with
    one colour's roots moved by 1/7, gets the same outcome from both checks."""
    outcomes = collections.Counter()
    for pop in golden_populations():
        for point in pop.points():
            tlists = rational_root_lists(point)
            if tlists is None:
                continue
            moved = [[[t + Q(1, 7) for t in ts] if c == i else ts for c, ts in enumerate(tlists)]
                     for i, ts in enumerate(tlists) if ts]
            for ts in (tlists, *moved):
                case = point.problem, point.parity, ts
                got = bae_outcome(bae_check_direct, *case)
                assert got == bae_outcome(bae_root_sums, *case), case
                outcomes[got if isinstance(got, bool) else got[0]] += 1
    assert outcomes[True] and outcomes[False] and outcomes[InvalidConfiguration], outcomes


def test_golden_space_nodes_hold_in_residue_form():
    """Every generic node of the golden ``space`` runs solves the Bethe
    equations in residue form, and 14 of the 167 non-generic nodes do.  Each
    generic node with one nonconstant y_i raised by 1/7 that stays generic
    gets the verdict of the reproduction criterion."""
    counts = collections.Counter()
    for pop in golden_populations(("space",)):
        for point in pop.points():
            holds = bae_residue_holds(point)
            if not genericity_check(point)[0]:
                counts["non-generic", holds] += 1
                continue
            assert holds, point
            counts["generic"] += 1
            for i, y in enumerate(point.ys):
                ys = list(point.ys)
                ys[i] = y + Q(1, 7)
                mutant = BethePoint(point.problem, point.parity, ys)
                if y.degree and genericity_check(mutant)[0]:
                    holds = bae_residue_holds(mutant)
                    assert holds == bae_check_criterion(mutant), mutant
                    counts["mutant", holds] += 1
    assert counts == {
        "generic": 702,
        ("non-generic", True): 14,
        ("non-generic", False): 153,
        ("mutant", True): 365,
        ("mutant", False): 1168,
    }


def algebraic_bae_holds(point):
    """The Bethe equations at sympy's exact algebraic roots of each y_i.

    At a root t of multiplicity m of y_i, the equation's left side and its
    first m - 1 derivatives must vanish, each checked as an algebraic number
    whose minimal polynomial is x; m > 1 occurs only in colours whose simple
    root pairs to zero with itself, which have no sum over their own roots.
    """
    s, ts = point.parity, point.ts()
    size = len(s) - 1
    roots = [to_sympy(y).all_roots() if y.degree else [] for y in point.ys]
    for i in range(1, size + 1):
        t_term = sympy.cancel(sum(
            sign * to_sympy(ts[k]).diff(X).as_expr() / to_sympy(ts[k]).as_expr()
            for k, sign in ((i - 1, -s[i]), (i, s[i + 1]))
        ))
        others = sum(
            cartan_pairing(s, r, i) / (X - u) for r in range(1, size + 1) if r != i for u in roots[r - 1]
        )
        for t in set(roots[i - 1]):
            mult = roots[i - 1].count(t)
            lhs = t_term + others + sum(cartan_pairing(s, i, i) / (X - u) for u in roots[i - 1] if u != t)
            for j in range(mult):
                if sympy.minimal_polynomial(sympy.diff(lhs, X, j).subs(X, t), X) != X:
                    return False
    return True


# nodes of the golden space runs with irrational roots (the first is given
# by its weight polynomials alone, which bae_check_direct cannot take),
# as entries' ascending coefficients
IRRATIONAL_NODES = [
    ("worked_gl21.json", (1, -1, 1), [[0, 1], [Q(-1, 4), 0, 0, 1]]),
    ("gl31.json", (1, 1, -1, 1), [[1], [1], [Q(2, 3), -2, 1]]),
    ("gl31.json", (1, 1, 1, -1), [[6, 1], [12, 12, 1], [1]]),
]


@pytest.mark.parametrize("name, parity, ys", IRRATIONAL_NODES)
def test_residue_form_matches_algebraic_roots(name, parity, ys):
    """Such a node holds at sympy's algebraic roots, and with one nonconstant
    entry raised by 1/7 it gets the same verdict in residue form and at
    those roots, which is a failure for at least one entry."""
    args = build_parser().parse_args(["space", "--input", str(GOLDEN / name)])
    with open(args.input) as fh:
        problem = args.read(json.load(fh), args)[0].problem
    node = BethePoint(problem, ParitySequence(parity), [Poly(c) for c in ys])
    assert bae_residue_holds(node) and algebraic_bae_holds(node)
    verdicts = []
    for i, y in enumerate(node.ys):
        if y.degree:
            ys = list(node.ys)
            ys[i] = y + Q(1, 7)
            mutant = BethePoint(problem, node.parity, ys)
            verdicts.append(bae_residue_holds(mutant))
            assert verdicts[-1] == algebraic_bae_holds(mutant), mutant
    assert not all(verdicts)
