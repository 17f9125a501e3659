"""Differential checks of the polynomial, rational-function, gcd and matrix layers against sympy.

sympy is a test-only oracle here; the engine itself stays stdlib-only.
Inputs are seeded random rational polynomials, many of them built from
shared and repeated factors so that gcds, radicals and root
multiplicities are nontrivial.  The ring kernels, derivatives, monic forms
and evaluation are also checked on wide inputs: degrees up to 20, mixed
denominators, leading coefficients of either sign with several digits,
and evaluation points with large denominators.
"""

import random
from fractions import Fraction as Q

import pytest

from gaudin.errors import InternalInconsistency
from gaudin.linalg import charpoly_coeffs, mat_mul, solve_linear
from gaudin.rational import Poly, RatFun, poly_gcd, radical, rational_roots, squarefree_decomposition

from conftest import LINEAR_SYSTEM_KINDS, random_linear_system

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


def test_rational_roots_match_sympy():
    for seed in SEEDS:
        rng = random.Random(seed)
        f = random_factored(rng) * random_factored(rng)
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
    combination of the others), or a conjugate P J Q of a block diagonal
    matrix with a repeated eigenvalue and a Jordan block, Q = P^(-1)."""
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


@pytest.mark.parametrize("kind", ["generic", "singular", "repeated"])
def test_charpoly_matches_sympy(kind):
    for seed in range(30):
        rng = random.Random(seed)
        n = 1 + seed % 6
        a = random_matrix(rng, n, kind)
        m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in a])
        expected = [Q(int(c.p), int(c.q)) for c in reversed(m.charpoly(X).all_coeffs())]
        got = charpoly_coeffs(a)
        assert got == expected, (kind, seed)
        if kind == "singular":
            assert got[0] == 0, seed


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
