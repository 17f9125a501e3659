"""Differential checks of the gcd layer against sympy.

sympy is a test-only oracle here; the engine itself stays stdlib-only.
Inputs are seeded random rational polynomials, many of them built from
shared and repeated factors so that gcds, radicals and root
multiplicities are nontrivial.
"""

import random
from fractions import Fraction as Q

import pytest

from gaudin import Poly, poly_gcd, radical
from gaudin.rational import rational_roots

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
