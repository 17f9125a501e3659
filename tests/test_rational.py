import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gaudin.errors import DegenerateInput, NonRationalAntiderivative
from gaudin.linalg import solve_linear
from gaudin.rational import (
    Poly,
    RatFun,
    coprime_basis,
    factor_rational_quadratic,
    first_order_poly_solutions,
    log_deriv,
    multiplicity,
    order_at_place,
    poly_gcd,
    radical,
    rational_antiderivative,
    rational_roots,
    squarefree_decomposition,
    wronskian,
    zero_pole_radical,
)

from conftest import LINEAR_SYSTEM_KINDS, random_linear_system

X = Poly.x()

small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)

wide_fraction = st.fractions(min_value=-1000, max_value=1000, max_denominator=999)


def small_poly(max_degree=3):
    return st.lists(small_fraction, min_size=0, max_size=max_degree + 1).map(Poly)


def nonzero_poly(max_degree=3):
    return small_poly(max_degree).filter(lambda p: not p.is_zero())


class TestPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Q(1), Q(2))
        assert Poly([0, 0]).is_zero()
        assert Poly.zero().degree == -1

    def test_divmod_reconstruction(self):
        a = X**4 - 3 * X + 1
        b = X**2 + 1
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(
        a=st.lists(wide_fraction, max_size=13).map(Poly),
        b=st.lists(wide_fraction, min_size=1, max_size=8).map(Poly).filter(bool),
    )
    @settings(max_examples=80, deadline=None)
    def test_divmod_property(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_eval_horner(self):
        p = 2 * X**3 - X + 5
        assert p(Q(1, 2)) == Q(2, 8) - Q(1, 2) + 5


def assert_canonical(p: Poly):
    assert p.den > 0
    assert gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    assert Poly(p.coeffs) == p


class TestStoredForm:
    """Every way of building one polynomial stores the same (ints, den)."""

    @given(
        p=st.lists(wide_fraction, max_size=8).map(Poly),
        b=st.lists(wide_fraction, min_size=1, max_size=6).map(Poly).filter(bool),
        scale=wide_fraction.filter(bool),
    )
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_constructions_agree(self, p, b, scale):
        d = b if b.lc < 0 else -b  # a divisor with a negative leading coefficient
        q, r = divmod(p, d)
        built = [
            Poly(p.coeffs),
            p + b - b,
            (p * b).exact_div(b),
            divmod(p * d, d)[0],
            q * d + r,
        ]
        if p:
            built.append((p * scale).monic() * p.lc)
        for f in [p, q, r, *built]:
            assert_canonical(f)
        for f in built:
            assert (f.ints, f.den) == (p.ints, p.den)
            assert hash(f) == hash(p)

    def test_zero_and_constants(self):
        assert (Poly.zero().ints, Poly.zero().den) == ((), 1)
        assert (X - X).den == 1
        assert (Poly.const(Q(-6, 4)).ints, Poly.const(Q(-6, 4)).den) == ((-3,), 2)
        assert (Poly([Q(1, 2), Q(1, 3)]).ints, Poly([Q(1, 2), Q(1, 3)]).den) == ((3, 2), 6)


# factors the operands below share, some of them repeated, so that the gcds
# of the small pieces in RatFun's arithmetic are nontrivial
SHARED_FACTORS = (X, X - 1, X + 1, X + 2, 2 * X - 3, X**2 + 1, 3 * X**2 - X + Q(1, 2))


def factored_poly():
    """A nonzero scalar of either sign times shared factors and one random factor."""
    return st.builds(
        lambda fs, c, extra: c * extra * _product(fs),
        st.lists(st.sampled_from(SHARED_FACTORS), max_size=4),
        small_fraction.filter(bool),
        nonzero_poly(1),
    )


def _product(polys):
    out = Poly.one()
    for p in polys:
        out = out * p
    return out


# built from unreduced data whose denominators lead with either sign
ratfuns = st.builds(RatFun, st.one_of(st.just(Poly.zero()), factored_poly()), factored_poly())
scalars = st.one_of(st.integers(-5, 5), small_fraction)


def full_reduction(num, den) -> RatFun:
    """The constructor's one gcd of the whole unreduced fraction: the oracle."""
    return RatFun(num, den)


def assert_same(got: RatFun, want: RatFun, label=""):
    assert (got.num.ints, got.num.den, got.den.ints, got.den.den) == (
        want.num.ints,
        want.num.den,
        want.den.ints,
        want.den.den,
    ), label
    assert hash(got) == hash(want), label
    assert got.den.ints[-1] == got.den.den, label  # monic


def unreduced_results(f: RatFun, g: RatFun):
    """(operation, result, oracle) for every binary operation on f and g."""
    a, b, c, d = f.num, f.den, g.num, g.den
    out = [
        ("+", f + g, full_reduction(a * d + c * b, b * d)),
        ("-", f - g, full_reduction(a * d - c * b, b * d)),
        ("*", f * g, full_reduction(a * c, b * d)),
    ]
    if g:
        out.append(("/", f / g, full_reduction(a * d, b * c)))
    return out


class TestReducedArithmetic:
    """RatFun's gcds of small pieces give what one gcd of the whole fraction gives."""

    @given(f=ratfuns, g=ratfuns)
    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    def test_binary_operations_match_full_reduction(self, f, g):
        # second operands over f's denominator b: with (e b - a)/b the sum's
        # numerator is e b, so its gcd h with the shared factor is all of b
        for other in (g, RatFun(g.num, f.den), RatFun(g.num * f.den - f.num, f.den)):
            for name, got, want in unreduced_results(f, other):
                assert_same(got, want, name)

    @given(f=ratfuns, n=st.integers(-3, 3))
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    def test_unary_operations_match_full_reduction(self, f, n):
        a, b = f.num, f.den
        assert_same(-f, full_reduction(-a, b))
        assert_same(f.derivative(), full_reduction(a.derivative() * b - a * b.derivative(), b * b))
        if n >= 0:
            assert_same(f**n, full_reduction(a**n, b**n))
        elif f:
            assert_same(f**n, full_reduction(b ** (-n), a ** (-n)))

    @given(f=ratfuns, c=scalars)
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    def test_scalars_match_full_reduction(self, f, c):
        a, b, q = f.num, f.den, Q(c)
        assert_same(f + c, full_reduction(a + q * b, b))
        assert_same(c + f, full_reduction(a + q * b, b))
        assert_same(f - c, full_reduction(a - q * b, b))
        assert_same(c - f, full_reduction(q * b - a, b))
        assert_same(f * c, full_reduction(q * a, b))
        assert_same(c * f, full_reduction(q * a, b))
        if c:
            assert_same(f / c, full_reduction(a, q * b))
        if f:
            assert_same(c / f, full_reduction(q * b, a))

    def test_sum_divides_by_a_shared_factor_of_the_denominators(self):
        # g = x, t = (x - 1) + (x + 1) = 2x, and h = gcd(t, g) = x cancels
        f, g = RatFun(Poly.one(), X * (X + 1)), RatFun(Poly.one(), X * (X - 1))
        assert_same(f + g, RatFun(Poly.const(2), X**2 - 1))
        assert_same(f + g, full_reduction(X * (X - 1) + X * (X + 1), X * X * (X + 1) * (X - 1)))

    def test_sums_that_cancel_to_zero(self):
        f = RatFun(Poly.one(), X * (X + 1))
        for total in (
            f - f,
            f + (-f),
            f - RatFun(Poly.one(), X) + RatFun(Poly.one(), X + 1),
            RatFun(2 * X - 3, -(X**2 + 1)) + RatFun(4 * X - 6, 2 * X**2 + 2),
        ):
            assert_same(total, RatFun.zero())
            assert (total.num.ints, total.den.ints) == ((), (1,))

    def test_derivative_with_repeated_denominator_factors(self):
        f = RatFun(X + 3, (X - 1) ** 3 * (X + 2))
        a, b = f.num, f.den
        got = f.derivative()
        assert_same(got, full_reduction(a.derivative() * b - a * b.derivative(), b * b))
        assert got.den == ((X - 1) ** 4 * (X + 2) ** 2)

    def test_constants(self):
        three_halves = RatFun.const(Q(3, 2))
        assert three_halves.derivative().is_zero()
        assert_same(three_halves * Q(2, 3), RatFun.one())
        assert_same(three_halves / three_halves, RatFun.one())
        assert_same(three_halves**-2, RatFun.const(Q(4, 9)))
        assert_same(RatFun.one() / RatFun(Poly.const(Q(-2, 5)), X), RatFun(Q(-5, 2) * X))
        assert_same(RatFun.zero() * RatFun(X, X + 1), RatFun.zero())

    def test_negative_leading_coefficients(self):
        f = RatFun(-2 * X * (X - 1), -6 * (X - 1) * (X + 1))
        assert (f.num, f.den) == (X * Q(1, 3), X + 1)
        g = RatFun(3 * X + 3, -(X**2) + 4)
        assert_same(f * g, full_reduction(f.num * g.num, f.den * g.den))
        assert_same(f / g, full_reduction(f.num * g.den, f.den * g.num))
        assert_same(g**-1, full_reduction(g.den, g.num))
        assert_same(f + g, full_reduction(f.num * g.den + g.num * f.den, f.den * g.den))


class TestGcd:
    def test_shared_linear_factor(self):
        assert poly_gcd(X**2 - 1, X - 1) == X - 1

    def test_coprime(self):
        assert poly_gcd(X, Poly.one()) == Poly.one()

    def test_euclid_by_hand(self):
        # remainder of x^3-1 by 3x^2 is -1, so the gcd is trivial
        assert poly_gcd(X**3 - 1, 3 * X**2) == Poly.one()

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            poly_gcd(Poly.zero(), Poly.zero())

    @given(a=nonzero_poly(2), b=nonzero_poly(2), c=nonzero_poly(2))
    @settings(max_examples=60, deadline=None)
    def test_common_factor_divides(self, a, b, c):
        g = poly_gcd(a * b, c * b)
        assert (g % b.monic()).is_zero() or g.try_exact_div(b.monic()) is not None


class TestWronskian:
    def test_constant_and_x(self):
        assert wronskian([Poly.one(), X]) == RatFun.one()

    def test_two_by_two(self):
        assert wronskian([X, X**2]) == RatFun(X**2)

    def test_single_entry(self):
        f = RatFun(X**2 + 1, X)
        assert wronskian([f]) == f

    @given(a=nonzero_poly(2), b=nonzero_poly(2))
    @settings(max_examples=40, deadline=None)
    def test_alternating(self, a, b):
        w_ab = wronskian([a, b])
        w_ba = wronskian([b, a])
        assert w_ab == -w_ba
        assert wronskian([a, a]).is_zero()


class TestLogDeriv:
    def test_cubic(self):
        assert log_deriv(RatFun(X**3 - 1)) == RatFun(3 * X**2, X**3 - 1)

    def test_constant(self):
        assert log_deriv(RatFun.const(7)).is_zero()

    def test_square_doubles(self):
        assert log_deriv(RatFun((X**3 - 1) ** 2)) == 2 * log_deriv(RatFun(X**3 - 1))

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            log_deriv(RatFun.zero())

    @given(a=nonzero_poly(2), b=nonzero_poly(2))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, a, b):
        f, g = RatFun(a), RatFun(b)
        assert log_deriv(f * g) == log_deriv(f) + log_deriv(g)


class TestRadical:
    def test_square(self):
        assert radical(X**2) == X

    def test_already_squarefree(self):
        assert radical(X**3 - 1) == X**3 - 1

    def test_high_multiplicities(self):
        assert radical(X**5 * (X - 1) ** 4) == X * (X - 1)

    @given(p=nonzero_poly(3))
    @settings(max_examples=40, deadline=None)
    def test_output_squarefree(self, p):
        r = radical(p)
        if r.degree > 0:
            assert poly_gcd(r, r.derivative()) == Poly.one()


class TestZeroPoleRadical:
    def test_paper_example(self):
        f = RatFun(X**5 * (X - 1) ** 4, (X - 3) * (X + 6) ** 2)
        assert zero_pole_radical(f) == (X * (X - 1) * (X - 3) * (X + 6)).monic()

    def test_constant(self):
        assert zero_pole_radical(RatFun.const(5)) == Poly.one()

    def test_plain_poly(self):
        assert zero_pole_radical(RatFun(X**3 - 1)) == X**3 - 1


class TestAntiderivative:
    def test_inverse_square(self):
        f = RatFun(Poly.one(), X**2)
        assert rational_antiderivative(f) == RatFun(Poly.const(-1), X)

    def test_poly_part(self):
        assert rational_antiderivative(RatFun(X)) == RatFun(X**2 * Q(1, 2))

    def test_log_term_rejected(self):
        with pytest.raises(NonRationalAntiderivative):
            rational_antiderivative(RatFun(Poly.one(), X))

    @given(num=small_poly(2), den=nonzero_poly(2))
    @settings(max_examples=40, deadline=None)
    def test_derivative_roundtrip(self, num, den):
        g = RatFun(num, den)
        got = rational_antiderivative(g.derivative())
        assert got.derivative() == g.derivative()


def _rand_poly(rng, degree):
    return Poly([Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree)] + [Q(rng.randint(1, 4))])


class TestFirstOrderPolySolutions:
    def test_wronskian_shape(self):
        rng = random.Random(71)
        for _ in range(25):
            p = _rand_poly(rng, rng.randint(0, 3))
            w = _rand_poly(rng, rng.randint(0, 4))
            rhs = p * w.derivative() - p.derivative() * w
            bound = max(rhs.degree - p.degree + 1, p.degree, 0)
            part, homog = first_order_poly_solutions(p, p.derivative(), rhs, bound)
            assert part is not None
            assert p * part.derivative() - p.derivative() * part == rhs
            # the homogeneous solutions are exactly the multiples of p
            assert len(homog) == 1
            assert homog[0].monic() == p.monic()
            assert (w - part).try_exact_div(p) is not None

    def test_antiderivative_shape(self):
        rng = random.Random(72)
        for _ in range(25):
            p = _rand_poly(rng, rng.randint(1, 3))
            q = _rand_poly(rng, rng.randint(0, 2))
            if q == p.derivative():
                continue
            bound = rng.randint(0, 3)
            w = _rand_poly(rng, bound)
            rhs = p * w.derivative() - q * w
            part, homog = first_order_poly_solutions(p, q, rhs, bound)
            assert part is not None and part.degree <= bound
            assert p * part.derivative() - q * part == rhs
            for h in homog:
                assert not h.is_zero() and h.degree <= bound
                assert p * h.derivative() - q * h == Poly.zero()

    def test_no_polynomial_solution(self):
        # x w' - w = x is solved by x log x only
        for bound in range(4):
            part, _homog = first_order_poly_solutions(X, Poly.one(), X, bound)
            assert part is None


class TestOrderAt:
    def test_zero_order(self):
        assert order_at_place(RatFun(X**5, X - 3), X) == 5

    def test_pole_order(self):
        assert order_at_place(RatFun(Poly.one(), (X + 6) ** 2), X + 6) == -2

    def test_regular_point(self):
        assert order_at_place(RatFun(X**3 - 1), X - 2) == 0


class TestSolveLinear:
    def test_identity(self):
        sol, null = solve_linear([[1, 0], [0, 1]], [3, 4])
        assert sol == [3, 4] and null == []

    def test_inconsistent(self):
        sol, _ = solve_linear([[0, 0]], [1])
        assert sol is None

    def test_underdetermined(self):
        sol, null = solve_linear([[1, 1]], [0])
        assert sol == [0, 0] and len(null) == 1

    def test_cramer_oracle(self):
        rng = random.Random(20260808)
        done = 0
        while done < 12:
            a = [[Q(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
            det = _det3(a)
            if det == 0:
                continue
            b = [Q(rng.randint(-5, 5)) for _ in range(3)]
            sol, null = solve_linear(a, b)
            assert null == []
            for i in range(3):
                ai = [row[:] for row in a]
                for r in range(3):
                    ai[r][i] = b[r]
                assert sol[i] == _det3(ai) / det
            done += 1


    @pytest.mark.parametrize("kind", LINEAR_SYSTEM_KINDS)
    def test_matches_fraction_elimination(self, kind):
        for seed in range(40):
            rows, rhs = random_linear_system(random.Random(f"{kind}/{seed}"), kind)
            expected = _fraction_gauss_jordan(rows, rhs)
            got = solve_linear(rows, rhs)
            assert got == expected, (kind, seed)
            assert all(isinstance(x, Q) for v in [got[0] or [], *got[1]] for x in v)
            if kind == "inconsistent":
                assert got[0] is None

    def test_arguments_unchanged(self):
        rows, rhs = [[Q(1, 2), 3], [0, Q(-2, 7)]], [Q(5, 3), 1]
        solve_linear(rows, rhs)
        assert rows == [[Q(1, 2), 3], [0, Q(-2, 7)]] and rhs == [Q(5, 3), 1]


def _fraction_gauss_jordan(rows, rhs):
    """Gauss-Jordan elimination on Fractions, each pivot row scaled to 1:
    the reference for solve_linear's integer elimination."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Q(x) for x in row] + [Q(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    null_basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][fc]
        null_basis.append(vec)
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None, null_basis
    sol = [Q(0)] * n
    for i, pc in enumerate(pivots):
        sol[pc] = aug[i][n]
    return sol, null_basis


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class TestFactorHelpers:
    def test_squarefree_decomposition(self):
        parts = squarefree_decomposition(X**5 * (X - 1) ** 4)
        assert ((X - 1).monic(), 4) in parts and (X, 5) in parts

    def test_multiplicity(self):
        assert multiplicity(X**5 * (X - 1) ** 4, X) == 5

    def test_rational_roots(self):
        roots, rem = rational_roots(2 * X**2 - X)
        assert (Q(0), 1) in roots and (Q(1, 2), 1) in roots
        assert rem.degree == 0

    def test_coprime_basis_refines(self):
        basis = coprime_basis([X**2 - 1, X - 1])
        assert {b.to_str() for b in basis} == {"x - 1", "x + 1"}

    def test_sort_keys_order_by_value(self):
        # x + 1/3 comes first by coefficient value, but would come second
        # by the stored denominators (3 against 2)
        assert coprime_basis([X + Q(1, 2), X + Q(1, 3)]) == [X + Q(1, 3), X + Q(1, 2)]
        parts = factor_rational_quadratic((X + Q(1, 2)) * (X + Q(1, 3)))
        assert parts == [(X + Q(1, 3), 1), (X + Q(1, 2), 1)]

    def test_factor_quadratic(self):
        parts = factor_rational_quadratic((X**2 + 1) ** 2 * (X - 2))
        assert ((X**2 + 1).monic(), 2) in parts
