import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gaudin import skew
from gaudin.bethe import population_factorization
from gaudin.errors import DegenerateInput, DegenerateSwap, InternalInconsistency, InvalidInput
from gaudin.rational import Poly, RatFun, log_deriv
from gaudin.skew import (
    CompleteFactorization,
    DiffOp,
    OreFraction,
    ore_swap,
    rational_kernel,
    refactor_to_parity,
    right_divide,
    right_gcd,
    transport_primitives,
)
from gaudin.weights import ParitySequence
from test_spaces import GOLDEN_SPACE_RUNS, golden_population

X = Poly.x()
D = DiffOp.first_order(0)


def rand_ratfun(rng, allow_zero=False):
    while True:
        num = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        den = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
        if den.is_zero():
            continue
        f = RatFun(num, den)
        if allow_zero or not f.is_zero():
            return f


def rand_op(rng, max_order=2, monic=False):
    order = rng.randint(0 if not monic else 1, max_order)
    coeffs = [rand_ratfun(rng, allow_zero=True) for _ in range(order)]
    coeffs.append(RatFun.one() if monic else rand_ratfun(rng))
    return DiffOp(coeffs)


class TestSkewMul:
    def test_defining_relation(self):
        # derivation times multiplication-by-x
        prod = D * DiffOp.from_coeff(RatFun(X))
        assert prod == DiffOp([RatFun.one(), RatFun(X)])

    def test_telescoping_product(self):
        a = RatFun(Poly.one(), X)
        prod = DiffOp.first_order(-a) * DiffOp.first_order(a)
        assert prod == DiffOp([RatFun.zero(), RatFun.zero(), RatFun.one()])

    def test_identity(self):
        rng = random.Random(5)
        a = rand_op(rng)
        assert a * DiffOp.one() == a and DiffOp.one() * a == a

    def test_associative_and_order(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            assert (a * b) * c == a * (b * c)
            assert (a * b).order == a.order + b.order


def leibniz_product(a, b):
    """sum over i, j, k of C(i, k) a_i b_j^(k) D^(i+j-k)."""
    out = [RatFun.zero()] * (a.order + b.order + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            deriv = bj
            for k in range(i + 1):
                out[i + j - k] = out[i + j - k] + ai * (comb(i, k) * deriv)
                deriv = deriv.derivative()
    return DiffOp(out)


class TestSkewMulOracle:
    def test_agrees_with_leibniz(self):
        rng = random.Random(29)
        for _ in range(30):
            a, b = rand_op(rng, max_order=3), rand_op(rng, max_order=3)
            assert a * b == leibniz_product(a, b)

    def test_derivatives_per_product(self, monkeypatch):
        b = DiffOp([RatFun(X + 1, X - 2), RatFun(X**2), RatFun(Poly.one(), X)])
        a = DiffOp.first_order(RatFun(X, X + 3))
        calls = []
        derivative = RatFun.derivative
        monkeypatch.setattr(RatFun, "derivative", lambda f: calls.append(f) or derivative(f))
        a * b
        assert len(calls) == 3
        calls.clear()
        b * b
        assert len(calls) == 7


class TestRightDivide:
    def test_exact(self):
        q, r = right_divide(D * D, D)
        assert q == D and r.is_zero()

    def test_small_dividend(self):
        q, r = right_divide(D, D * D)
        assert q.is_zero() and r == D

    def test_constructed_product(self):
        a = RatFun(Poly.one(), X)
        left = DiffOp.first_order(-a)
        prod = left * DiffOp.first_order(a)
        q, r = right_divide(prod, DiffOp.first_order(a))
        assert q == left and r.is_zero()

    def test_zero_divisor(self):
        with pytest.raises(DegenerateInput):
            right_divide(D, DiffOp.zero())

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(30):
            a, b = rand_op(rng, 3), rand_op(rng, 2)
            q, r = right_divide(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.order < b.order


def euclid_right_gcd(a, b):
    """The monic right gcd by the Euclidean algorithm over rational functions."""
    while not b.is_zero():
        a, b = b, right_divide(a, b)[1]
    return a.monic()


small_poly = st.builds(
    lambda ints, den: Poly([Fraction(c, den) for c in ints]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(1, 3),
)
coefficient = st.builds(RatFun, small_poly, small_poly.filter(bool))
nonzero_coefficient = coefficient.filter(bool)


@st.composite
def operators(draw):
    """A nonzero operator of order 0 to 2 with rational-function
    coefficients, their denominators polynomials of degree up to 2."""
    order = draw(st.sampled_from((2, 1, 0)))
    return DiffOp([draw(coefficient) for _ in range(order)] + [draw(nonzero_coefficient)])


class TestRightGcd:
    @given(left=st.tuples(operators(), operators()), common=operators(), zero=st.integers(0, 4))
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    def test_agrees_with_euclid(self, left, common, zero):
        """L G and M G with G of order 0-2, the first replaced by zero in
        one draw of five; both argument orders are checked."""
        a, b = (op * common for op in left)
        if not zero:
            a = DiffOp.zero()
        expected = euclid_right_gcd(a, b)
        assert right_gcd(a, b) == expected == right_gcd(b, a)
        assert expected.order >= common.order

    def test_two_zeros_rejected(self):
        with pytest.raises(DegenerateInput):
            right_gcd(DiffOp.zero(), DiffOp.zero())

    def test_shared_factor(self):
        rng = random.Random(23)
        g = rand_op(rng, 1, monic=True)
        assert right_gcd(D * g, g) == g.monic()

    def test_coprime(self):
        one = right_gcd(D, D - DiffOp.one())
        assert one == DiffOp.one()

    def test_zero_argument(self):
        a = 2 * [None]
        op = DiffOp([RatFun(X), RatFun.const(2)])
        assert right_gcd(op, DiffOp.zero()) == op.monic()


# The general Ore-fraction algebra.  The engine reads a fraction off a
# complete factorization one way (CompleteFactorization.standard_pair); the
# product of arbitrary fractions below is the independent reference for it.

ONE = OreFraction(DiffOp.one())


def left_divide(a, b):
    """Quotient and remainder with  a = b*q + r  and ord r < ord b."""
    if b.is_zero():
        raise DegenerateInput("left division by the zero operator")
    q = DiffOp.zero()
    r = a
    while not r.is_zero() and r.order >= b.order:
        k = r.order - b.order
        c = r.lc / b.lc
        mono = DiffOp([RatFun.zero()] * k + [c])
        q = q + mono
        r = r - b * mono
    return q, r


def common_right_multiple(b, c):
    """Cofactors (c1, b1) with b*c1 = c*b1 nonzero of minimal order.

    Computed by the extended Euclidean scheme for left division; the
    cofactors of the vanishing remainder give the least common multiple
    into which both inputs left-divide.
    """
    if b.is_zero() or c.is_zero():
        raise DegenerateInput("common multiple with a zero operator")
    r0, r1 = b, c
    x0, x1 = DiffOp.one(), DiffOp.zero()
    y0, y1 = DiffOp.zero(), DiffOp.one()
    while not r1.is_zero():
        q, r2 = left_divide(r0, r1)
        r0, r1 = r1, r2
        x0, x1 = x1, x0 - x1 * q
        y0, y1 = y1, y0 - y1 * q
    # now b*x1 + c*y1 == 0 with minimal-order combination
    c1, b1 = x1, -y1
    if c1.is_zero() or b1.is_zero():
        raise InternalInconsistency("degenerate common multiple cofactors")
    return c1, b1


def ore_mul(p, q):
    """The minimal form of p*q: a b^(-1) c d^(-1) = a c1 (d b1)^(-1), where
    b c1 = c b1 is a least common right multiple."""
    if p.num.is_zero() or q.num.is_zero():
        return OreFraction(DiffOp.zero()).minimal()
    if p.den.order == 0:
        # plain operator times fraction
        unit = DiffOp.from_coeff(RatFun.one() / p.den.lc)
        return OreFraction((p.num * unit) * q.num, q.den).minimal()
    c1, b1 = common_right_multiple(p.den, q.num)
    return OreFraction(p.num * c1, q.den * b1).minimal()


def ore_inv(p):
    if p.num.is_zero():
        raise DegenerateInput("inverse of the zero fraction")
    return OreFraction(p.den, p.num).minimal()


def ore_fold(fac):
    """Reference product: multiply the factors' fractions one at a time."""
    out = ONE
    for sign, a in zip(fac.parity.entries, fac.coefficients):
        op = DiffOp.first_order(a)
        out = ore_mul(out, OreFraction(op) if sign == 1 else OreFraction(DiffOp.one(), op))
    return out.minimal()


class TestCommonRightMultiple:
    def test_equal_inputs(self):
        c1, b1 = common_right_multiple(D, D)
        assert D * c1 == D * b1

    def test_unit_side(self):
        c1, b1 = common_right_multiple(D, DiffOp.one())
        assert D * c1 == DiffOp.one() * b1
        assert (D * c1).order == 1

    def test_order_two_case(self):
        b, c = D, D - DiffOp.one()
        c1, b1 = common_right_multiple(b, c)
        lcm = b * c1
        assert lcm == c * b1
        assert lcm.order == 2

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            common_right_multiple(D, DiffOp.zero())


class TestOreFraction:
    def test_self_inverse(self):
        rng = random.Random(31)
        p = OreFraction(rand_op(rng, 2), rand_op(rng, 1, monic=True))
        assert ore_mul(p, ore_inv(p)).same_operator(ONE)

    def test_cancellation(self):
        fr = OreFraction(D * D, D).minimal()
        assert fr.num == D and fr.den == DiffOp.one()

    def test_minimal_idempotent_and_unique(self):
        rng = random.Random(37)
        for _ in range(15):
            d0, d1 = rand_op(rng, 1), rand_op(rng, 1, monic=True)
            g = rand_op(rng, 1, monic=True)
            padded = OreFraction(d0 * g, d1 * g)
            stripped = padded.minimal()
            assert stripped.minimal() is stripped
            assert stripped.same_operator(OreFraction(d0, d1))

    def test_minimal_with_and_without_a_monic_denominator(self):
        # a right unit u changes the pair, not the operator: n d^(-1) = (n u)(d u)^(-1)
        rng = random.Random(41)
        unit = DiffOp.from_coeff(RatFun(X + 3, X - 2))
        for _ in range(10):
            num, den = rand_op(rng, 2), rand_op(rng, 1, monic=True)
            monic, scaled = OreFraction(num, den), OreFraction(num * unit, den * unit)
            assert monic.den.lc == RatFun.one() and scaled.den.lc != RatFun.one()
            a, b = monic.minimal(), scaled.minimal()
            assert (a.num, a.den) == (b.num, b.den)
            assert a.den.lc == RatFun.one()

    def test_unequal(self):
        assert not OreFraction(D).same_operator(OreFraction(D - DiffOp.one()))

    def test_equality_respects_multiplication(self):
        rng = random.Random(53)
        for _ in range(8):
            d0, d1 = rand_op(rng, 1), rand_op(rng, 1, monic=True)
            g = rand_op(rng, 1, monic=True)
            a = OreFraction(d0, d1)
            a_padded = OreFraction(d0 * g, d1 * g)
            b = OreFraction(rand_op(rng, 1), rand_op(rng, 1, monic=True))
            assert a.same_operator(a_padded)
            assert ore_mul(a, b).same_operator(ore_mul(a_padded, b))
            assert ore_mul(b, a).same_operator(ore_mul(b, a_padded))


class TestOreSwap:
    def test_known_values(self):
        a = RatFun(Poly.one(), X)
        c, d = ore_swap(a, RatFun.zero())
        assert c == -a and d.is_zero()

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(20):
            a, b = rand_ratfun(rng), rand_ratfun(rng)
            if a == b:
                continue
            c, d = ore_swap(a, b)
            assert ore_swap(c, d, backward=True) == (a, b)

    def test_zero_first(self):
        b = RatFun(Poly.one(), X)
        c, d = ore_swap(RatFun.zero(), b)
        assert c.is_zero() and d == -b
        assert DiffOp.first_order(c) * DiffOp.first_order(RatFun.zero()) == (
            DiffOp.first_order(d) * DiffOp.first_order(b)
        )

    def test_operator_identity_random(self):
        rng = random.Random(43)
        for _ in range(25):
            a, b = rand_ratfun(rng), rand_ratfun(rng)
            if a == b:
                continue
            c, d = ore_swap(a, b)
            lhs = DiffOp.first_order(c) * DiffOp.first_order(a)
            rhs = DiffOp.first_order(d) * DiffOp.first_order(b)
            assert lhs == rhs

    def test_equal_rejected(self):
        with pytest.raises(DegenerateSwap):
            ore_swap(RatFun(X), RatFun(X))


class TestRefactor:
    def _fac(self):
        s = ParitySequence((1, -1))
        return CompleteFactorization.from_primitives(
            s, [RatFun(X**2 + 1), RatFun(X, X - 1)]
        )

    def test_identity_target(self):
        fac = self._fac()
        assert refactor_to_parity(fac, fac.parity).coefficients == fac.coefficients

    def test_identity_target_is_not_rebuilt(self, monkeypatch):
        fac = self._fac()

        def rebuilt(*args):
            raise AssertionError("factorization rebuilt on an empty bubble path")

        monkeypatch.setattr(CompleteFactorization, "from_primitives", staticmethod(rebuilt))
        assert refactor_to_parity(fac, fac.parity) is fac
        # the primitives check still comes first
        bare = CompleteFactorization(fac.parity, fac.coefficients)
        with pytest.raises(InvalidInput):
            refactor_to_parity(bare, fac.parity)

    def test_roundtrip(self):
        fac = self._fac()
        other = refactor_to_parity(fac, ParitySequence((-1, 1)))
        back = refactor_to_parity(other, ParitySequence((1, -1)))
        assert back.coefficients == fac.coefficients
        # primitives are canonical only up to a scalar
        for g, h in zip(back.primitives, fac.primitives):
            assert (g / h).derivative().is_zero()

    def test_same_fraction(self):
        fac = self._fac()
        other = refactor_to_parity(fac, ParitySequence((-1, 1)))
        assert fac.same_operator(other)

    def test_coefficients_only_rejected(self):
        fac = CompleteFactorization(ParitySequence((1, -1)), self._fac().coefficients)
        with pytest.raises(InvalidInput):
            refactor_to_parity(fac, ParitySequence((-1, 1)))

    def test_one_log_derivative_per_primitive(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return log_deriv(f)

        monkeypatch.setattr(skew, "log_deriv", counted)
        prims = [RatFun(X**2 + 1), RatFun(X, X - 1), RatFun(X + 3)]
        fac = CompleteFactorization.from_primitives(ParitySequence((1, -1, 1)), prims)
        assert len(calls) == 3
        assert fac.coefficients == tuple(log_deriv(g) for g in prims)


small_factor = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(Poly).filter(lambda p: p.degree > 0)
powers = st.lists(st.tuples(small_factor, st.integers(1, 3)), max_size=3)
nonzero_scalar = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def primitives(draw):
    """c * prod f^e / prod h^k: repeated factors, constants and negative
    leading coefficients."""
    num, den = Poly.const(draw(nonzero_scalar)), Poly.one()
    for f, e in draw(powers):
        num = num * f**e
    for h, k in draw(powers):
        den = den * h**k
    return RatFun(num, den)


def fold_ore_swap(parity, coefficients, target):
    """Coefficients moved to ``target`` by :func:`ore_swap` along the bubble path."""
    coeffs = list(coefficients)
    for i in parity.path_to(target):
        coeffs[i - 1], coeffs[i] = ore_swap(coeffs[i - 1], coeffs[i], backward=parity[i] == -1)
        parity = parity.swapped(i)
    return tuple(coeffs)


def transported(parity, prims, target):
    """The factorization at ``target`` built from the transported primitives."""
    return CompleteFactorization.from_primitives(target, transport_primitives(parity, prims, target))


# every ordered pair of parities with m + n <= 4, the longest bubble paths first
PARITY_PAIRS = sorted(
    (
        (s, t)
        for size in range(1, 5)
        for m in range(size + 1)
        for s in ParitySequence.all_sequences(m, size - m)
        for t in ParitySequence.all_sequences(m, size - m)
    ),
    key=lambda pair: -len(pair[0].path_to(pair[1])),
)


class TestTransportOracle:
    """The primitive rule of the transport against the coefficient rule of
    :func:`ore_swap`: the logarithmic derivatives of the transported
    primitives are the folded exchanges' coefficients."""

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_agrees_with_ore_swap_fold(self, data):
        s, t = data.draw(st.sampled_from(PARITY_PAIRS))
        prims = data.draw(st.lists(primitives(), min_size=len(s), max_size=len(s)))
        try:
            expected = fold_ore_swap(s, tuple(log_deriv(g) for g in prims), t)
        except DegenerateSwap:
            with pytest.raises(DegenerateSwap, match="exchange undefined for equal coefficients"):
                transport_primitives(s, prims, t)
            return
        assert transported(s, prims, t).coefficients == expected

    @pytest.mark.parametrize("name", GOLDEN_SPACE_RUNS)
    def test_every_golden_node(self, name):
        pop = golden_population(*GOLDEN_SPACE_RUNS[name])
        standard = ParitySequence.standard(pop.problem.m, pop.problem.n)
        for point in pop.points():
            fac = population_factorization(point)
            expected = fold_ore_swap(point.parity, fac.coefficients, standard)
            assert transported(point.parity, fac.primitives, standard).coefficients == expected

    def test_proportional_neighbours_rejected(self):
        # d = ln'(g_a / g_b) is zero exactly when the coefficients are equal
        prims = [RatFun(X + 1), RatFun(Poly.const(-3) * (X + 1))]
        with pytest.raises(DegenerateSwap, match="exchange undefined for equal coefficients"):
            transport_primitives(ParitySequence((1, -1)), prims, ParitySequence((-1, 1)))


def rand_log_deriv(rng):
    """c / (x - r): the shape of a population factor's coefficient."""
    return RatFun(Poly.const(rng.randint(-2, 2)), X - rng.randint(-2, 2))


class TestStandardPair:
    def test_to_fraction_agrees_with_ore_fold(self):
        rng = random.Random(59)
        for size in range(1, 5):
            for m in range(size + 1):
                for parity in ParitySequence.all_sequences(m, size - m):
                    s = parity.entries
                    coeffs = [rand_log_deriv(rng) for _ in range(size)]
                    cases = [coeffs]
                    # equal adjacent mixed pairs; (D-a)^(-1)(D-a) takes the cancellation
                    for i in range(size - 1):
                        if s[i] != s[i + 1]:
                            cases.append(coeffs[: i + 1] + [coeffs[i]] + coeffs[i + 2 :])
                    for cs in cases:
                        fac = CompleteFactorization(parity, cs)
                        assert fac.to_fraction().same_operator(ore_fold(fac)), (s, cs)

    def test_standard_parity_multiplies_in_place(self):
        a, b, c = RatFun(X), RatFun(Poly.one(), X), RatFun(X**2)
        fac = CompleteFactorization(ParitySequence((1, -1, -1)), [a, b, c])
        num, den = fac.standard_pair()
        assert num == DiffOp.first_order(a)
        assert den == DiffOp.first_order(c) * DiffOp.first_order(b)


class TestRationalKernel:
    def test_second_derivative(self):
        basis = rational_kernel([RatFun.one(), RatFun.one()])
        assert basis == [RatFun.one(), RatFun(X)]
        for f in basis:
            assert (D * D).apply(f).is_zero()

    def test_first_order(self):
        g = RatFun(X**3 - 1)
        assert rational_kernel([g]) == [g]
        assert DiffOp.first_order(log_deriv(g)).apply(g).is_zero()

    def test_dimension_matches_order(self):
        # chained factors: pick the left primitive so the extension step has
        # a rational antiderivative (the structure population operators have)
        rng = random.Random(47)
        for _ in range(10):
            g2 = RatFun(Poly([rng.randint(1, 3), 1]))
            w = RatFun(Poly([0, rng.randint(1, 2), rng.choice([0, 1])]))
            g1 = g2 * w.derivative()
            if g1.is_zero():
                continue
            prims = [g1, g2]
            op = DiffOp.one()
            for g in prims:
                op = op * DiffOp.first_order(log_deriv(g))
            basis = rational_kernel(prims)
            assert len(basis) == op.order
            for f in basis:
                assert op.apply(f).is_zero()
