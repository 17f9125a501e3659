"""The skew ring of differential operators over rational functions.

Operators are stored densely by power of the derivation; multiplication
uses the exchange rule (derivation * a = a * derivation + a').  Fractions
keep the denominator on the right, matching the factored products the
engine manufactures; left fractions are never materialized.

A complete factorization reaches its fraction one way: first-order
exchanges carry it to the standard parity (all even factors first), where
it reads A * B^(-1) with A and B plain products of first-order factors,
and the minimal form of that pair is the fraction.  Two fractions are
compared through their minimal forms; no general fraction product is
needed.
"""

from __future__ import annotations

from .errors import (
    DegenerateInput,
    DegenerateSwap,
    InternalInconsistency,
    NonRationalKernel,
    NonRationalAntiderivative,
    UnsupportedOperator,
)
from .rational import Poly, RatFun, log_deriv, rational_antiderivative
from .weights import ParitySequence


def _as_coeff(c) -> RatFun:
    if isinstance(c, RatFun):
        return c
    return RatFun(c) if isinstance(c, Poly) else RatFun(Poly.const(c))


class DiffOp:
    """Differential operator with rational-function coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp(())

    @staticmethod
    def one() -> "DiffOp":
        return DiffOp((RatFun.one(),))

    @staticmethod
    def first_order(a) -> "DiffOp":
        """The operator  D - a."""
        return DiffOp((-_as_coeff(a), RatFun.one()))

    @staticmethod
    def from_coeff(f) -> "DiffOp":
        return DiffOp((_as_coeff(f),))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> RatFun:
        return self.coeffs[-1] if self.coeffs else RatFun.zero()

    def coeff(self, k: int) -> RatFun:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RatFun.zero()

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("DiffOp", self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "DiffOp(0)"
        parts = [f"({c!r})*D^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "DiffOp(" + " + ".join(parts) + ")"

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self):
        return DiffOp([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "DiffOp":
        """Left multiplication by a function: coefficients scale in place."""
        f = _as_coeff(f)
        return DiffOp([f * c for c in self.coeffs])

    def monic(self) -> "DiffOp":
        if self.is_zero():
            raise DegenerateInput("the zero operator has no monic form")
        return self.scale(RatFun.one() / self.lc)

    def __mul__(self, other) -> "DiffOp":
        """Skew product sum_i a_i (D^i other), stepping from D^(i-1) other
        to D^i other by D (sum_j b_j D^j) = sum_j (b_j' + b_(j-1)) D^j."""
        if not isinstance(other, DiffOp):
            other = DiffOp.from_coeff(other)
        if self.is_zero() or other.is_zero():
            return DiffOp.zero()
        out = [RatFun.zero()] * (self.order + other.order + 1)
        step = other.coeffs
        for i, a in enumerate(self.coeffs):
            if i:
                derivs = [b.derivative() for b in step]
                step = [derivs[0], *(d + b for d, b in zip(derivs[1:], step)), step[-1]]
            if not a.is_zero():
                for j, b in enumerate(step):
                    out[j] = out[j] + a * b
        return DiffOp(out)

    def apply(self, f) -> RatFun:
        """Action on a rational function."""
        f = _as_coeff(f)
        out = RatFun.zero()
        deriv = f
        for c in self.coeffs:
            if not c.is_zero():
                out = out + c * deriv
            deriv = deriv.derivative()
        return out


def right_divide(a: DiffOp, b: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Quotient and remainder with  a = q*b + r  and ord r < ord b."""
    if b.is_zero():
        raise DegenerateInput("right division by the zero operator")
    q = DiffOp.zero()
    r = a
    while not r.is_zero() and r.order >= b.order:
        k = r.order - b.order
        c = r.lc / b.lc
        mono = DiffOp([RatFun.zero()] * k + [c])
        q = q + mono
        r = r - mono * b
    return q, r


def right_gcd(a: DiffOp, b: DiffOp) -> DiffOp:
    """Monic greatest common right divisor."""
    if a.is_zero() and b.is_zero():
        raise DegenerateInput("gcd of two zero operators")
    while not b.is_zero():
        a, b = b, right_divide(a, b)[1]
    return a.monic()


class OreFraction:
    """Rational pseudodifferential operator stored as num * den^(-1)."""

    __slots__ = ("num", "den", "is_minimal")

    def __init__(self, num: DiffOp, den: DiffOp = None, *, _minimal=False):
        den = DiffOp.one() if den is None else den
        if den.is_zero():
            raise DegenerateInput("zero denominator operator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "is_minimal", _minimal)

    def __repr__(self):
        return f"OreFraction(num={self.num!r}, den={self.den!r})"

    def minimal(self) -> "OreFraction":
        """The unique minimal fractional form with monic denominator."""
        if self.is_minimal:
            return self
        num, den = self.num, self.den
        if num.is_zero():
            return OreFraction(DiffOp.zero(), DiffOp.one(), _minimal=True)
        g = right_gcd(num, den)
        if g.order > 0:
            qn, rn = right_divide(num, g)
            qd, rd = right_divide(den, g)
            if not (rn.is_zero() and rd.is_zero()):
                raise InternalInconsistency("right gcd does not divide exactly")
            num, den = qn, qd
        # normalize the denominator monic by a right unit
        unit = DiffOp.from_coeff(RatFun.one() / den.lc)
        num, den = num * unit, den * unit
        return OreFraction(num, den, _minimal=True)

    def same_operator(self, other: "OreFraction") -> bool:
        """Equality via the unique minimal fractional form."""
        a, b = self.minimal(), other.minimal()
        return a.num == b.num and a.den == b.den


def ore_swap(a: RatFun, b: RatFun, *, backward: bool = False) -> tuple[RatFun, RatFun]:
    """First-order exchange between the two mixed fraction shapes.

    Forward direction: given (D-a)(D-b)^(-1), produce (c, d) with
    (D-a)(D-b)^(-1) = (D-c)^(-1)(D-d).  Backward inverts the move.
    """
    a, b = _as_coeff(a), _as_coeff(b)
    diff = a - b
    if diff.is_zero():
        raise DegenerateSwap("exchange undefined for equal coefficients")
    shift = log_deriv(diff)
    if backward:
        # here (a, b) play the role of (c, d)
        return b - shift, a - shift
    return b + shift, a + shift


class CompleteFactorization:
    """Ordered first-order factors (D - a_i)^(s_i) with a parity sequence.

    ``primitives`` carries rational functions g_i with ln' g_i = a_i when
    the factorization is built by :meth:`from_primitives`, and is None
    otherwise; they travel through exchanges and make exact kernel
    computations possible.
    """

    __slots__ = ("parity", "coefficients", "primitives")

    def __init__(self, parity: ParitySequence, coefficients):
        coefficients = tuple(_as_coeff(c) for c in coefficients)
        if len(coefficients) != len(parity):
            raise DegenerateInput("factor count must match parity length")
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "primitives", None)

    @staticmethod
    def from_primitives(parity: ParitySequence, primitives) -> "CompleteFactorization":
        primitives = tuple(_as_coeff(g) for g in primitives)
        fac = CompleteFactorization(parity, [log_deriv(g) for g in primitives])
        object.__setattr__(fac, "primitives", primitives)
        return fac

    def __repr__(self):
        return f"CompleteFactorization(parity={list(self.parity.entries)}, {len(self.coefficients)} factors)"

    def standard_pair(self) -> tuple[DiffOp, DiffOp]:
        """Operators (A, B) with A * B^(-1) equal to the product.

        Each even factor moves left past the odd factors before it by the
        backward exchange; where it meets (D - c)^(-1)(D - c), that product
        is 1 and both factors drop.  A multiplies the even factors in
        order, B the odd factors in reverse order.
        """
        evens: list[RatFun] = []
        odds: list[RatFun] = []
        for sign, a in zip(self.parity.entries, self.coefficients):
            if sign == -1:
                odds.append(a)
                continue
            for j in range(len(odds) - 1, -1, -1):
                if odds[j] == a:
                    del odds[j]
                    break
                a, odds[j] = ore_swap(odds[j], a, backward=True)
            else:
                evens.append(a)
        return _product(evens), _product(odds[::-1])

    def to_fraction(self) -> OreFraction:
        return OreFraction(*self.standard_pair()).minimal()

    def same_operator(self, other: "CompleteFactorization") -> bool:
        return self.to_fraction().same_operator(other.to_fraction())


def _product(coefficients) -> DiffOp:
    """The operator (D - a_1)(D - a_2)...(D - a_k), built from the right:
    a first-order factor on the left needs only first derivatives."""
    out = DiffOp.one()
    for a in reversed(coefficients):
        out = DiffOp.first_order(a) * out
    return out


def refactor_to_parity(fac: CompleteFactorization, target: ParitySequence) -> CompleteFactorization:
    """Transport a complete factorization to another parity sequence.

    Applies the first-order exchange along a bubble path of adjacent
    transpositions; the represented fraction is unchanged.  Primitives
    travel along, and their logarithmic derivatives must reproduce the
    exchanged coefficients.
    """
    parity = fac.parity
    coeffs = list(fac.coefficients)
    prims = list(fac.primitives) if fac.primitives is not None else None
    for i in parity.path_to(target):
        a, b = coeffs[i - 1], coeffs[i]
        if parity[i] == 1:
            c, d = ore_swap(a, b)
        else:
            c, d = ore_swap(a, b, backward=True)
        coeffs[i - 1], coeffs[i] = c, d
        if prims is not None:
            ga, gb = prims[i - 1], prims[i]
            if parity[i] == 1:
                diff = a - b
                prims[i - 1], prims[i] = gb * diff, ga * diff
            else:
                diff = a - b  # equals c_old - d_old in the backward role
                prims[i - 1], prims[i] = gb / diff, ga / diff
        parity = parity.swapped(i)
    if prims is None:
        return CompleteFactorization(parity, coeffs)
    out = CompleteFactorization.from_primitives(parity, prims)
    if out.coefficients != tuple(coeffs):
        raise InternalInconsistency("primitive does not match factor")
    return out


def first_order_solve(primitive: RatFun, rhs: RatFun) -> RatFun:
    """Particular rational solution of (D - ln' g) f = rhs, namely
    g * antiderivative(rhs / g)."""
    return primitive * rational_antiderivative(rhs / primitive)


def rational_kernel(op: DiffOp, primitives=None) -> list[RatFun]:
    """Rational kernel basis of a completely factored operator.

    ``primitives`` lists g_i for the factors (D - ln' g_1)...(D - ln' g_m)
    in product order.  The basis is built from the rightmost factor out;
    element j is annihilated by the last j factors.
    """
    if primitives is None:
        raise UnsupportedOperator("kernel computation needs factorization data")
    prims = [_as_coeff(g) for g in primitives]
    m = len(prims)
    if op is not None and op.order != m:
        raise UnsupportedOperator("factorization data does not match operator order")
    basis: list[RatFun] = []
    for k in range(m - 1, -1, -1):
        w = prims[k]
        try:
            for j in range(k + 1, m):
                w = first_order_solve(prims[j], w)
        except NonRationalAntiderivative as exc:
            raise NonRationalKernel(str(exc)) from exc
        basis.append(w)
    if op is not None:
        for f in basis:
            if not op.apply(f).is_zero():
                raise InternalInconsistency("kernel element not annihilated")
    return basis
