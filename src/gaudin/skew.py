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

Between parities a factorization moves by its primitives g_i (ln' g_i =
a_i) alone: an exchange multiplies both primitives by d = a - b =
ln'(g_a / g_b) forward and divides both by d backward, and coefficients
are derived from primitives only where an operator is built.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    DegenerateInput,
    DegenerateSwap,
    InternalInconsistency,
    InvalidInput,
    NonRationalKernel,
    NonRationalAntiderivative,
)
from .rational import (
    RatFun,
    _as_ratfun,
    _cleared,
    _combine,
    _convolve,
    _exact_quotient,
    _poly,
    _primitive,
    _primitive_gcd,
    log_deriv,
    rational_antiderivative,
)
from .weights import ParitySequence


class DiffOp:
    """Differential operator with rational-function coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_ratfun(c) for c in coeffs]
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
        return DiffOp((-_as_ratfun(a), RatFun.one()))

    @staticmethod
    def from_coeff(f) -> "DiffOp":
        return DiffOp((_as_ratfun(f),))

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
        f = _as_ratfun(f)
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
        f = _as_ratfun(f)
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
    """Monic greatest common right divisor, fraction-free.

    A left unit does not change a right gcd, so each operand's coefficients
    are cleared on the left to integer vectors over one denominator, by
    the shared :func:`~gaudin.rational._cleared`, and the Euclid runs on
    integer vectors: the primitive pseudo-remainder sequence of
    :func:`~gaudin.rational.poly_gcd`, carried over to operators.  Each
    step of :func:`_right_prem` takes beta P - alpha D^k Q, alpha and beta
    the leading coefficients, and divides out the polynomial content.  A
    nonzero remainder of order 0 is a unit, so the gcd is 1 there;
    otherwise the last nonzero remainder, made monic, is the gcd.
    """
    if a.is_zero() and b.is_zero():
        raise DegenerateInput("gcd of two zero operators")
    if a.order < b.order:
        a, b = b, a
    if b.is_zero():
        return a.monic()
    u, v = _content_free(_cleared(a.coeffs)[0]), _content_free(_cleared(b.coeffs)[0])
    while len(v) > 1:
        r = _right_prem(u, v)
        if not r:
            lc = _poly(v[-1], 1)
            return DiffOp([RatFun(_poly(c, 1), lc) for c in v])
        u, v = v, r
    return DiffOp.one()


def _content_free(op: list[list[int]]) -> list[list[int]]:
    """A nonzero integer operator divided by the polynomial gcd of its
    coefficients and by the gcd of their integers."""
    g = None
    for c in op:
        if c:
            g = _primitive(c) if g is None else _primitive_gcd(g, c)
            if len(g) == 1:
                break
    if len(g) > 1:
        op = [_exact_quotient(c, g) for c in op]
    n = 0
    for c in op:
        for x in c:
            n = gcd(n, x)
            if n == 1:
                return op
    return [[x // n for x in c] for c in op]


def _derivation_times(op: list[list[int]]) -> list[list[int]]:
    """D times an integer operator: D (sum_j b_j D^j) = sum_j (b_j' + b_(j-1)) D^j."""
    derivs = [[k * c[k] for k in range(1, len(c))] for c in op]
    return [derivs[0], *(_combine(d, b, 1) for d, b in zip(derivs[1:], op)), op[-1]]


def _right_prem(u: list[list[int]], v: list[list[int]]) -> list[list[int]]:
    """A content-free right pseudo-remainder of u by v, of order below v's.

    Each step replaces u, of order n >= ord v = m, by beta u - alpha D^k v
    with k = n - m, alpha = lc(u) and beta = lc(v): the left multiple
    beta u changes no right gcd, and D^k v has leading coefficient beta,
    so the order drops.  The D^k v are stepped as in :meth:`DiffOp.__mul__`.
    """
    m = len(v) - 1
    beta = v[-1]
    shifted = [v]
    while len(u) > m:
        k = len(u) - 1 - m
        while len(shifted) <= k:
            shifted.append(_derivation_times(shifted[-1]))
        alpha = u[-1]
        u = [_combine(_convolve(beta, x), _convolve(alpha, y), -1) for x, y in zip(u, shifted[k])]
        while u and not u[-1]:
            u.pop()
        if u:
            u = _content_free(u)
    return u


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
        # normalize the denominator monic by a right unit, unless it already is
        one = RatFun.one()
        if den.lc != one:
            unit = DiffOp.from_coeff(one / den.lc)
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
    a, b = _as_ratfun(a), _as_ratfun(b)
    diff = a - b
    if diff.is_zero():
        raise DegenerateSwap("exchange undefined for equal coefficients")
    # both new coefficients are shifted by ln'(a - b)
    shift = log_deriv(diff)
    if backward:
        # here (a, b) play the role of (c, d)
        return b - shift, a - shift
    return b + shift, a + shift


class CompleteFactorization:
    """Ordered first-order factors (D - a_i)^(s_i) with a parity sequence.

    ``primitives`` carries rational functions g_i with ln' g_i = a_i when
    the factorization is built by :meth:`from_primitives`, and is None
    otherwise; they are what :func:`transport_primitives` moves between
    parities, and they make exact kernel computations possible.
    """

    __slots__ = ("parity", "coefficients", "primitives")

    def __init__(self, parity: ParitySequence, coefficients):
        coefficients = tuple(_as_ratfun(c) for c in coefficients)
        if len(coefficients) != len(parity):
            raise DegenerateInput("factor count must match parity length")
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "primitives", None)

    @staticmethod
    def from_primitives(parity: ParitySequence, primitives) -> "CompleteFactorization":
        primitives = tuple(_as_ratfun(g) for g in primitives)
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


def transport_primitives(parity: ParitySequence, primitives, target: ParitySequence) -> tuple[RatFun, ...]:
    """Primitives of a factorization at ``parity``, moved to ``target``.

    Each adjacent transposition of a bubble path is the exchange of
    :func:`ore_swap` on the coefficients a = ln' g_a and b = ln' g_b: it
    swaps them and shifts both by ln' d, with d = a - b = ln'(g_a / g_b).
    Since ln'(g d) = ln' g + ln' d, both primitives are multiplied by d
    forward and divided by it backward.  d = 0 exactly when a == b, where
    the exchange is undefined.  One logarithmic derivative is taken per
    swap, and none on an empty path.
    """
    if primitives is None:
        raise InvalidInput("transport needs factor primitives")
    prims = list(primitives)
    for i in parity.path_to(target):
        ga, gb = prims[i - 1], prims[i]
        d = log_deriv(ga / gb)
        if d.is_zero():
            raise DegenerateSwap("exchange undefined for equal coefficients")
        prims[i - 1], prims[i] = (gb / d, ga / d) if parity[i] == -1 else (gb * d, ga * d)
        parity = parity.swapped(i)
    return tuple(prims)


def refactor_to_parity(fac: CompleteFactorization, target: ParitySequence) -> CompleteFactorization:
    """Transport a complete factorization to another parity sequence.

    The primitives move by :func:`transport_primitives` and the new
    coefficients are their logarithmic derivatives.  Since
    ln'(g d^(+-1)) = ln' g +- ln' d with d = a - b = ln'(g_a / g_b), those
    are the coefficients the exchange of :func:`ore_swap` gives along the
    same bubble path, so the represented fraction is unchanged.  At its
    own parity, ``fac`` itself is returned.
    """
    prims = transport_primitives(fac.parity, fac.primitives, target)
    if fac.parity == target:
        return fac
    return CompleteFactorization.from_primitives(target, prims)


def rational_kernel(primitives) -> list[RatFun]:
    """Rational kernel basis of the operator (D - ln' g_1)...(D - ln' g_m).

    ``primitives`` lists g_1, ..., g_m in product order.  The basis is
    built from the rightmost factor out; element j is annihilated by the
    last j factors.  Each step solves (D - ln' g) f = w by
    f = g * antiderivative(w / g), where :func:`rational_antiderivative`
    solves a Wronskian equation with the same back-substitution as bosonic
    reproduction.
    """
    prims = [_as_ratfun(g) for g in primitives]
    m = len(prims)
    basis: list[RatFun] = []
    for k in range(m - 1, -1, -1):
        w = prims[k]
        try:
            for j in range(k + 1, m):
                w = prims[j] * rational_antiderivative(w / prims[j])
        except NonRationalAntiderivative as exc:
            raise NonRationalKernel(str(exc)) from exc
        basis.append(w)
    return basis
