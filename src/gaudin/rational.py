"""Exact scalars, dense univariate polynomials and reduced rational functions.

Scalars are :class:`fractions.Fraction` throughout; nothing in the engine
ever rounds.  A polynomial is stored as integers over one denominator: a
tuple of integer coefficients in ascending degree with trailing zeros
trimmed, and a positive denominator sharing no factor with all of them, so
equal polynomials store equal data and the zero polynomial is the empty
tuple over 1.  Arithmetic, gcds and evaluation work on these integers;
``Poly.coeffs`` builds ``Fraction`` coefficients only for callers that want
scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DegenerateInput,
    InternalInconsistency,
    NonRationalAntiderivative,
    TooLarge,
    UnsupportedFactorization,
)
from .linalg import solve_linear

Q = Fraction

# rational_roots raises TooLarge beyond this many bits in an integer-scaled
# end coefficient: trial division takes about 2^(n/2) steps on n bits, which
# is 0.2 s of CPU at 40 bits and minutes at 60 (Python 3.11, one Xeon core).
ROOT_SEARCH_BITS = 40


def qq(value) -> Fraction:
    """Coerce ints, strings like ``p/q`` and Fractions to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    The coefficient of x^k is ``ints[k] / den``.  ``ints`` is a tuple of ints
    with no trailing zero, ``den`` is positive and gcd(den, *ints) == 1.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs=()):
        cs = [qq(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # reduced fractions over their least common denominator: no prime of
        # it divides every numerator, so the pair is already canonical
        ints, den = _scaled(cs)
        self.ints = tuple(ints)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _poly((), 1)

    @staticmethod
    def one() -> "Poly":
        return _poly((1,), 1)

    @staticmethod
    def const(c) -> "Poly":
        c = qq(c)
        return _poly((c.numerator,) if c else (), c.denominator)

    @staticmethod
    def x() -> "Poly":
        return _poly((0, 1), 1)

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = Poly.one()
        for r in roots:
            p = p * Poly((-qq(r), 1))
        return p

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as scalars, ascending degree; built on each read."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.ints])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            return Q(0)
        return Fraction(self.ints[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Q(0)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.den == other.den and self.ints == other.ints
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"Poly({self.to_str()})"

    def to_str(self, var: str = "x") -> str:
        if not self.ints:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                term = f"{sign}{mag}{var}" + (f"^{k}" if k > 1 else "")
                if c < 0 and parts:
                    term = term[1:]
            if parts:
                parts.append(" - " if c < 0 and k > 0 else " + " if k > 0 else (" - " if c < 0 else " + "))
                parts.append(term if k > 0 else str(abs(c)))
            else:
                parts.append(term)
        return "".join(parts)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        a, b, den = self.ints, other.ints, self.den
        if den != other.den:
            g = gcd(den, other.den)
            ma, mb = other.den // g, den // g
            a, b, den = [c * ma for c in a], [c * mb for c in b], den * ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.ints], self.den)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero()
            m = other.numerator
            return _poly([c * m for c in self.ints], self.den * other.denominator)
        other = _as_poly(other)
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise DegenerateInput("division by the zero polynomial")
        # self = a/da and other = b/db, so self = (db*q/(s*da)) * other + r/(s*da);
        # s is a power of lc(b), negative when lc(b) is, and _poly makes the
        # denominators positive
        q, r, s = _pseudo_divmod(self.ints, other.ints)
        sd = s * self.den
        return _poly([c * other.den for c in q], sd), _poly(r, sd)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def try_exact_div(self, other):
        """Quotient when ``other`` divides exactly, else None."""
        q, r = divmod(self, other)
        if not r.is_zero():
            return None
        return q

    def exact_div(self, other) -> "Poly":
        q = self.try_exact_div(other)
        if q is None:
            raise InternalInconsistency(
                f"expected exact division: ({self.to_str()}) / ({_as_poly(other).to_str()})"
            )
        return q

    # -- calculus and normal forms --------------------------------------

    def derivative(self) -> "Poly":
        a = self.ints
        return _poly([k * a[k] for k in range(1, len(a))], self.den)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise DegenerateInput("the zero polynomial has no monic form")
        if self.ints[-1] == self.den:
            return self
        return _poly(self.ints, self.ints[-1])

    def __call__(self, z) -> Fraction:
        if not self.ints:
            return Q(0)
        z = qq(z)
        q = z.denominator
        return Fraction(_homogeneous(self.ints, z.numerator, q), self.den * q ** self.degree)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"not a polynomial: {value!r}")


def _scaled(coeffs) -> tuple[list[int], int]:
    """Integers over one common denominator: coeffs[i] == ints[i] / den."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _poly(ints, den: int) -> Poly:
    """The polynomial sum ints[i] x^i / den, brought to canonical form.

    ``ints`` is trimmed and ``den`` is a nonzero int of either sign.
    """
    if den != 1 and ints:
        g = den
        for c in ints:
            g = gcd(g, c)
            if g == 1:
                break
        if den < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    elif not ints:
        den = 1
    p = object.__new__(Poly)
    # tuple() of a list, not of a generator: a generator's tuple is allocated
    # at a guessed size and resized, which drains one of CPython's per-size
    # tuple free lists into another and raises the peak memory of long runs.
    p.ints = tuple(ints)
    p.den = den
    return p


def _homogeneous(ints, p: int, q: int) -> int:
    """sum_i ints[i] * p^i * q^(n-i) with n = len(ints) - 1: q^n times the value at p/q."""
    acc = 0
    qk = 1
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """Integer q, r and s, a power of lc(b), with s*a == q*b + r and deg r < deg b.

    a and b are trimmed integer sequences and b is nonzero; q and r come back
    trimmed.  A step scales by lc(b) only when the leading term it removes is
    not a multiple of lc(b).
    """
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * max(len(r) - n, 0)
    s = 1
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        if not c:
            continue
        f, m = divmod(c, lb)
        if m:
            r = [lb * x for x in r]
            q = [lb * x for x in q]
            s *= lb
            f = c
        q[k - n] = f
        for j, y in enumerate(b, start=k - n):
            r[j] -= f * y
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _primitive(ints):
    """The integer vector divided by the gcd of its entries (nonzero input)."""
    g = 0
    for c in ints:
        g = gcd(g, c)
        if g == 1:
            return ints
    return [c // g for c in ints]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the primitive pseudo-remainder sequence.

    Each step takes the pseudo-remainder of two primitive integer vectors
    and divides out its content (Collins 1967; Knuth, TAOCP vol. 2, 4.6.1),
    so no rational arithmetic happens at all: the monic gcd is the last
    primitive remainder over its own leading coefficient.
    """
    a, b = _as_poly(a), _as_poly(b)
    if a.is_zero() and b.is_zero():
        raise DegenerateInput("gcd of two zero polynomials")
    if b.is_zero():
        return a.monic()
    if a.is_zero():
        return b.monic()
    if a.degree == 0 or b.degree == 0:
        return Poly.one()
    u = _primitive(a.ints)
    v = _primitive(b.ints)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_divmod(u, v)[1]
        if not r:
            return _poly(v, v[-1])
        u, v = v, _primitive(r)
    return Poly.one()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def radical(f: Poly) -> Poly:
    """Monic squarefree polynomial with the same root set as ``f``."""
    f = _as_poly(f)
    if f.is_zero():
        raise DegenerateInput("radical of the zero polynomial")
    if f.degree == 0:
        return Poly.one()
    return f.exact_div(poly_gcd(f, f.derivative())).monic()


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities, f = lc * prod g_i^i."""
    f = _as_poly(f)
    if f.is_zero():
        raise DegenerateInput("squarefree decomposition of zero")
    f = f.monic()
    out = []
    i = 1
    while f.degree > 0:
        g = poly_gcd(f, f.derivative())
        part = f.exact_div(g)
        f = g
        # part = product of squarefree factors of multiplicity >= i
        nxt = poly_gcd(part, f) if f.degree > 0 else Poly.one()
        factor = part.exact_div(nxt)
        if factor.degree > 0:
            out.append((factor.monic(), i))
        i += 1
    return out


def multiplicity(f: Poly, q: Poly) -> int:
    """Exact multiplicity of the factor q in f (f nonzero, deg q >= 1)."""
    if f.is_zero():
        raise DegenerateInput("multiplicity in the zero polynomial")
    if q.degree < 1:
        raise DegenerateInput("multiplicity of a constant factor")
    count = 0
    while True:
        g = f.try_exact_div(q)
        if g is None:
            return count
        f = g
        count += 1


def coprime_basis(polys) -> list[Poly]:
    """Pairwise-coprime squarefree monic polynomials refining the inputs.

    Every nonconstant input is a product of powers of basis elements (up to
    a constant), and roots of a basis element share the same multiplicity
    in every input.  Seeding the refinement with the squarefree parts, one
    per multiplicity class, is what guarantees the second property; the
    plain radical would merge roots of unequal multiplicity.
    """
    work = []
    for p in polys:
        p = _as_poly(p)
        if p.is_zero() or p.degree < 1:
            continue
        for part, _mult in squarefree_decomposition(p):
            work.append(part)
    basis: list[Poly] = []
    while work:
        p = work.pop()
        if p.degree < 1:
            continue
        for i, b in enumerate(basis):
            g = poly_gcd(p, b)
            if g.degree > 0:
                if g.degree < b.degree:
                    basis[i] = g
                    work.append(b.exact_div(g).monic())
                rest = p.exact_div(g)
                if rest.degree > 0:
                    work.append(rest.monic())
                break
        else:
            basis.append(p)
            continue
    return sorted(set(basis), key=lambda b: (b.degree, b.coeffs))


def rational_roots(f: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots with multiplicities plus the root-free remainder."""
    f = _as_poly(f)
    if f.is_zero():
        raise DegenerateInput("roots of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    # pull out x^k first; dropping zeros keeps the pair canonical
    ints = f.ints
    k = 0
    while not ints[k]:
        k += 1
    if k:
        ints = ints[k:]
        f = _poly(ints, f.den)
        roots.append((Q(0), k))
    if f.degree == 0:
        return roots, f
    a0, an = abs(ints[0]), abs(ints[-1])
    bits = max(a0.bit_length(), an.bit_length())
    if bits > ROOT_SEARCH_BITS:
        raise TooLarge(f"rational root search: {bits}-bit end coefficient, budget {ROOT_SEARCH_BITS} bits")
    found = []
    qs = _divisors(an)
    for p in _divisors(a0):
        for q in qs:
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                m = 0
                while f.degree > 0 and not _homogeneous(ints, num, q):
                    f = f.exact_div(Poly((Q(-num, q), 1)))
                    ints = f.ints
                    m += 1
                if m:
                    found.append((Q(num, q), m))
    # the remainder is unique, so only the order of the roots depends on the loop
    return roots + sorted(found), f


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def factor_rational_quadratic(f: Poly) -> list[tuple[Poly, int]]:
    """Factor into monic irreducibles, allowing quadratic irrational factors.

    Anything leaving an irreducible remainder of degree >= 3 raises
    :class:`UnsupportedFactorization`.
    """
    f = _as_poly(f)
    if f.is_zero():
        raise DegenerateInput("factorization of the zero polynomial")
    factors: list[tuple[Poly, int]] = []
    roots, rem = rational_roots(f.monic())
    for r, m in roots:
        factors.append((Poly((-r, 1)), m))
    if rem.degree > 0:
        for part, mult in squarefree_decomposition(rem):
            if part.degree > 2:
                raise UnsupportedFactorization(
                    f"irreducible factor of degree {part.degree}: {part.to_str()}"
                )
            factors.append((part.monic(), mult))
    return sorted(factors, key=lambda t: (t[0].degree, t[0].coeffs))


class RatFun:
    """Reduced fraction of polynomials with a monic denominator.

    The constructor reduces arbitrary input by one gcd of numerator and
    denominator.  The arithmetic instead relies on its operands being reduced
    already and takes gcds of the small pieces only, so that its results come
    out reduced with no gcd of the full cross product (Henrici, JACM 3, 1956;
    Knuth, TAOCP vol. 2, 4.5.1).  The reduced form with a monic denominator is
    unique, so both routes store the same data.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly.one()):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise DegenerateInput("zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", Poly.zero())
            object.__setattr__(self, "den", Poly.one())
            return
        num, den = _cancel(num, den, poly_gcd(num, den))
        if den.ints[-1] != den.den:
            num, den = num * Fraction(den.den, den.ints[-1]), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c))

    @staticmethod
    def zero() -> "RatFun":
        return RatFun(Poly.zero())

    @staticmethod
    def one() -> "RatFun":
        return RatFun(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise InternalInconsistency(f"not a polynomial: {self!r}")
        return self.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _as_ratfun_or_none(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFun({self.num.to_str()})"
        return f"RatFun(({self.num.to_str()})/({self.den.to_str()}))"

    def __add__(self, other):
        # a/b + c/d with g = gcd(b, d): t = a(d/g) + c(b/g) shares with the
        # denominator (b/g) d only factors of g, so h = gcd(t, g) finishes it
        other = _as_ratfun(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if g.degree < 1:
            return _reduced(a * d + c * b, b * d)
        bg = b.exact_div(g)
        t = a * d.exact_div(g) + c * bg
        t, d = _cancel(t, d, poly_gcd(t, g))
        return _reduced(t, bg * d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other) - self

    def __mul__(self, other):
        other = _as_ratfun(other)
        return _cross(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.is_zero():
            raise DegenerateInput("division by the zero rational function")
        return _cross(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def __pow__(self, n: int):
        if n >= 0:
            return _reduced(self.num**n, self.den**n)
        if self.is_zero():
            raise DegenerateInput("negative power of zero")
        return _reduced(self.den ** (-n), self.num ** (-n))

    def derivative(self) -> "RatFun":
        # with g = gcd(b, b'), (a' (b/g) - a (b'/g)) / (b (b/g)) is reduced:
        # b/g is the radical of b, and no factor of b divides the numerator
        a, b = self.num, self.den
        db = b.derivative()
        r, db = _cancel(b, db, poly_gcd(b, db))
        return _reduced(a.derivative() * r - a * db, b * r)

    def __call__(self, z) -> Fraction:
        z = qq(z)
        d = self.den(z)
        if d == 0:
            raise DegenerateInput(f"pole at {z}")
        return self.num(z) / d


_ZERO = Poly.zero()
_ONE = Poly.one()


def _reduced(num: Poly, den: Poly) -> RatFun:
    """num/den for coprime num and nonzero den: only the denominator is made monic."""
    f = object.__new__(RatFun)
    if not num.ints:
        num, den = _ZERO, _ONE
    elif den.ints[-1] != den.den:
        num, den = num * Fraction(den.den, den.ints[-1]), den.monic()
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _cross(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFun:
    """(a/b)(c/d) for coprime a, b and coprime c, d, with d nonzero.

    Only a with d and c with b can share factors, so dividing out
    g1 = gcd(a, d) and g2 = gcd(c, b) leaves a reduced fraction.
    """
    if not a.ints or not c.ints:
        return _reduced(_ZERO, _ONE)
    a, d = _cancel(a, d, poly_gcd(a, d))
    c, b = _cancel(c, b, poly_gcd(c, b))
    return _reduced(a * c, b * d)


def _cancel(p: Poly, q: Poly, g: Poly) -> tuple[Poly, Poly]:
    """p/g and q/g for a monic common divisor g."""
    if g.degree < 1:
        return p, q
    return p.exact_div(g), q.exact_div(g)


def _as_ratfun(value) -> RatFun:
    f = _as_ratfun_or_none(value)
    if f is None:
        raise TypeError(f"not a rational function: {value!r}")
    return f


def _as_ratfun_or_none(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, Poly):
        return RatFun(value)
    if isinstance(value, (int, Fraction)):
        return RatFun(Poly.const(value))
    return None


def log_deriv(f) -> RatFun:
    """Logarithmic derivative f'/f in reduced form."""
    f = _as_ratfun(f)
    if f.is_zero():
        raise DegenerateInput("logarithmic derivative of zero")
    return f.derivative() / f


def wronskian(fs) -> RatFun:
    """Determinant of the derivative matrix (f_j^(i-1))_{i,j}."""
    fs = [_as_ratfun(f) for f in fs]
    if not fs:
        raise DegenerateInput("Wronskian of an empty family")
    r = len(fs)
    rows = [list(fs)]
    for _ in range(r - 1):
        rows.append([f.derivative() for f in rows[-1]])
    # Gaussian elimination over the rational-function field
    det = RatFun.one()
    mat = [row[:] for row in rows]
    for col in range(r):
        piv = None
        for i in range(col, r):
            if not mat[i][col].is_zero():
                piv = i
                break
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


def zero_pole_radical(f) -> Poly:
    """Monic polynomial with simple roots exactly at the zeros and poles of f.

    This is the minimal monic denominator of the logarithmic derivative.
    """
    f = _as_ratfun(f)
    if f.is_zero():
        raise DegenerateInput("zero/pole support of zero")
    prod = f.num * f.den
    if prod.degree == 0:
        return Poly.one()
    return radical(prod)


def order_at_place(f, place: Poly) -> int:
    """Order of f along an irreducible place (a monic squarefree factor)."""
    f = _as_ratfun(f)
    if f.is_zero():
        raise DegenerateInput("order of the zero function")
    return multiplicity(f.num, place) - multiplicity(f.den, place)


def first_order_poly_solutions(p: Poly, q: Poly, rhs: Poly, bound: int):
    """Polynomial solutions w of  p w' - q w = rhs  with deg w <= bound.

    Returns (particular or None, homogeneous basis).  The particular
    solution sets the free coefficients of the linear system to zero.
    """
    # row k: coefficient of x^k in p (x^j)' - q x^j, for each unknown x^j,
    # with the equation scaled to integers by lcm(p.den, q.den, rhs.den)
    nrows = max(p.degree + max(bound - 1, 0), q.degree + bound, rhs.degree) + 1
    den = lcm(p.den, q.den, rhs.den)
    pc, qc, rc = ({i: c * (den // f.den) for i, c in enumerate(f.ints)} for f in (p, q, rhs))
    rows = [
        [(j * pc.get(k - j + 1, 0) if j >= 1 else 0) - qc.get(k - j, 0) for j in range(bound + 1)]
        for k in range(nrows)
    ]
    sol, null = solve_linear(rows, [rc.get(k, 0) for k in range(nrows)])
    return (None if sol is None else Poly(sol)), [Poly(v) for v in null]


def _poly_antiderivative(p: Poly) -> Poly:
    # sum c_k x^(k+1) / ((k+1) den) over the common denominator m * den
    n = len(p.ints)
    if not n:
        return p
    m = lcm(*range(1, n + 1))
    return _poly([0] + [c * (m // (k + 1)) for k, c in enumerate(p.ints)], p.den * m)


def rational_antiderivative(f) -> RatFun:
    """Rational g with g' = f, integration constant fixed to 0.

    Found by undetermined coefficients: the denominator ansatz lowers each
    squarefree multiplicity of den(f) by one; a surviving simple-pole part
    means the antiderivative has a logarithm and
    :class:`NonRationalAntiderivative` is raised.
    """
    f = _as_ratfun(f)
    if f.is_zero():
        return RatFun.zero()
    whole, rem = divmod(f.num, f.den)
    result = RatFun(_poly_antiderivative(whole))
    if rem.is_zero():
        out = result
    else:
        den = f.den
        b = Poly.one()
        for part, mult in squarefree_decomposition(den):
            b = b * part ** (mult - 1)
        if b.degree == 0:
            raise NonRationalAntiderivative(f"simple poles only: {f!r}")
        # a/b with (a' b - a b') * den == rem * b^2 and deg a < deg b
        sol, _null = first_order_poly_solutions(b * den, b.derivative() * den, rem * b * b, b.degree - 1)
        if sol is None:
            raise NonRationalAntiderivative(f"logarithmic part present: {f!r}")
        out = result + RatFun(sol, b)
    if out.derivative() != f:
        raise InternalInconsistency("antiderivative verification failed")
    return out
