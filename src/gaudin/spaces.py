"""Graded spaces of rational functions, superflags and the generating map.

The even part is the kernel of the numerator operator of the population
fraction, the odd part the kernel of its denominator.  Exponent data is
collected per *place* (a monic squarefree irreducible-over-the-data
polynomial), so conjugate irrational ramification points, such as roots of
unity, are handled exactly through their minimal polynomials.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .bethe import BethePoint, Population, population_factorization
from .errors import (
    AtypicalUnsupported,
    InternalInconsistency,
    InvalidFlag,
    InvalidInput,
    TheoremViolation,
    UnsupportedIrrationalRamification,
)
from .linalg import rank
from .rational import (
    Poly,
    Q,
    RatFun,
    coprime_basis,
    order_at_place,
    poly_gcd,
    poly_lcm,
    qq,
    wronskian,
)
from .skew import CompleteFactorization, rational_kernel, refactor_to_parity
from .weights import ParitySequence, collision_poly


def _as_place(place) -> Poly:
    if isinstance(place, Poly):
        return place.monic()
    return Poly((-qq(place), 1))


def exponents(basis, place) -> list[int]:
    """Strictly increasing vanishing orders a space realizes at a place."""
    place = _as_place(place)
    if not basis:
        raise InvalidInput("exponents of the empty space")
    return _exponent_table(_subset_wronskians(basis), [place])[place]


def _subset_wronskians(basis) -> list[list[RatFun]]:
    """Wronskians of the k-subsets of a basis, grouped by k = 1..len(basis)."""
    return [[wronskian(subset) for subset in combinations(basis, k)] for k in range(1, len(basis) + 1)]


class RationalSpace:
    """Even/odd pair of rational-function bases, with optional problem data.

    The Wronskian table, the places, the even and odd exponent tables,
    their denominators and the weight polynomials are computed on first use
    and cached, so the bases must not change afterwards.
    """

    def __init__(self, vbasis, ubasis, problem=None):
        self.vbasis = tuple(f if isinstance(f, RatFun) else RatFun(f) for f in vbasis)
        self.ubasis = tuple(f if isinstance(f, RatFun) else RatFun(f) for f in ubasis)
        self.problem = problem

    @property
    def m(self) -> int:
        return len(self.vbasis)

    @property
    def n(self) -> int:
        return len(self.ubasis)

    def __repr__(self):
        return f"RationalSpace({self.m}|{self.n})"

    @cached_property
    def wronskians(self) -> tuple[list[list[RatFun]], list[list[RatFun]], list[RatFun]]:
        """The even and the odd subset Wronskians, grouped by subset size,
        and the m*n even/odd pair Wronskians, each computed once."""
        pairs = [wronskian([v, u]) for v in self.vbasis for u in self.ubasis]
        return _subset_wronskians(self.vbasis), _subset_wronskians(self.ubasis), pairs

    @cached_property
    def places(self) -> list[Poly]:
        return detect_places(self)

    @cached_property
    def even_exponents(self) -> dict[Poly, list[int]]:
        return _exponent_table(self.wronskians[0], self.places)

    @cached_property
    def odd_exponents(self) -> dict[Poly, list[int]]:
        return _exponent_table(self.wronskians[1], self.places)

    @cached_property
    def even_denominator(self) -> Poly:
        return _denominator_from_exponents(self.even_exponents)

    @cached_property
    def odd_denominator(self) -> Poly:
        return _denominator_from_exponents(self.odd_exponents)

    @cached_property
    def weight_polys(self) -> tuple[Poly, ...]:
        """See :func:`space_weight_polys`."""
        m, n = self.m, self.n
        ev, od = self.even_exponents, self.odd_exponents
        pv, pu = self.even_denominator, self.odd_denominator

        out: list[Poly] = []
        for i in range(1, m):
            out.append(_staircase(ev, m - i, 1).as_poly())
        if m:
            out.append((_staircase(ev, 0, 1) * RatFun(pv)).as_poly())
        if n:
            ratio = RatFun(pu) / RatFun(pv)
            out.append(ratio.as_poly())
            for i in range(2, n + 1):
                out.append(_staircase(od, i - 1, -1).as_poly())
        return tuple(p.monic() if not p.is_zero() else p for p in out)


def detect_places(space: RationalSpace) -> list[Poly]:
    """Coprime places where exponent data can be nontrivial.

    Every subset Wronskian of each graded part (and every even/odd pair
    Wronskian) seeds the refinement, so each resulting place carries one
    uniform exponent ladder.
    """
    even, odd, pairs = space.wronskians
    polys = []
    for w in [w for ws in even + odd for w in ws] + pairs:
        polys += [w.num, w.den]
    if space.problem is not None and space.problem.points is not None:
        for z in space.problem.points:
            polys.append(Poly((-z, 1)))
    return coprime_basis([p for p in polys if p.degree > 0])


def _exponent_table(by_size, places) -> dict[Poly, list[int]]:
    """Exponent ladder at each place of a basis with the given subset
    Wronskians (see :func:`_subset_wronskians`).

    Uses the subset-Wronskian characterization: the minimum over k-subsets
    of a basis of (order of the subset Wronskian) equals e_1+...+e_k minus
    the staircase correction, which pins the exponents one by one without
    leaving exact rational arithmetic.
    """
    if not by_size or not places:
        return {}
    if any(w.is_zero() for ws in by_size for w in ws):
        raise InvalidFlag("dependent basis in exponent computation")
    table = {}
    for pl in places:
        mins = [0] + [min(order_at_place(w, pl) for w in ws) for ws in by_size]
        ladder = [mins[k] - mins[k - 1] + (k - 1) for k in range(1, len(mins))]
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise UnsupportedIrrationalRamification(
                f"inconsistent exponent ladder at place {pl.to_str()}"
            )
        table[pl] = ladder
    return table


def _staircase(table, j: int, sign: int) -> RatFun:
    """Product over the places of place^(sign * (e_j - j)), e_j the 0-based
    j-th exponent of each ladder in the table."""
    out = RatFun.one()
    for pl, ladder in table.items():
        out = out * RatFun(pl) ** (sign * (ladder[j] - j))
    return out


def _denominator_from_exponents(table) -> Poly:
    p = Poly.one()
    for pl, ladder in table.items():
        if ladder[0] < 0:
            p = p * pl ** (-ladder[0])
    return p


def space_weight_polys(space: RationalSpace) -> list[Poly]:
    """The weight polynomials a graded space of rational functions carries.

    Entries follow the even-block/odd-block assembly: even entries are
    exponent staircases of the even part with the last one denominated
    through, the first odd entry is the denominator ratio, and the
    remaining odd entries carry the odd staircase.
    """
    return list(space.weight_polys)


def is_gl_space(space: RationalSpace) -> tuple[bool, list[str]]:
    """The four equivalent membership conditions, with failure reports.

    Clearing a basis by a polynomial g multiplies each k-subset Wronskian
    by g^k, so every exponent at a place shifts by the order of g there;
    the cleared parts are read off the space's own exponent tables, and
    the pair Wronskians off its Wronskian table.
    """
    m, n = space.m, space.n
    places, od = space.places, space.odd_exponents
    pv, pu = space.even_denominator, space.odd_denominator
    failures = []
    ratio = RatFun(pu) / RatFun(pv)
    if not ratio.is_polynomial():
        failures.append("denominator ratio is not a polynomial")
    elif pv.degree > 0 and ratio.as_poly().degree > 0:
        if poly_gcd(ratio.as_poly(), pv).degree > 0:
            failures.append("denominator ratio shares a root with the even denominator")
    # second staircase entry of the even part cleared by pv, divided by pv
    if m >= 2 and not _staircase(space.even_exponents, 1, 1).is_polynomial():
        failures.append("second even staircase entry not divisible by the denominator")
    # The last odd staircase entry must be a polynomial.  The other odd
    # entries have no zero to match against the denominator ratio: a
    # strictly increasing ladder makes the i-th exponent cleared by pu at
    # least i - 1, so i - 1 minus it is never positive.
    if n and not _staircase(od, n - 1, -1).is_polynomial():
        failures.append("top odd exponent exceeds its staircase bound")
    if m and n and pv.degree > 0:
        pairs = [w * RatFun(pv) for w in space.wronskians[2] if not w.is_zero()]
        for pl in places:
            if order_at_place(RatFun(pv), pl) <= 0:
                continue
            for w in pairs:
                if order_at_place(w, pl) < 0:
                    failures.append(f"pair Wronskian stays singular at {pl.to_str()}")
    return (not failures, failures)


class SuperFlag:
    """Ordered even and odd bases plus the parity interleaving them."""

    def __init__(self, parity: ParitySequence, vorder, uorder):
        self.parity = parity
        self.vorder = tuple(f if isinstance(f, RatFun) else RatFun(f) for f in vorder)
        self.uorder = tuple(f if isinstance(f, RatFun) else RatFun(f) for f in uorder)
        if parity.m != len(self.vorder) or parity.n != len(self.uorder):
            raise InvalidInput("flag sizes must match the parity sequence")
        self._wronskians: dict[tuple[int, int], RatFun] = {}

    def wronskian(self, a: int, b: int) -> RatFun:
        """Wronskian of the first a even and first b odd members (1 when
        both are 0), computed once per flag."""
        key = (a, b)
        if key not in self._wronskians:
            members = self.vorder[:a] + self.uorder[:b]
            self._wronskians[key] = wronskian(members) if members else RatFun.one()
        return self._wronskians[key]

    def __repr__(self):
        return f"SuperFlag(parity={list(self.parity.entries)})"


def interleave_basis(parity: ParitySequence, vorder, uorder):
    """Homogeneous ordered basis: position i takes v_{s_i^+ +1} or u_{s_i^- +1}."""
    if len(vorder) != parity.m or len(uorder) != parity.n:
        raise InvalidInput("basis sizes must match the parity sequence")
    out = []
    for i in range(1, len(parity) + 1):
        if parity[i] == 1:
            out.append(vorder[parity.ones_after(i)])
        else:
            out.append(uorder[parity.minus_before(i)])
    return out


def flag_polynomial(space: RationalSpace, flag: SuperFlag, a: int, b: int) -> Poly:
    """Monic polynomial from the (a, b) partial Wronskian of a flag.

    The Wronskian of the first a even and first b odd flag members, cleared
    by the collision correction and the space's weight polynomials, is a
    polynomial whenever the space satisfies the membership conditions.
    """
    tw = space.weight_polys
    m, n = space.m, space.n
    w = flag.wronskian(a, b)
    if w.is_zero():
        raise InvalidFlag("dependent flag members")
    corr = collision_poly(tw, m, n, a, b)
    val = w * RatFun(corr) * RatFun(space.even_denominator)
    for j in range(1, b + 1):
        val = val * RatFun(tw[m + j - 1])
    for j in range(0, a):
        val = val / RatFun(tw[m - 1 - j])
    if not val.is_polynomial():
        raise InternalInconsistency(f"flag polynomial is not polynomial at ({a},{b})")
    return val.as_poly().monic()


def generating_tuple(space: RationalSpace, flag: SuperFlag) -> tuple[Poly, ...]:
    """Monic tuple the generating map assigns to a superflag."""
    s = flag.parity
    out = []
    for i in range(1, len(s)):
        a = s.ones_after(i)
        b = s.minus_before(i)
        if s[i] == -1:
            b += 1
        out.append(flag_polynomial(space, flag, a, b))
    return tuple(out)


def generating_map(space: RationalSpace, flag: SuperFlag) -> BethePoint:
    if space.problem is None:
        raise InvalidInput("generating map into tuples needs problem data")
    return BethePoint(space.problem, flag.parity, generating_tuple(space, flag))


def flag_factorization(space: RationalSpace, flag: SuperFlag) -> CompleteFactorization:
    """Complete factorization attached to a superflag via Wronskian ratios."""
    s = flag.parity
    prims = []
    for i in range(1, len(s) + 1):
        a = s.ones_after(i)
        b = s.minus_before(i)
        if s[i] == 1:
            num, den = flag.wronskian(a + 1, b), flag.wronskian(a, b)
        else:
            num, den = flag.wronskian(a, b + 1), flag.wronskian(a, b)
        if num.is_zero() or den.is_zero():
            raise InvalidFlag("dependent flag members")
        prims.append(num / den)
    return CompleteFactorization.from_primitives(s, prims)


def kernel_spaces(pop: Population) -> RationalSpace:
    """Even/odd kernels of the population fraction at a standard-parity node."""
    problem = pop.problem
    if not problem.typical():
        raise AtypicalUnsupported("kernel spaces need a typical weight sequence")
    std = None
    for p in pop.points():
        if p.parity.is_standard():
            std = p
            break
    if std is None:
        raise InvalidInput("population has no standard-parity node")
    fac = population_factorization(std)
    d0, d1 = fac.standard_pair()
    vbasis = rational_kernel(d0, fac.primitives[: problem.m])
    ubasis = rational_kernel(d1, fac.primitives[problem.m :][::-1])
    _assert_direct_sum(vbasis, ubasis)
    return RationalSpace(vbasis, ubasis, problem=problem)


def _assert_direct_sum(vbasis, ubasis):
    fams = list(vbasis) + list(ubasis)
    den = Poly.one()
    for f in fams:
        den = poly_lcm(den, f.den)
    cleared = [(f * RatFun(den)).as_poly() for f in fams]
    width = max(p.degree for p in cleared) + 1
    rows = [list(p.coeffs) + [Q(0)] * (width - len(p.coeffs)) for p in cleared]
    if rank(rows) != len(fams):
        raise AtypicalUnsupported("even and odd kernels intersect")


def flag_from_factorization(space: RationalSpace, fac: CompleteFactorization) -> SuperFlag:
    """Reconstruct the flag whose Wronskian-ratio factorization is given.

    Transport to the standard parity, read the even flag off the kernel
    chain of the numerator factors and the odd flag off the reversed
    denominator factors, then reattach the original parity.
    """
    if fac.primitives is None:
        raise InvalidInput("flag reconstruction needs factor primitives")
    m, n = space.m, space.n
    std = refactor_to_parity(fac, ParitySequence.standard(m, n))
    prims = list(std.primitives)
    vorder = rational_kernel(None, prims[:m]) if m else []
    uorder = rational_kernel(None, list(reversed(prims[m:]))) if n else []
    return SuperFlag(fac.parity, vorder, uorder)


def verify_operator_to_population(pop: Population, space: RationalSpace | None = None) -> dict:
    """Check the flag/factorization/tuple triangle on every node.

    For each node: rebuild the flag from its factorization, confirm the
    generating map returns the node, and confirm the flag factorization
    agrees with the node factorization factorwise (the parities agree by
    construction, so the fractions then agree too).  Any mismatch raises
    :class:`TheoremViolation`.  ``space`` is ``kernel_spaces(pop)``, built
    here when not given.
    """
    if space is None:
        space = kernel_spaces(pop)
    expected = [t.monic() for t in pop.problem.ts_standard]
    report = {
        "space_polys_match": space_weight_polys(space) == expected,
        "nodes": [],
    }
    if not report["space_polys_match"]:
        raise TheoremViolation("space weight polynomials do not match the problem data")
    for point in pop.points():
        fac = population_factorization(point)
        flag = flag_from_factorization(space, fac)
        gen = generating_tuple(space, flag)
        if gen != point.ys:
            raise TheoremViolation(f"generating map mismatch at {point!r}")
        ffac = flag_factorization(space, flag)
        if ffac.coefficients != fac.coefficients:
            raise TheoremViolation(f"factorization mismatch at {point!r}")
        report["nodes"].append({"parity": list(point.parity.entries), "matched": True})
    return report
