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

from .bethe import (
    BethePoint,
    Population,
    _primitive_pairs,
    discovery_edges,
    population_factorization,
)
from .errors import (
    AtypicalUnsupported,
    InternalInconsistency,
    InvalidFlag,
    InvalidInput,
    TheoremViolation,
    UnsupportedIrrationalRamification,
)
from .linalg import rank, solve_linear
from .rational import (
    Poly,
    RatFun,
    _cleared,
    _combine,
    _convolve,
    _poly,
    _primitive,
    _proportional,
    _pseudo_divmod,
    _scaled,
    _wronskian_ints,
    coprime_basis,
    multiplicity,
)
from .skew import CompleteFactorization, rational_kernel, transport_primitives
from .weights import ParitySequence, dominant


class RationalSpace:
    """Even/odd pair of rational-function bases, with optional problem data.

    The bases are kept as one cleared integer family, ``family``: the
    standard-parity :class:`SuperFlag` of the even then the odd basis, whose
    integer vectors the Wronskian table, :func:`kernel_spaces`' direct-sum
    check and the seed's flag all read.  Everything is computed on first
    use and cached, so the bases must not change afterwards.
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
    def family(self) -> SuperFlag:
        return SuperFlag(ParitySequence.standard(self.m, self.n), self.vbasis, self.ubasis)

    @cached_property
    def wronskians(self) -> tuple[list[list[list[int]]], list[list[list[int]]], list[list[int]]]:
        """d^k W(S) for each even and each odd k-subset S, grouped by k, and
        d^2 W(v, u) for each even/odd pair: integer dets of the family's
        vectors, d its ``den``, each computed once, empty when dependent."""
        even, odd = self.family.ints[: self.m], self.family.ints[self.m :]
        ev, od = ([[_wronskian_ints(s) for s in combinations(p, k)] for k in range(1, len(p) + 1)] for p in (even, odd))
        return ev, od, [_wronskian_ints([v, u]) for v in even for u in odd]

    @cached_property
    def places(self) -> list[Poly]:
        return detect_places(self)

    @cached_property
    def even_exponents(self) -> dict[Poly, list[int]]:
        return _exponent_table(self.wronskians[0], self.places, self.family.den)

    @cached_property
    def odd_exponents(self) -> dict[Poly, list[int]]:
        return _exponent_table(self.wronskians[1], self.places, self.family.den)

    @cached_property
    def pole_orders(self) -> dict[Poly, tuple[int, int]]:
        """(c_V, c_U) at each place: the even and the odd part's pole
        orders, max(0, -e_0) and max(0, -f_0) of the two ladders."""
        ev, od = self.even_exponents, self.odd_exponents
        return {pl: tuple(max(0, -t[pl][0]) if pl in t else 0 for t in (ev, od)) for pl in self.places}

    @cached_property
    def place_divisors(self) -> dict[tuple[int, int], tuple[Poly, Poly]]:
        """(zeros, poles) for each partial (a, b): the product of each place
        to its :func:`_generic_order`, as zeros / poles."""
        return {
            (a, b): _place_product({pl: _generic_order(self, pl, a, b) for pl in self.places})
            for a in range(self.m + 1)
            for b in range(self.n + 1)
        }

    @cached_property
    def weight_polys(self) -> tuple[Poly, ...]:
        """See :func:`space_weight_polys`."""
        m, n = self.m, self.n
        ev, od, cs = self.even_exponents, self.odd_exponents, self.pole_orders
        entries = [{pl: ev[pl][m - i] - (m - i) for pl in cs} for i in range(1, m)]
        if m:
            entries.append({pl: max(ev[pl][0], 0) for pl in cs})
        if n:
            entries.append({pl: cu - cv for pl, (cv, cu) in cs.items()})
            entries += [{pl: (i - 1) - od[pl][i - 1] for pl in cs} for i in range(2, n + 1)]
        if any(g < 0 for orders in entries for g in orders.values()):
            raise InternalInconsistency("a weight polynomial of the space has a pole")
        return tuple(_place_product(orders)[0] for orders in entries)


def _place_product(orders) -> tuple[Poly, Poly]:
    """(zeros, poles) of a dict from places to integer orders: the product
    of each place to its order where that is positive, and to minus it
    where it is negative."""
    zeros = poles = Poly.one()
    for pl, g in orders.items():
        if g > 0:
            zeros = zeros * pl**g
        elif g < 0:
            poles = poles * pl**-g
    return zeros, poles


def detect_places(space: RationalSpace) -> list[Poly]:
    """Coprime places where exponent data can be nontrivial.

    The integer dets d^k W of the space's Wronskian table, and d, seed the
    refinement, so each place carries one uniform exponent ladder.  They
    split the roots as the numerators and denominators of the W would: the
    order of d at a place, the largest pole order of a member there, is
    fixed by the singletons' dets d f_j.
    """
    even, odd, pairs = space.wronskians
    polys = [_poly(w, 1) for w in [w for ws in even + odd for w in ws] + pairs]
    polys.append(space.family.den)
    if space.problem is not None and space.problem.points is not None:
        for z in space.problem.points:
            polys.append(Poly((-z, 1)))
    return coprime_basis(polys)


def _exponent_table(by_size, places, d: Poly) -> dict[Poly, list[int]]:
    """Exponent ladder at each place of a basis whose k-subset Wronskians W
    are given, by k = 1..len(basis), as the integer dets d^k W of
    :attr:`RationalSpace.wronskians`.

    Uses the subset-Wronskian characterization: the minimum over k-subsets
    of a basis of (order of the subset Wronskian) equals e_1+...+e_k minus
    the staircase correction, which pins the exponents one by one.  The
    order of W is that of its det less k times that of d.
    """
    if not by_size or not places:
        return {}
    if any(not w for ws in by_size for w in ws):
        raise InvalidFlag("dependent basis in exponent computation")
    table = {}
    for pl in places:
        dk = multiplicity(d, pl)
        mins = [0] + [min(multiplicity(_poly(w, 1), pl) for w in ws) - k * dk for k, ws in enumerate(by_size, 1)]
        ladder = [mins[k] - mins[k - 1] + (k - 1) for k in range(1, len(mins))]
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise UnsupportedIrrationalRamification(
                f"inconsistent exponent ladder at place {pl.to_str()}"
            )
        table[pl] = ladder
    return table


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
    by g^k, so every exponent at a place shifts by the order of g there.
    So each condition is an integer test, at every place, on the space's
    own exponent ladders and pole orders (c_V, c_U); the pair Wronskians'
    orders, their dets' less twice d's, come from its Wronskian table.
    """
    m, n = space.m, space.n
    ev, od, cs = space.even_exponents, space.odd_exponents, space.pole_orders
    failures = []
    # the denominator ratio pu / pv: a polynomial, coprime to pv
    if any(cu < cv for cv, cu in cs.values()):
        failures.append("denominator ratio is not a polynomial")
    elif any(cu > cv > 0 for cv, cu in cs.values()):
        failures.append("denominator ratio shares a root with the even denominator")
    # second staircase entry of the even part cleared by pv, divided by pv
    if m >= 2 and any(ladder[1] < 1 for ladder in ev.values()):
        failures.append("second even staircase entry not divisible by the denominator")
    # The last odd staircase entry must be a polynomial.  The other odd
    # entries have no zero to match against the denominator ratio: a
    # strictly increasing ladder makes the i-th exponent cleared by pu at
    # least i - 1, so i - 1 minus it is never positive.
    if n and any(ladder[n - 1] > n - 1 for ladder in od.values()):
        failures.append("top odd exponent exceeds its staircase bound")
    # each pair Wronskian times pv is regular where pv vanishes
    pairs = [_poly(w, 1) for w in space.wronskians[2] if w]
    for pl, (cv, _) in cs.items():
        if cv > 0:
            for w in pairs:
                if multiplicity(w, pl) - 2 * multiplicity(space.family.den, pl) + cv < 0:
                    failures.append(f"pair Wronskian stays singular at {pl.to_str()}")
    return (not failures, failures)


class SuperFlag:
    """Ordered even and odd bases plus the parity interleaving them, kept as
    one cleared integer family: the members, even then odd, stored once as
    ``ints``, the integer vectors of d f_j over the one polynomial d = c q,
    ``den``, of :func:`~gaudin.rational._cleared`.  W(d f_1, ..., d f_r) =
    d^r W(f_1, ..., f_r), so :meth:`det` holds each partial Wronskian as the
    integer vector d^(a+b) W(a, b)."""

    def __init__(self, parity: ParitySequence, vorder, uorder):
        vorder, uorder = tuple(vorder), tuple(uorder)
        if parity.m != len(vorder) or parity.n != len(uorder):
            raise InvalidInput("flag sizes must match the parity sequence")
        ints, q, c = _cleared([f if isinstance(f, RatFun) else RatFun(f) for f in vorder + uorder])
        self.parity, self.ints, self.den = parity, ints, _poly([c * x for x in q], 1)
        self._dets: dict[tuple[int, int], list[int]] = {}

    @property
    def vorder(self) -> tuple[RatFun, ...]:
        return tuple(RatFun(_poly(v, 1), self.den) for v in self.ints[: self.parity.m])

    @property
    def uorder(self) -> tuple[RatFun, ...]:
        return tuple(RatFun(_poly(v, 1), self.den) for v in self.ints[self.parity.m :])

    def det(self, a: int, b: int) -> list[int]:
        """d^(a+b) W(a, b), W(a, b) the Wronskian of the first a even and the
        first b odd members: [1] when both are 0, empty when the members are
        dependent.  Computed once per flag."""
        key = (a, b)
        if key not in self._dets:
            cols = self.ints[:a] + self.ints[self.parity.m :][:b]
            self._dets[key] = _wronskian_ints(cols) if cols else [1]
        return self._dets[key]

    def _carried(self, parity: ParitySequence, moved=None) -> SuperFlag:
        """The flag at ``parity`` over the same d with the members in ``moved``
        (index: integer vector) replaced, sharing this flag's dets when none
        is, else keeping those of the partials that hold no moved member."""
        child = object.__new__(SuperFlag)
        child.parity, child.den, child.ints, child._dets = parity, self.den, self.ints, self._dets
        if moved:
            child.ints = [moved.get(j, v) for j, v in enumerate(self.ints)]
            low, m = min(moved), self.parity.m
            child._dets = {k: w for k, w in self._dets.items() if (k[0] <= low if low < m else k[1] <= low - m)}
        return child

    def __repr__(self):
        return f"SuperFlag(parity={list(self.parity.entries)})"


def _generic_order(space: RationalSpace, pl: Poly, a: int, b: int) -> int:
    """Order of place pl in the divisor of the (a, b) partial Wronskian.

    With c the even denominator's order at pl, the first even and the first
    odd exponent of the space's ladders there are lifted by c, to those the
    weight polynomials carry.  The order is the generic one of a + b
    functions with exponents among the a lowest lifted even and b lowest
    lifted odd ones, sum(dominant(...)) - C(a + b, 2), less c, so the (0, 0)
    entry, the standard-parity y_M, is the even denominator.  With c = 0 it
    is at most the order of W(a, b): the exponents of the members' span
    dominate the merged ladder subsets, and `dominant` is monotone.  With
    c > 0 it is the collision correction's of :mod:`gaudin.weights`, and
    the exact division checks it.
    """
    ev, od = space.even_exponents.get(pl, []), space.odd_exponents.get(pl, [])
    c = space.pole_orders[pl][0]
    lifted = [e + c * (j == 0) for ladder, k in ((ev, a), (od, b)) for j, e in enumerate(ladder[:k])]
    return sum(dominant(lifted)) - (a + b) * (a + b - 1) // 2 - c


def flag_polynomial(space: RationalSpace, flag: SuperFlag, a: int, b: int) -> Poly:
    """Monic polynomial from the (a, b) partial Wronskian W of a flag: W
    divided by each place to its :func:`_generic_order`, by one exact
    division of the integer det d^(a+b) W times the poles by d^(a+b) times
    the zeros.  Every pole of a flag member lies at a place."""
    det = flag.det(a, b)
    if not det:
        raise InvalidFlag("dependent flag members")
    zeros, poles = space.place_divisors[a, b]
    val, rem, _ = _pseudo_divmod(_convolve(det, poles.ints), _convolve((flag.den ** (a + b)).ints, zeros.ints))
    if rem:
        raise InternalInconsistency(f"flag polynomial is not polynomial at ({a},{b})")
    return _poly(val, 1).monic()


def generating_tuple(space: RationalSpace, flag: SuperFlag) -> tuple[Poly, ...]:
    """Monic tuple the generating map assigns to a superflag."""
    s = flag.parity
    return tuple(flag_polynomial(space, flag, *s.partials[i]) for i in range(1, len(s)))


def generating_map(space: RationalSpace, flag: SuperFlag) -> BethePoint:
    if space.problem is None:
        raise InvalidInput("generating map into tuples needs problem data")
    return BethePoint(space.problem, flag.parity, generating_tuple(space, flag))


def _flag_ratios(flag: SuperFlag):
    """(top, bottom) integer vectors of each primitive of a flag's
    factorization: primitive i is (W_(i-1) / W_i)^(s_i), W_i the Wronskian
    of the i-th partial flag, so the larger partial's W over the smaller's,
    and with dets d^k W for k members, det(larger) / (d det(smaller))."""
    s = flag.parity
    for i in range(1, len(s) + 1):
        outer, inner = flag.det(*s.partials[i - 1]), flag.det(*s.partials[i])
        if not outer or not inner:
            raise InvalidFlag("dependent flag members")
        larger, smaller = (outer, inner) if s[i] == 1 else (inner, outer)
        yield larger, _convolve(flag.den.ints, smaller)


def flag_factorization(space: RationalSpace, flag: SuperFlag) -> CompleteFactorization:
    """Complete factorization attached to a superflag via Wronskian ratios:
    primitive i is (W_(i-1) / W_i)^(s_i), W_i that of the i-th partial flag."""
    prims = [RatFun(_poly(top, 1), _poly(bottom, 1)) for top, bottom in _flag_ratios(flag)]
    return CompleteFactorization.from_primitives(flag.parity, prims)


def _flag_matches(flag: SuperFlag, pairs) -> bool:
    """Whether the flag's factorization has the coefficients of the
    factorization at the flag's parity whose primitive i is
    pairs[i][0] / pairs[i][1], a pair of nonzero polynomials.

    For nonzero f, g in Q(x), f'/f = g'/g holds exactly when (f/g)' = 0,
    that is when f/g is a nonzero constant.  So the coefficients agree
    slot by slot exactly when the primitives are proportional.  With the
    flag primitive top / bottom, a pair of integer vectors, and the pair
    (g, h), that is the proportionality of P = top h and Q = bottom g,
    tested on their integer vectors as P lc(Q) == Q lc(P) with no
    log-derivative and no gcd.  A factor common to g and h, or to top and
    bottom, multiplies P and Q alike, so neither pair need be reduced.
    """
    for (top, bottom), (g, h) in zip(_flag_ratios(flag), pairs):
        if not _proportional(_convolve(top, h.ints), _convolve(bottom, g.ints)):
            return False
    return True


def kernel_spaces(pop: Population) -> RationalSpace:
    """The space W = ker A + ker B of the population operator R = A * B^(-1).

    R is the same at every node, so W is read off the seed: its basis is
    the seed's kernel chains at the standard parity, integrated once here.
    Each chain is checked against the seed's own (A, B): the operator's
    order is the chain's length and it annihilates every element.
    """
    problem = pop.problem
    if not problem.typical():
        raise AtypicalUnsupported("kernel spaces need a typical weight sequence")
    seed = next(iter(pop.nodes.values()), None)
    if seed is None:
        raise InvalidInput("kernel spaces need a nonempty population")
    fac = population_factorization(seed)
    vbasis, ubasis = _kernel_chains(fac.parity, fac.primitives, problem.m, problem.n)
    for op, basis in zip(fac.standard_pair(), (vbasis, ubasis)):
        if op.order != len(basis) or not all(op.apply(f).is_zero() for f in basis):
            raise InternalInconsistency("kernel chain does not match the population operator")
    space = RationalSpace(vbasis, ubasis, problem=problem)
    _assert_direct_sum(space.family.ints)
    return space


def _kernel_chains(parity: ParitySequence, prims, m: int, n: int) -> tuple[list[RatFun], list[RatFun]]:
    """Even and odd kernel chains of the factorization with primitives
    ``prims`` at ``parity``, with m even and n odd factors: transported to
    the standard parity, the first m factors give the even chain and the
    last n, reversed, the odd chain."""
    prims = transport_primitives(parity, prims, ParitySequence.standard(m, n))
    return rational_kernel(prims[:m]), rational_kernel(prims[m:][::-1])


def _assert_direct_sum(vectors):
    """Raise :class:`AtypicalUnsupported` unless the integer vectors of a
    cleared family, the even then the odd basis over one denominator, are
    linearly independent: their rank."""
    width = max(map(len, vectors))
    if rank([v + [0] * (width - len(v)) for v in vectors]) != len(vectors):
        raise AtypicalUnsupported("even and odd kernels intersect")


def flag_from_factorization(space: RationalSpace, fac: CompleteFactorization) -> SuperFlag:
    """The flag whose Wronskian-ratio factorization is given: its kernel chains."""
    return SuperFlag(fac.parity, *_kernel_chains(fac.parity, fac.primitives, space.m, space.n))


def _pencil(space: RationalSpace, s: ParitySequence, i: int, y: Poly, flag: SuperFlag, w2) -> list[int]:
    """Coprime integers (alpha, beta) with alpha W + beta W2 proportional to
    y times each place to its :func:`_generic_order` for (a, b) =
    ``s.partials[i]``: W is the flag's W(a, b), and W2 that of other
    members, given as its det ``w2`` over the flag's d.  Times d^(a+b) and
    the poles, the three sides are integer vectors; no solution, or more
    than one, raises :class:`TheoremViolation`."""
    ab = s.partials[i]
    zeros, poles = space.place_divisors[ab]
    rhs = _convolve(_convolve((flag.den ** sum(ab)).ints, y.ints), zeros.ints)
    sides = [_convolve(flag.det(*ab), poles.ints), _convolve(w2, poles.ints), rhs]
    width = max(map(len, sides))
    u, v, t = (p + [0] * (width - len(p)) for p in sides)
    sol, null = solve_linear(list(zip(u, v)), t)
    if sol is None or null:
        raise TheoremViolation(f"no unique flag of the pencil has entry y_{i} = {y.to_str()}")
    return _primitive(_scaled(sol)[0])


def _carried_flag(space: RationalSpace, flag: SuperFlag, i: int, y: Poly) -> SuperFlag:
    """The flag of the node an edge in direction i reaches from ``flag``'s
    node, given the reached node's entry y_i (see
    :func:`verify_operator_to_population`)."""
    s = flag.parity
    if s[i] != s[i + 1]:
        return flag._carried(s.swapped(i))
    a, b = s.partials[i]
    j = a - 1 if s[i] == 1 else s.m + b - 1  # the moved member, the last of its parity in partial (a, b)
    lo, hi = flag.ints[j], flag.ints[j + 1]
    alpha, beta = _pencil(space, s, i, y, flag, flag._carried(s, {j: hi}).det(a, b))
    moved = {j: _combine([alpha * x for x in lo], hi, beta)}
    if alpha == 0:
        moved[j + 1] = lo
    return flag._carried(s, moved)


def _node_flags(space: RationalSpace, pop: Population):
    """Yield (key, flag) for each node, depth first: each child's flag is
    carried from its parent's only once the parent has been yielded (see
    :func:`verify_operator_to_population`)."""
    children: dict[tuple, list] = {}
    for edge in discovery_edges(pop):
        children.setdefault(edge.source, []).append(edge)
    seed_key, seed = next(iter(pop.nodes.items()))
    stack = [(seed_key, space.family._carried(seed.parity))]
    while stack:
        key, flag = stack.pop()
        yield key, flag
        for edge in children.get(key, ()):
            y = pop.nodes[edge.target].y(edge.direction)
            stack.append((edge.target, _carried_flag(space, flag, edge.direction, y)))


def verify_operator_to_population(pop: Population, space: RationalSpace | None = None) -> dict:
    """Check the space and the flag/factorization/tuple triangle on every node.

    The space must carry the problem's weight polynomials and pass
    :func:`is_gl_space`.  Then each node gets a flag in W, and two checks:
    the generating map returns the node, and :func:`flag_factorization`
    of the flag has the node factorization's coefficients factorwise (the
    parities agree by construction, so the fractions then agree too).  Two
    nonzero primitives have the same logarithmic derivative exactly when
    their ratio is constant, so :func:`_flag_matches` decides that
    equality by proportionality, against the node's primitives as the
    unreduced integer pairs of :func:`~gaudin.bethe._primitive_pairs`:
    no factorization is built on either side, and no gcd is taken.  Both
    checks read the flag's integer Wronskians (see :class:`SuperFlag`).

    The seed's flag is the space's family at the seed's parity, so
    ``space`` must be ``kernel_spaces(pop)`` (built here when not given),
    whose basis is the seed's kernel chains: nothing is integrated or
    transported here, and a space with another basis fails at the seed.
    The walk is one depth-first pass (:func:`_node_flags`): a node is
    checked, then each child's flag is carried from its flag along the
    child's :func:`discovery_edges` edge, and the node's flag is dropped.
    Carrying is sound since reproductions are moves in the superflag
    variety (Mukhin-Varchenko for gl(N); the paper's theorem for gl(M|N)):

    - a fermionic edge in direction i keeps both flags and swaps s_i and
      s_(i+1).  W(a, b) depends only on the members, so the two flags
      share their dets;
    - a bosonic edge in direction i, with (a, b) = ``s.partials[i]``,
      moves only partial flag i, inside the pencil between partial flags
      i - 1 and i + 1.  If s_i = +1 it moves the a-th even member m_a,
      with m_(a+1) next to it; if s_i = -1, the b-th odd member.  By
      multilinearity, the new member alpha m_a + beta m_(a+1) has
      W(a, b) = alpha W + beta W', W' the Wronskian with m_a replaced by
      m_(a+1), and that must be the reached node's y_i times each place to
      its :func:`_generic_order`.  :func:`_pencil` solves for the one
      (alpha, beta), up to a constant, on the integer dets; when alpha = 0
      the next member becomes m_a.  Of the parent's dets, which its checks
      have all computed, those whose members did not move are kept.

    No Wronskian of the new flag is seeded from the solve's right side: the
    generating map recomputes W(a, b) from the members, so the check reads
    the flag, not its own input.  Any failure raises
    :class:`TheoremViolation`; a node no edge reaches raises
    :class:`InternalInconsistency` before any node is checked.  The report
    lists the nodes in ``pop.nodes`` order.
    """
    if space is None:
        space = kernel_spaces(pop)
    expected = [t.monic() for t in pop.problem.ts_standard]
    if space_weight_polys(space) != expected:
        raise TheoremViolation("space weight polynomials do not match the problem data")
    ok, failures = is_gl_space(space)
    if not ok:
        raise TheoremViolation("space fails the membership conditions: " + "; ".join(failures))
    for key, flag in _node_flags(space, pop):
        point = pop.nodes[key]
        if generating_tuple(space, flag) != point.ys:
            raise TheoremViolation(f"generating map mismatch at {point!r}")
        if not _flag_matches(flag, _primitive_pairs(point)):
            raise TheoremViolation(f"factorization mismatch at {point!r}")
    nodes = [{"parity": list(point.parity.entries), "matched": True} for point in pop.nodes.values()]
    return {"space_polys_match": True, "nodes": nodes}
