"""Bethe-ansatz tuples, reproduction procedures and populations.

A solution candidate is a tuple of monic polynomials, one per simple root,
together with a parity sequence and the problem data.  Reproductions move
between candidates: same-parity directions produce a one-parameter family
through a first-order Wronskian equation, mixed-parity directions produce
a single partner by exact division and flip the parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CriterionFailed,
    DegenerateReproduction,
    InternalInconsistency,
    InvalidConfiguration,
    InvalidInput,
    NotAdmissible,
    NotGeneric,
)
from .rational import (
    Poly,
    RatFun,
    _convolve,
    _poly,
    _proportional,
    _pseudo_divmod,
    _wronskian_ints,
    log_deriv,
    poly_gcd,
    qq,
    wronskian_partner,
)
from .skew import CompleteFactorization, OreFraction
from .weights import (
    ParitySequence,
    ProblemData,
    cartan_pairing,
    site_table,
)


class BethePoint:
    """Monic polynomial tuple (y_1 .. y_{M+N-1}) at a parity sequence."""

    __slots__ = ("problem", "parity", "ys")

    def __init__(self, problem: ProblemData, parity: ParitySequence, ys):
        if (parity.m, parity.n) != (problem.m, problem.n):
            raise InvalidInput("parity sequence must have the problem's M|N shape")
        ys = tuple(y if isinstance(y, Poly) else Poly(y) for y in ys)
        if len(ys) != problem.m + problem.n - 1:
            raise InvalidInput("tuple length must be M+N-1")
        if any(y.is_zero() for y in ys):
            raise InvalidInput("zero entry in a Bethe tuple")
        ys = tuple(y.monic() for y in ys)
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def _trusted(cls, problem: ProblemData, parity: ParitySequence, ys: tuple) -> "BethePoint":
        """A tuple whose entries are already monic nonzero ``Poly``s of the
        right count, built without the input checks (reproductions only)."""
        point = object.__new__(cls)
        object.__setattr__(point, "problem", problem)
        object.__setattr__(point, "parity", parity)
        object.__setattr__(point, "ys", ys)
        return point

    def y(self, i: int) -> Poly:
        """Entry y_i with the boundary convention y_0 = y_{M+N} = 1."""
        if i == 0 or i == self.problem.m + self.problem.n:
            return Poly.one()
        return self.ys[i - 1]

    def key(self):
        return (self.parity.entries, self.ys)

    def __eq__(self, other):
        return isinstance(other, BethePoint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"BethePoint({[y.to_str() for y in self.ys]}, parity={list(self.parity.entries)})"

    def ts(self) -> tuple[Poly, ...]:
        return self.problem.ts_at(self.parity)


def genericity_check(point: BethePoint) -> tuple[bool, list[str]]:
    """The three genericity conditions; returns (ok, failure descriptions)."""
    s = point.parity
    size = len(s) - 1
    ratios = point.problem.parity_data(s).ratios
    failures = []
    for i in range(1, size + 1):
        yi = point.y(i)
        if s[i] * s[i + 1] == 1 and yi.degree > 0:
            if poly_gcd(yi, yi.derivative()).degree > 0:
                failures.append(f"y_{i} has a repeated root")
        rp = ratios[i - 1]
        if yi.degree > 0 and rp.degree > 0 and poly_gcd(yi, rp).degree > 0:
            failures.append(f"y_{i} meets the weight-poly ratio at position {i}")
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if cartan_pairing(s, i, j) != 0:
                if point.y(i).degree > 0 and point.y(j).degree > 0:
                    if poly_gcd(point.y(i), point.y(j)).degree > 0:
                        failures.append(f"y_{i} and y_{j} share a root")
    return (not failures, failures)


def bosonic_rhs(point: BethePoint, i: int) -> Poly:
    rp = point.problem.parity_data(point.parity).ratios[i - 1]
    return rp * point.y(i - 1) * point.y(i + 1)


def fermionic_rhs(point: BethePoint, i: int) -> Poly:
    """Right side of the mixed-parity relation, a polynomial.

    It is pi_i y_{i-1} y_{i+1} times the logarithmic derivative of
    T_i T_{i+1} y_{i-1} / y_{i+1}, whose poles are all simple; this is
    :func:`_fermionic_ints` over its denominator.
    """
    return _poly(*_fermionic_ints(point, i))


def _fermionic_ints(point: BethePoint, i: int) -> tuple[list[int], int]:
    """:func:`fermionic_rhs` as a trimmed integer vector and a denominator.

    With a, b, f and p the ints of y_{i-1}, y_{i+1}, the position's
    fermionic polynomial pi_i (T_i T_{i+1})' / (T_i T_{i+1}) and its radical
    pi_i, and d_a, d_b, d_f, d_p their denominators, the right side
    (ab/(d_a d_b)) f/d_f + (p/d_p)(a'b - ab')/(d_a d_b) is
    (a b f d_p + d_f p (a'b - ab')) / (d_a d_b d_f d_p).
    A zero vector raises :class:`DegenerateReproduction`.
    """
    data = point.problem.parity_data(point.parity)
    left, right = point.y(i - 1), point.y(i + 1)
    fer, rad = data.fermionic[i - 1], data.radicals[i - 1]
    a, b = left.ints, right.ints
    # ab and the Wronskian a'b - ab' in one pass over the pairs of terms
    ab = [0] * (len(a) + len(b) - 1)
    w = [0] * len(ab)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            xy = x * y
            ab[j + k] += xy
            if j != k:
                w[j + k - 1] += (j - k) * xy
    while w and not w[-1]:
        w.pop()
    u, v = _convolve(ab, fer.ints), _convolve(rad.ints, w)
    out = [0] * max(len(u), len(v))
    for k, c in enumerate(u):
        out[k] = c * rad.den
    for k, c in enumerate(v):
        out[k] += c * fer.den
    while out and not out[-1]:
        out.pop()
    if not out:
        raise DegenerateReproduction(f"constant logarithmic-derivative argument in direction {i}")
    return out, left.den * right.den * fer.den * rad.den


@dataclass(frozen=True)
class ReproductionFamily:
    """One-parameter family produced by a same-parity reproduction.

    Members are particular - c * homogeneous; the value c = infinity
    degenerates to the original entry y_i.  ``rhs`` is the right side of
    W(homogeneous, particular) = rhs that the particular solution solves.
    """

    direction: int
    particular: Poly
    homogeneous: Poly
    rhs: Poly

    def member(self, c) -> Poly:
        return (self.particular - self.homogeneous * qq(c)).monic()


def bosonic_reproduce(point: BethePoint, i: int) -> ReproductionFamily:
    s = point.parity
    if s[i] != s[i + 1]:
        raise InvalidInput(f"direction {i} is not same-parity")
    return _family(point, i, bosonic_rhs(point, i))


def _family(point: BethePoint, i: int, rhs: Poly) -> ReproductionFamily:
    """:func:`bosonic_reproduce` given its right side ``rhs`` = :func:`bosonic_rhs`."""
    y = point.y(i)
    # y w' - y' w = rhs; the homogeneous solutions are the multiples of y
    particular = wronskian_partner(y, rhs)
    if particular is None:
        raise CriterionFailed(f"no polynomial Wronskian partner in direction {i}")
    return ReproductionFamily(direction=i, particular=particular, homogeneous=y, rhs=rhs)


def fermionic_reproduce(point: BethePoint, i: int) -> BethePoint:
    s = point.parity
    if s[i] == s[i + 1]:
        raise InvalidInput(f"direction {i} is not mixed-parity")
    # one pseudo-division of the cleared right side; the child is the monic quotient
    quo, rem, _ = _pseudo_divmod(_fermionic_ints(point, i)[0], point.y(i).ints)
    if rem:
        raise CriterionFailed(f"entry y_{i} does not divide the partner product")
    # the quotient is nonzero, as the right side is, and made monic here
    ys = point.ys[: i - 1] + (_poly(quo, quo[-1]),) + point.ys[i:]
    return BethePoint._trusted(point.problem, s.swapped(i), ys)


def bae_check_criterion(point: BethePoint) -> bool:
    """Solvability of the reproduction relation in every direction.

    This is the reformulated Bethe-ansatz check for generic tuples; a
    non-generic input raises :class:`NotGeneric`.
    """
    return _reproductions(point) is not None


def _reproductions(point: BethePoint) -> dict | None:
    """The reproductions :func:`bae_check_criterion` solves, by direction:
    a :class:`ReproductionFamily`, a fermionic child, or the
    :class:`DegenerateReproduction` a direction raised; None when a
    direction fails the criterion."""
    ok, failures = genericity_check(point)
    if not ok:
        raise NotGeneric("; ".join(failures))
    s = point.parity
    out = {}
    for i in range(1, len(s)):
        reproduce = bosonic_reproduce if s[i] == s[i + 1] else fermionic_reproduce
        try:
            out[i] = reproduce(point, i)
        except CriterionFailed:
            return None
        except DegenerateReproduction as exc:
            out[i] = exc  # zero right side: the zero polynomial solves the relation
    return out


def _solved(known: dict, i: int, solve, *args):
    """``known[i]``, raised if it is an exception, or else ``solve(*args)``."""
    if i not in known:
        return solve(*args)
    if isinstance(known[i], Exception):
        raise known[i]
    return known[i]


def bae_residue_holds(point: BethePoint) -> bool:
    """Whether a tuple's roots solve the Bethe equations, read off y_i | num(E_i).

    For each colour i with deg y_i >= 1, E_i is the reduced rational function
    -(s_i T_i'/T_i - s_{i+1} T_{i+1}'/T_{i+1}) + sum_{r != i} (alpha_r, alpha_i) y_r'/y_r
    + (alpha_i, alpha_i) y_i''/(2 y_i'), whose T term is -sum_k (L_k, alpha_i)/(x - z_k)
    when the problem has points.
    At a simple root t of y_i, sum_{t' != t} 1/(t - t') = y_i''(t)/(2 y_i'(t)),
    so E_i(t) is the left side of the Bethe equation of t.  When no root of
    y_i is a pole of E_i (the input checks of :func:`bae_check_direct`),
    y_i dividing the reduced numerator says that every root of y_i is a root
    of E_i, and for colours with (alpha_i, alpha_i) = 0 that each one is at
    most as repeated in y_i as in the numerator: the multiplicity rule.
    No root of any y_r is computed.
    """
    return all(_residue_divides(point, i) for i in range(1, len(point.parity)))


def _residue_divides(point: BethePoint, i: int) -> bool:
    """Whether y_i divides the numerator of the E_i of :func:`bae_residue_holds`."""
    s, y = point.parity, point.y(i)
    if y.degree < 1:
        return True
    ts = point.ts()
    e = s[i + 1] * log_deriv(ts[i]) - s[i] * log_deriv(ts[i - 1])
    for r in range(1, len(s)):
        pairing = cartan_pairing(s, r, i)
        if r != i and pairing:
            e += pairing * log_deriv(point.y(r))
    if y.degree > 1 and cartan_pairing(s, i, i):
        dy = y.derivative()
        e += cartan_pairing(s, i, i) * RatFun(dy.derivative(), dy * 2)
    return not e.num % y


def bae_check_direct(problem: ProblemData, parity: ParitySequence, tlists) -> bool:
    """Exact check of the Bethe equations for explicit rational roots.

    ``tlists`` groups the roots by colour.  After the input checks, each
    colour's verdict is that of :func:`bae_residue_holds` on the tuple of
    monic polynomials with these roots, so colours whose simple root pairs
    to zero with itself follow the multiplicity convention: repeats are
    allowed up to the root's multiplicity in the single-variable equation.
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
    point = BethePoint(problem, s, [Poly.from_roots(ts) for ts in tlists])
    # every colour's repeats are checked before any colour's verdict
    for colour, ts_c in enumerate(tlists, start=1):
        if cartan_pairing(s, colour, colour) != 0 and len(set(ts_c)) != len(ts_c):
            raise InvalidConfiguration("repeated root of a self-interacting colour")
    return bae_residue_holds(point)


def population_factorization(point: BethePoint) -> CompleteFactorization:
    """Signed first-order factorization attached to a tuple, with the
    primitives of :func:`node_primitives`; the fraction it folds to is the
    population operator."""
    return CompleteFactorization.from_primitives(point.parity, node_primitives(point))


def node_primitives(point: BethePoint) -> tuple[RatFun, ...]:
    """Primitive (T_i^s y_{i-1} / y_i)^(s_i) of each factor i."""
    return tuple(RatFun(top, bottom) for top, bottom in _primitive_pairs(point))


def _primitive_pairs(point: BethePoint) -> tuple[tuple[Poly, Poly], ...]:
    """Each primitive of :func:`node_primitives` as the unreduced pair
    (top, bottom) = (T_i^s y_{i-1}, y_i), swapped when s_i = -1."""
    ts, s = point.ts(), point.parity
    pairs = ((ts[i - 1] * point.y(i - 1), point.y(i)) for i in range(1, len(s) + 1))
    return tuple(pair if sign == 1 else pair[::-1] for pair, sign in zip(pairs, s.entries))


def population_operator(point: BethePoint) -> OreFraction:
    return population_factorization(point).to_fraction()


@dataclass(frozen=True)
class Edge:
    source: tuple
    target: tuple
    direction: int
    kind: str
    scalar: Fraction | None = None


def _line_key(point: BethePoint, i: int) -> tuple:
    others = point.ys[: i - 1] + point.ys[i:]
    return (point.parity.entries, i, others)


class Population:
    """Closure of a seed tuple under reproductions, with dedup and edges."""

    def __init__(self, problem: ProblemData):
        self.problem = problem
        self.nodes: dict[tuple, BethePoint] = {}
        self.edges: list[Edge] = []
        self.diagnostics: list[str] = []
        # (parity entries, direction i, coefficients of the entries other
        # than y_i) -> the nodes that share them
        self._lines: dict[tuple, list[BethePoint]] = {}
        self._operator: OreFraction | None = None

    def add(self, point: BethePoint) -> tuple:
        key = point.key()
        if key not in self.nodes:
            self.nodes[key] = point
            for i in range(1, len(point.ys) + 1):
                self._lines.setdefault(_line_key(point, i), []).append(point)
        return key

    def points(self) -> list[BethePoint]:
        return list(self.nodes.values())

    def by_parity(self) -> dict[tuple, list[BethePoint]]:
        out: dict[tuple, list[BethePoint]] = {}
        for p in self.nodes.values():
            out.setdefault(p.parity.entries, []).append(p)
        return out

    def operator(self) -> OreFraction:
        """The population operator of the first node, built once (that node never changes)."""
        if self._operator is None:
            self._operator = population_operator(next(iter(self.nodes.values())))
        return self._operator


def _on_wronskian_line(y: Poly, cand: Poly, rhs: Poly) -> bool:
    """Whether W(y, cand) = y cand' - y' cand is 0 or a multiple of the nonzero ``rhs``."""
    w = _wronskian_ints([y.ints, cand.ints])
    return not w or _proportional(w, rhs.ints)


def _family_sibling_exists(pop: Population, point: BethePoint, i: int, rhs: Poly) -> bool:
    """Whether another known node already lies on the projective line of the
    family of ``point`` in direction i, whose right side is ``rhs``.

    Re-sampling such a family from a second basepoint would scatter fresh
    points over the same line forever, so exploration stops once the line
    is witnessed by any other member.  The line is span(particular, y) with
    y = y_i and W(y, particular) = rhs, a nonzero polynomial, so a candidate
    lies on it exactly when W(y, cand) is 0 or a scalar multiple of rhs.
    The test needs no particular solution: a witness cand with
    W(y, cand) = c rhs has c != 0 (else cand = y, the same node), so
    cand / c is a polynomial partner and the family exists.
    """
    y = point.y(i)
    return any(
        _on_wronskian_line(y, other.ys[i - 1], rhs)
        for other in pop._lines.get(_line_key(point, i), [])
        if other is not point
    )


def populate(seed: BethePoint, samples, max_depth: int = 16) -> Population:
    """Breadth-first closure of a seed under all reproductions.

    Same-parity families are materialized at the supplied distinct samples
    (the degeneration member is the node itself); each projective family
    line is sampled only once.  A node that a same-parity edge in direction
    i reached lies on its source's line in direction i, which was sampled
    when the source was expanded, so that direction is skipped there; on
    other nodes the line is tested against the known nodes before the
    partner is solved for.  Reproductions are applied wherever the
    defining formulas stay exact; a direction where no reproduction exists
    is recorded in ``diagnostics`` instead of aborting the whole
    exploration.  Only the seed is checked for genericity, and its
    expansion reuses the families and children its Bethe criterion solved.
    """
    if max_depth < 0:
        raise InvalidInput(f"max_depth must be at least 0, got {max_depth}")
    samples = [qq(c) for c in samples]
    if not samples:
        raise InvalidInput("population runs need at least one sample scalar")
    if len(set(samples)) != len(samples):
        raise InvalidInput("sample scalars must be pairwise distinct")
    seed_reproductions = _reproductions(seed)
    if seed_reproductions is None:
        raise CriterionFailed("seed fails the Bethe criterion")
    pop = Population(seed.problem)
    seed_key = pop.add(seed)
    frontier = [(seed_key, 0)]
    # (node key, direction i) of each node that a same-parity edge in direction i reached
    on_family_line = set()
    qpos = 0
    while qpos < len(frontier):
        key, depth = frontier[qpos]
        qpos += 1
        if depth >= max_depth:
            continue
        point = pop.nodes[key]
        s = point.parity
        known = seed_reproductions if key == seed_key else {}

        def _record(child: BethePoint, direction: int, kind: str, scalar=None) -> tuple:
            size = len(pop.nodes)
            ckey = pop.add(child)
            if len(pop.nodes) > size:
                frontier.append((ckey, depth + 1))
            pop.edges.append(Edge(key, ckey, direction, kind, scalar))
            return ckey

        for i in range(1, len(s)):
            if s[i] == s[i + 1]:
                if (key, i) in on_family_line:
                    continue
                rhs = known[i].rhs if i in known else bosonic_rhs(point, i)
                if _family_sibling_exists(pop, point, i, rhs):
                    continue
                try:
                    family = _solved(known, i, _family, point, i, rhs)
                except CriterionFailed as exc:
                    pop.diagnostics.append(f"{key} dir {i}: {exc}")
                    continue
                head, tail = point.ys[: i - 1], point.ys[i:]
                for c in samples:
                    # members are monic, and nonzero as particular is not a multiple of y_i
                    child = BethePoint._trusted(point.problem, s, head + (family.member(c),) + tail)
                    on_family_line.add((_record(child, i, "bosonic", c), i))
            else:
                try:
                    child = _solved(known, i, fermionic_reproduce, point, i)
                except (CriterionFailed, DegenerateReproduction) as exc:
                    pop.diagnostics.append(f"{key} dir {i}: {exc}")
                    continue
                _record(child, i, "fermionic")
    return pop


def _edge_keeps_operator(source: BethePoint, target: BethePoint, i: int, known=None) -> bool:
    """Whether a reproduction edge in direction i keeps R, checked as the
    reproduction relation of direction i, which is equivalent to it.

    Factor j of R is (D - a_j)^(s_j), a_j = s_j ln'(T_j y_{j-1} / y_j),
    multiplied left to right.  An edge from :func:`populate` changes y_i
    alone, keeps the problem and each T_j off the pair i, i+1, and keeps
    the parity s or, at a mixed pair, swaps it to s.swapped(i), where the
    pair's weight polynomials become (pi T_{i+1}, T_i / pi) with pi the
    radical of T_i T_{i+1}; any other edge raises
    :class:`InternalInconsistency`.  Then R is kept exactly when the
    product of factors i and i+1 is (pseudodifferential operators form a
    division ring), and (D - u)(D - v) = D^2 - (u + v) D + (uv - v').
    Write g = ln' y_i, g~ = ln' y~_i for the old and new entry,
    A = ln'(T_i y_{i-1}) and B = ln'(T_{i+1} / y_{i+1}).

    (+,+) and (-,-): the pair is (D - a)(D - b) with a = A - g, b = g + B,
    or the inverse of (D - b)(D - a) with a = g - A, b = -g - B.  The
    first coefficient, A + B or -(A + B), is kept, and with h = g - g~ the
    second changes by h (A - B - g - g~) - h'.  As W(y_i, y~_i) =
    -y_i y~_i h, that is 0 when W = 0 (then y~_i = y_i, both monic) and
    otherwise exactly when ln' W = A - B: when W is a nonzero constant
    times :func:`bosonic_rhs` = (T_i / T_{i+1}) y_{i-1} y_{i+1}.

    (+,-) and (-,+): with A~ and B~ the target's A and B, both ends have
    S = A + B = A~ + B~ = ln'(T_i T_{i+1} y_{i-1} / y_{i+1}).  For (+,-),
    (D - a)(D - b)^(-1) with a = A - g, b = -g - B equals
    (D - c)^(-1)(D - d) with c = g~ - A~, d = g~ + B~ exactly when
    (D - c)(D - a) = (D - d)(D - b).  For (-,+), (D - a)^(-1)(D - b) with
    a = g - A, b = g + B equals (D - c)(D - d)^(-1) with c = A~ - g~,
    d = -g~ - B~ exactly when (D - b)(D - d) = (D - a)(D - c).  In both,
    the first coefficients differ by S - S = 0 and the second ones by
    +-(S (g + g~ + B - A~) - S'), affine in g~.  If S = 0
    (:func:`fermionic_rhs` raises :class:`DegenerateReproduction`), every
    y~_i keeps R.  Otherwise, as A~ - B = ln'(pi y_{i-1} y_{i+1}), R is
    kept exactly when ln'(y_i y~_i) = ln'(pi y_{i-1} y_{i+1} S): when
    y_i y~_i is a nonzero constant times :func:`fermionic_rhs`.

    The weight polynomials of both ends depend only on the problem, s and
    i once the target's problem and parity are checked, so ``known``, a set
    shared across calls, holds the (problem, parity entries, i) whose
    weight polynomials already passed, and each is checked once.
    """
    s, size = source.parity, len(source.parity)
    if not 1 <= i < size:
        raise InternalInconsistency(f"edge direction {i} is out of range")
    mixed = s[i] != s[i + 1]
    if (
        target.problem is not source.problem
        or target.parity != (s.swapped(i) if mixed else s)
        or any(source.y(j) != target.y(j) for j in range(1, size) if j != i)
    ):
        raise InternalInconsistency(f"an edge in direction {i} is not a reproduction")
    known = set() if known is None else known
    shape = (source.problem, s.entries, i)
    if shape not in known:
        ts, tt = source.ts(), target.ts()
        pi = source.problem.parity_data(s).radicals[i - 1]
        if any(ts[j] != tt[j] for j in range(size) if j not in (i - 1, i)) or (
            mixed and (tt[i - 1], tt[i] * pi) != (ts[i] * pi, ts[i - 1])
        ):
            raise InternalInconsistency(f"an edge in direction {i} is not a reproduction")
        known.add(shape)
    y, new = source.y(i), target.y(i)
    if not mixed:
        return _on_wronskian_line(y, new, bosonic_rhs(source, i))
    try:
        rhs = _fermionic_ints(source, i)[0]
    except DegenerateReproduction:
        return True
    return _proportional(_convolve(y.ints, new.ints), rhs)


def discovery_edges(pop: Population):
    """Yield each edge that first reaches a node from a node already
    reached, taking the edges in order from the seed (the first node).

    Those edges form a spanning tree rooted at the seed.  ``populate``
    records edges in breadth-first order, so one pass reaches every node;
    a node it does not reach raises :class:`InternalInconsistency` once
    the edges are exhausted.
    """
    if not pop.nodes:
        raise InvalidInput("empty population")
    reached = {next(iter(pop.nodes))}
    for edge in pop.edges:
        if edge.source in reached and edge.target not in reached:
            reached.add(edge.target)
            yield edge
    if len(reached) != len(pop.nodes):
        raise InternalInconsistency("a node is not reached from the seed along the edges")


def verify_r_invariance(pop: Population) -> bool:
    """Whether every node of the population has the seed's operator R.

    A reproduction in direction i keeps R exactly when the new y_i solves
    direction i's reproduction relation (the paper's lemma, read as an
    equivalence; :func:`_edge_keeps_operator` proves it for each sign
    shape), so an edge costs one Wronskian or one product, and no R.

    Each node other than the seed is checked on its
    :func:`discovery_edges` edge, so equality along the spanning tree is
    equality with the seed's R at every node.  A node no edge reaches, or
    an edge that is not a reproduction, raises
    :class:`InternalInconsistency`.  The weight polynomials' swap rule is
    checked once per (parity, direction), not once per edge.
    """
    known = set()
    for edge in discovery_edges(pop):
        if not _edge_keeps_operator(pop.nodes[edge.source], pop.nodes[edge.target], edge.direction, known):
            return False
    return True


def table_eigenvalues(sites, ys) -> dict[int, Fraction]:
    """Quadratic-Hamiltonian eigenvalue at each admissible site k (1-based).

    ``sites`` is a :func:`~gaudin.weights.site_table` and ``ys`` the tuple
    (y_1 .. y_{M+N-1}) at the same parity.  A site is admissible unless
    some y_i whose simple root pairs nonzero with the site's weight
    vanishes there.  Root sums enter through logarithmic derivatives of the
    y-entries, so no root extraction is needed.  Each site's value is
    :func:`_site_fractions`' integer fraction, reduced once.
    """
    return {k: Fraction(num, den) for k, (num, den) in _site_fractions(sites, ys).items()}


def _site_fractions(sites, ys) -> dict[int, tuple[int, int]]:
    """:func:`table_eigenvalues` as unreduced integer fractions (num, den),
    den nonzero of either sign, summed in one integer pass per site."""
    out = {}
    for k, (z, total, pairings) in enumerate(sites, start=1):
        a, b = z.numerator, z.denominator
        num, den = total.numerator, total.denominator
        for i, pairing in pairings:
            # homogeneous Horner pass over the stored integers: h0 is
            # b^d den y(a/b) and h1 is b^(d-1) den y'(a/b), so y'/y = b h1/h0
            h0 = h1 = 0
            bj = 1
            for c in reversed(ys[i - 1].ints):
                h1 = h1 * a + h0
                h0 = h0 * a + c * bj
                bj *= b
            if h0 == 0:
                break
            # num/den - (pn/pd) (b h1/h0)
            pn, pd = pairing.numerator, pairing.denominator
            num = num * pd * h0 - pn * b * h1 * den
            den *= pd * h0
        else:
            out[k] = (num, den)
    return out


def site_eigenvalues(point: BethePoint) -> dict[int, Fraction]:
    """:func:`table_eigenvalues` of a tuple at its problem's sites."""
    return table_eigenvalues(_sites(point), point.ys)


def _sites(point: BethePoint):
    """The site table of a tuple's problem at its parity."""
    if point.problem.points is None:
        raise InvalidInput("eigenvalues need rational evaluation points")
    return point.problem.parity_data(point.parity).sites


def gaudin_eigenvalue(point: BethePoint, k: int) -> Fraction:
    """Quadratic-Hamiltonian eigenvalue at site k from the tuple."""
    value = site_eigenvalues(point).get(k)
    if value is None:
        raise NotAdmissible(k)
    return value


def eigenvalue_conservation(pop: Population) -> bool:
    """Eigenvalue equality across every edge, at mutually admissible sites.

    Each node's values stay the unreduced integer fractions of
    :func:`_site_fractions`, compared by cross-multiplication.
    """
    values = {key: _site_fractions(_sites(point), point.ys) for key, point in pop.nodes.items()}
    return _conserved(pop, values)


def _conserved(pop: Population, values: dict) -> bool:
    """:func:`eigenvalue_conservation` on each node's unreduced site
    fractions (num, den) of :func:`_site_fractions`, given by node key."""
    for edge in pop.edges:
        source, target = values[edge.source], values[edge.target]
        if any(source[k][0] * target[k][1] != target[k][0] * source[k][1] for k in source.keys() & target.keys()):
            return False
    return True
