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
from .rational import Poly, Q, RatFun, first_order_poly_solutions, log_deriv, multiplicity, poly_gcd, qq
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
    T_i T_{i+1} y_{i-1} / y_{i+1}, whose poles are all simple.
    """
    data = point.problem.parity_data(point.parity)
    left, right = point.y(i - 1), point.y(i + 1)
    rhs = left * right * data.fermionic[i - 1] + data.radicals[i - 1] * (
        left.derivative() * right - left * right.derivative()
    )
    if rhs.is_zero():
        raise DegenerateReproduction(f"constant logarithmic-derivative argument in direction {i}")
    return rhs


@dataclass(frozen=True)
class ReproductionFamily:
    """One-parameter family produced by a same-parity reproduction.

    Members are particular - c * homogeneous; the value c = infinity
    degenerates to the original entry y_i.
    """

    direction: int
    particular: Poly
    homogeneous: Poly

    def member(self, c) -> Poly:
        return (self.particular - self.homogeneous * qq(c)).monic()


def bosonic_reproduce(point: BethePoint, i: int) -> ReproductionFamily:
    s = point.parity
    if s[i] != s[i + 1]:
        raise InvalidInput(f"direction {i} is not same-parity")
    y, rhs = point.y(i), bosonic_rhs(point, i)
    # y w' - y' w = rhs; the homogeneous solutions are the multiples of y
    bound = max(rhs.degree - y.degree + 1, y.degree, 0)
    particular, homogeneous = first_order_poly_solutions(y, y.derivative(), rhs, bound)
    if particular is None:
        raise CriterionFailed(f"no polynomial Wronskian partner in direction {i}")
    if len(homogeneous) != 1 or homogeneous[0].monic() != y.monic():
        raise InvalidInput("unexpected homogeneous solution space")
    return ReproductionFamily(direction=i, particular=particular, homogeneous=y)


def fermionic_reproduce(point: BethePoint, i: int) -> BethePoint:
    s = point.parity
    if s[i] == s[i + 1]:
        raise InvalidInput(f"direction {i} is not mixed-parity")
    quo = fermionic_rhs(point, i).try_exact_div(point.y(i))
    if quo is None or quo.is_zero():
        raise CriterionFailed(f"entry y_{i} does not divide the partner product")
    ys = list(point.ys)
    ys[i - 1] = quo.monic()
    return BethePoint(point.problem, s.swapped(i), ys)


def bae_check_criterion(point: BethePoint) -> bool:
    """Solvability of the reproduction relation in every direction.

    This is the reformulated Bethe-ansatz check for generic tuples; a
    non-generic input raises :class:`NotGeneric`.
    """
    ok, failures = genericity_check(point)
    if not ok:
        raise NotGeneric("; ".join(failures))
    s = point.parity
    for i in range(1, len(s)):
        reproduce = bosonic_reproduce if s[i] == s[i + 1] else fermionic_reproduce
        try:
            reproduce(point, i)
        except CriterionFailed:
            return False
        except DegenerateReproduction:
            continue  # zero right side: the zero polynomial solves the relation
    return True


def bae_check_direct(problem: ProblemData, parity: ParitySequence, tlists) -> bool:
    """Exact residue check of the Bethe equations for explicit rational roots.

    ``tlists`` groups the roots by colour.  Colours whose simple root pairs
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
    for colour in range(1, size + 1):
        ts_c = tlists[colour - 1]
        if not ts_c:
            continue
        if cartan_pairing(s, colour, colour) != 0:
            if len(set(ts_c)) != len(ts_c):
                raise InvalidConfiguration("repeated root of a self-interacting colour")
            for j, tj in enumerate(ts_c):
                total = Q(0)
                for k, z in enumerate(zs):
                    if colour in pairs[k]:
                        total -= pairs[k][colour] / (tj - z)
                for cr in range(1, size + 1):
                    pairing = cartan_pairing(s, cr, colour)
                    if pairing == 0:
                        continue
                    for r, tr in enumerate(tlists[cr - 1]):
                        if cr == colour and r == j:
                            continue
                        total += pairing / (tj - tr)
                if total != 0:
                    return False
        else:
            # single-variable equation shared by the whole colour:
            # sum of -c_k/(t-z_k) plus the cross-colour interaction terms
            terms: list[tuple[Fraction, Fraction]] = []
            for k, z in enumerate(zs):
                if colour in pairs[k]:
                    terms.append((-pairs[k][colour], z))
            for cr in range(1, size + 1):
                if cr == colour:
                    continue
                pairing = cartan_pairing(s, cr, colour)
                if pairing == 0:
                    continue
                for tr in tlists[cr - 1]:
                    terms.append((Q(pairing), tr))
            num = Poly.zero()
            den = Poly.one()
            for c, pole in terms:
                num = num * Poly((-pole, 1)) + c * den
                den = den * Poly((-pole, 1))
            if num.is_zero():
                continue  # identically satisfied
            for t in set(ts_c):
                if ts_c.count(t) > multiplicity(num, Poly((-t, 1))):
                    return False
    return True


def population_factorization(point: BethePoint) -> CompleteFactorization:
    """Signed first-order factorization attached to a tuple.

    Factor i has primitive (T_i^s y_{i-1} / y_i)^(s_i); the fraction it
    folds to is the population operator.
    """
    s = point.parity
    return CompleteFactorization.from_primitives(s, [_primitive(point, i) for i in range(1, len(s) + 1)])


def _primitive(point: BethePoint, i: int) -> RatFun:
    """Primitive (T_i^s y_{i-1} / y_i)^(s_i) of factor i."""
    g = RatFun(point.ts()[i - 1] * point.y(i - 1), point.y(i))
    return g if point.parity[i] == 1 else RatFun.one() / g


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


def _family_sibling_exists(pop: Population, point: BethePoint, i: int, family: ReproductionFamily) -> bool:
    """Whether another known node already lies on this family's projective line.

    Re-sampling such a family from a second basepoint would scatter fresh
    points over the same line forever, so exploration stops once the line
    is witnessed by any other member.  The line is span(particular, y) and
    W(y, particular) = rhs, a nonzero polynomial, so a candidate lies on it
    exactly when W(y, cand) is a scalar multiple of rhs.
    """
    cands = [other.ys[i - 1] for other in pop._lines.get(_line_key(point, i), []) if other is not point]
    if not cands:
        return False
    y, particular = family.homogeneous, family.particular
    dy = y.derivative()
    line = (y * particular.derivative() - dy * particular).monic()
    for cand in cands:
        w = y * cand.derivative() - dy * cand
        if not w or w.monic() == line:
            return True
    return False


def populate(seed: BethePoint, samples, max_depth: int = 16) -> Population:
    """Breadth-first closure of a seed under all reproductions.

    Same-parity families are materialized at the supplied distinct samples
    (the degeneration member is the node itself); each projective family
    line is sampled only once.  Reproductions are applied wherever the
    defining formulas stay exact; a direction where no reproduction exists
    is recorded in ``diagnostics`` instead of aborting the whole
    exploration.  Only the seed is checked for genericity.
    """
    if max_depth < 0:
        raise InvalidInput(f"max_depth must be at least 0, got {max_depth}")
    samples = [qq(c) for c in samples]
    if not samples:
        raise InvalidInput("population runs need at least one sample scalar")
    if len(set(samples)) != len(samples):
        raise InvalidInput("sample scalars must be pairwise distinct")
    if not bae_check_criterion(seed):
        raise CriterionFailed("seed fails the Bethe criterion")
    pop = Population(seed.problem)
    seed_key = pop.add(seed)
    frontier = [(seed_key, 0)]
    qpos = 0
    while qpos < len(frontier):
        key, depth = frontier[qpos]
        qpos += 1
        if depth >= max_depth:
            continue
        point = pop.nodes[key]
        s = point.parity

        def _record(child: BethePoint, direction: int, kind: str, scalar=None):
            ckey = child.key()
            if ckey not in pop.nodes:
                frontier.append((ckey, depth + 1))
            pop.add(child)
            pop.edges.append(Edge(key, ckey, direction, kind, scalar))

        for i in range(1, len(s)):
            if s[i] == s[i + 1]:
                try:
                    family = bosonic_reproduce(point, i)
                except CriterionFailed as exc:
                    pop.diagnostics.append(f"{key} dir {i}: {exc}")
                    continue
                if _family_sibling_exists(pop, point, i, family):
                    continue
                for c in samples:
                    ys = list(point.ys)
                    ys[i - 1] = family.member(c)
                    _record(BethePoint(point.problem, s, ys), i, "bosonic", c)
            else:
                try:
                    child = fermionic_reproduce(point, i)
                except (CriterionFailed, DegenerateReproduction) as exc:
                    pop.diagnostics.append(f"{key} dir {i}: {exc}")
                    continue
                _record(child, i, "fermionic")
    return pop


def _second_order(u: RatFun, v: RatFun) -> tuple[RatFun, RatFun]:
    """Lower coefficients of (D - u)(D - v) = D^2 - (u + v) D + (u v - v')."""
    return u + v, u * v - v.derivative()


def _edge_keeps_operator(source: BethePoint, target: BethePoint, i: int) -> bool:
    """Whether two tuples joined by a reproduction in direction i have one R.

    When every factor other than i and i+1 is the same at both ends, R
    agrees exactly when the pair of factors i, i+1 does (cancellation in
    the division ring of pseudodifferential operators), and that is one
    identity of second-order operators.  Any other edge compares the two
    full operators.
    """
    s, size = source.parity, len(source.parity)
    if 1 <= i < size and target.parity == s.swapped(i):
        ts, tt = source.ts(), target.ts()
        if all(source.y(j) == target.y(j) for j in range(1, size) if j != i) and all(
            ts[j - 1] == tt[j - 1] for j in range(1, size + 1) if j not in (i, i + 1)
        ):
            a, b, c, d = (log_deriv(_primitive(p, j)) for p in (source, target) for j in (i, i + 1))
            # The edge holds when (D-a)^(s_i) (D-b)^(s_(i+1)) equals
            # (D-c)^(s_(i+1)) (D-d)^(s_i).  Moving the inverted factors across
            # makes that (D-u)(D-v) = (D-w)(D-z): for (+,-), say,
            # (D-a)(D-b)^(-1) = (D-c)^(-1)(D-d) becomes (D-c)(D-a) = (D-d)(D-b).
            (u, v), (w, z) = {
                (1, 1): ((a, b), (c, d)),
                (-1, -1): ((b, a), (d, c)),
                (1, -1): ((c, a), (d, b)),
                (-1, 1): ((b, d), (a, c)),
            }[s[i], s[i + 1]]
            return _second_order(u, v) == _second_order(w, z)
    return population_operator(source).same_operator(population_operator(target))


def verify_r_invariance(pop: Population) -> bool:
    """Whether every node of the population has the seed's operator R.

    A reproduction in direction i changes y_i only, so of the factors
    (D - a_j)^(s_j), a_j = s_j ln'(T_j y_{j-1} / y_j), it changes factors i
    and i+1 alone.  Pseudodifferential operators form a division ring, so R is
    unchanged across the edge exactly when the product of that pair is,
    which :func:`_edge_keeps_operator` checks as one second-order identity.

    Each node other than the seed is checked on the edge that first
    reaches it from a node already reached, taking the edges in order.
    Those discovery edges form a spanning tree rooted at the seed (the
    first node), so equality along them is equality with the seed's R at
    every node: the same verdict as comparing each node's R with the
    seed's, with no R built unless an edge also changes something outside
    its pair of factors.  ``populate`` records edges in
    breadth-first order, so one pass reaches every node; a node it does
    not reach raises :class:`InternalInconsistency`.
    """
    if not pop.nodes:
        raise InvalidInput("empty population")
    reached = {next(iter(pop.nodes))}
    for edge in pop.edges:
        if edge.source not in reached or edge.target in reached:
            continue
        if not _edge_keeps_operator(pop.nodes[edge.source], pop.nodes[edge.target], edge.direction):
            return False
        reached.add(edge.target)
    if len(reached) != len(pop.nodes):
        raise InternalInconsistency("a node is not reached from the seed along the edges")
    return True


def table_eigenvalues(sites, ys) -> dict[int, Fraction]:
    """Quadratic-Hamiltonian eigenvalue at each admissible site k (1-based).

    ``sites`` is a :func:`~gaudin.weights.site_table` and ``ys`` the tuple
    (y_1 .. y_{M+N-1}) at the same parity.  A site is admissible unless
    some y_i whose simple root pairs nonzero with the site's weight
    vanishes there.  Root sums enter through logarithmic derivatives of the
    y-entries, so no root extraction is needed.
    """
    out = {}
    for k, (z, total, pairings) in enumerate(sites, start=1):
        a, b = z.numerator, z.denominator
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
            total -= pairing * Fraction(b * h1, h0)
        else:
            out[k] = total
    return out


def site_eigenvalues(point: BethePoint) -> dict[int, Fraction]:
    """:func:`table_eigenvalues` of a tuple at its problem's sites."""
    if point.problem.points is None:
        raise InvalidInput("eigenvalues need rational evaluation points")
    return table_eigenvalues(point.problem.parity_data(point.parity).sites, point.ys)


def gaudin_eigenvalue(point: BethePoint, k: int) -> Fraction:
    """Quadratic-Hamiltonian eigenvalue at site k from the tuple."""
    value = site_eigenvalues(point).get(k)
    if value is None:
        raise NotAdmissible(k)
    return value


def gaudin_eigenvalues(point: BethePoint) -> list[Fraction]:
    values = site_eigenvalues(point)
    for k in range(1, point.problem.n_points + 1):
        if k not in values:
            raise NotAdmissible(k)
    return list(values.values())


def eigenvalue_conservation(pop: Population) -> bool:
    """Eigenvalue equality across every edge, at mutually admissible sites."""
    values = {key: site_eigenvalues(point) for key, point in pop.nodes.items()}
    for edge in pop.edges:
        source, target = values[edge.source], values[edge.target]
        if any(source[k] != target[k] for k in source.keys() & target.keys()):
            return False
    return True
