import json
import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import gaudin.weights
from gaudin import bethe, jsonio
from gaudin.bethe import (
    BethePoint,
    Population,
    _family_sibling_exists,
    bae_check_criterion,
    bae_check_direct,
    bosonic_reproduce,
    bosonic_rhs,
    eigenvalue_conservation,
    fermionic_reproduce,
    fermionic_rhs,
    gaudin_eigenvalue,
    genericity_check,
    populate,
    population_operator,
    site_eigenvalues,
    verify_r_invariance,
)
from gaudin.errors import (
    CriterionFailed,
    DegenerateReproduction,
    InternalInconsistency,
    InvalidConfiguration,
    InvalidInput,
    NotAdmissible,
    NotGeneric,
)
from gaudin.linalg import rank
from gaudin.rational import Poly, RatFun, log_deriv
from gaudin.reps import master_polynomial
from gaudin.skew import DiffOp, OreFraction
from gaudin.weights import ParitySequence, ProblemData, Weight

X = Poly.x()


def gl2_problem(exponents, zs):
    ws = [Weight(2, 0, (e, 0)) for e in exponents]
    return ProblemData(2, 0, ws, points=zs)


def gl11_problem(pqs, zs):
    ws = [Weight(1, 1, pq) for pq in pqs]
    return ProblemData(1, 1, ws, points=zs)


def gl31_population(depth):
    """The gl(3|1) problem of three (1,1,1,0) sites at 0, 1, 2, grown to a depth."""
    prob = ProblemData(3, 1, [Weight(3, 1, (1, 1, 1, 0))] * 3, points=[0, 1, 2])
    seed = BethePoint(prob, ParitySequence.standard(3, 1), [Poly.one()] * 3)
    return populate(seed, [Q(-6), Q(-5), Q(1)], max_depth=depth)


class TestGenericity:
    def test_trivial_tuple(self, worked_problem):
        p = BethePoint(worked_problem, ParitySequence.standard(2, 1), [Poly.one()] * 2)
        ok, failures = genericity_check(p)
        assert ok and failures == []

    def test_shared_root_adjacent(self):
        prob = ProblemData(3, 0, [Weight(3, 0, (1, 1, 0))], points=[5])
        p = BethePoint(prob, ParitySequence.standard(3, 0), [X, X])
        ok, failures = genericity_check(p)
        assert not ok and any("share a root" in f for f in failures)

    def test_root_meets_weight_poly(self):
        prob = gl2_problem([2], [0])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [X])
        ok, failures = genericity_check(p)
        assert not ok

    def test_repeated_root_even_direction(self):
        prob = gl2_problem([3], [5])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [X**2])
        ok, failures = genericity_check(p)
        assert not ok and any("repeated" in f for f in failures)


class TestDirectCheck:
    def test_vacuous(self, rational_gl21_problem):
        s = ParitySequence.standard(2, 1)
        assert bae_check_direct(rational_gl21_problem, s, [[], []])

    def test_gl11_root_of_master(self):
        from conftest import solve_levels_for_roots

        zs = [Q(0), Q(1), Q(3)]
        roots = [Q(1, 2), Q(2)]
        hs = solve_levels_for_roots(zs, roots)
        assert hs is not None
        prob = gl11_problem([(h, 0) for h in hs], zs)
        nt = master_polynomial(hs, zs)
        assert all(nt(r) == 0 for r in roots)
        s = ParitySequence.standard(1, 1)
        assert bae_check_direct(prob, s, [[roots[0]]])
        assert bae_check_direct(prob, s, [list(roots)])

    def test_gl11_multiplicity_convention(self):
        # a double root is allowed if the single-variable equation has a
        # double root there; here it does not, so three copies fail
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        s = ParitySequence.standard(1, 1)
        t = Q(1, 2)
        assert bae_check_direct(prob, s, [[t]])
        assert not bae_check_direct(prob, s, [[t, t]])

    def test_gl2_non_solution(self):
        prob = gl2_problem([2], [0])
        s = ParitySequence.standard(2, 0)
        assert not bae_check_direct(prob, s, [[Q(1)]])

    def test_coincidence_rejected(self):
        prob = gl2_problem([2], [0])
        s = ParitySequence.standard(2, 0)
        with pytest.raises(InvalidConfiguration):
            bae_check_direct(prob, s, [[Q(0)]])

    def test_root_at_a_point_whose_weight_pairs_to_zero(self):
        # (1,1,0) pairs to zero with alpha_1, so its point 0 adds no pole to
        # the colour-1 equation: -1/(0 - 1) - 1/(0 + 1) = 0
        ws = [Weight(2, 1, c) for c in ((1, 1, 0), (1, 0, 0), (1, 0, 0))]
        prob = ProblemData(2, 1, ws, points=[0, 1, -1])
        s = ParitySequence.standard(2, 1)
        assert bae_check_direct(prob, s, [[Q(0)], []])
        assert not bae_check_direct(prob, s, [[Q(0)], [Q(2)]])


def _rational_roots(p):
    from gaudin.rational import rational_roots

    return rational_roots(p)[0]


class TestCriterion:
    def test_worked_seed(self, worked_seed):
        assert bae_check_criterion(worked_seed)

    def test_gl2_solvable(self):
        prob = gl2_problem([1], [0])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        assert bae_check_criterion(p)

    def test_gl2_non_solution(self):
        prob = gl2_problem([1], [0])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [X - 1])
        assert not bae_check_criterion(p)

    def test_non_generic_rejected(self):
        prob = gl2_problem([2], [0])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [X])
        with pytest.raises(NotGeneric):
            bae_check_criterion(p)


    @pytest.mark.parametrize(
        "problem",
        [
            gl2_problem([1, 1], [0, 1]),
            gl2_problem([1, 1, 1], [0, 1, 3]),
            gl11_problem([(1, 0)] * 2, [0, 1]),
            gl11_problem([(1, 0)] * 3, [0, 1, 2]),
        ],
        ids=["gl2-01", "gl2-013", "gl11-01", "gl11-012"],
    )
    def test_agrees_with_direct_check(self, problem):
        # the criterion is solvability of the reproductions; on generic
        # one- and two-root tuples it must decide like the residue check
        roots = sorted({Q(a, b) for a in range(-6, 7) for b in (1, 2, 3, 5)})
        parity = ParitySequence.standard(problem.m, problem.n)
        generic = 0
        for count in (1, 2):
            for ts in combinations_with_replacement(roots, count):
                y = Poly.one()
                for t in ts:
                    y = y * (X - t)
                p = BethePoint(problem, parity, [y])
                if not genericity_check(p)[0]:
                    continue
                generic += 1
                assert bae_check_criterion(p) == bae_check_direct(problem, parity, [list(ts)]), ts
        assert generic > 0


class TestBosonic:
    def test_worked_family(self, worked_seed):
        fam = bosonic_reproduce(worked_seed, 1)
        assert fam.particular == X
        assert fam.homogeneous == Poly.one()
        assert [fam.member(c).to_str() for c in (0, 1, 2)] == ["x", "x - 1", "x - 2"]

    def test_gl2_family(self):
        prob = gl2_problem([1], [0])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        fam = bosonic_reproduce(p, 1)
        # particular solves w' = x exactly
        assert fam.particular.derivative() == X

    def test_degree_bookkeeping(self):
        prob = gl2_problem([3, 2], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        fam = bosonic_reproduce(p, 1)
        rhs_degree = 5
        assert fam.particular.degree == rhs_degree - p.y(1).degree + 1

    @pytest.mark.parametrize(
        "build, outcomes",
        [
            # the full worked population witnesses every line; the depth cap
            # leaves lines of the outermost gl(3|1) nodes unwitnessed
            (lambda: golden_population("worked_gl21.json"), {True}),
            (lambda: golden_population("gl31.json", samples=(-6, -5, 1), max_depth=3), {True, False}),
        ],
        ids=["worked-gl21", "gl31-depth-3"],
    )
    def test_family_keeps_its_rhs(self, build, outcomes):
        pop = build()
        verdicts = []
        for point in pop.points():
            s = point.parity
            for i in range(1, len(s)):
                if s[i] != s[i + 1]:
                    continue
                try:
                    family = bosonic_reproduce(point, i)
                except CriterionFailed:
                    continue
                y, particular = family.homogeneous, family.particular
                assert family.rhs == bosonic_rhs(point, i)
                assert y * particular.derivative() - y.derivative() * particular == family.rhs
                found = _family_sibling_exists(pop, point, i, family.rhs)
                assert found == recomputed_sibling_exists(pop, point, i, family), (point, i)
                verdicts.append(found)
        assert set(verdicts) == outcomes


def recomputed_sibling_exists(pop, point, i, family):
    """The sibling test with W(y, particular) recomputed from the family: the oracle."""
    cands = [other.ys[i - 1] for other in pop._lines.get(bethe._line_key(point, i), []) if other is not point]
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


class TestFermionic:
    def test_worked_step_two(self, worked_problem):
        s0 = ParitySequence.standard(2, 1)
        p = BethePoint(worked_problem, s0, [X - 2, Poly.one()])
        child = fermionic_reproduce(p, 2)
        assert child.parity == ParitySequence((1, -1, 1))
        assert child.ys[0] == X - 2
        assert child.ys[1] == (4 * X**3 - 6 * X**2 - 1).monic()

    def test_worked_step_three(self, worked_problem):
        s1 = ParitySequence((1, -1, 1))
        p = BethePoint(worked_problem, s1, [X - 2, 4 * X**3 - 6 * X**2 - 1])
        child = fermionic_reproduce(p, 1)
        assert child.parity == ParitySequence((-1, 1, 1))
        assert child.ys[0] == (2 * X**4 + X).monic()
        assert child.ys[1] == (4 * X**3 - 6 * X**2 - 1).monic()

    def test_involution(self, worked_problem):
        s0 = ParitySequence.standard(2, 1)
        p = BethePoint(worked_problem, s0, [X - 2, Poly.one()])
        child = fermionic_reproduce(p, 2)
        back = fermionic_reproduce(child, 2)
        assert back == p

    def test_gl11_degree_law(self):
        pqs = [(1, 0), (1, 0), (2, 1)]
        zs = [0, 1, 3]
        prob = gl11_problem(pqs, zs)
        nt = master_polynomial([1, 1, 3], zs)
        m = 3  # all three factors typical
        p = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        child = fermionic_reproduce(p, 1)
        assert p.ys[0].degree + child.ys[0].degree == m - 1
        assert child.ys[0] == nt.monic()

    def test_constant_argument_is_degenerate(self):
        # T_1 = T_2 = 1 and y_0 = y_2 = 1: the argument T_1 T_2 y_0 / y_2 is 1
        prob = gl11_problem([(0, 0)], [0])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        with pytest.raises(DegenerateReproduction):
            fermionic_reproduce(p, 1)

    def test_entry_not_dividing_the_right_side_fails(self):
        # the right side is 2x - 1, which x - 5 does not divide
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [X - 5])
        with pytest.raises(CriterionFailed):
            fermionic_reproduce(p, 1)


class TestPopulate:
    def test_worked_example_node_set(self, worked_population):
        by_parity = worked_population.by_parity()
        assert set(by_parity) == {(1, 1, -1), (1, -1, 1), (-1, 1, 1)}
        assert len(worked_population.nodes) == 12

    def test_gl2_single_step(self):
        prob = gl2_problem([1], [0])
        seed = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        pop = populate(seed, [Q(0)], max_depth=1)
        assert len(pop.nodes) == 2

    def test_gl11_pair(self):
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        seed = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        pop = populate(seed, [Q(0)])
        tuples = {(p.parity.entries, p.ys[0].to_str()) for p in pop.points()}
        assert tuples == {((1, -1), "1"), ((-1, 1), "x - 1/2")}

    def test_seed_must_pass_criterion(self):
        prob = gl2_problem([1], [0])
        seed = BethePoint(prob, ParitySequence.standard(2, 0), [X - 1])
        with pytest.raises(CriterionFailed):
            populate(seed, [Q(0)])

    def test_sibling_index_matches_full_scan(self):
        def full_scan(pop, point, i, family):
            width = max(family.particular.degree, family.homogeneous.degree) + 1
            span = [
                list(f.coeffs) + [Q(0)] * (width - len(f.coeffs))
                for f in (family.particular, family.homogeneous)
            ]
            for other in pop.nodes.values():
                if other is point or other.parity != point.parity:
                    continue
                if any(other.ys[j] != point.ys[j] for j in range(len(point.ys)) if j != i - 1):
                    continue
                cand = other.ys[i - 1]
                if cand.degree + 1 > width:
                    continue
                vec = list(cand.coeffs) + [Q(0)] * (width - len(cand.coeffs))
                if rank([*span, vec]) == rank(span):
                    return True
            return False

        pop = gl31_population(2)  # nodes at depth 2 are not expanded
        outcomes = set()
        for point in pop.points():
            s = point.parity
            for i in range(1, len(s)):
                if s[i] != s[i + 1]:
                    continue
                try:
                    family = bosonic_reproduce(point, i)
                except CriterionFailed:
                    continue
                found = _family_sibling_exists(pop, point, i, family.rhs)
                assert found == full_scan(pop, point, i, family), (point, i)
                outcomes.add(found)
        assert outcomes == {True, False}

    def test_parity_must_have_the_problem_shape(self, worked_problem):
        # a gl(3|0) parity passes the length check for a gl(2|1) problem
        with pytest.raises(InvalidInput):
            BethePoint(worked_problem, ParitySequence((1, 1, 1)), [Poly.one(), Poly.one()])


class TestPopulationOperator:
    def test_trivial_data(self):
        prob = ProblemData(2, 1, [Weight(2, 1, (0, 0, 0))], points=[0])
        p = BethePoint(prob, ParitySequence.standard(2, 1), [Poly.one()] * 2)
        fr = population_operator(p)
        num, den = fr.minimal().num, fr.minimal().den
        assert num.order == 1 and den.order == 0  # D^2 (D)^(-1) collapses

    def test_gl11_typical_type(self):
        prob = gl11_problem([(1, 0)], [0])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        fr = population_operator(p).minimal()
        assert (fr.num.order, fr.den.order) == (1, 1)

    def test_gl11_atypical_identity(self):
        prob = gl11_problem([(0, 0)], [0])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        assert population_operator(p).same_operator(OreFraction(DiffOp.one()))

    def test_invariance(self, worked_population):
        assert verify_r_invariance(worked_population)

    def test_displayed_refactorization_at_zero(self, worked_problem):
        # the standard-parity product at c = 0 equals the displayed
        # re-factorization at the fully swapped parity
        from gaudin.rational import RatFun, log_deriv
        from gaudin.skew import CompleteFactorization
        from gaudin.bethe import population_factorization

        s0_node = BethePoint(
            worked_problem, ParitySequence.standard(2, 1), [X, Poly.one()]
        )
        x3m1 = X**3 - 1
        y2 = 4 * X**3 - 1
        displayed = CompleteFactorization(
            ParitySequence((-1, 1, 1)),
            [
                log_deriv(RatFun(2 * X**4 + X, x3m1**2)),
                log_deriv(RatFun(2 * X**4 + X, y2)),
                log_deriv(RatFun(y2)),
            ],
        )
        assert population_factorization(s0_node).same_operator(displayed)

    def test_refactor_crosses_parities(self, worked_problem):
        from gaudin.skew import refactor_to_parity
        from gaudin.bethe import population_factorization

        s1_node = BethePoint(
            worked_problem,
            ParitySequence((1, -1, 1)),
            [X - 1, 4 * X**3 - 3 * X**2 - 1],
        )
        fac1 = population_factorization(s1_node)
        fac0 = refactor_to_parity(fac1, ParitySequence.standard(2, 1))
        assert fac0.parity == ParitySequence.standard(2, 1)
        assert fac0.same_operator(fac1)
        roundtrip = refactor_to_parity(fac0, fac1.parity)
        assert roundtrip.coefficients == fac1.coefficients

    def test_corrupted_node_detected(self, worked_population, worked_problem):
        base = population_operator(worked_population.points()[0])
        # (x - 7, 1) is a legitimate member of the same family line, so its
        # operator agrees; a quadratic first entry is genuinely outside
        still_member = BethePoint(
            worked_problem, ParitySequence.standard(2, 1), [X - 7, Poly.one()]
        )
        assert population_operator(still_member).same_operator(base)
        bad = BethePoint(
            worked_problem, ParitySequence.standard(2, 1), [X**2 - 2, Poly.one()]
        )
        assert not population_operator(bad).same_operator(base)


GOLDEN = Path(__file__).parent / "golden"


def golden_seed(name):
    data = json.loads((GOLDEN / name).read_text())
    return jsonio.point_from_json(jsonio.problem_from_json(data["problem"]), data["seed"])


def golden_population(name, samples=(0, 1, 2), max_depth=16):
    return populate(golden_seed(name), samples, max_depth=max_depth)


def gl12_population():
    """gl(1|2) with three (1,0,0) sites at 0, 1, 2: it has (-,-) edges."""
    prob = ProblemData(1, 2, [Weight(1, 2, (1, 0, 0))] * 3, points=[0, 1, 2])
    seed = BethePoint(prob, ParitySequence.standard(1, 2), [Poly.one()] * 2)
    return populate(seed, [0, 1, 2], max_depth=3)


def worked_from_mixed_parity():
    """The worked problem grown one step from a node at parity (+,-,+), so
    that one of its discovery edges has source signs (-,+)."""
    problem = golden_seed("worked_gl21.json").problem
    seed = BethePoint(problem, ParitySequence((1, -1, 1)), [Poly.one(), X**2])
    return populate(seed, [0, 1, 2], max_depth=1)


def gl22_population():
    """tests/golden/gl22.json at depth 4, the depth of its recordings: it
    has discovery edges of all four sign shapes."""
    return golden_population("gl22.json", max_depth=4)


def per_node_invariance(pop):
    """The reference check: every node's full R against the first node's."""
    points = pop.points()
    base = population_operator(points[0])
    return all(population_operator(p).same_operator(base) for p in points[1:])


def discovery_edges(pop):
    """The first edge into each node other than the seed."""
    seed_key = next(iter(pop.nodes))
    return {e.target: e for e in reversed(pop.edges) if e.target != seed_key}


def with_node(pop, key, point):
    """A copy of the population whose node ``key`` is another tuple."""
    out = Population(pop.problem)
    out.nodes = dict(pop.nodes)
    out.edges = list(pop.edges)
    out.nodes[key] = point
    return out


def scaled_entry(point, j):
    """The tuple with y_j multiplied by (x - 17)."""
    ys = list(point.ys)
    ys[j - 1] = ys[j - 1] * (X - 17)
    return BethePoint(point.problem, point.parity, ys)


def moved_entry(point, j):
    """The tuple with one coefficient of y_j moved: that of x^(d-1) by 3
    when y_j has degree d > 0, that of x by 1 when y_j is constant."""
    y = point.y(j)
    ys = list(point.ys)
    ys[j - 1] = y + 3 * X ** (y.degree - 1) if y.degree else y + X
    return BethePoint(point.problem, point.parity, ys)


def other_last_weight_poly(problem):
    """The problem with its last standard-parity weight polynomial replaced by x - 5."""
    ts = list(problem.ts_standard)
    ts[-1] = X - 5
    return ProblemData(problem.m, problem.n, problem.weights, ts=ts)


def mutate_on_shape(pop, signs, mutate):
    """The population with ``mutate(node, i)`` in place of the first node
    whose discovery edge, in direction i, has source signs ``signs``."""
    for key, edge in discovery_edges(pop).items():
        s, i = pop.nodes[edge.source].parity, edge.direction
        if (s[i], s[i + 1]) == signs:
            return with_node(pop, key, mutate(pop.nodes[key], i))
    raise AssertionError(f"no discovery edge with signs {signs}")


@pytest.fixture
def operator_builds(monkeypatch):
    calls = []
    build = bethe.population_operator
    monkeypatch.setattr(bethe, "population_operator", lambda p: calls.append(p) or build(p))
    return calls


class TestRInvariance:
    @pytest.mark.parametrize(
        "grow",
        [
            lambda: golden_population("worked_gl21.json"),
            lambda: golden_population("worked_gl21.json", samples=(5, 7)),
            lambda: golden_population("rational_gl21.json"),
            lambda: golden_population("rational_gl21_point_1e50.json", max_depth=3),
            lambda: gl31_population(3),
            gl12_population,
            worked_from_mixed_parity,
            gl22_population,
        ],
        ids=[
            "worked",
            "worked-samples-5-7",
            "rational",
            "point-1e50-depth-3",
            "gl31-depth-3",
            "gl12",
            "worked-from-mixed-parity",
            "gl22-depth-4",
        ],
    )
    def test_agrees_with_per_node_check(self, grow, operator_builds):
        pop = grow()
        assert verify_r_invariance(pop)
        # every discovery edge passes the two-factor identity: no full R is built
        assert operator_builds == []
        assert per_node_invariance(pop)

    @pytest.mark.parametrize(
        "grow, signs",
        [
            (lambda: golden_population("worked_gl21.json"), (1, 1)),
            (gl12_population, (-1, -1)),
            (lambda: golden_population("worked_gl21.json"), (1, -1)),
            (worked_from_mixed_parity, (-1, 1)),
        ],
        ids=["even-even", "odd-odd", "even-odd", "odd-even"],
    )
    def test_mutation_on_each_pair_shape(self, grow, signs, operator_builds):
        pop = mutate_on_shape(grow(), signs, scaled_entry)
        assert not verify_r_invariance(pop)
        assert operator_builds == []
        assert not per_node_invariance(pop)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda point, i: scaled_entry(point, 3 - i),
            lambda point, i: BethePoint(point.problem, point.parity.swapped(i + 1), point.ys),
            lambda point, i: BethePoint(other_last_weight_poly(point.problem), point.parity, point.ys),
        ],
        ids=["entry-off-the-direction", "parity-off-the-pair", "weight-poly-off-the-pair"],
    )
    def test_mutation_off_the_edge_is_inconsistent(self, mutate, operator_builds):
        # no reproduction changes more than y_i, or the parity or weight
        # polynomials off its pair, so such an edge is a bug, not a verdict
        pop = mutate_on_shape(golden_population("worked_gl21.json"), (1, 1), mutate)
        with pytest.raises(InternalInconsistency, match="not a reproduction"):
            verify_r_invariance(pop)
        assert operator_builds == []
        assert not per_node_invariance(pop)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda ts, i: {i - 1: ts[i], i: ts[i - 1]},
            lambda ts, i: {j: X - 5 for j in range(len(ts)) if j not in (i - 1, i)},
        ],
        ids=["pair-swapped-without-radical", "weight-poly-off-the-pair"],
    )
    def test_mixed_edge_off_the_swap_rule_is_inconsistent(self, tamper):
        # the target parity's weight polynomials replaced: (T_{i+1}, T_i)
        # keeps T_i T_{i+1} but not the split (pi T_{i+1}, T_i / pi)
        pop = golden_population("worked_gl21.json")
        edge = next(e for e in discovery_edges(pop).values() if e.kind == "fermionic")
        source, target, i = pop.nodes[edge.source], pop.nodes[edge.target], edge.direction
        ts = list(source.ts())
        for j, t in tamper(ts, i).items():
            ts[j] = t
        data = pop.problem.parity_data(target.parity)
        pop.problem._parity_data[target.parity.entries] = data._replace(ts=tuple(ts))
        with pytest.raises(InternalInconsistency, match="not a reproduction"):
            bethe._edge_keeps_operator(source, target, i)

    def test_swap_rule_checked_once_per_parity_and_direction(self, monkeypatch):
        pop = gl22_population()
        shapes = {(pop.nodes[e.source].parity.entries, e.direction) for e in discovery_edges(pop).values()}
        reads = []
        ts = BethePoint.ts
        monkeypatch.setattr(BethePoint, "ts", lambda p: reads.append(p) or ts(p))
        assert verify_r_invariance(pop)
        # the weight polynomials of the source and the target, once per shape
        assert len(reads) == 2 * len(shapes) < len(discovery_edges(pop))

    def test_population_off_the_swap_rule_is_inconsistent(self):
        pop = golden_population("worked_gl21.json")
        edge = next(e for e in discovery_edges(pop).values() if e.kind == "fermionic")
        target = pop.nodes[edge.target]
        data = pop.problem.parity_data(target.parity)
        pop.problem._parity_data[target.parity.entries] = data._replace(ts=data.ts[::-1])
        with pytest.raises(InternalInconsistency, match="not a reproduction"):
            verify_r_invariance(pop)

    @pytest.mark.parametrize("direction", [0, 3])
    def test_direction_out_of_range_is_inconsistent(self, worked_seed, direction):
        with pytest.raises(InternalInconsistency, match="out of range"):
            bethe._edge_keeps_operator(worked_seed, worked_seed, direction)

    def test_unreached_node_is_inconsistent(self):
        pop = golden_population("worked_gl21.json")
        pop.edges = [e for e in pop.edges if e not in discovery_edges(pop).values()]
        with pytest.raises(InternalInconsistency):
            verify_r_invariance(pop)

    @pytest.mark.parametrize(
        "grow", [lambda: golden_population("worked_gl21.json"), gl22_population], ids=["worked", "gl22-depth-4"]
    )
    def test_discovery_edges_reach_each_node_once_in_edge_order(self, grow):
        pop = grow()
        position = {id(e): k for k, e in enumerate(pop.edges)}
        edges = list(bethe.discovery_edges(pop))
        # populate adds a node when the edge that first reaches it is recorded
        assert [e.target for e in edges] == list(pop.nodes)[1:]
        assert [position[id(e)] for e in edges] == sorted(position[id(e)] for e in edges)

    def test_empty_population_rejected(self, worked_seed):
        with pytest.raises(InvalidInput):
            verify_r_invariance(Population(worked_seed.problem))

    def test_seed_only(self, worked_seed):
        assert verify_r_invariance(populate(worked_seed, [0], max_depth=0))


def _log_deriv_pair(point: BethePoint, i: int) -> tuple[Poly, Poly]:
    """s_i ln'(T_i y_{i-1} / y_i), the log-derivative of factor i's
    primitive, as the unreduced pair +-(p'q - pq', pq) with p = T_i y_{i-1}
    and q = y_i."""
    p, q = point.ts()[i - 1] * point.y(i - 1), point.y(i)
    num = p.derivative() * q - p * q.derivative()
    return (num if point.parity[i] == 1 else -num), p * q


def _same_second_order(u, v, w, z) -> bool:
    """Whether (D - u)(D - v) = (D - w)(D - z), for u, v, w and z given as
    unreduced pairs (numerator, denominator).

    Each side is D^2 - (u + v) D + (uv - v'), and with u = n/e and v = m/f
    its two coefficients are the unreduced pairs (nf + me, ef) and
    (nmf - (m'f - mf')e, ef^2).  Two pairs are compared by
    cross-multiplication, n1 d2 = n2 d1, so no gcd is taken.
    """

    def lower(u, v):
        (n, e), (m, f) = u, v
        ef = e * f
        return (n * f + m * e, ef), (n * m * f - (m.derivative() * f - m * f.derivative()) * e, ef * f)

    return all(n1 * d2 == n2 * d1 for (n1, d1), (n2, d2) in zip(lower(u, v), lower(w, z)))


def second_order_keeps_operator(source, target, i):
    """The reference edge check: whether the product of factors i and i+1
    is the same at both ends, as one second-order identity.

    (D-a)^(s_i) (D-b)^(s_(i+1)) at the source must equal
    (D-c)^(s_(i+1)) (D-d)^(s_i) at the target (the parity is swapped on a
    mixed pair).  Moving the inverted factors across makes that
    (D-u)(D-v) = (D-w)(D-z): for (+,-), say, (D-a)(D-b)^(-1) =
    (D-c)^(-1)(D-d) becomes (D-c)(D-a) = (D-d)(D-b).
    """
    s = source.parity
    a, b, c, d = (_log_deriv_pair(p, j) for p in (source, target) for j in (i, i + 1))
    (u, v), (w, z) = {
        (1, 1): ((a, b), (c, d)),
        (-1, -1): ((b, a), (d, c)),
        (1, -1): ((c, a), (d, b)),
        (-1, 1): ((b, d), (a, c)),
    }[s[i], s[i + 1]]
    return _same_second_order(u, v, w, z)


class TestEdgeRelationOracle:
    """The reproduction relation against the second-order identity it is
    equivalent to, on every discovery edge of the golden populations and
    of the (-,-) and (-,+) ones, as recorded and with a mutated entry."""

    def test_agrees_on_every_discovery_edge(self):
        grows = [
            lambda: golden_population("worked_gl21.json"),
            lambda: golden_population("worked_gl21.json", samples=(5, 7)),
            lambda: golden_population("rational_gl21.json"),
            lambda: golden_population("rational_gl21_point_1e50.json", max_depth=3),
            lambda: gl31_population(3),
            gl12_population,
            worked_from_mixed_parity,
            gl22_population,
        ]
        shapes, checked = set(), 0
        for grow in grows:
            pop = grow()
            for edge in discovery_edges(pop).values():
                source, target, i = pop.nodes[edge.source], pop.nodes[edge.target], edge.direction
                shapes.add((source.parity[i], source.parity[i + 1]))
                assert bethe._edge_keeps_operator(source, target, i)
                for mutated in (target, scaled_entry(target, i), moved_entry(target, i)):
                    relation = bethe._edge_keeps_operator(source, mutated, i)
                    assert relation == second_order_keeps_operator(source, mutated, i), (edge, mutated)
                    checked += 1
        assert shapes == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert checked == 3 * 251

    def test_unchanged_entry_keeps_operator(self, worked_seed):
        # y~_i = y_i: W(y_i, y~_i) = 0, and the pair of factors is unchanged
        assert bethe._edge_keeps_operator(worked_seed, worked_seed, 1)
        assert second_order_keeps_operator(worked_seed, worked_seed, 1)

    def test_constant_fermionic_argument_keeps_operator(self):
        # gl(1|1) with weight (0, 0): T_1 T_2 y_0 / y_2 = 1, so the relation
        # has no solution, yet every y~_1 keeps R = 1
        prob = gl11_problem([(0, 0)], [0])
        source = BethePoint(prob, ParitySequence.standard(1, 1), [X - 2])
        with pytest.raises(DegenerateReproduction):
            fermionic_rhs(source, 1)
        for y in (Poly.one(), X - 2, X**2 + 3):
            target = BethePoint(prob, ParitySequence((-1, 1)), [y])
            assert bethe._edge_keeps_operator(source, target, 1)
            assert second_order_keeps_operator(source, target, 1)
            assert population_operator(target).same_operator(population_operator(source))


# the golden populations, grown as their recordings are
GOLDEN_POPULATIONS = {
    "worked-gl21": lambda: golden_population("worked_gl21.json"),
    "rational-gl21": lambda: golden_population("rational_gl21.json"),
    "gl31-depth-3": lambda: gl31_population(3),
    "gl22-depth-4": lambda: golden_population("gl22.json", max_depth=4),
    "gl22-pole-depth-4": lambda: golden_population("gl22_pole.json", max_depth=4),
    "gl13-depth-3": lambda: golden_population("gl13.json", max_depth=3),
    "gl32-depth-3": lambda: golden_population("gl32.json", max_depth=3),
}


def zero_weight_gl31_seed():
    """gl(3|1) with one zero weight at 3: some odd directions have a
    constant logarithmic-derivative argument, so the population records
    diagnostics."""
    prob = ProblemData(3, 1, [Weight(3, 1, (0, 0, 0, 0))], points=[3])
    return BethePoint(prob, ParitySequence.standard(3, 1), [Poly.one()] * 3)


def old_order_populate(seed, samples, max_depth):
    """The breadth-first loop with each direction's work in its first order:
    every same-parity direction solves for its family, then asks whether a
    known node witnesses the family's line (the recomputed oracle above),
    and every child is built through the checked ``BethePoint(...)``."""
    samples = [Q(c) for c in samples]
    pop = Population(seed.problem)
    frontier = [(pop.add(seed), 0)]
    for key, depth in frontier:  # the loop also visits the nodes appended to it
        if depth >= max_depth:
            continue
        point = pop.nodes[key]
        s = point.parity
        for i in range(1, len(s)):
            if s[i] == s[i + 1]:
                try:
                    family = bosonic_reproduce(point, i)
                except CriterionFailed as exc:
                    pop.diagnostics.append(f"{key} dir {i}: {exc}")
                    continue
                if recomputed_sibling_exists(pop, point, i, family):
                    continue
                children = []
                for c in samples:
                    ys = list(point.ys)
                    ys[i - 1] = family.member(c)
                    children.append((BethePoint(point.problem, s, ys), "bosonic", c))
            else:
                try:
                    child = fermionic_reproduce(point, i)
                except (CriterionFailed, DegenerateReproduction) as exc:
                    pop.diagnostics.append(f"{key} dir {i}: {exc}")
                    continue
                children = [(BethePoint(point.problem, child.parity, child.ys), "fermionic", None)]
            for child, kind, scalar in children:
                ckey = child.key()
                if ckey not in pop.nodes:
                    frontier.append((ckey, depth + 1))
                pop.add(child)
                pop.edges.append(bethe.Edge(key, ckey, i, kind, scalar))
    return pop


class TestPopulateWorkOnce:
    """``populate`` builds children without the input checks, tests a
    family's line before solving for its partner, and skips the line a node
    was reached along; none of it may change a node, an edge or a diagnostic."""

    @pytest.mark.parametrize("grow", GOLDEN_POPULATIONS.values(), ids=GOLDEN_POPULATIONS.keys())
    def test_nodes_equal_their_checked_rebuild(self, grow):
        for key, point in grow().nodes.items():
            assert type(point.ys) is tuple and all(type(y) is Poly for y in point.ys)
            rebuilt = BethePoint(point.problem, point.parity, point.ys)
            assert rebuilt.key() == key == point.key()

    @pytest.mark.parametrize(
        "seed, samples, depth",
        [
            (lambda: golden_seed("worked_gl21.json"), (0, 1, 2), 16),
            (lambda: golden_seed("worked_gl21.json"), (5, 7), 16),
            (lambda: golden_seed("rational_gl21.json"), (0, 1, 2), 16),
            (lambda: golden_seed("gl31.json"), (-6, -5, 1), 3),
            (lambda: golden_seed("gl31.json"), (-6, -5, 1), 4),
            (lambda: golden_seed("gl22.json"), (0, 1, 2), 4),
            (lambda: golden_seed("gl22_pole.json"), (0, 1, 2), 4),
            (lambda: golden_seed("gl13.json"), (0, 1, 2), 3),
            (lambda: golden_seed("gl32.json"), (0, 1, 2), 3),
            (zero_weight_gl31_seed, (0, 1, 2), 3),
        ],
        ids=[
            "worked", "worked-samples-5-7", "rational", "gl31-depth-3", "gl31-depth-4",
            "gl22-depth-4", "gl22-pole-depth-4", "gl13-depth-3", "gl32-depth-3", "gl31-zero-weight",
        ],
    )
    def test_same_population_as_the_old_order(self, seed, samples, depth):
        pop = populate(seed(), samples, max_depth=depth)
        old = old_order_populate(seed(), samples, depth)
        assert list(pop.nodes) == list(old.nodes)
        assert pop.edges == old.edges
        assert pop.diagnostics == old.diagnostics

    def test_old_order_oracle_records_diagnostics(self):
        # the comparison above is not vacuous on diagnostics
        old = old_order_populate(zero_weight_gl31_seed(), (0, 1, 2), 3)
        assert len(old.nodes) == 94
        assert len(old.diagnostics) == 7
        assert all("constant logarithmic-derivative" in d for d in old.diagnostics)

    def test_partner_solves_counted(self, monkeypatch):
        calls = {"bosonic_rhs": 0, "wronskian_partner": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(bethe, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(bethe, name, counted)
        prob = ProblemData(3, 1, [Weight(3, 1, (1, 1, 1, 0))] * 3, points=[0, 1, 2])
        seed = BethePoint(prob, ParitySequence.standard(3, 1), [Poly.one()] * 3)
        assert bae_check_criterion(seed)
        # the seed's Bethe criterion solves its two same-parity directions
        assert calls == {"bosonic_rhs": 2, "wronskian_partner": 2}
        pop = populate(seed, [Q(-6), Q(-5), Q(1)], max_depth=4)
        assert (len(pop.nodes), len(pop.edges)) == (352, 384)
        # the same criterion again, whose two families the seed's expansion
        # reuses, then 112 line tests and 78 partner solves for the other
        # nodes in the loop (the old order's loop takes 192 of each)
        assert calls == {"bosonic_rhs": 2 + 2 + 112, "wronskian_partner": 2 + 2 + 78}


def gaudin_eigenvalues(point):
    """Every site's eigenvalue in site order; NotAdmissible at the first
    site that is not admissible."""
    values = site_eigenvalues(point)
    for k in range(1, point.problem.n_points + 1):
        if k not in values:
            raise NotAdmissible(k)
    return list(values.values())


class TestEigenvalues:
    def test_empty_root_formula(self):
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        assert gaudin_eigenvalues(p) == [Q(-1), Q(1)]

    def test_one_root(self):
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [X - Q(1, 2)])
        assert gaudin_eigenvalue(p, 1) == Q(1)

    def test_inadmissible(self):
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [X])
        assert list(site_eigenvalues(p)) == [2]
        with pytest.raises(NotAdmissible):
            gaudin_eigenvalue(p, 1)

    def test_all_eigenvalues_need_every_site_admissible(self):
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [X])
        with pytest.raises(NotAdmissible):
            gaudin_eigenvalues(p)

    @pytest.mark.parametrize("k", [0, 3])
    def test_site_out_of_range(self, k):
        prob = gl11_problem([(1, 0), (1, 0)], [0, 1])
        p = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        assert list(site_eigenvalues(p)) == [1, 2]
        with pytest.raises(NotAdmissible):
            gaudin_eigenvalue(p, k)

    def test_conservation_across_edges(self):
        prob = gl11_problem([(1, 0), (2, 1), (1, 1)], [0, 1, 3])
        seed = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        pop = populate(seed, [Q(0)])
        assert eigenvalue_conservation(pop)

    def test_conservation_gl21_rational(self, rational_gl21_problem):
        seed = BethePoint(
            rational_gl21_problem, ParitySequence.standard(2, 1), [Poly.one()] * 2
        )
        pop = populate(seed, [Q(5), Q(7)])
        assert len(pop.nodes) >= 6
        assert eigenvalue_conservation(pop)

    def test_conservation_detects_a_changed_eigenvalue(self, rational_gl21_problem):
        seed = BethePoint(
            rational_gl21_problem, ParitySequence.standard(2, 1), [Poly.one()] * 2
        )
        pop = populate(seed, [Q(5), Q(7)])
        edge = pop.edges[0]
        source, target = pop.nodes[edge.source], pop.nodes[edge.target]
        # an extra root at 10 shifts the eigenvalue without touching a site
        bad = BethePoint(target.problem, target.parity, [y * (X - 10) for y in target.ys])
        shared = site_eigenvalues(source).keys() & site_eigenvalues(bad).keys()
        assert any(gaudin_eigenvalue(bad, k) != gaudin_eigenvalue(source, k) for k in shared)
        pop.nodes[edge.target] = bad
        assert not eigenvalue_conservation(pop)


    def test_weight_ratios_built_once_per_parity(self, monkeypatch):
        calls = []
        ratio_poly = gaudin.weights.ratio_poly
        monkeypatch.setattr(
            gaudin.weights,
            "ratio_poly",
            lambda ts, s, i: calls.append((s.entries, i)) or ratio_poly(ts, s, i),
        )
        pop = gl31_population(2)
        assert eigenvalue_conservation(pop)
        assert len(calls) == len(set(calls))
        assert len(calls) <= len(pop.by_parity()) * 3

    def test_site_data_built_once_per_parity(self, monkeypatch):
        calls = []
        eps_at = Weight.eps_at
        monkeypatch.setattr(Weight, "eps_at", lambda w, s: calls.append(s.entries) or eps_at(w, s))
        pop = gl31_population(2)
        assert eigenvalue_conservation(pop)
        assert len(calls) <= len(pop.by_parity()) * len(pop.problem.weights)


def evaluated_eigenvalues(sites, ys):
    """table_eigenvalues by evaluating y_i and y_i' at each site."""
    out = {}
    for k, (z, total, pairings) in enumerate(sites, start=1):
        for i, pairing in pairings:
            value = ys[i - 1](z)
            if value == 0:
                break
            total -= pairing * ys[i - 1].derivative()(z) / value
        else:
            out[k] = total
    return out


class TestTableEigenvalues:
    # (z, sum over the other sites, nonzero pairings (i, (L_k, alpha_i)))
    SITES = (
        (Q(-3, 2), Q(1, 3), ((1, Q(1)), (2, Q(-2, 5)))),
        (Q(0), Q(-7), ((2, Q(3)),)),
        (Q(5, 7), Q(2), ((1, Q(-1, 2)), (2, Q(1)), (3, Q(4)))),
        (Q(-4), Q(0), ((3, Q(1)),)),
    )

    def test_several_sites(self):
        ys = (X**2 - Q(1, 3) * X + 5, 3 * X**3 + Q(2, 9), Q(-4, 5) * X + 7)
        got = bethe.table_eigenvalues(self.SITES, ys)
        assert got == evaluated_eigenvalues(self.SITES, ys)
        assert list(got) == [1, 2, 3, 4]
        assert len(set(got.values())) == 4

    def test_root_at_one_site_is_not_admissible(self):
        # y_2 vanishes at z_3 = 5/7 only, and y_2 pairs nonzero with site 3
        ys = (Poly.one(), (7 * X - 5) * (X + 1), X - 9)
        got = bethe.table_eigenvalues(self.SITES, ys)
        assert list(got) == [1, 2, 4]
        assert got == evaluated_eigenvalues(self.SITES, ys)

    def test_constant_ys_leave_the_site_sums(self):
        ys = (Poly.const(Q(-3, 4)), Poly.one(), Poly.const(2))
        assert bethe.table_eigenvalues(self.SITES, ys) == {
            k: total for k, (_, total, _) in enumerate(self.SITES, start=1)
        }

    def test_random_tuples(self):
        rng = random.Random(485)
        for _ in range(60):
            ys = []
            for _ in range(3):
                y = Poly([Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
                if not y or rng.random() < 0.2:
                    y = y * (X - rng.choice(self.SITES)[0]) if y else Poly.one()
                ys.append(y)
            assert bethe.table_eigenvalues(self.SITES, ys) == evaluated_eigenvalues(self.SITES, ys)


def fraction_table_eigenvalues(sites, ys):
    """table_eigenvalues with one ``Fraction`` step per pairing: the oracle."""
    out = {}
    for k, (z, total, pairings) in enumerate(sites, start=1):
        a, b = z.numerator, z.denominator
        for i, pairing in pairings:
            h0 = h1 = 0
            bj = 1
            for c in reversed(ys[i - 1].ints):
                h1 = h1 * a + h0
                h0 = h0 * a + c * bj
                bj *= b
            if h0 == 0:
                break
            total -= pairing * Q(b * h1, h0)
        else:
            out[k] = total
    return out


def random_site_table(rng, colours):
    """Sites with fractional and negative z, fractional pairings, and some zero totals."""
    rows = []
    for _ in range(rng.randint(1, 5)):
        z = Q(rng.randint(-12, 12), rng.randint(1, 6))
        total = Q(0) if rng.random() < 0.2 else Q(rng.randint(-30, 30), rng.randint(1, 9))
        pairings = tuple(
            (i, Q(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4)))
            for i in range(1, colours + 1)
            if rng.random() < 0.7
        )
        rows.append((z, total, pairings))
    return tuple(rows)


class TestTableEigenvaluesOracle:
    def test_matches_fraction_loop(self):
        rng = random.Random(19)
        inadmissible = zero_totals = 0
        for _ in range(300):
            colours = rng.randint(1, 3)
            sites = random_site_table(rng, colours)
            ys = []
            for _ in range(colours):
                y = Poly([Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))])
                if not y:
                    y = Poly.one()
                if rng.random() < 0.25:
                    y = y * (X - rng.choice(sites)[0])  # h0 = 0 at that site
                ys.append(y)
            got = bethe.table_eigenvalues(sites, ys)
            want = fraction_table_eigenvalues(sites, ys)
            assert got == want
            assert list(got) == list(want)
            assert all(type(v) is Q for v in got.values())
            inadmissible += len(sites) - len(got)
            zero_totals += sum(sites[k - 1][1] == 0 for k in got)
        assert inadmissible > 20 and zero_totals > 20


def rational_gl21_population():
    """The population of tests/golden/rational_gl21.json at the default samples."""
    prob = ProblemData(2, 1, [Weight(2, 1, (1, 1, 0))] * 3, points=[0, 1, 2])
    seed = BethePoint(prob, ParitySequence.standard(2, 1), [Poly.one()] * 2)
    return populate(seed, [Q(0), Q(1), Q(2)])


@pytest.mark.parametrize(
    "grow", [lambda: gl31_population(2), rational_gl21_population], ids=["gl31-depth-2", "rational-gl21"]
)
class TestPerParityIdentities:
    """The per-parity formulas against the definitions they replace."""

    def test_admissible_sites_follow_the_ratio_roots(self, grow):
        # reference: k is inadmissible when z_k is a root of some
        # non-constant ratio polynomial and of the matching y_i
        for point in grow().points():
            ratios = point.problem.parity_data(point.parity).ratios
            expected = [
                k
                for k, z in enumerate(point.problem.points, start=1)
                if not any(
                    rp.degree > 0 and rp(z) == 0 and point.y(i)(z) == 0
                    for i, rp in enumerate(ratios, start=1)
                )
            ]
            assert list(site_eigenvalues(point)) == expected

    def test_fermionic_rhs_is_the_cleared_log_derivative(self, grow):
        for point in grow().points():
            s = point.parity
            data = point.problem.parity_data(s)
            for i in range(1, len(s)):
                if s[i] == s[i + 1]:
                    continue
                left, right = point.y(i - 1), point.y(i + 1)
                arg = RatFun(data.ts[i - 1] * data.ts[i] * left, right)
                expected = log_deriv(arg) * RatFun(data.radicals[i - 1] * left * right)
                if expected.is_zero():
                    with pytest.raises(DegenerateReproduction):
                        fermionic_rhs(point, i)
                else:
                    assert expected == fermionic_rhs(point, i)


class TestReproductionSoundness:
    def test_generic_nodes_pass_criterion(self, worked_population):
        for point in worked_population.points():
            ok, _ = genericity_check(point)
            if ok:
                assert bae_check_criterion(point)

    def test_direct_check_on_rational_roots(self, rational_gl21_problem):
        seed = BethePoint(
            rational_gl21_problem, ParitySequence.standard(2, 1), [Poly.one()] * 2
        )
        pop = populate(seed, [Q(5)])
        from gaudin.rational import rational_roots

        for point in pop.points():
            ok, _ = genericity_check(point)
            if not ok:
                continue
            tlists = []
            rational = True
            for y in point.ys:
                roots, rem = rational_roots(y) if y.degree else ([], Poly.one())
                if rem.degree > 0:
                    rational = False
                    break
                flat = []
                for r, mult in roots:
                    flat.extend([r] * mult)
                tlists.append(flat)
            if rational:
                assert bae_check_direct(point.problem, point.parity, tlists)
