import collections
import json
import random
import weakref
from fractions import Fraction as Q
from functools import cache
from itertools import combinations, cycle, permutations
from pathlib import Path

import pytest

from gaudin import cli, jsonio, skew, spaces
from gaudin.bethe import (
    BethePoint,
    Population,
    _primitive_pairs,
    populate,
    population_factorization,
    verify_r_invariance,
)
from gaudin.cli import main
from gaudin.errors import (
    AtypicalUnsupported,
    CriterionFailed,
    EngineError,
    InternalInconsistency,
    InvalidFlag,
    InvalidInput,
    NotGeneric,
    TheoremViolation,
    UnsupportedIrrationalRamification,
)
from gaudin.linalg import rank
from gaudin.rational import Poly, RatFun, _poly, coprime_basis, log_deriv, order_at_place, poly_gcd, wronskian
from gaudin.skew import CompleteFactorization, refactor_to_parity
from gaudin.spaces import (
    RationalSpace,
    SuperFlag,
    _generic_order,
    flag_factorization,
    flag_from_factorization,
    flag_polynomial,
    generating_map,
    generating_tuple,
    is_gl_space,
    kernel_spaces,
    space_weight_polys,
    verify_operator_to_population,
)
from gaudin.weights import ParitySequence, ProblemData, Weight, collision_poly

X = Poly.x()
POLES = [X, X - 1, X + 2, X**2 + 1]
GOLDEN = Path(__file__).parent / "golden"


@cache
def golden_population(name, samples, max_depth):
    data = json.loads((GOLDEN / name).read_text())
    seed = jsonio.point_from_json(jsonio.problem_from_json(data["problem"]), data["seed"])
    return populate(seed, samples, max_depth=max_depth)


# the population of every `space` recording
GOLDEN_SPACE_RUNS = {
    "worked-gl21": ("worked_gl21.json", (0, 1, 2), 16),
    "rational-gl21": ("rational_gl21.json", (0, 1, 2), 16),
    "rational-gl21-1e50": ("rational_gl21_point_1e50.json", (0, 1, 2), 3),
    "gl31": ("gl31.json", (-6, -5, 1), 3),
    "gl22": ("gl22.json", (0, 1, 2), 4),
    "gl22-pole": ("gl22_pole.json", (0, 1, 2), 4),
    "gl13": ("gl13.json", (0, 1, 2), 3),
    "gl32": ("gl32.json", (0, 1, 2), 3),
    "gl22-even-pole": ("gl22_even_pole.json", (0, 1, 2), 4),
    "gl13-even-pole": ("gl13_even_pole.json", (0, 1, 2), 3),
    "gl11-even-pole": ("gl11_even_pole.json", (0, 1, 2), 3),
}
# spaces for the random flags: W is read off the seed, so depth 0 suffices.
# The even-pole ones have a standard-parity seed with nonconstant y_M, the
# even part's denominator; "gl22-pole" has a pole in U only.
ORACLE_SPACES = (
    "worked-gl21",
    "rational-gl21",
    "gl31",
    "gl22",
    "gl22-pole",
    "gl13",
    "gl32",
    "gl20",
    "gl22-even-pole",
    "gl13-even-pole",
    "gl11-even-pole",
    "gl21-even-pole",
)
# inline seeds: M, N, weights at the points 0 and 1, and ys at the standard
# parity; 1/2 is the root of (x(x - 1))', as in gl11_even_pole.json
INLINE_SEEDS = {
    "gl20": (2, 0, [(2, 0), (1, 0)], [Poly.one()]),
    "gl21-even-pole": (2, 1, [(1, 1, 0), (1, 1, 0)], [Poly.one(), X - Q(1, 2)]),
}


@cache
def oracle_space(name):
    if name in INLINE_SEEDS:
        m, n, coords, ys = INLINE_SEEDS[name]
        prob = ProblemData(m, n, [Weight(m, n, c) for c in coords], points=[0, 1])
        seed = BethePoint(prob, ParitySequence.standard(m, n), ys)
        return kernel_spaces(populate(seed, [0], max_depth=0))
    file, samples, _ = GOLDEN_SPACE_RUNS[name]
    return kernel_spaces(golden_population(file, samples, 0))


def cleared_rank(*bases):
    """Rank of the families of all the bases, cleared by one common denominator."""
    fams = [f for basis in bases for f in basis]
    den = Poly.one()
    for f in fams:
        den = den * f.den
    rows = [(f * RatFun(den)).as_poly() for f in fams]
    width = max(p.degree for p in rows) + 1
    return rank([list(p.coeffs) + [Q(0)] * (width - len(p.coeffs)) for p in rows])


def rand_num(rng):
    while True:
        num = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        if not num.is_zero():
            return num


def rand_den(rng):
    den = Poly.one()
    for pl in rng.sample(POLES, rng.randint(0, 2)):
        den = den * pl ** rng.randint(1, 2)
    return den


def basis_denominator(basis) -> Poly:
    """The monic lcm of a basis's denominators."""
    den = Poly.one()
    for f in basis:
        den = den * f.den.exact_div(poly_gcd(den, f.den))
    return den


def cleared_basis_is_gl_space(space):
    """Reference membership test: the exponents of the even and odd parts
    cleared by their denominators are computed from the cleared bases."""
    m, n = space.m, space.n
    places, od = space.places, space.odd_exponents
    pv, pu = basis_denominator(space.vbasis), basis_denominator(space.ubasis)
    failures = []
    ratio = RatFun(pu) / RatFun(pv)
    if not ratio.is_polynomial():
        failures.append("denominator ratio is not a polynomial")
    elif pv.degree > 0 and ratio.as_poly().degree > 0:
        if poly_gcd(ratio.as_poly(), pv).degree > 0:
            failures.append("denominator ratio shares a root with the even denominator")
    if m >= 2:
        vbar = [f * RatFun(pv) for f in space.vbasis]
        t = RatFun.one()
        for pl in places:
            t = t * RatFun(pl) ** (exponents(vbar, pl)[1] - 1)
        if not (t / RatFun(pv)).is_polynomial():
            failures.append("second even staircase entry not divisible by the denominator")
    if n:
        t = RatFun.one()
        for pl in places:
            t = t * RatFun(pl) ** (n - 1 - od[pl][n - 1])
        if not t.is_polynomial():
            failures.append("top odd exponent exceeds its staircase bound")
    if n >= 2:
        ubar = [f * RatFun(pu) for f in space.ubasis]
        for i in range(2, n + 1):
            for pl in places:
                e = -exponents(ubar, pl)[i - 1] + (i - 1)
                if e > 0 and (not ratio.is_polynomial() or order_at_place(ratio, pl) <= 0):
                    failures.append(
                        f"odd staircase zero at {pl.to_str()} not matched by the denominator ratio"
                    )
    if m and n and pv.degree > 0:
        for pl in places:
            if order_at_place(RatFun(pv), pl) <= 0:
                continue
            for v in space.vbasis:
                for u in space.ubasis:
                    w = wronskian([v, u]) * RatFun(pv)
                    if not w.is_zero() and order_at_place(w, pl) < 0:
                        failures.append(f"pair Wronskian stays singular at {pl.to_str()}")
    return (not failures, failures)


def staircase(table, j: int, sign: int) -> RatFun:
    """Product over the places of place^(sign * (e_j - j)), e_j the 0-based
    j-th exponent of each ladder in the table."""
    out = RatFun.one()
    for pl, ladder in table.items():
        out = out * RatFun(pl) ** (sign * (ladder[j] - j))
    return out


def staircase_weight_polys(space):
    """Reference weight polynomials, assembled from ``RatFun`` staircases:
    the even staircases with the last one times the even denominator pv,
    the denominator ratio pu / pv, then the odd staircases.  pv and pu are
    the lcms of the two bases' denominators."""
    m, n = space.m, space.n
    ev, od = space.even_exponents, space.odd_exponents
    pv, pu = RatFun(basis_denominator(space.vbasis)), RatFun(basis_denominator(space.ubasis))
    out = [staircase(ev, m - i, 1).as_poly() for i in range(1, m)]
    if m:
        out.append((staircase(ev, 0, 1) * pv).as_poly())
    if n:
        out.append((pu / pv).as_poly())
        out += [staircase(od, i - 1, -1).as_poly() for i in range(2, n + 1)]
    return tuple(p.monic() for p in out)


def as_place(place) -> Poly:
    """A place given as a point or as a polynomial, as a monic polynomial."""
    if isinstance(place, Poly):
        return place.monic()
    return Poly((-Q(place), 1))


def exponents(basis, place) -> list[int]:
    """The ``RatFun`` oracle of a space's integer exponent table: the
    strictly increasing vanishing orders a basis realizes at a place, from
    the minimum over its k-subsets S of the order of wronskian(S) there."""
    place = as_place(place)
    by_size = [[wronskian(s) for s in combinations(basis, k)] for k in range(1, len(basis) + 1)]
    if any(w.is_zero() for ws in by_size for w in ws):
        raise InvalidFlag("dependent basis in exponent computation")
    mins = [0] + [min(order_at_place(w, place) for w in ws) for ws in by_size]
    ladder = [mins[k] - mins[k - 1] + (k - 1) for k in range(1, len(mins))]
    if any(a >= b for a, b in zip(ladder, ladder[1:])):
        raise UnsupportedIrrationalRamification(f"inconsistent exponent ladder at place {place.to_str()}")
    return ladder


def oracle_places(space) -> list[Poly]:
    """The coprime refinement of the numerators and denominators of the
    ``RatFun`` Wronskians of a space's even and odd subsets and even/odd
    pairs, with its problem's points."""
    ws = [wronskian([v, u]) for v in space.vbasis for u in space.ubasis]
    for part in (space.vbasis, space.ubasis):
        ws += [wronskian(s) for k in range(1, len(part) + 1) for s in combinations(part, k)]
    polys = [p for w in ws for p in (w.num, w.den)]
    if space.problem is not None and space.problem.points is not None:
        polys += [as_place(z) for z in space.problem.points]
    return coprime_basis(polys)


def table_or_error(table):
    """``table()``, or the class of the engine error it raised."""
    try:
        return table()
    except EngineError as exc:
        return type(exc)


def table_and_oracle(space):
    """(the space's, the oracle's) even and odd exponent tables, each one or
    the class of the error it raised, then, when neither of the space's
    raised, the pole orders (c_V, c_U) at each place; the oracle's are the
    largest pole orders of the members of each part there."""
    bases = (space.vbasis, space.ubasis)
    got = [table_or_error(lambda: space.even_exponents), table_or_error(lambda: space.odd_exponents)]
    want = [table_or_error(lambda b=b: {pl: exponents(b, pl) for pl in space.places} if b else {}) for b in bases]
    if all(isinstance(t, dict) for t in got):
        got.append(space.pole_orders)
        want.append({pl: tuple(max([0] + [-order_at_place(f, pl) for f in b]) for b in bases) for pl in space.places})
    return got, want


def count_ratfun_wronskians(monkeypatch):
    """The number of members of each ``RatFun`` Wronskian computed: each
    `rational.wronskian` call takes its det from the rational module's own
    `_wronskian_ints`, which no other module reaches through that name."""
    import gaudin.rational

    calls = []
    wr = gaudin.rational._wronskian_ints
    monkeypatch.setattr(gaudin.rational, "_wronskian_ints", lambda cols: calls.append(len(cols)) or wr(cols))
    return calls


def basis_change_invariance(basis, place, trials, rng) -> bool:
    """Exponent sets are invariant under random invertible recombination."""
    base = exponents(basis, place)
    d = len(basis)
    for _ in range(trials):
        mat = [[Q(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if rank(mat) != d:
            continue
        new_basis = []
        for row in mat:
            f = RatFun.zero()
            for c, b in zip(row, basis):
                f = f + RatFun(Poly.const(c)) * b
            new_basis.append(f)
        if exponents(new_basis, place) != base:
            return False
    return True


class TestExponents:
    def test_polynomials_at_zero(self):
        assert exponents([Poly.one(), X], Q(0)) == [0, 1]

    def test_pole(self):
        assert exponents([RatFun(Poly.one(), X), RatFun.one()], Q(0)) == [-1, 0]

    def test_elimination_needed(self):
        assert exponents([X, X + X**2], Q(0)) == [1, 2]

    def test_nonlinear_place(self):
        # both elements vanish to first order along x^2+x+1; the second
        # exponent only appears after an extension-field recombination
        q = X**2 + X + 1
        assert exponents([q, X * q], q) == [1, 2]

    def test_basis_change_invariance(self):
        rng = random.Random(71)
        basis = [RatFun(X**2), RatFun(X**3 + X**2), RatFun(Poly.one(), X)]
        assert basis_change_invariance(basis, Q(0), 8, rng)

    def test_clearing_shifts_every_exponent(self):
        # g multiplies each k-subset Wronskian by g^k
        rng = random.Random(83)
        checked = 0
        while checked < 20:
            basis = [RatFun(rand_num(rng), rand_den(rng)) for _ in range(rng.randint(1, 3))]
            if wronskian(basis).is_zero():
                continue
            g = rand_num(rng) * rand_den(rng)
            for pl in POLES:
                shifted = [e + order_at_place(g, pl) for e in exponents(basis, pl)]
                assert exponents([RatFun(g) * f for f in basis], pl) == shifted
            checked += 1

    def test_subset_wronskians_computed_once_per_space(self, worked_population, monkeypatch):
        calls = count_int_wronskians(monkeypatch)
        ratfun = count_ratfun_wronskians(monkeypatch)
        space = kernel_spaces(worked_population)
        space_weight_polys(space)
        is_gl_space(space)
        # one integer table: 2^2 - 1 + 2^1 - 1 subset and 2 pair Wronskians
        assert len(calls) == 6 and ratfun == []
        assert not hasattr(spaces, "wronskian") and not hasattr(spaces, "order_at_place")


class TestExponentTableOracle:
    """The places, exponent ladders and pole orders read off the space's
    integer Wronskian table, against the ``RatFun`` Wronskians' orders."""

    @pytest.mark.parametrize("name", GOLDEN_SPACE_RUNS)
    def test_golden_spaces(self, name):
        space = oracle_space(name)
        assert space.places == oracle_places(space)
        got, want = table_and_oracle(space)
        assert got == want and len(got) == 3

    def test_seeded_spaces(self):
        outcomes = collections.Counter()
        for space in seeded_spaces():
            assert space.places == oracle_places(space)
            got, want = table_and_oracle(space)
            assert got == want
            if len(got) == 2:
                outcomes["raised"] += 1
            else:
                outcomes[any(cv or cu for cv, cu in got[2].values())] += 1
        assert set(outcomes) == {"raised", True, False}


class TestSpaceWeightPolys:
    def test_trivial_polynomial_space(self):
        space = RationalSpace([Poly.one(), X], [])
        assert space_weight_polys(space) == [Poly.one(), Poly.one()]

    def test_worked_example(self, worked_population, worked_problem):
        space = kernel_spaces(worked_population)
        tw = space_weight_polys(space)
        assert tw == [t.monic() for t in worked_problem.ts_standard]

    def test_gl11_kernel(self):
        prob = ProblemData(1, 1, [Weight(1, 1, (2, 1))], points=[0])
        seed = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        pop = populate(seed, [Q(1)])
        space = kernel_spaces(pop)
        assert space_weight_polys(space) == [t.monic() for t in prob.ts_standard]

    @pytest.mark.parametrize("name", dict.fromkeys([*GOLDEN_SPACE_RUNS, *ORACLE_SPACES]))
    def test_kernel_spaces_match_the_staircases(self, name):
        # W is read off the seed, so each golden run's space is its seed's
        space = oracle_space(name)
        assert space.weight_polys == staircase_weight_polys(space)

    def test_seeded_spaces_match_the_staircases(self):
        # the same polynomials, or an InternalInconsistency from both
        outcomes = collections.Counter()
        for space in seeded_spaces():
            try:
                space.even_exponents, space.odd_exponents
            except InvalidFlag:
                continue
            try:
                want = staircase_weight_polys(space)
            except InternalInconsistency:
                with pytest.raises(InternalInconsistency):
                    space.weight_polys
                outcomes["raised"] += 1
                continue
            assert space.weight_polys == want
            outcomes[basis_denominator(space.vbasis).degree > 0] += 1
        assert set(outcomes) == {"raised", True, False}

    @pytest.mark.parametrize("name", ["worked-gl21", "gl22-even-pole", "gl32"])
    def test_no_gcd_once_the_ladders_are_read(self, name, monkeypatch):
        # the weight polynomials and the membership test are integer work
        # on the exponent ladders and pole orders
        import gaudin.rational

        cached = oracle_space(name)
        space = RationalSpace(cached.vbasis, cached.ubasis, problem=cached.problem)
        space.even_exponents, space.odd_exponents
        calls = []
        gcd = gaudin.rational.poly_gcd
        monkeypatch.setattr(gaudin.rational, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        assert space.weight_polys == cached.weight_polys
        assert is_gl_space(space) == (True, [])
        assert calls == []


class TestKernelSpaces:
    def test_worked_example_bases(self, worked_population):
        space = kernel_spaces(worked_population)
        assert space.m == 2 and space.n == 1
        # the even part is (x^3 - 1) times the polynomials of degree <= 1
        v0, v1 = space.vbasis
        assert (v0 / RatFun(X**3 - 1)).is_polynomial()
        assert (v1 / RatFun(X**3 - 1)).is_polynomial()
        assert space.ubasis[0] == RatFun.one()

    def test_gl20_reduction(self):
        prob = ProblemData(2, 0, [Weight(2, 0, (1, 0))], points=[0])
        seed = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        pop = populate(seed, [Q(1)])
        space = kernel_spaces(pop)
        assert space.n == 0
        for f in space.vbasis:
            assert f.is_polynomial()

    def test_atypical_rejected(self):
        prob = ProblemData(1, 1, [Weight(1, 1, (0, 0))], points=[0])
        seed = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        pop = populate(seed, [Q(1)])
        with pytest.raises(AtypicalUnsupported):
            kernel_spaces(pop)

    def test_direct_sum_check(self, worked_population):
        # on the integer vectors of each space's cleared family
        space = kernel_spaces(worked_population)
        v0, v1 = space.vbasis
        spaces._assert_direct_sum(space.family.ints)
        for ubasis in [(v1,), (v0 * Q(3, 7) - v1 * Q(10**30 + 1, 2),)]:
            with pytest.raises(AtypicalUnsupported):
                spaces._assert_direct_sum(RationalSpace(space.vbasis, ubasis).family.ints)
        # members with poles, cleared over x(x - 1)
        a, b = RatFun(1, X), RatFun(Q(1, 3), X - 1)
        spaces._assert_direct_sum(RationalSpace([a, b], [RatFun.one()]).family.ints)
        with pytest.raises(AtypicalUnsupported):
            spaces._assert_direct_sum(RationalSpace([a, b], [a + b * 5]).family.ints)

    def test_empty_population_rejected(self, worked_problem):
        with pytest.raises(InvalidInput):
            kernel_spaces(Population(worked_problem))

    def test_chain_checked_against_the_seed_operator(self, worked_population, monkeypatch):
        # a chain one element longer than the order of A
        build = spaces.rational_kernel
        monkeypatch.setattr(spaces, "rational_kernel", lambda prims: build(prims) + [RatFun(X**5)])
        with pytest.raises(InternalInconsistency):
            kernel_spaces(worked_population)

    @pytest.mark.parametrize(
        "name, samples, depth",
        [
            ("worked_gl21.json", (0, 1, 2), 16),
            ("rational_gl21.json", (0, 1, 2), 16),
            ("gl22.json", (0, 1, 2), 4),
            ("gl31.json", (-6, -5, 1), 3),
        ],
        ids=["worked-gl21", "rational-gl21", "gl22-depth-4", "gl31-depth-3"],
    )
    def test_space_does_not_depend_on_the_seed(self, name, samples, depth):
        # every generic node, taken as the seed, gives the same W
        pop = golden_population(name, samples, depth)
        space = kernel_spaces(pop)
        standard = ParitySequence.standard(space.m, space.n)
        reseeded = nonstandard = 0
        for point in pop.points():
            try:
                alone = populate(point, [0], max_depth=0)
            except (NotGeneric, CriterionFailed):
                continue
            other = kernel_spaces(alone)
            assert space_weight_polys(other) == space_weight_polys(space)
            assert cleared_rank(space.vbasis, other.vbasis) == space.m
            assert cleared_rank(space.ubasis, other.ubasis) == space.n
            verify_operator_to_population(alone, other)
            reseeded += 1
            nonstandard += point.parity != standard
        assert reseeded > nonstandard > 0


def seeded_spaces():
    """41 spaces with random bases over random denominators, the odd one
    mostly a multiple of the even one, and one whose even part vanishes
    along an irreducible quadratic."""
    rng = random.Random(3)
    out = []
    for _ in range(40):
        dv = rand_den(rng)
        du = dv * rand_den(rng) if rng.random() < 0.7 else rand_den(rng)
        vs = [RatFun(rand_num(rng), dv) for _ in range(rng.randint(1, 2))]
        out.append(RationalSpace(vs, [RatFun(rand_num(rng), du) for _ in range(rng.randint(1, 2))]))
    q = X**2 + X + 1
    out.append(RationalSpace([q, X * q], [RatFun(Poly.one(), q)]))
    return out


class TestIsGlSpace:
    def test_polynomial_pair(self):
        space = RationalSpace([X, X**2 + 1], [Poly.one()])
        ok, failures = is_gl_space(space)
        assert ok, failures

    def test_odd_exponent_bound(self):
        # an odd part vanishing to second order breaks the staircase bound
        space = RationalSpace([Poly.one(), X], [X**2])
        ok, failures = is_gl_space(space)
        assert not ok

    def test_kernel_space_passes(self, worked_population):
        space = kernel_spaces(worked_population)
        ok, failures = is_gl_space(space)
        assert ok, failures

    def test_unmatched_poles_fail(self):
        space = RationalSpace(
            [RatFun(Poly.one(), X)], [RatFun(Poly.one(), X**2)]
        )
        ok, failures = is_gl_space(space)
        assert not ok

    def test_agrees_with_cleared_bases(self):
        seen = set()
        for space in seeded_spaces():
            try:
                got = is_gl_space(space)
            except InvalidFlag:
                with pytest.raises(InvalidFlag):
                    cleared_basis_is_gl_space(RationalSpace(space.vbasis, space.ubasis))
                continue
            assert got == cleared_basis_is_gl_space(RationalSpace(space.vbasis, space.ubasis))
            seen.add(got[0])
            seen.update(f.split(" at ")[0] for f in got[1])
            seen.add(("pv", basis_denominator(space.vbasis).degree > 0))
            seen.add(("pu", basis_denominator(space.ubasis).degree > 0))
        # the odd staircase condition cannot fail: a strictly increasing
        # ladder cleared of its poles has its i-th exponent >= i - 1
        assert seen == {
            True,
            False,
            ("pv", True),
            ("pv", False),
            ("pu", True),
            ("pu", False),
            "denominator ratio is not a polynomial",
            "denominator ratio shares a root with the even denominator",
            "second even staircase entry not divisible by the denominator",
            "top odd exponent exceeds its staircase bound",
            "pair Wronskian stays singular",
        }

    def test_reads_cached_ladders(self, worked_population, monkeypatch):
        space = kernel_spaces(worked_population)
        poles = RationalSpace(
            [RatFun(Poly.one(), X), RatFun(X + 1, X**2)], [RatFun(X, (X - 1) * X**2), RatFun.one()]
        )
        calls = count_int_wronskians(monkeypatch)
        for sp in (space, poles):
            sp.even_exponents, sp.odd_exponents
        # the table of each: 3 + 1 subset and 2 pair dets, 3 + 3 and 4
        assert len(calls) == 6 + 10
        calls.clear()
        is_gl_space(space)
        assert calls == []
        # the pair Wronskians too come from the table the ladders were read from
        is_gl_space(poles)
        assert basis_denominator(poles.vbasis).degree > 0
        assert calls == []

    def test_pair_condition_extends_bilinearly(self, worked_population):
        # the pair-regularity condition, checked on basis pairs, holds for
        # random combinations as well
        rng = random.Random(404)
        space = kernel_spaces(worked_population)
        from gaudin.rational import order_at_place

        places = space.places
        pv = basis_denominator(space.vbasis)
        for _ in range(6):
            v = sum(
                (RatFun.const(rng.randint(-3, 3)) * b for b in space.vbasis),
                RatFun.zero(),
            )
            u = sum(
                (RatFun.const(rng.randint(-3, 3)) * b for b in space.ubasis),
                RatFun.zero(),
            )
            if v.is_zero() or u.is_zero():
                continue
            w = wronskian([v, u]) * RatFun(pv)
            if w.is_zero():
                continue
            for pl in places:
                if pv.degree > 0 and order_at_place(RatFun(pv), pl) > 0:
                    assert order_at_place(w, pl) >= 0


class TestInterleave:
    """Position i of the homogeneous basis takes v_(s_i^+ + 1) or u_(s_i^- + 1)."""

    @staticmethod
    def interleaved(s):
        return [
            f"v{s.ones_after(i) + 1}" if s[i] == 1 else f"u{s.minus_before(i) + 1}"
            for i in range(1, len(s) + 1)
        ]

    def test_paper_example(self):
        s = ParitySequence((1, -1, -1, 1, 1, -1, 1, -1))
        assert self.interleaved(s) == ["v4", "u1", "u2", "v3", "v2", "u3", "v1", "u4"]

    def test_standard(self):
        assert self.interleaved(ParitySequence.standard(2, 1)) == ["v2", "v1", "u1"]

    def test_even_only_reversed(self):
        assert self.interleaved(ParitySequence.standard(3, 0)) == ["v3", "v2", "v1"]


class TestFlagPolynomialAndGeneratingMap:
    def test_empty_wronskian(self, worked_population):
        space = kernel_spaces(worked_population)
        flag = SuperFlag(ParitySequence.standard(2, 1), space.vbasis, space.ubasis)
        assert flag_polynomial(space, flag, 0, 0) == Poly.one()

    def test_full_flag_datum(self, worked_population):
        # the top Wronskian datum is a polynomial and flag independent;
        # here it is the first entry of the fully swapped component
        space = kernel_spaces(worked_population)
        flag = SuperFlag(ParitySequence.standard(2, 1), space.vbasis, space.ubasis)
        top = flag_polynomial(space, flag, space.m, space.n)
        assert top == (2 * X**4 + X).monic()
        other = SuperFlag(
            ParitySequence.standard(2, 1),
            (space.vbasis[1], space.vbasis[0] + space.vbasis[1]),
            space.ubasis,
        )
        assert flag_polynomial(space, other, space.m, space.n) == top

    def test_gl20_full_flag_datum_constant(self):
        # in the even-only reduction the top datum degenerates to a constant
        prob = ProblemData(2, 0, [Weight(2, 0, (2, 0)), Weight(2, 0, (1, 0))], points=[0, 1])
        seed = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        pop = populate(seed, [Q(3)])
        space = kernel_spaces(pop)
        flag = SuperFlag(ParitySequence.standard(2, 0), space.vbasis, [])
        assert flag_polynomial(space, flag, 2, 0) == Poly.one()

    def test_places_detected_once_per_space(self, worked_population, monkeypatch):
        import gaudin.spaces

        space = kernel_spaces(worked_population)
        flag = SuperFlag(ParitySequence.standard(2, 1), space.vbasis, space.ubasis)
        calls = []
        detect = gaudin.spaces.detect_places
        monkeypatch.setattr(
            gaudin.spaces, "detect_places", lambda *args: calls.append(args) or detect(*args)
        )
        assert len(generating_tuple(space, flag)) == 2
        generating_tuple(space, flag)
        assert calls == [(space,)]

    def test_seed_recovered(self, worked_population, worked_seed):
        space = kernel_spaces(worked_population)
        flag = SuperFlag(ParitySequence.standard(2, 1), space.vbasis, space.ubasis)
        assert generating_map(space, flag) == worked_seed

    def test_gl20_standard_flag(self):
        prob = ProblemData(2, 0, [Weight(2, 0, (1, 0))], points=[0])
        seed = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        pop = populate(seed, [Q(1)])
        space = kernel_spaces(pop)
        flag = SuperFlag(ParitySequence.standard(2, 0), space.vbasis, [])
        assert generating_map(space, flag) == seed

    def test_flag_scaling_invariance(self, worked_population):
        space = kernel_spaces(worked_population)
        v1, v2 = space.vbasis
        flag_a = SuperFlag(ParitySequence.standard(2, 1), (v1, v2), space.ubasis)
        flag_b = SuperFlag(
            ParitySequence.standard(2, 1), (3 * RatFun.one() * v1, v2 + v1), space.ubasis
        )
        assert generating_tuple(space, flag_a) == generating_tuple(space, flag_b)


def collision_flag_polynomial(space: RationalSpace, flag: SuperFlag, a: int, b: int) -> Poly:
    """Monic polynomial from the (a, b) partial Wronskian of a flag.

    The Wronskian of the first a even and first b odd flag members, cleared
    by the collision correction and the space's weight polynomials, is a
    polynomial whenever the space satisfies the membership conditions.  It
    is found by one exact division: the Wronskian's numerator times the
    collision, even-denominator and odd weight polynomials, over its
    denominator times the first a even weight polynomials.
    """
    tw = space.weight_polys
    m, n = space.m, space.n
    members = flag.vorder[:a] + flag.uorder[:b]
    w = wronskian(members) if members else RatFun.one()
    if w.is_zero():
        raise InvalidFlag("dependent flag members")
    num = w.num * collision_poly(tw, m, n, a, b) * basis_denominator(space.vbasis)
    for j in range(1, b + 1):
        num = num * tw[m + j - 1]
    den = w.den
    for j in range(0, a):
        den = den * tw[m - 1 - j]
    val = num.try_exact_div(den)
    if val is None:
        raise InternalInconsistency(f"flag polynomial is not polynomial at ({a},{b})")
    return val.monic()


def outcome(route, space, flag, a, b):
    """The route's polynomial, or the class of the engine error it raised."""
    try:
        return route(space, flag, a, b)
    except EngineError as exc:
        return type(exc)


def upper_unitriangular(basis, rng):
    """Member i plus a combination of the later members, coefficients in [-3, 3]."""
    return tuple(sum((rng.randint(-3, 3) * g for g in basis[i + 1 :]), f) for i, f in enumerate(basis))


def random_flags(space, rng):
    """Flags on every ordering of the V and U bases and on two unitriangular
    recombinations of each ordering.  `flag_polynomial` reads no parity, so
    the parities are dealt out in turn, each at least once."""
    bases = []
    for vs in permutations(space.vbasis):
        for us in permutations(space.ubasis):
            bases.append((vs, us))
            for _ in range(2):
                bases.append((upper_unitriangular(vs, rng), upper_unitriangular(us, rng)))
    parities = ParitySequence.all_sequences(space.m, space.n)
    assert len(bases) >= len(parities)
    return [SuperFlag(s, vs, us) for s, (vs, us) in zip(cycle(parities), bases)]


class TestFlagPolynomialOracle:
    """The generating map's entries read off the exponent table against the
    collision route through the space's weight polynomials."""

    @pytest.mark.parametrize("name", GOLDEN_SPACE_RUNS)
    def test_every_golden_node_entry(self, name):
        pop = golden_population(*GOLDEN_SPACE_RUNS[name])
        space = kernel_spaces(pop)
        for point in pop.points():
            flag = flag_from_factorization(space, population_factorization(point))
            for i in range(1, len(flag.parity)):
                a, b = flag.parity.partials[i]
                got = flag_polynomial(space, flag, a, b)
                assert got == collision_flag_polynomial(space, flag, a, b) == point.ys[i - 1]

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_random_flags(self, name):
        space = oracle_space(name)
        for flag in random_flags(space, random.Random(23)):
            for a in range(space.m + 1):
                for b in range(space.n + 1):
                    expected = outcome(collision_flag_polynomial, space, flag, a, b)
                    assert outcome(flag_polynomial, space, flag, a, b) == expected, (flag, a, b)

    def test_oracle_spaces_cover_even_poles(self):
        poles = [name for name in ORACLE_SPACES if basis_denominator(oracle_space(name).vbasis) != Poly.one()]
        assert poles == ["gl22-even-pole", "gl13-even-pole", "gl11-even-pole", "gl21-even-pole"]

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_weight_polys_are_generic_order_steps(self, name):
        # TW entry i is the drop of the divisor order from the (i-1)-th to
        # the i-th partial flag at the standard parity; the even
        # denominator's -c cancels in every drop, and its lifts enter the
        # last even drop and the first odd one
        space = oracle_space(name)
        s = ParitySequence.standard(space.m, space.n)
        for i in range(1, space.m + space.n + 1):
            outer, inner = s.partials[i - 1], s.partials[i]
            step = RatFun.one()
            for pl in space.places:
                drop = _generic_order(space, pl, *outer) - _generic_order(space, pl, *inner)
                step = step * RatFun(pl) ** drop
            assert step.is_polynomial()
            assert space.weight_polys[i - 1] == step.as_poly().monic()


class TestFlagFactorization:
    def test_single_even_line(self):
        g = RatFun(X**2 + 1)
        space = RationalSpace([g], [])
        flag = SuperFlag(ParitySequence.standard(1, 0), [g], [])
        fac = flag_factorization(space, flag)
        from gaudin.rational import log_deriv

        assert fac.coefficients == (log_deriv(g),)

    def test_matches_population_factorization(self, worked_population):
        space = kernel_spaces(worked_population)
        for point in worked_population.points():
            fac = population_factorization(point)
            flag = flag_from_factorization(space, fac)
            assert flag_factorization(space, flag).coefficients == fac.coefficients

    def test_swap_consistency(self, worked_population):
        # factorizing an adjacent-parity flag agrees with the exchange move
        space = kernel_spaces(worked_population)
        s0 = ParitySequence.standard(2, 1)
        flag = SuperFlag(s0, space.vbasis, space.ubasis)
        fac0 = flag_factorization(space, flag)
        s1 = s0.swapped(2)
        flag1 = SuperFlag(s1, space.vbasis, space.ubasis)
        fac1 = flag_factorization(space, flag1)
        assert refactor_to_parity(fac0, s1).coefficients == fac1.coefficients


    def test_flag_wronskians_built_once(self, worked_population, monkeypatch):
        # each partial's integer Wronskian, once per flag, over the
        # generating map and the factorization together
        space = kernel_spaces(worked_population)
        space.weight_polys  # the space's own Wronskians, computed before counting
        s = ParitySequence((1, -1, 1))
        flag = SuperFlag(s, space.vbasis, space.ubasis)
        calls = count_int_wronskians(monkeypatch)
        generating_tuple(space, flag)
        flag_factorization(space, flag)
        assert sorted(calls) == sorted(partial_columns(flag, ab) for ab in set(s.partials) - {(0, 0)})

    def test_fermionic_carried_flag_reuses_its_parents_dets(self, worked_population, monkeypatch):
        space = kernel_spaces(worked_population)
        s = ParitySequence((1, -1, 1))
        flag = SuperFlag(s, space.vbasis, space.ubasis)
        calls = count_int_wronskians(monkeypatch)
        generating_tuple(space, flag)
        flag_factorization(space, flag)
        parents = set(calls)
        for i in (1, 2):
            calls.clear()
            child = spaces._carried_flag(space, flag, i, None)
            assert child.parity == s.swapped(i)
            generating_tuple(space, child)
            flag_factorization(space, child)
            # only the one partial the swap changes is new, and (0, 0) needs none
            new = child.parity.partials[i]
            assert calls == ([partial_columns(child, new)] if new != (0, 0) else [])
            assert not parents & set(calls)

    def test_bosonic_carried_flag_recomputes_only_moved_partials(self, monkeypatch):
        pop = golden_population(*GOLDEN_SPACE_RUNS["gl32"])
        space = kernel_spaces(pop)
        flags = dict(spaces._node_flags(space, pop))
        calls = count_int_wronskians(monkeypatch)
        moves = collections.Counter()
        for edge in spaces.discovery_edges(pop):
            parent, i = flags[edge.source], edge.direction
            s = parent.parity
            # three even and three odd moves
            if s[i] != s[i + 1] or moves[s[i]] == 3:
                continue
            grid = [(a, b) for a in range(space.m + 1) for b in range(space.n + 1)]
            for ab in grid:
                parent.det(*ab)
            child = spaces._carried_flag(space, parent, i, pop.nodes[edge.target].y(i))
            # the partials that hold the moved member, the a-th even or b-th odd
            side, k = (0, s.partials[i][0]) if s[i] == 1 else (1, s.partials[i][1])
            fresh = SuperFlag(child.parity, child.vorder, child.uorder)
            recomputed = set()
            for ab in grid:
                calls.clear()
                got = child.det(*ab)
                if calls:
                    recomputed.add(ab)
                # the same Wronskian W(a, b) over each flag's own d
                assert _poly(got, 1) * fresh.den ** sum(ab) == _poly(fresh.det(*ab), 1) * child.den ** sum(ab)
            assert recomputed == {ab for ab in grid if ab[side] >= k}
            moves[s[i]] += 1
        assert moves == {1: 3, -1: 3}

    def test_depth_5_walk_builds_only_the_space_table(self, monkeypatch):
        # no RatFun Wronskian: the space's table is 2^3 - 1 even and 2^2 - 1
        # odd subset dets and 3 * 2 pairs, and every flag Wronskian is an
        # integer one too
        pop = golden_population("gl32.json", (0, 1, 2), 5)
        calls = count_ratfun_wronskians(monkeypatch)
        int_calls = count_int_wronskians(monkeypatch)
        alive, peak = weakref.WeakSet(), [0]
        carried = spaces._carried_flag

        def tracked(*args):
            flag = carried(*args)
            alive.add(flag)
            peak[0] = max(peak[0], len(alive))
            return flag

        monkeypatch.setattr(spaces, "_carried_flag", tracked)
        verify_operator_to_population(pop)
        assert calls == []
        assert len(pop.nodes) == 1992
        # each node is checked before its children are carried, so a child
        # keeps every det of its parent that its move leaves alone
        assert len(int_calls) == 16 + 4500
        # a flag is dropped once its children are carried
        assert peak[0] < 0.02 * len(pop.nodes)


def count_int_wronskians(monkeypatch):
    """The columns of each integer Wronskian `spaces` computes, as tuples."""
    calls = []
    wr = spaces._wronskian_ints
    monkeypatch.setattr(spaces, "_wronskian_ints", lambda cols: calls.append(tuple(map(tuple, cols))) or wr(cols))
    return calls


def partial_columns(flag, ab):
    """The integer vectors of the (a, b) partial's members, as a tuple of tuples."""
    a, b = ab
    m = flag.parity.m
    return tuple(map(tuple, flag.ints[:a] + flag.ints[m : m + b]))


def scaled_pair(pairs, slot, top, bottom=1):
    """Primitive pairs with slot's entries multiplied by ``top`` and ``bottom``."""
    out = list(pairs)
    g, h = out[slot]
    out[slot] = (g * top, h * bottom)
    return tuple(out)


def pair_coefficients(parity, pairs):
    """Coefficients of the factorization whose primitive i is pairs[i][0] / pairs[i][1]."""
    return CompleteFactorization.from_primitives(parity, [RatFun(g, h) for g, h in pairs]).coefficients


class TestFlagMatchOracle:
    """Proportional primitives, passed as unreduced polynomial pairs, against
    the retired comparison of the flag factorization's coefficients with the
    node factorization's."""

    @pytest.mark.parametrize("name", GOLDEN_SPACE_RUNS)
    def test_every_golden_node(self, name):
        pop = golden_population(*GOLDEN_SPACE_RUNS[name])
        space = kernel_spaces(pop)
        for k, point in enumerate(pop.points()):
            fac, pairs = population_factorization(point), _primitive_pairs(point)
            assert tuple(RatFun(g, h) for g, h in pairs) == fac.primitives
            flag = flag_from_factorization(space, fac)
            coefficients = flag_factorization(space, flag).coefficients
            slot = k % len(point.parity)
            common = POLES[k % len(POLES)]
            cases = [
                (pairs, True),
                # a factor common to both entries: the pair is not reduced
                (scaled_pair(pairs, slot, common, common), True),
                (scaled_pair(pairs, slot, Q(-3, 2)), True),
                (scaled_pair(pairs, slot, Q(-3, 2) * common, common), True),
                (scaled_pair(pairs, slot, X - 17), False),
                (scaled_pair(pairs, slot, common, common * (X - 17)), False),
            ]
            for other, expected in cases:
                matched = spaces._flag_matches(flag, other)
                assert matched == (coefficients == pair_coefficients(point.parity, other)) == expected


class TestWronskiIdentity:
    def test_random_tuples(self):
        rng = random.Random(2024)
        trials = 0
        while trials < 20:
            fams = [
                RatFun(
                    Poly([rng.randint(-2, 2) for _ in range(3)]),
                    Poly([rng.randint(-2, 2), 1]),
                )
                for _ in range(4)
            ]
            if any(f.is_zero() for f in fams):
                continue
            a, b = 1, 1
            v = fams[: a + 1]
            u = fams[a + 1 :][:b + 1]
            w1 = wronskian(v + u[:b])          # first a+1 even, b odd
            w2 = wronskian(v[:a] + u)          # first a even, b+1 odd
            lhs = wronskian([w1, w2])
            rhs = wronskian(v + u) * wronskian(v[:a] + u[:b])
            assert lhs == rhs
            trials += 1


class TestBijection:
    def test_worked_example(self, worked_population):
        report = verify_operator_to_population(worked_population)
        assert report["space_polys_match"]
        assert len(report["nodes"]) == 12

    def test_gl11_single(self):
        prob = ProblemData(1, 1, [Weight(1, 1, (2, 1)), Weight(1, 1, (1, 0))], points=[0, 1])
        seed = BethePoint(prob, ParitySequence.standard(1, 1), [Poly.one()])
        pop = populate(seed, [Q(2)])
        report = verify_operator_to_population(pop)
        assert report["space_polys_match"]

    def test_gl20_reduction(self):
        prob = ProblemData(2, 0, [Weight(2, 0, (2, 0)), Weight(2, 0, (1, 0))], points=[0, 1])
        seed = BethePoint(prob, ParitySequence.standard(2, 0), [Poly.one()])
        pop = populate(seed, [Q(2), Q(3)], max_depth=3)
        report = verify_operator_to_population(pop)
        assert report["space_polys_match"]

    @staticmethod
    def _scale_node_primitive(monkeypatch, factor):
        """Every node's primitive pairs with the last primitive times the
        rational function ``factor``; the flags are still built from the
        nodes' own primitives."""
        pairs = spaces._primitive_pairs

        def scaled(point):
            out = pairs(point)
            g, h = out[-1]
            return out[:-1] + ((g * factor.num, h * factor.den),)

        monkeypatch.setattr(spaces, "_primitive_pairs", scaled)

    def test_nonconstant_primitive_factor_raises(self, worked_population, monkeypatch):
        space = kernel_spaces(worked_population)
        self._scale_node_primitive(monkeypatch, RatFun(X - 17))
        with pytest.raises(TheoremViolation, match="factorization mismatch"):
            verify_operator_to_population(worked_population, space)

    def test_constant_primitive_factor_passes(self, worked_population, monkeypatch):
        # the primitives need only be proportional
        space = kernel_spaces(worked_population)
        self._scale_node_primitive(monkeypatch, RatFun.const(Q(-3, 2)))
        assert len(verify_operator_to_population(worked_population, space)["nodes"]) == 12

    @pytest.mark.parametrize(
        "run",
        [GOLDEN_SPACE_RUNS[name] for name in ("worked-gl21", "gl13", "gl22-pole", "gl32")]
        + [("worked_gl21_nonstandard_seed.json", (0, 1, 2), 3)],
        ids=["worked-gl21", "gl13", "gl22-pole", "gl32", "nonstandard-seed"],
    )
    def test_one_log_derivative_per_factor_and_exchange(self, run, monkeypatch):
        # none: the seed's flag is the space's family at the seed's parity,
        # whose chains kernel_spaces has transported, and every other flag
        # is carried along an edge, off the standard parity too
        pop = golden_population(*run)
        space = kernel_spaces(pop)
        standard = ParitySequence.standard(space.m, space.n)
        seed, *others = pop.points()
        assert any(p.parity != standard for p in others)
        calls = []
        log_deriv = skew.log_deriv
        monkeypatch.setattr(skew, "log_deriv", lambda f: calls.append(f) or log_deriv(f))
        verify_operator_to_population(pop, space)
        assert calls == []

    def test_kernel_chains_built_once_per_run(self, monkeypatch):
        # the seed's even and odd chains and one transport in kernel_spaces,
        # and none in the walk, not even for the seed
        pop = golden_population(*GOLDEN_SPACE_RUNS["gl32"])
        kernels, transports = [], []
        kernel, transport = spaces.rational_kernel, spaces.transport_primitives
        monkeypatch.setattr(spaces, "rational_kernel", lambda prims: kernels.append(len(prims)) or kernel(prims))
        monkeypatch.setattr(
            spaces, "transport_primitives", lambda *args: transports.append(args) or transport(*args)
        )
        space = kernel_spaces(pop)
        assert kernels == [space.m, space.n] and len(transports) == 1
        for _ in range(2):
            kernels.clear()
            transports.clear()
            verify_operator_to_population(pop, space)
            assert kernels == [] and transports == []
        assert len(pop.nodes) > 100

    def test_space_from_another_node_fails_at_the_seed(self, worked_population, monkeypatch):
        # the same W with another node's flag for its basis: it passes the
        # space checks, and the seed's flag, the family at the seed's
        # parity, is not the seed's
        seed, *others = worked_population.points()
        point = next(p for p in others if p.parity == seed.parity)
        other = kernel_spaces(populate(point, [0], max_depth=0))
        assert space_weight_polys(other) == space_weight_polys(kernel_spaces(worked_population))
        checked = []
        tuples = spaces.generating_tuple
        monkeypatch.setattr(spaces, "generating_tuple", lambda *args: checked.append(args[1]) or tuples(*args))
        with pytest.raises(TheoremViolation, match="mismatch at"):
            verify_operator_to_population(worked_population, other)
        assert len(checked) == 1 and checked[0].parity == seed.parity

    def test_one_population_factorization_for_the_seed(self, worked_population, monkeypatch):
        calls = []

        def counted(point):
            calls.append(point)
            return population_factorization(point)

        monkeypatch.setattr(spaces, "population_factorization", counted)
        verify_operator_to_population(worked_population)
        assert calls == [next(iter(worked_population.nodes.values()))]  # in kernel_spaces
        space = kernel_spaces(worked_population)
        calls.clear()
        verify_operator_to_population(worked_population, space)
        assert calls == []

    def test_hand_built_population_reports_in_node_order(self):
        # the nodes added out of discovery order, and the tree's edges in
        # preorder, so that the seed's children are not adjacent
        pop = golden_population(*GOLDEN_SPACE_RUNS["worked-gl21"])
        seed, *others = pop.points()
        hand = Population(pop.problem)
        for point in [seed, *others[::-1]]:
            hand.add(point)
        tree = list(spaces.discovery_edges(pop))
        children = collections.defaultdict(list)
        for edge in tree:
            children[edge.source].append(edge)

        def preorder(key):
            for edge in children[key]:
                yield edge
                yield from preorder(edge.target)

        hand.edges = [*preorder(seed.key()), *(e for e in pop.edges if e not in tree)]
        from_seed = [k for k, e in enumerate(hand.edges) if e.source == seed.key()]
        assert from_seed[-1] - from_seed[0] >= len(from_seed)
        walk = [hand.nodes[key] for key, _ in spaces._node_flags(kernel_spaces(hand), hand)]
        parities = [list(p.parity.entries) for p in hand.points()]
        assert [list(p.parity.entries) for p in walk] != parities
        report = verify_operator_to_population(hand)
        assert report["nodes"] == [{"parity": p, "matched": True} for p in parities]

    def test_empty_population_raises(self, worked_population):
        space = kernel_spaces(worked_population)
        with pytest.raises(InvalidInput, match="empty population"):
            verify_operator_to_population(Population(worked_population.problem), space)

    def test_space_outside_gl_raises(self, worked_population, monkeypatch):
        monkeypatch.setattr(spaces, "is_gl_space", lambda space: (False, ["forced failure"]))
        with pytest.raises(TheoremViolation, match="forced failure"):
            verify_operator_to_population(worked_population)


def mutant_transport(step):
    """:func:`gaudin.skew.transport_primitives` with the swap of primitives
    g_a, g_b by d = ln'(g_a / g_b) replaced by ``step(g_a, g_b, d, backward)``."""

    def transport(parity, primitives, target):
        prims = list(primitives)
        for i in parity.path_to(target):
            ga, gb = prims[i - 1], prims[i]
            prims[i - 1], prims[i] = step(ga, gb, log_deriv(ga / gb), parity[i] == -1)
            parity = parity.swapped(i)
        return tuple(prims)

    return transport


TRANSPORT_MUTANTS = {
    "backward-multiplies": lambda ga, gb, d, backward: (gb * d, ga * d),
    "backward-drops-d": lambda ga, gb, d, backward: (gb, ga) if backward else (gb * d, ga * d),
    "one-slot-inverse": lambda ga, gb, d, backward: (gb / d, ga * d) if backward else (gb * d, ga / d),
}
MUTATION_RUNS = {
    "nonstandard-seed": ["worked_gl21_nonstandard_seed.json", "--max-depth", "0"],
}


class TestTransportMutations:
    """A wrong primitive transport fails `space` for a seed off the
    standard parity, in `kernel_spaces`.  From a standard-parity seed
    `space` transports nothing; `TestCarriedFlags` checks the transport
    there, as the oracle of the carried flags."""

    @pytest.mark.parametrize("run", MUTATION_RUNS)
    @pytest.mark.parametrize("mutant", TRANSPORT_MUTANTS)
    def test_space_exits_one(self, mutant, run, monkeypatch, capsys):
        monkeypatch.setattr(spaces, "transport_primitives", mutant_transport(TRANSPORT_MUTANTS[mutant]))
        path, *options = MUTATION_RUNS[run]
        assert main(["space", "--input", str(GOLDEN / path)] + options) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine failure")

    @pytest.mark.parametrize("mutant", TRANSPORT_MUTANTS)
    def test_nonstandard_seed_fails_in_kernel_spaces(self, mutant, monkeypatch):
        pop = golden_population("worked_gl21_nonstandard_seed.json", (0, 1, 2), 0)
        monkeypatch.setattr(spaces, "transport_primitives", mutant_transport(TRANSPORT_MUTANTS[mutant]))
        with pytest.raises(EngineError):
            kernel_spaces(pop)


def same_flag(f, g) -> bool:
    """Whether two flags have the same parity and the same even and odd
    partial spans, each compared by the rank of both members' cleared
    coefficients."""
    return (
        f.parity == g.parity
        and all(cleared_rank(f.vorder[:a], g.vorder[:a]) == a for a in range(1, len(f.vorder) + 1))
        and all(cleared_rank(f.uorder[:b], g.uorder[:b]) == b for b in range(1, len(f.uorder) + 1))
    )


@cache
def carried_flags(name):
    """The space and each node's carried flag of a `space` recording's population."""
    pop = golden_population(*GOLDEN_SPACE_RUNS[name])
    space = kernel_spaces(pop)
    return space, dict(spaces._node_flags(space, pop))


def own_flag_disagreements(name) -> int:
    """Nodes whose carried flag is not the flag `flag_from_factorization`
    rebuilds from the node's own primitives, or where that rebuild fails."""
    space, flags = carried_flags(name)
    pop = golden_population(*GOLDEN_SPACE_RUNS[name])
    out = 0
    for key, point in pop.nodes.items():
        try:
            own = flag_from_factorization(space, population_factorization(point))
        except EngineError:
            out += 1
            continue
        out += not same_flag(flags[key], own)
    return out


def v_reversed_on_fermionic_edges(carried):
    def mutant(space, flag, i, y):
        child = carried(space, flag, i, y)
        if child.parity == flag.parity:
            return child
        return SuperFlag(child.parity, child.vorder[::-1], child.uorder)

    return mutant


# (function of `spaces`, wrapper giving its mutant)
CARRIED_MUTANTS = {
    "fermionic-edge-reorders-v": ("_carried_flag", v_reversed_on_fermionic_edges),
    "solve-at-partial-before": (
        "_pencil",
        lambda pencil: lambda space, s, i, y, w, w2: pencil(space, s, i - 1, y, w, w2),
    ),
    "alpha-beta-swapped": ("_pencil", lambda pencil: lambda *args: pencil(*args)[::-1]),
}
CARRIED_RUNS = {
    "worked-gl21": ["worked_gl21.json"],
    "gl22-pole": ["gl22_pole.json", "--max-depth", "4"],
    "gl32": ["gl32.json", "--max-depth", "3"],
}


class TestCarriedFlags:
    """Each node's flag carried along the population's edges, against the
    flag rebuilt from the node's own primitives."""

    @pytest.mark.parametrize("name", GOLDEN_SPACE_RUNS)
    def test_each_carried_flag_is_the_nodes_own(self, name):
        assert own_flag_disagreements(name) == 0

    @pytest.mark.parametrize("run", ["worked-gl21", "gl22-pole"])
    @pytest.mark.parametrize("mutant", TRANSPORT_MUTANTS)
    def test_transport_mutant_fails_the_oracle(self, mutant, run, monkeypatch):
        carried_flags(run)  # carried before the transport is broken
        monkeypatch.setattr(spaces, "transport_primitives", mutant_transport(TRANSPORT_MUTANTS[mutant]))
        assert own_flag_disagreements(run) > 0

    @pytest.mark.parametrize("run", CARRIED_RUNS)
    @pytest.mark.parametrize("mutant", CARRIED_MUTANTS)
    def test_space_exits_one(self, mutant, run, monkeypatch, capsys):
        name, wrap = CARRIED_MUTANTS[mutant]
        monkeypatch.setattr(spaces, name, wrap(getattr(spaces, name)))
        path, *options = CARRIED_RUNS[run]
        assert main(["space", "--input", str(GOLDEN / path)] + options) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine failure")

    def test_edges_cover_both_moves_and_alpha_zero(self, monkeypatch):
        # the gl(3|2) run moves even and odd members, some by alpha = 0
        moves = []
        pencil = spaces._pencil

        def recorded(space, s, i, *args):
            alpha, beta = pencil(space, s, i, *args)
            moves.append((s[i], alpha == 0))
            return alpha, beta

        monkeypatch.setattr(spaces, "_pencil", recorded)
        verify_operator_to_population(golden_population(*GOLDEN_SPACE_RUNS["gl32"]))
        assert {sign for sign, _ in moves} == {1, -1}
        assert any(zero for _, zero in moves)

    def test_unreached_node_raises_in_both_callers(self, monkeypatch, capsys):
        pop = golden_population(*GOLDEN_SPACE_RUNS["worked-gl21"])
        lost = list(pop.nodes)[-1]
        hand = Population(pop.problem)
        for point in pop.points():
            hand.add(point)
        hand.edges = [e for e in pop.edges if e.target != lost]
        with pytest.raises(InternalInconsistency, match="not reached"):
            verify_r_invariance(hand)
        checked = []
        tuples = spaces.generating_tuple
        monkeypatch.setattr(spaces, "generating_tuple", lambda *args: checked.append(args) or tuples(*args))
        with pytest.raises(InternalInconsistency, match="not reached"):
            verify_operator_to_population(hand)
        assert checked == []  # raised before any node is checked
        monkeypatch.setattr(cli, "populate", lambda *args, **kwargs: hand)
        assert main(["space", "--input", str(GOLDEN / "worked_gl21.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine failure")
