import random
from fractions import Fraction as Q

import pytest

from gaudin.bethe import BethePoint, populate, population_factorization
from gaudin.errors import AtypicalUnsupported, InvalidFlag
from gaudin.linalg import rank
from gaudin.rational import Poly, RatFun, order_at_place, poly_gcd, wronskian
from gaudin.skew import refactor_to_parity
from gaudin.spaces import (
    RationalSpace,
    SuperFlag,
    exponents,
    flag_factorization,
    flag_from_factorization,
    flag_polynomial,
    generating_map,
    generating_tuple,
    interleave_basis,
    is_gl_space,
    kernel_spaces,
    space_weight_polys,
    verify_operator_to_population,
)
from gaudin.weights import ParitySequence, ProblemData, Weight

X = Poly.x()
POLES = [X, X - 1, X + 2, X**2 + 1]


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


def cleared_basis_is_gl_space(space):
    """Reference membership test: the exponents of the even and odd parts
    cleared by their denominators are computed from the cleared bases."""
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


def count_wronskians(monkeypatch):
    import gaudin.spaces

    calls = []
    wr = gaudin.spaces.wronskian
    monkeypatch.setattr(gaudin.spaces, "wronskian", lambda fs: calls.append(tuple(fs)) or wr(fs))
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
        calls = count_wronskians(monkeypatch)
        space_weight_polys(kernel_spaces(worked_population))
        # one table: 2^2 - 1 + 2^1 - 1 subset and 2 pair Wronskians
        assert len(calls) <= 6


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
        rng = random.Random(3)
        spaces = []
        for _ in range(40):
            dv = rand_den(rng)
            du = dv * rand_den(rng) if rng.random() < 0.7 else rand_den(rng)
            vs = [RatFun(rand_num(rng), dv) for _ in range(rng.randint(1, 2))]
            spaces.append(RationalSpace(vs, [RatFun(rand_num(rng), du) for _ in range(rng.randint(1, 2))]))
        # an even part vanishing along an irreducible quadratic
        q = X**2 + X + 1
        spaces.append(RationalSpace([q, X * q], [RatFun(Poly.one(), q)]))
        seen = set()
        for space in spaces:
            try:
                got = is_gl_space(space)
            except InvalidFlag:
                with pytest.raises(InvalidFlag):
                    cleared_basis_is_gl_space(RationalSpace(space.vbasis, space.ubasis))
                continue
            assert got == cleared_basis_is_gl_space(RationalSpace(space.vbasis, space.ubasis))
            seen.add(got[0])
            seen.update(f.split(" at ")[0] for f in got[1])
            seen.add(("pv", space.even_denominator.degree > 0))
            seen.add(("pu", space.odd_denominator.degree > 0))
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
        for sp in (space, poles):
            sp.even_exponents, sp.odd_exponents
        calls = count_wronskians(monkeypatch)
        is_gl_space(space)
        assert calls == []
        # the pair Wronskians too come from the table the ladders were read from
        is_gl_space(poles)
        assert poles.even_denominator.degree > 0
        assert calls == []

    def test_pair_condition_extends_bilinearly(self, worked_population):
        # the pair-regularity condition, checked on basis pairs, holds for
        # random combinations as well
        rng = random.Random(404)
        space = kernel_spaces(worked_population)
        from gaudin.rational import order_at_place

        places = space.places
        pv = space.even_denominator
        if pv.degree == 0:
            pv = Poly.one()
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
    def test_paper_example(self):
        s = ParitySequence((1, -1, -1, 1, 1, -1, 1, -1))
        v = [f"v{i}" for i in range(1, 5)]
        u = [f"u{i}" for i in range(1, 5)]
        got = [
            f"v{s.ones_after(i) + 1}" if s[i] == 1 else f"u{s.minus_before(i) + 1}"
            for i in range(1, 9)
        ]
        assert got == ["v4", "u1", "u2", "v3", "v2", "u3", "v1", "u4"]
        objs = interleave_basis(s, [RatFun.const(i) for i in (1, 2, 3, 4)],
                                [RatFun.const(i) for i in (10, 20, 30, 40)])
        assert [f.num.coeff(0) for f in objs] == [4, 10, 20, 3, 2, 30, 1, 40]

    def test_standard(self):
        s = ParitySequence.standard(2, 1)
        got = interleave_basis(s, [RatFun.const(1), RatFun.const(2)], [RatFun.const(9)])
        assert [f.num.coeff(0) for f in got] == [2, 1, 9]

    def test_even_only_reversed(self):
        s = ParitySequence.standard(3, 0)
        got = interleave_basis(s, [RatFun.const(i) for i in (1, 2, 3)], [])
        assert [f.num.coeff(0) for f in got] == [3, 2, 1]


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
        import gaudin.spaces

        space = kernel_spaces(worked_population)
        space.weight_polys  # the space's own Wronskians, computed before counting
        flag = SuperFlag(ParitySequence((1, -1, 1)), space.vbasis, space.ubasis)
        calls = []
        wr = gaudin.spaces.wronskian
        monkeypatch.setattr(
            gaudin.spaces, "wronskian", lambda fs: calls.append(tuple(fs)) or wr(fs)
        )
        generating_tuple(space, flag)
        flag_factorization(space, flag)
        assert calls
        assert len(calls) == len(set(calls))


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
