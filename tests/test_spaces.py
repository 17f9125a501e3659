import random
from fractions import Fraction as Q

import pytest

from gaudin import (
    BethePoint,
    ParitySequence,
    Poly,
    ProblemData,
    RatFun,
    RationalSpace,
    SuperFlag,
    Weight,
    exponents,
    flag_factorization,
    flag_from_factorization,
    flag_polynomial,
    generating_map,
    generating_tuple,
    interleave_basis,
    is_gl_space,
    kernel_spaces,
    populate,
    space_weight_polys,
    verify_operator_to_population,
    wronskian,
)
from gaudin.bethe import population_factorization
from gaudin.errors import AtypicalUnsupported
from gaudin.skew import refactor_to_parity
from gaudin.spaces import basis_change_invariance

X = Poly.x()


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


class TestDegreeBounds:
    def test_worked_example(self, worked_population):
        from gaudin.spaces import sampled_degree_bounds
        from gaudin.bethe import population_factorization

        space = kernel_spaces(worked_population)
        flags = [
            flag_from_factorization(space, population_factorization(p))
            for p in worked_population.points()
            if p.parity.is_standard()
        ]
        # the standard component realizes degrees (0, 0) at the seed
        assert sampled_degree_bounds(space, flags) == [0, 0]


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
