import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from gaudin.errors import InvalidPartition, InvalidPoints, InvalidSwap, UnsupportedWeight
from gaudin.rational import Poly, radical
from gaudin.weights import (
    ParitySequence,
    ProblemData,
    Weight,
    alpha_eps,
    cartan_pairing,
    collision_poly,
    dominant,
    hook_weight,
    ratio_poly,
    swap_coords,
    typical_sequence,
    weight_at_infinity,
    weight_polys,
    weight_polys_by_swaps,
    weight_polys_from_collisions,
)

X = Poly.x()
S0_21 = ParitySequence.standard(2, 1)


class TestParitySequence:
    def test_standard_sigma_is_identity(self):
        s = ParitySequence.standard(3, 3)
        assert s.sigma == (1, 2, 3, 4, 5, 6)

    def test_sigma_examples(self):
        assert ParitySequence((1, 1, -1, -1, -1, 1)).sigma == (1, 2, 4, 5, 6, 3)
        assert ParitySequence((1, -1, 1, -1, 1, -1)).sigma == (1, 4, 2, 5, 3, 6)

    def test_sigma_recovers_parity(self):
        for s in ParitySequence.all_sequences(2, 2):
            for i in range(1, 5):
                looked_up = 1 if s.sigma[i - 1] <= s.m else -1
                assert looked_up == s[i]

    def test_counts_match_sigma_formulas(self):
        for s in ParitySequence.all_sequences(3, 2):
            m = s.m
            for i in range(1, 6):
                if s[i] == 1:
                    assert s.ones_after(i) == m - s.sigma[i - 1]
                    assert s.minus_before(i) == i - s.sigma[i - 1]
                else:
                    assert s.ones_after(i) == s.sigma[i - 1] - i
                    assert s.minus_before(i) == s.sigma[i - 1] - m - 1

    def test_path_reaches_target(self):
        rng = random.Random(3)
        seqs = ParitySequence.all_sequences(3, 3)
        for _ in range(20):
            a, b = rng.choice(seqs), rng.choice(seqs)
            cur = a
            for i in a.path_to(b):
                assert cur[i] != cur[i + 1]
                cur = cur.swapped(i)
            assert cur == b


class TestCartanPairing:
    @pytest.mark.parametrize(
        "entries,block",
        [
            ((1, 1, 1), [[2, -1], [-1, 2]]),
            ((1, -1, 1), [[0, 1], [1, 0]]),
            ((-1, 1, -1), [[0, -1], [-1, 0]]),
            ((1, 1, -1), [[2, -1], [-1, 0]]),
        ],
    )
    def test_blocks(self, entries, block):
        s = ParitySequence(entries)
        got = [[cartan_pairing(s, i, j) for j in (1, 2)] for i in (1, 2)]
        assert got == block

    def test_matches_root_pairing(self):
        from gaudin.weights import pair_eps

        for s in ParitySequence.all_sequences(2, 2):
            for i in range(1, 4):
                for j in range(1, 4):
                    lhs = cartan_pairing(s, i, j)
                    rhs = pair_eps(alpha_eps(s, i), alpha_eps(s, j), s.m)
                    assert lhs == rhs


class TestWeightSwaps:
    def test_delta_one(self):
        s = ParitySequence((1, -1))
        assert swap_coords((4, 2), s, 1) == (3, 3)

    def test_delta_zero(self):
        s = ParitySequence((1, -1))
        assert swap_coords((0, 0), s, 1) == (0, 0)

    def test_equal_parity_rejected(self):
        with pytest.raises(InvalidSwap):
            swap_coords((1, 0, 0), ParitySequence((1, 1, -1)), 1)

    def test_hook_example_all_parities(self):
        w = hook_weight([7, 6, 4, 3, 3], 3, 3)
        assert w.coords == (7, 6, 4, 2, 2, 2)
        s1 = ParitySequence((1, 1, -1, -1, -1, 1))
        s2 = ParitySequence((1, -1, 1, -1, 1, -1))
        assert w.coords_at(s1) == (7, 6, 3, 3, 3, 1)
        assert w.coords_at(s2) == (7, 4, 5, 3, 2, 2)

    def test_path_independence(self):
        # transporting coordinates along any valid swap path agrees with
        # the bubble path used internally
        rng = random.Random(9)
        w = hook_weight([5, 3, 2, 2], 2, 2)
        target = ParitySequence((-1, 1, -1, 1))
        expected = w.coords_at(target)
        for _ in range(20):
            s = ParitySequence.standard(2, 2)
            coords = tuple(w.coords)
            guard = 0
            while s != target and guard < 60:
                guard += 1
                i = rng.randint(1, 3)
                if s[i] == s[i + 1]:
                    continue
                coords = swap_coords(coords, s, i)
                s = s.swapped(i)
            if s == target:
                assert coords == expected


class TestHookWeights:
    def test_empty(self):
        assert hook_weight([], 2, 1).coords == (0, 0, 0)

    def test_single_box(self):
        assert hook_weight([1], 1, 1).coords == (1, 0)

    def test_not_hook(self):
        with pytest.raises(InvalidPartition):
            hook_weight([3, 3, 3], 1, 2)

    def test_polynomial_flag(self):
        rng = random.Random(13)
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            mu = sorted((rng.randint(0, 5) for _ in range(m)), reverse=True)
            mu += sorted((rng.randint(0, n) for _ in range(3)), reverse=True)
            mu = sorted(mu, reverse=True)
            w = hook_weight(mu, m, n)
            assert w.is_polynomial()


class TestTypicality:
    def test_hook_example_typical(self):
        w = hook_weight([7, 6, 4, 3, 3], 3, 3)
        assert w.is_typical()

    def test_zero_weight_atypical(self):
        assert not Weight(1, 1, (0, 0)).is_typical()

    def test_gl21(self):
        assert Weight(2, 1, (1, 1, 0)).is_typical()

    def test_sequence_or(self):
        ws = [Weight(1, 1, (0, 0)), Weight(1, 1, (1, 0))]
        assert typical_sequence(ws)
        assert not typical_sequence(ws[:1])

    def test_nonpolynomial_rejected(self):
        with pytest.raises(UnsupportedWeight):
            Weight(1, 1, (-1, 0)).is_typical()


class TestWeightPolys:
    def test_zero_weights(self):
        ts = weight_polys(S0_21, [Weight(2, 1, (0, 0, 0))], [Q(0)])
        assert all(t == Poly.one() for t in ts)

    def test_repeated_points_rejected(self):
        with pytest.raises(InvalidPoints):
            weight_polys(S0_21, [Weight(2, 1, (1, 0, 0))] * 2, [0, 0])

    def test_worked_example_by_swaps(self, worked_problem):
        s1 = ParitySequence((1, -1, 1))
        s2 = ParitySequence((-1, 1, 1))
        x3m1 = X**3 - 1
        assert list(worked_problem.ts_at(s1)) == [x3m1, x3m1, Poly.one()]
        assert list(worked_problem.ts_at(s2)) == [x3m1**2, Poly.one(), Poly.one()]

    def test_adjacent_swap_identity(self):
        # one unequal-parity swap multiplies/divides by the step radical
        ws = [hook_weight([3, 2, 1], 2, 1), hook_weight([2, 2], 2, 1)]
        zs = [Q(0), Q(1)]
        s = S0_21
        ts = weight_polys(s, ws, zs)
        i = 2
        r = radical(ratio_poly(ts, s, i))
        swapped = weight_polys(s.swapped(i), ws, zs)
        assert swapped[i - 1] == ts[i] * r
        assert swapped[i] == ts[i - 1].exact_div(r)

    def test_gl11_product_invariant(self):
        ws = [Weight(1, 1, (2, 1)), Weight(1, 1, (1, 0))]
        zs = [Q(0), Q(3)]
        s = ParitySequence.standard(1, 1)
        ts = weight_polys(s, ws, zs)
        tt = weight_polys(s.swapped(1), ws, zs)
        assert ts[0] * ts[1] == tt[0] * tt[1]


class TestDominant:
    def test_paper_example(self):
        assert dominant([-3, -3, -3, -1, 0, 5, 5, 6]) == [-3, -2, -1, 0, 1, 5, 6, 7]

    def test_already_strict(self):
        assert dominant([1, 4, 9]) == [1, 4, 9]

    def test_all_equal(self):
        assert dominant([0, 0, 0]) == [0, 1, 2]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_dominating(self, parts):
        d = dominant(parts)
        assert dominant(d) == d
        for a, b in zip(sorted(parts), d):
            assert b >= a
        assert all(x < y for x, y in zip(d, d[1:]))


class TestCollisionPoly:
    def test_trivial_when_units(self):
        ts = [Poly.one()] * 3
        assert collision_poly(ts, 2, 1, 1, 1) == Poly.one()

    def test_zero_blocks(self):
        ts = [X**2, X, Poly.one()]
        assert collision_poly(ts, 2, 1, 0, 1) == Poly.one()
        assert collision_poly(ts, 2, 1, 2, 0) == Poly.one()

    def test_gl11_cross_check(self):
        # T = (x, x): one even and one odd ladder collide at the origin
        assert collision_poly([X, X], 1, 1, 1, 1) == X


class TestChangeOfPolys:
    def test_standard_identity(self):
        ts = [X**2 * (X - 1), X, Poly.one()]
        assert weight_polys_from_collisions(S0_21, ts) == list(ts)

    def test_gl11_swap(self):
        got = weight_polys_from_collisions(ParitySequence((-1, 1)), [X, Poly.one()])
        assert got == [X, Poly.one()]

    def test_worked_example(self, worked_problem):
        s2 = ParitySequence((-1, 1, 1))
        got = weight_polys_from_collisions(s2, list(worked_problem.ts_standard))
        assert got == [(X**3 - 1) ** 2, Poly.one(), Poly.one()]

    def test_agreement_random(self):
        rng = random.Random(2026)
        for _ in range(6):
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
            nsites = rng.randint(1, 2)
            ws = []
            for _ in range(nsites):
                mu = sorted((rng.randint(0, 4) for _ in range(m)), reverse=True)
                mu += sorted((rng.randint(0, n) for _ in range(2)), reverse=True)
                ws.append(hook_weight(sorted(mu, reverse=True), m, n))
            zs = rng.sample(range(-3, 5), nsites)
            ts0 = weight_polys(ParitySequence.standard(m, n), ws, zs)
            for s in ParitySequence.all_sequences(m, n):
                direct = weight_polys(s, ws, zs)
                via_pi = weight_polys_from_collisions(s, ts0)
                via_swaps = weight_polys_by_swaps(s, ts0)
                assert direct == via_pi == via_swaps


class TestWeightAtInfinity:
    def test_no_roots(self):
        ws = [Weight(2, 1, (1, 1, 0))] * 2
        s = S0_21
        got = weight_at_infinity(s, ws, [0, 0])
        assert got == (2, 2, 0)

    def test_gl2_shift(self):
        ws = [Weight(2, 0, (3, 1)), Weight(2, 0, (2, 0))]
        s = ParitySequence.standard(2, 0)
        got = weight_at_infinity(s, ws, [2])
        assert got == (5 - 2, 1 + 2)

    def test_gl11_reproduction_shift(self):
        # the two members of a gl(1|1) pair differ by the simple root
        ws = [Weight(1, 1, (1, 0)), Weight(1, 1, (2, 1))]
        s = ParitySequence.standard(1, 1)
        st_ = s.swapped(1)
        l, lt = 1, 0  # deg y + deg y~ = m - 1 with both factors typical
        lhs = weight_at_infinity(s, ws, [l])
        rhs = weight_at_infinity(st_, ws, [lt])
        al = alpha_eps(s, 1)
        assert lhs == tuple(r + a for r, a in zip(rhs, al))


class TestProblemData:
    def test_ratio_is_polynomial(self, worked_problem):
        for s in ParitySequence.all_sequences(2, 1):
            ts = worked_problem.ts_at(s)
            for i in range(1, 3):
                ratio_poly(ts, s, i)

    def test_typical(self, worked_problem):
        assert worked_problem.typical()

    def test_points_required_without_ts(self):
        with pytest.raises(Exception):
            ProblemData(1, 1, [Weight(1, 1, (1, 0))])
