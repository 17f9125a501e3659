import random
from itertools import product
from fractions import Fraction as Q

import pytest

from gaudin.bethe import table_eigenvalues
from gaudin.errors import DegenerateInput, UnsupportedFactorization
from gaudin.linalg import charpoly_coeffs, identity, mat_mul, mat_scale, mat_sub, rank, solve_matrix
from gaudin.rational import Poly, rational_roots
from gaudin.reps import (
    TensorSystem,
    _has_jordan_defect,
    _joint_eigen_decomposition,
    check_lowering_bridge,
    gl11_module,
    gl11_nonpoly_report,
    gl11_spectrum_report,
    highest_vector_at,
    master_polynomial,
    monic_divisors,
    singular_space,
    sparse_apply,
    vector_rep,
    weight_function,
)
from gaudin.weights import ParitySequence, site_table, weight_at_infinity
from conftest import mat_vec, random_gl11_system, solve_levels_for_roots

X = Poly.x()
S11 = ParitySequence.standard(1, 1)


def dense(system, a, b):
    from gaudin.reps import _sparse_to_dense

    return _sparse_to_dense(system.diagonal_op(a, b), system.dim)


class TestModules:
    def test_vector_rep_action(self):
        mod = vector_rep(1, 1)
        assert mod.matrix(1, 1) == {0: [(0, Q(1))]}
        assert mod.matrix(2, 1) == {0: [(1, Q(1))]}

    def test_superbracket_anticommutator(self):
        # odd-odd pair: e12 e21 + e21 e12 = e11 + e22 on the vector rep
        mod = vector_rep(1, 1)
        e12 = [[0, 1], [0, 0]]
        e21 = [[0, 0], [1, 0]]
        lhs = mat_mul(e12, e21)
        rhs = mat_mul(e21, e12)
        total = [[lhs[i][j] + rhs[i][j] for j in range(2)] for i in range(2)]
        assert total == [[1, 0], [0, 1]]

    def test_gl11_weights(self):
        mod = gl11_module(3, 2)
        assert mod.matrix(1, 1)[0] == [(0, Q(3))]
        assert mod.matrix(2, 2)[0] == [(0, Q(2))]

    def test_gl11_lowering_raising(self):
        p, q = 3, 2
        mod = gl11_module(p, q)
        assert mod.matrix(2, 1)[0] == [(1, Q(1))]
        assert mod.matrix(1, 2)[1] == [(0, Q(p + q))]
        # e21 squared kills everything
        assert mod.matrix(2, 1).get(1, []) == []

    def test_trivial_module(self):
        mod = gl11_module(0, 0)
        assert mod.dim == 1

    def test_highest_vector_flip(self):
        mod = gl11_module(1, 0)
        assert highest_vector_at(mod, S11) == [Q(1), Q(0)]
        assert highest_vector_at(mod, S11.swapped(1)) == [Q(0), Q(1)]
        # vector representation: the flipped-parity highest vector is e_2
        vm = vector_rep(1, 1)
        assert highest_vector_at(vm, S11.swapped(1)) == [Q(0), Q(1)]


@pytest.fixture(scope="module")
def sys3():
    return TensorSystem([gl11_module(1, 0)] * 3, [0, 1, 2])


class TestTensorSystem:

    def test_hamiltonians_commute(self, sys3):
        h1, h2 = sys3.hamiltonian(1), sys3.hamiltonian(2)
        assert mat_mul(h1, h2) == mat_mul(h2, h1)

    def test_hamiltonians_sum_zero(self, sys3):
        hs = [sys3.hamiltonian(k) for k in (1, 2, 3)]
        total = [
            [sum(h[i][j] for h in hs) for j in range(sys3.dim)] for i in range(sys3.dim)
        ]
        assert all(v == 0 for row in total for v in row)

    def test_commute_with_diagonal_action(self, sys3):
        h1 = sys3.hamiltonian(1)
        for a, b in product((1, 2), repeat=2):
            x = dense(sys3, a, b)
            assert mat_mul(h1, x) == mat_mul(x, h1)

    def test_gl21_vector_case(self):
        sysv = TensorSystem([vector_rep(2, 1)] * 2, [0, 1])
        h1, h2 = sysv.hamiltonian(1), sysv.hamiltonian(2)
        assert mat_mul(h1, h2) == mat_mul(h2, h1)
        for a, b in product(range(1, 4), repeat=2):
            x = dense(sysv, a, b)
            assert mat_mul(h1, x) == mat_mul(x, h1)

    def test_displayed_two_by_two_block(self):
        # n = 3 block of the first two Hamiltonians on the singular
        # (p-1, q+1) space; the displayed matrix depends on the tensor-sign
        # convention, so the comparison is at the level of characteristic
        # polynomials, which is what the discriminant statement uses
        pqs = [(2, 1), (1, 0), (3, 2)]
        zs = [Q(0), Q(1), Q(3)]
        hs = [p + q for p, q in pqs]
        system = TensorSystem([gl11_module(p, q) for p, q in pqs], zs)

        def vec(idx_tuple):
            out = [Q(0)] * system.dim
            out[system.index_of(idx_tuple)] = Q(1)
            return out

        vmpp, vpmp, vppm = vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1))
        w1 = [-hs[1] * a + hs[0] * b for a, b in zip(vmpp, vpmp)]
        w2 = [-hs[2] * a + hs[1] * b for a, b in zip(vpmp, vppm)]
        basis = [[w1[i], w2[i]] for i in range(system.dim)]
        from gaudin.linalg import solve_matrix

        h1, h2, h3 = hs
        z1, z2, z3 = zs
        base1 = sum(
            (pqs[0][0] * pqs[k][0] - pqs[0][1] * pqs[k][1]) / (z1 - zs[k])
            for k in (1, 2)
        )
        base2 = sum(
            (pqs[1][0] * pqs[k][0] - pqs[1][1] * pqs[k][1]) / (z2 - zs[k])
            for k in (0, 2)
        )
        displayed = {
            1: [
                [base1 - (h1 + h2) / (z1 - z2), -h3 / (z1 - z2)],
                [-h2 / (z1 - z3), base1 - (h1 + h3) / (z1 - z3)],
            ],
            2: [
                [base2 - (h1 + h2) / (z2 - z1), h1 / (z2 - z3)],
                [h3 / (z2 - z1), base2 - (h2 + h3) / (z2 - z3)],
            ],
        }
        for r, disp in displayed.items():
            restricted = solve_matrix(basis, mat_mul(system.hamiltonian(r), basis))
            tr_got = restricted[0][0] + restricted[1][1]
            det_got = (
                restricted[0][0] * restricted[1][1]
                - restricted[0][1] * restricted[1][0]
            )
            tr_disp = disp[0][0] + disp[1][1]
            det_disp = disp[0][0] * disp[1][1] - disp[0][1] * disp[1][0]
            assert tr_got == tr_disp and det_got == det_disp


class TestWeightFunction:
    def test_empty_roots(self):
        system = TensorSystem([gl11_module(1, 0)] * 2, [0, 1])
        w = weight_function(system, S11, [[]])
        assert w[system.index_of((0, 0))] == 1
        assert sum(1 for v in w if v != 0) == 1

    def test_gl11_oracle(self):
        # w = e21(t1) e21(t2) v with e21(u) = sum_k e21^(k)/(u - z_k)
        system = TensorSystem([gl11_module(2, 1)] * 3, [0, 1, 5])
        t1, t2 = Q(7), Q(9)
        got = weight_function(system, S11, [[t1, t2]])
        lower = system.diagonal_op(2, 1)

        def e21_at(u):
            out = {}
            from gaudin.reps import _sparse_add

            for k in range(1, 4):
                _sparse_add(out, system.leg_op(k, 2, 1), Q(1) / (u - system.points[k - 1]))
            return out

        v = [Q(0)] * system.dim
        v[system.index_of((0, 0, 0))] = Q(1)
        oracle = sparse_apply(e21_at(t1), sparse_apply(e21_at(t2), v))
        assert got == oracle

    def test_anticommutation(self):
        system = TensorSystem([gl11_module(1, 0)] * 2, [0, 1])
        from gaudin.reps import _sparse_add

        def e21_at(u):
            out = {}
            for k in (1, 2):
                _sparse_add(out, system.leg_op(k, 2, 1), Q(1) / (u - system.points[k - 1]))
            return out

        u, v = Q(3), Q(5)
        for basis_idx in range(system.dim):
            vec = [Q(0)] * system.dim
            vec[basis_idx] = Q(1)
            ab = sparse_apply(e21_at(u), sparse_apply(e21_at(v), vec))
            ba = sparse_apply(e21_at(v), sparse_apply(e21_at(u), vec))
            assert ab == [-x for x in ba]

    @pytest.mark.parametrize("entries", [(1, 1, -1), (1, -1, 1)])
    def test_bethe_vector_eigencheck_gl21(self, entries):
        from gaudin.bethe import BethePoint, gaudin_eigenvalue
        from gaudin.weights import ProblemData

        system = TensorSystem([vector_rep(2, 1)] * 2, [0, 1])
        prob = ProblemData(2, 1, [vector_rep(2, 1).weight] * 2, points=[0, 1])
        s = ParitySequence(entries)
        t = Q(1, 2)
        w = weight_function(system, s, [[t], []])
        winf = weight_at_infinity(s, [vector_rep(2, 1).weight] * 2, [1, 0])
        sing = singular_space(system, s, winf)
        assert rank(sing + [w]) == len(sing)
        point = BethePoint(prob, s, [Poly((-t, 1)), Poly.one()])
        for k in (1, 2):
            ek = gaudin_eigenvalue(point, k)
            hw = mat_vec(system.hamiltonian(k), w)
            assert hw == [ek * v for v in w]


class TestSingularSpace:
    def test_top_space_is_highest_line(self):
        system = TensorSystem([gl11_module(1, 0)] * 3, [0, 1, 2])
        top = singular_space(system, S11, (3, 0))
        assert len(top) == 1

    def test_binomial_dimensions(self):
        system = TensorSystem([gl11_module(2, 1)] * 3, [0, 1, 2])
        dims = [len(singular_space(system, S11, (6 - l, 3 + l))) for l in range(3)]
        assert dims == [1, 2, 1]

    def test_displayed_pair_basis(self):
        pqs = [(2, 1), (1, 0), (3, 2)]
        hs = [p + q for p, q in pqs]
        system = TensorSystem([gl11_module(p, q) for p, q in pqs], [0, 1, 3])
        total = (sum(p for p, _ in pqs), sum(q for _, q in pqs))
        sing = singular_space(system, S11, (total[0] - 1, total[1] + 1))
        assert len(sing) == 2


class TestMasterPolynomial:
    def test_three_sites(self):
        assert master_polynomial([1, 1, 1], [0, 1, 2]) == (3 * X**2 - 6 * X + 2).monic()

    def test_single_site(self):
        assert master_polynomial([2], [0]) == Poly.one()

    def test_degenerate_sum_linear(self):
        nt = master_polynomial([1, 1, -2], [0, 1, 2])
        assert nt.degree == 1

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            master_polynomial([0, 0], [0, 1])


class TestMonicDivisors:
    def test_two_distinct_roots(self):
        divs = monic_divisors(X * (X - 1))
        assert {d.to_str() for d in divs} == {"1", "x", "x - 1", "x^2 - x"}

    def test_multiplicity(self):
        divs = monic_divisors(X**2)
        assert {d.to_str() for d in divs} == {"1", "x", "x^2"}

    def test_irreducible_quadratic(self):
        divs = monic_divisors(X**2 + 1)
        assert {d.to_str() for d in divs} == {"1", "x^2 + 1"}

    def test_cubic_remainder_rejected(self):
        with pytest.raises(UnsupportedFactorization):
            monic_divisors(X**3 - 2)


class TestSpectrumReport:
    def test_random_rational_systems(self):
        rng = random.Random(20260808)
        for _ in range(3):
            pqs, zs, roots = random_gl11_system(rng)
            system = TensorSystem([gl11_module(p, q) for p, q in pqs], zs)
            report = gl11_spectrum_report(system)
            assert report["counts_match"]
            assert report["eigenvalues_match"]
            assert not report["jordan_defect"]
            assert report["total_divisors"] == report["total_eigenlines"] == 4

    def test_eigenvalue_formula_matches(self):
        # the engine's site formula at the divisor x - t_1 is a joint
        # eigenvalue tuple of the Hamiltonians on the degree-1 singular space
        rng = random.Random(4)
        pqs, zs, roots = random_gl11_system(rng)
        system = TensorSystem([gl11_module(p, q) for p, q in pqs], zs)
        weights = [mod.weight for mod in system.modules]
        values = table_eigenvalues(site_table(S11, weights, zs), (X - roots[0],))
        sing = singular_space(system, S11, weight_at_infinity(S11, weights, [1]))
        basis = [list(row) for row in zip(*sing)]
        restricted = [solve_matrix(basis, mat_mul(system.hamiltonian(k), basis)) for k in (1, 2, 3)]
        spaces, _ = _joint_eigen_decomposition(restricted)
        assert list(values) == [1, 2, 3]
        assert tuple(values.values()) in {eigs for eigs, _ in spaces}

    def test_double_root_jordan(self):
        # tuned instance: a double master root forces a Jordan block
        zs = [Q(0), Q(1), Q(2)]
        t = Q(1, 2)
        rows = []
        for use_deriv in (False, True):
            row = []
            for k in range(3):
                others = [zs[j] for j in range(3) if j != k]
                if use_deriv:
                    row.append((t - others[0]) + (t - others[1]))
                else:
                    row.append((t - others[0]) * (t - others[1]))
            rows.append(row)
        from gaudin.linalg import solve_linear

        _, null = solve_linear(rows, [Q(0), Q(0)])
        hvec = null[0]
        scale = 1
        for f in hvec:
            scale *= f.denominator
        hvec = [v * scale for v in hvec]
        nt = master_polynomial(hvec, zs)
        assert nt == (X - t) ** 2
        mods = [gl11_module(h, 0) for h in hvec]
        system = TensorSystem(mods, zs)
        report = gl11_spectrum_report(system)
        assert report["jordan_defect"]
        assert report["counts_match"]  # 3 divisors, 3 eigenlines
        assert report["total_divisors"] == 3


def rank_of_square_defect(mats):
    """The definition: some rational eigenvalue r of some matrix H has
    rank((H - r)^2) < rank(H - r)."""
    for m in mats:
        roots, _ = rational_roots(Poly(charpoly_coeffs(m)))
        for root, _mult in roots:
            shifted = mat_sub(m, mat_scale(identity(len(m)), root))
            if rank(mat_mul(shifted, shifted)) < rank(shifted):
                return True
    return False


def planted_matrix(rng):
    """P J P^-1 for a random block-diagonal J, with the planted answer.

    Blocks are rational Jordan blocks (sizes 1-3, eigenvalues drawn from a
    small pool, so diagonalizable repeats occur) and the companion matrix
    of x^2 + 1, sometimes doubled into a 4x4 block with an identity
    coupling, which is not diagonalizable but has no rational eigenvalue.
    """
    blocks, size, planted = [], 0, False
    while size < 2 or (size < 5 and rng.random() < 0.5):
        kind = rng.choice(["jordan", "jordan", "jordan", "i", "i2"])
        if kind == "jordan":
            k = rng.randint(1, min(3, 6 - size))
            lam = Q(rng.choice([-1, 0, 1, 2]), rng.choice([1, 2]))
            block = [[lam if i == j else Q(1) if j == i + 1 else Q(0) for j in range(k)] for i in range(k)]
            planted = planted or k >= 2
        elif kind == "i":
            block = [[Q(0), Q(-1)], [Q(1), Q(0)]]
        else:
            block = [[Q(0), Q(-1), Q(1), Q(0)], [Q(1), Q(0), Q(0), Q(1)],
                     [Q(0), Q(0), Q(0), Q(-1)], [Q(0), Q(0), Q(1), Q(0)]]
        blocks.append(block)
        size += len(block)
    jmat = [[Q(0)] * size for _ in range(size)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            jmat[at + i][at : at + len(row)] = row
        at += len(block)
    while True:
        pmat = [[Q(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
        if rank(pmat) == size:
            break
    return mat_mul(mat_mul(pmat, jmat), solve_matrix(pmat, identity(size))), planted


class TestJordanDefect:
    def test_agrees_with_rank_of_square(self):
        rng = random.Random(1907)
        outcomes = set()
        for _ in range(40):
            mats = [planted_matrix(rng) for _ in range(rng.randint(1, 2))]
            got = _has_jordan_defect([m for m, _ in mats])
            assert got == rank_of_square_defect([m for m, _ in mats])
            assert got == any(planted for _, planted in mats)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_root_searches_on_four_sites(self, monkeypatch):
        # the bench-pool system of tests/golden/gl11_four_sites.json; a
        # simple spectrum leaves only constants for the repeated-root search
        import gaudin.reps

        degrees = []
        roots = gaudin.reps.rational_roots
        monkeypatch.setattr(
            gaudin.reps, "rational_roots", lambda f: degrees.append(f.degree) or roots(f)
        )
        pqs = [(4, 5), (11, 1), (5, 0), (20, 8)]
        system = TensorSystem([gl11_module(p, q) for p, q in pqs], [-2, -1, 0, 3])
        report = gl11_spectrum_report(system)
        assert report["counts_match"] and not report["jordan_defect"]
        assert len([d for d in degrees if d > 0]) <= 28


class TestBridge:
    def test_two_site_typical(self):
        system = TensorSystem([gl11_module(1, 0)] * 2, [0, 1])
        assert check_lowering_bridge(system, S11, [[]], [[Q(1, 2)]])

    def test_l_zero_to_top(self):
        zs = [Q(0), Q(1), Q(3)]
        hs = solve_levels_for_roots(zs, [Q(1, 2), Q(2)])
        system = TensorSystem([gl11_module(h, 0) for h in hs], zs)
        # l = 0 at standard parity pairs with l~ = m - 1 = 2
        assert check_lowering_bridge(system, S11, [[]], [[Q(1, 2), Q(2)]])

    def test_nonpolynomial_failure(self):
        system = TensorSystem(
            [gl11_module(1, 0), gl11_module(1, 0), gl11_module(1, -3)], [0, 1, 2]
        )
        nt = master_polynomial([1, 1, -2], [0, 1, 2])
        root = -nt.coeff(0)
        assert not check_lowering_bridge(system, S11, [[]], [[root]])


class TestNonPolynomialReport:
    def test_structure(self):
        system = TensorSystem(
            [gl11_module(1, 0), gl11_module(1, 0), gl11_module(1, -3)], [0, 1, 2]
        )
        report = gl11_nonpoly_report(system)
        assert report["master_degree"] == 1
        assert report["weight_space_dims"] == {1: 3, 2: 3}
        assert report["singular_dim"] == 4
        assert report["singular_quotient_dim"] == 2
