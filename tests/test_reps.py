import json
import random
from itertools import product
from math import comb
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaudin.bethe import table_eigenvalues
from gaudin.errors import DegenerateInput, InternalInconsistency, UnsupportedFactorization
from gaudin.linalg import (
    charpoly_coeffs,
    identity,
    int_charpoly,
    integer_scaled,
    mat_mul,
    mat_scale,
    mat_sub,
    nullspace,
    rank,
    solve_matrix,
)
from gaudin.rational import Poly, rational_roots
from gaudin.reps import (
    SuperModule,
    TensorSystem,
    _has_jordan_defect,
    _joint_eigen_decomposition,
    _restricted_hamiltonians,
    _sparse_to_dense,
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
from gaudin.weights import ParitySequence, Weight, site_table, weight_at_infinity
from conftest import mat_vec, random_gl11_system, solve_levels_for_roots

X = Poly.x()
S11 = ParitySequence.standard(1, 1)
GOLDEN = Path(__file__).parent / "golden"
GL11_GOLDEN = ["gl11_four_sites", "gl11_irrational", "gl11_double_root", "gl11_wide_roots"]


def dense(system, a, b):
    return _sparse_to_dense(*system._diagonal(a, b), system.dim)


def fraction_leg(system, k, a, b):
    """e_ab on tensor leg k with the sign rule, built on Fractions from the
    module's matrix: the odd operator picks up the parity of every leg to
    the left of k."""
    mod = system.modules[k - 1]
    local = mod.matrix(a, b)
    out = {}
    for tup in system.index_tuples():
        entries = local.get(tup[k - 1])
        if not entries:
            continue
        sign = 1
        if mod.op_parity(a, b) == -1:
            sign = (-1) ** sum(1 for j in range(k - 1) if system.modules[j].parities[tup[j]] == -1)
        out[system.index_of(tup)] = [
            (system.index_of(tup[: k - 1] + (row,) + tup[k:]), sign * val) for row, val in entries
        ]
    return out


def _sparse_add(acc, other, factor=Q(1)):
    for col, entries in other.items():
        bucket = dict(acc.get(col, []))
        for row, val in entries:
            bucket[row] = bucket.get(row, Q(0)) + factor * val
        acc[col] = [(r, v) for r, v in bucket.items() if v != 0]


def _sparse_compose(a, b):
    out = {}
    for col, entries in b.items():
        bucket = {}
        for mid, v1 in entries:
            for row, v2 in a.get(mid, []):
                bucket[row] = bucket.get(row, Q(0)) + v1 * v2
        lst = [(r, v) for r, v in bucket.items() if v != 0]
        if lst:
            out[col] = lst
    return out


def dense_of(op, dim):
    """A Fraction column-sparse map as a dense matrix."""
    rows = [[Q(0)] * dim for _ in range(dim)]
    for col, entries in op.items():
        for row, val in entries:
            rows[row][col] += val
    return rows


def composed_hamiltonian(system, r):
    """H_r as the sum of composed leg operators e_ab^(r) e_ba^(k), one
    sparse sum per (k, a, b), made dense at the end."""
    size = system.m + system.n
    total = {}
    for k in range(1, len(system.modules) + 1):
        if k == r:
            continue
        weight = Q(1) / (system.points[r - 1] - system.points[k - 1])
        for a in range(1, size + 1):
            for b in range(1, size + 1):
                sign = 1 if b <= system.m else -1
                prod = _sparse_compose(fraction_leg(system, r, a, b), fraction_leg(system, k, b, a))
                _sparse_add(total, prod, weight * sign)
    return dense_of(total, system.dim)


def per_site_hamiltonian(system, r):
    """H_r built site by site: every (k, a, b) term of sum over k != r of
    (-1)^|b| e_ab^(r) e_ba^(k) / (z_r - z_k) summed into one accumulator,
    each two-site product made afresh for each r, made dense at the end."""
    size = system.m + system.n
    acc = {}
    for k in range(1, len(system.modules) + 1):
        if k == r:
            continue
        weight = Q(1) / (system.points[r - 1] - system.points[k - 1])
        for a in range(1, size + 1):
            for b in range(1, size + 1):
                left = fraction_leg(system, r, a, b)
                factor = weight if b <= system.m else -weight
                for col, entries in fraction_leg(system, k, b, a).items():
                    bucket = acc.setdefault(col, {})
                    for mid, v1 in entries:
                        for row, v2 in left.get(mid, ()):
                            bucket[row] = bucket.get(row, 0) + factor * v1 * v2
    rows = [[Q(0)] * system.dim for _ in range(system.dim)]
    for col, bucket in acc.items():
        for row, val in bucket.items():
            rows[row][col] += val
    return rows


def ordered_casimir(system, r, k):
    """sum over a, b of (-1)^|b| e_ab^(r) e_ba^(k) with the legs in the given order, dense."""
    size = system.m + system.n
    total = {}
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            sign = 1 if b <= system.m else -1
            _sparse_add(total, _sparse_compose(fraction_leg(system, r, a, b), fraction_leg(system, k, b, a)), Q(sign))
    return dense_of(total, system.dim)


def random_gl11_modules(rng, n):
    """n two-dimensional (sometimes trivial) gl(1|1) modules at distinct points."""
    modules = []
    for _ in range(n):
        if rng.random() < 0.1:
            modules.append(gl11_module(0, 0))
        else:
            modules.append(gl11_module(Q(rng.randint(-6, 6), rng.randint(1, 3)), Q(rng.randint(-6, 6), rng.randint(1, 3))))
    points = rng.sample(sorted({Q(a, b) for a in range(-7, 8) for b in (1, 2, 5)}), n)
    return TensorSystem(modules, points)


def golden_gl11_system(name):
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    return TensorSystem([gl11_module(Q(p), Q(q)) for p, q in data["weights"]], [Q(z) for z in data["points"]])


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


class TestHamiltonianBuild:
    def test_gl11_matches_composed_build(self):
        rng = random.Random(2811)
        for n in (2, 3, 4, 2, 3, 4):
            system = random_gl11_modules(rng, n)
            for r in range(1, n + 1):
                assert system.hamiltonian(r) == composed_hamiltonian(system, r), (n, r)

    @pytest.mark.parametrize("m, n", [(2, 1), (1, 2)])
    def test_vector_reps_match_composed_build(self, m, n):
        for points in ([0, 1], [Q(-1, 2), 3, Q(7, 3)]):
            system = TensorSystem([vector_rep(m, n)] * len(points), points)
            for r in range(1, len(points) + 1):
                assert system.hamiltonian(r) == composed_hamiltonian(system, r), (points, r)


class TestPairCasimir:
    def pair_systems(self):
        rng = random.Random(3001)
        for n in (2, 3, 4, 2, 3, 4):
            yield random_gl11_modules(rng, n)
        for m, n in ((2, 1), (1, 2)):
            yield TensorSystem([vector_rep(m, n)] * 3, [Q(-1, 2), 3, Q(7, 3)])

    def test_hamiltonians_match_per_site_build(self):
        for system in self.pair_systems():
            for r in range(1, len(system.modules) + 1):
                assert system.hamiltonian(r) == per_site_hamiltonian(system, r), (system.dims, r)

    def test_casimir_is_symmetric(self):
        for system in self.pair_systems():
            sites = range(1, len(system.modules) + 1)
            for r, k in product(sites, sites):
                if r < k:
                    omega = ordered_casimir(system, r, k)
                    assert omega == ordered_casimir(system, k, r), (system.dims, r, k)
                    den = system.modules[r - 1].den * system.modules[k - 1].den
                    assert _sparse_to_dense(system._casimir(k, r), den, system.dim) == omega

    def test_one_product_per_pair(self):
        system = random_gl11_modules(random.Random(3002), 4)
        for r in range(1, 5):
            system._hamiltonian(r)
        assert sorted(system._casimir_cache) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def solve_blocks(system, sing):
    basis = [list(row) for row in zip(*sing)]
    return [
        solve_matrix(basis, mat_mul(system.hamiltonian(k), basis))
        for k in range(1, len(system.modules) + 1)
    ]


def fraction_block(block):
    """The Fraction matrix X / D of an (integer block X, denominator D) pair."""
    x, den = block
    assert all(type(v) is int for row in x for v in row) and type(den) is int
    return [[Q(v, den) for v in row] for row in x]


def integer_blocks(mats):
    """Rational matrices as the (integer block, denominator) pairs the split reads."""
    return [integer_scaled(m) for m in mats]


def blocks_agree(system, parity=S11):
    """Every singular space's blocks against solve_blocks; the number of spaces."""
    spaces = 0
    for weight in sorted(set(system.all_weights())):
        sing = singular_space(system, parity, weight)
        if sing:
            blocks = [fraction_block(b) for b in _restricted_hamiltonians(system, sing)]
            assert blocks == solve_blocks(system, sing), weight
            spaces += 1
    return spaces


SMALL_FRACTIONS = st.builds(Q, st.integers(-6, 6), st.integers(1, 7))
GL11_WEIGHTS = st.one_of(st.just((Q(0), Q(0))), st.tuples(SMALL_FRACTIONS, SMALL_FRACTIONS))


@st.composite
def gl11_systems(draw):
    """2-4 gl(1|1) modules, weights with denominators up to 7 (some trivial),
    at distinct rational points."""
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(GL11_WEIGHTS, min_size=n, max_size=n))
    points = draw(st.lists(SMALL_FRACTIONS, min_size=n, max_size=n, unique=True))
    return TensorSystem([gl11_module(p, q) for p, q in weights], points)


@st.composite
def vector_rep_systems(draw):
    """Three vector representations of gl(2|1) or gl(1|2) at distinct rational points."""
    m, n = draw(st.sampled_from([(2, 1), (1, 2)]))
    points = draw(st.lists(SMALL_FRACTIONS, min_size=3, max_size=3, unique=True))
    return TensorSystem([vector_rep(m, n)] * 3, points), ParitySequence.standard(m, n)


def per_index_weights(system):
    """Each basis vector's weight built index by index: the index split into
    leg components, each leg's weight read off its module's diagonal e_jj."""
    size = system.m + system.n
    out = []
    for idx in range(system.dim):
        comps = []
        for d in reversed(system.dims):
            comps.append(idx % d)
            idx //= d
        total = [Q(0)] * size
        for mod, comp in zip(system.modules, reversed(comps)):
            for j in range(size):
                total[j] += dict(mod.matrix(j + 1, j + 1).get(comp, [])).get(comp, Q(0))
        out.append(tuple(total))
    return out


class TestBasisWeights:
    """all_weights, summed per module, against the per-index build."""

    def test_trivial_module(self):
        system = TensorSystem([gl11_module(2, 1), gl11_module(0, 0), gl11_module(Q(1, 2), -3)], [0, 1, 2])
        assert system.dims == [2, 1, 2]
        assert system.all_weights() == per_index_weights(system)
        assert system.all_weights()[system.index_of((1, 0, 1))] == (Q(1, 2), Q(0))

    def test_legs_in_index_order(self):
        # gl(1|1) modules alone cannot tell the legs apart: their basis
        # weights differ by -alpha = (-1, 1) within each module.  A direct
        # sum of the characters (1, -1) and (3, -3) differs by (2, -2).
        pair = SuperModule(
            1, 1, 2, [1, 1], {(1, 1): {0: [(0, Q(1))], 1: [(1, Q(3))]}, (2, 2): {0: [(0, Q(-1))], 1: [(1, Q(-3))]}},
            Weight(1, 1, (1, -1)),
        )
        system = TensorSystem([pair, gl11_module(2, 1)], [0, 1])
        assert system.all_weights() == per_index_weights(system)
        assert system.all_weights() == [(Q(3), Q(0)), (Q(2), Q(1)), (Q(5), Q(-2)), (Q(4), Q(-1))]

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(gl11_systems())
    def test_gl11(self, system):
        assert system.all_weights() == per_index_weights(system)

    @pytest.mark.parametrize("m, n", [(2, 1), (1, 2)])
    def test_vector_rep(self, m, n):
        system = TensorSystem([vector_rep(m, n)] * 3, [0, Q(1, 2), 3])
        # basis vector j of the vector representation has weight epsilon_j
        assert system.all_weights() == per_index_weights(system) == [
            tuple(comps.count(j) for j in range(m + n)) for comps in product(range(m + n), repeat=3)
        ]


class TestIntegerLayer:
    """The integer maps read back as Fractions against the Fraction oracles."""

    def check_operators(self, system):
        for k, mod in enumerate(system.modules, start=1):
            for a, b in product(range(1, system.m + system.n + 1), repeat=2):
                leg = system._leg(k, a, b)
                assert all(isinstance(v, int) for col in leg.values() for _, v in col)
                assert {
                    col: [(row, Q(v, mod.den)) for row, v in entries] for col, entries in leg.items()
                } == fraction_leg(system, k, a, b)
        for r in range(1, len(system.modules) + 1):
            op, _ = system._hamiltonian(r)
            assert all(isinstance(v, int) for col in op.values() for _, v in col)
            assert system.hamiltonian(r) == per_site_hamiltonian(system, r) == composed_hamiltonian(system, r)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(gl11_systems())
    def test_gl11_operators_match_oracles(self, system):
        self.check_operators(system)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(gl11_systems())
    def test_gl11_blocks_match_solve(self, system):
        assert blocks_agree(system) > 0

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(vector_rep_systems())
    def test_vector_rep_operators_match_oracles(self, case):
        self.check_operators(case[0])

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(vector_rep_systems())
    def test_vector_rep_blocks_match_solve(self, case):
        assert blocks_agree(*case) > 0


class TestRestriction:
    @pytest.mark.parametrize("name", GL11_GOLDEN)
    def test_golden_blocks_match_solve(self, name):
        assert blocks_agree(golden_gl11_system(name)) > 0

    def test_random_blocks_match_solve(self):
        rng = random.Random(2812)
        for n in (2, 3, 4, 2, 3, 4, 3, 4):
            assert blocks_agree(random_gl11_modules(rng, n)) > 0

    @pytest.mark.parametrize("m, n", [(2, 1), (1, 2)])
    def test_vector_rep_blocks_match_solve(self, m, n):
        system = TensorSystem([vector_rep(m, n)] * 3, [0, Q(1, 2), 3])
        assert blocks_agree(system, ParitySequence.standard(m, n)) > 0

    def test_first_block_is_split_without_a_restriction(self, monkeypatch):
        # four singular spaces, of dimensions 1, 3, 3, 1: one call each
        # builds the blocks, and the split restricts only the three later
        # Hamiltonians, to each of the six eigenlines of the two 3-spaces;
        # the two 1-spaces are whole singular spaces, each matrix its block
        import gaudin.reps

        calls = []
        restrict = gaudin.reps._restrict
        monkeypatch.setattr(gaudin.reps, "_restrict", lambda *args: calls.append(args) or restrict(*args))
        report = gl11_spectrum_report(golden_gl11_system("gl11_four_sites"))
        assert [w["singular_dim"] for w in report["weights"]] == [1, 3, 3, 1]
        assert report["total_eigenlines"] == 8
        assert len(calls) == 4 + 3 * 6

    def test_non_invariant_basis_raises(self):
        # one standard basis vector of the two-dimensional (p - 1, q + 1)
        # weight space, which H_1 does not keep
        system = TensorSystem([gl11_module(2, 1), gl11_module(1, 0)], [0, 1])
        line = [Q(0)] * system.dim
        line[system.index_of((1, 0))] = Q(1)
        with pytest.raises(InternalInconsistency, match="^subspace is not invariant$"):
            _restricted_hamiltonians(system, [line])

    def test_non_invariant_line_raises(self, monkeypatch):
        # diag(1, 2, 2) splits into the line e_1 and the plane (e_2, e_3);
        # the second matrix keeps the plane but sends e_1 to e_1 + e_2, so
        # the line is checked without a split and fails
        import gaudin.reps

        sizes = []
        charpoly = gaudin.reps.int_charpoly
        monkeypatch.setattr(gaudin.reps, "int_charpoly", lambda a: sizes.append(len(a)) or charpoly(a))
        mats = [
            [[Q(1), Q(0), Q(0)], [Q(0), Q(2), Q(0)], [Q(0), Q(0), Q(2)]],
            [[Q(1), Q(0), Q(0)], [Q(1), Q(1), Q(0)], [Q(0), Q(0), Q(1)]],
        ]
        with pytest.raises(InternalInconsistency, match="^subspace is not invariant$"):
            _joint_eigen_decomposition(integer_blocks(mats))
        assert 1 not in sizes

    def test_non_invariant_plane_raises(self):
        # diag(1, 1, 2) splits into the plane (e_1, e_2) and the line e_3;
        # the second matrix sends e_1 to e_3 and e_3 to 0, so the line
        # holds and only the plane's check can raise
        mats = [
            [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(2)]],
            [[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0)], [Q(1), Q(0), Q(0)]],
        ]
        with pytest.raises(InternalInconsistency, match="^subspace is not invariant$"):
            _joint_eigen_decomposition(integer_blocks(mats))

    def test_non_commuting_pair_raises(self):
        # diag(1, 2) splits into the coordinate lines, which the swap mixes
        mats = [[[Q(1), Q(0)], [Q(0), Q(2)]], [[Q(0), Q(1)], [Q(1), Q(0)]]]
        with pytest.raises(InternalInconsistency, match="^subspace is not invariant$"):
            _joint_eigen_decomposition(integer_blocks(mats))


def fraction_split(mats):
    """The joint eigenspaces with each lifted basis kept as dense Fraction
    vectors and each block solved for: the oracle for the integer lift.

    Returns (eigenvalue tuple, basis) pairs in the split's order.
    """
    dim = len(mats[0])
    spaces = [((), identity(dim))]
    for m in mats:
        new_spaces = []
        for eigs, vectors in spaces:
            columns = [list(col) for col in zip(*vectors)]
            action = solve_matrix(columns, mat_mul(m, columns))
            for root, _mult in rational_roots(Poly(charpoly_coeffs(action)))[0]:
                null = nullspace(mat_sub(action, mat_scale(identity(len(action)), root)))
                lifted = [[sum(c * vec[t] for c, vec in zip(coef, vectors)) for t in range(dim)] for coef in null]
                new_spaces.append((eigs + (root,), lifted))
        spaces = new_spaces
    return spaces


def conjugated(pmat, diagonals):
    """P D P^-1 for each diagonal D: commuting matrices with a planted joint spectrum."""
    inverse = solve_matrix(pmat, identity(len(pmat)))
    out = []
    for diag in diagonals:
        dmat = [[d if i == j else Q(0) for j in range(len(diag))] for i, d in enumerate(diag)]
        out.append(mat_mul(mat_mul(pmat, dmat), inverse))
    return out


def assert_split_matches_oracle(mats):
    spaces, irrational, _ = _joint_eigen_decomposition(integer_blocks(mats))
    oracle = fraction_split(mats)
    assert irrational == 0
    assert [(eigs, len(vs)) for eigs, vs in spaces] == [(eigs, len(vs)) for eigs, vs in oracle]
    for (eigs, vectors), (_, fractions) in zip(spaces, oracle):
        assert all(type(x) is int for v in vectors for x in v)
        for m, value in zip(mats, eigs):
            for v in vectors:
                assert mat_vec(m, v) == [value * x for x in v]
        assert rank(vectors + fractions) == len(vectors)
    return spaces


class TestSplitLift:
    def test_plane_split_by_the_second_matrix(self):
        # A has the eigenvalue 1 on a plane, which B splits into 5 and 7
        pmat = [[Q(x) for x in row] for row in [[1, 2, 0, -1], [0, 1, 3, 1], [2, 0, 1, 1], [1, -1, 1, 2]]]
        mats = conjugated(pmat, [[1, 1, Q(-1, 2), 3], [5, 7, 5, Q(2, 3)]])
        spaces = assert_split_matches_oracle(mats)
        assert [eigs for eigs, _ in spaces] == [(Q(-1, 2), 5), (1, 5), (1, 7), (3, Q(2, 3))]
        assert all(len(vs) == 1 for _, vs in spaces)

    def test_planted_pairs(self):
        # random P, and diagonals drawn from small pools so that A has
        # repeated eigenvalues and B splits some of their eigenspaces
        rng = random.Random(35)
        splits = 0
        for _ in range(12):
            size = rng.randint(3, 5)
            while True:
                pmat = [[Q(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
                if rank(pmat) == size:
                    break
            diagonals = [[Q(rng.choice([-1, 2]), rng.choice([1, 3])) for _ in range(size)] for _ in range(2)]
            spaces = assert_split_matches_oracle(conjugated(pmat, diagonals))
            splits += len({eigs[0] for eigs, _ in spaces}) < len(spaces)
        assert splits > 0


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

        def e21_at(u):
            out = {}
            for k in range(1, 4):
                _sparse_add(out, fraction_leg(system, k, 2, 1), Q(1) / (u - system.points[k - 1]))
            return out

        v = [Q(0)] * system.dim
        v[system.index_of((0, 0, 0))] = Q(1)
        oracle = sparse_apply(e21_at(t1), sparse_apply(e21_at(t2), v))
        assert got == oracle

    def test_anticommutation(self):
        system = TensorSystem([gl11_module(1, 0)] * 2, [0, 1])

        def e21_at(u):
            out = {}
            for k in (1, 2):
                _sparse_add(out, fraction_leg(system, k, 2, 1), Q(1) / (u - system.points[k - 1]))
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
        spaces, _, _ = _joint_eigen_decomposition(integer_blocks(restricted))
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


class TestSixSites:
    def test_split_matches_the_divisors_below_the_guard(self):
        # master roots 1/2, 3/2, ..., 9/2 at the points 0, ..., 5, levels
        # h_k = N(z_k) / prod_{j != k} (z_k - z_j): the report refuses six
        # sites, so its steps are run one by one, on blocks up to 10 x 10
        zs = [Q(k) for k in range(6)]
        roots = [Q(2 * k + 1, 2) for k in range(5)]
        hs = []
        for k, z in enumerate(zs):
            num = den = Q(1)
            for t in roots:
                num *= z - t
            for j, w in enumerate(zs):
                if j != k:
                    den *= z - w
            hs.append(num / den)
        system = TensorSystem([gl11_module(h, 0) for h in hs], zs)
        weights = [mod.weight for mod in system.modules]
        sites = site_table(S11, weights, zs)
        master = master_polynomial(hs, zs)
        assert master == Poly.from_roots(roots)
        divisors = monic_divisors(master)
        for l in range(6):
            sing = singular_space(system, S11, weight_at_infinity(S11, weights, [l]))
            blocks = _restricted_hamiltonians(system, sing)
            assert {len(x) for x, _ in blocks} == {comb(5, l)}
            spaces, irrational, _ = _joint_eigen_decomposition(blocks)
            expected = {tuple(table_eigenvalues(sites, (d,)).values()) for d in divisors if d.degree == l}
            assert len(expected) == len(spaces) == comb(5, l), l
            assert {eigs for eigs, _ in spaces} == expected, l
            assert irrational == 0 and all(len(vs) == 1 for _, vs in spaces)


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


def jordan_defect(mats):
    """_has_jordan_defect with the first characteristic polynomial the split
    returns: that of the first integer block D A, whose coefficient of t^j
    is D^(n-j) times A's."""
    blocks = integer_blocks(mats)
    _, _, first = _joint_eigen_decomposition(blocks)
    (x, den), n = blocks[0], len(mats[0])
    assert first == Poly(int_charpoly(x))
    assert first == Poly([c * den ** (n - j) for j, c in enumerate(charpoly_coeffs(mats[0]))])
    return _has_jordan_defect(blocks, first)


class TestJordanDefect:
    def test_agrees_with_rank_of_square(self):
        # a planted matrix alone, or beside a polynomial in it (which
        # commutes with it) in either order
        rng = random.Random(1907)
        outcomes = set()
        for _ in range(40):
            a, planted = planted_matrix(rng)
            mats = [a]
            if rng.random() < 0.6:
                c0, c1, c2 = (Q(rng.randint(-2, 2)) for _ in range(3))
                square = mat_mul(a, a)
                b = [
                    [c0 * (i == j) + c1 * a[i][j] + c2 * square[i][j] for j in range(len(a))]
                    for i in range(len(a))
                ]
                mats = rng.choice([[a, b], [b, a]])
            got = jordan_defect(mats)
            assert got == rank_of_square_defect(mats)
            if len(mats) == 1:
                assert got == planted
            else:
                assert got or not planted
            outcomes.add((got, len(mats)))
        assert outcomes == {(True, 1), (False, 1), (True, 2), (False, 2)}

    def test_defect_only_in_a_later_matrix(self):
        # B = (A - 1)^2 is diagonal with the double eigenvalue 0, so its
        # characteristic polynomial is not squarefree; A = J_2(1) + (3) has
        # the defect, which only the check of every matrix finds
        a = [[Q(1), Q(1), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(3)]]
        shifted = mat_sub(a, identity(3))
        b = mat_mul(shifted, shifted)
        assert b == [[0, 0, 0], [0, 0, 0], [0, 0, 4]]
        assert jordan_defect([b, a])
        assert not jordan_defect([b, b])

    def test_squarefree_first_needs_commuting_matrices(self):
        # diag(1, 2) has a simple spectrum, but the nilpotent e_12 does not
        # commute with it, so no conclusion is drawn from the first matrix
        blocks = integer_blocks([[[Q(1), Q(0)], [Q(0), Q(2)]], [[Q(0), Q(1)], [Q(0), Q(0)]]])
        first = Poly(int_charpoly(blocks[0][0]))
        with pytest.raises(InternalInconsistency, match="^restricted Hamiltonians do not commute$"):
            _has_jordan_defect(blocks, first)

    def test_first_charpoly_is_not_recomputed(self, monkeypatch):
        # diag(2, 2, 3) is not squarefree, so each matrix is checked; the
        # first is checked on the characteristic polynomial passed in
        import gaudin.reps

        [d] = integer_blocks([[[Q(2), Q(0), Q(0)], [Q(0), Q(2), Q(0)], [Q(0), Q(0), Q(3)]]])
        first = Poly(int_charpoly(d[0]))
        calls = []
        charpoly = gaudin.reps.int_charpoly
        monkeypatch.setattr(gaudin.reps, "int_charpoly", lambda a: calls.append(a) or charpoly(a))
        assert not _has_jordan_defect([d], first)
        assert calls == []
        assert not _has_jordan_defect([d, d], first)
        assert len(calls) == 1

    def test_line_has_no_defect(self):
        blocks = integer_blocks([[[Q(2)]], [[Q(-1, 3)]]])
        assert _joint_eigen_decomposition(blocks)[2] is None
        assert not _has_jordan_defect(blocks, None)

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
        # the two 3x3 blocks of weight 1 and 2 under H_1; every other block
        # is split into lines, which are read without a root search
        assert len([d for d in degrees if d > 0]) == 2


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
