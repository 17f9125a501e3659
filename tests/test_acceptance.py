"""Acceptance criteria, one test per numbered item.

Each test prints a single PASS line (visible with ``pytest -s``) and
enforces its stated runtime budget.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from gaudin import (
    BethePoint,
    CompleteFactorization,
    DiffOp,
    OreFraction,
    ParitySequence,
    Poly,
    ProblemData,
    RatFun,
    SuperFlag,
    TensorSystem,
    Weight,
    check_lowering_bridge,
    dominant,
    eigenvalue_conservation,
    flag_factorization,
    gaudin_eigenvalue,
    gl11_module,
    gl11_nonpoly_report,
    gl11_spectrum_report,
    hook_weight,
    kernel_spaces,
    log_deriv,
    master_polynomial,
    ore_swap,
    populate,
    refactor_to_parity,
    right_divide,
    singular_space,
    vector_rep,
    verify_r_invariance,
    weight_at_infinity,
    weight_function,
    weight_polys,
    weight_polys_by_swaps,
    weight_polys_from_collisions,
    wronskian,
    zero_pole_radical,
)
from gaudin.jsonio import poly_to_json
from gaudin.linalg import rank, solve_linear
from gaudin.rational import rational_roots
from conftest import mat_vec, random_gl11_system

X = Poly.x()


def _report(num, start, message):
    elapsed = time.monotonic() - start
    print(f"criterion {num}: PASS ({elapsed:.2f}s) {message}")


def test_criterion_01_worked_population(worked_population):
    start = time.monotonic()
    nodes = {
        parity: {tuple(tuple(poly_to_json(y)) for y in p.ys) for p in points}
        for parity, points in worked_population.by_parity().items()
    }

    def ys(*polys):
        return tuple(tuple(poly_to_json(p)) for p in polys)

    one = Poly.one()
    expected = {
        (1, 1, -1): {ys(X - c, one) for c in (0, 1, 2)} | {ys(one, one)},
        (1, -1, 1): {
            ys(X - c, (4 * X**3 - 3 * c * X**2 - 1).monic()) for c in (0, 1, 2)
        }
        | {ys(one, X**2)},
        (-1, 1, 1): {
            ys((2 * X**4 + X).monic(), (4 * X**3 - 3 * c * X**2 - 1).monic())
            for c in (0, 1, 2)
        }
        | {ys((2 * X**4 + X).monic(), X**2)},
    }
    assert nodes == expected
    assert len(worked_population.nodes) == 12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, start, "worked gl(2|1) population matches the displayed tuples")


def test_criterion_02_r_invariance(worked_population):
    start = time.monotonic()
    assert verify_r_invariance(worked_population)
    base = worked_population.operator()
    x3m1 = X**3 - 1
    c = 1
    y2 = 4 * X**3 - 3 * c * X**2 - 1
    displayed = [
        CompleteFactorization(
            ParitySequence((1, 1, -1)),
            [log_deriv(RatFun(x3m1)), log_deriv(RatFun(x3m1)), RatFun.zero()],
        ),
        # the general-c standard-parity member: both factors carry the
        # displayed c-dependent logarithmic derivatives
        CompleteFactorization(
            ParitySequence((1, 1, -1)),
            [
                RatFun(2 * X**3 - 3 * c * X**2 + 1, X**4 - c * X**3 - X + c),
                RatFun(4 * X**3 - 3 * c * X**2 - 1, X**4 - c * X**3 - X + c),
                RatFun.zero(),
            ],
        ),
        CompleteFactorization(
            ParitySequence((1, -1, 1)),
            [
                log_deriv(RatFun(x3m1, X - c)),
                log_deriv(RatFun(y2, x3m1 * (X - c))),
                log_deriv(RatFun(y2)),
            ],
        ),
        CompleteFactorization(
            ParitySequence((-1, 1, 1)),
            [
                log_deriv(RatFun(2 * X**4 + X, x3m1**2)),
                log_deriv(RatFun(2 * X**4 + X, y2)),
                log_deriv(RatFun(y2)),
            ],
        ),
    ]
    for fac in displayed:
        assert fac.to_fraction().same_operator(base)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, start, "population operator equal across nodes and displayed forms")


def test_criterion_03_radical_and_dominant():
    start = time.monotonic()
    f = RatFun(X**5 * (X - 1) ** 4, (X - 3) * (X + 6) ** 2)
    assert zero_pole_radical(f) == (X * (X - 1) * (X - 3) * (X + 6)).monic()
    assert dominant([-3, -3, -3, -1, 0, 5, 5, 6]) == [-3, -2, -1, 0, 1, 5, 6, 7]
    _report(3, start, "zero/pole support and dominant match the displayed outputs")


def test_criterion_04_hook_coordinates():
    start = time.monotonic()
    w = hook_weight([7, 6, 4, 3, 3], 3, 3)
    assert w.coords == (7, 6, 4, 2, 2, 2)
    assert w.coords_at(ParitySequence((1, 1, -1, -1, -1, 1))) == (7, 6, 3, 3, 3, 1)
    assert w.coords_at(ParitySequence((1, -1, 1, -1, 1, -1))) == (7, 4, 5, 3, 2, 2)
    _report(4, start, "hook-partition coordinate sequences match")


def test_criterion_05_weight_poly_transport():
    start = time.monotonic()
    rng = random.Random(5050)
    shapes = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (2, 3), (3, 2), (4, 1), (1, 4)]
    for trial in range(20):
        m, n = shapes[trial % len(shapes)]
        sites = rng.randint(1, 3)
        ws = []
        for _ in range(sites):
            mu = sorted((rng.randint(0, 5) for _ in range(m)), reverse=True)
            mu += sorted((rng.randint(0, n) for _ in range(2)), reverse=True)
            ws.append(hook_weight(sorted(mu, reverse=True), m, n))
        zs = rng.sample(range(-4, 6), sites)
        ts0 = weight_polys(ParitySequence.standard(m, n), ws, zs)
        for s in ParitySequence.all_sequences(m, n):
            direct = weight_polys(s, ws, zs)
            via_collisions = weight_polys_from_collisions(s, ts0)
            via_swaps = weight_polys_by_swaps(s, ts0)
            assert direct == via_collisions == via_swaps
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, start, "direct, collision and swap transport agree on 20 problems")


@pytest.fixture(scope="module")
def spectra_systems():
    rng = random.Random(66_2026)
    out = []
    for _ in range(10):
        pqs, zs, roots = random_gl11_system(rng)
        out.append((pqs, zs, roots))
    return out


def test_criterion_06_gl11_spectra(spectra_systems):
    start = time.monotonic()
    for pqs, zs, roots in spectra_systems:
        system = TensorSystem([gl11_module(p, q) for p, q in pqs], zs)
        report = gl11_spectrum_report(system)
        assert report["counts_match"]
        assert report["eigenvalues_match"]
        assert not report["jordan_defect"]
        assert report["total_divisors"] == report["total_eigenlines"] == 4
    # tuned double root: levels solving N(t) = N'(t) = 0 force a Jordan block
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
    _, null = solve_linear(rows, [Q(0), Q(0)])
    hvec = null[0]
    scale = 1
    for f in hvec:
        scale *= f.denominator
    hvec = [v * scale for v in hvec]
    nt = master_polynomial(hvec, zs)
    assert nt == (X - t) ** 2
    tuned = TensorSystem([gl11_module(h, 0) for h in hvec], zs)
    tuned_report = gl11_spectrum_report(tuned)
    assert tuned_report["jordan_defect"]
    assert tuned_report["counts_match"]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(6, start, "divisor counts, eigenvalues and the Jordan dichotomy hold")


def test_criterion_07_eigenvalue_conservation(rational_gl21_problem, spectra_systems):
    start = time.monotonic()
    # rational-point gl(2|1) population with the worked-example structure
    seed = BethePoint(
        rational_gl21_problem, ParitySequence.standard(2, 1), [Poly.one()] * 2
    )
    pop = populate(seed, [Q(5), Q(7), Q(1, 3)])
    assert len(pop.edges) >= 9
    assert eigenvalue_conservation(pop)
    # gl(1|1) populations of every criterion-6 system, from every divisor seed
    for pqs, zs, roots in spectra_systems:
        prob = ProblemData(1, 1, [Weight(1, 1, pq) for pq in pqs], points=zs)
        for seed_y in [Poly.one(), Poly((-roots[0], 1)), Poly((-roots[1], 1))]:
            p = BethePoint(prob, ParitySequence.standard(1, 1), [seed_y])
            pop = populate(p, [Q(0)])
            assert len(pop.edges) >= 1
            assert eigenvalue_conservation(pop)
    _report(7, start, "eigenvalues conserved across every reproduction edge")


def test_criterion_08_weight_function_desk_check():
    start = time.monotonic()
    # three vector representations of gl(1|1): master roots made rational
    zs = [Q(0), Q(1), Q(-5, 3)]
    nt = master_polynomial([1, 1, 1], zs)
    roots = [r for r, _ in rational_roots(nt)[0]]
    assert len(roots) == 2
    system = TensorSystem([vector_rep(1, 1)] * 3, zs)
    prob = ProblemData(1, 1, [vector_rep(1, 1).weight] * 3, points=zs)
    s0 = ParitySequence.standard(1, 1)
    for tset in ([roots[0]], [roots[1]], roots):
        w = weight_function(system, s0, [tset])
        assert any(v != 0 for v in w)
        winf = weight_at_infinity(s0, [vector_rep(1, 1).weight] * 3, [len(tset)])
        sing = singular_space(system, s0, winf)
        assert rank(sing + [w]) == len(sing)
        point = BethePoint(prob, s0, [Poly.from_roots(tset)])
        for k in (1, 2, 3):
            ek = gaudin_eigenvalue(point, k)
            hw = mat_vec(system.hamiltonian(k), w)
            assert hw == [ek * v for v in w]
    # two-site gl(2|1) vector system with the midpoint Bethe root
    system2 = TensorSystem([vector_rep(2, 1)] * 2, [0, 1])
    prob2 = ProblemData(2, 1, [vector_rep(2, 1).weight] * 2, points=[0, 1])
    s0 = ParitySequence.standard(2, 1)
    t = Q(1, 2)
    w = weight_function(system2, s0, [[t], []])
    winf = weight_at_infinity(s0, [vector_rep(2, 1).weight] * 2, [1, 0])
    sing = singular_space(system2, s0, winf)
    assert rank(sing + [w]) == len(sing)
    point = BethePoint(prob2, s0, [Poly((-t, 1)), Poly.one()])
    for k in (1, 2):
        ek = gaudin_eigenvalue(point, k)
        hw = mat_vec(system2.hamiltonian(k), w)
        assert hw == [ek * v for v in w]
    _report(8, start, "Bethe vectors are singular joint eigenvectors as stated")


def _random_ratfun(rng, allow_zero=False):
    while True:
        num = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        den = Poly([rng.randint(-2, 2), rng.randint(0, 1) or 1])
        if den.is_zero():
            continue
        f = RatFun(num, den)
        if allow_zero or not f.is_zero():
            return f


def _random_op(rng, max_order=2, monic=False):
    order = rng.randint(1 if monic else 0, max_order)
    coeffs = [_random_ratfun(rng, allow_zero=True) for _ in range(order)]
    coeffs.append(RatFun.one() if monic else _random_ratfun(rng))
    return DiffOp(coeffs)


def test_criterion_09_skew_property_suite():
    start = time.monotonic()
    rng = random.Random(909)
    for _ in range(200):
        a, b, c = (_random_op(rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    for _ in range(200):
        a, b = _random_op(rng, 3), _random_op(rng, 2)
        q, r = right_divide(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.order < b.order
    done = 0
    while done < 200:
        u, v = _random_ratfun(rng), _random_ratfun(rng)
        if u == v:
            continue
        cc, dd = ore_swap(u, v)
        assert DiffOp.first_order(cc) * DiffOp.first_order(u) == (
            DiffOp.first_order(dd) * DiffOp.first_order(v)
        )
        done += 1
    for _ in range(200):
        d0 = _random_op(rng, 1)
        d1 = _random_op(rng, 1, monic=True)
        g = _random_op(rng, 1, monic=True)
        padded = OreFraction(d0 * g, d1 * g).minimal()
        direct = OreFraction(d0, d1).minimal()
        assert padded.num == direct.num and padded.den == direct.den
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(9, start, "200 randomized cases per skew-algebra property, zero failures")


def test_criterion_10_wronski_identity_and_flag_swaps(worked_population):
    start = time.monotonic()
    rng = random.Random(1010)
    checked = 0
    while checked < 100:
        fams = [
            RatFun(
                Poly([rng.randint(-2, 2) for _ in range(3)]),
                Poly([rng.randint(-2, 2), 1]),
            )
            for _ in range(4)
        ]
        if any(f.is_zero() for f in fams):
            continue
        a = rng.randint(0, 2)
        b = 2 - a
        v = fams[: a + 1]
        u = fams[a + 1 : a + 2 + b]
        w1 = wronskian(v + u[:b])
        w2 = wronskian(v[:a] + u)
        if w1.is_zero() or w2.is_zero():
            continue
        lhs = wronskian([w1, w2])
        rhs = wronskian(v + u) * wronskian(v[:a] + u[:b])
        assert lhs == rhs
        checked += 1
    # flag factorization commutes with parity transport
    space = kernel_spaces(worked_population)
    s0 = ParitySequence.standard(2, 1)
    flag0 = SuperFlag(s0, space.vbasis, space.ubasis)
    fac0 = flag_factorization(space, flag0)
    for target in ParitySequence.all_sequences(2, 1):
        fac_direct = flag_factorization(space, SuperFlag(target, space.vbasis, space.ubasis))
        fac_moved = refactor_to_parity(fac0, target)
        assert fac_direct.coefficients == fac_moved.coefficients
    _report(10, start, "Wronski identity on 100 tuples; flag factorization transports")


def test_criterion_11_nonpolynomial_example():
    start = time.monotonic()
    system = TensorSystem(
        [gl11_module(1, 0), gl11_module(1, 0), gl11_module(1, -3)], [0, 1, 2]
    )
    report = gl11_nonpoly_report(system)
    assert report["master_degree"] == 1
    assert report["weight_space_dims"] == {1: 3, 2: 3}
    assert report["singular_dim"] == 4
    assert report["singular_quotient_dim"] == 2
    nt = report["master_poly"]
    root = -nt.coeff(0)
    assert not check_lowering_bridge(
        system, ParitySequence.standard(1, 1), [[]], [[root]]
    )
    _report(11, start, "non-polynomial setting matches the stated structure")
