import random
from fractions import Fraction as Q

import pytest

from gaudin.bethe import BethePoint, populate
from gaudin.linalg import solve_linear
from gaudin.rational import Poly
from gaudin.weights import ParitySequence, ProblemData, Weight


@pytest.fixture(scope="session")
def worked_problem():
    """gl(2|1), three sites at the cube roots of unity, weight (1,1,0) each.

    The evaluation points are irrational, so the problem is pinned by its
    standard-parity weight polynomials (x^3-1, x^3-1, 1).
    """
    x = Poly.x()
    t = x**3 - 1
    return ProblemData(2, 1, [Weight(2, 1, (1, 1, 0))] * 3, ts=[t, t, Poly.one()])


@pytest.fixture(scope="session")
def worked_seed(worked_problem):
    return BethePoint(
        worked_problem, ParitySequence.standard(2, 1), [Poly.one(), Poly.one()]
    )


@pytest.fixture(scope="session")
def worked_population(worked_seed):
    return populate(worked_seed, [0, 1, 2])


@pytest.fixture(scope="session")
def rational_gl21_problem():
    """Same shape as the worked example but with rational points 0, 1, 2."""
    return ProblemData(2, 1, [Weight(2, 1, (1, 1, 0))] * 3, points=[0, 1, 2])


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Q(0)) for row in a]


def solve_levels_for_roots(zs, roots, bound=30):
    """Positive integer level parameters whose master polynomial has the
    given roots; returns None when the sign pattern or the size bound
    does not allow it."""
    rows = []
    for t in roots:
        row = []
        for k in range(len(zs)):
            prod = Q(1)
            for j, z in enumerate(zs):
                if j != k:
                    prod *= t - z
            row.append(prod)
        rows.append(row)
    _, null = solve_linear(rows, [Q(0)] * len(rows))
    if len(null) != 1:
        return None
    h = null[0]
    scale = 1
    for f in h:
        scale = scale * f.denominator // _gcd(scale, f.denominator)
    ints = [int(f * scale) for f in h]
    common = 0
    for v in ints:
        common = _gcd(common, v)
    if common:
        ints = [v // common for v in ints]
    if all(v < 0 for v in ints):
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints) or sum(ints) > bound:
        return None
    return ints


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def random_gl11_system(rng: random.Random):
    """Random typical 3-site gl(1|1) data with rational master roots.

    Roots interlace the points, which keeps the level parameters positive;
    small denominators keep the weight polynomials desk-sized.
    """
    while True:
        zs = sorted(rng.sample(range(-3, 7), 3))
        zs = [Q(z) for z in zs]
        t1 = zs[0] + Q(rng.randint(1, 2), rng.choice([2, 3]))
        t2 = zs[1] + Q(rng.randint(1, 2), rng.choice([2, 3]))
        if not (zs[0] < t1 < zs[1] < t2 < zs[2]):
            continue
        hs = solve_levels_for_roots(zs, [t1, t2])
        if hs is None:
            continue
        pqs = []
        for h in hs:
            p = rng.randint(1, h)
            pqs.append((p, h - p))
        return pqs, zs, sorted([t1, t2])


LINEAR_SYSTEM_KINDS = ("full", "deficient", "inconsistent", "zero_rows", "ints", "huge")


def random_linear_system(rng: random.Random, kind: str):
    """Seeded rows and right-hand side of a rational system A x = b.

    ``deficient`` and ``inconsistent`` repeat combinations of earlier rows,
    the second with a right-hand side off the column span; ``zero_rows``
    mixes in all-zero rows; ``ints`` has int entries only; ``huge`` has
    entries near 10^50 over small denominators.
    """
    m, n = rng.randint(1, 6), rng.randint(1, 6)

    def entry():
        if kind == "ints":
            return rng.randint(-9, 9)
        if kind == "huge":
            return Q(10**50 + rng.randint(-10**6, 10**6), rng.randint(1, 7)) * rng.choice([-1, 1])
        return Q(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.8 else Q(0)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    if kind in ("deficient", "inconsistent"):
        for _ in range(rng.randint(1, 3)):
            ws = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
            rows.append([sum((w * row[c] for w, row in zip(ws, rows)), Q(0)) for c in range(n)])
            rhs.append(sum((w * b for w, b in zip(ws, rhs)), Q(0)))
        if kind == "inconsistent":
            rhs[-1] += 1
    elif kind == "zero_rows":
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(rows))
            rows.insert(i, [Q(0)] * n)
            rhs.insert(i, Q(0))
    return rows, rhs
