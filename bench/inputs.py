"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the
same inputs.  The engine only ever sees the payloads built here.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The README's gl(2|1) fixture: evaluation points at the cube roots of
# unity, pinned by the weight polynomials (x^3-1, x^3-1, 1).
WORKED_PROBLEM = {
    "problem": {
        "M": 2,
        "N": 1,
        "parity": [1, 1, -1],
        "weights": [["1", "1", "0"], ["1", "1", "0"], ["1", "1", "0"]],
        "Ts": [["-1", "0", "0", "1"], ["-1", "0", "0", "1"], ["1"]],
    },
    "seed": {"parity": [1, 1, -1], "ys": [["1"], ["1"]]},
}
# Sample triples of distinct integers in [-3, 3] whose task time at the
# seed commit (the lower of two measurements, 2 CPUs, Python 3.11) lay
# within 8% of the median over all 35 such triples: the seed changes the
# inputs, not the amount of work a task does.
WORKED_SAMPLE_POOL = (
    (-3, -1, 1), (-3, -1, 3), (-3, 0, 2), (-3, 0, 3), (-3, 1, 2), (-2, -1, 1), (-2, -1, 2),
    (-2, -1, 3), (-2, 0, 3), (-1, 0, 2), (-1, 0, 3), (-1, 2, 3), (1, 2, 3),
)

# gl(3|1), weight (1,1,1,0) at the points 0, 1, 2: the population grows
# without bound, so every task caps the breadth-first depth.  Depth 4 gives
# 352 nodes in about 1.5-2.5 s; depth 6 takes 4-11 s a task, too few tasks
# for a steady median in one run.
GL31_PROBLEM = {
    "M": 3,
    "N": 1,
    "weights": [["1", "1", "1", "0"]] * 3,
    "points": ["0", "1", "2"],
}
GL31_SEED = {"parity": [1, 1, 1, -1], "ys": [["1"], ["1"], ["1"]]}
GL31_MAX_DEPTH = 4
GL31_NODES, GL31_EDGES = 352, 384
# Triples of distinct integers in [-6, 6] whose depth-capped population has
# the generic size GL31_NODES, GL31_EDGES (no two sampled family members
# coincide) and whose task time at the seed commit lay within 8% of the
# median over those triples, so all tasks do about the same work.
GL31_SAMPLE_POOL = (
    (-6, -5, 1), (-6, -5, 6), (-6, -4, 1), (-6, -4, 3), (-6, -4, 4), (-6, -4, 5),
    (-6, 1, 3), (-6, 1, 6), (-6, 3, 4), (-6, 3, 5), (-6, 4, 5), (-6, 4, 6), (-6, 5, 6),
    (-5, -4, 5), (-5, -4, 6), (-5, -3, 3), (-5, -3, 4), (-5, -3, 5), (-5, -3, 6),
    (-5, 1, 3), (-5, 3, 4), (-5, 4, 5), (-5, 4, 6), (-4, -3, 1), (-4, -3, 5), (-4, -1, 3),
    (-4, 1, 3), (-4, 3, 4), (-4, 3, 5), (-4, 4, 5), (-4, 4, 6), (-3, -1, 6), (-3, 1, 4),
    (-3, 4, 5), (1, 4, 6),
)


def _shuffled_cycles(rng: random.Random, pool, count: int) -> list:
    """``count`` draws: the pool in a fresh random order, again and again."""
    out: list = []
    while len(out) < count:
        out += rng.sample(list(pool), len(pool))
    return out[:count]


def worked_samples(seed: int, count: int) -> list[tuple[int, int, int]]:
    """Sample triples for the worked gl(2|1) problem."""
    return _shuffled_cycles(random.Random(f"worked_gl21/{seed}"), WORKED_SAMPLE_POOL, count)


def gl31_samples(seed: int, count: int) -> list[tuple[int, int, int]]:
    """Sample triples for the gl(3|1) problem."""
    return _shuffled_cycles(random.Random(f"gl31_growth/{seed}"), GL31_SAMPLE_POOL, count)


def interlacing_levels(zs, roots) -> list[int] | None:
    """Smallest positive integer levels h with sum h_i/(x - z_i) vanishing at the roots.

    The numerator of sum h_i/(x - z_i) is h-weighted and of degree n-1, so
    it is fixed up to scale by its n-1 roots: h_i is proportional to
    prod_k (z_i - t_k) / prod_{j != i} (z_i - z_j).  Interlacing roots make
    every ratio the same sign.
    """
    ratios = []
    for i, z in enumerate(zs):
        num = Fraction(1)
        for t in roots:
            num *= z - t
        den = Fraction(1)
        for j, other in enumerate(zs):
            if j != i:
                den *= z - other
        ratios.append(num / den)
    if not all(r > 0 for r in ratios) and not all(r < 0 for r in ratios):
        return None
    lcm = 1
    for r in ratios:
        lcm = lcm * r.denominator // _gcd(lcm, r.denominator)
    ints = [abs(int(r * lcm)) for r in ratios]
    g = 0
    for v in ints:
        g = _gcd(g, v)
    return [v // g for v in ints]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


GL11_MAX_LEVEL = 30


def gl11_system(rng: random.Random) -> dict:
    """One typical 4-site gl(1|1) system whose master roots are rational.

    Points are distinct small integers; the three roots interlace them
    with denominators 2 or 3; levels are solved exactly from the roots and
    each is split into (p, q) with p + q = h.  Levels above
    ``GL11_MAX_LEVEL`` are redrawn, which keeps the Hamiltonian entries,
    and so the root search, of comparable size from system to system.
    """
    while True:
        zs = sorted(rng.sample(range(-2, 4), 4))
        roots = [Fraction(z) + Fraction(rng.randint(1, 2), rng.choice((2, 3))) for z in zs[:3]]
        if not all(zs[k] < roots[k] < zs[k + 1] for k in range(3)):
            continue
        hs = interlacing_levels(zs, roots)
        if hs is None or max(hs) > GL11_MAX_LEVEL:
            continue
        weights = []
        for h in hs:
            p = rng.randint(1, h)
            weights.append([str(p), str(h - p)])
        return {
            "weights": weights,
            "points": [str(z) for z in zs],
            "roots": [str(t) for t in roots],
        }


def gl11_systems(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"gl11_spectra/{seed}")
    return [gl11_system(rng) for _ in range(count)]


# Task time over the generated systems spreads tenfold, and a run covers
# only a hundred or two of them, so systems drawn afresh for each seed
# would make the mix, not the engine, set the figures.  The pool holds the
# positions in gl11_systems(GL11_POOL_SEED, 120) whose task time at the
# seed commit (median of three, calibrated as in yardstick.py) lay within
# 20% of the median over those 120 systems.
GL11_POOL_SEED = 1809
GL11_POOL = (
    6, 11, 14, 15, 16, 19, 28, 32, 34, 42, 44, 45, 49, 53, 54, 55,
    58, 60, 72, 73, 81, 82, 89, 90, 93, 96, 102, 105, 108, 109, 113, 118,
)


def gl11_samples(seed: int, count: int) -> list[dict]:
    """gl(1|1) systems for the workload: the pool, in seeded order."""
    systems = gl11_systems(GL11_POOL_SEED, GL11_POOL[-1] + 1)
    pool = [systems[i] for i in GL11_POOL]
    return _shuffled_cycles(random.Random(f"gl11_spectra/{seed}"), pool, count)
