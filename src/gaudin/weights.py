"""Parity sequences, gl(M|N) weights and the polynomial data attached to them.

A parity sequence is a tuple of +-1 with exactly M plus entries; it selects
a Borel subalgebra.  Weights are stored once, in standard-parity
coordinates; every other coordinate sequence is produced on demand by
walking adjacent transpositions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (
    InternalInconsistency,
    InvalidInput,
    InvalidPartition,
    InvalidPoints,
    InvalidSwap,
    UnsupportedWeight,
)
from .rational import Poly, Q, coprime_basis, multiplicity, qq, radical


class ParitySequence:
    """Sequence of +-1 entries with exactly M entries equal to +1."""

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if any(e not in (1, -1) for e in entries):
            raise InvalidInput(f"parity entries must be +-1: {entries}")
        self.entries = entries

    @staticmethod
    def standard(m: int, n: int) -> "ParitySequence":
        return ParitySequence((1,) * m + (-1,) * n)

    @staticmethod
    def all_sequences(m: int, n: int):
        """All parity sequences with m plus entries, in a fixed order."""
        out = []
        for plus_positions in itertools.combinations(range(m + n), m):
            entries = [-1] * (m + n)
            for p in plus_positions:
                entries[p] = 1
            out.append(ParitySequence(entries))
        return out

    @property
    def m(self) -> int:
        return sum(1 for e in self.entries if e == 1)

    @property
    def n(self) -> int:
        return len(self.entries) - self.m

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        """1-based entry access."""
        return self.entries[i - 1]

    def __eq__(self, other):
        return isinstance(other, ParitySequence) and self.entries == other.entries

    def __hash__(self):
        return hash(("ParitySequence", self.entries))

    def __repr__(self):
        return f"ParitySequence({list(self.entries)})"

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        """The unshuffle permutation, as 1-based values sigma(1..M+N)."""
        m = self.m
        out = []
        plus_seen = minus_seen = 0
        for e in self.entries:
            if e == 1:
                plus_seen += 1
                out.append(plus_seen)
            else:
                minus_seen += 1
                out.append(m + minus_seen)
        return tuple(out)

    def ones_after(self, i: int) -> int:
        """Count of +1 entries strictly after position i (1-based)."""
        return sum(1 for e in self.entries[i:] if e == 1)

    def minus_before(self, i: int) -> int:
        """Count of -1 entries strictly before position i (1-based)."""
        return sum(1 for e in self.entries[: i - 1] if e == -1)

    @cached_property
    def partials(self) -> tuple[tuple[int, int], ...]:
        """(ones_after(i), minus_before(i + 1)) for i = 0..len(self), counted once."""
        return tuple((self.ones_after(i), self.minus_before(i + 1)) for i in range(len(self) + 1))

    def swapped(self, i: int) -> "ParitySequence":
        """Sequence with positions i, i+1 exchanged (1-based)."""
        e = list(self.entries)
        e[i - 1], e[i] = e[i], e[i - 1]
        return ParitySequence(e)

    def path_to(self, other: "ParitySequence") -> tuple[int, ...]:
        """Adjacent-transposition path (bubble order) from self to other.

        Every returned swap position has unequal entries at the time it is
        applied, so the path is valid for coordinate and factorization
        transport.
        """
        if len(other) != len(self) or other.m != self.m:
            raise InvalidInput("parity sequences are not comparable")
        cur = list(self.entries)
        tgt = other.entries
        path = []
        for i in range(len(cur)):
            if cur[i] == tgt[i]:
                continue
            j = i + 1
            while cur[j] != tgt[i]:
                j += 1
            for k in range(j - 1, i - 1, -1):
                cur[k], cur[k + 1] = cur[k + 1], cur[k]
                path.append(k + 1)  # 1-based swap position
        if tuple(cur) != tgt:
            raise InternalInconsistency("bubble path failed")
        return tuple(path)


def cartan_pairing(s: ParitySequence, i: int, j: int) -> int:
    """Symmetrized Cartan pairing (alpha_i, alpha_j) for the parity s."""
    size = len(s) - 1
    if not (1 <= i <= size and 1 <= j <= size):
        raise InvalidInput(f"simple-root index out of range: {(i, j)}")
    val = 0
    if i == j:
        val += s[i] + s[i + 1]
    if i == j + 1:
        val -= s[i]
    if i + 1 == j:
        val -= s[i + 1]
    return val


class Weight:
    """gl(M|N) weight stored in standard-parity coordinates."""

    def __init__(self, m: int, n: int, coords):
        coords = tuple(qq(c) for c in coords)
        if len(coords) != m + n:
            raise InvalidInput("coordinate length must be M+N")
        self.m = m
        self.n = n
        self.coords = coords

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and (self.m, self.n, self.coords) == (other.m, other.n, other.coords)
        )

    def __hash__(self):
        return hash(("Weight", self.m, self.n, self.coords))

    def __repr__(self):
        return f"Weight({self.m}|{self.n}, {tuple(map(str, self.coords))})"

    def is_polynomial(self) -> bool:
        c = self.coords
        m, n = self.m, self.n
        if any(x.denominator != 1 or x < 0 for x in c):
            return False
        if any(c[i] < c[i + 1] for i in range(m - 1)):
            return False
        if any(c[m + i] < c[m + i + 1] for i in range(n - 1)):
            return False
        nonzero_odd = sum(1 for i in range(n) if c[m + i] != 0)
        # with M = 0 the odd coordinates need only form a partition
        return m == 0 or c[m - 1] >= nonzero_odd

    def is_typical(self) -> bool:
        """Typicality of a polynomial weight: last even coordinate >= N."""
        if not self.is_polynomial():
            raise UnsupportedWeight(f"typicality implemented for polynomial weights: {self!r}")
        if self.m == 0:
            return self.n == 0
        return self.coords[self.m - 1] >= self.n

    def coords_at(self, s: ParitySequence) -> tuple[Fraction, ...]:
        """Coordinate sequence of the s-highest weight of the same module."""
        cur, coords = ParitySequence.standard(self.m, self.n), self.coords
        for i in cur.path_to(s):
            coords = swap_coords(coords, cur, i)
            cur = cur.swapped(i)
        return coords

    def eps_at(self, s: ParitySequence) -> tuple[Fraction, ...]:
        """Standard-basis coordinates of the s-highest weight."""
        return _standard_coords(self.coords_at(s), s)


def _standard_coords(coords_s, s: ParitySequence) -> tuple[Fraction, ...]:
    """Standard-basis coordinates of a weight from its s-coordinate sequence."""
    out = [Q(0)] * len(coords_s)
    for i, v in enumerate(coords_s, start=1):
        out[s.sigma[i - 1] - 1] = v
    return tuple(out)


def swap_coords(coords, s: ParitySequence, i: int):
    """One adjacent coordinate swap (1-based i, requires s_i != s_{i+1}).

    Positions i, i+1 become (c_{i+1}+d, c_i-d) with d = 1 when the two
    coordinates do not sum to zero.
    """
    if s[i] == s[i + 1]:
        raise InvalidSwap(f"equal parities at position {i}")
    coords = list(coords)
    a, b = coords[i - 1], coords[i]
    d = 1 if a + b != 0 else 0
    coords[i - 1], coords[i] = b + d, a - d
    return tuple(coords)


def hook_weight(mu, m: int, n: int) -> Weight:
    """Standard-coordinate weight of the polynomial module with hook shape mu."""
    mu = [int(x) for x in mu]
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)) or any(x < 0 for x in mu):
        raise InvalidPartition(f"not a partition: {mu}")
    while mu and mu[-1] == 0:
        mu.pop()
    if len(mu) > m and mu[m] > n:
        raise InvalidPartition(f"not an (M|N)-hook partition for M={m}, N={n}: {mu}")
    conj = [sum(1 for x in mu if x >= j) for j in range(1, n + 1)]
    coords = [mu[i] if i < len(mu) else 0 for i in range(m)]
    coords += [max(cj - m, 0) for cj in conj]
    return Weight(m, n, coords)


def typical_sequence(weights) -> bool:
    """Whether at least one weight in the sequence is typical."""
    return any(w.is_typical() for w in weights)


def dominant(parts) -> list[int]:
    """Minimal strictly increasing sequence dominating the sorted input."""
    out = []
    for x in sorted(parts):
        out.append(x if not out else max(x, out[-1] + 1))
    return out


def weight_polys(s: ParitySequence, weights, points) -> list[Poly]:
    """Polynomials encoding the s-weights at each evaluation point.

    Entry i is prod_k (x - z_k)^(c_i) with c the s-coordinate sequence of
    the k-th weight.
    """
    points = [qq(z) for z in points]
    if len(set(points)) != len(points):
        raise InvalidPoints(f"repeated evaluation point in {points}")
    size = len(s)
    out = []
    coord_rows = [w.coords_at(s) for w in weights]
    for i in range(size):
        p = Poly.one()
        for z, row in zip(points, coord_rows):
            e = row[i]
            if e.denominator != 1 or e < 0:
                raise UnsupportedWeight(f"exponent {e} is not a nonnegative integer")
            p = p * Poly((-z, 1)) ** int(e)
        out.append(p)
    return out


def ratio_poly(ts, s: ParitySequence, i: int) -> Poly:
    """T_i^s (T_{i+1}^s)^(-s_i s_{i+1}) as a polynomial (1-based i)."""
    a, b = ts[i - 1], ts[i]
    if s[i] * s[i + 1] == 1:
        q = a.try_exact_div(b)
        if q is None:
            raise InternalInconsistency(
                f"weight-poly ratio is not a polynomial at position {i}"
            )
        return q
    return a * b


def weight_polys_by_swaps(target: ParitySequence, ts_standard) -> list[Poly]:
    """Transport standard-parity weight polynomials to the target parity.

    Each unequal-parity adjacent swap replaces (T_i, T_{i+1}) by
    (T_{i+1} * r, T_i / r) with r the squarefree support of T_i T_{i+1}.
    """
    s = ParitySequence.standard(target.m, target.n)
    ts = list(ts_standard)
    for i in s.path_to(target):
        r = radical(ts[i - 1] * ts[i])
        new_left = ts[i] * r
        new_right = ts[i - 1].exact_div(r)
        ts[i - 1], ts[i] = new_left, new_right
        s = s.swapped(i)
    return ts


def collision_poly(ts, m: int, n: int, a: int, b: int) -> Poly:
    """Correction polynomial for merging a even and b odd exponent ladders.

    For each point the even ladder contributes the orders of the last a
    entries of the even block (reversed, staircase-shifted) and the odd
    ladder the minus-orders of the first b odd entries; the recorded
    exponent is how far the dominant of the combined multiset sits above
    the raw sum.  Points are handled as coprime-basis places, so conjugate
    irrational roots stay exact.
    """
    if not (0 <= a <= m and 0 <= b <= n):
        raise InvalidInput(f"collision indices out of range: {(a, b)}")
    if a == 0 and b == 0:
        return Poly.one()
    places = coprime_basis([t for t in ts if t.degree > 0])
    out = Poly.one()
    for q in places:
        taus = [multiplicity(t, q) if t.degree > 0 else 0 for t in ts]
        ms = [taus[m - i] + i - 1 for i in range(1, a + 1)]
        ns = [-taus[m + i - 1] + i - 1 for i in range(1, b + 1)]
        cs = dominant(ms + ns)
        d = a * b - sum(cs) + sum(ms) + sum(ns)
        if d < 0:
            raise InternalInconsistency("negative collision exponent")
        if d:
            out = out * q**d
    return out


def weight_polys_from_collisions(target: ParitySequence, ts_standard) -> list[Poly]:
    """Target-parity weight polynomials via the collision-correction formula."""
    m, n = target.m, target.n
    out = []
    for i in range(1, m + n + 1):
        base = ts_standard[target.sigma[i - 1] - 1]
        sp, sm = target.ones_after(i), target.minus_before(i)
        if target[i] == 1:
            num = collision_poly(ts_standard, m, n, sp, sm)
            den = collision_poly(ts_standard, m, n, sp + 1, sm)
        else:
            num = collision_poly(ts_standard, m, n, sp, sm + 1)
            den = collision_poly(ts_standard, m, n, sp, sm)
        prod = base * num
        q = prod.try_exact_div(den)
        if q is None:
            raise InternalInconsistency(
                f"collision transport produced a non-polynomial entry at {i}"
            )
        out.append(q)
    return out


def alpha_eps(s: ParitySequence, i: int) -> tuple[Fraction, ...]:
    """Simple root alpha_i^s in standard-basis coordinates."""
    out = [Q(0)] * len(s)
    out[s.sigma[i - 1] - 1] += 1
    out[s.sigma[i] - 1] -= 1
    return tuple(out)


def pair_eps(a, b, m: int) -> Fraction:
    """Superinvariant bilinear form on weights in standard-basis coordinates."""
    total = Q(0)
    for i, (x, y) in enumerate(zip(a, b)):
        total += x * y if i < m else -x * y
    return total


def pair_weight_alpha(coords_s, s: ParitySequence, i: int) -> Fraction:
    """(weight, alpha_i^s) from the weight's s-coordinate sequence."""
    return s[i] * coords_s[i - 1] - s[i + 1] * coords_s[i]


def weight_at_infinity(s: ParitySequence, weights, ls) -> tuple[Fraction, ...]:
    """Weight at infinity in standard-basis coordinates."""
    size = len(s)
    total = [Q(0)] * size
    for w in weights:
        for j, v in enumerate(w.eps_at(s)):
            total[j] += v
    for i, l in enumerate(ls, start=1):
        av = alpha_eps(s, i)
        for j in range(size):
            total[j] -= l * av[j]
    return tuple(total)


def site_table(s: ParitySequence, weights, points) -> tuple:
    """Per-site Gaudin data at parity s, one row per weight and point.

    The k-th row is (z_k, sum_{r != k} (L_k, L_r) / (z_k - z_r), the nonzero
    pairings (i, (L_k, alpha_i^s))) with L the s-highest weights.
    """
    coords = [w.coords_at(s) for w in weights]
    eps = [_standard_coords(cs, s) for cs in coords]
    rows = []
    for k, (cs, zk) in enumerate(zip(coords, points)):
        total = Q(0)
        for r, zr in enumerate(points):
            if r != k:
                total += pair_eps(eps[k], eps[r], s.m) / (zk - zr)
        pairings = ((i, pair_weight_alpha(cs, s, i)) for i in range(1, len(s)))
        rows.append((zk, total, tuple((i, c) for i, c in pairings if c != 0)))
    return tuple(rows)


class ParityData(NamedTuple):
    """Weight polynomials at one parity with each position's and site's data.

    ``ratios[i - 1]`` is ``ratio_poly(ts, s, i)`` and ``radicals[i - 1]`` its
    squarefree support.  At a mixed position ``fermionic[i - 1]`` is the
    polynomial pi_i (T_i T_{i+1})' / (T_i T_{i+1}) with pi_i the radical; it
    is None at a same-parity position.  ``sites`` is the :func:`site_table`
    of the problem; it is empty when the problem has no points.
    """

    ts: tuple[Poly, ...]
    ratios: tuple[Poly, ...]
    radicals: tuple[Poly, ...]
    fermionic: tuple[Poly | None, ...]
    sites: tuple[tuple[Fraction, Fraction, tuple[tuple[int, Fraction], ...]], ...]

    @staticmethod
    def build(s: ParitySequence, ts, weights, points) -> "ParityData":
        ts = tuple(ts)
        ratios = tuple(ratio_poly(ts, s, i) for i in range(1, len(s)))
        radicals = tuple(radical(p) for p in ratios)
        fermionic = tuple(
            None if s[i] == s[i + 1] else p.derivative().exact_div(p.exact_div(r))
            for i, (p, r) in enumerate(zip(ratios, radicals), start=1)
        )
        sites = () if points is None else site_table(s, weights, points)
        return ParityData(ts, ratios, radicals, fermionic, sites)


class ProblemData:
    """Weights, evaluation points and weight polynomials of one Gaudin problem.

    ``points`` may be omitted when the standard-parity weight polynomials
    are supplied directly; that is how problems whose natural evaluation
    points are irrational (for instance roots of unity) are represented,
    since only the rational-coefficient polynomials ever enter the engine.
    There is one point per weight and there are M+N weight polynomials;
    when both are given, ``ts`` must be the weight polynomials of the points,
    and given alone, each divides the one before it inside a parity block.
    """

    def __init__(self, m, n, weights, points=None, ts=None):
        self.m = int(m)
        self.n = int(n)
        if self.m < 0 or self.n < 0:
            raise InvalidInput(f"gl(M|N) needs M, N >= 0, not gl({self.m}|{self.n})")
        self.weights = tuple(weights)
        for w in self.weights:
            if (w.m, w.n) != (self.m, self.n):
                raise InvalidInput("weight shape does not match problem shape")
            if not w.is_polynomial():
                raise UnsupportedWeight(f"non-polynomial weight in problem data: {w!r}")
        self.points = None if points is None else tuple(qq(z) for z in points)
        if self.points is not None:
            if len(self.points) != len(self.weights):
                raise InvalidInput("there must be one evaluation point per weight")
            if len(set(self.points)) != len(self.points):
                raise InvalidPoints("evaluation points must be pairwise distinct")
        s0 = ParitySequence.standard(self.m, self.n)
        ts = None if ts is None else tuple(ts)
        if ts is not None and len(ts) != self.m + self.n:
            raise InvalidInput("there must be M+N weight polynomials")
        if self.points is None:
            if ts is None:
                raise InvalidInput("problem needs either points or weight polynomials")
            for i in range(1, len(ts)):
                if s0[i] == s0[i + 1] and ts[i - 1].try_exact_div(ts[i]) is None:
                    raise InvalidInput(f"T_{i + 1} does not divide T_{i} in the same parity block")
            self.ts_standard = ts
        else:
            self.ts_standard = tuple(weight_polys(s0, self.weights, self.points))
            if ts is not None and ts != self.ts_standard:
                raise InvalidInput("weight polynomials differ from those of the points")
        # building the record raises if a ratio of derived polynomials is not one
        self._parity_data: dict[tuple[int, ...], ParityData] = {
            s0.entries: ParityData.build(s0, self.ts_standard, self.weights, self.points)
        }

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def parity_data(self, s: ParitySequence) -> ParityData:
        """The weight polynomials at parity s and their derived data, built once."""
        key = s.entries
        if key not in self._parity_data:
            ts = weight_polys_by_swaps(s, self.ts_standard)
            self._parity_data[key] = ParityData.build(s, ts, self.weights, self.points)
        return self._parity_data[key]

    def ts_at(self, s: ParitySequence) -> tuple[Poly, ...]:
        return self.parity_data(s).ts

    def typical(self) -> bool:
        return typical_sequence(self.weights)

    def __repr__(self):
        return f"ProblemData(gl({self.m}|{self.n}), {len(self.weights)} sites)"
