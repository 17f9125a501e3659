"""Exact matrix models of small gl(M|N) modules and their Gaudin operators.

Only two module families are constructed: the vector representation of any
gl(M|N) and two-dimensional gl(1|1) modules with arbitrary rational
highest weight.  Tensor legs follow the sign rule: an odd operator acting
on leg k picks up the parity of everything to its left.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    DegenerateInput,
    InconclusiveGeneric,
    InternalInconsistency,
    InvalidConfiguration,
    InvalidInput,
    InvalidPoints,
    TooLarge,
)
from .linalg import int_charpoly, int_mat_mul, nullspace, rank
from .rational import Poly, Q, _poly, _scaled, factor_rational_quadratic, poly_gcd, qq, rational_roots
from .bethe import table_eigenvalues
from .weights import ParitySequence, Weight, alpha_eps, site_table, swap_coords, weight_at_infinity

Sparse = dict[int, list[tuple[int, Fraction]]]
IntSparse = dict[int, list[tuple[int, int]]]


class SuperModule:
    """Finite-dimensional module given by explicit generator matrices.

    ``action[(a, b)]`` holds the matrix of e_ab as a column-sparse map;
    ``parities`` lists the basis parities as +-1; basis vector 0 is the
    standard-parity highest weight vector.  ``den`` is the lcm of the
    denominators of all matrix entries, so den * e_ab is an integer matrix.
    ``basis_weights[i]`` is basis vector i's weight, read off the diagonal e_jj.
    """

    def __init__(self, m, n, dim, parities, action, weight: Weight):
        self.m = m
        self.n = n
        self.dim = dim
        self.parities = tuple(parities)
        self.action = action
        self.weight = weight
        self.den = lcm(*(v.denominator for op in action.values() for col in op.values() for _, v in col))
        diagonals = [self.matrix(j, j) for j in range(1, m + n + 1)]
        self.basis_weights = [tuple(dict(op.get(i, ())).get(i, Q(0)) for op in diagonals) for i in range(dim)]

    def matrix(self, a: int, b: int) -> Sparse:
        return self.action.get((a, b), {})

    def op_parity(self, a: int, b: int) -> int:
        """Parity of e_ab as +-1, from the algebra indices."""
        pa = 1 if a <= self.m else -1
        pb = 1 if b <= self.m else -1
        return pa * pb


def _dense_to_sparse(rows) -> Sparse | IntSparse:
    """The column-sparse map of a dense matrix, its entries kept as they are."""
    out: dict = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v != 0:
                out.setdefault(c, []).append((r, v))
    return out


def vector_rep(m: int, n: int) -> SuperModule:
    """The vector representation: e_ab sends basis vector b to basis vector a."""
    dim = m + n
    action = {}
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            action[(a, b)] = {b - 1: [(a - 1, Q(1))]}
    parities = [1] * m + [-1] * n
    weight = Weight(m, n, [1] + [0] * (dim - 1))
    return SuperModule(m, n, dim, parities, action, weight)


def gl11_module(p, q) -> SuperModule:
    """Two-dimensional gl(1|1) module with highest weight (p, q).

    Arbitrary rational weights are allowed; the weight (0, 0) degenerates
    to the trivial one-dimensional module.
    """
    p, q = qq(p), qq(q)
    if p == 0 and q == 0:
        action = {(a, b): {} for a in (1, 2) for b in (1, 2)}
        return SuperModule(1, 1, 1, [1], action, Weight(1, 1, (0, 0)))
    action = {
        (1, 1): _dense_to_sparse([[p, 0], [0, p - 1]]),
        (2, 2): _dense_to_sparse([[q, 0], [0, q + 1]]),
        (2, 1): _dense_to_sparse([[0, 0], [Q(1), 0]]),
        (1, 2): _dense_to_sparse([[0, p + q], [0, 0]]),
    }
    return SuperModule(1, 1, 2, [1, -1], action, Weight(1, 1, (p, q)))


def highest_vector_at(module: SuperModule, parity: ParitySequence):
    """Highest weight vector for the given Borel choice, as a dense vector.

    Walks adjacent transpositions from the standard parity, applying the
    lowering generator whenever the swapped coordinates do not sum to zero.
    """
    vec = [Q(0)] * module.dim
    vec[0] = Q(1)
    s = ParitySequence.standard(module.m, module.n)
    coords = tuple(module.weight.coords)
    for i in s.path_to(parity):
        if coords[i - 1] + coords[i] != 0:
            a, b = s.sigma[i], s.sigma[i - 1]  # e^s_{i+1, i}
            vec = sparse_apply(module.matrix(a, b), vec)
        coords = swap_coords(coords, s, i)
        s = s.swapped(i)
    if all(v == 0 for v in vec):
        raise InternalInconsistency("vanishing highest weight vector")
    return vec


class TensorSystem:
    """Tensor product of modules with distinct evaluation points."""

    def __init__(self, modules, points):
        self.modules = list(modules)
        self.points = [qq(z) for z in points]
        if len(self.modules) != len(self.points):
            raise InvalidInput("one evaluation point per tensor factor")
        if len(set(self.points)) != len(self.points):
            raise InvalidPoints("evaluation points must be pairwise distinct")
        if not self.modules:
            raise DegenerateInput("empty tensor product")
        self.m = self.modules[0].m
        self.n = self.modules[0].n
        if any((mod.m, mod.n) != (self.m, self.n) for mod in self.modules):
            raise InvalidInput("all factors must share the same gl(M|N)")
        self.dims = [mod.dim for mod in self.modules]
        # leg k's component moves the index by _strides[k - 1], the product
        # of the dimensions to its right
        self._strides = [1] * len(self.dims)
        for k in range(len(self.dims) - 1, 0, -1):
            self._strides[k - 1] = self._strides[k] * self.dims[k]
        self.dim = self._strides[0] * self.dims[0]
        self._tuples = list(itertools.product(*[range(d) for d in self.dims]))
        # the operators in integers, each an IntSparse map over one denominator
        self._leg_cache: dict[tuple[int, int, int], IntSparse] = {}
        self._diagonal_cache: dict[tuple[int, int], tuple[IntSparse, int]] = {}
        self._casimir_cache: dict[tuple[int, int], IntSparse] = {}
        self._ham_cache: dict[int, tuple[IntSparse, int]] = {}
        self._weights: list[tuple[Fraction, ...]] | None = None

    # -- basis bookkeeping ------------------------------------------------

    def index_tuples(self):
        """Each basis vector's leg components, in :meth:`index_of` order."""
        return self._tuples

    def index_of(self, tup) -> int:
        return sum(map(mul, tup, self._strides))

    def all_weights(self):
        """Each basis vector's weight, in :meth:`index_of` order: the sum of
        its legs', summed as integers over one denominator."""
        if self._weights is None:
            den = lcm(*(c.denominator for mod in self.modules for w in mod.basis_weights for c in w))
            legs = [
                [tuple(c.numerator * (den // c.denominator) for c in w) for w in mod.basis_weights]
                for mod in self.modules
            ]
            self._weights = [tuple(Q(sum(col), den) for col in zip(*ws)) for ws in itertools.product(*legs)]
        return self._weights

    # -- operators ---------------------------------------------------------

    def _leg(self, k: int, a: int, b: int) -> IntSparse:
        """e_ab acting on tensor leg k (1-based) with the sign rule, times D_k.

        D_k is module k's ``den``, so the map is an integer one.  A column
        whose leg-k component is comp sends comp to row r at the index
        col + (r - comp) * stride, the stride of leg k.
        """
        key = (k, a, b)
        if key in self._leg_cache:
            return self._leg_cache[key]
        mod = self.modules[k - 1]
        local = {
            comp: [(row, v.numerator * (mod.den // v.denominator)) for row, v in entries]
            for comp, entries in mod.matrix(a, b).items()
        }
        odd_op = mod.op_parity(a, b) == -1
        stride = self._strides[k - 1]
        out: IntSparse = {}
        for col, tup in enumerate(self._tuples):
            comp = tup[k - 1]
            entries = local.get(comp)
            if not entries:
                continue
            sign = 1
            if odd_op:
                for j in range(k - 1):
                    if self.modules[j].parities[tup[j]] == -1:
                        sign = -sign
            base = col - comp * stride
            out[col] = [(base + row * stride, sign * val) for row, val in entries]
        self._leg_cache[key] = out
        return out

    def _diagonal(self, a: int, b: int) -> tuple[IntSparse, int]:
        """The diagonal action sum over k of e_ab^(k) as (integer map, D).

        The operator is the map over D, the lcm of the modules' ``den``;
        it is built once per (a, b).
        """
        key = (a, b)
        if key not in self._diagonal_cache:
            self._diagonal_cache[key] = _scaled_sum(
                (Q(1, mod.den), self._leg(k, a, b)) for k, mod in enumerate(self.modules, start=1)
            )
        return self._diagonal_cache[key]

    def _casimir(self, r: int, k: int) -> IntSparse:
        """Two-site Casimir sum over a, b of (-1)^|b| e_ab^(r) e_ba^(k), times D_r D_k.

        The product of the integer legs is an integer map over D_r D_k.  It
        is symmetric in r and k: swapping the legs gives (-1)^(|a|+|b|), and
        relabelling a <-> b cancels it.  So it is built once per unordered
        pair of sites (1-based, r != k).
        """
        key = (min(r, k), max(r, k))
        if key in self._casimir_cache:
            return self._casimir_cache[key]
        r, k = key
        size = self.m + self.n
        acc: dict[int, dict[int, int]] = {}
        for a in range(1, size + 1):
            for b in range(1, size + 1):
                left = self._leg(r, a, b)
                if not left:
                    continue
                odd = b > self.m
                for col, entries in self._leg(k, b, a).items():
                    bucket = acc.setdefault(col, {})
                    for mid, v1 in entries:
                        fv = -v1 if odd else v1
                        for row, v2 in left.get(mid, ()):
                            bucket[row] = bucket.get(row, 0) + fv * v2
        op = _collected(acc)
        self._casimir_cache[key] = op
        return op

    def _hamiltonian(self, r: int) -> tuple[IntSparse, int]:
        """Quadratic Gaudin operator at site r (1-based) as (integer map, L_r).

        H_r = sum over k != r of Omega_rk / (z_r - z_k).  With the integer
        :meth:`_casimir` C_rk = D_r D_k Omega_rk, term k is C_rk c_k for the
        rational c_k = 1 / (D_r D_k (z_r - z_k)), summed by :func:`_scaled_sum`.
        """
        if r not in self._ham_cache:
            den_r, z_r = self.modules[r - 1].den, self.points[r - 1]
            self._ham_cache[r] = _scaled_sum(
                (1 / (den_r * mod.den * (z_r - z)), self._casimir(r, k))
                for k, (mod, z) in enumerate(zip(self.modules, self.points), start=1)
                if k != r
            )
        return self._ham_cache[r]

    def hamiltonian(self, r: int) -> list[list[Fraction]]:
        """Quadratic Gaudin operator at site r (1-based), as a dense matrix."""
        return _sparse_to_dense(*self._hamiltonian(r), self.dim)


def _scaled_sum(terms) -> tuple[IntSparse, int]:
    """Sum of c M over (c, M) pairs, c rational and M an integer map, as (map, L).

    L is the lcm of the c's denominators, so each c L is an integer and the
    sum is the integer map sum of (c L) M over L.
    """
    terms = list(terms)
    factors, den = _scaled([c for c, _ in terms])
    acc: dict[int, dict[int, int]] = {}
    for factor, (_, op) in zip(factors, terms):
        for col, entries in op.items():
            bucket = acc.setdefault(col, {})
            for row, val in entries:
                bucket[row] = bucket.get(row, 0) + factor * val
    return _collected(acc), den


def _collected(acc: dict[int, dict[int, int]]) -> IntSparse:
    """Column-sparse operator from per-column row -> value sums, zeros dropped."""
    out: IntSparse = {}
    for col, bucket in acc.items():
        entries = [(row, val) for row, val in bucket.items() if val]
        if entries:
            out[col] = entries
    return out


def _sparse_to_dense(op: IntSparse, den: int, dim):
    """The dense Fraction matrix of the integer map ``op`` over ``den``."""
    rows = [[Q(0)] * dim for _ in range(dim)]
    for col, entries in op.items():
        for row, val in entries:
            rows[row][col] = Q(val, den)
    return rows


def sparse_apply(op: Sparse | IntSparse, vec):
    out = [Q(0)] * len(vec)
    for col, entries in op.items():
        v = vec[col]
        if v == 0:
            continue
        for row, val in entries:
            out[row] += val * v
    return out


# -- weight function -----------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def weight_function(system: TensorSystem, parity: ParitySequence, tlists):
    """The Bethe weight vector for explicit rational roots grouped by colour."""
    n = len(system.modules)
    tlists = [[qq(t) for t in ts] for ts in tlists]
    if len(tlists) != system.m + system.n - 1:
        raise InvalidInput("one root list per colour is required")
    flat: list[Fraction] = []
    colours: list[int] = []
    for c, ts in enumerate(tlists, start=1):
        if len(set(ts)) != len(ts):
            raise InvalidConfiguration("repeated root within a colour")
        for t in ts:
            flat.append(t)
            colours.append(c)
    l = len(flat)
    if l > 6 or n > 4:
        raise TooLarge(f"weight function guard: l={l}, n={n}")
    highest = [highest_vector_at(mod, parity) for mod in system.modules]
    if l == 0:
        return _tensor_of(system, highest)
    f_ops = []
    f_par = []
    for c in range(1, system.m + system.n):
        a, b = parity.sigma[c], parity.sigma[c - 1]  # e^s_{c+1, c}
        f_ops.append([mod.matrix(a, b) for mod in system.modules])
        f_par.append(-1 if parity[c] != parity[c + 1] else 1)
    # parity of each leg's highest vector (for the block sign rule)
    hv_odd = []
    for k, vec in enumerate(highest):
        support = next(i for i, v in enumerate(vec) if v != 0)
        hv_odd.append(system.modules[k].parities[support] == -1)
    total = [Q(0)] * system.dim
    for perm in itertools.permutations(range(l)):
        for comp in _compositions(l, n):
            blocks = []
            pos = 0
            for p in comp:
                blocks.append(perm[pos : pos + p])
                pos += p
            coeff = Q(1)
            ok = True
            for k, block in enumerate(blocks):
                for a, b in zip(block, block[1:]):
                    diff = flat[a] - flat[b]
                    if diff == 0:
                        ok = False
                        break
                    coeff /= diff
                if not ok:
                    break
                if block:
                    diff = flat[block[-1]] - system.points[k]
                    if diff == 0:
                        ok = False
                        break
                    coeff /= diff
            if not ok:
                continue
            seq = [v for block in blocks for v in block]
            sign = 1
            for p in range(l):
                for qv in range(p + 1, l):
                    if seq[p] > seq[qv]:
                        if f_par[colours[seq[p]] - 1] == -1 and f_par[colours[seq[qv]] - 1] == -1:
                            sign = -sign
            # sign rule: odd operators in block k move past the highest
            # vectors of the legs to the left of k
            for k, block in enumerate(blocks):
                odd_in_block = sum(1 for j in block if f_par[colours[j] - 1] == -1)
                odd_left = sum(1 for j in range(k) if hv_odd[j])
                if (odd_in_block * odd_left) % 2:
                    sign = -sign
            legs = []
            for k, block in enumerate(blocks):
                vec = list(highest[k])
                for j in reversed(block):
                    vec = sparse_apply(f_ops[colours[j] - 1][k], vec)
                legs.append(vec)
            piece = _tensor_of(system, legs)
            for i in range(system.dim):
                total[i] += sign * coeff * piece[i]
    return total


def _tensor_of(system: TensorSystem, legs):
    out = [Q(0)] * system.dim
    for idx, tup in enumerate(system.index_tuples()):
        val = Q(1)
        for k, comp in enumerate(tup):
            val *= legs[k][comp]
            if val == 0:
                break
        if val != 0:
            out[idx] = val
    return out


def singular_space(system: TensorSystem, parity: ParitySequence, weight_eps):
    """Basis of the raising-annihilated subspace of a weight subspace."""
    weight_eps = tuple(qq(w) for w in weight_eps)
    weights = system.all_weights()
    sel = [i for i in range(system.dim) if weights[i] == weight_eps]
    if not sel:
        return []
    rows = []
    for i in range(1, system.m + system.n):
        a, b = parity.sigma[i - 1], parity.sigma[i]  # e^s_{i, i+1}
        op, _ = system._diagonal(a, b)  # a scaled operator has the same kernel
        cols = {c: dict(entries) for c, entries in op.items()}
        touched = sorted({r for c in sel for r in cols.get(c, {})})
        for r in touched:
            rows.append([cols.get(c, {}).get(r, 0) for c in sel])
    if not rows:
        coeff_vectors = [[Q(1) if j == i else Q(0) for j in range(len(sel))] for i in range(len(sel))]
    else:
        coeff_vectors = nullspace(rows)
    out = []
    for coef in coeff_vectors:
        vec = [Q(0)] * system.dim
        for c, idx in zip(coef, sel):
            vec[idx] = c
        out.append(vec)
    return out


# -- the gl(1|1) master polynomial and spectra ------------------------------


def master_polynomial(hs, zs) -> Poly:
    """Monic polynomial whose monic divisors enumerate gl(1|1) Bethe data."""
    hs = [qq(h) for h in hs]
    zs = [qq(z) for z in zs]
    if all(h == 0 for h in hs):
        raise DegenerateInput("all level parameters vanish")
    total = Poly.zero()
    for k, h in enumerate(hs):
        if h == 0:
            continue
        part = Poly.const(h)
        for j, z in enumerate(zs):
            if j != k:
                part = part * Poly((-z, 1))
        total = total + part
    if total.is_zero():
        raise DegenerateInput("master polynomial vanished identically")
    return total.monic()


def monic_divisors(f: Poly) -> list[Poly]:
    """All monic divisors, with multiplicity structure respected."""
    factors = factor_rational_quadratic(f)
    out = [Poly.one()]
    for base, mult in factors:
        new = []
        power = Poly.one()
        for e in range(mult + 1):
            for d in out:
                new.append(d * power)
            power = power * base
        out = new
    return sorted(set(out), key=lambda p: (p.degree, p.coeffs))


def _echelon_rows(vectors) -> list[int]:
    """Index of each vector's last nonzero entry.

    On a nullspace basis from ``solve_linear`` that entry is the vector's
    free column: it is 1 there and the other vectors are 0 there.
    """
    return [max(t for t, v in enumerate(vec) if v) for vec in vectors]


def _restrict(ops, basis, rows) -> list[tuple[list[list[int]], int]]:
    """Each operator's matrix on the span of an integer echelon basis, as
    an integer block X over one denominator D.

    ``ops`` holds (integer column-sparse map M, denominator L) pairs, the
    operator being M over L.  w_j = basis[j] is an integer vector, nonzero
    at rows[j] and 0 at the other rows, so with d_j = w_j[rows[j]] the
    vectors v_j = w_j / d_j are 1 at their own rows, and block entry
    (H v_j)[rows[i]] is (M w_j)[rows[i]] / (L d_j).  With big the lcm of
    the d_j, that is X_ij / D for X_ij = (M w_j)[rows[i]] (big / d_j) and
    D = L big.  Invariance, H v_j = sum_i X_ij / D v_i, is checked on
    every coordinate in integers: big M w_j must equal
    sum_i (M w_j)[rows[i]] (big / d_i) w_i.
    """
    dim = len(basis[0]) if basis else 0
    dens = [w[r] for w, r in zip(basis, rows)]
    supports = [[(t, x) for t, x in enumerate(w) if x] for w in basis]
    big = lcm(*dens)
    spans = [[(t, x * (big // d)) for t, x in support] for support, d in zip(supports, dens)]
    blocks = []
    for op, den in ops:
        columns = []
        for support, d in zip(supports, dens):
            img = [0] * dim
            for t, w in support:
                for row, h in op.get(t, ()):
                    img[row] += h * w
            combo = [0] * dim
            for ri, span in zip(rows, spans):
                c = img[ri]
                if c:
                    for t, w in span:
                        combo[t] += c * w
            if combo != [big * v for v in img]:
                raise InternalInconsistency("subspace is not invariant")
            scale = big // d
            columns.append([img[ri] * scale for ri in rows])
        blocks.append(([list(row) for row in zip(*columns)], den * big))
    return blocks


def _restricted_hamiltonians(system: TensorSystem, basis) -> list[tuple[list[list[int]], int]]:
    """Each Hamiltonian's :func:`_restrict` block (X, D) on the span of a
    ``singular_space`` basis, which is in echelon form; the basis is
    cleared to integers once."""
    hams = (system._hamiltonian(r) for r in range(1, len(system.modules) + 1))
    return _restrict(hams, [_scaled(v)[0] for v in basis], _echelon_rows(basis))


def _shifted(x, root: Fraction) -> list[list[int]]:
    """v X - u I for the root u / v: the integer rows whose nullspace is the
    eigenspace of the integer matrix X at u / v."""
    u, v = root.numerator, root.denominator
    return [[v * a - u if i == j else v * a for j, a in enumerate(row)] for i, row in enumerate(x)]


def _joint_eigen_decomposition(blocks):
    """Split commuting matrices, each an integer block X over a denominator
    D as :func:`_restrict` returns them, into joint eigenspaces.

    Returns (spaces, irrational_dim) where spaces is a list of
    (eigenvalue_tuple, basis_vectors) with rational eigenvalues only, each
    basis vector an integer one.  Each tuple arises from one (parent space,
    root) pair, and the lifted nullspace basis stays independent, so no
    regrouping is needed.  The split starts from the whole space on its
    standard basis.  On each space a matrix is its integer block X over D;
    a root mu of the characteristic polynomial of X is the eigenvalue
    mu / D, made a ``Fraction`` only as it enters the tuple, and its
    eigenspace is the nullspace of the integer rows v X - u I for
    mu = u / v.  A nullspace vector c of a block on the echelon basis w_i
    (v_i = w_i / d_i as in :func:`_restrict`) lifts to
    sum_i c_i v_i = sum_i (c_i / d_i) w_i, cleared to integers by the lcm
    of the c_i / d_i's denominators.  The lifted basis stays in echelon
    form at the parent rows picked by the nullspace's free columns, so
    each later matrix, taken once as an integer map, acts on it by
    :func:`_restrict`, which checks its invariance, on a proper subspace:
    the whole space keeps its standard basis (a nullspace with no pivot is
    the standard basis), on which each matrix is its own block.  A line is
    not split: its one coordinate X_00 / D is the eigenvalue.

    Also returns the characteristic polynomial of the first integer block,
    which the first pass computes on the whole space, or None when the
    space is at most a line: ``(spaces, irrational_dim, first_charpoly)``.
    """
    dim = len(blocks[0][0]) if blocks else 0
    spaces = [((), [[int(i == j) for j in range(dim)] for i in range(dim)], list(range(dim)))]
    irrational = 0
    first = None
    for x, den in blocks:
        op = [(_dense_to_sparse(x), den)] if any(len(vectors) < dim for _, vectors, _ in spaces) else None
        new_spaces = []
        for eigs, vectors, rows in spaces:
            [(block, d)] = _restrict(op, vectors, rows) if len(vectors) < dim else [(x, den)]
            if len(vectors) == 1:
                new_spaces.append((eigs + (Q(block[0][0], d),), vectors, rows))
                continue
            f = _poly(int_charpoly(block), 1)
            if first is None:
                first = f
            roots, rem = rational_roots(f)
            if rem.degree > 0:
                irrational += rem.degree
            for root, _mult in roots:
                null = nullspace(_shifted(block, root))
                lifted = []
                for coef in null:
                    ks, _ = _scaled([c / w[r] for c, w, r in zip(coef, vectors, rows)])
                    lifted.append([sum(k * w[t] for k, w in zip(ks, vectors) if k) for t in range(dim)])
                free_rows = [rows[f] for f in _echelon_rows(null)]
                new_spaces.append((eigs + (root / d,), lifted, free_rows))
        spaces = new_spaces
    return [(eigs, vectors) for eigs, vectors, _ in spaces], irrational, first


def _has_jordan_defect(blocks, first) -> bool:
    """Whether some rational eigenvalue has fewer eigenvectors than its
    multiplicity, for commuting matrices given as (integer block X,
    denominator D) pairs.

    ``first`` is the first block's characteristic polynomial as
    :func:`_joint_eigen_decomposition` returns it (None for a line, which
    has no defect).  Scaling by D keeps multiplicities and eigenspaces, so
    each block X stands for its matrix.  When ``first`` is squarefree the
    first matrix has a simple spectrum over the algebraic closure, so each
    matrix that commutes with it is a polynomial in it and diagonalizable:
    no defect.  The commutation is checked on the integer blocks, and
    raises when it fails.  Otherwise each block is checked, the first on
    ``first``, each root u / v on the integer rows v X - u I.  Only
    repeated roots can fail: a root of multiplicity mu in the
    characteristic polynomial f is a root of gcd(f, f') of multiplicity
    mu - 1.
    """
    if first is None:
        return False
    if poly_gcd(first, first.derivative()).degree == 0:
        head = blocks[0][0]
        for other, _ in blocks[1:]:
            if int_mat_mul(head, other) != int_mat_mul(other, head):
                raise InternalInconsistency("restricted Hamiltonians do not commute")
        return False
    for k, (x, _) in enumerate(blocks):
        f = _poly(int_charpoly(x), 1) if k else first
        roots, _ = rational_roots(poly_gcd(f, f.derivative()))
        for root, mult in roots:
            if len(nullspace(_shifted(x, root))) <= mult:
                return True
    return False


def _levels(sites) -> list[Fraction]:
    """gl(1|1) levels h_k = (L_k, alpha_1) of site-table rows, 0 without a pairing."""
    return [sum((c for _, c in pairings), Q(0)) for _, _, pairings in sites]


def gl11_spectrum_report(system: TensorSystem) -> dict:
    """Divisor-vs-eigenvector bookkeeping for a gl(1|1) tensor system."""
    n = len(system.modules)
    if n > 4:
        raise TooLarge("spectrum report guard: n <= 4")
    if (system.m, system.n) != (1, 1):
        raise InvalidInput("spectrum report is a gl(1|1) tool")
    parity = ParitySequence.standard(1, 1)
    weights = [mod.weight for mod in system.modules]
    # the weight at infinity of degree l is top - l alpha_1, each module's
    # coordinates read once
    top, alpha = weight_at_infinity(parity, weights, [0]), alpha_eps(parity, 1)
    sites = site_table(parity, weights, system.points)
    hs = _levels(sites)
    if any(h == 0 for h in hs):
        raise InvalidInput("every factor must be a nontrivial gl(1|1) module")
    nt = master_polynomial(hs, system.points)
    divisors = monic_divisors(nt)
    report = {
        "master_poly": nt,
        "weights": [],
        "total_divisors": len(divisors),
        "total_eigenlines": 0,
        "jordan_defect": False,
        "counts_match": True,
        "eigenvalues_match": True,
    }
    for l in range(0, n):
        degl = [d for d in divisors if d.degree == l]
        weight_eps = tuple(t - l * a for t, a in zip(top, alpha))
        sing = singular_space(system, parity, weight_eps)
        entry = {
            "degree": l,
            "weight": weight_eps,
            "divisors": len(degl),
            "divisor_polys": degl,
            "singular_dim": len(sing),
            "eigenlines": 0,
            "jordan_defect": False,
        }
        if sing:
            restricted = _restricted_hamiltonians(system, sing)
            spaces, irrational, first = _joint_eigen_decomposition(restricted)
            entry["eigenlines"] = len(spaces)
            entry["irrational_dim"] = irrational
            entry["jordan_defect"] = _has_jordan_defect(restricted, first)
            eig_tuples = {eigs for eigs, _ in spaces}
            for d in degl:
                # d divides the master polynomial, which is h_k prod_{j != k}
                # (z_k - z_j) != 0 at z_k, so every site is admissible
                expected = tuple(table_eigenvalues(sites, (d,)).values())
                if expected not in eig_tuples:
                    report["eigenvalues_match"] = False
            if n == 3 and l == 1 and len(sing) == 2 and nt.degree == 2:
                entry["disc_identity"] = _disc_identity(restricted, nt, hs, system.points)
        if entry["divisors"] != entry["eigenlines"]:
            report["counts_match"] = False
        report["jordan_defect"] = report["jordan_defect"] or entry["jordan_defect"]
        report["total_eigenlines"] += entry["eigenlines"]
        report["weights"].append(entry)
    return report


def _disc_identity(restricted, nt: Poly, hs, zs) -> bool:
    """disc(charpoly of each restricted 2x2 block) against disc of the master poly.

    Each block is an integer X over D, whose discriminant is X's over D^2.
    """
    b, c = nt.coeff(1), nt.coeff(0)
    disc_nt = b * b - 4 * c
    for k, (x, den) in enumerate(restricted, start=1):
        if len(x) != 2:
            return False
        tr = x[0][0] + x[1][1]
        det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
        scale = (hs[k - 1] / nt(zs[k - 1])) ** 2
        if Q(tr * tr - 4 * det, den * den) != scale * disc_nt:
            return False
    return True


def check_lowering_bridge(system: TensorSystem, parity: ParitySequence, tlists, partner_tlists) -> bool:
    """Whether the diagonal lowering of one Bethe vector matches its partner.

    Compares e^s_{21} applied to the weight vector at ``parity`` with the
    weight vector of the reproduced data at the swapped parity; zero
    vectors make the comparison inconclusive.
    """
    w = weight_function(system, parity, tlists)
    a, b = parity.sigma[1], parity.sigma[0]  # e^s_{21}
    lower, _ = system._diagonal(a, b)  # scaled, which keeps zeros and ranks
    lowered = sparse_apply(lower, w)
    partner = weight_function(system, parity.swapped(1), partner_tlists)
    if all(v == 0 for v in lowered) or all(v == 0 for v in partner):
        raise InconclusiveGeneric("zero weight-function value")
    return rank([lowered, partner]) == 1


def gl11_nonpoly_report(system: TensorSystem) -> dict:
    """Structure report for gl(1|1) systems with non-polynomial weights."""
    if (system.m, system.n) != (1, 1):
        raise InvalidInput("gl(1|1) only")
    parity = ParitySequence.standard(1, 1)
    module_weights = [mod.weight for mod in system.modules]
    nt = master_polynomial(_levels(site_table(parity, module_weights, system.points)), system.points)
    weights = system.all_weights()
    dims = {}
    for l in (1, 2):
        target = weight_at_infinity(parity, module_weights, [l])
        dims[l] = sum(1 for w in weights if w == target)
    sing_all = []
    seen_weights = sorted(set(weights))
    for w in seen_weights:
        sing_all.extend(singular_space(system, parity, w))
    a, b = parity.sigma[1], parity.sigma[0]
    lower, _ = system._diagonal(a, b)  # scaled, which keeps ranks
    cols = [sparse_apply(lower, [Q(1) if i == j else Q(0) for i in range(system.dim)]) for j in range(system.dim)]
    # singular spaces of distinct weights have disjoint supports, so sing_all
    # is independent, and the dimension of its span's meet with the image of
    # the lowering operator is dim A + dim B - dim(A + B)
    overlap = len(sing_all) + rank(cols) - rank(sing_all + cols)
    return {
        "master_degree": nt.degree,
        "master_poly": nt,
        "weight_space_dims": dims,
        "singular_dim": len(sing_all),
        "singular_image_overlap": overlap,
        "singular_quotient_dim": len(sing_all) - overlap,
    }
