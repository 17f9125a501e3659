"""Exact matrix models of small gl(M|N) modules and their Gaudin operators.

Only two module families are constructed: the vector representation of any
gl(M|N) and two-dimensional gl(1|1) modules with arbitrary rational
highest weight.  Tensor legs follow the sign rule: an odd operator acting
on leg k picks up the parity of everything to its left.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    DegenerateInput,
    InconclusiveGeneric,
    InternalInconsistency,
    InvalidConfiguration,
    InvalidInput,
    InvalidPoints,
    TooLarge,
)
from .linalg import (
    charpoly_coeffs,
    identity,
    independent_subset,
    intersect_spans,
    mat_mul,
    mat_scale,
    mat_sub,
    nullspace,
    rank,
    solve_matrix,
    transpose,
)
from .rational import Poly, Q, factor_rational_quadratic, poly_gcd, qq, rational_roots
from .bethe import table_eigenvalues
from .weights import ParitySequence, Weight, site_table, swap_coords, weight_at_infinity

Sparse = dict[int, list[tuple[int, Fraction]]]


class SuperModule:
    """Finite-dimensional module given by explicit generator matrices.

    ``action[(a, b)]`` holds the matrix of e_ab as a column-sparse map;
    ``parities`` lists the basis parities as +-1; basis vector 0 is the
    standard-parity highest weight vector.
    """

    def __init__(self, m, n, dim, parities, action, weight: Weight):
        self.m = m
        self.n = n
        self.dim = dim
        self.parities = tuple(parities)
        self.action = action
        self.weight = weight

    def matrix(self, a: int, b: int) -> Sparse:
        return self.action.get((a, b), {})

    def op_parity(self, a: int, b: int) -> int:
        """Parity of e_ab as +-1, from the algebra indices."""
        pa = 1 if a <= self.m else -1
        pb = 1 if b <= self.m else -1
        return pa * pb

    def diag_weight(self, idx: int) -> tuple[Fraction, ...]:
        out = []
        for j in range(1, self.m + self.n + 1):
            col = self.matrix(j, j).get(idx, [])
            val = Q(0)
            for row, v in col:
                if row == idx:
                    val = v
            out.append(val)
        return tuple(out)


def _dense_to_sparse(rows) -> Sparse:
    out: Sparse = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v != 0:
                out.setdefault(c, []).append((r, Q(v)))
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
        (2, 1): _dense_to_sparse([[0, 0], [1, 0]]),
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
        self.dim = 1
        for d in self.dims:
            self.dim *= d
        self._leg_cache: dict[tuple[int, int, int], Sparse] = {}
        self._ham_cache: dict[int, list[list[Fraction]]] = {}
        self._weights: list[tuple[Fraction, ...]] | None = None

    # -- basis bookkeeping ------------------------------------------------

    def index_tuples(self):
        return list(itertools.product(*[range(d) for d in self.dims]))

    def index_of(self, tup) -> int:
        idx = 0
        for t, d in zip(tup, self.dims):
            idx = idx * d + t
        return idx

    def tuple_of(self, idx: int):
        out = []
        for d in reversed(self.dims):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    def basis_weight(self, idx: int) -> tuple[Fraction, ...]:
        tup = self.tuple_of(idx)
        size = self.m + self.n
        out = [Q(0)] * size
        for mod, comp in zip(self.modules, tup):
            w = mod.diag_weight(comp)
            for j in range(size):
                out[j] += w[j]
        return tuple(out)

    def all_weights(self):
        if self._weights is None:
            self._weights = [self.basis_weight(i) for i in range(self.dim)]
        return self._weights

    # -- operators ---------------------------------------------------------

    def leg_op(self, k: int, a: int, b: int) -> Sparse:
        """e_ab acting on tensor leg k (1-based) with the sign rule."""
        key = (k, a, b)
        if key in self._leg_cache:
            return self._leg_cache[key]
        mod = self.modules[k - 1]
        local = mod.matrix(a, b)
        odd_op = mod.op_parity(a, b) == -1
        out: Sparse = {}
        for tup in self.index_tuples():
            comp = tup[k - 1]
            entries = local.get(comp)
            if not entries:
                continue
            sign = 1
            if odd_op:
                for j in range(k - 1):
                    if self.modules[j].parities[tup[j]] == -1:
                        sign = -sign
            col = self.index_of(tup)
            lst = []
            for row_local, val in entries:
                target = list(tup)
                target[k - 1] = row_local
                lst.append((self.index_of(tuple(target)), sign * val))
            out[col] = lst
        self._leg_cache[key] = out
        return out

    def diagonal_op(self, a: int, b: int) -> Sparse:
        total: Sparse = {}
        for k in range(1, len(self.modules) + 1):
            _sparse_add(total, self.leg_op(k, a, b))
        return total

    def hamiltonian(self, r: int) -> list[list[Fraction]]:
        """Quadratic Gaudin operator at site r (1-based), as a dense matrix."""
        if r in self._ham_cache:
            return self._ham_cache[r]
        size = self.m + self.n
        total: Sparse = {}
        for k in range(1, len(self.modules) + 1):
            if k == r:
                continue
            weight = Q(1, 1) / (self.points[r - 1] - self.points[k - 1])
            for a in range(1, size + 1):
                for b in range(1, size + 1):
                    sign = 1 if b <= self.m else -1
                    prod = _sparse_compose(
                        self.leg_op(r, a, b), self.leg_op(k, b, a), self.dim
                    )
                    _sparse_add(total, prod, weight * sign)
        dense = _sparse_to_dense(total, self.dim)
        self._ham_cache[r] = dense
        return dense


def _sparse_add(acc: Sparse, other: Sparse, factor=Q(1)):
    for col, entries in other.items():
        bucket = dict(acc.get(col, []))
        for row, val in entries:
            bucket[row] = bucket.get(row, Q(0)) + factor * val
        acc[col] = [(r, v) for r, v in bucket.items() if v != 0]


def _sparse_compose(a: Sparse, b: Sparse, dim) -> Sparse:
    out: Sparse = {}
    for col, entries in b.items():
        bucket: dict[int, Fraction] = {}
        for mid, v1 in entries:
            for row, v2 in a.get(mid, []):
                bucket[row] = bucket.get(row, Q(0)) + v1 * v2
        lst = [(r, v) for r, v in bucket.items() if v != 0]
        if lst:
            out[col] = lst
    return out


def _sparse_to_dense(op: Sparse, dim):
    rows = [[Q(0)] * dim for _ in range(dim)]
    for col, entries in op.items():
        for row, val in entries:
            rows[row][col] += val
    return rows


def sparse_apply(op: Sparse, vec):
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
    for tup in system.index_tuples():
        val = Q(1)
        for k, comp in enumerate(tup):
            val *= legs[k][comp]
            if val == 0:
                break
        if val != 0:
            out[system.index_of(tup)] = val
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
        op = system.diagonal_op(a, b)
        cols = {c: dict(entries) for c, entries in op.items()}
        touched = sorted({r for c in sel for r in cols.get(c, {})})
        for r in touched:
            rows.append([cols.get(c, {}).get(r, Q(0)) for c in sel])
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


def _joint_eigen_decomposition(mats):
    """Split a list of commuting rational matrices into joint eigenspaces.

    Returns (spaces, irrational_dim) where spaces is a list of
    (eigenvalue_tuple, column_basis) with rational eigenvalues only.  Each
    tuple arises from one (parent space, root) pair, and the lifted
    nullspace basis stays independent, so no regrouping is needed.
    """
    dim = len(mats[0]) if mats else 0
    spaces = [((), identity(dim))]
    irrational = 0
    for m in mats:
        new_spaces = []
        for eigs, bmat in spaces:
            action = solve_matrix(bmat, mat_mul(m, bmat))
            roots, rem = rational_roots(Poly(charpoly_coeffs(action)))
            if rem.degree > 0:
                irrational += rem.degree
            for root, _mult in roots:
                null = nullspace(mat_sub(action, mat_scale(identity(len(action)), root)))
                new_spaces.append((eigs + (root,), mat_mul(bmat, transpose(null))))
        spaces = new_spaces
    return spaces, irrational


def _has_jordan_defect(mats) -> bool:
    """Whether some rational eigenvalue has fewer eigenvectors than its
    multiplicity.  Only repeated roots can fail: a root of multiplicity mu
    in the characteristic polynomial f is a root of gcd(f, f') of
    multiplicity mu - 1."""
    for m in mats:
        f = Poly(charpoly_coeffs(m))
        roots, _ = rational_roots(poly_gcd(f, f.derivative()))
        for root, mult in roots:
            if len(nullspace(mat_sub(m, mat_scale(identity(len(m)), root)))) <= mult:
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
        weight_eps = weight_at_infinity(parity, weights, [l])
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
            basis = [[v[i] for v in sing] for i in range(system.dim)]
            restricted = []
            for k in range(1, n + 1):
                h = system.hamiltonian(k)
                hb = mat_mul(h, basis)
                restricted.append(solve_matrix(basis, hb))
            spaces, irrational = _joint_eigen_decomposition(restricted)
            entry["eigenlines"] = len(spaces)
            entry["irrational_dim"] = irrational
            entry["jordan_defect"] = _has_jordan_defect(restricted)
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
    """disc(charpoly of each restricted 2x2 block) against disc of the master poly."""
    b, c = nt.coeff(1), nt.coeff(0)
    disc_nt = b * b - 4 * c
    for k, mat in enumerate(restricted, start=1):
        if len(mat) != 2:
            return False
        tr = mat[0][0] + mat[1][1]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        disc_h = tr * tr - 4 * det
        scale = (hs[k - 1] / nt(zs[k - 1])) ** 2
        if disc_h != scale * disc_nt:
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
    lowered = sparse_apply(system.diagonal_op(a, b), w)
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
    lower = system.diagonal_op(a, b)
    image = independent_subset(
        [sparse_apply(lower, [Q(1) if i == j else Q(0) for i in range(system.dim)]) for j in range(system.dim)]
    )
    overlap = intersect_spans(sing_all, image)
    return {
        "master_degree": nt.degree,
        "master_poly": nt,
        "weight_space_dims": dims,
        "singular_dim": len(sing_all),
        "singular_image_overlap": len(overlap),
        "singular_quotient_dim": len(sing_all) - len(overlap),
    }
