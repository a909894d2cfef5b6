"""Cochain spaces compatible with (alpha, beta), coboundary operators, H2.

Coordinate conventions (fixed so matrices are reproducible bit for bit):

* 1-cochains f: J -> V live in QQ^(m*n) with index ``j*m + p`` holding the
  p-th coordinate of f(e_j) (basis order crossed with V-basis order);
* symmetric 2-cochains live in QQ^(npairs*m) over the lexicographic list of
  pairs (i, j), i <= j, index ``pair*m + p``;
* V-valued 3-cochains symmetric in their first two slots live in
  QQ^(npairs*n*m) with index ``(pair*n + k)*m + p`` holding the p-th
  coordinate of f(e_i, e_j, e_k), pair = (i, j): the layout of the scalar
  trilinear forms below, crossed with V;
* scalar bilinear forms live in QQ^(n*n) with index ``i*n + j``;
* scalar trilinear forms symmetric in their first two slots live in
  QQ^(npairs*n) with index ``pair*n + t``.

Each of d1, d2, dc2 and dr2 is one exact matrix on these coordinates, built
by summing over the nonzero structure constants (``_structure_tables``) and
the nonzero entries of rho and beta.  The public operators apply it to a
cochain's coordinates; compute_H2 takes its kernel and image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Algebra, _structure_tables
from .errors import InvalidRepresentation, NotACochain
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    image_basis,
    kernel_basis,
    quotient_dim,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from .representations import Representation, check_representation
from .scalars import QQ, ZERO


def pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i, n)]


def pair_index(n: int) -> dict:
    return {p: idx for idx, p in enumerate(pairs(n))}


def _pair_positions(n: int) -> dict:
    """pair_index keyed by both orders (x, y) and (y, x) of each pair."""
    pidx = pair_index(n)
    return {(x, y): pidx[(min(x, y), max(x, y))] for x in range(n) for y in range(n)}


# ---------------------------------------------------------------------------
# Cochains with module coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cochain1:
    """Linear map J -> V; column j of coeffs = f(e_j)."""

    rep: Representation
    coeffs: Matrix  # m x n

    def __post_init__(self):
        if self.coeffs.rows != self.rep.vdim or self.coeffs.cols != self.rep.algebra.dim:
            raise ValueError("1-cochain coefficients must be vdim x dim")

    @staticmethod
    def zero(rep: Representation) -> "Cochain1":
        return Cochain1(rep, Matrix.zero(rep.vdim, rep.algebra.dim))

    @staticmethod
    def from_vector(rep: Representation, v: Vector) -> "Cochain1":
        n, m = rep.algebra.dim, rep.vdim
        cols = [tuple(v[j * m + p] for p in range(m)) for j in range(n)]
        return Cochain1(rep, Matrix.from_columns(cols) if n else Matrix.zero(m, 0))

    def to_vector(self) -> Vector:
        n, m = self.rep.algebra.dim, self.rep.vdim
        return tuple(self.coeffs.entry(p, j) for j in range(n) for p in range(m))

    def value(self, j: int) -> Vector:
        return self.coeffs.column(j)

    def value_vec(self, x: Vector) -> Vector:
        return self.coeffs.apply(x)

    def is_compatible(self) -> bool:
        """f o alpha = beta o f."""
        return (self.coeffs @ self.rep.algebra.alpha - self.rep.beta @ self.coeffs).is_zero()


@dataclass(frozen=True)
class Cochain2:
    """Symmetric bilinear map J x J -> V stored as a full coefficient grid."""

    rep: Representation
    coeffs: tuple  # coeffs[i][j] = vector in V, symmetric

    def __post_init__(self):
        n, m = self.rep.algebra.dim, self.rep.vdim
        if len(self.coeffs) != n or any(len(row) != n for row in self.coeffs):
            raise ValueError("2-cochain grid must be n x n")
        for i in range(n):
            for j in range(n):
                if len(self.coeffs[i][j]) != m:
                    raise ValueError("2-cochain values must live in V")
                if self.coeffs[i][j] != self.coeffs[j][i]:
                    raise ValueError(f"2-cochain not symmetric at ({i}, {j})")

    @staticmethod
    def zero(rep: Representation) -> "Cochain2":
        n, m = rep.algebra.dim, rep.vdim
        row = tuple(zero_vector(m) for _ in range(n))
        return Cochain2(rep, tuple(row for _ in range(n)))

    @staticmethod
    def from_entries(rep: Representation, entries: dict) -> "Cochain2":
        """Build from a sparse {(i, j): V-coordinate list} table, i <= j."""
        n, m = rep.algebra.dim, rep.vdim
        grid = [[list(zero_vector(m)) for _ in range(n)] for _ in range(n)]
        for (i, j), value in entries.items():
            v = vec(value)
            grid[i][j] = list(v)
            grid[j][i] = list(v)
        return Cochain2(rep, tuple(tuple(tuple(grid[i][j]) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_vector(rep: Representation, v: Vector) -> "Cochain2":
        n, m = rep.algebra.dim, rep.vdim
        entries = {}
        for idx, (i, j) in enumerate(pairs(n)):
            entries[(i, j)] = tuple(v[idx * m + p] for p in range(m))
        return Cochain2.from_entries(rep, entries)

    def to_vector(self) -> Vector:
        m = self.rep.vdim
        return tuple(
            self.coeffs[i][j][p] for (i, j) in pairs(self.rep.algebra.dim) for p in range(m)
        )

    def value(self, i: int, j: int) -> Vector:
        return self.coeffs[i][j]

    def value_vec(self, x: Vector, y: Vector) -> Vector:
        out = list(zero_vector(self.rep.vdim))
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                f = xi * yj
                cij = self.coeffs[i][j]
                for p in range(self.rep.vdim):
                    if cij[p] != 0:
                        out[p] += f * cij[p]
        return tuple(out)

    def is_compatible(self) -> bool:
        """beta o f = f o (alpha x alpha)."""
        a = self.rep.algebra
        alpha_cols = [a.alpha.column(i) for i in range(a.dim)]
        for i, j in pairs(a.dim):
            lhs = self.rep.beta.apply(self.coeffs[i][j])
            rhs = self.value_vec(alpha_cols[i], alpha_cols[j])
            if lhs != rhs:
                return False
        return True

    def twist_arguments(self) -> "Cochain2":
        """f o alpha: (x, y) |-> f(alpha x, alpha y)."""
        a = self.rep.algebra
        alpha_cols = [a.alpha.column(i) for i in range(a.dim)]
        return Cochain2.from_entries(
            self.rep,
            {(i, j): self.value_vec(alpha_cols[i], alpha_cols[j]) for i, j in pairs(a.dim)},
        )

    def __add__(self, other: "Cochain2") -> "Cochain2":
        n = self.rep.algebra.dim
        return Cochain2.from_entries(
            self.rep,
            {(i, j): vec_add(self.coeffs[i][j], other.coeffs[i][j]) for i, j in pairs(n)},
        )

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        n = self.rep.algebra.dim
        return Cochain2.from_entries(
            self.rep,
            {
                (i, j): vec_add(self.coeffs[i][j], vec_scale(QQ(-1), other.coeffs[i][j]))
                for i, j in pairs(n)
            },
        )

    def scale(self, c) -> "Cochain2":
        n = self.rep.algebra.dim
        return Cochain2.from_entries(
            self.rep, {(i, j): vec_scale(c, self.coeffs[i][j]) for i, j in pairs(n)}
        )

    def is_zero(self) -> bool:
        n = self.rep.algebra.dim
        return all(vec_is_zero(self.coeffs[i][j]) for i, j in pairs(n))


@dataclass(frozen=True)
class Cochain3:
    """Trilinear map J^3 -> V, symmetric in its first two slots (the shape
    d2 and dc2 produce), on the coordinates ``(pair*n + k)*m + p``."""

    rep: Representation
    coords: Vector

    def __post_init__(self):
        n, m = self.rep.algebra.dim, self.rep.vdim
        if len(self.coords) != len(pairs(n)) * n * m:
            raise ValueError("3-cochain coordinates must number npairs*n*m")

    def value(self, i: int, j: int, k: int) -> Vector:
        n, m = self.rep.algebra.dim, self.rep.vdim
        start = (_pair_positions(n)[i, j] * n + k) * m
        return self.coords[start:start + m]

    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)


# ---------------------------------------------------------------------------
# Scalar multilinear forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarForm:
    """Multilinear form J^degree -> QQ stored as a full tensor."""

    dim: int
    degree: int
    coeffs: tuple  # nested tuples, depth = degree

    @staticmethod
    def zero(dim: int, degree: int) -> "ScalarForm":
        def build(d):
            if d == 0:
                return ZERO
            return tuple(build(d - 1) for _ in range(dim))

        return ScalarForm(dim, degree, build(degree))

    @staticmethod
    def from_entries(dim: int, degree: int, entries: dict, symmetrize: bool = False) -> "ScalarForm":
        """Build from {index tuple: scalar}; with symmetrize=True the value is
        copied to every permutation of the index tuple."""
        from itertools import permutations

        data = {}
        for idx, value in entries.items():
            value = QQ(value) if isinstance(value, (int, str)) else value
            targets = set(permutations(idx)) if symmetrize else {tuple(idx)}
            for t in targets:
                data[t] = value

        def build(prefix):
            if len(prefix) == degree:
                return data.get(prefix, ZERO)
            return tuple(build(prefix + (i,)) for i in range(dim))

        return ScalarForm(dim, degree, build(()))

    def value(self, *indices):
        node = self.coeffs
        for i in indices:
            node = node[i]
        return node

    def evaluate(self, *vectors):
        """Multilinear evaluation on coordinate vectors."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        total = ZERO
        from itertools import product

        ranges = [
            [i for i, x in enumerate(v) if x != 0] for v in vectors
        ]
        for idx in product(*ranges):
            c = self.value(*idx)
            if c == 0:
                continue
            f = c
            for v, i in zip(vectors, idx):
                f = f * v[i]
            total += f
        return total

    def is_zero(self) -> bool:
        def walk(node, d):
            if d == 0:
                return node == 0
            return all(walk(child, d - 1) for child in node)

        return walk(self.coeffs, self.degree)

    def is_fully_symmetric(self) -> bool:
        from itertools import combinations_with_replacement, permutations

        for idx in combinations_with_replacement(range(self.dim), self.degree):
            base = self.value(*idx)
            for perm in permutations(idx):
                if self.value(*perm) != base:
                    return False
        return True

    def is_symmetric12(self) -> bool:
        if self.degree < 2:
            return True
        from itertools import product

        for idx in product(range(self.dim), repeat=self.degree):
            swapped = (idx[1], idx[0]) + idx[2:]
            if self.value(*idx) != self.value(*swapped):
                return False
        return True

    def __add__(self, other: "ScalarForm") -> "ScalarForm":
        def walk(a, b, d):
            if d == 0:
                return a + b
            return tuple(walk(x, y, d - 1) for x, y in zip(a, b))

        return ScalarForm(self.dim, self.degree, walk(self.coeffs, other.coeffs, self.degree))

    def __sub__(self, other: "ScalarForm") -> "ScalarForm":
        return self + other.scale(QQ(-1))

    def scale(self, c) -> "ScalarForm":
        def walk(a, d):
            if d == 0:
                return c * a
            return tuple(walk(x, d - 1) for x in a)

        return ScalarForm(self.dim, self.degree, walk(self.coeffs, self.degree))


def scalar2_to_vector(f: ScalarForm) -> Vector:
    n = f.dim
    return tuple(f.value(i, j) for i in range(n) for j in range(n))


def scalar2_from_vector(n: int, v: Vector) -> ScalarForm:
    return ScalarForm(n, 2, tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)))


def scalar3_sym12_to_vector(f: ScalarForm) -> Vector:
    n = f.dim
    return tuple(f.value(i, j, t) for (i, j) in pairs(n) for t in range(n))


# ---------------------------------------------------------------------------
# Cochain spaces
# ---------------------------------------------------------------------------


def cochain1_space(rep: Representation) -> Subspace:
    """{f linear : f o alpha = beta o f} inside QQ^(m*n)."""
    a, m = rep.algebra, rep.vdim
    n = a.dim
    rows = []
    for j in range(n):
        for p in range(m):
            row = [ZERO] * (m * n)
            for k in range(n):
                c = a.alpha.entry(k, j)
                if c != 0:
                    row[k * m + p] += c
            for q in range(m):
                c = rep.beta.entry(p, q)
                if c != 0:
                    row[j * m + q] -= c
            rows.append(tuple(row))
    return kernel_basis(Matrix(len(rows), m * n, tuple(rows)))


def cochain2_space(rep: Representation) -> Subspace:
    """{f in S^2(J, V) : beta o f = f o (alpha x alpha)} inside
    QQ^(npairs*m); the constraint is imposed on basis pairs, sufficient by
    bilinearity."""
    a, m = rep.algebra, rep.vdim
    n = a.dim
    plist = pairs(n)
    pidx = pair_index(n)
    dim_amb = len(plist) * m
    rows = []
    for i, j in plist:
        for p in range(m):
            row = [ZERO] * dim_amb
            # beta(f(e_i, e_j))_p
            base = pidx[(i, j)] * m
            for q in range(m):
                c = rep.beta.entry(p, q)
                if c != 0:
                    row[base + q] += c
            # - f(alpha e_i, alpha e_j)_p
            for k in range(n):
                aki = a.alpha.entry(k, i)
                if aki == 0:
                    continue
                for l in range(n):
                    alj = a.alpha.entry(l, j)
                    if alj == 0:
                        continue
                    row[pidx[(min(k, l), max(k, l))] * m + p] -= aki * alj
            rows.append(tuple(row))
    return kernel_basis(Matrix(len(rows), dim_amb, tuple(rows)))


def c2r_space(a: Algebra) -> Subspace:
    """Bilinear scalar forms with the dual-twist compatibility
    f(alpha x, y) = f(x, alpha y), inside QQ^(n*n)."""
    n = a.dim
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ZERO] * (n * n)
            for k in range(n):
                c = a.alpha.entry(k, i)
                if c != 0:
                    row[k * n + j] += c
                c = a.alpha.entry(k, j)
                if c != 0:
                    row[i * n + k] -= c
            rows.append(tuple(row))
    return kernel_basis(Matrix(len(rows), n * n, tuple(rows)))


def c3r_space(a: Algebra) -> Subspace:
    """Trilinear scalar forms, symmetric in the first two slots, with
    f(alpha x, alpha y, z) = f(x, y, alpha z); coordinates over
    (pair, third-slot) as documented at module top."""
    n = a.dim
    plist = pairs(n)
    pidx = pair_index(n)
    dim_amb = len(plist) * n
    rows = []
    for i, j in plist:
        for t in range(n):
            row = [ZERO] * dim_amb
            for k in range(n):
                aki = a.alpha.entry(k, i)
                if aki == 0:
                    continue
                for l in range(n):
                    alj = a.alpha.entry(l, j)
                    if alj == 0:
                        continue
                    row[pidx[(min(k, l), max(k, l))] * n + t] += aki * alj
            for s in range(n):
                c = a.alpha.entry(s, t)
                if c != 0:
                    row[pidx[(i, j)] * n + s] -= c
            rows.append(tuple(row))
    return kernel_basis(Matrix(len(rows), dim_amb, tuple(rows)))


def in_c2r(a: Algebra, f: ScalarForm) -> bool:
    return c2r_space(a).contains(scalar2_to_vector(f))


def in_c3r(a: Algebra, f: ScalarForm) -> bool:
    return f.is_symmetric12() and c3r_space(a).contains(scalar3_sym12_to_vector(f))


# ---------------------------------------------------------------------------
# Coboundary operators
# ---------------------------------------------------------------------------


def _entries(m: Matrix) -> list:
    """The nonzero entries (p, q, x) of a matrix."""
    return [(p, q, x) for p, row in enumerate(m.entries) for q, x in enumerate(row) if x != 0]


def _add_term(block: list, col: int, entries: list, w):
    """Add w * M f(...) to the m rows in block, where M has the given
    nonzero entries and f(...) starts at coordinate col."""
    for p, q, x in entries:
        block[p][col + q] += w * x


def _d1_matrix(rep: Representation) -> Matrix:
    """d1 from 1-cochain coordinates to 2-cochain coordinates."""
    a, m = rep.algebra, rep.vdim
    n = a.dim
    c, _, _ = _structure_tables(a)
    eye, rho = _entries(Matrix.identity(m)), [_entries(r) for r in rep.rho]
    rows = [[ZERO] * (n * m) for _ in range(len(pairs(n)) * m)]
    for pair, (i, j) in enumerate(pairs(n)):
        block = rows[pair * m:(pair + 1) * m]
        # f([e_i, e_j]) - rho(e_i) f(e_j) - rho(e_j) f(e_i)
        for s, w in c[i][j]:
            _add_term(block, s * m, eye, w)
        _add_term(block, j * m, rho[i], QQ(-1))
        _add_term(block, i * m, rho[j], QQ(-1))
    return Matrix.from_rows(rows)


def _d2_matrix(rep: Representation) -> Matrix:
    """d2 from 2-cochain coordinates to 3-cochain coordinates."""
    a, m = rep.algebra, rep.vdim
    n = a.dim
    c, alpha_cols, _ = _structure_tables(a)
    pos = _pair_positions(n)
    eye, rho = _entries(Matrix.identity(m)), [_entries(r) for r in rep.rho]
    npairs = len(pairs(n))
    rows = [[ZERO] * (npairs * m) for _ in range(npairs * n * m)]
    for pair, (i, j) in enumerate(pairs(n)):
        for k in range(n):
            block = rows[(pair * n + k) * m:(pair * n + k + 1) * m]
            for x, y, z in ((i, j, k), (j, i, k), (k, i, j)):
                # f(alpha e_x, [e_y, e_z]) + rho(alpha e_x) f(e_y, e_z)
                for u, au in alpha_cols[x]:
                    for s, w in c[y][z]:
                        _add_term(block, pos[u, s] * m, eye, au * w)
                    _add_term(block, pos[y, z] * m, rho[u], au)
    return Matrix.from_rows(rows)


def _dc2_matrix(rep: Representation) -> Matrix:
    """dc2 from 2-cochain coordinates to 3-cochain coordinates."""
    a, m = rep.algebra, rep.vdim
    n = a.dim
    c, alpha_cols, alpha_br = _structure_tables(a)
    pos = _pair_positions(n)
    eye, rho = _entries(Matrix.identity(m)), [_entries(r) for r in rep.rho]
    beta, beta_rho = _entries(rep.beta), [_entries(rep.beta @ r) for r in rep.rho]
    npairs = len(pairs(n))
    rows = [[ZERO] * (npairs * m) for _ in range(npairs * n * m)]
    for pair, (i, j) in enumerate(pairs(n)):
        for k in range(n):
            block = rows[(pair * n + k) * m:(pair * n + k + 1) * m]
            for x, y in ((i, j), (j, i)):
                # f(e_x, [alpha e_y, e_k]) + rho(e_x) f(alpha e_y, e_k)
                for u, w in alpha_br[y][k]:
                    _add_term(block, pos[x, u] * m, eye, w)
                for u, w in alpha_cols[y]:
                    _add_term(block, pos[u, k] * m, rho[x], w)
            # beta(f(e_k, [e_i, e_j])) + beta(rho(e_k) f(e_i, e_j))
            for s, w in c[i][j]:
                _add_term(block, pos[k, s] * m, beta, w)
            _add_term(block, pair * m, beta_rho[k], QQ(1))
    return Matrix.from_rows(rows)


def _dr2_matrix(a: Algebra) -> Matrix:
    """dr2 from bilinear-form coordinates to sym12 trilinear coordinates."""
    n = a.dim
    c, _, _ = _structure_tables(a)
    rows = [[ZERO] * (n * n) for _ in range(len(pairs(n)) * n)]
    for pair, (i, j) in enumerate(pairs(n)):
        for t in range(n):
            row = rows[pair * n + t]
            # f([e_i, e_j], e_t) - f(e_j, [e_i, e_t]) - f(e_i, [e_j, e_t])
            for s, w in c[i][j]:
                row[s * n + t] += w
            for x, y in ((i, j), (j, i)):
                for u, w in c[x][t]:
                    row[y * n + u] -= w
    return Matrix.from_rows(rows)


def d1(f: Cochain1) -> Cochain2:
    """d1 f(x, y) = f([x, y]) - rho(x) f(y) - rho(y) f(x)."""
    if not f.is_compatible():
        raise NotACochain("d1 argument violates f o alpha = beta o f")
    return Cochain2.from_vector(f.rep, _d1_matrix(f.rep).apply(f.to_vector()))


def d2(f: Cochain2) -> Cochain3:
    """d2 f(x,y,z) = f(alpha x, [y,z]) + f(alpha y, [x,z]) + f(alpha z, [x,y])
    + rho(alpha x) f(y,z) + rho(alpha y) f(x,z) + rho(alpha z) f(x,y);
    fully symmetric by construction."""
    if not f.is_compatible():
        raise NotACochain("d2 argument violates beta o f = f o alpha")
    return Cochain3(f.rep, _d2_matrix(f.rep).apply(f.to_vector()))


def dc2(f: Cochain2) -> Cochain3:
    """The adopted reading of the printed d_c^2 on S^2(J, V):

        d_c^2 f(x,y,z) = f(x, [alpha y, z]) + f(y, [alpha x, z])
                       + beta(f(z, [x, y]))
                       + rho(x) f(alpha y, z) + rho(y) f(alpha x, z)
                       + beta(rho(z) f(x, y)).

    The printed equation contains unmatched symbols; this term list is fixed
    by the requirements that it be symmetric in (x, y), that
    d_c^2 o d_c^1 = 0 on the coadjoint-compatible test set, and that the
    rho-part match the extended coadjoint condition.  Output is symmetric in
    the first two slots only.
    """
    return Cochain3(f.rep, _dc2_matrix(f.rep).apply(f.to_vector()))


def dr2(a: Algebra, f: ScalarForm) -> ScalarForm:
    """d_r^2 f(x,y,t) = f([x,y],t) - f(y,[x,t]) - f(x,[y,t])."""
    if f.degree != 2 or f.dim != a.dim:
        raise ValueError("dr2 expects a bilinear form on the algebra")
    n = a.dim
    v = _dr2_matrix(a).apply(scalar2_to_vector(f))
    pos = _pair_positions(n)
    return ScalarForm.from_entries(
        n, 3, {(i, j, t): v[pos[i, j] * n + t] for i, j, t in product(range(n), repeat=3)}
    )


def dr3(a: Algebra, g: ScalarForm) -> ScalarForm:
    """d_r^3 g(x,y,z,t) = g([x,y],alpha z,t) + g([x,z],alpha y,t)
    + g([y,z],alpha x,t) + g(x,y,[alpha z,t]) + g(y,z,[alpha x,t])
    + g(x,z,[alpha y,t]).

    Summed over nonzero structure constants: the first three terms through
    ga[k][t][s] = g(e_s, alpha e_k, e_t), the last three through the
    nonzero coordinates of [alpha e_k, e_t]."""
    if g.degree != 3 or g.dim != a.dim:
        raise ValueError("dr3 expects a trilinear form on the algebra")
    n = a.dim
    r = range(n)
    c, alpha_cols, alpha_br = _structure_tables(a)
    gv = g.coeffs
    ga = [
        [[sum((x * gv[s][u][t] for u, x in alpha_cols[k]), ZERO) for s in r] for t in r]
        for k in r
    ]

    def value(i, j, k, t):
        terms = []
        for p, q, w in ((i, j, k), (i, k, j), (j, k, i)):
            # g([e_p, e_q], alpha e_w, e_t) + g(e_p, e_q, [alpha e_w, e_t])
            terms += [x * ga[w][t][s] for s, x in c[p][q] if ga[w][t][s]]
            terms += [x * gv[p][q][u] for u, x in alpha_br[w][t] if gv[p][q][u]]
        return sum(terms, ZERO)

    coeffs = tuple(
        tuple(tuple(tuple(value(i, j, k, t) for t in r) for k in r) for j in r) for i in r
    )
    return ScalarForm(n, 4, coeffs)


# ---------------------------------------------------------------------------
# Second cohomology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H2Result:
    """Dimensions and canonical data of H^2_{alpha,beta}(J, V)."""

    c2: Subspace
    z2: Subspace
    b2: Subspace
    h2_dim: int
    representatives: tuple  # Cochain2 coset representatives

    @property
    def dims(self) -> tuple:
        return (self.c2.dim, self.z2.dim, self.b2.dim, self.h2_dim)


def compute_H2(rep: Representation) -> H2Result:
    """Z2 = ker d2 on the compatible 2-cochains, B2 = d1 of the compatible
    1-cochains, H2 = Z2/B2 with coset representatives.

    Raises InvalidRepresentation when the representation laws fail, and
    ContainmentViolation when B2 is not inside Z2 (which cannot happen for a
    valid representation over a multiplicative algebra).
    """
    if not check_representation(rep).passed:
        raise InvalidRepresentation("compute_H2 requires a valid representation")
    ambient = len(pairs(rep.algebra.dim)) * rep.vdim
    c2 = cochain2_space(rep)
    c2_cols = c2.matrix().transpose()
    z2_coeffs = kernel_basis(_d2_matrix(rep) @ c2_cols)
    z2 = Subspace.from_spanning(ambient, [c2_cols.apply(u) for u in z2_coeffs.basis])
    b2 = image_basis(_d1_matrix(rep) @ cochain1_space(rep).matrix().transpose())
    h2_dim, reps_vectors = quotient_dim(z2, b2)
    representatives = tuple(Cochain2.from_vector(rep, v) for v in reps_vectors)
    return H2Result(c2, z2, b2, h2_dim, representatives)
