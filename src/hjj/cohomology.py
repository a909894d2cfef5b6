"""Cochain spaces compatible with (alpha, beta), coboundary operators, H2.

Coordinate conventions (fixed so matrices are reproducible bit for bit):

* 1-cochains f: J -> V live in QQ^(m*n) with index ``j*m + p`` holding the
  p-th coordinate of f(e_j) (basis order crossed with V-basis order);
* symmetric 2-cochains live in QQ^(npairs*m) over the lexicographic list of
  pairs (i, j), i <= j, index ``pair*m + p``: ``Cochain2.coords``;
* V-valued 3-cochains symmetric in their first two slots live in
  QQ^(npairs*n*m) with index ``(pair*n + k)*m + p`` holding the p-th
  coordinate of f(e_i, e_j, e_k), pair = (i, j): the sym12 layout below,
  crossed with V;
* a scalar form of degree d (``ScalarForm.coords``) lives in QQ^(n^d) in
  product order: index ``i*n + j`` for bilinear forms, ``(i*n + j)*n + k``
  for trilinear ones, and so on;
* scalar trilinear forms symmetric in their first two slots also live in
  QQ^(npairs*n) with index ``pair*n + t`` (the sym12 coordinates).

The twist f |-> f o (alpha x alpha) of a function of one pair is the
npairs x npairs pair-twist matrix T (``_pair_twist``): row pair(i, j) holds
alpha_ki * alpha_lj in column pair(k, l), so (T f)(i, j) = f(alpha e_i,
alpha e_j).  Each compatibility space is the kernel of one Kronecker
difference ``X (x) I - I (x) Y`` (``_twist_constraint``), X the twist on a
cochain's arguments and Y the twist on its values; the constraint's rows
follow the space's coordinates:

* C1 = ker(alpha^T (x) I_m - I_n (x) beta): row j*m + p is
  (f(alpha e_j) - beta f(e_j))_p;
* C2 = ker(T (x) I_m - I_npairs (x) beta): row pair*m + p is
  (f(alpha e_i, alpha e_j) - beta f(e_i, e_j))_p;
* C2_r = ker(alpha^T (x) I_n - I_n (x) alpha^T): row i*n + j is
  f(alpha e_i, e_j) - f(e_i, alpha e_j);
* C3_r = ker(T (x) I_n - I_npairs (x) alpha^T): row pair*n + t is
  g(alpha e_i, alpha e_j, e_t) - g(e_i, e_j, alpha e_t).

Each of d1, d2, dc2 and dr2 is one exact matrix on these coordinates, built
by summing over the nonzero structure constants (``_structure_tables``) and
the nonzero entries of rho and beta.  The public operators apply it to a
cochain's coordinates; compute_H2 takes its kernel and image.

d2 f, and d_r^3 g (defined for g symmetric in its first two slots only),
are symmetric in their first three slots, so the d2 matrix, ``dr3`` and the
gamma condition of compute_H2Q keep only the rows ``t*w + p`` at the t-th
sorted triple i <= j <= k (``_triples``), p the V-coordinate (w = m) for d2
and the fourth slot (w = n) for d_r^3; ``_expand_sorted`` reads the others
back by symmetry.  d_r^3 is one six-term rule (``_dr3_terms``).  The d1 and
d2 matrices, C1 and the C2 constraint are built once per representation,
and T once per algebra (``_per_object``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .algebra import Algebra, _per_object, _structure_tables
from .errors import InvalidRepresentation, NotACochain
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    image_basis,
    kernel_basis,
    kron,
    quotient_dim,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .representations import Representation, check_representation
from .scalars import QQ, ZERO


def pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _triples(n: int) -> list:
    """The sorted triples i <= j <= k, in lexicographic order."""
    return list(combinations_with_replacement(range(n), 3))


def _expand_sorted(n: int, rows, width: int, triples) -> tuple:
    """Rows kept at the sorted triples, ``width`` values each, read at each
    (i, j, k) of ``triples`` through its sorted triple."""
    tpos = {t: idx * width for idx, t in enumerate(_triples(n))}
    starts = [tpos[tuple(sorted(ijk))] for ijk in triples]
    return tuple(rows[s + p] for s in starts for p in range(width))


def _sorted_rows(f: "ScalarForm") -> tuple:
    """A 4-form's values at the rows (triple, t), the triples sorted."""
    return tuple(f.value(*ijk, t) for ijk, t in product(_triples(f.dim), range(f.dim)))


def _pair_positions(n: int) -> dict:
    """The index of each pair in ``pairs(n)``, keyed by both orders (i, j)
    and (j, i)."""
    return {(x, y): idx for idx, (i, j) in enumerate(pairs(n)) for x, y in ((i, j), (j, i))}


@_per_object
def _pair_twist(a: Algebra) -> Matrix:
    """The pair-twist matrix T of f |-> f o (alpha x alpha) on pair
    coordinates (see the module docstring)."""
    n = a.dim
    _, alpha_cols, _ = _structure_tables(a)
    pos = _pair_positions(n)
    rows = [[ZERO] * len(pairs(n)) for _ in pairs(n)]
    for pair, (i, j) in enumerate(pairs(n)):
        for k, x in alpha_cols[i]:
            for l, y in alpha_cols[j]:
                rows[pair][pos[k, l]] += x * y
    return Matrix.from_rows(rows)


def _twist_constraint(x: Matrix, y: Matrix) -> Matrix:
    """X (x) I - I (x) Y: the compatibility constraint of a cochain space
    (see the module docstring)."""
    return kron(x, Matrix.identity(y.rows)) - kron(Matrix.identity(x.rows), y)


@_per_object
def _c2_constraint(rep: Representation) -> Matrix:
    """The constraint of C2, with rows ``pair*m + p``."""
    return _twist_constraint(_pair_twist(rep.algebra), rep.beta)


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
    """Symmetric bilinear map J x J -> V on the coordinates ``pair*m + p``."""

    rep: Representation
    coords: Vector

    def __post_init__(self):
        n, m = self.rep.algebra.dim, self.rep.vdim
        if len(self.coords) != len(pairs(n)) * m:
            raise ValueError("2-cochain coordinates must number npairs*m")

    @staticmethod
    def zero(rep: Representation) -> "Cochain2":
        return Cochain2(rep, zero_vector(len(pairs(rep.algebra.dim)) * rep.vdim))

    @staticmethod
    def from_entries(rep: Representation, entries: dict) -> "Cochain2":
        """Build from a sparse {(i, j): V-coordinate list} table."""
        m = rep.vdim
        pos = _pair_positions(rep.algebra.dim)
        coords = list(zero_vector(len(pairs(rep.algebra.dim)) * m))
        for (i, j), value in entries.items():
            v = vec(value)
            if len(v) != m:
                raise ValueError("2-cochain values must live in V")
            coords[pos[i, j] * m:(pos[i, j] + 1) * m] = v
        return Cochain2(rep, tuple(coords))

    @staticmethod
    def from_vector(rep: Representation, v: Vector) -> "Cochain2":
        return Cochain2(rep, vec(v))

    def to_vector(self) -> Vector:
        return self.coords

    def value(self, i: int, j: int) -> Vector:
        m = self.rep.vdim
        start = _pair_positions(self.rep.algebra.dim)[i, j] * m
        return self.coords[start:start + m]

    def value_vec(self, x: Vector, y: Vector) -> Vector:
        m = self.rep.vdim
        out = list(zero_vector(m))
        for (i, j), pair in _pair_positions(self.rep.algebra.dim).items():
            if x[i] and y[j]:
                f = x[i] * y[j]
                for p in range(m):
                    out[p] += f * self.coords[pair * m + p]
        return tuple(out)

    def is_compatible(self) -> bool:
        """beta o f = f o (alpha x alpha)."""
        return vec_is_zero(_c2_constraint(self.rep).apply(self.coords))

    def twist_arguments(self) -> "Cochain2":
        """f o alpha: (x, y) |-> f(alpha x, alpha y)."""
        twist = kron(_pair_twist(self.rep.algebra), Matrix.identity(self.rep.vdim))
        return Cochain2(self.rep, twist.apply(self.coords))

    def __add__(self, other: "Cochain2") -> "Cochain2":
        return Cochain2(self.rep, vec_add(self.coords, other.coords))

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        return Cochain2(self.rep, vec_sub(self.coords, other.coords))

    def scale(self, c) -> "Cochain2":
        return Cochain2(self.rep, vec_scale(c, self.coords))

    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)


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


def _flat(n: int, idx) -> int:
    """Product-order position of an index tuple: (i*n + j)*n + k, ..."""
    pos = 0
    for i in idx:
        pos = pos * n + i
    return pos


@dataclass(frozen=True)
class ScalarForm:
    """Multilinear form J^degree -> QQ on the product-order coordinates."""

    dim: int
    degree: int
    coords: Vector

    def __post_init__(self):
        if len(self.coords) != self.dim ** self.degree:
            raise ValueError("scalar form coordinates must number dim**degree")

    @staticmethod
    def zero(dim: int, degree: int) -> "ScalarForm":
        return ScalarForm(dim, degree, zero_vector(dim ** degree))

    @staticmethod
    def from_entries(dim: int, degree: int, entries: dict, symmetrize: bool = False) -> "ScalarForm":
        """Build from {index tuple: scalar}; with symmetrize=True the value is
        copied to every permutation of the index tuple."""
        coords = list(zero_vector(dim ** degree))
        for idx, value in entries.items():
            value = QQ(value) if isinstance(value, (int, str)) else value
            for t in set(permutations(idx)) if symmetrize else {tuple(idx)}:
                coords[_flat(dim, t)] = value
        return ScalarForm(dim, degree, tuple(coords))

    def value(self, *indices):
        if len(indices) != self.degree:
            raise ValueError("a scalar form value takes one index per slot")
        return self.coords[_flat(self.dim, indices)]

    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)

    def is_fully_symmetric(self) -> bool:
        for idx in combinations_with_replacement(range(self.dim), self.degree):
            base = self.value(*idx)
            for perm in permutations(idx):
                if self.value(*perm) != base:
                    return False
        return True

    def is_symmetric12(self) -> bool:
        if self.degree < 2:
            return True
        return all(
            x == self.value(idx[1], idx[0], *idx[2:])
            for x, idx in zip(self.coords, product(range(self.dim), repeat=self.degree))
        )

    def __add__(self, other: "ScalarForm") -> "ScalarForm":
        return ScalarForm(self.dim, self.degree, vec_add(self.coords, other.coords))

    def __sub__(self, other: "ScalarForm") -> "ScalarForm":
        return ScalarForm(self.dim, self.degree, vec_sub(self.coords, other.coords))

    def scale(self, c) -> "ScalarForm":
        return ScalarForm(self.dim, self.degree, vec_scale(c, self.coords))


def scalar2_from_vector(n: int, v: Vector) -> ScalarForm:
    return ScalarForm(n, 2, tuple(v))


def scalar3_sym12_to_vector(f: ScalarForm) -> Vector:
    n = f.dim
    return tuple(f.value(i, j, t) for (i, j) in pairs(n) for t in range(n))


# ---------------------------------------------------------------------------
# Cochain spaces
# ---------------------------------------------------------------------------


@_per_object
def cochain1_space(rep: Representation) -> Subspace:
    """{f linear : f o alpha = beta o f} inside QQ^(m*n)."""
    return kernel_basis(_twist_constraint(rep.algebra.alpha.transpose(), rep.beta))


def cochain2_space(rep: Representation) -> Subspace:
    """{f in S^2(J, V) : beta o f = f o (alpha x alpha)} inside
    QQ^(npairs*m), imposed on basis pairs (sufficient by bilinearity)."""
    return kernel_basis(_c2_constraint(rep))


def c2r_space(a: Algebra) -> Subspace:
    """Bilinear scalar forms with the dual-twist compatibility
    f(alpha x, y) = f(x, alpha y), inside QQ^(n*n)."""
    at = a.alpha.transpose()
    return kernel_basis(_twist_constraint(at, at))


def c3r_space(a: Algebra) -> Subspace:
    """Trilinear scalar forms, symmetric in the first two slots, with
    f(alpha x, alpha y, z) = f(x, y, alpha z), on the sym12 coordinates."""
    return kernel_basis(_twist_constraint(_pair_twist(a), a.alpha.transpose()))


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


@_per_object
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


@_per_object
def _d2_matrix(rep: Representation) -> Matrix:
    """d2 from 2-cochain coordinates to its values at the sorted triples."""
    a, m = rep.algebra, rep.vdim
    n = a.dim
    c, alpha_cols, _ = _structure_tables(a)
    pos = _pair_positions(n)
    eye, rho = _entries(Matrix.identity(m)), [_entries(r) for r in rep.rho]
    triples = _triples(n)
    rows = [[ZERO] * (len(pairs(n)) * m) for _ in range(len(triples) * m)]
    for t, (i, j, k) in enumerate(triples):
        block = rows[t * m:(t + 1) * m]
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
    n = f.rep.algebra.dim
    image = _d2_matrix(f.rep).apply(f.coords)
    triples = ((i, j, k) for i, j in pairs(n) for k in range(n))
    return Cochain3(f.rep, _expand_sorted(n, image, f.rep.vdim, triples))


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
    v = _dr2_matrix(a).apply(f.coords)
    pos = _pair_positions(n)
    return ScalarForm(n, 3, tuple(v[pos[i, j] * n + t] for i, j, t in product(range(n), repeat=3)))


def _dr3_terms(a: Algebra, i: int, j: int, k: int, t: int):
    """The terms (x, (p, q, u)) of d_r^3 g(e_i, e_j, e_k, e_t) =
    sum x * g(e_p, e_q, e_u), summed over the nonzero structure constants."""
    c, alpha_cols, alpha_br = _structure_tables(a)
    for p, q, w in ((i, j, k), (i, k, j), (j, k, i)):
        # g([e_p, e_q], alpha e_w, e_t) + g(e_p, e_q, [alpha e_w, e_t])
        for s, x in c[p][q]:
            for u, y in alpha_cols[w]:
                yield x * y, (s, u, t)
        for u, x in alpha_br[w][t]:
            yield x, (p, q, u)


def dr3(a: Algebra, g: ScalarForm) -> ScalarForm:
    """d_r^3 g(x,y,z,t) = g([x,y],alpha z,t) + g([x,z],alpha y,t)
    + g([y,z],alpha x,t) + g(x,y,[alpha z,t]) + g(y,z,[alpha x,t])
    + g(x,z,[alpha y,t]), for g symmetric in slots 1-2, at the sorted-triple
    rows the module docstring gives."""
    if g.degree != 3 or g.dim != a.dim:
        raise ValueError("dr3 expects a trilinear form on the algebra")
    if not g.is_symmetric12():
        raise NotACochain("dr3 argument is not symmetric in its first two slots")
    n, gv = a.dim, g.coords
    rows = [
        sum((x * v for x, (p, q, u) in _dr3_terms(a, i, j, k, t) if (v := gv[(p * n + q) * n + u])), ZERO)
        for (i, j, k), t in product(_triples(n), range(n))
    ]
    return ScalarForm(n, 4, _expand_sorted(n, rows, n, product(range(n), repeat=3)))


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
    c2 = cochain2_space(rep)
    c2_cols = c2.matrix().transpose()
    z2_coeffs = kernel_basis(_d2_matrix(rep) @ c2_cols)
    z2 = Subspace.from_spanning(c2.ambient_dim, [c2_cols.apply(u) for u in z2_coeffs.basis])
    b2 = image_basis(_d1_matrix(rep) @ cochain1_space(rep).matrix().transpose())
    h2_dim, reps_vectors = quotient_dim(z2, b2)
    representatives = tuple(Cochain2.from_vector(rep, v) for v in reps_vectors)
    return H2Result(c2, z2, b2, h2_dim, representatives)
