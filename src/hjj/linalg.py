"""Exact rational dense linear algebra.

This is the engine under every cohomology computation: reduced row echelon
form, kernel and image bases, membership solves and quotient dimensions,
all over exact rationals.  Matrices are tiny (cochain spaces at dimension
<= 4 have at most a few hundred coordinates), so everything is dense and
favours determinism over asymptotics:

* pivots are always chosen leftmost-first, topmost-first;
* a :class:`Subspace` stores its basis in reduced row echelon form, which
  makes equality of subspaces literal equality of bases.

All values are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ContainmentViolation
from .scalars import ONE, QQ, ZERO

Vector = tuple  # tuple of scalars


def vec(entries: Iterable) -> Vector:
    return tuple(QQ(e) if isinstance(e, (int, str)) else e for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def vec_dot(u: Vector, v: Vector):
    """Sum of u_i v_i over the indices where both factors are nonzero."""
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def bilinear(form: Matrix, v: Vector, w: Vector):
    """v^T form w, summed over nonzero factors only."""
    total = ZERO
    for vi, row in zip(v, form.entries):
        if vi:
            total += vi * vec_dot(row, w)
    return total


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        return Matrix(nrows, ncols, data)

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Matrix":
        cols = [vec(c) for c in columns]
        ncols = len(cols)
        nrows = len(cols[0]) if ncols else 0
        return Matrix(nrows, ncols, tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        d = vec(values)
        n = len(d)
        return Matrix(n, n, tuple(tuple(d[i] if i == j else ZERO for j in range(n)) for i in range(n)))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_scale(c, r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose()
        return Matrix(
            self.rows,
            other.cols,
            tuple(tuple(vec_dot(r, c) for c in ot.entries) for r in self.entries),
        )

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(vec_dot(r, v) for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def trace(self):
        total = ZERO
        for i in range(self.rows):
            total += self.entries[i][i]
        return total

    def hstack(self, other: "Matrix") -> "Matrix":
        return Matrix(self.rows, self.cols + other.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))


# ---------------------------------------------------------------------------
# Gaussian elimination
# ---------------------------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the strictly increasing pivot columns.

    Pivot choice is leftmost column, topmost nonzero row, so the result is
    the unique RREF and the computation is reproducible bit for bit.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(nrows, ncols, tuple(tuple(row) for row in rows)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(m: Matrix, rhs: Vector):
    """One exact solution of ``m x = rhs``, or None if inconsistent.

    Free variables are set to zero (leftmost-pivot rule), so the returned
    solution is deterministic.
    """
    aug = m.hstack(Matrix.from_columns([rhs]))
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][m.cols]
    return tuple(x)


def determinant(m: Matrix):
    """Exact determinant by fraction-preserving elimination."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in m.entries]
    n = m.rows
    det = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def invert(m: Matrix):
    """Exact inverse, or None when singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    red, pivots = rref(m.hstack(Matrix.identity(m.rows)))
    if len(pivots) < m.rows or any(p >= m.rows for p in pivots):
        return None
    return Matrix(m.rows, m.rows, tuple(r[m.rows:] for r in red.entries))


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of QQ^ambient_dim with a canonical (RREF) basis.

    Because the basis is the unique reduced row echelon basis, two equal
    subspaces are equal dataclasses, and membership testing is a single
    back-substitution against the stored pivots.
    """

    ambient_dim: int
    basis: tuple  # tuple of Vectors, in RREF, no zero rows
    pivots: tuple

    @staticmethod
    def from_spanning(ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
        if not vectors:
            return Subspace(ambient_dim, (), ())
        red, pivots = rref(Matrix.from_rows(vectors))
        basis = tuple(red.entries[i] for i in range(len(pivots)))
        return Subspace(ambient_dim, basis, pivots)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(ambient_dim)
        return Subspace(ambient_dim, eye.entries, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        return self.reduce(v) is not None

    def reduce(self, v: Vector):
        """Coordinates of v in the stored basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        residual = list(v)
        coords = []
        for row, p in zip(self.basis, self.pivots):
            c = residual[p]
            coords.append(c)
            if c != 0:
                for j in range(self.ambient_dim):
                    residual[j] -= c * row[j]
        if any(x != 0 for x in residual):
            return None
        return tuple(coords)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace.from_spanning(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersection_dim(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.sum_with(other).dim

    def matrix(self) -> Matrix:
        """Basis vectors as the rows of a matrix (dim x ambient)."""
        return Matrix(self.dim, self.ambient_dim, self.basis)


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0}.

    The basis has one vector per free column, with a 1 in that column; this
    is the standard RREF parametrisation, hence deterministic and exact.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        vectors.append(tuple(v))
    return Subspace.from_spanning(m.cols, vectors)


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space of m."""
    return Subspace.from_spanning(m.rows, m.columns())


def quotient_dim(big: Subspace, small: Subspace) -> tuple[int, tuple]:
    """dim(big/small) plus coset representatives completing small inside big.

    Representatives are chosen greedily from big's canonical basis (leftmost
    pivot first), so the answer is deterministic.  Raises
    ContainmentViolation when small is not contained in big.
    """
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if not big.contains_subspace(small):
        raise ContainmentViolation(
            "small subspace is not contained in the big one (B2 outside Z2 "
            "signals an invalid representation or an upstream bug)"
        )
    reps = []
    current = small
    for v in big.basis:
        if not current.contains(v):
            reps.append(v)
            current = current.sum_with(Subspace.from_spanning(big.ambient_dim, [v]))
    assert len(reps) == big.dim - small.dim
    return big.dim - small.dim, tuple(reps)


# ---------------------------------------------------------------------------
# Invariant polynomials of a square matrix
# ---------------------------------------------------------------------------


def charpoly(m: Matrix) -> tuple:
    """Monic characteristic polynomial, highest degree first.

    Faddeev-LeVerrier recursion; exact because division is only by integers.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [ONE]
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -mk.trace() / QQ(k)
        coeffs.append(ck)
        if k < n:
            mk = mk + Matrix.identity(n).scale(ck)
    return tuple(coeffs)


def minpoly(m: Matrix) -> tuple:
    """Monic minimal polynomial, highest degree first.

    Finds the first linear dependence among I, m, m^2, ... by an exact solve
    in the vectorised matrix space.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows

    def flatten(a: Matrix) -> Vector:
        return tuple(x for row in a.entries for x in row)

    powers = [Matrix.identity(n)]
    for k in range(1, n + 1):
        powers.append(powers[-1] @ m)
        stacked = Matrix.from_columns([flatten(p) for p in powers[:k]])
        sol = solve(stacked, flatten(powers[k]))
        if sol is not None:
            # m^k = sum sol_i m^i  =>  p(t) = t^k - sum sol_i t^i
            return (ONE,) + tuple(-sol[k - 1 - i] for i in range(k))
    raise AssertionError("Cayley-Hamilton guarantees dependence by degree n")


def poly_eval(poly: Sequence, x):
    acc = ZERO
    for c in poly:
        acc = acc * x + c
    return acc


def rational_roots(poly: Sequence) -> tuple:
    """All rational roots of the polynomial (coefficients highest-first).

    Clears denominators and applies the rational root theorem; adequate for
    the small-degree twist matrices this package meets.
    """
    coeffs = [QQ(c) for c in poly]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return ()
    roots = set()
    while coeffs[-1] == 0 and len(coeffs) > 1:
        roots.add(ZERO)
        coeffs.pop()
    if len(coeffs) == 1:
        return tuple(sorted(roots))
    from math import lcm

    denom = lcm(*[int(c.denominator) for c in coeffs]) if len(coeffs) > 1 else 1
    ints = [int(c * denom) for c in coeffs]

    def divisors(k: int):
        k = abs(k)
        out = set()
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.add(d)
                out.add(k // d)
            d += 1
        return out

    lead, const = ints[0], ints[-1]
    for p in divisors(const):
        for q in divisors(lead):
            for cand in (QQ(p, q), QQ(-p, q)):
                if poly_eval(coeffs, cand) == 0:
                    roots.add(cand)
    return tuple(sorted(roots))
