"""Exact rational dense linear algebra.

This is the engine under every cohomology computation: reduced row echelon
form, kernel and image bases, membership solves and quotient dimensions,
all over exact rationals.  Matrices are tiny (cochain spaces at dimension
<= 4 have at most a few hundred coordinates), so everything is dense and
favours determinism over asymptotics:

* pivots are always chosen leftmost-first, topmost-first;
* elimination (``rref``, ``determinant``) runs on integer rows, each row's
  denominators cleared, and builds each rational entry once at the end;
* a :class:`Subspace` stores its basis in reduced row echelon form, which
  makes equality of subspaces literal equality of bases.

All values are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
    return tuple(a - b if b else a for a, b in zip(u, v))


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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: entry (i*b.rows + p, j*b.cols + q) is a_ij b_pq."""
    return Matrix(a.rows * b.rows, a.cols * b.cols, tuple(
        tuple(x * y if x and y else ZERO for x in ra for y in rb) for ra in a.entries for rb in b.entries
    ))


def block(grid: Sequence[Sequence]) -> Matrix:
    """The matrix of a grid of Matrix blocks.  ``None`` is a zero block as
    tall as the other blocks of its block row and as wide as those of its
    block column; every block row and column needs one Matrix to size it."""

    def size(blocks, attr: str) -> int:
        sizes = {getattr(b, attr) for b in blocks if b is not None}
        if len(sizes) != 1:
            raise ValueError(f"block grid: {len(sizes)} sizes for one block row or column")
        return sizes.pop()

    heights = [size(row, "rows") for row in grid]
    widths = [size(col, "cols") for col in zip(*grid)]
    if any(len(row) != len(widths) for row in grid):
        raise ValueError("block grid rows differ in length")
    entries = []
    for row, h in zip(grid, heights):
        parts = [((ZERO,) * w,) * h if b is None else b.entries for b, w in zip(row, widths)]
        entries += [sum(pieces, ()) for pieces in zip(*parts)]
    return Matrix(sum(heights), sum(widths), tuple(entries))


# ---------------------------------------------------------------------------
# Gaussian elimination
# ---------------------------------------------------------------------------


def _integer_row(row) -> tuple[list, int, int]:
    """Clear a rational row: ``row = (content / den) * ints`` with ``ints``
    primitive integers (content 0 for a zero row)."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    content = gcd(*ints)
    if content > 1:
        ints = [x // content for x in ints]
    return ints, content, den


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the strictly increasing pivot columns.

    Pivot choice is leftmost column, topmost nonzero row, so the result is
    the unique RREF and the computation is reproducible bit for bit.
    Elimination runs on integer rows (``p*row - f*pivot_row`` over its gcd),
    each a nonzero multiple of the rational elimination's row, and divides
    each pivot row by its pivot once at the end: the same pivots and output.
    """
    rows = [_integer_row(r)[0] for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                new = [p * x - f * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [tuple(ZERO if not x else ONE if x == row[c] else Fraction(x, row[c]) for x in row)
           for row, c in zip(rows, pivots)]
    out += [(ZERO,) * ncols] * (nrows - r)
    return Matrix(nrows, ncols, tuple(out)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(m: Matrix, rhs: Vector):
    """One exact solution of ``m x = rhs``, or None if inconsistent.

    Free variables are set to zero (leftmost-pivot rule), so the returned
    solution is deterministic.
    """
    red, pivots = rref(block([[m, Matrix.from_columns([rhs])]]))
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][m.cols]
    return tuple(x)


def determinant(m: Matrix):
    """Exact determinant by Bareiss fraction-free elimination (exact integer
    division) on the integer rows, divided by the product of the row scales."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    rows, num, den = [], 1, 1
    for r in m.entries:
        ints, content, d = _integer_row(r)
        rows.append(ints)
        num *= content
        den *= d
    prev = 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            num = -num
        prow, p = rows[c], rows[c][c]
        for i in range(c + 1, n):
            row, f = rows[i], rows[i][c]
            rows[i] = [(p * row[j] - f * prow[j]) // prev if j > c else 0 for j in range(n)]
        prev = p
    return Fraction(num * prev, den)


def invert(m: Matrix):
    """Exact inverse, or None when singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    red, pivots = rref(block([[m, Matrix.identity(m.rows)]]))
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

    def matrix(self) -> Matrix:
        """Basis vectors as the rows of a matrix (dim x ambient)."""
        return Matrix(self.dim, self.ambient_dim, self.basis)


def _kernel_vectors(red: Matrix, pivots: tuple) -> list:
    """The RREF parametrisation of a null space from the reduced matrix:
    one vector per free column, with a 1 in that column."""
    pivot_set = set(pivots)
    vectors = []
    for fc in range(red.cols):
        if fc in pivot_set:
            continue
        v = [ZERO] * red.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        vectors.append(tuple(v))
    return vectors


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m v = 0}, spanned by the RREF
    parametrisation (deterministic and exact)."""
    return Subspace.from_spanning(m.cols, _kernel_vectors(*rref(m)))


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space of m."""
    return Subspace.from_spanning(m.rows, m.columns())


def quotient_dim(big: Subspace, small: Subspace) -> tuple[int, tuple]:
    """dim(big/small) plus coset representatives completing small inside big.

    The representatives are the vectors of big's canonical basis at the
    pivot columns of one RREF of the columns ``[small.basis | big.basis]``:
    each is the leftmost one outside the span of small and those before it,
    so the answer is deterministic.  Raises ContainmentViolation when small
    is not contained in big.
    """
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if not big.contains_subspace(small):
        raise ContainmentViolation(
            "small subspace is not contained in the big one (B2 outside Z2 "
            "signals an invalid representation or an upstream bug)"
        )
    k = small.dim
    pivots = rref(Matrix.from_columns(small.basis + big.basis))[1]
    reps = tuple(big.basis[c - k] for c in pivots[k:])
    return len(reps), reps


# ---------------------------------------------------------------------------
# Invariant polynomials of a square matrix
# ---------------------------------------------------------------------------


def _powers(m: Matrix) -> list:
    """I, m, m^2, ..., m^n for the n x n matrix m."""
    powers = [Matrix.identity(m.rows)]
    for _ in range(m.rows):
        powers.append(powers[-1] @ m)
    return powers


def charpoly(m: Matrix) -> tuple:
    """Monic characteristic polynomial, highest degree first."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    return _charpoly(_powers(m))


def _charpoly(powers: list) -> tuple:
    """The characteristic polynomial from ``_powers(m)``, by Newton's
    identities on the power traces p_k = tr(m^k):
    k c_k = -(c_{k-1} p_1 + ... + c_0 p_k), exact because division is only
    by the integer k.
    """
    traces = [p.trace() for p in powers]
    coeffs = [ONE]
    for k in range(1, len(powers)):
        coeffs.append(-sum((coeffs[k - i] * traces[i] for i in range(1, k + 1)), ZERO) / k)
    return tuple(coeffs)


def minpoly(m: Matrix) -> tuple:
    """Monic minimal polynomial, highest degree first."""
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    return _minpoly(_powers(m))


def _minpoly(powers: list) -> tuple:
    """The minimal polynomial from ``_powers(m)``, by one RREF of the
    n^2 x (n+1) matrix whose columns are the vectorised I, m, ..., m^n: its
    first non-pivot column k gives the first linear dependence,
    m^k = sum_i red[i][k] m^i.
    """
    red, pivots = rref(Matrix.from_columns([[x for row in p.entries for x in row] for p in powers]))
    k = len(pivots)  # Cayley-Hamilton: column n is dependent, so columns 0..k-1 are the pivots
    return (ONE,) + tuple(-red.entries[i][k] for i in reversed(range(k)))


def _taylor_shift(low_first: list) -> list:
    """p(x + 1) from p(x), coefficients lowest degree first."""
    c = list(low_first)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _integer_value(coeffs, p: int, q: int) -> int:
    """q^d f(p/q) for the integer polynomial f (highest degree first)."""
    acc, qi = 0, 1
    for c in coeffs:
        acc = acc * p + c * qi
        qi *= q
    return acc


def _positive_roots(f: list) -> list:
    """The positive rational roots, as (p, q) pairs, of the integer
    polynomial f (highest degree first, f(0) != 0), by Descartes bisection
    (Collins & Akritas) on (0, 2^e), 2^e above the Cauchy bound.

    The interval (c, c+1)/2^k, in units of 2^e, carries p(x) =
    2^(kd) f(2^e (c + x)/2^k), whose roots in (0, 1) number at most the sign
    changes of (x+1)^d p(1/(x+1)).  Its halves carry 2^d p(x/2) and that
    shifted by 1; their common end, the midpoint, is tested exactly.  A
    rational root's denominator divides lead, so on an interval narrower
    than 1/(2 lead^2) the only candidate is the closest fraction to the
    midpoint with denominator at most lead.
    """
    d, lead = len(f) - 1, abs(f[0])
    e = (max(abs(a) for a in f[1:]) // lead + 2).bit_length()
    depth = e + (2 * lead * lead).bit_length()  # 2^(e - depth) < 1/(2 lead^2)

    def value(u: int, k: int) -> int:  # f(2^e u / 2^k) times a positive number
        return _integer_value(f, u << e, 1 << k)

    points = []  # (u, k) for 2^e u / 2^k: a root on a midpoint, or a candidate's midpoint
    todo = [(0, 0, [a << (e * (d - i)) for i, a in enumerate(f)][::-1])]  # f(2^e x), lowest first
    while todo:
        c, k, p = todo.pop()
        signs = [x > 0 for x in _taylor_shift(p[::-1]) if x]
        variations = sum(a != b for a, b in zip(signs, signs[1:]))
        if variations == 0:
            continue
        if variations == 1 and (lo := value(c, k)) and value(c + 1, k):
            # one simple root and a sign change (an end that is a root found
            # on an earlier midpoint has no sign): bisect on the sign of f
            while k < depth and (mid := value(2 * c + 1, k + 1)):
                c, k = 2 * c + ((mid > 0) == (lo > 0)), k + 1
            points.append((2 * c + 1, k + 1))
        elif k >= depth:
            points.append((2 * c + 1, k + 1))
        else:
            left = [a << (d - j) for j, a in enumerate(p)]  # 2^d p(x/2)
            right = _taylor_shift(left)
            if not right[0]:
                points.append((2 * c + 1, k + 1))
            todo += [(2 * c, k + 1, left), (2 * c + 1, k + 1, right)]
    candidates = (Fraction(u << e, 1 << k).limit_denominator(lead) for u, k in points)
    return [(r.numerator, r.denominator) for r in candidates if not _integer_value(f, r.numerator, r.denominator)]


def rational_roots(poly: Sequence) -> tuple:
    """All distinct rational roots of the polynomial (coefficients highest
    degree first), in increasing order.

    Runs in time polynomial in the bit size of the coefficients: the
    polynomial is made a primitive integer one, zero roots are peeled off,
    and the positive roots of f(x) and of f(-x) are isolated by Descartes
    bisection on (0, 2^e), 2^e above the Cauchy bound; each rational root
    is read off its isolating interval by its bounded denominator and
    confirmed by exact integer evaluation.
    """
    f = _integer_row(vec(poly))[0]
    while f and not f[0]:
        f.pop(0)
    roots = set()
    while len(f) > 1 and not f[-1]:
        roots.add(ZERO)
        f.pop()
    if len(f) > 1:
        roots.update(Fraction(p, q) for p, q in _positive_roots(f))
        mirrored = [-a if i % 2 else a for i, a in enumerate(f)]  # f(-x) up to sign
        roots.update(Fraction(-p, q) for p, q in _positive_roots(mirrored))
    return tuple(sorted(roots))
