"""Finite-dimensional Hom-Jacobi-Jordan algebras over exact rationals.

An algebra is a symmetric structure-constant tensor together with a twist
endomorphism: ``[e_i, e_j] = sum_k c[i][j][k] e_k`` and ``alpha`` whose
column j holds the coordinates of ``alpha(e_j)``.  The defining axiom is the
twisted Jacobi identity

    [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0,

checked exactly on basis triples (sufficient by trilinearity; the cyclic sum
is fully symmetric because the bracket is).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Optional

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _charpoly,
    _kernel_vectors,
    _minpoly,
    _powers,
    invert,
    kernel_basis,
    rank,
    rational_roots,
    rref,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from .reports import CheckReport, Violation
from .scalars import QQ, ZERO, format_scalar


@dataclass(frozen=True)
class Algebra:
    """dim, symmetric bracket tensor c[i][j][k], twist matrix alpha."""

    dim: int
    bracket_tensor: tuple  # c[i][j] = coordinate vector of [e_i, e_j]
    alpha: Matrix
    labels: Optional[tuple] = None

    def __post_init__(self):
        n = self.dim
        c = self.bracket_tensor
        if len(c) != n or any(len(c[i]) != n for i in range(n)):
            raise ValueError("bracket tensor must be n x n")
        for i in range(n):
            for j in range(n):
                if len(c[i][j]) != n:
                    raise ValueError("bracket values must be coordinate vectors of length n")
                if c[i][j] != c[j][i]:
                    raise ValueError(f"bracket not symmetric at ({i}, {j})")
        if self.alpha.rows != n or self.alpha.cols != n:
            raise ValueError("alpha must be a square matrix of size dim")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must have one name per basis vector")

    @staticmethod
    def from_brackets(dim: int, brackets: dict, alpha: Matrix, labels=None) -> "Algebra":
        """Build from a sparse {(i, j): coordinate list} table; (i, j) with
        i <= j is enough, symmetry is filled in."""
        c = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in brackets.items():
            v = vec(value)
            c[i][j] = list(v)
            c[j][i] = list(v)
        tensor = tuple(tuple(tuple(c[i][j]) for j in range(dim)) for i in range(dim))
        return Algebra(dim, tensor, alpha, tuple(labels) if labels else None)

    @staticmethod
    def abelian(dim: int, alpha: Matrix) -> "Algebra":
        return Algebra.from_brackets(dim, {}, alpha)

    # -- evaluation ----------------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        return tuple(QQ(1) if k == i else ZERO for k in range(self.dim))

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the structure constants."""
        out = list(zero_vector(self.dim))
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                cij = self.bracket_tensor[i][j]
                f = xi * yj
                for k in range(self.dim):
                    if cij[k] != 0:
                        out[k] += f * cij[k]
        return tuple(out)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.bracket_tensor[i][j]

    def twist(self, x: Vector) -> Vector:
        return self.alpha.apply(x)

    def is_abelian(self) -> bool:
        return all(vec_is_zero(self.bracket_tensor[i][j]) for i in range(self.dim) for j in range(i, self.dim))


def _per_object(fn):
    """fn(x) computed once per object x and kept in ``x.__dict__``, for the
    frozen ``Algebra``, ``Representation`` and ``MetricAlgebra``, whose
    ``__eq__``, ``__hash__`` and repr read only their fields.  Every caller
    shares the (immutable) result, and it lives as long as x."""
    key = "_memo_" + fn.__name__

    @wraps(fn)
    def memo(x):
        if key not in x.__dict__:
            x.__dict__[key] = fn(x)
        return x.__dict__[key]

    return memo


@_per_object
def _structure_tables(a: Algebra) -> tuple:
    """Sparse views of the structure constants, built once per algebra:
    ``(c, alpha_cols, alpha_br)`` with ``c[i][j]`` the nonzero
    ``(k, c_ij^k)``, ``alpha_cols[k]`` the nonzero ``(u, alpha_uk)`` and
    ``alpha_br[k][t]`` the nonzero coordinates ``(u, x)`` of
    ``[alpha(e_k), e_t]``.  Operators sum over these entries only."""
    r = range(a.dim)
    c = tuple(tuple(_nonzero(a.bracket_tensor[i][j]) for j in r) for i in r)
    alpha_cols = tuple(_nonzero(a.alpha.column(k)) for k in r)
    # [alpha(e_k), e_t] = sum_u alpha_uk [e_t, e_u]: the bracket is symmetric
    alpha_br = tuple(tuple(_nonzero(_combine(a.dim, alpha_cols[k], c[t])) for t in r) for k in r)
    return c, alpha_cols, alpha_br


def _nonzero(v: Vector) -> tuple:
    return tuple((u, x) for u, x in enumerate(v) if x != 0)


def _combine(n: int, coeffs, terms) -> list:
    """sum x * terms[u] over the (u, x) in coeffs, where each term is a
    sparse vector of (v, y) entries; the dense result has length n."""
    out = [ZERO] * n
    for u, x in coeffs:
        for v, y in terms[u]:
            out[v] += x * y
    return out


@dataclass(frozen=True)
class SubspaceOfAlgebra:
    parent: Algebra
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.parent.dim:
            raise ValueError("subspace ambient dimension does not match the algebra")


@dataclass(frozen=True)
class LinearMapBetweenAlgebras:
    source: Algebra
    target: Algebra
    matrix: Matrix  # target.dim x source.dim

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("map matrix must be target.dim x source.dim")

    def apply(self, x: Vector) -> Vector:
        return self.matrix.apply(x)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def check_hom_jacobi(a: Algebra) -> CheckReport:
    """Twisted Jacobi identity on all basis triples i <= j <= k, from the
    structure tables: [alpha(e_x), [e_y, e_z]] = sum_s c_yz^s [alpha(e_x), e_s]."""
    violations = []
    n = a.dim
    c, _, alpha_br = _structure_tables(a)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                r = [ZERO] * n
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for s, w in c[y][z]:
                        for v, u in alpha_br[x][s]:
                            r[v] += w * u
                if any(r):
                    violations.append(Violation((i, j, k), tuple(r)))
    return CheckReport("hom-jacobi", tuple(violations))


def check_multiplicative(a: Algebra) -> CheckReport:
    """alpha([x, y]) = [alpha(x), alpha(y)] on basis pairs, from the
    structure tables: [alpha(e_i), alpha(e_j)] = sum_t alpha_tj [alpha(e_i), e_t].

    Residual convention: alpha([e_i, e_j]) - [alpha(e_i), alpha(e_j)].
    """
    violations = []
    n = a.dim
    c, alpha_cols, alpha_br = _structure_tables(a)
    for i in range(n):
        for j in range(i, n):
            lhs = _combine(n, c[i][j], alpha_cols)
            rhs = _combine(n, alpha_cols[j], alpha_br[i])
            r = tuple(x - y for x, y in zip(lhs, rhs))
            if any(r):
                violations.append(Violation((i, j), r))
    return CheckReport("multiplicative", tuple(violations))


def is_regular(a: Algebra) -> bool:
    """alpha is an algebra automorphism: invertible and multiplicative."""
    return rank(a.alpha) == a.dim and check_multiplicative(a).passed


def derived_series(a: Algebra) -> list:
    """D0 = J, D(k+1) = span [Dk, Dk], until the dimension stabilises."""
    series = [Subspace.full(a.dim)]
    while True:
        basis = series[-1].basis
        spanning = [a.bracket(u, v) for bi, u in enumerate(basis) for v in basis[bi:]]
        nxt = Subspace.from_spanning(a.dim, spanning)
        series.append(nxt)
        if nxt.dim == series[-2].dim:
            # stabilised; drop the duplicate
            series.pop()
            break
        if nxt.dim == 0:
            break
    return series


def is_solvable(a: Algebra) -> tuple[bool, Optional[int]]:
    """(solvable?, first k with Dk = 0)."""
    series = derived_series(a)
    if series[-1].dim == 0:
        return True, len(series) - 1
    return False, None


def center(a: Algebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, as the kernel of the stacked
    right-multiplication operators."""
    n = a.dim
    rows = []
    for j in range(n):
        # operator x -> [x, e_j]; row k, column i is the e_k-coefficient of [e_i, e_j]
        for k in range(n):
            rows.append(tuple(a.bracket_tensor[i][j][k] for i in range(n)))
    stacked = Matrix(n * n, n, tuple(rows)) if rows else Matrix.zero(0, n)
    return kernel_basis(stacked)


def is_ideal(a: Algebra, sub: SubspaceOfAlgebra) -> bool:
    """[I, J] inside I and alpha(I) inside I."""
    s = sub.space
    for v in s.basis:
        if not s.contains(a.twist(v)):
            return False
        for j in range(a.dim):
            if not s.contains(a.bracket(v, a.basis_vector(j))):
                return False
    return True


def is_abelian_ideal(a: Algebra, sub: SubspaceOfAlgebra) -> bool:
    if not is_ideal(a, sub):
        return False
    basis = sub.space.basis
    return all(vec_is_zero(a.bracket(u, v)) for bi, u in enumerate(basis) for v in basis[bi:])


def is_subalgebra(a: Algebra, sub: SubspaceOfAlgebra) -> bool:
    s = sub.space
    for bi, u in enumerate(s.basis):
        if not s.contains(a.twist(u)):
            return False
        for v in s.basis[bi:]:
            if not s.contains(a.bracket(u, v)):
                return False
    return True


def check_homomorphism(phi: LinearMapBetweenAlgebras) -> CheckReport:
    """phi o alpha = alpha' o phi and phi([x,y]) = [phi(x), phi(y)]'."""
    violations = []
    src, tgt, m = phi.source, phi.target, phi.matrix
    twist_defect = m @ src.alpha - tgt.alpha @ m
    if not twist_defect.is_zero():
        for j in range(src.dim):
            col = twist_defect.column(j)
            if not vec_is_zero(col):
                violations.append(Violation(("twist", j), col, "phi(alpha e_j) - alpha'(phi e_j)"))
    for i in range(src.dim):
        for j in range(i, src.dim):
            lhs = m.apply(src.bracket_basis(i, j))
            rhs = tgt.bracket(m.column(i), m.column(j))
            r = vec_add(lhs, vec_scale(QQ(-1), rhs))
            if not vec_is_zero(r):
                violations.append(Violation((i, j), r, "phi[x,y] - [phi x, phi y]'"))
    return CheckReport("homomorphism", tuple(violations))


def is_isomorphism(phi: LinearMapBetweenAlgebras) -> bool:
    return check_homomorphism(phi).passed and invert(phi.matrix) is not None


# ---------------------------------------------------------------------------
# Isomorphism invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invariants:
    """A tuple preserved by every HJJ isomorphism; unequal tuples certify
    non-isomorphism.  Equal tuples decide nothing."""

    dim: int
    derived_dims: tuple
    center_dim: int
    alpha_charpoly: tuple
    alpha_minpoly: tuple
    bracket_rank: int
    # per rational eigenvalue lam of alpha: (lam, dim ker(alpha - lam),
    # dim span[E_lam, E_lam], dim(E_lam cap center), dim(E_lam cap D1),
    # dim(im(alpha - lam) cap D1))
    eigen_profile: tuple

    def describe(self) -> str:
        cp = ", ".join(format_scalar(c) for c in self.alpha_charpoly)
        mp = ", ".join(format_scalar(c) for c in self.alpha_minpoly)
        eig = "; ".join(
            f"lam={format_scalar(e[0])}: dimE={e[1]} dim[E,E]={e[2]} dim(E^Z)={e[3]} "
            f"dim(E^D1)={e[4]} dim(im^D1)={e[5]}"
            for e in self.eigen_profile
        )
        return (
            f"dim={self.dim} derived={self.derived_dims} center={self.center_dim} "
            f"charpoly=[{cp}] minpoly=[{mp}] bracket_rank={self.bracket_rank} eigen[{eig}]"
        )


def _meet_dim(u: list, w: list) -> int:
    """dim(span u cap span w) for linearly independent lists u and w."""
    if not u or not w:
        return 0
    return len(u) + len(w) - rank(Matrix.from_rows(list(u) + list(w)))


def _spectrum(alpha: Matrix) -> tuple:
    """The twist's part of the invariants: ``(charpoly, minpoly, eigenspaces)``, with one
    ``(lam, eigenvectors, image basis of alpha - lam)`` per rational eigenvalue lam."""
    powers = _powers(alpha)
    cp = _charpoly(powers)
    eigenspaces = []
    for lam in rational_roots(cp):
        # one RREF of alpha - lam gives the eigenvectors and, from its pivot
        # columns, a basis of the image
        shifted = alpha - Matrix.identity(alpha.rows).scale(lam)
        red, pivots = rref(shifted)
        eigenspaces.append((lam, tuple(_kernel_vectors(red, pivots)), tuple(shifted.column(c) for c in pivots)))
    return cp, _minpoly(powers), tuple(eigenspaces)


def _bracket_invariants(a: Algebra, spectrum: tuple, structure: tuple) -> Invariants:
    """The invariants of a from ``_spectrum(a.alpha)`` and ``(derived_series(a), center(a))``."""
    cp, mp, eigenspaces = spectrum
    series, z = structure
    d1 = series[1] if len(series) > 1 else series[0]
    profile = []
    for lam, eig, image in eigenspaces:
        brackets = [a.bracket(u, v) for bi, u in enumerate(eig) for v in eig[bi:]]
        profile.append((lam, len(eig), rank(Matrix.from_rows(brackets)), _meet_dim(eig, z.basis),
                        _meet_dim(eig, d1.basis), _meet_dim(image, d1.basis)))
    return Invariants(
        dim=a.dim,
        derived_dims=tuple(s.dim for s in series),
        center_dim=z.dim,
        alpha_charpoly=cp,
        alpha_minpoly=mp,
        # the columns of the bracket map S^2 J -> J span D1
        bracket_rank=d1.dim,
        eigen_profile=tuple(profile),
    )


def isomorphism_invariants(a: Algebra) -> Invariants:
    return _bracket_invariants(a, _spectrum(a.alpha), (derived_series(a), center(a)))
