"""Split abelian extensions J + V from 2-cocycles, and their equivalence.

The extension algebra lives on the block basis (J first, then V) with

    [x + v, y + w] = [x, y]_J + rho(x) w + rho(y) v + theta(x, y)

and twist alpha + beta (block diagonal).  Two cocycles give equivalent
extensions exactly when their difference is a coboundary; the witness
1-cochain h realises the equivalence through Phi(x + v) = x - h(x) + v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, LinearMapBetweenAlgebras
from .cohomology import Cochain1, Cochain2, _d1_matrix, _d2_matrix, _triples, cochain1_space, d1
from .errors import InvalidCocycle, InvalidRepresentation, NotACochain
from .linalg import Matrix, Subspace, block, solve, zero_vector
from .representations import Representation, check_representation


@dataclass(frozen=True)
class ExtensionSpec:
    """Base algebra, representation and cocycle defining the extension."""

    base: Algebra
    rep: Representation
    cocycle: Cochain2

    def __post_init__(self):
        if self.rep.algebra is not self.base and self.rep.algebra != self.base:
            raise ValueError("representation must act for the base algebra")
        if self.cocycle.rep != self.rep:
            raise ValueError("cocycle must take values in the representation module")

    def validate(self):
        """Raise when the spec invariants fail; used by build_extension."""
        if not check_representation(self.rep).passed:
            raise InvalidRepresentation("extension spec: representation laws fail")
        if not self.cocycle.is_compatible():
            raise NotACochain("extension spec: theta violates beta o theta = theta o alpha")
        image, m = _d2_matrix(self.rep).apply(self.cocycle.coords), self.rep.vdim
        for t, triple in enumerate(_triples(self.base.dim)):
            v = image[t * m:(t + 1) * m]
            if any(x != 0 for x in v):
                raise InvalidCocycle("extension spec: d2(theta) != 0", triple=triple, residual=v)


@dataclass(frozen=True)
class ExtensionAlgebra:
    """The algebra on J + V plus its recorded block structure."""

    algebra: Algebra
    base_dim: int
    fiber_dim: int

    def fiber_block(self) -> Subspace:
        return Subspace.from_spanning(self.base_dim + self.fiber_dim, self.inclusion_matrix().columns())

    def project_to_base(self) -> Algebra:
        """Quotient data on the J block (round-trips the construction)."""
        n = self.base_dim
        total = self.algebra
        brackets = {}
        for i in range(n):
            for j in range(i, n):
                brackets[(i, j)] = total.bracket_basis(i, j)[:n]
        alpha = Matrix.from_rows([total.alpha.row(i)[:n] for i in range(n)])
        return Algebra.from_brackets(n, brackets, alpha)

    def projection_map(self) -> LinearMapBetweenAlgebras:
        """The exactness datum pi: M -> J, an algebra homomorphism with
        alpha o pi = pi o alpha_M."""
        pi = block([[Matrix.identity(self.base_dim), Matrix.zero(self.base_dim, self.fiber_dim)]])
        return LinearMapBetweenAlgebras(self.algebra, self.project_to_base(), pi)

    def inclusion_matrix(self) -> Matrix:
        """The exactness datum i: V -> M as a coordinate matrix (V is a
        module, not an algebra, so this is a plain matrix)."""
        return block([[Matrix.zero(self.base_dim, self.fiber_dim)], [Matrix.identity(self.fiber_dim)]])


def build_extension(spec: ExtensionSpec) -> ExtensionAlgebra:
    """The algebra on J + V with the twisted bracket and twist alpha + beta."""
    spec.validate()
    a, rep, theta = spec.base, spec.rep, spec.cocycle
    n, m = a.dim, rep.vdim
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            brackets[(i, j)] = tuple(a.bracket_basis(i, j)) + tuple(theta.value(i, j))
    for i in range(n):
        for p in range(m):
            brackets[(i, n + p)] = zero_vector(n) + rep.rho[i].column(p)
    # V is abelian: [V, V] = 0 rows stay zero
    return ExtensionAlgebra(
        Algebra.from_brackets(n + m, brackets, block([[a.alpha, None], [None, rep.beta]])),
        base_dim=n,
        fiber_dim=m,
    )


def equivalence_map_from_cochain(spec: ExtensionSpec, h: Cochain1) -> LinearMapBetweenAlgebras:
    """Phi(x + v) = x - h(x) + v from build_extension(theta + d1 h) to
    build_extension(theta); an invertible homomorphism commuting with the
    twists."""
    if h.rep != spec.rep:
        raise ValueError("h must be a 1-cochain into the same module")
    if not h.is_compatible():
        raise NotACochain("equivalence witness violates h o alpha = beta o h")
    shifted = ExtensionSpec(spec.base, spec.rep, spec.cocycle + d1(h))
    source = build_extension(shifted)
    target = build_extension(spec)
    phi = block([[Matrix.identity(spec.base.dim), None], [h.coeffs.scale(-1), Matrix.identity(spec.rep.vdim)]])
    return LinearMapBetweenAlgebras(source.algebra, target.algebra, phi)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    witness: Optional[Cochain1]  # h with d1 h = theta_a - theta_b, when equivalent


def extensions_equivalent(spec_a: ExtensionSpec, spec_b: ExtensionSpec) -> EquivalenceResult:
    """theta_a - theta_b in B2?  The membership solve is exact; the witness
    reconstructs the coboundary."""
    if spec_a.base != spec_b.base or spec_a.rep != spec_b.rep:
        raise ValueError("extensions_equivalent needs the same base and representation")
    rep = spec_a.rep
    difference = (spec_a.cocycle - spec_b.cocycle).to_vector()
    c1_cols = cochain1_space(rep).matrix().transpose()
    solution = solve(_d1_matrix(rep) @ c1_cols, difference)
    if solution is None:
        return EquivalenceResult(False, None)
    return EquivalenceResult(True, Cochain1.from_vector(rep, c1_cols.apply(solution)))
