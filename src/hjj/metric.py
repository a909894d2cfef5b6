"""Metric Hom-Jacobi-Jordan algebras.

A metric structure is a nondegenerate symmetric bilinear form B that is
invariant, B(x, [y, z]) = B([x, y], z), and Hom-invariant,
B(alpha(x), y) = B(x, alpha(y)).  The executable heart of this module is
the criterion: given a Hom-invariant nondegenerate symmetric B, the axioms
{invariance, Hom-Jacobi, generalized coadjoint identity} hold exactly when
gamma(x, y, z) = B([x, y], z) is fully symmetric and d_r^3 gamma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .algebra import Algebra, SubspaceOfAlgebra, check_hom_jacobi, center, derived_series
from .cohomology import ScalarForm, dr3
from .errors import DegenerateForm
from .linalg import Matrix, Subspace, bilinear, determinant, kernel_basis
from .reports import CheckReport, Violation
from .representations import coadjoint_condition


@dataclass(frozen=True)
class MetricAlgebra:
    """Algebra plus a symmetric nondegenerate bilinear form (n x n)."""

    algebra: Algebra
    form: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if self.form.rows != n or self.form.cols != n:
            raise ValueError("form must be dim x dim")
        if not self.form.is_symmetric():
            raise ValueError("form must be symmetric")
        if n > 0 and determinant(self.form) == 0:
            raise DegenerateForm("metric form is degenerate")

    def pair(self, x, y):
        return bilinear(self.form, x, y)


@dataclass(frozen=True)
class MetricReport:
    """check_metric outcome; the coadjoint identity is evaluated and
    reported alongside because the criterion's reverse direction uses it."""

    invariance: CheckReport
    hom_invariance: CheckReport
    hom_jacobi: CheckReport
    coadjoint: CheckReport

    @property
    def passed(self) -> bool:
        return self.invariance.passed and self.hom_invariance.passed

    @property
    def axioms_passed(self) -> bool:
        """invariance + Hom-Jacobi + coadjoint identity: the side of the
        criterion equivalence that does not mention gamma."""
        return self.invariance.passed and self.hom_jacobi.passed and self.coadjoint.passed

    def describe(self) -> str:
        return "\n".join(
            r.describe()
            for r in (self.invariance, self.hom_invariance, self.hom_jacobi, self.coadjoint)
        )


def check_metric(m: MetricAlgebra) -> MetricReport:
    """Invariance and Hom-invariance on all basis tuples, plus the ambient
    Hom-Jacobi and coadjoint identities for the criterion cross-check."""
    a = m.algebra
    n = a.dim
    inv_violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # B(e_i, [e_j, e_k]) - B([e_i, e_j], e_k), full triple scan
                lhs = m.pair(a.basis_vector(i), a.bracket_basis(j, k))
                rhs = m.pair(a.bracket_basis(i, j), a.basis_vector(k))
                if lhs != rhs:
                    inv_violations.append(Violation((i, j, k), (lhs - rhs,)))
    hom_violations = []
    defect = m.form @ a.alpha - a.alpha.transpose() @ m.form
    for i in range(n):
        for j in range(i, n):
            d = defect.entry(i, j)
            if d != 0:
                hom_violations.append(Violation((i, j), (d,)))
    return MetricReport(
        invariance=CheckReport("invariance", tuple(inv_violations)),
        hom_invariance=CheckReport("hom-invariance", tuple(hom_violations)),
        hom_jacobi=check_hom_jacobi(a),
        coadjoint=coadjoint_condition(a),
    )


def gamma_form(m: MetricAlgebra) -> ScalarForm:
    """gamma(x, y, z) = B([x, y], z); fully symmetric when the metric
    axioms hold."""
    a = m.algebra
    n = a.dim
    return ScalarForm(n, 3, tuple(
        m.pair(a.bracket_basis(i, j), a.basis_vector(k)) for i, j, k in product(range(n), repeat=3)
    ))


@dataclass(frozen=True)
class CriterionReport:
    """metric_criterion outcome plus the theorem cross-check."""

    hom_invariance: CheckReport
    gamma_symmetric: bool
    dr3_gamma_zero: bool
    axioms_passed: bool  # invariance + Hom-Jacobi + coadjoint, for the iff

    @property
    def passed(self) -> bool:
        return self.hom_invariance.passed and self.gamma_symmetric and self.dr3_gamma_zero

    @property
    def agrees_with_axioms(self) -> bool:
        return (self.gamma_symmetric and self.dr3_gamma_zero) == self.axioms_passed

    def describe(self) -> str:
        return (
            f"{self.hom_invariance.describe()}\n"
            f"gamma fully symmetric: {self.gamma_symmetric}\n"
            f"dr3(gamma) = 0: {self.dr3_gamma_zero}\n"
            f"criterion vs axioms agree: {self.agrees_with_axioms}"
        )


def metric_criterion(m: MetricAlgebra, report: Optional[MetricReport] = None) -> CriterionReport:
    """gamma fully symmetric and d_r^3 gamma = 0, with the equivalence to
    the axiom side evaluated on the same input.  ``report`` is
    ``check_metric(m)`` when the caller already has it."""
    if report is None:
        report = check_metric(m)
    gamma = gamma_form(m)
    return CriterionReport(
        hom_invariance=report.hom_invariance,
        gamma_symmetric=gamma.is_fully_symmetric(),
        dr3_gamma_zero=dr3(m.algebra, gamma).is_zero(),
        axioms_passed=report.axioms_passed,
    )


def orthogonal(m: MetricAlgebra, sub: SubspaceOfAlgebra) -> SubspaceOfAlgebra:
    """I-perp = {x : B(x, I) = 0}; dim I + dim I-perp = n by nondegeneracy."""
    s = sub.space
    if s.dim == 0:
        return SubspaceOfAlgebra(m.algebra, Subspace.full(m.algebra.dim))
    constraint = s.matrix() @ m.form  # rows: v |-> B(basis_i, v)
    return SubspaceOfAlgebra(m.algebra, kernel_basis(constraint))


def is_isotropic(m: MetricAlgebra, sub: SubspaceOfAlgebra) -> bool:
    return orthogonal(m, sub).space.contains_subspace(sub.space)


@dataclass(frozen=True)
class DualityReport:
    precondition_failed: bool
    center_space: Subspace
    derived_perp: Subspace

    @property
    def passed(self) -> bool:
        return not self.precondition_failed and self.center_space == self.derived_perp

    @property
    def dims_complementary(self) -> bool:
        n = self.center_space.ambient_dim
        return self.center_space.dim + (n - self.derived_perp.dim) == n

    def describe(self) -> str:
        if self.precondition_failed:
            return "center-derived duality: precondition violated (not a metric algebra), no claim made"
        return (
            f"center-derived duality: {'pass' if self.passed else 'FAIL'} "
            f"(dim Z = {self.center_space.dim}, dim D1-perp = {self.derived_perp.dim})"
        )


def center_derived_duality(m: MetricAlgebra, report: Optional[MetricReport] = None) -> DualityReport:
    """Z(J) = [J, J]-perp, both sides computed independently.  ``report`` is
    ``check_metric(m)`` when the caller already has it."""
    if report is None:
        report = check_metric(m)
    z = center(m.algebra)
    series = derived_series(m.algebra)
    d1 = series[1] if len(series) > 1 else Subspace.zero(m.algebra.dim)
    perp = orthogonal(m, SubspaceOfAlgebra(m.algebra, d1)).space
    return DualityReport(
        precondition_failed=not report.passed,
        center_space=z,
        derived_perp=perp,
    )
