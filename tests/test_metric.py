import random
from itertools import product

import pytest

from hjj import QQ, Matrix
from hjj.algebra import Algebra, SubspaceOfAlgebra, is_ideal
from hjj.catalog import instantiate
from hjj.cohomology import Cochain2, ScalarForm
from hjj.errors import DegenerateForm
from hjj.linalg import Subspace, determinant, kernel_basis, vec_add, vec_scale, zero_vector
from hjj.metric import (
    MetricAlgebra,
    center_derived_duality,
    check_metric,
    gamma_form,
    is_isotropic,
    metric_criterion,
    orthogonal,
)
from hjj.quadratic import build_twofold
from hjj.representations import (
    QuadraticRepresentation,
    Representation,
    check_quadratic_representation,
)

from .gen import bilinear, conjugate_algebra, dense_invariance_violations, rand_invertible, rand_scalar
from .test_algebra import _perfect_algebras


def twofold_j111(a=2):
    alg = instantiate("J^1_{1,1}", {"a": a})
    empty = Matrix.zero(0, 0)
    rep = Representation(alg, 0, (empty, empty), empty)
    qrep = QuadraticRepresentation(rep, empty)
    return build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(2, 3))


def test_metric_requires_nondegenerate():
    alg = Algebra.abelian(2, Matrix.identity(2))
    with pytest.raises(DegenerateForm):
        MetricAlgebra(alg, Matrix.from_rows([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        MetricAlgebra(alg, Matrix.from_rows([[1, 2], [0, 1]]))  # not symmetric


def test_check_metric_abelian_identity():
    m = MetricAlgebra(Algebra.abelian(2, Matrix.identity(2)), Matrix.identity(2))
    report = check_metric(m)
    assert report.passed and report.axioms_passed


def test_check_metric_twofold_positive():
    tf = twofold_j111()
    report = check_metric(tf.metric)
    assert report.passed and report.axioms_passed
    # explicit pairing value from the construction: B([e1,e1], e2*) = 1
    alg = tf.metric.algebra
    assert bilinear(tf.metric.form, alg.bracket_basis(0, 0), alg.basis_vector(3)) == QQ(1)


def test_check_metric_identity_form_fails_invariance():
    alg = instantiate("J^1_{1,1}", {"a": 2})
    m = MetricAlgebra(alg, Matrix.identity(2))
    report = check_metric(m)
    assert not report.invariance.passed
    # B(e2, [e1,e1]) = 1 while B([e2,e1], e1) = 0
    wheres = {v.where for v in report.invariance.violations}
    assert (1, 0, 0) in wheres


def test_gamma_form():
    assert gamma_form(MetricAlgebra(Algebra.abelian(2, Matrix.identity(2)), Matrix.identity(2))).is_zero()
    tf = twofold_j111()
    gamma = gamma_form(tf.metric)
    assert gamma.is_fully_symmetric()
    assert gamma.value(0, 0, 3) == QQ(1)  # gamma(e1, e1, e2*) = 1
    bad = MetricAlgebra(instantiate("J^1_{1,1}", {"a": 2}), Matrix.identity(2))
    assert not gamma_form(bad).is_fully_symmetric()


def test_metric_criterion_positive_and_perturbed():
    tf = twofold_j111()
    crit = metric_criterion(tf.metric)
    assert crit.passed and crit.agrees_with_axioms
    # perturb one bracket: [e1,e1] = e2 + e1 breaks the criterion
    alg = tf.metric.algebra
    brackets = {}
    for i in range(4):
        for j in range(i, 4):
            brackets[(i, j)] = alg.bracket_basis(i, j)
    brackets[(0, 0)] = vec_add(alg.bracket_basis(0, 0), alg.basis_vector(0))
    perturbed = Algebra.from_brackets(4, brackets, alg.alpha)
    crit_bad = metric_criterion(MetricAlgebra(perturbed, tf.metric.form))
    assert not crit_bad.passed
    assert crit_bad.agrees_with_axioms  # the iff still holds


def test_orthogonal_and_isotropic():
    tf = twofold_j111()
    m = tf.metric
    alg = m.algebra
    zero = SubspaceOfAlgebra(alg, Subspace.zero(4))
    assert orthogonal(m, zero).space.dim == 4
    whole = SubspaceOfAlgebra(alg, Subspace.full(4))
    assert orthogonal(m, whole).space.dim == 0
    dual = SubspaceOfAlgebra(alg, tf.dual_block())
    perp = orthogonal(m, dual)
    assert perp.space == dual.space  # Lagrangian
    assert is_isotropic(m, dual)
    assert is_ideal(alg, perp)


def test_orthogonal_dimension_and_involution():
    rng = random.Random(53)
    tf = twofold_j111()
    m = tf.metric
    n = m.algebra.dim
    for _ in range(20):
        vectors = [[rand_scalar(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
        sub = SubspaceOfAlgebra(m.algebra, Subspace.from_spanning(n, vectors))
        perp = orthogonal(m, sub)
        assert sub.space.dim + perp.space.dim == n
        assert orthogonal(m, perp).space == sub.space


def test_orthogonal_of_ideal_centralizes():
    tf = twofold_j111()
    m = tf.metric
    alg = m.algebra
    dual = SubspaceOfAlgebra(alg, tf.dual_block())
    perp = orthogonal(m, dual)
    for u in perp.space.basis:
        for v in dual.space.basis:
            assert all(x == 0 for x in alg.bracket(u, v))


def test_center_derived_duality():
    tf = twofold_j111()
    report = center_derived_duality(tf.metric)
    assert report.passed
    n = report.center_space.ambient_dim
    assert report.center_space.dim + (n - report.derived_perp.dim) == n
    # center = D1-perp = span{e2, e1*}
    assert report.center_space.dim == 2
    assert report.center_space.contains((QQ(0), QQ(1), QQ(0), QQ(0)))
    assert report.center_space.contains((QQ(0), QQ(0), QQ(1), QQ(0)))
    # guarded path on a non-metric input
    bad = MetricAlgebra(instantiate("J^1_{1,1}", {"a": 2}), Matrix.identity(2))
    guarded = center_derived_duality(bad)
    assert guarded.precondition_failed and not guarded.passed


def test_center_derived_duality_of_perfect_algebras():
    # D1 = J, so D1-perp = 0, which is the center of each example
    for a in _perfect_algebras():
        report = center_derived_duality(MetricAlgebra(a, Matrix.identity(a.dim)))
        assert report.derived_perp.dim == 0
        assert report.passed and report.center_space.dim == 0


def test_beta_selfadjointness_of_metric_restriction():
    # restriction of a metric algebra's structure to a block: beta-adjointness
    # of the module data comes for free from Hom-invariance of B
    alg = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(4)]]))
    qrep = QuadraticRepresentation(rep, Matrix.identity(1))
    tf = build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(2, 3))
    # carve the module block back out of the twofold output
    total = tf.metric.algebra
    n, m = tf.base_dim, tf.module_dim
    beta = Matrix.from_rows([[total.alpha.entry(n + p, n + q) for q in range(m)] for p in range(m)])
    b_a = Matrix.from_rows([[tf.metric.form.entry(n + p, n + q) for q in range(m)] for p in range(m)])
    restricted = QuadraticRepresentation(
        Representation(alg, m, tuple(Matrix.zero(m, m) for _ in range(alg.dim)), beta), b_a
    )
    _, beta_check = check_quadratic_representation(restricted)
    assert beta_check.passed


# ---------------------------------------------------------------------------
# The criterion equivalence, randomized (the iff of the gamma proposition)
# ---------------------------------------------------------------------------


def _random_hom_invariant_form(rng, alpha: Matrix):
    """Random symmetric nondegenerate B with B alpha = alpha^T B, or None."""
    n = alpha.rows
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    # constraint rows: entries of (B alpha - alpha^T B) as B runs over the
    # unit symmetric matrices
    rows = []
    for p, q in product(range(n), repeat=2):
        row = []
        for (i, j) in coords:
            b = Matrix.from_rows(
                [
                    [
                        QQ(1) if (r, c) in ((i, j), (j, i)) else QQ(0)
                        for c in range(n)
                    ]
                    for r in range(n)
                ]
            )
            defect = b @ alpha - alpha.transpose() @ b
            row.append(defect.entry(p, q))
        rows.append(row)
    space = kernel_basis(Matrix.from_rows(rows))
    if space.dim == 0:
        return None
    for _ in range(25):
        v = zero_vector(space.ambient_dim)
        for basis_vec in space.basis:
            v = vec_add(v, vec_scale(rand_scalar(rng), basis_vec))
        b = Matrix.from_rows(
            [
                [v[coords.index((min(i, j), max(i, j)))] for j in range(n)]
                for i in range(n)
            ]
        )
        if determinant(b) != 0:
            return b
    return None


def _random_candidate(rng):
    """(bracket, alpha, B) with B symmetric nondegenerate Hom-invariant; the
    bracket need not satisfy any axiom."""
    n = rng.choice((2, 3))
    kind = rng.randrange(3)
    if kind == 0:
        # genuine metric algebra, conjugated
        tf = twofold_j111(rng.choice((2, 3)))
        p = rand_invertible(rng, 4)
        alg = conjugate_algebra(tf.metric.algebra, p)
        form = p.transpose() @ tf.metric.form @ p
        return MetricAlgebra(alg, form)
    if kind == 1:
        # abelian with any Hom-invariant form passes everything
        alpha = Matrix.diagonal([rand_scalar(rng) for _ in range(n)])
        form = _random_hom_invariant_form(rng, alpha)
        if form is None:
            return None
        return MetricAlgebra(Algebra.abelian(n, alpha), form)
    # random symmetric bracket: generically fails both sides of the iff
    alpha = Matrix.diagonal([rand_scalar(rng) for _ in range(n)])
    form = _random_hom_invariant_form(rng, alpha)
    if form is None:
        return None
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            brackets[(i, j)] = [rand_scalar(rng) for _ in range(n)]
    return MetricAlgebra(Algebra.from_brackets(n, brackets, alpha), form)


def test_criterion_iff_randomized():
    rng = random.Random(59)
    agreements = 0
    while agreements < 100:
        candidate = _random_candidate(rng)
        if candidate is None:
            continue
        report = check_metric(candidate)
        crit = metric_criterion(candidate)
        # invariance from its definition, so the iff does not compare gamma with itself
        invariant = not dense_invariance_violations(candidate)
        assert invariant == report.invariance.passed
        # the criterion reads full symmetry from invariance; check it directly
        assert gamma_form(candidate).is_fully_symmetric() == invariant
        axiom_side = invariant and report.hom_jacobi.passed and report.coadjoint.passed
        criterion_side = crit.gamma_symmetric and crit.dr3_gamma_zero
        assert axiom_side == criterion_side
        agreements += 1
