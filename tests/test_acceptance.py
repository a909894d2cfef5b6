"""Acceptance suite: one test per acceptance criterion, exact arithmetic,
zero tolerance everywhere.  Each test prints a single [PASS]/[FAIL] line
(run with -s to see them on success)."""

import random
import time
from itertools import product

from hjj import QQ, Matrix
from hjj.algebra import (
    Algebra,
    SubspaceOfAlgebra,
    check_hom_jacobi,
    check_multiplicative,
    is_ideal,
    isomorphism_invariants,
)
from hjj.catalog import catalog_list, classify, instantiate, verify_entry
from hjj.cohomology import (
    Cochain1,
    Cochain2,
    ScalarForm,
    c2r_space,
    cochain1_space,
    cochain2_space,
    compute_H2,
    d1,
    d2,
    dc2,
    dr2,
    dr3,
    scalar2_from_vector,
)
from hjj.extensions import ExtensionSpec, extensions_equivalent
from hjj.linalg import vec_add, vec_scale, zero_vector
from hjj.metric import (
    MetricAlgebra,
    center_derived_duality,
    check_metric,
    gamma_form,
    is_isotropic,
    metric_criterion,
)
from hjj.quadratic import QuadraticCochain1, build_twofold, d1Q, d2Q
from hjj.representations import (
    QuadraticRepresentation,
    Representation,
    solve_representations_dim1,
)

from .gen import (
    rand_scalar,
    random_c2r_form,
    random_cochain1,
    random_pair,
    random_quadratic,
)
from .oracles import BruteAlgebra, brute_h2_dims

PASS = "[PASS]"


def report(name: str, ok: bool, detail: str = ""):
    tag = PASS if ok else "[FAIL]"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} {name}{suffix}")
    assert ok, f"{name}{suffix}"


# -- criterion 1: operator identities ------------------------------------------


def _nonzero_combo(rng, space):
    v = zero_vector(space.ambient_dim)
    for b in space.basis:
        v = vec_add(v, vec_scale(rand_scalar(rng), b))
    return v


def test_criterion_1a_d2_after_d1():
    rng = random.Random(101)
    count = 0
    while count < 200:
        _, rep = random_pair(rng)
        f = random_cochain1(rng, rep)
        if f.coeffs.is_zero():
            continue
        count += 1
        assert d2(d1(f)).is_zero()
    report("criterion 1a: d2 o d1 = 0 on 200 randomized valid instances", True)


def test_criterion_1b_dr3_after_dr2():
    rng = random.Random(103)
    count = 0
    while count < 200:
        alg, _ = random_pair(rng)
        f = random_c2r_form(rng, alg)
        if f.is_zero():
            continue
        count += 1
        assert dr3(alg, dr2(alg, f)).is_zero()
    report("criterion 1b: dr3 o dr2 = 0 on 200 randomized instances", True)


def test_criterion_1c_dc2_after_dc1():
    rng = random.Random(107)
    count = 0
    while count < 200:
        _, rep = random_pair(rng)
        f = random_cochain1(rng, rep)
        if f.coeffs.is_zero():
            continue
        count += 1
        assert dc2(d1(f)).is_zero()
    report("criterion 1c: dc2 o dc1 = 0 on 200 randomized instances", True)


def test_criterion_1d_d2q_after_d1q():
    rng = random.Random(109)
    count = 0
    while count < 200:
        alg, qrep = random_quadratic(rng)
        rep = qrep.rep
        tau = Cochain1.from_vector(rep, _nonzero_combo(rng, cochain1_space(rep)))
        sigma = scalar2_from_vector(alg.dim, _nonzero_combo(rng, c2r_space(alg)))
        if tau.coeffs.is_zero() and sigma.is_zero():
            continue
        count += 1
        first, second = d2Q(d1Q(QuadraticCochain1(tau, sigma), qrep), qrep)
        assert first.is_zero() and second.is_zero()
    report("criterion 1d: d2Q o d1Q = (0,0) on 200 randomized instances", True)


# -- criterion 2: the diagonal-twist extension lemma ----------------------------


def test_criterion_2_lemma_diagonal():
    for a in (QQ(2), QQ(3), QQ(1, 2)):
        alg = instantiate("J^1_{1,1}", {"a": a})
        solved = solve_representations_dim1(alg, a * a)
        assert len(solved.representations) == 1
        assert all(m.is_zero() for m in solved.representations[0].rho)
        result = compute_H2(solved.representations[0])
        assert result.dims[1:] == (1, 1, 0)  # dim Z2 = dim B2 = 1, H2 = 0
    report("criterion 2: rho = 0 forced and H2 = 0 for the twisted base at a in {2, 3, 1/2}", True)


# -- criterion 3: abelian compatible-cochain case table --------------------------


def test_criterion_3_abelian_case_table():
    cases = []
    for a in (QQ(2), QQ(3), QQ(1, 2), QQ(-2)):
        cases.append((a, -a, a * a, 2))  # d = a^2, b = -a
        for b in (QQ(3), QQ(5)):
            if b * b != a * a:
                cases.append((a, b, a * a, 1))  # d = a^2, b^2 != a^2
    cases.append((QQ(2), QQ(3), QQ(5), 0))
    cases.append((QQ(2), QQ(-1), QQ(7), 0))
    cases.append((QQ(1), QQ(-1), QQ(1), 2))
    for a, b, d, expected in cases:
        alg = Algebra.abelian(2, Matrix.diagonal([a, b]))
        rep = Representation.zero_action(alg, 1, Matrix.from_rows([[d]]))
        assert cochain2_space(rep).dim == expected, (a, b, d)
    report(f"criterion 3: dim C2 case table on {len(cases)} sampled points", True)


# -- criterion 4: catalog verification -------------------------------------------


def test_criterion_4_catalog():
    passing = {
        "J^1_{1,1}": {"a": 2},
        "J^2_{1,1}": {},
        "J^1_{2,1}": {"a": 2, "b": 3},
        "J^2_{2,1}": {"a": 2},
        "J^3_{2,1}": {"a": 2},
        "J^4_{2,1}": {"a": 2, "b": 3},
        "J^5_{2,1}": {"b": 3},
        "J^6_{2,1}": {"a": 2, "c": 1},
        "J^7_{1,2}": {"a": 2, "c": 1},
    }
    for name, params in passing.items():
        rep = verify_entry(name, params)
        assert rep.passed, name
    # J^8: exact residual -x(a^2 - a) e1 at (e1, e1)
    r8 = verify_entry("J^8_{1,2}", {"a": 2, "x": 1, "y": 1})
    a, x = QQ(2), QQ(1)
    viol = {v.where: v.residual for v in r8.multiplicative.violations}
    assert viol[(0, 0)] == (-x * (a * a - a), QQ(0), QQ(0))
    # J^10, J^11: exact residual -(a^3 - a^2) e2 at (e1, e3)
    for name in ("J^{10}_{1,2}", "J^{11}_{1,2}"):
        params = {"a": 2} if name == "J^{10}_{1,2}" else {"a": 2, "c": 1}
        r = verify_entry(name, params)
        viol = {v.where: v.residual for v in r.multiplicative.violations}
        assert viol[(0, 2)] == (QQ(0), -(a**3 - a**2), QQ(0))
        assert not r.passed  # discrepancy is reported, not silent
        assert any(c.kind == "requires" and not ok for c, ok in r.constraint_status)
    report(
        "criterion 4: catalog entries verified; J^8/J^10/J^11 produce the exact "
        "residual polynomials x(a^2-a) and a^3-a^2",
        True,
    )


# -- criterion 5: extension correspondence ----------------------------------------


def test_criterion_5_extension_correspondence():
    alg = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(4)]]))
    zero = Cochain2.zero(rep)
    for value in (QQ(1), QQ(-3), QQ(1, 2), QQ(5)):
        theta = Cochain2.from_entries(rep, {(0, 0): [value]})
        result = extensions_equivalent(
            ExtensionSpec(alg, rep, theta), ExtensionSpec(alg, rep, zero)
        )
        assert result.equivalent
        assert d1(result.witness) == theta  # witness reconstructs theta exactly
    ab = Algebra.abelian(1, Matrix.from_rows([[QQ(2)]]))
    ab_rep = Representation.zero_action(ab, 1, Matrix.from_rows([[QQ(4)]]))
    t1 = Cochain2.from_entries(ab_rep, {(0, 0): [QQ(1)]})
    assert compute_H2(ab_rep).h2_dim == 1
    assert not extensions_equivalent(
        ExtensionSpec(ab, ab_rep, t1), ExtensionSpec(ab, ab_rep, Cochain2.zero(ab_rep))
    ).equivalent
    report(
        "criterion 5: every cocycle over the twisted base is a coboundary with exact witness; "
        "the H2 = 1 base gives inequivalent extensions",
        True,
    )


# -- criterion 6: twofold extension verification ----------------------------------


def test_criterion_6_twofold():
    start = time.perf_counter()
    alg = instantiate("J^1_{1,1}", {"a": 2})
    empty = Matrix.zero(0, 0)
    rep = Representation(alg, 0, (empty, empty), empty)
    qrep = QuadraticRepresentation(rep, empty)
    tf = build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(2, 3))
    metric = tf.metric
    assert metric.algebra.dim == 4
    assert check_metric(metric).passed
    crit = metric_criterion(metric)
    assert crit.passed
    assert dr3(metric.algebra, gamma_form(metric)).is_zero()  # all 4^4 tuples
    dual = SubspaceOfAlgebra(metric.algebra, tf.dual_block())
    assert is_ideal(metric.algebra, dual) and is_isotropic(metric, dual)
    duality = center_derived_duality(metric)
    assert duality.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 6: twofold of the twisted base verifies end to end", True, f"{elapsed:.3f}s")


# -- criterion 7: the gamma criterion iff ------------------------------------------


def _hom_invariant_form(rng, alpha):
    from hjj.linalg import determinant, kernel_basis

    n = alpha.rows
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    rows = []
    for p, q in product(range(n), repeat=2):
        row = []
        for (i, j) in coords:
            unit = Matrix.from_rows(
                [[QQ(1) if (r, c) in ((i, j), (j, i)) else QQ(0) for c in range(n)] for r in range(n)]
            )
            defect = unit @ alpha - alpha.transpose() @ unit
            row.append(defect.entry(p, q))
        rows.append(row)
    space = kernel_basis(Matrix.from_rows(rows))
    for _ in range(25):
        v = zero_vector(space.ambient_dim)
        for b in space.basis:
            v = vec_add(v, vec_scale(rand_scalar(rng), b))
        form = Matrix.from_rows(
            [[v[coords.index((min(i, j), max(i, j)))] for j in range(n)] for i in range(n)]
        )
        if determinant(form) != 0:
            return form
    return None


def test_criterion_7_gamma_criterion_iff():
    from .gen import conjugate_algebra, dense_invariance_violations, rand_invertible

    rng = random.Random(113)
    agreements = 0
    positives = 0
    while agreements < 100:
        kind = rng.randrange(3)
        if kind == 0:
            alg0 = instantiate("J^1_{1,1}", {"a": rng.choice((2, 3))})
            empty = Matrix.zero(0, 0)
            rep = Representation(alg0, 0, (empty, empty), empty)
            tf = build_twofold(
                alg0, QuadraticRepresentation(rep, empty), Cochain2.zero(rep), ScalarForm.zero(2, 3)
            )
            p = rand_invertible(rng, 4)
            candidate = MetricAlgebra(
                conjugate_algebra(tf.metric.algebra, p), p.transpose() @ tf.metric.form @ p
            )
        else:
            n = rng.choice((2, 3))
            alpha = Matrix.diagonal([rand_scalar(rng) for _ in range(n)])
            form = _hom_invariant_form(rng, alpha)
            if form is None:
                continue
            if kind == 1:
                candidate = MetricAlgebra(Algebra.abelian(n, alpha), form)
            else:
                brackets = {
                    (i, j): [rand_scalar(rng) for _ in range(n)]
                    for i in range(n)
                    for j in range(i, n)
                }
                candidate = MetricAlgebra(Algebra.from_brackets(n, brackets, alpha), form)
        rep = check_metric(candidate)
        crit = metric_criterion(candidate)
        # invariance from its definition, so the iff does not compare gamma with itself
        invariant = not dense_invariance_violations(candidate)
        assert invariant == rep.invariance.passed
        axiom_side = invariant and rep.hom_jacobi.passed and rep.coadjoint.passed
        criterion_side = crit.gamma_symmetric and crit.dr3_gamma_zero
        assert axiom_side == criterion_side
        if axiom_side:
            positives += 1
        agreements += 1
    assert positives >= 20  # the sample genuinely exercises both outcomes
    report(
        "criterion 7: axioms and gamma-criterion agree on 100 randomized Hom-invariant candidates",
        True,
        f"{positives} positives",
    )


# -- criterion 8: oracle equivalence -----------------------------------------------


def test_criterion_8_oracle_equivalence():
    betas = [QQ(-2), QQ(-1), QQ(1), QQ(2), QQ(4), QQ(9), QQ(1, 4), QQ(3)]
    algebras = [
        Algebra.abelian(1, Matrix.from_rows([[QQ(2)]])),
        Algebra.abelian(1, Matrix.from_rows([[QQ(-1)]])),
        Algebra.abelian(2, Matrix.diagonal([2, -2])),
        Algebra.abelian(2, Matrix.diagonal([3, 9])),
        Algebra.abelian(2, Matrix.from_columns([(2, 0), (1, 2)])),
        instantiate("J^1_{1,1}", {"a": 2}),
        instantiate("J^1_{1,1}", {"a": 3}),
        instantiate("J^1_{1,1}", {"a": QQ(1, 2)}),
        instantiate("J^2_{1,1}", {}),
    ]
    instances = 0
    for alg in algebras:
        brackets = {
            (i, j): list(alg.bracket_basis(i, j)) for i in range(alg.dim) for j in range(i, alg.dim)
        }
        alpha = [[alg.alpha.entry(i, j) for j in range(alg.dim)] for i in range(alg.dim)]
        for b in betas:
            rep = Representation.zero_action(alg, 1, Matrix.from_rows([[b]]))
            main = compute_H2(rep).dims
            brute = brute_h2_dims(BruteAlgebra(alg.dim, brackets, alpha, b))
            assert main == brute, (alpha, b, main, brute)
            instances += 1
    report("criterion 8: brute-force and vectorized pipelines agree", True, f"{instances} grid points")


# -- criterion 9: classification desk checks ----------------------------------------


def test_criterion_9_classification():
    out2 = classify(2)
    families2 = {name for out in out2 for name in out.matched}
    assert families2 == {"J^1_{1,1}", "J^2_{1,1}"}
    assert all(check_hom_jacobi(o.algebra).passed and check_multiplicative(o.algebra).passed for o in out2)
    jordan2 = [o for o in out2 if o.provenance.get("branch") == "jordan-block"]
    assert jordan2 and jordan2[0].matched == ("J^2_{1,1}",)

    out3 = classify(3)
    assert all(check_hom_jacobi(o.algebra).passed and check_multiplicative(o.algebra).passed for o in out3)
    base_j1 = [o for o in out3 if o.provenance.get("branch") == "base J^1_{1,1}"]
    assert any("J^1_{2,1}" in o.matched for o in base_j1)
    jordan3 = [o for o in out3 if o.provenance.get("branch") == "jordan-block-3"]
    assert jordan3
    for o in jordan3:
        alg = o.algebra
        # eigenvalue 1 Jordan block, brackets into span{v}
        assert alg.alpha.column(0) == (QQ(1), QQ(0), QQ(0))
        assert alg.alpha.entry(0, 1) == QQ(1) and alg.alpha.entry(1, 2) == QQ(1)
        for i in range(3):
            for j in range(3):
                assert alg.bracket_basis(i, j)[1:] == (QQ(0), QQ(0))
    report(
        "criterion 9: classify(2) = two catalog families; classify(3) reproduces the "
        "direct-sum family and the Jordan-block normal form",
        True,
    )


# -- pairwise separation by invariants ------------------------------------------------


def test_invariant_separation_report():
    grid = (QQ(-2), QQ(-1), QQ(1), QQ(2), QQ(3), QQ(1, 2))
    samples = {}
    for entry in catalog_list():
        points = []
        for combo in product(grid, repeat=len(entry.params)):
            values = dict(zip(entry.params, combo))
            if entry.admissible(values):
                points.append(values)
        if not entry.params and entry.admissible({}):
            points.append({})
        invs = set()
        for values in points[:36]:
            invs.add(isomorphism_invariants(entry.instantiate(values)))
        samples[entry.name] = invs
    names = sorted(samples)
    unseparated = []
    separated = 0
    for i, e1 in enumerate(names):
        for e2 in names[i + 1 :]:
            if samples[e1] & samples[e2]:
                unseparated.append((e1, e2))
            else:
                separated += 1
    for pair in unseparated:
        print(f"  not separated by invariants: {pair[0]} vs {pair[1]}")
    # genuinely distinct families must be separated
    must_separate = [
        ("J^1_{1,1}", "J^2_{1,1}"),
        ("J^2_{2,1}", "J^3_{2,1}"),
        ("J^2_{2,1}", "J^5_{2,1}"),
        ("J^5_{2,1}", "J^{16}_{2,1}"),
    ]
    for pair in must_separate:
        assert pair not in unseparated and (pair[1], pair[0]) not in unseparated, pair
    # the parameter-coincident overlap J^1_{2,1} / J^7_{1,2} is expected to appear
    assert ("J^1_{2,1}", "J^7_{1,2}") in unseparated
    report(
        "separation: pairwise invariant report generated",
        True,
        f"{separated} separated, {len(unseparated)} listed as not separated",
    )
