import random
from functools import partial, reduce
from itertools import combinations_with_replacement, product

import pytest

from hjj import QQ, Matrix
from hjj.algebra import Algebra, _structure_tables, check_hom_jacobi, check_multiplicative
from hjj.catalog import instantiate
from hjj.cohomology import (
    Cochain1,
    Cochain2,
    ScalarForm,
    _c2_constraint,
    _d1_matrix,
    _d2_matrix,
    _dc2_matrix,
    _dr2_matrix,
    _pair_twist,
    c2r_space,
    c3r_space,
    cochain1_space,
    cochain2_space,
    compute_H2,
    d1,
    d2,
    dc2,
    dr2,
    dr3,
    pairs,
    scalar3_sym12_to_vector,
)
from hjj.documents import (
    algebra_from_payload,
    algebra_to_payload,
    emit_document,
    make_document,
    parse_document,
    representation_from_payload,
    representation_to_payload,
)
from hjj.errors import InvalidRepresentation, NotACochain
from hjj.linalg import determinant, vec_add, vec_sub
from hjj.metric import MetricAlgebra, check_metric
from hjj.quadratic import build_twofold
from hjj.representations import QuadraticRepresentation, Representation, check_representation

from .gen import (
    conjugate_algebra,
    dense_invariance_violations,
    evaluate,
    in_c2r,
    in_c3r,
    rand_invertible,
    rand_matrix,
    rand_scalar,
    rand_structure,
    random_c2r_form,
    random_c3r_form,
    random_cochain1,
    random_cochain2,
    random_pair,
    sym12_form,
)
from .oracles import BruteAlgebra, brute_h2_dims


def j111_rep(a=2, beta=None):
    alg = instantiate("J^1_{1,1}", {"a": a})
    b = beta if beta is not None else QQ(a) * QQ(a)
    return Representation.zero_action(alg, 1, Matrix.from_rows([[b]]))


# -- cochain spaces ----------------------------------------------------------


def test_cochain2_space_full_when_untwisted():
    alg = Algebra.abelian(2, Matrix.identity(2))
    rep = Representation.zero_action(alg, 1, Matrix.identity(1))
    assert cochain2_space(rep).dim == 3  # n(n+1)/2 * m


def test_cochain2_space_abelian_case_table():
    for (a, b, d), expected in {
        (1, -1, 1): 2,
        (2, -2, 4): 2,
        (2, 3, 4): 1,
        (2, 3, 5): 0,
    }.items():
        alg = Algebra.abelian(2, Matrix.diagonal([QQ(a), QQ(b)]))
        rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(d)]]))
        assert cochain2_space(rep).dim == expected


def test_cochain2_space_dim1():
    alg = Algebra.abelian(1, Matrix.from_rows([[2]]))
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[3]]))
    assert cochain2_space(rep).dim == 0  # 3p = 4p forces p = 0


def test_cochain1_space_eigenvalue_matching():
    assert cochain1_space(j111_rep(2, QQ(4))).dim == 1
    assert cochain1_space(j111_rep(2, QQ(5))).dim == 0
    alg = Algebra.abelian(2, Matrix.identity(2))
    rep = Representation.zero_action(alg, 2, Matrix.identity(2))
    assert cochain1_space(rep).dim == 4  # m*n, untwisted


# -- d1 / d2 -----------------------------------------------------------------


def test_d1_examples():
    rep = j111_rep()
    assert d1(Cochain1.zero(rep)).is_zero()
    f = Cochain1(rep, Matrix.from_rows([[0, QQ(7)]]))
    g = d1(f)
    assert g.value(0, 0) == (QQ(7),)  # f([e1,e1]) = f(e2)
    assert g.value(0, 1) == (QQ(0),) and g.value(1, 1) == (QQ(0),)


def test_d1_rejects_incompatible():
    rep = j111_rep()
    bad = Cochain1(rep, Matrix.from_rows([[QQ(1), QQ(0)]]))  # f(e1) != 0 not allowed
    with pytest.raises(NotACochain):
        d1(bad)


def test_d2_vanishes_on_j111_c2():
    rep = j111_rep()
    f = Cochain2.from_entries(rep, {(0, 0): [QQ(5)]})
    assert d2(f).is_zero()


def test_d2_rejects_incompatible():
    rep = j111_rep()
    bad = Cochain2.from_entries(rep, {(0, 1): [QQ(1)]})
    with pytest.raises(NotACochain):
        d2(bad)


def test_d2_d1_is_zero_randomized():
    rng = random.Random(23)
    count = 0
    while count < 60:
        _, rep = random_pair(rng)
        f = random_cochain1(rng, rep)
        if f.coeffs.is_zero():
            continue
        count += 1
        g = d1(f)
        assert g.is_compatible()  # image of d1 stays inside C2
        assert d2(g).is_zero()


def test_dc2_d1_is_zero_randomized():
    rng = random.Random(29)
    count = 0
    while count < 60:
        _, rep = random_pair(rng)
        f = random_cochain1(rng, rep)
        if f.coeffs.is_zero():
            continue
        count += 1
        assert dc2(d1(f)).is_zero()


def test_dc2_output_symmetry():
    rep = j111_rep()
    f = Cochain2.from_entries(rep, {(0, 0): [QQ(1)]})
    out = dc2(f)
    n = 2
    for i, j, k in product(range(n), repeat=3):
        assert out.value(i, j, k) == out.value(j, i, k)


# -- scalar operators --------------------------------------------------------


def test_dr2_example():
    alg = instantiate("J^1_{1,1}", {"a": 2})
    f = ScalarForm.from_entries(2, 2, {(0, 1): QQ(1), (1, 0): QQ(1)})
    g = dr2(alg, f)
    # f([e1,e1],e1) - 2 f(e1,[e1,e1]) = f(e2,e1) - 2 f(e1,e2) = -1
    assert g.value(0, 0, 0) == QQ(-1)
    assert dr2(alg, ScalarForm.zero(2, 2)).is_zero()


def test_dr3_term_expansion_oracle():
    # independent expansion of the six terms at one tuple, frozen value
    alg = instantiate("J^1_{1,1}", {"a": 2})
    g = ScalarForm.from_entries(2, 3, {(1, 1, 1): QQ(1)})
    out = dr3(alg, g)
    e = [alg.basis_vector(i) for i in range(2)]
    ac = [alg.alpha.column(i) for i in range(2)]
    i, j, k, t = 0, 0, 1, 1
    expected = (
        evaluate(g, alg.bracket_basis(i, j), ac[k], e[t])
        + evaluate(g, alg.bracket_basis(i, k), ac[j], e[t])
        + evaluate(g, alg.bracket_basis(j, k), ac[i], e[t])
        + evaluate(g, e[i], e[j], alg.bracket(ac[k], e[t]))
        + evaluate(g, e[j], e[k], alg.bracket(ac[i], e[t]))
        + evaluate(g, e[i], e[k], alg.bracket(ac[j], e[t]))
    )
    # single matching term: g([e1,e1], alpha(e2), e2) = g(e2, 4 e2, e2) = 4
    assert expected == QQ(4)
    assert out.value(0, 0, 1, 1) == QQ(4)


def _dr3_six_terms(a, g):
    """Reference d_r^3: the six terms through evaluate and
    Algebra.bracket on dense coordinate vectors, at every index 4-tuple."""
    n = a.dim
    e = [a.basis_vector(i) for i in range(n)]
    ac = [a.alpha.column(i) for i in range(n)]
    entries = {}
    for i, j, k, t in product(range(n), repeat=4):
        entries[(i, j, k, t)] = (
            evaluate(g, a.bracket(e[i], e[j]), ac[k], e[t])
            + evaluate(g, a.bracket(e[i], e[k]), ac[j], e[t])
            + evaluate(g, a.bracket(e[j], e[k]), ac[i], e[t])
            + evaluate(g, e[i], e[j], a.bracket(ac[k], e[t]))
            + evaluate(g, e[j], e[k], a.bracket(ac[i], e[t]))
            + evaluate(g, e[i], e[k], a.bracket(ac[j], e[t]))
        )
    return ScalarForm.from_entries(n, 4, entries)


def _twofold7(rng):
    """A 7-dimensional twofold extension J + a + J* with a non-diagonal
    twist: a conjugated 3-dimensional base and a 1-dimensional module."""
    seed = Algebra.from_brackets(
        3,
        {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1)},
        Matrix.from_columns([(0, 1, 0), (0, 0, 0), (0, 0, 0)]),
    )
    base = conjugate_algebra(seed, rand_invertible(rng, 3))
    rep = Representation.zero_action(base, 1, Matrix.identity(1))
    qrep = QuadraticRepresentation(rep, Matrix.identity(1))
    return build_twofold(base, qrep, Cochain2.zero(rep), ScalarForm.zero(3, 3)).metric.algebra


def test_dr3_matches_six_term_expansion():
    rng = random.Random(23)
    algebras = [rand_structure(rng, n) for n in (2, 3, 4) for _ in range(2)]
    algebras.append(_twofold7(rng))
    assert algebras[-1].dim == 7
    for a in algebras:
        n = a.dim
        entries = {
            idx: rand_scalar(rng) for idx in product(range(n), repeat=3) if rng.random() < 0.4
        }
        g = ScalarForm.from_entries(n, 3, entries)
        assert not g.is_symmetric12()
        # d_r^3 is defined on forms symmetric in slots 1-2 only
        with pytest.raises(NotACochain):
            dr3(a, g)


def test_dr3_symmetric_forms_match_six_term_expansion():
    """The sorted-triple route of dr3, taken for forms symmetric in slots 1
    and 2: a form symmetric there only, and a fully symmetric one."""
    rng = random.Random(29)
    algebras = [rand_structure(rng, n) for n in (1, 2, 3, 4) for _ in range(2)]
    algebras.append(_twofold7(rng))
    for a in algebras:
        n = a.dim
        coords = [rand_scalar(rng) if rng.random() < 0.4 else QQ(0) for _ in range(len(pairs(n)) * n)]
        full = {idx: rand_scalar(rng) for idx in combinations_with_replacement(range(n), 3) if rng.random() < 0.4}
        forms = (sym12_form(n, coords), ScalarForm.from_entries(n, 3, full, symmetrize=True))
        assert n == 1 or not forms[0].is_fully_symmetric()
        for g in forms:
            assert g.is_symmetric12()
            assert dr3(a, g) == _dr3_six_terms(a, g)


def _unit(size, idx):
    return tuple(QQ(1) if x == idx else QQ(0) for x in range(size))


def _dense_rho(rep, x):
    """rho extended linearly to the algebra element x, as a dense sum."""
    m = rep.vdim
    return reduce(Matrix.__add__, (r.scale(xi) for r, xi in zip(rep.rho, x)), Matrix.zero(m, m))


def _fixing_e0(rng, k):
    """A random k x k twist whose first column is e_0, so 1 is an eigenvalue."""
    rows = [[QQ(int(i == 0)) if j == 0 else rand_scalar(rng) for j in range(k)] for i in range(k)]
    return Matrix.from_rows(rows)


def _d2_formula(br, rho, fv, x, y, z, ax, ay, az):
    """d2 f(x, y, z) from its defining formula."""
    return reduce(vec_add, (
        fv(ax, br(y, z)), fv(ay, br(x, z)), fv(az, br(x, y)),
        rho(ax).apply(fv(y, z)), rho(ay).apply(fv(x, z)), rho(az).apply(fv(x, y)),
    ))


def test_operator_matrices_match_defining_formulas():
    """Every column of the d1, d2, dc2 and dr2 matrices against the defining
    formula, evaluated with Algebra.bracket and dense loops on unit cochains
    and forms, for random algebras and random (not necessarily valid) rho and
    beta.  The d2 matrix has the rows of the sorted triples i <= j <= k.
    The pair twist and the C2 / C3_r constraints, read through
    twist_arguments, is_compatible and in_c3r, against the dense twists on
    unit 2-cochains and unit sym12 forms, and on one member of C2 and of
    C3_r, also for twists alpha and beta that fix e_0."""
    rng = random.Random(43)
    outcomes = {"C2": set(), "C3_r": set()}
    for n, m in ((1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3)):
        a = rand_structure(rng, n)
        rep = Representation(
            a, m, tuple(rand_matrix(rng, m, m) for _ in range(n)), rand_matrix(rng, m, m)
        )
        br, rho, beta = a.bracket, partial(_dense_rho, rep), rep.beta.apply
        e = [a.basis_vector(i) for i in range(n)]
        ac = [a.alpha.column(i) for i in range(n)]
        triples = [(e[i], e[j], e[k], ac[i], ac[j], ac[k]) for (i, j), k in product(pairs(n), range(n))]
        sorted_triples = [
            (e[i], e[j], e[k], ac[i], ac[j], ac[k]) for i, j, k in combinations_with_replacement(range(n), 3)
        ]

        d1m = _d1_matrix(rep)
        assert d1m.cols == n * m
        for col in range(d1m.cols):
            f = Cochain1.from_vector(rep, _unit(n * m, col))
            expected = ()
            for i, j in pairs(n):
                v = vec_sub(f.value_vec(br(e[i], e[j])), rho(e[i]).apply(f.value(j)))
                expected += vec_sub(v, rho(e[j]).apply(f.value(i)))
            assert d1m.column(col) == expected

        d2m, dc2m = _d2_matrix(rep), _dc2_matrix(rep)
        assert d2m.cols == dc2m.cols == len(pairs(n)) * m
        assert d2m.rows == len(sorted_triples) * m
        for col in range(d2m.cols):
            fv = Cochain2.from_vector(rep, _unit(d2m.cols, col)).value_vec
            d2_expected = sum((_d2_formula(br, rho, fv, *args) for args in sorted_triples), ())
            dc2_expected = ()
            for x, y, z, ax, ay, az in triples:
                dc2_expected += reduce(vec_add, (
                    fv(x, br(ay, z)), fv(y, br(ax, z)), beta(fv(z, br(x, y))),
                    rho(x).apply(fv(ay, z)), rho(y).apply(fv(ax, z)), beta(rho(z).apply(fv(x, y))),
                ))
            assert d2m.column(col) == d2_expected
            assert dc2m.column(col) == dc2_expected

        dr2m = _dr2_matrix(a)
        assert dr2m.cols == n * n
        for col in range(dr2m.cols):
            f = ScalarForm.from_entries(n, 2, {divmod(col, n): QQ(1)})
            expected = tuple(
                evaluate(f, br(x, y), z) - evaluate(f, y, br(x, z)) - evaluate(f, x, br(y, z))
                for x, y, z, _, _, _ in triples
            )
            assert dr2m.column(col) == expected

        # the random twists leave C2 and C3_r zero; twists fixing e_0 give
        # both spaces a nonzero member, so both outcomes of each check occur
        a1 = Algebra(n, a.bracket_tensor, _fixing_e0(rng, n))
        rep1 = Representation(a1, m, rep.rho, _fixing_e0(rng, m))
        assert cochain2_space(rep1).dim and c3r_space(a1).dim
        for r in (rep, rep1):
            acs = [r.algebra.alpha.column(i) for i in range(n)]
            size = len(pairs(n)) * m
            for f in [Cochain2.from_vector(r, _unit(size, col)) for col in range(size)] + [random_cochain2(rng, r)]:
                twisted = f.twist_arguments()
                assert all(twisted.value(i, j) == f.value_vec(acs[i], acs[j]) for i, j in pairs(n))
                compatible = all(r.beta.apply(f.value(i, j)) == f.value_vec(acs[i], acs[j]) for i, j in pairs(n))
                assert f.is_compatible() == compatible
                outcomes["C2"].add(compatible)
            size = len(pairs(n)) * n
            for g in [sym12_form(n, _unit(size, col)) for col in range(size)] + [random_c3r_form(rng, r.algebra)]:
                expected = all(
                    evaluate(g, acs[x], acs[y], e[z]) == evaluate(g, e[x], e[y], acs[z])
                    for x, y, z in product(range(n), repeat=3)
                )
                assert in_c3r(r.algebra, g) == expected
                outcomes["C3_r"].add(expected)
    assert outcomes == {"C2": {True, False}, "C3_r": {True, False}}


def test_public_d2_expands_every_pair_and_slot():
    """The public d2 against the defining formula at every (pair, k),
    including k < j, on unit cochains.  With alpha = I_n and beta = I_m
    every 2-cochain is compatible, whatever the brackets and rho."""
    rng = random.Random(53)
    for n, m in ((1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)):
        a = Algebra(n, rand_structure(rng, n).bracket_tensor, Matrix.identity(n))
        rep = Representation(a, m, tuple(rand_matrix(rng, m, m) for _ in range(n)), Matrix.identity(m))
        br, rho = a.bracket, partial(_dense_rho, rep)
        e = [a.basis_vector(i) for i in range(n)]
        size = len(pairs(n)) * m
        for col in range(size):
            f = Cochain2.from_vector(rep, _unit(size, col))
            expected = ()
            for (i, j), k in product(pairs(n), range(n)):
                expected += _d2_formula(br, rho, f.value_vec, e[i], e[j], e[k], e[i], e[j], e[k])
            assert d2(f).coords == expected


def test_derived_data_is_kept_once_per_object():
    """Structure tables, the pair twist, the representation check, C1, the C2
    constraint and the d1/d2 matrices are computed once per Algebra /
    Representation object.  An equal object parsed again from the same
    documents gets its own equal copy, and equality, hashes and repr read
    the same before and after."""
    a, rep = random_pair(random.Random(59))
    documents = [
        emit_document(make_document("algebra", algebra_to_payload(a))),
        emit_document(make_document("representation", representation_to_payload(rep))),
    ]

    def parse():
        algebra = algebra_from_payload(parse_document(documents[0]).payload)
        return representation_from_payload(parse_document(documents[1]).payload, algebra)

    first, second = parse(), parse()
    before = (first == second, hash(first), hash(second), hash(first.algebra), repr(first))
    derived = (_d1_matrix, _d2_matrix, check_representation, cochain1_space, _c2_constraint)
    for fn in derived:
        assert fn(first) is fn(first)
    for fn in (_structure_tables, _pair_twist):
        assert fn(first.algebra) is fn(first.algebra)
    assert (first == second, hash(first), hash(second), hash(first.algebra), repr(first)) == before
    assert before[0] and before[1] == before[2]
    for fn in derived:
        assert fn(second) == fn(first) and fn(second) is not fn(first)
    for fn in (_structure_tables, _pair_twist):
        assert fn(second.algebra) == fn(first.algebra) and fn(second.algebra) is not fn(first.algebra)
    assert (first == second, hash(first), hash(second), hash(first.algebra), repr(first)) == before


def _flat(mat):
    return tuple(x for row in mat.entries for x in row)


def _failures(residuals):
    """The (where, residual) pairs whose residual is nonzero, in order."""
    return [(where, tuple(r)) for where, r in residuals if any(x != 0 for x in r)]


def test_axiom_checks_match_dense_definitions():
    """The full violation lists (where, residual, order) of check_hom_jacobi,
    check_multiplicative, check_representation and check_metric's invariance
    against their defining formulas, evaluated with Algebra.bracket, dense
    rho sums and bilinear.  Random structures with random rho, beta and
    symmetric nondegenerate forms mostly fail; valid pairs pass."""
    rng = random.Random(47)
    outcomes = {}
    for n, m in product(range(1, 5), range(1, 4)):
        cases = [random_pair(rng)]
        for a in (rand_structure(rng, n), rand_structure(rng, n)):
            action = tuple(rand_matrix(rng, m, m) for _ in range(n))
            cases.append((a, Representation(a, m, action, rand_matrix(rng, m, m))))
        for a, rep in cases:
            k = a.dim
            br, rho, beta = a.bracket, partial(_dense_rho, rep), rep.beta
            e = [a.basis_vector(i) for i in range(k)]
            ac = [a.alpha.column(i) for i in range(k)]
            expected = {
                "hom-jacobi": _failures(
                    ((x, y, z), reduce(vec_add, (
                        br(ac[x], br(e[y], e[z])), br(ac[y], br(e[z], e[x])), br(ac[z], br(e[x], e[y])),
                    )))
                    for x, y, z in combinations_with_replacement(range(k), 3)
                ),
                "multiplicative": _failures(
                    ((x, y), vec_sub(a.alpha.apply(br(e[x], e[y])), br(ac[x], ac[y]))) for x, y in pairs(k)
                ),
                "representation": _failures(
                    [(("rep1", x), _flat(rho(ac[x]) @ beta - beta @ rho(e[x]))) for x in range(k)]
                    + [
                        (("rep2", x, y), _flat(
                            rho(br(e[x], e[y])) @ beta + rho(ac[x]) @ rho(e[y]) + rho(ac[y]) @ rho(e[x])
                        ))
                        for x, y in pairs(k)
                    ]
                ),
            }
            while True:
                form = rand_matrix(rng, k, k)
                form = form + form.transpose()
                if determinant(form) != 0:
                    break
            metric = MetricAlgebra(a, form)
            expected["invariance"] = dense_invariance_violations(metric)
            for report in (
                check_hom_jacobi(a),
                check_multiplicative(a),
                check_representation(rep),
                check_metric(metric).invariance,
            ):
                assert [(v.where, v.residual) for v in report.violations] == expected[report.name]
                outcomes.setdefault(report.name, set()).add(report.passed)
    assert outcomes == {name: {True, False} for name in expected}


def test_operators_vanish_on_abelian():
    alg = Algebra.abelian(2, Matrix.diagonal([2, -2]))
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[4]]))
    any_f = Cochain2.from_entries(rep, {(0, 0): [QQ(1)], (1, 1): [QQ(1)]})
    assert dc2(any_f).is_zero()
    g = ScalarForm.from_entries(2, 3, {(0, 1, 1): QQ(3)}, symmetrize=True)
    assert dr3(alg, g).is_zero()
    f2 = ScalarForm.from_entries(2, 2, {(0, 1): QQ(2)})
    assert dr2(alg, f2).is_zero()


def test_dr3_dr2_is_zero_randomized():
    rng = random.Random(31)
    count = 0
    while count < 60:
        alg, _ = random_pair(rng)
        f = random_c2r_form(rng, alg)
        if f.is_zero():
            continue
        count += 1
        assert dr3(alg, dr2(alg, f)).is_zero()


def test_c2r_c3r_membership():
    alg = instantiate("J^1_{1,1}", {"a": 2})
    f = ScalarForm.from_entries(2, 2, {(0, 0): QQ(1)})
    # f(alpha e1, e1) = 2 vs f(e1, alpha e1) = 2: compatible
    assert in_c2r(alg, f)
    g = ScalarForm.from_entries(2, 2, {(0, 1): QQ(1)})
    # f(alpha e1, e2) = 2 vs f(e1, alpha e2) = 4: incompatible
    assert not in_c2r(alg, g)
    good = ScalarForm.from_entries(2, 3, {(0, 0, 1): QQ(1)}, symmetrize=False)
    # weights match: g(alpha e1, alpha e1, e2) = 4 = g(e1, e1, alpha e2)
    assert in_c3r(alg, good)
    bad3 = ScalarForm.from_entries(2, 3, {(1, 1, 1): QQ(1)})
    assert not in_c3r(alg, bad3)  # 16 vs 4
    assert c3r_space(alg).dim >= 1



def test_c2r_c3r_membership_matches_spaces():
    """in_c2r and in_c3r against membership in c2r_space and c3r_space, on
    members, perturbed members and 3-forms not symmetric in slots 1 and 2."""
    rng = random.Random(37)
    outcomes = set()
    for _ in range(20):
        alg, _ = random_pair(rng)
        n = alg.dim
        f = random_c2r_form(rng, alg)
        g = random_c3r_form(rng, alg)
        unit2 = ScalarForm.from_entries(n, 2, {(rng.randrange(n), rng.randrange(n)): QQ(1)}, symmetrize=False)
        t = rng.randrange(n)
        unit3 = ScalarForm.from_entries(n, 3, {(0, n - 1, t): QQ(1)}, symmetrize=False)
        swapped = ScalarForm.from_entries(n, 3, {(n - 1, 0, t): QQ(1)}, symmetrize=False)
        for form in (f, f + unit2):
            expected = c2r_space(alg).contains(form.coords)
            assert in_c2r(alg, form) == expected
            outcomes.add(("C2_r", expected))
        for form in (g, g + unit3, g + unit3 + swapped):
            expected = form.is_symmetric12() and c3r_space(alg).contains(scalar3_sym12_to_vector(form))
            assert in_c3r(alg, form) == expected
            outcomes.add(("C3_r", expected))
    assert outcomes == {("C2_r", True), ("C2_r", False), ("C3_r", True), ("C3_r", False)}


# -- H2 ------------------------------------------------------------------------


def test_compute_h2_lemma_values():
    for a in (QQ(2), QQ(3), QQ(1, 2)):
        result = compute_H2(j111_rep(a))
        assert result.dims == (1, 1, 1, 0)
    alg = Algebra.abelian(1, Matrix.from_rows([[2]]))
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[4]]))
    result = compute_H2(rep)
    assert result.dims == (1, 1, 0, 1)
    alg2 = Algebra.abelian(2, Matrix.diagonal([1, -1]))
    rep2 = Representation.zero_action(alg2, 1, Matrix.identity(1))
    assert compute_H2(rep2).dims == (2, 2, 0, 2)


def test_compute_h2_dim_identity_randomized():
    rng = random.Random(37)
    for _ in range(20):
        _, rep = random_pair(rng)
        result = compute_H2(rep)
        assert result.h2_dim == result.z2.dim - result.b2.dim
        assert result.z2.contains_subspace(result.b2)
        assert len(result.representatives) == result.h2_dim


def test_compute_h2_rejects_invalid_rep():
    alg = instantiate("J^1_{1,1}", {"a": 2})
    bad = Representation(
        alg, 1, (Matrix.from_rows([[1]]), Matrix.zero(1, 1)), Matrix.from_rows([[4]])
    )
    with pytest.raises(InvalidRepresentation):
        compute_H2(bad)


# -- oracle agreement ----------------------------------------------------------


def _brute_from(alg: Algebra, beta):
    brackets = {}
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            brackets[(i, j)] = [x for x in alg.bracket_basis(i, j)]
    alpha = [[alg.alpha.entry(i, j) for j in range(alg.dim)] for i in range(alg.dim)]
    return BruteAlgebra(alg.dim, brackets, alpha, beta)


def test_oracle_agrees_on_grid():
    betas = [QQ(-2), QQ(-1), QQ(1), QQ(2), QQ(4), QQ(9), QQ(1, 4), QQ(3)]
    algebras = [
        Algebra.abelian(1, Matrix.from_rows([[2]])),
        Algebra.abelian(2, Matrix.diagonal([2, -2])),
        Algebra.abelian(2, Matrix.from_columns([(2, 0), (1, 2)])),
        instantiate("J^1_{1,1}", {"a": 2}),
        instantiate("J^1_{1,1}", {"a": 3}),
        instantiate("J^2_{1,1}", {}),
    ]
    checked = 0
    for alg in algebras:
        for b in betas:
            rep = Representation.zero_action(alg, 1, Matrix.from_rows([[b]]))
            main = compute_H2(rep)
            brute = brute_h2_dims(_brute_from(alg, b))
            assert main.dims == brute, (alg, b, main.dims, brute)
            checked += 1
    assert checked == 48
