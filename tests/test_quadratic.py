import random
from itertools import product

import pytest

from hjj import QQ, Matrix
from hjj.algebra import Algebra, SubspaceOfAlgebra, is_ideal, is_isomorphism
from hjj.catalog import instantiate
from hjj.cohomology import (
    Cochain1,
    Cochain2,
    ScalarForm,
    c2r_space,
    cochain1_space,
    cochain2_space,
    d1,
    d2,
    dc2,
    dr3,
    pairs,
    scalar2_from_vector,
)
from hjj.errors import PreconditionFailure
from hjj.linalg import bilinear, vec_add, vec_scale, zero_vector
from hjj.metric import check_metric, gamma_form, is_isotropic, metric_criterion
from hjj.quadratic import (
    _gamma_matrix,
    QuadraticCochain1,
    QuadraticCochain2,
    build_twofold,
    compute_H2Q,
    d1Q,
    d2Q,
    twofold_equivalence_map,
    wedge,
    wedge12,
)
from hjj.representations import QuadraticRepresentation, Representation

from .gen import rand_matrix, rand_scalar, rand_structure, random_quadratic


def dim1_setup(alpha=1, beta=1, b_a=1):
    alg = Algebra.abelian(1, Matrix.from_rows([[QQ(alpha)]]))
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(beta)]]))
    return alg, QuadraticRepresentation(rep, Matrix.from_rows([[QQ(b_a)]]))


def j111_module(a=2, beta=None, b_a=1):
    alg = instantiate("J^1_{1,1}", {"a": a})
    b = beta if beta is not None else QQ(a) * QQ(a)
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[b]]))
    return alg, QuadraticRepresentation(rep, Matrix.from_rows([[QQ(b_a)]]))


# -- wedge products -----------------------------------------------------------


def test_wedge_examples():
    alg, qrep = dim1_setup()
    rep = qrep.rep
    zero = Cochain2.zero(rep)
    f = Cochain2.from_entries(rep, {(0, 0): [QQ(3)]})
    assert wedge(zero, f, qrep.form).is_zero()
    w = wedge(f, f, qrep.form)
    assert w.value(0, 0, 0, 0) == QQ(54)  # 6 * t^2 with t = 3
    # with g = f o alpha over alpha = (a): 6 a^2 t^2
    alg2, qrep2 = dim1_setup(alpha=2)
    f2 = Cochain2.from_entries(qrep2.rep, {(0, 0): [QQ(1)]})
    w2 = wedge(f2, f2.twist_arguments(), qrep2.form)
    assert w2.value(0, 0, 0, 0) == QQ(24)  # 6 * a^2 = 24 at a = 2


def test_wedge12_shuffles():
    alg, qrep = j111_module()
    rep = qrep.rep
    tau = Cochain1(rep, Matrix.from_rows([[0, 1]]))
    h = d1(tau)  # h(e1,e1) = tau(e2) = 1
    w = wedge12(tau, h, qrep.form)
    # three shuffles; nonzero exactly when one slot is e2 and the rest e1
    assert w.value(1, 0, 0) == QQ(1)
    assert w.value(0, 1, 0) == QQ(1)
    assert w.value(0, 0, 1) == QQ(1)
    assert w.value(0, 0, 0) == QQ(0)
    assert w.is_fully_symmetric()


def test_wedge_matches_shuffle_definition():
    """wedge and wedge12 entry by entry against the six (2,2)- and three
    (1,2)-shuffle pairings, evaluated with bilinear on value(), for random
    cochains and a symmetric form with nonzero off-diagonal entries."""
    rng = random.Random(53)
    for n, m in product(range(1, 5), range(1, 4)):
        rep = Representation.zero_action(rand_structure(rng, n), m, Matrix.identity(m))
        f, g = (
            Cochain2.from_vector(rep, [rand_scalar(rng) for _ in range(len(pairs(n)) * m)]) for _ in range(2)
        )
        tau = Cochain1.from_vector(rep, [rand_scalar(rng) for _ in range(n * m)])
        while True:
            b = rand_matrix(rng, m, m)
            form = b + b.transpose()
            if m == 1 or any(form.entry(p, q) != 0 for p in range(m) for q in range(p)):
                break
        w, w12 = wedge(f, g, form), wedge12(tau, f, form)
        for x, y, z, t in product(range(n), repeat=4):
            expected = QQ(0)
            shuffles = ((x, y, z, t), (x, z, y, t), (x, t, y, z), (y, z, x, t), (y, t, x, z), (z, t, x, y))
            for p, q, r, s in shuffles:
                expected += bilinear(form, f.value(p, q), g.value(r, s))
            assert w.value(x, y, z, t) == expected
        for x, y, z in product(range(n), repeat=3):
            expected = QQ(0)
            for p, q, r in ((x, y, z), (y, x, z), (z, x, y)):
                expected += bilinear(form, tau.value(p), f.value(q, r))
            assert w12.value(x, y, z) == expected


# -- d2Q / d1Q ------------------------------------------------------------------


def test_d2q_zero_cochain():
    alg, qrep = dim1_setup()
    first, second = d2Q(QuadraticCochain2(Cochain2.zero(qrep.rep), ScalarForm.zero(1, 3)), qrep)
    assert first.is_zero() and second.is_zero()


def test_d2q_wedge_obstruction_value():
    # abelian dim 1, alpha = beta = B_a = 1, theta(e,e) = 1, gamma = 0:
    # second component = 0 + 1/2 * 6 = 3 on (e,e,e,e) -- not a cocycle
    alg, qrep = dim1_setup()
    theta = Cochain2.from_entries(qrep.rep, {(0, 0): [QQ(1)]})
    first, second = d2Q(QuadraticCochain2(theta, ScalarForm.zero(1, 3)), qrep)
    assert first.is_zero()
    assert second.value(0, 0, 0, 0) == QQ(3)


def test_d1q_examples():
    alg, qrep = j111_module(beta=QQ(4))
    rep = qrep.rep
    zero = d1Q(QuadraticCochain1(Cochain1.zero(rep), ScalarForm.zero(2, 2)), qrep)
    assert zero.theta.is_zero() and zero.gamma.is_zero()
    tau = Cochain1(rep, Matrix.from_rows([[0, 1]]))
    out = d1Q(QuadraticCochain1(tau, ScalarForm.zero(2, 2)), qrep)
    assert out.theta.value(0, 0) == (QQ(1),)
    # second component = -1/2 B(tau ^ d1 tau): value -1/2 on permutations of (e2,e1,e1)
    assert out.gamma.value(1, 0, 0) == QQ(-1, 2)
    assert out.gamma.value(0, 0, 1) == QQ(-1, 2)


def test_d2q_d1q_is_zero_randomized():
    rng = random.Random(61)
    count = 0
    while count < 60:
        alg, qrep = random_quadratic(rng)
        rep = qrep.rep
        c1 = cochain1_space(rep)
        c2r = c2r_space(alg)
        tau_vec = zero_vector(c1.ambient_dim)
        for b in c1.basis:
            tau_vec = vec_add(tau_vec, vec_scale(rand_scalar(rng), b))
        sigma_vec = zero_vector(c2r.ambient_dim)
        for b in c2r.basis:
            sigma_vec = vec_add(sigma_vec, vec_scale(rand_scalar(rng), b))
        tau = Cochain1.from_vector(rep, tau_vec)
        sigma = scalar2_from_vector(alg.dim, sigma_vec)
        if tau.coeffs.is_zero() and all(x == 0 for x in sigma_vec):
            continue
        count += 1
        image = d1Q(QuadraticCochain1(tau, sigma), qrep)
        first, second = d2Q(image, qrep)
        assert first.is_zero() and second.is_zero()


# -- shuffle-pairing propositions ------------------------------------------------


def test_twist_pairing_identity_randomized():
    # B_a(f(alpha x, alpha y), g(z, t)) = B_a(f(x, y), g(alpha z, alpha t))
    rng = random.Random(67)
    for _ in range(25):
        alg, qrep = random_quadratic(rng)
        rep = qrep.rep
        c2 = cochain2_space(rep)
        if c2.dim == 0:
            continue

        def rand_c2():
            v = zero_vector(c2.ambient_dim)
            for b in c2.basis:
                v = vec_add(v, vec_scale(rand_scalar(rng), b))
            return Cochain2.from_vector(rep, v)

        f, g = rand_c2(), rand_c2()
        fa, ga = f.twist_arguments(), g.twist_arguments()
        n = alg.dim
        for idx in product(range(n), repeat=4):
            lhs = qrep.pair(fa.value(idx[0], idx[1]), g.value(idx[2], idx[3]))
            rhs = qrep.pair(f.value(idx[0], idx[1]), ga.value(idx[2], idx[3]))
            assert lhs == rhs


def test_wedge_differential_identity_randomized():
    # d_r^3 B(f ^ g)(x,y,z,alpha a) expands through d2 f, d_c^2 f and
    # (f o alpha) ^ d1 g
    rng = random.Random(71)
    checked = 0
    while checked < 20:
        alg, qrep = random_quadratic(rng)
        rep = qrep.rep
        c2 = cochain2_space(rep)
        c1 = cochain1_space(rep)
        if c2.dim == 0 or c1.dim == 0:
            continue
        checked += 1
        fv = zero_vector(c2.ambient_dim)
        for b in c2.basis:
            fv = vec_add(fv, vec_scale(rand_scalar(rng), b))
        gv = zero_vector(c1.ambient_dim)
        for b in c1.basis:
            gv = vec_add(gv, vec_scale(rand_scalar(rng), b))
        f = Cochain2.from_vector(rep, fv)
        g = Cochain1.from_vector(rep, gv)
        n = alg.dim
        # B(f ^ g): (2,1)-shuffle pairing
        entries = {}
        for idx in product(range(n), repeat=3):
            total = QQ(0)
            for sh in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                total += qrep.pair(f.value(idx[sh[0]], idx[sh[1]]), g.value(idx[sh[2]]))
            entries[idx] = total
        bfg = ScalarForm.from_entries(n, 3, entries)
        lhs4 = dr3(alg, bfg)
        d2f, dc2f, d1g = d2(f), dc2(f), d1(g)
        w = wedge(f.twist_arguments(), d1g, qrep.form)
        for i, j, k, a_idx in product(range(n), repeat=4):
            lhs = QQ(0)
            for t in range(n):
                c = alg.alpha.entry(t, a_idx)
                if c != 0:
                    lhs += c * lhs4.value(i, j, k, t)
            galpha = g.value_vec(alg.alpha.column(a_idx))
            rhs = qrep.pair(d2f.value(i, j, k), galpha)
            for (p, q, r_) in ((i, j, k), (i, k, j), (j, k, i)):
                val = zero_vector(rep.vdim)
                for t in range(n):
                    c = alg.alpha.entry(t, a_idx)
                    if c != 0:
                        val = vec_add(val, vec_scale(c, dc2f.value(p, q, t)))
                rhs += qrep.pair(val, g.value(r_))
            rhs += w.value(i, j, k, a_idx)
            assert lhs == rhs


# -- H2Q ---------------------------------------------------------------------


def _gamma_condition_sweep(a):
    """Reference columns of the gamma condition: d_r^3 on each sym12 unit
    form, then gamma4(i, j, k, alpha(e_l)) over 4-tuples in product order."""
    n = a.dim
    cols = []
    for (p, q), s in product(pairs(n), range(n)):
        unit = ScalarForm.from_entries(n, 3, {(p, q, s): QQ(1), (q, p, s): QQ(1)})
        g4 = dr3(a, unit)
        cols.append(
            tuple(
                sum((a.alpha.entry(t, l) * g4.value(i, j, k, t) for t in range(n)), QQ(0))
                for i, j, k, l in product(range(n), repeat=4)
            )
        )
    return cols


def test_gamma_matrix_matches_unit_form_sweep():
    rng = random.Random(17)
    algebras = [rand_structure(rng, n) for n in (1, 2, 3, 3)]
    algebras += [random_quadratic(rng)[0] for _ in range(3)]
    for a in algebras:
        matrix = _gamma_matrix(a)
        cols = _gamma_condition_sweep(a)
        assert (matrix.rows, matrix.cols) == (a.dim**4, len(cols))
        for c, col in enumerate(cols):
            assert matrix.column(c) == col


def test_build_twofold_checks_metric_once(monkeypatch):
    import hjj.cohomology
    import hjj.metric
    import hjj.quadratic

    counts = {"check_metric": 0, "dr3": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    check = counting("check_metric", hjj.metric.check_metric)
    d = counting("dr3", hjj.cohomology.dr3)
    for module in (hjj.metric, hjj.quadratic):
        monkeypatch.setattr(module, "check_metric", check)
    for module in (hjj.cohomology, hjj.metric, hjj.quadratic):
        monkeypatch.setattr(module, "dr3", d, raising=False)
    alg, qrep = j111_module()
    tau = Cochain1(qrep.rep, Matrix.from_rows([[0, 1]]))
    shifted = d1Q(QuadraticCochain1(tau, ScalarForm.zero(2, 2)), qrep)
    # the benchmark's pair (theta = 0, gamma = 0), then a nonzero cocycle
    zero = (Cochain2.zero(qrep.rep), ScalarForm.zero(2, 3))
    for theta, gamma in (zero, (shifted.theta, shifted.gamma)):
        counts.update(check_metric=0, dr3=0)
        build_twofold(alg, qrep, theta, gamma)
        assert counts["check_metric"] == 1
        assert counts["dr3"] <= 1


def test_h2q_theta_pinned_abelian():
    alg, qrep = dim1_setup()
    result = compute_H2Q(alg, qrep)
    assert result.kind == "theta-pinned"
    assert result.theta_dims == (1, 1, 0)
    assert result.gamma_dims == (1, 1, 0)
    assert result.h2q_dim == 1
    zero_fiber = [f for f in result.fibers if f.theta.is_zero()]
    assert zero_fiber and zero_fiber[0].solvable
    nonzero = [f for f in result.fibers if not f.theta.is_zero()]
    assert nonzero and not nonzero[0].solvable


def test_h2q_fibered_twisted_module():
    # J^1_{1,1} with beta = a^2: the wedge obstruction is nonzero on the
    # one-dimensional Z2(theta) but every fiber is solvable, so the result
    # is the stratified (fibered) description
    alg, qrep = j111_module()
    result = compute_H2Q(alg, qrep)
    assert result.kind == "fibered"
    assert result.theta_dims == (1, 1, 1)
    amb, ker, im = result.gamma_dims
    assert ker >= im  # dr2 image inside the gamma-cocycle kernel
    assert all(f.solvable and f.fiber_dim == ker for f in result.fibers)
    assert result.h2q_dim is None


def test_h2q_linear_when_no_theta_obstruction():
    # theta = 0 sector only: abelian base where C2 is empty, everything is
    # the gamma story and the answer is a single linear quotient
    alg = Algebra.abelian(1, Matrix.from_rows([[QQ(2)]]))
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(3)]]))
    qrep = QuadraticRepresentation(rep, Matrix.identity(1))
    result = compute_H2Q(alg, qrep)
    assert result.kind == "linear"
    c2, z2, b2 = result.theta_dims
    assert (c2, z2, b2) == (0, 0, 0)
    amb, ker, im = result.gamma_dims
    assert result.h2q_dim == (z2 - b2) + (ker - im)


def test_h2q_cobords_are_cocycles():
    rng = random.Random(73)
    for _ in range(10):
        alg, qrep = random_quadratic(rng)
        rep = qrep.rep
        c1 = cochain1_space(rep)
        if c1.dim == 0:
            continue
        v = zero_vector(c1.ambient_dim)
        for b in c1.basis:
            v = vec_add(v, vec_scale(rand_scalar(rng), b))
        tau = Cochain1.from_vector(rep, v)
        image = d1Q(QuadraticCochain1(tau, ScalarForm.zero(alg.dim, 2)), qrep)
        first, second = d2Q(image, qrep)
        assert first.is_zero() and second.is_zero()


# -- twofold extensions -----------------------------------------------------------


def test_build_twofold_zero_module_cases():
    # (a) abelian dim-1 base, zero-dimensional module: 2-dim hyperbolic abelian
    alg = Algebra.abelian(1, Matrix.identity(1))
    empty = Matrix.zero(0, 0)
    rep = Representation(alg, 0, (empty,), empty)
    qrep = QuadraticRepresentation(rep, empty)
    tf = build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(1, 3))
    assert tf.metric.algebra.dim == 2
    assert tf.metric.algebra.is_abelian()
    assert tf.metric.form == Matrix.from_rows([[0, 1], [1, 0]])


def test_build_twofold_j111():
    alg = instantiate("J^1_{1,1}", {"a": 2})
    empty = Matrix.zero(0, 0)
    rep = Representation(alg, 0, (empty, empty), empty)
    qrep = QuadraticRepresentation(rep, empty)
    tf = build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(2, 3))
    a4 = tf.metric.algebra
    assert a4.dim == 4
    assert a4.bracket_basis(0, 0) == (QQ(0), QQ(1), QQ(0), QQ(0))  # [e1,e1] = e2
    assert a4.bracket_basis(3, 0) == (QQ(0), QQ(0), QQ(1), QQ(0))  # [e2*,e1] = e1*
    assert check_metric(tf.metric).passed
    assert metric_criterion(tf.metric).passed
    gamma = gamma_form(tf.metric)
    assert dr3(a4, gamma).is_zero()
    dual = SubspaceOfAlgebra(a4, tf.dual_block())
    assert is_ideal(a4, dual) and is_isotropic(tf.metric, dual)
    perp_dim = 4 - dual.space.dim
    assert perp_dim == tf.base_dim + tf.module_dim


def test_build_twofold_one_dimensional_module():
    alg = Algebra.abelian(1, Matrix.identity(1))
    rep = Representation.zero_action(alg, 1, Matrix.identity(1))
    qrep = QuadraticRepresentation(rep, Matrix.identity(1))
    tf = build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(1, 3))
    assert tf.metric.algebra.dim == 3
    assert tf.metric.algebra.is_abelian()
    assert check_metric(tf.metric).passed


def test_build_twofold_nonzero_action():
    # untwisted base with a nonzero self-adjoint action: the module brackets
    # [v, w] = B_a(rho(.) v, w) land in the dual block
    alg = Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2))
    rho1 = Matrix.from_rows([[0, 1], [0, 0]])
    rep = Representation(alg, 2, (rho1, Matrix.zero(2, 2)), Matrix.identity(2))
    qrep = QuadraticRepresentation(rep, Matrix.from_rows([[0, 1], [1, 0]]))
    tf = build_twofold(alg, qrep, Cochain2.zero(rep), ScalarForm.zero(2, 3))
    assert tf.metric.algebra.dim == 6
    assert check_metric(tf.metric).passed
    assert metric_criterion(tf.metric).passed
    # [e1, f1] = rho(e1) f1 = 0, [e1, f2] = rho(e1) f2 = f1
    assert tf.metric.algebra.bracket_basis(0, 3) == (QQ(0),) * 2 + (QQ(1), QQ(0)) + (QQ(0),) * 2


def test_build_twofold_with_nonzero_theta_and_gamma():
    # theta != 0 quadratic cocycle over J^1_{1,1} via a cobord shift
    alg, qrep = j111_module(beta=QQ(4))
    rep = qrep.rep
    tau = Cochain1(rep, Matrix.from_rows([[0, 1]]))
    shifted = d1Q(QuadraticCochain1(tau, ScalarForm.zero(2, 2)), qrep)
    tf = build_twofold(alg, qrep, shifted.theta, shifted.gamma)
    assert check_metric(tf.metric).passed
    assert gamma_form(tf.metric).is_fully_symmetric()


def test_build_twofold_precondition_failures():
    alg, qrep = dim1_setup()
    theta = Cochain2.from_entries(qrep.rep, {(0, 0): [QQ(1)]})
    with pytest.raises(PreconditionFailure) as err:
        build_twofold(alg, qrep, theta, ScalarForm.zero(1, 3))
    assert err.value.identity == "quadratic-cocycle-gamma"
    asym = ScalarForm.from_entries(2, 3, {(0, 0, 1): QQ(1), (0, 1, 0): QQ(1)})
    alg2, qrep2 = j111_module()
    with pytest.raises(PreconditionFailure) as err2:
        build_twofold(alg2, qrep2, Cochain2.zero(qrep2.rep), asym)
    assert err2.value.identity == "gamma-symmetry"


def test_twofold_equivalence_map_identity():
    alg, qrep = j111_module(beta=QQ(4))
    rep = qrep.rep
    eq = twofold_equivalence_map(alg, qrep, Cochain1.zero(rep), ScalarForm.zero(2, 2))
    assert eq.map.matrix == Matrix.identity(5)
    assert eq.verified


def test_twofold_equivalence_map_vacuous_module():
    # zero-dimensional module: tau is vacuous, Phi is the identity on the 4-dim algebra
    alg = instantiate("J^1_{1,1}", {"a": 2})
    empty = Matrix.zero(0, 0)
    rep = Representation(alg, 0, (empty, empty), empty)
    qrep = QuadraticRepresentation(rep, empty)
    eq = twofold_equivalence_map(
        alg, qrep, Cochain1(rep, Matrix.zero(0, 2)), ScalarForm.zero(2, 2)
    )
    assert eq.map.matrix == Matrix.identity(4)
    assert eq.verified


def test_twofold_equivalence_map_example():
    alg, qrep = j111_module(beta=QQ(4))
    rep = qrep.rep
    tau = Cochain1(rep, Matrix.from_rows([[0, 1]]))
    eq = twofold_equivalence_map(alg, qrep, tau, ScalarForm.zero(2, 2))
    assert eq.homomorphism.passed
    assert eq.isometry
    assert eq.verified
    assert is_isomorphism(eq.map)
    # source uses theta' = d1 tau, a genuinely different bracket table
    assert not eq.source.metric.algebra == eq.target.metric.algebra


def _random_antisymmetric_c2r(rng, alg):
    """Random sigma in C2_r with sigma(x, y) = -sigma(y, x): the class for
    which the equivalence map is an isometry."""
    c2r = c2r_space(alg)
    sv = zero_vector(c2r.ambient_dim)
    for b in c2r.basis:
        sv = vec_add(sv, vec_scale(rand_scalar(rng), b))
    raw = scalar2_from_vector(alg.dim, sv)
    n = alg.dim
    half = QQ(1, 2)
    return ScalarForm.from_entries(
        n,
        2,
        {
            (i, j): half * (raw.value(i, j) - raw.value(j, i))
            for i in range(n)
            for j in range(n)
        },
    )


def test_twofold_equivalence_randomized():
    rng = random.Random(79)
    checked = 0
    while checked < 8:
        alg, qrep = random_quadratic(rng)
        rep = qrep.rep
        c1 = cochain1_space(rep)
        if c1.dim == 0:
            continue
        v = zero_vector(c1.ambient_dim)
        for b in c1.basis:
            v = vec_add(v, vec_scale(rand_scalar(rng), b))
        tau = Cochain1.from_vector(rep, v)
        sigma = _random_antisymmetric_c2r(rng, alg)
        eq = twofold_equivalence_map(alg, qrep, tau, sigma)
        assert eq.verified and is_isomorphism(eq.map)
        checked += 1


def test_twofold_equivalence_symmetric_sigma_breaks_isometry():
    # executable record of the source's gap: a symmetric sigma with
    # d_r^2 sigma != 0 still yields a twist-commuting bracket isomorphism,
    # but not an isometry (B(Phi x, Phi y) picks up -2 sigma(x, y))
    alg = Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2))
    rep = Representation.zero_action(alg, 1, Matrix.identity(1))
    qrep = QuadraticRepresentation(rep, Matrix.identity(1))
    sigma = ScalarForm.from_entries(2, 2, {(0, 1): QQ(1), (1, 0): QQ(1)})
    from hjj.cohomology import dr2 as _dr2

    assert not _dr2(alg, sigma).is_zero()
    eq = twofold_equivalence_map(alg, qrep, Cochain1.zero(rep), sigma)
    assert eq.homomorphism.passed
    assert not eq.isometry
    assert not eq.verified
