import random

import pytest

from hjj import QQ, Matrix
from hjj.algebra import Algebra
from hjj.catalog import instantiate
from hjj.cohomology import Cochain2
from hjj.errors import DegenerateForm, UnsupportedSystem
from hjj.linalg import vec_add, vec_is_zero
from hjj.representations import (
    QuadraticRepresentation,
    Representation,
    a2zero_candidates,
    check_quadratic_representation,
    check_representation,
    coadjoint_condition,
    coadjoint_conditions_extended,
    nilpotent2x2,
    solve_representations_dim1,
)

from .gen import rand_structure, random_pair


def test_zero_action_always_valid():
    a = instantiate("J^2_{2,1}", {"a": 3})
    rep = Representation.zero_action(a, 2, Matrix.diagonal([2, 5]))
    assert check_representation(rep).passed


def test_scalar_action_constraints_on_j111():
    # m = 1 over J^1_{1,1}: rep2 forces x^2-type relations, so rho = 0 over QQ
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation(
        a, 1, (Matrix.from_rows([[1]]), Matrix.zero(1, 1)), Matrix.from_rows([[4]])
    )
    assert not check_representation(rep).passed


def test_scalar_action_y_square_forced():
    # rep2 on (e2, e2) reads 0 = -2 a^2 y^2, so any nonzero y fails
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation(
        a, 1, (Matrix.zero(1, 1), Matrix.from_rows([[1]])), Matrix.from_rows([[4]])
    )
    report = check_representation(rep)
    assert not report.passed
    assert any(v.where[:1] == ("rep2",) and v.where[1:] == (1, 1) for v in report.violations)


def test_nonzero_matrix_action_valid():
    a = instantiate("J^1_{1,1}", {"a": 2})
    rho1 = Matrix.from_rows([[0, 1], [0, 0]])
    rep = Representation(a, 2, (rho1, Matrix.zero(2, 2)), Matrix.diagonal([2, 1]))
    assert check_representation(rep).passed


def test_a_squared_nonzero_fails():
    # abelian base, alpha = id: the law forces rho(x)^2 = 0
    a = Algebra.abelian(2, Matrix.identity(2))
    bad = Matrix.from_rows([[1, 0], [0, 1]])
    rep = Representation(a, 2, (bad, Matrix.zero(2, 2)), Matrix.identity(2))
    assert not check_representation(rep).passed


def test_solve_dim1_examples():
    for a in (QQ(2), QQ(3), QQ(1, 2)):
        alg = instantiate("J^1_{1,1}", {"a": a})
        result = solve_representations_dim1(alg, a * a)
        assert len(result.representations) == 1
        rep = result.representations[0]
        assert all(m.is_zero() for m in rep.rho)
        assert check_representation(rep).passed
    # abelian dim 1: 0 = -2*2*x^2 forces rho = 0
    ab1 = Algebra.abelian(1, Matrix.from_rows([[2]]))
    result = solve_representations_dim1(ab1, 3)
    assert len(result.representations) == 1
    assert result.representations[0].rho[0].is_zero()
    # abelian dim 2, alpha = diag(1,-1), b = 1: x^2 = y^2 = xy = 0
    ab2 = Algebra.abelian(2, Matrix.diagonal([1, -1]))
    result = solve_representations_dim1(ab2, 1)
    assert len(result.representations) == 1
    assert all(m.is_zero() for m in result.representations[0].rho)


def test_solve_dim1_multiple_roots():
    # dim 1 with [e,e] = e and alpha = 0 is a Hom-Jacobi-Jordan algebra;
    # the scalar law becomes b x = 0, picking up a branch structure
    alg = Algebra.from_brackets(1, {(0, 0): (1,)}, Matrix.zero(1, 1))
    result = solve_representations_dim1(alg, 5)
    assert [[m.entries[0][0] for m in r.rho] for r in result.representations] == [[QQ(0)]]


def test_solve_dim1_infinite_raises():
    alg = Algebra.abelian(1, Matrix.zero(1, 1))
    with pytest.raises(UnsupportedSystem):
        solve_representations_dim1(alg, 0)


def test_solutions_feed_back_through_checker():
    rng = random.Random(5)
    for _ in range(10):
        a, _ = random_pair(rng)
        beta = QQ(rng.randint(1, 3))
        result = solve_representations_dim1(a, beta)
        for rep in result.representations:
            assert check_representation(rep).passed


def test_coadjoint_condition():
    assert coadjoint_condition(Algebra.abelian(2, Matrix.diagonal([2, 3]))).passed
    assert coadjoint_condition(instantiate("J^1_{1,1}", {"a": 2})).passed
    bad = Algebra.from_brackets(2, {(0, 0): (1, 0)}, Matrix.identity(2))
    report = coadjoint_condition(bad)
    assert not report.passed
    assert report.violations[0].where == (0, 0, 0)
    # alpha([[e1,e1],e1]) + 2[e1,[e1,e1]] = e1 + 2 e1 = 3 e1
    assert report.violations[0].residual == (QQ(3), QQ(0))


def _coadjoint_dense_loop(a):
    """Reference: alpha([[x,y],t]) + [y,[alpha x,t]] + [x,[alpha y,t]] on
    dense coordinate vectors, as (where, residual) for every nonzero one."""
    n = a.dim
    e = [a.basis_vector(i) for i in range(n)]
    ac = [a.alpha.column(i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i, n):
            for t in range(n):
                r = a.twist(a.bracket(a.bracket(e[i], e[j]), e[t]))
                r = vec_add(r, a.bracket(e[j], a.bracket(ac[i], e[t])))
                r = vec_add(r, a.bracket(e[i], a.bracket(ac[j], e[t])))
                if not vec_is_zero(r):
                    out.append(((i, j, t), r))
    return out


def test_coadjoint_condition_matches_dense_loop():
    rng = random.Random(41)
    algebras = [rand_structure(rng, n) for n in (1, 2, 3, 4) for _ in range(3)]
    algebras += [random_pair(rng)[0] for _ in range(4)]
    failing = 0
    for a in algebras:
        got = [(v.where, v.residual) for v in coadjoint_condition(a).violations]
        assert got == _coadjoint_dense_loop(a)
        failing += bool(got)
    assert 0 < failing < len(algebras)


def test_coadjoint_extended():
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(a, 1, Matrix.from_rows([[4]]))
    theta = Cochain2.from_entries(rep, {(0, 0): [1]})
    assert coadjoint_conditions_extended(a, rep, theta).passed
    bad = Algebra.from_brackets(2, {(0, 0): (1, 0)}, Matrix.identity(2))
    rep_bad = Representation.zero_action(bad, 1, Matrix.identity(1))
    report = coadjoint_conditions_extended(bad, rep_bad, Cochain2.zero(rep_bad))
    assert not report.passed
    assert report.violations[0].where[0] == "bracket"


def test_quadratic_representation_checks():
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(a, 1, Matrix.identity(1))
    q = QuadraticRepresentation(rep, Matrix.identity(1))
    rho_ok, beta_ok = check_quadratic_representation(q)
    assert rho_ok.passed and beta_ok.passed
    # m = 2, non-self-adjoint action
    jj = Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2))
    n = Matrix.from_rows([[0, 1], [0, 0]])
    rep2 = Representation(jj, 2, (n, Matrix.zero(2, 2)), Matrix.identity(2))
    q_bad = QuadraticRepresentation(rep2, Matrix.identity(2))
    rho_ok, _ = check_quadratic_representation(q_bad)
    assert not rho_ok.passed
    q_good = QuadraticRepresentation(rep2, Matrix.from_rows([[0, 1], [1, 0]]))
    rho_ok, beta_ok = check_quadratic_representation(q_good)
    assert rho_ok.passed and beta_ok.passed
    with pytest.raises(DegenerateForm):
        QuadraticRepresentation(rep, Matrix.zero(1, 1))


def test_nilpotent_candidates():
    m = a2zero_candidates(1, 2)
    assert (m @ m).is_zero()
    assert nilpotent2x2(0, 5, 0) @ nilpotent2x2(0, 5, 0) == Matrix.zero(2, 2)
    with pytest.raises(ValueError):
        nilpotent2x2(1, 1, 1)
    with pytest.raises(ValueError):
        a2zero_candidates(1, 0)
