import random
from itertools import product

import pytest

import hjj.algebra
from hjj import QQ, Matrix
from hjj.algebra import (
    Algebra,
    Invariants,
    LinearMapBetweenAlgebras,
    SubspaceOfAlgebra,
    center,
    check_hom_jacobi,
    check_homomorphism,
    check_multiplicative,
    derived_series,
    is_abelian_ideal,
    is_ideal,
    is_isomorphism,
    is_regular,
    is_solvable,
    is_subalgebra,
    isomorphism_invariants,
)
from hjj.catalog import DEFAULT_GRID, catalog_list, instantiate
from hjj.linalg import Subspace, _powers, image_basis, kernel_basis, rank

from .gen import conjugate_algebra, rand_invertible, rand_structure, random_algebra
from .test_linalg import reference_charpoly, reference_minpoly, reference_rational_roots


def j111(a=2):
    return instantiate("J^1_{1,1}", {"a": a})


def test_symmetry_enforced_on_construction():
    with pytest.raises(ValueError):
        Algebra(
            2,
            (((QQ(0), QQ(0)), (QQ(1), QQ(0))), ((QQ(0), QQ(0)), (QQ(0), QQ(0)))),
            Matrix.identity(2),
        )


def test_hom_jacobi_examples():
    assert check_hom_jacobi(Algebra.abelian(2, Matrix.diagonal([3, 5]))).passed
    assert check_hom_jacobi(j111()).passed
    bad = Algebra.from_brackets(2, {(0, 0): (1, 0)}, Matrix.identity(2))
    report = check_hom_jacobi(bad)
    assert not report.passed
    assert report.violations[0].where == (0, 0, 0)
    assert report.violations[0].residual == (QQ(3), QQ(0))  # 3 e1


def test_multiplicative_examples():
    assert check_multiplicative(j111()).passed
    assert check_multiplicative(instantiate("J^2_{1,1}", {})).passed
    report = check_multiplicative(instantiate("J^{10}_{1,2}", {"a": 2}))
    assert not report.passed
    # alpha([e1,e3]) - [alpha e1, alpha e3] = (a^2 - a^3) e2 = -4 e2 at a=2
    assert report.violations[0].where == (0, 2)
    assert report.violations[0].residual == (QQ(0), QQ(-4), QQ(0))


def test_is_regular():
    assert is_regular(j111(2))
    assert not is_regular(instantiate("J^1_{1,1}", {"a": 0}))
    assert not is_regular(Algebra.abelian(2, Matrix.zero(2, 2)))


def test_derived_series_and_solvability():
    assert [s.dim for s in derived_series(Algebra.abelian(2, Matrix.identity(2)))] == [2, 0]
    assert [s.dim for s in derived_series(j111())] == [2, 1, 0]
    a = instantiate("J^2_{2,1}", {"a": 2})
    assert [s.dim for s in derived_series(a)] == [3, 1, 0]
    assert is_solvable(Algebra.abelian(2, Matrix.identity(2))) == (True, 1)
    assert is_solvable(j111()) == (True, 2)
    bad = Algebra.from_brackets(1, {(0, 0): (1,)}, Matrix.identity(1))
    solvable, k = is_solvable(bad)
    assert not solvable and k is None


def test_center():
    assert center(Algebra.abelian(3, Matrix.identity(3))).dim == 3
    z = center(j111())
    assert z.dim == 1 and z.contains((QQ(0), QQ(1)))
    z3 = center(instantiate("J^2_{2,1}", {"a": 2}))
    assert z3.dim == 1 and z3.contains((QQ(0), QQ(0), QQ(1)))


def test_ideals():
    a = j111()
    span_e2 = SubspaceOfAlgebra(a, Subspace.from_spanning(2, [(0, 1)]))
    span_e1 = SubspaceOfAlgebra(a, Subspace.from_spanning(2, [(1, 0)]))
    whole = SubspaceOfAlgebra(a, Subspace.full(2))
    assert is_ideal(a, span_e2) and is_abelian_ideal(a, span_e2)
    assert not is_ideal(a, span_e1)
    assert is_ideal(a, whole)
    assert is_subalgebra(a, span_e2)


def test_derived_terms_are_ideals_and_last_nonzero_is_abelian():
    rng = random.Random(11)
    for _ in range(25):
        a = random_algebra(rng)
        series = derived_series(a)
        for term in series:
            assert is_ideal(a, SubspaceOfAlgebra(a, term))
        solvable, _ = is_solvable(a)
        if solvable:
            nonzero = [s for s in series if s.dim > 0]
            if nonzero:
                assert is_abelian_ideal(a, SubspaceOfAlgebra(a, nonzero[-1]))


def test_center_is_abelian_ideal_when_alpha_stable():
    rng = random.Random(13)
    for _ in range(25):
        a = random_algebra(rng)
        z = center(a)
        if z.dim == 0:
            continue
        alpha_stable = all(z.contains(a.twist(v)) for v in z.basis)
        if alpha_stable:
            assert is_abelian_ideal(a, SubspaceOfAlgebra(a, z))


def test_homomorphism_checks():
    a = j111()
    ident = LinearMapBetweenAlgebras(a, a, Matrix.identity(2))
    assert check_homomorphism(ident).passed and is_isomorphism(ident)
    swap = LinearMapBetweenAlgebras(a, a, Matrix.from_rows([[0, 1], [1, 0]]))
    assert not check_homomorphism(swap).passed
    # the normalisation map of the two-dimensional classification:
    # M with [u1,u1] = x v1, alpha_M = diag(a, a^2) on (u1, v1);
    # e1 = u1/x, e2 = v1/x carries J^1_{1,1} onto M
    x, a_val = QQ(3), QQ(2)
    m = Algebra.from_brackets(2, {(0, 0): (0, x)}, Matrix.diagonal([a_val, a_val**2]))
    phi = LinearMapBetweenAlgebras(j111(2), m, Matrix.diagonal([1 / x, 1 / x]))
    assert check_homomorphism(phi).passed and is_isomorphism(phi)


def test_invariants_distinguish_and_match():
    a = j111(2)
    inv = isomorphism_invariants(a)
    assert inv.center_dim == 1
    assert inv.derived_dims == (2, 1, 0)
    assert inv.alpha_charpoly == (QQ(1), QQ(-6), QQ(8))
    abelian = isomorphism_invariants(Algebra.abelian(2, Matrix.diagonal([2, 4])))
    assert abelian.derived_dims == (2, 0)
    assert abelian != inv
    # J^2_{1,1} vs J^1_{1,1} at a=1: same charpoly, separated by minpoly
    j2 = isomorphism_invariants(instantiate("J^2_{1,1}", {}))
    j1_at_1 = isomorphism_invariants(j111(1))
    assert j2.alpha_charpoly == j1_at_1.alpha_charpoly
    assert j2.alpha_minpoly != j1_at_1.alpha_minpoly


def _perfect_algebras():
    """Brackets with [J, J] = J: one idempotent with twist 0 (a
    multiplicative Hom-Jacobi-Jordan algebra), and two orthogonal
    idempotents with a twist of distinct eigenvalues."""
    one = Algebra.from_brackets(1, {(0, 0): (1,)}, Matrix.zero(1, 1))
    two = Algebra.from_brackets(2, {(0, 0): (1, 0), (1, 1): (0, 1)}, Matrix.diagonal([1, 2]))
    assert check_hom_jacobi(one).passed and check_multiplicative(one).passed
    return one, two


def test_invariants_of_perfect_algebras_read_d1_as_j():
    for a in _perfect_algebras():
        n = a.dim
        inv = isomorphism_invariants(a)
        assert inv.derived_dims == (n,) and inv.bracket_rank == n
        for lam, dim_e, _, _, e_d1, im_d1 in inv.eigen_profile:
            assert (e_d1, im_d1) == (dim_e, n - dim_e)


def test_invariants_preserved_under_conjugation():
    rng = random.Random(17)
    for _ in range(15):
        a = random_algebra(rng)
        p = rand_invertible(rng, a.dim)
        b = conjugate_algebra(a, p)
        phi = LinearMapBetweenAlgebras(b, a, p)
        assert check_homomorphism(phi).passed and is_isomorphism(phi)
        assert isomorphism_invariants(a) == isomorphism_invariants(b)


def _intersection_dim(u, w):
    return u.dim + w.dim - Subspace.from_spanning(u.ambient_dim, list(u.basis) + list(w.basis)).dim


# isomorphism_invariants as the package computed it before it read the
# eigen-profile off one RREF per eigenvalue: the reference it is held to.
def reference_invariants(a):
    series = derived_series(a)
    z = center(a)
    d1 = series[1] if len(series) > 1 else series[0]
    n = a.dim
    pair_cols = [a.bracket_basis(i, j) for i in range(n) for j in range(i, n)]
    bracket_map = Matrix.from_columns(pair_cols) if pair_cols else Matrix.zero(n, 0)
    cp = reference_charpoly(a.alpha)
    profile = []
    for lam in reference_rational_roots(cp):
        shifted = a.alpha - Matrix.identity(n).scale(lam)
        eig = kernel_basis(shifted)
        eb = eig.basis
        bracket_span = Subspace.from_spanning(n, [a.bracket(u, v) for bi, u in enumerate(eb) for v in eb[bi:]])
        shifted_image = image_basis(shifted)
        profile.append((lam, eig.dim, bracket_span.dim, _intersection_dim(eig, z),
                        _intersection_dim(eig, d1), _intersection_dim(shifted_image, d1)))
    return Invariants(n, tuple(s.dim for s in series), z.dim, cp, reference_minpoly(a.alpha),
                      rank(bracket_map), tuple(profile))


def test_invariants_match_reference_on_catalog_points():
    checked = 0
    for entry in catalog_list():
        for combo in product(DEFAULT_GRID, repeat=len(entry.params)):
            values = dict(zip(entry.params, combo))
            if entry.admissible(values):
                a = entry.instantiate(values)
                assert isomorphism_invariants(a) == reference_invariants(a), (entry.name, values)
                checked += 1
    assert checked > 100


def test_invariants_match_reference_on_random_structures():
    """Random brackets, with the random twist and with a triangular twist
    with repeated rational eigenvalues, and conjugated seed algebras."""
    rng = random.Random(29)
    profiles = 0
    for n in (1, 2, 3, 4) * 10:
        a = rand_structure(rng, n)
        triangular = Matrix.from_rows([[rng.choice((-1, 1, 2)) if i == j else rng.choice((0, 0, 1)) if i < j else 0
                                        for j in range(n)] for i in range(n)])
        for b in (a, Algebra(n, a.bracket_tensor, triangular), random_algebra(rng)):
            inv = isomorphism_invariants(b)
            assert inv == reference_invariants(b)
            profiles += bool(inv.eigen_profile)
    assert profiles > 60


def test_invariants_build_the_powers_of_alpha_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return _powers(m)

    monkeypatch.setattr(hjj.algebra, "_powers", counting)
    rng = random.Random(37)
    for n in (1, 2, 3, 4):
        a = rand_structure(rng, n)
        calls.clear()
        assert isomorphism_invariants(a) == reference_invariants(a)
        assert calls == [a.alpha]
