import random
from itertools import product

import pytest

from hjj import QQ, Matrix
from hjj.algebra import (
    Algebra,
    SubspaceOfAlgebra,
    check_hom_jacobi,
    check_homomorphism,
    check_multiplicative,
    is_abelian_ideal,
    is_isomorphism,
)
from hjj.catalog import instantiate
from hjj.cohomology import Cochain1, Cochain2, compute_H2, d1
from hjj.errors import InvalidCocycle, NotACochain
from hjj.extensions import (
    ExtensionSpec,
    build_extension,
    equivalence_map_from_cochain,
    extensions_equivalent,
)
from hjj.linalg import Subspace
from hjj.representations import Representation

from .gen import rand_scalar, random_cochain1, random_pair


def abelian1_spec(theta_value=1, a=2, b=4):
    alg = Algebra.abelian(1, Matrix.from_rows([[QQ(a)]]))
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(b)]]))
    theta = Cochain2.from_entries(rep, {(0, 0): [QQ(theta_value)]})
    return ExtensionSpec(alg, rep, theta)


def j111_spec(theta_value=0, a=2, b=4):
    alg = instantiate("J^1_{1,1}", {"a": a})
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(b)]]))
    theta = Cochain2.from_entries(rep, {(0, 0): [QQ(theta_value)]})
    return ExtensionSpec(alg, rep, theta)


def test_build_extension_recovers_j111():
    built = build_extension(abelian1_spec())
    # on (u, v): [u, u] = v, alpha = diag(2, 4) -- J^1_{1,1} at a = 2
    assert built.algebra.bracket_basis(0, 0) == (QQ(0), QQ(1))
    assert built.algebra.alpha == Matrix.diagonal([2, 4])
    assert check_hom_jacobi(built.algebra).passed
    assert check_multiplicative(built.algebra).passed
    assert is_abelian_ideal(built.algebra, SubspaceOfAlgebra(built.algebra, built.fiber_block()))


def test_build_extension_direct_sum():
    spec = j111_spec(0)
    built = build_extension(spec)
    # theta = 0, rho = 0: three-dimensional direct sum (the J^1_{2,1} family)
    assert built.algebra.dim == 3
    assert built.algebra.bracket_basis(0, 0) == (QQ(0), QQ(1), QQ(0))
    for i in range(3):
        assert built.algebra.bracket_basis(i, 2) == (QQ(0),) * 3
    inv = built.project_to_base()
    assert inv == spec.base  # quotient round-trip


def test_exactness_maps():
    spec = j111_spec(1)
    built = build_extension(spec)
    pi = built.projection_map()
    assert check_homomorphism(pi).passed  # pi is an algebra homomorphism
    inc = built.inclusion_matrix()
    # alpha_M o i = i o beta on the module block
    assert built.algebra.alpha @ inc == inc @ spec.rep.beta
    # pi o i = 0 (exactness at the module)
    assert (pi.matrix @ inc).is_zero()


def test_build_extension_rejects_non_cocycle():
    # dim 2 base with a cochain that fails the compatibility law
    alg = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(alg, 1, Matrix.from_rows([[QQ(4)]]))
    bad = Cochain2.from_entries(rep, {(0, 1): [QQ(1)]})
    with pytest.raises(NotACochain):
        build_extension(ExtensionSpec(alg, rep, bad))


def test_build_extension_rejects_invalid_cocycle():
    # untwisted base where compatibility holds but d2(theta) != 0
    alg = Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2))
    rep = Representation.zero_action(alg, 1, Matrix.identity(1))
    theta = Cochain2.from_entries(rep, {(0, 1): [QQ(1)]})
    with pytest.raises(InvalidCocycle) as err:
        build_extension(ExtensionSpec(alg, rep, theta))
    # the first failing triple in i <= j <= k order: 3 f(e1, [e1, e1]) = 3
    assert err.value.triple == (0, 0, 0)
    assert err.value.residual == (QQ(3),)


def test_equivalence_map_examples():
    spec = j111_spec(0)
    h0 = Cochain1.zero(spec.rep)
    phi = equivalence_map_from_cochain(spec, h0)
    assert phi.matrix == Matrix.identity(3)
    h = Cochain1(spec.rep, Matrix.from_rows([[QQ(0), QQ(1)]]))
    phi = equivalence_map_from_cochain(spec, h)
    assert check_homomorphism(phi).passed and is_isomorphism(phi)
    # e2 column carries the -h entry into the module block
    assert phi.matrix.column(1) == (QQ(0), QQ(1), QQ(-1))


def test_equivalence_map_randomized():
    rng = random.Random(41)
    for _ in range(15):
        base, rep = random_pair(rng)
        theta = Cochain2.zero(rep)
        h = random_cochain1(rng, rep)
        phi = equivalence_map_from_cochain(ExtensionSpec(base, rep, theta), h)
        assert check_homomorphism(phi).passed and is_isomorphism(phi)


def test_extensions_equivalent_examples():
    spec = j111_spec(1)
    same = extensions_equivalent(spec, spec)
    assert same.equivalent and same.witness.coeffs.is_zero()
    zero = j111_spec(0)
    result = extensions_equivalent(spec, zero)
    assert result.equivalent
    assert d1(result.witness) == spec.cocycle - zero.cocycle
    # abelian base with H2 of dimension one: inequivalent
    a_spec = abelian1_spec(1)
    z_spec = ExtensionSpec(a_spec.base, a_spec.rep, Cochain2.zero(a_spec.rep))
    assert not extensions_equivalent(a_spec, z_spec).equivalent


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(43)
    for _ in range(8):
        base, rep = random_pair(rng)
        h2 = compute_H2(rep)
        thetas = [Cochain2.zero(rep)]
        for r in h2.representatives:
            thetas.append(r)
            thetas.append(r.scale(QQ(2)))
        for t in thetas:
            r = extensions_equivalent(
                ExtensionSpec(base, rep, t), ExtensionSpec(base, rep, t)
            )
            assert r.equivalent  # reflexive
        for t1 in thetas:
            for t2 in thetas:
                r12 = extensions_equivalent(
                    ExtensionSpec(base, rep, t1), ExtensionSpec(base, rep, t2)
                )
                r21 = extensions_equivalent(
                    ExtensionSpec(base, rep, t2), ExtensionSpec(base, rep, t1)
                )
                assert r12.equivalent == r21.equivalent  # symmetric
                if r12.equivalent:
                    assert d1(r12.witness) == t1 - t2  # witness is exact


def test_h2_counts_equivalence_classes():
    # abelian dim 1 base with H2 of dim 1: cocycle samples t*theta fall into
    # one class per coset of B2 = 0
    spec1 = abelian1_spec(1)
    samples = [abelian1_spec(v).cocycle for v in (0, 1, 2, -1)]
    base, rep = spec1.base, spec1.rep
    classes = []
    for t in samples:
        for cls in classes:
            if extensions_equivalent(
                ExtensionSpec(base, rep, t), ExtensionSpec(base, rep, cls[0])
            ).equivalent:
                cls.append(t)
                break
        else:
            classes.append([t])
    # distinct scalar multiples are distinct cosets here
    assert len(classes) == 4
    # J^1_{1,1}: every cocycle is a coboundary, one class only
    jbase = j111_spec(0)
    jsamples = [j111_spec(v).cocycle for v in (0, 1, 2)]
    jclasses = []
    for t in jsamples:
        for cls in jclasses:
            if extensions_equivalent(
                ExtensionSpec(jbase.base, jbase.rep, t),
                ExtensionSpec(jbase.base, jbase.rep, cls[0]),
            ).equivalent:
                cls.append(t)
                break
        else:
            jclasses.append([t])
    assert len(jclasses) == 1


def test_extension_multiplicative_when_base_is():
    rng = random.Random(47)
    for _ in range(10):
        base, rep = random_pair(rng)
        h2 = compute_H2(rep)
        theta = h2.representatives[0] if h2.representatives else Cochain2.zero(rep)
        built = build_extension(ExtensionSpec(base, rep, theta))
        assert check_hom_jacobi(built.algebra).passed
        assert check_multiplicative(built.algebra).passed
        assert is_abelian_ideal(
            built.algebra, SubspaceOfAlgebra(built.algebra, built.fiber_block())
        )
        assert built.project_to_base() == base


def test_extension_tables_and_maps_match_entrywise_reference():
    """The bracket, twist, exactness maps, fiber block and equivalence map
    of J + V against the module docstring's formulas, entry by entry, for
    random pairs, a random cocycle theta and a random witness h."""
    rng = random.Random(43)
    for _ in range(12):
        base, rep = random_pair(rng)
        n, m = base.dim, rep.vdim
        theta = Cochain2.zero(rep)
        for v in compute_H2(rep).z2.basis:
            theta = theta + Cochain2.from_vector(rep, v).scale(rand_scalar(rng))
        spec = ExtensionSpec(base, rep, theta)
        built = build_extension(spec)
        total = n + m
        zero = QQ(0)
        # [x + v, y + w] = [x, y]_J + rho(x) w + rho(y) v + theta(x, y); twist alpha + beta
        bracket = [[[zero] * total for _ in range(total)] for _ in range(total)]
        twist = [[zero] * total for _ in range(total)]
        for i, j in product(range(n), repeat=2):
            bracket[i][j] = list(base.bracket_basis(i, j)) + list(theta.value(i, j))
            twist[i][j] = base.alpha.entry(i, j)
        for i, p, q in product(range(n), range(m), range(m)):
            bracket[i][n + p][n + q] = bracket[n + p][i][n + q] = rep.rho[i].entry(q, p)
        for p, q in product(range(m), repeat=2):
            twist[n + p][n + q] = rep.beta.entry(p, q)
        assert built.algebra.bracket_tensor == tuple(tuple(map(tuple, rows)) for rows in bracket)
        assert built.algebra.alpha == Matrix.from_rows(twist)
        # pi(x + v) = x, i(v) = v, and the fiber block is V
        pi = [[QQ(int(c == r)) for c in range(total)] for r in range(n)]
        inc = [[QQ(int(r == n + c)) for c in range(m)] for r in range(total)]
        assert built.projection_map().matrix == Matrix(n, total, tuple(map(tuple, pi)))
        assert built.inclusion_matrix() == Matrix(total, m, tuple(map(tuple, inc)))
        assert built.fiber_block() == Subspace.from_spanning(total, [[QQ(int(r == n + p)) for r in range(total)] for p in range(m)])
        # Phi(x + v) = x - h(x) + v
        h = random_cochain1(rng, rep)
        phi = [[QQ(int(r == c)) for c in range(total)] for r in range(total)]
        for p, j in product(range(m), range(n)):
            phi[n + p][j] = -h.coeffs.entry(p, j)
        assert equivalence_map_from_cochain(spec, h).matrix == Matrix(total, total, tuple(map(tuple, phi)))
