"""Randomized instance generators shared by the property suites.

Instances are random conjugates of verified seed families: conjugation by
an invertible change of basis preserves every identity under test while
scrambling the coordinates, so the suites exercise the operators on
generic-looking data without an (impossible) rejection search over raw
structure constants.  All randomness is drawn from a caller-provided
``random.Random``; entries are rationals with numerators and denominators
in [-3, 3].

Regime note: the multilinear-operator suites run over multiplicative
algebras satisfying the generalized coadjoint identity (the standing
setting of the dual-twist operators) with representations filtered through
check_representation; this is asserted, not assumed.
"""

from __future__ import annotations

import random
from itertools import product

from hjj import QQ, Matrix
from hjj.algebra import Algebra, check_hom_jacobi, check_multiplicative
from hjj.catalog import instantiate
from hjj.cohomology import (
    Cochain1,
    Cochain2,
    ScalarForm,
    _pair_twist,
    _twist_constraint,
    c2r_space,
    c3r_space,
    cochain1_space,
    cochain2_space,
    pairs,
    scalar2_from_vector,
    scalar3_sym12_to_vector,
)
from hjj.linalg import invert, vec_add, vec_dot, vec_is_zero, vec_scale, zero_vector
from hjj.metric import MetricAlgebra
from hjj.representations import (
    QuadraticRepresentation,
    Representation,
    check_quadratic_representation,
    check_representation,
    coadjoint_condition,
)


def rand_scalar(rng: random.Random):
    return QQ(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def rand_nonzero_scalar(rng: random.Random):
    while True:
        x = rand_scalar(rng)
        if x != 0:
            return x


def rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows([[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = rand_matrix(rng, n, n)
        if invert(m) is not None:
            return m


def rand_structure(rng: random.Random, n: int) -> Algebra:
    """Random symmetric structure constants (about 40% nonzero) and a twist
    with a nonzero off-diagonal entry.  No axiom holds in general: this is
    input for operator formulas that are defined on any symmetric product."""
    brackets = {
        (i, j): [rand_scalar(rng) if rng.random() < 0.4 else 0 for _ in range(n)]
        for i in range(n)
        for j in range(i, n)
    }
    while True:
        alpha = rand_matrix(rng, n, n)
        if n < 2 or any(alpha.entry(i, j) != 0 for i in range(n) for j in range(n) if i != j):
            return Algebra.from_brackets(n, brackets, alpha)


def conjugate_algebra(a: Algebra, p: Matrix) -> Algebra:
    """Transport the structure along the change of basis e'_i = p(e_i)."""
    pinv = invert(p)
    brackets = {}
    for i in range(a.dim):
        for j in range(i, a.dim):
            brackets[(i, j)] = pinv.apply(a.bracket(p.column(i), p.column(j)))
    return Algebra.from_brackets(a.dim, brackets, pinv @ a.alpha @ p)


def conjugate_rep(rep: Representation, new_algebra: Algebra, p: Matrix, q: Matrix) -> Representation:
    qinv = invert(q)
    rho = []
    for i in range(rep.algebra.dim):
        acc = Matrix.zero(rep.vdim, rep.vdim)
        for j in range(rep.algebra.dim):
            c = p.entry(j, i)
            if c != 0:
                acc = acc + rep.rho[j].scale(c)
        rho.append(qinv @ acc @ q)
    return Representation(new_algebra, rep.vdim, tuple(rho), qinv @ rep.beta @ q)


# ---------------------------------------------------------------------------
# Seed families
# ---------------------------------------------------------------------------


def _seed_algebras(rng: random.Random) -> list:
    a = rand_nonzero_scalar(rng)
    b = rand_nonzero_scalar(rng)
    seeds = [
        instantiate("J^1_{1,1}", {"a": a}),
        instantiate("J^2_{1,1}", {}),
        instantiate("J^2_{2,1}", {"a": a}),
        instantiate("J^6_{2,1}", {"a": a, "c": b}),
        Algebra.abelian(1, Matrix.from_rows([[a]])),
        Algebra.abelian(2, Matrix.diagonal([a, b])),
        Algebra.abelian(3, Matrix.diagonal([a, b, rand_nonzero_scalar(rng)])),
        # untwisted (Jacobi-Jordan) seed
        Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2)),
        # non-regular multiplicative seed with a 3-step-looking bracket
        Algebra.from_brackets(
            3,
            {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1)},
            Matrix.from_columns([(0, 1, 0), (0, 0, 0), (0, 0, 0)]),
        ),
    ]
    return seeds


def random_algebra(rng: random.Random) -> Algebra:
    seed = rng.choice(_seed_algebras(rng))
    out = conjugate_algebra(seed, rand_invertible(rng, seed.dim))
    assert check_hom_jacobi(out).passed
    assert check_multiplicative(out).passed
    assert coadjoint_condition(out).passed
    return out


def _seed_pairs(rng: random.Random) -> list:
    """(algebra, representation) seeds with nonzero compatible cochain spaces."""
    pairs = []
    a = rng.choice((QQ(2), QQ(3), QQ(-2), QQ(1, 2)))
    j11 = instantiate("J^1_{1,1}", {"a": a})
    pairs.append((j11, Representation.zero_action(j11, 1, Matrix.from_rows([[a * a]]))))
    pairs.append((j11, Representation.zero_action(j11, 1, Matrix.from_rows([[rand_nonzero_scalar(rng)]]))))
    # m = 2 with a nonzero nilpotent action aligned with beta
    b2 = rand_nonzero_scalar(rng)
    rho1 = Matrix.from_rows([[0, 1], [0, 0]])
    pairs.append(
        (
            j11,
            Representation(j11, 2, (rho1, Matrix.zero(2, 2)), Matrix.diagonal([a * b2, b2])),
        )
    )
    j21 = instantiate("J^2_{1,1}", {})
    pairs.append((j21, Representation.zero_action(j21, 1, Matrix.from_rows([[QQ(1)]]))))
    ab2 = Algebra.abelian(2, Matrix.diagonal([a, -a]))
    pairs.append((ab2, Representation.zero_action(ab2, 1, Matrix.from_rows([[a * a]]))))
    # untwisted seed with a genuinely nonzero action
    jj = Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2))
    pairs.append((jj, Representation(jj, 2, (rho1, Matrix.zero(2, 2)), Matrix.identity(2))))
    pairs.append((jj, Representation.zero_action(jj, 1, Matrix.identity(1))))
    j221 = instantiate("J^2_{2,1}", {"a": a})
    pairs.append((j221, Representation.zero_action(j221, 1, Matrix.from_rows([[a * a]]))))
    return pairs


def random_pair(rng: random.Random) -> tuple:
    """A valid (algebra, representation), conjugated on both sides."""
    algebra, rep = rng.choice(_seed_pairs(rng))
    p = rand_invertible(rng, algebra.dim)
    q = rand_invertible(rng, rep.vdim)
    new_algebra = conjugate_algebra(algebra, p)
    new_rep = conjugate_rep(rep, new_algebra, p, q)
    assert check_representation(new_rep).passed
    assert coadjoint_condition(new_algebra).passed
    return new_algebra, new_rep


def random_quadratic(rng: random.Random) -> tuple:
    """A valid (algebra, quadratic representation), conjugated."""
    choice = rng.randrange(3)
    if choice == 0:
        # untwisted seed with nonzero self-adjoint action
        algebra = Algebra.from_brackets(2, {(0, 0): (0, 1)}, Matrix.identity(2))
        rep = Representation(
            algebra,
            2,
            (Matrix.from_rows([[0, 1], [0, 0]]), Matrix.zero(2, 2)),
            Matrix.identity(2),
        )
        form = Matrix.from_rows([[0, 1], [1, 0]])
    elif choice == 1:
        a = rng.choice((QQ(2), QQ(3), QQ(1, 2)))
        algebra = instantiate("J^1_{1,1}", {"a": a})
        rep = Representation.zero_action(algebra, 1, Matrix.from_rows([[a * a]]))
        form = Matrix.from_rows([[rand_nonzero_scalar(rng)]])
    else:
        a = rand_nonzero_scalar(rng)
        algebra = Algebra.abelian(2, Matrix.diagonal([a, -a]))
        rep = Representation.zero_action(algebra, 2, Matrix.diagonal([a * a, a * a]))
        form = Matrix.diagonal([rand_nonzero_scalar(rng), rand_nonzero_scalar(rng)])
    p = rand_invertible(rng, algebra.dim)
    q = rand_invertible(rng, rep.vdim)
    new_algebra = conjugate_algebra(algebra, p)
    new_rep = conjugate_rep(rep, new_algebra, p, q)
    qrep = QuadraticRepresentation(new_rep, q.transpose() @ form @ q)
    rho_ok, beta_ok = check_quadratic_representation(qrep)
    assert check_representation(new_rep).passed and rho_ok.passed and beta_ok.passed
    return new_algebra, qrep


# ---------------------------------------------------------------------------
# Random elements of the compatible spaces
# ---------------------------------------------------------------------------


def _random_member(rng: random.Random, space):
    v = zero_vector(space.ambient_dim)
    for b in space.basis:
        v = vec_add(v, vec_scale(rand_scalar(rng), b))
    return v


def random_cochain1(rng: random.Random, rep: Representation) -> Cochain1:
    return Cochain1.from_vector(rep, _random_member(rng, cochain1_space(rep)))


def random_cochain2(rng: random.Random, rep: Representation) -> Cochain2:
    return Cochain2.from_vector(rep, _random_member(rng, cochain2_space(rep)))


def random_c2r_form(rng: random.Random, algebra: Algebra) -> ScalarForm:
    return scalar2_from_vector(algebra.dim, _random_member(rng, c2r_space(algebra)))


def random_c3r_form(rng: random.Random, algebra: Algebra) -> ScalarForm:
    return sym12_form(algebra.dim, _random_member(rng, c3r_space(algebra)))


def sym12_form(n: int, v) -> ScalarForm:
    """The trilinear form, symmetric in its first two slots, with the sym12
    coordinates v (index ``pair*n + t``)."""
    entries = {}
    for idx, (i, j) in enumerate(pairs(n)):
        for t in range(n):
            entries[i, j, t] = entries[j, i, t] = v[idx * n + t]
    return ScalarForm.from_entries(n, 3, entries)


# ---------------------------------------------------------------------------
# Dense reference formulas
# ---------------------------------------------------------------------------


def bilinear(form: Matrix, v, w):
    """v^T form w."""
    return sum((vi * vec_dot(row, w) for vi, row in zip(v, form.entries) if vi), QQ(0))


def evaluate(f: ScalarForm, *vectors):
    """Multilinear evaluation of a scalar form on coordinate vectors."""
    if len(vectors) != f.degree:
        raise ValueError("wrong number of arguments")
    total = QQ(0)
    for idx in product(*([i for i, x in enumerate(v) if x != 0] for v in vectors)):
        term = f.value(*idx)
        for v, i in zip(vectors, idx):
            term *= v[i]
        total += term
    return total


def in_c2r(a: Algebra, f: ScalarForm) -> bool:
    """f(alpha x, y) = f(x, alpha y), read through the C^2_r constraint matrix."""
    at = a.alpha.transpose()
    return vec_is_zero(_twist_constraint(at, at).apply(f.coords))


def in_c3r(a: Algebra, f: ScalarForm) -> bool:
    """f symmetric in slots 1-2 with f(alpha x, alpha y, z) = f(x, y, alpha z),
    read through the C^3_r constraint matrix."""
    return f.is_symmetric12() and vec_is_zero(
        _twist_constraint(_pair_twist(a), a.alpha.transpose()).apply(scalar3_sym12_to_vector(f)))


def dense_invariance_violations(m: MetricAlgebra) -> list:
    """(where, residual) for every basis triple (i, j, k), in product order,
    with B(e_i, [e_j, e_k]) != B([e_i, e_j], e_k), evaluated with
    Algebra.bracket and bilinear: the definition that check_metric's
    invariance report, read from gamma, is tested against."""
    a = m.algebra
    e = [a.basis_vector(i) for i in range(a.dim)]
    out = []
    for i, j, k in product(range(a.dim), repeat=3):
        d = bilinear(m.form, e[i], a.bracket(e[j], e[k])) - bilinear(m.form, a.bracket(e[i], e[j]), e[k])
        if d != 0:
            out.append(((i, j, k), (d,)))
    return out
