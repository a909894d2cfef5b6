import random
import time
from itertools import product
from math import isqrt, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hjj import QQ
from hjj import linalg
from hjj.errors import ContainmentViolation
from hjj.linalg import (
    Matrix,
    Subspace,
    block,
    charpoly,
    determinant,
    image_basis,
    invert,
    kernel_basis,
    kron,
    minpoly,
    quotient_dim,
    rank,
    rational_roots,
    rref,
    solve,
    vec_is_zero,
)

entries = st.integers(min_value=-6, max_value=6)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    ).map(Matrix.from_rows)


# Rational elimination as the package did it before the integer kernel: the
# reference the integer rref and determinant are held to.
def reference_rref(m):
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = QQ(1) / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(nrows, ncols, tuple(tuple(row) for row in rows)), tuple(pivots)


def reference_determinant(m):
    rows = [list(r) for r in m.entries]
    n = m.rows
    det = QQ(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return QQ(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = QQ(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


rationals = st.builds(QQ, st.integers(-10**6, 10**6), st.integers(1, 10**3))
# three entries in four are zero
mostly_zero = st.integers(0, 3).flatmap(lambda k: rationals if k == 0 else st.just(QQ(0)))


@st.composite
def rational_systems(draw):
    """A rational matrix with mostly-zero, duplicated and dependent rows
    (0 x k and k x 0 shapes included) and a right-hand side that is
    consistent about half the time."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = [draw(st.lists(draw(st.sampled_from([rationals, mostly_zero])), min_size=cols, max_size=cols))
            for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        s, t = draw(rationals), draw(st.sampled_from([QQ(0), QQ(1), QQ(-3, 7)]))
        dependent = [s * x + t * y for x, y in zip(data[a], data[b])]
        data.insert(draw(st.integers(0, len(data))), dependent)
        data.insert(draw(st.integers(0, len(data))), list(data[a]))
    m = Matrix(len(data), cols, tuple(tuple(r) for r in data))
    if draw(st.booleans()):
        rhs = m.apply(tuple(draw(st.lists(rationals, min_size=cols, max_size=cols))))
    else:
        rhs = tuple(draw(st.lists(mostly_zero, min_size=m.rows, max_size=m.rows)))
    return m, rhs


def elimination_results(m, rhs):
    # read through the module, so that patching linalg.rref reaches all of them
    return {
        "rref": linalg.rref(m),
        "kernel": linalg.kernel_basis(m),
        "image": linalg.image_basis(m),
        "solve": linalg.solve(m, rhs),
        "rank": linalg.rank(m),
    }


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_integer_elimination_matches_rational_reference(system):
    m, rhs = system
    got = elimination_results(m, rhs)
    with mock.patch.object(linalg, "rref", reference_rref):
        expected = elimination_results(m, rhs)
    assert got == expected
    k = min(m.rows, m.cols)
    square = Matrix(k, k, tuple(r[:k] for r in m.entries[:k]))
    det = determinant(square)
    assert det == reference_determinant(square)
    scalar = type(QQ(0))
    values = [x for row in got["rref"][0].entries for x in row]
    values += [x for space in ("kernel", "image") for v in got[space].basis for x in v]
    values += list(got["solve"] or ()) + [det]
    assert all(type(x) is scalar for x in values)


def test_rref_identity():
    m = Matrix.identity(2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_zero():
    m = Matrix.zero(3, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == ()


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rref_idempotent(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red
    assert pivots2 == pivots
    assert list(pivots) == sorted(pivots)


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rank_nullity_and_kernel_exactness(m):
    ker = kernel_basis(m)
    img = image_basis(m)
    assert ker.dim + img.dim == m.cols
    for v in ker.basis:
        assert vec_is_zero(m.apply(v))


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(2)).dim == 0
    assert kernel_basis(Matrix.zero(2, 3)).dim == 3
    ker = kernel_basis(Matrix.from_rows([[1, 2]]))
    assert ker.dim == 1
    # spans the line through (-2, 1); the stored basis is its RREF normal form
    assert ker.contains((QQ(-2), QQ(1)))
    assert ker.basis == ((QQ(1), QQ(-1, 2)),)


def test_image_examples():
    assert image_basis(Matrix.identity(2)).dim == 2
    assert image_basis(Matrix.zero(3, 2)).dim == 0
    assert image_basis(Matrix.from_rows([[1], [2]])).dim == 1


def test_quotient_dim_examples():
    big = Subspace.from_spanning(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    small = Subspace.from_spanning(4, [(1, 1, 0, 0)])
    d, reps = quotient_dim(big, small)
    assert d == 2 and len(reps) == 2
    # representatives complete small's basis inside big
    combined = small
    for v in reps:
        assert big.contains(v) and not combined.contains(v)
        combined = Subspace.from_spanning(4, list(combined.basis) + [v])
    assert combined.dim == big.dim


def test_quotient_dim_equal_and_zero():
    s = Subspace.from_spanning(3, [(1, 0, 0), (0, 1, 0)])
    assert quotient_dim(s, s)[0] == 0
    assert quotient_dim(s, Subspace.zero(3))[0] == s.dim


def reference_quotient_reps(big, small):
    """Greedy completion: each vector of big's basis, in order, that lies
    outside the span of small and the vectors picked before it."""
    reps, current = [], small
    for v in big.basis:
        if not current.contains(v):
            reps.append(v)
            current = Subspace.from_spanning(big.ambient_dim, list(current.basis) + [v])
    return tuple(reps)


def test_quotient_dim_matches_greedy_reference():
    rng = random.Random(41)
    cases = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        vectors = [tuple(rng.choice((0, 0, 1, -1, 2, QQ(1, 3))) for _ in range(n)) for _ in range(rng.randint(0, n + 1))]
        big = Subspace.from_spanning(n, vectors)
        picked = [v for v in big.basis if rng.random() < 0.5]
        coeffs = [[rng.randint(-2, 2) for _ in picked] for _ in picked]
        combos = [tuple(sum((c * v[j] for c, v in zip(row, picked)), QQ(0)) for j in range(n)) for row in coeffs]
        for small in (Subspace.from_spanning(n, combos), Subspace.zero(n), big):
            d, reps = quotient_dim(big, small)
            assert reps == reference_quotient_reps(big, small)
            assert d == big.dim - small.dim == len(reps)
            cases += 1
    assert quotient_dim(Subspace.zero(3), Subspace.zero(3)) == (0, ())
    assert cases == 450


def test_quotient_containment_violation():
    big = Subspace.from_spanning(3, [(1, 0, 0)])
    small = Subspace.from_spanning(3, [(0, 1, 0)])
    with pytest.raises(ContainmentViolation):
        quotient_dim(big, small)


def test_solve_and_inverse():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    x = solve(m, (QQ(1), QQ(0)))
    assert m.apply(x) == (QQ(1), QQ(0))
    inv = invert(m)
    assert inv @ m == Matrix.identity(2)
    assert solve(Matrix.from_rows([[1, 1], [1, 1]]), (QQ(0), QQ(1))) is None


def test_determinant_and_rank():
    m = Matrix.from_rows([[2, 0], [0, QQ(1, 2)]])
    assert determinant(m) == 1
    assert rank(m) == 2
    assert determinant(Matrix.from_rows([[1, 2], [2, 4]])) == 0


def test_kron():
    a = Matrix.from_rows([[1, 2, 0], [0, -1, 3]])
    b = Matrix.from_rows([[1, 5], [7, 2], [0, 4]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (6, 6)
    for i, j, p, q in product(range(2), range(3), range(3), range(2)):
        assert k.entry(i * 3 + p, j * 2 + q) == a.entry(i, j) * b.entry(p, q)
    empty = kron(Matrix.identity(2), Matrix.zero(0, 0))
    assert (empty.rows, empty.cols) == (0, 0)


def test_block_matches_entrywise_placement():
    """block against placing every entry of every block at its offset, on
    random grids with None blocks and zero-height or zero-width blocks."""
    rng = random.Random(17)
    for _ in range(300):
        heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        # one Matrix in every block row and column sizes it; any other block may be None
        sized = {(r, rng.randrange(len(widths))) for r in range(len(heights))}
        sized |= {(rng.randrange(len(heights)), c) for c in range(len(widths))}
        grid = [
            [
                Matrix(h, w, tuple(tuple(QQ(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(w)) for _ in range(h)))
                if (r, c) in sized or rng.random() < 0.5 else None
                for c, w in enumerate(widths)
            ]
            for r, h in enumerate(heights)
        ]
        expected = [[QQ(0)] * sum(widths) for _ in range(sum(heights))]
        for r, c in product(range(len(heights)), range(len(widths))):
            if grid[r][c] is not None:
                for i, j in product(range(heights[r]), range(widths[c])):
                    expected[sum(heights[:r]) + i][sum(widths[:c]) + j] = grid[r][c].entry(i, j)
        assert block(grid) == Matrix(sum(heights), sum(widths), tuple(map(tuple, expected)))
    with pytest.raises(ValueError):
        block([[Matrix.identity(2), None], [None, None]])  # block column 1 unsized
    with pytest.raises(ValueError):
        block([[Matrix.identity(2), Matrix.zero(3, 1)]])  # heights disagree
    with pytest.raises(ValueError):
        block([[Matrix.identity(2), Matrix.identity(2)], [Matrix.identity(2)]])  # ragged


def test_charpoly_minpoly():
    m = Matrix.diagonal([QQ(2), QQ(4)])
    assert charpoly(m) == (QQ(1), QQ(-6), QQ(8))  # (t-2)(t-4)
    assert minpoly(m) == (QQ(1), QQ(-6), QQ(8))
    jordan = Matrix.from_rows([[1, 1], [0, 1]])
    assert charpoly(jordan) == (QQ(1), QQ(-2), QQ(1))
    assert minpoly(jordan) == (QQ(1), QQ(-2), QQ(1))
    # diagonalisable with repeated eigenvalue: minpoly drops degree
    assert minpoly(Matrix.identity(3)) == (QQ(1), QQ(-1))


@settings(max_examples=40, deadline=None)
@given(small_matrices(3).filter(lambda m: m.is_square()))
def test_charpoly_annihilates(m):
    coeffs = charpoly(m)
    acc = Matrix.zero(m.rows, m.rows)
    power = Matrix.identity(m.rows)
    for c in reversed(coeffs):
        acc = acc + power.scale(c)
        power = power @ m
    assert acc.is_zero()


def poly_eval(poly, x):
    acc = QQ(0)
    for c in poly:
        acc = acc * x + c
    return acc


# The trial-division rational_roots, Faddeev-LeVerrier charpoly and
# solve-based minpoly the package used before its polynomial-time versions:
# the references those are held to.
def reference_rational_roots(poly):
    coeffs = [QQ(c) for c in poly]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return ()
    roots = set()
    while coeffs[-1] == 0 and len(coeffs) > 1:
        roots.add(QQ(0))
        coeffs.pop()
    if len(coeffs) == 1:
        return tuple(sorted(roots))
    denom = lcm(*[int(c.denominator) for c in coeffs])
    ints = [int(c * denom) for c in coeffs]

    def divisors(k):
        k = abs(k)
        return {d for i in range(1, isqrt(k) + 1) if k % i == 0 for d in (i, k // i)}

    for p in divisors(ints[-1]):
        for q in divisors(ints[0]):
            for cand in (QQ(p, q), QQ(-p, q)):
                if poly_eval(coeffs, cand) == 0:
                    roots.add(cand)
    return tuple(sorted(roots))


def reference_charpoly(m):
    n = m.rows
    coeffs = [QQ(1)]
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -mk.trace() / QQ(k)
        coeffs.append(ck)
        if k < n:
            mk = mk + Matrix.identity(n).scale(ck)
    return tuple(coeffs)


def reference_minpoly(m):
    n = m.rows

    def flatten(a):
        return tuple(x for row in a.entries for x in row)

    powers = [Matrix.identity(n)]
    for k in range(1, n + 1):
        powers.append(powers[-1] @ m)
        stacked = Matrix.from_columns([flatten(p) for p in powers[:k]])
        sol = solve(stacked, flatten(powers[k]))
        if sol is not None:
            return (QQ(1),) + tuple(-sol[k - 1 - i] for i in range(k))
    raise AssertionError("Cayley-Hamilton guarantees dependence by degree n")


def poly_mul(a, b):
    out = [QQ(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# dyadic values sit on bisection midpoints and interval ends
ROOT_POOL = [QQ(v) for v in ("0", "1", "-1", "2", "-2", "3", "4", "-8", "1/2", "-1/2", "1/4", "3/4",
                             "-3/4", "5/8", "-3/2", "7/4", "1/3", "-2/3", "5/3", "3/7")]
# factors without a rational root: x^2 + k and x^2 - 2, x^2 - 3
IRRATIONAL = [(1, 0, 1), (1, 0, 2), (1, 0, 5), (1, 0, -2), (1, 0, -3), (1, 1, 1)]


@st.composite
def root_polynomials(draw):
    """A polynomial with roots drawn (with repeats) from ROOT_POOL, times
    factors without rational roots, times a rational of either sign."""
    poly = [QQ(1)]
    for r in draw(st.lists(st.sampled_from(ROOT_POOL), max_size=4)):
        s = draw(st.integers(1, 3))
        poly = poly_mul(poly, [QQ(s), -s * r])
    for f in draw(st.lists(st.sampled_from(IRRATIONAL), max_size=2)):
        poly = poly_mul(poly, [QQ(c) for c in f])
    scale = QQ(draw(st.integers(1, 6)), draw(st.integers(1, 6))) * draw(st.sampled_from([1, -1]))
    return [scale * c for c in poly]


@settings(max_examples=300, deadline=None)
@given(st.one_of(root_polynomials(), st.lists(st.integers(-30, 30), min_size=1, max_size=6).map(lambda c: [QQ(x) for x in c])))
def test_rational_roots_match_trial_division(poly):
    roots = rational_roots(poly)
    assert roots == reference_rational_roots(poly)
    assert all(type(r) is type(QQ(0)) for r in roots)


def test_rational_roots():
    # (t - 2)(t + 1/2) = t^2 - 3/2 t - 1
    poly = (QQ(1), QQ(-3, 2), QQ(-1))
    roots = rational_roots(poly)
    assert set(roots) == {QQ(2), QQ(-1, 2)}
    for r in roots:
        assert poly_eval(poly, r) == 0
    assert rational_roots((QQ(1), QQ(0), QQ(2))) == ()  # t^2 + 2
    # -1/2 is a root on a bisection midpoint, at the end of -2/3's interval
    # (and -1 at the end of -7/4's), in both signs
    for sign in (1, -1):
        assert rational_roots([QQ(sign * c) for c in (24, 22, 1, -2)]) == (QQ(-2, 3), QQ(-1, 2), QQ(1, 4))
        assert rational_roots([QQ(sign * c) for c in (4, 11, 7)]) == (QQ(-7, 4), QQ(-1))
    assert rational_roots([QQ(-3), QQ(0), QQ(3), QQ(0), QQ(0)]) == (QQ(-1), QQ(0), QQ(1))
    assert rational_roots([QQ(0), QQ(5)]) == ()
    assert rational_roots([QQ(0)]) == rational_roots([]) == ()


def test_rational_roots_polynomial_time():
    big = 10**9 + 7
    start = time.perf_counter()
    assert rational_roots([QQ(1), QQ(0), QQ(0), QQ(-big**3)]) == (QQ(big),)
    assert time.perf_counter() - start < 1
    roots = [QQ(1000003), QQ(1, 1000003), QQ(-1000003, 7)]
    poly = [QQ(1)]
    for r in roots:
        poly = poly_mul(poly, [QQ(1), -r])
    start = time.perf_counter()
    assert rational_roots(poly) == tuple(sorted(roots))
    assert time.perf_counter() - start < 1


@settings(max_examples=100, deadline=None)
@given(small_matrices(4).filter(lambda m: m.is_square()))
def test_charpoly_minpoly_match_references(m):
    m = m.scale(QQ(1, 2)) if m.rows % 2 else m  # half-integer entries too
    assert charpoly(m) == reference_charpoly(m)
    assert minpoly(m) == reference_minpoly(m)


def test_subspace_membership_deterministic():
    s = Subspace.from_spanning(3, [(1, 2, 0), (2, 4, 1)])
    assert s.contains((QQ(1), QQ(2), QQ(0)))
    assert not s.contains((QQ(0), QQ(1), QQ(0)))
    # canonical basis: spanning order does not matter
    s2 = Subspace.from_spanning(3, [(2, 4, 1), (1, 2, 0)])
    assert s == s2


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)
