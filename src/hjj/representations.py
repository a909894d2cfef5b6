"""Representations (V, rho, beta) of a Hom-Jacobi-Jordan algebra.

The defining laws, checked exactly on basis elements (sufficient by
(bi)linearity):

    rho(alpha(x)) o beta = beta o rho(x)
    rho([x, y]) o beta   = -rho(alpha(x)) rho(y) - rho(alpha(y)) rho(x)

check_representation reads both from the algebra's structure tables
(``_structure_tables``), as the coboundary matrices in ``cohomology`` do.

A quadratic representation adds a symmetric nondegenerate form on V for
which every rho(x) is self-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING

from .algebra import Algebra, _combine, _nonzero, _per_object, _structure_tables
from .errors import DegenerateForm, UnsupportedSystem
from .linalg import Matrix, determinant, vec_add, vec_is_zero
from .reports import CheckReport, Violation
from .scalars import QQ, ZERO

if TYPE_CHECKING:  # pragma: no cover
    from .cohomology import Cochain2


@dataclass(frozen=True)
class Representation:
    """Module dimension m, action matrices rho[i] = action of e_i, twist beta."""

    algebra: Algebra
    vdim: int
    rho: tuple  # tuple of m x m Matrix, length = algebra.dim
    beta: Matrix

    def __post_init__(self):
        if len(self.rho) != self.algebra.dim:
            raise ValueError("need one action matrix per algebra generator")
        m = self.vdim
        for r in self.rho:
            if r.rows != m or r.cols != m:
                raise ValueError("action matrices must be vdim x vdim")
        if self.beta.rows != m or self.beta.cols != m:
            raise ValueError("beta must be vdim x vdim")

    @staticmethod
    def zero_action(algebra: Algebra, vdim: int, beta: Matrix) -> "Representation":
        return Representation(algebra, vdim, tuple(Matrix.zero(vdim, vdim) for _ in range(algebra.dim)), beta)


@dataclass(frozen=True)
class QuadraticRepresentation:
    """Representation plus an invariant form B_a on the module."""

    rep: Representation
    form: Matrix

    def __post_init__(self):
        m = self.rep.vdim
        if self.form.rows != m or self.form.cols != m:
            raise ValueError("form must be vdim x vdim")
        if not self.form.is_symmetric():
            raise ValueError("form must be symmetric")
        if m > 0 and determinant(self.form) == 0:
            raise DegenerateForm("quadratic representation form is degenerate")


@_per_object
def check_representation(r: Representation) -> CheckReport:
    """Both representation laws, with exact matrix residuals, from the
    structure tables, once per representation object: rho(alpha(e_i)) is
    built once per i from the twist columns and rho([e_i, e_j]) from the
    nonzero c_ij^s."""
    violations = []
    a, m = r.algebra, r.vdim
    n = a.dim
    c, alpha_cols, _ = _structure_tables(a)
    rho_entries = [_nonzero(_flatten(x)) for x in r.rho]

    def rho_sum(coeffs) -> Matrix:
        flat = _combine(m * m, coeffs, rho_entries)
        return Matrix(m, m, tuple(tuple(flat[p * m:(p + 1) * m]) for p in range(m)))

    rho_alpha = [rho_sum(alpha_cols[i]) for i in range(n)]
    for i in range(n):
        defect = rho_alpha[i] @ r.beta - r.beta @ r.rho[i]
        if not defect.is_zero():
            violations.append(Violation(("rep1", i), _flatten(defect), "rho(alpha x) beta - beta rho(x)"))
    for i in range(n):
        for j in range(i, n):
            defect = rho_sum(c[i][j]) @ r.beta + rho_alpha[i] @ r.rho[j] + rho_alpha[j] @ r.rho[i]
            if not defect.is_zero():
                violations.append(Violation(("rep2", i, j), _flatten(defect)))
    return CheckReport("representation", tuple(violations))


def check_quadratic_representation(q: QuadraticRepresentation) -> tuple[CheckReport, CheckReport]:
    """(self-adjointness of every rho(e_i), self-adjointness of beta).

    The beta check is reported separately: it holds automatically for data
    restricted from a metric algebra, but is an honest extra condition in
    general.
    """
    rho_violations = []
    r, b = q.rep, q.form
    for i in range(r.algebra.dim):
        defect = r.rho[i].transpose() @ b - b @ r.rho[i]
        if not defect.is_zero():
            rho_violations.append(Violation(("rho-self-adjoint", i), _flatten(defect)))
    beta_defect = r.beta.transpose() @ b - b @ r.beta
    beta_violations = ()
    if not beta_defect.is_zero():
        beta_violations = (Violation(("beta-self-adjoint",), _flatten(beta_defect)),)
    return (
        CheckReport("quadratic-representation", tuple(rho_violations)),
        CheckReport("beta-self-adjoint", beta_violations),
    )


def _flatten(m: Matrix) -> tuple:
    return tuple(x for row in m.entries for x in row)


# ---------------------------------------------------------------------------
# Generalized coadjoint conditions
# ---------------------------------------------------------------------------


def coadjoint_condition(a: Algebra) -> CheckReport:
    """alpha([[x,y],t]) = -[y,[alpha(x),t]] - [x,[alpha(y),t]] on basis triples.

    This is the condition for the action Z |-> Z([x, .]) on End(J, V) to be
    a representation (the generalized coadjoint representation).
    """
    violations = []
    n = a.dim
    c, alpha_cols, alpha_br = _structure_tables(a)
    for i in range(n):
        for j in range(i, n):
            for t in range(n):
                r = [ZERO] * n
                for s, x in c[i][j]:
                    for u, y in c[s][t]:
                        for v, z in alpha_cols[u]:
                            r[v] += x * y * z
                for u, x in alpha_br[i][t]:
                    for v, y in c[j][u]:
                        r[v] += x * y
                for u, x in alpha_br[j][t]:
                    for v, y in c[i][u]:
                        r[v] += x * y
                if any(x != 0 for x in r):
                    violations.append(Violation((i, j, t), tuple(r)))
    return CheckReport("coadjoint-condition", tuple(violations))


def coadjoint_conditions_extended(a: Algebra, r: Representation, theta: "Cochain2") -> CheckReport:
    """The two conditions under which the coadjoint action extends to the
    abelian extension built from theta: the bracket identity above, plus

        beta(rho(t) theta(x,y)) = -rho(x) theta(alpha(y), t) - rho(y) theta(alpha(x), t).
    """
    violations = [
        Violation(("bracket",) + v.where, v.residual) for v in coadjoint_condition(a).violations
    ]
    n = a.dim
    alpha_cols = [a.alpha.column(i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            for t in range(n):
                res = r.beta.apply(r.rho[t].apply(theta.value(i, j)))
                res = vec_add(res, r.rho[i].apply(theta.value_vec(alpha_cols[j], a.basis_vector(t))))
                res = vec_add(res, r.rho[j].apply(theta.value_vec(alpha_cols[i], a.basis_vector(t))))
                if not vec_is_zero(res):
                    violations.append(Violation(("theta", i, j, t), res))
    return CheckReport("coadjoint-extended", tuple(violations))


# ---------------------------------------------------------------------------
# Solving for one-dimensional representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dim1Solutions:
    """The one-dimensional representations found; triangular elimination
    exhausts the solution set or the solver raises UnsupportedSystem."""

    representations: tuple


def solve_representations_dim1(a: Algebra, beta_scalar) -> Dim1Solutions:
    """All (V = QQ, rho, beta) satisfying the representation laws with m = 1.

    Unknowns are the scalars x_i = rho(e_i); rep1 contributes linear
    equations and rep2 quadratic ones.  The systems met in the
    low-dimensional classification are triangular (after linear elimination
    each quadratic equation involves one variable, e.g. x^2 = 0).  Anything
    beyond that pattern raises UnsupportedSystem rather than returning a
    silently partial answer; an infinite solution set does the same.
    """
    b = QQ(beta_scalar)
    n = a.dim
    equations = []
    for i in range(n):
        # rep1: b * (sum_k alpha[k][i] x_k - x_i) = 0
        poly = {}
        for k in range(n):
            c = b * a.alpha.entry(k, i)
            if c != 0:
                poly[(k,)] = poly.get((k,), ZERO) + c
        poly[(i,)] = poly.get((i,), ZERO) - b
        _add_equation(equations, poly)
    for i in range(n):
        for j in range(i, n):
            # rep2: b * sum_k c[i][j][k] x_k + (sum_k alpha[k][i] x_k) x_j
            #       + (sum_k alpha[k][j] x_k) x_i = 0
            poly = {}
            for k in range(n):
                c = b * a.bracket_tensor[i][j][k]
                if c != 0:
                    poly[(k,)] = poly.get((k,), ZERO) + c
            for k in range(n):
                c = a.alpha.entry(k, i)
                if c != 0:
                    mono = tuple(sorted((k, j)))
                    poly[mono] = poly.get(mono, ZERO) + c
                c = a.alpha.entry(k, j)
                if c != 0:
                    mono = tuple(sorted((k, i)))
                    poly[mono] = poly.get(mono, ZERO) + c
            _add_equation(equations, poly)

    solutions = _solve_quadratic_system(equations, n)
    reps = tuple(
        Representation(a, 1, tuple(Matrix.from_rows([[x]]) for x in sol), Matrix.from_rows([[b]]))
        for sol in solutions
    )
    return Dim1Solutions(reps)


# -- tiny polynomial helpers (monomials of degree <= 2, sorted index tuples) --


def _add_equation(equations: list, poly: dict):
    poly = {m: c for m, c in poly.items() if c != 0}
    if poly and poly not in equations:
        equations.append(poly)


def _poly_mul_linear(p: dict, q: dict) -> dict:
    """Product of two linear polynomials (monomials of length <= 1)."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _subst_linear(poly: dict, var: int, expr: dict) -> dict:
    """Substitute x_var := expr (a linear polynomial) into a quadratic poly."""
    out = {}
    for mono, c in poly.items():
        if var not in mono:
            out[mono] = out.get(mono, ZERO) + c
            continue
        rest = list(mono)
        rest.remove(var)
        if var in rest:  # x_var^2
            rest.remove(var)
            pieces = _poly_mul_linear(expr, expr)
        else:
            pieces = dict(expr)
        for m2, c2 in pieces.items():
            mono2 = tuple(sorted(tuple(rest) + m2))
            out[mono2] = out.get(mono2, ZERO) + c * c2
    return {m: c for m, c in out.items() if c != 0}


def _sqrt_rational(x):
    """Exact square root of a nonnegative rational, or None."""
    num, den = int(x.numerator), int(x.denominator)
    if num < 0:
        return None
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return QQ(rn, rd)


def _solve_quadratic_system(equations: list, nvars: int) -> list:
    """Finite solution set of a system of degree <= 2 polynomials by linear
    elimination plus finite branching; raises UnsupportedSystem outside the
    supported (triangular) shapes."""
    if nvars == 0:
        return [()]
    results = []
    seen = set()

    def finish(solved: dict):
        if len(solved) < nvars:
            raise UnsupportedSystem(
                "scalar representation solution set is infinite (free variables remain)",
                detail=tuple(i for i in range(nvars) if i not in solved),
            )
        # back-substitute linear expressions until everything is constant
        for _ in range(nvars + 1):
            changed = False
            for i, expr in solved.items():
                if any(m for m in expr):
                    new = dict(expr)
                    for m in list(expr):
                        if m:
                            new = _subst_linear(new, m[0], solved[m[0]])
                            changed = True
                    solved[i] = new
            if not changed:
                break
        key = tuple(solved[i].get((), ZERO) for i in range(nvars))
        if key not in seen:
            seen.add(key)
            results.append(key)

    def recurse(eqs: list, solved: dict):
        eqs = [dict(e) for e in eqs]
        while True:
            eqs = [{m: c for m, c in e.items() if c != 0} for e in eqs]
            eqs = [e for e in eqs if e]
            if any(set(e.keys()) == {()} for e in eqs):
                return  # inconsistent branch
            # 1) linear equation: solve for its smallest variable
            linear = next((e for e in eqs if all(len(m) <= 1 for m in e) and any(m for m in e)), None)
            if linear is not None:
                var = min(m[0] for m in linear if m)
                c = linear[(var,)]
                expr = {m: -cc / c for m, cc in linear.items() if m != (var,)}
                solved[var] = expr
                eqs = [_subst_linear(e, var, expr) for e in eqs]
                solved = {i: (_subst_linear(x, var, expr) if i != var else x) for i, x in solved.items()}
                continue
            # 2) single-monomial equations: squares pin, products branch
            single = next((e for e in eqs if len(e) == 1 and len(next(iter(e))) == 2), None)
            if single is not None:
                (i, j) = next(iter(single))
                if i == j:
                    solved[i] = {}
                    eqs = [_subst_linear(e, i, {}) for e in eqs]
                    continue
                for var in (i, j):
                    recurse([_subst_linear(e, var, {}) for e in eqs], dict(solved) | {var: {}})
                return
            # 3) single-variable quadratic: rational roots or dead branch
            candidate = next(
                (e for e in eqs if len({v for m in e for v in m}) == 1 and any(len(m) == 2 for m in e)),
                None,
            )
            if candidate is not None:
                (i,) = {v for m in candidate for v in m}
                a2 = candidate.get((i, i), ZERO)
                a1 = candidate.get((i,), ZERO)
                a0 = candidate.get((), ZERO)
                disc = a1 * a1 - 4 * a2 * a0
                root = _sqrt_rational(disc) if disc >= 0 else None
                if root is None:
                    return  # no rational solutions on this branch
                for r in {(-a1 + root) / (2 * a2), (-a1 - root) / (2 * a2)}:
                    recurse([_subst_linear(e, i, {(): r}) for e in eqs], dict(solved) | {i: {(): r}})
                return
            break
        if eqs:
            raise UnsupportedSystem(
                "scalar representation constraints do not reduce to triangular form",
                detail=eqs,
            )
        finish(dict(solved))

    recurse(equations, {})
    results.sort()
    return results


# ---------------------------------------------------------------------------
# The A^2 = 0 candidate family for two-dimensional modules
# ---------------------------------------------------------------------------


def nilpotent2x2(p, q, r) -> Matrix:
    """A square-zero 2x2 matrix: trace 0 and determinant 0.

    The classification's candidate family for two-dimensional modules over a
    one-dimensional abelian base is exactly these matrices ([[x1, -x1^2/x2],
    [x2, -x1]] when x2 != 0, plus the strictly upper triangular ones);
    callers instantiate the symbolic entries.  Raises ValueError when
    p^2 + q r != 0.
    """
    p, q, r = QQ(p), QQ(q), QQ(r)
    if p * p + q * r != 0:
        raise ValueError("not square-zero: need p^2 + q r = 0")
    return Matrix.from_rows([[p, q], [r, -p]])


def a2zero_candidates(x1, x2) -> Matrix:
    """The printed parametrisation of nonzero A with A^2 = 0 (x2 != 0)."""
    x1, x2 = QQ(x1), QQ(x2)
    if x2 == 0:
        raise ValueError("the printed family requires x2 != 0")
    return nilpotent2x2(x1, -x1 * x1 / x2, x2)
