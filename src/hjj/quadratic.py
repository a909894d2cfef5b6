"""Quadratic cohomology and twofold (metric) extensions.

A quadratic 2-cochain is a pair (theta, gamma): theta a compatible
2-cochain into the module, gamma a trilinear scalar form.  The cocycle
condition couples them:

    d2 theta = 0
    d_r^3 gamma(x, y, z, alpha(a)) + 1/2 B_a(theta ^ (theta o alpha))(x, y, z, a) = 0,

where ^ is the shuffle wedge.  Cocycles build metric algebras on
J + a + J* (twofold extensions); cobords d1Q(tau, sigma) realise
equivalences via an explicit isometric isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .algebra import (
    Algebra,
    LinearMapBetweenAlgebras,
    SubspaceOfAlgebra,
    _structure_tables,
    check_homomorphism,
    is_ideal,
)
from .cohomology import (
    Cochain1,
    Cochain2,
    Cochain3,
    ScalarForm,
    _dr2_matrix,
    _pair_positions,
    c2r_space,
    compute_H2,
    d1,
    d2,
    dc2,
    dr2,
    pair_index,
    pairs,
    scalar3_sym12_to_vector,
)
from .errors import ContainmentViolation, PreconditionFailure
from .linalg import Matrix, Subspace, image_basis, kernel_basis, zero_vector
from .metric import MetricAlgebra, check_metric, is_isotropic, metric_criterion
from .representations import (
    QuadraticRepresentation,
    check_quadratic_representation,
    check_representation,
    coadjoint_conditions_extended,
)
from .scalars import ONE, QQ, ZERO

# (2,2)- and (1,2)-shuffles: permutations increasing on each block
_SH22 = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))
_SH12 = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


@dataclass(frozen=True)
class QuadraticCochain2:
    theta: Cochain2
    gamma: ScalarForm  # degree 3

    def __post_init__(self):
        if self.gamma.degree != 3 or self.gamma.dim != self.theta.rep.algebra.dim:
            raise ValueError("gamma must be a trilinear form on the algebra")
        if not self.theta.is_compatible():
            raise ValueError("theta must satisfy beta o theta = theta o alpha")
        if not self.gamma.is_symmetric12():
            raise ValueError("gamma must be symmetric in its first two slots")


@dataclass(frozen=True)
class QuadraticCochain1:
    tau: Cochain1
    sigma: ScalarForm  # degree 2

    def __post_init__(self):
        if self.sigma.degree != 2 or self.sigma.dim != self.tau.rep.algebra.dim:
            raise ValueError("sigma must be a bilinear form on the algebra")
        if not self.tau.is_compatible():
            raise ValueError("tau must satisfy tau o alpha = beta o tau")


def _pair_values(f: Cochain2) -> Matrix:
    """The values f(e_i, e_j) as the rows of an npairs x m matrix."""
    m = f.rep.vdim
    npairs = len(pairs(f.rep.algebra.dim))
    return Matrix(npairs, m, tuple(f.coords[pair * m:(pair + 1) * m] for pair in range(npairs)))


def wedge(f: Cochain2, g: Cochain2, form: Matrix) -> ScalarForm:
    """B_a(f ^ g): the six (2,2)-shuffle pairings of the values of f and g,
    read from the table B_a(f(P), g(Q)) over the pairs P, Q."""
    n = f.rep.algebra.dim
    pos = _pair_positions(n)
    table = (_pair_values(f) @ form @ _pair_values(g).transpose()).entries
    return ScalarForm(n, 4, tuple(
        sum((table[pos[idx[a], idx[b]]][pos[idx[c], idx[d]]] for a, b, c, d in _SH22), ZERO)
        for idx in product(range(n), repeat=4)
    ))


def wedge12(tau: Cochain1, h: Cochain2, form: Matrix) -> ScalarForm:
    """B_a(tau ^ h): the three (1,2)-shuffle pairings (fully symmetric), read
    from the table B_a(tau(e_j), h(P)) over the basis j and the pairs P."""
    n = tau.rep.algebra.dim
    pos = _pair_positions(n)
    table = (tau.coeffs.transpose() @ form @ _pair_values(h).transpose()).entries
    return ScalarForm(n, 3, tuple(
        sum((table[idx[a]][pos[idx[b], idx[c]]] for a, b, c in _SH12), ZERO)
        for idx in product(range(n), repeat=3)
    ))


def d2Q(c: QuadraticCochain2, qrep: QuadraticRepresentation) -> tuple[Cochain3, ScalarForm]:
    """(d2 theta, d_r^3 gamma(x,y,z,alpha(a)) + 1/2 B_a(theta ^ theta o alpha)(x,y,z,a)).

    The fourth slot of the second component is indexed by the pre-twist
    argument a, with t = alpha(a) substituted inside d_r^3 gamma.
    """
    theta, gamma = c.theta, c.gamma
    a = theta.rep.algebra
    dr3_part = ScalarForm(a.dim, 4, _gamma_matrix(a).apply(scalar3_sym12_to_vector(gamma)))
    wedge_part = wedge(theta, theta.twist_arguments(), qrep.form).scale(QQ(1, 2))
    return d2(theta), dr3_part + wedge_part


def d1Q(c: QuadraticCochain1, qrep: QuadraticRepresentation) -> QuadraticCochain2:
    """(d1 tau, d_r^2 sigma - 1/2 B_a(tau ^ d1 tau))."""
    a = c.tau.rep.algebra
    dtau = d1(c.tau)
    second = dr2(a, c.sigma) - wedge12(c.tau, dtau, qrep.form).scale(QQ(1, 2))
    return QuadraticCochain2(dtau, second)


# ---------------------------------------------------------------------------
# Quadratic cohomology dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberInfo:
    """Linearised gamma-fiber over one theta solving d2 theta = 0."""

    theta: Cochain2
    solvable: bool
    fiber_dim: Optional[int]


@dataclass(frozen=True)
class H2QResult:
    """Stratified description of H^2_Q.

    The cocycle equation is affine-quadratic in theta, so the computation is
    fiberwise: the linear condition d2 theta = 0 first, then the gamma
    condition over each theta.  kind is

    * "linear": the wedge obstruction vanishes identically on Z2(theta);
      Z2_Q and B2_Q are honest subspaces and h2q_dim is their quotient;
    * "theta-pinned": the obstruction kills every nonzero theta over QQ,
      so the theta = 0 sector is the whole story;
    * "fibered": mixed; per-theta linearised fibers are reported instead of
      a single dimension.
    """

    kind: str
    theta_dims: tuple  # (dim C2, dim Z2, dim B2)
    gamma_dims: tuple  # (sym12 ambient dim, dim ker, dim im dr2)
    h2q_dim: Optional[int]
    theta_representatives: tuple
    fibers: tuple = ()

    def describe(self) -> str:
        c2, z2, b2 = self.theta_dims
        amb, ker, im = self.gamma_dims
        lines = [
            f"kind: {self.kind}",
            f"theta sector: dim C2={c2} dim Z2={z2} dim B2={b2}",
            f"gamma sector: ambient dim={amb} dim ker={ker} dim im dr2={im}",
        ]
        if self.h2q_dim is not None:
            lines.append(f"dim H2_Q = {self.h2q_dim}")
        for f in self.fibers:
            tag = f"fiber dim {f.fiber_dim}" if f.solvable else "empty (obstructed)"
            zero = "theta=0" if f.theta.is_zero() else "theta!=0"
            lines.append(f"fiber over {zero}: {tag}")
        return "\n".join(lines)


def compute_H2Q(a: Algebra, qrep: QuadraticRepresentation) -> H2QResult:
    """Z2_Q, B2_Q and H2_Q data, stratified over the theta condition.

    gamma ranges over all trilinear forms symmetric in the first two slots,
    and sigma over C2_r.  (The dual-twist class C3_r is NOT closed under
    d_r^2 for twisted algebras -- the coadjoint action fails the first
    representation law there -- so the honest ambient for the gamma sector
    is the symmetric class; sigma must stay in C2_r because
    d_r^3 o d_r^2 = 0 needs it.  Both choices are recorded decisions.)
    """
    rep = qrep.rep
    h2 = compute_H2(rep)
    n = a.dim
    npair = len(pairs(n))
    ambient = npair * n  # sym12 trilinear coordinates
    # linear gamma-condition: dr3(gamma)(. , . , . , alpha .) = 0
    gamma_matrix = _gamma_matrix(a)
    gamma_kernel = kernel_basis(gamma_matrix)
    gamma_image = image_basis(_dr2_matrix(a) @ c2r_space(a).matrix().transpose())
    if not gamma_kernel.contains_subspace(gamma_image):
        raise ContainmentViolation("dr2(C2_r) is not inside the gamma-cocycle kernel")

    theta_dims = (h2.c2.dim, h2.z2.dim, h2.b2.dim)
    gamma_dims = (ambient, gamma_kernel.dim, gamma_image.dim)

    # wedge obstruction, polarised over the Z2 basis
    z_basis = [Cochain2.from_vector(rep, v) for v in h2.z2.basis]
    obstruction_free = True
    for i, ti in enumerate(z_basis):
        for tj in z_basis[i:]:
            w = wedge(ti, tj.twist_arguments(), qrep.form) + wedge(tj, ti.twist_arguments(), qrep.form)
            if not w.is_zero():
                obstruction_free = False
                break
        if not obstruction_free:
            break

    if obstruction_free:
        h2q_dim = (h2.z2.dim - h2.b2.dim) + (gamma_kernel.dim - gamma_image.dim)
        return H2QResult("linear", theta_dims, gamma_dims, h2q_dim, tuple(z_basis))

    # quadratic obstruction present: is the affine gamma-equation over each
    # theta solvable, i.e. is its target in the column space of the condition?
    gamma_columns = image_basis(gamma_matrix)
    fibers = [FiberInfo(Cochain2.zero(rep), True, gamma_kernel.dim)]
    all_obstructed = True
    for t in z_basis:
        rhs = wedge(t, t.twist_arguments(), qrep.form).scale(QQ(-1, 2))
        if gamma_columns.contains(rhs.coords):
            all_obstructed = False
            fibers.append(FiberInfo(t, True, gamma_kernel.dim))
        else:
            fibers.append(FiberInfo(t, False, None))
    if all_obstructed and h2.z2.dim == 1:
        # the single theta-direction is killed over QQ: only theta = 0 remains
        h2q_dim = gamma_kernel.dim - gamma_image.dim
        return H2QResult("theta-pinned", theta_dims, gamma_dims, h2q_dim, (), tuple(fibers))
    return H2QResult("fibered", theta_dims, gamma_dims, None, tuple(z_basis), tuple(fibers))


def _gamma_matrix(a: Algebra) -> Matrix:
    """The gamma condition gamma |-> d_r^3 gamma(x, y, z, alpha(l)) as one
    exact matrix, built from the nonzero structure constants: rows are the
    index 4-tuples (i, j, k, l) in product order, columns the sym12
    coordinates (pair, t) of gamma."""
    n = a.dim
    c, alpha_cols, alpha_br = _structure_tables(a)
    pidx = pair_index(n)
    ncols = len(pidx) * n

    def col(x, y, z):
        return pidx[(min(x, y), max(x, y))] * n + z

    rows = []
    for i, j, k in product(range(n), repeat=3):
        # dr3_rows[t]: the row (i, j, k, t) of d_r^3
        dr3_rows = [[ZERO] * ncols for _ in range(n)]
        for t, row in enumerate(dr3_rows):
            for p, q, r in ((i, j, k), (i, k, j), (j, k, i)):
                # g([e_p, e_q], alpha e_r, e_t) + g(e_p, e_q, [alpha e_r, e_t])
                for s, x in c[p][q]:
                    for u, y in alpha_cols[r]:
                        row[col(s, u, t)] += x * y
                for u, x in alpha_br[r][t]:
                    row[col(p, q, u)] += x
        for l in range(n):
            rows.append(
                tuple(
                    sum((x * dr3_rows[t][m] for t, x in alpha_cols[l] if dr3_rows[t][m]), ZERO)
                    for m in range(ncols)
                )
            )
    return Matrix(len(rows), ncols, tuple(rows))


# ---------------------------------------------------------------------------
# Twofold extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwofoldExtension:
    """Metric algebra on J + a + J* with its block structure and provenance."""

    metric: MetricAlgebra
    base_dim: int
    module_dim: int
    theta: Cochain2
    gamma: ScalarForm
    qrep: QuadraticRepresentation

    def dual_block(self) -> Subspace:
        total = self.metric.algebra.dim
        eye = Matrix.identity(total)
        start = self.base_dim + self.module_dim
        return Subspace.from_spanning(total, [eye.column(start + i) for i in range(self.base_dim)])


def build_twofold(
    a: Algebra, qrep: QuadraticRepresentation, theta: Cochain2, gamma: ScalarForm
) -> TwofoldExtension:
    """The metric algebra d_{theta,gamma} on J + a + J*.

    Brackets: [x,y] = [x,y]_J + theta(x,y) + gamma(x,y,.);
    [x,v] = rho(x)v + B_a(theta(.,x),v); [v,w] = B_a(rho(.)v,w);
    [Z,x] = Z([x,.]); [Z, v + Z'] = 0.  Twist alpha + beta + alpha^T (the
    dual twist Z |-> Z o alpha); form pairing J with J* hyperbolically and
    restricting to B_a on a.

    All stated hypotheses are checked first and the output is re-verified;
    any failure raises PreconditionFailure naming the identity.
    """
    rep = qrep.rep
    n, m = a.dim, rep.vdim
    _require(check_representation(rep), "representation laws")
    qr, badj = check_quadratic_representation(qrep)
    _require(qr, "rho self-adjointness")
    _require(badj, "beta self-adjointness")
    if theta.rep != rep:
        raise PreconditionFailure("theta must take values in the quadratic module", identity="theta-module")
    if not theta.is_compatible():
        raise PreconditionFailure("theta violates beta o theta = theta o alpha", identity="theta-cochain")
    if gamma.degree != 3 or gamma.dim != n:
        raise PreconditionFailure("gamma must be a trilinear form on the base", identity="gamma-shape")
    if not gamma.is_fully_symmetric():
        raise PreconditionFailure("gamma must be fully symmetric to build", identity="gamma-symmetry")
    first, second = d2Q(QuadraticCochain2(theta, gamma), qrep)
    if not first.is_zero():
        raise PreconditionFailure("d2(theta) != 0", identity="quadratic-cocycle-theta")
    if not second.is_zero():
        raise PreconditionFailure(
            "d_r^3 gamma + 1/2 wedge obstruction != 0", identity="quadratic-cocycle-gamma"
        )
    _require(coadjoint_conditions_extended(a, rep, theta), "coadjoint conditions")

    result = _assemble_twofold(a, qrep, theta, gamma)
    _verify_twofold(result)
    return result


def _assemble_twofold(
    a: Algebra, qrep: QuadraticRepresentation, theta: Cochain2, gamma: ScalarForm
) -> TwofoldExtension:
    """The raw bracket/twist/form tables on J + a + J*, no hypothesis gate."""
    rep = qrep.rep
    n, m = a.dim, rep.vdim
    total = n + m + n
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            jpart = tuple(a.bracket_basis(i, j))
            apart = tuple(theta.value(i, j))
            dpart = tuple(gamma.value(i, j, k) for k in range(n))
            brackets[(i, j)] = jpart + apart + dpart
    for i in range(n):
        for p in range(m):
            apart = tuple(rep.rho[i].column(p))
            dpart = tuple(
                qrep.pair(theta.value(k, i), _unit(m, p)) for k in range(n)
            )
            brackets[(i, n + p)] = zero_vector(n) + apart + dpart
    for p in range(m):
        for q in range(p, m):
            dpart = tuple(
                qrep.pair(rep.rho[i].column(p), _unit(m, q)) for i in range(n)
            )
            brackets[(n + p, n + q)] = zero_vector(n + m) + dpart
    for i in range(n):
        for j in range(n):
            # [e_i^*, e_j] = sum_k c[j][k][i] e_k^*
            dpart = tuple(a.bracket_tensor[j][k][i] for k in range(n))
            brackets[(j, n + m + i)] = zero_vector(n + m) + dpart
    alpha_rows = []
    for i in range(n):
        alpha_rows.append(tuple(a.alpha.row(i)) + zero_vector(m + n))
    for p in range(m):
        alpha_rows.append(zero_vector(n) + tuple(rep.beta.row(p)) + zero_vector(n))
    alpha_t = a.alpha.transpose()
    for i in range(n):
        alpha_rows.append(zero_vector(n + m) + tuple(alpha_t.row(i)))
    form_rows = []
    for i in range(n):
        form_rows.append(zero_vector(n + m) + tuple(ONE if j == i else ZERO for j in range(n)))
    for p in range(m):
        form_rows.append(zero_vector(n) + tuple(qrep.form.row(p)) + zero_vector(n))
    for i in range(n):
        form_rows.append(tuple(ONE if j == i else ZERO for j in range(n)) + zero_vector(m + n))
    algebra = Algebra.from_brackets(total, brackets, Matrix.from_rows(alpha_rows))
    metric = MetricAlgebra(algebra, Matrix.from_rows(form_rows))
    return TwofoldExtension(metric, n, m, theta, gamma, qrep)


def _verify_twofold(result: TwofoldExtension):
    metric = result.metric
    algebra = metric.algebra
    report = check_metric(metric)
    if not (report.passed and report.axioms_passed):
        raise PreconditionFailure(
            "twofold output failed metric verification:\n" + report.describe(),
            identity="output-metric",
        )
    crit = metric_criterion(metric, report)
    if not crit.passed:
        raise PreconditionFailure(
            "twofold output failed the gamma criterion:\n" + crit.describe(),
            identity="output-criterion",
        )
    dual = SubspaceOfAlgebra(algebra, result.dual_block())
    if not (is_ideal(algebra, dual) and is_isotropic(metric, dual)):
        raise PreconditionFailure("dual block is not an isotropic ideal", identity="output-dual-block")


def _unit(m: int, p: int):
    return tuple(ONE if q == p else ZERO for q in range(m))


def _require(report, label: str):
    if not report.passed:
        raise PreconditionFailure(
            f"{label} fail:\n{report.describe()}",
            identity=report.name,
            residual=report.violations[0].residual if report.violations else None,
        )


# ---------------------------------------------------------------------------
# Equivalence of twofold extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwofoldEquivalence:
    map: LinearMapBetweenAlgebras
    source: TwofoldExtension  # built from (theta', gamma')
    target: TwofoldExtension  # built from (theta, gamma)
    homomorphism: object  # CheckReport
    isometry: bool

    @property
    def verified(self) -> bool:
        return self.homomorphism.passed and self.isometry


def twofold_equivalence_map(
    a: Algebra,
    qrep: QuadraticRepresentation,
    tau: Cochain1,
    sigma: ScalarForm,
    theta: Optional[Cochain2] = None,
    gamma: Optional[ScalarForm] = None,
) -> TwofoldEquivalence:
    """Phi(x + v + Z) = x + (v - tau(x))
    + (Z - sigma(x, .) - 1/2 B_a(tau(x), tau(.)) + B_a(v, tau(.)))
    from d_{theta',gamma'} to d_{theta,gamma}, where

        theta' = theta + d1 tau,
        gamma' = gamma + d_r^2 sigma - B_a(tau ^ (theta + 1/2 d1 tau)).

    Requires d_c^2 theta = 0 (the shift theorem's hypothesis).  The source
    definition of Phi omits the sigma term its own verification uses; the
    term list here is fixed by requiring the bracket-homomorphism property
    to hold identically (which the sigma term does, given the quadratic
    representation laws).  Twist-commutation then holds exactly when sigma
    has the dual-twist compatibility (C2_r), and the isometry property
    exactly when sigma is antisymmetric; both are verified on the returned
    object rather than assumed.
    """
    rep = qrep.rep
    n, m = a.dim, rep.vdim
    if theta is None:
        theta = Cochain2.zero(rep)
    if gamma is None:
        gamma = ScalarForm.zero(n, 3)
    if not dc2(theta).is_zero():
        raise PreconditionFailure("d_c^2(theta) != 0", identity="dc2-theta")
    QuadraticCochain1(tau, sigma)  # validates the pair's compatibility laws
    dtau = d1(tau)
    theta2 = theta + dtau
    shift = wedge12(tau, theta + dtau.scale(QQ(1, 2)), qrep.form)
    gamma2 = gamma + dr2(a, sigma) - shift
    # assemble both sides directly: the shifted cocycle can violate the
    # extended coadjoint condition even though the shifted algebra is
    # isomorphic to the original, so the full build gate would over-reject;
    # both outputs are verified as metric algebras below instead
    target = _assemble_twofold(a, qrep, theta, gamma)
    source = _assemble_twofold(a, qrep, theta2, gamma2)
    _verify_twofold(target)
    _verify_twofold(source)

    total = n + m + n
    rows = []
    for i in range(n):
        rows.append(tuple(ONE if j == i else ZERO for j in range(n)) + zero_vector(m + n))
    for p in range(m):
        rows.append(
            tuple(-tau.coeffs.entry(p, j) for j in range(n))
            + tuple(ONE if q == p else ZERO for q in range(m))
            + zero_vector(n)
        )
    half = QQ(1, 2)
    for j in range(n):
        jpart = tuple(
            -sigma.value(i, j) - half * qrep.pair(tau.value(i), tau.value(j)) for i in range(n)
        )
        apart = tuple(qrep.pair(_unit(m, p), tau.value(j)) for p in range(m))
        rows.append(jpart + apart + tuple(ONE if k == j else ZERO for k in range(n)))
    phi = LinearMapBetweenAlgebras(
        source.metric.algebra, target.metric.algebra, Matrix.from_rows(rows)
    )
    hom = check_homomorphism(phi)
    b = target.metric.form
    isometry = (phi.matrix.transpose() @ b @ phi.matrix) == source.metric.form
    return TwofoldEquivalence(phi, source, target, hom, isometry)
