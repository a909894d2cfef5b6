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
    _per_object,
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
    _dr3_terms,
    _expand_sorted,
    _pair_positions,
    _sorted_rows,
    _triples,
    c2r_space,
    compute_H2,
    d1,
    d2,
    dc2,
    dr2,
    pairs,
    scalar3_sym12_to_vector,
)
from .errors import ContainmentViolation, NotACochain, PreconditionFailure
from .linalg import Matrix, Subspace, block, image_basis, kernel_basis, zero_vector
from .metric import MetricAlgebra, check_metric, is_isotropic, metric_criterion
from .representations import (
    QuadraticRepresentation,
    check_quadratic_representation,
    check_representation,
    coadjoint_conditions_extended,
)
from .scalars import QQ, ZERO

# (2,2)- and (1,2)-shuffles: permutations increasing on each block
_SH22 = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))
_SH12 = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


@dataclass(frozen=True)
class QuadraticCochain2:
    theta: Cochain2
    gamma: ScalarForm  # degree 3

    def __post_init__(self):
        if self.gamma.degree != 3 or self.gamma.dim != self.theta.rep.algebra.dim:
            raise NotACochain("gamma must be a trilinear form on the algebra")
        if not self.theta.is_compatible():
            raise NotACochain("theta must satisfy beta o theta = theta o alpha")
        if not self.gamma.is_symmetric12():
            raise NotACochain("gamma must be symmetric in its first two slots")


@dataclass(frozen=True)
class QuadraticCochain1:
    tau: Cochain1
    sigma: ScalarForm  # degree 2

    def __post_init__(self):
        if self.sigma.degree != 2 or self.sigma.dim != self.tau.rep.algebra.dim:
            raise NotACochain("sigma must be a bilinear form on the algebra")
        if not self.tau.is_compatible():
            raise NotACochain("tau must satisfy tau o alpha = beta o tau")


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
    n = gamma.dim
    rows = _gamma_matrix(theta.rep.algebra).apply(scalar3_sym12_to_vector(gamma))
    dr3_part = ScalarForm(n, 4, _expand_sorted(n, rows, n, product(range(n), repeat=3)))
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
    # linear gamma-condition: dr3(gamma)(. , . , . , alpha .) = 0
    gamma_matrix = _gamma_matrix(a)
    gamma_kernel = kernel_basis(gamma_matrix)
    gamma_image = image_basis(_dr2_matrix(a) @ c2r_space(a).matrix().transpose())
    if not gamma_kernel.contains_subspace(gamma_image):
        raise ContainmentViolation("dr2(C2_r) is not inside the gamma-cocycle kernel")

    theta_dims = (h2.c2.dim, h2.z2.dim, h2.b2.dim)
    gamma_dims = (gamma_matrix.cols, gamma_kernel.dim, gamma_image.dim)  # cols: sym12 coordinates

    # wedge obstruction, polarised over the Z2 basis
    z_basis = [Cochain2.from_vector(rep, v) for v in h2.z2.basis]
    obstruction_free = all(
        (wedge(ti, tj.twist_arguments(), qrep.form) + wedge(tj, ti.twist_arguments(), qrep.form)).is_zero()
        for i, ti in enumerate(z_basis)
        for tj in z_basis[i:]
    )

    if obstruction_free:
        h2q_dim = (h2.z2.dim - h2.b2.dim) + (gamma_kernel.dim - gamma_image.dim)
        return H2QResult("linear", theta_dims, gamma_dims, h2q_dim, tuple(z_basis))

    # quadratic obstruction present: is the affine gamma-equation over each
    # theta solvable, i.e. is its target in the column space of the condition?
    gamma_columns = image_basis(gamma_matrix)
    fibers = [FiberInfo(Cochain2.zero(rep), True, gamma_kernel.dim)]
    for t in z_basis:
        rhs = wedge(t, t.twist_arguments(), qrep.form).scale(QQ(-1, 2))
        # the condition's image is symmetric in slots 1-3: a target that is
        # not lies outside it, one that is lies inside when its sorted rows do
        rows = _sorted_rows(rhs)
        symmetric = _expand_sorted(n, rows, n, product(range(n), repeat=3)) == rhs.coords
        solvable = symmetric and gamma_columns.contains(rows)
        fibers.append(FiberInfo(t, solvable, gamma_kernel.dim if solvable else None))
    if h2.z2.dim == 1 and not fibers[1].solvable:
        # the single theta-direction is killed over QQ: only theta = 0 remains
        h2q_dim = gamma_kernel.dim - gamma_image.dim
        return H2QResult("theta-pinned", theta_dims, gamma_dims, h2q_dim, (), tuple(fibers))
    return H2QResult("fibered", theta_dims, gamma_dims, None, tuple(z_basis), tuple(fibers))


@_per_object
def _gamma_matrix(a: Algebra) -> Matrix:
    """The gamma condition gamma |-> d_r^3 gamma(x, y, z, alpha(l)) as one
    exact matrix, kept per algebra: rows (triple, l) at the sorted triples,
    columns the sym12 coordinates (pair, t) of gamma."""
    n = a.dim
    _, alpha_cols, _ = _structure_tables(a)
    pos = _pair_positions(n)
    ncols = len(pairs(n)) * n
    rows = []
    for (i, j, k), l in product(_triples(n), range(n)):
        row = [ZERO] * ncols
        for t, y in alpha_cols[l]:
            for x, (p, q, u) in _dr3_terms(a, i, j, k, t):
                row[pos[p, q] * n + u] += x * y
        rows.append(tuple(row))
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
        n = self.base_dim
        span = block([[Matrix.zero(n, n + self.module_dim), Matrix.identity(n)]])
        return Subspace.from_spanning(self.metric.algebra.dim, span.entries)


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
    rep, form = qrep.rep, qrep.form
    n, m = a.dim, rep.vdim
    pos = _pair_positions(n)
    theta_b = (_pair_values(theta) @ form).entries  # row pos[k, i]: B_a(theta(e_k, e_i), .)
    rho_b = [(r.transpose() @ form).entries for r in rep.rho]  # rho_b[i][p]: B_a(rho(e_i) v_p, .)
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            dpart = tuple(gamma.value(i, j, k) for k in range(n))
            brackets[(i, j)] = a.bracket_basis(i, j) + theta.value(i, j) + dpart
    for i in range(n):
        for p in range(m):
            dpart = tuple(theta_b[pos[k, i]][p] for k in range(n))
            brackets[(i, n + p)] = zero_vector(n) + rep.rho[i].column(p) + dpart
    for p in range(m):
        for q in range(p, m):
            brackets[(n + p, n + q)] = zero_vector(n + m) + tuple(rho_b[i][p][q] for i in range(n))
    for i in range(n):
        for j in range(n):
            # [e_i^*, e_j] = sum_k c[j][k][i] e_k^*
            dpart = tuple(a.bracket_tensor[j][k][i] for k in range(n))
            brackets[(j, n + m + i)] = zero_vector(n + m) + dpart
    twist = block([[a.alpha, None, None], [None, rep.beta, None], [None, None, a.alpha.transpose()]])
    eye = Matrix.identity(n)
    hyperbolic = block([[None, None, eye], [None, form, None], [eye, None, None]])
    algebra = Algebra.from_brackets(n + m + n, brackets, twist)
    return TwofoldExtension(MetricAlgebra(algebra, hyperbolic), n, m, theta, gamma, qrep)


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

    # rows J, a, J* of Phi; Sigma_ij = sigma(e_i, e_j) and B_a is symmetric
    tau_b = (qrep.form @ tau.coeffs).transpose()  # row j: B_a(tau(e_j), .)
    sigma_m = Matrix(n, n, tuple(sigma.coords[i * n:(i + 1) * n] for i in range(n)))
    dual_j = (sigma_m + (tau_b @ tau.coeffs).scale(QQ(1, 2))).transpose().scale(-1)
    eye = Matrix.identity(n)
    matrix = block([[eye, None, None], [tau.coeffs.scale(-1), Matrix.identity(m), None], [dual_j, tau_b, eye]])
    phi = LinearMapBetweenAlgebras(source.metric.algebra, target.metric.algebra, matrix)
    hom = check_homomorphism(phi)
    b = target.metric.form
    isometry = (phi.matrix.transpose() @ b @ phi.matrix) == source.metric.form
    return TwofoldEquivalence(phi, source, target, hom, isometry)
