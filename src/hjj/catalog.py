"""The low-dimensional catalog and the bootstrapping classification.

``_CATALOG`` is one table: a row per printed family, in catalog order, with
its name verbatim from the source bullet, its parameters, its builder and
the constraints residual analysis records on it.  A constraint's kind fixes
its tag: an admissibility condition of the family ("domain") is PAPER, a
polynomial equation the axioms force on the parameters ("requires") is
DERIVED.  The tool never silently repairs an entry; the constraints surface
in verify reports.  A parameter name the entry does not have is rejected
(``SchemaError``, field ``params``).

The classification routine rebuilds algebras of dimension n from algebras
of dimension < n: pick a base J and a module V, solve for the module
actions, compute H2, and build one extension per coset representative.  A
separate branch handles the twist shapes that do not preserve J (full
Jordan blocks), where the normal form [u_i, u_j] = x_ij * v is forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .algebra import Algebra, Invariants, _bracket_invariants, _spectrum, center, derived_series
from .algebra import check_hom_jacobi, check_multiplicative, is_regular
from .cohomology import Cochain2, compute_H2
from .errors import MissingParameter, SchemaError, UnknownEntry
from .extensions import ExtensionSpec, build_extension
from .linalg import Matrix, vec_add, vec_scale
from .reports import CheckReport
from .representations import Representation, a2zero_candidates, check_representation, solve_representations_dim1
from .scalars import ONE, QQ, ZERO, format_scalar

DEFAULT_GRID = (QQ(-2), QQ(-1), QQ(1), QQ(2), QQ(3), QQ(1, 2))


@dataclass(frozen=True)
class Constraint:
    """One recorded condition on an entry's parameters."""

    kind: str  # "domain" (admissibility) or "requires" (axiom equation)
    text: str
    holds: Callable  # params -> bool

    @property
    def tag(self) -> str:
        """PAPER for a printed admissibility condition, DERIVED for an axiom equation."""
        return {"domain": "PAPER", "requires": "DERIVED"}[self.kind]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    params: tuple
    builder: Callable  # params dict -> (brackets dict, alpha Matrix)
    constraints: tuple = ()

    def instantiate(self, values: dict) -> Algebra:
        for k in values:
            if k not in self.params:
                raise SchemaError(f"{self.name} has no parameter {k!r}", field="params")
        missing = [p for p in self.params if p not in values]
        if missing:
            raise MissingParameter(f"{self.name} needs parameters {missing}")
        brackets, alpha = self.builder(_rationals(values))
        return Algebra.from_brackets(self.dim, brackets, alpha)

    def admissible(self, values: dict) -> bool:
        return all(c.holds(values) for c in self.constraints)


def _rationals(values: dict) -> dict:
    return {k: QQ(v) if isinstance(v, (int, str)) else v for k, v in values.items()}


def _e(n: int, i: int):
    return tuple(ONE if k == i else ZERO for k in range(n))


def _diag(*values) -> Matrix:
    return Matrix.diagonal(list(values))


def _cols(*columns) -> Matrix:
    return Matrix.from_columns(list(columns))


def _squares(a, last) -> Matrix:
    """diag(a, a^2, last): the J^1_{2,1}, J^7, J^8 and J^10 twist."""
    return _diag(a, a**2, last)


def _plus_minus(a) -> Matrix:
    """diag(a, -a, a^2): the J^2_{2,1} and J^3_{2,1} twist."""
    return _diag(a, -a, a**2)


def _upper(a, c) -> Matrix:
    """The J^9/J^11 twist: e1 |-> a e1, e2 |-> a^2 e2, e3 |-> c e2 + a^2 e3."""
    square = a**2
    return _cols((a, ZERO, ZERO), (ZERO, square, ZERO), (ZERO, c, square))


def _jordan(c) -> Matrix:
    """The J^12-J^17 twist: e1 |-> e1 + e3, e2 |-> c e1 + e2, e3 |-> e3."""
    return _cols((ONE, ZERO, ONE), (c, ONE, ZERO), (ZERO, ZERO, ONE))


def _nonzero(*names):
    text = " and ".join(f"{n} != 0" for n in names) + " (alpha invertible)"
    return Constraint("domain", text, lambda p: all(p[n] != 0 for n in names))


def _requires(text: str, holds: Callable) -> Constraint:
    return Constraint("requires", text, holds)


_A3_MINUS_A2 = _requires(
    "a^3 - a^2 = 0  (multiplicativity residual at (e1,e3))", lambda p: p["a"] ** 3 - p["a"] ** 2 == 0
)
_TWO_C = _requires("2*c = 0  (multiplicativity residual at (e2,e2))", lambda p: p["c"] == 0)

# name, dim, parameters, builder (parameters -> (brackets, alpha)), constraints
_CATALOG = (
    # -- dimension 2 ---------------------------------------------------------
    CatalogEntry("J^1_{1,1}", 2, ("a",), lambda p: ({(0, 0): _e(2, 1)}, _diag(p["a"], p["a"] ** 2)), (_nonzero("a"),)),
    CatalogEntry("J^2_{1,1}", 2, (), lambda p: ({(1, 1): _e(2, 0)}, _cols((ONE, ZERO), (ONE, ONE)))),
    # -- dimension 3, twist preserving the 2-dimensional part -----------------
    CatalogEntry("J^1_{2,1}", 3, ("a", "b"), lambda p: ({(0, 0): _e(3, 1)}, _squares(p["a"], p["b"])),
                 (_nonzero("a", "b"),)),
    CatalogEntry("J^2_{2,1}", 3, ("a",), lambda p: ({(0, 0): _e(3, 2), (1, 1): _e(3, 2)}, _plus_minus(p["a"])),
                 (_nonzero("a"),)),
    CatalogEntry("J^3_{2,1}", 3, ("a",), lambda p: ({(0, 0): _e(3, 2)}, _plus_minus(p["a"])), (_nonzero("a"),)),
    CatalogEntry("J^4_{2,1}", 3, ("a", "b"), lambda p: ({(0, 0): _e(3, 2)}, _diag(p["a"], p["b"], p["a"] ** 2)),
                 (_nonzero("a", "b"), Constraint("domain", "b^2 != a^2", lambda p: p["b"] ** 2 != p["a"] ** 2))),
    CatalogEntry("J^5_{2,1}", 3, ("b",),
                 lambda p: ({(1, 1): _e(3, 0)}, _cols((ONE, ZERO, ZERO), (ONE, ONE, ZERO), (ZERO, ZERO, p["b"]))),
                 (_nonzero("b"),)),
    CatalogEntry("J^6_{2,1}", 3, ("a", "c"),
                 lambda p: ({(1, 1): _e(3, 2)},
                            _cols((p["a"], ZERO, ZERO), (p["c"], p["a"], ZERO), (ZERO, ZERO, p["a"] ** 2))),
                 (_nonzero("a"),)),
    CatalogEntry("J^7_{1,2}", 3, ("a", "c"), lambda p: ({(0, 0): _e(3, 1)}, _squares(p["a"], p["c"])),
                 (_nonzero("a", "c"), Constraint("domain", "c != a^2", lambda p: p["c"] != p["a"] ** 2))),
    CatalogEntry("J^8_{1,2}", 3, ("a", "x", "y"),
                 lambda p: ({(0, 0): vec_add(vec_scale(p["x"], _e(3, 0)), vec_scale(p["y"], _e(3, 1)))},
                            _squares(p["a"], p["a"] ** 2)),
                 (_nonzero("a"),
                  _requires("x*(a^2 - a) = 0  (multiplicativity residual at (e1,e1))",
                            lambda p: p["x"] * (p["a"] ** 2 - p["a"]) == 0),
                  _requires("a*x^2 = 0 and a*x*y = 0  (hom-jacobi residual at (e1,e1,e1))",
                            lambda p: p["a"] * p["x"] ** 2 == 0 and p["a"] * p["x"] * p["y"] == 0))),
    CatalogEntry("J^9_{1,2}", 3, ("a", "c"), lambda p: ({(0, 0): _e(3, 1)}, _upper(p["a"], p["c"])), (_nonzero("a"),)),
    CatalogEntry("J^{10}_{1,2}", 3, ("a",), lambda p: ({(0, 2): _e(3, 1)}, _squares(p["a"], p["a"] ** 2)),
                 (_nonzero("a"), _A3_MINUS_A2)),
    CatalogEntry("J^{11}_{1,2}", 3, ("a", "c"), lambda p: ({(0, 2): _e(3, 1)}, _upper(p["a"], p["c"])),
                 (_nonzero("a"), _A3_MINUS_A2)),
    # -- dimension 3, twist with e1 |-> e1 + e3 -------------------------------
    CatalogEntry("J^{12}_{2,1}", 3, ("c", "x"),
                 lambda p: ({(0, 0): _e(3, 2), (0, 1): _e(3, 2), (1, 1): vec_scale(p["x"], _e(3, 2))},
                            _jordan(p["c"])),
                 (_requires("c = 0  (multiplicativity residual -c*e3 at (e1,e2))", lambda p: p["c"] == 0),
                  _requires("c^2 + 2*c = 0  (multiplicativity residual at (e2,e2))",
                            lambda p: p["c"] ** 2 + 2 * p["c"] == 0))),
    CatalogEntry("J^{13}_{2,1}", 3, ("c",), lambda p: ({(0, 0): _e(3, 2), (1, 1): _e(3, 2)}, _jordan(p["c"])),
                 (_requires("c = 0  (multiplicativity residuals -c*e3 at (e1,e2) and -c^2*e3 at (e2,e2))",
                            lambda p: p["c"] == 0),)),
    CatalogEntry("J^{14}_{2,1}", 3, (), lambda p: ({(0, 0): _e(3, 2)}, _jordan(ONE)),
                 (_requires("unsatisfiable: multiplicativity residual -e3 at (e2,e2) has no parameters to fix",
                            lambda p: False),)),
    CatalogEntry("J^{15}_{2,1}", 3, ("c",), lambda p: ({(0, 1): _e(3, 2), (1, 1): _e(3, 2)}, _jordan(p["c"])),
                 (_TWO_C,)),
    CatalogEntry("J^{16}_{2,1}", 3, ("c",), lambda p: ({(1, 1): _e(3, 2)}, _jordan(p["c"]))),
    CatalogEntry("J^{17}_{2,1}", 3, ("c",), lambda p: ({(0, 1): _e(3, 2)}, _jordan(p["c"])), (_TWO_C,)),
)
_BY_NAME = {entry.name: entry for entry in _CATALOG}


def catalog_list() -> tuple:
    return _CATALOG


def catalog_entry(name: str) -> CatalogEntry:
    if name not in _BY_NAME:
        raise UnknownEntry(f"no catalog entry named {name!r}")
    return _BY_NAME[name]


def instantiate(name: str, params: dict) -> Algebra:
    return catalog_entry(name).instantiate(params)


@dataclass(frozen=True)
class EntryReport:
    name: str
    params: dict
    hom_jacobi: CheckReport
    multiplicative: CheckReport
    regular: bool
    constraint_status: tuple  # (Constraint, holds?) pairs

    @property
    def passed(self) -> bool:
        return self.hom_jacobi.passed and self.multiplicative.passed and self.regular

    def describe(self) -> str:
        shown = ", ".join(f"{k}={format_scalar(v)}" for k, v in sorted(self.params.items()))
        lines = [f"{self.name} at ({shown})"]
        lines.append(self.hom_jacobi.describe())
        lines.append(self.multiplicative.describe())
        lines.append(f"regular: {self.regular}")
        for constraint, ok in self.constraint_status:
            lines.append(f"[{constraint.tag}] {constraint.text}: {'holds' if ok else 'VIOLATED'}")
        return "\n".join(lines)


def verify_entry(name: str, params: dict) -> EntryReport:
    """Instantiate and run every axiom check, reporting exact residuals and
    the recorded constraint status at these parameters."""
    entry = catalog_entry(name)
    algebra = entry.instantiate(params)
    values = _rationals(params)
    return EntryReport(
        name=name,
        params=values,
        hom_jacobi=check_hom_jacobi(algebra),
        multiplicative=check_multiplicative(algebra),
        regular=is_regular(algebra),
        constraint_status=tuple((c, c.holds(values)) for c in entry.constraints),
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyOutput:
    algebra: Algebra
    provenance: dict
    invariants: Invariants
    matched: tuple  # catalog entry names with identical invariants at some grid point


def _admissible_points(entry: CatalogEntry, grid) -> list:
    points = []
    for combo in product(grid, repeat=len(entry.params)):
        values = dict(zip(entry.params, combo))
        if entry.admissible(values):
            points.append(values)
    return points


def _invariants(algebra: Algebra, spectra: dict, structures: dict) -> Invariants:
    """``isomorphism_invariants(algebra)``, with the twist's spectrum looked
    up in ``spectra`` (keyed on alpha) and the ``(derived series, center)``
    in ``structures`` (keyed on the bracket tensor), each computed on a miss.
    The caller owns both dicts, so nothing outlives its call."""
    if algebra.bracket_tensor not in structures:
        structures[algebra.bracket_tensor] = (derived_series(algebra), center(algebra))
    return _bracket_invariants(algebra, _spectrum_in(spectra, algebra.alpha), structures[algebra.bracket_tensor])


def _spectrum_in(spectra: dict, alpha: Matrix) -> tuple:
    if alpha not in spectra:
        spectra[alpha] = _spectrum(alpha)
    return spectra[alpha]


def _catalog_index(dim: int, grid, wanted: set, spectra: dict, structures: dict) -> dict:
    """{Invariants: names} over the admissible grid points of this dimension's catalog
    entries, for the invariants in ``wanted`` only.  A point whose twist's (charpoly,
    minpoly) is no wanted one's is skipped before any bracket work: equal invariants have
    equal polynomials.  Names keep catalog order and appear once per key."""
    polys = {(inv.alpha_charpoly, inv.alpha_minpoly) for inv in wanted}
    index = {}
    for entry in _CATALOG:
        if entry.dim != dim:
            continue
        for values in _admissible_points(entry, grid):
            algebra = entry.instantiate(values)
            if _spectrum_in(spectra, algebra.alpha)[:2] not in polys:
                continue
            inv = _invariants(algebra, spectra, structures)
            if inv in wanted:
                names = index.setdefault(inv, [])
                if entry.name not in names:
                    names.append(entry.name)
    return {inv: tuple(names) for inv, names in index.items()}


def match_catalog(algebra: Algebra, grid=DEFAULT_GRID) -> tuple:
    """Names of catalog entries with identical invariants at some admissible
    grid point, looked up in an invariant index built for this call.
    Equality of invariants never claims isomorphism; a match is 'possibly
    isomorphic', a non-match is a certificate of difference."""
    spectra, structures = {}, {}
    inv = _invariants(algebra, spectra, structures)
    return _catalog_index(algebra.dim, grid, {inv}, spectra, structures).get(inv, ())


def _abelian1(a) -> Algebra:
    return Algebra.abelian(1, Matrix.from_rows([[a]]))


def _extensions_from_base(base: Algebra, beta_scalar, provenance: dict, include_zero: bool) -> list:
    """One-dimensional-module step of the algorithm: solve for rho, compute
    H2, and emit the extension of each coset representative."""
    outputs = []
    solved = solve_representations_dim1(base, beta_scalar)
    for rep in solved.representations:
        h2 = compute_H2(rep)
        thetas = list(h2.representatives)
        if len(thetas) >= 2:
            combined = thetas[0]
            for extra in thetas[1:]:
                combined = combined + extra
            thetas.append(combined)
        if include_zero or not thetas:
            thetas.append(Cochain2.zero(rep))
        for theta in thetas:
            spec = ExtensionSpec(base, rep, theta)
            built = build_extension(spec)
            info = dict(provenance)
            info.update(
                {
                    "rho": [[str(x) for x in row.entries[0]] for row in rep.rho],
                    "h2_dims": list(h2.dims),
                    "theta_zero": theta.is_zero(),
                }
            )
            outputs.append((built.algebra, info))
    return outputs


def _jordan_block_normal_form(size: int, x_values: dict) -> Algebra:
    """The forced shape when the twist is a single Jordan block on
    (v, u_1, ..., u_s): eigenvalue 1, [v, u_i] = 0, [u_i, u_j] = x_ij v."""
    n = size
    rows = []
    for i in range(n):
        rows.append(tuple(ONE if j == i else (ONE if j == i + 1 else ZERO) for j in range(n)))
    alpha = Matrix.from_rows(rows)
    brackets = {}
    for (i, j), x in x_values.items():
        brackets[(i, j)] = vec_scale(QQ(x), _e(n, 0))
    return Algebra.from_brackets(n, brackets, alpha)


def classify(dim_target: int, grid=DEFAULT_GRID) -> list:
    """Rebuild the solvable regular multiplicative algebras of the target
    dimension from smaller ones; every output passes the axiom checks.

    Deduplication is by invariants only: outputs sharing invariants are
    'possibly isomorphic', nothing more is decided.
    """
    if dim_target == 2:
        raw = _classify2(grid)
    elif dim_target == 3:
        raw = _classify3(grid)
    else:
        raise ValueError("classification is implemented for dimensions 2 and 3")
    # each distinct twist's spectrum and bracket's (derived series, center)
    # is computed once per call, for the outputs and the catalog points alike
    spectra, structures = {}, {}
    invariants = [_invariants(algebra, spectra, structures) for algebra, _ in raw]
    index = _catalog_index(dim_target, grid, set(invariants), spectra, structures)
    return [ClassifyOutput(alg, info, inv, index.get(inv, ())) for (alg, info), inv in zip(raw, invariants)]


def _classify2(grid) -> list:
    outputs = []
    nonzero = [g for g in grid if g != 0]
    # diagonal twist: base = abelian dim 1, module dim 1
    for a in nonzero:
        for b in nonzero:
            outputs.extend(
                _extensions_from_base(
                    _abelian1(a),
                    b,
                    {"branch": "diagonal", "a": str(a), "b": str(b)},
                    include_zero=False,
                )
            )
    # Jordan-block twist: eigenvalue forced to 1, brackets into span{v}
    outputs.append(
        (
            _jordan_block_normal_form(2, {(1, 1): ONE}),
            {
                "branch": "jordan-block",
                "forced": "a=1 (multiplicativity residual x*(a - a^2) at (u1,u1))",
            },
        )
    )
    # drop abelian outputs: only nonabelian families are catalogued
    return [(alg, info) for alg, info in outputs if not alg.is_abelian()]


def _classify3(grid) -> list:
    outputs = []
    nonzero = [g for g in grid if g != 0]
    sample_a = [g for g in (QQ(2), QQ(3), QQ(1, 2)) if g in grid] or nonzero[:1]
    # base J^1_{1,1}: H2 = 0, extension is the direct sum J^1_{2,1}
    for a in sample_a:
        base = instantiate("J^1_{1,1}", {"a": a})
        for b in nonzero:
            outputs.extend(
                _extensions_from_base(
                    base,
                    b,
                    {"branch": "base J^1_{1,1}", "a": str(a), "b": str(b)},
                    include_zero=True,
                )
            )
    # base J^2_{1,1}
    base = instantiate("J^2_{1,1}", {})
    for b in nonzero:
        outputs.extend(
            _extensions_from_base(
                base, b, {"branch": "base J^2_{1,1}", "b": str(b)}, include_zero=True
            )
        )
    # base abelian dim 2, diagonal twist; the module twist sweep includes the
    # products a^2, ab, b^2 where the compatible-cochain case table branches
    for a in sample_a:
        for b in nonzero:
            base = Algebra.abelian(2, _diag(a, b))
            for d in dict.fromkeys(nonzero + [a * a, a * b, b * b]):  # each once, first-seen order
                outputs.extend(
                    _extensions_from_base(
                        base,
                        d,
                        {"branch": "abelian2-diagonal", "a": str(a), "b": str(b), "d": str(d)},
                        include_zero=False,
                    )
                )
    # base abelian dim 2, Jordan twist
    for a in sample_a:
        base = Algebra.abelian(2, _cols((a, ZERO), (ONE, a)))
        for d in dict.fromkeys(nonzero + [a * a]):
            outputs.extend(
                _extensions_from_base(
                    base,
                    d,
                    {"branch": "abelian2-jordan", "a": str(a), "d": str(d)},
                    include_zero=False,
                )
            )
    # module dimension 2 over the one-dimensional base: A^2 = 0 family
    outputs.extend(_classify3_vdim2(grid))
    # twist not preserving J: full Jordan block, normal form forced
    for x in nonzero:
        outputs.append(
            (
                _jordan_block_normal_form(3, {(2, 2): x}),
                {
                    "branch": "jordan-block-3",
                    "forced": "a=1, x11=0, x12=0 (multiplicativity residuals)",
                    "x22": str(x),
                },
            )
        )
    return [(alg, info) for alg, info in outputs if not alg.is_abelian()]


def _classify3_vdim2(grid) -> list:
    """dim V = 2 over the abelian one-dimensional base.  The action matrix
    must square to zero; the compatibility between the action twist and the
    module twist pins a = 1 for a nonzero action (the same a^3 - a^2
    obstruction the catalog records for the J^10/J^11 bullets)."""
    outputs = []
    base = _abelian1(ONE)
    beta = Matrix.diagonal([ONE, ONE])
    for x1, x2 in ((ZERO, ONE), (ONE, ONE), (ONE, QQ(2))):
        action = a2zero_candidates(x1, x2)
        rep = Representation(base, 2, (action,), beta)
        if not check_representation(rep).passed:
            continue
        h2 = compute_H2(rep)
        for theta in h2.representatives or (Cochain2.zero(rep),):
            built = build_extension(ExtensionSpec(base, rep, theta))
            outputs.append(
                (
                    built.algebra,
                    {
                        "branch": "vdim2-nilpotent",
                        "x1": str(x1),
                        "x2": str(x2),
                        "h2_dims": list(h2.dims),
                    },
                )
            )
    return outputs
