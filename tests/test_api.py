"""The public surface that stays stable: the names ``hjj`` exports, and the
value interface of the 3-cochains the coboundary operators return."""

import types
from itertools import product

import hjj
from hjj import (
    QQ,
    Algebra,
    Cochain2,
    Matrix,
    QuadraticCochain2,
    QuadraticRepresentation,
    Representation,
    ScalarForm,
    d2,
    d2Q,
    dc2,
)

PUBLIC_NAMES = [
    "Algebra", "BACKEND", "CatalogEntry", "Cochain1", "Cochain2", "Cochain3",
    "ContainmentViolation", "DegenerateForm", "EquivalenceResult", "ExtensionAlgebra",
    "ExtensionSpec", "H2Result", "HJJError", "InvalidCocycle", "InvalidRepresentation",
    "Invariants", "LinearMapBetweenAlgebras", "Matrix", "MetricAlgebra", "MissingParameter",
    "NotACochain", "ParseError", "PreconditionFailure", "QQ", "QuadraticCochain1",
    "QuadraticCochain2", "QuadraticRepresentation", "Representation", "ScalarForm",
    "SchemaError", "Subspace", "SubspaceOfAlgebra", "TwofoldExtension", "UnknownEntry",
    "UnsupportedSystem", "a2zero_candidates", "build_extension", "build_twofold",
    "c2r_space", "c3r_space", "catalog_list", "center", "center_derived_duality", "charpoly",
    "check_hom_jacobi", "check_homomorphism", "check_metric", "check_multiplicative",
    "check_quadratic_representation", "check_representation", "classify",
    "coadjoint_condition", "coadjoint_conditions_extended", "cochain1_space",
    "cochain2_space", "compute_H2", "compute_H2Q", "d1", "d1Q", "d2", "d2Q", "dc2",
    "derived_series", "determinant", "dr2", "dr3", "equivalence_map_from_cochain",
    "extensions_equivalent", "gamma_form", "image_basis", "instantiate", "invert",
    "is_abelian_ideal", "is_ideal", "is_isomorphism", "is_isotropic", "is_regular",
    "is_solvable", "is_subalgebra", "isomorphism_invariants", "kernel_basis", "match_catalog",
    "metric_criterion", "minpoly", "nilpotent2x2", "orthogonal", "quotient_dim", "rank",
    "rref", "solve", "solve_representations_dim1", "twofold_equivalence_map", "verify_entry",
    "wedge", "wedge12",
]


def test_public_names():
    names = sorted(
        n for n, v in vars(hjj).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def _theta(beta):
    # untwisted, so every 2-cochain is compatible when beta = 1
    alg = Algebra.from_brackets(2, {(0, 0): (1, 2), (0, 1): (0, 1), (1, 1): (3, 0)}, Matrix.identity(2))
    rep = Representation(
        alg, 1, (Matrix.from_rows([[2]]), Matrix.from_rows([[-1]])), Matrix.from_rows([[beta]])
    )
    return Cochain2.from_entries(rep, {(0, 0): [1], (0, 1): [2], (1, 1): [-1]})


def _values(out):
    return [out.value(i, j, k) for i, j, k in product(range(2), repeat=3)]


def test_three_cochain_values():
    theta = _theta(1)
    qrep = QuadraticRepresentation(theta.rep, Matrix.identity(1))
    symmetric = [(QQ(x),) for x in (21, 11, 11, -5, 11, -5, -5, 21)]
    for out in (d2(theta), dc2(theta), d2Q(QuadraticCochain2(theta, ScalarForm.zero(2, 3)), qrep)[0]):
        assert not out.is_zero()
        assert _values(out) == symmetric
    # beta = 2: symmetric in the first two slots only
    out = dc2(_theta(2))
    assert _values(out) == [(QQ(x),) for x in (28, 10, 17, -8, 17, -8, -4, 28)]
    assert d2(Cochain2.zero(theta.rep)).is_zero() and dc2(Cochain2.zero(theta.rep)).is_zero()
