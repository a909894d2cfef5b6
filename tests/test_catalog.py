from itertools import product

import pytest

from hjj import QQ, Matrix
from hjj.algebra import (
    _spectrum,
    check_hom_jacobi,
    check_multiplicative,
    derived_series,
    is_regular,
    is_solvable,
    isomorphism_invariants,
)
from hjj.catalog import (
    DEFAULT_GRID,
    catalog_list,
    classify,
    instantiate,
    match_catalog,
    verify_entry,
)
from hjj.errors import MissingParameter, SchemaError, UnknownEntry


def test_catalog_counts_and_names():
    entries = catalog_list()
    assert len([e for e in entries if e.dim == 2]) == 2
    assert len([e for e in entries if e.dim == 3]) == 17
    names = {e.name for e in entries}
    assert "J^1_{1,1}" in names and "J^{17}_{2,1}" in names
    # verbatim-printed mixed subscript conventions
    assert "J^7_{1,2}" in names and "J^5_{2,1}" in names


def test_lookup_j5():
    a = instantiate("J^5_{2,1}", {"b": 3})
    assert a.bracket_basis(1, 1) == (QQ(1), QQ(0), QQ(0))  # [e2,e2] = e1
    assert a.alpha.column(1) == (QQ(1), QQ(1), QQ(0))  # alpha(e2) = e1 + e2


def test_instantiate_examples():
    a = instantiate("J^1_{1,1}", {"a": 2})
    assert a.alpha == Matrix.diagonal([2, 4])
    b = instantiate("J^2_{2,1}", {"a": 2})
    assert b.alpha == Matrix.diagonal([2, -2, 4])
    assert b.bracket_basis(0, 0) == (QQ(0), QQ(0), QQ(1))
    assert b.bracket_basis(1, 1) == (QQ(0), QQ(0), QQ(1))
    c = instantiate("J^{10}_{1,2}", {"a": 1})
    assert c.alpha == Matrix.identity(3)
    assert c.bracket_basis(0, 2) == (QQ(0), QQ(1), QQ(0))


def test_unknown_and_missing():
    with pytest.raises(UnknownEntry):
        instantiate("J^99_{9,9}", {})
    with pytest.raises(MissingParameter):
        instantiate("J^1_{1,1}", {})
    # a parameter name the entry does not have, also beside every one it has
    for call in (instantiate, verify_entry):
        for params in ({"a": 2, "zz": 5}, {"zz": 5}):
            with pytest.raises(SchemaError) as info:
                call("J^1_{1,1}", params)
            assert info.value.field == "params" and str(info.value) == "J^1_{1,1} has no parameter 'zz'"


def test_verify_entry_passes():
    samples = {
        "J^1_{1,1}": {"a": 2},
        "J^2_{1,1}": {},
        "J^1_{2,1}": {"a": 2, "b": 3},
        "J^2_{2,1}": {"a": 2},
        "J^3_{2,1}": {"a": 2},
        "J^4_{2,1}": {"a": 2, "b": 3},
        "J^5_{2,1}": {"b": 3},
        "J^6_{2,1}": {"a": 2, "c": 1},
        "J^7_{1,2}": {"a": 2, "c": 1},
        "J^9_{1,2}": {"a": 2, "c": 1},
        "J^{16}_{2,1}": {"c": 2},
    }
    for name, params in samples.items():
        report = verify_entry(name, params)
        assert report.passed, f"{name} unexpectedly fails: {report.describe()}"


def test_verify_entry_discrepancies():
    # J^10 at a = 2: multiplicativity residual -(a^3 - a^2) e2 = -4 e2
    report = verify_entry("J^{10}_{1,2}", {"a": 2})
    assert not report.passed
    assert report.hom_jacobi.passed
    assert report.multiplicative.violations[0].residual == (QQ(0), QQ(-4), QQ(0))
    statuses = {c.text: ok for c, ok in report.constraint_status}
    assert any("a^3 - a^2" in text and not ok for text, ok in statuses.items())
    # passes at a = 1
    assert verify_entry("J^{10}_{1,2}", {"a": 1}).passed
    # J^8 at (a, x, y) = (2, 1, 1): multiplicativity residual -x(a^2 - a) e1
    report8 = verify_entry("J^8_{1,2}", {"a": 2, "x": 1, "y": 1})
    assert not report8.passed
    mult_viols = {v.where: v.residual for v in report8.multiplicative.violations}
    assert mult_viols[(0, 0)] == (QQ(-2), QQ(0), QQ(0))
    # passes when x = 0 (and then it is the J^7-type bracket at c = a^2)
    assert verify_entry("J^8_{1,2}", {"a": 2, "x": 0, "y": 1}).passed
    # a = 1 repairs multiplicativity but not the hom-jacobi residual 3ax(x e1 + y e2)
    report8b = verify_entry("J^8_{1,2}", {"a": 1, "x": 1, "y": 1})
    assert report8b.multiplicative.passed and not report8b.hom_jacobi.passed
    # J^11 carries the same a^3 - a^2 residual
    report11 = verify_entry("J^{11}_{1,2}", {"a": 2, "c": 1})
    assert not report11.multiplicative.passed
    # J^14 is unsatisfiable as printed
    report14 = verify_entry("J^{14}_{2,1}", {})
    assert not report14.multiplicative.passed
    assert any(not ok for _, ok in report14.constraint_status)
    # the e1 |-> e1 + e3 family needs c = 0 where recorded
    assert verify_entry("J^{13}_{2,1}", {"c": 0}).passed
    assert not verify_entry("J^{13}_{2,1}", {"c": 1}).passed
    assert verify_entry("J^{15}_{2,1}", {"c": 0}).passed
    assert not verify_entry("J^{17}_{2,1}", {"c": 2}).passed


def test_all_entries_pass_at_some_admissible_point():
    # every entry that is satisfiable has a grid point where all checks pass
    for entry in catalog_list():
        found = False
        unsatisfiable = any(
            c.kind == "requires" and not any(c.holds({p: g for p in entry.params}) for g in DEFAULT_GRID)
            for c in entry.constraints
            if not entry.params
        )
        if entry.name == "J^{14}_{2,1}":
            continue  # recorded as unsatisfiable
        from itertools import product as iproduct

        grids = [DEFAULT_GRID + (QQ(0),)] * len(entry.params)
        for combo in iproduct(*grids) if entry.params else [()]:
            values = dict(zip(entry.params, combo))
            if not entry.admissible(values):
                continue
            if verify_entry(entry.name, values).passed:
                found = True
                break
        assert found, f"{entry.name} never passes on the sample grid"


def test_invariants_separate_2dim_entries():
    inv1 = isomorphism_invariants(instantiate("J^1_{1,1}", {"a": 1}))
    inv2 = isomorphism_invariants(instantiate("J^2_{1,1}", {}))
    assert inv1 != inv2


def test_classify_dim2():
    outputs = classify(2)
    assert outputs
    families = {name for out in outputs for name in out.matched}
    assert families == {"J^1_{1,1}", "J^2_{1,1}"}
    for out in outputs:
        assert check_hom_jacobi(out.algebra).passed and check_multiplicative(out.algebra).passed
        assert is_solvable(out.algebra)[0]
        assert is_regular(out.algebra)
        assert out.matched, f"unmatched output {out.provenance}"
    # the diagonal branch only produces extensions at b = a^2
    diag = [o for o in outputs if o.provenance.get("branch") == "diagonal"]
    assert diag
    for o in diag:
        assert QQ(o.provenance["b"]) == QQ(o.provenance["a"]) ** 2
    jordan = [o for o in outputs if o.provenance.get("branch") == "jordan-block"]
    assert len(jordan) == 1
    assert jordan[0].matched == ("J^2_{1,1}",)


def test_classify_dim3_reproduces_expected_families():
    outputs = classify(3)
    for out in outputs:
        assert check_hom_jacobi(out.algebra).passed and check_multiplicative(out.algebra).passed
        assert is_solvable(out.algebra)[0]
        assert is_regular(out.algebra)
    families = {name for out in outputs for name in out.matched}
    # base J^1_{1,1} yields the direct-sum family J^1_{2,1}
    base_j1 = [o for o in outputs if o.provenance.get("branch") == "base J^1_{1,1}"]
    assert base_j1
    assert all(o.provenance["h2_dims"][3] == 0 for o in base_j1)
    assert any("J^1_{2,1}" in o.matched for o in base_j1)
    # the abelian branch recovers the J^2/J^3/J^4 families
    assert any("J^2_{2,1}" in f for f in families)
    assert any("J^3_{2,1}" in f for f in families)
    assert any("J^4_{2,1}" in f for f in families)
    # the Jordan-block branch reproduces the forced normal form
    jordan = [o for o in outputs if o.provenance.get("branch") == "jordan-block-3"]
    assert jordan
    for o in jordan:
        alg = o.algebra
        # twist is the full Jordan block with eigenvalue 1
        assert alg.alpha.entry(0, 0) == 1 and alg.alpha.entry(0, 1) == 1
        # brackets land in span{v}
        for i in range(3):
            for j in range(3):
                assert alg.bracket_basis(i, j)[1] == 0
                assert alg.bracket_basis(i, j)[2] == 0


def test_match_catalog_is_selective():
    a = instantiate("J^2_{2,1}", {"a": 2})
    matched = match_catalog(a)
    assert "J^2_{2,1}" in matched
    assert "J^5_{2,1}" not in matched


TWO_POINT_GRID = (QQ(2), QQ(-1, 3))
# J^2_{2,1} and J^3_{2,1} at a = 2 share alpha = diag(2, -2, 4) but not their
# centers, and classify(3) on this grid has outputs that share alpha but not
# their derived series or centers: a memo keyed on the wrong field mismatches
SHARED_ALPHA_GRID = (QQ(2), QQ(-2))


def _scan_catalog(algebra, grid):
    """Reference matcher: rescan every catalog entry, stopping at its first
    admissible grid point with the same invariants."""
    inv = isomorphism_invariants(algebra)
    names = []
    for entry in catalog_list():
        if entry.dim != algebra.dim:
            continue
        for combo in product(grid, repeat=len(entry.params)):
            values = dict(zip(entry.params, combo))
            if entry.admissible(values) and isomorphism_invariants(entry.instantiate(values)) == inv:
                names.append(entry.name)
                break
    return tuple(names)


def test_classify_computes_each_spectrum_and_derived_series_once(monkeypatch):
    import hjj.catalog

    spectra, series = [], []

    def counting_spectrum(alpha):
        spectra.append(alpha)
        return _spectrum(alpha)

    def counting_series(algebra):
        series.append(algebra.bracket_tensor)
        return derived_series(algebra)

    monkeypatch.setattr(hjj.catalog, "_spectrum", counting_spectrum)
    monkeypatch.setattr(hjj.catalog, "derived_series", counting_series)
    outputs = classify(3, TWO_POINT_GRID)
    algebras = [out.algebra for out in outputs]
    points = [
        entry.instantiate(values)
        for entry in catalog_list()
        if entry.dim == 3
        for values in (dict(zip(entry.params, combo)) for combo in product(TWO_POINT_GRID, repeat=len(entry.params)))
        if entry.admissible(values)
    ]
    polys = {(out.invariants.alpha_charpoly, out.invariants.alpha_minpoly) for out in outputs}
    surviving = [a for a in points if _spectrum(a.alpha)[:2] in polys]
    assert 0 < len(surviving) < len(points)
    # once per distinct alpha among the outputs and every catalog point
    assert len(spectra) == len(set(spectra))
    assert set(spectra) == {a.alpha for a in algebras + points}
    # once per distinct bracket among the outputs and the points that survive
    # the twist-polynomial skip
    assert len(series) == len(set(series))
    assert set(series) == {a.bracket_tensor for a in algebras + surviving}


@pytest.mark.parametrize("dim, grid", [(2, DEFAULT_GRID), (3, TWO_POINT_GRID), (3, SHARED_ALPHA_GRID)])
def test_index_matches_catalog_scan(dim, grid):
    outputs = classify(dim, grid)
    assert outputs
    for out in outputs:
        assert out.invariants == isomorphism_invariants(out.algebra), out.provenance
        expected = _scan_catalog(out.algebra, grid)
        assert out.matched == expected, out.provenance
        assert match_catalog(out.algebra, grid) == expected
