import json

import pytest

from hjj import QQ, Matrix
from hjj.algebra import Algebra
from hjj.catalog import instantiate
from hjj.cohomology import Cochain1, Cochain2, ScalarForm
from hjj.documents import (
    algebra_from_payload,
    algebra_to_payload,
    canonical_algebra_document,
    cochain_from_payload,
    cochain1_to_payload,
    cochain2_to_payload,
    emit_document,
    make_document,
    metric_from_payload,
    metric_to_payload,
    parse_document,
    representation_from_payload,
    representation_to_payload,
    scalar_form_to_payload,
)
from hjj.errors import ParseError, SchemaError
from hjj.metric import MetricAlgebra
from hjj.representations import Representation

MINIMAL = """
{
  "kind": "algebra",
  "version": "1",
  "payload": {
    "dim": 1,
    "alpha": [["1"]],
    "bracket": [[["0"]]]
  }
}
"""


def test_minimal_roundtrip_byte_identical():
    doc = parse_document(MINIMAL)
    text = emit_document(doc)
    again = parse_document(text)
    assert again == doc
    assert emit_document(again) == text  # canonical emit is a fixed point


def test_algebra_roundtrip():
    a = instantiate("J^2_{2,1}", {"a": QQ(1, 2)})
    payload = algebra_to_payload(a)
    assert algebra_from_payload(payload) == a
    doc = canonical_algebra_document(a)
    assert algebra_from_payload(parse_document(emit_document(doc)).payload) == a


def test_rational_normalisation_on_emit():
    payload = {
        "dim": 1,
        "alpha": [["4/6"]],
        "bracket": [[["0"]]],
    }
    a = algebra_from_payload(payload)
    assert a.alpha.entry(0, 0) == QQ(2, 3)
    out = algebra_to_payload(a)
    assert out["alpha"] == [["2/3"]]


def test_floats_rejected():
    text = json.dumps(
        {"kind": "algebra", "version": "1", "payload": {"dim": 1, "alpha": [[0.5]], "bracket": [[["0"]]]}}
    )
    with pytest.raises(SchemaError):
        parse_document(text)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_document("{ not json }")
    assert err.value.line == 1


def test_schema_errors_name_fields():
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps({"kind": "nope", "version": "1", "payload": {}}))
    assert err.value.field == "kind"
    with pytest.raises(SchemaError):
        algebra_from_payload({"dim": 2, "alpha": [["1"]], "bracket": []})
    with pytest.raises(SchemaError) as err2:
        algebra_from_payload(
            {"dim": 1, "alpha": [["1"]], "bracket": [[["1/0"]]]}
        )
    assert err2.value.field == "bracket"
    # asymmetric bracket rejected at validation
    with pytest.raises(SchemaError):
        algebra_from_payload(
            {
                "dim": 2,
                "alpha": [["1", "0"], ["0", "1"]],
                "bracket": [
                    [["0", "0"], ["1", "0"]],
                    [["0", "0"], ["0", "0"]],
                ],
            }
        )


def test_representation_roundtrip():
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(a, 1, Matrix.from_rows([[QQ(4)]]))
    payload = representation_to_payload(rep)
    back = representation_from_payload(payload, a)
    assert back == rep


def test_cochain_payloads():
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(a, 1, Matrix.from_rows([[QQ(4)]]))
    theta = Cochain2.from_entries(rep, {(0, 0): [QQ(1, 3)]})
    payload = cochain2_to_payload(theta)
    assert payload == {"degree": 2, "target": "module", "coeffs": [[["1/3"], ["0"]], [["0"], ["0"]]]}
    back = cochain_from_payload(payload, rep=rep)
    assert back == theta
    f = Cochain1(rep, Matrix.from_rows([[0, 1]]))
    back1 = cochain_from_payload(cochain1_to_payload(f), rep=rep)
    assert back1 == f
    gamma = ScalarForm.from_entries(2, 3, {(0, 0, 1): QQ(5)}, symmetrize=True)
    back3 = cochain_from_payload(scalar_form_to_payload(gamma), algebra=a)
    assert back3 == gamma

    # scalar forms nest `degree` deep in product order, also when dim is 1
    line = Algebra.abelian(1, Matrix.identity(1))
    forms = [
        (line, ScalarForm.from_entries(1, 3, {(0, 0, 0): QQ(-2, 3)}), [[["-2/3"]]]),
        (a, ScalarForm.from_entries(2, 2, {(0, 1): QQ(5), (1, 0): QQ(-1, 2)}), [["0", "5"], ["-1/2", "0"]]),
        (
            a,
            ScalarForm.from_entries(
                2, 4, {(0, 0, 0, 1): QQ(3), (0, 1, 1, 0): QQ(1, 2), (1, 1, 1, 0): QQ(-1)}
            ),
            [
                [[["0", "3"], ["0", "0"]], [["0", "0"], ["1/2", "0"]]],
                [[["0", "0"], ["0", "0"]], [["0", "0"], ["-1", "0"]]],
            ],
        ),
    ]
    for algebra, form, coeffs in forms:
        payload = scalar_form_to_payload(form)
        assert payload == {"degree": form.degree, "target": "scalar", "coeffs": coeffs}
        assert cochain_from_payload(payload, algebra=algebra) == form

    asymmetric = {"degree": 2, "target": "module", "coeffs": [[["1"], ["2"]], [["3"], ["4"]]]}
    with pytest.raises(SchemaError) as err:
        cochain_from_payload(asymmetric, rep=rep)
    assert err.value.field == "coeffs"
    assert str(err.value) == "2-cochain not symmetric at (0, 1)"


def test_metric_roundtrip():
    a = Algebra.abelian(2, Matrix.identity(2))
    m = MetricAlgebra(a, Matrix.diagonal([1, -1]))
    payload = metric_to_payload(m, blocks={"base_dim": 1})
    back = metric_from_payload(payload)
    assert back == m
    doc = make_document("metric-algebra", payload)
    assert parse_document(emit_document(doc)).payload["blocks"] == {"base_dim": 1}


def test_version_check():
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps({"kind": "algebra", "version": "2", "payload": {}}))
    assert err.value.field == "version"
