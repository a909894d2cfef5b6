"""JSON exchange formats.

Every document is ``{"kind": ..., "version": "1", "payload": ...}``.
Rationals travel as decimal-integer strings or ``"p/q"`` strings, never as
floats (a float anywhere is a SchemaError).  Canonical emission sorts keys
and normalises rationals, so identical inputs produce byte-identical
output; parse(emit(d)) always equals d.

Matrix convention throughout: column j holds the coordinates of the image
of basis vector j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import Algebra
from .cohomology import Cochain1, Cochain2, ScalarForm, pairs
from .errors import ParseError, SchemaError
from .linalg import Matrix
from .metric import MetricAlgebra
from .representations import QuadraticRepresentation, Representation
from .scalars import QQ, format_scalar

VERSION = "1"
KINDS = (
    "algebra",
    "representation",
    "cochain",
    "metric-algebra",
    "extension-spec",
    "quadratic-spec",
    "report",
)


@dataclass(frozen=True)
class Document:
    kind: str
    version: str
    payload: dict


def _scalar_in(value, field: str):
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError("rationals must be strings, never floats or booleans", field=field)
    if isinstance(value, int):
        return QQ(value)
    if isinstance(value, str):
        try:
            return QQ(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {value!r}: {exc}", field=field) from exc
    raise SchemaError(f"expected a rational string, got {type(value).__name__}", field=field)


def _matrix_in(rows, field: str, shape=None) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a list of rows", field=field)
    data = [[_scalar_in(x, field) for x in r] for r in rows]
    if not data or not data[0]:
        raise SchemaError("matrix must be nonempty", field=field)
    if any(len(r) != len(data[0]) for r in data):
        raise SchemaError("matrix rows have unequal lengths", field=field)
    m = Matrix.from_rows(data)
    if shape is not None and (m.rows, m.cols) != shape:
        raise SchemaError(f"matrix must be {shape[0]}x{shape[1]}", field=field)
    return m


def _matrix_out(m: Matrix) -> list:
    return [[format_scalar(x) for x in row] for row in m.entries]


def _vector_in(values, length: int, field: str):
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError(f"expected a list of {length} rationals", field=field)
    return tuple(_scalar_in(x, field) for x in values)


# -- algebra ----------------------------------------------------------------


def algebra_to_payload(a: Algebra) -> dict:
    payload = {
        "dim": a.dim,
        "alpha": _matrix_out(a.alpha),
        "bracket": [
            [[format_scalar(x) for x in a.bracket_tensor[i][j]] for j in range(a.dim)]
            for i in range(a.dim)
        ],
    }
    if a.labels:
        payload["labels"] = list(a.labels)
    return payload


def algebra_from_payload(payload: dict) -> Algebra:
    if not isinstance(payload, dict):
        raise SchemaError("algebra payload must be an object", field="payload")
    n = payload.get("dim")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("dim must be a positive integer", field="dim")
    alpha = _matrix_in(payload.get("alpha"), "alpha", shape=(n, n))
    raw = payload.get("bracket")
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError("bracket must be an n x n x n tensor", field="bracket")
    tensor = []
    for i in range(n):
        if not isinstance(raw[i], list) or len(raw[i]) != n:
            raise SchemaError("bracket must be an n x n x n tensor", field="bracket")
        tensor.append(tuple(_vector_in(raw[i][j], n, "bracket") for j in range(n)))
    labels = payload.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != n or not all(isinstance(x, str) for x in labels)
    ):
        raise SchemaError("labels must be a list of n strings", field="labels")
    try:
        return Algebra(n, tuple(tensor), alpha, tuple(labels) if labels else None)
    except ValueError as exc:
        raise SchemaError(str(exc), field="bracket") from exc


# -- representation ----------------------------------------------------------


def representation_to_payload(r: Representation, form: Matrix = None) -> dict:
    payload = {
        "vdim": r.vdim,
        "beta": _matrix_out(r.beta),
        "rho": [_matrix_out(m) for m in r.rho],
    }
    if form is not None:
        payload["form"] = _matrix_out(form)
    return payload


def representation_from_payload(payload: dict, algebra: Algebra) -> Representation:
    if not isinstance(payload, dict):
        raise SchemaError("representation payload must be an object", field="payload")
    m = payload.get("vdim")
    if not isinstance(m, int) or m < 1:
        raise SchemaError("vdim must be a positive integer", field="vdim")
    beta = _matrix_in(payload.get("beta"), "beta", shape=(m, m))
    raw = payload.get("rho")
    if not isinstance(raw, list) or len(raw) != algebra.dim:
        raise SchemaError("rho must hold one matrix per algebra generator", field="rho")
    rho = tuple(_matrix_in(x, "rho", shape=(m, m)) for x in raw)
    return Representation(algebra, m, rho, beta)


def quadratic_representation_from_payload(payload: dict, algebra: Algebra) -> QuadraticRepresentation:
    rep = representation_from_payload(payload, algebra)
    if "form" not in payload:
        raise SchemaError("quadratic representation needs a 'form' matrix", field="form")
    form = _matrix_in(payload["form"], "form", shape=(rep.vdim, rep.vdim))
    try:
        return QuadraticRepresentation(rep, form)
    except ValueError as exc:
        raise SchemaError(str(exc), field="form") from exc


# -- cochains -----------------------------------------------------------------


def cochain1_to_payload(f: Cochain1) -> dict:
    return {"degree": 1, "target": "module", "coeffs": _matrix_out(f.coeffs)}


def cochain2_to_payload(f: Cochain2) -> dict:
    n = f.rep.algebra.dim
    return {
        "degree": 2,
        "target": "module",
        "coeffs": [[[format_scalar(x) for x in f.value(i, j)] for j in range(n)] for i in range(n)],
    }


def scalar_form_to_payload(f: ScalarForm) -> dict:
    # nested `degree` deep, since the depth cannot be read off the
    # coordinates when dim is 1 (or 0, whose form stays one empty list)
    coeffs = [format_scalar(x) for x in f.coords]
    for _ in range(f.degree - 1):
        coeffs = [coeffs[s:s + f.dim] for s in range(0, len(coeffs), f.dim or 1)]
    return {"degree": f.degree, "target": "scalar", "coeffs": coeffs}


def cochain_from_payload(payload: dict, rep: Representation = None, algebra: Algebra = None):
    """Dispatch on degree/target; module-valued cochains need rep, scalar
    forms need algebra (for the dimension)."""
    if not isinstance(payload, dict):
        raise SchemaError("cochain payload must be an object", field="payload")
    degree = payload.get("degree")
    target = payload.get("target", "module")
    coeffs = payload.get("coeffs")
    if target == "module":
        if rep is None:
            raise SchemaError("module cochain needs a representation context", field="target")
        if degree == 1:
            return Cochain1(rep, _matrix_in(coeffs, "coeffs", shape=(rep.vdim, rep.algebra.dim)))
        if degree == 2:
            n = rep.algebra.dim
            if not isinstance(coeffs, list) or len(coeffs) != n:
                raise SchemaError("2-cochain coeffs must be an n x n grid of V-vectors", field="coeffs")
            grid = []
            for i in range(n):
                if not isinstance(coeffs[i], list) or len(coeffs[i]) != n:
                    raise SchemaError("2-cochain coeffs must be an n x n grid", field="coeffs")
                grid.append(tuple(_vector_in(coeffs[i][j], rep.vdim, "coeffs") for j in range(n)))
            for i, j in pairs(n):
                if grid[i][j] != grid[j][i]:
                    raise SchemaError(f"2-cochain not symmetric at ({i}, {j})", field="coeffs")
            return Cochain2.from_entries(rep, {(i, j): grid[i][j] for i, j in pairs(n)})
        raise SchemaError("module cochains have degree 1 or 2", field="degree")
    if target == "scalar":
        if algebra is None:
            raise SchemaError("scalar form needs an algebra context", field="target")
        if degree not in (2, 3, 4):
            raise SchemaError("scalar forms have degree 2, 3 or 4", field="degree")
        n = algebra.dim

        def walk(node, d):
            if d == 0:
                return (_scalar_in(node, "coeffs"),)
            if not isinstance(node, list) or len(node) != n:
                raise SchemaError(f"scalar form coeffs must be nested lists of length {n}", field="coeffs")
            return tuple(x for child in node for x in walk(child, d - 1))

        return ScalarForm(n, degree, walk(coeffs, degree))
    raise SchemaError("target must be 'module' or 'scalar'", field="target")


# -- metric algebra -----------------------------------------------------------


def metric_to_payload(m: MetricAlgebra, blocks: dict = None) -> dict:
    payload = algebra_to_payload(m.algebra)
    payload["form"] = _matrix_out(m.form)
    if blocks:
        payload["blocks"] = blocks
    return payload


def metric_from_payload(payload: dict) -> MetricAlgebra:
    algebra = algebra_from_payload(payload)
    form = _matrix_in(payload.get("form"), "form", shape=(algebra.dim, algebra.dim))
    try:
        return MetricAlgebra(algebra, form)
    except ValueError as exc:
        raise SchemaError(str(exc), field="form") from exc


# -- document wrapper ---------------------------------------------------------


def make_document(kind: str, payload: dict) -> Document:
    return Document(kind, VERSION, payload)


def parse_document(text: str) -> Document:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(data, dict):
        raise SchemaError("document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown document kind {kind!r}", field="kind")
    version = data.get("version")
    if version != VERSION:
        raise SchemaError(f"unsupported version {version!r}", field="version")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object", field="payload")
    _reject_floats(payload, "payload")
    return Document(kind, version, payload)


def _reject_floats(node, field: str):
    if isinstance(node, float):
        raise SchemaError("rationals must be strings, floats are not exact", field=field)
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_floats(v, f"{field}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _reject_floats(v, f"{field}[{i}]")


def emit_document(doc: Document) -> str:
    body = {"kind": doc.kind, "version": doc.version, "payload": doc.payload}
    return json.dumps(body, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def canonical_algebra_document(a: Algebra) -> Document:
    return make_document("algebra", algebra_to_payload(a))
