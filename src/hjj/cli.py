"""Batch command-line surface.

Exit codes: 0 when every checked property passes, 1 when a checked property
fails (the report lists exact residuals), 2 for input or usage errors.
Reports are human-readable by default; --json switches to machine form.
Identical inputs produce byte-identical reports: basis orders, pivot rules
and rational normal forms are all fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import documents as docs
from .algebra import check_hom_jacobi, check_multiplicative, is_regular
from .catalog import DEFAULT_GRID, catalog_entry, catalog_list, classify, instantiate, verify_entry
from .cohomology import compute_H2
from .errors import HJJError, ParseError, SchemaError
from .extensions import ExtensionSpec, build_extension, extensions_equivalent
from .metric import center_derived_duality, check_metric, metric_criterion
from .quadratic import (
    QuadraticCochain2,
    build_twofold,
    compute_H2Q,
    d2Q,
    twofold_equivalence_map,
)
from .scalars import QQ, format_scalar

GRID_ENV = "HJJ_GRID"


def _load(path: str, kind: str) -> docs.Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = docs.parse_document(handle.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if doc.kind != kind:
        raise SchemaError(f"{path}: expected a {kind!r} document, found {doc.kind!r}", field="kind")
    return doc


def _algebra(path: str):
    return docs.algebra_from_payload(_load(path, "algebra").payload)


def _check_output(path):
    """Fail before any computation when -o names a file in a missing directory."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise SchemaError(f"cannot write {path}: no such directory", field="-o")


def _write(path: str, doc: docs.Document):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(docs.emit_document(doc))


def _rational(text: str, field: str):
    try:
        return QQ(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}", field=field) from exc


def _parse_params(text: str, entry_name: str) -> dict:
    """name=value pairs of the entry's parameters; an unknown or repeated name is a usage error."""
    names = catalog_entry(entry_name).params
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise SchemaError(f"bad parameter {piece!r}, expected name=value", field="--params")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name not in names:
            raise SchemaError(f"{entry_name} has no parameter {name!r}", field="--params")
        if name in params:
            raise SchemaError(f"parameter {name!r} given twice", field="--params")
        params[name] = _rational(value, "--params")
    return params


def _parse_grid(text: str, field: str):
    values = tuple(_rational(piece, field) for piece in text.split(",") if piece.strip())
    if not values:
        raise SchemaError("empty grid", field=field)
    return values


def _emit(args, human: str, payload: dict):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


# -- subcommand handlers -------------------------------------------------------


def cmd_verify(args) -> int:
    a = _algebra(args.algebra)
    hj = check_hom_jacobi(a)
    mult = check_multiplicative(a)
    regular = is_regular(a)
    human = "\n".join([hj.describe(), mult.describe(), f"regular: {regular}"])
    _emit(args, human, {"hom_jacobi": hj.to_json(), "multiplicative": mult.to_json(), "regular": regular})
    return 0 if hj.passed and mult.passed else 1


def cmd_cohomology(args) -> int:
    a = _algebra(args.algebra)
    rep = docs.representation_from_payload(_load(args.rep, "representation").payload, a)
    result = compute_H2(rep)
    c2, z2, b2, h2 = result.dims
    human = f"dim C2={c2} dim Z2={z2} dim B2={b2} dim H2={h2}"
    payload = {"dim_C2": c2, "dim_Z2": z2, "dim_B2": b2, "dim_H2": h2}
    if args.representatives:
        payload["representatives"] = [docs.cochain2_to_payload(t) for t in result.representatives]
        for t in result.representatives:
            human += "\nrepresentative: " + json.dumps(docs.cochain2_to_payload(t)["coeffs"])
    _emit(args, human, payload)
    return 0


def cmd_extend(args) -> int:
    _check_output(args.output)
    a = _algebra(args.algebra)
    rep = docs.representation_from_payload(_load(args.rep, "representation").payload, a)
    theta = docs.cochain_from_payload(_load(args.cocycle, "cochain").payload, rep=rep)
    built = build_extension(ExtensionSpec(a, rep, theta))
    out_doc = docs.make_document("algebra", docs.algebra_to_payload(built.algebra))
    if args.output:
        _write(args.output, out_doc)
        _emit(args, f"wrote extension algebra (dim {built.algebra.dim}) to {args.output}",
              {"dim": built.algebra.dim, "output": args.output})
    else:
        _emit(args, docs.emit_document(out_doc).rstrip("\n"), {"algebra": out_doc.payload})
    return 0


def cmd_equivalent(args) -> int:
    a = _algebra(args.algebra)
    rep = docs.representation_from_payload(_load(args.rep, "representation").payload, a)
    theta1 = docs.cochain_from_payload(_load(args.theta1, "cochain").payload, rep=rep)
    theta2 = docs.cochain_from_payload(_load(args.theta2, "cochain").payload, rep=rep)
    result = extensions_equivalent(ExtensionSpec(a, rep, theta1), ExtensionSpec(a, rep, theta2))
    payload = {"equivalent": result.equivalent}
    human = f"equivalent: {result.equivalent}"
    if result.witness is not None:
        payload["witness"] = docs.cochain1_to_payload(result.witness)
        human += "\nwitness h (d1 h = theta1 - theta2): " + json.dumps(
            docs.cochain1_to_payload(result.witness)["coeffs"]
        )
    _emit(args, human, payload)
    return 0 if result.equivalent else 1


def cmd_metric_verify(args) -> int:
    m = docs.metric_from_payload(_load(args.metric, "metric-algebra").payload)
    report = check_metric(m)
    crit = metric_criterion(m, report)
    duality = center_derived_duality(m, report)
    human = "\n".join([report.describe(), crit.describe(), duality.describe()])
    payload = {
        "invariance": report.invariance.to_json(),
        "hom_invariance": report.hom_invariance.to_json(),
        "hom_jacobi": report.hom_jacobi.to_json(),
        "coadjoint": report.coadjoint.to_json(),
        "criterion_passed": crit.passed,
        "criterion_agrees": crit.agrees_with_axioms,
        "duality_passed": duality.passed,
    }
    _emit(args, human, payload)
    ok = report.passed and report.axioms_passed and crit.passed and duality.passed
    return 0 if ok else 1


def _quadratic_inputs(args):
    a = _algebra(args.algebra)
    qrep = docs.quadratic_representation_from_payload(_load(args.qrep, "representation").payload, a)
    return a, qrep


def cmd_quadratic_d2q(args) -> int:
    a, qrep = _quadratic_inputs(args)
    theta = docs.cochain_from_payload(_load(args.theta, "cochain").payload, rep=qrep.rep)
    gamma = docs.cochain_from_payload(_load(args.gamma, "cochain").payload, algebra=a)
    first, second = d2Q(QuadraticCochain2(theta, gamma), qrep)
    ok = first.is_zero() and second.is_zero()
    human = (
        f"d2(theta) = 0: {first.is_zero()}\n"
        f"gamma condition (dr3 + wedge/2) = 0: {second.is_zero()}\n"
        f"quadratic cocycle: {ok}"
    )
    _emit(args, human, {"d2_theta_zero": first.is_zero(), "gamma_condition_zero": second.is_zero(), "cocycle": ok})
    return 0 if ok else 1


def cmd_quadratic_h2q(args) -> int:
    a, qrep = _quadratic_inputs(args)
    result = compute_H2Q(a, qrep)
    payload = {
        "kind": result.kind,
        "theta_dims": list(result.theta_dims),
        "gamma_dims": list(result.gamma_dims),
        "h2q_dim": result.h2q_dim,
        "fibers": [
            {"theta_zero": f.theta.is_zero(), "solvable": f.solvable, "fiber_dim": f.fiber_dim}
            for f in result.fibers
        ],
    }
    _emit(args, result.describe(), payload)
    return 0


def cmd_quadratic_twofold(args) -> int:
    _check_output(args.output)
    a, qrep = _quadratic_inputs(args)
    theta = docs.cochain_from_payload(_load(args.theta, "cochain").payload, rep=qrep.rep)
    gamma = docs.cochain_from_payload(_load(args.gamma, "cochain").payload, algebra=a)
    built = build_twofold(a, qrep, theta, gamma)
    blocks = {"base_dim": built.base_dim, "module_dim": built.module_dim}
    out_doc = docs.make_document("metric-algebra", docs.metric_to_payload(built.metric, blocks))
    if args.output:
        _write(args.output, out_doc)
        _emit(args, f"wrote twofold extension (dim {built.metric.algebra.dim}) to {args.output}",
              {"dim": built.metric.algebra.dim, "output": args.output})
    else:
        _emit(args, docs.emit_document(out_doc).rstrip("\n"), {"metric_algebra": out_doc.payload})
    return 0


def cmd_quadratic_equivmap(args) -> int:
    a, qrep = _quadratic_inputs(args)
    tau = docs.cochain_from_payload(_load(args.tau, "cochain").payload, rep=qrep.rep)
    sigma = docs.cochain_from_payload(_load(args.sigma, "cochain").payload, algebra=a)
    theta = gamma = None
    if args.theta:
        theta = docs.cochain_from_payload(_load(args.theta, "cochain").payload, rep=qrep.rep)
    if args.gamma:
        gamma = docs.cochain_from_payload(_load(args.gamma, "cochain").payload, algebra=a)
    result = twofold_equivalence_map(a, qrep, tau, sigma, theta=theta, gamma=gamma)
    human = (
        f"{result.homomorphism.describe()}\n"
        f"isometry: {result.isometry}\n"
        f"verified equivalence: {result.verified}"
    )
    payload = {
        "homomorphism": result.homomorphism.to_json(),
        "isometry": result.isometry,
        "verified": result.verified,
        "matrix": [[format_scalar(x) for x in row] for row in result.map.matrix.entries],
    }
    _emit(args, human, payload)
    return 0 if result.verified else 1


def cmd_catalog_list(args) -> int:
    entries = catalog_list()
    lines = []
    payload = []
    for e in entries:
        params = ", ".join(e.params) if e.params else "-"
        lines.append(f"{e.name}  dim {e.dim}  params: {params}")
        payload.append({"name": e.name, "dim": e.dim, "params": list(e.params)})
    _emit(args, "\n".join(lines), {"entries": payload})
    return 0


def cmd_catalog_instantiate(args) -> int:
    _check_output(args.output)
    algebra = instantiate(args.name, _parse_params(args.params or "", args.name))
    doc = docs.make_document("algebra", docs.algebra_to_payload(algebra))
    if args.output:
        _write(args.output, doc)
        _emit(args, f"wrote {args.name} to {args.output}", {"output": args.output})
    else:
        _emit(args, docs.emit_document(doc).rstrip("\n"), {"algebra": doc.payload})
    return 0


def cmd_catalog_verify(args) -> int:
    report = verify_entry(args.name, _parse_params(args.params or "", args.name))
    payload = {
        "name": report.name,
        "passed": report.passed,
        "hom_jacobi": report.hom_jacobi.to_json(),
        "multiplicative": report.multiplicative.to_json(),
        "regular": report.regular,
        "constraints": [
            {"tag": c.tag, "kind": c.kind, "text": c.text, "holds": ok}
            for c, ok in report.constraint_status
        ],
    }
    _emit(args, report.describe(), payload)
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    _check_output(args.output)
    grid = DEFAULT_GRID
    env = os.environ.get(GRID_ENV)
    if args.grid is not None:
        grid = _parse_grid(args.grid, "--grid")
    elif env:
        grid = _parse_grid(env, GRID_ENV)
    outputs = classify(args.dim, grid)
    families = sorted({name for out in outputs for name in out.matched})
    lines = [f"outputs: {len(outputs)}", f"matched catalog families: {', '.join(families) or '-'}"]
    payload = {"outputs": [], "families": families}
    for out in outputs:
        payload["outputs"].append(
            {
                "provenance": out.provenance,
                "matched": list(out.matched),
                "invariants": out.invariants.describe(),
                "algebra": docs.algebra_to_payload(out.algebra),
            }
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        lines.append(f"full trace written to {args.output}")
    _emit(args, "\n".join(lines), payload)
    return 0


# -- argument wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjj",
        description=(
            "Exact computations with Hom-Jacobi-Jordan algebras: axiom checks, "
            "second cohomology, abelian/metric/twofold extensions, catalogs. "
            "All files are JSON documents; matrices use column j = image of "
            "basis vector j; rationals are 'p/q' strings, never floats."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the algebra axioms of a file")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cohomology", help="dim Z2 / B2 / H2 for an algebra and representation")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--representatives", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("extend", help="build the abelian extension of a cocycle")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("equivalent", help="decide equivalence of two extension cocycles")
    p.add_argument("--algebra", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--theta1", required=True)
    p.add_argument("--theta2", required=True)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("metric", help="metric-algebra operations")
    msub = p.add_subparsers(dest="metric_command", required=True)
    mv = msub.add_parser("verify", help="check the metric axioms and the gamma criterion")
    mv.add_argument("metric")
    mv.set_defaults(func=cmd_metric_verify)

    p = sub.add_parser("quadratic", help="quadratic cohomology and twofold extensions")
    qsub = p.add_subparsers(dest="quadratic_command", required=True)
    q = qsub.add_parser("d2q", help="evaluate the quadratic cocycle condition")
    q.add_argument("--algebra", required=True)
    q.add_argument("--qrep", required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--gamma", required=True)
    q.set_defaults(func=cmd_quadratic_d2q)
    q = qsub.add_parser("h2q", help="quadratic cohomology dimensions")
    q.add_argument("--algebra", required=True)
    q.add_argument("--qrep", required=True)
    q.set_defaults(func=cmd_quadratic_h2q)
    q = qsub.add_parser("twofold", help="build the twofold extension of a quadratic cocycle")
    q.add_argument("--algebra", required=True)
    q.add_argument("--qrep", required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--gamma", required=True)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_quadratic_twofold)
    q = qsub.add_parser("equivmap", help="explicit equivalence isomorphism of twofold extensions")
    q.add_argument("--algebra", required=True)
    q.add_argument("--qrep", required=True)
    q.add_argument("--tau", required=True)
    q.add_argument("--sigma", required=True)
    q.add_argument("--theta")
    q.add_argument("--gamma")
    q.set_defaults(func=cmd_quadratic_equivmap)

    p = sub.add_parser("catalog", help="the printed low-dimensional families")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    c = csub.add_parser("list", help="list entries")
    c.set_defaults(func=cmd_catalog_list)
    c = csub.add_parser("instantiate", help="instantiate an entry at parameter values")
    c.add_argument("name")
    c.add_argument("--params", default="", help="name=value, comma separated")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_catalog_instantiate)
    c = csub.add_parser("verify", help="verify an entry at parameter values")
    c.add_argument("name")
    c.add_argument("--params", default="", help="name=value, comma separated")
    c.set_defaults(func=cmd_catalog_verify)

    p = sub.add_parser("classify", help="run the bootstrapping classification")
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument(
        "--grid",
        help=f"comma-separated rationals for parameter sweeps (default {', '.join(format_scalar(g) for g in DEFAULT_GRID)}; env {GRID_ENV})",
    )
    p.add_argument("-o", "--output", help="write the full JSON trace here")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError) as exc:
        detail = f" (field {exc.field})" if isinstance(exc, SchemaError) and exc.field else ""
        if isinstance(exc, ParseError) and exc.line is not None:
            detail = f" (line {exc.line}, column {exc.column})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 2
    except HJJError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
