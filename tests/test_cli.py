import copy
import hashlib
import io
import json
import random
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hjj.cli

from hjj import QQ, Matrix
from hjj.catalog import DEFAULT_GRID, catalog_list, instantiate
from hjj.cli import main
from hjj.cohomology import Cochain1, Cochain2, ScalarForm, d1, d2
from hjj.documents import (
    algebra_to_payload,
    cochain1_to_payload,
    cochain2_to_payload,
    cochain_from_payload,
    emit_document,
    make_document,
    metric_to_payload,
    representation_to_payload,
    scalar_form_to_payload,
)
from hjj.metric import MetricAlgebra
from hjj.quadratic import compute_H2Q
from hjj.representations import Representation
from hjj.scalars import format_scalar

from .gen import random_cochain1, random_cochain2, random_pair, random_quadratic
from .oracles import BruteAlgebra, brute_h2_dims


@pytest.fixture
def files(tmp_path):
    """The worked example set: J^1_{1,1} at a=2 with its beta=4 module."""
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(a, 1, Matrix.from_rows([[QQ(4)]]))
    qpayload = representation_to_payload(rep, form=Matrix.identity(1))
    theta = Cochain2.from_entries(rep, {(0, 0): [QQ(1)]})
    zero2 = Cochain2.zero(rep)
    tau = Cochain1(rep, Matrix.from_rows([[0, 1]]))
    sigma = ScalarForm.zero(2, 2)
    gamma = ScalarForm.zero(2, 3)
    paths = {}

    def write(name, kind, payload):
        p = tmp_path / name
        p.write_text(emit_document(make_document(kind, payload)))
        paths[name] = str(p)

    write("algebra.json", "algebra", algebra_to_payload(a))
    write("rep.json", "representation", representation_to_payload(rep))
    write("qrep.json", "representation", qpayload)
    write("theta.json", "cochain", cochain2_to_payload(theta))
    write("zero2.json", "cochain", cochain2_to_payload(zero2))
    write("tau.json", "cochain", cochain1_to_payload(tau))
    write("sigma.json", "cochain", scalar_form_to_payload(sigma))
    write("gamma.json", "cochain", scalar_form_to_payload(gamma))
    bad = instantiate("J^{10}_{1,2}", {"a": 2})
    write("bad_algebra.json", "algebra", algebra_to_payload(bad))
    metric_bad = MetricAlgebra(instantiate("J^1_{1,1}", {"a": 2}), Matrix.identity(2))
    write("bad_metric.json", "metric-algebra", metric_to_payload(metric_bad))
    paths["tmp"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(files, capsys):
    code, out, _ = run(capsys, "verify", files["algebra.json"])
    assert code == 0
    assert "hom-jacobi: pass" in out and "multiplicative: pass" in out and "regular: True" in out


def test_verify_fail_exit1(files, capsys):
    code, out, _ = run(capsys, "verify", files["bad_algebra.json"])
    assert code == 1
    assert "multiplicative: FAIL" in out


def test_verify_json_deterministic(files, capsys):
    code1, out1, _ = run(capsys, "--json", "verify", files["algebra.json"])
    code2, out2, _ = run(capsys, "--json", "verify", files["algebra.json"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["regular"] is True


def test_cohomology(files, capsys):
    code, out, _ = run(
        capsys, "cohomology", "--algebra", files["algebra.json"], "--rep", files["rep.json"]
    )
    assert code == 0
    assert "dim Z2=1 dim B2=1 dim H2=0" in out


def test_extend_writes_output(files, capsys, tmp_path):
    out_path = str(tmp_path / "ext.json")
    code, out, _ = run(
        capsys,
        "extend",
        "--algebra",
        files["algebra.json"],
        "--rep",
        files["rep.json"],
        "--cocycle",
        files["zero2.json"],
        "-o",
        out_path,
    )
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["kind"] == "algebra" and doc["payload"]["dim"] == 3
    # the output file verifies clean
    code2, out2, _ = run(capsys, "verify", out_path)
    assert code2 == 0


def test_equivalent(files, capsys):
    code, out, _ = run(
        capsys,
        "equivalent",
        "--algebra",
        files["algebra.json"],
        "--rep",
        files["rep.json"],
        "--theta1",
        files["theta.json"],
        "--theta2",
        files["zero2.json"],
    )
    assert code == 0
    assert "equivalent: True" in out and "witness" in out


def test_metric_verify_fail(files, capsys):
    code, out, _ = run(capsys, "metric", "verify", files["bad_metric.json"])
    assert code == 1
    assert "invariance: FAIL" in out


@pytest.mark.parametrize("twofold", [False, True])
def test_metric_verify_checks_metric_once(files, capsys, tmp_path, monkeypatch, twofold):
    import hjj.cli
    import hjj.metric

    path = files["bad_metric.json"]
    if twofold:
        path = str(tmp_path / "twofold.json")
        inputs = ["--algebra", files["algebra.json"], "--qrep", files["qrep.json"]]
        cocycle = ["--theta", files["zero2.json"], "--gamma", files["gamma.json"]]
        assert run(capsys, "quadratic", "twofold", *inputs, *cocycle, "-o", path)[0] == 0
    calls = []
    check_metric = hjj.metric.check_metric

    def counting(m):
        calls.append(m)
        return check_metric(m)

    monkeypatch.setattr(hjj.metric, "check_metric", counting)
    monkeypatch.setattr(hjj.cli, "check_metric", counting)
    code, _, _ = run(capsys, "--json", "metric", "verify", path)
    assert code == (0 if twofold else 1)
    assert len(calls) == 1


def test_quadratic_twofold_and_metric_verify(files, capsys, tmp_path):
    out_path = str(tmp_path / "twofold.json")
    code, out, _ = run(
        capsys,
        "quadratic",
        "twofold",
        "--algebra",
        files["algebra.json"],
        "--qrep",
        files["qrep.json"],
        "--theta",
        files["zero2.json"],
        "--gamma",
        files["gamma.json"],
        "-o",
        out_path,
    )
    assert code == 0
    code2, out2, _ = run(capsys, "metric", "verify", out_path)
    assert code2 == 0
    assert "criterion vs axioms agree: True" in out2


def test_quadratic_d2q_and_h2q(files, capsys):
    code, out, _ = run(
        capsys,
        "quadratic",
        "d2q",
        "--algebra",
        files["algebra.json"],
        "--qrep",
        files["qrep.json"],
        "--theta",
        files["theta.json"],
        "--gamma",
        files["gamma.json"],
    )
    # the wedge term obstructs this (theta, 0): 1/2 * 6 * a^2 != 0
    assert code == 1
    assert "quadratic cocycle: False" in out
    code0, out0, _ = run(
        capsys,
        "quadratic",
        "d2q",
        "--algebra",
        files["algebra.json"],
        "--qrep",
        files["qrep.json"],
        "--theta",
        files["zero2.json"],
        "--gamma",
        files["gamma.json"],
    )
    assert code0 == 0
    assert "quadratic cocycle: True" in out0
    code2, out2, _ = run(
        capsys, "quadratic", "h2q", "--algebra", files["algebra.json"], "--qrep", files["qrep.json"]
    )
    assert code2 == 0
    assert "theta sector" in out2


def test_quadratic_equivmap(files, capsys):
    code, out, _ = run(
        capsys,
        "quadratic",
        "equivmap",
        "--algebra",
        files["algebra.json"],
        "--qrep",
        files["qrep.json"],
        "--tau",
        files["tau.json"],
        "--sigma",
        files["sigma.json"],
    )
    assert code == 0
    assert "verified equivalence: True" in out


def test_quadratic_d2q_incompatible_theta_exit2(files, capsys, tmp_path):
    # the worked-example theta violates beta o theta = theta o alpha for beta = 7
    a = instantiate("J^1_{1,1}", {"a": 2})
    rep = Representation.zero_action(a, 1, Matrix.from_rows([[QQ(7)]]))
    qrep = tmp_path / "qrep7.json"
    payload = representation_to_payload(rep, form=Matrix.identity(1))
    qrep.write_text(emit_document(make_document("representation", payload)))
    code, out, err = run(
        capsys, "quadratic", "d2q", "--algebra", files["algebra.json"], "--qrep", str(qrep),
        "--theta", files["theta.json"], "--gamma", files["gamma.json"],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_quadratic_equivmap_incompatible_tau_exit2(files, capsys, tmp_path):
    # tau(e1) = 1 violates tau o alpha = beta o tau
    rep = Representation.zero_action(instantiate("J^1_{1,1}", {"a": 2}), 1, Matrix.from_rows([[QQ(4)]]))
    tau = tmp_path / "tau10.json"
    payload = cochain1_to_payload(Cochain1(rep, Matrix.from_rows([[1, 0]])))
    tau.write_text(emit_document(make_document("cochain", payload)))
    code, out, err = run(
        capsys, "quadratic", "equivmap", "--algebra", files["algebra.json"], "--qrep", files["qrep.json"],
        "--tau", str(tau), "--sigma", files["sigma.json"],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_catalog_commands(files, capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "J^1_{1,1}" in out
    code, out, _ = run(capsys, "catalog", "verify", "J^{10}_{1,2}", "--params", "a=2")
    assert code == 1
    assert "a^3 - a^2" in out and "VIOLATED" in out
    code, out, _ = run(capsys, "catalog", "verify", "J^1_{1,1}", "--params", "a=2")
    assert code == 0
    out_path = str(tmp_path / "inst.json")
    code, out, _ = run(
        capsys, "catalog", "instantiate", "J^1_{1,1}", "--params", "a=1/2", "-o", out_path
    )
    assert code == 0
    code, _, _ = run(capsys, "verify", out_path)
    assert code == 0


# SHA-256 of the stdout of `hjj --json catalog list`, then of `hjj --json catalog
# verify` for every entry at every point of DEFAULT_GRID + (0,), in catalog order:
# names, parameters, constraint texts, tags and kinds, residuals and verdicts
CATALOG_SURFACE_SHA256 = "fabe4167cf32fb1eb96c7902fa9b022001191acb429eb7ea9bfae0adf60e4270"


def test_printed_catalog_surface_is_pinned(capsys):
    digest = hashlib.sha256()
    code, out, _ = run(capsys, "--json", "catalog", "list")
    digest.update(out.encode())
    for entry in catalog_list():
        for combo in product(DEFAULT_GRID + (QQ(0),), repeat=len(entry.params)):
            params = ",".join(f"{k}={format_scalar(v)}" for k, v in zip(entry.params, combo))
            code, out, err = run(capsys, "--json", "catalog", "verify", entry.name, f"--params={params}")
            assert code in (0, 1) and err == "", (entry.name, params, err)
            digest.update(out.encode())
    assert digest.hexdigest() == CATALOG_SURFACE_SHA256


def test_classify_cli(files, capsys, tmp_path, monkeypatch):
    out_path = str(tmp_path / "classify.json")
    code, out, _ = run(capsys, "classify", "--dim", "2", "--grid", "2,4,-2", "-o", out_path)
    assert code == 0
    assert "J^1_{1,1}" in out and "J^2_{1,1}" in out
    trace = json.loads(open(out_path).read())
    assert trace["families"] == ["J^1_{1,1}", "J^2_{1,1}"]
    # HJJ_GRID env override is honoured
    monkeypatch.setenv("HJJ_GRID", "3,-3")
    code, out, _ = run(capsys, "classify", "--dim", "2")
    assert code == 0


def test_usage_errors_exit2(files, capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    # wrong document kind
    code, _, err = run(capsys, "verify", files["theta.json"])
    assert code == 2 and "expected" in err
    # bad parameter syntax
    code, _, err = run(capsys, "catalog", "verify", "J^1_{1,1}", "--params", "a=0.5")
    assert code == 2
    # an unknown or a repeated parameter name, for verify and instantiate
    for command in ("verify", "instantiate"):
        code, out, err = run(capsys, "catalog", command, "J^1_{1,1}", "--params", "a=2,zz=5")
        assert code == 2 and "'zz'" in err and "field --params" in err and out == ""
        code, out, err = run(capsys, "catalog", command, "J^1_{1,1}", "--params", "a=2,a=3")
        assert code == 2 and "given twice" in err and "field --params" in err and out == ""
    # bad classify grid, from the flag or from HJJ_GRID
    for grid in ("1,abc", "1/0", ""):
        code, _, err = run(capsys, "classify", "--dim", "2", "--grid", grid)
        assert code == 2 and "field --grid" in err and "Traceback" not in err
    monkeypatch.setenv("HJJ_GRID", "x")
    code, _, err = run(capsys, "classify", "--dim", "2")
    assert code == 2 and "field HJJ_GRID" in err and "Traceback" not in err


def test_output_into_missing_directory_exits2_before_computing(files, capsys, tmp_path, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("computed before checking -o")

    for name in ("classify", "build_extension", "build_twofold", "instantiate"):
        monkeypatch.setattr(hjj.cli, name, computed)
    missing = str(tmp_path / "missing" / "out.json")
    inputs = ["--algebra", files["algebra.json"]]
    for argv in (
        ["classify", "--dim", "3"],
        ["extend", *inputs, "--rep", files["rep.json"], "--cocycle", files["zero2.json"]],
        ["quadratic", "twofold", *inputs, "--qrep", files["qrep.json"],
         "--theta", files["zero2.json"], "--gamma", files["gamma.json"]],
        ["catalog", "instantiate", "J^1_{1,1}", "--params", "a=2"],
    ):
        code, out, err = run(capsys, *argv, "-o", missing)
        assert code == 2 and "field -o" in err and out == "", argv
        assert not (tmp_path / "missing").exists()


def test_internal_error_exit3(files, capsys, monkeypatch):
    """Any other exception is one stderr line with exit 3, never a traceback."""

    def boom(args):
        raise RuntimeError("stage failed\nsecond line")

    monkeypatch.setattr(hjj.cli, "cmd_verify", boom)
    code, out, err = run(capsys, "verify", files["algebra.json"])
    assert code == 3 and out == ""
    assert err == "error: internal error: RuntimeError: stage failed second line\n"
    assert "Traceback" not in err


class Overrun(BaseException):
    """Raised by time_limit; not an Exception, so main cannot map it to an
    exit code."""


@contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging the suite, if the body overruns."""
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("dim", ["2", "3"])
def test_classify_huge_grid_value_finishes(capsys, dim):
    with time_limit(10):
        code, out, _ = run(capsys, "classify", "--dim", dim, "--grid=1000003")
    assert code == 0 and "outputs:" in out


huge_rationals = st.builds(
    lambda p, q: f"{p}/{q}" if q > 1 else str(p),
    st.integers(-10**40, 10**40),
    st.integers(1, 10**30),
)


@settings(max_examples=15, deadline=None)
@given(st.lists(huge_rationals, min_size=1, max_size=3))
def test_classify_huge_grids_keep_exit_contract(values):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(20), redirect_stdout(out), redirect_stderr(err):
        code = main(["classify", "--dim", "2", "--grid=" + ",".join(values)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


# The nine commands that read documents, on the worked example set; each
# argument ending in ".json" names a file of the ``files`` fixture.
DOCUMENT_COMMANDS = (
    ("verify", "algebra.json"),
    ("cohomology", "--algebra", "algebra.json", "--rep", "rep.json"),
    ("extend", "--algebra", "algebra.json", "--rep", "rep.json", "--cocycle", "theta.json"),
    ("equivalent", "--algebra", "algebra.json", "--rep", "rep.json",
     "--theta1", "theta.json", "--theta2", "zero2.json"),
    ("metric", "verify", "bad_metric.json"),
    ("quadratic", "d2q", "--algebra", "algebra.json", "--qrep", "qrep.json",
     "--theta", "zero2.json", "--gamma", "gamma.json"),
    ("quadratic", "h2q", "--algebra", "algebra.json", "--qrep", "qrep.json"),
    ("quadratic", "twofold", "--algebra", "algebra.json", "--qrep", "qrep.json",
     "--theta", "zero2.json", "--gamma", "gamma.json"),
    ("quadratic", "equivmap", "--algebra", "algebra.json", "--qrep", "qrep.json",
     "--tau", "tau.json", "--sigma", "sigma.json"),
)

# None, a float, a bool, a huge int, a zero denominator, full-width digits,
# and wrong shapes
REPLACEMENTS = (None, 0.5, True, 10**400, "1/0", "\uff11\uff12", [], {}, "x", [[]])


def _nodes(node, path=()):
    """The path of every node of a JSON value, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(doc, path, op, replacement):
    """Delete the node at ``path`` from its dict, duplicate it in its list,
    or replace it (the root is always replaced)."""
    if not path:
        return replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete" and isinstance(parent, dict):
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = replacement
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_documents_keep_exit_contract(files, data):
    command = data.draw(st.sampled_from(DOCUMENT_COMMANDS))
    slots = [i for i, arg in enumerate(command) if arg.endswith(".json")]
    docs = {}
    for _ in range(data.draw(st.integers(1, 3))):
        slot = data.draw(st.sampled_from(slots))
        doc = docs.get(slot)
        if doc is None:
            with open(files[command[slot]]) as fh:
                doc = json.load(fh)
        path = data.draw(st.sampled_from(list(_nodes(doc))))
        op = data.draw(st.sampled_from(("delete", "duplicate", "replace")))
        docs[slot] = _mutate(doc, path, op, copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS))))
    argv = ["--json"] if data.draw(st.booleans()) else []
    for i, arg in enumerate(command):
        if i in docs:
            arg = f"{files['tmp']}/mutated{i}.json"
            with open(arg, "w") as fh:
                json.dump(docs[i], fh)
        elif arg.endswith(".json"):
            arg = files[arg]
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, docs, err.getvalue())
    assert "Traceback" not in err.getvalue()


# rationals of up to 40 digits, and parameter or grid values that are not
# rationals of the strict "p/q" syntax
rationals40 = st.builds(
    lambda p, q: f"{p}/{q}" if q > 1 else str(p),
    st.integers(-(10**40 - 1), 10**40 - 1),
    st.integers(1, 10**40 - 1),
)
BAD_VALUES = ("", " ", "1/0", "0.5", "1e3", "x", "\uff11", "--", "-", "1//2", "+")
# flags no command has, help, a stray separator, and flags of other commands
STRAY_FLAGS = ("--bogus", "-z", "-h", "--", "--json", "--dim", "--grid", "--params", "-o", "--representatives")


def _argv_fragments(files, data):
    """One catalog, classify or document-reading command line whose
    non-path arguments are drawn from valid and, about a quarter of the
    time, invalid values."""
    value = st.one_of(rationals40, rationals40, rationals40, st.sampled_from(BAD_VALUES))
    out = data.draw(st.sampled_from((None, None, f"{files['tmp']}/out.json", f"{files['tmp']}/missing/out.json")))
    output = ["-o", out] if out else []
    kind = data.draw(st.sampled_from(("instantiate", "verify", "classify", "document")))
    if kind == "classify":
        dim = data.draw(st.sampled_from(("2", "2", "2", "2", "3", "4", "x", "")))
        grid = ",".join(data.draw(st.lists(value, min_size=1, max_size=3)))
        return ["classify", "--dim", dim, "--grid", grid] + output
    if kind == "document":
        command = data.draw(st.sampled_from(DOCUMENT_COMMANDS))
        argv = [files[arg] if arg.endswith(".json") else arg for arg in command]
        return argv + (output if "extend" in command or "twofold" in command else [])
    entry = data.draw(st.sampled_from(catalog_list()))
    name = data.draw(st.sampled_from((entry.name,) * 4 + (entry.name[:-1], "J^{99}_{1,1}", "")))
    names = entry.params + data.draw(st.sampled_from(((), (), (), ("z",), ("",), (" a",))))
    params = ",".join(f"{n}={data.draw(value)}" for n in names)
    return ["catalog", kind, name, "--params", params] + (output if kind == "instantiate" else [])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_argv_keeps_exit_contract(files, monkeypatch, data):
    """Catalog entry names and --params text, --dim, classify --grid (at most
    3 values of up to 40 digits), -o paths into a missing directory, and
    dropped, duplicated and unknown flags: argparse's SystemExit code counts
    as the exit code."""
    monkeypatch.delenv(hjj.cli.GRID_ENV, raising=False)
    argv = _argv_fragments(files, data)
    for _ in range(data.draw(st.integers(0, 2))):
        op = data.draw(st.sampled_from(("drop", "duplicate", "insert")))
        i = data.draw(st.integers(0, len(argv) - 1)) if argv else 0
        if op == "drop" and argv:
            del argv[i]
        elif op == "duplicate" and argv:
            argv.insert(i, argv[i])
        else:
            argv.insert(i, data.draw(st.sampled_from(STRAY_FLAGS)))
    if data.draw(st.booleans()):
        argv.insert(0, "--json")
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), redirect_stdout(out), redirect_stderr(err):
        code = main(["--json", *argv])
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code, out.getvalue()


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1))
def test_valid_documents_reach_the_mathematics(tmp_path, seed):
    """Random valid (algebra, representation) and quadratic pairs as documents:
    cohomology with representatives, extend on each representative and on a
    random cochain, verify on each extension, equivalent on a representative
    and a cohomologous shift of it, h2q, twofold and metric verify on its
    output.  extend exits 0 exactly on a cocycle and 2 otherwise; the others
    exit 0 or 1."""
    rng = random.Random(seed)

    def write(name, kind, payload):
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write(emit_document(make_document(kind, payload)))
        return path

    algebra, rep = random_pair(rng)
    a_path = write("algebra.json", "algebra", algebra_to_payload(algebra))
    r_path = write("rep.json", "representation", representation_to_payload(rep))
    code, out = _cli("cohomology", "--algebra", a_path, "--rep", r_path, "--representatives")
    assert code == 0
    report = json.loads(out)
    dims = (report["dim_C2"], report["dim_Z2"], report["dim_B2"], report["dim_H2"])
    if rep.vdim == 1:
        n = algebra.dim
        brackets = {(i, j): list(algebra.bracket_basis(i, j)) for i in range(n) for j in range(i, n)}
        alpha = [[algebra.alpha.entry(i, j) for j in range(n)] for i in range(n)]
        rho = [r.entry(0, 0) for r in rep.rho]
        assert dims == brute_h2_dims(BruteAlgebra(n, brackets, alpha, rep.beta.entry(0, 0), rho))
    representatives = report["representatives"]
    theta = random_cochain2(rng, rep)
    cochains = [(payload, True) for payload in representatives] + [(cochain2_to_payload(theta), d2(theta).is_zero())]
    for k, (payload, cocycle) in enumerate(cochains):
        path, ext = write(f"theta{k}.json", "cochain", payload), str(tmp_path / f"ext{k}.json")
        code, _ = _cli("extend", "--algebra", a_path, "--rep", r_path, "--cocycle", path, "-o", ext)
        assert code == (0 if cocycle else 2)
        if cocycle:
            assert _cli("verify", ext)[0] in (0, 1)
    base = cochain_from_payload(representatives[0], rep=rep) if representatives else Cochain2.zero(rep)
    first = write("first.json", "cochain", cochain2_to_payload(base))
    second = write("shifted.json", "cochain", cochain2_to_payload(base + d1(random_cochain1(rng, rep))))
    code, _ = _cli("equivalent", "--algebra", a_path, "--rep", r_path, "--theta1", first, "--theta2", second)
    assert code == 0

    qalgebra, qrep = random_quadratic(rng)
    qa_path = write("qalgebra.json", "algebra", algebra_to_payload(qalgebra))
    q_path = write("qrep.json", "representation", representation_to_payload(qrep.rep, form=qrep.form))
    assert _cli("quadratic", "h2q", "--algebra", qa_path, "--qrep", q_path)[0] == 0
    # the quadratic cocycle perfbench's quadratic workload builds: a linear H2_Q's first theta, else (0, 0)
    h2q = compute_H2Q(qalgebra, qrep)
    linear = h2q.kind == "linear" and h2q.theta_representatives
    qtheta = h2q.theta_representatives[0] if linear else Cochain2.zero(qrep.rep)
    t_path = write("qtheta.json", "cochain", cochain2_to_payload(qtheta))
    g_path = write("gamma.json", "cochain", scalar_form_to_payload(ScalarForm.zero(qalgebra.dim, 3)))
    twofold = str(tmp_path / "twofold.json")
    code, _ = _cli("quadratic", "twofold", "--algebra", qa_path, "--qrep", q_path,
                   "--theta", t_path, "--gamma", g_path, "-o", twofold)
    assert code in (0, 1)
    assert _cli("metric", "verify", twofold)[0] in (0, 1)
