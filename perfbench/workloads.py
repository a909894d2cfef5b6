"""Seeded job streams for the three workloads, and the job bodies.

Each workload has a finite, fixed *universe* of jobs; a seed picks a
sequence of distinct jobs from it.  Because the universe is fixed, every
job has a golden digest of its canonical output (``golden/<workload>.json``,
written by ``make_golden.py``), so every run on every seed is checked byte
for byte, not only the default and held-out seeds.

Inputs are built here from exact ``fractions.Fraction`` arithmetic and
handed to hjj as JSON document text; nothing in this file depends on the
repository's test generators, so test edits cannot move the workload.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable

# Classification grids are pairs from this pool: every rational p/q with
# 1 <= p, q <= 5, both signs.  It holds the default grid's values (-2, -1, 1,
# 2, 3, 1/2) and their neighbours of the same small magnitudes, and gives
# 703 pairs, enough work for a program about 40 times faster than the one the
# benchmark was defined on to fill a 25-second run.
GRID_POOL = tuple(str(sign * Fraction(p, q)) for p in range(1, 6) for q in range(1, 6) if gcd(p, q) == 1 for sign in (1, -1))

# Jobs are split into this many strata by their cost at the commit that
# defined the benchmark (costs/<workload>.json); a cycle of the job stream
# takes one job from each stratum, cheapest first.  An odd number puts the
# median latency inside the middle stratum, not on a boundary.
STRATA = 5

# Twist eigenvalues for the generated algebras.
TWIST_POOL = tuple(Fraction(x) for x in ("2", "-2", "3", "1/2", "-1", "1/3"))

# Admissible dimension-3 catalog instances that pass check_hom_jacobi and
# check_multiplicative (checked once when this list was written).
CATALOG3 = (
    ("J^1_{2,1}", {"a": "2", "b": "3"}),
    ("J^1_{2,1}", {"a": "-2", "b": "1/2"}),
    ("J^2_{2,1}", {"a": "2"}),
    ("J^2_{2,1}", {"a": "3"}),
    ("J^3_{2,1}", {"a": "-2"}),
    ("J^3_{2,1}", {"a": "1/2"}),
    ("J^4_{2,1}", {"a": "2", "b": "3"}),
    ("J^4_{2,1}", {"a": "2", "b": "-1"}),
    ("J^5_{2,1}", {"b": "2"}),
    ("J^5_{2,1}", {"b": "-2"}),
    ("J^6_{2,1}", {"a": "2", "c": "3"}),
    ("J^6_{2,1}", {"a": "3", "c": "-2"}),
    ("J^7_{1,2}", {"a": "2", "c": "3"}),
    ("J^7_{1,2}", {"a": "-2", "c": "2"}),
    ("J^9_{1,2}", {"a": "2", "c": "-2"}),
    ("J^9_{1,2}", {"a": "3", "c": "2"}),
    ("J^{16}_{2,1}", {"c": "2"}),
    ("J^{16}_{2,1}", {"c": "-2"}),
)

# Changes of basis per dimension; a job names one by index.  Six give each
# template 36 conjugates.
BANK_SIZE = 6


@dataclass(frozen=True)
class Entry:
    key: str  # stable name of the job in the universe; keys its golden digest
    build: Callable  # () -> inputs


@dataclass(frozen=True)
class Job:
    key: str
    inputs: tuple  # grid text, or JSON document texts


# ---------------------------------------------------------------------------
# Exact matrices on Fraction rows (input generation only)
# ---------------------------------------------------------------------------


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _inverse(a):
    """Gauss-Jordan inverse, or None when singular."""
    n = len(a)
    rows = [list(a[i]) + _identity(n)[i] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * x for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _diag(values):
    n = len(values)
    return [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _bank(n):
    """BANK_SIZE invertible n x n matrices with entries p/q, |p| <= 3,
    q in {1, 2, 3}; fixed for every seed so goldens stay valid."""
    rng = random.Random(f"perfbench-bank-{n}")
    out = []
    while len(out) < BANK_SIZE:
        m = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
        if _inverse(m) is not None:
            out.append(m)
    return out


_BANKS = {}


def _basis_change(n, index):
    if n not in _BANKS:
        _BANKS[n] = _bank(n)
    return _BANKS[n][index]


# ---------------------------------------------------------------------------
# Structures as plain data: bracket c[i][j] (coordinate list), alpha, rho, beta
# ---------------------------------------------------------------------------


@dataclass
class _Structure:
    bracket: list  # n x n x n
    alpha: list  # n x n, column j = alpha(e_j)
    vdim: int = 0
    rho: list = None  # n matrices m x m
    beta: list = None  # m x m
    form: list = None  # m x m


def _abelian(alpha, vdim, rho, beta, form=None):
    n = len(alpha)
    zero = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return _Structure(zero, alpha, vdim, rho, beta, form)


def _zero_action(n, m):
    return [[[Fraction(0)] * m for _ in range(m)] for _ in range(n)]


def _from_catalog(name, params):
    from hjj.catalog import instantiate

    a = instantiate(name, params)
    bracket = [[[Fraction(str(x)) for x in a.bracket_tensor[i][j]] for j in range(a.dim)] for i in range(a.dim)]
    alpha = [[Fraction(str(x)) for x in row] for row in a.alpha.entries]
    return bracket, alpha


def _conjugate(s: _Structure, p, q) -> _Structure:
    """Transport along e'_i = p(e_i) on the algebra and f'_r = q(f_r) on the
    module; the form becomes q^T B q."""
    n = len(s.alpha)
    pinv = _inverse(p)
    pcols = _transpose(p)
    bracket = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = [Fraction(0)] * n
            for k, pk in enumerate(pcols[i]):
                for l, pl in enumerate(pcols[j]):
                    if pk and pl:
                        for t in range(n):
                            v[t] += pk * pl * s.bracket[k][l][t]
            bracket[i][j] = [sum((pinv[r][t] * v[t] for t in range(n)), Fraction(0)) for r in range(n)]
    alpha = _matmul(_matmul(pinv, s.alpha), p)
    if not s.vdim:
        return _Structure(bracket, alpha)
    m = s.vdim
    qinv = _inverse(q)
    rho = []
    for i in range(n):
        acc = [[Fraction(0)] * m for _ in range(m)]
        for j in range(n):
            c = p[j][i]
            if c:
                acc = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(acc, s.rho[j])]
        rho.append(_matmul(_matmul(qinv, acc), q))
    beta = _matmul(_matmul(qinv, s.beta), q)
    form = _matmul(_matmul(_transpose(q), s.form), q) if s.form is not None else None
    return _Structure(bracket, alpha, m, rho, beta, form)


def _text(x):
    return str(Fraction(x))


def _matrix_json(m):
    return [[_text(x) for x in row] for row in m]


def _document(kind, payload):
    return json.dumps({"kind": kind, "version": "1", "payload": payload}, sort_keys=True)


def _documents(s: _Structure) -> tuple:
    algebra = _document(
        "algebra",
        {"dim": len(s.alpha), "alpha": _matrix_json(s.alpha), "bracket": [[[_text(x) for x in v] for v in row] for row in s.bracket]},
    )
    rep = {"vdim": s.vdim, "beta": _matrix_json(s.beta), "rho": [_matrix_json(r) for r in s.rho]}
    if s.form is not None:
        rep["form"] = _matrix_json(s.form)
    return algebra, _document("representation", rep)


def _eigenvalues(alpha):
    """Diagonal entries; every generated twist is triangular."""
    return [alpha[i][i] for i in range(len(alpha))]


def _products(values):
    return [values[i] * values[j] for i in range(len(values)) for j in range(i, len(values))]


# ---------------------------------------------------------------------------
# Universes
# ---------------------------------------------------------------------------


def _cohomology_templates() -> list:
    """(key, structure) before any change of basis."""
    rng = random.Random("perfbench-cohomology-templates")
    out = []
    for name, params in CATALOG3:
        bracket, alpha = _from_catalog(name, params)
        lam = _eigenvalues(alpha)
        prods = _products(lam)
        label = name + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        for m in (1, 2):
            beta = _diag([rng.choice(prods) for _ in range(m)])
            s = _Structure(bracket, alpha, m, _zero_action(3, m), beta)
            out.append((f"{label}|zero{m}:{_beta_label(beta)}", s))
    for n in (3, 4):
        for jordan in (False, True):
            for _ in range(24):
                lam = [rng.choice(TWIST_POOL) for _ in range(n)]
                alpha = _diag(lam)
                if jordan:
                    lam[1] = lam[0]
                    alpha = _diag(lam)
                    alpha[0][1] = Fraction(1)
                prods = _products(lam)
                m = rng.choice((1, 2, 3))
                nilpotent = m >= 2 and rng.random() < 0.5
                beta_vals = [rng.choice(prods) for _ in range(m)]
                rho = _zero_action(n, m)
                if nilpotent:
                    # rho(e_k) = E_01 on a coordinate with alpha(e_k) = lam_k e_k;
                    # rho(alpha x) beta = beta rho(x) forces beta_00 = lam_k beta_11.
                    k = n - 1
                    rho[k][0][1] = Fraction(1)
                    beta_vals[0] = lam[k] * beta_vals[1]
                beta = _diag(beta_vals)
                twist = "jordan" if jordan else "diag"
                action = "nil" if nilpotent else "zero"
                key = f"abelian{n}:{twist}:{','.join(map(_text, lam))}|{action}{m}:{_beta_label(beta)}"
                out.append((key, _abelian(alpha, m, rho, beta)))
    return out


def _beta_label(beta):
    return ",".join(_text(beta[i][i]) for i in range(len(beta)))


def _quadratic_templates() -> list:
    """About a third of the jobs have base dimension 2; the median job is an
    abelian dimension-3 base with a one-dimensional module, so the median
    latency lies inside one kind of job."""
    rng = random.Random("perfbench-quadratic-templates")
    forms = [Fraction(x) for x in ("1", "-1", "2", "3", "-1/2")]
    out = []

    def add(key, s):
        out.append((f"{key}|B:{_beta_label(s.form)}", s))

    def form(m):
        return _diag([rng.choice(forms) for _ in range(m)])

    for a in (Fraction(2), Fraction(3)):
        # J^1_{1,1}: [e1, e1] = e2, alpha = diag(a, a^2); beta = a^2 pairs with it
        bracket, alpha = _from_catalog("J^1_{1,1}", {"a": _text(a)})
        for m in (1, 2):
            add(f"J^1_{{1,1}}:a={_text(a)}|zero{m}", _Structure(bracket, alpha, m, _zero_action(2, m), _diag([a * a] * m), form(m)))
    for a in (Fraction(2), Fraction(1, 2)):
        for m in (1, 2):
            add(f"abelian2:{_text(a)},{_text(-a)}|zero{m}", _abelian(_diag([a, -a]), m, _zero_action(2, m), _diag([a * a] * m), form(m)))
    # untwisted Jacobi-Jordan [e1, e1] = e2 with a nilpotent action that is
    # self-adjoint for diag(s, -s): rho(e1) = [[1, 1], [-1, -1]]
    jj = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    jj[0][0] = [Fraction(0), Fraction(1)]
    for sc in (Fraction(1), Fraction(-3)):
        rho = [[[Fraction(1), Fraction(1)], [Fraction(-1), Fraction(-1)]], [[Fraction(0)] * 2 for _ in range(2)]]
        add("jj2|nil2", _Structure(jj, _identity(2), 2, rho, _identity(2), _diag([sc, -sc])))
    for name, params in CATALOG3[::3]:
        bracket, alpha = _from_catalog(name, params)
        lam = _eigenvalues(alpha)
        label = name + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        add(f"{label}|zero1", _Structure(bracket, alpha, 1, _zero_action(3, 1), _diag([lam[0] * lam[0]]), form(1)))
    for i in range(15):
        lam = [rng.choice(TWIST_POOL) for _ in range(3)]
        m = 2 if i % 5 == 4 else 1
        s = _abelian(_diag(lam), m, _zero_action(3, m), _diag([rng.choice(_products(lam)) for _ in range(m)]), form(m))
        add(f"abelian3:{','.join(map(_text, lam))}|zero{m}:{_beta_label(s.beta)}", s)
    return out


def _conjugated(templates) -> list:
    return [
        Entry(f"{key}|P{pi}Q{qi}", partial(_inputs, s, pi, qi))
        for key, s in templates
        for pi in range(BANK_SIZE)
        for qi in range(BANK_SIZE)
    ]


def _inputs(s: _Structure, pi: int, qi: int) -> tuple:
    return _documents(_conjugate(s, _basis_change(len(s.alpha), pi), _basis_change(s.vdim, qi)))


def universe(workload: str) -> list:
    """Every entry of a workload's universe, in a fixed order."""
    if workload == "classify":
        return [Entry(f"{x},{y}", partial(tuple, (f"{x},{y}",))) for x, y in itertools.combinations(GRID_POOL, 2)]
    if workload == "cohomology":
        return _conjugated(_cohomology_templates())
    if workload == "quadratic":
        return _conjugated(_quadratic_templates())
    raise ValueError(f"unknown workload {workload!r}")


def strata(workload: str, costs: dict) -> list:
    """The universe split into STRATA equal groups by recorded cost."""
    entries = sorted(universe(workload), key=lambda e: (costs[e.key], e.key))
    return [entries[i * len(entries) // STRATA : (i + 1) * len(entries) // STRATA] for i in range(STRATA)]


def job_stream(workload: str, seed: int, costs: dict):
    """The seed's jobs in cycles, one job per stratum and cheapest stratum
    first; each stratum is shuffled by the seed.  The strata are built now,
    each cycle's inputs only when it is reached.  The stream ends when a
    stratum runs out, so no job repeats within a run."""
    rng = random.Random(seed)
    groups = strata(workload, costs)
    for group in groups:
        rng.shuffle(group)
    return ([Job(e.key, e.build()) for e in cycle] for cycle in zip(*groups))


# ---------------------------------------------------------------------------
# Job bodies: hjj's public entry points, returning canonical output text
# ---------------------------------------------------------------------------


class JobError(Exception):
    """A job's command exited non-zero."""


def run_classify(job: Job) -> str:
    import hjj.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = hjj.cli.main(["--json", "classify", "--dim", "3", f"--grid={job.inputs[0]}"])
    if code != 0:
        raise JobError(f"hjj classify exited {code}")
    return buf.getvalue()


def run_cohomology(job: Job) -> str:
    from hjj import cohomology, documents, extensions

    algebra = documents.algebra_from_payload(documents.parse_document(job.inputs[0]).payload)
    rep = documents.representation_from_payload(documents.parse_document(job.inputs[1]).payload, algebra)
    h2 = cohomology.compute_H2(rep)
    thetas = list(h2.representatives) or [cohomology.Cochain2.zero(rep)]
    specs = [extensions.ExtensionSpec(algebra, rep, t) for t in thetas]
    built = [extensions.build_extension(s) for s in specs]
    eq = extensions.extensions_equivalent(specs[0], specs[-1])
    report = {
        "dims": list(h2.dims),
        "equivalent_first_last": eq.equivalent,
        "witness": documents.cochain1_to_payload(eq.witness) if eq.witness is not None else None,
        "representatives": [documents.cochain2_to_payload(t) for t in thetas],
    }
    out = [documents.emit_document(documents.make_document("report", report))]
    out += [documents.emit_document(documents.canonical_algebra_document(b.algebra)) for b in built]
    return "".join(out)


def run_quadratic(job: Job) -> str:
    from hjj import cohomology, documents, quadratic

    algebra = documents.algebra_from_payload(documents.parse_document(job.inputs[0]).payload)
    qrep = documents.quadratic_representation_from_payload(documents.parse_document(job.inputs[1]).payload, algebra)
    h2q = quadratic.compute_H2Q(algebra, qrep)
    if h2q.kind == "linear" and h2q.theta_representatives:
        theta = h2q.theta_representatives[0]
    else:
        theta = cohomology.Cochain2.zero(qrep.rep)
    gamma = cohomology.ScalarForm.zero(algebra.dim, 3)
    twofold = quadratic.build_twofold(algebra, qrep, theta, gamma)
    report = {
        "kind": h2q.kind,
        "theta_dims": list(h2q.theta_dims),
        "gamma_dims": list(h2q.gamma_dims),
        "h2q_dim": h2q.h2q_dim,
        "theta": documents.cochain2_to_payload(theta),
    }
    out = documents.emit_document(documents.make_document("report", report))
    return out + documents.emit_document(documents.make_document("metric-algebra", documents.metric_to_payload(twofold.metric)))


RUNNERS = {"classify": run_classify, "cohomology": run_cohomology, "quadratic": run_quadratic}
