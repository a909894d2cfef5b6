"""Exact rational scalars with a selectable backend.

Every number in this package is an arbitrary-precision rational; floating
point never appears.  Two interchangeable backends are supported:

* ``gmpy2.mpq`` -- C implementation, used by default when gmpy2 imports;
* ``fractions.Fraction`` -- pure-Python stdlib fallback.

Set ``HJJ_PURE_PYTHON=1`` in the environment to force the fallback.  Both
types normalise to ``gcd(|num|, den) = 1`` with ``den > 0`` on construction
and compare/hash equal for equal values, so the backend choice can never
change a result, only its speed.  ``benchmarks/bench_backends.py`` compares
the two.
"""

from __future__ import annotations

import os
from fractions import Fraction

_FORCE_PURE = os.environ.get("HJJ_PURE_PYTHON", "") not in ("", "0")

if not _FORCE_PURE:
    try:
        from gmpy2 import mpq as _mpq

        _RAT = _mpq
        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - exercised via HJJ_PURE_PYTHON
        _RAT = Fraction
        BACKEND = "fractions"
else:
    _RAT = Fraction
    BACKEND = "fractions"


def QQ(numerator=0, denominator=None):
    """Build an exact rational.

    Accepts an int, an existing rational, or a string ``"p"`` / ``"p/q"``;
    with two arguments, the fraction ``numerator/denominator``.  Floats are
    rejected: exactness is a package-wide invariant.
    """
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise TypeError("floats are not exact rationals; pass ints or 'p/q' strings")
    if denominator is not None:
        return _RAT(numerator) / _RAT(denominator)
    if isinstance(numerator, str):
        return _parse_rational(numerator)
    return _RAT(numerator)


ZERO = QQ(0)
ONE = QQ(1)


def _parse_rational(text: str):
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return _RAT(int(num)) / _RAT(d)
    return _RAT(int(text))


def format_scalar(x) -> str:
    """Canonical text form: ``"p"`` for integers, ``"p/q"`` otherwise."""
    return str(_RAT(x))
