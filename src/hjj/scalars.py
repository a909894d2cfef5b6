"""Exact rational scalars.

Every number in this package is a ``fractions.Fraction``; floating point
never appears.  A Fraction normalises to ``gcd(|num|, den) = 1`` with
``den > 0`` on construction, so equal values compare and hash equal.
``BACKEND`` names the scalar type.
"""

from __future__ import annotations

from fractions import Fraction

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
        return Fraction(numerator) / Fraction(denominator)
    if isinstance(numerator, str):
        return _parse_rational(numerator)
    return Fraction(numerator)


ZERO = QQ(0)
ONE = QQ(1)


def _parse_rational(text: str):
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Fraction(int(num)) / Fraction(d)
    return Fraction(int(text))


def format_scalar(x) -> str:
    """Canonical text form: ``"p"`` for integers, ``"p/q"`` otherwise."""
    return str(Fraction(x))
