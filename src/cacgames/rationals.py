"""Parsing and formatting of exact rational values.

Every quantity in this package (edge weights, thresholds, utilities,
potentials) is a `fractions.Fraction`.  Floats are rejected at every input
boundary: the interesting behavior of these games lives at exact ties, and
a float would silently change best-response sets.
"""

import re
from fractions import Fraction

from .errors import GameInputError

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")


def shown(value) -> str:
    """``repr(value)`` for a diagnostic, cut after 40 characters so that a
    long input is never echoed in full: a string's own text, anything else
    its repr."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else repr(value[:40]) + "..."
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def as_rational(value, what: str = "value") -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction; reject floats."""
    if isinstance(value, bool):
        raise GameInputError(f"{what}: expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise GameInputError(
            f"{what}: floating point is not allowed, use an exact 'p/q' string"
        )
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if not match:
            raise GameInputError(
                f"{what}: malformed rational {shown(value)} (expected 'p' or 'p/q')"
            )
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except ZeroDivisionError:
            raise GameInputError(
                f"{what}: malformed rational {shown(value)} (zero denominator)"
            ) from None
        except ValueError:  # a part over Python's digit limit
            raise GameInputError(f"{what}: rational has too many digits") from None
    raise GameInputError(f"{what}: cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (lowest terms, positive q)."""
    return str(value)
