"""Parsing and formatting of exact rational values.

Every quantity in this package (edge weights, thresholds, utilities,
potentials) is a `fractions.Fraction`.  Floats are rejected at every input
boundary: the interesting behavior of these games lives at exact ties, and
a float would silently change best-response sets.
"""

import re
import reprlib
from fractions import Fraction

from .errors import GameInputError, SizeCapError

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?")

# Renders a container two levels deep, 20 items a level: its first 40
# characters are str's for lists and tuples of scalars, whatever their size.
_BOUNDED = reprlib.Repr()
_BOUNDED.maxlevel = 2
_BOUNDED.maxtuple = _BOUNDED.maxlist = _BOUNDED.maxarray = _BOUNDED.maxdict = 20
_BOUNDED.maxset = _BOUNDED.maxfrozenset = _BOUNDED.maxdeque = 20
_BOUNDED.maxstring = _BOUNDED.maxlong = _BOUNDED.maxother = 100


def shown(value) -> str:
    """A caller's value as every diagnostic echoes it: a string quoted, a
    container through a bounded ``repr``, anything else as ``str`` (a
    Fraction reads ``p/q``), cut after 40 characters.  A number past
    Python's digit limit reads as a phrase."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else repr(value[:40]) + "..."
    bounded = isinstance(value, (list, tuple, dict, set, frozenset))
    try:
        text = _BOUNDED.repr(value) if bounded else str(value)
    except ValueError:  # an int past Python's digit limit
        return "a number with too many digits"
    return text if len(text) <= 40 else text[:40] + "..."


def as_rational(value, what: str = "value") -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction; reject floats."""
    # str first: it is what a game file holds, and the test for Fraction
    # goes through the ABC machinery of numbers.Rational
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
    raise GameInputError(f"{what}: cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (lowest terms, positive q)."""
    try:
        return str(value)
    except ValueError:  # a part over Python's digit limit
        raise SizeCapError(
            "cannot write a rational with a part over Python's digit limit"
        ) from None
