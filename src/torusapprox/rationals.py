"""Exact rationals crossing a text boundary are always "p/q" strings.

Floating point never enters here; "0.5" is rejected on purpose.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction


def _integer(part: str, what: str) -> int:
    """int(part) of a base-10 integer literal, and a ValueError naming any
    other part; int() refuses one past Python's digit limit itself."""
    if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", part):
        raise ValueError(f"{what}{part.strip()!r} is not an integer")
    return int(part)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer into a Fraction."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational")
    if "/" in s:
        num, den = s.split("/", 1)
        num, den = _integer(num, "numerator "), _integer(den, "denominator ")
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(_integer(s, ""))


@contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on int/str conversion (4300 digits by default)
    while a result is rendered.  Parsing keeps the limit, so an oversized
    integer on input is still refused."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # Pythons before the limit existed
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def format_rational(value) -> str:
    """Render a rational as "p/q" with the denominator always spelled out."""
    f = Fraction(value)
    with _unlimited_int_digits():
        return f"{f.numerator}/{f.denominator}"
