"""Exact rationals crossing a text boundary are always "p/q" strings.

Floating point never enters here; "0.5" is rejected on purpose.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer into a Fraction."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational")
    if "/" in s:
        num, den = (int(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(value) -> str:
    """Render a rational as "p/q" with the denominator always spelled out."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
