"""Coprime approximation sets on the circle.

For a denominator q, a weight value psi_q and a target shift y_q, the
approximation set is the union over residues a coprime to q of the
half-open intervals

    [ (a + y_q)/q - psi_q/q ,  (a + y_q)/q + psi_q/q )      (mod 1).

When psi_q <= 1/2 these intervals are pairwise disjoint and the measure is
exactly 2 * phi(q) * psi_q / q.  This module builds the sets exactly, holds
the reduced-residue point sets and their mod-1 sumsets, and provides the
weight/target families used by the experiment drivers.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import NamedTuple

from .arith import factorize, totient
from .errors import BudgetError
from .rationals import parse_rational
from .torus import TorusIntervalSet, _merge, _reduced

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

# The union piece cap.  A set has at most phi(q) < q pieces, so refusing
# q > _PIECE_CAP bounds them without factorizing q.
_PIECE_CAP = 10**6
# Dimension m of a target family, scan or sum.  Terms are raised to the m-th
# power, so their size grows with m; the verify suites use m <= 4.
_DIMENSION_CAP = 64


def _check_piece_cap(n: int, name: str = "q") -> None:
    """Refuse a modulus n past the piece cap, read at call time; name
    labels n in the message."""
    if n > _PIECE_CAP:
        raise BudgetError(f"{name} = {n} exceeds the approximation-set cap {_PIECE_CAP}")


def _check_dimension(m: int) -> None:
    """Refuse a dimension below 1 or past `_DIMENSION_CAP`, read at call
    time, before anything of length m is built."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if m > _DIMENSION_CAP:
        raise BudgetError(f"dimension m = {m} exceeds the cap {_DIMENSION_CAP}")


def coprime_residues(q: int) -> list[int]:
    """Residues 0 <= a < q with gcd(a, q) = 1 ([0] when q = 1): q's primes sieved out."""
    if q < 1:
        raise ValueError("q must be >= 1")
    keep = bytearray(b"\x01") * q
    for p, _ in factorize(q):
        keep[::p] = bytes(q // p)
    return list(compress(range(q), keep))


def _sumset_numerators(r: int, s: int) -> list[int]:
    """The mod-1 sumset of the reduced fractions with denominators r and s,
    as sorted numerators over r*s; r and s must be coprime.  The Chinese
    remainder theorem makes a/r + b/s (mod 1) a bijection onto the reduced
    fractions with denominator r*s, so this is `coprime_residues(r*s)`."""
    rs, residues_s = r * s, coprime_residues(s)
    return sorted((a * s + b * r) % rs for a in coprime_residues(r) for b in residues_s)


def build_approx_set(q: int, psi_q, y_q) -> TorusIntervalSet:
    """The exact approximation set for one denominator.

    Empty when psi_q = 0; the full circle once the interval length 2*psi_q/q
    reaches 1.  All endpoints are exact rationals.

    Every endpoint is (a + y +- psi)/q, so the whole construction runs on
    integer numerators over den = q * den(y) * den(psi); no piece becomes a
    Fraction.  Arc a starts at a * scale + off, which lies in [0, 2 den),
    with scale = den/q and off the start of arc 0 reduced mod den.  So the
    arcs starting at or past 1 are a suffix of `coprime_residues(q)`, found
    by one bisect, and rotating that suffix (shifted down by den) to the
    front lists the starts in order: no arc is reduced mod 1 and nothing is
    sorted.  Below psi = 1/2 no two arcs touch: the ends are the
    interleaved starts and ends, and only the last arc can cross 1, its
    part past 1, [0, tail), written in front.  From psi = 1/2 arcs touch or
    overlap: the arcs crossing 1 leave [0, tail) in front, and one pass of
    the torus union merge joins the arcs, whose ends (capped at 1) never
    decrease.

    Refuses q above the piece cap before building anything.
    """
    return _build_approx_set(q, psi_q, y_q, None)


def _build_approx_set(q: int, psi_q, y_q, residues) -> TorusIntervalSet:
    """`build_approx_set` on `coprime_residues(q)` from a caller that holds
    them for several builds at one q, or computed here when None."""
    if q < 1:
        raise ValueError("q must be >= 1")
    _check_piece_cap(q)
    psi = Fraction(psi_q)
    if psi < 0:
        raise ValueError("psi must be non-negative")
    if psi == 0:
        return TorusIntervalSet.empty()
    y = Fraction(y_q)
    scale = y.denominator * psi.denominator
    length = 2 * psi.numerator * y.denominator
    den = q * scale
    if length >= den:
        return TorusIntervalSet.full()
    off = (y.numerator * psi.denominator - psi.numerator * y.denominator) % den
    if residues is None:
        residues = coprime_residues(q)
    # The first residue a with a * scale + off >= den.
    k = bisect_left(residues, (den - off + scale - 1) // scale)
    wrap = off - den
    starts = [a * scale + wrap for a in residues[k:]]
    starts += [a * scale + off for a in residues[:k]]
    if length >= scale:
        # Arcs may touch or overlap; one pass of the merge joins them.
        crossing = bisect_right(starts, den - length)
        his = [lo + length for lo in starts[:crossing]]
        his += [den] * (len(starts) - crossing)
        ends = [0, starts[-1] + length - den] if crossing < len(starts) else []
        return _reduced(den, _merge(zip(starts, his), ends))
    # No two arcs touch, so the ends interleave; slice assignment writes them
    # three to four times faster than the merge, and most builds are here.
    ends = [0] * (2 * len(starts))
    ends[0::2] = starts
    ends[1::2] = [lo + length for lo in starts]
    # Only the last arc can cross 1.  Its part past 1, [0, tail), ends at
    # least scale - length > 0 before the first start.
    tail = ends[-1] - den
    if tail > 0:
        ends[-1] = den
        ends[:0] = (0, tail)
    return _reduced(den, ends)


class MeasureCheck(NamedTuple):
    measure: Fraction
    closed_form: Fraction  # 2 * phi(q) * psi / q
    ok: bool


def approx_set_measure(q: int, psi_q, y_q) -> MeasureCheck:
    """Exact measure together with the closed-form consistency flag.

    ok asserts measure == 2*phi(q)*psi/q whenever psi <= 1/2, and
    measure <= min(1, closed form) in every case; both are compared by
    cross-multiplying the set's integer ends.
    """
    psi = Fraction(psi_q)
    # The build refuses q above the piece cap before phi(q) factorizes it.
    return _measure_check(q, psi, build_approx_set(q, psi, y_q), totient(q))


def _measure_check(q: int, psi: Fraction, approx: TorusIntervalSet, phi: int) -> MeasureCheck:
    """`approx_set_measure` of the set `approx` built at q and psi, given
    phi(q), for a caller that checks many sets at one q."""
    ends, den = approx.ends, approx.den
    units = sum(ends[1::2]) - sum(ends[0::2])
    closed_num = 2 * phi * psi.numerator
    closed_den = q * psi.denominator
    # measure = units/den against closed = closed_num/closed_den
    lhs = units * closed_den
    rhs = closed_num * den
    ok = units <= den and lhs <= rhs
    if 2 * psi.numerator <= psi.denominator:
        ok = ok and lhs == rhs
    return MeasureCheck(
        measure=Fraction(units, den), closed_form=Fraction(closed_num, closed_den), ok=ok
    )


def hit_test(x, q: int, psi_q, y_q) -> bool:
    """Whether -psi_q <= q*x - a - y_q < psi_q holds for some a coprime to
    q: x lies in the half-open arc [(a + y_q - psi_q)/q, (a + y_q +
    psi_q)/q), so this is `build_approx_set(q, psi_q, y_q).contains(x)`,
    arc ends included.

    Exact: x, psi_q and y_q are read as Fractions (a float converts
    exactly).  Only the integers from floor(t - psi_q) to ceil(t + psi_q),
    t = q*x - y_q, can qualify, and q + 2 of them hold q consecutive
    integers a with t - psi_q < a <= t + psi_q, one of them coprime to q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    psi = Fraction(psi_q)
    t = q * Fraction(x) - Fraction(y_q)
    low = math.floor(t - psi)
    for a in range(low, min(math.ceil(t + psi), low + q + 1) + 1):
        if -psi <= t - a < psi and math.gcd(a, q) == 1:
            return True
    return False


def _icbrt(n: int) -> int:
    """Integer cube root: largest k with k**3 <= n."""
    if n < 0:
        raise ValueError("cube root of a negative integer")
    if n == 0:
        return 0
    k = int(round(n ** (1.0 / 3.0)))
    while k**3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


def _power(c: Fraction, alpha: int, clip: bool, q: int) -> Fraction:
    value = c / Fraction(q) ** alpha
    return _HALF if clip and value > _HALF else value


def _div3(q: int) -> Fraction:
    value = Fraction(q, totient(q) * _icbrt(q))
    return value if value < _HALF else _HALF


def _one_coordinate(y_of, q: int) -> tuple[Fraction]:
    return (y_of(q),)


def _spec_parts(text: str, kind: str, heads, bare: str) -> tuple[str, str, str]:
    """The stripped spec and its head and rest: "head:rest" for a head of
    heads, or the one bare word with an empty rest."""
    s = text.strip()
    head, colon, rest = s.partition(":")
    if s != bare and not (colon and head in heads):
        raise ValueError(f"unrecognized {kind} spec: {text!r}")
    return s, head, rest


def _read_table(path, width: int) -> dict[int, list[Fraction]]:
    """The rows "q,v1,...,v_width" of a CSV file, less blanks and # comments;
    a row of another width or a q given twice is refused."""
    mapping = {}
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != width + 1:
                raise ValueError(f"table row {row!r} needs q and {width} value(s)")
            q = int(row[0])
            if q in mapping:
                raise ValueError(f"table gives q = {q} twice")
            mapping[q] = [parse_rational(v) for v in row[1:]]
    return mapping


def _load_instance(path):
    from .counterexample import CounterexampleInstance  # which imports this module

    return CounterexampleInstance.load(path)


class _Family:
    """A family q -> value: rule(q) when a rule is set, otherwise the table
    entry at q or the default.  A rule is a module function, a partial of
    one or a bound method, so a family pickles into pool workers."""

    __slots__ = ("spec", "table", "default", "rule")

    def __init__(self, spec: str, *, table=None, default=None, rule=None):
        self.spec = spec
        self.table = table or {}
        self.default = default
        self.rule = rule

    def __call__(self, q: int):
        if q < 1:
            raise ValueError("q must be >= 1")
        if self.rule is not None:
            return self.rule(q)
        return self.table.get(q, self.default)

    def describe(self) -> str:
        return self.spec


class ApproxFunction(_Family):
    """A rational-valued weight family q -> psi(q).

    Specs:
      const:c        psi(q) = c
      pow:c,alpha    psi(q) = c * q**(-alpha), alpha a non-negative integer,
                     clipped to <= 1/2 unless ",raw" follows
      table:path     explicit map q -> value, 0 off the table
      div3           min(1/2, q / (phi(q) * floor(q**(1/3)))), a clipped
                     family whose cubed normalized sum diverges like sum 1/q
      cx:path        the weight map of a counterexample instance
    """

    __slots__ = ()

    @classmethod
    def constant(cls, c) -> "ApproxFunction":
        c = Fraction(c)
        if c < 0:
            raise ValueError("psi must be non-negative")
        return cls(f"const:{c.numerator}/{c.denominator}", default=c)

    @classmethod
    def power(cls, c, alpha: int, clip: bool = True) -> "ApproxFunction":
        c = Fraction(c)
        if c < 0:
            raise ValueError("psi must be non-negative")
        if alpha < 0 or int(alpha) != alpha:
            raise ValueError("power exponent must be a non-negative integer")
        spec = f"pow:{c.numerator}/{c.denominator},{int(alpha)}"
        if not clip:
            spec += ",raw"
        return cls(spec, rule=partial(_power, c, int(alpha), clip))

    @classmethod
    def from_table(cls, mapping, spec="table") -> "ApproxFunction":
        table = {int(q): Fraction(v) for q, v in mapping.items()}
        for q, v in table.items():
            if q < 1 or v < 0:
                raise ValueError("table entries need q >= 1 and psi >= 0")
        return cls(spec, table=table, default=_ZERO)

    @classmethod
    def divergent_m3(cls) -> "ApproxFunction":
        return cls("div3", rule=_div3)

    @classmethod
    def counterexample(cls, instance, spec="cx") -> "ApproxFunction":
        return cls(spec, rule=instance.psi_of)

    @classmethod
    def parse(cls, text: str) -> "ApproxFunction":
        """Parse "const:1/4", "pow:1/2,1[,raw]", "table:<path>", "div3",
        "cx:<path>"."""
        s, head, rest = _spec_parts(text, "psi", ("const", "pow", "table", "cx"), "div3")
        if s == "div3":
            return cls.divergent_m3()
        if head == "const":
            return cls.constant(parse_rational(rest))
        if head == "pow":
            parts = [p.strip() for p in rest.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"pow spec needs c,alpha: {text!r}")
            if len(parts) == 3 and parts[2] != "raw":
                raise ValueError(f"unknown pow modifier: {parts[2]!r}")
            return cls.power(parse_rational(parts[0]), int(parts[1]), clip=len(parts) == 2)
        if head == "table":
            table = _read_table(rest, 1)
            return cls.from_table({q: v for q, (v,) in table.items()}, spec=s)
        return cls.counterexample(_load_instance(rest), spec=s)


class TargetSequence(_Family):
    """A target family q -> (y_q[0], ..., y_q[m-1]) of exact rationals.
    Every constructor checks m before it builds a tuple of length m."""

    __slots__ = ("m",)

    def __init__(self, m: int, spec: str, **fields):
        _check_dimension(m)
        super().__init__(spec, **fields)
        self.m = m

    @classmethod
    def zero(cls, m: int = 1) -> "TargetSequence":
        _check_dimension(m)
        return cls(m, "zero", default=(_ZERO,) * m)

    @classmethod
    def constant(cls, components, m: int | None = None) -> "TargetSequence":
        comps = tuple(Fraction(c) for c in components)
        if m is None:
            m = len(comps)
        _check_dimension(m)
        if len(comps) == 1 and m > 1:
            comps = comps * m  # broadcast a single shift to every coordinate
        if len(comps) != m:
            raise ValueError(f"{len(comps)} components for dimension {m}")
        spec = "const:" + ",".join(f"{c.numerator}/{c.denominator}" for c in comps)
        return cls(m, spec, default=comps)

    @classmethod
    def from_table(cls, mapping, m: int, spec="table") -> "TargetSequence":
        _check_dimension(m)
        table = {}
        for q, vec in mapping.items():
            comps = tuple(Fraction(v) for v in vec)
            if len(comps) != m:
                raise ValueError("table row dimension mismatch")
            if int(q) < 1:
                raise ValueError("table entries need q >= 1")
            table[int(q)] = comps
        return cls(m, spec, table=table, default=(_ZERO,) * m)

    @classmethod
    def counterexample(cls, instance, spec="cx") -> "TargetSequence":
        return cls(1, spec, rule=partial(_one_coordinate, instance.y_of))

    @classmethod
    def parse(cls, text: str, m: int = 1) -> "TargetSequence":
        """Parse "zero", "const:1/3[,2/5,...]", "table:<path>", "cx:<path>"."""
        _check_dimension(m)  # before a table is read m values a row
        s, head, rest = _spec_parts(text, "target", ("const", "table", "cx"), "zero")
        if s == "zero":
            return cls.zero(m)
        if head == "const":
            return cls.constant([parse_rational(v) for v in rest.split(",")], m)
        if head == "table":
            return cls.from_table(_read_table(rest, m), m, spec=s)
        if m != 1:
            raise ValueError("counterexample targets are one-dimensional")
        return cls.counterexample(_load_instance(rest), spec=s)
