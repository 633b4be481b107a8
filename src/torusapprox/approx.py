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
from typing import NamedTuple

from .arith import totient
from .errors import BudgetError
from .rationals import parse_rational
from .torus import TorusIntervalSet, _merge, _reduced

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

# The union piece cap.  A set has at most phi(q) < q pieces, so refusing
# q > _PIECE_CAP bounds them without factorizing q.
_PIECE_CAP = 10**6


def coprime_residues(q: int) -> list[int]:
    """Residues 0 <= a < q with gcd(a, q) = 1; [0] when q = 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return [0]
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def reduced_fractions(q: int) -> tuple[Fraction, ...]:
    """The phi(q) reduced fractions a/q on the circle, sorted."""
    return tuple(Fraction(a, q) for a in coprime_residues(q))


def _sumset_numerators(r: int, s: int) -> list[int]:
    """The sumset of `sumset_reduced` as sorted numerators over r*s; r and
    s must be coprime."""
    rs = r * s
    return sorted(
        (a * s + b * r) % rs
        for a in coprime_residues(r)
        for b in coprime_residues(s)
    )


def sumset_reduced(r: int, s: int) -> tuple[Fraction, ...]:
    """Mod-1 sumset of the reduced fractions with denominators r and s.

    Requires gcd(r, s) = 1.  The Chinese remainder theorem makes
    a/r + b/s  (mod 1) a bijection onto the reduced fractions with
    denominator r*s, so the result always has phi(r) * phi(s) points.
    """
    if r < 1 or s < 1:
        raise ValueError("denominators must be >= 1")
    if math.gcd(r, s) != 1:
        raise ValueError(f"sumset_reduced requires coprime inputs, got {r}, {s}")
    rs = r * s
    return tuple(Fraction(c, rs) for c in _sumset_numerators(r, s))


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
    sorted.  Below
    psi = 1/2 no two arcs touch and only the last can cross 1, so its two
    halves are written around the interleaved starts and ends.  From
    psi = 1/2 on, arcs may touch or overlap: the arcs crossing 1 leave
    [0, tail) in front, and one pass of the torus union merge joins the
    arcs, whose ends (capped at 1) never decrease.

    Refuses q above the piece cap before building anything.
    """
    return _build_approx_set(q, psi_q, y_q, None)


def _build_approx_set(q: int, psi_q, y_q, residues) -> TorusIntervalSet:
    """`build_approx_set` on `coprime_residues(q)` from a caller that holds
    them for several builds at one q, or computed here when None."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > _PIECE_CAP:
        raise BudgetError(f"q = {q} exceeds the approximation-set cap {_PIECE_CAP}")
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
    if length < scale:
        ends = [0] * (2 * len(starts))
        ends[0::2] = starts
        ends[1::2] = [lo + length for lo in starts]
        tail = ends[-1] - den
        if tail > 0:
            ends[-1] = den
            ends[:0] = (0, tail)
        return _reduced(den, ends)
    crossing = bisect_right(starts, den - length)
    his = [lo + length for lo in starts[:crossing]]
    his += [den] * (len(starts) - crossing)
    ends = [0, starts[-1] + length - den] if crossing < len(starts) else []
    return _reduced(den, _merge(zip(starts, his), ends))


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
    """Whether |q*x - a - y_q| < psi_q holds for some a coprime to q.

    Only the three integers nearest q*x - y_q can qualify.  Exact when x is
    a rational; a float x stays in float arithmetic (the Monte Carlo path).
    The strict inequality differs from the half-open set exactly on interval
    endpoints, a measure-zero discrepancy.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if isinstance(x, float):
        psi = float(psi_q)
        if psi == 0.0:
            return False
        t = q * x - float(y_q)
        base = math.floor(t + 0.5)
        for a in (base - 1, base, base + 1):
            if abs(t - a) < psi and math.gcd(abs(a), q) == 1:
                return True
        return False
    psi = Fraction(psi_q)
    if psi == 0:
        return False
    t = q * Fraction(x) - Fraction(y_q)
    base = math.floor(t + _HALF)
    for a in (base - 1, base, base + 1):
        if abs(t - a) < psi and math.gcd(abs(a), q) == 1:
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


class ApproxFunction:
    """A rational-valued weight family q -> psi(q).

    Kinds:
      const      psi(q) = c
      power      psi(q) = c * q**(-alpha), alpha a non-negative integer,
                 clipped to <= 1/2 unless clip=False
      table      explicit map q -> value, 0 off the table
      div3       min(1/2, q / (phi(q) * floor(q**(1/3)))), a clipped family
                 whose cubed normalized sum diverges like sum 1/q
      cx         the weight map of a counterexample instance
    """

    __slots__ = ("kind", "value", "alpha", "clip", "table", "instance", "spec")

    def __init__(self, kind, *, value=None, alpha=None, clip=True, table=None,
                 instance=None, spec=None):
        self.kind = kind
        self.value = value
        self.alpha = alpha
        self.clip = clip
        self.table = table
        self.instance = instance
        self.spec = spec if spec is not None else kind

    @classmethod
    def constant(cls, c) -> "ApproxFunction":
        c = Fraction(c)
        if c < 0:
            raise ValueError("psi must be non-negative")
        return cls("const", value=c, spec=f"const:{c.numerator}/{c.denominator}")

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
        return cls("power", value=c, alpha=int(alpha), clip=clip, spec=spec)

    @classmethod
    def from_table(cls, mapping, spec="table") -> "ApproxFunction":
        table = {int(q): Fraction(v) for q, v in mapping.items()}
        for q, v in table.items():
            if q < 1 or v < 0:
                raise ValueError("table entries need q >= 1 and psi >= 0")
        return cls("table", table=table, spec=spec)

    @classmethod
    def from_csv(cls, path) -> "ApproxFunction":
        mapping = {}
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].startswith("#"):
                    continue
                if len(row) < 2:
                    raise ValueError(f"table row {row!r} needs q,psi")
                mapping[int(row[0])] = parse_rational(row[1])
        return cls.from_table(mapping, spec=f"table:{path}")

    @classmethod
    def divergent_m3(cls) -> "ApproxFunction":
        return cls("div3", spec="div3")

    @classmethod
    def counterexample(cls, instance, spec="cx") -> "ApproxFunction":
        return cls("cx", instance=instance, spec=spec)

    @classmethod
    def parse(cls, text: str, cx_loader=None) -> "ApproxFunction":
        """Parse "const:1/4", "pow:1/2,1[,raw]", "table:<path>", "div3",
        "cx:<path>"."""
        s = text.strip()
        if s == "div3":
            return cls.divergent_m3()
        if ":" not in s:
            raise ValueError(f"unrecognized psi spec: {text!r}")
        head, rest = s.split(":", 1)
        if head == "const":
            return cls.constant(parse_rational(rest))
        if head == "pow":
            parts = [p.strip() for p in rest.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"pow spec needs c,alpha: {text!r}")
            clip = True
            if len(parts) == 3:
                if parts[2] != "raw":
                    raise ValueError(f"unknown pow modifier: {parts[2]!r}")
                clip = False
            return cls.power(parse_rational(parts[0]), int(parts[1]), clip=clip)
        if head == "table":
            return cls.from_csv(rest)
        if head == "cx":
            if cx_loader is None:
                raise ValueError("no counterexample loader available for cx: specs")
            return cls.counterexample(cx_loader(rest), spec=s)
        raise ValueError(f"unrecognized psi spec: {text!r}")

    def __call__(self, q: int) -> Fraction:
        if q < 1:
            raise ValueError("q must be >= 1")
        if self.kind == "const":
            return self.value
        if self.kind == "power":
            value = self.value / Fraction(q) ** self.alpha
            if self.clip and value > _HALF:
                return _HALF
            return value
        if self.kind == "table":
            return self.table.get(q, _ZERO)
        if self.kind == "div3":
            value = Fraction(q, totient(q) * _icbrt(q))
            return value if value < _HALF else _HALF
        if self.kind == "cx":
            return self.instance.psi_of(q)
        raise AssertionError(f"unknown kind {self.kind}")

    def describe(self) -> str:
        return self.spec


class TargetSequence:
    """A target family q -> (y_q[0], ..., y_q[m-1]) of exact rationals."""

    __slots__ = ("kind", "m", "components", "table", "instance", "spec")

    def __init__(self, kind, m, *, components=None, table=None, instance=None, spec=None):
        if m < 1:
            raise ValueError("dimension must be >= 1")
        self.kind = kind
        self.m = m
        self.components = components
        self.table = table
        self.instance = instance
        self.spec = spec if spec is not None else kind

    @classmethod
    def zero(cls, m: int = 1) -> "TargetSequence":
        return cls("zero", m, spec="zero")

    @classmethod
    def constant(cls, components, m: int | None = None) -> "TargetSequence":
        comps = tuple(Fraction(c) for c in components)
        if m is None:
            m = len(comps)
        if len(comps) == 1 and m > 1:
            comps = comps * m  # broadcast a single shift to every coordinate
        if len(comps) != m:
            raise ValueError(f"{len(comps)} components for dimension {m}")
        spec = "const:" + ",".join(f"{c.numerator}/{c.denominator}" for c in comps)
        return cls("const", m, components=comps, spec=spec)

    @classmethod
    def from_table(cls, mapping, m: int, spec="table") -> "TargetSequence":
        table = {}
        for q, vec in mapping.items():
            comps = tuple(Fraction(v) for v in vec)
            if len(comps) != m:
                raise ValueError("table row dimension mismatch")
            table[int(q)] = comps
        return cls("table", m, table=table, spec=spec)

    @classmethod
    def from_csv(cls, path, m: int) -> "TargetSequence":
        mapping = {}
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].startswith("#"):
                    continue
                mapping[int(row[0])] = [parse_rational(v) for v in row[1 : m + 1]]
        return cls.from_table(mapping, m, spec=f"table:{path}")

    @classmethod
    def counterexample(cls, instance, spec="cx") -> "TargetSequence":
        return cls("cx", 1, instance=instance, spec=spec)

    @classmethod
    def parse(cls, text: str, m: int = 1, cx_loader=None) -> "TargetSequence":
        """Parse "zero", "const:1/3[,2/5,...]", "table:<path>", "cx:<path>"."""
        s = text.strip()
        if s == "zero":
            return cls.zero(m)
        if ":" not in s:
            raise ValueError(f"unrecognized target spec: {text!r}")
        head, rest = s.split(":", 1)
        if head == "const":
            return cls.constant([parse_rational(v) for v in rest.split(",")], m)
        if head == "table":
            return cls.from_csv(rest, m)
        if head == "cx":
            if cx_loader is None:
                raise ValueError("no counterexample loader available for cx: specs")
            if m != 1:
                raise ValueError("counterexample targets are one-dimensional")
            return cls.counterexample(cx_loader(rest), spec=s)
        raise ValueError(f"unrecognized target spec: {text!r}")

    def __call__(self, q: int) -> tuple[Fraction, ...]:
        if q < 1:
            raise ValueError("q must be >= 1")
        if self.kind == "zero":
            return (_ZERO,) * self.m
        if self.kind == "const":
            return self.components
        if self.kind == "table":
            return self.table.get(q, (_ZERO,) * self.m)
        if self.kind == "cx":
            return (self.instance.y_of(q),)
        raise AssertionError(f"unknown kind {self.kind}")

    def describe(self) -> str:
        return self.spec
