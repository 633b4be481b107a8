"""Exact finite unions of half-open intervals on the circle [0, 1).

A set is stored in integer form: a denominator `den` and a flat tuple
`ends = (lo0, hi0, lo1, hi1, ...)` of endpoint numerators, so piece i is
[lo_i/den, hi_i/den).  The pieces are sorted, pairwise disjoint, never
touching (hi_i < lo_{i+1}) and contained in [0, 1].  The form is reduced,
gcd(den, *ends) = 1, which makes `den` the lcm of the reduced endpoint
denominators and the representation unique, so equality and hashing are
structural.  Content crossing the seam at 0/1 is stored as two pieces; the
canonical form never merges across the seam.

Binary operations lift both operands to one common denominator and then run
on integers; only `measure`, `measure_intersection` and the `pieces` view
build Fractions.  `_merge` is the one union merge of spans sorted by their
start: `_canonical` runs it after reducing and sorting arbitrary spans, and
`approx.build_approx_set` on arcs that its rotation of the residue list
already delivers in order.  `_intersection_ends` is the one intersection
merge: `intersect` reduces its ends, and `_overlap_units` sums them for
`measure_intersection` and for the pairs of the pairwise scans that the
closed form of `overlap._pair_overlap_units` does not cover (a weight above
1/2).  `pieces` (a `PieceView`), `repr` and pickling present the endpoints
as Fractions.  All operations are exact and return new values.

The half-open convention makes union and measure exact; it differs from
closed intervals only on finitely many points, which no measure computed
here can see.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction


def _new(den: int, ends: tuple) -> "TorusIntervalSet":
    """Wrap a form already known to be canonical and reduced."""
    obj = object.__new__(TorusIntervalSet)
    object.__setattr__(obj, "den", den)
    object.__setattr__(obj, "ends", ends)
    return obj


def _reduced(den: int, ends: list) -> "TorusIntervalSet":
    """Wrap canonical ends over den, dividing out their common factor."""
    g = math.gcd(den, *ends)
    if g != 1:
        den //= g
        ends = [e // g for e in ends]
    return _new(den, tuple(ends))


def _canonical(den: int, spans) -> "TorusIntervalSet":
    """The set covered by integer spans (lo, hi) over den, with lo <= hi
    anywhere on the line.  Each span is reduced mod 1 and split if it wraps;
    a span of length >= 1 covers the circle; lo == hi spans are dropped."""
    unit: list[tuple[int, int]] = []
    for lo, hi in spans:
        if hi <= lo:
            if hi < lo:
                raise ValueError(
                    f"interval with lo > hi: [{Fraction(lo, den)}, {Fraction(hi, den)})"
                )
            continue
        if hi - lo >= den:
            return _new(1, (0, 1))
        base = lo % den
        end = base + (hi - lo)
        if end <= den:
            unit.append((base, end))
        else:
            unit.append((base, den))
            unit.append((0, end - den))
    unit.sort()
    return _reduced(den, _merge(unit, []))


def _merge(spans, ends: list) -> list:
    """Append spans (lo, hi) inside [0, den], sorted by lo, to the
    canonical ends, joining each span to the last piece when they overlap
    or touch; returns ends."""
    for lo, hi in spans:
        if ends and lo <= ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            ends.append(lo)
            ends.append(hi)
    return ends


def _lift(a: "TorusIntervalSet", b: "TorusIntervalSet"):
    """Both endpoint sequences over the lcm of the two denominators."""
    da, db = a.den, b.den
    if da == db:
        return da, a.ends, b.ends
    den = da // math.gcd(da, db) * db
    fa = den // da
    fb = den // db
    ea = a.ends if fa == 1 else [v * fa for v in a.ends]
    eb = b.ends if fb == 1 else [v * fb for v in b.ends]
    return den, ea, eb


def _fraction_pairs(pieces) -> tuple[int, list[tuple[int, int]]]:
    """(lo, hi) rational pairs as integer spans over the lcm of their
    denominators."""
    pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in pieces]
    den = math.lcm(1, *(f.denominator for pair in pairs for f in pair))
    spans = [
        (lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
        for lo, hi in pairs
    ]
    return den, spans


class PieceView(Sequence):
    """Read-only view of a set's pieces as (lo, hi) Fraction pairs.

    The pairs are built on access and never stored, so the length costs
    nothing; the view compares equal to the tuple of its pairs.
    """

    __slots__ = ("_den", "_ends")

    def __init__(self, den: int, ends: tuple):
        self._den = den
        self._ends = ends

    def __len__(self):
        return len(self._ends) // 2

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        i = 2 * range(len(self))[index]
        return (Fraction(self._ends[i], self._den), Fraction(self._ends[i + 1], self._den))

    def __eq__(self, other):
        if isinstance(other, (tuple, PieceView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


class TorusIntervalSet:
    """Canonical finite union of half-open rational intervals in [0, 1)."""

    __slots__ = ("den", "ends")

    def __init__(self, pieces=()):
        """Build from arbitrary (lo, hi) pairs with lo < hi.

        Endpoints may lie anywhere on the real line; each piece is reduced
        mod 1 and split if it wraps.  Pieces of length >= 1 cover the whole
        circle.  Degenerate pieces (lo == hi) are dropped silently; lo > hi
        is an error.
        """
        built = _canonical(*_fraction_pairs(pieces))
        object.__setattr__(self, "den", built.den)
        object.__setattr__(self, "ends", built.ends)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_spans(cls, den: int, spans) -> "TorusIntervalSet":
        """The set covered by integer spans (lo, hi) meaning [lo/den, hi/den),
        with the same conventions as the Fraction-pair constructor."""
        if den < 1:
            raise ValueError("denominator must be >= 1")
        return _canonical(den, spans)

    @classmethod
    def empty(cls) -> "TorusIntervalSet":
        return _new(1, ())

    @classmethod
    def full(cls) -> "TorusIntervalSet":
        return _new(1, (0, 1))

    def __setattr__(self, name, value):
        raise AttributeError("TorusIntervalSet is immutable")

    @property
    def pieces(self) -> PieceView:
        """The canonical pieces as (lo, hi) Fraction pairs."""
        return PieceView(self.den, self.ends)

    # -- basic queries --------------------------------------------------------

    def measure(self) -> Fraction:
        """Exact Lebesgue measure: the sum of piece lengths."""
        ends = self.ends
        return Fraction(sum(ends[1::2]) - sum(ends[0::2]), self.den)

    def contains(self, x) -> bool:
        """Point membership under the half-open convention, x taken mod 1."""
        point = Fraction(x)
        point -= math.floor(point)
        # An integer endpoint e satisfies e <= point*den iff e <= floor of
        # it; the point is inside iff it has passed an odd number of ends.
        scaled = point.numerator * self.den // point.denominator
        return bisect_right(self.ends, scaled) % 2 == 1

    # -- set algebra -----------------------------------------------------------

    def union(self, *others: "TorusIntervalSet") -> "TorusIntervalSet":
        """Union with any number of other sets."""
        sets = (self,) + others
        den = math.lcm(*(s.den for s in sets))
        spans: list[tuple[int, int]] = []
        for s in sets:
            factor = den // s.den
            ends = s.ends
            for i in range(0, len(ends), 2):
                spans.append((ends[i] * factor, ends[i + 1] * factor))
        return _canonical(den, spans)

    def intersect(self, other: "TorusIntervalSet") -> "TorusIntervalSet":
        # Intersecting two canonical sets cannot create touching pieces.
        return _reduced(*_intersection_ends(self, other))

    def translate(self, t) -> "TorusIntervalSet":
        """Rotate by t (mod 1).  Measure preserving."""
        shift = Fraction(t)
        shift -= math.floor(shift)
        if shift == 0:
            return self
        den = math.lcm(self.den, shift.denominator)
        factor = den // self.den
        offset = shift.numerator * (den // shift.denominator)
        ends = self.ends
        spans = [
            (ends[i] * factor + offset, ends[i + 1] * factor + offset)
            for i in range(0, len(ends), 2)
        ]
        return _canonical(den, spans)

    def is_subset_of(self, other: "TorusIntervalSet") -> bool:
        """Exact containment of point sets (not just almost-everywhere)."""
        _, mine, theirs = _lift(self, other)
        for i in range(0, len(mine), 2):
            k = bisect_right(theirs, mine[i])
            # Pieces of `other` are separated by real gaps, so [lo, hi) must
            # sit inside the single one whose lo it has passed.
            if k % 2 == 0 or mine[i + 1] > theirs[k]:
                return False
        return True

    # -- dunder plumbing ---------------------------------------------------------

    def __reduce__(self):
        return (TorusIntervalSet, (tuple(self.pieces),))

    def __eq__(self, other):
        if not isinstance(other, TorusIntervalSet):
            return NotImplemented
        return self.den == other.den and self.ends == other.ends

    def __hash__(self):
        return hash((self.den, self.ends))

    def __len__(self):
        return len(self.ends) // 2

    def __repr__(self):
        inner = ", ".join(f"[{lo}, {hi})" for lo, hi in self.pieces)
        return f"TorusIntervalSet({{{inner}}})"


def _intersection_ends(a: TorusIntervalSet, b: TorusIntervalSet) -> tuple[int, list]:
    """(den, ends) of a.intersect(b) over the lifted denominator, unreduced:
    the one two-pointer intersection merge."""
    den, ea, eb = _lift(a, b)
    out: list[int] = []
    i = j = 0
    na, nb = len(ea), len(eb)
    while i < na and j < nb:
        alo, ahi = ea[i], ea[i + 1]
        blo, bhi = eb[j], eb[j + 1]
        lo = alo if alo > blo else blo
        if ahi <= bhi:
            hi = ahi
            i += 2
        else:
            hi = bhi
            j += 2
        if hi > lo:
            out.append(lo)
            out.append(hi)
    return den, out


def _overlap_units(a: TorusIntervalSet, b: TorusIntervalSet) -> tuple[int, int]:
    """Measure of a.intersect(b) as (units, den), units/den unreduced."""
    den, ends = _intersection_ends(a, b)
    return sum(ends[1::2]) - sum(ends[0::2]), den


def measure_intersection(a: TorusIntervalSet, b: TorusIntervalSet) -> Fraction:
    """Measure of a.intersect(b) without building the set; used in hot loops."""
    return Fraction(*_overlap_units(a, b))
