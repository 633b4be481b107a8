"""Property tests for the integer form of TorusIntervalSet.

Sets are drawn with mixed endpoint denominators so that every binary
operation has to lift its operands to a common denominator.
"""

import math
import pickle
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from torusapprox.torus import TorusIntervalSet, measure_intersection

examples = settings(max_examples=150, deadline=None)

denominators = st.sampled_from([1, 2, 3, 4, 6, 7, 12, 35, 60, 98, 99])
rationals = st.builds(F, st.integers(-200, 200), denominators)


@st.composite
def interval_sets(draw):
    raw = []
    for _ in range(draw(st.integers(0, 5))):
        lo = draw(rationals)
        raw.append((lo, lo + draw(st.builds(F, st.integers(1, 60), denominators))))
    return TorusIntervalSet(raw)


def complement(s):
    """The gaps between s's pieces, read off its Fraction pieces."""
    points = [F(0), *(end for piece in s.pieces for end in piece), F(1)]
    return TorusIntervalSet(zip(points[0::2], points[1::2]))


def assert_canonical(s):
    ends = s.ends
    assert s.den >= 1 and math.gcd(s.den, *ends) == 1
    assert len(ends) % 2 == 0
    assert all(0 <= e <= s.den for e in ends)
    assert all(x < y for x, y in zip(ends, ends[1:]))


@examples
@given(interval_sets(), interval_sets())
def test_de_morgan(a, b):
    assert complement(a.union(b)) == complement(a).intersect(complement(b))
    assert complement(a.intersect(b)) == complement(a).union(complement(b))


@examples
@given(interval_sets(), interval_sets())
def test_union_intersection_measure(a, b):
    union, inter = a.union(b), a.intersect(b)
    for s in (union, inter, a.intersect(complement(b))):
        assert_canonical(s)
    assert union.measure() + inter.measure() == a.measure() + b.measure()
    assert measure_intersection(a, b) == inter.measure()


@examples
@given(interval_sets(), rationals)
def test_translate_inverse(a, t):
    moved = a.translate(t)
    assert_canonical(moved)
    assert moved.translate(-t) == a
    assert moved.measure() == a.measure()


@examples
@given(interval_sets(), interval_sets())
def test_subset_checks(a, b):
    assert a.intersect(b).is_subset_of(a)
    assert a.is_subset_of(a.union(b))
    assert a.is_subset_of(b) == (a.intersect(b) == a)


@examples
@given(interval_sets(), rationals)
def test_contains_matches_pieces(a, x):
    point = x - math.floor(x)
    assert a.contains(x) == any(lo <= point < hi for lo, hi in a.pieces)


@examples
@given(interval_sets())
def test_round_trips(a):
    assert_canonical(a)
    clone = pickle.loads(pickle.dumps(a))
    assert clone == a and (clone.den, clone.ends) == (a.den, a.ends)
    assert TorusIntervalSet(a.pieces) == a
    pieces = tuple(a.pieces)
    assert a.pieces == pieces and pieces == a.pieces and len(a.pieces) == len(a)
    assert [a.pieces[i] for i in range(-len(a), len(a))] == list(pieces * 2)
    assert a.pieces[1:] == pieces[1:] and hash(a.pieces) == hash(pieces)
    assert a.measure() == sum((hi - lo for lo, hi in a.pieces), F(0))


@examples
@given(interval_sets(), st.integers(2, 30))
def test_equal_sets_through_other_denominators(a, k):
    scaled = TorusIntervalSet.from_spans(
        a.den * k,
        [(a.ends[i] * k, a.ends[i + 1] * k) for i in range(0, len(a.ends), 2)],
    )
    assert scaled == a
    assert hash(scaled) == hash(a)
    assert (scaled.den, scaled.ends) == (a.den, a.ends)
