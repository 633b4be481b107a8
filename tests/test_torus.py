import random
from fractions import Fraction

import pytest

from torusapprox.torus import TorusIntervalSet, measure_intersection

F = Fraction


def random_set(rng, pieces=4, den=48):
    raw = []
    for _ in range(rng.randint(0, pieces)):
        lo = F(rng.randint(-2 * den, 2 * den), den)
        hi = lo + F(rng.randint(1, den), den)
        raw.append((lo, hi))
    return TorusIntervalSet(raw)


def complement(s):
    """The gaps between s's pieces, read off its Fraction pieces: an oracle
    for union and intersection, independent of the integer form."""
    points = [F(0), *(end for piece in s.pieces for end in piece), F(1)]
    return TorusIntervalSet(zip(points[0::2], points[1::2]))


def test_canonicalization_examples():
    merged = TorusIntervalSet([(F(0), F(1, 2)), (F(1, 4), F(3, 4))])
    assert merged.pieces == ((F(0), F(3, 4)),)
    assert merged.measure() == F(3, 4)

    wrapped = TorusIntervalSet([(F(7, 8), F(9, 8))])
    assert wrapped.pieces == ((F(0), F(1, 8)), (F(7, 8), F(1)))
    assert wrapped.measure() == F(1, 4)

    assert TorusIntervalSet([]).pieces == ()
    assert TorusIntervalSet([]).measure() == 0


def test_degenerate_and_bad_pieces():
    assert TorusIntervalSet([(F(1, 3), F(1, 3))]) == TorusIntervalSet.empty()
    with pytest.raises(ValueError):
        TorusIntervalSet([(F(1, 2), F(1, 3))])
    # length >= 1 covers the circle
    assert TorusIntervalSet([(F(-1, 2), F(1, 2))]) == TorusIntervalSet.full()


def test_canonical_form_unique_across_orders():
    rng = random.Random(7)
    for _ in range(200):
        raw = []
        for _ in range(rng.randint(1, 6)):
            lo = F(rng.randint(-96, 96), 48)
            hi = lo + F(rng.randint(1, 48), 48)
            raw.append((lo, hi))
        reference = TorusIntervalSet(raw)
        rng.shuffle(raw)
        assert TorusIntervalSet(raw).pieces == reference.pieces


def test_intersection_example():
    a = TorusIntervalSet([(F(3, 8), F(5, 8))])
    b = TorusIntervalSet([(F(1, 4), F(5, 12)), (F(7, 12), F(3, 4))])
    inter = a.intersect(b)
    assert inter.pieces == ((F(3, 8), F(5, 12)), (F(7, 12), F(5, 8)))
    assert inter.measure() == F(1, 12)
    assert measure_intersection(a, b) == F(1, 12)


def test_complement_and_partition():
    assert complement(TorusIntervalSet([])) == TorusIntervalSet.full()
    rng = random.Random(11)
    for _ in range(100):
        a = random_set(rng)
        assert a.union(complement(a)) == TorusIntervalSet.full()
        assert a.intersect(complement(a)) == TorusIntervalSet.empty()
        assert complement(complement(a)) == a


def test_union_intersection_measure_identity():
    rng = random.Random(13)
    for _ in range(200):
        a = random_set(rng)
        b = random_set(rng)
        union = a.union(b)
        inter = a.intersect(b)
        assert union.measure() + inter.measure() == a.measure() + b.measure()


def test_de_morgan():
    rng = random.Random(17)
    for _ in range(150):
        a = random_set(rng)
        b = random_set(rng)
        left = complement(a.union(b))
        right = complement(a).intersect(complement(b))
        assert left == right


def test_membership_logic_matches_set_ops():
    # random points never on endpoints: denominators coprime to piece grid
    rng = random.Random(19)
    for _ in range(60):
        a = random_set(rng)
        b = random_set(rng)
        union, inter, diff = a.union(b), a.intersect(b), a.intersect(complement(b))
        for _ in range(40):
            x = F(rng.randint(0, 10**6), 10**6 + 3)
            in_a, in_b = a.contains(x), b.contains(x)
            assert union.contains(x) == (in_a or in_b)
            assert inter.contains(x) == (in_a and in_b)
            assert diff.contains(x) == (in_a and not in_b)


def test_translate_examples():
    quarter = TorusIntervalSet([(F(0), F(1, 4))])
    assert quarter.translate(F(7, 8)).pieces == ((F(0), F(1, 8)), (F(7, 8), F(1)))
    rng = random.Random(23)
    for _ in range(100):
        a = random_set(rng)
        t = F(rng.randint(-97, 97), 53)
        assert a.translate(0) == a
        assert a.translate(t).translate(1 - t) == a
        assert a.translate(t).measure() == a.measure()


def test_translate_merges_across_old_seam():
    seam = TorusIntervalSet([(F(7, 8), F(9, 8))])  # [0,1/8) and [7/8,1)
    assert seam.translate(F(1, 8)).pieces == ((F(0), F(1, 4)),)


def test_subset_and_restrict():
    # Restriction to a window [lo, hi) is intersection with its set.
    small = TorusIntervalSet([(F(1, 8), F(1, 4))])
    assert small.is_subset_of(TorusIntervalSet([(F(0), F(1, 2))]))
    assert not small.is_subset_of(TorusIntervalSet([(F(0), F(3, 16))]))
    window = TorusIntervalSet([(F(1, 4), F(3, 4))])
    assert TorusIntervalSet.full().intersect(window).pieces == ((F(1, 4), F(3, 4)),)
    rng = random.Random(29)
    for _ in range(100):
        a = random_set(rng)
        assert a.intersect(TorusIntervalSet.full()) == a
        assert a.intersect(window).is_subset_of(window)
        assert a.is_subset_of(a)
        assert a.intersect(a) == a


def test_subset_is_exact_not_almost_everywhere():
    # [0, 1/2) is not contained in [0, 1/4) + [1/4 + 0, ...) with a pinhole
    holed = TorusIntervalSet([(F(0), F(1, 4)), (F(1, 4), F(1, 2))])  # merges
    assert TorusIntervalSet([(F(0), F(1, 2))]).is_subset_of(holed)
    pin = TorusIntervalSet([(F(0), F(1, 4)), (F(26, 100), F(1, 2))])
    assert not TorusIntervalSet([(F(0), F(1, 2))]).is_subset_of(pin)


def test_measure_against_grid_oracle():
    rng = random.Random(31)
    grid = 1024
    for _ in range(1000):
        a = random_set(rng, pieces=3, den=64)
        count = sum(1 for i in range(grid) if a.contains(F(i, grid)))
        assert abs(a.measure() - F(count, grid)) <= F(2 * max(1, len(a)), grid)


def test_immutability():
    a = TorusIntervalSet([(F(0), F(1, 2))])
    with pytest.raises(AttributeError):
        a.pieces = ()
