import math
import random
from fractions import Fraction

import pytest

from torusapprox.approx import (
    ApproxFunction,
    TargetSequence,
    approx_set_measure,
    build_approx_set,
    coprime_residues,
    equidistribution_ratio,
    hit_test,
    product_measure,
    reduced_fractions,
    sumset_reduced,
)
from torusapprox.arith import totient
from torusapprox.torus import TorusIntervalSet

F = Fraction


def test_reduced_fractions():
    assert reduced_fractions(1).points == (F(0),)
    assert reduced_fractions(6).points == (F(1, 6), F(5, 6))
    assert reduced_fractions(5).points == (F(1, 5), F(2, 5), F(3, 5), F(4, 5))
    for q in range(1, 200):
        rf = reduced_fractions(q)
        assert len(rf) == totient(q)
        assert all(p.denominator == q or q == 1 for p in rf.points)


def test_sumset_examples():
    assert sumset_reduced(2, 3) == (F(1, 6), F(5, 6))
    assert sumset_reduced(1, 9) == reduced_fractions(9).points
    assert sumset_reduced(3, 5) == reduced_fractions(15).points
    with pytest.raises(ValueError):
        sumset_reduced(6, 10)


def test_sumset_squarefree_divisor_pairs():
    # spot version of the exhaustive acceptance run
    for q in (2, 6, 30, 42, 105, 210):
        for r in range(1, q + 1):
            if q % r == 0:
                assert sumset_reduced(r, q // r) == reduced_fractions(q).points


def test_translated_residue_copies_disjoint():
    # squarefree q: the translated copies of the r-residues by the (q/r)-residues
    # are pairwise disjoint
    for q in (6, 30, 105, 210):
        for r in (d for d in range(2, q) if q % d == 0):
            s = q // r
            if math.gcd(r, s) != 1:
                continue
            seen = set()
            for t in coprime_residues(s):
                copy = frozenset((a * s + t * r) % q for a in coprime_residues(r))
                for other in seen:
                    assert copy.isdisjoint(other)
                seen.add(copy)


def test_build_examples():
    assert build_approx_set(2, F(1, 4), 0).pieces == ((F(3, 8), F(5, 8)),)
    assert build_approx_set(4, F(1, 4), 0).measure() == F(1, 4)
    shifted = build_approx_set(3, F(1, 4), F(3, 2))
    assert shifted.pieces == (
        (F(1, 12), F(1, 4)),
        (F(3, 4), F(11, 12)),
    )
    assert build_approx_set(5, 0, 0).is_empty()
    assert build_approx_set(1, F(1, 2), F(3, 7)) == TorusIntervalSet.full()


def test_measure_law_examples():
    assert approx_set_measure(6, F(1, 2), 0) == (F(1, 3), F(1, 3), True)
    assert approx_set_measure(1, F(1, 2), 0) == (F(1), F(1), True)
    assert approx_set_measure(5, 0, 0).measure == 0


def test_measure_law_random():
    rng = random.Random(41)
    for _ in range(400):
        q = rng.randint(1, 120)
        psi = F(rng.randint(0, 50), 100)
        y = F(rng.randint(-300, 300), rng.randint(1, 40))
        report = approx_set_measure(q, psi, y)
        assert report.ok
        assert report.measure == 2 * F(totient(q) * psi, q)


def test_measure_bound_above_half():
    # beyond psi = 1/2 the closed form is only an upper bound
    report = approx_set_measure(6, F(7, 2), 0)
    assert report.measure <= min(F(1), report.closed_form)
    assert report.ok


def test_build_translate_identity():
    rng = random.Random(43)
    for _ in range(200):
        q = rng.randint(1, 80)
        psi = F(rng.randint(1, 40), 80)
        y = F(rng.randint(-200, 200), rng.randint(1, 30))
        direct = build_approx_set(q, psi, y)
        rotated = build_approx_set(q, psi, 0).translate(F(y, q))
        assert direct == rotated


def test_product_measure():
    assert product_measure(F(1, 4), 3) == F(1, 64)
    assert product_measure(F(3, 7), 1) == F(3, 7)
    assert product_measure([F(1, 4), F(1, 4)], 2) == F(1, 16)
    with pytest.raises(ValueError):
        product_measure([F(1, 4)], 2)


def test_equidistribution_ratio():
    assert equidistribution_ratio(5, F(1, 5), 0, 0, F(1, 2)) == F(1, 2)
    assert equidistribution_ratio(5, F(1, 5), 0, 0, 1) == 1
    assert equidistribution_ratio(2, F(1, 4), 0, 0, F(1, 2)) == F(1, 2)
    with pytest.raises(ValueError):
        equidistribution_ratio(5, 0, 0, 0, F(1, 2))


def test_hit_test_examples():
    assert hit_test(F(1, 2), 2, F(1, 4), 0)
    assert not hit_test(F(0), 2, F(1, 4), 0)
    assert not hit_test(F(1, 2), 2, 0, 0)
    assert hit_test(0.5, 2, 0.25, 0.0)


def test_hit_test_matches_membership():
    rng = random.Random(47)
    checked = 0
    while checked < 10**4:
        q = rng.randint(1, 60)
        psi = F(rng.randint(1, 30), 60)
        y = F(rng.randint(-120, 120), rng.randint(1, 20))
        approx = build_approx_set(q, psi, y)
        for _ in range(25):
            x = F(rng.randint(0, 10**6), 10**6 + 3)
            # skip exact endpoints, where the strict inequality and the
            # half-open pieces disagree by convention
            if any(x == lo or x == hi for lo, hi in approx.pieces):
                continue
            assert hit_test(x, q, psi, y) == approx.contains(x)
            checked += 1


def test_approx_function_families():
    const = ApproxFunction.parse("const:1/4")
    assert const(7) == F(1, 4)
    power = ApproxFunction.parse("pow:1/2,1")
    assert power(4) == F(1, 8)
    assert power(1) == F(1, 2)
    raw = ApproxFunction.parse("pow:3/1,0,raw")
    assert raw(10) == 3  # clipping disabled
    clipped = ApproxFunction.power(3, 0)
    assert clipped(10) == F(1, 2)
    div3 = ApproxFunction.parse("div3")
    assert div3(1) == F(1, 2)
    assert div3(64) == F(64, totient(64) * 4)
    # the family keeps (phi psi / q)**3 summing like 1/q
    for q in (27, 30, 100, 343):
        value = div3(q)
        if value < F(1, 2):
            cube = (F(totient(q) * value, q)) ** 3
            assert cube.denominator <= q and cube >= F(1, q)
    with pytest.raises(ValueError):
        ApproxFunction.parse("pow:1/2,1/3")
    with pytest.raises(ValueError):
        ApproxFunction.parse("nonsense")


def test_approx_function_table(tmp_path):
    path = tmp_path / "psi.csv"
    path.write_text("2,1/4\n6,1/3\n")
    table = ApproxFunction.parse(f"table:{path}")
    assert table(2) == F(1, 4)
    assert table(6) == F(1, 3)
    assert table(5) == 0


def test_target_sequences(tmp_path):
    zero = TargetSequence.parse("zero", 2)
    assert zero(9) == (F(0), F(0))
    const = TargetSequence.parse("const:1/3,2/5", 2)
    assert const(4) == (F(1, 3), F(2, 5))
    broadcast = TargetSequence.parse("const:1/3", 3)
    assert broadcast(4) == (F(1, 3),) * 3
    path = tmp_path / "y.csv"
    path.write_text("2,1/7,2/7\n")
    table = TargetSequence.parse(f"table:{path}", 2)
    assert table(2) == (F(1, 7), F(2, 7))
    assert table(3) == (F(0), F(0))
    with pytest.raises(ValueError):
        TargetSequence.parse("const:1/3,2/5", 3)
