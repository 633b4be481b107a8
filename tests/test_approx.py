import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torusapprox import verification
from torusapprox.approx import (
    _sumset_numerators,
    ApproxFunction,
    TargetSequence,
    approx_set_measure,
    build_approx_set,
    coprime_residues,
    hit_test,
)
from torusapprox.arith import totient
from torusapprox.counterexample import instance_from_prime_blocks
from torusapprox.experiments import equidistribution_scan
from torusapprox.torus import TorusIntervalSet

F = Fraction


def test_reduced_fractions():
    # The reduced fractions a/q on the circle, as their numerators a.
    assert coprime_residues(1) == [0]
    assert coprime_residues(6) == [1, 5]
    assert coprime_residues(5) == [1, 2, 3, 4]
    for q in range(1, 3001):
        residues = coprime_residues(q)
        assert len(residues) == totient(q)
        assert residues == [a for a in range(q) if math.gcd(a, q) == 1]


def test_sumset_examples():
    assert _sumset_numerators(2, 3) == [1, 5]
    assert _sumset_numerators(1, 9) == coprime_residues(9)
    assert _sumset_numerators(3, 5) == coprime_residues(15)


def test_sumset_squarefree_divisor_pairs():
    # spot version of the exhaustive acceptance run
    for q in (2, 6, 30, 42, 105, 210):
        for r in range(1, q + 1):
            if q % r == 0:
                assert _sumset_numerators(r, q // r) == coprime_residues(q)


def _drop_one_residue(r, s):
    rs = r * s
    return sorted((a * s + b * r) % rs for a in coprime_residues(r)[1:] for b in coprime_residues(s))


def _swap_r_and_s(r, s):
    rs = r * s
    return sorted((a * r + b * s) % rs for a in coprime_residues(r) for b in coprime_residues(s))


@pytest.mark.parametrize("mutant", [_drop_one_residue, _swap_r_and_s])
def test_sumset_suite_catches_core_mutations(monkeypatch, mutant):
    assert verification.check_sumsets(limit=30).ok
    monkeypatch.setattr(verification, "_sumset_numerators", mutant)
    assert not verification.check_sumsets(limit=30).ok


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
    assert build_approx_set(5, 0, 0) == TorusIntervalSet.empty()
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


psis = st.integers(1, 12).flatmap(lambda b: st.builds(F, st.integers(0, 2 * b), st.just(b)))
targets = st.builds(F, st.integers(-300, 300), st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), psis, targets)
@example(2, F(1, 4), F(1))  # the arc at 1/2 + 1/2 crosses 1
@example(5, F(1, 2), F(0))  # psi = 1/2, q prime, y = 0: every residue is one run
@example(9, F(1, 2), F(2))  # psi = 1/2: run {7, 8} straddles 1; arc 7's tail [0, 1/18) joins arc 8's [1/18, 3/18)
@example(9, F(1, 2), F(1))  # psi = 1/2: the run {7, 8} wraps but misses run {1, 2}
@example(2, F(1, 2), F(1))  # psi = 1/2, one residue: the one arc crosses 1
@example(5, F(3, 4), F(0))  # overlapping arcs
@example(1, F(1, 4), F(1, 3))  # q = 1: the one arc at y
@example(3, F(2), F(0))  # 2 psi / q >= 1: the full circle
def test_build_matches_from_spans(q, psi, y):
    # The raw arcs [(a + y - psi)/q, (a + y + psi)/q) over the coprime a,
    # reduced, sorted and merged by the general constructor.
    scale = y.denominator * psi.denominator
    start = y.numerator * psi.denominator - psi.numerator * y.denominator
    length = 2 * psi.numerator * y.denominator
    spans = [(a * scale + start, a * scale + start + length) for a in coprime_residues(q)]
    assert build_approx_set(q, psi, y) == TorusIntervalSet.from_spans(q * scale, spans)


def test_equidistribution_ratio():
    psi = ApproxFunction.from_table({2: F(1, 4), 5: F(1, 5)})
    rows = equidistribution_scan(5, psi, TargetSequence.zero(), [(0, F(1, 2)), (0, 1)])
    ratios = {(row.q, row.window[1]): row.ratio for row in rows}
    # psi(q) = 0 at q = 1, 3, 4: the ratio is undefined and the scan skips q.
    assert ratios == {(2, F(1, 2)): F(1, 2), (2, 1): 1, (5, F(1, 2)): F(1, 2), (5, 1): 1}


def test_hit_test_examples():
    assert hit_test(F(1, 2), 2, F(1, 4), 0)
    assert not hit_test(F(0), 2, F(1, 4), 0)
    assert not hit_test(F(1, 2), 2, 0, 0)
    assert hit_test(0.5, 2, 0.25, 0.0)
    # q*x = 3 is within 5/2 of 1 and 5, two steps past its nearest integers
    # 2, 3 and 4, none of them coprime to 6.
    assert hit_test(F(1, 2), 6, F(5, 2), 0)
    # psi = 2: q*x = 3 is the left end of a = 5's arc [3/6, 7/6) and the
    # right end, left out, of a = 1's arc [-1/6, 3/6).
    assert hit_test(F(1, 2), 6, F(2), 0)


def _dyadic(lo: int, hi: int):
    """Rationals n / 2**k in [lo, hi] with k <= 20."""
    return st.integers(0, 20).flatmap(
        lambda k: st.integers(lo << k, hi << k).map(lambda n: F(n, 1 << k))
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), _dyadic(0, 1), _dyadic(0, 1), _dyadic(-64, 64))
@example(2, F(3, 8), F(1, 4), F(0))  # t = 3/4 sits on the arc's edge
@example(2, F(1, 2), F(0), F(0))
def test_hit_test_float_matches_fraction_on_dyadics(q, x, psi, y):
    # A float argument is read as the Fraction it equals.
    assert hit_test(float(x), q, float(psi), float(y)) == hit_test(x, q, psi, y)


def test_hit_test_matches_membership():
    rng = random.Random(47)
    configs = [(q, psi, y) for q in range(1, 13) for psi in (F(1, 2), F(1))
               for y in (F(0), F(1, 3), F(-7, 5))]
    while len(configs) < 500:
        configs.append((rng.randint(1, 60), F(rng.randint(1, 240), 60),
                        F(rng.randint(-120, 120), rng.randint(1, 20))))
    for q, psi, y in configs:
        approx = build_approx_set(q, psi, y)
        # Every arc end (a + y -+ psi)/q, where the half-open convention
        # decides, and at psi = 1/2 and psi = 1 the points where arcs touch
        # end to end.
        points = [(a + y + sign * psi) / q for a in coprime_residues(q) for sign in (-1, 1)]
        points += [F(rng.randint(0, 10**6), 10**6 + 3) for _ in range(25)]
        for x in points:
            assert hit_test(x, q, psi, y) == approx.contains(x), (q, psi, y, x)


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
    with pytest.raises(ValueError, match="table row dimension mismatch"):
        TargetSequence.from_table({1: (0, 1)}, 1)


def _families(tmp_path):
    """One weight and one target family of every kind, cx ones from a saved
    P = 30 instance."""
    cx = tmp_path / "cx.json"
    instance_from_prime_blocks([[2, 3, 5]]).save(cx)
    psi_csv = tmp_path / "psi.csv"
    psi_csv.write_text("2,1/4\n6,1/3\n")
    y_csv = tmp_path / "y.csv"
    y_csv.write_text("2,1/7\n5,3/7\n")
    weights = [ApproxFunction.parse(spec) for spec in (
        "const:1/4", "pow:1/2,1", "pow:3/1,1,raw", f"table:{psi_csv}", "div3", f"cx:{cx}",
    )]
    targets = [TargetSequence.parse(spec) for spec in (
        "zero", "const:2/5", f"table:{y_csv}", f"cx:{cx}",
    )]
    return weights, targets


def test_every_family_kind_survives_a_pickle_round_trip(tmp_path):
    weights, targets = _families(tmp_path)
    for family in weights + targets:
        copy = pickle.loads(pickle.dumps(family))
        assert type(copy) is type(family)
        assert copy.describe() == family.describe()
        assert [copy(q) for q in range(1, 51)] == [family(q) for q in range(1, 51)]


def test_families_share_one_call_and_describe(tmp_path):
    for cls in (ApproxFunction, TargetSequence):
        assert "__call__" not in vars(cls) and "describe" not in vars(cls)
    weights, targets = _families(tmp_path)
    assert not any(hasattr(family, "kind") for family in weights + targets)
    # cx specs load their instance without a loader argument.
    assert weights[-1](6) == F(1, 10)
    assert targets[-1].describe().startswith("cx:")
    with pytest.raises(ValueError, match="one-dimensional"):
        TargetSequence.parse(targets[-1].describe(), 2)
