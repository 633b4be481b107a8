import math
import pickle
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from torusapprox import experiments, overlap, verification
from torusapprox.approx import ApproxFunction, TargetSequence, build_approx_set, hit_test
from torusapprox.arith import spf_table, totient, totient_range
from torusapprox.errors import BudgetError, IdentityError
from torusapprox.experiments import (
    Enclosure,
    ExperimentConfig,
    equidistribution_scan,
    main_term_sum_check,
    mc_coverage,
    pairwise_overlap_sum,
    phigcd_batch_check,
    phigcd_ratio_scan,
    phigcd_sum,
    quasi_independence_ladder,
    unit_sample,
)
from torusapprox.counterexample import build_counterexample
from torusapprox.overlap import decompose_pair, overlap_report, pair_overlap_exact
from torusapprox.torus import measure_intersection
from torusapprox.verification import check_quasi_ladder

F = Fraction

CONST4 = ApproxFunction.constant(F(1, 4))
ZERO1 = TargetSequence.zero(1)


def test_pairwise_hand_example_q3():
    report = pairwise_overlap_sum(ExperimentConfig(Q=3, psi=CONST4, target=ZERO1))
    # only (2,3) and (3,2) overlap, by 1/12 each
    assert report.pair_sum == F(1, 6)
    # measures 1/2, 1/4, 1/3 for q = 1, 2, 3
    assert report.measure_sum == F(13, 12)
    assert report.ratio == report.pair_sum / report.measure_sum**2
    assert report.per_q_measures == ((1, F(1, 2)), (2, F(1, 4)), (3, F(1, 3)))


@pytest.mark.parametrize("m", [1, 3])
def test_measure_sum_matches_the_sets_on_both_sides_of_a_half(m):
    # Weights up to 1/2 take 2 phi(q) psi(q)/q; 3/4 builds the set.
    psi = ApproxFunction.from_table({q: F(q % 4, 4) for q in range(1, 25)})
    report = pairwise_overlap_sum(
        ExperimentConfig(Q=24, psi=psi, target=TargetSequence.zero(m), m=m))
    assert report.per_q_measures == tuple(
        (q, build_approx_set(q, psi(q), 0).measure() ** m) for q in range(1, 25))
    assert all(type(value) is F for _, value in report.per_q_measures)
    # A family past `from_table`'s check still meets the set's refusal.
    negative = ApproxFunction("negative", table={1: F(1, 4), 2: F(-1, 4)}, default=F(0))
    with pytest.raises(ValueError, match="^psi must be non-negative$"):
        pairwise_overlap_sum(
            ExperimentConfig(Q=3, psi=negative, target=TargetSequence.zero(m), m=m))


def test_pairwise_zero_weight():
    zero_psi = ApproxFunction.constant(0)
    report = pairwise_overlap_sum(ExperimentConfig(Q=3, psi=zero_psi, target=ZERO1))
    assert report.pair_sum == 0 and report.measure_sum == 0
    assert report.ratio is None


def test_pairwise_m3_cube_rule():
    report = pairwise_overlap_sum(
        ExperimentConfig(Q=3, psi=CONST4, target=TargetSequence.zero(3), m=3)
    )
    assert report.pair_sum == 2 * F(1, 12) ** 3


def test_pairwise_matches_direct_double_sum():
    target = TargetSequence.constant([0, F(1, 2)], 2)
    report = pairwise_overlap_sum(ExperimentConfig(Q=5, psi=CONST4, target=target, m=2))
    manual_pairs = F(0)
    manual_measures = F(0)
    for q in range(1, 6):
        sets = [build_approx_set(q, F(1, 4), y) for y in (F(0), F(1, 2))]
        value = F(1)
        for s in sets:
            value *= s.measure()
        manual_measures += value
        for r in range(1, 6):
            if q == r:
                continue
            others = [build_approx_set(r, F(1, 4), y) for y in (F(0), F(1, 2))]
            value = F(1)
            for a, b in zip(sets, others):
                value *= measure_intersection(a, b)
            manual_pairs += value
    assert report.pair_sum == manual_pairs
    assert report.measure_sum == manual_measures


def test_pairwise_worker_invariance():
    results = [
        pairwise_overlap_sum(
            ExperimentConfig(Q=24, psi=CONST4, target=ZERO1, workers=w)
        )
        for w in (1, 2, 5)
    ]
    assert results[0].pair_sum == results[1].pair_sum == results[2].pair_sum
    assert results[0].measure_sum == results[1].measure_sum == results[2].measure_sum


def test_quasi_ladder_line_pinned():
    # The ladder suite's report line at reduced size, byte for byte.
    result = check_quasi_ladder(ladder=(16, 32, 64), worker_counts=(1, 2))
    assert result.line() == (
        "PASS  ladder: ratios bounded by baselines over Q in (16, 32, 64); "
        "ratio(64) ~ 1.035396478 (exact rational checked); "
        "bit-identical for workers (1, 2)"
    )


def test_quasi_ladder_takes_its_family_from_the_fixture(monkeypatch):
    fixture = experiments.load_baselines()
    fixture["quasi_ladder"].update(family="const:1/4", m=2, target="const:1/3,0")
    monkeypatch.setattr(verification, "load_baselines", lambda: fixture)
    seen = []

    class Stop(Exception):
        pass

    def ladder(psi, target, m, ladder):
        seen.append((psi.describe(), target.describe(), target.m, m))
        raise Stop  # before any scan runs

    monkeypatch.setattr(verification, "quasi_independence_ladder", ladder)
    with pytest.raises(Stop):
        check_quasi_ladder(ladder=(16,))
    assert seen == [("const:1/4", "const:1/3,0/1", 2, 2)]


@pytest.mark.parametrize("workers", [1, 3])
def test_quasi_ladder_reads_prefixes_of_one_scan(monkeypatch, workers):
    # psi > 1/2 at q = 3, 6, 9 sends their pairs to the interval merge;
    # the targets move with q, and share a component for even q.
    weights = ["1/4", "1/3", "3/5", "1/5", "1/2", "2/3", "1/4", "1/6", "3/4", "2/5", "1/3"]
    psi = ApproxFunction.from_table({q: F(w) for q, w in enumerate(weights, start=1)})
    target = TargetSequence.from_table(
        {q: (F(q, 13), F(q, 13) if q % 2 == 0 else F(1, q + 1)) for q in range(1, 12)}, 2
    )
    scan = experiments.pairwise_overlap_sum
    calls = []
    monkeypatch.setattr(
        experiments, "pairwise_overlap_sum", lambda cfg: calls.append(cfg.Q) or scan(cfg)
    )
    ladder = (7, 2, 11, 5)
    reports = quasi_independence_ladder(psi, target, 2, ladder)
    assert calls == [11]
    assert reports[2].merge_pairs > 0
    for q_max, report in zip(ladder, reports):
        alone = scan(ExperimentConfig(Q=q_max, psi=psi, target=target, m=2, workers=workers))
        assert report.pair_sum == alone.pair_sum
        assert report.measure_sum == alone.measure_sum
        assert report.ratio == alone.ratio
        assert report.per_q_measures == alone.per_q_measures
        assert report.row_sums == alone.row_sums
        assert [r for r, _ in alone.row_sums] == list(range(1, q_max + 1))
        assert 2 * sum(row_sum for _, row_sum in alone.row_sums) == alone.pair_sum
        # Field by field, pair counts too; the ladder's one scan ran in-process.
        assert report._asdict() == alone._replace(workers=1)._asdict()


@pytest.mark.parametrize("ladder", [(5, 5), (4, 8, 4), (3, 2, 7, 2)])
def test_a_ladder_value_given_twice_is_refused(ladder):
    twice = next(v for i, v in enumerate(ladder) if v in ladder[:i])
    for check in (partial(main_term_sum_check, CONST4, 1),
                  partial(quasi_independence_ladder, CONST4, ZERO1, 1)):
        with pytest.raises(ValueError, match=f"^ladder value {twice} is given twice$"):
            check(ladder)


@pytest.mark.parametrize("Q, asked, ran", [(2, 3, 1), (3, 3, 2), (6, 2, 2), (6, 1, 1)])
def test_sum_report_counts_the_workers_that_ran(Q, asked, ran):
    report = pairwise_overlap_sum(ExperimentConfig(Q=Q, psi=CONST4, target=ZERO1, workers=asked))
    assert report.workers == ran
    assert report.closed_form_pairs == Q * (Q - 1) // 2


def test_pairwise_exact_cap_refusal():
    cfg = ExperimentConfig(Q=40, psi=CONST4, target=ZERO1)
    cfg.exact_q_cap = 32
    with pytest.raises(BudgetError, match="enclosure"):
        pairwise_overlap_sum(cfg)


def test_ladder_past_the_exact_cap_refuses_before_building_a_set(monkeypatch):
    def build_approx_set(*args):
        raise AssertionError("a set was built before the exact cap refused the ladder")

    monkeypatch.setattr(experiments, "build_approx_set", build_approx_set)
    with pytest.raises(BudgetError, match="capped at Q = 512"):
        quasi_independence_ladder(CONST4, ZERO1, 1, [16, experiments.DEFAULT_EXACT_Q_CAP + 1])


def test_measure_sum_matches_each_coordinates_own_set():
    # Targets that differ by coordinate and by q: each coordinate's set is a
    # rotation of the set centred on 0, so the product of their measures is
    # the measure of that one set to the power m.
    weights = ["1/4", "1/3", "3/5", "1/5", "1/2", "2/3", "1/4", "1/6", "3/4"]
    psi = ApproxFunction.from_table({q: F(w) for q, w in enumerate(weights, start=1)})
    target = TargetSequence.from_table(
        {q: (F(q, 13), F(1, q + 1), F(2, 7)) for q in range(1, 10)}, 3
    )
    report = pairwise_overlap_sum(ExperimentConfig(Q=9, psi=psi, target=target, m=3))
    for q, value in report.per_q_measures:
        assert value == math.prod(build_approx_set(q, psi(q), y).measure() for y in target(q))
    assert report.measure_sum == sum(value for _, value in report.per_q_measures)


def test_config_and_enclosure_survive_a_pickle_round_trip():
    # The pool pickles each worker's config and returns its Enclosure.
    cfg = ExperimentConfig(Q=9, psi=CONST4, target=TargetSequence.constant((F(1, 3),)),
                           mode="enclosure", precision=80, workers=2)
    cfg.exact_q_cap = 64
    again = pickle.loads(pickle.dumps(cfg))
    assert (again.Q, again.m, again.mode, again.precision, again.workers,
            again.exact_q_cap) == (9, 1, "enclosure", 80, 2, 64)
    assert pairwise_overlap_sum(again) == pairwise_overlap_sum(cfg)
    enc = Enclosure(64)
    enc.add(1, 3)
    enc.add(-2, 7)
    back = pickle.loads(pickle.dumps(enc))
    assert (back.bits, back.lo_units, back.hi_units) == (enc.bits, enc.lo_units, enc.hi_units)
    assert back.bounds() == enc.bounds()


def test_records_refuse_assignment():
    psi = ApproxFunction.constant(F(1, 4))
    records = {
        "PairDecomposition": (decompose_pair(12, 18), "gcd"),
        "OverlapReport": (overlap_report(2, 3, psi), "M"),
        "SumReport": (pairwise_overlap_sum(ExperimentConfig(Q=3, psi=psi, target=ZERO1)),
                      "pair_sum"),
        "MainTermRow": (main_term_sum_check(psi, 1, [4])[0], "ratio"),
        "McReport": (mc_coverage(psi, ZERO1, [2, 3], 1000), "hits"),
        "EquidistRow": (next(equidistribution_scan(3, psi, ZERO1, [(0, F(1, 2))])), "ratio"),
        "CheckResult": (verification.check_counterexample(), "ok"),
        "Block": (build_counterexample(1).blocks[0], "P"),
    }
    for name, (record, field) in records.items():
        assert type(record).__name__ == name
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == before
        with pytest.raises(AttributeError):
            record.extra = 1


def test_enclosure_mode_brackets_exact_value():
    exact = pairwise_overlap_sum(ExperimentConfig(Q=16, psi=CONST4, target=ZERO1))
    enclosed = pairwise_overlap_sum(
        ExperimentConfig(Q=16, psi=CONST4, target=ZERO1, mode="enclosure", precision=80)
    )
    lo, hi = enclosed.pair_sum
    assert lo <= exact.pair_sum <= hi
    assert hi - lo <= F(2 * 16 * 16, 2**80)
    rlo, rhi = enclosed.ratio
    assert rlo <= exact.ratio <= rhi
    # enclosure partial sums are worker-invariant too
    again = pairwise_overlap_sum(
        ExperimentConfig(Q=16, psi=CONST4, target=ZERO1, mode="enclosure",
                         precision=80, workers=3)
    )
    assert again.pair_sum == enclosed.pair_sum


def test_enclosure_precision_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(Q=8, psi=CONST4, target=ZERO1, mode="enclosure", precision=32)


def test_worker_and_precision_caps():
    cap = experiments._WORKER_CAP
    assert cap >= 8  # the ladder suite runs 8 workers
    assert ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, workers=cap).workers == cap
    with pytest.raises(BudgetError, match="workers"):
        ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, workers=cap + 1)
    bits = experiments._PRECISION_CAP
    ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, mode="enclosure", precision=bits)
    with pytest.raises(BudgetError, match="precision"):
        ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, mode="enclosure", precision=bits + 1)
    # Exact mode never reads the precision.
    ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, precision=bits + 1)


def test_build_cap_refuses_before_building():
    assert build_approx_set(10**6, 0, 0).measure() == 0
    with pytest.raises(BudgetError):
        build_approx_set(10**6 + 1, 0, 0)
    with pytest.raises(BudgetError):
        build_approx_set(10**20, F(1, 4), 0)


def test_dyadic_rounding():
    value = F(1, 3)
    third = Enclosure(8)
    third.add(1, 3)
    lo, hi = third.bounds()
    assert lo <= value <= hi
    assert hi - lo == F(1, 256)
    quarter = Enclosure(8)
    quarter.add(1, 4)
    assert quarter.bounds() == (F(1, 4), F(1, 4))
    enc = Enclosure(64)
    enc.add(1, 3)
    enc.add(-1, 7)
    lo, hi = enc.bounds()
    assert lo <= F(1, 3) - F(1, 7) <= hi
    # An unreduced term rounds as its reduced value, and so does a
    # negative numerator: the bounds depend only on the rational.
    for num, den in ((2, 6), (-2, 6), (-5, 7)):
        unreduced, reduced = Enclosure(8), Enclosure(8)
        unreduced.add(num, den)
        g = math.gcd(num, den)
        reduced.add(num // g, den // g)
        assert unreduced.bounds() == reduced.bounds()
        lo, hi = unreduced.bounds()
        assert lo < F(num, den) < hi and hi - lo == F(1, 256)
    assert third.bounds() == (F(85, 256), F(86, 256))
    negative = Enclosure(8)
    negative.add(-2, 6)
    assert negative.bounds() == (F(-86, 256), F(-85, 256))


def _direct_pair_sums(psi, target, m, q_max):
    """Row sums and pair sum of the scan as a Fraction double sum of
    `pair_overlap_exact` products, one coordinate at a time."""
    rows = []
    for r in range(1, q_max + 1):
        row = F(0)
        for q in range(1, r):
            value = F(1)
            for y_q, y_r in zip(target(q), target(r)):
                value *= pair_overlap_exact(q, r, psi, y_q, y_r)
            row += value
        rows.append((r, row))
    return tuple(rows), 2 * sum(row for _, row in rows)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    weights=st.lists(
        st.fractions(min_value=0, max_value=F(3, 4), max_denominator=12), min_size=2, max_size=11
    ),
    targets=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=10), min_size=33, max_size=33
    ),
    workers=st.sampled_from([1, 3]),
)
@example(  # psi > 1/2 at q = 3 and q = 6 sends their pairs to the merge
    m=2, weights=[F(1, 4), F(1, 3), F(3, 5), F(1, 5), F(1, 2), F(2, 3), F(1, 6)],
    targets=[F(q, 7) for q in range(33)], workers=3,
)
@example(m=3, weights=[F(1, 4)] * 11, targets=[F(0)] * 33, workers=1)
# Period 11: the two coordinates coincide at every q, one column of power 2.
@example(m=2, weights=[F(1, 3)] * 11, targets=[F(q % 11, 13) for q in range(33)], workers=1)
def test_row_sums_match_a_fraction_double_sum(m, weights, targets, workers):
    q_max = len(weights)
    psi = ApproxFunction.from_table({q: w for q, w in enumerate(weights, start=1)})
    # Coordinate i of q's target is targets[(q + 11 i) mod 33]: moving with q.
    target = TargetSequence.from_table(
        {q: tuple(targets[(q + 11 * i) % 33] for i in range(m)) for q in range(1, q_max + 1)}, m
    )
    report = pairwise_overlap_sum(
        ExperimentConfig(Q=q_max, psi=psi, target=target, m=m, workers=workers)
    )
    assert (report.merge_pairs > 0) == any(w > F(1, 2) for w in weights)
    rows, pair_sum = _direct_pair_sums(psi, target, m, q_max)
    assert report.row_sums == rows
    assert report.pair_sum == pair_sum


def test_main_term_sum_matches_module_function():
    rows = main_term_sum_check(CONST4, 1, [12])
    direct = F(0)
    for q in range(1, 13):
        for r in range(1, 13):
            if q != r:
                direct += overlap_report(q, r, CONST4).M
    assert rows[0].pair_sum == direct
    expected_rhs = sum(
        F(totient(q) * F(1, 4), q) for q in range(1, 13)
    ) ** 2
    assert rows[0].rhs == expected_rhs


@pytest.mark.parametrize("psi, m, ladder", [
    # At [16, 32] the odd stripe holds no pair where M(q, r) != W_q W_r.
    (ApproxFunction.parse("div3"), 3, [16, 64]),
    # Weights 0, 1/4 and 3/4: the scan's flags would send the 3/4 pairs to
    # the merge, msum's kernel keeps them with every flag set.
    (ApproxFunction.from_table({q: F((0, 1, 3)[q % 3], 4) for q in range(1, 25)}), 2, [24]),
], ids=["div3", "table"])
def test_msum_stripes_merge_to_the_one_stripe_sums(monkeypatch, psi, m, ladder):
    one = main_term_sum_check(psi, m, ladder)
    worker = experiments._pairwise_worker
    stripes = []

    def striped(payload, order):
        inputs, kernel, flags, empty, index, count = payload
        assert (all(flags), index, count) == (True, 0, 1)
        # Each stripe gets its own empty accumulator, as a pool worker does.
        stripes[:] = [worker((inputs, kernel, flags, pickle.loads(pickle.dumps(empty)), w, 2))
                      for w in range(2)][order]
        assert all(any(row for _, row in stripe.rows) for stripe in stripes)  # both hold terms
        merged = pickle.loads(pickle.dumps(stripes[0]))
        merged.merge(stripes[1])
        return merged

    def merge_units(*args):
        raise AssertionError("msum sent a pair to the interval merge")

    monkeypatch.setattr(experiments, "_merge_units", merge_units)
    # Stripe 1 into stripe 0, then 0 into 1: the merged rows come in either order.
    for order in (slice(None), slice(None, None, -1)):
        monkeypatch.setattr(experiments, "_pairwise_worker", partial(striped, order=order))
        assert main_term_sum_check(psi, m, ladder) == one
        assert len(stripes) == 2


def test_msum_is_not_held_to_the_scans_exact_cap(monkeypatch):
    # msum sums exactly at any Q: the exact cap is the scan's, read from its
    # config, and msum builds none (the source rule on ExperimentConfig);
    # past the row cap `msum` exits 3 (test_cli's row-cap tests).
    div3 = ApproxFunction.parse("div3")
    expected = main_term_sum_check(div3, 3, [8])
    monkeypatch.setattr(experiments, "DEFAULT_EXACT_Q_CAP", 4)
    assert main_term_sum_check(div3, 3, [8]) == expected
    assert expected[0].Q == 8 and expected[0].pair_sum > 0


def test_main_term_sum_undefined_ratio():
    unsupported = ApproxFunction.from_table({100: F(1, 4)})
    rows = main_term_sum_check(unsupported, 1, [16])
    assert rows[0].pair_sum == 0 and rows[0].ratio is None


def test_main_term_sum_fixture_q16_m3():
    rows = main_term_sum_check(ApproxFunction.power(F(1, 2), 0), 3, [16])
    assert rows[0].pair_sum > 0
    assert rows[0].ratio is not None and rows[0].ratio > 0


def test_phigcd_examples():
    assert phigcd_sum(6, 3) == (20, 20)
    assert phigcd_sum(4, 2) == (7, 7)
    assert phigcd_sum(1, 5) == (1, 1)


def _gcd_histogram_sums(q, ms):
    counts = Counter(map(math.gcd, [q] * q, range(1, q + 1)))
    return [sum(count * totient(g) ** m for g, count in counts.items()) for m in ms]


def test_phigcd_brute_matches_the_full_gcd_histogram():
    # The brute force marks the multiples of each divisor of q, largest
    # first; this oracle calls gcd at every r = 1, ..., q, from q = 1 (no
    # divisor above 1) and through every square q, whose isqrt(q) is listed once.
    for q in range(1, 601):
        assert experiments._phigcd_brute(q, range(1, 5), totient) == _gcd_histogram_sums(
            q, range(1, 5)
        )


@pytest.mark.parametrize("q", [720720, 2**20, 999983, 3**12])
def test_phigcd_brute_matches_the_full_gcd_histogram_at_large_q(q):
    # 720720 has 240 divisors, 2**20 a chain of 21, 999983 is prime and
    # 3**12 a square whose isqrt 3**6 is a divisor.
    assert experiments._phigcd_brute(q, range(1, 5), totient) == _gcd_histogram_sums(
        q, range(1, 5)
    )


def test_phigcd_checks_catch_a_brute_force_that_drops_a_divisor(monkeypatch):
    # Dropping gcd = 2 loses sqrt(q) at q = 4; the divisor forms come from
    # factorize and the sieve, so the loss shows as a mismatch, not a KeyError.
    def drop_two(q, ms, phi):
        counts = Counter(math.gcd(q, r) for r in range(1, q + 1))
        counts.pop(2, None)
        return [sum(count * phi(g) ** m for g, count in counts.items()) for m in ms]

    monkeypatch.setattr(experiments, "_phigcd_brute", drop_two)
    with pytest.raises(IdentityError):
        phigcd_sum(4, 3)
    # 4 * len(range(2, 21, 2)) = 40 mismatches: every m at every even q.
    with pytest.raises(IdentityError, match="^40 brute/divisor mismatches below 20$"):
        phigcd_batch_check(20)


def test_phigcd_batch_and_scan_agree():
    assert phigcd_batch_check(400) is None
    assert phigcd_ratio_scan(400, 2) <= 1  # the m = 2 sum never exceeds q**2


def test_divisor_forms_match_divisor_enumeration():
    limit = 3000
    phi = totient_range(limit)
    divisors = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            divisors[multiple].append(d)
    ms = range(2, 6)
    forms = list(experiments._divisor_forms(limit, ms))
    assert forms == [
        (q, [sum(phi[d] ** m * phi[q // d] for d in divisors[q]) for m in ms], phi[q])
        for q in range(1, limit + 1)
    ]
    for i, m in enumerate(ms):
        best = max(F(hs[i], phi_q**m if m >= 3 else q * q) for q, hs, phi_q in forms)
        assert phigcd_ratio_scan(limit, m) == best


def test_phigcd_batch_check_builds_one_sieve(monkeypatch):
    sieves = []

    def counting(limit):
        sieves.append(limit)
        return spf_table(limit)

    monkeypatch.setattr(experiments, "spf_table", counting)
    assert phigcd_batch_check(200) is None
    assert sieves == [200]


def test_unit_sample_deterministic():
    values = [unit_sample(9, i) for i in range(5)]
    assert values == [unit_sample(9, i) for i in range(5)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values != [unit_sample(10, i) for i in range(5)]


# Hits of 4000 samples as mc_coverage gave them when it called unit_sample
# once per coordinate: (m, psi, target components, q_range, seed, hits).
MC_PINNED = [
    (1, "const:1/4", (F(0),), (2, 3), 101, 2086),
    (2, "const:1/3", (F(1, 5), F(2, 7)), (3, 4, 5), 5004, 1671),
    (3, "pow:1/2,1", (F(0), F(1, 3), F(-2, 9)), (2, 3, 4), 7, 119),
    (1, "div3", (F(1, 3),), tuple(range(5, 13)), -5, 3673),
    # 8000 draws, past one batch of 4096, at a seed above 2**64.  With psi
    # above 1/2 the integers next to the nearest one can hit.
    (2, "const:3/5", (F(1, 3), F(0)), (2, 3, 5, 7), 2**70, 3106),
    (1, "const:3/4", (F(1, 7),), (4, 6, 9), 11, 3776),
]


@pytest.mark.parametrize("m, spec, comps, q_range, seed, hits", MC_PINNED)
def test_mc_inline_draws_match_unit_sample(m, spec, comps, q_range, seed, hits):
    psi = ApproxFunction.parse(spec)
    report = mc_coverage(psi, TargetSequence.constant(comps, m), q_range, 4000, seed=seed)
    assert report.hits == hits
    expected = sum(
        any(
            all(hit_test(F(unit_sample(seed, i * m + d)), q, psi(q), comps[d]) for d in range(m))
            for q in q_range
        )
        for i in range(4000)
    )
    assert report.hits == expected


@pytest.mark.parametrize("seed", [0, -3, 5004, 2**70])
def test_draws_match_unit_sample_across_batches(seed):
    start = 3 * experiments._LANES + 5
    for count in (1, experiments._LANES - 1, experiments._LANES, experiments._LANES + 1):
        assert [v * 2.0**-53 for v in experiments._draws(seed, start, count)] == [
            unit_sample(seed, start + k) for k in range(count)
        ]


def test_mc_determinism_and_exact_zero():
    first = mc_coverage(CONST4, ZERO1, [2], 2000, seed=5)
    second = mc_coverage(CONST4, ZERO1, [2], 2000, seed=5)
    assert first.hits == second.hits
    zero_psi = ApproxFunction.constant(0)
    report = mc_coverage(zero_psi, ZERO1, [2], 2000)
    assert report.estimate == 0.0


def test_wilson_interval_reaches_0_and_1_exactly():
    # Rounding left 2.2e-19 at 0 hits of 1000 and 1 - 2**-53 at 7919 of 7919.
    for z in (1.959963984540054, 3.0):
        for n in range(1000, 20001, 7):
            lo, hi = experiments._wilson(0, n, z)
            assert lo == 0.0 and 0.0 < hi < 1.0
            lo, hi = experiments._wilson(n, n, z)
            assert 0.0 < lo < 1.0 and hi == 1.0
    report = mc_coverage(ApproxFunction.constant(0), ZERO1, [5], 1000)
    assert report.wilson95[0] == report.wilson3s[0] == 0.0
    report = mc_coverage(ApproxFunction.constant(F(1, 2)), ZERO1, [1], 7919)
    assert report.hits == 7919
    assert report.wilson95[1] == report.wilson3s[1] == 1.0


def test_mc_grid_mode_exact_for_aligned_set():
    report = mc_coverage(CONST4, ZERO1, [2], 2000, mode="grid")
    # grid midpoints hit [3/8, 5/8) in exactly 1/4 of the cases
    assert report.hits == 500
    with pytest.raises(ValueError):
        mc_coverage(CONST4, TargetSequence.zero(2), [2], 2000, mode="grid")


@pytest.mark.parametrize("q_range, psi, y, samples", [
    # Midpoint 501/1002 = 1/2 is where the arcs [1/6, 1/2) and [1/2, 5/6)
    # of q = 3 touch: the left end of the second, a hit.
    ((3,), F(1, 2), F(0), 1001),
    # Both ends 3/8 = 753/2008 and 5/8 = 1255/2008 of q = 2 are midpoints.
    ((2,), F(1, 4), F(0), 1004),
    # y = 1/5 puts the left end (1 + 1/5 - 1/10)/4 = 11/40 = 825/3000 of
    # q = 4 on a midpoint.
    ((4,), F(1, 10), F(1, 5), 1500),
])
def test_mc_grid_counts_arc_ends_exactly(q_range, psi, y, samples):
    report = mc_coverage(ApproxFunction.constant(psi), TargetSequence.constant([y], 1),
                         q_range, samples, mode="grid")
    expected = sum(
        any(hit_test(F(2 * i + 1, 2 * samples), q, psi, y) for q in q_range)
        for i in range(samples)
    )
    assert report.hits == expected


def test_mc_builds_tables_per_batch_and_charges_them_to_the_cap(monkeypatch):
    run = partial(mc_coverage, ApproxFunction.constant(F(1, 5)),
                  TargetSequence.constant([F(1, 3), F(0)], 2), [3, 5, 7], 5000, seed=3)
    # 5000 points of m = 2 are 3 batches; each q reads two tables, of
    # q + 2 steps each.
    report = run()
    assert (report.tables, report.entries) == (3 * 6, 3 * 2 * (5 + 7 + 9))
    built = []
    monkeypatch.setattr(experiments, "_arc_units", lambda q, *rest: built.append(q) or [])
    # Room for the tests and two batches' tables: the third batch is
    # refused before its first table.
    monkeypatch.setattr(experiments, "_MC_WORK_CAP", 5000 * 3 * 2 + 2 * report.entries // 3)
    with pytest.raises(BudgetError):
        run()
    assert built == [3, 3, 5, 5, 7, 7] * 2


def test_arc_units_match_hit_test_at_every_unit():
    # q = 3, psi = 1/2 over 6 units: the arcs [1/6, 1/2) and [1/2, 5/6)
    # touch at unit 3 (x = 1/2) and together hold units 1 to 4.
    assert experiments._arc_units(3, F(1, 2), F(0), 6) == [1, 5]
    # Small scales put many units on arc ends, where the convention decides.
    for q in range(1, 13):
        for psi in (F(1, 60), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(2), F(5, 2)):
            for y in (F(0), F(1, 3), F(-7, 5), F(5, 2)):
                approx = build_approx_set(q, psi, y)
                for scale in (12, 60, 61):
                    ends = experiments._arc_units(q, psi, y, scale)
                    # A piece that holds no unit gives two equal ends.
                    assert ends == sorted(ends)
                    hits = [bisect_right(ends, v) % 2 == 1 for v in range(scale)]
                    points = [F(v, scale) for v in range(scale)]
                    assert hits == [hit_test(x, q, psi, y) for x in points], (q, psi, y, scale)
                    assert hits == [approx.contains(x) for x in points], (q, psi, y, scale)


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_coverage(CONST4, ZERO1, [2], 100)  # too few samples
    with pytest.raises(ValueError):
        mc_coverage(CONST4, TargetSequence.zero(4), [2], 2000)


def test_mc_three_sigma_calibration_block():
    # the first construction block: exact union measure 1/3
    from torusapprox.counterexample import build_counterexample

    inst = build_counterexample(1, (F(1, 2),))
    report = mc_coverage(ApproxFunction.counterexample(inst),
                         TargetSequence.counterexample(inst), [2, 3, 6], 20000, seed=3)
    lo, hi = report.wilson3s
    assert lo <= 1 / 3 <= hi


def test_mc_hundred_seed_calibration():
    # exact value inside the 3-sigma Wilson interval in at least 99 of 100 runs
    exact = float(F(1, 4))
    inside = 0
    for seed in range(100):
        report = mc_coverage(CONST4, ZERO1, [2], 10_000, seed=seed)
        lo, hi = report.wilson3s
        inside += lo <= exact <= hi
    assert inside >= 99


@pytest.mark.parametrize("target, powers", [
    # Every target moves off 0: a zero-target row of any q would be waste.
    (TargetSequence.from_table({q: (F(q % 4 + 1, 5),) for q in range(1, 31)}, 1), (1,)),
    (ZERO1, (1,)),
    # Two coordinates share a component: two distinct rows per q, not three.
    (TargetSequence.constant([0, F(1, 3), 0]), (2, 1)),
    # Coordinates 0 and 2 agree at even q only: two columns share q's row there.
    (TargetSequence.from_table(
        {q: (F(q, 7), F(1, 3), F(q, 7) if q % 2 == 0 else F(-q, 5)) for q in range(1, 31)}, 3),
     (1, 1, 1)),
], ids=["moving", "zero", "m3", "m3-per-q"])
def test_coordinate_rows_build_each_row_once(monkeypatch, target, powers):
    built, arith_built = Counter(), Counter()
    part, arith = overlap._target_part, overlap._arith_row

    def counted(arith_q, psi_q, y_q):
        built[arith_q[0], y_q] += 1
        return part(arith_q, psi_q, y_q)

    def arith_counted(q, factors):
        arith_built[q] += 1
        return arith(q, factors)

    monkeypatch.setattr(overlap, "_target_part", counted)
    monkeypatch.setattr(overlap, "_arith_row", arith_counted)
    rows, got = overlap._overlap_rows(overlap._arith_rows(30), CONST4, target)
    assert got == powers
    assert built == Counter({(q, y): 1 for q in range(1, 31) for y in target(q)})
    assert arith_built == Counter(range(1, 31))  # one arithmetic row per q
    for q in range(1, 31):
        assert all(row[0] is rows[q][0][0] for row in rows[q])  # q's one arithmetic row
        # each coordinate's part is aimed at its target
        aims = [F(row[3], row[1]) for row, k in zip(rows[q], powers) for _ in range(k)]
        assert sorted(aims) == sorted(target(q))


def test_equidistribution_scan_is_an_iterator_checked_at_the_call():
    scan = equidistribution_scan(5, CONST4, ZERO1, [(0, F(1, 2)), (F(1, 4), 1)])
    assert iter(scan) is scan
    assert [(row.q, row.window) for row in scan][:3] == [
        (1, (0, F(1, 2))), (1, (F(1, 4), 1)), (2, (0, F(1, 2))),
    ]
    with pytest.raises(ValueError, match="given twice"):
        equidistribution_scan(5, CONST4, ZERO1, [(0, F(1, 2)), (0, F(1, 2))])
    with pytest.raises(ValueError, match="Q must be >= 1"):
        equidistribution_scan(0, CONST4, ZERO1, [(0, 1)])


def test_equidistribution_scan():
    table = ApproxFunction.from_table({5: F(1, 5)})
    scan = list(equidistribution_scan(5, table, ZERO1, [(0, F(1, 2))]))
    assert [(row.q, row.deviation) for row in scan] == [(5, 0)]
    full = equidistribution_scan(30, CONST4, ZERO1, [(0, 1)])
    assert max(row.deviation for row in full) == 0
    # odd primes with psi = 1/q split [0, 1/2] evenly
    for row in equidistribution_scan(
        13, ApproxFunction.power(1, 1, clip=False), ZERO1, [(0, F(1, 2))]
    ):
        if row.q in (3, 5, 7, 11, 13):
            assert row.deviation == 0
