from fractions import Fraction

import pytest

from torusapprox import experiments
from torusapprox.approx import ApproxFunction, TargetSequence, build_approx_set, hit_test
from torusapprox.arith import totient
from torusapprox.errors import BudgetError
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
from torusapprox.overlap import main_term
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
    reports = quasi_independence_ladder(psi, target, 2, ladder, workers=workers)
    assert calls == [11]
    assert reports[2].merge_pairs > 0
    for q_max, report in zip(ladder, reports):
        alone = scan(ExperimentConfig(Q=q_max, psi=psi, target=target, m=2, workers=workers))
        assert report.config == alone.config
        assert report.pair_sum == alone.pair_sum
        assert report.measure_sum == alone.measure_sum
        assert report.ratio == alone.ratio
        assert report.per_q_measures == alone.per_q_measures
        assert report.row_sums == alone.row_sums
        assert [r for r, _ in alone.row_sums] == list(range(1, q_max + 1))
        assert 2 * sum(row_sum for _, row_sum in alone.row_sums) == alone.pair_sum


def test_pairwise_exact_cap_refusal():
    with pytest.raises(BudgetError, match="enclosure"):
        pairwise_overlap_sum(
            ExperimentConfig(Q=40, psi=CONST4, target=ZERO1, exact_q_cap=32)
        )


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


def test_dyadic_rounding():
    value = F(1, 3)
    third = Enclosure(8)
    third.add(value)
    lo, hi = third.bounds()
    assert lo <= value <= hi
    assert hi - lo == F(1, 256)
    quarter = Enclosure(8)
    quarter.add(F(1, 4))
    assert quarter.bounds() == (F(1, 4), F(1, 4))
    enc = Enclosure(64)
    enc.add(F(1, 3))
    enc.add(F(-1, 7))
    lo, hi = enc.bounds()
    assert lo <= F(1, 3) - F(1, 7) <= hi


def test_main_term_sum_matches_module_function():
    rows = main_term_sum_check(CONST4, 1, [12])
    direct = F(0)
    for q in range(1, 13):
        for r in range(1, 13):
            if q != r:
                direct += main_term(q, r, CONST4)
    assert rows[0].pair_sum == direct
    expected_rhs = sum(
        F(totient(q) * F(1, 4), q) for q in range(1, 13)
    ) ** 2
    assert rows[0].rhs == expected_rhs


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


def test_phigcd_batch_and_scan_agree():
    outcome = phigcd_batch_check(400, ms=(1, 2, 3, 4))
    assert outcome["ok"]
    assert outcome["max_ratios"][3] == phigcd_ratio_scan(400, 3)
    assert outcome["max_ratios"][2] <= 1  # the m = 2 sum never exceeds q**2


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
]


@pytest.mark.parametrize("m, spec, comps, q_range, seed, hits", MC_PINNED)
def test_mc_inline_draws_match_unit_sample(m, spec, comps, q_range, seed, hits):
    psi = ApproxFunction.parse(spec)
    cfg = ExperimentConfig(
        Q=max(q_range) + 1, psi=psi, target=TargetSequence.constant(comps, m), m=m, seed=seed,
    )
    report = mc_coverage(cfg, q_range, 4000)
    assert report.hits == hits
    expected = sum(
        any(
            all(hit_test(unit_sample(seed, i * m + d), q, psi(q), comps[d]) for d in range(m))
            for q in q_range
        )
        for i in range(4000)
    )
    assert report.hits == expected


def test_mc_determinism_and_exact_zero():
    cfg = ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, seed=5)
    first = mc_coverage(cfg, [2], 2000)
    second = mc_coverage(cfg, [2], 2000)
    assert first.hits == second.hits
    zero_psi = ApproxFunction.constant(0)
    report = mc_coverage(ExperimentConfig(Q=3, psi=zero_psi, target=ZERO1), [2], 2000)
    assert report.estimate == 0.0


def test_mc_grid_mode_exact_for_aligned_set():
    cfg = ExperimentConfig(Q=3, psi=CONST4, target=ZERO1)
    report = mc_coverage(cfg, [2], 2000, mode="grid")
    # grid midpoints hit [3/8, 5/8) in exactly 1/4 of the cases
    assert report.hits == 500
    with pytest.raises(ValueError):
        mc_coverage(ExperimentConfig(Q=3, psi=CONST4, target=TargetSequence.zero(2), m=2),
                    [2], 2000, mode="grid")


def test_mc_validation():
    cfg = ExperimentConfig(Q=3, psi=CONST4, target=ZERO1)
    with pytest.raises(ValueError):
        mc_coverage(cfg, [2], 100)  # too few samples
    with pytest.raises(ValueError):
        mc_coverage(ExperimentConfig(Q=3, psi=CONST4, target=TargetSequence.zero(4), m=4),
                    [2], 2000)


def test_mc_three_sigma_calibration_block():
    # the first construction block: exact union measure 1/3
    from torusapprox.counterexample import BlockSchedule, build_counterexample

    inst = build_counterexample(BlockSchedule(blocks=1, eps=(F(1, 2),)))
    cfg = ExperimentConfig(
        Q=7,
        psi=ApproxFunction.counterexample(inst),
        target=TargetSequence.counterexample(inst),
        seed=3,
    )
    report = mc_coverage(cfg, [2, 3, 6], 20000)
    lo, hi = report.wilson3s
    assert lo <= 1 / 3 <= hi


def test_mc_hundred_seed_calibration():
    # exact value inside the 3-sigma Wilson interval in at least 99 of 100 runs
    exact = float(F(1, 4))
    inside = 0
    for seed in range(100):
        cfg = ExperimentConfig(Q=3, psi=CONST4, target=ZERO1, seed=seed)
        report = mc_coverage(cfg, [2], 10_000)
        lo, hi = report.wilson3s
        inside += lo <= exact <= hi
    assert inside >= 99


def test_equidistribution_scan():
    table = ApproxFunction.from_table({5: F(1, 5)})
    cfg = ExperimentConfig(Q=5, psi=table, target=ZERO1)
    scan = equidistribution_scan(cfg, [(0, F(1, 2))])
    assert scan["max_deviation"][(F(0), F(1, 2))] == 0
    full = equidistribution_scan(
        ExperimentConfig(Q=30, psi=CONST4, target=ZERO1), [(0, 1)]
    )
    assert full["max_deviation"][(F(0), F(1))] == 0
    # odd primes with psi = 1/q split [0, 1/2] evenly
    for row in equidistribution_scan(
        ExperimentConfig(Q=13, psi=ApproxFunction.power(1, 1, clip=False), target=ZERO1),
        [(0, F(1, 2))],
    )["rows"]:
        if row.q in (3, 5, 7, 11, 13):
            assert row.deviation == 0
