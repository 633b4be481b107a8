"""Acceptance gate: every exhaustive suite at its stated full scale.

One test per criterion; each prints its PASS/FAIL line (run pytest -s to
see them inline) and fails the build if the suite fails.
"""

from torusapprox.verification import (
    check_coprime_counts,
    check_counterexample,
    check_mc_calibration,
    check_measure_law,
    check_overlap_bound,
    check_overlap_engine,
    check_phigcd,
    check_quasi_ladder,
    check_sifted_counts,
    check_sumsets,
)


def _report(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_1_coprime_count_oracle_equivalence():
    # every residue c mod lcm for all 1 <= r < q <= 60, plus the mass identity
    _report(check_coprime_counts(limit=60))


def test_criterion_2_sumset_identity():
    # reduced-fraction sumsets for every squarefree q <= 2310 and divisor r
    _report(check_sumsets(limit=2310))


def test_criterion_3_exact_measure_law():
    # 2 phi(q) psi / q for q <= 500, psi in {1/4, 1/3, 1/2}, 20 targets each
    _report(check_measure_law(limit=500, targets_per=20))


def test_criterion_4_overlap_bound_soundness():
    # recorded constant stays within 1% of the stored baseline
    _report(check_overlap_bound(limit=200))


def test_criterion_5_counterexample_fixtures():
    # containment, exact block measure phi(P)/P, divergence sums
    _report(check_counterexample())


def test_criterion_6_phigcd_sums():
    # brute == divisor form to 10**4; m=3 ratio over q <= 10**5 vs baseline
    _report(check_phigcd(limit_equal=10**4, limit_ratio=10**5))


def test_criterion_7_sifted_counts():
    # inclusion-exclusion error bounded by 2**omega(n) on 10**4 windows
    _report(check_sifted_counts(trials=10**4))


def test_criterion_8_quasi_independence_ladder():
    # exact ratios over Q in {2**4 .. 2**9}, bit-identical across workers
    _report(check_quasi_ladder(ladder=(16, 32, 64, 128, 256, 512),
                               worker_counts=(1, 4, 8)))


def test_criterion_9_mc_calibration():
    # 20 exactly-known measures, >= 19 inside the 3-sigma interval
    _report(check_mc_calibration(samples=100_000, seed=7))


def test_criterion_10_overlap_engine():
    # closed-form pair overlap == interval merge on every pair r < q <= 120,
    # four weight families, zero, constant and seeded moving targets
    _report(check_overlap_engine(limit=120))
