"""The scan's closed-form overlap engine against the interval merge.

`_pair_overlap_units` sums f(c) times the trapezoid over every integer
difference c in closed form; `measure_intersection` merges the two interval
sets.  They must agree exactly whenever both weights are at most 1/2, and
the scan must give the same sums whichever engine serves a pair.
"""

import hashlib
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from torusapprox.approx import ApproxFunction, TargetSequence, build_approx_set
from torusapprox.arith import factorize
from torusapprox.cli import run
from torusapprox.experiments import ExperimentConfig, pairwise_overlap_sum
from torusapprox.overlap import _overlap_row, _pair_overlap_units
from torusapprox.torus import measure_intersection

SRC = Path(__file__).resolve().parent.parent / "src"


def kernel(q, psi_q, y_q, r, psi_r, y_r):
    row_q = _overlap_row(q, factorize(q), psi_q, y_q)
    row_r = _overlap_row(r, factorize(r), psi_r, y_r)
    return F(*_pair_overlap_units(row_q, row_r))


def merge(q, psi_q, y_q, r, psi_r, y_r):
    return measure_intersection(build_approx_set(q, psi_q, y_q), build_approx_set(r, psi_r, y_r))


moduli = st.integers(1, 300)
weights = st.one_of(
    st.sampled_from([F(0), F(1, 2), F(1, 4), F(1, 3)]),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=10**6),
)
targets = st.one_of(
    st.sampled_from([F(0), F(-1, 3), F(5, 2)]),
    st.fractions(min_value=-40, max_value=40, max_denominator=10**6),
)


@st.composite
def moduli_pairs(draw):
    q = draw(moduli)
    kind = draw(st.sampled_from(["any", "multiple", "equal"]))
    if kind == "multiple":
        return q, q * draw(st.integers(1, 300 // q))
    if kind == "equal":
        return q, q
    return q, draw(moduli)


@settings(max_examples=300, deadline=None)
@given(moduli_pairs(), weights, weights, targets, targets)
@example((1, 1), F(1, 2), F(1, 2), F(0), F(1, 3))
@example((1, 7), F(1, 2), F(0), F(0), F(0))
@example((12, 36), F(1, 2), F(1, 2), F(-7, 5), F(2, 3))
@example((210, 210), F(1, 2), F(1, 4), F(0), F(1, 2))
@example((64, 128), F(1, 2), F(1, 2), F(0), F(0))
@example((299, 300), F(123457, 999983), F(1, 999979), F(-31, 999961), F(17, 3))
@example((210, 330), F(1, 2), F(1, 3), F(2, 7), F(-5, 3))  # 2, 3, 5 balanced; 7, 11 split
@example((90, 126), F(1, 2), F(1, 2), F(1, 5), F(0))  # 2 and 3**2 balanced (p - 2 = 1)
@example((48, 144), F(1, 2), F(1, 4), F(0), F(3, 8))  # 2**4 balanced, 3 split, em = 3
@example((1, 30), F(1, 2), F(1, 2), F(1, 3), F(0))
def test_kernel_equals_merge(pair, psi_q, psi_r, y_q, y_r):
    q, r = pair
    expected = merge(q, psi_q, y_q, r, psi_r, y_r)
    assert kernel(q, psi_q, y_q, r, psi_r, y_r) == expected
    assert kernel(r, psi_r, y_r, q, psi_q, y_q) == expected


def direct_double_sum(Q, psi, target):
    """Sum over ordered pairs q != r <= Q of the product of the per-
    coordinate set intersections, by the interval merge alone."""
    sets = {
        q: [build_approx_set(q, psi(q), y) for y in target(q)] for q in range(1, Q + 1)
    }
    total = F(0)
    for q in range(1, Q + 1):
        for r in range(1, Q + 1):
            if q == r:
                continue
            value = F(1)
            for a, b in zip(sets[q], sets[r]):
                value *= measure_intersection(a, b)
            total += value
    return total


def test_scan_with_merge_fallback_matches_direct_sum():
    # psi > 1/2 on q = 3, 5 and 8 sends every pair that touches them to
    # the interval merge; the other pairs take the closed form.
    table = {q: F(1, 4) for q in range(1, 13)}
    table.update({3: F(2, 3), 5: F(3, 4), 8: F(5, 8), 9: F(1, 2), 10: F(0)})
    psi = ApproxFunction.from_table(table)
    target = TargetSequence.from_table(
        {q: (F(q, 7) - 1,) for q in range(1, 13)}, 1
    )
    report = pairwise_overlap_sum(ExperimentConfig(Q=12, psi=psi, target=target))
    assert report.pair_sum == direct_double_sum(12, psi, target)
    assert report.merge_pairs == 3 * 11 - 3
    assert report.closed_form_pairs == 12 * 11 // 2 - report.merge_pairs


def test_scan_m2_shared_target_components():
    # Rows where both coordinates share a target share one memo key; the
    # others need two overlaps per pair.
    rows = {}
    for q in range(1, 15):
        if q % 3 == 0:
            rows[q] = (F(1, 5), F(1, 5))
        else:
            rows[q] = (F(1, 5), F(q, 11))
    target = TargetSequence.from_table(rows, 2)
    psi = ApproxFunction.constant(F(1, 3))
    report = pairwise_overlap_sum(ExperimentConfig(Q=14, psi=psi, target=target, m=2))
    assert report.pair_sum == direct_double_sum(14, psi, target)
    assert report.closed_form_pairs == 14 * 13 // 2 and report.merge_pairs == 0


def test_worker_invariance_with_moving_targets():
    target = TargetSequence.from_table(
        {q: (F((7 * q) % 19 - 9, q % 5 + 1),) for q in range(1, 41)}, 1
    )
    psi = ApproxFunction.from_table({q: F(1, 4) if q % 7 else F(3, 5) for q in range(1, 41)})
    for mode in ("exact", "enclosure"):
        reports = [
            pairwise_overlap_sum(
                ExperimentConfig(Q=40, psi=psi, target=target, mode=mode, workers=w)
            )
            for w in (1, 2, 3)
        ]
        first = reports[0]
        for other in reports[1:]:
            assert other.pair_sum == first.pair_sum
            assert other.measure_sum == first.measure_sum
            assert other.per_q_measures == first.per_q_measures
            assert (other.closed_form_pairs, other.merge_pairs) == (
                first.closed_form_pairs, first.merge_pairs,
            )
        assert first.merge_pairs > 0 and first.closed_form_pairs > 0
    exact = pairwise_overlap_sum(ExperimentConfig(Q=40, psi=psi, target=target)).pair_sum
    lo, hi = reports[0].pair_sum
    assert lo <= exact <= hi


def test_pairwise_reports_engine_line_on_stderr(capsys):
    code = run("pairwise --Q 40 --m 2 --psi const:1/4 --y const:1/5 --workers 2".split())
    captured = capsys.readouterr()
    assert code == 0
    # The same digest as in test_cli_golden: the report stream is unchanged.
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "bb7e97b86031ec54d2d98fbe85181117ecb242033fc982fa470f671929fe0976"
    )
    assert captured.err.splitlines()[0] == "workers=2"
    assert re.fullmatch(
        r"pairs closed_form=780 merge=0 seconds=\d+\.\d{3}", captured.err.splitlines()[1]
    )


PATCHED_TOTIENT = """
import sys
sys.path.insert(0, sys.argv[1])
import torusapprox.overlap as overlap
from torusapprox.cli import run
real = overlap.totient
overlap.totient = lambda n: real(n) + 1
sys.exit(run(["overlap", "--q", "12", "--r", "18", "--psi", "const:1/4"]))
"""


def test_identity_checks_survive_optimize_flag():
    done = subprocess.run(
        [sys.executable, "-O", "-c", PATCHED_TOTIENT, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("identity failure: ell/em/en identities fail")
