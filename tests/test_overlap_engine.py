"""The scan's closed-form overlap engine against the interval merge.

`_pair_overlap_units` sums f(c) times the trapezoid over every integer
difference c in closed form; `measure_intersection` merges the two interval
sets.  They must agree exactly whenever both weights are at most 1/2, and
the scan must give the same sums whichever engine serves a pair.
"""

import gc
import hashlib
import inspect
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torusapprox import experiments, overlap, verification
from torusapprox.approx import ApproxFunction, TargetSequence, build_approx_set
from torusapprox.arith import factorize
from torusapprox.cli import run
from torusapprox.experiments import ExperimentConfig, pairwise_overlap_sum
from torusapprox.overlap import _arith_row, _pair_overlap_units, _target_part, pair_overlap_exact
from torusapprox.torus import measure_intersection

SRC = Path(__file__).resolve().parent.parent / "src"


def kernel(q, psi_q, y_q, r, psi_r, y_r):
    part_q = _target_part(_arith_row(q, factorize(q)), psi_q, y_q)
    part_r = _target_part(_arith_row(r, factorize(r)), psi_r, y_r)
    return F(*_pair_overlap_units(part_q, part_r))


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
# The prime 2 splits the pair: its terms run over the odd multiples.
@example((6, 15), F(1, 2), F(1, 2), F(1, 3), F(-2, 7))  # 2 only in q
@example((15, 4), F(1, 2), F(1, 2), F(5, 3), F(1, 9))  # 2 only in r
@example((12, 8), F(1, 2), F(1, 2), F(-1, 5), F(3, 4))  # v2 = 2 and 3
@example((2, 16), F(1, 2), F(1, 2), F(2, 3), F(-1, 6))  # v2 = 1 and 4
@example((6, 10), F(1, 2), F(1, 2), F(1, 3), F(3, 7))  # 2 balanced: the control
# Centred pairs, y_q/q = y_r/r with nonzero targets: the centred sums.
@example((2, 3), F(1, 2), F(1, 2), F(2, 5), F(3, 5))  # 2 splits
@example((2, 10), F(1, 2), F(1, 2), F(2, 5), F(2))  # 2 balanced
@example((3, 4), F(1, 4), F(1, 3), F(3, 5), F(4, 5))  # 2 splits, equal widths: inner = 0
def test_kernel_equals_merge(pair, psi_q, psi_r, y_q, y_r):
    q, r = pair
    expected = merge(q, psi_q, y_q, r, psi_r, y_r)
    assert kernel(q, psi_q, y_q, r, psi_r, y_r) == expected
    assert kernel(r, psi_r, y_r, q, psi_q, y_q) == expected


def centred_pairs(rng, count):
    """count pairs q != r with 120 < r <= 1000, a quarter of them with every
    odd prime of r in q, where `_f_terms` reads the list (1,) from r's row."""
    pairs = []
    while len(pairs) < count:
        if len(pairs) % 4:
            q, r = rng.randint(1, 1000), rng.randint(121, 1000)
        else:
            q = r = rng.randint(2, 120)
            primes = [p for p, _ in factorize(q)] + [2]
            while r <= 120:
                r *= rng.choice(primes)
        if r <= 1000 and r != q:
            pairs.append((q, r))
    return pairs


@pytest.mark.parametrize("psi", ["div3", "const:1/4", "const:1/2", "equal widths"])
@pytest.mark.parametrize("target", ["zero", "q/3"])
def test_centred_kernel_past_the_suite_reach(psi, target):
    # check_overlap_engine stops at q = 120; wide steps, and so the early
    # break, are mostly above it.  Equal widths, psi(q)/q = psi(r)/r, make
    # the inner hat 0.
    rng = random.Random(f"{psi} {target}")
    shift = (lambda n: 0) if target == "zero" else (lambda n: F(n, 3))
    for q, r in centred_pairs(rng, 50):
        if psi == "equal widths":
            rule = lambda n: F(n, 2 * max(q, r))
        else:
            rule = ApproxFunction.parse(psi)
        expected = pair_overlap_exact(q, r, rule, shift(q), shift(r))
        assert kernel(q, rule(q), shift(q), r, rule(r), shift(r)) == expected
        assert kernel(r, rule(r), shift(r), q, rule(q), shift(q)) == expected


@pytest.mark.parametrize("psi", ["const:1/4", "pow:1/2,1"])
def test_kernel_equals_merge_over_the_overlap_bound_reach(psi):
    # check_overlap_bound takes every pair r < q <= 200 from the closed form
    # and has the merge confirm only each family's maximising pairs, while
    # check_overlap_engine stops at q = 120.
    rows = overlap._overlap_rows(overlap._arith_rows(200), ApproxFunction.parse(psi),
                                 TargetSequence.zero())[0]
    for q in range(2, 201):
        for r in range(1, q):
            part_q, part_r = rows[q][0], rows[r][0]
            units, den = _pair_overlap_units(part_q, part_r)
            merged, merged_den = overlap._merge_units(part_q, part_r)
            assert units * merged_den == merged * den, (q, r)


def test_one_merge_cache_serves_every_weight_family(monkeypatch):
    # The row memo keys each set on the whole part: the pair (5, 7) at 3/4
    # must not leave its sets behind for the same pair at 1/4.
    ariths = overlap._arith_rows(7)
    parts = []
    for psi in map(ApproxFunction.constant, (F(3, 4), F(1, 4))):
        rows = overlap._overlap_rows(ariths, psi, TargetSequence.zero())[0]
        parts.append((rows[5][0], rows[7][0]))
        units, den = overlap._merge_units(*parts[-1])
        assert F(units, den) == pair_overlap_exact(5, 7, psi)
    assert F(units, den) == F(6, 35)
    for q in (5, 7):
        assert len(ariths[q][5]) == 2  # the memo holds one set per weight
    # Merging the same parts again builds no set.
    built = Counter()
    build = overlap.build_approx_set

    def counted(q, psi_q, y_q):
        built[q] += 1
        return build(q, psi_q, y_q)

    monkeypatch.setattr(overlap, "build_approx_set", counted)
    for part_q, part_r in parts:
        overlap._merge_units(part_q, part_r)
    assert not built


def no_kernel(part_q, part_r):
    raise AssertionError("a gated pair reached the closed-form kernel")


def test_the_gate_alone_sends_pairs_to_the_merge(monkeypatch):
    # With every flag of `overlap`'s gate cleared, the scan, the ladder and
    # the overlap-bound pass value every pair by the merge and every measure
    # by its built set, and give the values the closed form gives.
    psi = ApproxFunction.parse("div3")
    families = (ApproxFunction.constant(F(1, 4)), ApproxFunction.power(F(1, 2), 1))
    config = ExperimentConfig(Q=20, psi=psi, target=TargetSequence.zero(2), m=2)
    scan = pairwise_overlap_sum(config)
    ladder = experiments.quasi_independence_ladder(psi, TargetSequence.zero(2), 2, (8, 20))
    bound = verification._bound_ratio_max(overlap._arith_rows(20), families)
    assert scan.merge_pairs == 0 and ladder[0].closed_form_pairs == 28

    monkeypatch.setattr(overlap, "_closed_form_flags", lambda psi, limit: [False] * (limit + 1))
    monkeypatch.setattr(experiments, "_pair_overlap_units", no_kernel)
    monkeypatch.setattr(verification, "_pair_overlap_units", no_kernel)
    built = Counter()
    build = overlap.build_approx_set

    def counted(q, psi_q, y_q):
        built[q] += 1
        return build(q, psi_q, y_q)

    monkeypatch.setattr(overlap, "build_approx_set", counted)
    gated = pairwise_overlap_sum(config)
    # Once for the measure and once into the merge's set cache.
    assert built == Counter({q: 2 for q in range(1, 21)})
    assert gated._replace(closed_form_pairs=scan.closed_form_pairs, merge_pairs=0) == scan
    assert (gated.closed_form_pairs, gated.merge_pairs) == (0, 190)
    gated_ladder = experiments.quasi_independence_ladder(psi, TargetSequence.zero(2), 2, (8, 20))
    assert [(report.closed_form_pairs, report.merge_pairs) for report in gated_ladder] == [
        (0, 28), (0, 190)]
    assert [report._replace(closed_form_pairs=0, merge_pairs=0) for report in gated_ladder] == [
        report._replace(closed_form_pairs=0, merge_pairs=0) for report in ladder]
    assert verification._bound_ratio_max(overlap._arith_rows(20), families) == bound


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
    # Rows where both coordinates share a target have one distinct row, so
    # a pair of them needs one overlap, squared; the others need two.
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


def exact_overlap_double_sum(Q, psi, target):
    """Sum over ordered pairs q != r <= Q of the product over the
    coordinates of `pair_overlap_exact`, in Fractions."""
    total = F(0)
    for q in range(1, Q + 1):
        for r in range(1, q):
            value = F(1)
            for y_q, y_r in zip(target(q), target(r)):
                value *= pair_overlap_exact(q, r, psi, y_q, y_r)
            total += 2 * value
    return total


def partly_repeating(m):
    """A per-q target whose components repeat in part, the repeats changing
    with q mod 3 (all equal, two equal, all distinct for m = 3), so its
    columns share rows at some q only."""
    table = {}
    for q in range(1, 25):
        a, b, c = F(q, 7), F(1, 3), F(-q, 5)
        table[q] = ((a, a, a), (a, b, a), (a, b, c))[q % 3][:m]
    return TargetSequence.from_table(table, m)


# psi > 1/2 at q = 4, 9 and 14 sends their pairs to the merge path.
MIXED_PSI = ApproxFunction.from_table(
    {q: F(3, 5) if q % 5 == 4 else F(1, 3) for q in range(1, 25)}
)


@pytest.mark.parametrize("psi", [ApproxFunction.constant(F(1, 3)), MIXED_PSI],
                         ids=["closed-form", "with-merge"])
@pytest.mark.parametrize("m, target", [
    (3, TargetSequence.constant([0, F(1, 3), 0], 3)),
    (2, partly_repeating(2)),
    (3, partly_repeating(3)),
], ids=["const-0,1/3,0", "table-m2", "table-m3"])
def test_coordinate_plans_match_the_exact_double_sum(psi, m, target):
    Q = 24
    expected = exact_overlap_double_sum(Q, psi, target)
    for mode in ("exact", "enclosure"):
        reports = [
            pairwise_overlap_sum(ExperimentConfig(
                Q=Q, psi=psi, target=target, m=m, mode=mode, workers=workers))
            for workers in (1, 2)
        ]
        one, two = reports
        assert (one.pair_sum, one.row_sums, one.closed_form_pairs, one.merge_pairs) == (
            two.pair_sum, two.row_sums, two.closed_form_pairs, two.merge_pairs)
        assert (one.merge_pairs > 0) == (psi is MIXED_PSI)
        if mode == "exact":
            assert one.pair_sum == expected
        else:
            lo, hi = one.pair_sum
            assert lo <= expected <= hi


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


def mutant(function, old, new):
    """`function` with the source text `old` replaced by `new`, compiled in
    its module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def test_overlap_engine_suite_catches_a_dropped_odd_offset(monkeypatch):
    # Without the lift by s, a 2-split pair's terms sit at the even multiples.
    assert verification.check_overlap_engine(limit=8).ok
    broken = mutant(overlap._pair_overlap_units, "(delta + s) % (s + s)", "delta % (s + s)")
    monkeypatch.setattr(verification, "_pair_overlap_units", broken)
    assert not verification.check_overlap_engine(limit=8).ok


@pytest.mark.parametrize("old, new", [
    ("(outer + s) // step", "outer // step"),  # odd multiples counted as even ones
    ("u = outer // s", "u = outer // s + 1"),  # one point too many on each side
    # The terms past the outer hat.
    ("total += (a * whole - head) * hat", "pass"),  # dropped
    ("(a * whole - head)", "(head - a * whole)"),  # sign flipped
    ("if s > outer:", "if s > inner:"),  # the break at the inner hat
    ("whole = right == (1,)", "whole = 0"),  # the list (1,) summed as if t > 1
])
def test_overlap_engine_suite_catches_a_broken_centred_sum(monkeypatch, old, new):
    # The zero-target family puts every pair's centres together.
    broken = mutant(overlap._pair_overlap_units, old, new)
    monkeypatch.setattr(verification, "_pair_overlap_units", broken)
    assert not verification.check_overlap_engine(limit=8).ok


def test_coprime_count_suite_catches_a_parity_blind_table(monkeypatch):
    assert verification.check_coprime_counts(8).ok
    broken = mutant(overlap._f_table, "if odd else", "if False else")
    monkeypatch.setattr(verification, "_f_table", broken)
    assert not verification.check_coprime_counts(8).ok


INFLATED_MAXIMUM = """
from torusapprox import verification
real = verification._pair_overlap_units


def inflated(part_q, part_r):
    # (29, 1) maximises both ratios of pow:1/2,1 and the trivial ratio of
    # const:1/4 at limit 30.
    units, den = real(part_q, part_r)
    return (2 * units if (part_q[0][0], part_r[0][0]) == (29, 1) else units), den
"""

INFLATED_FAIL = "FAIL  overlap-bound: const:1/4: closed form != merge at q=29, r=1"


def test_overlap_bound_suite_confirms_its_maxima_by_the_merge(monkeypatch):
    assert verification.check_overlap_bound(limit=30).ok
    namespace: dict = {}
    exec(INFLATED_MAXIMUM, namespace)
    monkeypatch.setattr(verification, "_pair_overlap_units", namespace["inflated"])
    assert verification.check_overlap_bound(limit=30).line() == INFLATED_FAIL


def test_overlap_bound_confirmation_survives_optimize_flag():
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\n" + INFLATED_MAXIMUM
              + "verification._pair_overlap_units = inflated\n"
              + "print(verification.check_overlap_bound(limit=30).line())\n")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [INFLATED_FAIL]


def coincident_below(q0):
    """An m = 3 table whose coordinates 0 and 2 agree for q <= q0 and
    differ above it."""
    return TargetSequence.from_table(
        {q: (F(q, 7), F(1, 3), F(q, 7) if q <= q0 else F(-q, 5)) for q in range(1, 25)}, 3)


@pytest.mark.parametrize("Q, target, powers", [
    (20, TargetSequence.constant([0, F(1, 3), 0], 3), (2, 1)),
    (20, coincident_below(20), (2, 1)),
    (24, coincident_below(20), (1, 1, 1)),
], ids=["const-0,1/3,0", "table-Q20", "table-Q24"])
def test_columns_are_the_distinct_coordinate_sequences(Q, target, powers):
    psi = ApproxFunction.constant(F(1, 3))
    rows, got = overlap._overlap_rows(overlap._arith_rows(Q), psi, target)
    assert got == powers
    for q in range(1, Q + 1):
        assert len(rows[q]) == len(powers)
        # Columns that agree at q share its one part.
        components = [F(part[3], part[1]) for part in rows[q]]
        assert len({id(part) for part in rows[q]}) == len(set(components))
    report = pairwise_overlap_sum(ExperimentConfig(Q=Q, psi=psi, target=target, m=3))
    assert report.pair_sum == exact_overlap_double_sum(Q, psi, target)


def test_each_distinct_pair_of_parts_is_valued_once(monkeypatch):
    # Coordinates (a, a, a), (a, a, b) and (a, b, c) by q mod 3: three
    # columns that agree at some q, so a pair (q, r) has between one and
    # three distinct pairs of target parts, and the kernel runs once for each.
    # No overlap of these sets is 0, so no pair stops at a zero factor.
    Q = 40
    table = {}
    for q in range(1, Q + 1):
        a, b, c = F(1, q + 2), F(1, 3), F(2, q + 3)
        table[q] = ((a, a, a), (a, a, b), (a, b, c))[q % 3]
    target = TargetSequence.from_table(table, 3)
    psi = ApproxFunction.constant(F(1, 2))
    calls = []

    def counted(part_q, part_r):
        calls.append(1)
        return _pair_overlap_units(part_q, part_r)

    monkeypatch.setattr(experiments, "_pair_overlap_units", counted)
    report = pairwise_overlap_sum(ExperimentConfig(Q=Q, psi=psi, target=target, m=3))
    distinct = sum(len(set(zip(target(q), target(r))))
                   for r in range(2, Q + 1) for q in range(1, r))
    assert len(calls) == distinct < 3 * Q * (Q - 1) // 2
    assert report.pair_sum == exact_overlap_double_sum(Q, psi, target)


def test_more_columns_add_only_their_parts():
    # A row's divisor lists depend on q alone, so three columns hold one
    # arithmetic row per q and a small part per column: a random
    # three-column table holds little more than the zero target, where
    # rebuilding q's lists per column held about 2.9 times as much.
    Q = 1024
    rng = random.Random(36)
    table = TargetSequence.from_table(
        {q: tuple(F(rng.randint(-64, 64), rng.randint(1, 64)) for _ in range(3))
         for q in range(1, Q + 1)}, 3)
    psi = ApproxFunction.parse("div3")
    # On Python 3.12+ `Fraction.__hash__` fills a stdlib lru_cache, which
    # tracemalloc would charge to the rows: hash the table's values first.
    hash(tuple(table(q) for q in range(1, Q + 1)))
    held = []
    for target in (TargetSequence.zero(3), table):
        gc.collect()  # empties the free lists, whose reuse tracemalloc does not see
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows, powers = overlap._overlap_rows(overlap._arith_rows(Q), psi, target)
            held.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
    assert powers == (1, 1, 1)
    assert held[1] <= 1.4 * held[0], held
    for q in range(1, Q + 1):
        assert len({id(part) for part in rows[q]}) == len(set(table(q)))
        assert all(part[0] is rows[q][0][0] for part in rows[q])
