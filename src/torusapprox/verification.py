"""The exhaustive verification suites behind `torusapprox verify`.

Each suite checks one family of exact identities, proof-backed
inequalities, or regression-guarded empirical constants at full scale and
returns a CheckResult.  A suite fails one way: its body raises `_Failed`,
or the code it checks raises `IdentityError`, and `_suite` turns either
into the suite's FAIL result, so one failed identity never stops the
suites after it.  The overlap-bound suite takes each pair's overlap from
the closed form and has the interval merge confirm each family's maxima.
The pytest acceptance module and the CLI both run these; a suite failure
is a real failure, never a tolerance tweak."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import NamedTuple

from .approx import (
    ApproxFunction,
    TargetSequence,
    _build_approx_set,
    _measure_check,
    _sumset_numerators,
    approx_set_measure,
    build_approx_set,
    coprime_residues,
)
from .arith import totient_range
from .counterexample import (
    build_counterexample,
    divergence_partial_sum,
    instance_from_prime_blocks,
    verify_block_measure,
)
from .errors import IdentityError
from .experiments import (
    ExperimentConfig,
    baseline_fraction,
    load_baselines,
    mc_coverage,
    pairwise_overlap_sum,
    phigcd_batch_check,
    phigcd_ratio_scan,
    quasi_independence_ladder,
    within_baseline,
)
from . import overlap
from .overlap import (
    _addend2_units,
    _arith_rows,
    _decompose,
    _f_table,
    _main_term_units,
    _merge_units,
    _overlap_rows,
    _pair_overlap_units,
    _trivial_units,
    coprime_pair_histogram,
    sifted_interval_count,
)
from .rationals import format_rational
from .torus import TorusIntervalSet, measure_intersection


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}: {self.detail}"


class _Failed(Exception):
    """A suite's check did not hold; the message is its FAIL detail."""


SUITES: dict = {}  # name -> suite, in definition order


def _suite(name: str):
    """Register a suite under `name`.  Its body returns the PASS detail; a
    `_Failed` or `IdentityError` raised below it becomes the FAIL result.
    The body's `-> CheckResult` names what the registered suite returns."""
    def register(check):
        @functools.wraps(check)
        def suite(*args, **kwargs) -> CheckResult:
            try:
                return CheckResult(name, True, check(*args, **kwargs))
            except (_Failed, IdentityError) as exc:
                return CheckResult(name, False, str(exc))

        SUITES[name] = suite
        return suite

    return register


# -- 1: closed-form coprime pair counts vs brute force ---------------------------


@_suite("coprime-count")
def check_coprime_counts(limit: int = 60) -> CheckResult:
    rows = _arith_rows(limit)
    phi = totient_range(limit**2).__getitem__
    for q in range(2, limit + 1):
        for r in range(1, q):
            hist = coprime_pair_histogram(_decompose(rows[q], rows[r], phi))
            table = _f_table(rows[q], rows[r])
            if table != hist:
                c = next(c for c, (f, brute) in enumerate(zip(table, hist)) if f != brute)
                raise _Failed(f"formula != brute force at q={q}, r={r}, c={c}")
            if sum(hist) != phi(q) * phi(r):
                raise _Failed(f"mass sum mismatch at q={q}, r={r}")
    pairs = limit * (limit - 1) // 2
    return f"formula == brute force on every residue for {pairs} pairs with r < q <= {limit}"


# -- 2: reduced-fraction sumsets ----------------------------------------------------


def _squarefree_flags(limit: int) -> list[bool]:
    flags = [True] * (limit + 1)
    p = 2
    while p * p <= limit:
        for m in range(p * p, limit + 1, p * p):
            flags[m] = False
        p += 1
    return flags


@_suite("sumset")
def check_sumsets(limit: int = 2310) -> CheckResult:
    squarefree = _squarefree_flags(limit)
    checked = 0
    for q in range(1, limit + 1):
        if not squarefree[q]:
            continue
        expected = coprime_residues(q)
        for r in range(1, q + 1):
            if q % r != 0:
                continue
            if _sumset_numerators(r, q // r) != expected:
                raise _Failed(f"sumset mismatch at q={q}, r={r}")
            checked += 1
    return f"{checked} (q, r) sumsets match the reduced fractions, squarefree q <= {limit}"


# -- 3: exact measure law -------------------------------------------------------------


@_suite("measure-law")
def check_measure_law(
    limit: int = 500, targets_per: int = 20, seed: int = 20260808
) -> CheckResult:
    rng = random.Random(seed)
    psis = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    phi = totient_range(limit)
    checked = 0
    for q in range(1, limit + 1):
        residues = coprime_residues(q)  # shared by the q's builds
        for psi in psis:
            expected = 2 * Fraction(phi[q] * psi, q)
            for _ in range(targets_per):
                y = Fraction(rng.randint(-256, 256), rng.randint(1, 64))
                approx = _build_approx_set(q, psi, y, residues)
                report = _measure_check(q, psi, approx, phi[q])
                if report.measure != expected or not report.ok:
                    raise _Failed(f"measure != 2 phi psi / q at q={q}, psi={psi}, y={y}")
                checked += 1
    return f"{checked} exact measure identities over q <= {limit}, psi in {{1/4, 1/3, 1/2}}"


# -- 4: overlap bound soundness --------------------------------------------------------


def _bound_ratio_max(ariths: list, families: tuple) -> list[tuple[Fraction, Fraction]]:
    """Per weight family, the max of exact/(addend1+addend2) and of
    exact/trivial over the pairs r < q < len(ariths), in one pass that
    decomposes each pair once.  The overlap is the closed form where
    `overlap._closed_form_flags` allows it, else the merge, one set cache
    for all families, which also confirms each family's maximising pairs
    (IdentityError if not).  The bound terms are the integer forms of the
    `overlap_report` fields `addend1`, `addend2` and `trivial_rhs`."""
    merged = functools.partial(_merge_units, {})
    phi = totient_range(len(ariths) ** 2).__getitem__
    runs = [(_overlap_rows(ariths, psi, TargetSequence.zero())[0],
             overlap._closed_form_flags(psi, len(ariths) - 1),
             [[0, 1, None], [0, 1, None]]) for psi in families]
    for q in range(2, len(ariths)):
        for r in range(1, q):
            phi_g = _decompose(ariths[q], ariths[r], phi).phi_gcd  # checks its identities
            for rows, flags, (bound, trivial) in runs:
                part_q, part_r = rows[q][0], rows[r][0]
                exact = (_pair_overlap_units if flags[q] and flags[r] else merged)(part_q, part_r)
                units, den = exact
                if units == 0:
                    continue
                n1, d1 = _main_term_units(part_q, part_r, strict_indicator=True)
                n2, d2 = _addend2_units(part_q, part_r, phi_g)
                tn, td = _trivial_units(part_q, part_r, phi_g)
                # exact / (n1/d1 + n2/d2) = units d1 d2 / (den (n1 d2 + n2 d1))
                for best, num, rden in ((bound, units * d1 * d2, den * (n1 * d2 + n2 * d1)),
                                        (trivial, units * td, den * tn)):
                    if num * best[1] > best[0] * rden:
                        best[:] = num, rden, (q, r, exact)
    for psi, (rows, _, worst) in zip(families, runs):
        for q, r, exact in (best[2] for best in worst if best[2]):
            if Fraction(*merged(rows[q][0], rows[r][0])) != Fraction(*exact):
                raise IdentityError(f"{psi.describe()}: closed form != merge at q={q}, r={r}")
    return [(Fraction(*bound[:2]), Fraction(*trivial[:2])) for *_, (bound, trivial) in runs]


@_suite("overlap-bound")
def check_overlap_bound(limit: int = 200) -> CheckResult:
    families = (ApproxFunction.constant(Fraction(1, 4)), ApproxFunction.power(Fraction(1, 2), 1))
    worst = _bound_ratio_max(_arith_rows(limit), families)
    for psi, (worst_bound, worst_trivial) in zip(families, worst):
        base = baseline_fraction("overlap_bound_C", psi.describe())
        base_trivial = baseline_fraction("trivial_bound_C", psi.describe())
        if not within_baseline(worst_bound, base):
            raise _Failed(f"{psi.describe()}: C = {worst_bound} exceeds baseline {base} "
                          "by more than 1%")
        if not within_baseline(worst_trivial, base_trivial):
            raise _Failed(f"{psi.describe()}: trivial C = {worst_trivial} "
                          f"exceeds baseline {base_trivial}")
    return f"soundness over q != r <= {limit}; " + "; ".join(
        f"{psi.describe()}: C={format_rational(c)}" for psi, (c, _) in zip(families, worst))


# -- 5: block construction -------------------------------------------------------------


@_suite("counterexample")
def check_counterexample() -> CheckResult:
    expected_density = {
        6: Fraction(1, 3),
        30: Fraction(4, 15),
        210: Fraction(8, 35),
        2310: Fraction(16, 77),
    }
    built = build_counterexample(1, (Fraction(1, 2),))
    fixtures = [
        ("schedule J=1 eps=1/2", built),
        ("P=30", instance_from_prime_blocks([[2, 3, 5]])),
        ("P=210", instance_from_prime_blocks([[2, 3, 5, 7]])),
        ("P=2310", instance_from_prime_blocks([[2, 3, 5, 7, 11]])),
    ]
    if built.blocks[0].P != 6:
        raise _Failed("J=1 schedule did not produce P=6")
    for label, inst in fixtures:
        block = inst.blocks[0]
        measure = verify_block_measure(inst, 1)
        if not measure.contained:
            raise _Failed(f"{label}: containment failed")
        expected = expected_density[block.P]
        if measure.measure != expected or measure.bound != expected or not measure.ok:
            raise _Failed(f"{label}: measure {measure.measure} != phi(P)/P = {expected}")
        closed = Fraction(block.P - 1, 2 * block.P)
        if divergence_partial_sum(inst, 1) != closed:
            raise _Failed(f"{label}: divergence sum != (P-1)/(2P)")
    return ("containment, exact block measure phi(P)/P, and divergence sums "
            "verified for P in {6, 30, 210, 2310}")


# -- 6: totient-of-gcd sums --------------------------------------------------------------


@_suite("phigcd")
def check_phigcd(limit_equal: int = 10**4, limit_ratio: int = 10**5) -> CheckResult:
    phigcd_batch_check(limit_equal)
    ratio = phigcd_ratio_scan(limit_ratio, m=3)
    base = baseline_fraction("phigcd_m3_ratio_max")
    if not within_baseline(ratio, base):
        raise _Failed(f"m=3 ratio {ratio} exceeds baseline {base} by more than 1%")
    return (f"brute == divisor form for q <= {limit_equal}, m in 1..4; "
            f"m=3 ratio max {format_rational(ratio)} over q <= {limit_ratio}")


# -- 7: sifted interval counts ---------------------------------------------------------------


@_suite("sift")
def check_sifted_counts(trials: int = 10**4, seed: int = 20260808) -> CheckResult:
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(1, 10**6)  # at most 7 < 8 distinct prime factors
        x = Fraction(rng.randint(-4000, 4000), rng.randint(1, 40))
        y = x + Fraction(rng.randint(0, 8000), rng.randint(1, 40))
        # sifted_interval_count raises when |count - main| > 2**omega(n).
        try:
            sifted_interval_count(x, y, n)
        except IdentityError as exc:
            raise _Failed(f"trial {trial}: {exc}") from exc
    return f"{trials} random windows: |count - main term| <= 2**omega(n) throughout"


# -- 8: quasi-independence ladder ---------------------------------------------------------------


@_suite("ladder")
def check_quasi_ladder(
    ladder=(16, 32, 64, 128, 256, 512), worker_counts=(1, 4, 8)
) -> CheckResult:
    fixture = load_baselines()["quasi_ladder"]
    psi = ApproxFunction.parse(fixture["family"])
    m = fixture["m"]
    target = TargetSequence.parse(fixture["target"], m)
    reports = quasi_independence_ladder(psi, target, m=m, ladder=ladder)
    for q_max, report in zip(ladder, reports):
        base = baseline_fraction("quasi_ladder", str(q_max))
        if report.ratio is None or not within_baseline(report.ratio, base):
            raise _Failed(f"Q={q_max}: ratio {report.ratio} exceeds baseline {base}")
    q_top = max(ladder)
    top = reports[ladder.index(q_top)]
    # The ladder's own scan at the top Q is the 1-worker run.
    sums = [
        top.pair_sum if workers == 1
        else pairwise_overlap_sum(ExperimentConfig(
            Q=q_top, psi=psi, target=target, m=m, workers=workers)).pair_sum
        for workers in worker_counts
    ]
    if any(s != sums[0] for s in sums[1:]):
        raise _Failed(f"pair sums differ across worker counts {worker_counts} at Q={q_top}")
    return (f"ratios bounded by baselines over Q in {tuple(ladder)}; "
            f"ratio({q_top}) ~ {float(top.ratio):.9f} (exact rational checked); "
            f"bit-identical for workers {tuple(worker_counts)}")


# -- 9: Monte Carlo calibration ---------------------------------------------------------------


def _calibration_configs():
    """20 configurations whose union measures are exactly computable."""
    quarter = Fraction(1, 4)
    configs = []
    # one-dimensional, single q
    for q, psi_val, y in [
        (2, quarter, Fraction(0)),
        (3, quarter, Fraction(0)),
        (5, Fraction(1, 5), Fraction(0)),
        (7, Fraction(1, 3), Fraction(2, 7)),
        (10, Fraction(1, 2), Fraction(1, 3)),
        (12, quarter, Fraction(7, 5)),
        (1, quarter, Fraction(0)),
        (9, Fraction(2, 5), Fraction(1, 2)),
    ]:
        psi = ApproxFunction.from_table({q: psi_val})
        target = TargetSequence.constant([y], 1)
        exact = approx_set_measure(q, psi_val, y).measure
        configs.append((psi, target, (q,), exact))
    # one-dimensional, several q (exact union measure)
    for qs, psi_val in [((2, 3), quarter), ((5, 7), Fraction(1, 5)), ((2, 4, 8), quarter)]:
        psi = ApproxFunction.constant(psi_val)
        target = TargetSequence.zero(1)
        union = TorusIntervalSet.empty()
        for q in qs:
            union = union.union(build_approx_set(q, psi_val, 0))
        configs.append((psi, target, qs, union.measure()))
    # the first block of the J=1 construction: union measure phi(6)/6 = 1/3
    inst = build_counterexample(1, (Fraction(1, 2),))
    psi = ApproxFunction.counterexample(inst)
    target = TargetSequence.counterexample(inst)
    configs.append((psi, target, (2, 3, 6), Fraction(1, 3)))
    # higher dimensions, single q: product measure
    for q, psi_val, comps, m in [
        (3, quarter, (Fraction(0), Fraction(1, 2)), 2),
        (5, Fraction(1, 3), (Fraction(1, 7), Fraction(2, 7)), 2),
        (8, quarter, (Fraction(0), Fraction(1, 3)), 2),
        (11, Fraction(1, 2), (Fraction(0), Fraction(0)), 2),
        (2, quarter, (Fraction(0),) * 3, 3),
        (3, Fraction(1, 2), (Fraction(0), Fraction(1, 3), Fraction(2, 3)), 3),
        (7, Fraction(1, 3), (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)), 3),
        (4, Fraction(2, 5), (Fraction(1, 2), Fraction(0), Fraction(1, 4)), 3),
    ]:
        psi = ApproxFunction.from_table({q: psi_val})
        target = TargetSequence.constant(comps, m)
        exact = Fraction(1)
        for y in comps:
            exact *= approx_set_measure(q, psi_val, y).measure
        configs.append((psi, target, (q,), exact))
    if len(configs) != 20:
        raise IdentityError(f"{len(configs)} calibration configurations, expected 20")
    return configs


@_suite("mc")
def check_mc_calibration(samples: int = 100_000, seed: int = 7) -> CheckResult:
    inside = 0
    configs = _calibration_configs()
    for index, (psi, target, q_range, exact) in enumerate(configs):
        # One sample stream per configuration.  Configurations 6 and 8
        # cover complementary halves of the circle, so on a shared stream
        # their hit counts sum to `samples` and they miss together.
        report = mc_coverage(psi, target, q_range, samples, seed=seed * len(configs) + index)
        lo, hi = report.wilson3s
        if lo <= float(exact) <= hi:
            inside += 1
    detail = (f"exact measure inside the 3-sigma interval in {inside}/{len(configs)} "
              f"configurations at {samples} samples, seed {seed}")
    if inside < 19:
        raise _Failed(detail)
    return detail


# -- 10: closed-form overlap engine vs the interval merge -----------------------------


@_suite("overlap-engine")
def check_overlap_engine(limit: int = 120, seed: int = 20260808) -> CheckResult:
    """The scan's closed-form pair overlap against the interval merge on
    every pair r < q <= limit, for weights up to 1/2 and fixed or moving
    targets."""
    rng = random.Random(seed)
    moving = {q: (Fraction(rng.randint(-64, 64), rng.randint(1, 64)),)
              for q in range(1, limit + 1)}
    families = (
        ApproxFunction.constant(Fraction(1, 4)),
        ApproxFunction.constant(Fraction(1, 2)),
        ApproxFunction.power(Fraction(1, 2), 1),
        ApproxFunction.divergent_m3(),
    )
    targets = (
        ("zero", TargetSequence.zero()),
        ("1/3", TargetSequence.constant([Fraction(1, 3)])),
        (f"moving (seed {seed})", TargetSequence.from_table(moving, 1)),
    )
    ariths = _arith_rows(limit)
    for psi in families:
        for label, target in targets:
            rows = _overlap_rows(ariths, psi, target)[0]
            sets = [None] + [build_approx_set(q, psi(q), target(q)[0])
                             for q in range(1, limit + 1)]
            for q in range(2, limit + 1):
                for r in range(1, q):
                    units, den = _pair_overlap_units(*rows[q], *rows[r])
                    if Fraction(units, den) != measure_intersection(sets[q], sets[r]):
                        raise _Failed(f"closed form != merge at q={q}, r={r}, "
                                      f"psi={psi.describe()}, y={label}")
    pairs = len(families) * len(targets) * limit * (limit - 1) // 2
    return (f"closed form == interval merge on {pairs} pairs r < q <= {limit}: psi in "
            + ", ".join(psi.describe() for psi in families)
            + "; targets " + ", ".join(label for label, _ in targets))

