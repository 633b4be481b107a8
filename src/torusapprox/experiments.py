"""Batch experiments over many denominators.

Pairwise overlap sums against the squared measure sum (the quasi-
independence ratio), the main-term sum check, totient-of-gcd sums both by
brute force and through the divisor identity, Monte Carlo coverage with a
counter-based generator, and exact equidistribution scans.  The reports
carry values only: `cli` writes each report header from what it parsed.

Both pair sums run through one loop, `_pairwise_worker`: a stripe of rows
r, each the pairs q < r, of a pair kernel on the target parts of
`overlap._overlap_rows`, summed into an accumulator.  The loop reads the
weights once per q and one flag per q: a pair goes to the kernel when both
its flags are set, and to the interval merge `overlap._merge_units`
otherwise.  The scan's kernel is the summed closed form f(c)
(`overlap._pair_overlap_units`), its flags, measures and pair counts from
`overlap`'s one gate, `_closed_form_flags`; msum's kernel is the excess
E = M(q, r)**m - (W_q W_r)**m of the main term over its product form
(`overlap._main_term_excess_units`), at one coordinate with every flag
set: it is 0 wherever M(q, r) = W_q W_r, and the loop adds no 0.  Each q
has one part per column, a distinct coordinate sequence of the target,
shared by columns that agree at q, and a pair's value is the product over
its distinct pairs of parts of the kernel's value to the power of the
coordinates each covers.

Every pair term is an integer (num, den) from the kernel on.  Each
accumulator takes it by add(num, den), closes a row by end_row(r) and
joins another stripe's by merge, so no result depends on the worker count:
`_RowSums` (exact scan) sums a row as one numerator over the running lcm
of its denominators, reduced once; `_DenominatorSums` (msum) keeps one
integer per reduced denominator of E, folded once per ladder value;
`Enclosure` rounds each term outward to a dyadic grid of the configured
precision, so partial sums stay cheap and the bounds are guaranteed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .approx import (
    _check_dimension, _check_piece_cap, ApproxFunction, TargetSequence, build_approx_set,
)
from .arith import _SPF_CAP, factorize, spf_table, totient, totient_range
from .errors import BudgetError, IdentityError
from . import overlap
from .overlap import _arith_rows, _check_row_limit, _merge_units
from .overlap import _overlap_rows, _pair_overlap_units
from .rationals import parse_rational
from .torus import TorusIntervalSet, measure_intersection

DEFAULT_EXACT_Q_CAP = 512
# Worker processes a scan may start (the ladder suite uses 8).
_WORKER_CAP = 64
# Enclosure bits.  Every pair term is scaled by 2**precision, so a huge
# --precision would build integers of that many bits per pair; 2048 bits
# (617 digits) is far finer than any reported bound needs.
_PRECISION_CAP = 2048
# Steps one Monte Carlo run may take: samples x q values x m coordinate
# tests plus q + 2 per arc table built; the full-size calibration suite
# takes at most about 3 * 10**5 per configuration.
_MC_WORK_CAP = 10**8


# -- deterministic counter-based sampling --------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def unit_sample(seed: int, counter: int) -> float:
    """Deterministic uniform double in [0, 1) at (seed, counter)."""
    return (_mix64((seed + counter * _GOLDEN) & _MASK64) >> 11) * 2.0**-53


# `_draws` runs `_mix64` on _LANES counters at once: each 64-bit state sits
# in its own 128-bit lane of one int (64 KiB), so a 64 x 64-bit product
# stays inside its lane and every mixing step is one big-int operation.
_LANES = 4096
_LANE_BITS = 128


def _lane_constants() -> tuple[int, int]:
    """(ones, ramp): lane k of ones holds 1 and lane k of ramp holds
    k * _GOLDEN mod 2**64, built by doubling the lane count."""
    ones, ramp, lanes = 1, 0, 1
    while lanes < _LANES:
        shift = _LANE_BITS * lanes
        step = ones * ((lanes * _GOLDEN) & _MASK64)
        ramp |= ((ramp + step) & ones * _MASK64) << shift
        ones |= ones << shift
        lanes *= 2
    return ones, ramp


_LANE_ONES, _LANE_RAMP = _lane_constants()
_LANE_MASK = _LANE_ONES * _MASK64


def _draws(seed: int, start: int, count: int) -> array:
    """The sample units v of unit_sample(seed, start + k) = v / 2**53 for
    k < count, as 53-bit integers, _LANES at a time."""
    out = array("Q")
    for first in range(start, start + count, _LANES):
        z = ((seed + first * _GOLDEN) & _MASK64) * _LANE_ONES + _LANE_RAMP & _LANE_MASK
        # Mask before each product: the shift pulls the next lane's low
        # bits into this lane's high half.
        z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
        z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
        # The low half of each lane is now the draw's top 53 bits; the high
        # half holds bits of the next lane and is skipped.
        words = array("Q", ((z ^ (z >> 31)) >> 11).to_bytes(_LANES * _LANE_BITS // 8, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        out += words[0 : 2 * min(_LANES, start + count - first) : 2]
    return out


# -- guaranteed enclosure accumulation ------------------------------------------


class Enclosure:
    """Sum of values rounded outward onto a dyadic grid.

    Per-term rounding makes the running sums exact integer arithmetic, so
    the enclosure does not depend on how terms were grouped.
    """

    __slots__ = ("bits", "lo_units", "hi_units")

    def __init__(self, bits: int):
        self.bits = bits
        self.lo_units = 0  # multiples of 2**-bits
        self.hi_units = 0

    def add(self, num: int, den: int) -> None:
        """Add num/den (den > 0, reduced or not): floor and ceil of
        num * 2**bits / den depend only on the rational."""
        num <<= self.bits
        self.lo_units += num // den
        self.hi_units -= (-num) // den

    def end_row(self, r: int) -> None:
        """Each term is rounded as it is added: a row needs no closing."""

    def merge(self, other: "Enclosure") -> None:
        if other.bits != self.bits:
            raise ValueError("cannot merge enclosures of different precision")
        self.lo_units += other.lo_units
        self.hi_units += other.hi_units

    def bounds(self) -> tuple[Fraction, Fraction]:
        scale = 1 << self.bits
        return Fraction(self.lo_units, scale), Fraction(self.hi_units, scale)


class _RowSums:
    """Exact row sums: each row's terms as one integer numerator over the
    running lcm of their denominators, reduced once at the row's end."""

    __slots__ = ("rows", "num", "den")

    def __init__(self):
        self.rows: list[tuple[int, Fraction]] = []
        self.num, self.den = 0, 1

    def add(self, num: int, den: int) -> None:
        quo, rem = divmod(self.den, den)
        if rem:
            # gcd(rem, den) = gcd(self.den, den) = g; the lcm is den * (self.den // g).
            g = math.gcd(rem, den)
            quo = self.den // g
            self.num *= den // g
            self.den = quo * den
        self.num += num * quo

    def end_row(self, r: int) -> None:
        self.rows.append((r, Fraction(self.num, self.den)))
        self.num, self.den = 0, 1

    def merge(self, other: "_RowSums") -> None:
        self.rows += other.rows


# -- configuration ----------------------------------------------------------------


class ExperimentConfig:
    """The configuration of the pairwise scan, `pairwise_overlap_sum`.

    Exact mode refuses Q past `exact_q_cap`, DEFAULT_EXACT_Q_CAP unless the
    attribute is set after construction (the CLI's --exact-cap): no
    function takes a cap as a parameter."""

    __slots__ = ("Q", "psi", "target", "m", "mode", "precision", "workers", "exact_q_cap")

    def __init__(self, Q: int, psi: ApproxFunction, target: TargetSequence, m: int = 1,
                 mode: str = "exact", precision: int = 128, workers: int = 1):
        if Q < 2:
            raise ValueError("Q must be >= 2")
        _check_dimension(m)
        if target.m != m:
            raise ValueError(f"target dimension {target.m} does not match m={m}")
        if mode not in ("exact", "enclosure"):
            raise ValueError(f"unknown accumulation mode {mode!r}")
        if mode == "enclosure" and precision < 64:
            raise ValueError("enclosure precision must be at least 64 bits")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode == "enclosure" and precision > _PRECISION_CAP:
            raise BudgetError(f"enclosure precision is capped at {_PRECISION_CAP} bits")
        if workers > _WORKER_CAP:
            raise BudgetError(f"workers are capped at {_WORKER_CAP}")
        self.Q = Q
        self.psi = psi
        self.target = target
        self.m = m
        self.mode = mode
        self.precision = precision
        self.workers = workers
        self.exact_q_cap = DEFAULT_EXACT_Q_CAP


# -- pairwise overlap sums ----------------------------------------------------------


def _pairwise_worker(payload):
    """The one pair loop: a stripe of rows r, each the pairs q < r, summed
    into the payload's accumulator, which it returns.  The payload is (Q,
    psi, target), the kernel, the flags (the kernel takes a pair when both
    its flags are set, `_merge_units` the others), the accumulator and
    the stripe.  A pair's value is the product over the distinct pairs of
    parts (`overlap._overlap_rows`), by identity, of |A_q & A_r| at the
    pair, to the power of the number of coordinates it covers: with one
    column, the kernel's value, reduced, to the power m."""
    (Q, psi, target), kernel, flags, total, worker_index, worker_count = payload
    rows, powers = _overlap_rows(_arith_rows(Q), psi, target)
    merged = partial(_merge_units, {})
    single = len(powers) == 1
    m = powers[0]
    add, gcd = total.add, math.gcd
    for r in range(1 + worker_index, Q + 1, worker_count):
        rows_r, part_r, flag_r = rows[r], rows[r][0], flags[r]
        for rows_q, flag_q in zip(rows[1:r], flags[1:r]):
            units_of = kernel if flag_q and flag_r else merged
            if single:
                num, den = units_of(rows_q[0], part_r)
                if num:
                    g = gcd(num, den)
                    add((num // g) ** m, (den // g) ** m)
                continue
            pairs: dict = {}  # columns that agree at q and at r share one pair
            for column_q, column_r, k in zip(rows_q, rows_r, powers):
                pairs.setdefault((id(column_q), id(column_r)), [column_q, column_r, 0])[2] += k
            num = den = 1
            for column_q, column_r, k in pairs.values():
                units, d = units_of(column_q, column_r)
                num *= units**k
                if not num:
                    break
                den *= d**k
            if num:
                add(num, den)
        total.end_row(r)
    return total


class ProcessPoolExecutor:
    """The process pool of a scan with more than one worker.  It wraps
    `concurrent.futures.ProcessPoolExecutor`, imported only when such a pool
    starts: with `multiprocessing`, that import costs about as much as the
    rest of the package's, and a one-worker scan or any other command never
    needs it.  perfbench's tracer wraps this name to time the pool."""

    def __init__(self, *args, **kwargs):
        import concurrent.futures

        self._pool = concurrent.futures.ProcessPoolExecutor(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def map(self, fn, *iterables):
        return self._pool.map(fn, *iterables)


class SumReport(NamedTuple):
    pair_sum: object  # Fraction, or (lo, hi) bounds in enclosure mode
    measure_sum: Fraction
    ratio: object  # Fraction, (lo, hi), or None when undefined
    per_q_measures: tuple = ()
    # Exact mode: (r, sum over q < r of the pair's overlap) for r <= Q.
    row_sums: tuple = ()
    # `overlap._pair_counts` of the scan's flags, and the worker processes
    # (or 1, in-process) that ran the pairs; execution detail, not report.
    closed_form_pairs: int = 0
    merge_pairs: int = 0
    workers: int = 1


def pairwise_overlap_sum(cfg: ExperimentConfig) -> SumReport:
    """Sum of the m-dimensional overlap over all ordered pairs q != r <= Q,
    the measure sum over q <= Q, and their quasi-independence ratio
    pair_sum / measure_sum**2."""
    if cfg.mode == "exact" and cfg.Q > cfg.exact_q_cap:
        raise BudgetError(
            f"exact accumulation is capped at Q = {cfg.exact_q_cap}; "
            "use enclosure mode beyond that"
        )
    # Refused here, before any set is built: `build_approx_set` would refuse
    # only the first q past the piece cap, after building every smaller set.
    _check_piece_cap(cfg.Q, "Q")
    # Likewise the rows, which `_overlap_rows` builds only in the workers.
    _check_row_limit(cfg.Q)
    weights = [0] + [cfg.psi(q) for q in range(1, cfg.Q + 1)]  # psi read once per q
    flags = overlap._closed_form_flags(weights.__getitem__, cfg.Q)
    phi = totient_range(cfg.Q)
    per_q = [(q, overlap._set_measure(q, phi[q], w, flags[q]) ** cfg.m)
             for q, w in enumerate(weights[1:], 1)]
    measure_sum = sum(value for _, value in per_q)

    worker_count = min(cfg.workers, max(1, cfg.Q - 1))
    exact = cfg.mode == "exact"
    payloads = [((cfg.Q, weights.__getitem__, cfg.target), _pair_overlap_units, flags,
                 _RowSums() if exact else Enclosure(cfg.precision), w, worker_count)
                for w in range(worker_count)]
    if worker_count == 1:
        results = [_pairwise_worker(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(_pairwise_worker, payloads))

    # Both sums are exact, so the order of the stripes does not matter.
    total = results[0]
    for partial in results[1:]:
        total.merge(partial)
    row_sums: tuple = ()
    if exact:
        row_sums = tuple(sorted(total.rows))
        pair_sum: object = 2 * sum(row_sum for _, row_sum in row_sums)
        ratio: object = pair_sum / measure_sum**2 if measure_sum > 0 else None
    else:
        lo, hi = total.bounds()
        pair_sum = (2 * lo, 2 * hi)
        ratio = (2 * lo / measure_sum**2, 2 * hi / measure_sum**2) if measure_sum > 0 else None

    return SumReport(
        pair_sum=pair_sum, measure_sum=measure_sum, ratio=ratio, per_q_measures=tuple(per_q),
        row_sums=row_sums, workers=worker_count, **overlap._pair_counts(flags, cfg.Q),
    )


def _check_ladder(ladder) -> None:
    """Refuse a ladder value below 2, or one given twice: `msum` would list
    it twice in its header over one row, as a window given twice is refused
    by `equidistribution_scan`."""
    if min(ladder) < 2:
        raise ValueError("ladder values must be >= 2")
    for i, value in enumerate(ladder):
        if value in ladder[:i]:
            raise ValueError(f"ladder value {value} is given twice")


def quasi_independence_ladder(
    psi: ApproxFunction, target: TargetSequence, m: int, ladder
) -> list[SumReport]:
    """pairwise_overlap_sum at each Q of a ladder, exact mode and one
    worker, read off one scan at the top Q: the prefixes r <= Q of its rows
    and measures, and the pair counts of those prefixes."""
    _check_ladder(ladder)
    q_top = max(ladder)
    top = pairwise_overlap_sum(ExperimentConfig(Q=q_top, psi=psi, target=target, m=m))
    flags = overlap._closed_form_flags(psi, q_top)
    reports = []
    for q_max in ladder:
        rows, measures = top.row_sums[:q_max], top.per_q_measures[:q_max]
        pair_sum = 2 * sum(row_sum for _, row_sum in rows)
        measure_sum = sum(measure for _, measure in measures)
        reports.append(top._replace(
            pair_sum=pair_sum, measure_sum=measure_sum,
            ratio=pair_sum / measure_sum**2 if measure_sum > 0 else None,
            per_q_measures=measures, row_sums=rows, **overlap._pair_counts(flags, q_max),
        ))
    return reports


# -- main-term sum check ---------------------------------------------------------


class MainTermRow(NamedTuple):
    Q: int
    pair_sum: Fraction
    rhs: Fraction  # (sum of (phi psi / q)**m)**2
    ratio: Fraction | None


class _DenominatorSums:
    """msum's exact sums of the excess E: integers per reduced denominator,
    gathered per row and added at its end to its ladder step, the rows
    since the last value.  Only the pairs with E != 0 reach it."""

    __slots__ = ("ladder", "steps", "row")

    def __init__(self, ladder):
        self.ladder = sorted(ladder)
        self.steps = [Counter() for _ in self.ladder]
        self.row: dict[int, int] = {}

    def add(self, num: int, den: int) -> None:
        self.row[den] = self.row.get(den, 0) + num

    def end_row(self, r: int) -> None:
        self.steps[bisect_left(self.ladder, r)].update(self.row)
        self.row = {}

    def merge(self, other: "_DenominatorSums") -> None:
        for step, sums in zip(self.steps, other.steps):
            step.update(sums)


def main_term_sum_check(psi: ApproxFunction, m: int, ladder) -> list[MainTermRow]:
    """Sum of M(q, r)**m over q != r <= Q against the squared normalized
    weight sum S_Q**2, S_Q the sum of W_q**m = (phi(q) psi(q) / q)**m, for
    each Q in the ladder, in increasing order.  M(q, r) is W_q W_r at most
    pairs, so the pair sum is S_Q**2 - sum over q <= Q of W_q**(2m) + 2 sum
    over q < r <= Q of E = M**m - (W_q W_r)**m.  E, the kernel
    `overlap._main_term_excess_units`, runs in one `_pairwise_worker` stripe
    to max(ladder) at one coordinate of target 0 with every flag set (a
    weight above 1/2 keeps its main term); each step's E sum is one
    Fraction over the lcm of its denominators."""
    _check_ladder(ladder)
    _check_dimension(m)
    q_top = max(ladder)
    _check_row_limit(q_top)
    weights = [0] + [Fraction(psi(q)) for q in range(1, q_top + 1)]  # psi read once per q
    sums = _pairwise_worker(((q_top, weights.__getitem__, TargetSequence.zero(1)),
                             partial(overlap._main_term_excess_units, m), [True] * (q_top + 1),
                             _DenominatorSums(ladder), 0, 1))
    phi = totient_range(q_top)
    results = []
    excess = rhs_base = squares = Fraction(0)  # rhs_base: S_Q; squares: the sum of W_q**(2m)
    for low, q_max, step in zip([0] + sums.ladder, sums.ladder, sums.steps):
        lcm = math.lcm(*step)
        excess += Fraction(sum(num * (lcm // den) for den, num in step.items()), lcm)
        for q, w in enumerate(weights[low + 1 : q_max + 1], low + 1):
            power = Fraction(w.numerator * phi[q], w.denominator * q) ** m
            rhs_base += power
            squares += power * power
        rhs = rhs_base**2
        pair_sum = rhs - squares + 2 * excess
        results.append(MainTermRow(q_max, pair_sum, rhs, pair_sum / rhs if rhs > 0 else None))
    return results


# -- totient-of-gcd sums -----------------------------------------------------------


def _divisor_form(q: int, m: int, divisors, phi) -> int:
    """sum_{d | q} phi(d)**m phi(q/d) over the divisors d of q, with phi
    indexable by every divisor."""
    return sum(phi[d] ** m * phi[q // d] for d in divisors)


def _phigcd_brute(q: int, ms, phi) -> list[int]:
    """Brute-force sum over r <= q of phi(gcd(q, r))**m for each m in ms:
    the histogram of gcd(q, r) over r = 1, ..., q summed against phi**m,
    with phi(g) the totient of a divisor g.

    gcd(q, r) is the largest divisor of q that divides r.  So, walking the
    divisors d > 1 of q from the largest down, the unmarked multiples of d
    in 1..q are the r with gcd(q, r) = d: they are counted, then marked.
    The r left unmarked have gcd 1.  The divisors come from trial division
    up to isqrt(q); it never uses the divisor identity it is checked
    against, nor a factorization or totient of its own."""
    small = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
    descending = [q // d for d in small if d * d < q] + small[::-1]
    marks = bytearray(q + 1)
    # Slice assignment through a memoryview copies from one shared buffer
    # of ones, so the transient buffers stay near q bytes besides marks.
    view, ones = memoryview(marks), memoryview(b"\x01" * (q // 2))
    counts = []  # counts[i] = #{r <= q : gcd(q, r) = descending[i]}
    for d in descending[:-1]:
        counts.append(marks[d::d].count(0))
        view[d::d] = ones[: q // d]
    counts.append(marks.count(0) - 1)  # index 0 is no residue
    phis = list(map(phi, descending))
    return [sum(map(mul, counts, map(pow, phis, repeat(m)))) for m in ms]


def phigcd_sum(q: int, m: int) -> tuple[int, int]:
    """Sum over r <= q of phi(gcd(q, r))**m, brute force and via the
    divisor identity sum_{d | q} phi(d)**m phi(q/d).  Checked equal; the
    divisors come from `factorize(q)`, not from the brute force."""
    if q < 1 or m < 1:
        raise ValueError("phigcd_sum requires q >= 1 and m >= 1")
    if q > _SPF_CAP:
        raise BudgetError(f"q = {q} exceeds the cap {_SPF_CAP}")
    _check_dimension(m)
    (brute,) = _phigcd_brute(q, (m,), totient)
    divisors = [1]
    for p, e in factorize(q):
        divisors = [d * p**k for k in range(e + 1) for d in divisors]
    divisor_form = _divisor_form(q, m, divisors, {d: totient(d) for d in divisors})
    if brute != divisor_form:
        raise IdentityError(f"phigcd sums differ at q={q}, m={m}: {brute} != {divisor_form}")
    return brute, divisor_form


def phigcd_batch_check(limit: int) -> None:
    """Brute force vs divisor identity for every q <= limit and m in 1..4.

    The divisor forms come from the sieve of `_divisor_forms`, not from the
    brute force.  Returns None when every sum agrees; otherwise raises
    IdentityError naming the count of (q, m) mismatches.
    """
    phi = totient_range(limit)
    ms = range(1, 5)
    mismatches = 0
    for q, forms, _ in _divisor_forms(limit, ms):
        sums = _phigcd_brute(q, ms, phi.__getitem__)
        mismatches += sum(brute != form for brute, form in zip(sums, forms))
    if mismatches:
        raise IdentityError(f"{mismatches} brute/divisor mismatches below {limit}")


def _divisor_forms(limit: int, ms):
    """Yield (q, [h_m(q) for m in ms], phi(q)) for q = 1, ..., limit, where
    h_m(q) is the divisor-form sum sum_{d | q} phi(d)**m phi(q/d), from one
    sieve.

    phi and every h_m are multiplicative (h_m is the Dirichlet convolution
    of phi**m and phi), so each is its value at p**e times its value at
    q / p**e, for the smallest prime p of q, and `_divisor_form` runs on
    prime powers only.  A proper factor of q is at most q/2, so only the
    lower half of the range is kept, one list per m."""
    table = spf_table(limit)
    kept_phi = [0, 1] + [0] * (limit // 2 - 1)
    kept_h = [kept_phi[:] for _ in ms]
    yield 1, [1] * len(kept_h), 1
    for q in range(2, limit + 1):
        p = table[q]
        powers = [1, p]
        while q % (powers[-1] * p) == 0:
            powers.append(powers[-1] * p)
        power = powers[-1]
        if power == q:
            phis = {d: d - d // p for d in powers}
            hs = [_divisor_form(q, m, powers, phis) for m in ms]
            phi = phis[q]
        else:
            rest = q // power
            hs = [kept[power] * kept[rest] for kept in kept_h]
            phi = kept_phi[power] * kept_phi[rest]
        if q < len(kept_phi):
            kept_phi[q] = phi
            for kept, h in zip(kept_h, hs):
                kept[q] = h
        yield q, hs, phi


def phigcd_ratio_scan(limit: int, m: int = 3) -> Fraction:
    """Max over q <= limit of the divisor-form sum against phi(q)**m
    (m >= 3) or q**2 (m = 2).  Divisor form only, so it scales to 10**5."""
    if limit < 1:
        raise ValueError("ratio scan needs limit >= 1")
    if m < 2:
        raise ValueError("ratio scan needs m >= 2")
    _check_dimension(m)
    best_num, best_den = 0, 1
    for q, (h,), phi in _divisor_forms(limit, (m,)):
        den = phi**m if m >= 3 else q * q
        if h * best_den > best_num * den:
            best_num, best_den = h, den
    return Fraction(best_num, best_den)


# -- Monte Carlo coverage -----------------------------------------------------------


def _wilson(hits: int, n: int, z: float) -> tuple[float, float]:
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # At hits = 0 (or n) the bound center - half (or center + half) is 0 (or
    # 1) exactly, but float rounding can land it off by an ulp.
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


class McReport(NamedTuple):
    hits: int
    estimate: float
    wilson95: tuple[float, float]
    wilson3s: tuple[float, float]
    tables: int  # arc table builds, one per batch, q and target component
    entries: int  # their steps, q + 2 each, charged to _MC_WORK_CAP


def _arc_units(q: int, psi: Fraction, y: Fraction, scale: int) -> list[int]:
    """The ends of `build_approx_set(q, psi, y)` in sample units over scale:
    unit v (the point v/scale) lies in the set exactly when
    bisect_right(ends, v) is odd.

    A piece [e_i/den, e_{i+1}/den) holds the units from ceil(e_i * scale /
    den) up to, not including, ceil(e_{i+1} * scale / den), so each end
    becomes one ceiling division.  A piece that holds no unit gives two
    equal ends, which bisect_right passes together, so they change no
    unit's parity.
    """
    approx = build_approx_set(q, psi, y)
    den = approx.den
    return [-(-e * scale // den) for e in approx.ends]


_ODD = (1).__and__


def _mc_hits(units, m: int, per_q, scale: int, budget: int) -> tuple[int, int, int]:
    """How many points (units[i*m : i*m + m]) over scale lie in the set of
    some (q, psi_q, targets) of per_q: in q's approximation set in every
    coordinate, read from q's table of each component (`_arc_units`).

    A q's tables are built when the q is reached and dropped after it, at
    q + 2 steps each; BudgetError is raised before the build that would
    take more than budget steps.  A q's hits are one byte per point, 0 or
    1, read as one int: ANDed over the coordinates, ORed over q, and the q
    loop stops once every point is hit.  Returns the hits, the tables built
    and their steps."""
    columns = [units[d::m] for d in range(m)]
    every = int.from_bytes(b"\x01" * len(columns[0]), "little")
    hit = tables = steps = 0
    for q, psi_q, targets in per_q:
        components = set(targets)
        tables += len(components)
        steps += (q + 2) * len(components)
        if steps > budget:
            raise BudgetError(
                f"the arc tables take the Monte Carlo run past its work cap {_MC_WORK_CAP}"
            )
        ends = {y: _arc_units(q, psi_q, y, scale) for y in components}
        inside = every
        for column, y in zip(columns, targets):
            inside &= int.from_bytes(
                bytes(map(_ODD, map(bisect_right, repeat(ends[y]), column))), "little"
            )
        hit |= inside
        if hit == every:
            break
    return hit.bit_count(), tables, steps


def mc_coverage(psi: ApproxFunction, target: TargetSequence, q_range, samples: int,
                seed: int = 0, mode: str = "random") -> McReport:
    """Fraction of sampled points of [0,1)**m, m = target.m, in the union of
    the approximation sets over q_range, counted exactly on the points drawn.

    Points are integer sample units over a scale: sample i is the point
    (v_d / 2**53 for d < m), v_d = the unit of unit_sample(seed, i*m + d),
    drawn by `_draws` in batches of whole samples; grid mode
    (one-dimensional only) takes the midpoints (2i + 1) / (2 * samples)
    instead.  A point hits when, for some q, every coordinate lies in the
    approximation set of q and its target: one bisect per coordinate into
    the set's ends in sample units (`_arc_units`), so the count agrees with
    `hit_test` on the exact points and is deterministic for a given seed.
    Each batch builds the tables of the q it reaches and drops them.
    Refuses a q above the piece cap, or more than _MC_WORK_CAP coordinate
    tests (samples x q values x m), before building the q set; the tables'
    q + 2 steps each are charged on top as they are built, and the build
    that would pass the cap is refused.
    """
    m = target.m
    if m > 3:
        raise ValueError("Monte Carlo coverage is limited to m <= 3")
    if samples < 1000:
        raise ValueError("need at least 10**3 samples")
    if mode not in ("random", "grid"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "grid" and m != 1:
        raise ValueError("grid sampling is one-dimensional")
    # Sorted, or a range: either way the largest q is at one end, so a
    # range is bounded without walking it.
    if not isinstance(q_range, range):
        q_range = sorted(q_range)
    if q_range:
        _check_piece_cap(max(q_range[0], q_range[-1]))
    tests = samples * len(q_range) * m
    if tests > _MC_WORK_CAP:
        raise BudgetError(
            f"samples x q values x m exceeds the Monte Carlo work cap {_MC_WORK_CAP}"
        )
    qs = tuple(sorted(set(int(q) for q in q_range)))
    if not qs or qs[0] < 1:
        raise ValueError("q_range must contain integers >= 1")
    per_q = []
    for q in qs:
        psi_q = Fraction(psi(q))
        if psi_q:
            per_q.append((q, psi_q, tuple(Fraction(y) for y in target(q))))
    scale = 2 * samples if mode == "grid" else 2**53
    hits = tables = entries = 0
    # Whole samples per batch, so draw i*m + d keeps its counter.
    per_batch = _LANES // m
    for first in range(0, samples, per_batch):
        count = min(per_batch, samples - first)
        if mode == "grid":
            units = range(2 * first + 1, 2 * (first + count), 2)
        else:
            units = _draws(seed, first * m, count * m)
        found, built, steps = _mc_hits(units, m, per_q, scale, _MC_WORK_CAP - tests - entries)
        hits, tables, entries = hits + found, tables + built, entries + steps
    return McReport(
        hits=hits,
        estimate=hits / samples,
        wilson95=_wilson(hits, samples, 1.959963984540054),
        wilson3s=_wilson(hits, samples, 3.0),
        tables=tables,
        entries=entries,
    )


# -- equidistribution scans -----------------------------------------------------------


class EquidistRow(NamedTuple):
    q: int
    window: tuple[Fraction, Fraction]
    ratio: Fraction
    deviation: Fraction  # |ratio - window length|


def equidistribution_scan(Q: int, psi: ApproxFunction, target: TargetSequence,
                          windows) -> Iterator[EquidistRow]:
    """Exact window ratios for q <= Q, one row per (q, window), as an iterator:
    Q and the windows are checked at the call, the rows made as they are read.

    Skips q with psi(q) = 0 (the ratio is undefined there); psi(q) > 0
    makes the set's measure positive.  Targets use the first coordinate;
    the scan is one-dimensional.  Each window's set is built once and
    measured against every approximation set.  A window given twice is
    refused: a summary keyed by window would merge its rows.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    _check_piece_cap(Q, "Q")
    window_sets: dict[tuple[Fraction, Fraction], TorusIntervalSet] = {}
    for lo, hi in windows:
        lo, hi = Fraction(lo), Fraction(hi)
        if not (0 <= lo < hi <= 1):
            raise ValueError("windows must satisfy 0 <= lo < hi <= 1")
        if (lo, hi) in window_sets:
            raise ValueError(f"window {lo}:{hi} is given twice")
        window_sets[lo, hi] = TorusIntervalSet(((lo, hi),))

    def rows() -> Iterator[EquidistRow]:
        for q in range(1, Q + 1):
            psi_q = psi(q)
            if psi_q == 0:
                continue
            approx = build_approx_set(q, psi_q, target(q)[0])
            total = approx.measure()
            for (lo, hi), window_set in window_sets.items():
                ratio = measure_intersection(approx, window_set) / total
                yield EquidistRow(q, (lo, hi), ratio, abs(ratio - (hi - lo)))
    return rows()


# -- regression baselines --------------------------------------------------------------


def load_baselines() -> dict:
    """baselines.json, read from beside this module: `importlib.resources`
    would cost every command the `tempfile`, `shutil` and compression
    modules it imports."""
    with open(os.path.join(os.path.dirname(__file__), "baselines.json"), encoding="utf-8") as fh:
        return json.load(fh)


def baselines_version() -> str:
    return load_baselines()["version"]


def baseline_fraction(*path: str) -> Fraction:
    node = load_baselines()
    for key in path:
        node = node[key]
    return parse_rational(node)


def within_baseline(observed: Fraction, baseline: Fraction) -> bool:
    """Regression rule: observed may not exceed the baseline by more than 1%."""
    return observed <= baseline * Fraction(101, 100)
