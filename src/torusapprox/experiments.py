"""Batch experiments over many denominators.

Pairwise overlap sums against the squared measure sum (the quasi-
independence ratio), the main-term sum check, totient-of-gcd sums both by
brute force and through the divisor identity, Monte Carlo coverage with a
counter-based generator, and exact equidistribution scans.

The pairwise scan takes each pair's overlap from the summed closed form
f(c) (`overlap._pair_overlap_units`) when psi(q), psi(r) <= 1/2, working
from per-q integer rows (factorization, psi and target numerators), and
falls back to the interval merge `torus._overlap_units` on sets built for
the other pairs only.  The set measures come from the sets themselves, one
q at a time, so they do not depend on either engine.

Exact mode accumulates fractions.Fraction values; results are independent
of the worker count because rational addition is exact.  Enclosure mode
rounds every pair contribution outward to a dyadic grid of the configured
precision before summing, so partial sums stay cheap, the reported
lower/upper bounds are guaranteed, and the output is still bit-identical
for any partitioning.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import repeat

from .approx import ApproxFunction, TargetSequence, build_approx_set
from .arith import factorize_with_table, spf_table, totient, totient_range
from .errors import BudgetError, IdentityError
from .overlap import _main_term_units, _overlap_row, _pair_overlap_units
from .rationals import parse_rational
from .torus import _overlap_units

DEFAULT_EXACT_Q_CAP = 512

_ZERO = Fraction(0)


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


# -- guaranteed enclosure accumulation ------------------------------------------


@dataclass
class Enclosure:
    """Sum of values rounded outward onto a dyadic grid.

    Per-term rounding makes the running sums exact integer arithmetic, so
    the enclosure does not depend on how terms were grouped.
    """

    bits: int
    lo_units: int = 0  # multiples of 2**-bits
    hi_units: int = 0

    def add(self, value: Fraction) -> None:
        scale = 1 << self.bits
        num = value.numerator * scale
        den = value.denominator
        self.lo_units += num // den
        self.hi_units += -((-num) // den)

    def merge(self, other: "Enclosure") -> None:
        if other.bits != self.bits:
            raise ValueError("cannot merge enclosures of different precision")
        self.lo_units += other.lo_units
        self.hi_units += other.hi_units

    def bounds(self) -> tuple[Fraction, Fraction]:
        scale = 1 << self.bits
        return Fraction(self.lo_units, scale), Fraction(self.hi_units, scale)


# -- configuration ----------------------------------------------------------------


@dataclass
class ExperimentConfig:
    Q: int
    psi: ApproxFunction
    target: TargetSequence
    m: int = 1
    mode: str = "exact"  # or "enclosure"
    precision: int = 128
    workers: int = 1
    seed: int = 0
    exact_q_cap: int = DEFAULT_EXACT_Q_CAP

    def __post_init__(self):
        if self.Q < 2:
            raise ValueError("Q must be >= 2")
        if self.m < 1:
            raise ValueError("dimension must be >= 1")
        if self.target.m != self.m:
            raise ValueError(
                f"target dimension {self.target.m} does not match m={self.m}"
            )
        if self.mode not in ("exact", "enclosure"):
            raise ValueError(f"unknown accumulation mode {self.mode!r}")
        if self.mode == "enclosure" and self.precision < 64:
            raise ValueError("enclosure precision must be at least 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def describe(self) -> dict:
        return {
            "Q": self.Q,
            "m": self.m,
            "psi": self.psi.describe(),
            "target": self.target.describe(),
            "mode": self.mode,
            "precision": self.precision if self.mode == "enclosure" else None,
            "workers": self.workers,
            "seed": self.seed,
        }


# -- pairwise overlap sums ----------------------------------------------------------


_HALF = Fraction(1, 2)


def _coordinate_rows(cfg: ExperimentConfig) -> list[tuple | None]:
    """rows[q] = one (key, row) entry per coordinate for q, the row from
    `_overlap_row`.  Coordinates sharing a target component share the row
    and its key, so one overlap serves all of them."""
    table = spf_table(cfg.Q)
    rows: list[tuple | None] = [None] * (cfg.Q + 1)
    for q in range(1, cfg.Q + 1):
        psi_q = cfg.psi(q)
        factors = factorize_with_table(q, table)
        cache: dict[Fraction, tuple] = {}
        row = []
        for y in cfg.target(q):
            if y not in cache:
                cache[y] = ((q, len(cache)), _overlap_row(q, factors, psi_q, y))
            row.append(cache[y])
        rows[q] = tuple(row)
    return rows


def _merge_set(sets: dict, key, row):
    """The interval set of a row, built on first use."""
    got = sets.get(key)
    if got is None:
        q, _, den, psi, y = row
        got = sets[key] = build_approx_set(q, Fraction(psi, den), Fraction(y, den))
    return got


def _pair_value(
    rows, q: int, r: int, m: int, memo: dict | None, sets: dict | None
) -> Fraction:
    """Product over the coordinates of |A_q & A_r|: by the closed form when
    `sets` is None, else by the interval merge on sets cached there.  memo
    holds the coordinate overlaps already computed in q's row, or is None."""
    num = den_product = 1
    for i in range(m):
        ka, a = rows[q][i]
        kb, b = rows[r][i]
        got = None if memo is None else memo.get((ka, kb))
        if got is None:
            if sets is None:
                got = _pair_overlap_units(a, b)
            else:
                got = _overlap_units(_merge_set(sets, ka, a), _merge_set(sets, kb, b))
            if memo is not None:
                memo[(ka, kb)] = got
        units, den = got
        if units == 0:
            return _ZERO
        num *= units
        den_product *= den
    return Fraction(num, den_product)


def _pairwise_worker(payload) -> tuple[object, tuple[int, int]]:
    """One stripe of rows r, each the pairs q < r: the (r, row sum) list in
    exact mode or one Enclosure of every pair, and the pairs done by closed
    form and by merge."""
    cfg, worker_index, worker_count = payload
    rows = _coordinate_rows(cfg)
    # The closed form needs psi <= 1/2 on both sides of a pair.
    closed = [False] + [cfg.psi(q) <= _HALF for q in range(1, cfg.Q + 1)]
    sets: dict = {}
    pairs = merge_pairs = 0
    exact = cfg.mode == "exact"
    partial = [] if exact else Enclosure(cfg.precision)
    for r in range(1 + worker_index, cfg.Q + 1, worker_count):
        row_sum = Fraction(0)
        # With one coordinate no memo key can repeat in a row.
        memo = {} if cfg.m > 1 else None
        pairs += r - 1
        for q in range(1, r):
            merge = not (closed[q] and closed[r])
            merge_pairs += merge
            value = _pair_value(rows, q, r, cfg.m, memo, sets if merge else None)
            if exact:
                row_sum += value
            elif value:
                partial.add(value)
        if exact:
            partial.append((r, row_sum))
    return partial, (pairs - merge_pairs, merge_pairs)


@dataclass
class SumReport:
    config: dict
    pair_sum: object  # Fraction, or (lo, hi) bounds in enclosure mode
    measure_sum: Fraction
    ratio: object  # Fraction, (lo, hi), or None when undefined
    per_q_measures: tuple = ()
    # Exact mode: (r, sum over q < r of the pair's overlap) for r <= Q.
    row_sums: tuple = ()
    # Pairs q < r whose overlap came from the closed form f(c) / from the
    # interval merge; execution detail, not part of the report.
    closed_form_pairs: int = 0
    merge_pairs: int = 0


def pairwise_overlap_sum(cfg: ExperimentConfig) -> SumReport:
    """Sum of the m-dimensional overlap over all ordered pairs q != r <= Q,
    the measure sum over q <= Q, and their quasi-independence ratio
    pair_sum / measure_sum**2."""
    if cfg.mode == "exact" and cfg.Q > cfg.exact_q_cap:
        raise BudgetError(
            f"exact accumulation is capped at Q = {cfg.exact_q_cap}; "
            "use enclosure mode beyond that"
        )
    per_q = []
    measure_sum = Fraction(0)
    for q in range(1, cfg.Q + 1):
        psi_q = cfg.psi(q)
        measures: dict[Fraction, Fraction] = {}
        value = Fraction(1)
        for y in cfg.target(q):
            if y not in measures:
                measures[y] = build_approx_set(q, psi_q, y).measure()
            value *= measures[y]
        per_q.append((q, value))
        measure_sum += value

    worker_count = min(cfg.workers, max(1, cfg.Q - 1))
    payloads = [(cfg, w, worker_count) for w in range(worker_count)]
    if worker_count == 1:
        results = [_pairwise_worker(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(_pairwise_worker, payloads))

    # Both sums are exact, so the order of the stripes does not matter.
    row_sums: tuple = ()
    if cfg.mode == "exact":
        row_sums = tuple(sorted(row for partial, _ in results for row in partial))
        pair_sum: object = 2 * sum(row_sum for _, row_sum in row_sums)
        ratio: object = pair_sum / measure_sum**2 if measure_sum > 0 else None
    else:
        total = Enclosure(cfg.precision)
        for partial, _ in results:
            total.merge(partial)
        lo, hi = total.bounds()
        pair_sum = (2 * lo, 2 * hi)
        ratio = (2 * lo / measure_sum**2, 2 * hi / measure_sum**2) if measure_sum > 0 else None

    return SumReport(
        config=cfg.describe(),
        pair_sum=pair_sum,
        measure_sum=measure_sum,
        ratio=ratio,
        per_q_measures=tuple(per_q),
        row_sums=row_sums,
        closed_form_pairs=sum(counts[0] for _, counts in results),
        merge_pairs=sum(counts[1] for _, counts in results),
    )


def quasi_independence_ladder(
    psi: ApproxFunction, target: TargetSequence, m: int, ladder, workers: int = 1
) -> list[SumReport]:
    """pairwise_overlap_sum at each Q of a ladder, exact mode, read off one
    scan at the top Q: the prefixes r <= Q of its rows and measures.  Every
    report keeps that scan's pair counts."""
    if min(ladder) < 2:
        raise ValueError("ladder values must be >= 2")
    q_top = max(ladder)
    top = pairwise_overlap_sum(ExperimentConfig(
        Q=q_top, psi=psi, target=target, m=m, workers=workers,
        exact_q_cap=max(DEFAULT_EXACT_Q_CAP, q_top),
    ))
    reports = []
    for q_max in ladder:
        rows, measures = top.row_sums[:q_max], top.per_q_measures[:q_max]
        pair_sum = 2 * sum(row_sum for _, row_sum in rows)
        measure_sum = sum(measure for _, measure in measures)
        reports.append(replace(
            top, config=top.config | {"Q": q_max}, pair_sum=pair_sum,
            measure_sum=measure_sum,
            ratio=pair_sum / measure_sum**2 if measure_sum > 0 else None,
            per_q_measures=measures, row_sums=rows,
        ))
    return reports


# -- main-term sum check ---------------------------------------------------------


@dataclass(frozen=True)
class MainTermRow:
    Q: int
    m: int
    pair_sum: Fraction
    rhs: Fraction  # (sum of (phi psi / q)**m)**2
    ratio: Fraction | None


def main_term_sum_check(
    psi: ApproxFunction, m: int, ladder, strict_indicator: bool = False
) -> list[MainTermRow]:
    """Sum of M(q, r)**m over q != r <= Q against the squared normalized
    weight sum, for each Q in the ladder.

    Works directly from factorizations; no per-pair assertions, so ladders
    to Q = 512 stay cheap.
    """
    if min(ladder) < 2:
        raise ValueError("ladder values must be >= 2")
    q_top = max(ladder)
    table = spf_table(q_top)
    phi = totient_range(q_top)
    factors = [None] * (q_top + 1)
    psis = [None] * (q_top + 1)
    for q in range(1, q_top + 1):
        factors[q] = dict(factorize_with_table(q, table))
        psis[q] = Fraction(psi(q))

    rows = []
    lhs_half = Fraction(0)
    # Terms not yet in lhs_half, summed as integers per reduced denominator:
    # pending[den] = sum of num**m over the terms (num/den)**m.
    pending: dict[int, int] = {}
    rhs_base = psis[1] ** m  # the weight psi(q) phi(q) / q at q = 1
    ladder_sorted = sorted(set(ladder))
    bound_index = 0
    for q in range(2, q_top + 1):
        psi_q = psis[q]
        rhs_base += Fraction(psi_q * phi[q], q) ** m
        if psi_q:
            fq = factors[q]
            for r in range(1, q):
                psi_r = psis[r]
                if not psi_r:
                    continue
                fr = factors[r]
                split = [p for p in fq if fq[p] != fr.get(p, 0)]
                split += [p for p in fr if p not in fq]
                num, den = _main_term_units(
                    q, r, psi_q, psi_r, phi[q], phi[r], split, strict_indicator
                )
                if num:
                    g = math.gcd(num, den)
                    den //= g
                    pending[den] = pending.get(den, 0) + (num // g) ** m
        while bound_index < len(ladder_sorted) and ladder_sorted[bound_index] == q:
            for den, total in pending.items():
                lhs_half += Fraction(total, den**m)
            pending.clear()
            rhs = rhs_base**2
            pair_sum = 2 * lhs_half
            rows.append(
                MainTermRow(
                    Q=q, m=m, pair_sum=pair_sum, rhs=rhs,
                    ratio=pair_sum / rhs if rhs > 0 else None,
                )
            )
            bound_index += 1
    return rows


# -- totient-of-gcd sums -----------------------------------------------------------


def _divisor_form(q: int, m: int, divisors, phi) -> int:
    """sum_{d | q} phi(d)**m phi(q/d) over the divisors d of q, with phi
    indexable by every divisor."""
    return sum(phi[d] ** m * phi[q // d] for d in divisors)


def _ratio_den(q: int, m: int, phi) -> int:
    """The normaliser of the divisor-form sum for m >= 2: phi(q)**m for
    m >= 3, q**2 for m = 2."""
    return phi[q] ** m if m >= 3 else q * q


def phigcd_sum(q: int, m: int) -> tuple[int, int]:
    """Sum over r <= q of phi(gcd(q, r))**m, brute force and via the
    divisor identity sum_{d | q} phi(d)**m phi(q/d).  Checked equal."""
    if q < 1 or m < 1:
        raise ValueError("phigcd_sum requires q >= 1 and m >= 1")
    divisor_phis = {}
    for r in range(1, q + 1):
        g = math.gcd(q, r)
        if g not in divisor_phis:
            divisor_phis[g] = totient(g)
    brute = sum(divisor_phis[math.gcd(q, r)] ** m for r in range(1, q + 1))
    divisor_form = _divisor_form(q, m, divisor_phis, divisor_phis)
    if brute != divisor_form:
        raise IdentityError(f"phigcd sums differ at q={q}, m={m}: {brute} != {divisor_form}")
    return brute, divisor_form


def phigcd_batch_check(limit: int, ms=(1, 2, 3, 4)) -> dict:
    """Brute force vs divisor identity for every q <= limit and every m.

    Also tracks max over q of sum/phi(q)**m for m >= 3 and of sum/q**2 for
    m = 2.  Returns {"ok": bool, "mismatches": int, "max_ratios": {m: Fraction}}.
    """
    phi = totient_range(limit)
    gcd = math.gcd
    mismatches = 0
    best: dict[int, tuple[int, int]] = {}  # max ratio per m as (num, den)
    for q in range(1, limit + 1):
        counts = Counter(map(gcd, repeat(q), range(1, q + 1)))
        for m in ms:
            brute = sum(count * phi[g] ** m for g, count in counts.items())
            if brute != _divisor_form(q, m, counts, phi):
                mismatches += 1
                continue
            if m < 2:
                continue
            den = _ratio_den(q, m, phi)
            if m not in best or brute * best[m][1] > best[m][0] * den:
                best[m] = (brute, den)
    max_ratios = {m: Fraction(num, den) for m, (num, den) in best.items()}
    return {"ok": mismatches == 0, "mismatches": mismatches, "max_ratios": max_ratios}


def phigcd_ratio_scan(limit: int, m: int = 3) -> Fraction:
    """Max over q <= limit of the divisor-form sum against phi(q)**m
    (m >= 3) or q**2 (m = 2).  Divisor form only, so it scales to 10**5."""
    if m < 2:
        raise ValueError("ratio scan needs m >= 2")
    table = spf_table(limit)
    phi = totient_range(limit)
    best_num, best_den = 0, 1
    for q in range(1, limit + 1):
        divisors = [1]
        for p, e in factorize_with_table(q, table):
            power = 1
            extra = []
            for _ in range(e):
                power *= p
                extra.extend(d * power for d in divisors)
            divisors.extend(extra)
        total = _divisor_form(q, m, divisors, phi)
        den = _ratio_den(q, m, phi)
        if total * best_den > best_num * den:
            best_num, best_den = total, den
    return Fraction(best_num, best_den)


# -- Monte Carlo coverage -----------------------------------------------------------


def _wilson(hits: int, n: int, z: float) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class McReport:
    config: dict
    q_range: tuple[int, ...]
    samples: int
    hits: int
    estimate: float
    wilson95: tuple[float, float]
    wilson3s: tuple[float, float]
    seed: int
    mode: str


def mc_coverage(
    cfg: ExperimentConfig, q_range, samples: int, mode: str = "random"
) -> McReport:
    """Fraction of sampled points of [0,1)**m landing in the union of the
    approximation sets over q_range, via the strict hit test per coordinate.

    Deterministic for a given seed (counter-based generator).  Grid mode
    (equispaced midpoints plus offset) is one-dimensional only.
    """
    if cfg.m > 3:
        raise ValueError("Monte Carlo coverage is limited to m <= 3")
    if samples < 1000:
        raise ValueError("need at least 10**3 samples")
    if mode not in ("random", "grid"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "grid" and cfg.m != 1:
        raise ValueError("grid sampling is one-dimensional")
    qs = tuple(sorted(set(int(q) for q in q_range)))
    if not qs or qs[0] < 1:
        raise ValueError("q_range must contain integers >= 1")
    per_q = []
    for q in qs:
        psi_q = float(cfg.psi(q))
        if psi_q == 0.0:
            continue
        targets = tuple(float(y) for y in cfg.target(q))
        per_q.append((q, psi_q, targets))
    hits = 0
    m = cfg.m
    seed = cfg.seed
    gcd = math.gcd
    floor = math.floor
    counter = 0
    for i in range(samples):
        if mode == "grid":
            point = ((i + 0.5) / samples,)
        else:
            # unit_sample(seed, i * m + d) for each coordinate d, written out
            point = []
            for _ in range(m):
                z = (seed + counter * _GOLDEN) & _MASK64
                counter += 1
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                point.append(((z ^ (z >> 31)) >> 11) * 2.0**-53)
        for q, psi_q, targets in per_q:
            for d in range(m):
                t = q * point[d] - targets[d]
                base = floor(t + 0.5)
                for a in (base - 1, base, base + 1):
                    if abs(t - a) < psi_q and gcd(abs(a), q) == 1:
                        break
                else:
                    break
            else:
                hits += 1
                break
    return McReport(
        config=cfg.describe(),
        q_range=qs,
        samples=samples,
        hits=hits,
        estimate=hits / samples,
        wilson95=_wilson(hits, samples, 1.959963984540054),
        wilson3s=_wilson(hits, samples, 3.0),
        seed=seed,
        mode=mode,
    )


# -- equidistribution scans -----------------------------------------------------------


@dataclass(frozen=True)
class EquidistRow:
    q: int
    window: tuple[Fraction, Fraction]
    ratio: Fraction
    deviation: Fraction  # |ratio - window length|


def equidistribution_scan(cfg: ExperimentConfig, windows) -> dict:
    """Exact per-q window ratios and the max deviation per window.

    Skips q with psi(q) = 0 (the ratio is undefined there).  Targets use
    the first coordinate; the scan is one-dimensional.
    """
    parsed = []
    for lo, hi in windows:
        lo = Fraction(lo)
        hi = Fraction(hi)
        if not (0 <= lo < hi <= 1):
            raise ValueError("windows must satisfy 0 <= lo < hi <= 1")
        parsed.append((lo, hi))
    rows: list[EquidistRow] = []
    max_dev = {window: _ZERO for window in parsed}
    for q in range(1, cfg.Q + 1):
        psi_q = cfg.psi(q)
        if psi_q == 0:
            continue
        approx = build_approx_set(q, psi_q, cfg.target(q)[0])
        total = approx.measure()
        if total == 0:
            continue
        for window in parsed:
            ratio = approx.restrict(*window).measure() / total
            deviation = abs(ratio - (window[1] - window[0]))
            rows.append(EquidistRow(q=q, window=window, ratio=ratio, deviation=deviation))
            if deviation > max_dev[window]:
                max_dev[window] = deviation
    return {"rows": rows, "max_deviation": max_dev}


# -- regression baselines --------------------------------------------------------------


def load_baselines() -> dict:
    text = resources.files("torusapprox").joinpath("baselines.json").read_text()
    return json.loads(text)


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
