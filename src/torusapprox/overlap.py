"""Pairwise overlap machinery for approximation sets.

Given q != r, the pair decomposes over each prime p with valuations
u = v_p(q), v = v_p(r) into three parts

    ell = prod over u = v of p**u          (the balanced part)
    em  = prod over u != v of p**min(u,v)
    en  = prod over u != v of p**max(u,v)

so gcd(q,r) = ell*em, lcm(q,r) = ell*en, and em | en.  The number of
coprime residue pairs (a, b) with a/q - b/r = c/lcm(q,r) has the closed
form

    f(c) = [gcd(c, en) = 1] * phi(em) * ell
           * prod over p | gcd(ell, c) of (1 - 1/p)
           * prod over p | ell, p not | c of (1 - 2/p),

always a non-negative integer.  This module carries the closed form and
its brute-force twin, the overlap geometry (interval widths, the sifting
window length D, the thresholds), the exact pairwise overlap measure, the
bound right-hand sides it is checked against, and exact sifted counts of
integers coprime to a modulus inside a rational window.

Summed over the integer differences c, the closed form gives the overlap
itself.  With L = lcm(q, r), w_q = psi(q)/q and the trapezoid
trap(x) = max(0, min(w_q + w_r - |x|, 2 min(w_q, w_r))), the overlap of
two intervals whose centres lie x apart,

    |A_q & A_r| = sum over c in Z of f(c mod L) * trap(c/L + y_q/q - y_r/r)

whenever psi(q), psi(r) <= 1/2, so that each set's intervals are disjoint
(up to endpoints).  `_pair_overlap_units` evaluates this sum without a loop
over c: f expands into 2**omega(L) signed terms a_k [k | c], and the
trapezoid summed over the multiples of k has a closed form.  The interval
merge of `pair_overlap_exact` / `measure_intersection` stays the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .approx import build_approx_set, coprime_residues
from .arith import factorize, totient
from .errors import BudgetError, IdentityError
from .torus import measure_intersection

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PairDecomposition:
    """ell/em/en splitting of a pair of moduli, with gcd and lcm."""

    q: int
    r: int
    gcd: int
    lcm: int
    ell: int
    em: int
    en: int
    prime_valuations: tuple[tuple[int, int, int], ...]  # (p, v_p(q), v_p(r))


def _ell_em_en(fq: dict, fr: dict):
    """The ell/em/en split of two factorizations given as {p: exponent}.

    Returns (ell, em, en, phi(em), balanced primes, split primes), the
    primes in no particular order.
    """
    ell = em = en = phi_em = 1
    balanced = []
    split = []
    for p, u in fq.items():
        v = fr.get(p, 0)
        if u == v:
            ell *= p**u
            balanced.append(p)
            continue
        split.append(p)
        low, high = (u, v) if u < v else (v, u)
        if low:
            em *= p**low
            phi_em *= p ** (low - 1) * (p - 1)
        en *= p**high
    for p, v in fr.items():
        if p not in fq:
            split.append(p)
            en *= p**v
    return ell, em, en, phi_em, balanced, split


def decompose_pair(q: int, r: int) -> PairDecomposition:
    """Decompose (q, r) and check every structural identity on the spot."""
    if q < 1 or r < 1:
        raise ValueError("moduli must be >= 1")
    fq = dict(factorize(q))
    fr = dict(factorize(r))
    ell, em, en, _, balanced, split = _ell_em_en(fq, fr)
    valuations = [(p, fq.get(p, 0), fr.get(p, 0)) for p in sorted(balanced + split)]
    g = math.gcd(q, r)
    l = q * r // g
    dec = PairDecomposition(
        q=q, r=r, gcd=g, lcm=l, ell=ell, em=em, en=en,
        prime_valuations=tuple(valuations),
    )
    if not (
        g == ell * em
        and l == ell * en
        and q * r * em == g * g * en
        and math.gcd(ell, em * en) == 1
        and en % em == 0
        and totient(em) * totient(ell) == totient(g)
        and totient(em) * totient(ell) ** 2 * totient(en) == totient(q) * totient(r)
    ):
        raise IdentityError(f"ell/em/en identities fail for q={q}, r={r}")
    return dec


def _split_primes(dec: PairDecomposition) -> list[int]:
    return [p for p, u, v in dec.prime_valuations if u != v]


def coprime_pair_count(dec: PairDecomposition, c: int) -> int:
    """Closed-form f(c): pairs of coprime residues at integer difference c.

    c is reduced modulo whatever each gcd needs.  In integers,
    f(c) = phi(em) (ell / rad ell) prod over p | ell of (p - 1 if p | c else
    p - 2), with phi(em) read off the valuations; that rad(ell) divides ell
    (what makes f an integer) is checked before returning.
    """
    if math.gcd(c, dec.en) != 1:
        return 0
    value = rad = 1
    for p, u, v in dec.prime_valuations:
        if u == v:
            rad *= p
            value *= p - 1 if c % p == 0 else p - 2
        elif u and v:  # p | em with exponent min(u, v)
            value *= p ** (min(u, v) - 1) * (p - 1)
    if dec.ell % rad:
        raise IdentityError(f"rad(ell) = {rad} does not divide ell = {dec.ell}")
    return value * (dec.ell // rad)


def coprime_pair_histogram(dec: PairDecomposition) -> list[int]:
    """Brute-force f over a full period: histogram of (a*r' - b*q') mod lcm
    over all coprime residue pairs.  The independent oracle for the closed
    form; its total mass is phi(q) * phi(r)."""
    rp = dec.lcm // dec.q
    qp = dec.lcm // dec.r
    hist = [0] * dec.lcm
    residues_r = coprime_residues(dec.r)
    for a in coprime_residues(dec.q):
        base = a * rp
        for b in residues_r:
            hist[(base - b * qp) % dec.lcm] += 1
    return hist


def coprime_pair_count_brute(q: int, r: int, c: int) -> int:
    """Single-value brute force count, c interpreted mod lcm(q, r)."""
    dec = decompose_pair(q, r)
    return coprime_pair_histogram(dec)[c % dec.lcm]


@dataclass(frozen=True)
class OverlapGeometry:
    """Exact geometry of a pair: interval lengths and windows.

    min_length / max_length are the two interval lengths 2*psi/q.
    window_length = max_length * lcm is the sifting window length.
    The cover window [cover_lo, cover_hi] provably contains the integer
    difference c of every pair of intersecting intervals (half-width
    lcm * (psi(q)/q + psi(r)/r), centered at (q/g) y_r - (r/g) y_q, where
    the differences actually fall).
    """

    min_length: Fraction
    max_length: Fraction
    window_length: Fraction
    cover_lo: Fraction
    cover_hi: Fraction


def _psi_pair(psi, q: int, r: int) -> tuple[Fraction, Fraction]:
    """psi(q) and psi(r) as Fractions; psi is a callable or one constant."""
    if callable(psi):
        psi_q, psi_r = Fraction(psi(q)), Fraction(psi(r))
    else:
        psi_q = psi_r = Fraction(psi)
    if psi_q < 0 or psi_r < 0:
        raise ValueError("psi must be non-negative")
    return psi_q, psi_r


def overlap_geometry(q: int, r: int, psi, y_q=0, y_r=0) -> OverlapGeometry:
    psi_q, psi_r = _psi_pair(psi, q, r)
    wq = Fraction(psi_q, q)
    wr = Fraction(psi_r, r)
    g = math.gcd(q, r)
    l = q * r // g
    min_length = 2 * min(wq, wr)
    max_length = 2 * max(wq, wr)
    cover_center = Fraction(q, g) * Fraction(y_r) - Fraction(r, g) * Fraction(y_q)
    cover_halfwidth = l * (wq + wr)
    return OverlapGeometry(
        min_length=min_length, max_length=max_length,
        window_length=max_length * l,
        cover_lo=cover_center - cover_halfwidth,
        cover_hi=cover_center + cover_halfwidth,
    )


def pair_overlap_exact(q: int, r: int, psi, y_q=0, y_r=0) -> Fraction:
    """Exact measure of the intersection of the two approximation sets.

    q = r is allowed and yields the self-intersection (the set measure),
    which is reported for diagnostics but excluded from bound checks.
    """
    psi_q = psi(q) if callable(psi) else psi
    psi_r = psi(r) if callable(psi) else psi
    a = build_approx_set(q, psi_q, y_q)
    b = build_approx_set(r, psi_r, y_r)
    return measure_intersection(a, b)


def _overlap_row(q: int, factors, psi_q, y_q) -> tuple:
    """One set's integer data for `_pair_overlap_units`:
    (q, {p: e}, den, psi, y) with psi(q) = psi/den and y_q = y/den."""
    psi = Fraction(psi_q)
    y = Fraction(y_q)
    den = math.lcm(psi.denominator, y.denominator)
    return (
        q, dict(factors), den,
        psi.numerator * (den // psi.denominator),
        y.numerator * (den // y.denominator),
    )


def _pair_overlap_units(row_q: tuple, row_r: tuple) -> tuple[int, int]:
    """|A_q & A_r| as (units, den), units/den unreduced, by the summed
    closed form of the module docstring.  Both rows from `_overlap_row`;
    requires psi(q), psi(r) <= 1/2.

    Everything is scaled by N = L * den, den the lcm of the two row
    denominators, so the centre offset of the pair at difference c is
    X = c*den + delta, and with W_q = N w_q the trapezoid is the difference
    of two hats H_h(X) = max(0, h - |X|) of half-widths h = W_q + W_r and
    |W_q - W_r|.  Over the multiples c = jk, a hat sums in closed form:
    with s = k*den and d = delta mod s, the points X >= 0 are d + js for
    0 <= j < u and the points X < 0 are d - is for 1 <= i <= v, where
    u = (h - d)//s + 1 and v = (h + d)//s, so

        2 * sum_j H_h(js + delta) = u(2(h - d) - s(u - 1)) + v(2(h + d) - s(v + 1)).

    When s >= 2h only the point nearest 0 can lie inside the hat.
    """
    q, fq, den_q, psi_q, y_q = row_q
    r, fr, den_r, psi_r, y_r = row_r
    if not psi_q or not psi_r:
        return 0, 1
    g = math.gcd(q, r)
    # L/q and L/r, each times den over the row's own denominator.
    den = den_q // math.gcd(den_q, den_r) * den_r
    scale_q = r // g * (den // den_q)
    scale_r = q // g * (den // den_r)
    w_q = scale_q * psi_q
    w_r = scale_r * psi_r
    delta = scale_q * y_q - scale_r * y_r
    outer = w_q + w_r
    inner = w_q - w_r if w_q > w_r else w_r - w_q
    # f(c) = phi(em) (ell/rad ell) [gcd(c, en) = 1] prod_{p | ell} ((p-2) + [p | c])
    # as coefficients a_k on the steps s = k*den.
    ell, _, _, phi_em, balanced, split = _ell_em_en(fq, fr)
    coef = phi_em * ell
    for p in balanced:
        coef //= p
    steps = [den]
    coefs = [coef]
    for p in split:
        steps += [s * p for s in steps]
        coefs += [-a for a in coefs]
    for p in balanced:
        if p == 2:  # p - 2 = 0: only the [2 | c] half survives
            steps = [2 * s for s in steps]
        else:
            coefs = [a * (p - 2) for a in coefs] + coefs
            steps += [s * p for s in steps]
    total = 0
    sparse = 2 * outer
    for s, a in zip(steps, coefs):
        d = delta % s
        if s >= sparse:
            if d > s - d:
                d = s - d
            if d < outer:
                total += 2 * a * (outer - (d if d > inner else inner))
            continue
        t = outer - d
        u = t // s + 1
        e = outer + d
        v = e // s
        value = u * (2 * t - s * (u - 1)) + v * (2 * e - s * (v + 1))
        if inner:
            t = inner - d
            u = t // s + 1
            e = inner + d
            v = e // s
            value -= u * (2 * t - s * (u - 1)) + v * (2 * e - s * (v + 1))
        total += a * value
    return total, 2 * q * (r // g) * den


def _main_term_units(
    q: int, r: int, psi_q: Fraction, psi_r: Fraction, phi_q: int, phi_r: int,
    split, strict_indicator: bool,
) -> tuple[int, int]:
    """M(q, r) as (num, den), unreduced, in integers: the one form behind
    `main_term`, `overlap_bound_terms` and the `msum` ladder.

    With psi(q) = a/b and psi(r) = c/d the window length is
    D = 2 lcm(q, r) max(a/(bq), c/(dr)) = dn/dd, so the window test and the
    comparisons p > D are cross-multiplications.  split holds the primes
    whose valuations in q and r differ (the primes of q*r/gcd**2).
    """
    a, b = psi_q.numerator, psi_q.denominator
    c, d = psi_r.numerator, psi_r.denominator
    lcm = q // math.gcd(q, r) * r
    if a * d * r >= c * b * q:
        dn, dd = 2 * lcm * a, b * q
    else:
        dn, dd = 2 * lcm * c, d * r
    if dn < dd or (strict_indicator and dn == dd):
        return 0, 1
    num = a * c * phi_q * phi_r
    den = b * d * q * r
    for p in split:
        if p * dd > dn:
            num *= p + 1
            den *= p
    return num, den


def _addend2_units(
    q: int, r: int, psi_q: Fraction, psi_r: Fraction, phi_g: int
) -> tuple[int, int]:
    """phi(gcd) * min(psi(q)/q, psi(r)/r) as (num, den), phi_g = phi(gcd(q, r))."""
    a, b = psi_q.numerator, psi_q.denominator
    c, d = psi_r.numerator, psi_r.denominator
    if a * d * r <= c * b * q:
        return phi_g * a, b * q
    return phi_g * c, d * r


def _trivial_units(q: int, psi_q: Fraction, psi_r: Fraction, phi_g: int) -> tuple[int, int]:
    """psi(q)psi(r) + (psi(q)/q) phi_g = a(cq + d phi_g) / (bdq) as (num, den)."""
    a, b = psi_q.numerator, psi_q.denominator
    c, d = psi_r.numerator, psi_r.denominator
    return a * (c * q + d * phi_g), b * d * q


def overlap_bound_terms(
    q: int, r: int, psi, dec: PairDecomposition | None = None,
) -> tuple[Fraction, Fraction]:
    """The two addends of the overlap upper bound.

    addend1 = M(q, r) with the strict window indicator [D > 1], that is
              [D > 1] * (psi(q)phi(q)/q) * (psi(r)phi(r)/r)
              * prod over p | q*r/gcd**2 with p > D of (1 + 1/p)
    addend2 = phi(gcd(q, r)) * min(psi(q)/q, psi(r)/r)

    Both exact; the bound itself holds up to an absolute constant that is
    tracked empirically, never assumed.
    """
    if dec is None:
        dec = decompose_pair(q, r)
    psi_q, psi_r = _psi_pair(psi, q, r)
    addend2 = _addend2_units(q, r, psi_q, psi_r, totient(dec.gcd))
    return main_term(q, r, psi, dec, strict_indicator=True), Fraction(*addend2)


def main_term(
    q: int, r: int, psi, dec: PairDecomposition | None = None,
    strict_indicator: bool = False,
) -> Fraction:
    """The main pairwise term M(q, r).

    The default window indicator is D >= 1 (what the pairwise sums
    downstream use); strict_indicator=True switches to D > 1, which is the
    bound's addend1.  The two differ only on the measure-zero locus D = 1.
    """
    if dec is None:
        dec = decompose_pair(q, r)
    psi_q, psi_r = _psi_pair(psi, q, r)
    return Fraction(*_main_term_units(
        q, r, psi_q, psi_r, totient(q), totient(r), _split_primes(dec), strict_indicator
    ))


def trivial_overlap_bound(q: int, r: int, psi) -> Fraction:
    """Elementary overlap bound psi(q)psi(r) + (psi(q)/q) phi(gcd(q, r)).

    Stated for ordered pairs r < q; callers order the pair first.
    """
    if not 1 <= r < q:
        raise ValueError("trivial_overlap_bound requires 1 <= r < q")
    psi_q, psi_r = _psi_pair(psi, q, r)
    return Fraction(*_trivial_units(q, psi_q, psi_r, totient(math.gcd(q, r))))


def overlap_count_bound(q: int, r: int, psi, y_q=0, y_r=0) -> Fraction:
    """The shorter interval length times the f-count over the cover window.

    Every pair of intersecting intervals overlaps in measure at most
    min_length and has its integer difference inside the cover window, so
    this always dominates the exact overlap measure.
    """
    geometry = overlap_geometry(q, r, psi, y_q, y_r)
    if geometry.min_length == 0:
        return _ZERO
    dec = decompose_pair(q, r)
    lo = math.ceil(geometry.cover_lo)
    hi = math.floor(geometry.cover_hi)
    count = 0
    for c in range(lo, hi + 1):
        count += coprime_pair_count(dec, c)
    return geometry.min_length * count


def sifted_interval_count(
    x, y, n: int, omega_cap: int = 24
) -> tuple[int, Fraction, Fraction]:
    """Exact count of integers c in [x, y] with gcd(c, n) = 1.

    Inclusion-exclusion over the squarefree divisors of rad(n).  Returns
    (count, main_term, error) where main_term = (y - x) * phi(rad n)/rad n
    and error = |count - main_term|, which inclusion-exclusion bounds by
    2**omega(n).  Both window endpoints are inclusive.  Refuses moduli with
    more than omega_cap distinct primes (the 2**omega subset walk blows up).
    """
    x = Fraction(x)
    y = Fraction(y)
    if x > y:
        raise ValueError("window needs x <= y")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    primes = [p for p, _ in factorize(n)]
    if len(primes) > omega_cap:
        raise BudgetError(
            f"{len(primes)} distinct primes exceed the inclusion-exclusion cap {omega_cap}"
        )
    # Signed squarefree divisors of rad(n).
    signed: list[tuple[int, int]] = [(1, 1)]
    for p in primes:
        signed += [(d * p, -sign) for d, sign in signed]
    # floor(y/d) and ceil(x/d) on the numerators, x = xn/xd and y = yn/yd.
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    count = 0
    for d, sign in signed:
        count += sign * (yn // (yd * d) + (-xn) // (xd * d) + 1)
    # main = (y - x) * prod (p - 1)/p = main_num / main_den
    main_num = yn * xd - xn * yd
    main_den = yd * xd
    for p in primes:
        main_num *= p - 1
        main_den *= p
    gap = abs(count * main_den - main_num)
    if gap > 2 ** len(primes) * main_den:
        raise IdentityError(
            f"sifted count error {Fraction(gap, main_den)} exceeds 2**omega(n) for n={n}"
        )
    return count, Fraction(main_num, main_den), Fraction(gap, main_den)


@dataclass(frozen=True)
class OverlapReport:
    """Everything the CLI prints for one pair."""

    q: int
    r: int
    ell: int
    em: int
    en: int
    D: Fraction
    exact_overlap: Fraction
    addend1: Fraction
    addend2: Fraction
    M: Fraction
    trivial_rhs: Fraction | None


def overlap_report(q: int, r: int, psi, y_q=0, y_r=0) -> OverlapReport:
    dec = decompose_pair(q, r)
    geometry = overlap_geometry(q, r, psi, y_q, y_r)
    exact = pair_overlap_exact(q, r, psi, y_q, y_r)
    addend1, addend2 = overlap_bound_terms(q, r, psi, dec)
    m_value = main_term(q, r, psi, dec)
    hi, lo = (q, r) if q > r else (r, q)
    trivial = trivial_overlap_bound(hi, lo, psi) if q != r else None
    return OverlapReport(
        q=q, r=r, ell=dec.ell, em=dec.em, en=dec.en, D=geometry.window_length,
        exact_overlap=exact, addend1=addend1, addend2=addend2, M=m_value,
        trivial_rhs=trivial,
    )
