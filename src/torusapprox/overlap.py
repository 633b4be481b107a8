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

always a non-negative integer.  Its one body, `_f_terms`, expands it into
signed divisor terms f(c) = sum over k of a_k [k | c] from two per-q rows
of `_arith_row`; every user of f reads those terms.  Each row carries
rad(q) and the signed divisors d * mu(d) of the odd part of each t | rad(q),
so the terms are products of two precomputed lists.  A coprime pair reads
both lists from the rows as they are; only a pair sharing a prime is split
by `_split`, which sorts the primes of g = gcd(q, r) by gcds.  r's list is
read from its row, and q's side of the split, with its balanced primes
expanded, depends on (q, g, unequal primes) alone: `_expansion` builds it
once per key into a memo on q's row, which every later partner, weight
family and target reads, and which lives as long as the row list.  A
weight and target are a small `_target_part` on q's row, which every target
column shares; no other module reads either layout.
This module carries the closed form and its brute-force twin, the sifting
window length D, the exact pairwise overlap measure, the bound right-hand
sides it is checked against, and exact sifted counts of integers coprime
to a modulus inside a rational window.

Summed over the integer differences c, the closed form gives the overlap
itself.  With L = lcm(q, r), w_q = psi(q)/q and the trapezoid
trap(x) = max(0, min(w_q + w_r - |x|, 2 min(w_q, w_r))), the overlap of
two intervals whose centres lie x apart,

    |A_q & A_r| = sum over c in Z of f(c mod L) * trap(c/L + y_q/q - y_r/r)

whenever psi(q), psi(r) <= 1/2, so that each set's intervals are disjoint
(up to endpoints).  `_pair_overlap_units` evaluates this sum without a loop
over c: for each term a_k [k | c] of f, the trapezoid summed over the
multiples of k has a closed form.  When 2 splits the pair (2 | en), the
factor [gcd(c, en) = 1] makes f vanish at even c, so the terms carry no
prime 2 and each is summed over the odd multiples k, 3k, 5k, ... of its
step instead: an arithmetic progression of step 2k, the same closed form.
When the two centres coincide, y_q/q = y_r/r (every pair at y = 0, the
homogeneous case), the points sit symmetrically about 0 and each term's
sum takes one floor division; the terms stop at the outer hat, and those
past it sum in one closed form.  The interval merge of `pair_overlap_exact`
/ `measure_intersection` stays the oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .approx import _HALF, _check_piece_cap, build_approx_set
from .arith import factorize, factorize_with_table, spf_table, totient
from .errors import BudgetError, IdentityError
from .torus import _overlap_units, measure_intersection


class PairDecomposition(NamedTuple):
    """ell/em/en splitting of a pair of moduli, with gcd, lcm and phi(gcd)."""

    q: int
    r: int
    gcd: int
    lcm: int
    ell: int
    em: int
    en: int
    phi_gcd: int


def _split(row_q: tuple, row_r: tuple, g: int) -> tuple:
    """The ell/em/en split of a pair from its two `_arith_row` rows and
    g = gcd(q, r): (q's `_expansion`, read from q's row memo or built into
    it, and signed_r).  em = g/ell and en = (q/g)(r/ell).  The d * mu(d)
    over the odd d | rad(en) are the products of an entry of signed_q, q's
    list of rad(q)/rad(g) * unequal, and one of signed_r.

    The primes of g are classified by gcds, not by a walk: a prime p | g
    has v_p(q) != v_p(r) exactly when p divides (q/g)(r/g), so the
    unequal-valuation primes are those of unequal = gcd(rad g, (q/g)(r/g))
    and the other primes of g are balanced.  Every prime outside the
    balanced ones splits, so signed_q and signed_r are the rows' own sorted
    lists.  The gcds and signed_r are the pair's own part; q's side depends
    on (q, g, unequal) alone, so it is expanded once per key.

    The prime 2 never enters the signed lists: when it splits, f(c)
    vanishes at every even c, so its readers take f's terms at the odd
    multiples of each step instead of expanding 2 into a pair of terms."""
    q, _, _, rad_q, _, memo, _ = row_q
    r, _, _, rad_r, lists_r, _, _ = row_r
    rad_g = math.gcd(rad_q, rad_r)
    unequal = math.gcd(rad_g, q // g * (r // g))
    return (memo.get((g, unequal)) or _expansion(row_q, g, rad_g, unequal),
            lists_r[rad_r // rad_g])


def _expansion(row_q: tuple, g: int, rad_g: int, unequal: int) -> tuple:
    """q's side of the split of a pair (q, r) with g = gcd(q, r), rad g and
    its unequal-valuation primes unequal, stored in q's row memo under
    (g, unequal): (ell, left, weights).  ell is built from q's exponents of
    the balanced primes rad(g)/unequal, em = g/ell, and phi(em) =
    em/unequal * phi(unequal), read off the row: the entries d * mu(d) of
    lists[t] sum to the product over odd p | t of (1 - p), which is +-phi(t).

    left and weights are f's left factor: each balanced prime p expands
    signed_q, q's sorted list of rad(q)/rad(g) * unequal, into the terms
    (p - 2) + [p | c], all weighted by phi(em) ell / rad(ell).  With no
    balanced prime, left is signed_q itself and weights one endless repeat
    of phi(em), which no zip over left exhausts, so every reader shares it.
    rad(ell) | ell, which makes f integral, is checked on every expansion
    built; a failed check stores nothing."""
    _, fq, _, rad_q, lists_q, memo, _ = row_q
    rad_ell = rad_g // unequal
    ell = 1
    balanced = []
    if rad_ell > 1:
        for p, u in fq.items():
            if not rad_ell % p:
                ell *= p**u
                balanced.append(p)
    rad = math.prod(balanced)
    if ell % rad:
        raise IdentityError(f"rad(ell) = {rad} does not divide ell = {ell}")
    em = g // ell
    phi_em = em // unequal * abs(sum(lists_q[unequal]))
    left = lists_q[rad_q // rad_g * unequal]
    weights = repeat(phi_em) if not balanced else [phi_em * (ell // rad)] * len(left)
    for p in balanced:
        if p == 2:  # p - 2 = 0: only the [2 | c] half survives
            left = [2 * x for x in left]
        else:
            weights = [w * m for m in (p - 2, 1) for w in weights]
            left = [x * m for m in (1, p) for x in left]
    memo[g, unequal] = entry = ell, left, weights
    return entry


def _f_terms(row_q: tuple, row_r: tuple, g: int) -> tuple:
    """The one body of f(c) = phi(em) (ell / rad ell) [gcd(c, en) = 1] prod
    over p | ell of ((p - 2) + [p | c]), from the pair's two `_arith_row`
    rows and g = gcd(q, r): (left, weights, right, odd), with f(c) the sum
    over x in left, with its weight w > 0, and y in right of sign(xy) w
    [xy | c].

    odd says that 2 splits the pair, v2(q) != v2(r).  The sum is then f(c)
    at odd c only, and f(c) = 0 at even c: every step xy is odd, and each
    reader takes a term at the odd multiples xy, 3xy, 5xy, ... of its step.

    A coprime pair (g = 1) has ell = em = 1, so f(c) = [gcd(c, qr) = 1]:
    its terms are the two rows' signed lists, read as they are, with unit
    weights.  Any other pair reads its `_split`: left and weights from q's
    expansion, right from r's row."""
    odd = row_q[0] & -row_q[0] != row_r[0] & -row_r[0]  # lowest set bits differ
    if g == 1:
        return row_q[4][row_q[3]], repeat(1), row_r[4][row_r[3]], odd
    (_, left, weights), right = _split(row_q, row_r, g)
    return left, weights, right, odd


def decompose_pair(q: int, r: int) -> PairDecomposition:
    """Decompose (q, r) and check every structural identity on the spot."""
    if q < 1 or r < 1:
        raise ValueError("moduli must be >= 1")
    return _decompose(_arith_row(q, factorize(q)), _arith_row(r, factorize(r)))


def _decompose(row_q: tuple, row_r: tuple, phi=None) -> PairDecomposition:
    """`decompose_pair` from the pair's two `_arith_row` rows, its totient
    identities checked by phi, a lookup in a `totient_range` table up to
    q r, or `totient` when None; neither reads the rows' factorizations."""
    phi = phi or totient
    q, r = row_q[0], row_r[0]
    g = math.gcd(q, r)
    ell = _split(row_q, row_r, g)[0][0]
    em, en = g // ell, q // g * r // ell
    l = q * r // g
    phi_ell, phi_em, phi_g = phi(ell), phi(em), phi(g)
    if not (
        g == ell * em
        and l == ell * en
        and q * r * em == g * g * en
        and math.gcd(ell, em * en) == 1
        and en % em == 0
        and phi_em * phi_ell == phi_g
        and phi_em * phi_ell**2 * phi(en) == phi(q) * phi(r)
    ):
        raise IdentityError(f"ell/em/en identities fail for q={q}, r={r}")
    return PairDecomposition(q=q, r=r, gcd=g, lcm=l, ell=ell, em=em, en=en, phi_gcd=phi_g)


def _f_table(row_q: tuple, row_r: tuple) -> list[int]:
    """f over one period [0, lcm(q, r)) from the pair's two arithmetic rows,
    each term added at the multiples of its step, or at its odd multiples
    when 2 splits."""
    q, r = row_q[0], row_r[0]
    g = math.gcd(q, r)
    table = [0] * (q // g * r)
    left, weights, right, odd = _f_terms(row_q, row_r, g)
    for x, w in zip(left, weights):
        for y in right:
            k = x * y
            a = w if k > 0 else -w
            k = abs(k)
            run = slice(k, None, 2 * k) if odd else slice(None, None, k)
            table[run] = [v + a for v in table[run]]
    return table


def coprime_pair_histogram(dec: PairDecomposition) -> list[int]:
    """Brute-force f over a full period: histogram of (a*r' - b*q') mod lcm
    over all coprime residue pairs.  The independent oracle for the closed
    form, so it finds the residues by gcd, not by factorizing; its total
    mass is phi(q) * phi(r)."""
    rp = dec.lcm // dec.q
    qp = dec.lcm // dec.r
    hist = [0] * dec.lcm
    residues_q, residues_r = ([a for a in range(n) if math.gcd(a, n) == 1]
                              for n in (dec.q, dec.r))
    for a in residues_q:
        base = a * rp
        for b in residues_r:
            hist[(base - b * qp) % dec.lcm] += 1
    return hist


def pair_overlap_exact(q: int, r: int, psi, y_q=0, y_r=0) -> Fraction:
    """Exact measure of the intersection of the two approximation sets.

    q = r is allowed and yields the self-intersection (the set measure),
    which is reported for diagnostics but excluded from bound checks.
    `build_approx_set` refuses a negative psi.
    """
    return measure_intersection(build_approx_set(q, psi(q), y_q), build_approx_set(r, psi(r), y_r))


def _arith_row(q: int, factors) -> tuple:
    """q's data that no weight or target changes, read by every pair formula:
    (q, {p: e}, phi(q), rad(q), lists, memo, top), lists[t] for each t | rad(q)
    the d * mu(d) over the odd d | t sorted by |d| (about 1.3 KB a row): no
    reader expands the prime 2, taken last and not sorted at, so lists[2t] is
    lists[t].  memo, empty here, keeps q's `_expansion`s under (g, unequal)
    for the pairs that read q's side of a `_split`.  top is q's largest
    prime, 1 at q = 1: past it the main term walks no prime of q."""
    factors = dict(factors)
    phi = rad = 1
    lists = {1: (1,)}
    for p, e in sorted(factors.items(), key=lambda item: item[0] == 2):
        phi *= p ** (e - 1) * (p - 1)
        rad *= p
        for t, signed in list(lists.items()):
            if p != 2:
                signed = tuple(sorted((d * m for m in (1, -p) for d in signed), key=abs))
            lists[t * p] = signed
    return q, factors, phi, rad, lists, {}, max(factors, default=1)


def _target_part(arith: tuple, psi_q, y_q) -> tuple:
    """(arith, den, psi, y) on q's arithmetic row: psi(q) = psi/den and y_q =
    y/den, psi/den unreduced when den(y_q) has a factor den(psi(q)) lacks;
    the pair formulas only cross-multiply, so that changes no value."""
    psi, y = Fraction(psi_q), Fraction(y_q)
    den = math.lcm(psi.denominator, y.denominator)
    return arith, den, psi.numerator * den // psi.denominator, y.numerator * den // y.denominator


# 2**15 rows take about 48 MB: 1.3 KB for q's arithmetic row (8 B of it for
# its seventh field, the largest prime) and 0.2 KB per column's part (60 MB
# at three).  Else only the sieve cap of 10**7 bounds them.
# The rows' expansion memos grow as pairs read them: after every pair of a
# scan, 0.45 MB at Q = 256, 0.97 MB at 512, 7.3 MB at 2048 and 46 MB at 8192
# (14.3 Q keys, about 410 B a key) in each worker; the trend gives some 250 MB
# at 2**15, not measured.
_ROW_CAP = 2**15


def _check_row_limit(limit: int) -> None:
    """Refuse a row table past `_ROW_CAP` before any row is built."""
    if limit > _ROW_CAP:
        raise BudgetError(f"Q = {limit} exceeds the overlap-row cap {_ROW_CAP}")


def _arith_rows(limit: int) -> list:
    """[None, `_arith_row` of 1, ..., of limit], factorized from one sieve."""
    _check_row_limit(limit)
    table = spf_table(limit)
    return [None] + [_arith_row(q, factorize_with_table(q, table)) for q in range(1, limit + 1)]


def _overlap_rows(ariths: list, psi, target) -> tuple[list, tuple]:
    """(rows, powers) on the `_arith_rows` ariths, over the target's columns,
    its distinct coordinate sequences (y_q[i] for q < len(ariths)) in the
    order the coordinates first use them: rows[q][c] is the `_target_part`
    on ariths[q] at psi(q) and column c's component, rows[0] is None, and
    powers[c] the number of coordinates equal to column c.  Columns that
    agree at q share one part."""
    powers = Counter(zip(*(target(q) for q in range(1, len(ariths)))))
    rows: list = [None]
    for q, ys in enumerate(zip(*powers), 1):
        arith, psi_q = ariths[q], psi(q)
        built = {y: _target_part(arith, psi_q, y) for y in dict.fromkeys(ys)}
        rows.append(tuple(map(built.__getitem__, ys)))
    return rows, tuple(powers.values())


def _closed_form_flags(psi, limit: int) -> list[bool]:
    """The one closed-form gate: flags[q] for q <= limit, whether A_q's arcs
    are disjoint, 0 <= psi(q) <= 1/2.  It sets `_set_measure`'s form, and a
    pair with both flags set takes `_pair_overlap_units`, else `_merge_units`."""
    return [False] + [0 <= psi(q) <= _HALF for q in range(1, limit + 1)]


def _set_measure(q: int, phi_q: int, psi_q, closed: bool) -> Fraction:
    """|A_q| at any target (a rotation keeps the measure): the closed form
    when q's flag is set, else the built set's, which refuses psi_q < 0."""
    return 2 * phi_q * Fraction(psi_q) / q if closed else build_approx_set(q, psi_q, 0).measure()


def _pair_counts(flags: list[bool], limit: int) -> dict:
    """The pairs q < r <= limit that the closed form and the merge take."""
    closed = math.comb(sum(flags[: limit + 1]), 2)
    return {"closed_form_pairs": closed, "merge_pairs": math.comb(limit, 2) - closed}


def _pair_overlap_units(part_q: tuple, part_r: tuple) -> tuple[int, int]:
    """|A_q & A_r| as (units, den), units/den unreduced, by the summed
    closed form of the module docstring.  Both parts from `_target_part`;
    valid only on the pairs `_closed_form_flags` gives it.

    Everything is scaled by N = L * den, den the lcm of the two part
    denominators, so the centre offset of the pair at difference c is
    X = c*den + delta, and with W_q = N w_q the trapezoid is the difference
    of two hats H_h(X) = max(0, h - |X|) of half-widths h = W_q + W_r and
    |W_q - W_r|.  Over the multiples c = jk, a hat sums in closed form:
    with s = k*den and d = delta mod s, the points X >= 0 are d + js for
    0 <= j <= u and the points X < 0 are d - is for 1 <= i <= v, where
    u = (h - d)//s and v = (h + d)//s, so

        2 * sum_j H_h(js + delta) = (u + 1)(2(h - d) - su) + v(2(h + d) - s(v + 1)).

    When 2 splits the pair, the terms run over the odd multiples
    c = (2i + 1)k only, whose points X = 2s i + (s + delta) form the same
    progression with step 2s and d = (delta + s) mod 2s.  When the step is
    at least 2h only the point nearest 0 can lie inside the hat.

    A centred pair, delta = 0 (y_q/q = y_r/r), takes its own loop over the
    same terms: its points +-js, or +-(2i + 1)s when 2 splits, are
    symmetric about 0, so with u = h//s and n = (h + s)//(2s), the number
    of odd multiples of s up to h,

        2 * sum_j H_h(js) = 2(h(2u + 1) - s u(u + 1)),
        2 * sum_i H_h((2i + 1)s) = 4(n h - s n**2),

    and each term is the outer hat's sum less the inner's, the first
    written h + u(2h - s(u + 1)).  A point at |X| = h adds 0, so counting
    it or not changes no sum.  A term with s > outer adds a(outer - inner),
    or 0 over odd multiples.  right is one row's signed list, sorted by |d|,
    of an odd t; its signs sum to the sum over d | t of mu(d) = [t = 1].  So
    the loop stops at the first s > outer and adds (a whole - head)(outer -
    inner) for the rest, head the sum of the a seen, whole = [t = 1].
    """
    (q, _, _, _, _, _, _), den_q, psi_q, y_q = part_q
    (r, _, _, _, _, _, _), den_r, psi_r, y_r = part_r
    if not psi_q or not psi_r:
        return 0, 1
    g = math.gcd(q, r)
    # L/q and L/r, each times den over the part's own denominator.
    den = den_q // math.gcd(den_q, den_r) * den_r
    scale_q = r // g * (den // den_q)
    scale_r = q // g * (den // den_r)
    w_q = scale_q * psi_q
    w_r = scale_r * psi_r
    delta = scale_q * y_q - scale_r * y_r
    outer = w_q + w_r
    inner = w_q - w_r if w_q > w_r else w_r - w_q
    left, weights, right, odd = _f_terms(part_q[0], part_r[0], g)
    total = 0
    if not delta:
        # Centred: each hat's sum, halved, is added and total doubled once.
        whole = right == (1,)
        hat = 0 if odd else outer - inner
        for x, w in zip(left, weights):
            x *= den
            head = 0
            for y in right:
                s = x * y
                a = w
                if s < 0:
                    s = -s
                    a = -w
                if s > outer:
                    # Each term left adds its a * hat; their a sum to a * whole - head.
                    total += (a * whole - head) * hat
                    break
                head += a
                if odd:
                    # The points +-(2i + 1)s, n of them on each side of 0.
                    step = s + s
                    n = (outer + s) // step
                    value = n * (outer + outer - step * n)
                    if inner >= s:
                        n = (inner + s) // step
                        value -= n * (inner + inner - step * n)
                else:
                    u = outer // s
                    value = hat + u * (outer + outer - s * (u + 1))
                    if inner >= s:
                        u = inner // s
                        value -= u * (inner + inner - s * (u + 1))
                total += a * value
        return total + total, 2 * q * (r // g) * den
    sparse = 2 * outer
    for x, w in zip(left, weights):
        x *= den
        for y in right:
            s = x * y
            a = w
            if s < 0:
                s = -s
                a = -w
            if odd:
                # c = (2i + 1)k: the points s(2i + 1) + delta, step 2s.
                d = (delta + s) % (s + s)
                s += s
            else:
                d = delta % s
            if s >= sparse:
                if d > s - d:
                    d = s - d
                if d < outer:
                    total += 2 * a * (outer - (d if d > inner else inner))
                continue
            t = outer - d
            u = t // s
            e = outer + d
            v = e // s
            value = (u + 1) * (t + t - s * u) + v * (e + e - s * (v + 1))
            if inner:
                t = inner - d
                u = t // s
                e = inner + d
                v = e // s
                value -= (u + 1) * (t + t - s * u) + v * (e + e - s * (v + 1))
            total += a * value
    return total, 2 * q * (r // g) * den


def _merge_units(sets: dict, part_q: tuple, part_r: tuple) -> tuple[int, int]:
    """|A_q & A_r| by the interval merge, for the pairs the kernels do not
    take, on each part's interval set, cached in sets under (q, den, psi, y)."""
    pair = []
    for (q, _, _, _, _, _, _), den, psi, y in (part_q, part_r):
        if (q, den, psi, y) not in sets:
            sets[q, den, psi, y] = build_approx_set(q, Fraction(psi, den), Fraction(y, den))
        pair.append(sets[q, den, psi, y])
    return _overlap_units(*pair)


def _window_units(part_q: tuple, part_r: tuple) -> tuple[int, int]:
    """The sifting window length D = 2 lcm(q, r) max(psi(q)/q, psi(r)/r)
    as (num, den): with psi(q) = a/b and psi(r) = c/d, the larger of
    2 lcm a/(bq) and 2 lcm c/(dr), chosen by cross-multiplication."""
    (q, _, _, _, _, _, _), b, a, _ = part_q
    (r, _, _, _, _, _, _), d, c, _ = part_r
    lcm = q // math.gcd(q, r) * r
    if a * d * r >= c * b * q:
        return 2 * lcm * a, b * q
    return 2 * lcm * c, d * r


def _split_prime_factor(part_q: tuple, part_r: tuple, strict: bool = False) -> tuple[int, int]:
    """C(q, r) [D >= 1] as (num, den), unreduced: the one window test and
    product over split primes, read by both main-term kernels.  C is the
    product of (p + 1)/p over the split primes p > D, the primes of q or r
    whose valuations differ, read off the rows' factorizations.

    The window test D >= 1 (D > 1 with strict) and the comparisons p > D
    are cross-multiplications with D = dn/dd; a shut window gives (0, 1).
    No prime of q or r exceeds the larger of the rows' largest primes, so
    at D >= that C is (1, 1) and no prime is walked.
    """
    (_, fq, _, _, _, _, top_q), _, _, _ = part_q
    (_, fr, _, _, _, _, top_r), _, _, _ = part_r
    dn, dd = _window_units(part_q, part_r)
    if dn < dd or (strict and dn == dd):
        return 0, 1
    if dn >= (top_q if top_q > top_r else top_r) * dd:
        return 1, 1
    num = den = 1
    for p, e in fq.items():
        if p * dd > dn and fr.get(p) != e:
            num *= p + 1
            den *= p
    for p in fr:
        if p * dd > dn and p not in fq:
            num *= p + 1
            den *= p
    return num, den


def _main_term_units(
    part_q: tuple, part_r: tuple, strict_indicator: bool = False
) -> tuple[int, int]:
    """M(q, r) = W_q W_r C(q, r) [D >= 1] as (num, den), unreduced, in
    integers, with W_q = phi(q) psi(q)/q and C [D >= 1] the
    `_split_prime_factor`: the one form behind the report's `M` and
    `addend1`.  A shut window gives (0, 1)."""
    (q, _, phi_q, _, _, _, _), b, a, _ = part_q
    (r, _, phi_r, _, _, _, _), d, c, _ = part_r
    num, den = _split_prime_factor(part_q, part_r, strict_indicator)
    if not num:
        return 0, 1
    return a * c * phi_q * phi_r * num, b * d * q * r * den


def _main_term_excess_units(m: int, part_q: tuple, part_r: tuple) -> tuple[int, int]:
    """E(q, r) = M(q, r)**m - (W_q W_r)**m = (W_q W_r)**m (C**m [D >= 1] - 1)
    as (num, den), unreduced: msum's pair kernel.  It is (0, 1), which the
    pair loop skips, exactly where M(q, r) = W_q W_r: a weight is 0, or the
    window is open and no split prime exceeds D."""
    num, den = _split_prime_factor(part_q, part_r)
    if num == den:
        return 0, 1
    (q, _, phi_q, _, _, _, _), b, a, _ = part_q
    (r, _, phi_r, _, _, _, _), d, c, _ = part_r
    w = a * c * phi_q * phi_r
    if not w:
        return 0, 1
    return w**m * (num**m - den**m), (b * d * q * r * den) ** m


def _addend2_units(part_q: tuple, part_r: tuple, phi_g: int) -> tuple[int, int]:
    """phi(gcd(q, r)) * min(psi(q)/q, psi(r)/r) as (num, den), given
    phi_g = phi(gcd(q, r)), the `phi_gcd` of the pair's decomposition."""
    (q, _, _, _, _, _, _), b, a, _ = part_q
    (r, _, _, _, _, _, _), d, c, _ = part_r
    if a * d * r <= c * b * q:
        return phi_g * a, b * q
    return phi_g * c, d * r


def _trivial_units(part_q: tuple, part_r: tuple, phi_g: int) -> tuple[int, int]:
    """psi(q)psi(r) + (psi(q)/q) phi(gcd) = a(cq + d phi(gcd)) / (bdq) as
    (num, den), given phi_g = phi(gcd(q, r))."""
    (q, _, _, _, _, _, _), b, a, _ = part_q
    _, d, c, _ = part_r
    return a * (c * q + d * phi_g), b * d * q


def sifted_interval_count(x, y, n: int) -> tuple[int, Fraction, Fraction]:
    """Exact count of integers c in [x, y] with gcd(c, n) = 1.

    Inclusion-exclusion over the squarefree divisors of rad(n).  Returns
    (count, main_term, error) where main_term = (y - x) * phi(rad n)/rad n
    and error = |count - main_term|, which inclusion-exclusion bounds by
    2**omega(n).  Both window endpoints are inclusive.  `factorize` refuses
    n >= 2**64, so n has at most 15 distinct primes and the subset walk
    at most 2**15 terms.
    """
    x = Fraction(x)
    y = Fraction(y)
    if x > y:
        raise ValueError("window needs x <= y")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    primes = [p for p, _ in factorize(n)]
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


class OverlapReport(NamedTuple):
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
    """One pair's report.  addend1 is M(q, r) with the strict window
    indicator [D > 1] and M the one with [D >= 1] that the pairwise sums
    use; they differ only on the measure-zero locus D = 1.  addend2 is
    phi(gcd(q, r)) min(psi(q)/q, psi(r)/r), and trivial_rhs the elementary
    bound psi(q)psi(r) + (psi(q)/q) phi(gcd(q, r)) with q the larger
    modulus.  Each row and part is built once, at psi and the targets,
    after the exact overlap, whose set builds refuse a negative psi."""
    if q < 1 or r < 1:
        raise ValueError("moduli must be >= 1")
    for n in (q, r):  # before any trial division
        _check_piece_cap(n)
    exact = pair_overlap_exact(q, r, psi, y_q, y_r)
    arith_q, arith_r = _arith_row(q, factorize(q)), _arith_row(r, factorize(r))
    dec = _decompose(arith_q, arith_r)
    part_q, part_r = _target_part(arith_q, psi(q), y_q), _target_part(arith_r, psi(r), y_r)
    hi, lo = (part_q, part_r) if q > r else (part_r, part_q)
    return OverlapReport(
        q=q, r=r, ell=dec.ell, em=dec.em, en=dec.en,
        D=Fraction(*_window_units(part_q, part_r)),
        exact_overlap=exact,
        addend1=Fraction(*_main_term_units(part_q, part_r, strict_indicator=True)),
        addend2=Fraction(*_addend2_units(part_q, part_r, dec.phi_gcd)),
        M=Fraction(*_main_term_units(part_q, part_r)),
        trivial_rhs=Fraction(*_trivial_units(hi, lo, dec.phi_gcd)) if q != r else None,
    )
