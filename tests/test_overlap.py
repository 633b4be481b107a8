import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torusapprox.approx import ApproxFunction, TargetSequence
from torusapprox.arith import factorize, factorize_with_table, spf_table, totient, totient_range
from torusapprox.errors import IdentityError
from torusapprox.experiments import ExperimentConfig, main_term_sum_check, pairwise_overlap_sum
from torusapprox.overlap import (
    _addend2_units,
    _arith_row,
    _arith_rows,
    _decompose,
    _f_table,
    _f_terms,
    _main_term_excess_units,
    _main_term_units,
    _split,
    _target_part,
    _trivial_units,
    coprime_pair_histogram,
    decompose_pair,
    overlap_report,
    pair_overlap_exact,
    sifted_interval_count,
)
from torusapprox import verification
from torusapprox.verification import _bound_ratio_max, check_coprime_counts

F = Fraction

SRC = Path(__file__).resolve().parent.parent / "src"

CONST4 = ApproxFunction.constant(F(1, 4))


def arith_row(n):
    """n's `_arith_row`; f reads only n, its factorization and its signed
    divisor lists."""
    return _arith_row(n, factorize(n))


def f_table(q, r):
    return _f_table(arith_row(q), arith_row(r))


def f_terms(q, r):
    return _f_terms(arith_row(q), arith_row(r), math.gcd(q, r))


def split(row_q, row_r):
    """The pair's `_split` as (ell, em, en, left, signed_r), left q's
    expanded terms as a multiset of (x, weight) and signed_r as a multiset."""
    q, r = row_q[0], row_r[0]
    g = math.gcd(q, r)
    (ell, left, weights), signed_r = _split(row_q, row_r, g)
    return ell, g // ell, q // g * r // ell, Counter(zip(left, weights)), Counter(signed_r)


def test_decomposition_examples():
    dec = decompose_pair(12, 18)
    assert (dec.ell, dec.em, dec.en) == (1, 6, 36)
    dec = decompose_pair(6, 10)
    assert (dec.ell, dec.em, dec.en) == (2, 1, 15)
    dec = decompose_pair(9, 9)
    assert (dec.ell, dec.em, dec.en) == (9, 1, 1)
    assert dec.phi_gcd == 6
    # 3 balanced: f(c) = phi(1) 9/3 ((3 - 2) + [3 | c]), two terms of weight 3
    assert split(arith_row(9), arith_row(9)) == (9, 1, 1, Counter({(1, 3): 1, (3, 3): 1}),
                                                 Counter({1: 1}))
    assert hash(dec) == hash(decompose_pair(9, 9))  # frozen, so hashable
    # 2, 3 and 5 balanced, 7 and 11 split
    dec = decompose_pair(210, 330)
    assert (dec.ell, dec.em, dec.en) == (30, 1, 77)
    # 2 and 3**2 balanced, 5 and 7 split
    dec = decompose_pair(90, 126)
    assert (dec.ell, dec.em, dec.en) == (18, 1, 35)
    # 2**4 balanced, 3 split with em = 3
    dec = decompose_pair(48, 144)
    assert (dec.ell, dec.em, dec.en) == (16, 3, 9)
    dec = decompose_pair(1, 30)
    assert (dec.ell, dec.em, dec.en) == (1, 1, 30)


def test_decomposition_identities_random():
    rng = random.Random(53)
    for _ in range(400):
        q = rng.randint(1, 10**4)
        r = rng.randint(1, 10**4)
        dec = decompose_pair(q, r)  # identities asserted on construction
        assert dec.gcd == math.gcd(q, r)
        assert dec.lcm == q * r // dec.gcd
        assert F(q * r, dec.gcd**2) == F(dec.en, dec.em)


def test_pair_count_examples():
    assert f_table(3, 2)[1] == 1
    d = decompose_pair(6, 10)
    assert f_table(6, 10)[3] == 0
    assert f_table(6, 10)[4] == 1
    hist = coprime_pair_histogram(decompose_pair(3, 2))
    assert [c for c, v in enumerate(hist) if v] == [1, 5]
    assert sum(coprime_pair_histogram(d)) == totient(6) * totient(10) == 8
    assert coprime_pair_histogram(decompose_pair(7, 7))[0] == totient(7)
    assert coprime_pair_histogram(decompose_pair(6, 10))[4] == 1


def test_pair_count_formula_vs_brute_small():
    # module-scale slice of the exhaustive acceptance check
    for q in range(2, 25):
        for r in range(1, q):
            hist = coprime_pair_histogram(decompose_pair(q, r))
            assert f_table(q, r) == hist
            assert sum(hist) == totient(q) * totient(r)


def test_geometry_examples():
    table = ApproxFunction.from_table({6: F(1, 3), 10: F(1, 5)})
    assert overlap_report(6, 10, table).D == F(10, 3)
    assert overlap_report(2, 3, CONST4).D == F(3, 2)


def test_geometry_width_identity():
    # em * ell * D * min_width = 4 psi(q) psi(r), the exact form of the
    # width/window product identity, min_width = 2 min(psi(q)/q, psi(r)/r)
    rng = random.Random(59)
    for _ in range(200):
        q = rng.randint(1, 300)
        r = rng.randint(1, 300)
        psi_q = F(rng.randint(1, 20), 40)
        psi_r = F(rng.randint(1, 20), 40)
        psi = ApproxFunction.from_table({q: psi_q, r: psi_r})
        if q == r:
            continue
        dec = decompose_pair(q, r)
        window = overlap_report(q, r, psi).D
        min_width = 2 * min(psi_q / q, psi_r / r)
        assert dec.em * dec.ell * window * min_width == 4 * psi_q * psi_r


def test_exact_overlap_examples():
    assert pair_overlap_exact(2, 3, CONST4) == F(1, 12)
    assert pair_overlap_exact(2, 4, ApproxFunction.constant(F(1, 8))) == 0
    assert pair_overlap_exact(2, 3, ApproxFunction.constant(0)) == 0


def test_bound_terms_examples():
    report = overlap_report(2, 3, CONST4)
    assert report.addend2 == F(1, 12)
    assert report.addend2 >= report.exact_overlap
    table = ApproxFunction.from_table({6: F(1, 3), 10: F(1, 5)})
    assert overlap_report(6, 10, table).addend1 == F(1, 9) * F(2, 25) * F(6, 5)
    # indicator off below D = 1
    tiny = ApproxFunction.constant(F(1, 100))
    assert overlap_report(2, 3, tiny).addend1 == 0


def test_main_term_examples():
    table = ApproxFunction.from_table({6: F(1, 3), 10: F(1, 5)})
    assert overlap_report(6, 10, table).M == F(4, 375)
    assert overlap_report(2, 3, ApproxFunction.constant(F(1, 100))).M == 0
    half = ApproxFunction.constant(F(1, 2))
    assert overlap_report(2, 3, half).M == F(1, 12)


def test_main_term_indicator_flag():
    # D = 1 exactly: q=2, r=3, psi with max width 1/12
    psi = ApproxFunction.from_table({2: F(1, 6), 3: F(1, 4)})
    report = overlap_report(2, 3, psi)
    assert report.D == 1
    assert report.M > 0
    assert report.addend1 == 0


def test_trivial_bound():
    # Stated for r < q; the report orders the pair itself.
    assert overlap_report(3, 2, CONST4).trivial_rhs == F(7, 48)
    assert overlap_report(2, 3, CONST4).trivial_rhs == F(7, 48)
    assert overlap_report(4, 2, CONST4).trivial_rhs == F(1, 8)
    assert overlap_report(3, 2, ApproxFunction.constant(0)).trivial_rhs == 0


def test_overlap_report_splits_the_pair_once(monkeypatch):
    from torusapprox import overlap

    calls = []

    decompose = overlap._decompose

    def counting(row_q, row_r):
        calls.append((row_q[0], row_r[0]))
        return decompose(row_q, row_r)

    monkeypatch.setattr(overlap, "_decompose", counting)
    report = overlap_report(12, 18, CONST4, F(1, 5), F(2, 7))
    assert calls == [(12, 18)]
    assert report.exact_overlap == pair_overlap_exact(12, 18, CONST4, F(1, 5), F(2, 7))


def test_overlap_report_refuses_a_negative_psi_before_any_row(monkeypatch):
    from torusapprox import overlap

    def refuse(*args):
        raise AssertionError("a row was built for a negative psi")

    monkeypatch.setattr(overlap, "_arith_row", refuse)
    monkeypatch.setattr(overlap, "_target_part", refuse)
    negative = ApproxFunction("negative", rule=lambda q: F(-1, 4) if q == 18 else F(1, 4))
    with pytest.raises(ValueError, match="^psi must be non-negative$"):
        overlap_report(12, 18, negative)


def test_sifted_count_examples():
    count, main, error = sifted_interval_count(0, 10, 6)
    assert (count, main, error) == (3, F(10, 3), F(1, 3))
    count, main, error = sifted_interval_count(0, 30, 30)
    assert count == 8 == totient(30)
    count, _, error = sifted_interval_count(F(1, 3), F(22, 3), 1)
    assert count == 7 and error <= 1


def test_sifted_count_random():
    rng = random.Random(67)
    for _ in range(400):
        n = rng.randint(1, 10**5)
        x = F(rng.randint(-500, 500), rng.randint(1, 17))
        y = x + F(rng.randint(0, 900), rng.randint(1, 17))
        count, main, error = sifted_interval_count(x, y, n)
        lo = math.ceil(x)
        hi = math.floor(y)
        direct = sum(1 for c in range(lo, hi + 1) if math.gcd(c, n) == 1)
        assert count == direct


def test_overlap_report_fields():
    report = overlap_report(2, 3, CONST4)
    assert report.exact_overlap == F(1, 12)
    assert report.addend2 == F(1, 12)
    assert report.trivial_rhs == F(7, 48)
    self_report = overlap_report(5, 5, CONST4)
    assert self_report.trivial_rhs is None
    assert self_report.exact_overlap == pair_overlap_exact(5, 5, CONST4)


# -- the integer kernels against Fraction reference formulas --------------------
#
# The references below share no code with src/: primes by trial division,
# the totient from them, and every formula written out in Fractions.


def ref_primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def ref_phi(n):
    value = F(n)
    for p in ref_primes(n):
        value *= 1 - F(1, p)
    return int(value)


def ref_window(q, r, psi_q, psi_r):
    lcm = q * r // math.gcd(q, r)
    return 2 * lcm * max(F(psi_q) / q, F(psi_r) / r)


def ref_main_term(q, r, psi_q, psi_r, strict):
    window = ref_window(q, r, psi_q, psi_r)
    if window < 1 or (strict and window == 1):
        return F(0)
    value = F(psi_q) * ref_phi(q) / q * F(psi_r) * ref_phi(r) / r
    g = math.gcd(q, r)
    for p in ref_primes(q * r // (g * g)):
        if p > window:
            value *= 1 + F(1, p)
    return value


PSI_FAMILIES = ["const:0", "const:1/4", "const:1/2", "const:3/4", "pow:1/2,1", "div3"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.sampled_from(PSI_FAMILIES))
@example(4, 2, "const:1/4")  # D = lcm / (2 min) = 1 exactly
@example(7, 7, "const:1/2")  # q = r and D = 1 exactly
@example(210, 143, "const:3/4")
@example(1, 300, "pow:1/2,1")
def test_main_term_and_bound_terms_match_reference(q, r, spec):
    psi = ApproxFunction.parse(spec)
    psi_q, psi_r = psi(q), psi(r)
    loose = ref_main_term(q, r, psi_q, psi_r, strict=False)
    strict = ref_main_term(q, r, psi_q, psi_r, strict=True)
    report = overlap_report(q, r, psi)
    assert report.M == loose
    if ref_window(q, r, psi_q, psi_r) == 1 and psi_q:
        assert loose > 0 and strict == 0
    phi_g = ref_phi(math.gcd(q, r))
    assert report.addend1 == strict
    assert report.addend2 == phi_g * min(F(psi_q) / q, F(psi_r) / r)
    if q != r:
        hi, lo = max(q, r), min(q, r)
        assert report.trivial_rhs == F(psi(hi)) * F(psi(lo)) + F(psi(hi)) / hi * phi_g
    else:
        assert report.trivial_rhs is None


def test_main_term_window_exactly_one_with_table_weights():
    # D = 2 * 6 * max(1/12, 1/12) = 1 from both sides of the max
    psi = ApproxFunction.from_table({2: F(1, 6), 3: F(1, 4)})
    assert ref_window(2, 3, F(1, 6), F(1, 4)) == 1
    report = overlap_report(3, 2, psi)
    assert report.M == ref_main_term(3, 2, F(1, 4), F(1, 6), strict=False) > 0
    assert report.addend1 == 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 300), st.integers(1, 300), st.sampled_from(PSI_FAMILIES),
    st.fractions(min_value=-40, max_value=40, max_denominator=60).filter(bool),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)
@example(2, 3, "const:1/4", F(1, 6), F(0))  # psi(2) = 3/12 over y's denominator
@example(4, 2, "const:1/4", F(5, 4), F(1, 6))  # D = 1 exactly, psi(2) = 3/12
@example(6, 10, "pow:1/2,1", F(-1, 3), F(7, 10))
def test_pair_formulas_on_rows_sharing_a_denominator_with_y(q, r, spec, y_q, y_r):
    # Each part carries psi over lcm(den psi, den y), unreduced when y's
    # denominator adds a factor; the integer forms must not notice.
    psi = ApproxFunction.parse(spec)
    psi_q, psi_r = F(psi(q)), F(psi(r))
    row_q = _target_part(arith_row(q), psi_q, y_q)
    row_r = _target_part(arith_row(r), psi_r, y_r)
    assert F(row_q[2], row_q[1]) == psi_q and F(row_q[3], row_q[1]) == y_q
    assert row_q[0][2] == totient(q)
    for strict in (False, True):
        assert F(*_main_term_units(row_q, row_r, strict)) == ref_main_term(
            q, r, psi_q, psi_r, strict
        )
    phi_g = ref_phi(math.gcd(q, r))
    assert _decompose(row_q[0], row_r[0]).phi_gcd == phi_g
    assert F(*_addend2_units(row_q, row_r, phi_g)) == phi_g * min(psi_q / q, psi_r / r)
    assert F(*_trivial_units(row_q, row_r, phi_g)) == psi_q * psi_r + psi_q / q * phi_g


def test_example_row_psi_is_unreduced():
    arith = _arith_row(2, factorize(2))
    assert arith == (2, {2: 1}, 1, 2, {1: (1,), 2: (1,)}, {}, 2)
    part = _target_part(arith, F(1, 4), F(1, 6))
    assert part == (arith, 12, 3, 2) and part[0] is arith


def ref_pair_count(q, r, c):
    """f(c) from the module docstring's product form, in Fractions."""
    ell = em = en = 1
    for p in ref_primes(q * r):
        u = v = 0
        while q % p ** (u + 1) == 0:
            u += 1
        while r % p ** (v + 1) == 0:
            v += 1
        if u == v:
            ell *= p**u
        else:
            em *= p ** min(u, v)
            en *= p ** max(u, v)
    if math.gcd(c, en) != 1:
        return 0
    value = F(ref_phi(em) * ell)
    for p in ref_primes(ell):
        value *= 1 - F(1, p) if c % p == 0 else 1 - F(2, p)
    assert value.denominator == 1
    return int(value)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 120), st.integers(1, 120), st.integers(0, 10**6),
    st.one_of(st.integers(-5, -1), st.integers(1, 5)),
)
@example(12, 18, 5, -1)
@example(30, 30, 0, 3)
@example(64, 64, 0, -1)  # p = 2 balanced: only even steps
@example(12, 8, 4, -2)  # p = 2 split: f = 0 at even c
@example(12, 8, 7, 1)  # p = 2 split, c odd
def test_pair_count_outside_one_period(q, r, offset, periods):
    # The full-period table is the brute-force histogram, and the product
    # form at any c outside the period reads the table at c mod lcm.
    dec = decompose_pair(q, r)
    table = f_table(q, r)
    assert table == coprime_pair_histogram(dec)
    offset %= dec.lcm
    c = offset + periods * dec.lcm  # c < 0 or c >= lcm
    assert table[offset] == ref_pair_count(q, r, c)


def per_prime_pair_count(q, r, c):
    """f(c) by the CRT, with no ell/em/en split and no Moebius terms: a pair
    of units (a mod q, b mod r) with a (L/q) - b (L/r) = c (mod L) is one
    pair of units mod p**u and p**v for each prime p of L, u = v_p(q) and
    v = v_p(r), meeting the condition mod p**max(u, v).  So f(c) is the
    product over p of that count, each by brute force over p's residues."""
    lcm = q // math.gcd(q, r) * r
    count = 1
    for p in set(ref_primes(q) + ref_primes(r)):
        pu, pv = math.gcd(q, p**64), math.gcd(r, p**64)
        mod = max(pu, pv)
        # hits[x]: the units b mod p**v with b (L/r) = x (mod p**max(u, v)).
        hits = Counter(b * (lcm // r) % mod for b in range(pv) if math.gcd(b, pv) == 1)
        count *= sum(hits[(a * (lcm // q) - c) % mod] for a in range(pu) if math.gcd(a, pu) == 1)
    return count


def f_terms_at(q, r, c):
    """The sum of a_k [k | c] over the terms of `_f_terms`, at odd c only
    when 2 splits the pair."""
    return terms_at(f_terms(q, r), c)


def terms_at(terms, c):
    """The sum of a_k [k | c] over the terms (left, weights, right, odd) of
    `_f_terms`, at odd c only when odd."""
    left, weights, right, odd = terms
    if odd and c % 2 == 0:
        return 0
    return sum(w if x * y > 0 else -w
               for x, w in zip(left, weights) for y in right if c % (x * y) == 0)


def random_unit(rng, n):
    while True:
        a = rng.randrange(n)
        if math.gcd(a, n) == 1:
            return a


def far_pairs():
    """1,500 seeded (q, r, c): moduli up to 10**6 that share powers of
    primes p <= 23 with random valuations, so they split primes >= 11 with
    unequal valuations >= 2, which no pair with q, r <= 120 does.  Half the
    c are attained by a pair of units, so that f(c) > 0 there; the others
    are random."""
    rng = random.Random(20)
    checked = 0
    while checked < 1500:
        shared = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], rng.randint(1, 3))
        q, r = (rng.randint(1, 500) * math.prod(p ** rng.randint(1, 3) for p in shared)
                for _ in range(2))
        if max(q, r) > 10**6:
            continue
        lcm = q // math.gcd(q, r) * r
        c = rng.randrange(lcm)
        if checked % 2:
            a, b = (random_unit(rng, n) for n in (q, r))
            c = (a * (lcm // q) - b * (lcm // r)) % lcm
        yield q, r, c
        checked += 1


def test_f_terms_match_a_per_prime_count_far_past_q_120():
    for q, r, c in far_pairs():
        assert f_terms_at(q, r, c) == per_prime_pair_count(q, r, c), (q, r, c)


def valuation(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def signed_divisors(primes):
    """d * mu(d) over the d | prod(primes), as a multiset."""
    signed = [1]
    for p in primes:
        signed = [d * m for m in (1, -p) for d in signed]
    return Counter(signed)


def per_prime_split(q, r):
    """`split` of (q, r) with each prime classified by its two valuations,
    one at a time, with no gcd.  q's terms are its signed divisors of the
    odd split primes, weighted phi(em) ell / rad(ell), and each balanced
    prime p turns a term (x, w) into (2x, w) for p = 2, else into (x, (p -
    2)w) and (px, w): f's factor (p - 2) + [p | c]."""
    ell = em = en = 1
    balanced, odd_q, odd_r = [], [], []
    for p in sorted(set(ref_primes(q) + ref_primes(r))):
        u, v = valuation(q, p), valuation(r, p)
        if u == v:
            ell *= p**u
            balanced.append(p)
            continue
        em *= p ** min(u, v)
        en *= p ** max(u, v)
        if p != 2:
            (odd_q if u else odd_r).append(p)
    weight = ref_phi(em) * ell // math.prod(balanced)
    terms = [(x, weight) for x in signed_divisors(odd_q).elements()]
    for p in balanced:
        terms = ([(2 * x, w) for x, w in terms] if p == 2 else
                 [(x, (p - 2) * w) for x, w in terms] + [(p * x, w) for x, w in terms])
    return ell, em, en, Counter(terms), signed_divisors(odd_r)


# The far pairs reach exponent 9; powers 2**16 to 2**19, shared or not, make
# a shortcut that caps an exponent, such as gcd(g, rad**15), fail, where the
# scans' 2**15 row cap and `decompose_pair` hide it.
POWERS = [2**e * k for e in range(16, 20) for k in (1, 3, 5, 15) if 2**e * k <= 10**6]


def test_split_matches_per_prime_valuations_far_past_q_120():
    pairs = [(q, r) for q, r, _ in far_pairs()] + list(itertools.product(POWERS, repeat=2))
    for q, r in pairs:
        assert split(arith_row(q), arith_row(r)) == per_prime_split(q, r), (q, r)
    assert max(valuation(n, 2) for pair in pairs for n in pair) >= 16


def test_row_memos_serve_every_partner_against_the_per_prime_oracles():
    # Each modulus's row is built once, and each q visits its partners in
    # increasing order, then in decreasing order: an expansion that one
    # partner writes to q's row is read, and checked, by every other
    # partner with the same key, and by the same partner again.
    cs = {}
    for q, r, c in far_pairs():
        cs.setdefault((q, r), []).append(c)
    for pair in itertools.product(POWERS, repeat=2):
        cs.setdefault(pair, [])
    rows = {n: arith_row(n) for pair in cs for n in pair}
    partners = {}
    for q, r in sorted(cs):
        partners.setdefault(q, []).append(r)
    counts = {(q, r, c): per_prime_pair_count(q, r, c) for (q, r), c_list in cs.items()
              for c in c_list}
    splits = {pair: per_prime_split(*pair) for pair in cs}
    for q, rs in partners.items():
        for r in rs + rs[::-1]:
            assert split(rows[q], rows[r]) == splits[q, r], (q, r)
            terms = _f_terms(rows[q], rows[r], math.gcd(q, r))
            for c in cs[q, r]:
                assert terms_at(terms, c) == counts[q, r, c], (q, r, c)
    # Fewer expansions than pairs: some entry served more than one partner.
    assert sum(len(row[5]) for row in rows.values()) < len(cs)


def test_split_two_leaves_odd_steps_and_halves_the_terms():
    # Unfolded, f has one term per squarefree d | rad(en) times two per odd
    # balanced prime.  A split 2 adds no term pair: every step stays odd.
    folded = 0
    for q in range(1, 61):
        for r in range(1, 61):
            dec = decompose_pair(q, r)
            left, _, right, odd = f_terms(q, r)
            steps = [x * y for x in left for y in right]
            odd_balanced = [p for p in ref_primes(dec.ell) if p != 2]
            unfolded = 2 ** (len(ref_primes(dec.en)) + len(odd_balanced))
            two_splits = dec.en % 2 == 0
            assert odd == two_splits
            if two_splits:
                assert all(k % 2 for k in steps)
                assert 2 * len(steps) == unfolded
                folded += 1
            else:
                assert len(steps) == unfolded
    assert folded > 1000


def test_rows_keep_odd_signed_lists_shared_across_the_prime_two():
    # No reader expands the prime 2, so an even t shares the list of t / 2.
    table = spf_table(2000)
    for q in range(1, 2001):
        _, factors, _, rad, lists, _, top = _arith_row(q, factorize_with_table(q, table))
        assert len(lists) == 2 ** len(factors) and all(rad % t == 0 for t in lists)
        assert top == max(factors, default=1)
        for t, signed in lists.items():
            assert all(d % 2 for d in signed)
            if t % 2 == 0:
                assert signed is lists[t // 2]
            else:
                assert len(signed) == 2 ** sum(t % p == 0 for p in factors)


def test_rows_sort_odd_signed_lists_by_absolute_value():
    # The centred kernel stops at the first step past the outer hat.
    table = spf_table(2000)
    for q in range(1, 2001):
        lists = _arith_row(q, factorize_with_table(q, table))[4]
        for t, signed in lists.items():
            if t % 2:
                assert signed[0] == 1
                assert all(abs(d) < abs(e) for d, e in zip(signed, signed[1:]))


def test_f_terms_odd_is_two_splitting_the_pair():
    def v2(n):
        k = 0
        while n % 2 == 0:
            n //= 2
            k += 1
        return k

    for q in range(1, 65):
        for r in range(1, 65):
            assert f_terms(q, r)[3] == (v2(q) != v2(r))


def test_coprime_count_suite_names_the_first_differing_residue(monkeypatch):
    def perturbed(row_q, row_r):
        table = _f_table(row_q, row_r)
        if (row_q[0], row_r[0]) == (6, 4):
            table[9] += 1
            table[5] -= 1
        return table

    monkeypatch.setattr(verification, "_f_table", perturbed)
    result = check_coprime_counts(8)
    assert not result.ok
    assert result.detail == "formula != brute force at q=6, r=4, c=5"


endpoints = st.one_of(
    st.integers(-60, 60).map(F),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)


@settings(max_examples=300, deadline=None)
@given(endpoints, st.one_of(st.just(F(0)), st.integers(0, 40).map(F), endpoints.map(abs)),
       st.integers(1, 5000))
@example(F(-7), F(0), 6)  # x = y, an integer
@example(F(-7, 2), F(0), 6)  # x = y, no integer inside
@example(F(-30), F(60), 2 * 3 * 5 * 7)
def test_sifted_count_matches_direct_count(x, width, n):
    y = x + width
    count, main, error = sifted_interval_count(x, y, n)
    direct = sum(1 for c in range(math.ceil(x), math.floor(y) + 1) if math.gcd(c, n) == 1)
    assert count == direct
    expected_main = y - x
    for p in ref_primes(n):
        expected_main *= 1 - F(1, p)
    assert main == expected_main
    assert error == abs(count - expected_main) <= 2 ** len(ref_primes(n))
    assert type(count) is int and type(main) is F and type(error) is F


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PSI_FAMILIES + ["const:2/3", "pow:3,1"]),
    st.integers(1, 3), st.integers(2, 18), st.integers(2, 18),
)
@example("const:3/4", 2, 6, 12)  # psi > 1/2 everywhere
@example("const:1/4", 1, 4, 9)  # pairs with D = 1 exactly stay in
def test_main_term_sum_check_matches_pairwise_main_terms(spec, m, q1, q2):
    psi = ApproxFunction.parse(spec)
    ladder = sorted({q1, q2})
    rows = main_term_sum_check(psi, m, ladder)
    for row, q_max in zip(rows, ladder):
        direct = sum(
            ref_main_term(q, r, psi(q), psi(r), False) ** m
            for q in range(1, q_max + 1) for r in range(1, q_max + 1) if q != r
        )
        assert row.pair_sum == direct
        assert row.pair_sum == sum(
            overlap_report(q, r, psi).M ** m
            for q in range(1, q_max + 1) for r in range(1, q_max + 1) if q != r
        )
        assert row.rhs == sum(
            (F(psi(q)) * ref_phi(q) / q) ** m for q in range(1, q_max + 1)
        ) ** 2


# Weights 0, 1/4 and 3/4; const:1/100 has pairs with D < 1.
ZEROS_TABLE = ApproxFunction.from_table({q: F((0, 1, 3)[q % 3], 4) for q in range(1, 121)})
EXCESS_FAMILIES = [ApproxFunction.parse(spec) for spec in (
    "div3", "const:1/4", "const:3/4", "const:1/100")] + [ZEROS_TABLE]


def test_main_term_excess_is_m_th_powers_apart_and_zero_only_where_m_is_w_w():
    kept = Counter()  # per family, the pairs with M(q, r) = W_q W_r
    for psi in EXCESS_FAMILIES:
        parts = [None] + [_target_part(arith_row(q), psi(q), 0) for q in range(1, 121)]
        weights = [None] + [F(psi(q)) * totient(q) / q for q in range(1, 121)]
        for q, r in itertools.combinations(range(1, 121), 2):
            main, product = F(*_main_term_units(parts[q], parts[r])), weights[q] * weights[r]
            kept[psi.describe()] += main == product
            for m in (1, 2, 3):
                excess = _main_term_excess_units(m, parts[q], parts[r])
                if main == product:
                    assert excess == (0, 1)
                else:
                    assert excess != (0, 1) and F(*excess) == main**m - product**m
    # Both branches run: const:1/100 keeps no pair (its windows are narrow
    # or shut), const:3/4 every pair, and the other three some of each.
    everything = math.comb(120, 2)
    assert kept.pop("const:1/100") == 0 and kept.pop("const:3/4") == everything
    assert all(0 < count < everything for count in kept.values())


@pytest.mark.parametrize("psi, m", [
    (ApproxFunction.parse("div3"), 3), (ApproxFunction.parse("const:1/100"), 2), (ZEROS_TABLE, 1),
    (ApproxFunction.parse("pow:1/2,1"), 2),
], ids=["div3", "const:1/100", "table", "pow:1/2,1"])
def test_msum_matches_the_main_term_double_sum_at_every_step(psi, m):
    # S_Q**2 - sum of W_q**(2m) + 2 sum of E is read per step: steps of one
    # and of many q catch a weight or pair on the wrong side of a boundary.
    ladder = [2, 3, 4, 9, 16, 17, 30]
    main = {(q, r): overlap_report(q, r, psi).M ** m
            for q in range(1, 31) for r in range(1, 31) if q != r}
    rows = main_term_sum_check(psi, m, ladder[::-1])
    assert [row.Q for row in rows] == ladder
    for row in rows:
        assert row.pair_sum == sum(v for (q, r), v in main.items() if max(q, r) <= row.Q)


RAD_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from torusapprox.errors import IdentityError
from torusapprox.overlap import _arith_row, _f_table, _pair_overlap_units, _target_part
# A factorization of 6 with 2**0 in it: the pair (6, 6) then has ell = 3,
# not divisible by rad(ell) = 6 read off its balanced primes 2 and 3.
arith = _arith_row(6, {2: 0, 3: 1})
part = _target_part(arith, Fraction(1, 4), 0)
for read, row in ((_f_table, arith), (_pair_overlap_units, part)):
    try:
        read(row, row)
    except IdentityError as exc:
        print(exc)
    else:
        sys.exit(1)
"""


def test_pair_count_integrality_check_survives_optimize_flag():
    done = subprocess.run(
        [sys.executable, "-O", "-c", RAD_CHECK, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["rad(ell) = 6 does not divide ell = 3"] * 2


def worst_pairs(psi, limit):
    """Each ratio's first maximising pair r < q <= limit in (q, r) order, as
    ((bound ratio, (q, r)), (trivial ratio, (q, r))), by the Fraction API."""
    worst = [(F(0), None), (F(0), None)]
    for q in range(2, limit + 1):
        for r in range(1, q):
            report = overlap_report(q, r, psi)
            exact = report.exact_overlap
            if exact:
                ratios = exact / (report.addend1 + report.addend2), exact / report.trivial_rhs
                for i, ratio in enumerate(ratios):
                    if ratio > worst[i][0]:
                        worst[i] = ratio, (q, r)
    return tuple(worst)


def bound_family(spec):
    if spec == "alternating":  # closed-form pairs and merged pairs in one family
        return ApproxFunction.from_table({q: F(1 if q % 2 else 3, 4) for q in range(1, 31)})
    return ApproxFunction.parse(spec)


@pytest.mark.parametrize("spec", ["const:1/4", "pow:1/2,1", "const:3/4", "div3", "alternating"])
def test_bound_ratio_max_matches_fraction_api(monkeypatch, spec):
    psi = bound_family(spec)
    (worst_bound, bound_pair), (worst_trivial, trivial_pair) = worst_pairs(psi, 30)
    merged = Counter()
    merge = verification._merge_units

    def counted(sets, part_q, part_r):
        merged[part_q[0][0], part_r[0][0]] += 1
        return merge(sets, part_q, part_r)

    monkeypatch.setattr(verification, "_merge_units", counted)
    assert _bound_ratio_max(_arith_rows(30), (psi,)) == [(worst_bound, worst_trivial)]
    # Pairs with a weight above 1/2 go to the merge, and the merge confirms
    # each ratio's maximising pair.
    gated = Counter((q, r) for q in range(2, 31) for r in range(1, q)
                    if psi(q) > F(1, 2) or psi(r) > F(1, 2))
    assert merged == gated + Counter([bound_pair, trivial_pair])
    assert (spec in ("const:3/4", "alternating")) == bool(gated)


def test_bound_ratio_max_takes_each_family_apart():
    # Every family reads one set cache, keyed on the whole part: const:3/4
    # and the table share q and the denominator 4 at every odd q.
    families = tuple(map(bound_family, ["const:1/4", "const:3/4", "alternating"]))
    ariths = _arith_rows(30)
    assert _bound_ratio_max(ariths, families) == [
        _bound_ratio_max(ariths, (psi,))[0] for psi in families]


def test_overlap_bound_decomposes_each_pair_once(monkeypatch):
    # Both weights stay at most 1/2, so the only sets built are those of the
    # maximising pairs the merge confirms, each once per family.
    from torusapprox import overlap

    confirmed = set()
    for psi in (CONST4, ApproxFunction.power(F(1, 2), 1)):
        for _, pair in worst_pairs(psi, 30):
            confirmed.update((n, psi(n)) for n in pair)
    decomposed = Counter()
    decompose = verification._decompose
    built = Counter()
    build = overlap.build_approx_set

    def counted_decompose(row_q, row_r, *phi):
        decomposed[row_q[0], row_r[0]] += 1
        return decompose(row_q, row_r, *phi)

    def counted_build(q, psi, y):
        built[q, psi] += 1
        return build(q, psi, y)

    monkeypatch.setattr(verification, "_decompose", counted_decompose)
    monkeypatch.setattr(verification, "build_approx_set", counted_build)
    monkeypatch.setattr(overlap, "build_approx_set", counted_build)
    assert verification.check_overlap_bound(limit=30).ok
    assert decomposed == Counter((q, r) for q in range(2, 31) for r in range(1, q))  # 435
    assert built == Counter(confirmed)


def test_decompose_checks_its_identities_on_a_sieved_totient_table():
    # The suites read phi from a sieve that reads no row's factorization, so
    # a wrong entry at the pair's en = 36 fails as a wrong totient would.
    rows, table = _arith_rows(18), totient_range(18**2)
    assert _decompose(rows[12], rows[18], table.__getitem__) == decompose_pair(12, 18)
    table[36] += 1
    with pytest.raises(IdentityError, match="ell/em/en identities fail for q=12, r=18"):
        _decompose(rows[12], rows[18], table.__getitem__)


@pytest.mark.parametrize("suite, limit", [
    (verification.check_overlap_bound, 30),
    (verification.check_overlap_engine, 20),
])
def test_each_suite_builds_its_arithmetic_rows_once(monkeypatch, suite, limit):
    # One row per q, shared by every weight family and target the suite runs.
    from torusapprox import overlap

    built = Counter()
    arith = overlap._arith_row

    def counted(q, factors):
        built[q] += 1
        return arith(q, factors)

    monkeypatch.setattr(overlap, "_arith_row", counted)
    assert suite(limit=limit).ok
    assert built == Counter(range(1, limit + 1))


def scan_64_div3():
    return pairwise_overlap_sum(ExperimentConfig(
        Q=64, psi=ApproxFunction.divergent_m3(), target=TargetSequence.zero(3), m=3))


@pytest.mark.parametrize("run, pairs", [
    # The scan takes every pair q < r (div3 stays at most 1/2) on q's row.
    (scan_64_div3, [(q, r) for r in range(2, 65) for q in range(1, r)]),
    # Twelve families and targets over one row list, each pair on the larger's row.
    (lambda: verification.check_overlap_engine(limit=20).ok,
     [(q, r) for q in range(2, 21) for r in range(1, q)]),
])
def test_each_expansion_is_built_once(monkeypatch, run, pairs):
    from torusapprox import overlap

    built = Counter()
    expansion = overlap._expansion

    def counted(row_q, g, rad_g, unequal):
        built[row_q[0], g, unequal] += 1
        return expansion(row_q, g, rad_g, unequal)

    monkeypatch.setattr(overlap, "_expansion", counted)
    assert run()
    keys = set()
    for q, r in pairs:
        g = math.gcd(q, r)
        if g > 1:
            unequal = math.prod(p for p in ref_primes(g) if valuation(q, p) != valuation(r, p))
            keys.add((q, g, unequal))
    assert built == Counter(keys)
