import math
import random
from fractions import Fraction

import pytest

import torusapprox.arith as arith
from torusapprox.arith import (
    factorize,
    factorize_with_table,
    is_prime,
    next_prime,
    primes_for_epsilon,
    spf_table,
    totient,
    totient_range,
)
from torusapprox.errors import BudgetError


def oracle_factor(n):
    """Independent factorization oracle: repeated smallest-divisor search."""
    out = []
    d = 2
    while n > 1:
        while d * d <= n and n % d != 0:
            d += 1
        p = d if d * d <= n else n
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        out.append((p, e))
    return out


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(2310) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 10**6)
        assert factorize(n) == oracle_factor(n)


def test_factorize_product_reconstructs():
    for n in range(1, 10**4 + 1):
        value = 1
        for p, e in factorize(n):
            value *= p**e
        assert value == n


def test_spf_table_agrees_with_factorize():
    table = spf_table(500)
    assert table[1] == 0  # unit marker
    assert table[7] == 7
    assert table[9] == 3
    for n in range(1, 501):
        assert factorize_with_table(n, table) == factorize(n)


def test_spf_table_budget_refusal(monkeypatch):
    with pytest.raises(BudgetError):
        spf_table(10**9)
    monkeypatch.setattr(arith, "_SPF_CAP", 99)
    assert len(spf_table(99)) == 100
    with pytest.raises(BudgetError, match="cap 99"):
        spf_table(100)


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4
    for p in (2, 3, 5, 101, 9973):
        assert totient(p) == p - 1


def test_totient_brute_force_exhaustive():
    # straight gcd-count oracle over the full range
    gcd = math.gcd
    phi = totient_range(10**4)
    for n in range(1, 10**4 + 1):
        assert phi[n] == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_totient_range_matches_totient():
    phi = totient_range(2000)
    for n in range(1, 2001):
        assert phi[n] == totient(n)


def test_primes_for_epsilon_examples():
    assert primes_for_epsilon(1, Fraction(1, 2)) == ([2, 3], Fraction(1, 3))
    assert primes_for_epsilon(2, Fraction(7, 10)) == ([3], Fraction(2, 3))
    assert primes_for_epsilon(1, 1) == ([2], Fraction(1, 2))


def test_primes_for_epsilon_minimality():
    # the density only decays like 1/log, so keep eps moderate: runs stay
    # in the hundreds of primes
    rng = random.Random(2)
    for _ in range(40):
        above = rng.randint(1, 12)
        eps = Fraction(rng.randint(4, 12), 12)
        primes, product = primes_for_epsilon(above, eps)
        assert product < eps
        assert primes[0] == next_prime(above)
        for earlier, later in zip(primes, primes[1:]):
            assert later == next_prime(earlier)
        shorter = Fraction(1)
        for p in primes[:-1]:
            shorter *= Fraction(p - 1, p)
        assert shorter >= eps


def test_primes_for_epsilon_cap(monkeypatch):
    monkeypatch.setattr(arith, "_PRIME_RUN_CAP", 5)
    with pytest.raises(BudgetError, match="prime run cap 5 .*partial product"):
        primes_for_epsilon(10, Fraction(1, 10**6))


def test_is_prime_against_sieve():
    table = spf_table(2000)
    for n in range(2, 2001):
        assert is_prime(n) == (table[n] == n)
    assert not is_prime(1) and not is_prime(0)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
