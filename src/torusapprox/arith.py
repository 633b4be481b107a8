"""Exact integer and rational number theory.

Factorization (direct and sieve-backed), Euler's totient, and runs of
consecutive primes chosen against a density target, all computed with
unbounded integers and fractions.Fraction.  Everything here is pure and
safe to call from worker processes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetError

# Witness set proving primality for every n < 3.3 * 10**24, far past 64 bits.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIME_TEST_LIMIT = 1 << 64
# Resource caps, read at call time: the largest sieve `spf_table` builds
# and the longest prime run `primes_for_epsilon` takes.
_SPF_CAP = 10_000_000
_PRIME_RUN_CAP = 20_000


def is_prime(n: int) -> bool:
    """Deterministic primality test for integers below 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= PRIME_TEST_LIMIT:
        raise ValueError("primality testing is limited to 64-bit integers")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    if n < 2:
        return 2
    c = n + 1
    if c % 2 == 0:
        if c == 2:
            return 2
        c += 1
    while not is_prime(c):
        c += 2
    return c


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs with primes increasing.

    factorize(1) is the empty list; n = 0 and negatives are rejected, as are
    integers of 64 bits and more (trial division would not terminate in
    reasonable time there, and nothing in this package needs it).
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n >= PRIME_TEST_LIMIT:
        raise ValueError("factorization is limited to 64-bit integers")
    out: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                e += 1
                m //= p
            out.append((p, e))
    d = 5
    while d * d <= m:
        for q in (d, d + 2):  # 6k - 1, 6k + 1
            if m % q == 0:
                e = 0
                while m % q == 0:
                    e += 1
                    m //= q
                out.append((q, e))
        d += 6
    if m > 1:
        out.append((m, 1))
    return out


def spf_table(limit: int) -> list[int]:
    """Smallest-prime-factor table for 1..limit.

    table[n] is the least prime dividing n; table[1] = 0 marks the unit.
    Refuses limits above the sieve cap rather than exhausting memory.
    """
    if limit < 1:
        raise ValueError("spf_table requires limit >= 1")
    if limit > _SPF_CAP:
        raise BudgetError(f"spf table of size {limit} exceeds the cap {_SPF_CAP}")
    table = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if table[p] == 0:
            for m in range(p, limit + 1, p):
                if table[m] == 0:
                    table[m] = p
    return table


def factorize_with_table(n: int, table: list[int]) -> list[tuple[int, int]]:
    """Factorization by repeated smallest-prime-factor lookups."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n >= len(table):
        raise ValueError("integer outside the sieve range")
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = table[m]
        e = 0
        while m % p == 0:
            e += 1
            m //= p
        out.append((p, e))
    return out


def totient(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def totient_range(limit: int) -> list[int]:
    """Totient values for 0..limit (index 0 unused, set to 0)."""
    if limit < 1:
        raise ValueError("totient_range requires limit >= 1")
    phi = list(range(limit + 1))
    phi[0] = 0
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def primes_for_epsilon(above: int, eps) -> tuple[list[int], Fraction]:
    """Shortest run of consecutive primes past `above` whose totient density
    drops strictly below eps.

    Returns (primes, product) where product = prod (1 - 1/p) < eps and the
    run one prime shorter still has product >= eps.  The first prime is the
    smallest prime exceeding `above`.  Refuses runs longer than the prime
    run cap, reporting the partial product reached.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    primes: list[int] = []
    product = Fraction(1)
    candidate = next_prime(above)
    while not product < eps:
        if len(primes) >= _PRIME_RUN_CAP:
            # The exact partial product can run to thousands of digits, so
            # the message carries a decimal rendering.
            raise BudgetError(
                f"prime run cap {_PRIME_RUN_CAP} reached above {above}; "
                f"partial product ~ {float(product):.6g} (target {float(eps):.6g})"
            )
        primes.append(candidate)
        product *= Fraction(candidate - 1, candidate)
        if product < eps:
            break
        candidate = next_prime(candidate)
    return primes, product
