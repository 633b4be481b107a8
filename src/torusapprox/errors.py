"""Shared exception types."""


class BudgetError(RuntimeError):
    """A resource cap (sieve size, primes, divisors, pieces, exact-mode Q) was hit.

    Raised instead of silently degrading to floating point or to partial
    results.  The CLI maps this to exit status 3.
    """


class UsageError(ValueError):
    """Invalid arguments at the CLI boundary.  Maps to exit status 2."""


class IdentityError(ArithmeticError):
    """An exact identity that must hold by proof failed to hold.

    Raised by the explicit checks that guard the closed forms, so they also
    run under `python -O`.  The CLI maps this to exit status 1.
    """
