"""Base-r arithmetic on bucket counts: major/minor split and prefix sums.

A positive integer n has a unique expansion n = sum_i beta_i * r**alpha_i
with 0 < beta_i < r and strictly increasing exponents alpha_i (the nonzero
base-r digits of n).  The smallest term is the "minor" part, the rest is
the "major" part, and dropping the kappa smallest terms for kappa = 1..j
yields the prefix-sum set.  These drive which summaries a coreset cache
keeps and evicts.
"""

from __future__ import annotations


def _check_args(n: int, r: int) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if r < 2:
        raise ValueError(f"radix r must be >= 2, got {r}")


def decompose(n: int, r: int) -> list[tuple[int, int]]:
    """Nonzero base-r digits of n as (digit, exponent) pairs, exponent ascending."""
    _check_args(n, r)
    terms = []
    exp = 0
    while n > 0:
        n, digit = divmod(n, r)
        if digit:
            terms.append((digit, exp))
        exp += 1
    return terms


def lowest(n: int, r: int) -> tuple[int, int]:
    """Lowest nonzero base-r digit of n and its exponent, (beta_0, alpha_0)."""
    _check_args(n, r)
    exp = 0
    while n % r == 0:
        n //= r
        exp += 1
    return n % r, exp


def minor(n: int, r: int) -> int:
    """Smallest term beta_0 * r**alpha_0 of the base-r expansion of n."""
    digit, exp = lowest(n, r)
    return digit * r**exp


def major(n: int, r: int) -> int:
    """n minus its smallest base-r term; zero iff n is a single term."""
    return n - minor(n, r)


def prefixsum(n: int, r: int) -> list[int]:
    """Values obtained by dropping the 1..j smallest nonzero base-r digits of n.

    Returns a sorted ascending list (empty when n is a single term); sorted
    order keeps cache-eviction iteration deterministic.
    """
    _check_args(n, r)
    out = []
    place = r
    while n:
        n, digit = divmod(n, r)
        if digit and n:
            # n * place is the original n with this digit and all below dropped
            out.append(n * place)
        place *= r
    out.reverse()
    return out


def partsum(n: int) -> list[int]:
    """Binary special case: prefixsum(n, 2)."""
    return prefixsum(n, 2)
