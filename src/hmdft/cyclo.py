"""Cyclotomic values and the period threshold (q**n - 1) / Phi_n(q).

Phi_n(q) is evaluated exactly through the Moebius product
prod_{d|n} (q**(n/d) - 1)**mu(d) over the squarefree d | n, built from the
prime factors of n, accumulating numerator and denominator separately and
dividing exactly at the end.  Python integers are unbounded, so the
exact-arithmetic requirement is met with no overflow mode at all.

The threshold (q**n - 1) / Phi_n(q) is what gates every verdict downstream:
a least period that fails to divide it certifies a degree-n element.  Both
classical identities
    Phi_n(q) = gcd{(q**n - 1)/(q**d - 1) : d | n, d < n}
    (q**n - 1)/Phi_n(q) = lcm{q**d - 1 : d | n, d < n}
are re-derived as a self-check at every call; by the lcm form q**d - 1
divides the threshold for every proper d | n, that is, Phi_n(q) divides
(q**n - 1)/(q**d - 1).  `threshold` is not memoised: a sweep asks once per
(q, n), and a call costs microseconds.
"""

from __future__ import annotations

import math

from .gf import check_n, check_q
from .numtheory import divisors, prime_factors


def cyclotomic_value(n: int, q: int) -> int:
    """Phi_n(q) as an exact integer (n >= 1, q >= 2)."""
    check_n(n, 1)
    check_q(q)
    num = den = 1
    # mu(d) is nonzero on the squarefree d | n alone: products of distinct primes
    signed = [(1, 1)]
    for p in prime_factors(n):
        signed += [(d * p, -mu) for d, mu in signed]
    for d, mu in signed:
        if mu == 1:
            num *= q ** (n // d) - 1
        else:
            den *= q ** (n // d) - 1
    if num % den:
        raise AssertionError("Moebius product failed to divide exactly")
    return num // den


def threshold(n: int, q: int) -> int:
    """(q**n - 1) / Phi_n(q) for n >= 2, cross-checked against gcd/lcm forms."""
    check_n(n, 2)
    phi = cyclotomic_value(n, q)
    total = q ** n - 1
    if total % phi:
        raise AssertionError("Phi_n(q) does not divide q**n - 1")
    t = total // phi
    proper = [d for d in divisors(n) if d < n]
    if t != math.lcm(*(q ** d - 1 for d in proper)):
        raise AssertionError("threshold disagrees with the lcm identity")
    if phi != math.gcd(*(total // (q ** d - 1) for d in proper)):
        raise AssertionError("Phi_n(q) disagrees with the gcd identity")
    return t
