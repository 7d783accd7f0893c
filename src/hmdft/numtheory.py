"""Exact number-theoretic helpers on plain integers.

One routine, `factorize`, finds prime factors, by trial division; every other
factor helper reads its answer from the pairs it yields.  They come lazily and
in ascending order, so `is_prime` and `prime_power` stop at the first pair and
never factor the cofactor of a small prime.  `prime_power` keeps its answers:
a sweep asks for the same q at every row, and factors each q once.  One codec,
`digits`, expands every field code, point of Z_{q^n-1}, exponent and binomial
index into base-b digits.  No floating point anywhere, since these results
feed exact divisibility verdicts.
"""

from __future__ import annotations

from functools import lru_cache


def factorize(n: int):
    """Yield (p, e) for each prime power p**e exactly dividing n >= 1, p ascending."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            yield f, e
        f += 1 if f == 2 else 2
    if n > 1:
        yield n, 1


def digits(k: int, base: int, width: int | None = None) -> list[int]:
    """The base-`base` digits of k >= 0, little-endian, base >= 2.

    Exactly the low `width` digits when width is given, else up to the last
    nonzero digit (none for k = 0).
    """
    if k < 0 or base < 2:  # base 1 would never reach the last digit
        raise ValueError(f"digits need k >= 0 and base >= 2, not k={k}, base={base}")
    out = []
    while len(out) < width if width is not None else k:
        k, r = divmod(k, base)
        out.append(r)
    return out


def top_binomials(q: int, p: int) -> list[int]:
    """C(q - 1, k) mod p for every k < q, q a power of the prime p.

    Every base-p digit of q - 1 is p - 1, and C(p - 1, d) = (-1)**d mod p, so
    Lucas' theorem gives C(q - 1, k) = (-1)**(base-p digit sum of k) mod p,
    with no big integer.
    """
    return [p - 1 if sum(digits(k, p)) % 2 else 1 for k in range(q)]


def is_prime(n: int) -> bool:
    """Deterministic primality: n >= 2 is its own least prime factor."""
    return n >= 2 and next(factorize(n))[0] == n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    return [p for p, _ in factorize(n)]


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for k in range(e + 1) for d in out]
    return sorted(out)


@lru_cache(maxsize=256)
def prime_power(n: int) -> tuple[int, int]:
    """Decompose n as p**e with p prime, or raise ValueError.

    Memoised: a q comes back once per (q, n) group.  A refusal is not kept.
    """
    if n >= 2:
        p, e = next(factorize(n))
        if p ** e == n:
            return p, e
    raise ValueError(f"{n} is not a prime power")
