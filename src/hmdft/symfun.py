"""Digit-weight sets, their indicator functions and q-digit utilities.

Omega(w) collects the elements of Z_{q^n-1} whose canonical representative
has base-q digits in {0, 1} with exactly w ones; delta_w is its field-valued
indicator.  These indicators are what the transform machinery turns into
coefficient information: the transform of delta_w at k equals the w-th
characteristic elementary symmetric value at zeta**k.

delta_mask(w, c) builds the coefficient-prescription mask
    delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1))
whose least period exceeding the cyclotomic threshold certifies a monic
irreducible of degree n whose coefficient of x**(n-w) equals c.

delta_mask never powers by convolution in the field.  With s = (-1)**w and
b = -c, the binomial theorem gives
    delta_mask = delta_0 - sum_k C(q-1, k) * s**k * b**(q-1-k) * A_k,
where A_k is the k-fold convolution power of the 0/1 indicator of Omega(w)
read over the integers: A_k(i) counts the k-tuples of Omega(w) summing to i,
that is, for i != 0, the 0/1 matrices with k rows of weight w and column
sums the digits of i (for k <= q-1 adding weight-w 0/1 digit vectors never
carries).  The counts do not depend on c, so they are built once per
(q, n, w), reduced mod p, and every c combines the same counts through a
p-entry value table per k: a residue r mod p is the prime-subfield code r in
every context.

A function on Z_{q^n-1} is q-symmetric when it is invariant under every
permutation of the base-q digits of its argument; phi_rho realizes one digit
permutation as a permutation of Z_{q^n-1}.  The maps phi_rho compose like
the permutations rho, so invariance under two generators of S_n is
invariance under all n! of them; and since each phi_rho is a bijection,
comparing values on the support alone is enough.  is_q_symmetric checks
exactly that, for every n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .cyclic import CyclicFn, SupportSet
from .errors import (
    BadPermutationError,
    BadSubfieldError,
    CtxMismatchError,
    ExcludedCaseError,
    WeightRangeError,
)
from .gf import FieldCtx, FieldElement, check_size
from .numtheory import prime_power


@dataclass(frozen=True)
class OmegaSet:
    """Parameters (q, n, w) with the members of Omega(w) as a SupportSet."""

    q: int
    n: int
    w: int
    members: SupportSet


@dataclass(frozen=True)
class DigitVector:
    """Canonical representative k with its base-q digits, little-endian."""

    k: int
    digits: tuple[int, ...]

    @property
    def digit_sum(self) -> int:
        return sum(self.digits)


def omega(q: int, n: int, w: int) -> OmegaSet:
    """All k in Z_{q^n-1} with 0/1 digits of weight w; empty for (q, w) = (2, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= w <= n:
        raise WeightRangeError(f"w={w} outside [0, {n}]")
    N = check_size(q, n)
    if q == 2 and w == n:
        # the full-weight sum 2**n - 1 wraps to 0, which has weight 0
        return OmegaSet(q, n, w, SupportSet(N, ()))
    powers = [q ** i for i in range(n)]
    members = tuple(map(sum, itertools.combinations(powers, w)))
    return OmegaSet(q, n, w, SupportSet(N, members))


def _check_value_ctx(q: int, ctx: FieldCtx):
    # ctx must share the characteristic of q and contain F_q
    qq = q
    while qq > 1 and qq % ctx.p == 0:
        qq //= ctx.p
    if q < 2 or qq != 1:
        raise CtxMismatchError(f"q={q} is not a power of the context characteristic {ctx.p}")
    # F_q embeds in F_{p^m} iff (q - 1) | (p^m - 1), equivalently log_p q | m
    if (ctx.order - 1) % (q - 1):
        raise CtxMismatchError(f"context of order {ctx.order} has no F_{q} subfield")


def delta(q: int, n: int, w: int, ctx: FieldCtx) -> CyclicFn:
    """Indicator of Omega(w) on Z_{q^n-1}, with values {0, 1} in ctx."""
    _check_value_ctx(q, ctx)
    om = omega(q, n, w)
    return CyclicFn.from_support(ctx, q ** n - 1, om.members.members)


@lru_cache(maxsize=1)
def _weight_counts(q: int, n: int, w: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The counts A_0, ..., A_{q-1} mod p as sparse (index, count) pairs.

    A_k = A_{k-1} (*) 1_Omega(w), accumulated in plain ints and reduced mod p
    once per level; pairs whose count vanishes mod p are dropped.  One entry
    is cached: a sweep asks for every c of one (q, n, w) in a row.
    """
    p = prime_power(q)[0]
    N = q ** n - 1
    members = omega(q, n, w).members.members
    level = ((0, 1),)
    levels = [level]
    for _ in range(q - 1):
        acc = {}
        get = acc.get
        for j, a in level:
            for t in members:
                i = j + t
                if i >= N:
                    i -= N
                acc[i] = get(i, 0) + a
        level = tuple((i, a % p) for i, a in acc.items() if a % p)
        levels.append(level)
    return tuple(levels)


def delta_mask(q: int, n: int, w: int, c: FieldElement, ctx: FieldCtx) -> CyclicFn:
    """The coefficient-prescription mask for (w, c), exact over ctx.

    Defined as delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1)); its
    values provably lie in the F_q-subfield of ctx.  Built as delta_0 minus
    the binomial expansion over the shared counts A_k (module docstring):
    term k scatters C(q-1, k) * s**k * (-c)**(q-1-k) * A_k through a table of
    its p values.  The pair (q, w) = (2, n) is excluded because Omega(n) is
    empty in characteristic 2.
    """
    if not 1 <= w <= n:
        raise WeightRangeError(f"w={w} outside [1, {n}]")
    if q == 2 and w == n:
        raise ExcludedCaseError("(q, w) = (2, n) has an empty weight set")
    _check_value_ctx(q, ctx)
    if c.ctx is not ctx:
        raise CtxMismatchError("c must live in the supplied value context")
    if ctx.pow_code(c.code, q) != c.code:
        raise BadSubfieldError("c must lie in the F_q subfield of ctx")
    levels = _weight_counts(q, n, w)
    p, m = ctx.p, q - 1
    add, mul, power, neg = ctx.add_codes, ctx.mul_codes, ctx.pow_code, ctx.neg_code
    sign = 1 if w % 2 == 0 else neg(1)
    b = neg(c.code)
    out = [0] * (q ** n - 1)
    out[0] = 1
    for k, level in enumerate(levels):
        coef = neg(mul(comb(m, k) % p, mul(power(sign, k), power(b, m - k))))
        if not coef:
            continue
        value = [mul(coef, r) for r in range(p)]
        for i, a in level:  # only slot 0 can recur: A_k(i) != 0 forces digitsum(i) = k*w
            out[i] = add(out[i], value[a]) if out[i] else value[a]
    return CyclicFn(ctx, out)


def digits(k: int, q: int, n: int) -> DigitVector:
    """Base-q digits of the canonical representative of k in Z_{q^n-1}."""
    N = q ** n - 1
    k = k % N
    out = []
    v = k
    for _ in range(n):
        v, r = divmod(v, q)
        out.append(r)
    return DigitVector(k, tuple(out))


def digit_sum(k: int, q: int) -> int:
    """Sum of the base-q digits of a non-negative integer."""
    if k < 0:
        raise ValueError("digit sums are defined for non-negative integers")
    s = 0
    while k:
        k, r = divmod(k, q)
        s += r
    return s


def _check_perm(rho, n: int) -> tuple[int, ...]:
    rho = tuple(rho)
    if sorted(rho) != list(range(n)):
        raise BadPermutationError(f"not a permutation of [0, {n - 1}]")
    return rho


def phi_rho(rho, k: int, q: int, n: int) -> int:
    """Permute the base-q digits of k by rho: digit i of the image is digit rho(i)."""
    rho = _check_perm(rho, n)
    d = digits(k, q, n).digits
    v = 0
    for i in reversed(range(n)):
        v = v * q + d[rho[i]]
    return v


def is_q_symmetric(f: CyclicFn, q: int, n: int) -> bool:
    """Whether f is invariant under every digit permutation of its argument.

    Exact for every n, from two permutations only: phi_rho is an action of
    S_n on Z_{q^n-1}, and the transposition (0 1) and the n-cycle generate
    S_n, so invariance under these two gives invariance under all n!.  The
    n-cycle is multiplication by q; (0 1) moves s by (d0 - d1)(q - 1), where
    d0 and d1 are its two lowest digits.  Checking f(phi(s)) = f(s) on the
    support alone suffices: then phi maps the support into itself, hence
    onto it, since phi is a bijection.
    """
    N = q ** n - 1
    if f.N != N:
        raise ValueError(f"function modulus {f.N} is not q**n - 1 = {N}")
    if n == 1:
        return True
    codes = f.codes
    for s, v in enumerate(codes):
        if not v:
            continue
        d0, d1 = s % q, s // q % q
        if codes[s * q % N] != v or codes[s + (d0 - d1) * (q - 1)] != v:
            return False
    return True
