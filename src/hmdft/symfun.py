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

A function on Z_{q^n-1} is q-symmetric when it is invariant under every
permutation of the base-q digits of its argument; phi_rho realizes one digit
permutation as a permutation of Z_{q^n-1}.  The maps phi_rho compose like
the permutations rho, so invariance under two generators of S_n is
invariance under all n! of them; and since each phi_rho is a bijection,
comparing values on the support alone is enough.  is_q_symmetric checks
exactly that, for every n.

Aside, not implemented here: read over the integers instead of a field, the
s-fold convolution power of these indicators counts 0/1 matrices with
prescribed row and column sums; this package only ever needs the values
reduced into the field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cyclic import CyclicFn, SupportSet, conv_power, kronecker
from .errors import (
    BadPermutationError,
    BadSubfieldError,
    CtxMismatchError,
    ExcludedCaseError,
    SizeCapError,
    WeightRangeError,
)
from .gf import FieldCtx, FieldElement

# guard against accidental huge moduli; the harness applies its own cap
MODULUS_GUARD = 1 << 22


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
    if not 0 <= w <= n:
        raise WeightRangeError(f"w={w} outside [0, {n}]")
    N = q ** n - 1
    if N > MODULUS_GUARD:
        raise SizeCapError(f"q**n - 1 = {N} exceeds module guard {MODULUS_GUARD}")
    if q == 2 and w == n:
        # the full-weight sum 2**n - 1 wraps to 0, which has weight 0
        return OmegaSet(q, n, w, SupportSet(N, ()))
    members = tuple(sum(q ** i for i in comb)
                    for comb in itertools.combinations(range(n), w))
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


def delta_mask(q: int, n: int, w: int, c: FieldElement, ctx: FieldCtx) -> CyclicFn:
    """The coefficient-prescription mask for (w, c), exact over ctx.

    Defined as delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1)); its
    values provably lie in the F_q-subfield of ctx.  The pair (q, w) = (2, n)
    is excluded because Omega(n) is empty in characteristic 2.
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
    N = q ** n - 1
    sign = 1 if w % 2 == 0 else ctx.neg_code(1)
    base = [0] * N
    for t in omega(q, n, w).members:
        base[t] = sign
    base[0] = ctx.sub_codes(base[0], c.code)  # 0 is never in Omega(w), w >= 1
    powered = conv_power(CyclicFn(ctx, base), q - 1)
    return kronecker(ctx, N) - powered


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
