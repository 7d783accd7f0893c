"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results straight from the defining formulas,
sharing no algorithmic shortcut with the library paths it checks.
"""

import itertools

import numpy as np

from hmdft import CyclicFn, FieldElement, PolyFq
from hmdft.cyclic import conv_power, kronecker
from hmdft.symfun import omega


def brute_dft(f, zeta):
    """The defining double sum, term by term, via element arithmetic."""
    ctx, N = f.ctx, f.N
    out = []
    for i in range(N):
        acc = ctx.zero()
        for j in range(N):
            acc = acc + f(j) * zeta ** (i * j)
        out.append(acc)
    return CyclicFn.from_elements(out)


def brute_idft(f, zeta):
    ctx, N = f.ctx, f.N
    zinv = zeta ** (-1)
    ninv = FieldElement(ctx, pow(N % ctx.p, ctx.p - 2, ctx.p))
    out = []
    for i in range(N):
        acc = ctx.zero()
        for j in range(N):
            acc = acc + f(j) * zinv ** (i * j)
        out.append(ninv * acc)
    return CyclicFn.from_elements(out)


def brute_convolve(f, g):
    """Defining double sum over all index pairs."""
    ctx, N = f.ctx, f.N
    out = [ctx.zero() for _ in range(N)]
    for j in range(N):
        for k in range(N):
            out[(j + k) % N] = out[(j + k) % N] + f(j) * g(k)
    return CyclicFn.from_elements(out)


def brute_least_period(vals):
    """Scan every candidate r in [1, N], not only divisors."""
    vals = list(vals)
    N = len(vals)
    for r in range(1, N + 1):
        if all(vals[i] == vals[(i + r) % N] for i in range(N)):
            return r
    raise AssertionError("r = N always qualifies")


def digitwise_add(p, a, b):
    """Sum of two field codes digit by digit mod p, the defining rule of addition."""
    s, shift = 0, 1
    while a or b:
        s += ((a % p) + (b % p)) % p * shift
        a //= p
        b //= p
        shift *= p
    return s


def digitwise_neg(p, a):
    """Negation of a field code, digit by digit mod p."""
    s, shift = 0, 1
    while a:
        d = a % p
        if d:
            s += (p - d) * shift
        a //= p
        shift *= p
    return s


def lucas_comb(n, k, p):
    """Binomial coefficient mod p via the digit-product rule."""
    result = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        num = den = 1
        for i in range(kd):
            num *= nd - i
            den *= i + 1
        result = result * ((num // den) % p) % p
    return result


def brute_is_irreducible(h):
    """Exhaustive trial division by every lower-degree monic polynomial."""
    n = h.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    ctx = h.ctx
    q = ctx.order
    hm = h.monic()
    for d in range(1, n // 2 + 1):
        for codes in itertools.product(range(q), repeat=d):
            cand = PolyFq(ctx, list(codes) + [1])
            if (hm % cand).is_zero():
                return False
    return True


def brute_min_poly(xi, q, n, emb):
    """Smallest-degree monic annihilator of xi, by exhaustive enumeration.

    Enumerates monic polynomials over the standalone F_q in ascending degree
    and lexicographic coefficient order; feasible for q**d small.
    """
    small = emb.small
    for d in range(1, n + 1):
        for codes in itertools.product(range(q), repeat=d):
            cand = PolyFq(small, list(codes) + [1])
            if emb.lift_poly(cand)(xi).code == 0:
                return cand
    raise AssertionError("char poly of degree n always annihilates")


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_poly_div_exact(a, b):
    """Exact division of integer polynomial a by b (little-endian lists)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i]
        assert c % b[-1] == 0
        f = c // b[-1]
        q[i - len(b) + 1] = f
        for j, y in enumerate(b):
            a[i - len(b) + 1 + j] -= f * y
    assert all(c == 0 for c in a)
    return q


def cyclotomic_poly_recursive(n, _cache={}):
    """Coefficients of the n-th cyclotomic polynomial via recursive division.

    Independent of the Moebius-product route: divides x**n - 1 by the product
    of all lower cyclotomic polynomials at divisors of n.
    """
    if n in _cache:
        return _cache[n]
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = int_poly_mul(den, cyclotomic_poly_recursive(d))
    result = int_poly_div_exact(num, den)
    _cache[n] = result
    return result


def eval_int_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exhaustive_is_q_symmetric(f, q, n):
    """Invariance under each of the n! digit permutations, one at a time.

    Every support point's digits are permuted directly, and its image read
    back in base q; comparing values on the support suffices because every
    digit permutation is a bijection.
    """
    N = q ** n - 1
    assert f.N == N
    codes = np.array(f.codes, dtype=np.int64)
    supp = np.nonzero(codes)[0]
    digs = (supp[:, None] // q ** np.arange(n)) % q
    qpow = q ** np.arange(n)
    for rho in itertools.permutations(range(n)):
        images = digs[:, list(rho)] @ qpow
        if not np.array_equal(codes[images], codes[supp]):
            return False
    return True


def convolution_delta_mask(q, n, w, c, ctx):
    """The mask delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1)) as defined.

    Powers the base function by convolution in the field, once per c, and
    subtracts it from the Kronecker delta; shares nothing with the count
    route of delta_mask.
    """
    N = q ** n - 1
    sign = 1 if w % 2 == 0 else ctx.neg_code(1)
    base = [0] * N
    for t in omega(q, n, w).members:
        base[t] = sign
    base[0] = ctx.sub_codes(base[0], c.code)  # 0 is never in Omega(w), w >= 1
    powered = conv_power(CyclicFn(ctx, base), q - 1)
    return kronecker(ctx, N) - powered
