"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results straight from the defining formulas,
sharing no algorithmic shortcut with the library paths it checks.
"""

import itertools
import math

import numpy as np

from hmdft import CyclicFn, FieldElement, PolyFq, char_poly, element_degree, make_field, \
    primitive_element, subfield_embedding
from hmdft.cyclic import conv_power, kronecker
from hmdft.errors import NotPrimePowerError
from hmdft.gf import FIELD_ORDER_CAP, MODULUS_GUARD
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


def pointwise_dft(f, zeta):
    """The transform summed at every point over f's support, one add per term.

    This is `cyclic.dft` before it used the conjugacy rule.
    """
    ctx, N = f.ctx, f.N
    exp, log, add = ctx.exp, ctx.log, ctx.add_codes
    M = ctx.order - 1
    # term j at point i is f(j) * zeta**(i*j) = exp[(log f(j) + k*i*j) mod M]
    k = log[zeta.code]
    supp = [(log[c], k * j % M) for j, c in enumerate(f.codes) if c]
    out = [0] * N
    for i in range(N):
        s = 0
        for lc, kj in supp:
            s = add(s, exp[(lc + kj * i) % M])
        out[i] = s
    return CyclicFn(ctx, out)


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


def fits_oracle(self, q, n):
    """`SweepConfig.fits` before `gf.check_size`; `self` is the SweepConfig."""
    limit = min(self.size_cap, MODULUS_GUARD)
    if n > limit.bit_length() or q ** n - 1 > limit:
        return False
    return not self.with_witness or q ** n <= FIELD_ORDER_CAP


def parse_ints_oracle(text):
    """`cli._parse_ints` as a list comprehension, before it used map/filter."""
    return [int(x) for x in text.split(",") if x.strip() != ""]


def check_grid_oracle(cfg):
    """`cli._check_grid` as one fits/weights/rows test per (q, n) of the range.

    A w is a row at n unless w = n with c pinned to 0 (the sweep skips it as
    a norm of zero).
    """
    lo, hi = cfg.n_range
    if not cfg.q_list:
        raise ValueError("--q names no field size")
    if lo > hi:
        raise ValueError(f"--n range {lo}:{hi} is empty")
    if not any(cfg.weights(n) for n in range(lo, hi + 1)):
        raise ValueError(f"no w fits any n in {lo}:{hi}")

    def has_row(n):
        return any(w != n or cfg.pinned_c != 0 for w in cfg.weights(n))

    if not any(has_row(n) for n in range(lo, hi + 1)):
        raise ValueError(f"the only rows in {lo}:{hi} have w = n and c = 0, "
                         f"and no norm is 0")
    if not any(cfg.fits(q, n) and has_row(n)
               for q in cfg.q_list for n in range(lo, hi + 1)):
        raise ValueError(f"every (q, n) in the grid is over the size cap "
                         f"{cfg.size_cap} or a hard limit")


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


def ascending_scan_period(vals):
    """Least period by scanning the divisors of N in ascending order.

    This is ``cyclic.least_period_of_sequence`` before the prime descent;
    the divisors come from ``divisors_loop``.
    """
    vals = list(vals)
    N = len(vals)
    if not N:
        raise ValueError("modulus N must be at least 1")
    for d in divisors_loop(N):
        if d == N:
            return N
        ok = True
        for i in range(N - d):
            if vals[i] != vals[i + d]:
                ok = False
                break
        if ok:
            return d
    return N


# The four trial-division loops of ``numtheory`` before ``factorize``, and
# ``prime_power`` on top of them; the oracles for the helpers that replace them.


def is_prime_loop(n):
    """Deterministic primality by trial division."""
    if n < 2:
        return False
    for f in (2, 3):
        if n % f == 0:
            return n == f
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def prime_factors_loop(n):
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def divisors_loop(n):
    """All positive divisors of n >= 1, ascending."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f * f != n:
                large.append(n // f)
        f += 1
    large.reverse()
    return small + large


def mobius_loop(n):
    """Moebius function: 0 on non-squarefree n, else (-1)**(#prime factors)."""
    if n == 1:
        return 1
    count = 0
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            count += 1
        f += 1 if f == 2 else 2
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def prime_power_loop(n):
    """Decompose n as p**e with p prime, or raise NotPrimePowerError."""
    if n < 2:
        raise NotPrimePowerError(f"{n} is not a prime power")
    ps = prime_factors_loop(n)
    if len(ps) != 1:
        raise NotPrimePowerError(f"{n} is not a prime power")
    p = ps[0]
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return p, e


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


def polymul(ctx, a, b):
    """Product of two codes by polynomial multiplication mod the modulus.

    The schoolbook product of the two digit vectors, then reduction by
    x^m = -(modulus minus leading term); the field's reference product.
    """
    p, m = ctx.p, ctx.m
    da = ctx.digits_of(a)
    db = ctx.digits_of(b)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] += x * y
    # reduce: x^m == -(modulus minus leading term)
    low = ctx.modulus[:-1]
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % p
        if c:
            for j, mj in enumerate(low):
                if mj:
                    prod[i - m + j] -= c * mj
        prod[i] = 0
    return sum(c % p * p ** i for i, c in enumerate(prod[:m]))


def polymul_exp_table(ctx):
    """The exp table of ctx by one general polynomial product per entry.

    Walks zeta's powers with ``polymul``, the field's reference product on
    coefficient vectors, and checks that the walk closes after order - 1
    steps; shares nothing with the lane-wise walk of ``FieldCtx._finish``.
    """
    M = ctx.order - 1
    exp = [0] * M
    e = 1
    for i in range(M):
        exp[i] = e
        e = polymul(ctx, e, ctx.zeta_code)
    if e != 1:  # zeta**(order-1) must close the cycle
        raise AssertionError("generator order inconsistency")
    return exp


def ascending_scan_gamma(small, big):
    """The least-code root of small's modulus in big, scanning every code of big."""
    mod_poly = PolyFq(big, small.modulus)
    for code in range(big.order):
        if mod_poly(FieldElement(big, code)).code == 0:
            return code
    raise AssertionError("an irreducible modulus splits in every extension")


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


def polymul_loops(a, b):
    """Product of two PolyFq by the per-term double loop over their codes.

    This is ``PolyFq.__mul__`` before the list kernel: one ``add_codes`` and
    one ``mul_codes`` call per pair of nonzero terms.
    """
    ctx = a.ctx
    if not a.codes or not b.codes:
        return PolyFq(ctx, ())
    out = [0] * (len(a.codes) + len(b.codes) - 1)
    for i, x in enumerate(a.codes):
        if x:
            for j, y in enumerate(b.codes):
                if y:
                    out[i + j] = ctx.add_codes(out[i + j], ctx.mul_codes(x, y))
    return PolyFq(ctx, out)


def polydivmod_loops(a, b):
    """Quotient and remainder of two PolyFq by schoolbook long division.

    This is ``PolyFq.__divmod__`` before the list kernel.
    """
    ctx = a.ctx
    rem = list(a.codes)
    d = b.degree
    lead_inv = ctx.inv_code(b.codes[-1])
    quot = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            f = ctx.mul_codes(c, lead_inv)
            quot[i - d] = f
            for j, oc in enumerate(b.codes):
                if oc:
                    rem[i - d + j] = ctx.sub_codes(rem[i - d + j], ctx.mul_codes(f, oc))
    return PolyFq(ctx, quot), PolyFq(ctx, rem[:d])


def pow_mod_loops(a, e, modpoly):
    """a**e mod modpoly by square and multiply with the two loops above."""
    result = polydivmod_loops(PolyFq(a.ctx, (1,)), modpoly)[1]
    base = polydivmod_loops(a, modpoly)[1]
    while e:
        if e & 1:
            result = polydivmod_loops(polymul_loops(result, base), modpoly)[1]
        base = polydivmod_loops(polymul_loops(base, base), modpoly)[1]
        e >>= 1
    return result


def gcd_loops(a, b):
    """Monic gcd by Euclid's algorithm with ``polydivmod_loops``."""
    while not b.is_zero():
        a, b = b, polydivmod_loops(a, b)[1]
    return a.monic()


def oracle_irreducible_powering(h):
    """Rabin's test with every Frobenius power taken by repeated squaring.

    This is ``oracle_irreducible`` before the Frobenius matrix: h of degree
    n is irreducible iff x**(q**n) = x mod h and gcd(x**(q**(n/t)) - x, h)
    is constant for every prime t | n.  It runs on the loops above only.
    """
    n = h.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    q = h.ctx.order
    hm = h.monic()
    x = PolyFq.x(h.ctx)
    for t in {t for t in range(2, n + 1) if n % t == 0 and all(t % s for s in range(2, t))}:
        if gcd_loops(pow_mod_loops(x, q ** (n // t), hm) - x, hm).degree != 0:
            return False
    return pow_mod_loops(x, q ** n, hm) == x


def find_witness_scan_oracle(q, n, w, c):
    """`harness.find_witness` before the orbit-leader scan: one row, every power.

    Walks zeta**0, zeta**1, ... of F_{q^n} and returns, lowered to F_q, the
    characteristic polynomial of the first power of degree n (by
    ``element_degree``) whose x**(n-w) coefficient is c; None once the
    field is used up.
    """
    p, j = prime_power_loop(q)
    small = make_field(p, j)
    big = make_field(p, j * n)
    emb = subfield_embedding(small, big)
    c_code = emb.lift(FieldElement(small, c)).code
    zeta = primitive_element(big)
    code = 1
    for _ in range(big.order - 1):
        xi = FieldElement(big, code)
        code = big.mul_codes(code, zeta.code)
        if element_degree(xi, q, n) != n:
            continue
        cp = char_poly(xi, q, n)
        if cp.codes[n - w] == c_code:
            return emb.lower_poly(cp)
    return None


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


def powering_root_indicator(h, q, n, subfield_order=None):
    """The root indicator (1 - h**(#L - 1)) mod (x**N - 1) by its definition.

    Folds h mod x**N - 1, finds the smallest L by evaluating h at every
    nonzero point of F_{q^n} (or checks the given one there), raises the
    folded sequence to the (#L - 1)-th convolution power and subtracts it
    from the Kronecker delta.  Returns (subfield_order, coefficient codes);
    shares nothing with the power-sum route of build_root_indicator.
    """
    ctx = h.ctx
    p = ctx.p
    N = q ** n - 1
    big = make_field(p, ctx.m * n)
    emb = subfield_embedding(ctx, big)
    h_big = emb.lift_poly(h)
    values = [h_big(FieldElement(big, code)) for code in range(1, big.order)]
    if subfield_order is None:
        t = 1
        for v in values:
            t = math.lcm(t, element_degree(v, p, big.m))
        subfield_order = p ** t
    else:
        assert all(v.in_subfield(subfield_order) for v in values)
    codes = [0] * N
    for i, c in enumerate(h.codes):
        if c:
            codes[i % N] = ctx.add_codes(codes[i % N], c)
    powered = conv_power(CyclicFn(ctx, codes), subfield_order - 1)
    return subfield_order, (kronecker(ctx, N) - powered).codes
