"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results straight from the defining formulas,
sharing no algorithmic shortcut with the library paths it checks.
"""

import itertools
import json
import math
from functools import lru_cache
from math import gcd

import numpy as np

from hmdft import CyclicFn, FieldElement, PolyFq, Verdict, char_poly, element_degree, \
    make_field, oracle_irreducible, poly_gcd, primitive_element, subfield_embedding, \
    threshold
from hmdft import harness, numtheory
from hmdft.cyclic import conv_power, kronecker, least_period_by_descent
from hmdft.gf import FIELD_ORDER_CAP, MODULUS_GUARD, SizeCapError, check_size
from hmdft.harness import (CASE_EXCLUDED, CASE_HALF, CASE_MAX, CASE_NORM, PeriodReport,
                           SweepResult, classify_case)
from hmdft.numtheory import prime_power
from hmdft.symfun import CERTIFICATE_TRIES, _counts_symmetric, mask_period, omega


def brute_dft(f, zeta):
    """The defining double sum, term by term, via element arithmetic."""
    ctx, N = f.ctx, f.N
    out = []
    for i in range(N):
        acc = ctx.element(0)
        for j in range(N):
            acc = acc + f(j) * zeta ** (i * j)
        out.append(acc)
    return CyclicFn(ctx, [e.code for e in out])


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


def add_loop_walk(ctx, N, terms) -> list:
    """The transform by the conjugacy rule, one sum per cyclotomic coset.

    `cyclic._coset_walk` as it was when every sum went through the field's
    adder, one ``add_codes`` call per term, kept verbatim as the oracle of the
    log-domain sums that replaced it for odd-characteristic extension fields.
    """
    exp, log, add = ctx.exp, ctx.log, ctx.add_codes
    M = ctx.order - 1
    # a nonzero value lies in F_{p^t} iff its log is a multiple of
    # M / (p^t - 1), so t depends on the gcd G of the support logs alone
    G = M
    for lc, _ in terms:
        G = gcd(G, lc)
    t = next(t for t in numtheory.divisors(ctx.m)
             if G % (M // (ctx.p ** t - 1)) == 0)
    P = ctx.p ** t
    out = [-1] * N
    for i in range(N):
        if out[i] < 0:  # i leads its orbit: sum there, power along the rest
            s = 0
            for lc, kj in terms:
                s = add(s, exp[(lc + kj * i) % M])
            out[i] = s
            ls, j = log[s], i * P % N
            while j != i:
                ls = ls * P % M
                out[j] = exp[ls] if s else 0
                j = j * P % N
    return out


def count_adds(monkeypatch, ctx):
    """A one-item list that counts the calls of ctx.add_codes from now on."""
    calls = [0]
    add = ctx.add_codes

    def counted(a, b):
        calls[0] += 1
        return add(a, b)

    monkeypatch.setattr(ctx, "add_codes", counted)
    return calls


def brute_idft(f, zeta):
    ctx, N = f.ctx, f.N
    zinv = zeta ** (-1)
    ninv = FieldElement(ctx, pow(N % ctx.p, ctx.p - 2, ctx.p))
    out = []
    for i in range(N):
        acc = ctx.element(0)
        for j in range(N):
            acc = acc + f(j) * zinv ** (i * j)
        out.append(ninv * acc)
    return CyclicFn(ctx, [e.code for e in out])


def fits_oracle(self, q, n):
    """`SweepConfig.fits` before `gf.check_size`; `self` is the SweepConfig."""
    limit = min(self.size_cap, MODULUS_GUARD)
    if n > limit.bit_length() or q ** n - 1 > limit:
        return False
    return not self.with_witness or q ** n <= FIELD_ORDER_CAP


def parse_ints_oracle(flag, text):
    """`cli._parse_ints` by list comprehensions over the nonblank entries;
    a refusal names the flag and the first entry int() refuses."""
    entries = [x for x in text.split(",") if x.strip() != ""]
    for x in entries:
        try:
            int(x)
        except ValueError:
            raise ValueError(f"{flag} takes ints separated by commas, not {x!r}") from None
    return [int(x) for x in entries]


def dft_seq_oracle(q, n, text, inverse):
    """(exit code, stdout, stderr) of `hmdft dft --q q --n n --seq text
    [--inverse] --format json` by the reading `cli._cmd_dft` had before its
    lookup table: `parse_ints_oracle`, the length check, `lift_codes`, then
    the transform, here `brute_dft` or `brute_idft`."""
    N = q ** n - 1
    p, j = prime_power(q)
    small, big = make_field(p, j), make_field(p, j * n)
    try:
        codes = parse_ints_oracle("--seq", text)
        if len(codes) != N:
            raise ValueError(f"sequence must have length q**n - 1 = {N}")
        f = CyclicFn(big, subfield_embedding(small, big).lift_codes(codes))
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    g = (brute_idft if inverse else brute_dft)(f, primitive_element(big))
    return 0, json.dumps({"values": list(g.codes)}, indent=2) + "\n", ""


def check_grid_oracle(cfg):
    """`harness._check_grid` as one fits/weights/rows test per (q, n) of the range.

    A w is a row at n unless w = n with c pinned to 0 (the sweep skips it as
    a norm of zero).  A row at n = 1 refuses the grid, and so does a range
    with no row, by the first of its causes: a pinned w that fits no n, no
    n >= 2 with a w, or a lone norm-of-zero cell.  Every q must be at most
    FIELD_ORDER_CAP, which is tested before any q is factored, and a prime
    power, by `prime_power_loop`, and a pinned c a code of every F_q, the
    first q it fails named.
    """
    qs = sorted(set(cfg.q_list))
    if not qs:
        raise ValueError("q list names no field size")
    if qs[0] < 2:
        raise ValueError(f"q must be at least 2, not q={qs[0]}")
    for q in qs:
        if q > FIELD_ORDER_CAP:
            raise SizeCapError(f"q={q} exceeds the field order cap {FIELD_ORDER_CAP}")
        prime_power_loop(q)
    c = cfg.pinned_c
    bad = [q for q in qs if c is not None and not 0 <= c < q]
    if bad:
        raise ValueError(f"pinned c={c} is not an F_{bad[0]} code")
    lo, hi = cfg.n_range
    if lo > hi:
        raise ValueError(f"n range {lo}:{hi} is empty")

    def has_row(n):
        return any(w != n or cfg.pinned_c != 0 for w in cfg.weights(n))

    if lo <= 1 <= hi and has_row(1):
        raise ValueError(f"n range {lo}:{hi} reaches n = 1, whose only row "
                         f"(w = n = 1) has no period threshold; start it at 2")
    if not any(has_row(n) for n in range(lo, hi + 1)):
        w = cfg.pinned_w
        if w is not None and all(not 1 <= w <= n for n in range(lo, hi + 1)):
            raise ValueError(f"pinned w={w} lies outside [1, n] for every n of the "
                             f"range {lo}:{hi}")
        if not any(cfg.weights(n) for n in range(max(lo, 2), hi + 1)):
            raise ValueError(f"n range {lo}:{hi} has no n >= 2, so it has no row to run")
        raise ValueError(f"the grid's only cell is w = n = {hi} with c = 0, "
                         f"and no norm is 0")
    if not any(has_row(n) and cfg.fits(q, n)  # fits refuses n < 1, which has no row
               for q in qs for n in range(lo, hi + 1)):
        raise ValueError(f"no (q, n) of the grid has a row within the size cap "
                         f"{cfg.size_cap} and the hard limits")
    return qs


def brute_convolve(f, g):
    """Defining double sum over all index pairs."""
    ctx, N = f.ctx, f.N
    out = [ctx.element(0) for _ in range(N)]
    for j in range(N):
        for k in range(N):
            out[(j + k) % N] = out[(j + k) % N] + f(j) * g(k)
    return CyclicFn(ctx, [e.code for e in out])


def brute_least_period(vals):
    """Scan every candidate r in [1, N], not only divisors.

    vals[r % N] = vals[0] holds at every period r, so a candidate failing it
    is passed over with one comparison; the rest get the full comparison.
    """
    vals = list(vals)
    N = len(vals)
    for r in range(1, N + 1):
        if vals[r % N] == vals[0] and all(vals[i] == vals[(i + r) % N] for i in range(N)):
            return r
    raise AssertionError("r = N always qualifies")


def brute_least_period_loop(vals):
    """``brute_least_period`` before its one-point pre-check, the oracle for it."""
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
    """Decompose n as p**e with p prime, or raise ValueError."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    ps = prime_factors_loop(n)
    if len(ps) != 1:
        raise ValueError(f"{n} is not a prime power")
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
    steps; shares nothing with any walk of ``FieldCtx._finish``.
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


def lane_walk_exp_table(ctx):
    """The exp table of ctx by the lane walk, for every p.

    ``FieldCtx._finish`` walks the first (order - 1)/(p - 1) powers of an
    odd-p field this way; for p = 2 it doubles packed runs of powers
    instead, and shares no step with this walk.  The walk's state holds digit i of the current power
    in bit lane i, B = (2p - 1).bit_length() + 1 bits wide; ``reduce``
    subtracts p from every lane that reached p.  zeta times each possible low
    and high half of the lanes is tabled, grown from the m columns zeta*x**i,
    which come from ``polymul`` here rather than from ``PolyFq``.
    """
    p, m = ctx.p, ctx.m
    M = ctx.order - 1
    B = (2 * p - 1).bit_length() + 1
    cols = [polymul(ctx, ctx.zeta_code, p ** i) for i in range(m)]
    cols = [sum(d << (i * B) for i, d in enumerate(ctx.digits_of(c))) for c in cols]
    h = m // 2
    shift = h * B
    lo_mask = (1 << shift) - 1
    ones = sum(1 << (i * B) for i in range(m))  # a 1 in every lane
    hib = ones << (B - 1)
    adj = ((1 << (B - 1)) - p) * ones

    def reduce(s):
        return s - (((s + adj) & hib) >> (B - 1)) * p

    def half_tables(first, last):
        # lane keys of the codes with digits only in first..last-1, shifted
        # to lane 0, mapped to each code and to zeta times it in lanes
        keys, codes, nexts = [0], [0], [0]
        for i in range(first, last):
            size, unit, step, col = len(keys), 1 << ((i - first) * B), p ** i, cols[i]
            for _ in range(p - 1):  # digit i one more than in the block before
                keys += [k + unit for k in keys[-size:]]
                codes += [c + step for c in codes[-size:]]
                nexts += [reduce(v + col) for v in nexts[-size:]]
        return dict(zip(keys, codes)), dict(zip(keys, nexts))

    lo_code, lo_next = half_tables(0, h)
    hi_code, hi_next = half_tables(h, m)
    exp = [0] * M
    s = 1
    for i in range(M):
        lo = s & lo_mask
        hi = s >> shift
        exp[i] = lo_code[lo] + hi_code[hi]
        s = reduce(lo_next[lo] + hi_next[hi])
    if s != 1:  # zeta**(order-1) must close the cycle
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


@lru_cache(maxsize=None)
def _monic_irreducibles(ctx, d):
    """Every monic irreducible of degree d over ctx, by ``brute_is_irreducible``."""
    monics = (PolyFq(ctx, list(codes) + [1])
              for codes in itertools.product(range(ctx.order), repeat=d))
    return [g for g in monics if brute_is_irreducible(g)]


def trial_factor_degrees(h):
    """Sorted irreducible-factor degrees of nonzero h, with multiplicity.

    Trial division: the monic irreducibles of degree 1, 2, ... are divided
    out of h, in ascending degree, each as often as it divides.  Once every
    factor below degree d is gone, a cofactor of degree below 2d is 1 or
    irreducible.
    """
    f = h.monic()
    degrees = []
    d = 1
    while f.degree >= 2 * d:
        for g in _monic_irreducibles(f.ctx, d):
            quot, rem = divmod(f, g)
            while rem.is_zero():
                degrees.append(d)
                f = quot
                quot, rem = divmod(f, g)
        d += 1
    if f.degree > 0:
        degrees.append(f.degree)
    return degrees


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
                    rem[i - d + j] = ctx.add_codes(rem[i - d + j],
                                                   ctx.neg_code(ctx.mul_codes(f, oc)))
    return PolyFq(ctx, quot), PolyFq(ctx, rem[:d])


def divmod_term_by_term(ctx, a, h):
    """Quotient and remainder of code list a by the nonzero code list h.

    This is ``gf._divmod`` before prepared divisors: each call derives the
    lead's inverse and the negated tail again, and each top term adds
    f * (-h_j) below it with one ``mul_codes`` and one ``add_codes`` call
    per tail term.  The remainder is trimmed, the quotient is not.
    """
    d = len(h) - 1
    rem = list(a)
    if len(rem) <= d:
        return [], rem
    inv = ctx.inv_code(h[-1])
    tail = [ctx.neg_code(c) for c in h[:-1]]
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            f = quot[i - d] = ctx.mul_codes(c, inv)
            for j, t in enumerate(tail, i - d):
                if t:
                    rem[j] = ctx.add_codes(rem[j], ctx.mul_codes(f, t))
    del rem[d:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def x_pow_mod_term_by_term(ctx, t, h):
    """x**t mod the code list h by square and multiply, products term by term
    and every reduction by ``divmod_term_by_term``."""
    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = ctx.add_codes(out[i + j], ctx.mul_codes(u, v))
        return divmod_term_by_term(ctx, out, h)[1]

    result = divmod_term_by_term(ctx, [1], h)[1]
    base = divmod_term_by_term(ctx, [0, 1], h)[1]
    while t:
        if t & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        t >>= 1
    return result


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


def rabin_modulus_search(p, m):
    """The canonical modulus of F_{p^m}, m >= 2, by the search Ben-Or's test replaced.

    ``make_field``'s search as it was: candidates in code order, those with
    a root in F_p skipped, every other one decided by ``oracle_irreducible``
    (Rabin's test).  It builds no extension field.
    """
    prime = make_field(p, 1)
    points = range(1, p)

    def rooted(cand):
        # a root a in F_p is a linear factor x - a, and m >= 2: a = 0 when
        # the constant term is 0, else Horner's value at a nonzero a is 0
        if not cand[0]:
            return True
        vals = [1] * (p - 1)
        for c in cand[-2::-1]:
            vals = [(v * a + c) % p for v, a in zip(vals, points)]
        return 0 in vals

    return next(cand for cand in (tuple(numtheory.digits(code, p, m)) + (1,)
                                  for code in range(p ** m))
                if not rooted(cand) and oracle_irreducible(PolyFq(prime, cand)))


def pow_mod_zeta_search(p, m, modulus):
    """The canonical zeta of F_p[x]/(modulus), by the search the norm test replaced.

    ``FieldCtx._finish``'s search as it was: the least code c whose power
    c**(M/t) is not 1 for any prime t | M = p**m - 1, by ``pow`` mod p in a
    prime field and by ``PolyFq.pow_mod`` for every candidate and prime
    otherwise.  It builds no extension field.
    """
    M = p ** m - 1
    fac = numtheory.prime_factors(M)
    if m == 1:
        return next(c for c in range(1, p) if all(pow(c, M // t, p) != 1 for t in fac))
    prime = make_field(p)
    mod, one = PolyFq(prime, modulus), PolyFq(prime, (1,))
    # from code p on: a constant's order divides p - 1 < order - 1
    return next(
        c for c in range(p, p ** m)
        if all(PolyFq(prime, numtheory.digits(c, p, m)).pow_mod(M // t, mod) != one
               for t in fac))


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
            if PolyFq(emb.big, emb.lift_codes(cand.codes))(xi).code == 0:
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
    base[0] = ctx.add_codes(base[0], ctx.neg_code(c.code))  # 0 is never in Omega(w), w >= 1
    powered = conv_power(CyclicFn(ctx, base), q - 1)
    return kronecker(ctx, N) - powered


def base_q_digits_loop(x, q, n):
    """The n low base-q digits of x, little-endian, by repeated division."""
    out = []
    for _ in range(n):
        out.append(x % q)
        x //= q
    return out


def may_be_mask_support(x, q, n, w, c):
    """Whether the no-carry lemma lets the (w, c) mask be nonzero at x != 0.

    Only levels k with a nonzero coefficient count: 1..q-1 for c != 0, q-1
    alone for c = 0.  A_k(x) != 0 needs digit sum k*w and every digit <= k.
    """
    d = base_q_digits_loop(x, q, n)
    levels = range(1, q) if c else (q - 1,)
    return any(sum(d) == k * w and max(d) <= k for k in levels)


def shift_certificate_holds(mask_at, q, n, w, c, t, cert):
    """Whether cert = (s, sign) proves that t | N is no period of the mask.

    s must have the search's shape, w digits equal to 1 (c != 0) or q - 1
    (c = 0) and the rest 0; mask_at reads the mask's value code at a point.
    The certificate holds when mask(s) != 0 and mask(s + sign*t) = 0.
    """
    s, sign = cert
    N = q ** n - 1
    high = 1 if c else q - 1
    d = base_q_digits_loop(s, q, n)
    return (0 < t < N and N % t == 0 and sign in (1, -1) and 0 < s < N
            and sorted(d) == [0] * (n - w) + [high] * w
            and mask_at(s) != 0 and mask_at((s + sign * t) % N) == 0)


def shift_certificate_per_call(q: int, n: int, w: int, c: int, t: int):
    """The shift certificate with its tries formed again and the digit test
    run at every call, in one function; the oracle for the verdict tables
    that ``symfun.mask_periods`` shares per side of zero.
    """
    # no check_size: the digits of one integer are cheap past any cap
    if q < 2:
        raise ValueError(f"q must be at least 2, not q={q}")
    if not 1 <= w <= n:
        raise ValueError(f"w={w} outside [1, {n}]")
    N, low = q ** n - 1, 1 if c else q - 1
    subsets = itertools.combinations(range(n), w) if c or w < n else ()  # else s = N, 0 in Z_N
    tries = ((low * sum(q ** i for i in S), sign) for S in subsets for sign in (1, -1))
    for s, sign in itertools.islice(tries, CERTIFICATE_TRIES):
        d = numtheory.digits((s + sign * t) % N, q)  # none for x = 0
        k, rest = divmod(sum(d), w)
        if d and (rest or not low <= k < q or max(d) > k):
            return s, sign
    return None


def fresh_descent_period(q, n, w, c, met=None):
    """The least period of the (w, c) mask by a descent of its own.

    Each shift goes to ``shift_certificate_per_call`` and, if no certificate
    refutes it, to a ``TableMaskPoints`` built for this row alone; nothing
    is shared with another row.  ``met``, when given, collects each shift.
    """
    points = None

    def is_period(t):
        nonlocal points
        if met is not None:
            met.append(t)
        if shift_certificate_per_call(q, n, w, c, t):
            return False
        points = points or TableMaskPoints(q, n, w, c)
        return points.has_period(t)

    return least_period_by_descent(q ** n - 1, is_period)


def _row_report(q, n, w, c, cap):
    """``harness.verify_period_claims`` as one row alone, before rows were grouped."""
    N = check_size(q, n, cap)
    thr = threshold(n, q)
    label = classify_case(q, n, w, c)
    if label == CASE_EXCLUDED:
        return PeriodReport(q=q, n=n, w=w, c=c, threshold=thr, case_label=label)
    r = mask_period(q, n, w, c)
    if label == CASE_MAX:
        case_claim = r == N
    elif label == CASE_HALF:
        case_claim = 2 * r >= N
    else:
        case_claim = r > q - 1
    return PeriodReport(q=q, n=n, w=w, c=c, threshold=thr, case_label=label, r=r,
                        r_gt_threshold=r > thr, r_not_dividing_threshold=thr % r != 0,
                        case_claim=case_claim)


def per_row_sweep(cfg):
    """``harness.sweep`` as it was before one (q, n) became its unit.

    Each row is checked and reported alone: a row above n/2 takes the report
    of n - w and is then relabelled, each period is a ``mask_period`` call
    of its own, and the symmetry and witness fields are set afterwards by
    ``_replace``; the symmetry verdict is formed by the first row of each
    w' = min(w, n - w) that asks.  The oracle of the grouped sweep.
    """
    reports, skipped = [], []
    n_lo, n_hi = cfg.n_range
    for q in check_grid_oracle(cfg):
        for n in range(max(n_lo, 1), n_hi + 1):
            if not cfg.fits(q, n):
                skipped.append({"q": q, "n": n, "reason": "size_cap"})
                continue
            rows = []
            for w in cfg.weights(n):
                for c in range(q) if cfg.pinned_c is None else (cfg.pinned_c,):
                    if w == n and c == 0:
                        skipped.append({"q": q, "n": n, "w": w, "c": c,
                                        "reason": "norm_of_zero_excluded"})
                    else:
                        rows.append((w, c))
            verdicts = {}
            row_reports = []
            for w, c in rows:
                if w == n:
                    rep = PeriodReport(q=q, n=n, w=w, c=c, threshold=threshold(n, q),
                                       case_label=CASE_NORM)
                elif 2 * w > n:
                    rep = _row_report(q, n, n - w, c, cfg.size_cap)._replace(
                        w=w, delegated_to_w=n - w)
                else:
                    rep = _row_report(q, n, w, c, cfg.size_cap)
                if cfg.check_symmetry and rep.r is not None:
                    v = min(w, n - w)
                    if v not in verdicts:
                        verdicts[v] = _counts_symmetric(q, n, v)
                    rep = rep._replace(symmetric=verdicts[v][c == 0])
                row_reports.append(rep)
            if cfg.with_witness and rows:
                wits = harness._witnesses(q, n, rows, cfg.size_cap)
                for i, rep in enumerate(row_reports):
                    wit, expected = wits[rep.w, rep.c], rep.case_label != CASE_EXCLUDED
                    if wit is None:
                        rep = rep._replace(witness=None, witness_ok=not expected)
                    else:
                        ok = wit.degree == n and wit.is_monic and wit[n - rep.w].code == rep.c
                        rep = rep._replace(witness=tuple(wit.codes), witness_ok=expected and ok)
                    row_reports[i] = rep
            reports += row_reports
    n_fail = sum(not r.passed for r in reports)
    summary = {"total": len(reports), "pass": len(reports) - n_fail, "fail": n_fail,
               "excluded": sum(r.case_label == CASE_EXCLUDED for r in reports),
               "skipped": len(skipped)}
    return SweepResult(reports=tuple(reports), skipped=tuple(skipped), summary=summary)


@lru_cache(maxsize=1)
def _multiset_counts(q, n, w):
    """A_1, ..., A_{q-1} mod p per digit multiset, as {key: (k, count, parts)}.

    A multiset is its multiplicity vector lam = (m_0, ..., m_{q-1}), m_v
    digits equal to v; A_k(d) depends on d only through it.  Exact
    recurrence: the last of the k rows raises w distinct columns by one, so
    level k takes each level-(k-1) multiset, raises j_v of its digits v to
    v + 1 (sum of j = w), and adds its count times prod C(lam_{v+1}, j_v),
    the number of ways to pick those columns in a digit vector of the result
    lam.  Every level-k multiset has digits <= k and digit sum k*w, so no
    multiset lies on two levels; those whose count vanishes mod p are
    dropped, and so is level 0, the zero multiset with count 1.  Each is
    stored, level by level, by its key sum_v m_v * (n + 1)**v, with its
    level k, its count and its parts (the pairs (v, m_v) with v, m_v > 0).
    One entry is cached, for the TableMaskPoints of several c of one (q, n, w).
    """
    p = prime_power(q)[0]
    B = n + 1
    level = {(n,) + (0,) * (q - 1): 1}
    table = {}
    for k in range(1, q):
        acc = {}
        for mu, a in level.items():
            held = [v for v in range(k) if mu[v]]
            for j in itertools.product(*(range(mu[v] + 1) for v in held)):
                if sum(j) != w:
                    continue
                lam = list(mu)
                for v, jv in zip(held, j):
                    lam[v] -= jv
                    lam[v + 1] += jv
                weight = a
                for v, jv in zip(held, j):
                    weight *= math.comb(lam[v + 1], jv)
                lam = tuple(lam)
                acc[lam] = acc.get(lam, 0) + weight
        level = {lam: a % p for lam, a in acc.items() if a % p}
        for lam, a in level.items():
            table[sum(mv * B ** v for v, mv in enumerate(lam))] = (
                k, a, tuple((v, mv) for v, mv in enumerate(lam) if v and mv))
    return table


def _arrangements(parts, free):
    """The sums of v * P over every placement of the parts (v, m) at free powers P.

    parts is nonempty: every multiset of the count table has a nonzero digit.
    """
    (v, m), rest = parts[0], parts[1:]
    for chosen in itertools.combinations(free, m):
        head = v * sum(chosen)
        if rest:
            left = [P for P in free if P not in chosen]
            for tail in _arrangements(rest, left):
                yield head + tail
        else:
            yield head


class TableMaskPoints:
    """The prescription mask for (w, c) at points, from a count table per multiset.

    The route `symfun.MaskPoints` replaced, kept as its differential oracle.
    For i != 0 with digit multiset lam, mask(i) = coef_k * A_k(lam) with
    k = digitsum(i)/w, looked up in `_multiset_counts(q, n, w)` by the key of
    lam; slot 0 holds 1, coef_0 and, when w = n, the all-(q-1) multiset of
    level q-1.  `support()` walks the table once, placing each multiset at
    every arrangement of its digits.
    """

    def __init__(self, q, n, w, c):
        ctx = make_field(*prime_power(q))
        table = _multiset_counts(q, n, w)
        p, m = ctx.p, q - 1
        add, mul, power, neg = ctx.add_codes, ctx.mul_codes, ctx.pow_code, ctx.neg_code
        sign = 1 if w % 2 == 0 else neg(1)
        b = neg(c)
        coef = [neg(mul(math.comb(m, k) % p, mul(power(sign, k), power(b, m - k))))
                for k in range(q)]
        # the all-(q-1) multiset is in the table only when w = n
        full = table.get(n * (n + 1) ** m, (m, 0, ()))[1]
        self.q, self.n, self.N = q, n, q ** n - 1
        self._slot0 = add(add(1, coef[0]), mul(coef[m], full))
        self._coef, self._mul, self._table = coef, mul, table
        self._inc = [(n + 1) ** v - 1 for v in range(q)]

    def __call__(self, i):
        if not i:
            return self._slot0
        # the key of i's multiset: n zeros, each digit v trading a zero for (n+1)**v
        key, q, inc = self.n, self.q, self._inc
        while i:
            i, r = divmod(i, q)
            key += inc[r]
        hit = self._table.get(key)
        return self._mul(self._coef[hit[0]], hit[1]) if hit else 0

    def support(self):
        """(s, mask(s)) for every s with mask(s) != 0, multiset by multiset."""
        if self._slot0:
            yield 0, self._slot0
        q, n, coef, mul = self.q, self.n, self._coef, self._mul
        powers = [q ** i for i in range(n)]
        full = ((q - 1, n),)
        for k, a, parts in self._table.values():
            code = mul(coef[k], a)
            if code and parts != full:  # its sum q**n - 1 is slot 0
                for s in _arrangements(parts, powers):
                    yield s, code

    def has_period(self, t):
        """Whether mask(s + t) = mask(s) at every support point s."""
        N = self.N
        return all(self((s + t) % N) == code for s, code in self.support())


def brute_margin_counts(n, w, k):
    """{column sums: number of k x n 0/1 matrices with row sums w and those sums}.

    Enumerates every k-tuple of weight-w rows.  A row is packed as
    sum_{i in row} (k+1)**i, so the k packed rows add with no carry and their
    sum holds the column sums as base-(k+1) digits.
    """
    B = k + 1
    rows = [sum(B ** i for i in row) for row in itertools.combinations(range(n), w)]
    tally = {}
    for chosen in itertools.product(rows, repeat=k):
        key = sum(chosen)
        tally[key] = tally.get(key, 0) + 1
    return {tuple(base_q_digits_loop(key, B, n)): a for key, a in tally.items()}


def transform_side_period(q, n, w, c):
    """The least period of the (w, c) mask, read from its transform's support.

    The transform of the mask is the indicator of S, the exponents k in Z_N
    (N = q**n - 1) whose zeta**k has a characteristic polynomial over F_q
    with [t**(n-w)] equal to c lifted into F_{q^n}; by the support formula
    the period is N / gcd(N, S).  One ``char_poly`` per Frobenius orbit
    {k * q**s mod N}, over the F_{q^n} tables, and the scan stops once the
    gcd is 1.  It shares no code with ``symfun``: no digits, no counts and
    no binomials.
    """
    p, j = prime_power(q)
    big = make_field(p, j * n)
    target = subfield_embedding(make_field(p, j), big).lift_codes([c])[0]
    N = big.order - 1
    g, seen = N, set()
    for k in range(N):
        if g == 1:
            break
        if k in seen:
            continue
        orbit, e = [k], k * q % N
        while e != k:
            orbit.append(e)
            e = e * q % N
        seen.update(orbit)
        if char_poly(FieldElement(big, big.exp[k]), q, n).codes[n - w] == target:
            g = gcd(g, *orbit)
    return N // g


def powering_root_indicator(h, q, n, subfield_order=None):
    """The root indicator (1 - h**(#L - 1)) mod (x**N - 1) by its definition.

    Folds h mod x**N - 1, finds the smallest L by evaluating h at every
    nonzero point of F_{q^n} (or checks the given one there), raises the
    folded sequence to the (#L - 1)-th convolution power and subtracts it
    from the Kronecker delta.  Returns (subfield_order, coefficient codes);
    shares nothing with the closed form of build_root_indicator.
    """
    ctx = h.ctx
    p = ctx.p
    N = q ** n - 1
    big = make_field(p, ctx.m * n)
    emb = subfield_embedding(ctx, big)
    h_big = PolyFq(big, emb.lift_codes(h.codes))
    values = [h_big(FieldElement(big, code)) for code in range(1, big.order)]
    if subfield_order is None:
        t = 1
        for v in values:
            t = math.lcm(t, element_degree(v, p, big.m))
        subfield_order = p ** t
    else:
        assert all(v ** subfield_order == v for v in values)
    codes = [0] * N
    for i, c in enumerate(h.codes):
        if c:
            codes[i % N] = ctx.add_codes(codes[i % N], c)
    powered = conv_power(CyclicFn(ctx, codes), subfield_order - 1)
    return subfield_order, (kronecker(ctx, N) - powered).codes


def square_multiply_verdict(h, q, n):
    """The factor-test verdict with every power of x by ``PolyFq.pow_mod``.

    This is the verdict route before ``gf.x_pow_mod``: fold h mod x**N - 1,
    take g = gcd(x**N - 1, h mod x**N - 1) from x.pow_mod(N, hbar), then the
    least t | N with (x**t - 1) mod g = 0 by prime descent, each x**t mod g
    by square and multiply.  A folded h of 0 gives r = N.
    """
    ctx = h.ctx
    N = q ** n - 1
    folded = [0] * min(N, len(h.codes))
    for i, c in enumerate(h.codes):
        folded[i % N] = ctx.add_codes(folded[i % N], c)
    hbar = PolyFq(ctx, folded)
    x, one = PolyFq.x(ctx), PolyFq(ctx, (1,))
    if hbar.is_zero():
        r = N
    else:
        g = poly_gcd(x.pow_mod(N, hbar) - one, hbar)
        r = least_period_by_descent(
            N, lambda t: ((x.pow_mod(t, g) - one) % g).is_zero())
    thr = threshold(n, q)
    return Verdict(status="Proven" if thr % r else "Inconclusive",
                   least_period=r, threshold=thr, modulus=N)


def refusal_type(error):
    """The exact exception type a row of a refusal table expects.

    A row names a type, or a str: the name of the class its check raised
    before ``hmdft`` kept one refusal type.  Such a check now raises a plain
    ValueError, and the name keeps the row's test id.
    """
    return ValueError if isinstance(error, str) else error
