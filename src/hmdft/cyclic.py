"""Functions Z_N -> F with exact DFT, convolution and least-period machinery.

The transform based on a root of unity zeta of exact order N sends f to
g(i) = sum_j f(j) * zeta**(i*j); its inverse is N**(-1) times the transform
based on zeta**(-1).  Convolution is the cyclic sum
(f (*) g)(i) = sum_{j+k=i} f(j) g(k), and the least period of f is the
smallest positive r with f(i + r) = f(i) for all i (always a divisor of N).

Everything is exact: values are finite-field elements, never floats.
The transform takes one of two routes, with the same output codes.  Term j
of g, over all points i, is the exp table read with a fixed step, so in
characteristic 2, where codes add by XOR, `dft` cuts each term's run from
the table as array slices and XORs the runs packed into integers.  It does
so when the slices of all terms number at most N: sparse inputs with small
steps, such as a polynomial's coefficient sequence.  The packed table is
the field's own ``exp``, an ``array``; this module keeps no field state.
Otherwise (odd p, or too many slices: masks, weight indicators, dense
sequences) it walks Z_N once by the conjugacy rule: when every value of f
lies in the subfield F_{p^t}, g(i * p^t) = g(i)**(p^t), so one sum per
cyclotomic coset of p^t mod N is powered across the rest of the coset; t
comes from ``gf.element_degree``, the package's one degree rule.  An
odd-characteristic extension field forms those sums in the log domain,
through the Zech table the field already holds; characteristic 2 and prime
fields add codes.
Convolution iterates over support pairs, which reduces to the defining double
sum when both supports are dense but is far cheaper on sparse indicator
functions; no certification path calls it, the tests and their oracles do.
Every least period comes from one prime descent, `least_period_by_descent`,
over a caller's test for the shifts t | N: `least_period` compares the dense
values, `symfun.mask_period` refutes shifts by the digit test or reads the
mask one point at a time.  It factors each N once: a sweep's rows share few N.
Functions are immutable once built; all operations here are pure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd
from struct import unpack

from . import numtheory
from .gf import FieldCtx, FieldElement, check_codes, element_degree


def _check_modulus(N: int) -> None:
    if N < 1:
        raise ValueError(f"modulus N must be at least 1, not N={N}")


class SupportSet:
    """Sorted, duplicate-free subset of Z_N (canonical representatives); immutable."""

    __slots__ = ("N", "members")

    def __init__(self, N: int, members):
        _check_modulus(N)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "members", tuple(sorted({m % N for m in members})))

    def _immutable(self, *args):
        raise AttributeError("SupportSet is immutable")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if type(other) is not SupportSet:
            return NotImplemented
        return self.N == other.N and self.members == other.members

    def __hash__(self):
        return hash((self.N, self.members))

    def __repr__(self):
        return f"SupportSet(N={self.N!r}, members={self.members!r})"

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


class CyclicFn:
    """Dense function Z_N -> F, stored as a tuple of N value codes."""

    __slots__ = ("ctx", "N", "codes")

    def __init__(self, ctx: FieldCtx, codes):
        codes = tuple(codes)
        _check_modulus(len(codes))
        self.ctx = ctx
        self.N = len(codes)
        self.codes = codes

    @classmethod
    def from_support(cls, ctx: FieldCtx, N: int, members) -> "CyclicFn":
        _check_modulus(N)
        codes = [0] * N
        for m in members:
            codes[m % N] = 1
        return cls(ctx, codes)

    def __call__(self, i: int) -> FieldElement:
        return FieldElement(self.ctx, self.codes[i % self.N])

    def support(self) -> SupportSet:
        return SupportSet(self.N, tuple(i for i, c in enumerate(self.codes) if c))

    def __eq__(self, other):
        if not isinstance(other, CyclicFn):
            return NotImplemented
        return self.ctx is other.ctx and self.codes == other.codes

    def __hash__(self):
        return hash((id(self.ctx), self.codes))

    def __add__(self, other):
        _check_pair(self, other)
        add = self.ctx.add_codes
        return CyclicFn(self.ctx, [add(a, b) for a, b in zip(self.codes, other.codes)])

    def __sub__(self, other):
        _check_pair(self, other)
        return self + -other

    def __neg__(self):
        check_codes(self.ctx.order, self.codes, "value")
        return CyclicFn(self.ctx, list(map(self.ctx.neg_code, self.codes)))

    def scale(self, code: int) -> "CyclicFn":
        check_codes(self.ctx.order, (code, *self.codes), "value")
        mul = self.ctx.mul_codes
        return CyclicFn(self.ctx, [mul(code, c) for c in self.codes])

    def __repr__(self):
        return f"CyclicFn(N={self.N}, F{self.ctx.order})"


def kronecker(ctx: FieldCtx, N: int) -> CyclicFn:
    """The convolution identity: 1 at index 0, else 0.

    No certification path calls it; tests and their oracles do.
    """
    return CyclicFn.from_support(ctx, N, (0,))


def _check_pair(f: CyclicFn, g: CyclicFn):
    if f.N != g.N:
        raise ValueError(f"moduli differ: {f.N} vs {g.N}")
    if f.ctx is not g.ctx:
        raise ValueError("functions valued in different fields")
    check_codes(f.ctx.order, f.codes + g.codes, "value")


def _check_root(f: CyclicFn, zeta: FieldElement) -> None:
    ctx, N = f.ctx, f.N
    if zeta.ctx is not ctx:
        raise ValueError("root of unity from a different field")
    if (ctx.order - 1) % N:
        raise ValueError(f"N={N} does not divide {ctx.order - 1}")
    if zeta.code == 0 or ctx.order_of(zeta.code) != N:
        raise ValueError(f"supplied root does not have exact order {N}")


def dft(f: CyclicFn, zeta: FieldElement) -> CyclicFn:
    """Transform g(i) = sum_j f(j) * zeta**(i*j), exact over f's field.

    With zeta = exp[k], term j over all points i is the exp table read from
    log f(j) with step k*j mod M (M = order - 1).  Taking that step as a
    signed least residue d, its run is about N*|d|/M + 1 slices of the table.
    In characteristic 2, when the slices of all terms number at most N, the
    runs are cut from the field's exp table, an ``array`` of packed codes,
    and XORed as packed integers, with no Python step per output point.

    Otherwise let t be the least divisor of m with every value of f in
    F_{p^t}, and P = p**t; t is the degree over F_p of exp[G], G the gcd of
    M and the logs of f's values (`gf.element_degree`).  Raising to the P-th
    power fixes f's values and is additive, so the conjugacy rule
    g(i*P mod N) = g(i)**P holds.  The sum is therefore formed once per
    cyclotomic coset {i, i*P, i*P**2, ...} of P mod N, at its least member,
    and the rest of the coset is that sum powered in the log domain, all in
    one ascending walk over Z_N.  When P = 1 mod N
    (values spanning the whole field, every prime field) the cosets are
    single points and every point is summed.  Over an odd-characteristic
    extension field each sum stays a log, one Zech-table step per term;
    characteristic 2 and prime fields sum with the field's adder.
    """
    _check_root(f, zeta)
    return _transform(f, zeta, 0)


def _transform(f: CyclicFn, zeta: FieldElement, scale_log: int) -> CyclicFn:
    """The transform of `dft` times exp[scale_log], a constant of the prime field.

    The constant rides on every support log, so scaling costs one add per
    support term, not one product per output point.  Term j at point i is
    exp[(c_j + s_j*i) mod M], with c_j = scale_log + log f(j) and s_j = k*j
    for zeta = exp[k]: over all i, the exp table read with step s_j.  In
    characteristic 2 those runs are summed by `_xor_runs` when their slices
    fit the budget of `_runs_fit`; every other input takes `_coset_walk`.
    """
    ctx, N = f.ctx, f.N
    log, codes = ctx.log, f.codes
    M = ctx.order - 1
    k = log[zeta.code]
    support = list(compress(range(N), codes))
    values = list(map(codes.__getitem__, support))
    check_codes(ctx.order, values, "value")
    terms = [(log[c] + scale_log, k * j % M) for j, c in zip(support, values)]
    if ctx.p == 2 and _runs_fit(terms, N, M):
        out = _xor_runs(ctx, N, terms)
    else:
        out = _coset_walk(ctx, N, terms)
    return CyclicFn(ctx, out)


def _runs_fit(terms, N: int, M: int) -> bool:
    """True when the runs of all terms take at most N slices in all.

    A run of step s, taken as the signed least residue d mod M, wraps the
    table about N*|d|/M times, so it costs N*|d|//M + 1 slices.  The budget
    of N slices bounds the runs' Python-level work by the N-point fill of the
    coset walk; the count stops as soon as it passes N.
    """
    left = N
    for _, s in terms:
        left -= N * min(s, M - s) // M + 1
        if left < 0:
            return False
    return True


def _xor_runs(ctx: FieldCtx, N: int, terms) -> tuple:
    """The transform as one XOR of the terms' runs; characteristic 2 only.

    Each run is cut from the field's exp table, an ``array`` here, doubled:
    E, one C-level copy per call (0.26 MB at F_{2^16}), so a slice may cross
    the wrap at M: a forward step starts below M and stops below 2M, a backward
    step starts at or above M and stops at or above 0.  Codes of F_{2^m} add
    by XOR without carry, so each run, packed into one integer, joins the
    total with one ``^``, and one ``struct.unpack`` gives the output codes.
    """
    M = ctx.order - 1
    E = ctx.exp * 2  # E[x] = exp[x mod M] for 0 <= x < 2M
    total = 0
    for c, s in terms:
        a = c % M
        d = s if 2 * s <= M else s - M  # the signed least residue of the step
        if d == 0:
            run = E[a:a + 1] * N
        else:
            run, left = E[:0], N
            # the slices `_runs_fit` counts always suffice; spare ones come out empty
            for _ in range(N * abs(d) // M + 1):
                if d > 0:
                    n = min(left, (2 * M - 1 - a) // d + 1)
                else:
                    a += M
                    n = min(left, a // -d + 1)
                stop = a + d * n
                run += E[a:stop if stop >= 0 else None:d]  # stop -1 would mean the end
                left -= n
                a = stop % M
        total ^= int.from_bytes(run, "little")
    # XOR acts byte by byte, so one byte order both ways restores the codes in
    # the table's native order; "=" reads H and I at the array's sizes
    return unpack(f"={N}{E.typecode}", total.to_bytes(N * E.itemsize, "little"))


def _coset_walk(ctx: FieldCtx, N: int, terms) -> list:
    """The transform by the conjugacy rule, one sum per cyclotomic coset.

    One pass over Z_N: a point not yet filled is the least member of its
    orbit under i -> i*P, so the sum is formed there and powered along the
    orbit, which fills the orbit's other points.  P = p**t, t the degree of
    exp[G] over F_p (``gf.element_degree``), G the gcd of M and the terms'
    logs: exp[G] generates the group the values generate, so it lies in
    F_{p^t} exactly when every value does.  The constant exp[scale_log] lies
    in every F_{p^t} and is fixed by the Frobenius, so t is f's.

    An odd-characteristic extension field sums in the log domain through its
    Zech table: with ls the partial sum's log, the term of log lt joins it as
    ls + zech[lt - ls] mod M, and zech < 0 marks a zero partial sum, which
    the next term restarts.  Characteristic 2 and prime fields, which hold no
    Zech table, sum with the field's adder.
    """
    exp, log, add, zech = ctx.exp, ctx.log, ctx.add_codes, ctx.zech
    M = ctx.order - 1
    G = M
    for lc, _ in terms:
        G = gcd(G, lc)
    P = ctx.p ** element_degree(FieldElement(ctx, exp[G % M]), ctx.p, ctx.m)
    out = [-1] * N
    for i in range(N):
        if out[i] < 0:  # i leads its orbit: sum there, power along the rest
            if zech is None:
                s = 0
                for lc, kj in terms:
                    s = add(s, exp[(lc + kj * i) % M])
                ls = log[s]
            else:
                ls = -1  # the partial sum's log, -1 while the sum is 0
                for lc, kj in terms:
                    lt = (lc + kj * i) % M  # lc may pass M: scale_log rides on it
                    if ls < 0:
                        ls = lt
                    else:
                        z = zech[lt - ls]  # lt - ls in (-M, M) indexes the length-M table
                        ls = (ls + z) % M if z >= 0 else -1
                s = exp[ls] if ls >= 0 else 0
            out[i] = s
            j = i * P % N
            while j != i:
                ls = ls * P % M
                out[j] = exp[ls] if s else 0
                j = j * P % N
    return out


def idft(f: CyclicFn, zeta: FieldElement) -> CyclicFn:
    """Inverse transform: N**(-1) times the transform based on zeta**(-1)."""
    _check_root(f, zeta)
    ctx = f.ctx
    zinv = FieldElement(ctx, ctx.inv_code(zeta.code))
    # N is invertible since N | order-1 forces gcd(N, p) = 1; N acts as the
    # prime-subfield constant N mod p, and its inverse is folded into the sum
    ninv = pow(f.N % ctx.p, ctx.p - 2, ctx.p)
    return _transform(f, zinv, ctx.log[ninv])


def pointwise_mul(f: CyclicFn, g: CyclicFn) -> CyclicFn:
    """The product (f g)(i) = f(i) g(i).

    The other side of the convolution theorem, dft(f (*) g) = dft(f) dft(g)
    pointwise, which acceptance test C6 checks on seeded functions.
    """
    _check_pair(f, g)
    mul = f.ctx.mul_codes
    return CyclicFn(f.ctx, [mul(a, b) for a, b in zip(f.codes, g.codes)])


def convolve(f: CyclicFn, g: CyclicFn) -> CyclicFn:
    """Cyclic convolution; iterates support pairs, result equals the double sum.

    No certification path calls it; tests and their oracles do.
    """
    _check_pair(f, g)
    ctx, N = f.ctx, f.N
    add, exp, log = ctx.add_codes, ctx.exp, ctx.log
    M = ctx.order - 1
    # the product cj * ck is exp[log cj + log ck - M]; the -M rides on sf's logs
    sf = [(j, log[c] - M) for j, c in enumerate(f.codes) if c]
    sg = [(k, log[c]) for k, c in enumerate(g.codes) if c]
    if len(sf) > len(sg):
        sf, sg = sg, sf
    out = [0] * N
    for j, lj in sf:
        for k, lk in sg:
            i = j + k
            if i >= N:
                i -= N
            out[i] = add(out[i], exp[lj + lk])
    return CyclicFn(ctx, out)


def conv_power(f: CyclicFn, m: int) -> CyclicFn:
    """m-th convolution power, with f**(*0) the Kronecker delta.

    No certification path calls it; tests and their oracles do.
    """
    if m < 0:
        raise ValueError("convolution power needs m >= 0")
    result = kronecker(f.ctx, f.N)
    base = f
    while m:
        if m & 1:
            result = convolve(result, base)
        m >>= 1
        if m:
            base = convolve(base, base)
    return result


def least_period_by_descent(N: int, is_period) -> int:
    """Least period of a function on Z_N, given a test for the shifts t | N.

    Prime descent: from r = N, for each prime l | N, replace r by r/l while
    `is_period(r/l)`.  The periods form the subgroup r0 * Z_N, so this ends
    at r0: after l's turn, l divides r exactly as often as it divides r0.
    """
    r = N
    for ell in _primes_of(N):
        while r % ell == 0 and is_period(r // ell):
            r //= ell
    return r


@lru_cache(maxsize=256)
def _primes_of(N: int) -> tuple[int, ...]:
    """The distinct primes of N, ascending, kept for the next descent over N."""
    return tuple(numtheory.prime_factors(N))


def least_period_of_sequence(vals) -> int:
    """Least period of an arbitrary cyclic sequence, by prime descent."""
    vals = list(vals)
    N = len(vals)
    _check_modulus(N)
    # a shift t | N is a period iff vals[i + t] = vals[i] for i < N - t; the
    # comparison stops at the first mismatch
    return least_period_by_descent(N, lambda t: vals[t:] == vals[:-t])


def least_period(f: CyclicFn) -> int:
    """Smallest positive r with f(i + r) = f(i) for all i; always divides N."""
    return least_period_of_sequence(f.codes)


def dft_period_by_support(s: SupportSet) -> int:
    """Least period of the transform of any f with supp(f) = s: N / gcd(N, s).

    The zero function (empty support) transforms to zero, least period 1.
    """
    g = s.N
    for m in s.members:
        g = gcd(g, m)
    return s.N // g


def shift(f: CyclicFn, k: int) -> CyclicFn:
    """The k-shift f_k(i) = f(i + k).

    Shifting leaves the least period unchanged, and f_k = f exactly when the
    least period divides k; acceptance test C6 checks both.
    """
    N = f.N
    codes = f.codes
    return CyclicFn(f.ctx, [codes[(i + k) % N] for i in range(N)])


def reversal(f: CyclicFn) -> CyclicFn:
    """The reversal f*(i) = f(-(1 + i)).

    An involution that leaves the least period unchanged, which acceptance
    test C6 checks.
    """
    return CyclicFn(f.ctx, tuple(reversed(f.codes)))


def compose_perm(f: CyclicFn, sigma) -> CyclicFn:
    """Apply a permutation of the value field to every value of f.

    `sigma` may be a dict (codes or elements) or a callable on elements; it
    must be a bijection of the whole value field.  A bijection leaves the
    least period unchanged, which acceptance test C6 checks.
    """
    ctx = f.ctx
    check_codes(ctx.order, f.codes, "value")
    table = [None] * ctx.order
    if isinstance(sigma, dict):
        for k, v in sigma.items():
            if any(isinstance(a, FieldElement) and a.ctx is not ctx for a in (k, v)):
                raise ValueError("mapping outside the value field")
            kc = k.code if isinstance(k, FieldElement) else k
            vc = v.code if isinstance(v, FieldElement) else v
            check_codes(ctx.order, (kc, vc), "value")
            table[kc] = vc
    elif callable(sigma):
        for code in range(ctx.order):
            out = sigma(FieldElement(ctx, code))
            if not isinstance(out, FieldElement) or out.ctx is not ctx:
                raise ValueError("callable must map the field to itself")
            table[code] = out.code
    else:
        raise ValueError("sigma must be a dict or a callable")
    if None in table or len(set(table)) != ctx.order:
        raise ValueError("sigma is not a bijection of the value field")
    return CyclicFn(ctx, [table[c] for c in f.codes])
