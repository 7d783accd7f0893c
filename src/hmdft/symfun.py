"""Digit-weight sets, their indicator functions and q-digit utilities.

Omega(w) collects the elements of Z_{q^n-1} whose canonical representative
has base-q digits in {0, 1} with exactly w ones; delta_w is its F_q-valued
indicator.  These indicators are what the transform machinery turns into
coefficient information: lifted into F_{q^n} by `Embedding.lift_codes`, the
transform of delta_w at k equals the w-th characteristic elementary
symmetric value at zeta**k.

delta_mask(q, n, w, c) builds the coefficient-prescription mask
    delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1))
whose least period exceeding the cyclotomic threshold certifies a monic
irreducible of degree n whose coefficient of x**(n-w) equals c.  Masks and
indicators take their values in F_q (`gf.value_field`), and c is always an
F_q code in [0, q), as in every report.

delta_mask never powers by convolution in the field.  With s = (-1)**w and
b = -c, the binomial theorem gives
    delta_mask = delta_0 - sum_k C(q-1, k) * s**k * b**(q-1-k) * A_k,
where A_k is the k-fold convolution power of the 0/1 indicator of Omega(w)
read over the integers: A_k(i) counts the k-tuples of Omega(w) summing to i,
that is, for i != 0, the 0/1 matrices with k rows of weight w and column
sums the digits of i (for k <= q-1 adding weight-w 0/1 digit vectors never
carries).  The counts do not depend on c, so they are built once per
(q, n, w), reduced mod p, and every c combines the same counts through a
p-entry value table per k: a residue r mod p is the prime-subfield code r.
C(q-1, k) mod p is the sign (-1)**(base-p digit sum of k), by Lucas'
theorem (`numtheory.top_binomials`).

mask_period finds the least period of the same mask with no dense list, by a
second route.  It reads the mask one point at a time (MaskPoints): for x != 0
the digit sum fixes the level k, and A_k(x) mod p is counted row by row over
the sorted nonzero digits of x, memoised per reader.  So the two routes count
A_k independently and each checks the other's counts; they share the rest:
both take F_q and their argument checks (`_check_mask_args`) and every
level's coefficient from `_level_coefs`, which reads C(q-1, k) mod p from
`numtheory.top_binomials`.  r also follows with no digit, count or
binomial: the transform of the mask is the indicator of the exponents k
whose zeta**k has the prescribed coefficient, and r = N / gcd(N, those k).
The least period is found by the prime descent of
`cyclic.least_period_by_descent`, the one least-period algorithm of the
package: a shift t is a period iff mask(s + t) = mask(s) at every support
point s.  The dense route stays for `delta` and `dft --c`.

Most shifts are refuted with no count.  For x != 0, mask(x) != 0 needs
A_k(x) != 0 at a level whose coefficient is nonzero (1 <= k < q if c != 0,
k = q-1 if c = 0), so, as k < q weight-w 0/1 vectors add with no carry,
digitsum(x) = k*w with every digit <= k.  For w digit positions S,
mask(s) = coef_1 != 0 at s = sum_S q**i if c != 0, and coef_{q-1} != 0 at
s = (q-1) * sum_S q**i if c = 0 and w < n.  A nonzero (s +- t) mod N failing
the digit test proves t is no period; refuting T = (q**n - 1)/Phi_n(q) shows
r does not divide T, all the source paper's support lemma needs.  Only a
shift `shift_certificate` leaves open reads counts: a true period (N/2 at
c = 0, w = n/2, q odd), c = 0 with w = n, or a few like (2, 2, 1, 1).  Its
check reads every point that passes the digit test, level by level.  The
tries and each shift's verdict depend on c only through whether it is zero,
so they are formed once per (q, n, w, c zero or not) and shared by every c
of a sweep's (q, n, w); the count reader depends on c and is built per row.

A function on Z_{q^n-1} is q-symmetric when it is invariant under every
permutation of the base-q digits of its argument; phi_rho realizes one digit
permutation as a permutation of Z_{q^n-1}.  The maps phi_rho compose like
the permutations rho, so invariance under two generators of S_n is
invariance under all n! of them.  is_q_symmetric checks exactly that, for
every n, comparing whole slices of the value list for each generator
(`_fixed_by_generators`).  The counts A_k settle it for every c at once:
for x != 0 the mask reads coef_k * A_k(x) at the one level k whose support
holds x, and both generators fix slot 0, so `_counts_symmetric` runs the
same slice rule once per (q, n, w) over a key of the counts, and a sweep
builds no dense mask.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from . import numtheory
from .cyclic import CyclicFn, SupportSet, least_period_by_descent
from .gf import check_modulus, check_size, value_field


def omega(q: int, n: int, w: int) -> SupportSet:
    """All k in Z_{q^n-1} with 0/1 digits of weight w; empty for (q, w) = (2, n)."""
    if not 0 <= w <= n:
        raise ValueError(f"w={w} outside [0, {n}]")
    N = check_size(q, n)
    if q == 2 and w == n:
        # the full-weight sum 2**n - 1 wraps to 0, which has weight 0
        return SupportSet(N, ())
    powers = [q ** i for i in range(n)]
    return SupportSet(N, map(sum, itertools.combinations(powers, w)))


def delta(q: int, n: int, w: int) -> CyclicFn:
    """Indicator of Omega(w) on Z_{q^n-1}, with values {0, 1} in F_q."""
    ctx = value_field(q)
    support = omega(q, n, w)
    return CyclicFn.from_support(ctx, support.N, support.members)


@lru_cache(maxsize=1)
def _weight_counts(q: int, n: int, w: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The counts A_0, ..., A_{q-1} mod p as sparse (index, count) pairs.

    A_k = A_{k-1} (*) 1_Omega(w), accumulated in plain ints and reduced mod p
    once per level; pairs whose count vanishes mod p are dropped.  One entry
    is cached: `delta_mask` for every c of one (q, n, w) in a row reads it
    once.
    """
    p = numtheory.prime_power(q)[0]
    support = omega(q, n, w)  # check_size refuses a huge n first
    N, members = support.N, support.members
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


def _check_mask_args(q: int, n: int, w: int, c: int):
    """F_q, once c is an F_q code and (w, c) names a mask over it."""
    ctx = value_field(q)
    if not 0 <= c < q:
        raise ValueError(f"c={c} is not an F_{q} code")
    if not 1 <= w <= n:
        raise ValueError(f"w={w} outside [1, {n}]")
    if q == 2 and w == n:
        raise ValueError("(q, w) = (2, n) has an empty weight set")
    return ctx


def _level_coefs(q: int, n: int, w: int, c: int):
    """F_q and the codes coef_k = -C(q-1, k) * s**k * (-c)**(q-1-k), k < q.

    The mask is delta_0 + sum_k coef_k * A_k (module docstring), with
    s = (-1)**w; both mask routes read their coefficients here, once
    `_check_mask_args` has accepted (q, n, w, c).
    """
    ctx = _check_mask_args(q, n, w, c)
    mul, power, neg = ctx.mul_codes, ctx.pow_code, ctx.neg_code
    sign = 1 if w % 2 == 0 else neg(1)
    b = neg(c)
    binom = numtheory.top_binomials(q, ctx.p)
    return ctx, [neg(mul(binom[k], mul(power(sign, k), power(b, q - 1 - k))))
                 for k in range(q)]


def delta_mask(q: int, n: int, w: int, c: int) -> CyclicFn:
    """The coefficient-prescription mask for (w, c) over F_q, c an F_q code.

    Defined as delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1)).
    Built as delta_0 plus the binomial expansion over the shared counts A_k
    (module docstring): term k scatters coef_k * A_k (`_level_coefs`)
    through a table of its p values.  The pair (q, w) = (2, n) is excluded
    because Omega(n) is empty in characteristic 2.
    """
    ctx, coefs = _level_coefs(q, n, w, c)
    levels = _weight_counts(q, n, w)  # first: omega's check_size refuses a huge n
    p, add, mul = ctx.p, ctx.add_codes, ctx.mul_codes
    out = [0] * (q ** n - 1)
    out[0] = 1
    for coef, level in zip(coefs, levels):
        if not coef:
            continue
        value = [mul(coef, r) for r in range(p)]
        for i, a in level:  # only slot 0 can recur: A_k(i) != 0 forces digitsum(i) = k*w
            out[i] = add(out[i], value[a]) if out[i] else value[a]
    return CyclicFn(ctx, out)


def _compositions(total: int, caps):
    """Every tuple j with sum total and 0 <= j[v] <= caps[v] (caps nonempty)."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = caps[1:]
    for j in range(max(0, total - sum(rest)), min(total, caps[0]) + 1):
        for tail in _compositions(total - j, rest):
            yield (j,) + tail


class MaskPoints:
    """The prescription mask for (w, c), read one point at a time.

    For x != 0 with base-q digits d, mask(x) = coef_k * A_k(d) with
    k = digitsum(x)/w and coef_k from `_level_coefs`; A_k(d) vanishes unless
    w | digitsum(x), k < q and every digit is <= k.  Slot 0 holds 1, the
    level-0 term coef_0 and, when w = n, the all-(q-1) vector of level q-1
    (one matrix, all ones), whose sum q**n - 1 wraps to 0.  A_k(d) mod p is
    counted row by row over the sorted nonzero digits of d (`_count`),
    memoised in one dict per reader, so every point of a mask, at every shift
    of a descent, shares it.
    """

    __slots__ = ("q", "n", "w", "N", "_p", "_slot0", "_coef", "_mul", "_memo")

    def __init__(self, q: int, n: int, w: int, c: int):
        ctx, coef = _level_coefs(q, n, w, c)
        add = ctx.add_codes
        self.q, self.n, self.w, self.N, self._p = q, n, w, q ** n - 1, ctx.p
        self._slot0 = add(add(1, coef[0]), coef[q - 1] if w == n else 0)
        self._coef, self._mul = coef, ctx.mul_codes
        self._memo = {(): 1}

    def _count(self, top: tuple) -> int:
        """A_k mod p for the sorted nonzero column sums top, k = sum(top)/w.

        Each row picks w columns, j_v of the m_v columns holding v, in
        prod C(m_v, j_v) ways, and leaves the sums lowered by one there; a
        margin with fewer than w nonzero columns counts 0.  The margins below
        top are found level by level, then summed from the lowest level up,
        so no recursion depth grows with q.
        """
        memo, w = self._memo, self.w
        pending, level = {}, [top]
        while level:
            below = {}
            for state in level:
                if state in memo or state in pending:
                    continue
                kids = pending[state] = []
                groups = [(v, len(list(g))) for v, g in itertools.groupby(state)]
                for j in _compositions(w, [mv for _, mv in groups]):
                    kid, weight = [], 1
                    for (v, mv), jv in zip(groups, j):
                        kid += [v - 1] * jv + [v] * (mv - jv)
                        weight *= comb(mv, jv)
                    kid = tuple(kid[j[0]:] if state[0] == 1 else kid)  # the lowered 1s lead
                    kids.append((weight, kid))
                    below[kid] = None
            level = below
        for state, kids in reversed(pending.items()):
            memo[state] = sum(a * memo[kid] for a, kid in kids) % self._p
        return memo[top]

    def __call__(self, x: int) -> int:
        """The value code of the mask at x in [0, q**n - 1)."""
        if not x:
            return self._slot0
        d = numtheory.digits(x, self.q)
        k, rest = divmod(sum(d), self.w)
        if rest or k >= self.q or max(d) > k or not self._coef[k]:
            return 0
        return self._mul(self._coef[k], self._count(tuple(sorted(filter(None, d)))))

    def support(self):
        """(s, mask(s)) for every s with mask(s) != 0, level by level.

        The candidates at level k are the digit vectors with digits <= k and
        sum k*w, the only points where A_k can be nonzero.
        """
        if self._slot0:
            yield 0, self._slot0
        powers = [self.q ** i for i in range(self.n)]
        count, mul, N = self._count, self._mul, self.N
        for k, coef in enumerate(self._coef):
            if not (k and coef):
                continue
            for d in _compositions(k * self.w, [k] * self.n):
                code = mul(coef, count(tuple(sorted(filter(None, d)))))
                if code:
                    s = sum(v * P for v, P in zip(d, powers))
                    if s != N:  # the all-(q-1) vector is slot 0
                        yield s, code

    def has_period(self, t: int) -> bool:
        """Whether mask(s + t) = mask(s) at every support point s.

        Exact: the shift by t is a bijection of Z_N, so if it maps the
        support into itself it maps it onto itself, and every point off the
        support goes off the support too.
        """
        N = self.N
        return all(self((s + t) % N) == code for s, code in self.support())


CERTIFICATE_TRIES = 4  # (S, sign) per shift: the first two w-sets S, +t then -t


@lru_cache(maxsize=2)
def _certificate_tries(q: int, n: int, w: int, zero: bool):
    """The tries (s, sign) of every shift at (q, n, w, c zero or not), and their verdicts.

    s = low * sum_S q**i with low = q - 1 at c = 0, else 1; at c = 0 with
    w = n there is none, as s = N is 0 in Z_N.  The key is whether c is
    zero, not low: at q = 2 both give low = 1, yet only c != 0 has tries at
    w = n.  The dict memoises each shift's verdict.  Two entries are cached:
    a sweep asks for every c of one (q, n, w) in a row.
    """
    low = q - 1 if zero else 1
    subsets = itertools.combinations(range(n), w) if not zero or w < n else ()
    tries = ((low * sum(q ** i for i in S), sign) for S in subsets for sign in (1, -1))
    return tuple(itertools.islice(tries, CERTIFICATE_TRIES)), {}


def _refute(q: int, n: int, w: int, low: int, tries, t: int):
    """The first try (s, sign) whose nonzero (s + sign*t) mod N fails the digit test."""
    N = q ** n - 1
    for s, sign in tries:
        d = numtheory.digits((s + sign * t) % N, q)  # none for x = 0
        k, rest = divmod(sum(d), w)
        if d and (rest or not low <= k < q or max(d) > k):
            return s, sign
    return None


def shift_certificate(q: int, n: int, w: int, c: int, t: int):
    """(s, sign) with mask(s) != 0 = mask(s + sign*t), or None; c: zero or not.

    The tries and each shift's verdict are shared by every c of one
    (q, n, w) on the same side of zero (`_certificate_tries`).
    """
    # no check_size: the digits of one integer are cheap past any cap
    if q < 2:
        raise ValueError(f"q must be at least 2, not q={q}")
    if not 1 <= w <= n:
        raise ValueError(f"w={w} outside [1, {n}]")
    tries, verdicts = _certificate_tries(q, n, w, not c)
    if t not in verdicts:
        verdicts[t] = _refute(q, n, w, 1 if c else q - 1, tries, t)
    return verdicts[t]


def mask_period(q: int, n: int, w: int, c: int) -> int:
    """The least period of delta_mask(q, n, w, c), with no dense mask.

    The prime descent of ``cyclic.least_period_by_descent``; a shift with no
    ``shift_certificate`` goes to ``MaskPoints.has_period``, built once.  The
    certificates' tries and verdicts are shared with every row of the same
    (q, n, w) and c zero or not; the reader is this row's alone.
    """
    _check_mask_args(q, n, w, c)
    points = None

    def is_period(t):
        nonlocal points
        if shift_certificate(q, n, w, c, t):
            return False
        points = points or MaskPoints(q, n, w, c)
        return points.has_period(t)

    return least_period_by_descent(q ** n - 1, is_period)


def _check_perm(rho, n: int) -> tuple[int, ...]:
    rho = tuple(rho)
    if sorted(rho) != list(range(n)):
        raise ValueError(f"not a permutation of [0, {n - 1}]")
    return rho


def phi_rho(rho, k: int, q: int, n: int) -> int:
    """Permute the base-q digits of k by rho: digit i of the image is digit rho(i).

    The action of S_n on Z_{q^n-1} behind q-symmetry: a function is
    q-symmetric when it is invariant under every phi_rho (`is_q_symmetric`).
    Each phi_rho is additive on pairs whose digits add with no carry, which
    acceptance test C7 checks, together with the q-symmetry of the weight
    indicators and their convolution powers.
    """
    rho = _check_perm(rho, n)
    if q < 2 or n < 1:  # Z_{q^n-1} would be Z_0 or worse
        raise ValueError(f"phi_rho needs q >= 2 and n >= 1, not q={q}, n={n}")
    d = numtheory.digits(k % (q ** n - 1), q, n)
    v = 0
    for i in reversed(range(n)):
        v = v * q + d[rho[i]]
    return v


def _fixed_by_generators(codes, q: int, n: int) -> bool:
    """Whether the list codes on Z_{q^n-1} is fixed by both generators of S_n.

    The n-cycle is multiplication by q and the transposition (0 1) swaps the
    two lowest digits.  Both checks compare whole slices, so
    codes[phi(s)] = codes[s] is tested at every point s: with top digit b and
    Q = q**(n-1), s = b*Q + s' goes to q*s' + b, so the block
    codes[b*Q:(b+1)*Q] must equal codes[b::q]; and the points with lowest
    digits (d0, d1) must read as those with (d1, d0).  One digit has no
    permutation to break.
    """
    if n == 1:
        return True
    Q, qq = q ** (n - 1), q * q
    return (all(codes[b * Q:(b + 1) * Q] == codes[b::q] for b in range(q))
            and all(codes[d0 + d1 * q::qq] == codes[d1 + d0 * q::qq]
                    for d1 in range(q) for d0 in range(d1)))


def is_q_symmetric(f: CyclicFn, q: int, n: int) -> bool:
    """Whether f is invariant under every digit permutation of its argument.

    Exact for every n, from two permutations only: phi_rho is an action of
    S_n on Z_{q^n-1}, and the transposition (0 1) and the n-cycle generate
    S_n, so invariance under these two (`_fixed_by_generators`) gives
    invariance under all n!.  A sweep reads the counts instead
    (`_counts_symmetric`); the tests keep this as the dense oracle.
    """
    check_modulus(f.N, q, n, "function")
    return _fixed_by_generators(f.codes, q, n)


def _counts_symmetric(q: int, n: int, w: int) -> tuple[bool, bool]:
    """Whether the masks of (q, n, w) are q-symmetric: (every c != 0, c = 0).

    One dense key: 0 off the support and at slot 0, and k*p + a at x != 0
    where A_k(x) = a != 0 mod p, a single level at each x (module
    docstring).  delta_mask(q, n, w, c) at x != 0 is coef_k * a, and both
    generators fix slot 0 and keep the digit sum, so the level.  For c != 0
    every coef_k is nonzero (C(q-1, k) is a sign mod p), so the mask tells
    apart exactly the points the key does, and the key's verdict is the
    mask's.  A c = 0 mask reads level q - 1 alone, the key values
    >= (q - 1)*p; a key refused in full is read again at that level alone.
    """
    p = numtheory.prime_power(q)[0]
    key = [0] * (q ** n - 1)
    for k, level in enumerate(_weight_counts(q, n, w)):
        for i, a in level:
            key[i] = k * p + a
    key[0] = 0
    if _fixed_by_generators(key, q, n):
        return True, True
    top = (q - 1) * p
    return False, _fixed_by_generators([v if v >= top else 0 for v in key], q, n)
