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
carries).  At x != 0 one level holds x, as its digit sum is k*w, so the
mask reads coef_k * (A_k(x) mod p) there, a residue a mod p being the
prime-subfield code a; slot 0 adds up every level.  `_mask_codes` forms
level k mod p from level k-1, by the pair loop while that is sparse and on
byte lanes of one big integer once it is dense, if no lane can carry, and
writes each level's codes in place.  C(q-1, k) mod p is the sign
(-1)**(base-p digit sum of k), by Lucas' theorem (`numtheory.top_binomials`).

mask_periods finds the least period of the same mask with no dense list, by a
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
digitsum(x) = k*w with every digit <= k.  Two families of points have a
known nonzero value.  For w digit positions S, mask(s) = coef_1 at
s = sum_S q**i if c != 0, and coef_{q-1} at s = (q-1) * sum_S q**i if c = 0
and w < n (`_certificate_tries`).  If q >= 3 and n >= w + 1, the split
points, q-1 at digits 0..w-2, a at w-1 and q-1-a at w, are on level q-1
with A_{q-1} = C(q-1, a), a sign mod p, so mask(s) = coef_{q-1} * C(q-1, a)
on either side of zero (`_split_tries`).  A nonzero (s +- t) mod N failing
the digit test proves t is no period; refuting T = (q**n - 1)/Phi_n(q) shows
r does not divide T, all the source paper's support lemma needs.  Only a
shift no certificate refutes reads counts: at n = 2, where N/2 at
(q odd, 2, 1, 0) is a true period, c = 0 with w = n, (2, 2, 1, 1), and rare
others like N/2 at (9, 7, 4, c != 0).  Over every prime power q < 130 and
N <= 2**24 the descent so proves r = N with no count at each regime II row
(q odd, w = n/2, c = 0) with n >= 4.  A count check reads every point that
passes the digit test, level by level.  The tries and each shift's verdict
depend on c only through whether it is zero, so `mask_periods`, given every
c of one (q, n, w), forms the first family once per side of zero and the
split family once per shift and side, for that call alone; the count
reader depends on c and is built per c.
`mask_period` is its one-c call; `shift_certificate` forms its tries anew.

A function on Z_{q^n-1} is q-symmetric when it is invariant under every
permutation of the base-q digits of its argument; phi_rho realizes one digit
permutation as a permutation of Z_{q^n-1}.  The maps phi_rho compose like
the permutations rho, so invariance under two generators of S_n is
invariance under all n! of them.  is_q_symmetric checks exactly that, for
every n, comparing whole slices of the value list for each generator
(`_fixed_by_generators`).  One mask settles it for every c at once: for
x != 0 the mask reads coef_k * A_k(x) at the one level k whose support
holds x, every coef_k is nonzero when c is, and both generators fix slot 0,
so `_counts_symmetric` runs the same slice rule over the c = 1 codes once
per (q, n, w), and over the c = 0 codes only if those are refused; a sweep
never calls delta_mask.
"""

from __future__ import annotations

import itertools
from array import array
from math import comb

from . import numtheory
from .cyclic import CyclicFn, SupportSet, least_period_by_descent
from .gf import (check_codes, check_field_order, check_modulus, check_n, check_q,
                 check_size, check_w, value_field)


def omega(q: int, n: int, w: int) -> SupportSet:
    """All k in Z_{q^n-1} with 0/1 digits of weight w; empty for (q, w) = (2, n)."""
    check_w(w, n, 0, n)
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


def _mask_codes(q: int, n: int, w: int, c: int):
    """The codes of delta_mask(q, n, w, c): ``bytes`` when q <= 256, else an array.

    The array takes the narrowest typecode that holds q (bytes slice and
    compare in C, an array element by element).  At x != 0 the mask reads
    coef_k * A_k(x) mod p at the one level k whose support holds x (module
    docstring), so each level writes its codes in place, and two levels
    with nonzero codes meeting at one point raise; slot 0 adds up 1 and
    every level's coef_k * A_k(0).  A_k = A_{k-1} (*) 1_Omega(w) is taken by
    the pair loop (`_pair_level`), one exp/log product per point, or on byte
    lanes (`_lane_level`), through a table of the level's p products, once
    A_{k-1} holds at least one point in 256 and every lane fits a byte: a
    level's sums, at most (p-1)*|Omega(w)| < 256, and the codes, q <= 256.
    On CPython 3.11 and a Xeon core a pair costs 170-480 ns and a lane
    level about (|Omega| + 8) ns per point, so the lanes win from N/400 to
    N/130 points on, over N from 15624 to 2**20 - 1 and |Omega| from 5 to
    252: a sparse level, as at w = 1 or q = 2, stays on the pair loop.
    Nothing is cached: a sweep reads it once or twice per (q, n, w')
    (`_counts_symmetric`).
    """
    ctx, coefs = _level_coefs(q, n, w, c)
    p, add, mul, exp, log = ctx.p, ctx.add_codes, ctx.mul_codes, ctx.exp, ctx.log
    support = omega(q, n, w)  # check_size refuses a huge n first
    N, members = support.N, support.members
    code = next(t for t in "BHI" if q <= 1 << 8 * array(t).itemsize)
    lanes = code == "B" and (p - 1) * len(members) < 256
    codes = bytearray(N) if code == "B" else array(code, [0]) * N
    slot, size, tags, level = add(1, coefs[0]), 0, 0, {0: 1}
    for k in range(1, q):
        coef = coefs[k]
        shift = log[coef] - q + 1  # coef * a is exp[shift + log[a]] for coef, a != 0
        # a level on lanes is all N points, so the lanes keep every level after it
        if lanes and len(level) * 256 >= N:
            level = _lane_level(p, N, members, level)
            if coef:
                size += N - 1 - level.count(0, 1)
                table = bytes([0, *[exp[shift + log[a]] for a in range(1, p)]])
                tags |= int.from_bytes(level.translate(table.ljust(256, b"\0")), "little")
            slot = add(slot, mul(coef, level[0]))
        else:
            level = _pair_level(p, N, members, level)
            if coef:
                size += len(level) - (0 in level)
                for i, a in level.items():
                    codes[i] = exp[shift + log[a]]
            slot = add(slot, mul(coef, level.get(0, 0)))
    # a pair level overwrites the codes, and the lane levels' codes join them by
    # OR, so two levels at one point leave one nonzero code where size counts two
    if tags:
        codes = bytearray((int.from_bytes(codes, "little") | tags).to_bytes(N, "little"))
    codes[0] = 0  # slot 0 apart from the count
    if codes.count(0) != N - size:
        raise ValueError(f"two levels of the counts of (q, n, w) = ({q}, {n}, {w}) "
                         "meet at one point")
    codes[0] = slot
    return bytes(codes) if code == "B" else codes


def _lane_level(p: int, N: int, members, level) -> bytes:
    """A_k mod p as N bytes, from A_{k-1}: a dict of its nonzero counts, or N bytes.

    The level is one byte per point of Z_N, read as one integer (Kronecker
    substitution): |Omega| shifted additions form A_{k-1} (*) 1_Omega, one
    fold adds the lanes past N to the lanes they wrap to, and one
    ``bytes.translate`` reduces every lane mod p.  No lane exceeds
    (p-1)*|Omega| < 256, so none carries into the next.
    """
    if not isinstance(level, bytes):
        dense = bytearray(N)
        for i, a in level.items():
            dense[i] = a
        level = dense
    a, acc, wrap = int.from_bytes(level, "little"), 0, 8 * N
    for t in members:
        acc += a << 8 * t
    low = (1 << wrap) - 1
    mod = (bytes(range(p)) * (256 // p + 1))[:256]  # v -> v mod p
    return ((acc & low) + (acc >> wrap)).to_bytes(N, "little").translate(mod)


def _pair_level(p: int, N: int, members, level) -> dict:
    """A_k mod p as a dict of its nonzero counts, from that of A_{k-1}.

    A_k(i) sums A_{k-1}(j) over the pairs (j, t), t in Omega, with j + t = i
    mod N, in plain ints, reduced mod p once per level.
    """
    acc = {}
    get = acc.get
    for j, a in level.items():
        for t in members:
            i = j + t
            if i >= N:
                i -= N
            acc[i] = get(i, 0) + a
    return {i: r for i, a in acc.items() if (r := a % p)}


def _check_mask_args(q: int, n: int, w: int, cs):
    """F_q, once every c of cs is an F_q code and w names a mask over it."""
    ctx = value_field(q)
    check_codes(q, cs, "c")
    check_w(w, n, 1, n)
    if q == 2 and w == n:
        raise ValueError("(q, w) = (2, n) has an empty weight set")
    return ctx


def _level_coefs(q: int, n: int, w: int, c: int):
    """F_q and the codes coef_k = -C(q-1, k) * s**k * (-c)**(q-1-k), k < q.

    The mask is delta_0 + sum_k coef_k * A_k (module docstring), with
    s = (-1)**w; both mask routes read their coefficients here, once
    `_check_mask_args` has accepted (q, n, w, c).
    """
    ctx = _check_mask_args(q, n, w, (c,))
    mul, neg = ctx.mul_codes, ctx.neg_code
    sign = 1 if w % 2 == 0 else neg(1)
    b = neg(c)
    binom = numtheory.top_binomials(q, ctx.p)
    # term = s**k * b**(q-1-k) as one running product from k = q - 1 down,
    # where it is s**(q-1) = 1 (q - 1 is even unless p = 2, where s = 1); s is
    # its own inverse, so each step multiplies by s * b.  C(q-1, k) is +-1 mod p
    coefs, term, step = [0] * q, 1, mul(sign, b)
    for k in reversed(range(q)):
        coefs[k] = neg(term) if binom[k] == 1 else term
        term = mul(term, step)
    return ctx, coefs


def delta_mask(q: int, n: int, w: int, c: int) -> CyclicFn:
    """The coefficient-prescription mask for (w, c) over F_q, c an F_q code.

    Defined as delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1)).
    Built as delta_0 plus the binomial expansion over the counts A_k
    (module docstring), level by level, by `_mask_codes`.  The pair
    (q, w) = (2, n) is excluded because Omega(n) is empty in characteristic 2.
    """
    return CyclicFn(value_field(q), _mask_codes(q, n, w, c))


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


def _certificate_tries(q: int, n: int, w: int, zero: bool):
    """The first family's tries (s, sign) of every shift at (q, n, w), one side of zero.

    s = low * sum_S q**i with low = q - 1 at c = 0, else 1, for the first two
    w-sets S: {0, ..., w-1} and, if n > w, {0, ..., w-2, w}; +t then -t.
    None at c = 0 with w = n, as s = N is 0 in Z_N.  The side is not low:
    at q = 2 both sides have low = 1, yet only c != 0 has tries at w = n.
    """
    if zero and w == n:
        return ()
    low = q - 1 if zero else 1
    s = low * (q ** w - 1) // (q - 1)
    points = (s, s + low * (q - 1) * q ** (w - 1)) if n > w else (s,)
    return tuple((x, sign) for x in points for sign in (1, -1))


def _split_tries(q: int, n: int, w: int, t: int):
    """The second family's tries (s, sign) for the shift t, on either side of zero.

    s has digit q-1 at positions 0..w-2, a at w-1 and q-1-a at w, 1 <= a <= q-2,
    so it is on level q-1: each of the q-1 rows of a 0/1 matrix with these
    column sums fills the w-1 full columns and one of the two split ones,
    so A_{q-1}(s) = C(q-1, a), a sign mod p by Lucas' theorem, and
    mask(s) = coef_{q-1} * C(q-1, a) != 0 whatever c is.  a is read from the
    digits t_{w-1}, t_w of t and their complements, at most 8 tries for any
    q.  None at q = 2 (no a), at n = w (no position w) or at n = 2, whose
    level-(q-1) points are the nonzero multiples of q-1: a shift by a
    multiple of q-1 keeps each of them on the digit test's set or at 0.
    """
    if q < 3 or n <= max(w, 2):
        return
    P = q ** (w - 1)
    tw1, tw = t // P % q, t // P // q % q
    for a in dict.fromkeys((tw, tw1, q - 1 - tw, q - 1 - tw1)):
        if 1 <= a <= q - 2:
            s = P - 1 + a * P + (q - 1 - a) * P * q
            yield s, 1
            yield s, -1


def _refute(q: int, n: int, w: int, low: int, tries, t: int):
    """The first try (s, sign) whose nonzero (s + sign*t) mod N fails the digit test."""
    N = q ** n - 1
    for s, sign in itertools.chain(tries, _split_tries(q, n, w, t)):
        d = numtheory.digits((s + sign * t) % N, q)  # none for x = 0
        k, rest = divmod(sum(d), w)
        if d and (rest or not low <= k < q or max(d) > k):
            return s, sign
    return None


def shift_certificate(q: int, n: int, w: int, c: int, t: int):
    """(s, sign) with mask(s) != 0 = mask(s + sign*t), or None; c: zero or not.

    s is a point of either family (module docstring); both are formed at each
    call, at most 12 tries whatever q is, and `mask_periods` shares the
    first family's per side of zero.
    """
    # no check_size of q**n: the digits of one integer are cheap past any cap
    check_field_order(q)
    check_codes(q, (c,), "c")
    check_w(w, n, 1, n)
    return _refute(q, n, w, 1 if c else q - 1, _certificate_tries(q, n, w, not c), t)


def mask_periods(q: int, n: int, w: int, cs) -> list[int]:
    """The least period of delta_mask(q, n, w, c) for each c of the collection cs.

    The prime descent of ``cyclic.least_period_by_descent`` per c, with no
    dense mask.  A shift's certificate (`_refute`) is read from one verdict
    table per side of zero; only a shift that none refutes goes to that c's
    ``MaskPoints``, built at the first such shift.
    """
    _check_mask_args(q, n, w, cs)
    tables = {}  # c zero or not -> (low, tries, the certificate of each shift met)
    periods = []
    for c in cs:
        side = not c
        if side not in tables:
            tables[side] = (q - 1 if side else 1, _certificate_tries(q, n, w, side), {})
        low, tries, verdicts = tables[side]
        points = None

        def is_period(t):
            nonlocal points
            if t not in verdicts:
                verdicts[t] = _refute(q, n, w, low, tries, t)
            if verdicts[t]:
                return False
            points = points or MaskPoints(q, n, w, c)
            return points.has_period(t)

        periods.append(least_period_by_descent(q ** n - 1, is_period))
    return periods


def mask_period(q: int, n: int, w: int, c: int) -> int:
    """The least period of delta_mask(q, n, w, c): the one-c call of `mask_periods`."""
    return mask_periods(q, n, w, (c,))[0]


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
    check_q(q)  # Z_{q^n-1} would be Z_0 or worse
    check_n(n, 1)
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

    delta_mask(q, n, w, c) at x != 0 is coef_k * A_k(x), at the one level k
    whose support holds x (module docstring), and both generators fix slot 0
    and keep the digit sum, so the level.  For c != 0 every coef_k is
    nonzero (C(q-1, k) is a sign mod p), so every such mask tells apart
    exactly the points the c = 1 mask does, and the c = 1 verdict is
    theirs.  A c = 0 mask reads level q - 1 alone, so it is symmetric when
    the c = 1 mask is; its own codes are read only when the c = 1 codes are
    refused.
    """
    if _fixed_by_generators(_mask_codes(q, n, w, 1), q, n):
        return True, True
    return False, _fixed_by_generators(_mask_codes(q, n, w, 0), q, n)
