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
indicators take their values in F_q (`make_field(*prime_power(q))`), and c
is always an F_q code in [0, q), as in every report.

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

mask_period finds the least period of the same mask with no dense list, by a
second route that shares no code with delta_mask, so that each checks the
other.  Since A_k(i) depends only on the multiset of digits of i, a count
table per (q, n, w) holds A_k mod p for each digit multiset, built by an
exact recurrence on multiplicity vectors.  MaskPoints reads that table in
place: per c it computes the q binomial coefficients alone, reads mask(i)
by one lookup of the multiset of i, and walks the support multiset by
multiset, skipping those whose value is 0.  The least period is then found
by the prime descent of `cyclic.least_period_by_descent`, the one
least-period algorithm of the package: a shift t is a period iff
mask(s + t) = mask(s) at every support point s.  The dense route stays for
`delta`, `dft --c` and the symmetry check.

Most shifts are refuted with no count table.  For x != 0, mask(x) != 0
needs A_k(x) != 0 at a level whose coefficient is nonzero (1 <= k < q if
c != 0, k = q-1 if c = 0), so, as k < q weight-w 0/1 vectors add with no
carry, digitsum(x) = k*w with every digit <= k.  For w digit positions S,
mask(s) = coef_1 != 0 at s = sum_S q**i if c != 0, and coef_{q-1} != 0 at
s = (q-1) * sum_S q**i if c = 0 and w < n.  A nonzero (s +- t) mod N failing
the digit test proves t is no period; refuting T = (q**n - 1)/Phi_n(q) shows
r does not divide T, all the source paper's support lemma needs.  Only a
shift `shift_certificate` leaves open builds the count table: a true period
(N/2 at c = 0, w = n/2, q odd), c = 0 with w = n, or a few like (2, 2, 1, 1).

A function on Z_{q^n-1} is q-symmetric when it is invariant under every
permutation of the base-q digits of its argument; phi_rho realizes one digit
permutation as a permutation of Z_{q^n-1}.  The maps phi_rho compose like
the permutations rho, so invariance under two generators of S_n is
invariance under all n! of them.  is_q_symmetric checks exactly that, for
every n, comparing whole slices of the value list for each generator.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import numtheory
from .cyclic import CyclicFn, SupportSet, least_period_by_descent
from .errors import BadPermutationError, ExcludedCaseError, WeightRangeError
from .gf import check_size, make_field


class DigitVector(NamedTuple):
    """Canonical representative k with its base-q digits, little-endian."""

    k: int
    digits: tuple[int, ...]

    @property
    def digit_sum(self) -> int:
        return sum(self.digits)


def omega(q: int, n: int, w: int) -> SupportSet:
    """All k in Z_{q^n-1} with 0/1 digits of weight w; empty for (q, w) = (2, n)."""
    if not 0 <= w <= n:
        raise WeightRangeError(f"w={w} outside [0, {n}]")
    N = check_size(q, n)
    if q == 2 and w == n:
        # the full-weight sum 2**n - 1 wraps to 0, which has weight 0
        return SupportSet(N, ())
    powers = [q ** i for i in range(n)]
    return SupportSet(N, map(sum, itertools.combinations(powers, w)))


def _value_field(q: int):
    """F_q, where masks and indicators take their values; a huge q is never factored."""
    check_size(q, 1, field=True)
    return make_field(*numtheory.prime_power(q))


def delta(q: int, n: int, w: int) -> CyclicFn:
    """Indicator of Omega(w) on Z_{q^n-1}, with values {0, 1} in F_q."""
    ctx = _value_field(q)
    support = omega(q, n, w)
    return CyclicFn.from_support(ctx, support.N, support.members)


@lru_cache(maxsize=1)
def _weight_counts(q: int, n: int, w: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The counts A_0, ..., A_{q-1} mod p as sparse (index, count) pairs.

    A_k = A_{k-1} (*) 1_Omega(w), accumulated in plain ints and reduced mod p
    once per level; pairs whose count vanishes mod p are dropped.  One entry
    is cached: a sweep asks for every c of one (q, n, w) in a row.
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
    ctx = _value_field(q)
    if not 0 <= c < q:
        raise ValueError(f"c={c} is not an F_{q} code")
    if not 1 <= w <= n:
        raise WeightRangeError(f"w={w} outside [1, {n}]")
    if q == 2 and w == n:
        raise ExcludedCaseError("(q, w) = (2, n) has an empty weight set")
    return ctx


def delta_mask(q: int, n: int, w: int, c: int) -> CyclicFn:
    """The coefficient-prescription mask for (w, c) over F_q, c an F_q code.

    Defined as delta_0 - ((-1)**w * delta_w - c * delta_0) ** (*(q-1)).
    Built as delta_0 minus the binomial expansion over the shared counts A_k
    (module docstring): term k scatters C(q-1, k) * s**k * (-c)**(q-1-k) * A_k
    through a table of its p values.  The pair (q, w) = (2, n) is excluded
    because Omega(n) is empty in characteristic 2.
    """
    ctx = _check_mask_args(q, n, w, c)
    levels = _weight_counts(q, n, w)
    p, m = ctx.p, q - 1
    add, mul, power, neg = ctx.add_codes, ctx.mul_codes, ctx.pow_code, ctx.neg_code
    sign = 1 if w % 2 == 0 else neg(1)
    b = neg(c)
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


@lru_cache(maxsize=1)
def _multiset_counts(q: int, n: int, w: int) -> dict[int, tuple[int, int, tuple]]:
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
    One entry is cached, for the MaskPoints of several c of one (q, n, w).
    """
    p = numtheory.prime_power(q)[0]
    B = n + 1
    level = {(n,) + (0,) * (q - 1): 1}
    table = {}
    for k in range(1, q):
        acc = {}
        for mu, a in level.items():
            held = [v for v in range(k) if mu[v]]
            for j in _compositions(w, [mu[v] for v in held]):
                lam = list(mu)
                for v, jv in zip(held, j):
                    lam[v] -= jv
                    lam[v + 1] += jv
                weight = a
                for v, jv in zip(held, j):
                    weight *= comb(lam[v + 1], jv)
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


class MaskPoints:
    """The prescription mask for (w, c), read at points instead of as a list.

    For i != 0 with digit multiset lam, mask(i) = coef_k * A_k(lam) with
    k = digitsum(i)/w and coef_k = -C(q-1, k) * s**k * (-c)**(q-1-k) (module
    docstring); A_k vanishes unless w | digitsum(i) and every digit is <= k.
    Slot 0 holds 1, the level-0 term coef_0, and, when w = n, the all-(q-1)
    vector of level q-1, whose sum q**n - 1 wraps to 0.  The count table of
    (q, n, w) is read in place, so a build computes the q coefficients and
    slot 0 only: `self(i)` looks up the multiset key of i, and `support()`
    walks the table once, yielding every nonzero point.
    """

    __slots__ = ("q", "n", "N", "_slot0", "_coef", "_mul", "_table", "_inc")

    def __init__(self, q: int, n: int, w: int, c: int):
        ctx = _check_mask_args(q, n, w, c)
        table = _multiset_counts(q, n, w)
        p, m = ctx.p, q - 1
        add, mul, power, neg = ctx.add_codes, ctx.mul_codes, ctx.pow_code, ctx.neg_code
        sign = 1 if w % 2 == 0 else neg(1)
        b = neg(c)
        coef = [neg(mul(comb(m, k) % p, mul(power(sign, k), power(b, m - k))))
                for k in range(q)]
        # the all-(q-1) multiset is in the table only when w = n
        full = table.get(n * (n + 1) ** m, (m, 0, ()))[1]
        self.q, self.n, self.N = q, n, q ** n - 1
        self._slot0 = add(add(1, coef[0]), mul(coef[m], full))
        self._coef, self._mul, self._table = coef, mul, table
        self._inc = [(n + 1) ** v - 1 for v in range(q)]

    def __call__(self, i: int) -> int:
        """The value code of the mask at i in [0, q**n - 1)."""
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
        """(s, mask(s)) for every s with mask(s) != 0, level by level."""
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

    def has_period(self, t: int) -> bool:
        """Whether mask(s + t) = mask(s) at every support point s.

        Exact: the shift by t is a bijection of Z_N, so if it maps the
        support into itself it maps it onto itself, and every point off the
        support goes off the support too.
        """
        N = self.N
        return all(self((s + t) % N) == code for s, code in self.support())


CERTIFICATE_TRIES = 4  # (S, sign) per shift: the first two w-sets S, +t then -t


def shift_certificate(q: int, n: int, w: int, c: int, t: int):
    """(s, sign) with mask(s) != 0 = mask(s + sign*t), or None; c: zero or not."""
    # no check_size: the digits of one integer are cheap past any cap
    if q < 2:
        raise ValueError(f"q must be at least 2, not q={q}")
    if not 1 <= w <= n:
        raise WeightRangeError(f"w={w} outside [1, {n}]")
    N, low = q ** n - 1, 1 if c else q - 1
    subsets = itertools.combinations(range(n), w) if c or w < n else ()  # else s = N, 0 in Z_N
    tries = ((S, sign) for S in subsets for sign in (1, -1))
    for S, sign in itertools.islice(tries, CERTIFICATE_TRIES):
        s = low * sum(q ** i for i in S)
        d = numtheory.digits((s + sign * t) % N, q)  # none for x = 0
        k, rest = divmod(sum(d), w)
        if d and (rest or not low <= k < q or max(d) > k):
            return s, sign
    return None


def mask_period(q: int, n: int, w: int, c: int) -> int:
    """The least period of delta_mask(q, n, w, c), with no dense mask.

    The prime descent of ``cyclic.least_period_by_descent``; a shift with no
    ``shift_certificate`` goes to ``MaskPoints.has_period``, built once.
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


def digits(k: int, q: int, n: int) -> DigitVector:
    """Base-q digits of the canonical representative of k in Z_{q^n-1}."""
    if q < 2 or n < 1:  # Z_{q^n-1} would be Z_0 or worse
        raise ValueError(f"digits need q >= 2 and n >= 1, not q={q}, n={n}")
    k %= q ** n - 1
    return DigitVector(k, tuple(numtheory.digits(k, q, n)))


def _check_perm(rho, n: int) -> tuple[int, ...]:
    rho = tuple(rho)
    if sorted(rho) != list(range(n)):
        raise BadPermutationError(f"not a permutation of [0, {n - 1}]")
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
    n-cycle is multiplication by q and (0 1) swaps the two lowest digits.
    Both checks compare whole slices, so f(phi(s)) = f(s) is tested at every
    point s: with top digit b and Q = q**(n-1), s = b*Q + s' goes to
    q*s' + b, so the block codes[b*Q:(b+1)*Q] must equal codes[b::q]; and the
    points with lowest digits (d0, d1) must read as those with (d1, d0).
    """
    N = q ** n - 1
    if f.N != N:
        raise ValueError(f"function modulus {f.N} is not q**n - 1 = {N}")
    if n == 1:
        return True
    codes = f.codes
    Q, qq = q ** (n - 1), q * q
    return (all(codes[b * Q:(b + 1) * Q] == codes[b::q] for b in range(q))
            and all(codes[d0 + d1 * q::qq] == codes[d1 + d0 * q::qq]
                    for d1 in range(q) for d0 in range(d1)))
