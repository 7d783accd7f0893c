"""Exact arithmetic in finite fields F_{p^m} with deterministic construction.

Representation
--------------
An element with coefficient vector (c_0, ..., c_{m-1}) over F_p (c_i the
coefficient of the i-th power of the generator) is stored as the packed
integer code sum(c_i * p**i).  Codes 0..p-1 are therefore exactly the prime
subfield and code p is the residue class of x modulo the field's modulus.

Construction is deterministic: ``make_field(p, m)`` always picks the
canonically-first monic irreducible modulus of degree m (coefficient vectors
enumerated as ``numtheory.digits`` expands a code, constant term fastest)
and the canonically-first primitive element zeta, so identical parameters
yield identical tables on every run.  ``_modulus`` decides candidates by
``_ben_or`` alone, Ben-Or's test with a root test as its degree-1 step, and
``_zeta`` a linear one by its norm and ``x_pow_mod``, powering by
``pow_mod`` only from degree 2.  It is one step: the
``FieldCtx`` constructor finds zeta, builds the tables and binds the adder.
Every constructible field (order up to ``FIELD_ORDER_CAP``) is table-backed:
discrete exp/log tables make multiplication, inversion and powering O(1)
lookups.

The exp table of an extension field is built with the F_p-linear map
"multiply by zeta" (``FieldCtx._finish``).  For p = 2 a code word is a bit
vector and adding is XOR, so multiplying by zeta**L is linear too:
``_doubling_exp`` walks the first 512 powers, two list lookups and one XOR
each, then appends the next L packed in bytes as zeta**L times the first L,
one ``bytes.translate`` per pair of byte planes and one XOR of packed ints
per output plane, with no Python step per entry.  Every field of
characteristic 2 keeps that ``array`` as ``packed_exp`` (None for odd p),
M*w bytes: 128 KB at 2^16, 4 MB at 2^20.  For odd p the walk is
tabled for the low and the high half of the digits: its state holds one bit
lane per base-p digit, two split-table lookups and one integer add per
entry, and the walk stops at zeta**K, K = (order - 1)/(p - 1): that
power, the norm of zeta, is a constant g, so each further block of K powers
is the one before times g, one table lookup per entry.  Either route's
first tables are sums of the m columns zeta*x**i, m - 1 polynomial products
in all; a prime field walks s -> s*zeta mod p.  Every route ends on one
closure check, which also certifies from the log table that exp holds each
nonzero code once.  An extension field is built with ``PolyFq`` and its list
kernel over F_p, the package's one polynomial scheme: its two searches and
its columns; a prime field powers by the built-in ``pow``.

Addition is XOR in characteristic 2 and integer addition mod p in prime
fields.  Odd-characteristic extension fields add by Zech logarithms:
``zech[k]`` is the log of 1 + zeta**k (-1 when that sum is 0), built in
O(order) as one map of the exp table through the log table shifted by one
code, where adding 1 to the constant digit wraps p - 1 to 0, so that
zeta**i + zeta**j = zeta**(i + zech[j - i]); negation is multiplication by
-1 = zeta**((order-1)/2).  The adder is bound once per field:
``_bind_adder`` stores the one scheme that applies as the field's
``add_codes`` and ``neg_code`` (a - b is ``add_codes(a, neg_code(b))``), so
no addition re-tests p or m.  The Zech table is built there and held by the
field as ``zech`` (None in characteristic 2 and in prime fields); the adder
reads it, and so does ``cyclic``'s coset walk, which sums in the log domain.

Polynomials over a field run on one private kernel on plain code lists: a
product, a division and a product reduced modulo h.  A product adds scaled
rows with one per-term loop (``_addmul``) that multiplies through the
exp/log tables and adds with the field's bound adder.  A division first
prepares its divisor once (``_divisor``: its degree, the log of its lead's
inverse and the shifted logs of its negated nonzero tail), and one loop
(``_reduce``) takes each top term off in place, one log lookup per top term
and one exp lookup and one add per tail term, with no product call.
``_divmod`` runs that loop once on a copy; every loop that divides by one
fixed modulus (``x_pow_mod``, Ben-Or's steps, ``_powmod`` and so
``pow_mod``, the rows of the Frobenius matrix) prepares it once and passes
it on.  ``PolyFq``'s product, division, ``pow_mod`` and ``poly_gcd`` call the
kernel and wrap the result once per public call, through the one
constructor, whose range check is one ``min``/``max`` test.  The oracles,
which only the tests and the benchmark's checker call, read one Frobenius
walk, ``_frobenius_powers``: x**(q**k) mod h from the matrix whose row i
is x**(q*i) mod h, one matrix-vector product per power.
``oracle_irreducible`` is Rabin's test on it and ``oracle_factor_degrees``
peels each degree d off h by gcd(x**(q**d) - x, f).  ``x_pow_mod`` powers
x modulo h over F_q by one spread and one reduction against the prepared h
per base-q digit of the exponent; the spectral verdicts and the zeta search
use it, Ben-Or's test takes its step, and no oracle does.

Extension towers F_q inside F_{q^n} are realized inside the single context of
order q^n; membership in the intermediate field F_{q^d} is decided by the
Frobenius fixed-point test, and ``subfield_embedding`` provides the canonical
injection of a standalone small field when values must cross contexts.

Sizes are decided in one place: every route that builds a list on
Z_{q^n-1} or the field F_{q^n} first asks ``check_size``, which refuses an
oversized n before forming q**n.  ``symfun.mask_period`` does not, by
design: it reads the digits of single points and builds no list of length
q**n - 1, so ``mask_period(3, 30, 1, ...)`` answers in milliseconds.
``harness.verify_period_claims``, the report of a sweep row, asks
``check_size`` before it.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array

from . import numtheory

# hard refusal bound for field construction; every field below it is tabled
FIELD_ORDER_CAP = 1 << 20
# hard bound on the modulus q**n - 1 of any dense function on Z_{q^n-1}
MODULUS_GUARD = 1 << 22

_FIELD_CACHE: dict[tuple[int, int], "FieldCtx"] = {}
_EMBED_CACHE: dict[tuple[int, int, int], "Embedding"] = {}


class SizeCapError(ValueError):
    """q**n - 1 is over the size cap or a hard limit (``check_size``)."""


def check_size(q: int, n: int, cap: int | None = None, field: bool = False) -> int:
    """N = q**n - 1, or SizeCapError when N is over the cap or a hard limit.

    N must be at most the cap (when given) and MODULUS_GUARD, and q**n at
    most FIELD_ORDER_CAP when the route builds F_{q^n} (``field``).  n < 1
    and q < 2 are refused with a ValueError naming the value, and an n past
    the bit length of the limit with SizeCapError, before q**n is formed.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, not n={n}")
    if q < 2:
        raise ValueError(f"q must be at least 2, not q={q}")
    limit = MODULUS_GUARD if cap is None else min(cap, MODULUS_GUARD)
    if field:
        limit = min(limit, FIELD_ORDER_CAP - 1)
    if n <= limit.bit_length():
        N = q ** n - 1
        if N <= limit:
            return N
    raise SizeCapError(f"q**n - 1 for (q, n) = ({q}, {n}) exceeds the size cap {limit}")


def check_modulus(N: int, q: int, n: int, what: str) -> None:
    """Refuse the modulus N of a ``what`` on Z_N unless N = q**n - 1; an n past
    N's bit length before q**n is formed (q**n - 1 > N for any q >= 2)."""
    if n > N.bit_length():
        raise ValueError(f"{what} modulus {N} is not q**n - 1 for n={n}")
    if q ** n - 1 != N:
        raise ValueError(f"{what} modulus {N} is not q**n - 1 = {q ** n - 1}")


class FieldCtx:
    """A concrete finite field F_{p^m}.

    Immutable after construction (the array ``packed_exp`` by convention),
    shared via ``make_field`` and safe for concurrent reads.  All arithmetic
    methods operate on integer codes (see module docstring); the
    ``FieldElement`` wrapper provides the operator interface on top of them.
    """

    __slots__ = ("p", "m", "order", "modulus", "zeta_code", "exp", "log",
                 "packed_exp", "add_codes", "neg_code", "zech")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = tuple(modulus)
        self._finish()
        self._bind_adder()

    # ------------------------------------------------------------------
    # code <-> coefficient vector

    def digits_of(self, code: int) -> tuple[int, ...]:
        """Coefficient vector of a code, length m, base-p little-endian."""
        return tuple(numtheory.digits(code, self.p, self.m))

    # ------------------------------------------------------------------
    # code-level arithmetic
    #
    # add_codes and neg_code are per-field callables held in slots and bound
    # by ``_bind_adder``; subtraction is add_codes(a, neg_code(b)).  Indices
    # into exp are log sums shifted by -M (M = order - 1), so they lie in
    # [-M, M) and Python's negative indexing reduces them mod M.

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b] - self.order + 1]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        return self.exp[-self.log[a]]

    def pow_code(self, a: int, e: int) -> int:
        M = self.order - 1
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if e == 0 else 0
        return self.exp[self.log[a] * (e % M) % M]

    def order_of(self, a: int) -> int:
        """Multiplicative order of a nonzero code."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        M = self.order - 1
        return M // math.gcd(self.log[a], M)

    # ------------------------------------------------------------------
    # element construction

    def element(self, code: int) -> "FieldElement":
        """Element from its integer code (0 <= code < order)."""
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for {self!r}")
        return FieldElement(self, code)

    def nth_root_of_unity(self, N: int) -> "FieldElement":
        """The canonical root of unity of exact order N, i.e. zeta**((order-1)/N)."""
        M = self.order - 1
        if N < 1 or M % N:
            raise ValueError(f"{N} does not divide {M}")
        return FieldElement(self, self.pow_code(self.zeta_code, M // N))

    # ------------------------------------------------------------------

    def _finish(self):
        """Find the canonical primitive element and build the exp and log tables.

        zeta is the least code whose power (order-1)/t is not 1 for any prime
        t | order - 1, found by ``_zeta`` with no table.  A prime field's exp
        table is the walk s -> s*zeta mod p.

        Multiplication by zeta is F_p-linear, so the exp build of an extension
        field makes no general product per entry.  Digit i of a column
        zeta*x**i sits in bit lane i, B bits wide.  For p = 2, B = 1: a column
        is a field code and adding is XOR, so multiplying by any power of
        zeta is a linear map on code bits too.  ``_doubling_exp`` walks the
        first 512 powers by zeta's tabled multiples of a code's halves, XORs
        of the columns, and fills the rest by doubling: each block of powers
        is the block before, packed into bytes, times a power of zeta, with
        no Python step per entry.  zeta**M is read off the columns.  F_2,
        whose one column is zeta, takes it too; its array is ``packed_exp``.

        For odd p the walk's state holds digit i of the current power in bit
        lane i, B = (2p - 1).bit_length() + 1 bits wide: room for the sum of
        two digits below p plus a flag bit.  ``reduce`` subtracts p from every
        lane that reached p: adding 2**(B-1) - p to each lane sets exactly
        those lanes' top bits.  The lanes split into the low h = m // 2
        digits and the high m - h; zeta times each possible half is tabled
        (p**h and p**(m-h) entries), and so is each half's code.  The tables
        grow from the m columns zeta*x**i, each the one before times x mod
        the modulus: an entry is an earlier entry plus one column, reduced.
        One step reads the code as two lookups added and adds the two tabled
        zeta-multiples, reduced.

        The odd-p walk stops after K = M/(p - 1) steps (M = order - 1), at
        zeta**K, the norm of zeta: in a field a nonzero constant g, alone in
        lane 0 (anything else raises).  zeta**(i + K) = g*zeta**i, and
        multiplying by g multiplies each digit by g mod p, so one table
        ``scal`` of that map fills each further block of K powers from the
        one before with one ``map``.

        Every route ends on one closure check: zeta**M = 1 (g**(p - 1) = 1 on
        the odd-p block route, zeta*exp[M - 1] by the columns for p = 2) and
        log[1] = 0, as the log fill keeps the last index of each code.  Then
        zeta is a unit of order M; a zeta of smaller order, or one that is no
        unit because the modulus is reducible, raises.  The check also
        requires log[0] = -1 and sum(log) = M(M - 1)/2 - 1, which hold iff exp
        holds each nonzero code once, so a faulty build of the tables raises
        too, even where its last entry closes the walk.
        """
        p, m = self.p, self.m
        M = self.order - 1
        B = 1 if p == 2 else (2 * p - 1).bit_length() + 1  # bits per digit
        self.zeta_code = _zeta(p, m, self.modulus)
        if m == 1:
            cols = [self.zeta_code]  # a prime field's one column: zeta, in lane 0
        else:
            prime = make_field(p)
            mod, x = PolyFq(prime, self.modulus), PolyFq.x(prime)
            cols = [PolyFq(prime, self.digits_of(self.zeta_code))]
            for _ in range(m - 1):  # column i is zeta * x**i
                cols.append(cols[-1] * x % mod)
            cols = [sum(d << (i * B) for i, d in enumerate(c.codes)) for c in cols]
        s = 1
        self.packed_exp = None  # the p = 2 table packed, which cyclic's XOR runs read
        if p == 2:
            self.packed_exp = _doubling_exp(m, cols, self.modulus)
            exp = tuple(self.packed_exp)
            # zeta**M = zeta * exp[M - 1]: the columns at that code's bits
            s = 0
            for i, col in enumerate(cols):
                if exp[-1] >> i & 1:
                    s ^= col
        elif m == 1:
            exp = [0] * M
            zeta = self.zeta_code
            for i in range(M):
                exp[i] = s
                s = s * zeta % p
        else:
            exp = [0] * M
            h = m // 2
            shift = h * B
            lo_mask = (1 << shift) - 1
            top = B - 1
            ones = sum(1 << (i * B) for i in range(m))  # a 1 in every lane
            hib = ones << top
            adj = ((1 << top) - p) * ones

            def reduce(s):
                return s - (((s + adj) & hib) >> top) * p

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
            K = M // (p - 1)
            for i in range(K):
                lo = s & lo_mask
                hi = s >> shift
                exp[i] = lo_code[lo] + hi_code[hi]
                s = lo_next[lo] + hi_next[hi]
                s -= (((s + adj) & hib) >> top) * p
            # zeta**K is the norm of zeta, a nonzero constant g in a field,
            # and then zeta**M = g**(p - 1) = 1
            if not 0 < s < p:
                raise AssertionError("generator order inconsistency")
            g, s = s, 1
            scal = [0]  # times g, digit by digit
            for i in range(m):
                scal = [v + w for w in [g * d % p * p ** i for d in range(p)] for v in scal]
            for j in range(K, M, K):
                exp[j:j + K] = map(scal.__getitem__, exp[j - K:j])
            del scal  # a list of order codes, freed before the log fill
        log = [-1] * self.order
        for i, c in enumerate(exp):
            log[c] = i
        # s = zeta**M; the fill keeps the last index of each code, so log[1]
        # is 0 only when no later power is 1 too.  exp is a bijection onto the
        # nonzero codes iff log[0] stays -1 and log sums to the indices 0..M-1
        # less 1: a code skipped stays -1 and costs the index written over
        if s != 1 or log[1] or log[0] != -1 or sum(log) != M * (M - 1) // 2 - 1:
            raise AssertionError("generator order inconsistency")
        # tuples: the tables never change, and the cyclic GC stops tracking a
        # tuple of ints at its first pass instead of walking it at every one
        self.exp = tuple(exp)
        self.log = tuple(log)

    def _bind_adder(self):
        """Bind add_codes and neg_code to this field's one scheme.

        Sets ``zech`` too: the Zech table the adder reads, or None where the
        adder is XOR or mod p.  zech[k] is the log of zeta**k + 1: exp mapped
        through ``succ``, the log table shifted down one code, whose slots
        c = p - 1 mod p read log[c + 1 - p], as the constant digit wraps to 0
        with no carry.
        """
        p = self.p
        self.zech = None
        if p == 2:
            self.add_codes = operator.xor
            self.neg_code = lambda a: a
            return
        if self.m == 1:
            self.add_codes = lambda a, b: (a + b) % p
            self.neg_code = lambda a: -a % p
            return
        exp, log = self.exp, self.log
        # log[0] = -1 marks 1 + zeta**k = 0
        succ = [*log[1:], 0]
        succ[p - 1::p] = log[0::p]
        self.zech = zech = tuple(map(succ.__getitem__, exp))
        M = self.order - 1
        half = M // 2  # -1 = zeta**(M/2)

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            if z < 0:  # b == -a
                return 0
            return exp[la + z - M]

        def neg(a):
            return exp[log[a] - half] if a else 0

        self.add_codes = add
        self.neg_code = neg

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m})"


class FieldElement:
    """An element of a FieldCtx: immutable (ctx, code) pair with operators.

    Plain ints mixed into arithmetic are coerced to prime-subfield constants
    (reduced mod p), which is the usual convention for scalars.
    """

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different fields")
            return other.code
        if isinstance(other, int):
            return other % self.ctx.p
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add_codes(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add_codes(self.code, self.ctx.neg_code(c)))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add_codes(c, self.ctx.neg_code(self.code)))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_codes(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_codes(self.code, self.ctx.inv_code(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_codes(c, self.ctx.inv_code(self.code)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg_code(self.code))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow_code(self.code, e))

    def __eq__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return self.code == c

    def __hash__(self):
        return hash((id(self.ctx), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"F{self.ctx.order}({self.code})"


# ----------------------------------------------------------------------
# the polynomial kernel on code lists
#
# A polynomial is a little-endian sequence of codes with no leading zero.


def _addmul(ctx: FieldCtx, acc: list, k: int, a: int, row) -> None:
    """acc[k + j] += a * row[j] for every j, in place; a is a nonzero code."""
    exp, log, add = ctx.exp, ctx.log, ctx.add_codes
    la = log[a] - ctx.order + 1  # shifted by -M, as in mul_codes
    for j, c in enumerate(row, k):
        if c:
            acc[j] = add(acc[j], exp[la + log[c]])


def _trim(codes: list) -> list:
    while codes and not codes[-1]:
        codes.pop()
    return codes


def _mul(ctx: FieldCtx, a, b) -> list:
    """Product of code lists a and b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            _addmul(ctx, out, i, c, b)
    return out


def _divisor(ctx: FieldCtx, h) -> tuple:
    """The nonzero code list h prepared for ``_reduce``, once per modulus.

    (d, log of 1/h_d, [(j, log(-h_j) - M) for each nonzero h_j, j < d]),
    with d = deg h and M = order - 1: the shift by -M is that of mul_codes.
    """
    M, log, neg = ctx.order - 1, ctx.log, ctx.neg_code
    tail = [(j, log[neg(c)] - M) for j, c in enumerate(h[:-1]) if c]
    return len(h) - 1, -log[h[-1]] % M, tail


def _reduce(ctx: FieldCtx, rem: list, div) -> list:
    """Reduce the code list rem in place modulo a ``_divisor``; return the quotient.

    Each top term c, from the highest down, is taken off as f * h with
    f = c/h_d: f's log is read once, each tail term adds the code at log
    f + log(-h_j) through the field's adder, and f is left in c's slot.
    Those slots, cut off the top, are the quotient; rem keeps the
    remainder, trimmed.
    """
    d, inv, tail = div
    exp, log, add = ctx.exp, ctx.log, ctx.add_codes
    M = ctx.order - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            lf = (log[c] + inv) % M
            rem[i] = exp[lf]
            k = i - d
            for j, lt in tail:
                rem[k + j] = add(rem[k + j], exp[lf + lt])
    quot = rem[d:]
    del rem[d:]
    _trim(rem)
    return quot


def _divmod(ctx: FieldCtx, a, h) -> tuple[list, list]:
    """Quotient and remainder of code list a by the nonzero code list h.

    ``_reduce`` on a copy of a; a loop that divides by one fixed modulus
    prepares it once with ``_divisor`` and calls ``_reduce`` itself.
    """
    rem = list(a)
    return _reduce(ctx, rem, _divisor(ctx, h)), rem


def _mulmod(ctx: FieldCtx, a, b, div) -> list:
    """Product of code lists a and b reduced modulo a ``_divisor``."""
    rem = _mul(ctx, a, b)
    _reduce(ctx, rem, div)
    return rem


def _powmod(ctx: FieldCtx, a, e: int, div) -> list:
    """a**e reduced modulo a ``_divisor``, by square and multiply; e >= 0."""
    result, base = [1], list(a)
    _reduce(ctx, result, div)  # modulo a unit, even 1 is 0
    _reduce(ctx, base, div)
    while e:
        if e & 1:
            result = _mulmod(ctx, result, base, div)
        e >>= 1
        if e:
            base = _mulmod(ctx, base, base, div)
    return result


def x_pow_mod(ctx: FieldCtx, t: int, h) -> list:
    """x**t reduced modulo the code list h over F_q, q = ctx.order; t >= 0.

    Horner's rule on the base-q digits of t: each digit d maps y to
    y(x**q) * x**d mod h.  That is y**q * x**d, because y's coefficients
    lie in F_q and a**q = a there, so a step spreads y's codes q apart,
    shifts them by d and makes one reduction, with no general product.
    h is prepared once (``_divisor``), and every step reduces against it.
    """
    div = _divisor(ctx, h)
    y = [1]
    _reduce(ctx, y, div)  # modulo a unit, even 1 is 0
    for d in reversed(numtheory.digits(t, ctx.order)):
        y = _frobenius_step(ctx, y, d, div)
    return y


def _frobenius_step(ctx: FieldCtx, y, d: int, div) -> list:
    """y**q * x**d modulo a ``_divisor``, q = ctx.order: a step of x_pow_mod and _ben_or."""
    q = ctx.order
    step = [0] * (q * (len(y) - 1) + d + 1)
    step[d::q] = y
    _reduce(ctx, step, div)
    return step


def _ben_or(prime: FieldCtx, f) -> bool:
    """Ben-Or's test (FOCS 1981): is the monic code list f over F_p irreducible?

    f of degree m >= 2 is iff gcd(x**(p**d) - x, f) = 1 for d = 1..m//2, as
    a factor of degree d divides x**(p**d) - x; it stops at the least one.
    At d = 1 that gcd is 1 iff f has no root in F_p, so f is evaluated at
    every point at once instead, and a rootless f of degree 2 or 3 needs no
    Frobenius step at all.
    """
    p, m = prime.p, len(f) - 1
    vals = [1] * p  # Horner's rule at every a in F_p, 0 included, over Z
    for c in f[-2::-1]:
        vals = [v * a + c for a, v in enumerate(vals)]
    if 0 in [v % p for v in vals]:
        return False
    if m < 4:
        return True
    div = _divisor(prime, f)
    y = _frobenius_step(prime, [0, 1], 0, div)  # x**p mod f
    for _ in range(m // 2 - 1):
        y = _frobenius_step(prime, y, 0, div)  # x**(p**d) mod f, d = 2..m//2
        diff = y + [0] * (2 - len(y))
        diff[1] = (diff[1] - 1) % p  # minus x
        if len(_gcd(prime, f, _trim(diff))) != 1:
            return False
    return True


def _gcd(ctx: FieldCtx, a, b):
    """A gcd of code lists a and b, not made monic."""
    while b:
        a, b = b, _divmod(ctx, a, b)[1]
    return a


class PolyFq:
    """Polynomial over one FieldCtx, little-endian code tuple, no leading zeros.

    The constructor, the one way to build one, range-checks every code.
    """

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, codes):
        codes = list(codes)
        if codes and not 0 <= min(codes) <= max(codes) < ctx.order:
            raise ValueError(f"coefficient code out of range for F_{ctx.order}")
        self.ctx = ctx
        self.codes = tuple(_trim(codes))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "PolyFq":
        return cls(ctx, (0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.codes) - 1

    def is_zero(self) -> bool:
        return not self.codes

    @property
    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == 1

    def __getitem__(self, i: int) -> FieldElement:
        code = self.codes[i] if 0 <= i < len(self.codes) else 0
        return FieldElement(self.ctx, code)

    def _check(self, other):
        if not isinstance(other, PolyFq):
            raise TypeError("expected a polynomial")
        if other.ctx is not self.ctx:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add_codes(out[i], c)
        return PolyFq(ctx, out)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        ctx = self.ctx
        return PolyFq(ctx, [ctx.neg_code(c) for c in self.codes])

    def __mul__(self, other):
        self._check(other)
        return PolyFq(self.ctx, _mul(self.ctx, self.codes, other.codes))

    def scale(self, code: int) -> "PolyFq":
        ctx = self.ctx
        return PolyFq(ctx, [ctx.mul_codes(c, code) for c in self.codes])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod(self.ctx, self.codes, other.codes)
        return PolyFq(self.ctx, quot), PolyFq(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "PolyFq":
        if self.is_zero() or self.codes[-1] == 1:
            return self
        return self.scale(self.ctx.inv_code(self.codes[-1]))

    def derivative(self) -> "PolyFq":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.codes)):
            out.append(ctx.mul_codes(self.codes[i], i % ctx.p))
        return PolyFq(ctx, out)

    def pow_mod(self, e: int, modpoly: "PolyFq") -> "PolyFq":
        """self**e reduced mod modpoly, by square and multiply on code lists."""
        if e < 0:
            raise ValueError("negative exponent")
        self._check(modpoly)
        if modpoly.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        return PolyFq(ctx, _powmod(ctx, self.codes, e, _divisor(ctx, modpoly.codes)))

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate by Horner's rule at a point of the same context."""
        if point.ctx is not self.ctx:
            raise ValueError("evaluation point from a different field")
        ctx = self.ctx
        add, mul, a = ctx.add_codes, ctx.mul_codes, point.code
        acc = 0
        for c in reversed(self.codes):
            acc = add(mul(acc, a), c)
        return FieldElement(ctx, acc)

    def __eq__(self, other):
        if not isinstance(other, PolyFq):
            return NotImplemented
        return self.ctx is other.ctx and self.codes == other.codes

    def __hash__(self):
        return hash((id(self.ctx), self.codes))

    def __str__(self):
        if not self.codes:
            return "0"
        terms = []
        for i in range(len(self.codes) - 1, -1, -1):
            c = self.codes[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(terms)

    def __repr__(self):
        return f"PolyFq(F{self.ctx.order}, {self})"


def poly_gcd(a: PolyFq, b: PolyFq) -> PolyFq:
    """Monic gcd of two polynomials over the same field."""
    a._check(b)
    return PolyFq(a.ctx, _gcd(a.ctx, a.codes, b.codes)).monic()


def _frobenius_powers(h: PolyFq):
    """Yield the code lists of x**(q**k) mod monic h of degree n >= 2, k = 1, 2, ...

    The powers come from the Frobenius matrix Q, whose row i is x**(q*i)
    mod h: f -> f**q is F_q-linear and fixes F_q, so the coefficient vector
    of x**(q**(k+1)) is that of x**(q**k) times Q.  Q costs one x**q and
    n - 2 reduced products, and each further power one matrix-vector
    product, all in the list kernel.
    """
    ctx, n = h.ctx, h.degree
    div = _divisor(ctx, h.codes)
    frob = [[1], _powmod(ctx, [0, 1], ctx.order, div)]
    for _ in range(n - 2):
        frob.append(_mulmod(ctx, frob[-1], frob[1], div))
    f = frob[1]
    while True:
        yield f
        nxt = [0] * n
        for i, c in enumerate(f):
            if c:
                _addmul(ctx, nxt, 0, c, frob[i])
        f = _trim(nxt)


def oracle_irreducible(h: PolyFq) -> bool:
    """Rabin's irreducibility test over h's coefficient field F_q.

    h of degree n is irreducible iff x**(q**n) = x mod h and, for every prime
    t | n, gcd(x**(q**(n/t)) - x, h) is constant.  The powers x**(q**k) come
    from the Frobenius walk (``_frobenius_powers``); everything, the gcds
    included, runs in the list kernel (Rabin, SIAM J. Comput. 9, 1980).
    """
    if h.is_zero():
        raise ValueError("the zero polynomial is not testable")
    n = h.degree
    if n == 0:
        return False
    if n == 1:
        return True
    ctx = h.ctx
    hm = h.monic()
    x = PolyFq.x(ctx)  # reduced, since n >= 2
    gcd_at = {n // t for t in numtheory.prime_factors(n)}
    walk = _frobenius_powers(hm)
    for k in range(1, n):
        f = next(walk)  # x**(q**k) mod h
        if k in gcd_at and len(_gcd(ctx, hm.codes, (PolyFq(ctx, f) - x).codes)) != 1:
            return False
    return next(walk) == [0, 1]


def oracle_factor_degrees(h: PolyFq) -> list[int]:
    """Sorted multiset of irreducible-factor degrees of h, with multiplicity.

    Distinct-degree peeling (von zur Gathen and Gerhard, Modern Computer
    Algebra, 14.2): once every factor of degree below d is divided out of
    f, g = gcd(x**(q**d) - x, f) is the product of the distinct degree-d
    irreducibles left in f, since x**(q**d) - x is squarefree; f //= g and
    g = gcd(g, f), until g = 1, take off one copy per round.  x**(q**d)
    is h's Frobenius walk reduced mod f, which divides h.  What is left
    below degree 2(d + 1) is one irreducible or 1.
    """
    if h.is_zero():
        raise ValueError("the zero polynomial has no factorization")
    f = h.monic()
    x = PolyFq.x(h.ctx)
    walk = _frobenius_powers(f)
    degrees = []
    d = 1
    while f.degree >= 2 * d:
        g = poly_gcd(PolyFq(h.ctx, next(walk)) % f - x, f)
        while g.degree > 0:
            degrees.extend([d] * (g.degree // d))
            f //= g
            g = poly_gcd(g, f)
        d += 1
    if f.degree > 0:
        degrees.append(f.degree)
    return degrees


# ----------------------------------------------------------------------
# field construction


def make_field(p: int, m: int = 1) -> FieldCtx:
    """Deterministically construct (and cache) the field F_{p^m}.

    The modulus is the canonically-first monic irreducible of degree m over
    F_p, from ``_modulus`` (Ben-Or's test); the stored generator is the
    canonically-first primitive element, from ``_zeta`` inside the
    ``FieldCtx`` constructor.  No build calls ``oracle_irreducible``.
    """
    key = (p, m)
    ctx = _FIELD_CACHE.get(key)
    if ctx is not None:
        return ctx
    if not isinstance(m, int) or m < 1:
        raise ValueError("extension degree must be a positive integer")
    if p >= 2:  # size first, so a huge p is never factored
        check_size(p, m, field=True)
    if not numtheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    # x for a prime field, whose root 0 is Embedding's gamma there
    ctx = FieldCtx(p, m, (0, 1) if m == 1 else _modulus(p, m))
    _FIELD_CACHE[key] = ctx
    return ctx


def _modulus(p: int, m: int) -> tuple[int, ...]:
    """The least monic irreducible of degree m >= 2 over F_p, in code order, by ``_ben_or``."""
    prime = make_field(p)
    return next(cand for cand in (tuple(numtheory.digits(code, p, m)) + (1,)
                                  for code in range(p ** m))
                if _ben_or(prime, cand))


def _zeta(p: int, m: int, modulus) -> int:
    """The canonical zeta of F_p[x]/(modulus): the least code of order M = p**m - 1.

    c has order M iff c**(M/t) != 1 for each prime t | M.  A constant's order
    divides p - 1 < M, so for m >= 2 the scan starts at the linear
    c = a1*x + a0 = a1*(x + b), b = a0/a1.  The root of g = f(x - b), f the
    modulus, is x + b (Lidl and Niederreiter, Finite Fields, ch. 2):
    - a prime t | p - 1 sees only the norm N(c) = a1**m * (-1)**m * g(0), as
      c**(M/t) = N(c)**((p - 1)/t);
    - any other t has p - 1 | M/t, so c**(M/t) = 1 iff x**(M/t) = 1 mod g.
    A candidate of degree >= 2 (code p**2 on) is powered by ``pow_mod``.
    """
    M = p ** m - 1
    fac = numtheory.prime_factors(M)
    if m == 1:
        return next(c for c in range(1, p) if all(pow(c, M // t, p) != 1 for t in fac))
    prime = make_field(p)
    low = [t for t in fac if (p - 1) % t == 0]
    high = [t for t in fac if (p - 1) % t]
    for c in range(p, p * p):
        a1, a0 = divmod(c, p)
        b = a0 * pow(a1, -1, p) % p
        g = []
        for k in reversed(modulus):  # f(x - b) by Horner's rule
            g = [(u - b * v) % p for u, v in zip([k, *g], [*g, 0])]
        norm = pow(a1, m, p) * (-1) ** m * g[0]
        if all(pow(norm, (p - 1) // t, p) != 1 for t in low) and \
                all(x_pow_mod(prime, M // t, g) != [1] for t in high):
            return c
    mod, one = PolyFq(prime, modulus), PolyFq(prime, (1,))
    return next(c for c in range(p * p, p ** m)
                if all(PolyFq(prime, numtheory.digits(c, p, m)).pow_mod(M // t, mod) != one
                       for t in fac))


def _doubling_exp(m: int, cols, modulus) -> array:
    """The exp table of F_{2^m}, packed: a walk of 512 powers, then doubling.

    An ``array`` of M = 2**m - 1 codes in native byte order, w = 2 bytes per
    code ("H") for m <= 16 and 4 ("I") above.  Multiplying by any c is
    F_2-linear on codes: c times a code is the XOR of c's multiples of the
    code's bits.  The first min(M, 512) powers are walked one at a time, as
    the lookups of zeta's multiples of a code's low and high half, XORs of
    the columns zeta*x**i (F_2's one column is zeta).  Past them the codes'
    bytes sit in one bytearray, and the next L are c = zeta**L times the
    first L: byte k of c times a code is the XOR over the code's byte planes
    j of a 256-entry table of byte k of c*(b << 8j), so each output plane is
    the input planes translated through those tables, XORed as ints and
    written back with one strided slice, with no Python step per entry.
    c's tables come from its columns c*x**i, each the one before times x,
    reduced by the modulus.  Codes fill nb = ceil(m/8) planes; for m > 16
    the top byte stays 0.  A doubling step costs about as much as walking a
    few hundred powers, hence the walk.
    """
    M = (1 << m) - 1

    def span(vs):  # the XOR of each subset of vs, indexed by the subset's bits
        out = [0]
        for v in vs:
            out += [u ^ v for u in out]
        return out

    h = m // 2
    mask = (1 << h) - 1
    lo, hi = span(cols[:h]), span(cols[h:])
    L = min(M, 512)
    first = [1] * L
    s = 1
    for i in range(1, L):
        s = first[i] = lo[s & mask] ^ hi[s >> h]
    tc, w = ("H", 2) if m <= 16 else ("I", 4)
    packed = array(tc, first)
    if L == M:
        return packed
    exp = bytearray(M * w)  # the codes' bytes, w per code
    exp[:L * w] = packed
    nb = (m + 7) // 8
    # byte plane k of the codes, their bits 8k to 8k + 7, is byte at[k] of each
    at = [k if sys.byteorder == "little" else w - 1 - k for k in range(nb)]
    f = sum(d << i for i, d in enumerate(modulus))
    while L < M:
        c = lo[s & mask] ^ hi[s >> h]  # zeta**L, zeta times zeta**(L - 1)
        ccols = []
        for _ in range(m):  # c * x**i
            ccols.append(c)
            c <<= 1
            if c >> m:
                c ^= f
        tabs = []  # tabs[j][k][b]: byte k of c * (b << 8j)
        for j in range(nb):
            run = array(tc, span(ccols[8 * j:8 * j + 8])).tobytes().ljust(256 * w, b"\0")
            tabs.append([run[a::w] for a in at])
        n = min(L, M - L)
        planes = [exp[a:n * w:w] for a in at]
        for k, a in enumerate(at):
            acc = 0
            for j in range(nb):
                acc ^= int.from_bytes(planes[j].translate(tabs[j][k]), "little")
            exp[L * w + a:(L + n) * w:w] = acc.to_bytes(n, "little")
        L += n
        s = int.from_bytes(exp[(L - 1) * w:L * w], sys.byteorder)
    return array(tc, exp)


def value_field(q: int) -> FieldCtx:
    """F_q from its order alone; a q over the field cap is never factored."""
    check_size(q, 1, field=True)
    return make_field(*numtheory.prime_power(q))


def primitive_element(ctx: FieldCtx) -> FieldElement:
    """The canonically-first generator of the multiplicative group."""
    return FieldElement(ctx, ctx.zeta_code)


def _check_tower(ctx: FieldCtx, q: int, n: int):
    """Refuse (q, n) unless q**n is the field's order; an n past the order's
    bit length before q**n is formed (q**n > order for any q >= 2)."""
    if n < 1 or q < 2 or n > ctx.order.bit_length() or q ** n != ctx.order:
        raise ValueError(f"q**n = {q}**{n} does not match field order {ctx.order}")


def element_degree(xi: FieldElement, q: int, n: int) -> int:
    """Degree of xi over F_q inside F_{q^n}: smallest d | n with xi in F_{q^d}.

    The package's one degree rule; the witness root check reads it.  The
    zero element lies in every subfield, so it reports degree 1.
    """
    ctx = xi.ctx
    _check_tower(ctx, q, n)
    # d = n always passes, xi**(q**n) = xi in F_{q^n}; zero passes at d = 1
    return next(d for d in numtheory.divisors(n) if ctx.pow_code(xi.code, q ** d) == xi.code)


def char_poly(xi: FieldElement, q: int, n: int) -> PolyFq:
    """Monic degree-n polynomial over F_q whose roots are the Frobenius orbit of xi.

    Computed as the product of (x - xi**(q**k)) for k = 0..n-1; equals the
    minimal polynomial of xi raised to the power n / deg(xi).  Coefficients
    provably lie in the F_q-subfield of the ambient context.
    """
    ctx = xi.ctx
    _check_tower(ctx, q, n)
    conj = []
    e = 1
    for _ in range(n):
        conj.append(ctx.pow_code(xi.code, e))
        e *= q
    cur = [1]
    for c in conj:
        nxt = [0] + cur  # x * cur
        if c:
            _addmul(ctx, nxt, 0, ctx.neg_code(c), cur)
        cur = nxt
    for a in cur:
        if ctx.pow_code(a, q) != a:
            raise AssertionError("characteristic polynomial left the base field")
    return PolyFq(ctx, cur)


def sigma_eval(w: int, xi: FieldElement, q: int, n: int) -> FieldElement:
    """Value of the w-th characteristic elementary symmetric polynomial at xi.

    Equals (-1)**w times the coefficient of x**(n-w) in char_poly(xi); w = 0
    gives 1, w = 1 the trace and w = n the norm.
    """
    if not 0 <= w <= n:
        raise ValueError(f"w={w} outside [0, {n}]")
    coeff = char_poly(xi, q, n)[n - w]
    return -coeff if w % 2 else coeff


# ----------------------------------------------------------------------
# canonical subfield injection


class Embedding:
    """Canonical field injection of a standalone F_{p^s} into F_{p^{s*t}}.

    Determined by mapping the small field's generator-of-representation x to
    the smallest-code root of the small modulus inside the big field; this is
    a genuine ring homomorphism and is deterministic.
    """

    __slots__ = ("small", "big", "gamma", "_lift", "_lower")

    def __init__(self, small: FieldCtx, big: FieldCtx):
        if small.p != big.p or big.m % small.m:
            raise ValueError(f"F_{small.order} is not a subfield of F_{big.order}")
        self.small = small
        self.big = big
        mod_poly = PolyFq(big, small.modulus)  # coefficients are constants
        # every root lies in big's copy of F_{p^s}: 0 and the p^s - 1 powers
        # zeta**(k * M / (p^s - 1)); scanning them in ascending code order
        # finds the same least root as a scan of all of big
        subfield = big.exp[::(big.order - 1) // (small.order - 1)]
        self.gamma = next(code for code in [0] + sorted(subfield)
                          if not mod_poly(FieldElement(big, code)))
        # code c is the polynomial of its digits at x; its image, that at gamma
        at_gamma = FieldElement(big, self.gamma)
        lift = [PolyFq(big, small.digits_of(code))(at_gamma).code
                for code in range(small.order)]
        # dicts both ways: a code outside the small field is a KeyError, with
        # no wrap-around of a negative index
        self._lift = dict(enumerate(lift))
        self._lower = {b: s for s, b in enumerate(lift)}

    def lift(self, elt: FieldElement) -> FieldElement:
        if elt.ctx is not self.small:
            raise ValueError("element not in the embedding's source field")
        return FieldElement(self.big, self._lift[elt.code])

    def lift_codes(self, codes) -> list[int]:
        """Big-field codes of a sequence of small-field codes, one lookup each.

        The lookup is the range check: it stops at the first code outside the
        small field and names it.
        """
        try:
            return list(map(self._lift.__getitem__, codes))
        except KeyError as exc:
            raise ValueError(f"code {exc.args[0]} out of range for {self.small!r}") from None

    def lower_poly(self, poly: PolyFq) -> PolyFq:
        if poly.ctx is not self.big:
            raise ValueError("polynomial not over the target field")
        lower = self._lower
        try:
            return PolyFq(self.small, [lower[c] for c in poly.codes])
        except KeyError as exc:
            raise ValueError("coefficient outside the embedded subfield") from exc


def subfield_embedding(small: FieldCtx, big: FieldCtx) -> Embedding:
    """Cached canonical embedding of `small` into `big` (same characteristic)."""
    key = (small.p, small.m, big.m)
    emb = _EMBED_CACHE.get(key)
    if emb is None or emb.small is not small or emb.big is not big:
        emb = Embedding(small, big)
        _EMBED_CACHE[key] = emb
    return emb
