import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hmdft
from hmdft import (
    CyclicFn,
    SupportSet,
    conv_power,
    delta,
    delta_mask,
    dft,
    is_q_symmetric,
    kronecker,
    make_field,
    omega,
    phi_rho,
    primitive_element,
    sigma_eval,
    subfield_embedding,
    support_degree_test,
)
from hmdft import symfun
from hmdft.gf import FIELD_ORDER_CAP, MODULUS_GUARD, SizeCapError
from hmdft.numtheory import digits, divisors, prime_power
from hmdft.cyclic import least_period, least_period_by_descent
from hmdft.symfun import MaskPoints, _mask_codes, mask_period

from helpers import (
    TableMaskPoints,
    _multiset_counts,
    ascending_scan_period,
    brute_margin_counts,
    convolution_delta_mask,
    exhaustive_is_q_symmetric,
    fresh_descent_period,
    lucas_comb,
    may_be_mask_support,
    refusal_type,
    shift_certificate_holds,
    shift_certificate_per_call,
    transform_side_period,
)

EX15_SEQ = [1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]


def _digits(k, q, n):
    """The n base-q digits of k's canonical representative in Z_{q^n-1}."""
    return tuple(digits(k % (q ** n - 1), q, n))


def test_omega_examples():
    assert omega(2, 4, 2).members == (3, 5, 6, 9, 10, 12)
    assert omega(2, 4, 4).members == ()
    assert omega(3, 2, 1).members == (1, 3)
    assert omega(5, 3, 0).members == (0,)
    with pytest.raises(ValueError, match=r"^w=5 outside \[0, 4\]$"):
        omega(2, 4, 5)
    with pytest.raises(ValueError, match=r"^w=-1 outside \[0, 4\]$"):
        omega(2, 4, -1)


def test_omega_refuses_n_below_one():
    # Z_{q^0 - 1} is empty: a ValueError, not a ZeroDivisionError
    with pytest.raises(ValueError, match="n must be at least 1"):
        omega(3, 0, 0)


@pytest.mark.parametrize("q, n", [(1, 2), (0, 2), (-2, 3)])
def test_omega_refuses_q_below_two(q, n):
    # once a bare ZeroDivisionError (q = 1) or a SupportSet mod -1 (q = 0)
    with pytest.raises(ValueError, match=f"q={q}"):
        omega(q, n, 1)


def test_omega_sizes_and_digits():
    for q, n in [(2, 5), (3, 4), (4, 3), (5, 3)]:
        for w in range(n + 1):
            om = omega(q, n, w)
            if q == 2 and w == n:
                assert len(om.members) == 0
                continue
            assert len(om.members) == math.comb(n, w)
            for k in om.members:
                d = _digits(k, q, n)
                assert all(x in (0, 1) for x in d)
                assert sum(d) == w


def test_omega_disjoint():
    for q, n in [(2, 4), (3, 3), (2, 8), (4, 3), (5, 4)]:
        seen = set()
        for w in range(n + 1):
            members = set(omega(q, n, w).members)
            assert not (members & seen)
            seen |= members


def test_delta_is_kronecker_at_zero():
    assert delta(2, 4, 0) == kronecker(make_field(2), 15)


def test_delta_support_and_dft():
    # the F_2 indicator, lifted into F_16, transforms to the symmetric values
    f2, f16 = make_field(2), make_field(2, 4)
    lift = subfield_embedding(f2, f16).lift_codes
    z = primitive_element(f16)
    for w in (1, 2, 3):
        d = delta(2, 4, w)
        assert d.ctx is f2 and d.support().members == omega(2, 4, w).members
        g = dft(CyclicFn(f16, lift(d.codes)), z)
        for k in range(15):
            assert g(k) == sigma_eval(w, z ** k, 2, 4)


def test_delta_mask_example_15():
    m = delta_mask(2, 4, 2, 0)
    assert list(m.codes) == EX15_SEQ


def test_delta_mask_small_example():
    m = delta_mask(3, 2, 1, 0)
    assert list(m.codes) == [1, 0, 2, 0, 1, 0, 2, 0]


def test_delta_mask_at_zero_is_one():
    for q, n, w in [(2, 4, 2), (3, 3, 1), (4, 2, 1), (5, 4, 2), (3, 6, 3)]:
        m = delta_mask(q, n, w, 0)
        assert m.ctx is make_field(*prime_power(q)) and m(0) == m.ctx.element(1)


def test_delta_mask_excluded_case():
    with pytest.raises(ValueError, match=r"^\(q, w\) = \(2, n\) has an empty weight set$"):
        delta_mask(2, 3, 3, 0)
    with pytest.raises(ValueError, match=r"^w=0 outside \[1, 3\]$"):
        delta_mask(3, 3, 0, 0)


@pytest.mark.parametrize("build", [delta_mask, MaskPoints, mask_period])
@pytest.mark.parametrize("c", [5, 3, -1])
def test_masks_refuse_c_outside_f_q(build, c):
    # c is an F_q code in [0, q), the convention of every report
    with pytest.raises(ValueError, match=f"^c={c} is not an F_3 code$"):
        build(3, 2, 1, c)


def test_delta_mask_values_stay_in_subfield():
    # the F_3 mask, lifted into F_9, is the mask powered by convolution in
    # F_9, and every one of its values is fixed by x -> x**3
    q, n, w = 3, 2, 1
    big = make_field(3, 2)
    small = make_field(3)
    emb = subfield_embedding(small, big)
    m_big = emb.lift_codes(delta_mask(q, n, w, 2).codes)
    assert m_big == list(convolution_delta_mask(q, n, w, emb.lift(small.element(2)), big).codes)
    for c in m_big:
        assert big.pow_code(c, q) == c


def test_delta_mask_binomial_expansion():
    # for c != 0 the mask equals
    #   -sum_{s=1}^{q-1} C(q-1, s) * ((-1)**(w+1) c)**(-s) * delta_w^{(*s)}
    for q, n in [(3, 2), (3, 4), (4, 3), (5, 2)]:
        p, j = prime_power(q)
        ctx = make_field(p, j)
        N = q ** n - 1
        for w in range(1, n + 1):
            if q == 2 and w == n:
                continue
            for c_code in range(1, q):
                c = ctx.element(c_code)
                dm = delta_mask(q, n, w, c_code)
                dw = delta(q, n, w)
                base = (-c) if (w + 1) % 2 else c
                total = CyclicFn(ctx, [0] * N)
                for s in range(1, q):
                    power = conv_power(dw, s)
                    coeff = (base ** (-s)) * (math.comb(q - 1, s) % p)
                    total = total + power.scale(coeff.code)
                assert -total == dm


def _oracle_grid(q, ctx, lift):
    """(q, n, w, c, ctx, lift) for every (q, n, w, c) with q**n - 1 <= 2*10**4,
    c outermost; lift maps F_q codes to codes of ctx."""
    nws = []
    n = 1
    while q ** n - 1 <= 2 * 10 ** 4:
        nws += [(n, w) for w in range(1, n + 1) if not (q == 2 and w == n)]
        n += 1
    return [(q, n, w, c, ctx, lift) for c in range(q) for n, w in nws]


def test_delta_mask_matches_convolution_oracle(monkeypatch):
    # the count route against powering by convolution in the field, on every
    # q <= 9, every n with q**n - 1 <= 2*10**4, every w and every c, with
    # the oracle's values in F_q itself and in F_4 < F_16 and F_3 < F_27,
    # where the F_q mask is lifted to meet it; at q = 17, n = 1 included,
    # whose codes fit a byte though q*p = 289 does not; and at q = 257,
    # whose codes are an array, at c = 0 alone, as powering the c != 0 base
    # by convolution takes some 14 s there
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        cases += _oracle_grid(q, make_field(*prime_power(q)), list)
    for p, j, m in [(2, 2, 4), (3, 1, 3)]:
        small, big = make_field(p, j), make_field(p, m)
        cases += _oracle_grid(small.order, big, subfield_embedding(small, big).lift_codes)
    cases += [(17, n, w, c, make_field(17), list) for n, w in [(1, 1), (2, 1), (2, 2), (3, 1)]
              for c in (0, 1, 16)]
    cases += [(257, 2, 1, 0, make_field(257), list)]
    taken = _spy_routes(monkeypatch)
    for q, n, w, c, ctx, lift in cases:
        oracle = convolution_delta_mask(q, n, w, ctx.element(lift([c])[0]), ctx)
        assert lift(delta_mask(q, n, w, c).codes) == list(oracle.codes), \
            (q, n, w, c, ctx.order)
    # both count routes: the lanes on dense levels, the pair loop on sparse ones
    assert set(taken) == {"_lane_level", "_pair_level"}


def _dense_grid(limit, weights):
    """(q, n, w, c) for q <= 9, q**n - 1 <= limit and w in weights(n)."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 1
        while q ** n - 1 <= limit:
            for w in weights(n):
                if not (q == 2 and w == n):
                    for c in range(q):
                        yield q, n, w, c
            n += 1


def test_mask_points_match_delta_mask():
    # every index of every mask with q**n - 1 <= 2000, every w and every c
    cases = list(_dense_grid(2000, lambda n: range(1, n + 1)))
    assert any(w == n for _, n, w, _ in cases)
    for q, n, w, c in cases:
        codes = delta_mask(q, n, w, c).codes
        f = MaskPoints(q, n, w, c)
        assert list(map(f, range(len(codes)))) == list(codes), (q, n, w, c)
        support = list(f.support())
        assert dict(support) == {i: v for i, v in enumerate(codes) if v}
        assert len(support) == len(set(s for s, _ in support))


def test_mask_points_match_convolution_oracle_in_extensions():
    # the point reads, lifted into F_16 > F_4 and F_27 > F_3, against the mask
    # powered by convolution in the extension
    for p, j, m in [(2, 2, 4), (3, 1, 3)]:
        small, big = make_field(p, j), make_field(p, m)
        emb = subfield_embedding(small, big)
        q = small.order
        for n in (2, 3):
            for w in range(1, n + 1):
                for c in range(q):
                    f = MaskPoints(q, n, w, c)
                    oracle = convolution_delta_mask(q, n, w, emb.lift(small.element(c)), big)
                    assert emb.lift_codes(map(f, range(q ** n - 1))) == list(oracle.codes), \
                        (q, n, w, c)


def test_mask_period_matches_dense_route_above_half_weight():
    # every w in (n/2, n] with q <= 9 and q**n - 1 <= 2*10**4; the half-w
    # rows are compared on the whole periods-2e5 grid in test_harness
    rows = 0
    for q, n, w, c in _dense_grid(2 * 10 ** 4, lambda n: range(n // 2 + 1, n + 1)):
        assert mask_period(q, n, w, c) == least_period(delta_mask(q, n, w, c)), (q, n, w, c)
        rows += 1
    assert rows > 300


def _half_w_grid(cap, n_hi):
    """(q, n, w, c) of the no-witness sweep: q <= 9, 2 <= n <= n_hi,
    q**n - 1 <= cap, 1 <= w <= n/2 and every c, the excluded rows included."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(2, n_hi + 1):
            if q ** n - 1 > cap:
                break
            for w in range(1, n // 2 + 1):
                for c in range(q):
                    yield q, n, w, c


def test_mask_period_matches_table_only_descent(monkeypatch):
    # the certificates and one-point counts against the descent on the count
    # table route alone, on every row of the 849-row grid at cap 2**22, where
    # the dense route cannot reach; the search refutes all but 14 of the 2729
    # shifts the descent meets there, the 3 excluded rows included: those of
    # n = 2 rows and (2, 2, 1, 1), as the split family refutes the rest
    tried = []
    refute = symfun._refute
    monkeypatch.setattr(symfun, "_refute", lambda *args: tried.append(refute(*args)) or tried[-1])
    rows = 0
    for q, n, w, c in _half_w_grid(2 ** 22, 30):
        table_only = least_period_by_descent(q ** n - 1, TableMaskPoints(q, n, w, c).has_period)
        assert mask_period(q, n, w, c) == table_only, (q, n, w, c)
        rows += 1
    assert rows == 849
    assert (len(tried), tried.count(None)) == (2729, 14)


def test_shift_certificates_check_out_on_periods_grid(monkeypatch):
    # every certificate the descent meets on the periods-2e5 grid, checked
    # against the dense mask where q**n - 1 <= 2**16 and the count table route
    # elsewhere
    found = []
    refute = symfun._refute

    def recorded(q, n, w, low, tries, t):
        cert = refute(q, n, w, low, tries, t)
        if cert:
            found.append((t, cert))
        return cert

    monkeypatch.setattr(symfun, "_refute", recorded)
    rows = list(_half_w_grid(200000, 12))
    checked = 0
    for q, n, w, c in rows:
        del found[:]
        mask_period(q, n, w, c)
        if q ** n - 1 <= 2 ** 16:
            mask_at = delta_mask(q, n, w, c).codes.__getitem__
        else:
            mask_at = TableMaskPoints(q, n, w, c)
        for t, cert in found:
            assert shift_certificate_holds(mask_at, q, n, w, c, t, cert), (q, n, w, c, t, cert)
        checked += len(found)
    assert len(rows) == 451 and checked > 1000


def test_shift_certificate_shapes():
    # c != 0 starts from s = 1 (S = {0}); c = 0 from s = q - 1; c = 0 with
    # w = n has no point of known value and is never searched
    assert symfun.shift_certificate(3, 3, 1, 1, 13) == (1, 1)  # 14 = 112_3
    assert symfun.shift_certificate(3, 3, 1, 0, 13) == (2, 1)  # 15 = 120_3
    # at c = 0 only level q - 1 counts: 3 = 010_3 is off the support
    assert symfun.shift_certificate(3, 3, 1, 0, 1) == (2, 1)
    assert symfun.shift_certificate(3, 3, 3, 0, 13) is None
    # (2, 2, 1, 1): every try lands on the support or on 0
    assert symfun.shift_certificate(2, 2, 1, 1, 1) is None
    # regime II N/2 at n = 4 falls to a split point: 14 = 112_3 (digits from
    # the lowest) is on level 2, and 14 + 40 = 54 = 0002_3 is off level 2
    assert symfun.shift_certificate(3, 4, 2, 0, 40) == (14, 1)
    # at n = 2 no split point is tried: N/2 is a true period of (3, 2, 1, 0)
    assert symfun.shift_certificate(3, 2, 1, 0, 4) is None


def _split_points(q, n, w):
    """Every split point `symfun._split_tries` forms at (q, n, w), over the
    shifts t = a * q**w, a < q, whose digit t_w is a."""
    return {s for a in range(q) for s, _ in symfun._split_tries(q, n, w, a * q ** w)}


def test_split_points_lie_on_the_support_at_the_lucas_value():
    # each split point holds coef_{q-1} * C(q-1, a) mod p on the dense mask,
    # at c = 0 and c = 1: coef_{q-1} = -s**(q-1) = -1 whatever c is, and
    # C(q-1, a) comes from math.comb, not from Lucas' theorem
    rows = 0
    for q in (3, 4, 5, 7, 8, 9):
        ctx = make_field(*prime_power(q))
        for n in range(3, 17):
            if q ** n - 1 > 2 ** 16:
                break
            for w in range(1, n):
                points = _split_points(q, n, w)
                assert len(points) == q - 2, (q, n, w)
                for c in (0, 1):
                    codes = delta_mask(q, n, w, c).codes
                    for s in points:
                        a = digits(s, q, n)[w - 1]
                        want = ctx.mul_codes(ctx.neg_code(1), math.comb(q - 1, a) % ctx.p)
                        assert want and codes[s] == want, (q, n, w, c, s)
                    rows += 1
    assert rows == 224
    # no split point at q = 2, at w = n or at n = 2
    assert not _split_points(2, 5, 2) and not _split_points(5, 3, 3)
    assert not _split_points(5, 2, 1)


def test_no_row_past_n_2_reads_counts_on_the_wide_grid(monkeypatch):
    # every prime power q < 50, N <= 2**22, w <= n/2 and c in {0, 1}: no row
    # with n >= 3 builds a count reader, and every certificate the descent
    # meets is checked against the count reader
    built, found = [], []

    class Counted(MaskPoints):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    refute = symfun._refute

    def recorded(q, n, w, low, tries, t):
        cert = refute(q, n, w, low, tries, t)
        if cert:
            found.append((t, cert))
        return cert

    monkeypatch.setattr(symfun, "_refute", recorded)
    monkeypatch.setattr(symfun, "MaskPoints", Counted)
    start = time.perf_counter()
    rows = checked = 0
    for q in range(2, 50):
        try:
            prime_power(q)
        except ValueError:
            continue
        for n in range(2, 23):
            if q ** n - 1 > 2 ** 22:
                break
            for w in range(1, n // 2 + 1):
                for c in (0, 1):
                    del found[:]
                    mask_period(q, n, w, c)
                    mask_at = MaskPoints(q, n, w, c)
                    for t, cert in found:
                        assert shift_certificate_holds(mask_at, q, n, w, c, t, cert), \
                            (q, n, w, c, t, cert)
                    checked += len(found)
                    rows += 1
    assert time.perf_counter() - start < 2
    assert (rows, checked) == (638, 2054)
    assert [row for row in built if row[1] > 2] == []


def test_shift_certificate_tries_stay_bounded_at_the_field_order_cap(monkeypatch):
    # at q = 2**20 a call forms at most 4 first-family tries and 8 split
    # tries, whatever t is, not one per split a < q - 1
    formed = []
    first, split = symfun._certificate_tries, symfun._split_tries
    monkeypatch.setattr(symfun, "_certificate_tries",
                        lambda *args: formed.append(first(*args)) or formed[-1])
    monkeypatch.setattr(symfun, "_split_tries",
                        lambda *args: formed.append(tuple(split(*args))) or iter(formed[-1]))
    q = FIELD_ORDER_CAP
    N = q ** 3 - 1
    for w in (1, 2):
        for c in (0, 1):
            for t in (N // 3, N // 7, N // 151, 5 * q ** (w - 1) + 9 * q ** w):
                symfun.shift_certificate(q, 3, w, c, t)
    assert len(formed) == 2 * 16
    assert max(map(len, formed[::2])) == 4 and max(map(len, formed[1::2])) == 8


@pytest.mark.parametrize("q, n, w, error, text", [
    (3, 4, 0, "WeightRangeError", "w=0"),   # was a division by w = 0
    (3, 4, 5, "WeightRangeError", "w=5"),
    # fixed id, the name pytest took from the case when it read as a w refusal
    pytest.param(3, 0, 1, ValueError, "^n must be at least 1, not n=0$",
                 id="3-0-1-WeightRangeError-w=1"),
    (1, 4, 1, ValueError, "q=1"),         # was a reduction mod N = 0
    (0, 4, 1, ValueError, "q=0"),
])
def test_shift_certificate_refuses_bad_input(q, n, w, error, text):
    # a q refusal reads gf.check_q's whole text
    text = f"^q must be at least 2, not {text}$" if text.startswith("q=") else text
    with pytest.raises(refusal_type(error), match=text) as exc:
        symfun.shift_certificate(q, n, w, 1, 5)
    assert type(exc.value) is refusal_type(error)


def test_shift_certificate_needs_no_size_check():
    # past MODULUS_GUARD and any cap: the digits of one integer
    N = 3 ** 40 - 1
    assert symfun.shift_certificate(3, 40, 1, 1, N // 2) is not None


def test_shift_certificate_refuses_what_names_no_mask(monkeypatch):
    # both were once answered with None, a verdict on a mask that does not exist
    with pytest.raises(ValueError, match="^c=7 is not an F_3 code$"):
        symfun.shift_certificate(3, 2, 1, 7, 1)
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        symfun.shift_certificate(6, 2, 1, 1, 1)
    # a q past FIELD_ORDER_CAP names no field: refused by its size, unfactored,
    # as value_field refuses it; the cap itself, 2**20, is factored
    factored = []
    monkeypatch.setattr(symfun.numtheory, "prime_power", factored.append)
    for q in (FIELD_ORDER_CAP + 1, MODULUS_GUARD + 1, 3 * (MODULUS_GUARD + 2)):
        with pytest.raises(SizeCapError, match=f"^q={q} exceeds the field order cap "
                                                f"{FIELD_ORDER_CAP}$"):
            symfun.shift_certificate(q, 2, 1, 1, 1)
    symfun.shift_certificate(FIELD_ORDER_CAP, 2, 1, 1, 1)
    assert factored == [FIELD_ORDER_CAP]


def _certificate_cases():
    """(q, n, w, c, t) for q <= 9, n <= 8, w <= n, c in {0, 1} and 2 where
    q > 2, t among the first 40 divisors of N, grouped by (q, n, w)."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 9):
            shifts = divisors(q ** n - 1)[:40]
            for w in range(1, n + 1):
                yield [(q, n, w, c, t) for c in ((0, 1, 2) if q > 2 else (0, 1))
                       for t in shifts]


def test_shared_shift_certificate_matches_per_call_search():
    # shift_certificate against the search written out in one function
    cases = 0
    for group in _certificate_cases():
        for args in group:
            assert symfun.shift_certificate(*args) == shift_certificate_per_call(*args), args
        cases += len(group)
    assert cases == 13049


@pytest.mark.parametrize("order", [(1, 0), (0, 1)], ids=["nonzero first", "zero first"])
def test_shift_certificate_keys_on_whether_c_is_zero(monkeypatch, order):
    # at q = 2, w = n both c = 0 and c = 1 have low = 1, but only c != 0
    # has a try: s = N is 0 in Z_N, so c = 0 is never searched there
    expected = {1: (7, 1), 0: None}
    for c in order:
        assert symfun.shift_certificate(2, 3, 3, c, 1) == expected[c], c
    tries = symfun._certificate_tries
    assert (tries(2, 3, 3, False), tries(2, 3, 3, True)) == (((7, 1), (7, -1)), ())
    # so mask_periods keys its verdict tables on whether c is zero: at q = 2,
    # where both sides read low = 1, it forms the tries of each side apart
    formed = []
    monkeypatch.setattr(symfun, "_certificate_tries",
                        lambda *args: formed.append(args) or tries(*args))
    assert symfun.mask_periods(2, 3, 1, order) == [mask_period(2, 3, 1, c) for c in order]
    assert formed[:2] == [(2, 3, 1, not c) for c in order]


def test_mask_periods_match_a_fresh_descent_per_c(monkeypatch):
    # every (q, n, w) of the periods-2e5 grid, every c at once, against a
    # descent per c that shares nothing; the shared tables make one digit
    # test per side of zero and shift met, and no other
    tested = []
    refute = symfun._refute
    monkeypatch.setattr(symfun, "_refute", lambda *args: tested.append(args) or refute(*args))
    groups = dict.fromkeys(row[:3] for row in _half_w_grid(200000, 12))
    for q, n, w in groups:
        met = {c: [] for c in range(q)}
        fresh = [fresh_descent_period(q, n, w, c, met[c]) for c in range(q)]
        del tested[:]
        assert symfun.mask_periods(q, n, w, range(q)) == fresh, (q, n, w)
        assert len(tested) == len({(c == 0, t) for c in met for t in met[c]}), (q, n, w)
    assert len(groups) == 115


def test_multiset_counts_match_weight_counts(monkeypatch):
    # the oracle's count table against the c = 1 mask codes, coef_k * A_k
    # at each point, level by level, on both routes: the byte lanes take
    # every level of N <= 256 and the dense levels past it, the pair loop
    # the sparse ones, so a row such as (3, 6, 3) joins a pair level to a
    # lane level in one mask; (257, 2, 1) runs the pair loop into 2-byte
    # codes, q being past 2**8
    grid = list(dict.fromkeys(row[:3] for row in _dense_grid(2000, lambda n: range(1, n + 1))))
    taken = _spy_routes(monkeypatch)
    routes = set()
    for q, n, w in grid + [(257, 2, 1)]:
        ctx, coefs = symfun._level_coefs(q, n, w, 1)
        add, mul = ctx.add_codes, ctx.mul_codes
        table = _multiset_counts(q, n, w)
        taken.clear()
        codes = _mask_codes(q, n, w, 1)
        routes.add(tuple(dict.fromkeys(taken)))
        full = (0,) * (q - 1) + (n,)
        levels = {}
        for code, (k, a, ps) in table.items():
            lam = [0] * q
            for v, mv in ps:
                lam[v] = mv
            lam[0] = n - sum(lam)
            assert code == sum(mv * (n + 1) ** v for v, mv in enumerate(lam))
            assert 1 <= k < q and sum(v * mv for v, mv in enumerate(lam)) == k * w
            levels[tuple(lam)] = (k, a)
        # the narrowest codes that hold q: bytes, else an array
        size = memoryview(codes).itemsize
        assert len(codes) == q ** n - 1 and q <= 1 << 8 * size
        assert isinstance(codes, bytes) if size == 1 else q > 1 << 4 * size
        # level 0, the zero multiset alone, is left out of the table; slot 0
        # adds up 1, coef_0 and the all-(q-1) multiset's level, if w = n
        slot = add(1, coefs[0])
        seen = {}
        if full in levels:
            k, a = levels[full]
            slot, seen[full] = add(slot, mul(coefs[k], a)), 1
        assert codes[0] == slot and len(coefs) == q
        for i, code in enumerate(codes):
            if i and code:
                d = _digits(i, q, n)
                lam = tuple(d.count(v) for v in range(q))
                k, a = levels.get(lam, (0, 0))
                assert max(d) <= k and code == mul(coefs[k], a), (q, n, w, k, i)
                seen[lam] = seen.get(lam, 0) + 1
        # each table multiset is reached at all of its arrangements
        assert seen == {lam: math.factorial(n) // math.prod(map(math.factorial, lam))
                        for lam in levels}, (q, n, w)
    pair, lane = "_pair_level", "_lane_level"
    assert routes == {(pair,), (lane,), (pair, lane)}


def _spy_routes(monkeypatch):
    """The names of the count routes `_mask_codes` takes, one per level, in order."""
    taken = []
    for name in ("_lane_level", "_pair_level"):
        real = getattr(symfun, name)
        monkeypatch.setattr(symfun, name,
                            lambda *args, real=real, name=name: taken.append(name) or real(*args))
    return taken


PAIR, LANE = "_pair_level", "_lane_level"


@pytest.mark.parametrize("q, n, w, routes", [
    (7, 5, 2, [PAIR] * 3 + [LANE] * 3), (3, 9, 4, [PAIR, LANE]), (2, 8, 4, [LANE]),
    (2, 10, 5, [PAIR]), (2, 11, 5, [PAIR]), (3, 10, 4, [PAIR] * 2), (3, 10, 5, [PAIR] * 2),
    (17, 2, 1, [PAIR] + [LANE] * 15), (257, 2, 1, [PAIR] * 256)])
def test_weight_counts_route_each_level_by_density(monkeypatch, q, n, w, routes):
    # level k goes to the lanes once level k - 1 holds at least N/256 points
    # and no lane can carry, (p - 1)*|Omega| < 256, with codes that fit a
    # byte, q <= 256: the lanes from level 4 of (7, 5, 2), at
    # (p - 1)*|Omega| = 60, at level 2 of (3, 9, 4), at 252, and of
    # (17, 2, 1), whose q*p = 289 does not fit a byte; (2, 8, 4) from level
    # 0 itself, as N = 255.  Dense levels stay on the pair loop at
    # (3, 10, 5), where (p - 1)*|Omega| is 504, and at q = 257 > 256; so
    # does the sparse level 0 at N > 256, however wide its sums: 252 at
    # (2, 10, 5), 462 at (2, 11, 5)
    ctx, coefs = symfun._level_coefs(q, n, w, 1)
    add, mul = ctx.add_codes, ctx.mul_codes
    p, members = ctx.p, omega(q, n, w).members
    N = q ** n - 1
    taken = _spy_routes(monkeypatch)
    codes = _mask_codes(q, n, w, 1)
    assert taken == routes
    # the pair loop alone gives the same codes, slot 0 included
    level, pairs, slot = {0: 1}, [0] * N, add(1, coefs[0])
    for k in range(1, q):
        level = symfun._pair_level(p, N, members, level)
        for i, a in level.items():
            pairs[i] = mul(coefs[k], a)
        slot = add(slot, mul(coefs[k], level.get(0, 0)))
    pairs[0] = slot
    assert list(codes) == pairs


@pytest.mark.parametrize("q, n, members, routes", [(3, 2, (1, 2), [LANE] * 2),
                                                  (3, 6, (1, 2, 3), [PAIR, LANE]),
                                                  (17, 2, (1, 2), [PAIR] + [LANE] * 15),
                                                  (257, 2, (1, 2), [PAIR] * 256)])
def test_two_levels_at_one_point_raise(monkeypatch, q, n, members, routes):
    # Omega planted: level 1 holds its members and level 2 their sums, so two
    # levels with nonzero codes at c = 1 meet at x = 2, on the lanes alone at
    # N = 8, where a lane level joins the codes by OR, a pair level then lane
    # levels at N = 728 and at N = 288, and the pair loop alone at q = 257,
    # where a level overwrites the codes
    monkeypatch.setattr(symfun, "omega", lambda q, n, w: SupportSet(q ** n - 1, members))
    taken = _spy_routes(monkeypatch)
    with pytest.raises(ValueError, match=rf"^two levels of the counts of \(q, n, w\) = "
                                         rf"\({q}, {n}, 1\) meet at one point$"):
        _mask_codes(q, n, 1, 1)
    assert taken == routes


def test_one_point_count_matches_brute_matrix_count():
    # A_k mod p from the row-by-row count against every k x n 0/1 matrix with
    # row sums w, for every column-sum margin in [0, 4]**n with k <= 4,
    # n <= 6 and 1 <= w <= n.  The count reads only the nonzero sums, so one
    # reader per (w, p) serves every n; mod 5, 7, 11 and 13 together it is
    # exact, as 5*7*11*13 exceeds every count
    readers = {w: [MaskPoints(q, 6, w, 1) for q in (5, 7, 11, 13)] for w in range(1, 7)}
    top = 0
    for n in range(1, 7):
        margins = {}
        for d in itertools.product(range(5), repeat=n):
            margins.setdefault(sum(d), []).append(d)
        for w in range(1, n + 1):
            for k in range(1, 5):
                brute = brute_margin_counts(n, w, k)
                top = max(top, *brute.values())
                for d in margins.get(k * w, ()):
                    state = tuple(sorted(v for v in d if v))
                    for f in readers[w]:
                        assert f._count(state) == brute.get(d, 0) % f._p, (d, w, k, f._p)
    assert 13 < top < 5 * 7 * 11 * 13


def test_points_off_the_digit_test_read_no_count():
    # a point that fails the no-carry digit test reads 0 without counting:
    # the memo holds the empty margin alone until a point passes it
    for q, n, w, c in [(5, 3, 2, 1), (5, 4, 2, 0), (7, 3, 1, 3), (4, 4, 3, 2)]:
        f = MaskPoints(q, n, w, c)
        off = [x for x in range(1, q ** n - 1) if not may_be_mask_support(x, q, n, w, c)]
        assert len(off) > q ** n // 2 and all(f(x) == 0 for x in off), (q, n, w, c)
        assert f._memo == {(): 1}, (q, n, w, c)
        assert any(f(x) for x in range(1, q ** n - 1)) and len(f._memo) > 1


class _WriteCounter(dict):
    """A dict that counts every entry written into it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def test_mask_points_read_the_count_table_in_place():
    # each reader's memo is its count table: once support() has filled it,
    # reading every point and a second support() look counts up in place and
    # write none
    for q, n, w in [(7, 4, 2), (9, 3, 3), (4, 5, 5), (5, 4, 1), (8, 3, 2)]:
        for c in range(q):
            f = MaskPoints(q, n, w, c)
            support = dict(f.support())
            f._memo = _WriteCounter(f._memo)
            row = list(map(f, range(q ** n - 1)))
            assert support == {i: v for i, v in enumerate(row) if v}, (q, n, w, c)
            assert dict(f.support()) == support
            assert f._memo.writes == 0, (q, n, w, c)


def test_mask_reader_memo_serves_every_shift_of_a_row(monkeypatch):
    # (7, 2, 1, 0), whose N/2 and N/4 are periods: the row builds one reader,
    # and every margin the descent reads is counted at its first open shift
    built, shifts = [], []

    class Counted(symfun.MaskPoints):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def has_period(self, t):
            out = super().has_period(t)
            shifts.append((t, out, len(self._memo)))
            return out

    monkeypatch.setattr(symfun, "MaskPoints", Counted)
    assert mask_period(7, 2, 1, 0) == 12
    assert built == [(7, 2, 1, 0)]
    assert {(24, True), (12, True)} <= {(t, out) for t, out, _ in shifts}
    assert len(shifts) >= 3 and len({size for _, _, size in shifts}) == 1


def test_has_period_reads_one_point_per_support_entry():
    # at a true period the scan reads mask(s + t) once per support point s
    # and nothing more; support() itself counts without calling the reader
    class Counted(MaskPoints):
        __slots__ = ("reads",)

        def __call__(self, x):
            self.reads += 1
            return super().__call__(x)

    for q, n, w, c, t in [(7, 2, 1, 0, 24), (7, 2, 1, 0, 12), (5, 2, 1, 0, 8)]:
        f = Counted(q, n, w, c)
        f.reads = 0
        size = len(list(f.support()))
        assert f.reads == 0 and size > 1
        assert f.has_period(t), (q, n, w, c, t)
        assert f.reads == size, (q, n, w, c, t)


def test_mask_period_at_large_q_n_2():
    # r = 2(q - 1) at (q, 2, 1, 0), the dense mask's period; the count table
    # route took 0.43 s and 3.2 s for its tables alone at q = 127 and 251
    spent = 0.0
    for q in (127, 251):
        start = time.perf_counter()
        r = mask_period(q, 2, 1, 0)
        spent += time.perf_counter() - start
        assert r == 2 * (q - 1) == ascending_scan_period(delta_mask(q, 2, 1, 0).codes), q
    assert spent < 1.5


def test_mask_period_regime_iii_closed_form(monkeypatch):
    # r = 2(q - 1) at (q, 2, 1, 0) for every odd prime power q <= 127; the
    # count reader answers both True and False on these rows, so nothing of
    # it that depends on c may be shared between rows
    verdicts = set()

    class Recorded(MaskPoints):
        __slots__ = ()

        def has_period(self, t):
            out = super().has_period(t)
            verdicts.add(out)
            return out

    monkeypatch.setattr(symfun, "MaskPoints", Recorded)
    qs = []
    for q in range(3, 128, 2):
        try:
            prime_power(q)
        except ValueError as exc:
            assert str(exc) == f"{q} is not a prime power"
            continue
        assert mask_period(q, 2, 1, 0) == 2 * (q - 1), q
        qs.append(q)
    assert len(qs) == 37 and verdicts == {True, False}


def test_mask_period_matches_transform_side_oracle():
    # r from the transform's support, N / gcd(N, S), shares no digit, count
    # or binomial with either mask route; every prime power q <= 16 with
    # q**n <= 2**12, w <= n/2 and every c, the excluded rows left out
    rows = [(q, n, w, c) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
            for n in range(2, 13) if q ** n <= 2 ** 12
            for w in range(1, n // 2 + 1) for c in range(q)
            if not (c == 0 and n == 2 and q % 2 == 0)]
    assert len(rows) == 328
    r = {row: mask_period(*row) for row in rows}
    assert [row for row in rows if r[row] != transform_side_period(*row)] == []
    # the six regime III rows are the only ones with r < N
    assert [row for row in rows if r[row] < row[0] ** row[1] - 1] == \
        [(q, 2, 1, 0) for q in (3, 5, 7, 9, 11, 13)]


HUGE_N_MASK = """
from hmdft import delta, delta_mask
from hmdft.gf import SizeCapError
for build in (lambda: delta(3, 10**9, 1), lambda: delta_mask(3, 10**9, 1, 1)):
    try:
        build()
    except SizeCapError as exc:
        print("refused:", exc)
"""


def test_huge_n_mask_fails_fast():
    # in a subprocess with a timeout, so a route that forms 3**n fails, not hangs
    env = {"PYTHONPATH": str(Path(hmdft.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", HUGE_N_MASK],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("refused:") for line in lines)


HUGE_N_MODULUS = """
from hmdft import CyclicFn, SupportSet, is_q_symmetric, make_field, support_degree_test
for check in (lambda: support_degree_test(SupportSet(8, (1,)), 3, 10**9),
              lambda: is_q_symmetric(CyclicFn(make_field(3), [0] * 8), 3, 10**9)):
    try:
        check()
    except ValueError as exc:
        print("refused:", exc)
"""


def test_huge_n_modulus_check_fails_fast():
    # n past the modulus's bit length is refused before q**n is formed
    env = {"PYTHONPATH": str(Path(hmdft.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", HUGE_N_MODULUS],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "refused: support modulus 8 is not q**n - 1 for n=1000000000",
        "refused: function modulus 8 is not q**n - 1 for n=1000000000"]
    # at n within the bit length the message still names q**n - 1
    with pytest.raises(ValueError, match=r"function modulus 8 is not q\*\*n - 1 = 26"):
        is_q_symmetric(CyclicFn(make_field(3), [0] * 8), 3, 3)


# the two callers of gf.check_modulus, each on a function or support on Z_N
MODULUS_CALLERS = {
    "support_degree_test": lambda N, n: support_degree_test(SupportSet(N, (1,)), 3, n),
    "is_q_symmetric": lambda N, n: is_q_symmetric(CyclicFn(make_field(3), [0] * N), 3, n),
}


@pytest.mark.parametrize("n,text", [(10**9, r"for n=1000000000$"), (3, r"= 26$")])
@pytest.mark.parametrize("caller", sorted(MODULUS_CALLERS))
def test_a_modulus_other_than_q_to_the_n_minus_1_is_refused(caller, n, text):
    # N = 8 is no 3**n - 1: an n past 8's bit length is refused before 3**n
    # is formed, and one within it by the value of 3**n - 1
    with pytest.raises(ValueError, match=r"modulus 8 is not q\*\*n - 1 " + text):
        MODULUS_CALLERS[caller](8, n)


# (-3)**2 - 1 = 8: is_q_symmetric once read this asymmetric f as symmetric
SYMFUN_REFUSALS = [
    pytest.param(lambda: is_q_symmetric(CyclicFn(make_field(3), [0, 1, 2, 0, 0, 0, 0, 1]),
                                        -3, 2),
                 "^q must be at least 2, not q=-3$", id="is_q_symmetric-q-minus-3"),
    pytest.param(lambda: is_q_symmetric(CyclicFn(make_field(3), [0] * 8), 3, 0),
                 r"^function modulus 8 is not q\*\*n - 1 for n=0$", id="is_q_symmetric-n-0"),
]


@pytest.mark.parametrize("call, text", SYMFUN_REFUSALS)
def test_symfun_refusals(call, text):
    with pytest.raises(ValueError, match=text):
        call()


def test_mask_support_digit_sum_bound():
    # every nonzero support point of the dense mask passes the no-carry digit
    # test the certificates rely on, on the periods-2e5 rows with
    # q**n - 1 <= 2**16; the 0 slot carries the kronecker term
    for q, n, w, c in _half_w_grid(2 ** 16, 12):
        codes = delta_mask(q, n, w, c).codes
        for x in range(1, len(codes)):
            if codes[x]:
                assert may_be_mask_support(x, q, n, w, c), (q, n, w, c, x)


def test_conv_power_hits_multiples():
    # delta_w^{(*s)}(s*t) = 1 for t in Omega(w), 1 <= s <= q-1
    for q, n, w in [(3, 3, 1), (4, 3, 2), (5, 2, 1), (3, 4, 2)]:
        dw = delta(q, n, w)
        N = q ** n - 1
        for s in range(1, q):
            power = conv_power(dw, s)
            for t in omega(q, n, w).members:
                assert power((s * t) % N) == dw.ctx.element(1)


def test_conv_power_vanishes_at_zero():
    for q, n in [(3, 3), (4, 3), (5, 2), (2, 5)]:
        for w in range(1, n):
            dw = delta(q, n, w)
            for k in range(1, q):
                assert conv_power(dw, k)(0) == dw.ctx.element(0)


def test_lucas_matches_direct_reduction():
    for p in (2, 3, 5, 7):
        for n in range(0, 30):
            for k in range(0, n + 1):
                assert lucas_comb(n, k, p) == math.comb(n, k) % p


def test_phi_rho_examples():
    assert phi_rho((0, 1, 2, 3), 11, 2, 4) == 11
    assert phi_rho((1, 0, 2, 3), 1, 2, 4) == 2
    # inverse law
    rng = random.Random(12)
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        N = q ** n - 1
        for _ in range(20):
            rho = list(range(n))
            rng.shuffle(rho)
            inv = [0] * n
            for i, r in enumerate(rho):
                inv[r] = i
            k = rng.randrange(N)
            assert phi_rho(inv, phi_rho(rho, k, q, n), q, n) == k
    with pytest.raises(ValueError, match=r"^not a permutation of \[0, 2\]$"):
        phi_rho((0, 0, 1), 3, 2, 3)


@pytest.mark.parametrize("q,n,k", [(2, 4, 0), (2, 4, 9), (3, 3, 25), (5, 2, 7), (7, 2, 40)])
def test_phi_rho_reads_k_modulo_q_to_the_n_minus_1(q, n, k):
    # phi_rho acts on Z_{q^n-1}, so k, k + N and k + 3N are one point with
    # one image; k = 0 and k = N - 1 included
    N = q ** n - 1
    rho = tuple(reversed(range(n)))
    assert phi_rho(rho, k + N, q, n) == phi_rho(rho, k, q, n)
    assert phi_rho(rho, k + 3 * N, q, n) == phi_rho(rho, k, q, n)


@pytest.mark.parametrize("k, q, n", [(5, 3, 0), (5, 2, -1), (0, 2, 0)])
def test_digits_refuses_n_below_one(k, q, n):
    # phi_rho's digit read: Z_{q^n-1} is Z_0 at n = 0, and has no digits
    # below; a ValueError naming n, not a ZeroDivisionError or an empty read
    with pytest.raises(ValueError, match=f"n={n}"):
        phi_rho((), k, q, n)


def test_phi_rho_refuses_q_below_two():
    # Z_{q^n-1} is Z_0 at q = 1: a ValueError naming q, not a ZeroDivisionError
    for q in (1, 0, -1):
        with pytest.raises(ValueError, match=f"^q must be at least 2, not q={q}$"):
            phi_rho((0, 1), 3, q, 2)
    with pytest.raises(ValueError, match="^n must be at least 1, not n=0$"):
        phi_rho((), 3, 2, 0)


def test_phi_rho_is_permutation():
    for q, n in [(2, 4), (3, 3)]:
        N = q ** n - 1
        rho = list(range(1, n)) + [0]
        images = {phi_rho(rho, k, q, n) for k in range(N)}
        assert images == set(range(N))


def test_phi_rho_additivity_on_qualifying_pairs():
    q, n = 3, 3
    N = q ** n - 1
    rhos = list(itertools.permutations(range(n)))
    for a in range(N):
        da = _digits(a, q, n)
        for b in range(N):
            db = _digits(b, q, n)
            if all(x + y <= q - 1 for x, y in zip(da, db)):
                for rho in rhos:
                    lhs = phi_rho(rho, (a + b) % N, q, n)
                    rhs = (phi_rho(rho, a, q, n) + phi_rho(rho, b, q, n)) % N
                    assert lhs == rhs


def test_is_q_symmetric_examples():
    for q, n in [(2, 4), (3, 3), (4, 2)]:
        for w in range(n + 1):
            assert is_q_symmetric(delta(q, n, w), q, n)
    f3 = make_field(3)
    one_at_1 = CyclicFn.from_support(f3, 26, [1])
    assert not is_q_symmetric(one_at_1, 3, 3)


def test_is_q_symmetric_at_one_digit():
    # one digit has no permutation to break: every function is symmetric,
    # as the exhaustive check over the one permutation agrees
    for q in (2, 3, 4, 5, 7):
        p, j = prime_power(q)
        ctx = make_field(p, j)
        for f in (CyclicFn.from_support(ctx, q - 1, []),
                  CyclicFn(ctx, list(range(q - 1)))):
            assert is_q_symmetric(f, q, 1) and exhaustive_is_q_symmetric(f, q, 1)
    with pytest.raises(ValueError):
        is_q_symmetric(CyclicFn(make_field(3), [1, 2, 0]), 3, 1)


def test_is_q_symmetric_conv_powers():
    d2 = delta(3, 4, 2)
    assert is_q_symmetric(conv_power(d2, 2), 3, 4)


def test_is_q_symmetric_exact_above_eight_digits():
    # n = 9: a check using one generator only would accept rot_only or swap_only
    f2 = make_field(2)
    N = 2 ** 9 - 1
    assert is_q_symmetric(delta(2, 9, 3), 2, 9)
    adjacent_pairs = [(3 << i) % N for i in range(9)]  # digits i, i+1 (mod 9)
    rot_only = CyclicFn.from_support(f2, N, adjacent_pairs)
    assert not is_q_symmetric(rot_only, 2, 9)
    swap_only = CyclicFn.from_support(f2, N, [1, 2])  # digit 0 or digit 1
    assert not is_q_symmetric(swap_only, 2, 9)
    assert not is_q_symmetric(CyclicFn.from_support(f2, N, [1]), 2, 9)


def _c7a_powers():
    """The indicator powers of acceptance criterion C7a, as (f, q, n)."""
    for q in (2, 3, 4, 5):
        for n in range(2, 7):
            for w in range(n + 1):
                dw = delta(q, n, w)
                for s in range(1, q):
                    yield conv_power(dw, s), q, n
                if q == 2:
                    yield dw, q, n


def test_is_q_symmetric_matches_exhaustive_reference():
    # each power as is and with one value changed: at a seeded random point,
    # or, for every other power, at a point whose digits are all equal, which
    # every permutation fixes; so both verdicts occur
    rng = random.Random(7)
    verdicts = []
    for i, (f, q, n) in enumerate(_c7a_powers()):
        N = q ** n - 1
        k = rng.randrange(N) if i % 2 else rng.randrange(q - 1) * (N // (q - 1))
        codes = list(f.codes)
        codes[k] = (codes[k] + 1) % f.ctx.order
        for g in (f, CyclicFn(f.ctx, codes)):
            verdict = is_q_symmetric(g, q, n)
            assert verdict == exhaustive_is_q_symmetric(g, q, n), (q, n, i)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_mask_is_q_symmetric():
    for q, n, w, c in [(3, 4, 2, 0), (3, 4, 2, 1), (4, 4, 2, 3), (5, 2, 1, 4)]:
        assert is_q_symmetric(delta_mask(q, n, w, c), q, n)
