import itertools
import math
import random

import pytest

from hmdft import (
    CyclicFn,
    conv_power,
    delta,
    delta_mask,
    dft,
    digit_sum,
    digits,
    is_q_symmetric,
    kronecker,
    make_field,
    omega,
    phi_rho,
    primitive_element,
    sigma_eval,
    subfield_embedding,
)
from hmdft.errors import (
    BadPermutationError,
    BadSubfieldError,
    CtxMismatchError,
    ExcludedCaseError,
    WeightRangeError,
)
from hmdft.numtheory import prime_power
from hmdft.symfun import _weight_counts

from helpers import convolution_delta_mask, exhaustive_is_q_symmetric, lucas_comb

EX15_SEQ = [1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]


def test_omega_examples():
    assert omega(2, 4, 2).members.members == (3, 5, 6, 9, 10, 12)
    assert omega(2, 4, 4).members.members == ()
    assert omega(3, 2, 1).members.members == (1, 3)
    assert omega(5, 3, 0).members.members == (0,)
    with pytest.raises(WeightRangeError):
        omega(2, 4, 5)
    with pytest.raises(WeightRangeError):
        omega(2, 4, -1)


def test_omega_sizes_and_digits():
    for q, n in [(2, 5), (3, 4), (4, 3), (5, 3)]:
        for w in range(n + 1):
            om = omega(q, n, w)
            if q == 2 and w == n:
                assert len(om.members) == 0
                continue
            assert len(om.members) == math.comb(n, w)
            for k in om.members:
                d = digits(k, q, n)
                assert all(x in (0, 1) for x in d.digits)
                assert d.digit_sum == w


def test_omega_disjoint():
    for q, n in [(2, 4), (3, 3), (2, 8), (4, 3), (5, 4)]:
        seen = set()
        for w in range(n + 1):
            members = set(omega(q, n, w).members)
            assert not (members & seen)
            seen |= members


def test_delta_is_kronecker_at_zero():
    f16 = make_field(2, 4)
    assert delta(2, 4, 0, f16) == kronecker(f16, 15)


def test_delta_support_and_dft():
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    for w in (1, 2, 3):
        d = delta(2, 4, w, f16)
        assert d.support().members == omega(2, 4, w).members.members
        g = dft(d, z)
        for k in range(15):
            assert g(k) == sigma_eval(w, z ** k, 2, 4)


def test_delta_ctx_validation():
    with pytest.raises(CtxMismatchError):
        delta(3, 2, 1, make_field(2, 4))
    with pytest.raises(CtxMismatchError):
        delta(4, 2, 1, make_field(2, 3))  # F_8 has no F_4 subfield


def test_delta_mask_example_15():
    f2 = make_field(2)
    m = delta_mask(2, 4, 2, f2.element(0), f2)
    assert list(m.codes) == EX15_SEQ


def test_delta_mask_small_example():
    f3 = make_field(3)
    m = delta_mask(3, 2, 1, f3.element(0), f3)
    assert list(m.codes) == [1, 0, 2, 0, 1, 0, 2, 0]


def test_delta_mask_at_zero_is_one():
    for q, n, w in [(2, 4, 2), (3, 3, 1), (4, 2, 1), (5, 4, 2), (3, 6, 3)]:
        p, j = prime_power(q)
        ctx = make_field(p, j)
        m = delta_mask(q, n, w, ctx.element(0), ctx)
        assert m(0) == ctx.one()


def test_delta_mask_excluded_case():
    f2 = make_field(2)
    with pytest.raises(ExcludedCaseError):
        delta_mask(2, 3, 3, f2.element(0), f2)
    with pytest.raises(WeightRangeError):
        delta_mask(3, 3, 0, make_field(3).element(0), make_field(3))


def test_delta_mask_values_stay_in_subfield():
    # computed inside F_{q^n}, every value of the mask lies in F_q
    q, n, w = 3, 2, 1
    big = make_field(3, 2)
    small = make_field(3)
    emb = subfield_embedding(small, big)
    m_small = delta_mask(q, n, w, small.element(2), small)
    m_big = delta_mask(q, n, w, emb.lift(small.element(2)), big)
    assert [emb.lift(small.element(c)).code for c in m_small.codes] == list(m_big.codes)
    for c in m_big.codes:
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
                dm = delta_mask(q, n, w, c, ctx)
                dw = delta(q, n, w, ctx)
                base = (-c) if (w + 1) % 2 else c
                total = CyclicFn(ctx, [0] * N)
                for s in range(1, q):
                    power = conv_power(dw, s)
                    coeff = (base ** (-s)) * (math.comb(q - 1, s) % p)
                    total = total + power.scale(coeff.code)
                assert -total == dm


def _oracle_grid(q, ctx, lift):
    """Every (q, n, w, c) with q**n - 1 <= 2*10**4, c outermost."""
    nws = []
    n = 1
    while q ** n - 1 <= 2 * 10 ** 4:
        nws += [(n, w) for w in range(1, n + 1) if not (q == 2 and w == n)]
        n += 1
    return [(q, n, w, lift(c), ctx) for c in range(q) for n, w in nws]


def test_delta_mask_matches_convolution_oracle():
    # the count route against powering by convolution in the field, on every
    # q <= 9, every n with q**n - 1 <= 2*10**4, every w and every c, with
    # values in F_q itself and in F_4 < F_16 and F_3 < F_27
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = make_field(*prime_power(q))
        cases += _oracle_grid(q, ctx, ctx.element)
    for p, j, m in [(2, 2, 4), (3, 1, 3)]:
        small, big = make_field(p, j), make_field(p, m)
        emb = subfield_embedding(small, big)
        cases += _oracle_grid(small.order, big, lambda c: emb.lift(small.element(c)))
    # consecutive calls differ in (q, n, w), so each one rebuilds the counts
    assert all(a[:3] != b[:3] for a, b in zip(cases, cases[1:]))
    _weight_counts.cache_clear()
    for q, n, w, c, ctx in cases:
        assert delta_mask(q, n, w, c, ctx) == convolution_delta_mask(q, n, w, c, ctx), \
            (q, n, w, c.code, ctx.order)
    assert _weight_counts.cache_info().misses == len(cases)


def test_mask_support_digit_sum_bound():
    for q, n, w in [(3, 3, 1), (3, 4, 2), (4, 3, 1), (5, 2, 1), (2, 5, 2)]:
        p, j = prime_power(q)
        ctx = make_field(p, j)
        for c_code in range(q):
            m = delta_mask(q, n, w, ctx.element(c_code), ctx)
            for k in m.support().members:
                if k == 0:
                    continue  # the 0 slot carries the kronecker term
                assert digit_sum(k, q) <= (q - 1) * w


def test_conv_power_hits_multiples():
    # delta_w^{(*s)}(s*t) = 1 for t in Omega(w), 1 <= s <= q-1
    for q, n, w in [(3, 3, 1), (4, 3, 2), (5, 2, 1), (3, 4, 2)]:
        p, j = prime_power(q)
        ctx = make_field(p, j)
        dw = delta(q, n, w, ctx)
        N = q ** n - 1
        for s in range(1, q):
            power = conv_power(dw, s)
            for t in omega(q, n, w).members:
                assert power((s * t) % N) == ctx.one()


def test_conv_power_vanishes_at_zero():
    for q, n in [(3, 3), (4, 3), (5, 2), (2, 5)]:
        p, j = prime_power(q)
        ctx = make_field(p, j)
        for w in range(1, n):
            dw = delta(q, n, w, ctx)
            for k in range(1, q):
                assert conv_power(dw, k)(0) == ctx.zero()


def test_lucas_matches_direct_reduction():
    for p in (2, 3, 5, 7):
        for n in range(0, 30):
            for k in range(0, n + 1):
                assert lucas_comb(n, k, p) == math.comb(n, k) % p


def test_digits_examples():
    assert digits(0, 3, 4).digits == (0, 0, 0, 0)
    assert digit_sum(0, 5) == 0
    n = 6
    k = 2 ** n - 2
    assert digits(k, 2, n).digits == (0, 1, 1, 1, 1, 1)
    assert digit_sum(k, 2) == n - 1
    assert digits(12, 2, 4).digits == (0, 0, 1, 1)
    assert digit_sum(12, 2) == 2
    assert digits(17, 3, 4).k == 17
    with pytest.raises(ValueError):
        digit_sum(-1, 2)


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
    with pytest.raises(BadPermutationError):
        phi_rho((0, 0, 1), 3, 2, 3)


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
        da = digits(a, q, n).digits
        for b in range(N):
            db = digits(b, q, n).digits
            if all(x + y <= q - 1 for x, y in zip(da, db)):
                for rho in rhos:
                    lhs = phi_rho(rho, (a + b) % N, q, n)
                    rhs = (phi_rho(rho, a, q, n) + phi_rho(rho, b, q, n)) % N
                    assert lhs == rhs


def test_is_q_symmetric_examples():
    for q, n in [(2, 4), (3, 3), (4, 2)]:
        p, j = prime_power(q)
        ctx = make_field(p, j)
        for w in range(n + 1):
            assert is_q_symmetric(delta(q, n, w, ctx), q, n)
    f3 = make_field(3)
    one_at_1 = CyclicFn.from_support(f3, 26, [1])
    assert not is_q_symmetric(one_at_1, 3, 3)


def test_is_q_symmetric_conv_powers():
    f3 = make_field(3)
    d2 = delta(3, 4, 2, f3)
    assert is_q_symmetric(conv_power(d2, 2), 3, 4)


def test_is_q_symmetric_exact_above_eight_digits():
    # n = 9: a check using one generator only would accept rot_only or swap_only
    f2 = make_field(2)
    N = 2 ** 9 - 1
    assert is_q_symmetric(delta(2, 9, 3, f2), 2, 9)
    adjacent_pairs = [(3 << i) % N for i in range(9)]  # digits i, i+1 (mod 9)
    rot_only = CyclicFn.from_support(f2, N, adjacent_pairs)
    assert not is_q_symmetric(rot_only, 2, 9)
    swap_only = CyclicFn.from_support(f2, N, [1, 2])  # digit 0 or digit 1
    assert not is_q_symmetric(swap_only, 2, 9)
    assert not is_q_symmetric(CyclicFn.from_support(f2, N, [1]), 2, 9)


def _c7a_powers():
    """The indicator powers of acceptance criterion C7a, as (f, q, n)."""
    for q in (2, 3, 4, 5):
        p, j = prime_power(q)
        ctx = make_field(p, j)
        for n in range(2, 7):
            for w in range(n + 1):
                dw = delta(q, n, w, ctx)
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
        p, j = prime_power(q)
        ctx = make_field(p, j)
        m = delta_mask(q, n, w, ctx.element(c), ctx)
        assert is_q_symmetric(m, q, n)


def test_delta_mask_subfield_validation():
    big = make_field(2, 4)
    bad_c = big.element(2)  # x generates F_16, not in F_4
    with pytest.raises(BadSubfieldError):
        delta_mask(4, 2, 1, bad_c, big)
