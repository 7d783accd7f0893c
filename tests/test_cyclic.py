import random

import pytest

from hmdft import (
    CyclicFn,
    SupportSet,
    compose_perm,
    conv_power,
    convolve,
    delta,
    dft,
    dft_period_by_support,
    idft,
    kronecker,
    least_period,
    least_period_of_sequence,
    make_field,
    pointwise_mul,
    primitive_element,
    reversal,
    shift,
    sigma_eval,
    subfield_embedding,
)
from hmdft.cyclic import least_period_by_descent
from hmdft.gf import FieldCtx

from helpers import (
    ascending_scan_period,
    brute_convolve,
    brute_dft,
    brute_idft,
    brute_least_period,
    brute_least_period_loop,
    count_adds,
    pointwise_dft,
    refusal_type,
)

EX15_SEQ = (1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0)


def random_fn(ctx, N, rng, sparse=None):
    codes = [0] * N
    if sparse is None:
        codes = [rng.randrange(ctx.order) for _ in range(N)]
    else:
        for i in rng.sample(range(N), min(sparse, N)):
            codes[i] = rng.randrange(1, ctx.order)
    return CyclicFn(ctx, codes)


def test_dft_of_kronecker_is_constant_one():
    f7 = make_field(7)
    f = kronecker(f7, 6)
    z6 = f7.element(3)  # 3 has multiplicative order 6 mod 7
    g = dft(f, z6)
    assert list(g.codes) == [1] * 6
    assert idft(g, z6) == f  # constant ones transform back to the delta


def _delta_in_f16(w):
    """The F_2 weight indicator delta(2, 4, w), lifted into F_16."""
    f16 = make_field(2, 4)
    return CyclicFn(f16, subfield_embedding(make_field(2), f16).lift_codes(delta(2, 4, w).codes))


def test_idft_of_delta_transform():
    z = primitive_element(make_field(2, 4))
    for w in (0, 1, 2, 3):
        d = _delta_in_f16(w)
        assert idft(dft(d, z), z) == d


def test_dft_matches_sigma_pointwise():
    z = primitive_element(make_field(2, 4))
    d2 = _delta_in_f16(2)
    g = dft(d2, z)
    for k in range(15):
        assert g(k) == sigma_eval(2, z ** k, 2, 4)


def test_dft_idft_roundtrip_f7():
    f7 = make_field(7)
    rng = random.Random(1)
    z6 = f7.element(3)
    for _ in range(20):
        f = random_fn(f7, 6, rng)
        assert idft(dft(f, z6), z6) == f
        assert dft(idft(f, z6), z6) == f


def test_dft_against_brute_force():
    rng = random.Random(2)
    for ctx, N in [(make_field(2, 4), 15), (make_field(3, 2), 8),
                   (make_field(5, 2), 24), (make_field(2, 4), 5)]:
        zeta = ctx.nth_root_of_unity(N)
        for _ in range(5):
            f = random_fn(ctx, N, rng)
            assert dft(f, zeta) == brute_dft(f, zeta)
            assert idft(f, zeta) == brute_idft(f, zeta)


def subfield_fn(ctx, sub, N, rng, nonzeros):
    """f: Z_N -> ctx with up to `nonzeros` nonzero values, drawn from `sub`."""
    codes = [0] * N
    for i in rng.sample(range(N), min(nonzeros, N)):
        codes[i] = rng.choice(sub)
    return CyclicFn(ctx, codes)


def check_against_pointwise(f, zeta):
    p, N = f.ctx.p, f.N
    assert dft(f, zeta) == pointwise_dft(f, zeta)
    ninv = pow(N % p, p - 2, p)
    assert idft(f, zeta) == pointwise_dft(f, zeta ** -1).scale(ninv)


# per field, the N | p^m - 1 tried: the full group, a proper divisor, a
# divisor with p^t = 1 mod N for some proper t | m, and N = 1
ORACLE_CASES = [
    (2, 12, (4095, 315, 63, 1)),   # 2^6 = 1 mod 63
    (3, 6, (728, 91, 26, 1)),      # 3^3 = 1 mod 26
    (2, 8, (255, 85, 15, 1)),      # 2^4 = 1 mod 15
    (5, 3, (124, 31, 4, 1)),       # 5 = 1 mod 4
]


def test_dft_matches_pointwise_oracle():
    from hmdft import subfield_embedding

    rng = random.Random(7)
    for p, m, Ns in ORACLE_CASES:
        ctx = make_field(p, m)
        # F_{p^t}^x for every t | m, as the fixed points of x -> x**(p^t);
        # t = m is the whole field
        subfields = [[c for c in range(1, ctx.order) if ctx.pow_code(c, p ** t) == c]
                     for t in range(1, m + 1) if m % t == 0]
        for N in Ns:
            zeta = ctx.nth_root_of_unity(N)
            check_against_pointwise(CyclicFn(ctx, [0] * N), zeta)
            for sub in subfields:
                check_against_pointwise(subfield_fn(ctx, sub, N, rng, 12), zeta)
            k = min(N, 128)
            dense = [rng.randrange(ctx.order) for _ in range(k)] + [0] * (N - k)
            check_against_pointwise(CyclicFn(ctx, dense), zeta)
    # (q, n) = (4, 4): F_4-valued sequences lifted into F_256 as `hmdft dft
    # --seq` lifts them, so t = 2 and the cosets are those of 4 mod 255
    small, big = make_field(2, 2), make_field(2, 8)
    emb = subfield_embedding(small, big)
    zeta = primitive_element(big)
    for density in (0.05, 0.5, 1.0):
        seq = [rng.randrange(4) if rng.random() < density else 0 for _ in range(255)]
        check_against_pointwise(CyclicFn(big, emb.lift_codes(seq)), zeta)


def test_dft_sums_once_per_cyclotomic_coset(monkeypatch):
    ctx = make_field(2, 12)
    zeta = ctx.nth_root_of_unity(4095)  # exp[1]: the step of term j is j
    # the terms at 2047 and 2048 take 2048 slices each, which puts the
    # support over the slice budget of 4095, so the coset walk sums it
    f = CyclicFn.from_support(ctx, 4095, [0, 5, 77, 1000, 2047, 2048, 4094])
    expected = pointwise_dft(f, zeta)
    calls = count_adds(monkeypatch, ctx)
    assert dft(f, zeta) == expected
    # 351 cyclotomic cosets of 2 mod 4095, one sum of |supp f| terms each
    assert calls[0] == 351 * 7
    # a value generating F_4096 leaves every coset a single point
    g = CyclicFn(ctx, [ctx.zeta_code if i in {3, 9, 2000, 2047, 2048} else 0
                       for i in range(4095)])
    expected = pointwise_dft(g, zeta)
    calls[0] = 0
    assert dft(g, zeta) == expected
    assert calls[0] == 4095 * 5


@pytest.mark.parametrize("p,m", [(2, 12), (3, 6), (5, 3)])
def test_idft_folds_the_inverse_of_n_into_the_sums(monkeypatch, p, m):
    # N**(-1) rides on the support logs: a sparse input costs no product per
    # output point, and for p = 2 (N**(-1) = 1) nothing at all
    ctx = make_field(p, m)
    N = ctx.order - 1
    zeta = ctx.nth_root_of_unity(N)
    f = CyclicFn(ctx, [p - 1 if i in {0, 5, 77, N - 1} else 0 for i in range(N)])
    ninv = pow(N % p, p - 2, p)
    expected = pointwise_dft(f, zeta ** -1).scale(ninv)
    calls = [0]
    mul = FieldCtx.mul_codes

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul_codes", counted)
    assert idft(f, zeta) == expected
    assert calls[0] == 0


def test_dft_validations():
    f16 = make_field(2, 4)
    f = kronecker(f16, 15)
    with pytest.raises(ValueError, match="^supplied root does not have exact order 15$"):
        dft(f, f16.element(1))  # order 1, not 15
    g = kronecker(f16, 7)
    with pytest.raises(ValueError, match="^N=7 does not divide 15$"):
        dft(g, primitive_element(f16))  # 7 does not divide 15
    f9 = make_field(3, 2)
    with pytest.raises(ValueError, match="^root of unity from a different field$"):
        dft(f, primitive_element(f9))


@pytest.mark.parametrize("transform", [dft, idft])
@pytest.mark.parametrize("p, m, bad", [(5, 1, -1), (5, 1, 5), (5, 1, 9),
                                       (2, 4, -1), (2, 4, 16), (3, 2, 9)])
def test_transforms_refuse_codes_outside_the_field(transform, p, m, bad):
    # -1 once read as the code order - 1 through log[-1], and 9 over F_5
    # failed with a bare IndexError
    ctx = make_field(p, m)
    N = ctx.order - 1
    f = CyclicFn(ctx, [1, 0, bad] + [0] * (N - 3))
    with pytest.raises(ValueError, match=f"^value code {bad} is not an F_{ctx.order} code$"):
        transform(f, primitive_element(ctx))


# each CyclicFn operation that reads values through the field's tables, on
# f with one code outside the field, g in it, and the bad code itself
CHECKED_OPS = {
    "add": lambda f, g, bad: f + g,
    "add_right": lambda f, g, bad: g + f,
    "sub": lambda f, g, bad: f - g,
    "sub_right": lambda f, g, bad: g - f,
    "neg": lambda f, g, bad: -f,
    "scale": lambda f, g, bad: f.scale(1),
    "scale_by": lambda f, g, bad: g.scale(bad),
    "pointwise_mul": lambda f, g, bad: pointwise_mul(g, f),
    "convolve": lambda f, g, bad: convolve(g, f),
    "conv_power": lambda f, g, bad: conv_power(f, 2),
    "compose_perm": lambda f, g, bad: compose_perm(f, {c: c for c in range(g.ctx.order)}),
}


@pytest.mark.parametrize("op", sorted(CHECKED_OPS))
@pytest.mark.parametrize("p, m, bad", [(5, 1, -1), (5, 1, 5), (2, 4, -1), (2, 4, 16),
                                       (3, 2, -1), (3, 2, 9)])
def test_cyclic_ops_refuse_codes_outside_the_field(op, p, m, bad):
    # over F_5, [-1, 7] + itself once gave (3, 4) and its negation (1, 3);
    # scale failed with a bare IndexError and compose_perm read table[-1]
    ctx = make_field(p, m)
    f, g = CyclicFn(ctx, [1, bad, 0]), CyclicFn(ctx, [1, 1, 0])
    with pytest.raises(ValueError, match=f"^value code {bad} is not an F_{ctx.order} code$"):
        CHECKED_OPS[op](f, g, bad)


def test_idft_degenerate_modulus():
    f16 = make_field(2, 4)
    f = CyclicFn(f16, [9])
    z1 = f16.element(1)
    assert dft(f, z1) == f and idft(f, z1) == f


def test_convolve_identity_and_example():
    f3 = make_field(3)
    rng = random.Random(3)
    for _ in range(10):
        f = random_fn(f3, 8, rng)
        assert convolve(f, kronecker(f3, 8)) == f
    d1 = CyclicFn.from_support(f3, 8, [1, 3])  # weight-1 exponents for q=3, n=2
    assert list(convolve(d1, d1).codes) == [0, 0, 1, 0, 2, 0, 1, 0]


def test_convolve_commutes_and_matches_brute():
    rng = random.Random(4)
    for ctx, N in [(make_field(2, 4), 15), (make_field(3, 2), 8), (make_field(7), 6)]:
        for _ in range(5):
            f = random_fn(ctx, N, rng)
            g = random_fn(ctx, N, rng, sparse=3)
            assert convolve(f, g) == convolve(g, f)
            assert convolve(f, g) == brute_convolve(f, g)
    with pytest.raises(ValueError, match="^moduli differ: 4 vs 5$"):
        convolve(kronecker(make_field(3), 4), kronecker(make_field(3), 5))


def test_conv_power():
    f3 = make_field(3)
    d1 = CyclicFn.from_support(f3, 8, [1, 3])
    assert conv_power(d1, 0) == kronecker(f3, 8)
    assert conv_power(d1, 1) == d1
    assert conv_power(d1, 2) == convolve(d1, d1)
    assert conv_power(d1, 5) == convolve(d1, convolve(d1, convolve(d1, convolve(d1, d1))))
    with pytest.raises(ValueError):
        conv_power(d1, -1)


def test_frobenius_conv_power_identity():
    # f valued in the F_q subfield with N | q - 1 satisfies f^{(*q)} = f;
    # with full field values the exponent is the field order itself
    rng = random.Random(5)
    for q, ctx_params in [(3, (3, 2)), (4, (2, 4)), (5, (5, 2)), (7, (7, 2))]:
        from hmdft import subfield_embedding
        from hmdft.numtheory import prime_power

        p, j = prime_power(q)
        small = make_field(p, j)
        big = make_field(*ctx_params)
        emb = subfield_embedding(small, big)
        sub_codes = emb.lift_codes(range(q))
        for N in [d for d in range(1, q) if (q - 1) % d == 0]:
            for _ in range(5):
                f = CyclicFn(big, [sub_codes[rng.randrange(q)] for _ in range(N)])
                assert conv_power(f, q) == f
    for ctx, N in [(make_field(7), 6), (make_field(3, 2), 8), (make_field(2, 2), 3)]:
        for _ in range(5):
            f = random_fn(ctx, N, rng)
            assert conv_power(f, ctx.order) == f


def test_convolution_theorem():
    rng = random.Random(6)
    for ctx, N in [(make_field(2, 4), 15), (make_field(3, 3), 26), (make_field(5, 2), 12)]:
        zeta = ctx.nth_root_of_unity(N)
        for _ in range(10):
            f = random_fn(ctx, N, rng)
            g = random_fn(ctx, N, rng)
            assert dft(convolve(f, g), zeta) == pointwise_mul(dft(f, zeta), dft(g, zeta))


def test_least_period_examples():
    f2 = make_field(2)
    assert least_period(CyclicFn(f2, [1] * 12)) == 1
    assert least_period(CyclicFn(f2, EX15_SEQ)) == 15
    f64 = make_field(2, 6)
    f = CyclicFn.from_support(f64, 63, [3])
    assert least_period(dft(f, primitive_element(f64))) == 21
    assert least_period_of_sequence("abcabc") == 3
    assert least_period_of_sequence([0]) == 1


def test_least_period_of_empty_sequence_refused():
    with pytest.raises(ValueError, match="modulus N must be at least 1"):
        least_period_of_sequence([])


def test_least_period_divides_n_and_matches_brute():
    rng = random.Random(7)
    f5 = make_field(5)
    for _ in range(100):
        N = rng.choice([4, 6, 8, 9, 12, 15, 16, 18, 24])
        base = [rng.randrange(5) for _ in range(rng.choice([d for d in range(1, N + 1) if N % d == 0]))]
        codes = (base * N)[:N]
        f = CyclicFn(f5, codes)
        r = least_period(f)
        assert N % r == 0
        assert r == brute_least_period(codes)


def test_brute_least_period_matches_its_loop():
    # the one-point pre-check of the tests' brute scan against the scan
    # without it: N = 1, constant and period-1 inputs, repeated blocks, and
    # sequences equal to vals[0] at many r but at few periods
    rng = random.Random(31)
    cases = [[0], [5], [2] * 12, [0] * 255, EX15_SEQ, [1, 0] * 6 + [1]]
    for _ in range(200):
        N = rng.choice([1, 2, 7, 12, 15, 24, 63, 80, 255])
        block = [rng.randrange(rng.choice([2, 3, 9])) for _ in range(rng.randrange(1, N + 1))]
        vals = (block * N)[:N]
        if rng.random() < 0.5:  # break the repetition at one point
            vals[rng.randrange(N)] = rng.randrange(3)
        cases.append(vals)
    for vals in cases:
        assert brute_least_period(vals) == brute_least_period_loop(vals), vals


def test_descent_matches_ascending_scan():
    # least periods that are proper divisors of N, and some equal to N, on
    # N = q**n - 1 and other composite N; blocks over a small alphabet
    rng = random.Random(13)
    for _ in range(300):
        N = rng.choice([12, 15, 24, 48, 63, 80, 210, 255, 360, 728, 1023, 2400, 4095])
        d = rng.choice([d for d in range(1, N) if N % d == 0] + [N])
        block = [rng.randrange(rng.choice([2, 3, 5])) for _ in range(d)]
        vals = block * (N // d)
        r = ascending_scan_period(vals)
        assert least_period_of_sequence(vals) == r
        assert least_period_by_descent(
            N, lambda t: all(vals[i] == vals[(i + t) % N] for i in range(N))) == r


def test_descent_tries_only_shifts_dividing_n():
    tried = []

    def is_period(t):
        tried.append(t)
        return t % 6 == 0

    assert least_period_by_descent(360, is_period) == 6
    assert tried and all(360 % t == 0 for t in tried)
    assert least_period_by_descent(1, is_period) == 1


def test_period_preserving_transforms():
    rng = random.Random(8)
    f2 = make_field(2)
    s = CyclicFn(f2, EX15_SEQ)
    assert least_period(shift(s, 7)) == 15
    assert shift(s, 0) == s
    assert reversal(reversal(s)) == s
    for ctx in [make_field(3, 2), make_field(2, 3)]:
        for _ in range(30):
            N = rng.choice([6, 8, 9, 12])
            f = random_fn(ctx, N, rng)
            r = least_period(f)
            k = rng.randrange(-2 * N, 2 * N)
            assert least_period(shift(f, k)) == r
            assert least_period(reversal(f)) == r
            codes = list(range(ctx.order))
            rng.shuffle(codes)
            sigma = {i: codes[i] for i in range(ctx.order)}
            assert least_period(compose_perm(f, sigma)) == r


def test_shift_definition():
    f3 = make_field(3)
    f = CyclicFn(f3, [0, 1, 2, 0, 1, 2])
    g = shift(f, 2)
    for i in range(6):
        assert g(i) == f(i + 2)
    h = reversal(f)
    for i in range(6):
        assert h(i) == f(-(1 + i))


def test_compose_perm_validation():
    f3 = make_field(3)
    f = CyclicFn(f3, [0, 1, 2])
    with pytest.raises(ValueError, match="^sigma is not a bijection of the value field$"):
        compose_perm(f, {0: 0, 1: 1, 2: 1})
    with pytest.raises(ValueError, match="^sigma is not a bijection of the value field$"):
        compose_perm(f, {0: 0})
    assert compose_perm(f, lambda e: e + 1)(0) == f3.element(1)


def test_gcd_periodicity():
    # the r-shift fixes f exactly when the least period divides r
    rng = random.Random(9)
    f7 = make_field(7)
    for _ in range(100):
        N = rng.choice([6, 8, 12, 18])
        f = random_fn(f7, N, rng)
        r = rng.randrange(1, 3 * N)
        assert (shift(f, r) == f) == (r % least_period(f) == 0)


def test_dft_period_by_support():
    assert dft_period_by_support(SupportSet(15, (0,))) == 1
    assert dft_period_by_support(SupportSet(15, (3, 5))) == 15
    assert dft_period_by_support(SupportSet(63, (3,))) == 21
    assert dft_period_by_support(SupportSet(63, ())) == 1


def test_dft_period_matches_transform_period():
    rng = random.Random(10)
    for ctx, N in [(make_field(2, 4), 15), (make_field(3, 2), 8),
                   (make_field(2, 6), 63), (make_field(5, 2), 24)]:
        zeta = ctx.nth_root_of_unity(N)
        for _ in range(20):
            f = random_fn(ctx, N, rng, sparse=rng.randrange(0, 5))
            expected = dft_period_by_support(f.support())
            assert least_period(dft(f, zeta)) == expected
            assert least_period(idft(f, zeta)) == expected


def test_dft_linearity():
    rng = random.Random(11)
    f9 = make_field(3, 2)
    zeta = f9.nth_root_of_unity(8)
    for _ in range(20):
        f = random_fn(f9, 8, rng)
        g = random_fn(f9, 8, rng)
        a = rng.randrange(9)
        lhs = dft(f.scale(a) + g, zeta)
        rhs = dft(f, zeta).scale(a) + dft(g, zeta)
        assert lhs == rhs


def test_support_set_normalizes():
    s = SupportSet(10, (12, 3, 3, -1))
    assert s.members == (2, 3, 9)
    assert len(s) == 3
    assert list(s) == [2, 3, 9]
    same = SupportSet(10, [9, 2, 3])
    assert s == same and hash(s) == hash(same)
    assert s != SupportSet(11, (2, 3, 9)) and s != SupportSet(10, (2, 3))
    assert s != (2, 3, 9) and s != (10, (2, 3, 9))
    assert repr(s) == "SupportSet(N=10, members=(2, 3, 9))"
    assert len({s, same, SupportSet(10, ())}) == 2


def test_cyclic_fn_protocols():
    f = _f3_fn()
    assert f != (1, 2) and not f == (1, 2)
    assert hash(f) == hash(CyclicFn(f.ctx, [1, 2])) and len({f, _f3_fn().scale(2)}) == 2
    assert repr(f) == "CyclicFn(N=2, F3)"


def _f3_fn():
    return CyclicFn(make_field(3), (1, 2))


# fixed ids, the names pytest once took from each case, so a new case
# with the same message renames no old one
CYCLIC_REFUSALS = [
    pytest.param(lambda: SupportSet(0, (1,)), ValueError, "N=0",
                 id="<lambda>-ValueError-N=0"),  # was a reduction mod 0
    pytest.param(lambda: SupportSet(-4, ()), ValueError, "N=-4",
                 id="<lambda>-ValueError-N=-4"),
    pytest.param(lambda: CyclicFn(make_field(3), []), ValueError,
                 "modulus N must be at least 1",
                 id="<lambda>-ValueError-modulus N must be at least 1"),
    # these once returned CyclicFn(N=1), or failed with a bare IndexError
    pytest.param(lambda: kronecker(make_field(3), 0), ValueError,
                 "modulus N must be at least 1, not N=0",
                 id="<lambda>-ValueError-modulus N must be at least 1, not N=0_0"),
    pytest.param(lambda: kronecker(make_field(3), -4), ValueError,
                 "modulus N must be at least 1, not N=-4",
                 id="<lambda>-ValueError-modulus N must be at least 1, not N=-4"),
    pytest.param(lambda: CyclicFn.from_support(make_field(3), -3, [1]), ValueError,
                 "modulus N must be at least 1, not N=-3",
                 id="<lambda>-ValueError-modulus N must be at least 1, not N=-3"),
    pytest.param(lambda: CyclicFn.from_support(make_field(3), 0, [1]), ValueError,
                 "modulus N must be at least 1, not N=0",
                 id="<lambda>-ValueError-modulus N must be at least 1, not N=0_1"),
    pytest.param(lambda: _f3_fn() + CyclicFn(make_field(5), (1, 2)), "CtxMismatchError",
                 "functions valued in different fields",
                 id="<lambda>-CtxMismatchError-functions valued in different fields"),
    pytest.param(lambda: compose_perm(_f3_fn(), {0: 3, 1: 1, 2: 2}), "BadPermutationError",
                 "mapping outside the value field",
                 id="<lambda>-BadPermutationError-mapping outside the value field"),
    # an element of another field was once read by its code alone
    pytest.param(lambda: compose_perm(_f3_fn(), {make_field(3, 2).element(a): b
                                                 for a, b in ((0, 0), (1, 2), (2, 1))}),
                 "BadPermutationError", "^mapping outside the value field$",
                 id="<lambda>-BadPermutationError-^mapping outside the value field$"),
    pytest.param(lambda: compose_perm(_f3_fn(), lambda e: make_field(5).element(1)),
                 "BadPermutationError", "callable must map the field to itself",
                 id="<lambda>-BadPermutationError-callable must map the field to itself"),
    pytest.param(lambda: compose_perm(_f3_fn(), [0, 2, 1]), "BadPermutationError",
                 "sigma must be a dict or a callable",
                 id="<lambda>-BadPermutationError-sigma must be a dict or a callable"),
]


@pytest.mark.parametrize("call, error, text", CYCLIC_REFUSALS)
def test_cyclic_refusals(call, error, text):
    with pytest.raises(refusal_type(error), match=text) as exc:
        call()
    assert type(exc.value) is refusal_type(error)
