import itertools
import math
import operator
import random
import time

import pytest

from hmdft import (
    CyclicFn,
    FieldElement,
    PolyFq,
    char_poly,
    element_degree,
    make_field,
    oracle_irreducible,
    poly_gcd,
    primitive_element,
    sigma_eval,
    subfield_embedding,
)
from hmdft import gf, numtheory
from hmdft.gf import SizeCapError

from helpers import (
    ascending_scan_gamma,
    brute_is_irreducible,
    brute_min_poly,
    digitwise_add,
    digitwise_neg,
    divmod_term_by_term,
    lane_walk_exp_table,
    mobius_loop,
    oracle_irreducible_powering,
    pow_mod_loops,
    polydivmod_loops,
    polymul,
    polymul_exp_table,
    polymul_loops,
    pow_mod_zeta_search,
    rabin_modulus_search,
    refusal_type,
    x_pow_mod_term_by_term,
)

# every field of order <= 2^12 for a spread of primes, then larger fields of
# several shapes: every F_{2^m} up to 2^17 (2 and 4 bytes per packed code
# where the p = 2 exp build doubles), a long odd lane vector, a short wide
# one, and m = 2
SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 31)
                for m in range(1, 13) if p ** m <= 1 << 12]
LARGE_FIELDS = [(2, 13), (2, 14), (2, 15), (2, 16), (2, 17), (3, 9), (5, 6), (7, 5),
                (13, 4), (251, 2)]


def test_make_field_prime():
    f2 = make_field(2)
    assert f2.order == 2 and f2.p == 2 and f2.m == 1
    f7 = make_field(7)
    assert f7.order == 7


def test_make_field_f16_modulus():
    # x^4 + x + 1 is the canonically-first irreducible quartic over F_2
    f16 = make_field(2, 4)
    assert f16.modulus == (1, 1, 0, 0, 1)
    assert f16.order == 16


def test_make_field_f9_modulus():
    # enumeration with constant term varying fastest finds x^2 + 1 first
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)


def test_make_field_validation():
    with pytest.raises(ValueError, match="^6 is not prime$"):
        make_field(6)
    with pytest.raises(ValueError, match="^1 is not prime$"):
        make_field(1)
    with pytest.raises(SizeCapError):
        make_field(2, 30)
    with pytest.raises(SizeCapError):  # just above FIELD_ORDER_CAP = 2**20
        make_field(2, 21)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_make_field_huge_prime_fails_fast(monkeypatch):
    # the size check comes first: trial division of 2**61 - 1 would not finish
    def no_factoring(n):
        raise AssertionError(f"factored {n} before the size check")

    monkeypatch.setattr(numtheory, "factorize", no_factoring)
    start = time.perf_counter()
    with pytest.raises(SizeCapError):
        make_field(2 ** 61 - 1)
    assert time.perf_counter() - start < 1


def test_check_size_limits():
    assert gf.check_size(3, 9) == 19682
    assert gf.check_size(3, 9, cap=19682) == 19682
    assert gf.check_size(2, 22) == gf.MODULUS_GUARD - 1
    assert gf.check_size(2, 20, field=True) == gf.FIELD_ORDER_CAP - 1
    # a cap above a hard limit does not lift it
    assert gf.check_size(2, 21, cap=1 << 30) == (1 << 21) - 1
    for args, kw, limit in [((3, 9), {"cap": 19681}, 19681),
                            ((2, 23), {"cap": 1 << 30}, gf.MODULUS_GUARD),
                            ((2, 21), {"field": True}, gf.FIELD_ORDER_CAP - 1),
                            ((2, 21), {"cap": 100, "field": True}, 100),
                            ((2, 5), {"cap": 0}, 0)]:
        with pytest.raises(SizeCapError) as exc:
            gf.check_size(*args, **kw)
        msg = str(exc.value)
        assert f"(q, n) = {args}" in msg and f"cap {limit}" in msg
        assert str(args[0] ** args[1] - 1) not in msg


@pytest.mark.parametrize("q, n, match", [(2, -1, "n=-1"), (3, 0, "n=0"), (0, -1, "n=-1"),
                                         (1, 2, "q=1"), (0, 3, "q=0"), (-2, 2, "q=-2"),
                                         (1, 10 ** 18, "q=1")])
def test_check_size_refuses_q_below_two_and_n_below_one(q, n, match):
    # once -0.5 for (2, -1), and N = 0 or -1 for q = 1 or 0: a ValueError
    # naming the value, not a SizeCapError, before q**n is formed
    for kw in ({}, {"cap": 0}, {"field": True}):
        with pytest.raises(ValueError, match=match) as exc:
            gf.check_size(q, n, **kw)
        assert type(exc.value) is ValueError


def test_check_size_refuses_huge_n_before_the_power():
    # q**n is never formed past the bit length of the limit, so this is instant
    for q in (2, 3, 1 << 20):
        with pytest.raises(SizeCapError) as exc:
            gf.check_size(q, 10 ** 18, field=True)
        assert len(str(exc.value)) < 200


def test_make_field_deterministic_and_cached():
    a = make_field(3, 3)
    b = make_field(3, 3)
    assert a is b
    assert a.modulus == b.modulus and a.zeta_code == b.zeta_code


def test_modulus_is_irreducible():
    for p, m in [(2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
        ctx = make_field(p, m)
        prime = make_field(p)
        assert oracle_irreducible(PolyFq(prime, ctx.modulus))


def test_primitive_element_f2():
    assert primitive_element(make_field(2)).code == 1


def test_primitive_element_f16_is_x():
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    assert z.code == 2  # the residue class of x
    # order 15 by direct powering
    seen = set()
    e = f16.element(1)
    for _ in range(15):
        e = e * z
        seen.add(e.code)
    assert e == 1 and len(seen) == 15


def test_primitive_element_f4():
    f4 = make_field(2, 2)
    z = primitive_element(f4)
    assert z ** 3 == 1 and z != 1 and z * z != 1


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2), (2, 6), (3, 3)])
def test_primitive_element_has_full_order(p, m):
    ctx = make_field(p, m)
    z = primitive_element(ctx)
    assert ctx.order_of(z.code) == ctx.order - 1
    # canonically first: no smaller code generates
    for code in range(1, z.code):
        assert ctx.order_of(code) != ctx.order - 1


def test_exp_log_tables_consistent():
    for p, m in [(2, 4), (3, 2), (5, 2), (2, 6)]:
        ctx = make_field(p, m)
        z = ctx.zeta_code
        acc = 1
        for i in range(ctx.order - 1):
            assert ctx.exp[i] == acc
            assert ctx.log[acc] == i
            acc = polymul(ctx, acc, z)
        assert acc == 1
        # exp(i+j) = exp(i) * exp(j) on a sample
        rng = random.Random(7)
        M = ctx.order - 1
        for _ in range(50):
            i, j = rng.randrange(M), rng.randrange(M)
            assert ctx.exp[(i + j) % M] == ctx.mul_codes(ctx.exp[i], ctx.exp[j])


def _assert_matches_polymul_walk(p, m):
    ctx = make_field(p, m)
    exp = polymul_exp_table(ctx)
    assert tuple(ctx.exp) == tuple(exp)
    # and the p-generic lane walk, on columns from polymul
    assert exp == lane_walk_exp_table(ctx)
    log = [-1] * ctx.order
    for i, c in enumerate(exp):
        log[c] = i
    assert ctx.log == tuple(log)
    # the canonically-first primitive element: least code whose log is a unit mod M
    M = ctx.order - 1
    assert ctx.zeta_code == next(c for c in range(1, ctx.order) if math.gcd(log[c], M) == 1)
    # the canonically-first monic irreducible, by trial division
    prime = make_field(p)
    for code in range(ctx.order):
        digits = [code // p ** i % p for i in range(m)]
        if brute_is_irreducible(PolyFq(prime, digits + [1])):
            break
    assert ctx.modulus == tuple(digits + [1])


@pytest.mark.parametrize("p", sorted({p for p, _ in SMALL_FIELDS}))
def test_small_field_tables_match_polymul_walk(p):
    for q, m in SMALL_FIELDS:
        if q == p:
            _assert_matches_polymul_walk(p, m)


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_large_field_tables_match_polymul_walk(p, m):
    _assert_matches_polymul_walk(p, m)


def test_exp_build_makes_few_general_products(monkeypatch):
    # the lane walk's tables grow from the m columns zeta*x**i, m - 1 products
    # in all; one product per table entry would be 3**5 = 243 of them.  The
    # modulus search (Ben-Or's test) and the zeta search's linear candidates
    # (the norm, then x_pow_mod) step by spreads and reductions, no product;
    # zeta has degree >= 2 in F_{3^10}, so that search powers by pow_mod,
    # whose products do not grow with the tables and are counted in the
    # total only.  Every product is the list kernel's gf._mul, which all of
    # them reach by module lookup
    total = outside = depth = 0
    mul, pow_mod = gf._mul, gf.PolyFq.pow_mod

    def counted(ctx, a, b):
        nonlocal total, outside
        total += 1
        outside += depth == 0
        return mul(ctx, a, b)

    def nested(fn):
        def inner(*args):
            nonlocal depth
            depth += 1
            try:
                return fn(*args)
            finally:
                depth -= 1
        return inner

    monkeypatch.setattr(gf, "_mul", counted)
    monkeypatch.setattr(gf.PolyFq, "pow_mod", nested(pow_mod))
    monkeypatch.delitem(gf._FIELD_CACHE, (3, 10), raising=False)
    ctx = make_field(3, 10)
    assert 0 < outside < 2 * ctx.m
    assert total < ctx.order // 16


FIELDS_TO_256 = [(p, m) for p in range(2, 257) if numtheory.is_prime(p)
                 for m in range(1, 9) if p ** m <= 256]


@pytest.mark.parametrize("p,m", FIELDS_TO_256)
def test_order_of_matches_repeated_products(p, m):
    ctx = make_field(p, m)
    for a in range(1, ctx.order):
        k, acc = 1, a
        while acc != 1:
            acc = polymul(ctx, acc, a)
            k += 1
        assert ctx.order_of(a) == k


@pytest.mark.parametrize("p,modulus", [(2, (0, 0, 1)), (3, (0, 0, 1)), (5, (0, 0, 1)),
                                       (7, (0, 0, 1)), (2, (0,) * 10 + (1,))])
def test_exp_walk_must_close(p, modulus):
    # x^m is reducible: the search settles on the nilpotent x, whose powers
    # reach 0 and never return to 1 (p = 2 walks 512 powers and doubles
    # the rest, packed 2 bytes per code at m = 10, to zeta * exp[M - 1] = 0;
    # odd p walks lanes to x**K = 0, K = (p**2 - 1)/(p - 1), where the
    # scalar blocks would start); the constructor builds the tables, so it
    # raises
    with pytest.raises(AssertionError, match="generator order"):
        gf.FieldCtx(p, len(modulus) - 1, modulus)


@pytest.mark.parametrize("p,m,modulus", [(3, 2, (1, 0, 1)), (2, 4, (1, 1, 1, 1, 1)),
                                         (2, 10, (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1))])
def test_exp_walk_must_close_on_a_generator_of_a_subgroup(p, m, modulus, monkeypatch):
    # with no prime of order - 1 to test, the search takes x, which has order
    # 4 in F_9 (so x**K = 1 and the scalar blocks repeat the first), 5 in
    # F_16 and 341 in F_{2^10}, 2 bytes per packed code; either way
    # x**(order - 1) = 1, so only the check that no earlier power is 1 sees
    # that x generates a proper subgroup.  The modulus is irreducible, so x's
    # order alone is at fault; the prime field is built before the patch
    assert oracle_irreducible(PolyFq(make_field(p), modulus))
    monkeypatch.setattr(numtheory, "prime_factors", lambda n: [])
    with pytest.raises(AssertionError, match="generator order"):
        gf.FieldCtx(p, m, modulus)


@pytest.mark.parametrize("i,code", [(600, None), (597, 0)])
def test_exp_table_must_be_a_bijection(i, code, monkeypatch):
    # a doubled table that repeats the nonzero code at 601 (leaving one code
    # out) or holds 0, with its last entry and its only 1 in place, so that
    # zeta * exp[M - 1] = 1 and log[1] = 0 still hold: only the exact
    # certificate on the log table, log[0] = -1 and sum(log) = M(M-1)/2 - 1,
    # refuses it
    p, m = 2, 10
    modulus = gf._modulus(p, m)
    build = gf._doubling_exp

    def faulty(*args):
        exp = build(*args)
        exp[i] = exp[i + 1] if code is None else code
        return exp

    monkeypatch.setattr(gf, "_doubling_exp", faulty)
    with pytest.raises(AssertionError, match="generator order"):
        gf.FieldCtx(p, m, modulus)
    monkeypatch.setattr(gf, "_doubling_exp", build)
    assert gf.FieldCtx(p, m, modulus).exp == make_field(p, m).exp


def test_exp_table_at_the_cap_by_sampled_powers():
    # F_{2^20}, the largest field, packs 4 bytes per code, the top one 0:
    # every nonzero code occurs once, and exp[i] is zeta**i by pow_mod at
    # the block edges of the doubling and at seeded i
    p, m = 2, 20
    ctx = gf.FieldCtx(p, m, gf._modulus(p, m))  # uncached, freed afterwards
    M = ctx.order - 1
    assert sorted(ctx.exp) == list(range(1, ctx.order))
    prime = make_field(p)
    zeta, mod = PolyFq(prime, ctx.digits_of(ctx.zeta_code)), PolyFq(prime, ctx.modulus)
    rng = random.Random(2020)
    for i in [0, 1, 255, 256, 65535, 65536, 1 << 19, M - 1] + rng.sample(range(M), 40):
        assert ctx.exp[i] == sum(c << k for k, c in enumerate(zeta.pow_mod(i, mod).codes))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 65521])
def test_prime_field_exp_is_the_power_walk(p):
    ctx = make_field(p)
    z = ctx.zeta_code
    assert tuple(ctx.exp) == tuple(pow(z, i, p) for i in range(p - 1))
    assert all(ctx.log[c] == i for i, c in enumerate(ctx.exp))


def test_field_axioms_random_triples():
    rng = random.Random(20260811)
    for p, m in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        ctx = make_field(p, m)
        for _ in range(200):
            a = ctx.element(rng.randrange(ctx.order))
            b = ctx.element(rng.randrange(ctx.order))
            c = ctx.element(rng.randrange(ctx.order))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if a.code:
                assert a * (1 / a) == 1
                assert a / a == 1
            assert a - a == 0 and a + (-a) == 0


def test_add_codes_match_digitwise_reference():
    # every odd extension field adds by Zech logarithms: F_9 and F_125 are
    # checked on every pair, F_{3^6}, F_{5^5} and F_{7^4} on random pairs, and
    # all of them on a = 0, b = 0 and b = -a (the zech == -1 entry)
    rng = random.Random(17)
    for p, m in [(3, 2), (5, 3), (3, 6), (5, 5), (7, 4)]:
        ctx = make_field(p, m)
        order = ctx.order
        if order <= 125:
            pairs = list(itertools.product(range(order), repeat=2))
        else:
            pairs = [(rng.randrange(order), rng.randrange(order)) for _ in range(2000)]
        for a in rng.sample(range(order), min(order, 200)):
            pairs += [(a, 0), (0, a), (a, digitwise_neg(p, a))]
        for a, b in pairs:
            assert ctx.add_codes(a, b) == digitwise_add(p, a, b)
            assert ctx.neg_code(a) == digitwise_neg(p, a)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 1), (7, 1), (3, 2), (5, 3)])
def test_subtraction_matches_digitwise_reference(p, m):
    # a - b is add_codes(a, neg_code(b)) in every adder scheme: XOR at p = 2,
    # mod p in the prime fields and Zech in F_9 and F_125; every pair is
    # checked through FieldElement, and seeded rows through PolyFq and CyclicFn
    ctx = make_field(p, m)
    order = ctx.order

    def sub(a, b):
        return digitwise_add(p, a, digitwise_neg(p, b))

    for a, b in itertools.product(range(order), repeat=2):
        assert (FieldElement(ctx, a) - FieldElement(ctx, b)).code == sub(a, b)
    for a in range(order):
        for k in (0, 1, p - 1, p, -1):  # an int is the prime-field constant k mod p
            assert (FieldElement(ctx, a) - k).code == sub(a, k % p)
            assert (k - FieldElement(ctx, a)).code == sub(k % p, a)
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            FieldElement(ctx, 1) - bad
        with pytest.raises(TypeError):
            bad - FieldElement(ctx, 1)
    rng = random.Random(p * 100 + m)
    for _ in range(50):
        a = [rng.randrange(order) for _ in range(rng.randrange(6))]
        b = [rng.randrange(order) for _ in range(rng.randrange(6))]
        width = max(len(a), len(b))
        a0, b0 = a + [0] * (width - len(a)), b + [0] * (width - len(b))
        diff = [sub(x, y) for x, y in zip(a0, b0)]
        assert PolyFq(ctx, a) - PolyFq(ctx, b) == PolyFq(ctx, diff)
        if width:
            assert (CyclicFn(ctx, a0) - CyclicFn(ctx, b0)).codes == tuple(diff)
    # a polynomial minus itself is the zero polynomial, with no zero lead left
    f = PolyFq(ctx, [1, order - 1, 1])
    assert (f - f).codes == ()


# every odd-characteristic extension field of order <= 2^16; the odd fields
# of LARGE_FIELDS are among them
ODD_EXTENSION_FIELDS = [(p, m) for p in range(3, 1 << 8) if numtheory.is_prime(p)
                        for m in range(2, 11) if p ** m <= 1 << 16]
assert {f for f in LARGE_FIELDS if f[0] > 2} <= set(ODD_EXTENSION_FIELDS)


@pytest.mark.parametrize("p", sorted({p for p, _ in ODD_EXTENSION_FIELDS}))
def test_zech_table_matches_digitwise_reference(p):
    # zech[k] is the log of 1 + zeta**k, with the 1 added digit by digit;
    # log[0] = -1, so it is -1 exactly where zeta**k = -1, the code p - 1
    for q, m in ODD_EXTENSION_FIELDS:
        if q == p:
            ctx = make_field(p, m)
            exp, log = ctx.exp, ctx.log
            assert list(ctx.zech) == [log[digitwise_add(p, c, 1)] for c in exp]
            assert [k for k, z in enumerate(ctx.zech) if z == -1] == [exp.index(p - 1)]


def test_element_coercion_and_errors():
    f9 = make_field(3, 2)
    a = f9.element(5)
    assert a + 0 == a and a * 1 == a
    assert (a - a).code == 0
    assert a + 3 == a  # ints coerce as prime-subfield constants
    other = make_field(3, 3).element(1)
    with pytest.raises(ValueError, match="^elements from different fields$"):
        _ = a + other
    with pytest.raises(ZeroDivisionError):
        _ = a / f9.element(0)
    assert a ** 0 == 1
    assert a ** (-1) == 1 / a
    assert f9.digits_of(a.code) == (2, 1)  # 5 = 2 + 1*3


def test_int_on_the_left_of_sub_and_div():
    # 7 - a and 7 / a: the int coerces to the constant 7 mod p, then the
    # reflected operator computes with it on the left
    f25 = make_field(5, 2)
    for code in range(1, f25.order):
        a = f25.element(code)
        assert (7 - a).code == digitwise_add(5, 2, digitwise_neg(5, code))
        assert (7 / a) * a == 2 and (7 / a).ctx is f25
    assert (0 - f25.element(0)).code == 0
    with pytest.raises(ZeroDivisionError):
        _ = 1 / f25.element(0)
    with pytest.raises(TypeError):
        _ = 1.5 - f25.element(1)
    with pytest.raises(TypeError):
        _ = 1.5 / f25.element(1)


def test_element_and_polynomial_protocols():
    # an operand of another type is handed back, so Python raises TypeError
    f9 = make_field(3, 2)
    a = f9.element(5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, 1.5)
    assert a != 1.5 and not a == 1.5
    assert hash(a) == hash(f9.element(5)) and len({a, f9.element(5), f9.element(4)}) == 2
    assert repr(a) == "F9(5)"
    h = PolyFq(f9, [5, 0, 1])
    assert h != (5, 0, 1) and not h == (5, 0, 1)
    assert hash(h) == hash(PolyFq(f9, [5, 0, 1, 0])) and len({h, PolyFq(f9, [5, 1])}) == 2
    assert repr(h) == "PolyFq(F9, x^2 + 5)" and repr(PolyFq(f9, [])) == "PolyFq(F9, 0)"


def test_poly_add_either_order_and_neg():
    # a shorter polynomial on either side of +, and -f, digit by digit mod p
    f9 = make_field(3, 2)
    short, long = PolyFq(f9, [4, 8]), PolyFq(f9, [5, 1, 7, 2])
    want = [digitwise_add(3, a, b) for a, b in zip([4, 8, 0, 0], long.codes)]
    assert (short + long).codes == (long + short).codes == tuple(want)
    assert (-long).codes == tuple(digitwise_neg(3, c) for c in long.codes)
    assert (-long + long).is_zero() and -PolyFq(f9, []) == PolyFq(f9, [])
    # a sum whose top terms cancel is trimmed
    assert (PolyFq(f9, [1, 1]) + PolyFq(f9, [1, 2])).codes == (2,)


def test_element_degree_examples():
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    assert element_degree(f16.element(1), 2, 4) == 1
    assert element_degree(f16.element(0), 2, 4) == 1
    assert element_degree(z ** 5, 2, 4) == 2  # order 3, lies in F_4
    assert element_degree(z ** 3, 2, 4) == 4
    with pytest.raises(ValueError, match=r"^field modulus 15 is not q\*\*n - 1 = 7$"):
        element_degree(z, 2, 3)
    with pytest.raises(ValueError, match=r"^field modulus 15 is not q\*\*n - 1 = 255$"):
        element_degree(z, 4, 4)


def test_element_degree_tests_only_proper_divisors(monkeypatch):
    # d = n always holds in F_{q^n}, so a degree-n element makes one power per
    # proper divisor of n: 5 at n = 12 (1, 2, 3, 4, 6), not 6
    f4096 = make_field(2, 12)
    calls = []
    pow_code = gf.FieldCtx.pow_code

    def counted(ctx, a, e):
        calls.append(e)
        return pow_code(ctx, a, e)

    monkeypatch.setattr(gf.FieldCtx, "pow_code", counted)
    assert element_degree(primitive_element(f4096), 2, 12) == 12
    assert calls == [2 ** d for d in (1, 2, 3, 4, 6)]
    calls.clear()
    assert element_degree(primitive_element(make_field(3)), 3, 1) == 1
    assert calls == []  # n = 1 has no proper divisor


def test_element_degree_counts():
    # number of elements of each degree follows the subfield lattice
    f64 = make_field(2, 6)
    counts = {}
    for e in map(f64.element, range(f64.order)):
        d = element_degree(e, 2, 6)
        counts[d] = counts.get(d, 0) + 1
    assert counts == {1: 2, 2: 2, 3: 6, 6: 54}  # 0 counted as degree 1


def test_char_poly_constant():
    f9 = make_field(3, 2)
    for code in range(3):
        xi = f9.element(code)
        cp = char_poly(xi, 3, 2)
        lin = PolyFq(f9, [f9.neg_code(code), 1])
        assert cp == lin * lin


def test_char_poly_of_modulus_root():
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    assert char_poly(z, 2, 4).codes == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2), (2, 6)])
def test_char_poly_vs_brute_min_poly(q, n):
    from hmdft.numtheory import prime_power

    p, j = prime_power(q)
    small = make_field(p, j)
    big = make_field(p, j * n)
    emb = subfield_embedding(small, big)
    rng = random.Random(5)
    codes = rng.sample(range(big.order), min(12, big.order))
    for code in codes:
        xi = FieldElement(big, code)
        d = element_degree(xi, q, n)
        mp = brute_min_poly(xi, q, n, emb) if code else PolyFq(small, (0, 1))
        assert mp.degree == d
        lifted = PolyFq(big, emb.lift_codes(mp.codes))
        power = PolyFq(big, (1,))
        for _ in range(n // d):
            power = power * lifted
        assert char_poly(xi, q, n) == power


def test_sigma_examples():
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    assert sigma_eval(0, z ** 7, 2, 4) == 1
    # sigma_1 is the trace: direct Frobenius-orbit sum
    for k in range(15):
        xi = z ** k
        tr = xi + xi ** 2 + xi ** 4 + xi ** 8
        assert sigma_eval(1, xi, 2, 4) == tr
    assert sigma_eval(2, z, 2, 4).code == 0
    with pytest.raises(ValueError, match=r"^w=5 outside \[0, 4\]$"):
        sigma_eval(5, z, 2, 4)


@pytest.mark.parametrize("q,n", [(2, 4), (2, 6), (3, 2), (3, 4), (4, 2), (5, 2), (2, 12)])
def test_sigma_reciprocal_identity(q, n):
    # sigma_w(xi) = sigma_n(xi) * sigma_{n-w}(xi^{-1}) for all nonzero xi
    from hmdft.numtheory import prime_power

    p, j = prime_power(q)
    big = make_field(p, j * n)
    step = max(1, (big.order - 1) // 500)  # full scan when small, stride above
    for code_idx in range(0, big.order - 1, step):
        xi = FieldElement(big, big.exp[code_idx])
        inv = xi ** -1
        cp = char_poly(xi, q, n)
        cp_inv = char_poly(inv, q, n)
        sn = sigma_eval(n, xi, q, n)
        for w in range(n + 1):
            lhs = sigma_eval(w, xi, q, n)
            rhs = sn * sigma_eval(n - w, inv, q, n)
            assert lhs == rhs
        # and the char polys are reciprocal up to the norm factor
        assert cp_inv.codes[0] != 0 or xi == 1


def test_char_poly_irreducible_iff_degree_n():
    f16 = make_field(2, 4)
    f2 = make_field(2)
    emb = subfield_embedding(f2, f16)
    for e in map(f16.element, range(f16.order)):
        cp = emb.lower_poly(char_poly(e, 2, 4))
        assert oracle_irreducible(cp) == (element_degree(e, 2, 4) == 4)


def test_embedding_f4_in_f16():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    emb = subfield_embedding(f4, f16)
    assert [emb.lift(e).code for e in map(f4.element, range(4))] == [0, 1, 6, 7]
    rng = random.Random(3)
    for _ in range(50):
        a = f4.element(rng.randrange(4))
        b = f4.element(rng.randrange(4))
        assert emb.lift(a + b) == emb.lift(a) + emb.lift(b)
        assert emb.lift(a * b) == emb.lift(a) * emb.lift(b)
        assert emb.lower_poly(PolyFq(f16, [emb.lift(a).code])) == PolyFq(f4, [a.code])
    assert emb.lift_codes([3, 0, 2, 1]) == [7, 0, 6, 1]
    for bad in (-1, 4):  # a bare table lookup would wrap -1 to code 3
        with pytest.raises(ValueError, match=f"^code={bad} is not an F_4 code$"):
            emb.lift_codes([0, bad])
    with pytest.raises(ValueError, match="^code=5 is not an F_4 code$"):  # the first one named
        emb.lift_codes([1, 5, -1, 9])
    with pytest.raises(ValueError, match="^coefficient outside the embedded subfield$"):
        emb.lower_poly(PolyFq(f16, [2]))  # x generates F_16, not in F_4
    with pytest.raises(ValueError, match="^F_8 is not a subfield of F_16$"):
        subfield_embedding(make_field(2, 3), f16)


def test_embedding_identity_and_prime():
    f16 = make_field(2, 4)
    emb = subfield_embedding(f16, f16)
    for code in (0, 1, 5, 11):
        assert emb.lift(f16.element(code)).code == code
    f3 = make_field(3)
    f27 = make_field(3, 3)
    emb2 = subfield_embedding(f3, f27)
    assert [emb2.lift(e).code for e in map(f3.element, range(3))] == [0, 1, 2]


def test_embedding_gamma_matches_ascending_scan():
    # the least root found among the subfield's codes is the least over all
    # of big, on every proper tower of order <= 2^16 (33 of them with s >= 2)
    fields = [(p, m) for p in (2, 3, 5, 7, 11, 13, 31, 251)
              for m in range(1, 17) if p ** m <= 1 << 16]
    towers = []
    for (p, s), (q, t) in itertools.product(fields, repeat=2):
        if p == q and s < t and t % s == 0:
            small, big = make_field(p, s), make_field(p, t)
            assert subfield_embedding(small, big).gamma == ascending_scan_gamma(small, big)
            towers.append(s)
    assert len(towers) == 75 and sum(s >= 2 for s in towers) == 33


def test_poly_arithmetic_basics():
    f2 = make_field(2)
    a = PolyFq(f2, [1, 1, 0, 0, 1])        # x^4+x+1
    b = PolyFq(f2, [1, 1])                 # x+1
    q, r = divmod(a, b)
    assert q * b + r == a
    assert poly_gcd(a, b).degree == 0
    assert str(a) == "x^4 + x + 1"
    c = PolyFq(f2, [1, 0, 1])              # (x+1)^2
    assert poly_gcd(c, b) == b
    x = PolyFq.x(f2)
    assert x.pow_mod(16, a) == x % a       # Frobenius closes for irreducible a
    f3 = make_field(3)
    d = PolyFq(f3, [2, 0, 1])
    assert d(f3.element(1)).code == 0      # 1 + 2 = 0 mod 3
    assert d.monic() == d
    assert (d * PolyFq(f3, [2])).monic() == d


def test_pow_mod_zero_exponent():
    f3 = make_field(3)
    x = PolyFq.x(f3)
    unit = PolyFq(f3, (2,))
    # modulo a unit every residue is 0, even x**0
    assert x.pow_mod(0, unit).is_zero()
    assert x.pow_mod(5, unit).is_zero()
    for mod in (PolyFq(f3, (1, 1)), PolyFq(f3, (2, 0, 2))):
        assert x.pow_mod(0, mod) == PolyFq(f3, (1,))
    with pytest.raises(ZeroDivisionError):
        x.pow_mod(0, PolyFq(f3, ()))


# (q, largest degree) of the exhaustive oracle comparisons
ORACLE_GRID = [(2, 10), (3, 6), (4, 5), (5, 4), (7, 4), (8, 3), (9, 3)]


def _monic_polys(q, top):
    ctx = make_field(*numtheory.prime_power(q))
    for n in range(1, top + 1):
        for codes in itertools.product(range(q), repeat=n):
            yield PolyFq(ctx, codes + (1,))


@pytest.mark.parametrize("q,top", ORACLE_GRID)
def test_oracle_irreducible_matches_powering(q, top):
    # the Frobenius-matrix test against repeated squaring on the old loops
    for h in _monic_polys(q, top):
        assert oracle_irreducible(h) == oracle_irreducible_powering(h), h


@pytest.mark.parametrize("q,top", ORACLE_GRID)
def test_oracle_irreducible_counts_match_gauss(q, top):
    # (1/n) * sum over d | n of mobius(d) * q**(n/d) monic irreducibles of degree n
    counts = [0] * (top + 1)
    for h in _monic_polys(q, top):
        counts[h.degree] += oracle_irreducible(h)
    assert counts[1:] == [sum(mobius_loop(d) * q ** (n // d)
                              for d in numtheory.divisors(n)) // n
                          for n in range(1, top + 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_poly_kernel_matches_loops(q):
    ctx = make_field(*numtheory.prime_power(q))
    rng = random.Random(q)

    def rand_poly(deg, monic=False):
        codes = [rng.randrange(q) for _ in range(deg)]
        return PolyFq(ctx, codes + [1 if monic else rng.randrange(1, q)])

    for _ in range(60):
        a, b = rand_poly(rng.randrange(33)), rand_poly(rng.randrange(33))
        assert a * b == polymul_loops(a, b)
        assert divmod(a, b) == polydivmod_loops(a, b)
        mod = rand_poly(rng.randrange(33), monic=rng.random() < 0.5)
        e = rng.choice([0, 1, 2, q, rng.randrange(1, 1 << 20)])
        assert a.pow_mod(e, mod) == pow_mod_loops(a, e, mod)
    zero = PolyFq(ctx, ())
    assert zero * a == polymul_loops(zero, a) == zero
    assert divmod(zero, a) == polydivmod_loops(zero, a) == (zero, zero)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 25, 49])
def test_prepared_division_matches_term_by_term(q):
    # the prepared divisor against the division it replaced, with non-monic
    # divisors (as _gcd passes them), degree-0 divisors and dividends shorter
    # than the divisor; then x_pow_mod's spread steps against square and
    # multiply, where q = 16, 25 and 49 spread wider than any benchmark pair
    ctx = make_field(*numtheory.prime_power(q))
    rng = random.Random(q)

    def rand_codes(deg, monic):
        return [rng.randrange(q) for _ in range(deg)] + [1 if monic else rng.randrange(1, q)]

    cases = 0
    for _ in range(80):
        h = rand_codes(rng.choice([0, 0, 1, 2, rng.randrange(3, 13)]), rng.random() < 0.4)
        a = rand_codes(rng.randrange(len(h) + 12), False) if rng.random() < 0.9 else []
        assert gf._divmod(ctx, a, h) == divmod_term_by_term(ctx, a, h), (a, h)
        cases += len(a) < len(h)
    assert cases
    if q in (4, 7, 8):
        return
    for _ in range(12):
        h = rand_codes(rng.randrange(9), rng.random() < 0.5)
        for t in [0, 1, q - 1, q, q * q + 3, rng.randrange(10 ** 6)]:
            assert gf.x_pow_mod(ctx, t, h) == x_pow_mod_term_by_term(ctx, t, h), (h, t)


def _digits(code, p, m):
    return [code // p ** i % p for i in range(m)]


def _is_prime_by_trial(t):
    return t > 1 and all(t % s for s in range(2, math.isqrt(t) + 1))


def _zeta_by_loops(ctx):
    """The least code whose powers fill F_q^x, each power by pow_mod_loops."""
    p, m = ctx.p, ctx.m
    M = ctx.order - 1
    primes = [t for t in range(2, M + 1) if M % t == 0 and _is_prime_by_trial(t)]
    prime = make_field(p)
    mod, one = PolyFq(prime, ctx.modulus), PolyFq(prime, (1,))
    for code in range(1, ctx.order):
        if m == 1:
            primitive = all(pow(code, M // t, p) != 1 for t in primes)
        else:
            g = PolyFq(prime, _digits(code, p, m))
            primitive = all(pow_mod_loops(g, M // t, mod) != one for t in primes)
        if primitive:
            return code
    raise AssertionError("every finite field has a primitive element")


# every extension field of order <= 2**16, and the prime fields below 2**8;
# a prime field's build uses no polynomial arithmetic
CANONICAL_FIELDS = [(p, m) for p in range(2, 1 << 8) if _is_prime_by_trial(p)
                    for m in range(1, 17) if p ** m <= 1 << 16]


@pytest.mark.parametrize("p", sorted({p for p, _ in CANONICAL_FIELDS}))
def test_canonical_fields_match_loop_oracles(p, monkeypatch):
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})  # cold builds, freed afterwards
    prime = make_field(p)
    for m in [m for q, m in CANONICAL_FIELDS if q == p]:
        ctx = make_field(p, m)
        if m > 1:
            candidates = (PolyFq(prime, _digits(code, p, m) + [1]) for code in range(p ** m))
            assert ctx.modulus == next(h for h in candidates
                                       if oracle_irreducible_powering(h)).codes
        assert ctx.zeta_code == _zeta_by_loops(ctx)


def _readme_grid_fields():
    # the fields the verify-readme benchmark builds in set-up: F_q and F_{q^n}
    # for the README grid, 2 <= n <= 6 and q**n - 1 <= 20000
    for q in (2, 3, 4, 5, 7):
        p, j = numtheory.prime_power(q)
        yield p, j
        yield from ((p, j * n) for n in range(2, 7) if q ** n <= 20001)


def test_modulus_search_is_ben_or_alone(monkeypatch):
    # every candidate up to the canonical modulus takes Ben-Or's test, 168 to
    # build the grid's fields cold; its d = 1 step is a root test with no gcd,
    # so only rootless candidates of degree >= 4 take a gcd or a Frobenius
    # step.  Rabin's test is the tests' oracle, and no field build calls it
    calls = dict.fromkeys(["_ben_or", "_gcd", "_frobenius_step", "oracle_irreducible"], 0)
    stack = []  # _gcd and _frobenius_step count only inside _ben_or

    def counted(name, fn):
        def inner(*args):
            calls[name] += name in ("_ben_or", "oracle_irreducible") or "_ben_or" in stack
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return inner

    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    for name in calls:
        monkeypatch.setattr(gf, name, counted(name, getattr(gf, name)))
    for p, m in _readme_grid_fields():
        make_field(p, m)
    assert calls == {"_ben_or": 168, "_gcd": 59, "_frobenius_step": 93,
                     "oracle_irreducible": 0}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ben_or_decides_degrees_2_and_3_by_roots_alone(p, monkeypatch):
    # a reducible f of degree 2 or 3 has a linear factor, a root in F_p
    prime = make_field(p)
    monics = [tuple(numtheory.digits(code, p, m)) + (1,)
              for m in (2, 3) for code in range(p ** m)]

    def no_call(*args):
        raise AssertionError("a gcd or a Frobenius step below degree 4")

    with monkeypatch.context() as mp:
        mp.setattr(gf, "_gcd", no_call)
        mp.setattr(gf, "_frobenius_step", no_call)
        verdicts = [gf._ben_or(prime, f) for f in monics]
    assert verdicts == [oracle_irreducible(PolyFq(prime, f)) for f in monics]


@pytest.mark.parametrize("p,top", [(2, 9), (3, 6), (5, 4), (7, 3)])
def test_ben_or_matches_rabin_on_every_monic(p, top):
    # every monic of degree 2..top, roots and all: Ben-Or's test needs no
    # pre-filter to be right, and Rabin's test shares no step with it
    prime = make_field(p)
    for m in range(2, top + 1):
        for code in range(p ** m):
            f = tuple(numtheory.digits(code, p, m)) + (1,)
            assert gf._ben_or(prime, f) == oracle_irreducible(PolyFq(prime, f)), f


# fields past the canonical-field scan, then the four of it whose zeta has
# degree >= 2, the one route of the zeta search that powers by pow_mod
SEARCH_FIELDS = [(2, 17), (2, 18), (2, 19), (2, 20), (3, 11), (3, 12), (5, 7), (5, 8),
                 (7, 6), (7, 7), (11, 5), (13, 5), (17, 4), (31, 4), (101, 3), (257, 2),
                 (1019, 2), (1021, 2), (2, 9), (2, 14), (3, 8), (3, 10)]


@pytest.mark.parametrize("p,m", SEARCH_FIELDS)
def test_searches_match_the_rabin_and_pow_mod_searches(p, m, monkeypatch):
    # the searches the field build ran before Ben-Or's test and the norm are
    # the oracles; neither side builds more than the prime field's tables
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    modulus = gf._modulus(p, m)
    assert modulus == rabin_modulus_search(p, m)
    zeta = gf._zeta(p, m, modulus)
    assert zeta == pow_mod_zeta_search(p, m, modulus)
    if (p, m) in SEARCH_FIELDS[-4:]:
        assert zeta >= p * p
    assert list(gf._FIELD_CACHE) == [(p, 1)]


@pytest.mark.parametrize("p,m", [(257, 2), (509, 2), (1021, 2), (101, 3)])
def test_large_p_modulus_matches_trial_division(p, m, monkeypatch):
    # past the canonical-field scan (p**m <= 2**16, p < 256): the first
    # candidate that trial division finds irreducible, which shares no code
    # with the root pre-filter or with Rabin's test
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})  # cold builds, freed afterwards
    prime = make_field(p)
    candidates = (PolyFq(prime, _digits(code, p, m) + [1]) for code in range(p ** m))
    assert make_field(p, m).modulus == next(h for h in candidates
                                            if brute_is_irreducible(h)).codes


def _f3_poly(*codes):
    return PolyFq(make_field(3), codes)


def _f4_in_f16():
    return subfield_embedding(make_field(2, 2), make_field(2, 4))


HUGE_TOWER = r"^field modulus 3 is not q\*\*n - 1 for n=1000000000$"

# fixed ids, the names pytest once took from each case, so a new case
# with the same message renames no old one
GF_REFUSALS = [
    pytest.param(lambda: make_field(5).pow_code(0, -1), ZeroDivisionError,
                 "negative power of zero",
                 id="<lambda>-ZeroDivisionError-negative power of zero"),
    pytest.param(lambda: make_field(5).order_of(0), ZeroDivisionError,
                 "zero has no multiplicative order",
                 id="<lambda>-ZeroDivisionError-zero has no multiplicative order"),
    pytest.param(lambda: make_field(5).element(5), ValueError, "^code=5 is not an F_5 code$",
                 id="<lambda>-ValueError-code 5 out of range"),
    pytest.param(lambda: make_field(7).nth_root_of_unity(4), "NotDivisorError",
                 "4 does not divide 6",
                 id="<lambda>-NotDivisorError-4 does not divide 6"),
    pytest.param(lambda: _f3_poly(0, 3), ValueError, "^coefficient=3 is not an F_3 code$",
                 id="<lambda>-ValueError-coefficient code out of range for F_3"),
    pytest.param(lambda: _f3_poly(1, 1) + 1, TypeError, "expected a polynomial",
                 id="<lambda>-TypeError-expected a polynomial"),
    pytest.param(lambda: _f3_poly(1, 1) * PolyFq(make_field(5), (1, 1)), "CtxMismatchError",
                 "polynomials over different fields",
                 id="<lambda>-CtxMismatchError-polynomials over different fields"),
    pytest.param(lambda: divmod(_f3_poly(1, 1), _f3_poly()), ZeroDivisionError,
                 "polynomial division by zero",
                 id="<lambda>-ZeroDivisionError-polynomial division by zero"),
    pytest.param(lambda: _f3_poly(0, 1).pow_mod(-1, _f3_poly(1, 0, 1)), ValueError,
                 "negative exponent",
                 id="<lambda>-ValueError-negative exponent"),
    pytest.param(lambda: _f3_poly(0, 1)(make_field(5).element(1)), "CtxMismatchError",
                 "evaluation point from a different field",
                 id="<lambda>-CtxMismatchError-evaluation point from a different field"),
    pytest.param(lambda: _f4_in_f16().lift(make_field(2, 4).element(1)), "CtxMismatchError",
                 "element not in the embedding's source field",
                 id="<lambda>-CtxMismatchError-element not in the embedding's source field"),
    pytest.param(lambda: _f4_in_f16().lower_poly(PolyFq(make_field(2, 2), (1,))),
                 "CtxMismatchError", "polynomial not over the target field",
                 id="<lambda>-CtxMismatchError-polynomial not over the target field"),
    # x generates F_16, so it lies in no proper subfield
    pytest.param(lambda: _f4_in_f16().lower_poly(PolyFq(make_field(2, 4), (2, 1))),
                 "BadSubfieldError", "coefficient outside the embedded subfield",
                 id="<lambda>-BadSubfieldError-coefficient outside the embedded subfield"),
    # refused before 3**(10**9) is formed, which alone takes seconds
    pytest.param(lambda: element_degree(make_field(2, 2).element(1), 3, 10**9), ValueError,
                 HUGE_TOWER, id="element_degree-n-1e9"),
    pytest.param(lambda: char_poly(make_field(2, 2).element(1), 3, 10**9), ValueError,
                 HUGE_TOWER, id="char_poly-n-1e9"),
    pytest.param(lambda: sigma_eval(1, make_field(2, 2).element(1), 3, 10**9), ValueError,
                 HUGE_TOWER, id="sigma_eval-n-1e9"),
]


@pytest.mark.parametrize("call, error, text", GF_REFUSALS)
def test_gf_refusals(call, error, text):
    with pytest.raises(refusal_type(error), match=text) as exc:
        call()
    assert type(exc.value) is refusal_type(error)
