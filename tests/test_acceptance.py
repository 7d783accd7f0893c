"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion is exact (integer/field equality), no tolerances.
"""

import itertools
import random
import time

import numpy as np
import pytest

from hmdft import (
    CyclicFn,
    PolyFq,
    SupportSet,
    SweepConfig,
    build_root_indicator,
    char_poly,
    compose_perm,
    conv_power,
    convolve,
    degree_n_factor_test,
    delta,
    dft,
    dft_period_by_support,
    element_degree,
    find_witness,
    idft,
    is_q_symmetric,
    least_period,
    make_field,
    oracle_factor_degrees,
    oracle_irreducible,
    phi_rho,
    pointwise_mul,
    primitive_element,
    reversal,
    shift,
    sigma_eval,
    subfield_embedding,
    support_degree_test,
    sweep,
)
from hmdft.harness import CASE_EXCLUDED, CASE_HALF, CASE_MAX, CASE_SMALL
from hmdft.numtheory import divisors, prime_power

from helpers import brute_least_period, exhaustive_is_q_symmetric

SEED = 20260811


def _report(line):
    print(line, flush=True)


def test_c1_example_golden_sequence():
    t0 = time.perf_counter()
    f2 = make_field(2)
    h = PolyFq(f2, [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1])
    ri = build_root_indicator(h, 2, 4, subfield_order=2)
    assert ri.coeff_seq.codes == (1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0)
    assert least_period(ri.coeff_seq) == 15
    verdict = degree_n_factor_test(h, 2, 4, subfield_order=2)
    assert verdict.proven
    wit = find_witness(2, 4, 2, 0)
    assert wit is not None and wit.codes == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert wit[2].code == 0
    assert oracle_irreducible(wit)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(f"[C1] golden sequence, period 15, Proven, witness x^4+x+1 "
            f"({elapsed:.3f}s): PASS")


def test_c2_transform_matches_symmetric_values():
    checked = 0
    for q, n in [(2, 4), (2, 6), (3, 3), (3, 4), (4, 2), (5, 2)]:
        p, j = prime_power(q)
        big = make_field(p, j * n)
        lift = subfield_embedding(make_field(p, j), big).lift_codes
        z = primitive_element(big)
        N = q ** n - 1
        ws = [w for w in range(n + 1) if not (q == 2 and w == n)]
        for w in ws:
            g = dft(CyclicFn(big, lift(delta(q, n, w).codes)), z)
            for k in range(N):
                assert g(k) == sigma_eval(w, z ** k, q, n)
                checked += 1
    _report(f"[C2] transform of weight indicators equals symmetric values "
            f"({checked} points, exact): PASS")


def test_c3_support_period_formula():
    rng = random.Random(SEED)
    cases = [
        # (p, m, N): N divides p**m - 1, N <= 5000
        (2, 4, 15), (3, 3, 26), (7, 2, 48), (2, 6, 63), (2, 8, 255),
        (3, 6, 728), (7, 4, 2400), (5, 5, 3124), (4001, 1, 4000), (2, 12, 4095),
    ]
    total = 0
    for p, m, N in cases:
        ctx = make_field(p, m)
        assert (ctx.order - 1) % N == 0 and N <= 5000
        zeta = ctx.nth_root_of_unity(N)
        for i in range(200):
            codes = [0] * N
            if N <= 63 and i % 4 == 0:
                codes = [rng.randrange(ctx.order) for _ in range(N)]
            else:
                for idx in rng.sample(range(N), rng.randrange(1, 5)):
                    codes[idx] = rng.randrange(1, ctx.order)
            f = CyclicFn(ctx, codes)
            expected = dft_period_by_support(f.support())
            fwd = dft(f, zeta)
            inv = idft(f, zeta)
            assert brute_least_period(fwd.codes) == expected
            assert brute_least_period(inv.codes) == expected
            total += 1
    _report(f"[C3] support-gcd period formula vs brute force on {total} "
            f"random functions: PASS")


def test_c4_period_sweep():
    t0 = time.perf_counter()
    cfg = SweepConfig(q_list=(2, 3, 4, 5, 7), n_range=(2, 6),
                      w_policy="half", size_cap=20000, with_witness=False)
    res = sweep(cfg)
    assert res.summary["fail"] == 0
    n_claims = 0
    for rep in res.reports:
        if rep.case_label == CASE_EXCLUDED:
            continue
        N = rep.q ** rep.n - 1
        assert rep.r > rep.threshold
        assert rep.threshold % rep.r != 0
        if rep.case_label == CASE_MAX:
            assert rep.r == N
        elif rep.case_label == CASE_HALF:
            assert 2 * rep.r >= N
        else:
            assert rep.case_label == CASE_SMALL and rep.r > rep.q - 1
        n_claims += 1
    # grid completeness: every in-cap tuple is present
    expected = sum(
        (n // 2) * q
        for q in (2, 3, 4, 5, 7) for n in range(2, 7) if q ** n - 1 <= 20000)
    assert res.summary["total"] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600
    _report(f"[C4] period sweep: {n_claims} tuples verified, "
            f"{res.summary['excluded']} excluded, 0 failures "
            f"({elapsed:.1f}s <= 600s): PASS")


def test_c5_witness_grid_end_to_end():
    found = 0
    absent = 0
    for q in (2, 3, 4, 5, 7):
        for n in range(2, 7):
            if q ** n - 1 > 20000:
                continue
            for w in range(1, n + 1):
                for c in range(q):
                    if w == n and c == 0:
                        with pytest.raises(ValueError, match="norm of a nonzero element"):
                            find_witness(q, n, w, c)
                        continue
                    wit = find_witness(q, n, w, c)
                    if n == 2 and w == 1 and c == 0 and q % 2 == 0:
                        assert wit is None  # genuine exception, exhaustive scan
                        absent += 1
                        continue
                    assert wit is not None
                    assert wit.degree == n and wit.is_monic
                    coeff = wit.codes[n - w] if n - w < len(wit.codes) else 0
                    assert coeff == c
                    assert oracle_irreducible(wit)
                    found += 1
    assert absent == 2  # q = 2 and q = 4
    _report(f"[C5] witness search: {found} verified witnesses, "
            f"{absent} genuine exceptions with none: PASS")


def _random_fn(ctx, N, rng, dense=False):
    if dense:
        return CyclicFn(ctx, [rng.randrange(ctx.order) for _ in range(N)])
    codes = [0] * N
    for idx in rng.sample(range(N), rng.randrange(1, min(N, 8) + 1)):
        codes[idx] = rng.randrange(1, ctx.order)
    return CyclicFn(ctx, codes)


def test_c6_algebra_property_suite():
    rng = random.Random(SEED)
    pool = [(make_field(2, 4), 15), (make_field(2, 4), 5), (make_field(3, 2), 8),
            (make_field(2, 6), 21), (make_field(5, 2), 24), (make_field(3, 3), 26),
            (make_field(7, 2), 48), (make_field(7), 6)]

    for i in range(500):  # transform roundtrip, both directions
        ctx, N = pool[i % len(pool)]
        zeta = ctx.nth_root_of_unity(N)
        f = _random_fn(ctx, N, rng, dense=(i % 3 == 0))
        assert idft(dft(f, zeta), zeta) == f
        assert dft(idft(f, zeta), zeta) == f

    for i in range(500):  # convolution theorem
        ctx, N = pool[i % len(pool)]
        zeta = ctx.nth_root_of_unity(N)
        f = _random_fn(ctx, N, rng)
        g = _random_fn(ctx, N, rng, dense=(i % 2 == 0))
        assert dft(convolve(f, g), zeta) == pointwise_mul(dft(f, zeta), dft(g, zeta))

    frob = 0  # Frobenius convolution-power identity
    sub_pool = []
    for q, big_params in [(2, (2, 2)), (3, (3, 2)), (4, (2, 4)), (5, (5, 2))]:
        p, j = prime_power(q)
        small, big = make_field(p, j), make_field(*big_params)
        emb = subfield_embedding(small, big)
        codes = emb.lift_codes(range(q))
        sub_pool.append((q, big, codes))
    while frob < 500:
        for q, big, codes in sub_pool:
            for N in [d for d in range(1, q) if (q - 1) % d == 0]:
                f = CyclicFn(big, [codes[rng.randrange(q)] for _ in range(N)])
                assert conv_power(f, q) == f
                frob += 1
        # full-field variant: exponent = field order, N | order - 1
        for ctx, N in [(make_field(7), 6), (make_field(3, 2), 8), (make_field(2, 3), 7)]:
            f = _random_fn(ctx, N, rng, dense=True)
            assert conv_power(f, ctx.order) == f
            frob += 1

    for i in range(500):  # least-period invariance under the three transforms
        ctx, N = pool[i % len(pool)]
        f = _random_fn(ctx, N, rng, dense=(i % 2 == 0))
        r = least_period(f)
        assert least_period(shift(f, rng.randrange(-2 * N, 2 * N))) == r
        assert least_period(reversal(f)) == r
        codes = list(range(ctx.order))
        rng.shuffle(codes)
        assert least_period(compose_perm(f, dict(enumerate(codes)))) == r

    for i in range(500):  # r-periodic iff the least period divides r
        ctx, N = pool[i % len(pool)]
        d = rng.choice(divisors(N))  # f repeats a block of length d
        f = CyclicFn(ctx, _random_fn(ctx, d, rng, dense=(i % 2 == 0)).codes * (N // d))
        r = rng.randrange(1, 3 * N)
        assert (shift(f, r) == f) == (r % least_period(f) == 0)

    _report(f"[C6] algebra properties: 5 suites x 500 seeded cases, exact: PASS")


def test_c7_q_symmetry_exhaustive():
    t0 = time.perf_counter()
    funcs = 0
    for q in (2, 3, 4, 5):
        for n in range(2, 7):
            for w in range(n + 1):
                dw = delta(q, n, w)
                powers = [conv_power(dw, s) for s in range(1, q)]
                if q == 2:
                    powers.append(dw)
                for f in powers:
                    assert exhaustive_is_q_symmetric(f, q, n)
                    assert is_q_symmetric(f, q, n)
                    funcs += 1
    elapsed = time.perf_counter() - t0
    _report(f"[C7a] digit-permutation invariance of {funcs} indicator powers, "
            f"exhaustive over all permutations ({elapsed:.1f}s): PASS")


def test_c7_digit_additivity():
    # phi_rho(a + b) = phi_rho(a) + phi_rho(b) on all digit-disjoint pairs.
    # Invariance under a generating set extends to all permutations: a
    # simultaneous digit permutation of a qualifying pair is again qualifying,
    # so additive maps compose.  Small n additionally runs every permutation.
    pairs_checked = 0
    for q, n in [(2, 11), (3, 7), (4, 5), (5, 5), (7, 4), (8, 3), (9, 3)]:
        N = q ** n - 1
        assert N <= 4000
        digs = np.zeros((N, n), dtype=np.int16)
        v = np.arange(N)
        for i in range(n):
            digs[:, i] = v % q
            v = v // q
        qpow = np.array([q ** i for i in range(n)], dtype=np.int64)

        if n <= 4:
            rhos = list(itertools.permutations(range(n)))
        else:
            rhos = [tuple(range(n))]
            for k in range(n - 1):  # adjacent transpositions generate S_n
                rho = list(range(n))
                rho[k], rho[k + 1] = rho[k + 1], rho[k]
                rhos.append(tuple(rho))
            rhos.append(tuple(reversed(range(n))))
            rhos.append(tuple(range(1, n)) + (0,))

        a_parts, b_parts = [], []
        limit = q - 1
        for a in range(N):
            ok = (digs[a] + digs[a:] <= limit).all(axis=1)
            bs = np.nonzero(ok)[0] + a
            if bs.size:
                a_parts.append(np.full(bs.size, a, dtype=np.int64))
                b_parts.append(bs.astype(np.int64))
        av = np.concatenate(a_parts)
        bv = np.concatenate(b_parts)
        for rho in rhos:
            perm = (digs[:, list(rho)].astype(np.int64) * qpow).sum(axis=1)
            # the table agrees with phi_rho at about 64 points of Z_N
            assert all(perm[k] == phi_rho(rho, k, q, n) for k in range(0, N, N // 64 or 1))
            lhs = perm[(av + bv) % N]
            rhs = (perm[av] + perm[bv]) % N
            assert np.array_equal(lhs, rhs)
        pairs_checked += av.size
    _report(f"[C7b] digit-permutation additivity on {pairs_checked} "
            f"qualifying pairs: PASS")


def test_c8_counterexample_regressions():
    # inconclusive verdict despite an existing degree-6 factor
    f2 = make_field(2)
    f64 = make_field(2, 6)
    z = primitive_element(f64)
    emb = subfield_embedding(f2, f64)
    xi = z ** 3  # exponent = Phi_6(2)
    assert element_degree(xi, 2, 6) == 6
    h = emb.lower_poly(char_poly(xi, 2, 6))
    verdict = degree_n_factor_test(h, 2, 6)
    assert not verdict.proven
    assert verdict.least_period == 21 and verdict.threshold == 21
    assert 6 in oracle_factor_degrees(h)

    # necessary condition holds, yet no degree-6 element in the support
    N = 63
    members = [N // (2 ** d - 1) for d in (1, 2, 3)]
    rep = support_degree_test(SupportSet(N, members), 2, 6)
    assert rep.necessary_holds and not rep.sufficient.proven
    assert all(element_degree(z ** a, 2, 6) < 6 for a in members)

    # maximal period without a primitive element in the support
    rep15 = support_degree_test(SupportSet(15, (3, 5)), 2, 4)
    assert rep15.max_period and rep15.least_period == 15
    f16 = make_field(2, 4)
    z16 = primitive_element(f16)
    assert f16.order_of((z16 ** 3).code) != 15
    assert f16.order_of((z16 ** 5).code) != 15
    assert max(element_degree(z16 ** a, 2, 4) for a in (3, 5)) == 4

    _report("[C8] three converse-failure regressions reproduce exactly: PASS")


def test_c9_soundness_exhaustion():
    proven_total = 0
    for n in (2, 3, 4):
        for codes in itertools.product((0, 1), repeat=n):
            h = PolyFq(make_field(2), list(codes) + [1])
            verdict = degree_n_factor_test(h, 2, h.degree)
            if verdict.proven:
                proven_total += 1
                assert oracle_irreducible(h)
            if not oracle_irreducible(h):
                assert not verdict.proven
    _report(f"[C9] soundness over all monic degree 2-4 polynomials "
            f"({proven_total} Proven, all irreducible): PASS")
