import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from hmdft import (
    PolyFq,
    SupportSet,
    build_root_indicator,
    char_poly,
    degree_n_factor_test,
    dft,
    element_degree,
    make_field,
    oracle_factor_degrees,
    oracle_irreducible,
    primitive_element,
    subfield_embedding,
    support_degree_test,
    threshold,
)
from hmdft import gf, numtheory, spectral
from hmdft.cli import main
from hmdft.cyclic import CyclicFn, dft_period_by_support, least_period
from hmdft.gf import SizeCapError
from hmdft.spectral import INCONCLUSIVE, PROVEN

from helpers import brute_is_irreducible, pow_mod_loops, powering_root_indicator, \
    square_multiply_verdict, trial_factor_degrees

F2 = make_field(2)
F3 = make_field(3)

# x^12 + x^10 + x^9 + x^6 + x^5 + x^3: the weight-2 exponent sum over F_2, n = 4
H_EX15 = PolyFq(F2, [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1])
EX15_SEQ = (1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0)


def test_build_root_indicator_example():
    ri = build_root_indicator(H_EX15, 2, 4, subfield_order=2)
    assert ri.subfield_order == 2
    assert ri.coeff_seq.codes == EX15_SEQ
    assert ri.poly == H_EX15 + PolyFq(F2, [1])  # S = h + 1 in characteristic 2
    # auto-detection also lands on F_2 since the image is {0, 1}
    auto = build_root_indicator(H_EX15, 2, 4)
    assert auto.subfield_order == 2 and auto.coeff_seq.codes == EX15_SEQ


def test_build_root_indicator_constant():
    gamma = F3.element(2)
    h = PolyFq(F3, [gamma.code])
    ri = build_root_indicator(h, 3, 2, subfield_order=3)
    assert ri.poly.is_zero()


def test_build_root_indicator_x_over_f4():
    h = PolyFq.x(F2)
    ri = build_root_indicator(h, 2, 2, subfield_order=4)
    assert ri.poly.is_zero()
    assert ri.coeff_seq.support().members == ()
    v = degree_n_factor_test(h, 2, 2, subfield_order=4)
    assert not v.proven


def test_build_root_indicator_validation():
    with pytest.raises(ValueError, match="^the zero polynomial has no root indicator$"):
        build_root_indicator(PolyFq(F2, []), 2, 4)
    with pytest.raises(SizeCapError):
        build_root_indicator(PolyFq(F2, [1, 1]), 2, 24)
    with pytest.raises(ValueError, match="^h must have coefficients in F_2$"):
        build_root_indicator(PolyFq(F3, [1, 1]), 2, 4)
    with pytest.raises(ValueError, match="^F_8 is not a subfield of F_16$"):
        build_root_indicator(H_EX15, 2, 4, subfield_order=8)  # F_8 not in F_16
    h = PolyFq.x(F2)
    with pytest.raises(ValueError, match="^image of h is not contained in F_2$"):
        # image of x on F_4* is F_4*, not contained in F_2
        build_root_indicator(h, 2, 2, subfield_order=2)


def test_root_indicator_refuses_a_huge_L_before_factoring_it(monkeypatch):
    # an order above q**n names no subfield; factoring 2**61 - 1 by trial
    # division would not finish.  m*n = 4 is factored, L never
    real = numtheory.factorize

    def no_factoring_of_L(n):
        assert n == 4, f"factored {n}"
        return real(n)

    monkeypatch.setattr(numtheory, "factorize", no_factoring_of_L)
    for L in (17, 2 ** 61 - 1, 2 ** 64):
        with pytest.raises(ValueError, match="^F_[0-9]+ is not a subfield of F_16$"):
            build_root_indicator(H_EX15, 2, 4, subfield_order=L)


@pytest.mark.parametrize("L", [1, 0, -1])
def test_root_indicator_L_below_two_is_not_a_subfield(L):
    # no order below 2 is p**t for a t dividing m*n: the one refusal text
    with pytest.raises(ValueError, match=f"^F_{L} is not a subfield of F_16$"):
        build_root_indicator(H_EX15, 2, 4, subfield_order=L)


def test_root_indicator_L_independent():
    # any subfield containing the image yields the same reduced polynomial:
    # S takes the same 0/1 values at all q**n - 1 distinct points, which pin
    # down a polynomial of lower degree uniquely
    ri2 = build_root_indicator(H_EX15, 2, 4, subfield_order=2)
    ri16 = build_root_indicator(H_EX15, 2, 4, subfield_order=16)
    assert ri2.poly == ri16.poly
    h = PolyFq(F3, [1, 2, 0, 1])
    auto = build_root_indicator(h, 3, 4)
    full = build_root_indicator(h, 3, 4, subfield_order=81)
    assert auto.poly == full.poly


def test_root_indicator_transform_flags_roots():
    # the transform of the coefficient sequence is 1 exactly at root exponents
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    emb = subfield_embedding(F2, f16)
    rng = random.Random(13)
    polys = [H_EX15,
             PolyFq(F2, [1, 1, 0, 0, 1]),
             PolyFq(F2, [rng.randrange(2) for _ in range(9)] + [1])]
    for h in polys:
        ri = build_root_indicator(h, 2, 4)
        lifted = CyclicFn(f16, [emb.lift(F2.element(c)).code for c in ri.coeff_seq.codes])
        g = dft(lifted, z)
        h_big = PolyFq(f16, emb.lift_codes(h.codes))
        for i in range(15):
            expected = 1 if h_big(z ** i).code == 0 else 0
            assert g(i).code == expected


def _assert_matches_powering(h, q, n, subfield_order=None):
    ri = build_root_indicator(h, q, n, subfield_order)
    expected = powering_root_indicator(h, q, n, subfield_order)
    assert (ri.subfield_order, ri.coeff_seq.codes) == expected, (h, q, n)
    assert ri.poly.codes == PolyFq(h.ctx, expected[1]).codes
    return ri.subfield_order


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def test_root_indicator_matches_powering_every_small_h():
    # every nonzero h of degree <= 3, each n with q**n - 1 <= 300
    for q in (2, 3, 4, 5):
        ctx = make_field(*FIELDS[q])
        n = 2
        while q ** n - 1 <= 300:
            for codes in itertools.product(range(q), repeat=4):
                if any(codes):
                    _assert_matches_powering(PolyFq(ctx, codes), q, n)
            n += 1


def test_root_indicator_matches_powering_random_and_edge_cases():
    rng = random.Random(15)
    cases = []
    for q, n in ((2, 12), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)):
        ctx = make_field(*FIELDS[q])
        for deg in (n, n + 3):
            cases.append((PolyFq(ctx, [rng.randrange(q) for _ in range(deg)]
                                 + [rng.randrange(1, q)]), q, n))
    f4, f9 = make_field(2, 2), make_field(3, 2)
    cases += [
        (PolyFq(F3, [0, 1, 0, 1]), 3, 3),                 # x**3 + x, divisible by x
        (PolyFq(f9, [0, 0, 5, 1, 7]), 9, 2),               # divisible by x**2
        (PolyFq(F2, [1] + [0] * 14 + [1]), 2, 4),          # x**15 - 1 folds to 0
        (PolyFq(make_field(5), [4] + [0] * 23 + [1]), 5, 2),
        (PolyFq(f4, [1] + [0] * 62 + [1]), 4, 3),
        (PolyFq(F2, [1] + [0] * 30 + [1, 1]), 2, 5),       # deg 33 >= N = 31
        (PolyFq(F3, [rng.randrange(3) for _ in range(20)] + [1]), 3, 2),
        (PolyFq(f4, [0] * 15 + [1]), 4, 2),                # x**15 folds to 1
        (PolyFq(F3, [2]), 3, 2),                           # constants
        (PolyFq(f4, [2]), 4, 3),
        (PolyFq(f9, [4]), 9, 2),
    ]
    for h, q, n in cases:
        # every subfield of F_{q^n} that contains the smallest valid L
        _, t0 = numtheory.prime_power(_assert_matches_powering(h, q, n))
        for t in numtheory.divisors(h.ctx.m * n):
            if t % t0 == 0:
                _assert_matches_powering(h, q, n, h.ctx.p ** t)


def test_root_indicator_builds_no_big_field(monkeypatch):
    monkeypatch.delitem(gf._FIELD_CACHE, (2, 16), raising=False)
    h = PolyFq(F2, [1, 1, 0, 1, 0, 1] + [0] * 10 + [1])
    ri = build_root_indicator(h, 2, 16)
    assert (2, 16) not in gf._FIELD_CACHE
    assert ri.subfield_order == 2 ** 16 and ri.coeff_seq.N == 2 ** 16 - 1
    with pytest.raises(SizeCapError):
        build_root_indicator(PolyFq(F2, [1, 1, 1]), 2, 21)  # F_{2^21} is over the cap


@pytest.mark.parametrize("cmd,q,n,codes", [
    ("factor-test", 3, 8, [1, 2, 0, 0, 2, 1, 0, 0, 2, 1, 2, 1]),
    ("irred-test", 2, 16, [1, 1, 0, 1, 0, 1] + [0] * 10 + [1]),
])
def test_cli_spectral_verdicts_at_large_fields(capsys, cmd, q, n, codes):
    argv = [cmd, "--q", str(q), "--poly", ",".join(map(str, codes))]
    if cmd == "factor-test":
        argv += ["--n", str(n)]
    assert main(argv) == 0 and "Proven" in capsys.readouterr().out
    h = PolyFq(make_field(q), codes)
    assert n in oracle_factor_degrees(h)
    if cmd == "irred-test":
        assert oracle_irreducible(h)


def test_degree_n_factor_example():
    v = degree_n_factor_test(H_EX15, 2, 4, subfield_order=2)
    assert v.proven and v.least_period == 15 and v.threshold == 3
    assert 4 in oracle_factor_degrees(H_EX15)


def test_coprime_divisor_test():
    # roots zeta**3 and zeta**5, coprime root exponents: gcd(15, {3, 5}) = 1
    # gives r = N, so degree_n_factor_test proves the degree-4 factor
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    emb = subfield_embedding(F2, f16)
    h = emb.lower_poly(char_poly(z ** 3, 2, 4)) * emb.lower_poly(char_poly(z ** 5, 2, 4))
    v = degree_n_factor_test(h, 2, 4)
    assert v.proven and v.least_period == 15 and v.modulus == 15
    assert 4 in oracle_factor_degrees(h)
    # no roots in F_16 at all: inconclusive
    v2 = degree_n_factor_test(PolyFq(F2, [1, 1, 1]), 2, 4)
    assert not v2.proven
    # x - 1 vanishes only at exponent 0
    v3 = degree_n_factor_test(PolyFq(F2, [1, 1]), 2, 4)
    assert not v3.proven and v3.least_period == 1


def test_degree_n_factor_inconclusive_quadratic():
    # the only irreducible quadratic over F_2 has no degree-4 factor
    h = PolyFq(F2, [1, 1, 1])
    v = degree_n_factor_test(h, 2, 4)
    assert not v.proven
    assert 4 not in oracle_factor_degrees(h)


def test_degree_n_factor_gap_regression():
    # single root zeta**3 over q=2, n=6: the verdict stays Inconclusive even
    # though an irreducible degree-6 factor exists
    f64 = make_field(2, 6)
    z = primitive_element(f64)
    emb = subfield_embedding(F2, f64)
    xi = z ** 3
    assert element_degree(xi, 2, 6) == 6
    h = emb.lower_poly(char_poly(xi, 2, 6))
    v = degree_n_factor_test(h, 2, 6)
    assert not v.proven
    assert v.least_period == 21 and v.threshold == 21
    assert oracle_factor_degrees(h) == [6]


def test_support_degree_test_proven():
    rep = support_degree_test(SupportSet(15, (3, 5)), 2, 4)
    assert rep.least_period == 15
    assert rep.sufficient.proven
    assert rep.necessary_holds and rep.max_period
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    degrees = {element_degree(z ** a, 2, 4) for a in (3, 5)}
    assert 4 in degrees


def test_support_degree_test_necessary_not_sufficient():
    # exponents (q^n-1)/(q^d-1) for proper d | n: passes the necessary test,
    # yet the support has no degree-n element
    q, n = 2, 6
    N = q ** n - 1
    members = [N // (q ** d - 1) for d in (1, 2, 3)]
    rep = support_degree_test(SupportSet(N, members), q, n)
    assert rep.least_period == 21
    assert rep.necessary_holds
    assert not rep.sufficient.proven
    f64 = make_field(2, 6)
    z = primitive_element(f64)
    assert all(element_degree(z ** a, q, n) < n for a in members)


def test_support_degree_test_trivial():
    rep = support_degree_test(SupportSet(15, (0,)), 2, 4)
    assert rep.least_period == 1
    assert not rep.sufficient.proven
    assert not rep.necessary_holds and not rep.max_period


def test_max_period_without_primitive():
    # coprime divisors 3 and 5 of 15: maximal period, no primitive in support
    rep = support_degree_test(SupportSet(15, (3, 5)), 2, 4)
    assert rep.max_period
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    assert f16.order_of((z ** 3).code) != 15
    assert f16.order_of((z ** 5).code) != 15


def test_irreducible_sufficient_example():
    h = PolyFq(F2, [1, 1, 0, 0, 1])
    v = degree_n_factor_test(h, 2, h.degree)
    assert v.proven
    assert oracle_irreducible(h)


def test_irreducible_sufficient_inconclusive_on_square():
    h = PolyFq(F2, [1, 0, 1, 0, 1])  # (x^2+x+1)^2
    v = degree_n_factor_test(h, 2, h.degree)
    assert not v.proven
    assert not oracle_irreducible(h)


def test_soundness_exhaustive_small():
    # Proven implies irreducible, over every monic cubic and quartic
    for n in (3, 4):
        proven = 0
        for codes in itertools.product((0, 1), repeat=n):
            h = PolyFq(F2, list(codes) + [1])
            v = degree_n_factor_test(h, 2, h.degree)
            if v.proven:
                proven += 1
                assert oracle_irreducible(h)
        assert proven > 0


def test_oracle_irreducible_basics():
    assert oracle_irreducible(PolyFq(F2, [1, 1, 1]))
    assert oracle_irreducible(PolyFq(F3, [1, 0, 1]))  # -1 is a non-residue mod 3
    assert not oracle_irreducible(PolyFq(F2, [1]))
    assert oracle_irreducible(PolyFq(F2, [0, 1]))
    with pytest.raises(ValueError, match="^the zero polynomial is not testable$"):
        oracle_irreducible(PolyFq(F2, []))


@pytest.mark.parametrize("ctx,n", [(F2, 6), (F3, 4), (make_field(2, 2), 3), (make_field(5), 3)])
def test_oracle_irreducible_vs_trial_division(ctx, n):
    q = ctx.order
    for deg in range(1, n + 1):
        for codes in itertools.product(range(q), repeat=deg):
            h = PolyFq(ctx, list(codes) + [1])
            assert oracle_irreducible(h) == brute_is_irreducible(h)


def test_oracle_factor_degrees():
    assert oracle_factor_degrees(PolyFq(F2, [1, 0, 1, 0, 1])) == [2, 2]
    assert oracle_factor_degrees(PolyFq(F2, [1])) == []
    assert sorted(oracle_factor_degrees(H_EX15)) == [1, 1, 1, 1, 4, 4]
    with pytest.raises(ValueError, match="^the zero polynomial has no factorization$"):
        oracle_factor_degrees(PolyFq(F2, []))


def test_oracle_factor_degrees_high_multiplicity():
    # multiplicities past p: one copy of each factor is peeled per round
    x1 = PolyFq(F2, [1, 1])            # x + 1
    prod = PolyFq(F2, [1])
    for _ in range(6):
        prod = prod * x1
    assert oracle_factor_degrees(prod) == [1] * 6
    c3 = PolyFq(F3, [1, 1, 1])         # irreducible? x^2+x+1 over F_3: 1 is a root
    assert not oracle_irreducible(c3)
    irr = PolyFq(F3, [1, 0, 1])        # x^2 + 1, irreducible over F_3
    cube = irr * irr * irr
    assert oracle_factor_degrees(cube) == [2, 2, 2]
    mixed = cube * x_plus(F3, 1) * x_plus(F3, 1)
    assert oracle_factor_degrees(mixed) == [1, 1, 2, 2, 2]


def x_plus(ctx, a):
    return PolyFq(ctx, [a, 1])


def test_oracle_factor_degrees_random_products():
    rng = random.Random(14)
    irreducibles = {}
    for ctx in (F2, F3):
        q = ctx.order
        pool = []
        for deg in range(1, 5):
            for codes in itertools.product(range(q), repeat=deg):
                h = PolyFq(ctx, list(codes) + [1])
                if oracle_irreducible(h):
                    pool.append(h)
        irreducibles[ctx] = pool
    for ctx in (F2, F3):
        pool = irreducibles[ctx]
        for _ in range(25):
            parts = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
            prod = PolyFq(ctx, [1])
            for part in parts:
                prod = prod * part
            assert oracle_factor_degrees(prod) == sorted(p.degree for p in parts)


@pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (4, 4)])
def test_oracle_factor_degrees_matches_trial_division_exhaustively(q, top):
    # every polynomial of degree <= top, with lead codes 1 and q - 1
    ctx = make_field(*FIELDS[q])
    for deg in range(top + 1):
        for lead in {1, q - 1}:
            for codes in itertools.product(range(q), repeat=deg):
                h = PolyFq(ctx, list(codes) + [lead])
                assert oracle_factor_degrees(h) == trial_factor_degrees(h), h


def test_verdict_threshold_wiring():
    v = degree_n_factor_test(H_EX15, 2, 4)
    assert v.threshold == threshold(4, 2)
    assert v.modulus == 15


# ----------------------------------------------------------------------
# the order route: r as the order of x modulo gcd(h, x**N - 1)


def _dense_period(h, q, n):
    """r read off the dense root indicator, which the verdicts never form."""
    return least_period(build_root_indicator(h, q, n).coeff_seq)


def _root_support_period(h, q, n):
    """r by the support lemma on the root exponents of h, found by evaluation.

    Lifts h to F_{q^n} and evaluates it at every zeta**e; shares no code
    with either root-indicator route.
    """
    N = q ** n - 1
    big = make_field(h.ctx.p, h.ctx.m * n)
    h_big = PolyFq(big, subfield_embedding(h.ctx, big).lift_codes(h.codes))
    zeta = primitive_element(big)
    roots, point = [], big.element(1)
    for e in range(N):
        if h_big(point).code == 0:
            roots.append(e)
        point = point * zeta
    return dft_period_by_support(SupportSet(N, roots))


def _square_multiply_period(h, q, n):
    """r by the verdict route with every power of x by square and multiply."""
    return square_multiply_verdict(h, q, n).least_period


ORACLES = (_dense_period, _root_support_period, _square_multiply_period)


def _assert_order_route(h, q, n, oracles=ORACLES):
    v = degree_n_factor_test(h, q, n)
    thr = threshold(n, q)
    for oracle in oracles:
        r = oracle(h, q, n)
        assert (v.least_period, v.threshold, v.status) == \
            (r, thr, PROVEN if thr % r else INCONCLUSIVE), (h, q, n, oracle)
    if h.degree == n:  # the irred-test verdict: Proven only on an irreducible h
        assert not v.proven or oracle_irreducible(h), h
    return v


# monic h over F_q, for each n with q**n - 1 <= 255: every oracle up to the
# first degree, square and multiply alone from there up to the second
ORDER_GRID = {2: (5, 6), 3: (3, 6), 4: (2, 2), 5: (2, 2)}


def test_order_route_matches_both_oracles_every_small_monic_h():
    periods = set()
    for q, (all_oracles, max_degree) in ORDER_GRID.items():
        ctx = make_field(*FIELDS[q])
        n = 2
        while q ** n - 1 <= 255:
            for d in range(max_degree + 1):
                oracles = ORACLES if d <= all_oracles else (_square_multiply_period,)
                for codes in itertools.product(range(q), repeat=d):
                    v = _assert_order_route(PolyFq(ctx, list(codes) + [1]), q, n, oracles)
                    periods.add((q, n, v.least_period))
            n += 1
    # the grid reaches r = 1 (no roots), a proper divisor and r = N
    assert {(2, 4, 1), (2, 4, 5), (2, 4, 15), (3, 2, 4)} <= periods


def _workloads_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("spectral_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_order_route_matches_dense_route_on_the_seeded_requests():
    # the irred-test and factor-test inputs of the spectral benchmark, plus
    # one of each per pair drawn the same way, as the benchmark leaves some
    # (pair, kind) out, and one of each non-monic and maybe divisible by x
    workloads = _workloads_module()
    cases = []
    for seed in (1, 2):
        for argv in workloads.spectral_requests(seed):
            opts = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] != "dft":
                q = int(opts["--q"])
                codes = list(map(int, opts["--poly"].split(",")))
                cases.append((q, int(opts.get("--n", len(codes) - 1)), codes))
        rng = random.Random(seed)
        for q, n in workloads.SPECTRAL_PAIRS:
            for d in (n, n + 3):
                cases.append((q, n, workloads.random_poly(rng, q, d)))
                cases.append((q, n, [rng.randrange(q) for _ in range(d)] +
                              [rng.randrange(1, q)]))
    for q, n, codes in cases:
        _assert_order_route(PolyFq(make_field(*FIELDS[q]), codes), q, n,
                            oracles=(_dense_period, _square_multiply_period))
    assert {(q, n) for q, n, _ in cases} == set(workloads.SPECTRAL_PAIRS)


@pytest.mark.parametrize("q,n,codes,r", [
    (2, 4, [1], 1),                           # constants: g = 1
    (3, 2, [2], 1),
    (4, 3, [3], 1),
    (2, 4, [0, 0, 0, 1], 1),                  # x**k: no root on mu_N
    (5, 2, [0] * 7 + [1], 1),
    (2, 4, [1] + [0] * 14 + [1], 15),         # x**15 - 1 folds to 0: r = N
    (3, 2, [2] + [0] * 7 + [1], 8),           # x**8 - 1
    (4, 2, [2, 1] + [0] * 13 + [2, 1], 15),   # (x**15 - 1)(x + 2)
    (3, 3, [0, 1, 0, 1], 1),                  # x(x**2 + 1): roots outside mu_26
    (9, 2, [0, 0, 5, 1, 7], None),            # divisible by x**2
])
def test_order_route_edge_cases(q, n, codes, r):
    v = _assert_order_route(PolyFq(make_field(*FIELDS[q]), codes), q, n)
    assert r is None or v.least_period == r


def test_order_route_every_valid_L_gives_the_same_verdict():
    for h, q, n in ((H_EX15, 2, 4), (PolyFq(F3, [1, 2, 0, 1]), 3, 4),
                    (PolyFq(make_field(2, 2), [2, 1, 3]), 4, 3)):
        smallest = build_root_indicator(h, q, n).subfield_order
        _, t0 = numtheory.prime_power(smallest)
        verdicts = {degree_n_factor_test(h, q, n, h.ctx.p ** t)
                    for t in numtheory.divisors(h.ctx.m * n) if t % t0 == 0}
        assert verdicts == {degree_n_factor_test(h, q, n)}
        assert verdicts.pop().least_period == _dense_period(h, q, n)


@pytest.mark.parametrize("argv,code,report", [
    (["irred-test", "--q", "2", "--poly", "1,1,0,1,0,1" + ",0" * 10 + ",1"], 0,
     {"status": "Proven", "r": 21845, "threshold": 255}),
    (["factor-test", "--q", "3", "--n", "8", "--poly", "1,2,0,0,2,1,0,0,2,1,2,1"], 0,
     {"status": "Proven", "r": 160, "threshold": 80}),
])
def test_verdicts_never_form_the_root_indicator(monkeypatch, capsys, argv, code, report):
    def no_dense_route(*args):
        raise AssertionError("the verdict formed the root indicator")

    monkeypatch.setattr(spectral, "build_root_indicator", no_dense_route)
    assert main(argv) == code
    assert capsys.readouterr().out == "".join(f"{k}: {v}\n" for k, v in report.items())
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


# (arguments, exit code, stdout, stderr) of factor-test and irred-test with --L
L_CASES = [
    ("factor-test --q 2 --n 4 --poly 0,0,0,1,0,1,1,0,0,1,1,0,1 --L 8", 2, "",
     "error: F_8 is not a subfield of F_16\n"),
    ("factor-test --q 2 --n 4 --poly 0,0,0,1,0,1,1,0,0,1,1,0,1 --L 2", 0,
     "status: Proven\nr: 15\nthreshold: 3\n", ""),
    ("factor-test --q 2 --n 2 --poly 0,1 --L 2", 2, "",
     "error: image of h is not contained in F_2\n"),
    ("factor-test --q 2 --n 2 --poly 0,1 --L 4", 1,
     "status: Inconclusive\nr: 1\nthreshold: 1\n", ""),
    ("factor-test --q 4 --n 2 --poly 2 --L 2", 2, "",
     "error: image of h is not contained in F_2\n"),
    ("factor-test --q 2 --n 4 --poly 1" + ",0" * 14 + ",1 --L 2", 0,
     "status: Proven\nr: 15\nthreshold: 3\n", ""),
    ("irred-test --q 2 --poly 1,1,0,0,1 --L 17", 2, "",
     "error: F_17 is not a subfield of F_16\n"),
    ("irred-test --q 2 --poly 1,1,0,0,1 --L 2305843009213693951", 2, "",
     "error: F_2305843009213693951 is not a subfield of F_16\n"),
    ("irred-test --q 2 --poly 1,1,0,0,1 --L 1", 2, "",
     "error: F_1 is not a subfield of F_16\n"),
    ("irred-test --q 2 --poly 1,1,0,0,1 --L 0", 2, "",
     "error: F_0 is not a subfield of F_16\n"),
    ("irred-test --q 2 --poly 1,1,0,0,1 --L -1", 2, "",
     "error: F_-1 is not a subfield of F_16\n"),
    ("irred-test --q 2 --poly 1,1,0,0,1 --L 6", 2, "",
     "error: F_6 is not a subfield of F_16\n"),
    ("irred-test --q 3 --poly 1,2,0,1 --L 9", 2, "", "error: F_9 is not a subfield of F_27\n"),
    ("irred-test --q 3 --poly 1,2,0,1 --L 27", 0,
     "status: Proven\nr: 26\nthreshold: 2\n", ""),
]


@pytest.mark.parametrize("args,code,out,err", L_CASES, ids=[c[0] for c in L_CASES])
def test_L_validation_and_exit_codes_unchanged(capsys, args, code, out, err):
    assert main(args.split()) == code
    assert capsys.readouterr() == (out, err)


# ----------------------------------------------------------------------
# powers of x by Horner's rule on base-q digits, against square and multiply

KERNEL_FIELDS = {**FIELDS, 16: (2, 4), 25: (5, 2)}


def _kernel_moduli(ctx, rng):
    """Moduli of degree 0 to 12 over F_q: monic, non-monic and divisible by x.

    Degree 0 gives units, modulo which every power is 0.
    """
    q = ctx.order
    for d in range(13):
        yield [rng.randrange(q) for _ in range(d)] + [1]
        yield [rng.randrange(q) for _ in range(d)] + [rng.randrange(2, q) if q > 2 else 1]
        if d:
            k = rng.randrange(1, d + 1)
            yield [0] * k + [rng.randrange(q) for _ in range(d - k)] + [rng.randrange(1, q)]


@pytest.mark.parametrize("q", sorted(KERNEL_FIELDS))
def test_x_pow_mod_matches_square_and_multiply(q):
    ctx = make_field(*KERNEL_FIELDS[q])
    rng = random.Random(q)
    x = PolyFq.x(ctx)
    for codes in _kernel_moduli(ctx, rng):
        h = PolyFq(ctx, codes)
        exps = [0, 1, q - 1, q, q ** 2 - 1, q ** 3 - 1, q ** 4 - 1]
        exps += [rng.randrange(10 ** 6) for _ in range(3)]
        for t in exps:
            assert tuple(gf.x_pow_mod(ctx, t, h.codes)) == x.pow_mod(t, h).codes, (h, t)
        for t in (q ** 3 - 1, exps[-1]):
            assert PolyFq(ctx, gf.x_pow_mod(ctx, t, h.codes)) == pow_mod_loops(x, t, h)


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


# (q, n, codes) verdicts the first guard runs: proven, inconclusive, x | h,
# g = 1, a folded h of 0 and non-monic h
GUARD_CASES = [
    (2, 4, list(H_EX15.codes)),
    (2, 16, [1, 1, 0, 1, 0, 1] + [0] * 10 + [1]),
    (3, 8, [1, 2, 0, 0, 2, 1, 0, 0, 2, 1, 2, 1]),
    (2, 3, [0, 0, 0, 1]),
    (2, 2, [1, 1, 0, 1]),
    (2, 4, [1] + [0] * 14 + [1]),
    (4, 3, [2, 3, 1, 3]),
    (9, 3, [2, 0, 1, 5]),
    (9, 2, [1, 5, 0, 3, 8]),
]


def test_verdicts_never_square_and_multiply(monkeypatch, capsys):
    cases = [(q, n, codes, square_multiply_verdict(PolyFq(make_field(*FIELDS[q]), codes), q, n))
             for q, n, codes in GUARD_CASES]
    refuse = _refuse("the verdict route powered by square and multiply")
    monkeypatch.setattr(gf, "_powmod", refuse)
    monkeypatch.setattr(gf.PolyFq, "pow_mod", refuse)
    with pytest.raises(AssertionError):
        oracle_irreducible(H_EX15)  # the guard is live
    for q, n, codes, v in cases:
        poly = ",".join(map(str, codes))
        report = f"status: {v.status}\nr: {v.least_period}\nthreshold: {v.threshold}\n"
        assert main(["factor-test", "--q", str(q), "--n", str(n), "--poly", poly]) == \
            (0 if v.proven else 1)
        assert capsys.readouterr().out == report
        if len(codes) - 1 == n:
            assert main(["irred-test", "--q", str(q), "--poly", poly]) == (0 if v.proven else 1)
            assert capsys.readouterr().out == report


def test_oracles_never_use_the_horner_kernel(monkeypatch):
    refuse = _refuse("an oracle powered x by x_pow_mod")
    monkeypatch.setattr(gf, "x_pow_mod", refuse)
    monkeypatch.setattr(spectral, "x_pow_mod", refuse)
    with pytest.raises(AssertionError):
        degree_n_factor_test(H_EX15, 2, 4)  # the guard is live
    rng = random.Random(16)
    for q in (2, 3, 4):
        ctx = make_field(*FIELDS[q])
        irreducibles = []
        for d in range(1, 5):
            for codes in itertools.product(range(q), repeat=d):
                h = PolyFq(ctx, list(codes) + [1])
                irreducible = brute_is_irreducible(h)
                assert oracle_irreducible(h) == irreducible, h
                if irreducible:
                    irreducibles.append(h)
        for _ in range(20):
            parts = [rng.choice(irreducibles) for _ in range(rng.randrange(1, 5))]
            prod = PolyFq(ctx, [rng.randrange(1, q)])
            for part in parts:
                prod = prod * part
            assert oracle_factor_degrees(prod) == sorted(p.degree for p in parts)


# fixed ids, the names pytest once took from each case, so a new case
# with the same message renames no old one
SPECTRAL_REFUSALS = [
    pytest.param(lambda: degree_n_factor_test(PolyFq(make_field(3), (1, 1, 1)), 3, 1), ValueError,
                 "n must be at least 2",
                 id="<lambda>-ValueError-n must be at least 2"),
    pytest.param(lambda: support_degree_test(SupportSet(15, (1,)), 3, 2), ValueError,
                 r"support modulus 15 is not q\*\*n - 1 = 8",
                 id=r"<lambda>-ValueError-support modulus 15 is not q\*\*n - 1 = 8"),
    # (-2)**2 - 1 = 3: once passed the modulus check, refused later by Phi_n(q)
    pytest.param(lambda: support_degree_test(SupportSet(3, [1]), -2, 2), ValueError,
                 "^q must be at least 2, not q=-2$", id="support_degree_test-q-minus-2"),
]


@pytest.mark.parametrize("call, error, text", SPECTRAL_REFUSALS)
def test_spectral_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
