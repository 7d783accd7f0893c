"""The two routes of the transform, compared with each other and with oracles.

`cyclic._transform` sums the terms of a characteristic-2 input as XOR-packed
runs of the exp table (`_xor_runs`) when their slices fit the budget of
`_runs_fit`, and by the conjugacy rule, one sum per cyclotomic coset, in
every other case (`_coset_walk`).  Both routes stay in the package, so each
is checked directly against `brute_dft` or `pointwise_dft`, and the public
transform is checked to pick the route the budget names, by counting the
field additions: the runs make none, the walk one per term per coset.
"""

import random
from array import array

import pytest

from hmdft import cyclic
from hmdft import CyclicFn, delta, dft, idft, make_field, subfield_embedding
from hmdft.cyclic import _coset_walk, _runs_fit, _xor_runs
from hmdft.numtheory import prime_power

from helpers import brute_dft, count_adds, pointwise_dft


def terms_of(f, zeta, scale_log=0):
    """(c_j, s_j) per support point j, as `_transform` hands them to a route."""
    ctx, M = f.ctx, f.ctx.order - 1
    k = ctx.log[zeta.code]
    return [(ctx.log[c] + scale_log, k * j % M) for j, c in enumerate(f.codes) if c]


def check_routes(f, zeta, oracle):
    """Both routes on f's terms equal the oracle's codes."""
    terms = terms_of(f, zeta)
    assert tuple(_xor_runs(f.ctx, f.N, terms)) == oracle.codes
    assert tuple(_coset_walk(f.ctx, f.N, terms)) == oracle.codes


def coset_count(N, P):
    """The number of cyclotomic cosets of P mod N, by walking them."""
    seen, count = set(), 0
    for i in range(N):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = i * P % N
    return count


def polynomial_input(q, n, rng):
    """A random monic degree-n polynomial over F_q, lifted into F_{q^n} and
    padded to length q**n - 1: a `dft --seq` request of the benchmark."""
    p, j = prime_power(q)
    small, big = make_field(p, j), make_field(p, j * n)
    poly = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(n - 1)] + [1]
    codes = poly + [0] * (big.order - 1 - len(poly))
    return CyclicFn(big, subfield_embedding(small, big).lift_codes(codes))


@pytest.mark.parametrize("q,n", [(2, 12), (2, 14), (2, 16), (4, 5), (8, 3)])
def test_polynomial_inputs_take_runs(monkeypatch, q, n):
    # every characteristic-2 pair of the benchmark's spectral-mix workload
    rng = random.Random(q * 100 + n)
    for _ in range(2):
        f = polynomial_input(q, n, rng)
        zeta = f.ctx.nth_root_of_unity(f.N)
        forward, inverse = pointwise_dft(f, zeta), pointwise_dft(f, zeta ** -1)
        check_routes(f, zeta, forward)
        check_routes(f, zeta ** -1, inverse)  # backward steps -j
        calls = count_adds(monkeypatch, f.ctx)
        assert dft(f, zeta) == forward and idft(f, zeta) == inverse  # 1/N = 1
        assert calls[0] == 0
        monkeypatch.undo()


def test_routes_match_brute_force_on_sparse_inputs():
    rng = random.Random(11)
    signs = set()
    for m in (4, 6, 8):
        ctx = make_field(2, m)
        M = ctx.order - 1
        for N in (d for d in range(1, M + 1) if M % d == 0):  # N < M and N = 1
            zeta = ctx.nth_root_of_unity(N)
            for trial in range(4):
                codes = [0] * N
                for j in rng.sample(range(N), min(N, rng.randrange(1, 5))):
                    codes[j] = rng.randrange(1, ctx.order)
                if trial % 2:
                    codes[0] = rng.randrange(1, ctx.order)  # a term of step 0
                f = CyclicFn(ctx, codes)
                for z in (zeta, zeta ** -1):
                    oracle = brute_dft(f, z) if N < 64 else pointwise_dft(f, z)
                    check_routes(f, z, oracle)
                    signs |= {0 if s == 0 else 1 if 2 * s <= M else -1
                              for _, s in terms_of(f, z)}
    assert signs == {-1, 0, 1}  # backward, still and forward runs all ran


class CountedArray(array):
    """An `array` that counts the nonempty slices cut from it."""

    cuts = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, slice) and len(out):
            CountedArray.cuts += 1
        return out


@pytest.mark.parametrize("m,N", [(12, 4095), (12, 315), (8, 255)])
def test_runs_cut_few_slices(monkeypatch, m, N):
    # a slice of the doubled table covers more than M/|d| points, so a run of
    # signed step d cuts at most ceil(N*|d|/M) nonempty slices, one for d = 0:
    # the forward step M - j of an inverse term j would cut about N of them,
    # and a backward slice started in the lower copy one more than that bound
    ctx = make_field(2, m)
    M = ctx.order - 1
    zeta = ctx.nth_root_of_unity(N)
    f = CyclicFn.from_support(ctx, N, [0, 1, 2, 5, 9, 12], value=ctx.zeta_code)
    monkeypatch.setattr(cyclic, "array", CountedArray)
    for z in (zeta, zeta ** -1):
        terms = terms_of(f, z)
        CountedArray.cuts = 0
        assert tuple(_xor_runs(ctx, N, terms)) == pointwise_dft(f, z).codes
        assert CountedArray.cuts <= sum(-(-N * min(s, M - s) // M) or 1 for _, s in terms)


def test_routes_at_the_edge_of_the_slice_budget(monkeypatch):
    ctx = make_field(2, 12)
    N = ctx.order - 1
    zeta = ctx.nth_root_of_unity(N)  # exp[1]: term j takes min(j, N - j) + 1 slices
    under = CyclicFn.from_support(ctx, N, [2046, 2047])  # 2047 + 2048 = N slices
    over = CyclicFn.from_support(ctx, N, [0, 2046, 2047])  # N + 1 slices
    assert _runs_fit(terms_of(under, zeta), N, N)
    assert not _runs_fit(terms_of(over, zeta), N, N)
    oracles = {f: pointwise_dft(f, zeta) for f in (under, over)}
    for f, oracle in oracles.items():
        check_routes(f, zeta, oracle)
    calls = count_adds(monkeypatch, ctx)
    assert dft(under, zeta) == oracles[under]
    assert calls[0] == 0
    calls[0] = 0
    assert dft(over, zeta) == oracles[over]
    assert calls[0] == coset_count(N, 2) * 3 == 351 * 3


# the inputs the coset walk must take, with P = p**t of their values
WALK_INPUTS = {
    "delta(2, 12, 4)": lambda rng: (CyclicFn(make_field(2, 12), subfield_embedding(
        make_field(2), make_field(2, 12)).lift_codes(delta(2, 12, 4).codes)), 2),
    "over the budget": lambda rng: (
        CyclicFn.from_support(make_field(2, 12), 4095, range(2000, 2010)), 2),
    "polynomial over F_3, n = 6": lambda rng: (polynomial_input(3, 6, rng), 3),
    "polynomial over F_5, n = 3": lambda rng: (polynomial_input(5, 3, rng), 5),
    "polynomial over F_7, n = 3": lambda rng: (polynomial_input(7, 3, rng), 7),
    "polynomial over F_9, n = 3": lambda rng: (polynomial_input(9, 3, rng), 9),
    "generators of F_729": lambda rng: (CyclicFn.from_support(
        make_field(3, 6), 728, [0, 1, 2], make_field(3, 6).zeta_code), 729),
}


@pytest.mark.parametrize("name", list(WALK_INPUTS))
def test_other_inputs_take_the_coset_walk(monkeypatch, name):
    f, P = WALK_INPUTS[name](random.Random(5))
    ctx, N = f.ctx, f.N
    zeta = ctx.nth_root_of_unity(N)
    forward = pointwise_dft(f, zeta)
    ninv = pow(N % ctx.p, ctx.p - 2, ctx.p)
    inverse = pointwise_dft(f, zeta ** -1).scale(ninv)
    expected = coset_count(N, P) * len(f.support())
    calls = count_adds(monkeypatch, ctx)
    assert dft(f, zeta) == forward
    assert calls[0] == expected
    calls[0] = 0
    assert idft(f, zeta) == inverse
    assert calls[0] == expected
