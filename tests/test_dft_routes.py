"""The two routes of the transform, compared with each other and with oracles.

`cyclic._transform` sums the terms of a characteristic-2 input as XOR-packed
runs of the exp table (`_xor_runs`) when their slices fit the budget of
`_runs_fit`, and by the conjugacy rule, one sum per cyclotomic coset, in
every other case (`_coset_walk`).  Both routes stay in the package, so each
is checked directly against `brute_dft` or `pointwise_dft`, and the public
transform is checked to pick the route the budget names by its exact work:
the runs make no field addition, the walk one pass over the terms per
coset, with one addition per term in characteristic 2 and none in an odd
extension field, which sums through its Zech table.  Those log-domain sums
are checked against the walk that called the adder (`helpers.add_loop_walk`),
and the runs against the packed exp table each characteristic-2 field holds.
"""

import gc
import random
import weakref
from array import array

import pytest

from hmdft import cyclic, gf
from hmdft import CyclicFn, delta, delta_mask, dft, idft, make_field, subfield_embedding
from hmdft.cyclic import _coset_walk, _runs_fit, _xor_runs
from hmdft.numtheory import prime_power

from helpers import add_loop_walk, brute_dft, count_adds, pointwise_dft


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
    """An `array` that counts the nonempty slices cut from it; repeated, as
    `_xor_runs` doubles it, it stays one."""

    cuts = 0

    def __mul__(self, k):
        return CountedArray(self.typecode, super().__mul__(k))

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
    f = CyclicFn(ctx, [ctx.zeta_code if i in {0, 1, 2, 5, 9, 12} else 0 for i in range(N)])
    # the field's exp table, counted: every slice the runs cut is one of it
    monkeypatch.setattr(ctx, "exp", CountedArray("H", ctx.exp))
    for z in (zeta, zeta ** -1):
        terms = terms_of(f, z)
        CountedArray.cuts = 0
        assert tuple(_xor_runs(ctx, N, terms)) == pointwise_dft(f, z).codes
        assert 0 < CountedArray.cuts <= sum(-(-N * min(s, M - s) // M) or 1
                                            for _, s in terms)


class WatchedField(gf.FieldCtx):
    """A field that a weak reference can watch for being freed."""

    __slots__ = ("__weakref__",)


def test_runs_leave_no_field_behind(monkeypatch):
    # the exp table is the field's own slot, so once gf's caches forget a
    # field that transforms have read, nothing else keeps it alive
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(gf, "_EMBED_CACHE", {})
    monkeypatch.setattr(gf, "FieldCtx", WatchedField)
    ctx = make_field(2, 10)
    M = ctx.order - 1
    zeta = ctx.nth_root_of_unity(M)
    f = CyclicFn(ctx, [ctx.zeta_code if i in {0, 1, 3} else 0 for i in range(M)])
    for transform, z in ((dft, zeta), (idft, zeta ** -1)):  # 1/N = 1
        assert transform(f, zeta) == pointwise_dft(f, z)
    watch = weakref.ref(ctx)
    del ctx, zeta, f, z
    gf._FIELD_CACHE.clear()
    gf._EMBED_CACHE.clear()
    gc.collect()
    assert watch() is None


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
    "generators of F_729": lambda rng: (CyclicFn(make_field(3, 6), [
        make_field(3, 6).zeta_code if i < 3 else 0 for i in range(728)]), 729),
}


class CountedTerms(list):
    """A term list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        CountedTerms.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("name", list(WALK_INPUTS))
def test_other_inputs_take_the_coset_walk(monkeypatch, name):
    f, P = WALK_INPUTS[name](random.Random(5))
    ctx, N = f.ctx, f.N
    zeta = ctx.nth_root_of_unity(N)
    forward = pointwise_dft(f, zeta)
    ninv = pow(N % ctx.p, ctx.p - 2, ctx.p)
    inverse = pointwise_dft(f, zeta ** -1).scale(ninv)
    cosets = coset_count(N, P)
    # characteristic 2 adds each term of a coset's sum with the field's adder;
    # an odd extension field sums through its Zech table, with no add
    adds = cosets * len(f.support()) if ctx.p == 2 else 0
    walk = cyclic._coset_walk
    monkeypatch.setattr(cyclic, "_coset_walk",
                        lambda ctx, N, terms: walk(ctx, N, CountedTerms(terms)))
    calls = count_adds(monkeypatch, ctx)
    for transform, oracle in ((dft, forward), (idft, inverse)):
        calls[0] = CountedTerms.passes = 0
        assert transform(f, zeta) == oracle
        assert calls[0] == adds
        # one pass finds the values' subfield, then one sum per coset
        assert CountedTerms.passes == 1 + cosets


def lifted_mask(q, n, w, c):
    """The (w, c) mask over F_q, lifted into F_{q^n}: a dense walk input."""
    p, j = prime_power(q)
    emb = subfield_embedding(make_field(p, j), make_field(p, j * n))
    return CyclicFn(emb.big, emb.lift_codes(delta_mask(q, n, w, c).codes))


def sparse_inputs(rng):
    """Seeded sparse inputs with N < M over odd extension fields, values drawn
    from the whole field or from its prime subfield."""
    for p, m in ((3, 4), (5, 3), (7, 2), (3, 6)):
        ctx = make_field(p, m)
        M = ctx.order - 1
        for N in (d for d in range(2, M) if M % d == 0):
            codes = [0] * N
            top = rng.choice((p, ctx.order))
            for j in rng.sample(range(N), min(N, rng.randrange(1, 7))):
                codes[j] = rng.randrange(1, top)
            yield CyclicFn(ctx, codes)


def cancelling_input():
    """c and -c at two support points, then a third term: at point 0 the
    partial sum is 0 after two terms, and the third restarts it."""
    ctx = make_field(5, 3)
    c, e = ctx.zeta_code, ctx.exp[7]
    codes = [0] * 62
    codes[3], codes[8], codes[20] = c, ctx.neg_code(c), e
    return CyclicFn(ctx, codes)


def log_domain_inputs():
    rng = random.Random(29)
    walk_inputs = (make(random.Random(5))[0] for make in WALK_INPUTS.values())
    yield from (f for f in walk_inputs if f.ctx.p > 2)
    yield from (lifted_mask(3, 6, 2, 1), lifted_mask(5, 4, 2, 3), lifted_mask(9, 3, 1, 4))
    yield from sparse_inputs(rng)
    yield cancelling_input()


def test_log_domain_sums_match_the_add_loop():
    checked = past_M = 0
    for f in log_domain_inputs():
        ctx, N = f.ctx, f.N
        assert ctx.p > 2 and ctx.m > 1  # the fields the Zech sums serve
        zeta = ctx.nth_root_of_unity(N)
        ninv = pow(N % ctx.p, ctx.p - 2, ctx.p)
        # forward, and inverse with log(1/N) riding on every c_j
        for terms in (terms_of(f, zeta), terms_of(f, zeta ** -1, ctx.log[ninv])):
            assert _coset_walk(ctx, N, terms) == add_loop_walk(ctx, N, terms)
            past_M += any(lc >= ctx.order - 1 for lc, _ in terms)
            checked += 1
    assert checked > 2 * (5 + 3 + 1)  # walk inputs, masks, cancelling, and sparse ones
    assert past_M  # some inverse input carried c_j past M


def test_cancelling_partial_sum_restarts():
    f = cancelling_input()
    ctx, N = f.ctx, f.N
    zeta = ctx.nth_root_of_unity(N)
    terms = terms_of(f, zeta)
    # at point 0 every term is its value: c + (-c) = 0, then e alone
    assert ctx.add_codes(ctx.exp[terms[0][0]], ctx.exp[terms[1][0]]) == 0
    out = _coset_walk(ctx, N, terms)
    assert out[0] == ctx.exp[7]
    assert out == list(pointwise_dft(f, zeta).codes)
