import itertools
import time
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmdft import (
    SweepConfig,
    classify_case,
    find_witness,
    oracle_irreducible,
    sweep,
    verify_period_claims,
)
from hmdft import CyclicFn, delta_mask, gf, harness
from hmdft.errors import (
    ExcludedCaseError,
    SizeCapError,
    WeightRangeError,
)
from hmdft.harness import CASE_EXCLUDED, CASE_HALF, CASE_MAX, CASE_NORM, CASE_SMALL
from hmdft.numtheory import prime_power
from hmdft.symfun import _multiset_counts

from helpers import ascending_scan_period, find_witness_scan_oracle, fits_oracle


def test_classify_case_table():
    assert classify_case(2, 4, 2, 1) == CASE_MAX      # c != 0
    assert classify_case(3, 4, 1, 0) == CASE_MAX      # c = 0, w != n/2
    assert classify_case(2, 4, 2, 0) == CASE_MAX      # q even, n > 2, w = n/2
    assert classify_case(3, 4, 2, 0) == CASE_HALF     # q odd, n > 2, w = n/2
    assert classify_case(3, 2, 1, 0) == CASE_SMALL    # q odd, n = 2
    assert classify_case(2, 2, 1, 0) == CASE_EXCLUDED
    assert classify_case(4, 2, 1, 0) == CASE_EXCLUDED
    assert classify_case(4, 2, 1, 3) == CASE_MAX


def test_verify_example_15():
    rep = verify_period_claims(2, 4, 2, 0)
    assert rep.case_label == CASE_MAX
    assert rep.r == 15 and rep.threshold == 3
    assert rep.r_gt_threshold and rep.r_not_dividing_threshold and rep.case_claim
    assert rep.passed


def test_verify_case_iii():
    rep = verify_period_claims(3, 2, 1, 0)
    assert rep.case_label == CASE_SMALL
    assert rep.r == 4 and rep.threshold == 2
    assert rep.case_claim  # r > q - 1 = 2
    assert rep.passed


def test_verify_nonzero_c_max_period():
    rep = verify_period_claims(2, 2, 1, 1)
    assert rep.case_label == CASE_MAX and rep.r == 3
    assert rep.passed


def test_verify_case_ii():
    rep = verify_period_claims(3, 4, 2, 0)
    assert rep.case_label == CASE_HALF
    assert 2 * rep.r >= 3 ** 4 - 1
    assert rep.passed


def test_verify_excluded():
    rep = verify_period_claims(2, 2, 1, 0)
    assert rep.case_label == CASE_EXCLUDED
    assert rep.r is None and rep.case_claim is None
    assert rep.passed  # vacuous: no claims checked


def test_verify_validations():
    with pytest.raises(WeightRangeError):
        verify_period_claims(2, 4, 3, 0)  # w > n/2
    with pytest.raises(WeightRangeError):
        verify_period_claims(2, 4, 0, 0)
    with pytest.raises(ValueError):
        verify_period_claims(2, 4, 2, 5)  # c out of range
    with pytest.raises(SizeCapError):
        verify_period_claims(7, 6, 1, 0)
    with pytest.raises(ValueError):
        verify_period_claims(6, 4, 1, 0)  # q not a prime power


def test_find_witness_example_15():
    wit = find_witness(2, 4, 2, 0)
    assert wit.codes == (1, 1, 0, 0, 1)  # x^4 + x + 1 is the first hit
    assert wit[2].code == 0


def test_find_witness_exceptions():
    assert find_witness(2, 2, 1, 0) is None
    assert find_witness(4, 2, 1, 0) is None
    with pytest.raises(ExcludedCaseError):
        find_witness(3, 3, 3, 0)  # norm prescription with c = 0


def test_find_witness_norm_case():
    for q, n in [(3, 2), (4, 2), (5, 2), (3, 4), (2, 5)]:
        p = 2 if q in (2, 4) else q
        for c in range(1, q):
            wit = find_witness(q, n, n, c)
            assert wit is not None
            assert wit.codes[0] == c  # the constant term carries the norm
            assert oracle_irreducible(wit)


def test_find_witness_prescribes_coefficient():
    for q, n, w, c in [(3, 3, 1, 2), (5, 2, 1, 3), (4, 3, 2, 2), (2, 6, 3, 1)]:
        wit = find_witness(q, n, w, c)
        assert wit is not None and wit.degree == n and wit.is_monic
        assert (wit.codes[n - w] if n - w < len(wit.codes) else 0) == c
        assert oracle_irreducible(wit)


def test_sweep_small_grid_deterministic():
    cfg = SweepConfig(q_list=(2, 3), n_range=(2, 4))
    r1 = sweep(cfg)
    r2 = sweep(cfg)
    assert r1 == r2
    assert r1.summary["fail"] == 0
    keys = [(r.q, r.n, r.w, r.c) for r in r1.reports]
    assert keys == sorted(keys)


def test_sweep_empty_grid():
    res = sweep(SweepConfig(q_list=(), n_range=(2, 4)))
    assert res.reports == () and res.summary["total"] == 0


def test_sweep_size_cap_recorded_not_fatal(monkeypatch):
    res = sweep(SweepConfig(q_list=(7,), n_range=(5, 6), with_witness=False))
    assert any(s["reason"] == "size_cap" and s["n"] == 6 for s in res.skipped)
    assert all(r.n == 5 for r in res.reports)
    assert res.summary["fail"] == 0
    # under a larger user cap, a hard limit still skips (q, n) before any work:
    # F_{2^21} is over FIELD_ORDER_CAP for the witness, 2^23 - 1 over MODULUS_GUARD
    monkeypatch.setattr(harness, "_sweep_tuple", _no_work)
    for n, cfg in [(21, SweepConfig(q_list=(2,), n_range=(21, 21), size_cap=3 * 10 ** 6)),
                   (23, SweepConfig(q_list=(2,), n_range=(23, 23), size_cap=10 ** 8,
                                    with_witness=False))]:
        res = sweep(cfg)
        assert res.reports == ()
        assert res.skipped == ({"q": 2, "n": n, "reason": "size_cap"},)


def test_sweep_skips_a_large_q_without_factoring_it(monkeypatch):
    # a q past MODULUS_GUARD + 1 fits no n >= 1 under check_size, so it gets
    # its skip rows and is never factored; n = 0 fits but has no rows
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(harness, "prime_power", no_factoring)
    q = 3 * (gf.MODULUS_GUARD + 2)
    res = sweep(SweepConfig(q_list=(q,), n_range=(0, 3)))
    assert res.reports == ()
    assert res.skipped == tuple({"q": q, "n": n, "reason": "size_cap"} for n in (1, 2, 3))


def test_sweep_long_n_range_skips_fast():
    # n past the bit length of the cap is skipped without forming q**n
    start = time.perf_counter()
    res = sweep(SweepConfig(q_list=(3,), n_range=(2, 100000), with_witness=False))
    assert time.perf_counter() - start < 10
    assert len(res.reports) == 60 and len(res.skipped) == 99991
    assert {r.n for r in res.reports} == set(range(2, 10))
    assert res.summary["fail"] == 0


def test_sweep_shares_weight_counts_across_c():
    # the q periods of one (q, n, w) come from one build of the count table
    _multiset_counts.cache_clear()
    res = sweep(SweepConfig(q_list=(7,), n_range=(4, 4), with_witness=False))
    assert len(res.reports) == 2 * 7
    info = _multiset_counts.cache_info()
    assert (info.misses, info.hits) == (2, 2 * 6)


def _no_work(*args):
    raise AssertionError("a skipped (q, n) reached the tuple work")


def test_sweep_full_w_policy_delegates():
    res = sweep(SweepConfig(q_list=(3,), n_range=(4, 4), w_policy="full"))
    by_w = {}
    for r in res.reports:
        by_w.setdefault(r.w, []).append(r)
    assert set(by_w) == {1, 2, 3, 4}
    for r in by_w[3]:
        assert r.delegated_to_w == 1
        assert r.witness is not None and r.witness_ok
        # prescribed coefficient is x^{n-w} = x^1 of the witness
        assert r.witness[1] == r.c
    for r in by_w[4]:
        assert r.case_label == CASE_NORM and r.c != 0
        assert r.witness is not None and r.witness_ok
    assert any(s.get("reason") == "norm_of_zero_excluded" for s in res.skipped)
    assert res.summary["fail"] == 0


def test_sweep_pinned_tuple():
    res = sweep(SweepConfig(q_list=(2,), n_range=(2, 2), pinned_w=1, pinned_c=0))
    assert len(res.reports) == 1
    rep = res.reports[0]
    assert rep.case_label == CASE_EXCLUDED
    assert rep.witness is None and rep.witness_ok  # expected absence
    assert res.summary["fail"] == 0 and res.summary["excluded"] == 1


def test_sweep_symmetry_check():
    res = sweep(SweepConfig(q_list=(3,), n_range=(3, 3), check_symmetry=True,
                            with_witness=False))
    assert all(r.symmetric for r in res.reports if r.case_label != CASE_EXCLUDED)
    assert res.summary["fail"] == 0


def test_sweep_periods_match_dense_route_on_periods_grid():
    # the point route against the ascending divisor scan of the dense mask, on
    # every row of the no-witness sweep at cap 2*10**5 (the periods-2e5
    # benchmark grid); least_period would share mask_period's prime descent
    res = sweep(SweepConfig(q_list=(2, 3, 4, 5, 7, 8, 9), n_range=(2, 12),
                            size_cap=200000, with_witness=False))
    rows = [r for r in res.reports if r.case_label != CASE_EXCLUDED]
    assert len(rows) == 448 and res.summary["fail"] == 0
    for r in rows:
        ctx = gf.make_field(*prime_power(r.q))
        mask = delta_mask(r.q, r.n, r.w, ctx.element(r.c), ctx)
        assert r.r == ascending_scan_period(mask.codes), (r.q, r.n, r.w, r.c)


def test_sweep_builds_dense_masks_only_for_symmetry(monkeypatch):
    built = []
    dense = harness.delta_mask

    def counted(q, n, w, c, ctx):
        built.append((q, n, w, c.code))
        return dense(q, n, w, c, ctx)

    monkeypatch.setattr(harness, "delta_mask", counted)
    cfg = SweepConfig(q_list=(3,), n_range=(4, 4), w_policy="full", with_witness=False)
    plain = sweep(cfg)
    assert built == []
    checked = sweep(replace(cfg, check_symmetry=True))
    # one dense mask per row with a period, at the delegated w above n/2
    assert built == [(3, 4, min(r.w, 4 - r.w), r.c) for r in checked.reports
                     if r.r is not None]
    assert [replace(r, symmetric=None) for r in checked.reports] == list(plain.reports)


def test_sweep_symmetry_reads_the_dense_mask(monkeypatch):
    # a dense mask with one value moved off the orbit is reported asymmetric
    dense = harness.delta_mask

    def perturbed(q, n, w, c, ctx):
        codes = list(dense(q, n, w, c, ctx).codes)
        codes[1] = ctx.add_codes(codes[1], 1)
        return CyclicFn(ctx, codes)

    monkeypatch.setattr(harness, "delta_mask", perturbed)
    res = sweep(SweepConfig(q_list=(3,), n_range=(3, 3), check_symmetry=True,
                            with_witness=False))
    assert [r.symmetric for r in res.reports] == [False] * len(res.reports)


def test_report_dict_schema():
    res = sweep(SweepConfig(q_list=(2,), n_range=(4, 4)))
    d = res.to_dict()
    row = d["reports"][0]
    assert set(row) == {"q", "n", "w", "c", "r", "threshold", "case_label",
                        "claims", "delegated_to_w", "witness", "witness_ok",
                        "symmetric", "passed"}
    assert set(row["claims"]) == {"r_gt_threshold", "r_not_dividing_threshold",
                                  "case_claim"}
    assert set(d["summary"]) == {"total", "pass", "fail", "excluded", "skipped"}


def test_witness_reports_match_mask_claims():
    # whenever the period claims pass, a witness with the exact coefficient exists
    res = sweep(SweepConfig(q_list=(2, 3, 4), n_range=(2, 4)))
    for r in res.reports:
        if r.case_label == CASE_EXCLUDED:
            assert r.witness is None
            continue
        assert r.passed
        assert r.witness is not None
        wit = list(r.witness)
        n_w = r.n - r.w
        assert (wit[n_w] if n_w < len(wit) else 0) == r.c


README_QS = (2, 3, 4, 5, 7)
EVEN_QS = (2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def readme_all_w():
    return sweep(SweepConfig(q_list=README_QS, n_range=(2, 6), w_policy="full"))


def _codes(poly):
    return None if poly is None else tuple(poly.codes)


def _assert_scan_oracle(reports):
    for r in reports:
        assert r.witness == _codes(find_witness_scan_oracle(r.q, r.n, r.w, r.c)), \
            (r.q, r.n, r.w, r.c)


def test_sweep_witnesses_match_scan_oracle_on_readme_grid(readme_all_w):
    assert len(readme_all_w.reports) == 354
    _assert_scan_oracle(readme_all_w.reports)


def test_sweep_witnesses_match_scan_oracle_at_q_8_9_16():
    res = sweep(SweepConfig(q_list=(8, 9, 16), n_range=(2, 4), w_policy="full"))
    assert {(r.q, r.n) for r in res.reports} >= {(16, 3), (9, 4)}
    _assert_scan_oracle(res.reports)


def test_exception_rows_match_scan_oracle():
    # (n, w, c) = (2, 1, 0) for even q: every leader is used up, no witness
    res = sweep(SweepConfig(q_list=EVEN_QS, n_range=(2, 2), pinned_w=1, pinned_c=0))
    assert [(r.q, r.witness, r.witness_ok) for r in res.reports] == \
        [(q, None, True) for q in EVEN_QS]
    for q in EVEN_QS:
        assert find_witness(q, 2, 1, 0) is None
        assert find_witness_scan_oracle(q, 2, 1, 0) is None


def test_find_witness_is_the_sweeps_row(readme_all_w):
    for r in readme_all_w.reports:
        assert _codes(find_witness(r.q, r.n, r.w, r.c)) == r.witness


def test_scan_forms_char_polys_of_degree_n_orbit_leaders_only(monkeypatch):
    # per (q, n), in ascending order: every exponent k whose Frobenius orbit
    # {k*q**s mod M} has n members and k as its least, up to the last one used
    seen = defaultdict(list)

    def recording(xi, q, n):
        seen[q, n].append(xi.ctx.log[xi.code])
        return gf.char_poly(xi, q, n)

    monkeypatch.setattr(harness, "char_poly", recording)
    sweep(SweepConfig(q_list=README_QS, n_range=(2, 6)))
    for (q, n), ks in seen.items():
        M = q ** n - 1
        orbits = {k: {k * q ** s % M for s in range(n)} for k in range(ks[-1] + 1)}
        assert ks == [k for k, orb in orbits.items() if len(orb) == n and min(orb) == k]
    assert sum(map(len, seen.values())) == 257


def test_sweep_verifies_each_distinct_witness_once(monkeypatch):
    calls = []

    def counted(h):
        calls.append((h.ctx.order, h.codes))
        return oracle_irreducible(h)

    monkeypatch.setattr(harness, "oracle_irreducible", counted)
    res = sweep(SweepConfig(q_list=README_QS, n_range=(2, 6)))
    witnesses = {(r.q, r.witness) for r in res.reports if r.witness is not None}
    # a polynomial over F_q is told apart by q: the same codes over F_3 and
    # F_4 are two witnesses, each verified in its own field
    assert len(calls) == len(set(calls)) == 130
    assert set(calls) == witnesses


def test_sweep_raises_when_the_oracle_rejects_a_witness(monkeypatch):
    cfg = SweepConfig(q_list=(2, 3), n_range=(2, 4), w_policy="full")
    witnesses = {(r.q, r.witness) for r in sweep(cfg).reports if r.witness is not None}
    assert len(witnesses) > 10
    for rejected in sorted(witnesses):
        def mutant(h, rejected=rejected):
            return (h.ctx.order, h.codes) != rejected and oracle_irreducible(h)

        monkeypatch.setattr(harness, "oracle_irreducible", mutant)
        with pytest.raises(AssertionError, match="independent verification"):
            sweep(cfg)


FITS_QS = (2, 3, 4, 5, 7, 8, 9, 16, 27)


def _size_cfg(cap, with_witness):
    # fits reads only the cap and with_witness
    return SweepConfig(q_list=(2,), n_range=(2, 2), size_cap=cap,
                       with_witness=with_witness)


@st.composite
def _fits_inputs(draw):
    # n anywhere in [1, 10**9], or at the first n whose q**n - 1 passes the
    # cap or a hard limit (or one before it), where the comparison turns
    q = draw(st.sampled_from(FITS_QS))
    cap = draw(st.one_of(st.integers(0, 1 << 23),
                         st.integers(gf.FIELD_ORDER_CAP - 1, 1 << 23),
                         st.sampled_from([gf.FIELD_ORDER_CAP - 1, gf.FIELD_ORDER_CAP,
                                          gf.MODULUS_GUARD, 1 << 23])))
    edge = draw(st.sampled_from([cap, gf.FIELD_ORDER_CAP - 1, gf.MODULUS_GUARD]))
    turn = next(n for n in itertools.count(1) if q ** n - 1 > edge)
    n = draw(st.one_of(st.integers(1, 10 ** 9), st.sampled_from([turn, max(turn - 1, 1)])))
    return q, n, cap, draw(st.booleans())


@settings(max_examples=500, deadline=None)
@given(_fits_inputs())
def test_fits_matches_oracle(args):
    q, n, cap, with_witness = args
    cfg = _size_cfg(cap, with_witness)
    assert cfg.fits(q, n) == fits_oracle(cfg, q, n)


FITS_BOUNDARIES = [
    # q**n - 1 = cap, and one below it
    (3, 9, 19682, False, True), (3, 9, 19682, True, True),
    (3, 9, 19681, False, False), (3, 9, 19681, True, False),
    # q**n = FIELD_ORDER_CAP: fits with a witness, one power more does not
    (2, 20, 1 << 23, True, True), (4, 10, 1 << 23, True, True),
    (2, 21, 1 << 23, True, False), (2, 21, 1 << 23, False, True),
    # q**n - 1 = MODULUS_GUARD (fits only reads q**n, so q need not be a
    # prime power here), and one above it
    (gf.MODULUS_GUARD + 1, 1, 1 << 23, False, True),
    (gf.MODULUS_GUARD + 2, 1, 1 << 23, False, False),
    (2, 22, 1 << 23, False, True), (2, 23, 1 << 23, False, False),
]


@pytest.mark.parametrize("q, n, cap, with_witness, expected", FITS_BOUNDARIES)
def test_fits_boundaries(q, n, cap, with_witness, expected):
    cfg = _size_cfg(cap, with_witness)
    assert cfg.fits(q, n) is expected
    assert fits_oracle(cfg, q, n) is expected


def test_fits_at_the_bit_length_of_the_limit():
    # n at and one past the bit length of the limit, for caps on both sides
    # of a power of two, with and without the field limit
    for cap in (1, 2, 3, 255, 256, 19682, (1 << 20) - 1, 1 << 20, (1 << 22) - 1,
                1 << 22, 1 << 23):
        for with_witness in (False, True):
            cfg = _size_cfg(cap, with_witness)
            limit = min(cap, gf.MODULUS_GUARD)
            if with_witness:
                limit = min(limit, gf.FIELD_ORDER_CAP - 1)
            for n in (limit.bit_length(), limit.bit_length() + 1):
                assert cfg.fits(2, n) == fits_oracle(cfg, 2, n), (n, cap, with_witness)
