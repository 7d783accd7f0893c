import time

import pytest

from hmdft import (
    SweepConfig,
    classify_case,
    find_witness,
    oracle_irreducible,
    sweep,
    verify_period_claims,
)
from hmdft import harness
from hmdft.errors import ExcludedCaseError, SizeCapError, WeightRangeError
from hmdft.harness import CASE_EXCLUDED, CASE_HALF, CASE_MAX, CASE_NORM, CASE_SMALL
from hmdft.symfun import _weight_counts


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


def test_sweep_long_n_range_skips_fast():
    # n past the bit length of the cap is skipped without forming q**n
    start = time.perf_counter()
    res = sweep(SweepConfig(q_list=(3,), n_range=(2, 100000), with_witness=False))
    assert time.perf_counter() - start < 10
    assert len(res.reports) == 60 and len(res.skipped) == 99991
    assert {r.n for r in res.reports} == set(range(2, 10))
    assert res.summary["fail"] == 0


def test_sweep_shares_weight_counts_across_c():
    # the q masks of one (q, n, w) come from one build of the counts
    _weight_counts.cache_clear()
    res = sweep(SweepConfig(q_list=(7,), n_range=(4, 4), with_witness=False))
    assert len(res.reports) == 2 * 7
    info = _weight_counts.cache_info()
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
