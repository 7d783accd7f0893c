import itertools
import time
from collections import defaultdict

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
from hmdft import cli, delta_mask, gf, harness, is_q_symmetric, numtheory, symfun
from hmdft.gf import SizeCapError
from hmdft.harness import CASE_EXCLUDED, CASE_HALF, CASE_MAX, CASE_NORM, CASE_SMALL

from helpers import ascending_scan_period, find_witness_scan_oracle, fits_oracle, per_row_sweep


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
    with pytest.raises(ValueError, match=r"^w=3 outside \[1, 2\]$"):
        verify_period_claims(2, 4, 3, 0)  # w > n/2
    with pytest.raises(ValueError, match=r"^w=0 outside \[1, 2\]$"):
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
    with pytest.raises(ValueError, match="^the norm of a nonzero element is never 0$"):
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
    # once returned total 0, fail 0: success on an empty grid
    with pytest.raises(ValueError, match="^q list names no field size$"):
        sweep(SweepConfig(q_list=(), n_range=(2, 4)))


@pytest.mark.parametrize("cfg, text", [
    # the n = 1 norm row has no threshold: once failed inside the first row
    (SweepConfig(q_list=(2, 3), n_range=(1, 3), w_policy="full"), "reaches n = 1"),
    (SweepConfig(q_list=(3,), n_range=(6, 3)), "^n range 6:3 is empty$"),
    (SweepConfig(q_list=(3,), n_range=(2, 3), pinned_w=3, pinned_c=0),
     "^the grid's only cell is w = n = 3 with c = 0, and no norm is 0$"),
    (SweepConfig(q_list=(3,), n_range=(2, 3), pinned_w=4),
     "^pinned w=4 lies outside \\[1, n\\] for every n of the range 2:3$"),
    (SweepConfig(q_list=(3,), n_range=(-3, 1)),
     "^n range -3:1 has no n >= 2, so it has no row to run$"),
    (SweepConfig(q_list=(3,), n_range=(2, 3), size_cap=7),
     "^no \\(q, n\\) of the grid has a row within the size cap 7 and the hard limits$"),
], ids=["n-1-row", "reversed-n", "norm-of-zero-only", "w-fits-no-n", "n-below-2",
        "over-cap"])
def test_sweep_refuses_a_grid_with_no_row_to_run(monkeypatch, cfg, text):
    monkeypatch.setattr(harness, "_reports", _no_work)
    monkeypatch.setattr(harness, "_witnesses", _no_work)
    with pytest.raises(ValueError, match=text):
        sweep(cfg)


@pytest.mark.parametrize("q_list", [(2, 3, 4, 5, 7, 8, 9, 10), (10, 2, 3)],
                         ids=["last", "first"])
def test_sweep_refuses_a_non_prime_power_q_before_any_row(monkeypatch, q_list):
    monkeypatch.setattr(harness, "_reports", _no_work)
    monkeypatch.setattr(harness, "_witnesses", _no_work)
    with pytest.raises(ValueError, match="^10 is not a prime power$"):
        sweep(SweepConfig(q_list=q_list, n_range=(2, 12), size_cap=200000))


def _work_only_on(monkeypatch, q):
    """Let the sweep do row work on the grid's q alone."""
    real = harness._reports

    def reports(q_row, *args):
        if q_row != q:
            _no_work()
        return real(q_row, *args)

    monkeypatch.setattr(harness, "_reports", reports)


def test_sweep_size_cap_recorded_not_fatal(monkeypatch):
    res = sweep(SweepConfig(q_list=(7,), n_range=(5, 6), with_witness=False))
    assert any(s["reason"] == "size_cap" and s["n"] == 6 for s in res.skipped)
    assert all(r.n == 5 for r in res.reports)
    assert res.summary["fail"] == 0
    # under a larger user cap, a hard limit still skips (q, n) before any work,
    # beside a (2, 2) that fits: 1031**2 is over FIELD_ORDER_CAP for the
    # witness, 2053**2 - 1 over MODULUS_GUARD
    _work_only_on(monkeypatch, 2)
    for q, cfg in [(1031, SweepConfig(q_list=(2, 1031), n_range=(2, 2), size_cap=3 * 10 ** 6)),
                   (2053, SweepConfig(q_list=(2, 2053), n_range=(2, 2), size_cap=10 ** 8,
                                      with_witness=False))]:
        res = sweep(cfg)
        assert [r.q for r in res.reports] == [2, 2] and res.summary["fail"] == 0
        assert res.skipped == ({"q": q, "n": 2, "reason": "size_cap"},)


def test_sweep_refuses_a_large_q_without_factoring_it(monkeypatch):
    # a q past FIELD_ORDER_CAP names no field, so the grid check refuses it
    # by its size before any factoring, beside a q = 3 that has rows; it once
    # got skip rows, though it is no prime power
    q = 3 * (gf.MODULUS_GUARD + 2)
    real = numtheory.prime_power

    def no_factoring(n):
        if n > gf.FIELD_ORDER_CAP:
            raise AssertionError(f"factored {n}")
        return real(n)

    monkeypatch.setattr(numtheory, "prime_power", no_factoring)
    monkeypatch.setattr(harness, "_reports", _no_work)  # refused before any row
    with pytest.raises(SizeCapError, match=f"^q={q} exceeds the field order cap "
                                            f"{gf.FIELD_ORDER_CAP}$"):
        sweep(SweepConfig(q_list=(3, q), n_range=(0, 3)))


def test_sweep_long_n_range_skips_fast():
    # n past the bit length of the cap is skipped without forming q**n
    start = time.perf_counter()
    res = sweep(SweepConfig(q_list=(3,), n_range=(2, 100000), with_witness=False))
    assert time.perf_counter() - start < 10
    assert len(res.reports) == 60 and len(res.skipped) == 99991
    assert {r.n for r in res.reports} == set(range(2, 10))
    assert res.summary["fail"] == 0


def test_sweep_shares_weight_counts_across_c(monkeypatch):
    # at (7, 4) every shift of the descent is refuted count-free but those of
    # (w, c) = (2, 0), where N/2 is left open: one count reader, built once
    built = []

    class Counted(symfun.MaskPoints):
        def __init__(self, q, n, w, c):
            built.append((q, n, w, c))
            super().__init__(q, n, w, c)

    monkeypatch.setattr(symfun, "MaskPoints", Counted)
    res = sweep(SweepConfig(q_list=(7,), n_range=(4, 4), with_witness=False))
    assert len(res.reports) == 2 * 7 and res.summary["fail"] == 0
    assert built == [(7, 4, 2, 0)]


def test_sweep_shares_certificates_and_factors_each_q_once(monkeypatch):
    # on the periods-2e5 grid: the descents meet 1292 shifts, which hold 632
    # distinct (q, n, w, c zero or not, t) digit tests over 227 try sets, one
    # per side of zero of each (q, n, w) with a period row, and each of the
    # 7 q is factored once
    met, tested, formed = [], [], []
    descent, refute, tries = (symfun.least_period_by_descent, symfun._refute,
                              symfun._certificate_tries)
    monkeypatch.setattr(symfun, "least_period_by_descent", lambda N, is_period: descent(
        N, lambda t: met.append(t) or is_period(t)))
    monkeypatch.setattr(symfun, "_refute", lambda *args: tested.append(args) or refute(*args))
    monkeypatch.setattr(symfun, "_certificate_tries",
                        lambda *args: formed.append(args) or tries(*args))
    numtheory.prime_power.cache_clear()
    res = sweep(SweepConfig(q_list=(2, 3, 4, 5, 7, 8, 9), n_range=(2, 12),
                            size_cap=200000, with_witness=False))
    assert len(res.reports) == 451 and res.summary["fail"] == 0
    assert (len(met), len(tested), len(formed)) == (1292, 632, 227)
    assert len(set(formed)) == 227
    assert numtheory.prime_power.cache_info().misses == 7


def test_sweep_builds_count_tables_only_where_a_shift_survives(monkeypatch):
    # on the periods-2e5 grid a MaskPoints reader is built once for each row
    # with a shift that no certificate refutes, and for no other row:
    # (2, 2, 1, 1), every (q odd, n, n/2, 0), whose N/2 the digit test
    # leaves open (a period at n = 2 only), and (8, 4, 2, 0)
    built = []

    class Counted(symfun.MaskPoints):
        def __init__(self, q, n, w, c):
            built.append((q, n, w, c))
            super().__init__(q, n, w, c)

    monkeypatch.setattr(symfun, "MaskPoints", Counted)
    res = sweep(SweepConfig(q_list=(2, 3, 4, 5, 7, 8, 9), n_range=(2, 12),
                            size_cap=200000, with_witness=False))
    assert res.summary["fail"] == 0
    half = [(q, n, n // 2, 0) for q, top in [(3, 10), (5, 6), (7, 6), (9, 4)]
            for n in range(2, top + 1, 2)]
    assert sorted(built) == sorted([(2, 2, 1, 1), (8, 4, 2, 0)] + half)
    assert len(built) == 15


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
        mask = delta_mask(r.q, r.n, r.w, r.c)
        assert r.r == ascending_scan_period(mask.codes), (r.q, r.n, r.w, r.c)


# the per-row assembly is the oracle of the grouped sweep on the periods-2e5
# grid, the 849-row grid and the README grid with every w, symmetry and
# witnesses: (grid, its row count)
PER_ROW_GRIDS = {
    "periods-2e5": (SweepConfig(q_list=(2, 3, 4, 5, 7, 8, 9), n_range=(2, 12),
                                size_cap=200000, with_witness=False), 451),
    "849-rows": (SweepConfig(q_list=(2, 3, 4, 5, 7, 8, 9), n_range=(2, 30),
                             size_cap=2 ** 22, with_witness=False), 849),
    "readme-all-w": (SweepConfig(q_list=(2, 3, 4, 5, 7), n_range=(2, 6), w_policy="full",
                                 check_symmetry=True), 354),
}


@pytest.mark.parametrize("cfg, rows", PER_ROW_GRIDS.values(), ids=PER_ROW_GRIDS)
def test_grouped_sweep_matches_the_per_row_sweep(cfg, rows):
    grouped, per_row = sweep(cfg), per_row_sweep(cfg)
    assert grouped.reports == per_row.reports
    assert (grouped.skipped, grouped.summary) == (per_row.skipped, per_row.summary)
    assert len(grouped.reports) == rows and grouped.summary["fail"] == 0


def _plant_counts(monkeypatch, points):
    """Make symfun._weight_counts read A_1(x) = 2 at each x of points in Omega(w).

    The support stays as it is (p = 3 here), but level 1 is no longer
    constant on its digit-permutation orbit, so the counts key is refused.
    """
    real = symfun._weight_counts

    def planted(q, n, w):
        key, zero = real(q, n, w)
        p, key = numtheory.prime_power(q)[0], bytearray(key)
        for x in points:
            if key[x] // p == 1:  # level 1, where A_1 is 1
                key[x] = p + 2
        return bytes(key), zero

    monkeypatch.setattr(symfun, "_weight_counts", planted)


def _counted_dense_masks(monkeypatch):
    """The (q, n, w, c) of every dense mask built, wherever the package holds delta_mask."""
    built = []
    dense = symfun.delta_mask

    def counted(q, n, w, c):
        built.append((q, n, w, c))
        return dense(q, n, w, c)

    for mod in (symfun, harness, cli):
        if getattr(mod, "delta_mask", None) is dense:
            monkeypatch.setattr(mod, "delta_mask", counted)
    return built


def test_sweep_builds_no_dense_mask(monkeypatch):
    assert not {"delta_mask", "is_q_symmetric", "prime_factors"} & set(vars(harness))
    built = _counted_dense_masks(monkeypatch)
    cfg = SweepConfig(q_list=(3,), n_range=(4, 4), w_policy="full", with_witness=False)
    plain = sweep(cfg)
    checked = sweep(cfg._replace(check_symmetry=True))
    assert [r._replace(symmetric=None) for r in checked.reports] == list(plain.reports)
    # counts refused at w' = 1 and 2 settle their rows too, at the delegated w
    # above n/2 as well
    _plant_counts(monkeypatch, {1, 1 + 3})
    planted = sweep(cfg._replace(check_symmetry=True))
    assert [r._replace(symmetric=None) for r in planted.reports] == list(plain.reports)
    assert built == []


def test_planted_counts_split_the_symmetry_verdict_at_c_0(monkeypatch):
    # at (3, 3, 1) level 1 reads 2 at x = 3 and 1 at x = 1 and 9, so the full
    # key is refused; rows with c = 0 read level q - 1 alone and stay
    # symmetric, the rows with c != 0 do not, as their dense masks say
    _plant_counts(monkeypatch, {3})
    assert symfun._counts_symmetric(3, 3, 1) == (False, True)
    built = _counted_dense_masks(monkeypatch)
    res = sweep(SweepConfig(q_list=(3,), n_range=(3, 3), check_symmetry=True,
                            with_witness=False))
    assert built == []
    assert [(r.c, r.symmetric) for r in res.reports] == [(0, True), (1, False), (2, False)]
    for r in res.reports:
        assert r.symmetric == is_q_symmetric(symfun.delta_mask(3, 3, 1, r.c), 3, 3)


SYMMETRY_GRIDS = [
    # the symmetry-readme benchmark grid, in its two calls
    [SweepConfig(q_list=(2, 3, 4, 7), n_range=(2, 6)), SweepConfig(q_list=(5,), n_range=(2, 5))],
    # the README grid under --all-w, (5, 6) included
    [SweepConfig(q_list=(2, 3, 4, 5, 7), n_range=(2, 6), w_policy="full")],
    [SweepConfig(q_list=(8, 9), n_range=(2, 4), w_policy="full")],
]


@pytest.mark.parametrize("grid", SYMMETRY_GRIDS, ids=["symmetry-readme", "readme-all-w", "q-8-9-all-w"])
def test_sweep_symmetry_matches_the_dense_route(monkeypatch, grid):
    # the old route, one dense mask per row, is the oracle of every verdict;
    # the real counts settle every (q, n, w') with no dense mask in the sweep
    built = _counted_dense_masks(monkeypatch)
    rows = [r for cfg in grid for r in sweep(cfg._replace(
        with_witness=False, check_symmetry=True)).reports if r.r is not None]
    assert built == [] and rows
    for r in rows:
        v = min(r.w, r.n - r.w)
        assert r.symmetric == is_q_symmetric(symfun.delta_mask(r.q, r.n, v, r.c), r.q, r.n), r
    for q, n, v in {(r.q, r.n, min(r.w, r.n - r.w)) for r in rows}:
        assert symfun._counts_symmetric(q, n, v) == (True, True), (q, n, v)


def test_sweep_forms_each_counts_verdict_once_per_weight_class(monkeypatch):
    # under --all-w the rows of w and n - w share one key, and the counts
    # behind it are built once
    keys, counts = [], []
    key, weight_counts = harness._counts_symmetric, symfun._weight_counts
    monkeypatch.setattr(harness, "_counts_symmetric",
                        lambda *args: keys.append(args) or key(*args))
    monkeypatch.setattr(symfun, "_weight_counts",
                        lambda *args: counts.append(args) or weight_counts(*args))
    res = sweep(SweepConfig(q_list=(3, 4, 5), n_range=(2, 5), w_policy="full",
                            with_witness=False, check_symmetry=True))
    expected = sorted({(r.q, r.n, min(r.w, r.n - r.w)) for r in res.reports if r.r is not None})
    assert sorted(keys) == sorted(counts) == expected
    assert len(res.reports) > 2 * len(expected) and res.summary["fail"] == 0


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
    certify = harness._root_certifies

    def counted(h, emb, a):
        calls.append((h.ctx.order, h.codes))
        return certify(h, emb, a)

    monkeypatch.setattr(harness, "_root_certifies", counted)
    res = sweep(SweepConfig(q_list=README_QS, n_range=(2, 6)))
    witnesses = {(r.q, r.witness) for r in res.reports if r.witness is not None}
    # a polynomial over F_q is told apart by q: the same codes over F_3 and
    # F_4 are two witnesses, each certified in its own field
    assert len(calls) == len(set(calls)) == 130
    assert set(calls) == witnesses


def test_sweep_raises_when_the_oracle_rejects_a_witness(monkeypatch):
    # two planted failures, each witness in turn: the root check rejects it,
    # or its lowering returns one wrong coefficient below the leading one
    # (h stays monic of degree n, so only h(alpha) = 0 can catch it)
    cfg = SweepConfig(q_list=(2, 3), n_range=(2, 4), w_policy="full")
    witnesses = {(r.q, r.witness) for r in sweep(cfg).reports if r.witness is not None}
    assert len(witnesses) > 10
    certify, lower = harness._root_certifies, gf.Embedding.lower_poly
    for rejected in sorted(witnesses):
        def mutant(h, emb, a, rejected=rejected):
            return (h.ctx.order, h.codes) != rejected and certify(h, emb, a)

        with monkeypatch.context() as m:
            m.setattr(harness, "_root_certifies", mutant)
            with pytest.raises(AssertionError, match="independent verification"):
                sweep(cfg)
        q, codes = rejected
        for i in range(len(codes) - 1):
            def planted(emb, poly, rejected=rejected, i=i):
                low = lower(emb, poly)
                if (low.ctx.order, low.codes) != rejected:
                    return low
                bad = list(low.codes)
                bad[i] = (bad[i] + 1) % q
                return gf.PolyFq(low.ctx, bad)

            with monkeypatch.context() as m:
                m.setattr(gf.Embedding, "lower_poly", planted)
                with pytest.raises(AssertionError, match="independent verification"):
                    sweep(cfg)


def _tower(q, n):
    small = gf.value_field(q)
    big = gf.make_field(small.p, small.m * n)
    return big, gf.subfield_embedding(small, big)


def _roots(q, n):
    """(alpha, lowered char_poly(alpha)) for every nonzero alpha of F_{q^n}."""
    big, emb = _tower(q, n)
    for code in big.exp[:-1]:
        xi = gf.FieldElement(big, code)
        yield xi, emb.lower_poly(gf.char_poly(xi, q, n))


@pytest.mark.parametrize("q, n", [(2, 2), (2, 4), (2, 6), (3, 3), (3, 4), (4, 4), (5, 2)])
def test_root_check_rejects_a_root_of_lower_degree(q, n):
    # char_poly of a root of degree d < n is its minimal polynomial to the
    # power n/d: monic of degree n, zero at the root, and reducible
    emb = _tower(q, n)[1]
    low = [(xi, h) for xi, h in _roots(q, n) if gf.element_degree(xi, q, n) < n]
    assert len(low) >= q - 1
    for xi, h in low:
        assert h.degree == n and h.is_monic and not oracle_irreducible(h)
        assert not harness._root_certifies(h, emb, xi.code)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (5, 3), (9, 2)])
def test_root_check_rejects_a_root_in_the_base_field(q, n):
    # (x - a)**n for every a of F_q, zero included: monic, degree n, zero at a
    emb = _tower(q, n)[1]
    x = gf.PolyFq.x(emb.small)
    for a in range(q):
        factor = x - gf.PolyFq(emb.small, [a])
        h = factor
        for _ in range(n - 1):
            h = h * factor
        assert not harness._root_certifies(h, emb, emb.lift_codes([a])[0])


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3), (5, 2), (9, 2)])
def test_root_check_rejects_a_wrong_degree_or_a_non_monic_h(q, n):
    emb = _tower(q, n)[1]
    xi, h = next((xi, h) for xi, h in _roots(q, n) if gf.element_degree(xi, q, n) == n)
    assert harness._root_certifies(h, emb, xi.code)
    x = gf.PolyFq.x(emb.small)
    assert not harness._root_certifies(h * x, emb, xi.code)  # degree n + 1, a root
    lead = gf.PolyFq(emb.small, [0] * n + [1])
    assert not harness._root_certifies(h - lead, emb, xi.code)  # degree below n
    for s in range(2, q):  # s * h keeps the root and loses monicity
        assert not harness._root_certifies(h.scale(s), emb, xi.code)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_root_check_accepts_every_degree_one_witness(q):
    # at n = 1 every root has degree 1 = n, so x + c is its own certificate
    for c in range(1, q):
        assert find_witness(q, 1, 1, c).codes == (c, 1)


def test_oracle_confirms_every_witness_of_the_451_row_grid():
    # Rabin's test, the route the root check replaced, as the differential
    # oracle on every distinct witness of the 451-row grid
    res = sweep(SweepConfig(q_list=(2, 3, 4, 5, 7, 8, 9), n_range=(2, 12),
                            size_cap=200000))
    assert res.summary["total"] == 451 and res.summary["fail"] == 0
    witnesses = {(r.q, r.witness) for r in res.reports if r.witness is not None}
    assert len(witnesses) == 309
    for q, codes in witnesses:
        assert oracle_irreducible(gf.PolyFq(gf.value_field(q), codes)), (q, codes)


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


# fixed ids, the names pytest once took from each case, so a new case
# with the same message renames no old one
HARNESS_REFUSALS = [
    pytest.param(lambda: verify_period_claims(3, 1, 1, 0), ValueError, "n must be at least 2",
                 id="<lambda>-ValueError-n must be at least 2"),
    pytest.param(lambda: find_witness(3, 2, 1, 5), ValueError, "c=5 is not an F_3 code",
                 id="<lambda>-ValueError-c=5 is not an F_3 code"),
    # once a silent half-w sweep
    pytest.param(lambda: sweep(SweepConfig(q_list=(3,), n_range=(2, 3), w_policy="bogus")),
                 ValueError, "w_policy must be 'half' or 'full', not 'bogus'",
                 id="<lambda>-ValueError-w_policy must be 'half' or 'full', not 'bogus'"),
    pytest.param(lambda: sweep(SweepConfig(q_list=(3,), n_range=(2, 3), w_policy="Full",
                                           pinned_w=1)),
                 ValueError, "not 'Full'",
                 id="<lambda>-ValueError-not 'Full'"),
]


@pytest.mark.parametrize("call, error, text", HARNESS_REFUSALS)
def test_harness_refusals(call, error, text):
    with pytest.raises(error, match=text):
        call()
