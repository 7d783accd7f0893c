import math

import pytest

from hmdft import cyclotomic_value, threshold
from hmdft.numtheory import divisors

from helpers import cyclotomic_poly_recursive, eval_int_poly

QS = (2, 3, 4, 5, 7, 8, 9)


def test_cyclotomic_examples():
    for q in QS:
        assert cyclotomic_value(1, q) == q - 1
    assert cyclotomic_value(4, 2) == 5
    assert cyclotomic_value(6, 2) == 3
    assert cyclotomic_value(2, 3) == 4
    assert cyclotomic_value(6, 3) == 7


# fixed ids, the names pytest took from each case before the q refusals
# named their value
@pytest.mark.parametrize("n, q, text", [
    (0, 2, "n must be at least 1"),
    (-3, 5, "n must be at least 1"),
    pytest.param(3, 1, "q must be at least 2, not q=1", id="3-1-q must be at least 2"),
    pytest.param(2, 0, "q must be at least 2, not q=0", id="2-0-q must be at least 2"),
])
def test_cyclotomic_value_refusals(n, q, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        cyclotomic_value(n, q)


def test_threshold_examples():
    for q in QS:
        assert threshold(2, q) == q - 1
    assert threshold(4, 2) == 3
    assert threshold(6, 2) == math.lcm(1, 3, 7) == 21
    with pytest.raises(ValueError):
        threshold(1, 2)


def test_cyclotomic_against_recursive_oracle():
    for n in range(1, 13):
        coeffs = cyclotomic_poly_recursive(n)
        for q in QS:
            assert cyclotomic_value(n, q) == eval_int_poly(coeffs, q)


def test_product_over_divisors():
    for q in QS:
        for n in range(2, 13):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_value(d, q)
            assert prod == q ** n - 1


def test_threshold_product_and_inequality():
    for q in QS:
        for n in range(2, 13):
            phi = cyclotomic_value(n, q)
            assert phi * threshold(n, q) == q ** n - 1
            assert phi > q - 1


def test_gcd_lcm_identities():
    for q in QS:
        for n in range(2, 13):
            proper = [d for d in divisors(n) if d < n]
            total = q ** n - 1
            assert cyclotomic_value(n, q) == math.gcd(*(total // (q ** d - 1) for d in proper))
            assert threshold(n, q) == math.lcm(*(q ** d - 1 for d in proper))


def test_threshold_memo_matches_the_uncached_function():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        for n in range(2, 300):
            assert threshold(n, q) == threshold.__wrapped__(n, q), (n, q)


def test_threshold_repeated_call_is_a_cache_hit():
    threshold(12, 3)
    hits = threshold.cache_info().hits
    assert threshold(12, 3) == 531440 // cyclotomic_value(12, 3)
    assert threshold.cache_info().hits == hits + 1
