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


# fixed ids, the names pytest took from each case before the refusals
# named their value
@pytest.mark.parametrize("n, q, text", [
    pytest.param(0, 2, "n must be at least 1, not n=0", id="0-2-n must be at least 1"),
    pytest.param(-3, 5, "n must be at least 1, not n=-3", id="-3-5-n must be at least 1"),
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
    with pytest.raises(ValueError, match="^n must be at least 2, not n=1$"):
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

