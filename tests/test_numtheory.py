import time
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hmdft.numtheory import digits, divisors, factorize, is_prime, prime_factors, prime_power, \
    top_binomials

from helpers import divisors_loop, is_prime_loop, prime_factors_loop, prime_power_loop

# every N = q**n - 1 up to MODULUS_GUARD = 2**22, for q <= 9
GROUP_ORDERS = sorted({q ** n - 1 for q in range(2, 10) for n in range(1, 23)
                       if q ** n - 1 <= 1 << 22} - {0})


def _prime_power_or_message(fn, n):
    try:
        return fn(n)
    except ValueError as exc:
        return str(exc)


def _assert_agree(n):
    assert is_prime(n) == is_prime_loop(n), n
    assert prime_factors(n) == prime_factors_loop(n), n
    assert divisors(n) == divisors_loop(n), n
    assert _prime_power_or_message(prime_power, n) == \
        _prime_power_or_message(prime_power_loop, n), n


def test_helpers_agree_with_trial_division_loops():
    for n in range(1, 20001):
        _assert_agree(n)


def test_helpers_agree_with_trial_division_loops_on_group_orders():
    assert len(GROUP_ORDERS) > 50
    for N in GROUP_ORDERS:
        _assert_agree(N)


@pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 65535, 2 ** 20, 3 ** 13 - 1])
def test_factorize_yields_ascending_prime_powers(n):
    pairs = list(factorize(n))
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
    assert all(is_prime_loop(p) and e >= 1 for p, e in pairs)
    product = 1
    for p, e in pairs:
        product *= p ** e
    assert product == n


def test_primality_and_prime_power_stop_at_the_first_pair():
    # trial division of the cofactor 2**61 - 1 would not finish
    big = 2 ** 61 - 1
    start = time.perf_counter()
    assert not is_prime(3 * big)
    with pytest.raises(ValueError, match=f"^{2 * big} is not a prime power$"):
        prime_power(2 * big)
    assert prime_power(3 ** 40) == (3, 40)
    assert time.perf_counter() - start < 1


@given(st.integers(0, 10 ** 40), st.integers(2, 1000), st.none() | st.integers(0, 50))
def test_digits_codec(k, base, width):
    ds = digits(k, base, width)
    assert all(0 <= d < base for d in ds)
    value = sum(d * base ** i for i, d in enumerate(ds))
    if width is None:  # up to the last nonzero digit, so every digit of k
        assert value == k and (not ds or ds[-1])
    else:  # exactly width digits, the low ones
        assert len(ds) == width and value == k % base ** width


def test_digits_examples():
    assert digits(0, 3) == [] and digits(0, 3, 4) == [0, 0, 0, 0]
    assert digits(17, 3) == [2, 2, 1] and digits(17, 3, 2) == [2, 2]
    assert digits(2 ** 20 - 1, 2) == [1] * 20
    for k, base in [(-1, 2), (5, 1), (5, 0), (0, -3)]:
        with pytest.raises(ValueError):
            digits(k, base)


def test_top_binomials_match_exact_binomials():
    # Lucas' theorem against the exact big-integer binomial, at every k < q
    for q in range(2, 1025):
        try:
            p, _ = prime_power(q)
        except ValueError as exc:
            assert str(exc) == f"{q} is not a prime power"
            continue
        assert top_binomials(q, p) == [comb(q - 1, k) % p for k in range(q)], q
