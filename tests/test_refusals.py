"""The refusal contract: a refusal is a plain ValueError named by its message.

The one subclass is ``gf.SizeCapError``, raised by ``gf.check_size``, which
``SweepConfig.fits`` catches to turn an over-cap (q, n) into a skipped row,
and by ``gf.check_field_order`` for a q past the field order cap.  Each row
of ``REFUSALS`` is one refusal of each kind the package once gave a class of
its own, keyed by that class's name.  Each argument fact
(q >= 2, the n floor, the w range, a code in [0, order)) has one rule in
``gf`` and one text, and each caller table below reaches that rule through
every site that once had a copy of its own.  So does the rule that q names a
field (a prime power up to the field cap), one text per refused q.
"""

import pytest

from hmdft import (
    CyclicFn,
    PolyFq,
    SweepConfig,
    build_root_indicator,
    compose_perm,
    convolve,
    cyclotomic_value,
    degree_n_factor_test,
    delta_mask,
    dft,
    element_degree,
    find_witness,
    kronecker,
    make_field,
    mask_period,
    omega,
    oracle_irreducible,
    phi_rho,
    primitive_element,
    sigma_eval,
    subfield_embedding,
    sweep,
    threshold,
    verify_period_claims,
)
from hmdft import cli, numtheory, symfun
from hmdft.gf import (FIELD_ORDER_CAP, MODULUS_GUARD, SizeCapError, check_modulus, check_size,
                      value_field)


def _handler(*argv):
    """Run one subcommand's handler, past the parser, so its refusal propagates."""
    fn, args = cli._parse(list(argv))
    return fn(args)


# former class name: (call, a fragment of its message)
REFUSALS = {
    "AlgebraError": (lambda: _handler("factor-test", "--q", "3", "--n", "2", "--poly", "1,3"),
                     "^coefficient=3 is not an F_3 code$"),
    "NotPrimeError": (lambda: make_field(6), "^6 is not prime$"),
    "NotPrimePowerError": (lambda: numtheory.prime_power(12), "^12 is not a prime power$"),
    "SizeCapError-cap": (lambda: check_size(3, 9, cap=100),
                         r"^q\*\*n - 1 for \(q, n\) = \(3, 9\) exceeds the size cap 100$"),
    "SizeCapError-field": (lambda: make_field(2, 21), "exceeds the size cap 1048575$"),
    "BadTowerError": (lambda: element_degree(make_field(2, 4).element(2), 2, 3),
                      r"^field modulus 15 is not q\*\*n - 1 = 7$"),
    "WeightRangeError": (lambda: omega(2, 4, 5), r"^w=5 outside \[0, 4\]$"),
    "OrderMismatchError": (lambda: dft(kronecker(make_field(2, 4), 15),
                                       make_field(2, 4).element(1)),
                           "^supplied root does not have exact order 15$"),
    "NotDivisorError": (lambda: make_field(7).nth_root_of_unity(4), "^4 does not divide 6$"),
    "ModulusMismatchError": (lambda: convolve(kronecker(make_field(3), 4),
                                              kronecker(make_field(3), 5)),
                             "^moduli differ: 4 vs 5$"),
    "CtxMismatchError": (lambda: make_field(3).element(1) + make_field(5).element(1),
                         "^elements from different fields$"),
    "ExcludedCaseError": (lambda: delta_mask(2, 3, 3, 0),
                          r"^\(q, w\) = \(2, n\) has an empty weight set$"),
    "BadPermutationError": (lambda: phi_rho((0, 0, 1), 3, 2, 3),
                            r"^not a permutation of \[0, 2\]$"),
    "BadSubfieldError": (lambda: build_root_indicator(PolyFq(make_field(2), [1, 1]), 2, 4,
                                                      subfield_order=8),
                         "^F_8 is not a subfield of F_16$"),
    "DegreeMismatchError": (lambda: _handler("irred-test", "--q", "2", "--poly", "1,1"),
                            "^n must be at least 2, not n=1$"),
    "ZeroPolynomialError": (lambda: oracle_irreducible(PolyFq(make_field(2), [])),
                            "^the zero polynomial is not testable$"),
}


@pytest.mark.parametrize("former", REFUSALS)
def test_a_refusal_is_a_plain_value_error(former):
    call, text = REFUSALS[former]
    with pytest.raises(ValueError, match=text) as exc:
        call()
    assert type(exc.value) is (SizeCapError if former.startswith("SizeCapError") else ValueError)



# every q >= 2 rule of the package is gf.check_q's, with its one text
Q_FLOOR_CALLERS = {
    "check_size": lambda q: check_size(q, 2),
    "check_modulus": lambda q: check_modulus(8, q, 2, "function"),
    "cyclotomic_value": lambda q: cyclotomic_value(3, q),
    "shift_certificate": lambda q: symfun.shift_certificate(q, 4, 1, 1, 5),
    "phi_rho": lambda q: phi_rho((0, 1), 3, q, 2),
    "omega": lambda q: omega(q, 2, 1),
    "sweep": lambda q: sweep(SweepConfig(q_list=(3, q), n_range=(2, 3))),
}


@pytest.mark.parametrize("caller", Q_FLOOR_CALLERS)
@pytest.mark.parametrize("q", [1, 0, -3])
def test_every_q_floor_refusal_reads_one_text(caller, q):
    with pytest.raises(ValueError, match=f"^q must be at least 2, not q={q}$") as exc:
        Q_FLOOR_CALLERS[caller](q)
    assert type(exc.value) is ValueError


# every "q names a field" rule is gf.check_field_order's: a q past the field
# cap is refused by its size before it is factored, then a q that is no prime
# power; q -> its one text at every caller
FIELD_ORDER_REFUSALS = {
    6: "^6 is not a prime power$",
    (1 << 20) + 7: "^q=1048583 exceeds the field order cap 1048576$",
    3 * (MODULUS_GUARD + 2): "^q=12582918 exceeds the field order cap 1048576$",
}
FIELD_ORDER_CALLERS = {
    "value_field": value_field,
    "sweep": lambda q: sweep(SweepConfig(q_list=(3, q), n_range=(2, 3), with_witness=False)),
    "shift_certificate": lambda q: symfun.shift_certificate(q, 3, 1, 1, 5),
}


@pytest.mark.parametrize("caller", FIELD_ORDER_CALLERS)
@pytest.mark.parametrize("q", FIELD_ORDER_REFUSALS)
def test_every_field_order_refusal_reads_one_text(monkeypatch, caller, q):
    real = numtheory.prime_power

    def unless_past_the_cap(n):
        assert n <= FIELD_ORDER_CAP, f"factored {n}"
        return real(n)

    monkeypatch.setattr(numtheory, "prime_power", unless_past_the_cap)
    with pytest.raises(ValueError, match=FIELD_ORDER_REFUSALS[q]) as exc:
        FIELD_ORDER_CALLERS[caller](q)
    assert type(exc.value) is (SizeCapError if q > FIELD_ORDER_CAP else ValueError)


# every n floor of the package is gf.check_n's, with its one text:
# caller -> (its least n, the call at n)
N_FLOOR_CALLERS = {
    "check_size": (1, lambda n: check_size(3, n)),
    "make_field": (1, lambda n: make_field(3, n)),
    "cyclotomic_value": (1, lambda n: cyclotomic_value(n, 3)),
    "phi_rho": (1, lambda n: phi_rho((), 3, 3, n)),
    "omega": (1, lambda n: omega(3, n, 1)),
    "find_witness": (1, lambda n: find_witness(3, n, 1, 1)),
    "shift_certificate": (1, lambda n: symfun.shift_certificate(3, n, 0, 1, 1)),
    "threshold": (2, lambda n: threshold(n, 3)),
    "verify_period_claims": (2, lambda n: verify_period_claims(3, n, 1, 1)),
    "root_gcd": (2, lambda n: degree_n_factor_test(PolyFq(make_field(3), [1, 1]), 3, n)),
    "cli-period": (2, lambda n: _handler("period", "--q", "3", "--n", str(n), "--w", "1")),
    "cli-irred-test": (2, lambda n: _handler("irred-test", "--q", "3",
                                             "--poly", ",".join("1" * (n + 1)))),
}


@pytest.mark.parametrize("caller", N_FLOOR_CALLERS)
@pytest.mark.parametrize("below", [1, 2])
def test_every_n_floor_refusal_reads_one_text(caller, below):
    least, call = N_FLOOR_CALLERS[caller]
    n = least - below
    with pytest.raises(ValueError, match=f"^n must be at least {least}, not n={n}$") as exc:
        call(n)
    assert type(exc.value) is ValueError


# every w range of the package is gf.check_w's, with its one text:
# caller -> ((least, most) at n = 4, the call at w)
W_RANGE_CALLERS = {
    "omega": ((0, 4), lambda w: omega(3, 4, w)),
    "sigma_eval": ((0, 4), lambda w: sigma_eval(w, make_field(3, 4).element(1), 3, 4)),
    "delta_mask": ((1, 4), lambda w: delta_mask(3, 4, w, 1)),
    "mask_period": ((1, 4), lambda w: mask_period(3, 4, w, 1)),
    "shift_certificate": ((1, 4), lambda w: symfun.shift_certificate(3, 4, w, 1, 5)),
    "find_witness": ((1, 4), lambda w: find_witness(3, 4, w, 1)),
    "verify_period_claims": ((1, 2), lambda w: verify_period_claims(3, 4, w, 1)),
}


@pytest.mark.parametrize("caller", W_RANGE_CALLERS)
@pytest.mark.parametrize("side", ["below", "above"])
def test_every_w_range_refusal_reads_one_text(caller, side):
    (least, most), call = W_RANGE_CALLERS[caller]
    w = least - 1 if side == "below" else most + 1
    with pytest.raises(ValueError, match=rf"^w={w} outside \[{least}, {most}\]$") as exc:
        call(w)
    assert type(exc.value) is ValueError


def _f5_fn(*codes):
    return CyclicFn(make_field(5), list(codes) + [0] * (4 - len(codes)))


# every code range of the package is gf.check_codes's, with its one text:
# caller -> (the name it gives the code, the call with the bad code); F_5 throughout
CODE_RANGE_CALLERS = {
    "element": ("code", lambda bad: make_field(5).element(bad)),
    "PolyFq": ("coefficient", lambda bad: PolyFq(make_field(5), [1, bad])),
    "CyclicFn-ops": ("value", lambda bad: -_f5_fn(1, bad)),
    "CyclicFn-pair": ("value", lambda bad: convolve(_f5_fn(1), _f5_fn(1, bad))),
    "transform": ("value", lambda bad: dft(_f5_fn(1, bad), primitive_element(make_field(5)))),
    "compose_perm": ("value", lambda bad: compose_perm(_f5_fn(1), {0: bad, 1: 1})),
    "lift_codes": ("code", lambda bad: subfield_embedding(make_field(5), make_field(5, 2))
                   .lift_codes([1, bad])),
    "mask_period": ("c", lambda bad: mask_period(5, 2, 1, bad)),
    "verify_period_claims": ("c", lambda bad: verify_period_claims(5, 2, 1, bad)),
    "find_witness": ("c", lambda bad: find_witness(5, 2, 1, bad)),
    "shift_certificate": ("c", lambda bad: symfun.shift_certificate(5, 2, 1, bad, 1)),
    "sweep": ("pinned c", lambda bad: sweep(SweepConfig(q_list=(5,), n_range=(2, 2),
                                                        pinned_c=bad))),
}


@pytest.mark.parametrize("caller", CODE_RANGE_CALLERS)
@pytest.mark.parametrize("bad", [-1, 5, 7])
def test_every_code_range_refusal_reads_one_text(caller, bad):
    what, call = CODE_RANGE_CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{what}={bad} is not an F_5 code$") as exc:
        call(bad)
    assert type(exc.value) is ValueError
