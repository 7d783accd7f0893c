"""The refusal contract: a refusal is a plain ValueError named by its message.

The one subclass is ``gf.SizeCapError``, raised by ``gf.check_size`` alone,
which ``SweepConfig.fits`` catches to turn an over-cap (q, n) into a skipped
row.  Each row below is one refusal of each kind the package once gave a
class of its own, keyed by that class's name.
"""

import pytest

from hmdft import (
    PolyFq,
    SweepConfig,
    build_root_indicator,
    convolve,
    cyclotomic_value,
    delta_mask,
    dft,
    element_degree,
    kronecker,
    make_field,
    omega,
    oracle_irreducible,
    phi_rho,
    sweep,
)
from hmdft import cli, numtheory, symfun
from hmdft.gf import SizeCapError, check_modulus, check_size


def _handler(*argv):
    """Run one subcommand's handler, past the parser, so its refusal propagates."""
    fn, args = cli._parse(list(argv))
    return fn(args)


# former class name: (call, a fragment of its message)
REFUSALS = {
    "AlgebraError": (lambda: _handler("factor-test", "--q", "3", "--n", "2", "--poly", "1,3"),
                     "^coefficient code out of range for F_3$"),
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
                            "^irreducibility test needs degree >= 2$"),
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
