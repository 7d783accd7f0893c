"""Exact DFT machinery over finite fields, with a desk-scale verifier for the
existence of monic irreducible polynomials with one prescribed coefficient.
"""

from .cyclic import (
    CyclicFn,
    SupportSet,
    compose_perm,
    conv_power,
    convolve,
    dft,
    dft_period_by_support,
    idft,
    kronecker,
    least_period,
    least_period_of_sequence,
    pointwise_mul,
    reversal,
    shift,
)
from .cyclo import cyclotomic_value, threshold
from .gf import (
    Embedding,
    FieldCtx,
    FieldElement,
    PolyFq,
    char_poly,
    element_degree,
    make_field,
    poly_gcd,
    primitive_element,
    sigma_eval,
    subfield_embedding,
)
from .harness import (
    PeriodReport,
    SweepConfig,
    SweepResult,
    classify_case,
    find_witness,
    sweep,
    verify_period_claims,
)
from .spectral import (
    RootIndicator,
    SupportDegreeReport,
    Verdict,
    build_root_indicator,
    degree_n_factor_test,
    oracle_factor_degrees,
    oracle_irreducible,
    support_degree_test,
)
from .symfun import (
    delta,
    delta_mask,
    is_q_symmetric,
    mask_period,
    mask_periods,
    omega,
    phi_rho,
)

__version__ = "0.1.0"
