"""End-to-end verification of single-coefficient irreducible existence.

For parameters (q, n, w, c) the mask delta_mask(w, c) on Z_{q^n-1} falls into
one of three period regimes, labelled I, II, III in reports:

  I    r = q**n - 1 exactly (c != 0; or c = 0 and w != n/2; or n > 2, q even,
       (w, c) = (n/2, 0)),
  II   r >= (q**n - 1)/2 (c = 0, q odd, n > 2, w = n/2),
  III  r > q - 1 (c = 0, w = 1, q odd, n = 2),

and in every regime r exceeds the cyclotomic threshold (q**n - 1)/Phi_n(q),
which certifies a monic irreducible of degree n with [x**(n-w)] = c.  The
input (c, n, q) = (0, 2, even) is genuinely excluded.  `verify_period_claims`
computes r exactly and checks every claim; `find_witness` independently
searches the field for an explicit irreducible with the prescribed
coefficient; `sweep` drives whole parameter grids deterministically.

The regime analysis covers w <= n/2.  A sweep in full-w mode delegates
n/2 < w < n to n - w (coefficient prescription is symmetric under taking
reciprocals) and handles w = n as the norm prescription, where a witness is
searched directly and c = 0 is rejected at input (norms of nonzero elements
are never zero).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cyclic import least_period
from .cyclo import threshold
from .errors import ExcludedCaseError, SizeCapError, WeightRangeError
from .gf import (
    FIELD_ORDER_CAP,
    FieldElement,
    PolyFq,
    char_poly,
    element_degree,
    make_field,
    primitive_element,
    subfield_embedding,
)
from .numtheory import prime_power
from .spectral import oracle_irreducible
from .symfun import MODULUS_GUARD, delta_mask, is_q_symmetric

DEFAULT_SIZE_CAP = 20000

CASE_MAX = "I"
CASE_HALF = "II"
CASE_SMALL = "III"
CASE_EXCLUDED = "Excluded"
CASE_NORM = "Norm"


@dataclass(frozen=True)
class PeriodReport:
    """Record of one (q, n, w, c) verification.

    `c` is the integer code of the prescribed coefficient in F_q.  The three
    claim fields are None when no claim applies (excluded and norm rows).
    `witness` is the little-endian code vector of a verified monic irreducible
    with the prescribed coefficient, when one was searched for and found.
    """

    q: int
    n: int
    w: int
    c: int
    threshold: int
    case_label: str
    r: int | None = None
    r_gt_threshold: bool | None = None
    r_not_dividing_threshold: bool | None = None
    case_claim: bool | None = None
    delegated_to_w: int | None = None
    witness: tuple[int, ...] | None = None
    witness_ok: bool | None = None
    symmetric: bool | None = None

    @property
    def passed(self) -> bool:
        checks = [x for x in (self.r_gt_threshold, self.r_not_dividing_threshold,
                              self.case_claim, self.witness_ok, self.symmetric)
                  if x is not None]
        return all(checks)

    def to_dict(self) -> dict:
        return {
            "q": self.q, "n": self.n, "w": self.w, "c": self.c,
            "r": self.r, "threshold": self.threshold,
            "case_label": self.case_label,
            "claims": {
                "r_gt_threshold": self.r_gt_threshold,
                "r_not_dividing_threshold": self.r_not_dividing_threshold,
                "case_claim": self.case_claim,
            },
            "delegated_to_w": self.delegated_to_w,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_ok": self.witness_ok,
            "symmetric": self.symmetric,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for a sweep; the cap bounds q**n - 1 per tuple."""

    q_list: tuple[int, ...]
    n_range: tuple[int, int]
    w_policy: str = "half"          # "half": w in [1, n//2]; "full": w in [1, n]
    size_cap: int = DEFAULT_SIZE_CAP
    with_witness: bool = True
    check_symmetry: bool = False
    pinned_w: int | None = None
    pinned_c: int | None = None

    def fits(self, q: int, n: int) -> bool:
        """Whether (q, n) is within the size cap and the hard limits its rows need.

        q**n - 1 must be at most both the cap and MODULUS_GUARD, and the
        witness search builds F_{q^n}, whose order must be at most
        FIELD_ORDER_CAP.  An n past the bit length of that limit fails
        before q**n is formed (q >= 2), so a long n range costs no big powers.
        """
        limit = min(self.size_cap, MODULUS_GUARD)
        if n > limit.bit_length() or q ** n - 1 > limit:
            return False
        return not self.with_witness or q ** n <= FIELD_ORDER_CAP

    def weights(self, n: int) -> list[int]:
        """The w values the grid covers at n; empty when none fits."""
        if self.pinned_w is not None:
            return [self.pinned_w] if 1 <= self.pinned_w <= n else []
        if self.w_policy == "full":
            return list(range(1, n + 1))
        return list(range(1, n // 2 + 1))


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[PeriodReport, ...]
    skipped: tuple[dict, ...]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "reports": [r.to_dict() for r in self.reports],
            "skipped": list(self.skipped),
            "summary": self.summary,
        }


def classify_case(q: int, n: int, w: int, c: int) -> str:
    """Regime label for 1 <= w <= n/2 (c given as an F_q code)."""
    if c == 0 and n == 2 and q % 2 == 0:
        return CASE_EXCLUDED
    if c != 0 or 2 * w != n:
        return CASE_MAX
    # now c = 0 and w = n/2
    if q % 2 == 0:
        return CASE_MAX
    return CASE_HALF if n > 2 else CASE_SMALL


def _mask_and_report(q: int, n: int, w: int, c: int,
                     cap: int = DEFAULT_SIZE_CAP):
    p, j = prime_power(q)
    if n < 2:
        raise ValueError("n must be at least 2")
    if w < 1 or 2 * w > n:
        raise WeightRangeError(f"w={w} outside [1, {n // 2}]")
    if not 0 <= c < q:
        raise ValueError(f"c={c} is not an F_{q} code")
    N = q ** n - 1
    if N > cap:
        raise SizeCapError(f"q**n - 1 = {N} exceeds cap {cap}")
    thr = threshold(n, q)
    label = classify_case(q, n, w, c)
    if label == CASE_EXCLUDED:
        return PeriodReport(q=q, n=n, w=w, c=c, threshold=thr,
                            case_label=label), None
    ctx = make_field(p, j)
    mask = delta_mask(q, n, w, FieldElement(ctx, c), ctx)
    r = least_period(mask)
    if label == CASE_MAX:
        case_claim = r == N
    elif label == CASE_HALF:
        case_claim = 2 * r >= N
    else:
        case_claim = r > q - 1
    report = PeriodReport(q=q, n=n, w=w, c=c, threshold=thr, case_label=label,
                          r=r,
                          r_gt_threshold=r > thr,
                          r_not_dividing_threshold=thr % r != 0,
                          case_claim=case_claim)
    return report, mask


def verify_period_claims(q: int, n: int, w: int, c: int,
                         cap: int = DEFAULT_SIZE_CAP) -> PeriodReport:
    """Build the (w, c) mask, compute its least period, check every claim.

    Pre: 1 <= w <= n/2.  The excluded input (c = 0, n = 2, q even) yields a
    report labelled Excluded with no claims checked.
    """
    report, _ = _mask_and_report(q, n, w, c, cap)
    return report


def find_witness(q: int, n: int, w: int, c: int,
                 cap: int = DEFAULT_SIZE_CAP) -> PolyFq | None:
    """Search for a monic irreducible of degree n over F_q with [x**(n-w)] = c.

    Scans powers of the canonical generator in ascending exponent order and
    returns the characteristic polynomial of the first degree-n element whose
    (n-w)-coefficient matches; the result is oracle-verified before return.
    Returns None only after exhausting the whole field (which happens exactly
    for the genuine exceptions).
    """
    p, j = prime_power(q)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= w <= n:
        raise WeightRangeError(f"w={w} outside [1, {n}]")
    if not 0 <= c < q:
        raise ValueError(f"c={c} is not an F_{q} code")
    if w == n and c == 0:
        raise ExcludedCaseError("the norm of a nonzero element is never 0")
    if q ** n - 1 > cap:
        raise SizeCapError(f"q**n - 1 = {q ** n - 1} exceeds cap {cap}")
    small = make_field(p, j)
    big = make_field(p, j * n)
    emb = subfield_embedding(small, big)
    c_code = emb.lift(FieldElement(small, c)).code
    target = n - w
    zeta = primitive_element(big)
    code = 1
    for _ in range(big.order - 1):
        xi = FieldElement(big, code)
        code = big.mul_codes(code, zeta.code)
        if element_degree(xi, q, n) != n:
            continue
        cp = char_poly(xi, q, n)
        coeff = cp.codes[target] if target < len(cp.codes) else 0
        if coeff == c_code:
            low = emb.lower_poly(cp)
            if not oracle_irreducible(low):  # cannot happen for degree-n orbits
                raise AssertionError("witness failed independent verification")
            return low
    return None


def _witness_fields(q: int, n: int, w: int, c: int, cap: int):
    wit = find_witness(q, n, w, c, cap)
    expected = not (n == 2 and w == 1 and c == 0 and q % 2 == 0)
    if wit is None:
        ok = not expected
        return None, ok
    coeff_ok = wit.degree == n and wit.is_monic and \
        (wit.codes[n - w] if n - w < len(wit.codes) else 0) == c
    return tuple(wit.codes), expected and coeff_ok


def _sweep_tuple(q: int, n: int, w: int, c: int, cfg: SweepConfig) -> PeriodReport:
    if w == n:
        report = PeriodReport(q=q, n=n, w=w, c=c, threshold=threshold(n, q),
                              case_label=CASE_NORM)
        mask = None
    elif 2 * w > n:
        base, mask = _mask_and_report(q, n, n - w, c, cfg.size_cap)
        report = replace(base, w=w, delegated_to_w=n - w)
    else:
        report, mask = _mask_and_report(q, n, w, c, cfg.size_cap)
    if cfg.with_witness:
        witness, ok = _witness_fields(q, n, w, c, cfg.size_cap)
        report = replace(report, witness=witness, witness_ok=ok)
    if cfg.check_symmetry and mask is not None:
        report = replace(report, symmetric=is_q_symmetric(mask, q, n))
    return report


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run every tuple of the grid in lexicographic (q, n, w, c) order.

    A (q, n) that does not fit the size cap or a hard limit
    (``SweepConfig.fits``) is recorded as skipped, not fatal.  For w = n
    only c != 0 is enumerated.  The result is deterministic for a fixed
    configuration.
    """
    reports = []
    skipped = []
    n_lo, n_hi = cfg.n_range
    for q in sorted(set(cfg.q_list)):
        prime_power(q)  # validates q
        for n in range(n_lo, n_hi + 1):
            if not cfg.fits(q, n):
                skipped.append({"q": q, "n": n, "reason": "size_cap"})
                continue
            for w in cfg.weights(n):
                if cfg.pinned_c is not None:
                    cs = [cfg.pinned_c]
                else:
                    cs = list(range(q))
                for c in cs:
                    if w == n and c == 0:
                        skipped.append({"q": q, "n": n, "w": w, "c": c,
                                        "reason": "norm_of_zero_excluded"})
                        continue
                    reports.append(_sweep_tuple(q, n, w, c, cfg))
    n_excluded = sum(1 for r in reports if r.case_label == CASE_EXCLUDED)
    n_fail = sum(1 for r in reports if not r.passed)
    summary = {
        "total": len(reports),
        "pass": len(reports) - n_fail,
        "fail": n_fail,
        "excluded": n_excluded,
        "skipped": len(skipped),
    }
    return SweepResult(reports=tuple(reports), skipped=tuple(skipped),
                       summary=summary)
