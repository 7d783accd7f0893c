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

A witness is the characteristic polynomial of some power of the canonical
generator of F_{q^n}; its coefficients are constant on Frobenius orbits, so
the search visits orbit leaders only, and one scan per (q, n) answers every
(w, c) row of a sweep.  Each distinct witness is verified once by Rabin's
test (`oracle_irreducible`) before any row reports it.

r comes from `symfun.mask_period`, which reads the mask at its support
points and builds no list of q**n - 1 values, and runs the one prime descent
of `cyclic.least_period_by_descent`.  A sweep builds the dense `delta_mask`
only to check q-symmetry.  The two mask routes share no mask code, so the
dense mask, scanned for its least period by the tests' own divisor scan,
serves the tests as the oracle for r.

The regime analysis covers w <= n/2.  A sweep in full-w mode delegates
n/2 < w < n to n - w (coefficient prescription is symmetric under taking
reciprocals) and handles w = n as the norm prescription, where a witness is
searched directly and c = 0 is rejected at input (norms of nonzero elements
are never zero).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cyclo import threshold
from .errors import ExcludedCaseError, SizeCapError, WeightRangeError
from .gf import (
    MODULUS_GUARD,
    FieldElement,
    PolyFq,
    char_poly,
    check_size,
    element_degree,  # unused here; perfbench/tracing.py counts its calls by this name
    make_field,
    oracle_irreducible,
    subfield_embedding,
)
from .numtheory import prime_power
from .symfun import delta_mask, is_q_symmetric, mask_period

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

        ``gf.check_size`` decides, with the field limit when the witness
        search builds F_{q^n}; a long n range costs no big powers.
        """
        try:
            check_size(q, n, self.size_cap, field=self.with_witness)
        except SizeCapError:
            return False
        return True

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


def verify_period_claims(q: int, n: int, w: int, c: int,
                         cap: int = DEFAULT_SIZE_CAP) -> PeriodReport:
    """Compute the least period of the (w, c) mask, check every claim.

    r comes from ``symfun.mask_period``, which reads the mask at points and
    builds no dense list.  Pre: 1 <= w <= n/2.  The excluded input (c = 0,
    n = 2, q even) yields a report labelled Excluded with no claims checked.
    The size check comes before q is factored, so a huge q fails fast.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if w < 1 or 2 * w > n:
        raise WeightRangeError(f"w={w} outside [1, {n // 2}]")
    if not 0 <= c < q:
        raise ValueError(f"c={c} is not an F_{q} code")
    N = check_size(q, n, cap)
    p, j = prime_power(q)
    thr = threshold(n, q)
    label = classify_case(q, n, w, c)
    if label == CASE_EXCLUDED:
        return PeriodReport(q=q, n=n, w=w, c=c, threshold=thr, case_label=label)
    ctx = make_field(p, j)
    r = mask_period(q, n, w, FieldElement(ctx, c), ctx)
    if label == CASE_MAX:
        case_claim = r == N
    elif label == CASE_HALF:
        case_claim = 2 * r >= N
    else:
        case_claim = r > q - 1
    return PeriodReport(q=q, n=n, w=w, c=c, threshold=thr, case_label=label,
                        r=r,
                        r_gt_threshold=r > thr,
                        r_not_dividing_threshold=thr % r != 0,
                        case_claim=case_claim)


def find_witness(q: int, n: int, w: int, c: int,
                 cap: int = DEFAULT_SIZE_CAP) -> PolyFq | None:
    """Search for a monic irreducible of degree n over F_q with [x**(n-w)] = c.

    The one-row call of the orbit-leader scan ``_witnesses``: the
    characteristic polynomial of the least power of the canonical generator
    with degree n and the prescribed coefficient, oracle-verified.  None
    only once every orbit leader is used up (exactly the genuine exceptions).
    """
    return _witnesses(q, n, [(w, c)], cap)[w, c]


def _witnesses(q: int, n: int, rows, cap: int) -> dict:
    """Witness or None for every (w, c) of ``rows``, from one scan of F_{q^n}.

    char_poly(zeta**k) is constant on the Frobenius orbit {k*q**s mod M}
    (M = q**n - 1), whose size is the degree of zeta**k over F_q.  So the
    scan forms it only for orbit leaders of size n, in ascending k, and
    matches it against every pending (n - w, lifted c) key at once, until
    no row is pending.  The least matching k always leads its orbit, so each
    row gets the polynomial of a scan of every power.  Each distinct
    witness is verified once.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for w, c in rows:
        if not 1 <= w <= n:
            raise WeightRangeError(f"w={w} outside [1, {n}]")
        if not 0 <= c < q:
            raise ValueError(f"c={c} is not an F_{q} code")
        if w == n and c == 0:
            raise ExcludedCaseError("the norm of a nonzero element is never 0")
    check_size(q, n, cap, field=True)
    p, j = prime_power(q)
    small = make_field(p, j)
    big = make_field(p, j * n)
    emb = subfield_embedding(small, big)
    found = dict.fromkeys(rows)
    pending: dict[tuple[int, int], list] = {}
    for w, c in found:
        key = (n - w, emb.lift(FieldElement(small, c)).code)
        pending.setdefault(key, []).append((w, c))
    targets = sorted({t for t, _ in pending})
    M = big.order - 1
    for k in range(M):
        if not pending:
            break
        # back at k after n steps only if k leads an orbit of size n; a
        # smaller member or a smaller orbit (a proper subfield) stops it sooner
        e, size = k * q % M, 1
        while e > k:
            e = e * q % M
            size += 1
        if size != n:
            continue
        cp = char_poly(FieldElement(big, big.exp[k]), q, n)
        hits = [(t, cp.codes[t]) for t in targets if (t, cp.codes[t]) in pending]
        if not hits:
            continue
        low = emb.lower_poly(cp)
        if not oracle_irreducible(low):  # cannot happen for degree-n orbits
            raise AssertionError("witness failed independent verification")
        for key in hits:
            for row in pending.pop(key):
                found[row] = low
    return found


def _with_witness(report: PeriodReport, wit: PolyFq | None) -> PeriodReport:
    """The report with the scan's witness (or its absence) checked and set."""
    q, n, w, c = report.q, report.n, report.w, report.c
    expected = not (n == 2 and w == 1 and c == 0 and q % 2 == 0)
    if wit is None:
        return replace(report, witness=None, witness_ok=not expected)
    coeff_ok = wit.degree == n and wit.is_monic and \
        (wit.codes[n - w] if n - w < len(wit.codes) else 0) == c
    return replace(report, witness=tuple(wit.codes), witness_ok=expected and coeff_ok)


def _sweep_tuple(q: int, n: int, w: int, c: int, cfg: SweepConfig) -> PeriodReport:
    """The row's period report, and its dense-mask symmetry check if asked."""
    if w == n:
        report = PeriodReport(q=q, n=n, w=w, c=c, threshold=threshold(n, q),
                              case_label=CASE_NORM)
    elif 2 * w > n:
        base = verify_period_claims(q, n, n - w, c, cfg.size_cap)
        report = replace(base, w=w, delegated_to_w=n - w)
    else:
        report = verify_period_claims(q, n, w, c, cfg.size_cap)
    if cfg.check_symmetry and report.r is not None:
        # the one route that still builds the dense mask
        ctx = make_field(*prime_power(q))
        mask = delta_mask(q, n, min(w, n - w), FieldElement(ctx, c), ctx)
        report = replace(report, symmetric=is_q_symmetric(mask, q, n))
    return report


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run every tuple of the grid in lexicographic (q, n, w, c) order.

    A (q, n) that does not fit the size cap or a hard limit
    (``SweepConfig.fits``) is recorded as skipped, not fatal.  Every q up to
    MODULUS_GUARD + 1 is checked to be a prime power before its first n, by
    trial division to 2**11 at most.  A larger q fits no n >= 1 under the
    hard limits, so it is skipped without a trial division.  For w = n only
    c != 0 is enumerated.  The result is deterministic for a fixed
    configuration.
    """
    reports = []
    skipped = []
    n_lo, n_hi = cfg.n_range
    for q in sorted(set(cfg.q_list)):
        if q <= MODULUS_GUARD + 1:  # raises for q < 2 too, before check_size forms 0**n
            prime_power(q)
        for n in range(n_lo, n_hi + 1):
            if not cfg.fits(q, n):
                skipped.append({"q": q, "n": n, "reason": "size_cap"})
                continue
            cs = [cfg.pinned_c] if cfg.pinned_c is not None else range(q)
            rows = []
            for w in cfg.weights(n):
                for c in cs:
                    if w == n and c == 0:
                        skipped.append({"q": q, "n": n, "w": w, "c": c,
                                        "reason": "norm_of_zero_excluded"})
                    else:
                        rows.append((w, c))
            row_reports = [_sweep_tuple(q, n, w, c, cfg) for w, c in rows]
            if cfg.with_witness and rows:
                wits = _witnesses(q, n, rows, cfg.size_cap)
                row_reports = [_with_witness(rep, wits[rep.w, rep.c]) for rep in row_reports]
            reports += row_reports
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
