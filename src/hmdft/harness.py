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
coefficient; `sweep` drives whole parameter grids deterministically.  It
holds the one grid check, for `hm-verify` and Python callers alike: a grid
with no row to run, or a q that is not a prime power, is refused before any
row is computed.

A witness is the characteristic polynomial of some power of the canonical
generator of F_{q^n}; its coefficients are constant on Frobenius orbits, so
the search visits orbit leaders only, and one scan per (q, n) answers every
(w, c) row of a sweep.  Each distinct witness h is certified once, before any
row reports it, at its root alpha: alpha of degree n and h(alpha) = 0.

r comes from `symfun.mask_period`, which runs the one prime descent of
`cyclic.least_period_by_descent`, refutes most shifts from the digits of one
integer and reads the mask at its support points only for the rest.  The
q-symmetry check reads the dense route's counts (symfun's A_k): its verdict
pair, for every c != 0 and for c = 0, is formed once per
(q, n, min(w, n - w)) by `symfun._counts_symmetric` and kept for every row
of the (q, n), so no sweep builds a dense `delta_mask`.  The two mask
routes count A_k independently; they share the argument checks and F_q
(`symfun._check_mask_args`) and every level's coefficient
(`symfun._level_coefs`, over `top_binomials`).

The regime analysis covers w <= n/2.  A sweep in full-w mode delegates
n/2 < w < n to n - w (coefficient prescription is symmetric under taking
reciprocals) and handles w = n as the norm prescription, where a witness is
searched directly and c = 0 is rejected at input (norms of nonzero elements
are never zero).
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import threshold
from .gf import (
    MODULUS_GUARD,
    Embedding,
    FieldElement,
    PolyFq,
    SizeCapError,
    char_poly,
    check_size,
    element_degree,
    make_field,
    subfield_embedding,
    value_field,
)
from .numtheory import prime_power
from .symfun import _counts_symmetric, mask_period

DEFAULT_SIZE_CAP = 20000

CASE_MAX = "I"
CASE_HALF = "II"
CASE_SMALL = "III"
CASE_EXCLUDED = "Excluded"
CASE_NORM = "Norm"


class PeriodReport(namedtuple("PeriodReport", [
        "q", "n", "w", "c", "threshold", "case_label", "r", "r_gt_threshold",
        "r_not_dividing_threshold", "case_claim", "delegated_to_w", "witness",
        "witness_ok", "symmetric"], defaults=[None] * 8)):
    """Record of one (q, n, w, c) verification.

    `c` is the integer code of the prescribed coefficient in F_q.  The three
    claim bools are None when no claim applies (excluded and norm rows).
    `witness` is the little-endian code tuple of a verified monic irreducible
    with the prescribed coefficient, when one was searched for and found.
    """

    __slots__ = ()

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


class SweepConfig(namedtuple("SweepConfig", [
        "q_list", "n_range", "w_policy", "size_cap", "with_witness",
        "check_symmetry", "pinned_w", "pinned_c"],
        defaults=["half", DEFAULT_SIZE_CAP, True, False, None, None])):
    """Grid description for a sweep; the cap bounds q**n - 1 per tuple.

    w_policy "half" covers w in [1, n//2] and "full" w in [1, n].
    """

    __slots__ = ()

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


class SweepResult(namedtuple("SweepResult", ["reports", "skipped", "summary"])):
    __slots__ = ()

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

    r comes from ``symfun.mask_period``, which refutes most shifts by the
    digit test, reads one-point counts for the rest and builds no dense
    list.  Pre: 1 <= w <= n/2.  The excluded input (c = 0, n = 2, q even)
    yields a report labelled Excluded with no claims checked.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if w < 1 or 2 * w > n:
        raise ValueError(f"w={w} outside [1, {n // 2}]")
    if not 0 <= c < q:
        raise ValueError(f"c={c} is not an F_{q} code")
    N = check_size(q, n, cap)
    value_field(q)  # an excluded row of a q = 6 is an error too
    thr = threshold(n, q)
    label = classify_case(q, n, w, c)
    if label == CASE_EXCLUDED:
        return PeriodReport(q=q, n=n, w=w, c=c, threshold=thr, case_label=label)
    r = mask_period(q, n, w, c)
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
    with degree n and the prescribed coefficient, certified at its root.  None
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
    witness is certified once, by ``_root_certifies`` at zeta**k.
    """
    for w, c in rows:
        if not 1 <= w <= n:
            raise ValueError(f"w={w} outside [1, {n}]")
        if not 0 <= c < q:
            raise ValueError(f"c={c} is not an F_{q} code")
        if w == n and c == 0:
            raise ValueError("the norm of a nonzero element is never 0")
    check_size(q, n, cap, field=True)
    small = value_field(q)
    big = make_field(small.p, small.m * n)
    emb = subfield_embedding(small, big)
    lifted = emb.lift_codes(range(q))
    found = dict.fromkeys(rows)
    pending: dict[tuple[int, int], list] = {}
    for w, c in found:
        pending.setdefault((n - w, lifted[c]), []).append((w, c))
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
        if not _root_certifies(low, emb, big.exp[k]):  # cannot happen: k leads an n-orbit
            raise AssertionError("witness failed independent verification")
        for key in hits:
            for row in pending.pop(key):
                found[row] = low
    return found


def _root_certifies(h: PolyFq, emb: Embedding, a: int) -> bool:
    """Whether h over F_q is irreducible of degree n, shown at its root a in F_{q^n}.

    a of degree n over F_q (``gf.element_degree``) has a minimal polynomial
    of degree n, so a monic h of degree n with h(a) = 0 is that polynomial,
    hence irreducible (Lidl and Niederreiter, Finite Fields, 2nd ed., ch. 1).
    h(a) is ``PolyFq``'s value of h's codes lifted back into F_{q^n}.
    """
    big, q, n = emb.big, emb.small.order, emb.big.m // emb.small.m
    if h.degree != n or not h.is_monic:
        return False
    alpha = FieldElement(big, a)
    if element_degree(alpha, q, n) != n:
        return False
    return not PolyFq(big, emb.lift_codes(h.codes))(alpha)


def _with_witness(report: PeriodReport, wit: PolyFq | None) -> PeriodReport:
    """The report with the scan's witness (or its absence) checked and set."""
    n, w, c = report.n, report.w, report.c
    expected = report.case_label != CASE_EXCLUDED
    if wit is None:
        return report._replace(witness=None, witness_ok=not expected)
    coeff_ok = wit.degree == n and wit.is_monic and wit[n - w].code == c
    return report._replace(witness=tuple(wit.codes), witness_ok=expected and coeff_ok)


def _sweep_tuple(q: int, n: int, w: int, c: int, cfg: SweepConfig,
                 counts_verdicts: dict) -> PeriodReport:
    """The row's period report, and its symmetry verdict if asked.

    counts_verdicts holds `_counts_symmetric`'s pair (every c != 0, c = 0)
    per w' = min(w, n - w) of the row's (q, n), formed by the first row
    that asks; the row reads the entry of its c.
    """
    if w == n:
        report = PeriodReport(q=q, n=n, w=w, c=c, threshold=threshold(n, q),
                              case_label=CASE_NORM)
    elif 2 * w > n:
        base = verify_period_claims(q, n, n - w, c, cfg.size_cap)
        report = base._replace(w=w, delegated_to_w=n - w)
    else:
        report = verify_period_claims(q, n, w, c, cfg.size_cap)
    if cfg.check_symmetry and report.r is not None:
        v = min(w, n - w)
        if v not in counts_verdicts:
            counts_verdicts[v] = _counts_symmetric(q, n, v)
        report = report._replace(symmetric=counts_verdicts[v][c == 0])
    return report


def _cells(cfg: SweepConfig, q: int, n: int):
    """(w, c, row) per grid cell at (q, n); w = n with c = 0 is no row: no norm is 0."""
    cs = range(q) if cfg.pinned_c is None else (cfg.pinned_c,)
    return ((w, c, w != n or c != 0) for w in cfg.weights(n) for c in cs)


def _check_grid(cfg: SweepConfig) -> list[int]:
    """The grid's q in ascending order, or ValueError if it has no row to run.

    The error names its cause: no q, a q that is not a prime power, a
    reversed n range, a row at n = 1, a pinned w outside [1, n] for every n,
    no n >= 2, only the norm-of-zero cell w = n with c = 0, or every row past
    the size cap or a hard limit (``SweepConfig.fits``).

    ``check_size`` refuses every n past MODULUS_GUARD's bit length, so the
    search for a row that fits stops there however long the n range.
    """
    if cfg.w_policy not in ("half", "full"):
        raise ValueError(f"w_policy must be 'half' or 'full', not {cfg.w_policy!r}")
    qs = sorted(set(cfg.q_list))
    if not qs:
        raise ValueError("q list names no field size")
    if qs[0] < 2:
        raise ValueError(f"q must be at least 2, not q={qs[0]}")
    for q in qs:
        if q <= MODULUS_GUARD + 1:  # a larger q fits no n, so it is never factored
            prime_power(q)
    lo, hi = cfg.n_range
    if lo > hi:
        raise ValueError(f"n range {lo}:{hi} is empty")
    if lo <= 1 <= hi and any(row for *_, row in _cells(cfg, qs[0], 1)):
        raise ValueError(f"n range {lo}:{hi} reaches n = 1, whose only row "
                         f"(w = n = 1) has no period threshold; start it at 2")
    w = cfg.pinned_w
    if w is not None and not 1 <= w <= hi:
        raise ValueError(f"pinned w={w} lies outside [1, n] for every n of the "
                         f"range {lo}:{hi}")
    if hi < 2:  # a row at n = 1 was refused above
        raise ValueError(f"n range {lo}:{hi} has no n >= 2, so it has no row to run")
    if w == hi and cfg.pinned_c == 0:  # every other n of the range is below w
        raise ValueError(f"the grid's only cell is w = n = {hi} with c = 0, "
                         f"and no norm is 0")
    if not any(cfg.fits(q, n) and any(row for *_, row in _cells(cfg, q, n)) for q in qs
               for n in range(max(lo, 1), min(hi, MODULUS_GUARD.bit_length()) + 1)):
        raise ValueError(f"no (q, n) of the grid has a row within the size cap "
                         f"{cfg.size_cap} and the hard limits")
    return qs


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run every tuple of the grid in lexicographic (q, n, w, c) order.

    Before any row, ``_check_grid`` refuses a grid with no row to run or a q
    that is not a prime power.  A (q, n) over the size cap or a hard limit
    (``SweepConfig.fits``) is recorded as skipped, not fatal, and so is each
    w = n with c = 0.  The result is deterministic for a fixed configuration.
    """
    reports = []
    skipped = []
    n_lo, n_hi = cfg.n_range
    for q in _check_grid(cfg):
        for n in range(max(n_lo, 1), n_hi + 1):  # no w fits an n < 1
            if not cfg.fits(q, n):
                skipped.append({"q": q, "n": n, "reason": "size_cap"})
                continue
            rows = []
            for w, c, row in _cells(cfg, q, n):
                if row:
                    rows.append((w, c))
                else:
                    skipped.append({"q": q, "n": n, "w": w, "c": c,
                                    "reason": "norm_of_zero_excluded"})
            counts_verdicts = {}
            row_reports = [_sweep_tuple(q, n, w, c, cfg, counts_verdicts) for w, c in rows]
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
