"""Decision procedures tying least periods to degree-n irreducible factors.

The central construction: for h over F_q and a subfield L of F_{q^n}
containing the image h(F_{q^n}^x), the reduced polynomial

    S(x) = (1 - h(x)**(#L - 1)) mod (x**(q**n - 1) - 1)

acts on F_{q^n}^x as the indicator of h's roots.  If the cyclic sequence of
S's coefficients has least period r not dividing (q**n - 1)/Phi_n(q), then h
has an irreducible factor of degree n; applied to h of degree n itself this
proves h irreducible.

By the support lemma (`cyclic.dft_period_by_support`) r is the
multiplicative order of x modulo g = gcd(h, x**(q**n - 1) - 1), and the
verdicts compute it that way, never forming S.  Every power of x they take
(x**N mod h for g, then x**t mod g down the prime descent of r) comes from
`gf.x_pow_mod`, Horner's rule on the base-q digits of the exponent: h and g
lie over F_q, so y**q = y(x**q) is a spread of y's codes, and each digit
costs one reduction against the modulus, prepared once per power, and no
product.  `build_root_indicator` forms S for the tests to compare
against, in closed form from g over F_q: S = -x*g'*((x**N - 1)/g) mod
(x**N - 1).  No function in this module builds F_{q^n} or forms the power
of h.

Every test here returns a two-valued Verdict: "Proven" when the sufficient
condition held, "Inconclusive" otherwise.  Inconclusive never asserts a
negative; the conditions are one-directional and their converses genuinely
fail (see the regression tests for explicit witnesses).

Independent oracles (`oracle_irreducible`, Rabin's test, and
`oracle_factor_degrees`, distinct-degree peeling, both on one Frobenius
walk) validate every Proven verdict in the test suite.  They power by the
Frobenius matrix and the verdicts by ``gf.x_pow_mod``, but both run on
``gf``'s one list kernel (the prepared division ``_divisor``/``_reduce``,
``_addmul``, and ``_gcd``, which ``poly_gcd`` wraps), so a fault there can
reach verdict and oracle alike.  Both oracles live in ``gf`` and are
re-exported here; no field build calls them, as ``make_field`` picks its
moduli by Ben-Or's test.
"""

from __future__ import annotations

from collections import namedtuple

from . import numtheory
from .cyclic import (
    CyclicFn,
    SupportSet,
    dft_period_by_support,
    least_period_by_descent,
)
from .cyclo import threshold
from .gf import (
    FieldCtx,
    PolyFq,
    check_modulus,
    check_size,
    oracle_factor_degrees,
    oracle_irreducible,
    poly_gcd,
    x_pow_mod,
)

PROVEN = "Proven"
INCONCLUSIVE = "Inconclusive"


class Verdict(namedtuple("Verdict", ["status", "least_period", "threshold", "modulus"],
                         defaults=[None] * 3)):
    """Outcome of a one-directional sufficiency test, with its evidence."""

    __slots__ = ()

    @property
    def proven(self) -> bool:
        return self.status == PROVEN


class RootIndicator(namedtuple("RootIndicator",
                               ["base", "subfield_order", "poly", "coeff_seq"])):
    """The reduced power S(x) for a base polynomial, with its coefficient sequence.

    Built by `build_root_indicator` alone; no certification path forms it.
    """

    __slots__ = ()


class SupportDegreeReport(namedtuple("SupportDegreeReport", [
        "least_period", "threshold", "sufficient", "necessary_holds", "max_period"])):
    """Support-level periods versus degree-n / primitive membership.

    `sufficient` is Proven when the least period certifies a degree-n element
    in the support.  `necessary_holds` reports whether r divides no q**d - 1
    for proper d | n (which any support containing a degree-n element must
    satisfy).  `max_period` reports r = q**n - 1 (which any support containing
    a primitive element must produce).  Neither boolean is a sufficiency claim.
    """

    __slots__ = ()


def _fold(h: PolyFq, N: int) -> dict[int, int]:
    """h mod (x**N - 1) as a sparse {exponent: code} map with no zero terms."""
    add = h.ctx.add_codes
    out: dict[int, int] = {}
    for i, c in enumerate(h.codes):
        if c:
            j = i % N
            s = add(out.pop(j, 0), c)
            if s:
                out[j] = s
    return out


def _frobenius_fixed(folded: dict[int, int], ctx: FieldCtx, N: int, t: int) -> bool:
    """Whether phi**t fixes the folded polynomial, phi(sum a_j x**j) = sum a_j**p x**(p*j).

    phi**t(h)(r) = h(r)**(p**t) at every r with r**N = 1, and a polynomial of
    degree below N is fixed exactly when its values are; so this holds iff
    h maps the N-th roots of unity into F_{p**t}.  phi**t permutes the
    exponents mod N (p is prime to N), so the image has as many terms as
    the folded polynomial and a termwise check suffices.
    """
    e = ctx.p ** t
    pow_code = ctx.pow_code
    return all(folded.get(e * j % N) == pow_code(a, e) for j, a in folded.items())


def _root_gcd(h: PolyFq, q: int, n: int,
              subfield_order: int | None) -> tuple[int, dict[int, int], PolyFq | None]:
    """Validate a root-indicator request; return (N, h mod (x**N - 1), g).

    N = q**n - 1; a given #L is checked to be the order of a subfield of
    F_{q^n} containing h(F_{q^n}^x), by the Frobenius fixed-point test on the
    folded h (`_frobenius_fixed`); g = gcd(h, x**N - 1) monic, or None when
    h vanishes at every N-th root of unity.  g is squarefree, since p does
    not divide N.  No verdict depends on L, so none is searched for here.
    """
    if h.is_zero():
        raise ValueError("the zero polynomial has no root indicator")
    if h.ctx.order != q:
        raise ValueError(f"h must have coefficients in F_{q}")
    if n < 2:
        raise ValueError("n must be at least 2")
    # S needs no F_{q^n}, but (q, n) whose field is over the cap stay refused
    N = check_size(q, n, field=True)
    ctx = h.ctx
    p, m = ctx.p, ctx.m
    folded = _fold(h, N)
    if subfield_order is not None:
        # a subfield has order p**t with t | m*n, never above N + 1, so a
        # larger order is refused before it is factored
        pp, t = (numtheory.prime_power(subfield_order)
                 if subfield_order <= N + 1 else (0, 1))
        if pp != p or (m * n) % t:
            raise ValueError(f"F_{subfield_order} is not a subfield of F_{N + 1}")
        if not _frobenius_fixed(folded, ctx, N, t):
            raise ValueError(f"image of h is not contained in F_{subfield_order}")
    if not folded:  # h vanishes at every root of unity
        return N, folded, None
    hbar = [folded.get(j, 0) for j in range(max(folded) + 1)]
    g = poly_gcd(PolyFq(ctx, x_pow_mod(ctx, N, hbar)) - PolyFq(ctx, (1,)),
                 PolyFq(ctx, hbar))
    return N, folded, g


def build_root_indicator(h: PolyFq, q: int, n: int,
                         subfield_order: int | None = None) -> RootIndicator:
    """Compute S(x) = (1 - h**(#L - 1)) mod (x**(q**n - 1) - 1) over F_q.

    `subfield_order` names the order of L, a subfield of F_{q^n} that must
    contain the image h(F_{q^n}^x); the containment is validated.  When None,
    the smallest such L is found, by the Frobenius fixed-point test at each
    divisor of [F_{q^n} : F_p] in turn, and reported.  Any valid L yields
    the same S.

    S is 1 exactly at the roots of h among the N = q**n - 1 roots of unity
    and 0 elsewhere, and it is formed over F_q from g = gcd(h, x**N - 1)
    alone, as S = -x*g'*((x**N - 1)/g) mod (x**N - 1).  At a root r of g,
    (x**N - 1)/g equals N*r**(N-1)/g'(r) (g is squarefree, so g'(r) != 0),
    and the product is -N*r**N = -N = 1, as N = -1 mod p; at every other
    N-th root of unity (x**N - 1)/g vanishes.  Since p does not divide N,
    those N values fix a polynomial of degree below N.  No field F_{q^n} is
    built and h is evaluated nowhere.

    No certification path calls it; tests and their oracles do.  The
    verdicts read S's least period as the order of x modulo g, and the
    tests hold them to this dense construction.
    """
    N, folded, g = _root_gcd(h, q, n, subfield_order)
    ctx = h.ctx
    if subfield_order is None:
        t = next(t for t in numtheory.divisors(ctx.m * n)
                 if _frobenius_fixed(folded, ctx, N, t))
        subfield_order = ctx.p ** t
    if g is None:
        s = PolyFq(ctx, (1,))
    else:
        x_n1 = PolyFq(ctx, [ctx.neg_code(1)] + [0] * (N - 1) + [1])
        s = -(PolyFq.x(ctx) * g.derivative() * (x_n1 // g) % x_n1)
    s_fn = CyclicFn(ctx, s.codes + (0,) * (N - len(s.codes)))
    return RootIndicator(base=h, subfield_order=subfield_order, poly=s, coeff_seq=s_fn)


def _verdict(r: int, q: int, n: int) -> Verdict:
    """Proven exactly when the least period r does not divide (q**n - 1)/Phi_n(q)."""
    thr = threshold(n, q)
    return Verdict(status=PROVEN if thr % r else INCONCLUSIVE, least_period=r,
                   threshold=thr, modulus=q ** n - 1)


def degree_n_factor_test(h: PolyFq, q: int, n: int,
                         subfield_order: int | None = None) -> Verdict:
    """Proven when h provably has an irreducible factor of degree n over F_q.

    The certificate is the least period r of the root indicator's
    coefficient sequence not dividing (q**n - 1)/Phi_n(q).  r is the order
    of x modulo g = gcd(h, x**N - 1), the least t | N with g | x**t - 1,
    found by prime descent; S itself is never formed.  The power sums
    u_k = sum rho**k over the roots rho of g (squarefree) have period t
    exactly when every rho**t = 1, the characters k -> rho**k of Z_N being
    linearly independent, and s_j = -u_{-j} has the same least period.  g = 1
    (no roots on the N-th roots of unity) gives r = 1; h vanishing at all of
    them gives S = 1 at every point and r = N.
    """
    N, _, g = _root_gcd(h, q, n, subfield_order)
    if g is None:
        r = N
    else:
        one = [1] if g.degree else []  # 1 mod g; g = 1 makes every t a period
        r = least_period_by_descent(
            N, lambda t: x_pow_mod(h.ctx, t, g.codes) == one)
    return _verdict(r, q, n)


def support_degree_test(s: SupportSet, q: int, n: int) -> SupportDegreeReport:
    """Period-based membership tests for a support inside Z_{q^n-1}.

    The source paper's sufficient condition for a degree-n element in the
    support: the least period r = N/gcd(N, s) of the transform of any
    function supported on s (`cyclic.dft_period_by_support`, checked against
    brute force by acceptance test C3) fails to divide (q**n - 1)/Phi_n(q).
    Acceptance test C8 checks the report where the necessary condition holds
    without the sufficient one, and where r = q**n - 1 with no primitive
    element.
    """
    check_modulus(s.N, q, n, "support")
    r = dft_period_by_support(s)
    sufficient = _verdict(r, q, n)
    necessary = all((q ** d - 1) % r for d in numtheory.divisors(n) if d < n)
    return SupportDegreeReport(least_period=r, threshold=sufficient.threshold,
                               sufficient=sufficient,
                               necessary_holds=necessary,
                               max_period=(r == s.N))
