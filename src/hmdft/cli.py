"""Command-line interface.

Subcommands: period, dft, delta, factor-test, irred-test, hm-verify, witness.
Exit codes: 0 when everything asked for was verified (for factor-test and
irred-test that means a Proven verdict; for witness, a witness found), 1 when
a claim failed or a sufficient condition stayed Inconclusive, 2 on usage or
input errors.  --cap, or else the HMDFT_SIZE_CAP environment variable, caps
q**n - 1 (n = deg h for irred-test) in every subcommand via ``gf.check_size``;
when neither is set, period, witness and hm-verify use DEFAULT_SIZE_CAP, and
factor-test, irred-test, dft and delta the hard limits alone.

``main`` parses with one parser per process, built on its first call: a
one-shot ``hmdft`` command builds it once, as it always did, and in-process
callers that run many commands pay for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from json.encoder import encode_basestring_ascii

from .cyclic import CyclicFn, dft, idft, least_period_of_sequence
from .cyclo import threshold
from .errors import AlgebraError, DegreeMismatchError
from .gf import (
    MODULUS_GUARD,
    PolyFq,
    check_size,
    make_field,
    primitive_element,
    subfield_embedding,
)
from .harness import (
    DEFAULT_SIZE_CAP,
    CASE_EXCLUDED,
    SweepConfig,
    find_witness,
    sweep,
    verify_period_claims,
)
from .numtheory import prime_power
from .spectral import degree_n_factor_test, irreducible_sufficient_test
from .symfun import delta, delta_mask, mask_period


def _parse_ints(text: str) -> list[int]:
    return list(map(int, filter(str.strip, text.split(","))))


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _poly_from_codes(q: int, codes: list[int]) -> PolyFq:
    if any(not 0 <= c < q for c in codes):
        raise AlgebraError(f"polynomial coefficients must be F_{q} codes in [0, {q})")
    return PolyFq(make_field(*prime_power(q)), codes)


# how json writes each scalar type a payload holds
_SCALARS = {bool: {True: "true", False: "false"}.__getitem__, int: int.__repr__,
            str: encode_basestring_ascii, type(None): lambda v: "null"}
_INT_RUN = 4096


def _json(v) -> str:
    """The text of ``json.dumps(v, indent=2)``, without its pure-Python encoder.

    The parts go into one list, joined once.  A list of plain ints is one
    join per run of `_INT_RUN` values, and a scalar one table lookup and
    one call.  Payloads hold dicts with string keys, lists, tuples, str,
    int, bool and None alone, so anything else (floats included) is
    refused with TypeError.
    """
    parts: list[str] = []
    _json_parts(v, "\n", parts.append)
    return "".join(parts)


def _json_parts(v, nl: str, put) -> None:
    """Pass the parts of v's JSON text to `put`; `nl` starts v's last line."""
    enc = _SCALARS.get(type(v))
    if enc is not None:
        put(enc(v))
        return
    inner = nl + "  "
    sep = "," + inner
    if isinstance(v, dict):
        if not v:
            put("{}")
            return
        pre = "{" + inner
        for k, x in v.items():
            put(pre + encode_basestring_ascii(k) + ": ")
            _json_parts(x, inner, put)
            pre = sep
        put(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            put("[]")
        elif set(map(type, v)) == {int}:
            # joined a run at a time, so a long list never has a str per
            # value alive at once
            pre = "[" + inner
            for i in range(0, len(v), _INT_RUN):
                put(pre + sep.join(map(int.__repr__, v[i:i + _INT_RUN])))
                pre = sep
            put(nl + "]")
        else:
            pre = "[" + inner
            for x in v:
                put(pre)
                _json_parts(x, inner, put)
                pre = sep
            put(nl + "]")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = _json(payload) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _to_text(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            flat[key] = " ".join(str(x) for x in v)
        else:
            flat[key] = v
    return flat


def _to_csv(payload) -> str:
    rows = payload.get("reports", [payload]) if isinstance(payload, dict) else payload
    rows = [_flatten(r) for r in rows]
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return buf.getvalue()


def _to_text(payload) -> str:
    if isinstance(payload, dict) and "reports" in payload:
        lines = []
        for r in payload["reports"]:
            claims = r["claims"]
            status = "EXCLUDED" if r["case_label"] == CASE_EXCLUDED else \
                ("ok" if r["passed"] else "FAIL")
            extra = ""
            if r.get("delegated_to_w") is not None:
                extra += f" (delegated to w={r['delegated_to_w']})"
            if r.get("witness") is not None:
                extra += f" witness={r['witness']}"
            lines.append(
                f"q={r['q']} n={r['n']} w={r['w']} c={r['c']} "
                f"case={r['case_label']} r={r['r']} threshold={r['threshold']} "
                f"claims={claims} {status}{extra}")
        s = payload["summary"]
        lines.append(f"summary: total={s['total']} pass={s['pass']} "
                     f"fail={s['fail']} excluded={s['excluded']} skipped={s['skipped']}")
        return "\n".join(lines) + "\n"
    return "\n".join(f"{k}: {v}" for k, v in _flatten(payload).items()) + "\n"


def _add_common(sp: argparse.ArgumentParser, default_cap: int | None = None) -> None:
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.add_argument("--cap", type=int, default=None,
                    help="size cap on q**n - 1 (default %s)" %
                    (default_cap or "the hard limits"))
    sp.set_defaults(default_cap=default_cap)


def _cap(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("HMDFT_SIZE_CAP")
    return int(env) if env else args.default_cap


def _check_n(args) -> None:
    # before check_size, which would form q**n for any n (0**n fails for n < 0)
    if args.n < 1:
        raise ValueError("n must be at least 1")


def _cmd_period(args) -> int:
    if args.seq is not None:
        r = least_period_of_sequence(_parse_ints(args.seq))
        _emit({"r": r}, args.format, args.out)
        return 0
    if 2 * args.w <= args.n:
        rep = verify_period_claims(args.q, args.n, args.w, args.c, cap=_cap(args))
        _emit(rep.to_dict(), args.format, args.out)
        return 0 if rep.passed else 1
    # above n/2 the regime claims do not apply; report the period alone
    _check_n(args)
    check_size(args.q, args.n, _cap(args))
    p, j = prime_power(args.q)
    ctx = make_field(p, j)
    r = mask_period(args.q, args.n, args.w, ctx.element(args.c), ctx)
    _emit({"r": r, "threshold": threshold(args.n, args.q)}, args.format, args.out)
    return 0


def _cmd_dft(args) -> int:
    if args.seq is None and args.w is None:
        raise AlgebraError("dft needs --seq or --w")
    _check_n(args)
    N = check_size(args.q, args.n, _cap(args), field=True)
    p, j = prime_power(args.q)
    big = make_field(p, j * args.n)
    zeta = primitive_element(big)
    if args.seq is None and args.c is None:
        f = delta(args.q, args.n, args.w, big)
    else:
        small = make_field(p, j)
        if args.seq is not None:
            codes = _parse_ints(args.seq)
            if len(codes) != N:
                raise AlgebraError(f"sequence must have length q**n - 1 = {N}")
        else:
            codes = delta_mask(args.q, args.n, args.w, small.element(args.c), small).codes
        f = CyclicFn(big, subfield_embedding(small, big).lift_codes(codes))
    g = idft(f, zeta) if args.inverse else dft(f, zeta)
    _emit({"values": list(g.codes)}, args.format, args.out)
    return 0


def _cmd_delta(args) -> int:
    _check_n(args)
    check_size(args.q, args.n, _cap(args))
    p, j = prime_power(args.q)
    ctx = make_field(p, j)
    if args.c is None:
        f = delta(args.q, args.n, args.w, ctx)
    else:
        f = delta_mask(args.q, args.n, args.w, ctx.element(args.c), ctx)
    _emit({"values": list(f.codes)}, args.format, args.out)
    return 0


def _cmd_factor_test(args) -> int:
    # size first: factoring a huge q by trial division would not finish
    _check_n(args)
    check_size(args.q, args.n, _cap(args), field=True)
    h = _poly_from_codes(args.q, _parse_ints(args.poly))
    verdict = degree_n_factor_test(h, args.q, args.n, subfield_order=args.L)
    _emit({"status": verdict.status, "r": verdict.least_period,
           "threshold": verdict.threshold}, args.format, args.out)
    return 0 if verdict.proven else 1


def _cmd_irred_test(args) -> int:
    codes = _parse_ints(args.poly)
    # deg h from the codes, so the size check comes before q is factored
    degree = len(codes) - 1
    while degree >= 0 and not codes[degree]:
        degree -= 1
    if degree < 2:  # before check_size, which would form q**degree
        raise DegreeMismatchError("irreducibility test needs degree >= 2")
    check_size(args.q, degree, _cap(args), field=True)
    h = _poly_from_codes(args.q, codes)
    verdict = irreducible_sufficient_test(h, args.q, subfield_order=args.L)
    _emit({"status": verdict.status, "r": verdict.least_period,
           "threshold": verdict.threshold}, args.format, args.out)
    return 0 if verdict.proven else 1


def _cmd_witness(args) -> int:
    wit = find_witness(args.q, args.n, args.w, args.c, cap=_cap(args))
    if wit is None:
        _emit({"witness": None}, args.format, args.out)
        return 1
    _emit({"witness": list(wit.codes), "poly": str(wit)}, args.format, args.out)
    return 0


def _check_grid(cfg: SweepConfig) -> None:
    """ValueError unless some (q, n) of the grid fits and has a row to report.

    A (w, c) with w = n and c = 0 is no row (the norm of a nonzero element is
    never 0), so a grid of only such pairs is empty too.  Decided with no
    step per n of a long range: the row test in closed form, and the size
    test only up to the bit length of the size limit, past which
    ``check_size`` refuses every n (n <= 23 for any cap >= 0).
    """
    lo, hi = cfg.n_range
    if not cfg.q_list:
        raise ValueError("--q names no field size")
    if lo > hi:
        raise ValueError(f"--n range {lo}:{hi} is empty")
    # cfg.weights(n) is nonempty exactly from n = n_lo on (never if n_lo < 1)
    if cfg.pinned_w is not None:
        n_lo = cfg.pinned_w
    else:
        n_lo = 1 if cfg.w_policy == "full" else 2
    if n_lo < 1 or hi < n_lo:
        raise ValueError(f"no w fits any n in {lo}:{hi}")
    # with c pinned to 0, the least w is a row only once it is below n (the
    # w of a half-w grid always are)
    if cfg.pinned_c == 0 and (cfg.pinned_w is not None or cfg.w_policy == "full"):
        n_lo += 1
        if hi < n_lo:
            raise ValueError(f"the only rows in {lo}:{hi} have w = n and c = 0, "
                             f"and no norm is 0")
    # check_size refuses every n past the bit length of its limit
    n_hi = min(hi, min(cfg.size_cap, MODULUS_GUARD).bit_length())
    if not any(cfg.fits(q, n) for q in cfg.q_list
               for n in range(max(lo, n_lo), n_hi + 1)):
        raise ValueError(f"every (q, n) in the grid is over the size cap "
                         f"{cfg.size_cap} or a hard limit")


def _cmd_hm_verify(args) -> int:
    cfg = SweepConfig(
        q_list=tuple(_parse_ints(args.q)),
        n_range=_parse_range(args.n),
        w_policy="full" if args.all_w else "half",
        size_cap=_cap(args),
        with_witness=not args.no_witness,
        check_symmetry=args.check_symmetry,
        pinned_w=args.w,
        pinned_c=args.c,
    )
    _check_grid(cfg)
    result = sweep(cfg)
    _emit(result.to_dict(), args.format, args.out)
    return 0 if result.summary["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hmdft",
        description="Exact DFT-based verification of irreducible polynomials "
                    "with one prescribed coefficient.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("period", help="least period of a sequence or of a (w, c) mask")
    sp.add_argument("--seq", help="comma-separated values (any integer symbols)")
    sp.add_argument("--q", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--w", type=int)
    sp.add_argument("--c", type=int, default=0)
    _add_common(sp, DEFAULT_SIZE_CAP)
    sp.set_defaults(fn=_cmd_period)

    sp = sub.add_parser("dft", help="transform of a weight indicator, mask or sequence")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--w", type=int)
    sp.add_argument("--c", type=int, default=None)
    sp.add_argument("--seq", help="comma-separated F_q codes of length q**n - 1")
    sp.add_argument("--inverse", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_dft)

    sp = sub.add_parser("delta", help="emit weight-indicator or mask values over F_q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--c", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_delta)

    sp = sub.add_parser("factor-test",
                        help="test for an irreducible factor of degree n")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--poly", required=True,
                    help="little-endian comma-separated F_q codes")
    sp.add_argument("--L", type=int, default=None,
                    help="order of the subfield containing the image (default: smallest)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_factor_test)

    sp = sub.add_parser("irred-test", help="sufficient irreducibility test")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--L", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_irred_test)

    sp = sub.add_parser("hm-verify", help="sweep a parameter grid and verify all claims")
    sp.add_argument("--q", required=True, help="comma-separated prime powers")
    sp.add_argument("--n", required=True, help="a value or an inclusive range lo:hi")
    sp.add_argument("--w", type=int, default=None, help="pin a single w")
    sp.add_argument("--c", type=int, default=None, help="pin a single c code")
    sp.add_argument("--all-w", action="store_true",
                    help="cover w in [1, n] with reciprocal delegation above n/2")
    sp.add_argument("--no-witness", action="store_true",
                    help="skip the witness search")
    sp.add_argument("--check-symmetry", action="store_true",
                    help="also verify digit-permutation invariance of each mask")
    _add_common(sp, DEFAULT_SIZE_CAP)
    sp.set_defaults(fn=_cmd_hm_verify)

    sp = sub.add_parser("witness",
                        help="search one (q, n, w, c) for a verified irreducible")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    _add_common(sp, DEFAULT_SIZE_CAP)
    sp.set_defaults(fn=_cmd_witness)

    return ap


# one parser per process, built on first use; parse_args keeps no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.command == "period" and args.seq is None and \
            (args.q is None or args.n is None or args.w is None):
        ap.error("period needs --seq or all of --q/--n/--w")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # AlgebraError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
