"""Command-line interface.

Subcommands: period, dft, delta, factor-test, irred-test, hm-verify, witness.
Exit codes: 0 when everything asked for was verified (for factor-test and
irred-test that means a Proven verdict; for witness, a witness found), 1 when
a claim failed or a sufficient condition stayed Inconclusive, 2 on usage or
input errors.  --cap caps q**n - 1 (n = deg h for irred-test) in every
subcommand via ``gf.check_size``; when it is not given, period, witness and
hm-verify use DEFAULT_SIZE_CAP, and factor-test, irred-test, dft and delta
the hard limits alone.  Each ``_cmd_*`` handler returns (payload, exit code),
and ``main`` alone writes the payload, as --format asks, to --out or stdout.

``main`` parses with one parser per process, built on its first call: a
one-shot ``hmdft`` command builds it once, as it always did, and in-process
callers that run many commands pay for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from _json import encode_basestring_ascii

from .cyclic import CyclicFn, dft, idft, least_period_of_sequence
from .cyclo import threshold
from .errors import AlgebraError, DegreeMismatchError
from .gf import (
    PolyFq,
    check_size,
    make_field,
    primitive_element,
    subfield_embedding,
    value_field,
)
from .harness import (
    DEFAULT_SIZE_CAP,
    CASE_EXCLUDED,
    SweepConfig,
    find_witness,
    sweep,
    verify_period_claims,
)
from .spectral import degree_n_factor_test
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
    return PolyFq(value_field(q), codes)


# how json writes each scalar type a payload holds
_SCALARS = {bool: {True: "true", False: "false"}.__getitem__, int: int.__repr__,
            str: encode_basestring_ascii, type(None): lambda v: "null"}


def _json(v) -> str:
    """The text of ``json.dumps(v, indent=2)``, without its pure-Python encoder.

    The parts go into one list, joined once.  A list of plain ints is one
    bytes `%` format, decoded once, and a scalar one table lookup and one
    call.  Payloads hold dicts with string keys, lists, tuples, str, int,
    bool and None alone, so anything else (floats and records included) is
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
    elif type(v) in (list, tuple):  # exactly: a namedtuple record is no list
        if not v:
            put("[]")
        elif set(map(type, v)) == {int}:  # exactly: %d would write a bool as 1
            put("[" + inner)
            put((((b"%d" + sep.encode()) * (len(v) - 1) + b"%d") % tuple(v)).decode())
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
        elif type(v) in (list, tuple):  # exactly: a namedtuple record is no list
            flat[key] = " ".join(str(x) for x in v)
        else:
            flat[key] = v
    return flat


def _to_csv(payload) -> str:
    rows = [_flatten(r) for r in payload.get("reports", [payload])]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return buf.getvalue()


def _to_text(payload) -> str:
    if "reports" in payload:
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
    sp.add_argument("--cap", type=int, default=default_cap,
                    help="size cap on q**n - 1 (default %s)" %
                    (default_cap or "the hard limits"))


def _cmd_period(args) -> tuple[dict, int]:
    if args.seq is not None:
        if (args.q, args.n, args.w, args.c) != (None, None, None, None):
            raise ValueError("--seq takes no --q, --n, --w or --c")
        return {"r": least_period_of_sequence(_parse_ints(args.seq))}, 0
    if None in (args.q, args.n, args.w):
        _parser().error("period needs --seq or all of --q/--n/--w")
    if args.n == 1:  # refused before any field or mask is built
        raise ValueError("period needs n >= 2: the mask at n = 1 has no period threshold")
    c = 0 if args.c is None else args.c
    if 2 * args.w <= args.n:
        rep = verify_period_claims(args.q, args.n, args.w, c, cap=args.cap)
        return rep.to_dict(), 0 if rep.passed else 1
    # above n/2 the regime claims do not apply; report the period alone
    check_size(args.q, args.n, args.cap)
    r = mask_period(args.q, args.n, args.w, c)
    return {"r": r, "threshold": threshold(args.n, args.q)}, 0


def _cmd_dft(args) -> tuple[dict, int]:
    if args.seq is None and args.w is None:
        raise AlgebraError("dft needs --seq or --w")
    if args.seq is not None and (args.w, args.c) != (None, None):
        raise ValueError("--seq takes no --w or --c")
    N = check_size(args.q, args.n, args.cap, field=True)
    small = value_field(args.q)
    big = make_field(small.p, small.m * args.n)
    emb = subfield_embedding(small, big)
    # every input is built over F_q and lifted into F_{q^n} once
    if args.seq is not None:
        codes = _lift_seq(args.seq, N, emb)
    elif args.c is None:
        codes = emb.lift_codes(delta(args.q, args.n, args.w).codes)
    else:
        codes = emb.lift_codes(delta_mask(args.q, args.n, args.w, args.c).codes)
    f = CyclicFn(big, codes)
    del codes  # not kept alive through the transform
    zeta = primitive_element(big)
    g = idft(f, zeta) if args.inverse else dft(f, zeta)
    return {"values": g.codes}, 0


def _lift_seq(text: str, N: int, emb) -> list[int]:
    """The lifted codes of a `dft --seq` text, one lookup per canonical F_q
    code "0" ... "q-1".  Any other token (blank, spaced, signed, padded or out
    of range) sends the text through `_parse_ints`, the length check and the
    lift's range check, so int() decides what is read and refusals stay."""
    q = emb.small.order
    table = dict(zip(map(str, range(q)), emb.lift_codes(range(q))))
    try:
        codes, lifted = list(map(table.__getitem__, text.split(","))), True
    except KeyError:
        codes, lifted = _parse_ints(text), False
    if len(codes) != N:
        raise AlgebraError(f"sequence must have length q**n - 1 = {N}")
    return codes if lifted else emb.lift_codes(codes)


def _cmd_delta(args) -> tuple[dict, int]:
    check_size(args.q, args.n, args.cap)
    if args.c is None:
        f = delta(args.q, args.n, args.w)
    else:
        f = delta_mask(args.q, args.n, args.w, args.c)
    return {"values": f.codes}, 0


def _factor_verdict(args, n: int, codes: list[int]) -> tuple[dict, int]:
    check_size(args.q, n, args.cap, field=True)
    h = _poly_from_codes(args.q, codes)
    verdict = degree_n_factor_test(h, args.q, n, subfield_order=args.L)
    return ({"status": verdict.status, "r": verdict.least_period,
             "threshold": verdict.threshold}, 0 if verdict.proven else 1)


def _cmd_factor_test(args) -> tuple[dict, int]:
    return _factor_verdict(args, args.n, _parse_ints(args.poly))


def _cmd_irred_test(args) -> tuple[dict, int]:
    # h of degree n is irreducible iff it has an irreducible factor of degree n
    codes = _parse_ints(args.poly)
    # deg h from the codes, so the size check comes before q is factored
    degree = len(codes) - 1
    while degree >= 0 and not codes[degree]:
        degree -= 1
    if degree < 2:  # named as a degree error, before check_size sees it
        raise DegreeMismatchError("irreducibility test needs degree >= 2")
    return _factor_verdict(args, degree, codes)


def _cmd_witness(args) -> tuple[dict, int]:
    wit = find_witness(args.q, args.n, args.w, args.c, cap=args.cap)
    if wit is None:
        return {"witness": None}, 1
    return {"witness": list(wit.codes), "poly": str(wit)}, 0


def _cmd_hm_verify(args) -> tuple[dict, int]:
    cfg = SweepConfig(
        q_list=tuple(_parse_ints(args.q)),
        n_range=_parse_range(args.n),
        w_policy="full" if args.all_w else "half",
        size_cap=args.cap,
        with_witness=not args.no_witness,
        check_symmetry=args.check_symmetry,
        pinned_w=args.w,
        pinned_c=args.c,
    )
    result = sweep(cfg)
    return result.to_dict(), 0 if result.summary["fail"] == 0 else 1


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
    sp.add_argument("--c", type=int, help="prescribed coefficient (default 0)")
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
                    help="order of a subfield containing the image, validated if given")
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
    args = _parser().parse_args(argv)
    try:
        payload, code = args.fn(args)
        _emit(payload, args.format, args.out)
        return code
    except (ValueError, OSError) as exc:  # AlgebraError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
