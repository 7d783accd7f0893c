"""Command-line interface.

Subcommands: period, dft, delta, factor-test, irred-test, hm-verify, witness.
Exit codes: 0 when everything asked for was verified (for factor-test and
irred-test that means a Proven verdict; for witness, a witness found), 1 when
a claim failed or a sufficient condition stayed Inconclusive, 2 on usage or
input errors.  The size cap may also be overridden with the HMDFT_SIZE_CAP
environment variable; --cap wins over it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .cyclic import dft, idft, least_period_of_sequence
from .errors import AlgebraError
from .gf import FieldElement, PolyFq, make_field, primitive_element, subfield_embedding
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
from .symfun import delta, delta_mask


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _poly_from_arg(q: int, text: str) -> PolyFq:
    p, j = prime_power(q)
    ctx = make_field(p, j)
    codes = _parse_ints(text)
    if any(not 0 <= c < q for c in codes):
        raise AlgebraError(f"polynomial coefficients must be F_{q} codes in [0, {q})")
    return PolyFq(ctx, codes)


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.add_argument("--cap", type=int, default=None,
                    help="size cap on q**n - 1 (default %d)" % DEFAULT_SIZE_CAP)


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("HMDFT_SIZE_CAP")
    return int(env) if env else DEFAULT_SIZE_CAP


def _cmd_period(args) -> int:
    if args.seq:
        r = least_period_of_sequence(_parse_ints(args.seq))
        _emit({"r": r}, args.format, args.out)
        return 0
    if 2 * args.w <= args.n:
        rep = verify_period_claims(args.q, args.n, args.w, args.c, cap=_cap(args))
        _emit(rep.to_dict(), args.format, args.out)
        return 0 if rep.passed else 1
    # above n/2 the regime claims do not apply; report the period alone
    from .cyclic import least_period
    from .cyclo import threshold

    N = args.q ** args.n - 1
    if N > _cap(args):
        raise AlgebraError(f"q**n - 1 = {N} exceeds cap {_cap(args)}")
    p, j = prime_power(args.q)
    ctx = make_field(p, j)
    mask = delta_mask(args.q, args.n, args.w, ctx.element(args.c), ctx)
    _emit({"r": least_period(mask), "threshold": threshold(args.n, args.q)},
          args.format, args.out)
    return 0


def _cmd_dft(args) -> int:
    if args.seq is None and args.w is None:
        raise AlgebraError("dft needs --seq or --w")
    p, j = prime_power(args.q)
    big = make_field(p, j * args.n)
    zeta = primitive_element(big)
    if args.seq is not None:
        small = make_field(p, j)
        emb = subfield_embedding(small, big)
        codes = _parse_ints(args.seq)
        N = args.q ** args.n - 1
        if len(codes) != N:
            raise AlgebraError(f"sequence must have length q**n - 1 = {N}")
        from .cyclic import CyclicFn
        f = CyclicFn(big, [emb.lift(small.element(c)).code for c in codes])
    elif args.c is not None:
        small = make_field(p, j)
        emb = subfield_embedding(small, big)
        mask = delta_mask(args.q, args.n, args.w, small.element(args.c), small)
        from .cyclic import CyclicFn
        f = CyclicFn(big, [emb.lift(FieldElement(small, c)).code for c in mask.codes])
    else:
        f = delta(args.q, args.n, args.w, big)
    g = idft(f, zeta) if args.inverse else dft(f, zeta)
    _emit({"values": list(g.codes)}, args.format, args.out)
    return 0


def _cmd_delta(args) -> int:
    p, j = prime_power(args.q)
    ctx = make_field(p, j)
    if args.c is None:
        f = delta(args.q, args.n, args.w, ctx)
    else:
        f = delta_mask(args.q, args.n, args.w, ctx.element(args.c), ctx)
    _emit({"values": list(f.codes)}, args.format, args.out)
    return 0


def _cmd_factor_test(args) -> int:
    h = _poly_from_arg(args.q, args.poly)
    verdict = degree_n_factor_test(h, args.q, args.n, subfield_order=args.L)
    _emit({"status": verdict.status, "r": verdict.least_period,
           "threshold": verdict.threshold}, args.format, args.out)
    return 0 if verdict.proven else 1


def _cmd_irred_test(args) -> int:
    h = _poly_from_arg(args.q, args.poly)
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
    lo, hi = cfg.n_range
    if not cfg.q_list:
        raise ValueError("--q names no field size")
    if lo > hi:
        raise ValueError(f"--n range {lo}:{hi} is empty")
    if not any(cfg.weights(n) for n in range(lo, hi + 1)):
        raise ValueError(f"no w fits any n in {lo}:{hi}")
    if not any(cfg.fits(q, n) and cfg.weights(n)
               for q in cfg.q_list for n in range(lo, hi + 1)):
        raise ValueError(f"every (q, n) in the grid is over the size cap "
                         f"{cfg.size_cap} or a hard limit")
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
    _add_common(sp)
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
    _add_common(sp)
    sp.set_defaults(fn=_cmd_hm_verify)

    sp = sub.add_parser("witness",
                        help="search one (q, n, w, c) for a verified irreducible")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_witness)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "period" and args.seq is None and \
            (args.q is None or args.n is None or args.w is None):
        ap.error("period needs --seq or all of --q/--n/--w")
    try:
        return args.fn(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
