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

``main`` reads argv against one table, ``_COMMANDS``: each flag is named in
full, as ``--flag value`` or ``--flag=value``, and a usage error writes a
usage line and ``hmdft <cmd>: error: <msg>`` to stderr and exits 2.
"""

from __future__ import annotations

import io
import sys
from _json import encode_basestring_ascii
from types import SimpleNamespace

from .cyclic import CyclicFn, dft, idft, least_period_of_sequence
from .cyclo import threshold
from .gf import (
    PolyFq,
    check_n,
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


def _parse_ints(flag: str, text: str) -> list[int]:
    """The ints of a comma-separated list; blank entries are skipped."""
    ints = []
    for token in filter(str.strip, text.split(",")):
        try:
            ints.append(int(token))
        except ValueError:
            raise ValueError(f"{flag} takes ints separated by commas, not {token!r}") from None
    return ints


def _parse_range(flag: str, text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":")) if ":" in text else (int(text),) * 2
    except ValueError:
        raise ValueError(f"{flag} takes an int or a range lo:hi, not {text!r}") from None
    return lo, hi


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
    import csv  # loaded by the csv format alone: it imports re

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
            if r.get("symmetric") is not None:
                extra += f" symmetric={r['symmetric']}"
            lines.append(
                f"q={r['q']} n={r['n']} w={r['w']} c={r['c']} "
                f"case={r['case_label']} r={r['r']} threshold={r['threshold']} "
                f"claims={claims} {status}{extra}")
        s = payload["summary"]
        lines.append(f"summary: total={s['total']} pass={s['pass']} "
                     f"fail={s['fail']} excluded={s['excluded']} skipped={s['skipped']}")
        return "\n".join(lines) + "\n"
    return "\n".join(f"{k}: {v}" for k, v in _flatten(payload).items()) + "\n"


def _cmd_period(args) -> tuple[dict, int]:
    if args.seq is not None:
        if (args.q, args.n, args.w, args.c) != (None, None, None, None):
            _usage("period", "--seq takes no --q, --n, --w or --c")
        return {"r": least_period_of_sequence(_parse_ints("--seq", args.seq))}, 0
    if None in (args.q, args.n, args.w):
        _usage("period", "needs --seq or all of --q, --n and --w")
    check_n(args.n, 2)  # refused before any field or mask is built
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
        _usage("dft", "needs --seq or --w")
    if args.seq is not None and (args.w, args.c) != (None, None):
        _usage("dft", "--seq takes no --w or --c")
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
        codes, lifted = _parse_ints("--seq", text), False
    if len(codes) != N:
        raise ValueError(f"sequence must have length q**n - 1 = {N}")
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
    h = PolyFq(value_field(args.q), codes)
    verdict = degree_n_factor_test(h, args.q, n, subfield_order=args.L)
    return ({"status": verdict.status, "r": verdict.least_period,
             "threshold": verdict.threshold}, 0 if verdict.proven else 1)


def _cmd_factor_test(args) -> tuple[dict, int]:
    return _factor_verdict(args, args.n, _parse_ints("--poly", args.poly))


def _cmd_irred_test(args) -> tuple[dict, int]:
    # h of degree n is irreducible iff it has an irreducible factor of degree n
    codes = _parse_ints("--poly", args.poly)
    # deg h from the codes, so the size check comes before q is factored
    degree = len(codes) - 1
    while degree >= 0 and not codes[degree]:
        degree -= 1
    check_n(degree, 2)  # n = deg h, refused before check_size sees it
    return _factor_verdict(args, degree, codes)


def _cmd_witness(args) -> tuple[dict, int]:
    wit = find_witness(args.q, args.n, args.w, args.c, cap=args.cap)
    if wit is None:
        return {"witness": None}, 1
    return {"witness": list(wit.codes), "poly": str(wit)}, 0


def _cmd_hm_verify(args) -> tuple[dict, int]:
    cfg = SweepConfig(
        q_list=tuple(_parse_ints("--q", args.q)),
        n_range=_parse_range("--n", args.n),
        w_policy="full" if args.all_w else "half",
        size_cap=args.cap,
        with_witness=not args.no_witness,
        check_symmetry=args.check_symmetry,
        pinned_w=args.w,
        pinned_c=args.c,
    )
    result = sweep(cfg)
    return result.to_dict(), 0 if result.summary["fail"] == 0 else 1


# the options every subcommand takes, after its own
_COMMON = {
    "--format": (("text", "json", "csv"), False, "output format (default text)"),
    "--out": (str, False, "write output to this path"),
    "--cap": (int, False, "size cap on q**n - 1"),
}

# subcommand: (handler, help, default --cap, options); an option maps its flag
# to (value type, required, help), where the type is int, str, a tuple of
# choices or bool, a switch that takes no value
_COMMANDS = {
    "period": (_cmd_period, "least period of a sequence or of a (w, c) mask",
               DEFAULT_SIZE_CAP, {
        "--seq": (str, False, "comma-separated values (any integer symbols)"),
        "--q": (int, False, "field size"),
        "--n": (int, False, "degree"),
        "--w": (int, False, "weight"),
        "--c": (int, False, "prescribed coefficient (default 0)"),
        **_COMMON}),
    "dft": (_cmd_dft, "transform of a weight indicator, mask or sequence", None, {
        "--q": (int, True, "field size"),
        "--n": (int, True, "degree"),
        "--w": (int, False, "weight"),
        "--c": (int, False, "prescribed coefficient: transform the mask"),
        "--seq": (str, False, "comma-separated F_q codes of length q**n - 1"),
        "--inverse": (bool, False, "inverse transform"),
        **_COMMON}),
    "delta": (_cmd_delta, "emit weight-indicator or mask values over F_q", None, {
        "--q": (int, True, "field size"),
        "--n": (int, True, "degree"),
        "--w": (int, True, "weight"),
        "--c": (int, False, "prescribed coefficient: emit the mask"),
        **_COMMON}),
    "factor-test": (_cmd_factor_test, "test for an irreducible factor of degree n", None, {
        "--q": (int, True, "field size"),
        "--n": (int, True, "factor degree"),
        "--poly": (str, True, "little-endian comma-separated F_q codes"),
        "--L": (int, False, "order of a subfield containing the image, validated if given"),
        **_COMMON}),
    "irred-test": (_cmd_irred_test, "sufficient irreducibility test", None, {
        "--q": (int, True, "field size"),
        "--poly": (str, True, "little-endian comma-separated F_q codes"),
        "--L": (int, False, "order of a subfield containing the image, validated if given"),
        **_COMMON}),
    "hm-verify": (_cmd_hm_verify, "sweep a parameter grid and verify all claims",
                  DEFAULT_SIZE_CAP, {
        "--q": (str, True, "comma-separated prime powers"),
        "--n": (str, True, "a value or an inclusive range lo:hi"),
        "--w": (int, False, "pin a single w"),
        "--c": (int, False, "pin a single c code"),
        "--all-w": (bool, False, "cover w in [1, n] with reciprocal delegation above n/2"),
        "--no-witness": (bool, False, "skip the witness search"),
        "--check-symmetry": (bool, False,
                             "also verify digit-permutation invariance of each mask"),
        **_COMMON}),
    "witness": (_cmd_witness, "search one (q, n, w, c) for a verified irreducible",
                DEFAULT_SIZE_CAP, {
        "--q": (int, True, "field size"),
        "--n": (int, True, "degree"),
        "--w": (int, True, "weight"),
        "--c": (int, True, "prescribed coefficient"),
        **_COMMON}),
}


def _shown(flag: str, kind) -> str:
    """The flag as usage and help write it, with a placeholder for its value."""
    if kind is bool:
        return flag
    return f"{flag} {{{','.join(kind)}}}" if type(kind) is tuple else f"{flag} {flag[2:].upper()}"


def _usage_line(cmd: str | None) -> str:
    if cmd is None:
        return "usage: hmdft {" + ",".join(_COMMANDS) + "} ...\n"
    shown = (_shown(flag, kind) if required else f"[{_shown(flag, kind)}]"
             for flag, (kind, required, _) in _COMMANDS[cmd][3].items())
    return f"usage: hmdft {cmd} [-h] {' '.join(shown)}\n"


def _usage(cmd: str | None, msg: str):
    """Write cmd's usage line and the error to stderr, and exit 2."""
    prog = f"hmdft {cmd}" if cmd else "hmdft"
    sys.stderr.write(f"{_usage_line(cmd)}{prog}: error: {msg}\n")
    raise SystemExit(2)


def _help(cmd: str | None) -> str:
    """The -h text: cmd's usage and options, or the subcommands of hmdft."""
    if cmd is None:
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
        head = ("Exact DFT-based verification of irreducible polynomials with one "
                "prescribed coefficient.\n\ncommands (hmdft COMMAND -h for its options):")
    else:
        _, head, cap, opts = _COMMANDS[cmd]
        rows = [("-h, --help", "show this help and exit")]
        for flag, (kind, _, text) in opts.items():
            if flag == "--cap":
                text += f" (default {cap or 'the hard limits'})"
            rows.append((_shown(flag, kind), text))
        head += "\n\noptions:"
    width = max(len(left) for left, _ in rows) + 2
    return "".join([_usage_line(cmd), "\n", head, "\n",
                    *(f"  {left:<{width}}{text}\n" for left, text in rows)])


def _parse(argv: list[str]):
    """(handler, options) of one command line, read against ``_COMMANDS``.

    A flag is named in full, as ``--flag value`` or ``--flag=value``; the
    token after a value flag is its value unless it starts with ``--``, and
    the last of a repeated flag wins.  ``-h``/``--help`` writes the help to
    stdout and exits 0; any other mistake is a usage error (``_usage``).
    """
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            sys.stdout.write(_help(None))
            raise SystemExit(0)
        _usage(None, "name a command: " + ", ".join(_COMMANDS))
    cmd = argv[0]
    if cmd not in _COMMANDS:
        _usage(None, f"unknown command {cmd!r} (choose from {', '.join(_COMMANDS)})")
    fn, _, cap, opts = _COMMANDS[cmd]
    values = {flag[2:].replace("-", "_"): False if kind is bool else None
              for flag, (kind, _, _) in opts.items()}
    values["format"], values["cap"] = "text", cap
    given = set()
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token in ("-h", "--help"):
            sys.stdout.write(_help(cmd))
            raise SystemExit(0)
        flag, eq, value = token.partition("=")
        if flag not in opts:
            _usage(cmd, f"unrecognized argument: {token}")
        kind = opts[flag][0]
        if kind is bool:
            if eq:
                _usage(cmd, f"{flag} takes no value")
            value = True
        elif not eq:
            if i == len(argv) or argv[i].startswith("--"):
                _usage(cmd, f"{flag} needs a value")
            value = argv[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage(cmd, f"{flag} takes an int, not {value!r}")
        elif type(kind) is tuple and value not in kind:
            _usage(cmd, f"{flag} takes one of {', '.join(kind)}, not {value!r}")
        values[flag[2:].replace("-", "_")] = value
        given.add(flag)
    missing = [flag for flag, (_, required, _) in opts.items()
               if required and flag not in given]
    if missing:
        _usage(cmd, "the following flags are required: " + ", ".join(missing))
    return fn, SimpleNamespace(**values)


def main(argv=None) -> int:
    fn, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        payload, code = fn(args)
        _emit(payload, args.format, args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
