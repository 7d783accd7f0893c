import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmdft
from hmdft import cli, harness, numtheory, spectral
from hmdft.cli import _json, _parse_ints, main
from hmdft.gf import FIELD_ORDER_CAP, MODULUS_GUARD
from hmdft.harness import SweepConfig, _check_grid
from hmdft.spectral import Verdict

from helpers import check_grid_oracle, dft_seq_oracle, parse_ints_oracle, refusal_type

EX15_POLY = "0,0,0,1,0,1,1,0,0,1,1,0,1"


@pytest.fixture(autouse=True, scope="module")
def _json_output_is_the_stdlib_text():
    """Every --format json output in this module is json.dumps(payload, indent=2)."""
    def checked(payload):
        text = _json(payload)
        assert text == json.dumps(payload, indent=2)
        return text

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_json", checked)
        yield


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a command line that raises SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_witness_found(capsys):
    code, out, _ = run(capsys, "witness", "--q", "2", "--n", "4", "--w", "2", "--c", "0")
    assert code == 0
    assert "x^4 + x + 1" in out


def test_witness_absent(capsys):
    code, out, _ = run(capsys, "witness", "--q", "2", "--n", "2", "--w", "1", "--c", "0")
    assert code == 1
    assert "None" in out


def test_hm_verify_excluded_tuple(capsys):
    code, out, _ = run(capsys, "hm-verify", "--q", "2", "--n", "2", "--w", "1", "--c", "0")
    assert code == 0
    assert "Excluded" in out


def test_hm_verify_json_grid(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "hm-verify", "--q", "2,3", "--n", "2:3",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["fail"] == 0
    assert all(r["passed"] or r["case_label"] == "Excluded" for r in payload["reports"])


@pytest.mark.parametrize("argv", [
    ("hm-verify", "--q", "2", "--n", "2:3", "--format", "json"),
    ("period", "--seq", "1,0,1,0"),
    ("witness", "--q", "2", "--n", "2", "--w", "1", "--c", "0"),  # exit 1, no witness
])
def test_out_into_a_missing_directory_exits_2(capsys, tmp_path, argv):
    # main writes the payload inside its try: a failed write is an input
    # error, exit 2 with an error line and nothing on stdout
    out_path = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(out_path) in err
    assert not out_path.parent.exists()


def test_hm_verify_text_names_the_witness(capsys):
    code, out, _ = run(capsys, "hm-verify", "--q", "2", "--n", "4", "--w", "2", "--c", "0")
    assert code == 0
    assert out.splitlines()[0] == (
        "q=2 n=4 w=2 c=0 case=I r=15 threshold=3 claims={'r_gt_threshold': True, "
        "'r_not_dividing_threshold': True, 'case_claim': True} ok witness=[1, 1, 0, 0, 1]")


def test_hm_verify_text_names_the_symmetry_verdict(capsys):
    code, out, _ = run(capsys, "hm-verify", "--q", "3", "--n", "3", "--check-symmetry")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4
    assert lines[0] == (
        "q=3 n=3 w=1 c=0 case=I r=26 threshold=2 claims={'r_gt_threshold': True, "
        "'r_not_dividing_threshold': True, 'case_claim': True} ok witness=[1, 2, 0, 1] "
        "symmetric=True")
    assert all(line.endswith(" symmetric=True") for line in lines[1:3])


def test_hm_verify_csv(capsys):
    code, out, _ = run(capsys, "hm-verify", "--q", "2", "--n", "4", "--format", "csv",
                       "--no-witness")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,n,w,c,")
    assert len(lines) == 1 + 4  # header + w in {1,2} x c in {0,1}


def test_factor_test_proven(capsys):
    code, out, _ = run(capsys, "factor-test", "--q", "2", "--n", "4",
                       "--poly", EX15_POLY)
    assert code == 0
    assert "Proven" in out


def test_factor_test_inconclusive(capsys):
    code, out, _ = run(capsys, "factor-test", "--q", "2", "--n", "4",
                       "--poly", "1,1,1")
    assert code == 1
    assert "Inconclusive" in out


def test_irred_test(capsys):
    code, out, _ = run(capsys, "irred-test", "--q", "2", "--poly", "1,1,0,0,1")
    assert code == 0 and "Proven" in out
    code, out, _ = run(capsys, "irred-test", "--q", "2", "--poly", "1,0,1,0,1")
    assert code == 1 and "Inconclusive" in out


# (arguments, exit code, status, r, threshold) of verdicts at the edges of the
# order route, recorded with the square-and-multiply powering
VERDICT_EDGES = [
    # h divisible by x
    ("irred-test --q 2 --poly 0,0,1", 1, "Inconclusive", 1, 1),
    ("factor-test --q 2 --n 3 --poly 0,0,0,1", 1, "Inconclusive", 1, 1),
    # g = 1: no root among the N-th roots of unity
    ("factor-test --q 2 --n 2 --poly 1,1,0,1", 1, "Inconclusive", 1, 1),
    ("irred-test --q 2 --poly 1,0,0,0,1,1", 1, "Inconclusive", 1, 1),
    # h mod (x**N - 1) is 0: r = N
    ("factor-test --q 2 --n 4 --poly 1" + ",0" * 14 + ",1", 0, "Proven", 15, 3),
    ("factor-test --q 3 --n 2 --poly 2" + ",0" * 7 + ",1", 0, "Proven", 8, 2),
    ("factor-test --q 3 --n 2 --poly 0,2" + ",0" * 7 + ",1", 0, "Proven", 8, 2),
    # non-monic h over F_4 and F_9
    ("irred-test --q 4 --poly 1,1,2", 0, "Proven", 15, 3),
    ("irred-test --q 4 --poly 2,3,1,3", 0, "Proven", 63, 3),
    ("factor-test --q 4 --n 2 --poly 3,0,1,2", 0, "Proven", 15, 3),
    ("irred-test --q 9 --poly 4,1,7", 1, "Inconclusive", 4, 8),
    ("factor-test --q 9 --n 2 --poly 1,5,0,3,8", 1, "Inconclusive", 8, 8),
    ("irred-test --q 9 --poly 2,0,1,5", 0, "Proven", 728, 8),
]


@pytest.mark.parametrize("args,code,status,r,thr", VERDICT_EDGES,
                         ids=[c[0] for c in VERDICT_EDGES])
def test_verdict_edge_cases(capsys, args, code, status, r, thr):
    assert run(capsys, *args.split()) == \
        (code, f"status: {status}\nr: {r}\nthreshold: {thr}\n", "")


def test_verdicts_search_no_subfield(capsys, monkeypatch):
    # no verdict depends on L, so with no --L none is searched for
    def no_search(*args):
        raise AssertionError("a verdict searched for the least subfield")

    monkeypatch.setattr(spectral, "_frobenius_fixed", no_search)
    for args, code, status, r, thr in VERDICT_EDGES:
        assert run(capsys, *args.split()) == \
            (code, f"status: {status}\nr: {r}\nthreshold: {thr}\n", ""), args


def test_period_of_sequence(capsys):
    code, out, _ = run(capsys, "period", "--seq", "1,0,0,1,0,1,1,0,0,1,1,0,1,0,0")
    assert code == 0
    assert "r: 15" in out


def test_period_of_mask(capsys):
    code, out, _ = run(capsys, "period", "--q", "3", "--n", "2", "--w", "1", "--c", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 4 and payload["case_label"] == "III"


def test_period_of_mask_at_large_q(capsys):
    # r = 2(q - 1) at q = 251 from one-point counts, with no count table
    code, out, _ = run(capsys, "period", "--q", "251", "--n", "2", "--w", "1",
                       "--cap", "70000", "--format", "json")
    assert code == 0 and json.loads(out)["r"] == 500


def test_delta_values(capsys):
    code, out, _ = run(capsys, "delta", "--q", "2", "--n", "4", "--w", "2", "--c", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0]


def test_dft_of_delta_matches_sigma(capsys):
    from hmdft import make_field, primitive_element, sigma_eval

    code, out, _ = run(capsys, "dft", "--q", "2", "--n", "4", "--w", "2",
                       "--format", "json")
    assert code == 0
    values = json.loads(out)["values"]
    f16 = make_field(2, 4)
    z = primitive_element(f16)
    assert values == [sigma_eval(2, z ** k, 2, 4).code for k in range(15)]


def test_dft_roundtrip_seq(capsys):
    seq = "1,0,0,1,0,1,1,0,0,1,1,0,1,0,0"
    code, out, _ = run(capsys, "dft", "--q", "2", "--n", "4", "--seq", seq,
                       "--format", "json")
    assert code == 0
    fwd = json.loads(out)["values"]
    assert len(fwd) == 15


def test_dft_inverse_seq_matches_brute_force(capsys):
    from hmdft import CyclicFn, make_field, primitive_element, subfield_embedding

    from helpers import brute_dft, brute_idft

    seq = [0, 3, 1, 0, 2, 2, 0, 0, 1, 0, 3, 0, 0, 1, 0]  # F_4 codes, (q, n) = (4, 2)
    small, big = make_field(2, 2), make_field(2, 4)
    emb = subfield_embedding(small, big)
    f = CyclicFn(big, [emb.lift(small.element(c)).code for c in seq])
    z = primitive_element(big)
    arg = ",".join(map(str, seq))
    for extra, oracle in (((), brute_dft), (("--inverse",), brute_idft)):
        code, out, _ = run(capsys, "dft", "--q", "4", "--n", "2", "--seq", arg,
                           *extra, "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == list(oracle(f, z).codes)


@pytest.mark.parametrize("q,n,w,c", [(2, 3, 1, 1), (3, 2, 1, 0), (3, 2, 1, 2),
                                     (4, 2, 1, 3), (5, 2, 2, 1)])
def test_dft_of_mask_matches_convolution_oracle(capsys, q, n, w, c):
    # dft --c transforms the prescription mask: the mask powered by
    # convolution over F_q, lifted, then summed point by point (forward) or
    # by brute force (--inverse)
    from hmdft import CyclicFn, make_field, primitive_element, subfield_embedding

    from helpers import brute_idft, convolution_delta_mask, pointwise_dft

    p, j = numtheory.prime_power(q)
    small, big = make_field(p, j), make_field(p, j * n)
    mask = convolution_delta_mask(q, n, w, small.element(c), small)
    f = CyclicFn(big, subfield_embedding(small, big).lift_codes(mask.codes))
    z = primitive_element(big)
    for extra, oracle in (((), pointwise_dft), (("--inverse",), brute_idft)):
        code, out, _ = run(capsys, "dft", "--q", str(q), "--n", str(n), "--w", str(w),
                           "--c", str(c), *extra, "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == list(oracle(f, z).codes)


@pytest.mark.parametrize("q,n,w", [(2, 4, 1), (3, 3, 2), (4, 2, 2), (5, 2, 0)])
def test_delta_without_c_is_the_weight_indicator(capsys, q, n, w):
    # 1 exactly at the points whose base-q digits are 0/1 with w ones
    want = []
    for i in range(q ** n - 1):
        ds = [i // q ** t % q for t in range(n)]
        want.append(int(max(ds) <= 1 and sum(ds) == w))
    code, out, _ = run(capsys, "delta", "--q", str(q), "--n", str(n), "--w", str(w),
                       "--format", "json")
    assert code == 0 and json.loads(out)["values"] == want


@pytest.mark.parametrize("bad", ["-1", "3"])
def test_dft_seq_code_out_of_range(capsys, bad):
    code, out, err = run(capsys, "dft", "--q", "3", "--n", "2",
                         f"--seq={bad},1,0,0,0,0,0,0")
    assert code == 2 and out == ""
    assert f"code {bad} out of range" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--q", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # no sampled check left to seed
        main(["witness", "--q", "2", "--n", "4", "--w", "2", "--c", "0", "--seed", "1"])
    assert exc.value.code == 2
    # domain errors exit 2 without a traceback
    code, _, err = run(capsys, "witness", "--q", "6", "--n", "2", "--w", "1", "--c", "0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "factor-test", "--q", "2", "--n", "4", "--poly", "3,1")
    assert code == 2 and "error" in err


def test_period_needs_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["period"])
    assert exc.value.code == 2


WITNESS = ("witness", "--q", "2", "--n", "4", "--w", "2", "--c", "0")
COMMANDS = "period, dft, delta, factor-test, irred-test, hm-verify, witness"
# (argv, the error line after "hmdft[ <cmd>]: error: ")
USAGE_ERRORS = {
    "no-command": ((), f"name a command: {COMMANDS}"),
    "unknown-command": (("nonsense", "--q", "2"),
                        f"unknown command 'nonsense' (choose from {COMMANDS})"),
    "unknown-flag": ((*WITNESS, "--seed", "1"), "unrecognized argument: --seed"),
    "abbreviated-flag": (("hm-verify", "--q", "2", "--n", "2:3", "--no-wit"),
                         "unrecognized argument: --no-wit"),
    "abbreviated-flag-with-value": (("witness", "--q", "2", "--n", "4", "--w", "2", "--co=0"),
                                    "unrecognized argument: --co=0"),
    "single-dash-flag": (("delta", "-q", "2", "--n", "3", "--w", "1"),
                         "unrecognized argument: -q"),
    "stray-value": (("delta", "--q", "2", "--n", "3", "--w", "1", "2"),
                    "unrecognized argument: 2"),
    "no-value-at-the-end": (WITNESS[:-1], "--c needs a value"),
    "flag-for-value": (("delta", "--q", "--n", "3", "--w", "1"), "--q needs a value"),
    "not-an-int": (("witness", "--q=x", *WITNESS[3:]), "--q takes an int, not 'x'"),
    "float-for-int": ((*WITNESS, "--cap", "1e5"), "--cap takes an int, not '1e5'"),
    "bad-format": (("delta", "--q", "2", "--n", "3", "--w", "1", "--format", "xml"),
                   "--format takes one of text, json, csv, not 'xml'"),
    "missing-required": (("witness", "--q", "2"),
                         "the following flags are required: --n, --w, --c"),
    "missing-required-only": (("factor-test", "--format", "json"),
                              "the following flags are required: --q, --n, --poly"),
    "value-to-switch": (("hm-verify", "--q", "2", "--n", "2:3", "--all-w=1"),
                        "--all-w takes no value"),
    "period-without-seq-or-mask": (("period", "--q", "3", "--n", "2"),
                                   "needs --seq or all of --q, --n and --w"),
    "period-seq-with-mask-option": (("period", "--seq", "1,0,1", "--q", "3"),
                                    "--seq takes no --q, --n, --w or --c"),
    "dft-seq-with-w": (("dft", "--q", "2", "--n", "2", "--seq", "1,0,0", "--w", "1"),
                       "--seq takes no --w or --c"),
    "dft-without-seq-or-w": (("dft", "--q", "2", "--n", "4"), "needs --seq or --w"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2_with_usage_and_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    cmd = argv[0] if argv and argv[0] in cli._COMMANDS else None
    prog = f"hmdft {cmd}" if cmd else "hmdft"
    usage, line, rest = err.split("\n", 2)
    assert usage.startswith(f"usage: {prog} ") and rest == ""
    assert line == f"{prog}: error: {message}"


def test_flag_value_forms_and_repeats_read_alike():
    def parsed(*argv):
        fn, args = cli._parse(list(argv))
        return fn, vars(args)

    spaced = parsed(*WITNESS)
    assert parsed("witness", "--q=2", "--n=4", "--w=2", "--c=0") == spaced
    # the last of a repeated flag wins
    assert parsed("witness", "--q", "3", "--q", "2", *WITNESS[3:]) == spaced
    assert parsed("hm-verify", "--q", "2", "--n", "3", "--all-w", "--all-w") == \
        parsed("hm-verify", "--q=2", "--n=3", "--all-w")
    # int() reads the value; an empty --seq= is a value too
    assert parsed("witness", "--q", " +2", *WITNESS[3:]) == spaced
    assert parsed("period", "--seq=")[1]["seq"] == ""
    # defaults: the command's cap, text output, switches off
    assert parsed("hm-verify", "--q", "2", "--n", "3")[1] == {
        "q": "2", "n": "3", "w": None, "c": None, "all_w": False, "no_witness": False,
        "check_symmetry": False, "format": "text", "out": None, "cap": 20000}
    assert parsed("dft", "--q", "2", "--n", "3")[1]["cap"] is None


def test_a_negative_value_reaches_the_domain_check(capsys):
    # a value token starts with one dash: it is read, then refused as no F_3 code
    code, out, err = run(capsys, "period", "--q", "3", "--n", "2", "--w", "1", "--c", "-1")
    assert (code, out, err) == (2, "", "error: c=-1 is not an F_3 code\n")


@pytest.mark.parametrize("cmd", [None, *cli._COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag_and_exits_0(capsys, cmd, flag):
    # -h answers before a later token or a missing required flag is read
    argv = [flag] if cmd is None else [cmd, "--q", "2", flag, "--nonsense"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith(f"usage: hmdft {cmd or ''}")
    if cmd is None:
        names = list(cli._COMMANDS)
        assert [name for name in names if f"\n  {name} " in out] == names
    else:
        flags = list(cli._COMMANDS[cmd][3])
        assert [f for f in flags if f"\n  {f} " in out or f"\n  {f}\n" in out] == flags
        assert flags[-3:] == ["--format", "--out", "--cap"]


def test_period_above_half_weight(capsys):
    # masks are defined for any w in [1, n]; claims only apply up to n/2
    code, out, _ = run(capsys, "period", "--q", "3", "--n", "2", "--w", "2", "--c", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] >= 1 and payload["threshold"] == 2


def test_dft_requires_source(capsys):
    assert run_to_exit(capsys, "dft", "--q", "2", "--n", "4") == \
        (2, "", cli._usage_line("dft") + "hmdft dft: error: needs --seq or --w\n")


@pytest.mark.parametrize("extra", [("--w", "1"), ("--c", "1")])
def test_dft_seq_with_w_or_c_refused(capsys, extra):
    # once transformed the sequence and dropped --w and --c unread
    got = run_to_exit(capsys, "dft", "--q", "2", "--n", "2", "--seq", "1,0,1", *extra)
    assert got == (2, "", cli._usage_line("dft") + "hmdft dft: error: --seq takes no --w or --c\n")


@pytest.mark.parametrize("extra", [("--q", "2"), ("--n", "3"), ("--w", "1"),
                                   ("--q", "2", "--n", "3", "--w", "1"), ("--c", "5")])
def test_period_seq_with_mask_options_refused(capsys, extra):
    # once printed the sequence's period (r: 3) and dropped the mask options
    assert run_to_exit(capsys, "period", "--seq", "1,0,1", *extra) == \
        (2, "", cli._usage_line("period")
         + "hmdft period: error: --seq takes no --q, --n, --w or --c\n")


def test_cap_flag(capsys):
    code, _, err = run(capsys, "witness", "--q", "7", "--n", "5", "--w", "1", "--c", "1",
                       "--cap", "100")
    assert code == 2 and "cap" in err
    # F_{2^22} is over the field-order cap, so the root indicator is refused up front
    code, _, err = run(capsys, "factor-test", "--q", "2", "--n", "22", "--poly", "1,1,1")
    assert code == 2 and "cap" in err


OVER_CAP = "no (q, n) of the grid has a row within the size cap 20000 and the hard limits"
ONLY_NORM_OF_ZERO = "the grid's only cell is w = n = 3 with c = 0, and no norm is 0"
EMPTY_GRIDS = {
    "reversed-n": (("--q", "2", "--n", "6:3"), "n range 6:3 is empty"),
    "no-q": (("--q", ",", "--n", "2:3"), "q list names no field size"),
    "w-fits-no-n": (("--q", "2", "--n", "2:3", "--w", "9"),
                    "pinned w=9 lies outside [1, n] for every n of the range 2:3"),
    "w-zero": (("--q", "2", "--n", "2:3", "--w", "0"),
               "pinned w=0 lies outside [1, n] for every n of the range 2:3"),
    "n-below-2": (("--q", "2", "--n", "0:1"),
                  "n range 0:1 has no n >= 2, so it has no row to run"),
    "all-over-cap": (("--q", "7", "--n", "9"), OVER_CAP),
    "pinned-norm-of-zero": (("--q", "3", "--n", "3", "--w", "3", "--c", "0"),
                            ONLY_NORM_OF_ZERO),
    "all-w-norm-of-zero": (("--q", "3", "--n", "1", "--all-w", "--c", "0"),
                           "n range 1:1 has no n >= 2, so it has no row to run"),
    "norm-of-zero-or-no-w": (("--q", "2,3", "--n", "2:3", "--w", "3", "--c", "0"),
                             ONLY_NORM_OF_ZERO),
}


@pytest.mark.parametrize("grid, message", EMPTY_GRIDS.values(), ids=EMPTY_GRIDS)
def test_hm_verify_empty_grid_rejected(capsys, grid, message):
    # each empty grid names its own cause; only rows all past fits read the cap
    code, out, err = run(capsys, "hm-verify", *grid)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _no_rows(monkeypatch):
    """Make the sweep fail if it computes a row or searches a witness."""
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(harness, "_sweep_tuple", no_row)
    monkeypatch.setattr(harness, "_witnesses", no_row)


@pytest.mark.parametrize("grid", [("--q", "3", "--n", "1:2", "--all-w"),
                                  ("--q", "3", "--n", "1:2", "--all-w", "--no-witness"),
                                  ("--q", "2,3", "--n", "1", "--w", "1", "--c", "1")],
                         ids=["all-w", "all-w-no-witness", "pinned-norm"])
def test_hm_verify_grid_reaching_n_1_rejected(capsys, monkeypatch, grid):
    # the n = 1 norm row has no threshold: refused before the sweep computes
    # any row, where it used to abort part-way and lose the n = 2 rows
    _no_rows(monkeypatch)
    code, out, err = run(capsys, "hm-verify", *grid)
    assert code == 2 and out == "" and err.startswith("error: ") and "n = 1" in err


@pytest.mark.parametrize("qs", ["2,3,4,5,7,8,9,10", "10,2,3"], ids=["last", "first"])
def test_hm_verify_non_prime_power_q_refused_before_any_row(capsys, monkeypatch, qs):
    # the grid check factors every q before the first row, where the sweep
    # used to compute and discard the rows of each smaller q first
    _no_rows(monkeypatch)
    code, out, err = run(capsys, "hm-verify", "--q", qs, "--n", "2:12", "--cap", "200000")
    assert (code, out, err) == (2, "", "error: 10 is not a prime power\n")


@pytest.mark.parametrize("w", ["0", "1", "2"])
def test_period_n_1_refused_before_any_mask(capsys, monkeypatch, w):
    # the n = 1 mask has no period threshold: refused before a field or a
    # mask is built, where it used to compute the period and then fail
    def no_work(*args, **kwargs):
        raise AssertionError("a field or a mask was built")

    for name in ("make_field", "mask_period", "verify_period_claims"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(capsys, "period", "--q", "3", "--n", "1", "--w", w, "--c", "1")
    assert code == 2 and out == "" and err.startswith("error: ") and "n = 1" in err


def test_hm_verify_n_1_with_c_0_is_a_skip_row(capsys):
    # with c pinned to 0 the n = 1 norm row is the norm_of_zero skip, so the grid runs
    code, out, _ = run(capsys, "hm-verify", "--q", "3", "--n", "1:2", "--all-w", "--c", "0",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["summary"]["total"] == 1
    assert payload["skipped"][0] == {"q": 3, "n": 1, "w": 1, "c": 0,
                                     "reason": "norm_of_zero_excluded"}


def test_hm_verify_symmetry_above_eight_digits(capsys):
    code, out, _ = run(capsys, "hm-verify", "--q", "2", "--n", "9", "--w", "1",
                       "--no-witness", "--check-symmetry", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 2 and all(r["symmetric"] is True for r in reports)


HUGE_N = [("witness", "--w", "1", "--c", "1"),
          ("period", "--w", "1"),
          ("factor-test", "--poly", "1,1,1"),
          ("dft", "--w", "1"),
          ("delta", "--w", "1")]


@pytest.mark.parametrize("cmd", HUGE_N, ids=[c[0] for c in HUGE_N])
def test_huge_n_fails_fast(cmd):
    # in a subprocess with a timeout, so a route that forms 3**n fails, not hangs
    env = dict(os.environ, PYTHONPATH=str(Path(hmdft.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hmdft.cli", cmd[0], "--q", "3",
                           "--n", "200000000", *cmd[1:]],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "cap" in proc.stderr and len(proc.stderr) < 200


HUGE_PRIME_Q = str(2 ** 61 - 1)
HUGE_Q = [("factor-test", "--q", HUGE_PRIME_Q, "--n", "2", "--poly", "1,1"),
          ("witness", "--q", HUGE_PRIME_Q, "--n", "2", "--w", "1", "--c", "1"),
          ("irred-test", "--q", HUGE_PRIME_Q, "--poly", "1,1,1"),
          ("period", "--q", HUGE_PRIME_Q, "--n", "2", "--w", "1")]


@pytest.mark.parametrize("argv", HUGE_Q, ids=[a[0] for a in HUGE_Q])
def test_huge_prime_q_fails_fast(capsys, monkeypatch, argv):
    # trial division of a 61-bit prime would not finish: the size check must
    # refuse q**n - 1 before anything factors q
    def no_factoring(n):
        raise AssertionError(f"factored {n} before the size check")

    monkeypatch.setattr(numtheory, "factorize", no_factoring)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exceeds the size cap" in err


def test_hm_verify_huge_prime_q_beside_a_small_one():
    # sweep factors no q above MODULUS_GUARD + 1, since no n fits it, so a
    # 61-bit prime gets its skip rows at once instead of a trial division
    def hm_verify(qs):
        proc = subprocess.run([sys.executable, "-m", "hmdft.cli", "hm-verify", "--q", qs,
                               "--n", "2:3", "--no-witness", "--format", "json"],
                              capture_output=True, text=True, timeout=10, env=_cli_env())
        assert proc.returncode == 0
        return json.loads(proc.stdout)

    both, alone = hm_verify(f"3,{HUGE_PRIME_Q}"), hm_verify("3")
    assert both["reports"] == alone["reports"]
    assert both["skipped"] == alone["skipped"] + [
        {"q": int(HUGE_PRIME_Q), "n": n, "reason": "size_cap"} for n in (2, 3)]


def test_hm_verify_composite_q_beside_a_small_one():
    # every q up to MODULUS_GUARD + 1 is factored before its n loop, so a q
    # that is not a prime power is refused even when it fits no n
    code, out, err = _fresh(["hm-verify", "--q", "3,1000000", "--n", "2:3", "--no-witness"])
    assert code == 2 and out == ""
    assert "1000000 is not a prime power" in err


CAPPED = [("factor-test", "--q", "2", "--n", "19", "--poly", "1,1,1"),
          ("irred-test", "--q", "2", "--poly", ",".join(["1"] + ["0"] * 18 + ["1"])),
          ("dft", "--q", "2", "--n", "16", "--w", "3"),
          ("delta", "--q", "2", "--n", "16", "--w", "3")]


@pytest.mark.parametrize("argv", CAPPED, ids=[a[0] for a in CAPPED])
def test_cap_binds_every_subcommand(capsys, argv):
    code, out, err = run(capsys, *argv, "--cap", "100")
    assert code == 2 and out == "" and "cap 100" in err


def test_factor_test_default_has_no_user_cap(capsys):
    # 2**16 - 1 is over DEFAULT_SIZE_CAP, which only period, witness and
    # hm-verify apply when no cap is set
    code, out, _ = run(capsys, "factor-test", "--q", "2", "--n", "16", "--poly", "1,1,1")
    assert code in (0, 1) and "status:" in out
    code, _, err = run(capsys, "period", "--q", "2", "--n", "16", "--w", "3")
    assert code == 2 and "cap 20000" in err


def _cli_env():
    return dict(os.environ, PYTHONPATH=str(Path(hmdft.__file__).parents[1]))


def _fresh(argv):
    """(exit code, stdout, stderr) of one `hmdft` command in a new process."""
    proc = subprocess.run([sys.executable, "-m", "hmdft.cli", *argv],
                          capture_output=True, text=True, timeout=30, env=_cli_env())
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)`, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-_,x \t", max_size=30))
def test_parse_ints_matches_oracle(text):
    assert _outcome(_parse_ints, "--q", text) == _outcome(parse_ints_oracle, "--q", text)


def test_period_of_empty_sequence_is_an_input_error(capsys):
    for seq in (",", ", ,", ""):
        code, out, err = run(capsys, "period", f"--seq={seq}")
        assert code == 2 and out == ""
        assert "modulus N must be at least 1" in err


# inputs that once escaped as a traceback (TypeError or ZeroDivisionError)
CRASHED = [("period", "--seq="),
           ("delta", "--q", "3", "--n", "0", "--w", "0"),
           ("delta", "--q", "0", "--n=-1", "--w", "1"),
           ("hm-verify", "--q", "0", "--n=-1:3"),
           ("factor-test", "--q", "0", "--n=-1", "--poly", "0,0,0"),
           ("irred-test", "--q", "0", "--poly", "0")]


@pytest.mark.parametrize("argv", CRASHED, ids=["empty-seq", "n-zero", "q-zero-n-negative",
                                                "grid-q-zero-n-negative",
                                                "factor-test-q-zero-n-negative",
                                                "irred-test-q-zero-degree-negative"])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@st.composite
def _grids(draw):
    # q = 0 is left out: at n < 0 the oracle raises ZeroDivisionError on 0**n
    # 6 and 10 are no prime powers; the large q is none either, but fits no n
    q_list = tuple(draw(st.lists(st.sampled_from([-2, 1, 2, 3, 4, 6, 7, 9, 10, 16, 1024,
                                                  3 * (MODULUS_GUARD + 2)]),
                                 max_size=3)))
    cap = draw(st.one_of(st.integers(-(1 << 30), 1 << 23),
                         st.sampled_from([0, 1, 100, 20000, FIELD_ORDER_CAP - 1,
                                          MODULUS_GUARD, -(1 << 26)])))
    return SweepConfig(q_list=q_list,
                       n_range=(draw(st.integers(-3, 40)), draw(st.integers(-3, 40))),
                       w_policy=draw(st.sampled_from(["half", "full"])),
                       size_cap=cap, with_witness=draw(st.booleans()),
                       pinned_w=draw(st.one_of(st.none(), st.integers(-2, 42))),
                       pinned_c=draw(st.sampled_from([None, 0, 1])))


@settings(max_examples=200, deadline=None)
@given(_grids())
# a negative cap has a long bit length: (-2)**27 - 1 is under -2**26, n = 27 > 23
@example(SweepConfig(q_list=(-2,), n_range=(24, 30), size_cap=-(1 << 26)))
@example(SweepConfig(q_list=(3,), n_range=(1, 3), pinned_w=3, pinned_c=0))
@example(SweepConfig(q_list=(3,), n_range=(1, 1), w_policy="full", pinned_c=0))
@example(SweepConfig(q_list=(3,), n_range=(1, 2), w_policy="full"))
@example(SweepConfig(q_list=(3,), n_range=(0, 4), pinned_w=1, pinned_c=1))
def test_check_grid_matches_oracle(cfg):
    assert _outcome(_check_grid, cfg) == _outcome(check_grid_oracle, cfg)


@pytest.mark.parametrize("n_range", ["100:2000000", "100:200000000"])
def test_hm_verify_huge_n_range_fails_fast(n_range):
    # the grid check takes no step per n, so a huge range fails at once
    proc = subprocess.run([sys.executable, "-m", "hmdft.cli", "hm-verify", "--q", "3",
                           "--n", n_range, "--no-witness"],
                          capture_output=True, text=True, timeout=10, env=_cli_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: no (q, n) of the grid has a row within the size cap "
                           "20000 and the hard limits\n")


DFT_SEQ = "0,3,1,0,2,2,0,0,1,0,3,0,0,1,0"  # F_4 codes, (q, n) = (4, 2)
MIXED = [("period", "--q", "2", "--n", "8", "--w", "1", "--cap", "100"),
         ("period", "--q", "2", "--n", "8", "--w", "1"),
         ("dft", "--q", "4", "--n", "2", "--seq", DFT_SEQ, "--inverse", "--format", "json"),
         ("witness", "--q", "2"),  # usage error
         ("hm-verify", "--q", "2", "--n", "2:3", "--no-wit"),  # usage error
         ("dft", "--q", "4", "--n", "2", "--seq", DFT_SEQ, "--format", "json"),
         ("delta", "--q", "2", "--n", "3", "--w", "1", "--format", "xml"),  # usage error
         ("witness", "--q=x", "--n", "4", "--w", "2", "--c", "0"),  # usage error
         ("factor-test", "--q", "2", "--n", "4", "--poly", EX15_POLY)]


def test_one_process_matches_fresh_processes():
    # many commands in one process: no option of one call may leak into the
    # next, and a usage error writes the same bytes as in a fresh process
    shared = [_in_process(argv) for argv in MIXED]
    assert [r[0] for r in shared] == [2, 0, 0, 2, 2, 0, 2, 2, 0]
    assert shared == [_fresh(argv) for argv in MIXED]


SEQ_PAIRS = ((2, 4), (3, 2), (4, 2))
# tokens int() reads in another spelling, or refuses, or that are no F_q code
ODD_TOKENS = ("-1", " 1", "+1", "01", "1_0", "", " ", "1 ", "x")


@st.composite
def _seq_texts(draw):
    """(q, n, a --seq text of mostly canonical codes, --inverse or not)."""
    q, n = draw(st.sampled_from(SEQ_PAIRS))
    N = q ** n - 1
    canonical = st.sampled_from([str(c) for c in range(q)])
    token = canonical if draw(st.booleans()) else \
        canonical | st.sampled_from((str(q),) + ODD_TOKENS)
    size = draw(st.sampled_from((N, N, N - 1, N + 1, 1, 0)))
    tokens = draw(st.lists(token, min_size=size, max_size=size))
    return q, n, ",".join(tokens), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_seq_texts())
@example((4, 2, DFT_SEQ, False))
@example((3, 2, "1,0,0,0,0,0,0,1", True))
@example((3, 2, "1,0,0,0,0,0,0,3", False))  # out of range after the length check
@example((3, 2, "1,0,0,0,0,0,3", False))  # the length refusal comes first
@example((2, 4, " 1,0,0,1,0,1,1,0,0,1,1,0,1,0,0", False))
@example((2, 4, "1,0,0,1,0,1,1,0,,0,1,1,0,1,0,0,", True))  # blanks are dropped
@example((3, 2, "+1,01,1_0", False))
@example((3, 2, "", False))
def test_dft_seq_matches_the_parse_then_lift_route(case):
    q, n, text, inverse = case
    argv = ["dft", "--q", str(q), "--n", str(n), f"--seq={text}", "--format", "json"]
    assert _in_process(argv + ["--inverse"] * inverse) == dft_seq_oracle(q, n, text, inverse)


def test_dft_seq_reads_canonical_codes_by_lookup(monkeypatch):
    # with _parse_ints broken, canonical codes still transform, and one
    # spaced token is enough to send the text to _parse_ints
    def broken(flag, text):
        raise AssertionError("_parse_ints reached")

    monkeypatch.setattr(cli, "_parse_ints", broken)
    for q, n, text in ((4, 2, DFT_SEQ), (3, 2, "1,0,2,0,0,0,0,1"), (2, 4, "1," * 14 + "0")):
        argv = ["dft", "--q", str(q), "--n", str(n), "--seq", text, "--format", "json"]
        assert _in_process(argv) == dft_seq_oracle(q, n, text, False)
        with pytest.raises(AssertionError, match="_parse_ints reached"):
            main(argv[:-3] + [text.replace(",", ", ", 1)] + argv[-2:])


FUZZ_QS = (2, 3, 4, 5, 7, 8, 9, 6, 0, -1)  # valid first: draws favour the front
# the options each subcommand takes besides --cap and --format
FUZZ_OPTIONS = {"period": ("--q", "--n", "--w", "--c", "--seq"),
                "dft": ("--q", "--n", "--w", "--c", "--seq", "--inverse"),
                "delta": ("--q", "--n", "--w", "--c"),
                "factor-test": ("--q", "--n", "--poly", "--L"),
                "irred-test": ("--q", "--poly", "--L"),
                "hm-verify": ("--q", "--n", "--w", "--c", "--all-w", "--no-witness",
                              "--check-symmetry"),
                "witness": ("--q", "--n", "--w", "--c")}


def _codes(draw, q, min_size, max_size):
    """Comma-separated codes, mostly valid F_q codes, now and then one out of range."""
    top = q - 1 if q > 1 and draw(st.integers(0, 3)) else max(q, 1)
    codes = draw(st.lists(st.integers(-1 if top >= q else 0, top),
                          min_size=min_size, max_size=max_size))
    return ",".join(map(str, codes))


@st.composite
def _cli_calls(draw):
    """A random, often malformed `hmdft` call whose sizes start no real work."""
    cmd = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    q, n = draw(st.sampled_from(FUZZ_QS)), draw(st.sampled_from((2, 3, 4, 1, 5, 6, 0, -1)))
    N = q ** max(n, 0) - 1
    values = {
        "--q": ",".join(map(str, draw(st.lists(st.sampled_from(FUZZ_QS), min_size=1,
                                               max_size=2))))
        if cmd == "hm-verify" else q,
        "--n": draw(st.sampled_from([f"2:{n}", n, f"{n}:{draw(st.integers(-1, 6))}", "x"]))
        if cmd == "hm-verify" else n,
        "--w": draw(st.sampled_from((1, 2, 3, 0, 4, 5, 6, 7, -1))),
        "--c": draw(st.sampled_from((1, 0, 2, 3, 4, 5, 6, 7, 8, 9, -1))),
        "--seq": draw(st.one_of(st.text(alphabet="0123456789-, ", max_size=12),
                                st.just(_codes(draw, q, N, N) if 0 < N <= 80 else ""))),
        "--poly": _codes(draw, q, draw(st.sampled_from((3, 5, 0))), 8),
        "--L": draw(st.sampled_from((1, 2, 3, 4, 8, 9, 0, -1, 2 ** 61 - 1, 2 ** 64))),
    }
    argv = [cmd]
    for flag in FUZZ_OPTIONS[cmd]:
        if flag not in values:  # a switch
            if draw(st.booleans()):
                argv.append(flag)
        elif draw(st.sampled_from((True,) * 7 + (False,))):  # mostly present
            argv.append(f"{flag}={values[flag]}")
    # every call carries a small cap, so no size starts real work
    fmt = draw(st.sampled_from(["text", "json", "csv"]))
    cap = draw(st.sampled_from((300, 100, 30, 8, 0, -1)))
    return argv + [f"--cap={cap}", f"--format={fmt}"], fmt


@settings(max_examples=100, deadline=3000)
@given(_cli_calls())
# each once ended in a ZeroDivisionError from 0**-1 in check_size
@example((["factor-test", "--q", "0", "--n=-1", "--poly", "0,0,0"], "text"))
@example((["irred-test", "--q", "0", "--poly", "0"], "text"))
# each once factored --L = 2**61 - 1 by trial division and did not finish
@example((["factor-test", "--q", "2", "--n", "4", "--poly", "1,1,0,0,1",
           "--L", "2305843009213693951"], "text"))
@example((["irred-test", "--q", "2", "--poly", "1,1,0,0,1", "--L", "2305843009213693951"],
          "text"))
def test_cli_fuzz(call):
    argv, fmt = call
    code, out, err = _in_process(argv)
    if code in (0, 1):
        assert out.endswith("\n")
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            assert list(csv.reader(io.StringIO(out)))
    else:
        assert code == 2 and out == "" and err.strip()


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=-2 ** 300, max_value=2 ** 300) | st.text())


def _json_containers(children):
    return (st.lists(children) | st.lists(st.integers() | st.booleans())
            | st.lists(st.integers()).map(tuple)
            | st.dictionaries(st.text(), children))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_JSON_SCALARS, _json_containers, max_leaves=20))
@example([True, 1, False, 0, None])
@example({"": [], "a": {}, "b": [[]], "\u00e9\x00\n\"\\": "\U0001f600\x1f\u2028"})
@example([2 ** 200, -(2 ** 64), [1, 2, 3], (4, 5), [True, [0]]])
def test_json_text_is_the_stdlib_text(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("size", [4095, 4096, 4097, 12293, 65535])
def test_json_long_int_lists_cross_run_boundaries(size):
    values = [(i * 7919) % 65536 - 3 for i in range(size)] + [2 ** 70]
    for value in ({"values": values}, {"values": tuple(values)}, [values, values[:3]],
                  values, values[:1]):
        assert _json(value) == json.dumps(value, indent=2)


def test_json_refuses_what_no_payload_holds():
    for value in (object(), {1, 2}, b"x", [1, object()], 1.5, {"r": [0.5]}):
        with pytest.raises(TypeError):
            _json(value)


def test_json_refuses_a_record():
    # a record is a tuple subclass; json.dumps would write it as a bare list
    for value in ({"v": Verdict("Proven", 3)}, [Verdict("Inconclusive")],
                  {"cfg": SweepConfig(q_list=(2,), n_range=(2, 3))}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _json(value)


# fixed ids, the names pytest once took from each case, so a new case
# with the same message renames no old one
CLI_REFUSALS = [
    pytest.param(("dft", "--q", "3", "--n", "2", "--seq", "1,0,0"), "AlgebraError",
                 r"sequence must have length q\*\*n - 1 = 8",
                 id=r"argv0-AlgebraError-sequence must have length q\*\*n - 1 = 8"),
    # c is an F_q code in every subcommand that builds a mask
    pytest.param(("period", "--q", "3", "--n", "4", "--w", "3", "--c", "5"), ValueError,
                 "^c=5 is not an F_3 code$",
                 id="argv1-ValueError-^c=5 is not an F_3 code$"),
    pytest.param(("delta", "--q", "3", "--n", "2", "--w", "1", "--c", "5"), ValueError,
                 "^c=5 is not an F_3 code$",
                 id="argv2-ValueError-^c=5 is not an F_3 code$"),
    pytest.param(("dft", "--q", "3", "--n", "2", "--w", "1", "--c", "5"), ValueError,
                 "^c=5 is not an F_3 code$",
                 id="argv3-ValueError-^c=5 is not an F_3 code$"),
    # irred-test is factor-test at n = deg h, which needs n >= 2
    pytest.param(("irred-test", "--q", "2", "--poly", "1,1"), "DegreeMismatchError",
                 "^irreducibility test needs degree >= 2$",
                 id="argv4-DegreeMismatchError-^irreducibility test needs degree >= 2$"),
    pytest.param(("irred-test", "--q", "3", "--poly", "2,0,0"), "DegreeMismatchError",
                 "^irreducibility test needs degree >= 2$",
                 id="argv5-DegreeMismatchError-^irreducibility test needs degree >= 2$"),
    # a malformed list value names its flag and the token
    pytest.param(("hm-verify", "--q", "2,x", "--n", "2"), ValueError,
                 "^--q takes ints separated by commas, not 'x'$",
                 id="argv6-ValueError-^--q takes ints separated by commas, not 'x'$"),
    pytest.param(("hm-verify", "--q", "2", "--n", "2:"), ValueError,
                 "^--n takes an int or a range lo:hi, not '2:'$",
                 id="argv7-ValueError-^--n takes an int or a range lo:hi, not '2:'$"),
    pytest.param(("hm-verify", "--q", "2", "--n", "2:3:4"), ValueError,
                 "^--n takes an int or a range lo:hi, not '2:3:4'$",
                 id="argv8-ValueError-^--n takes an int or a range lo:hi, not '2:3:4'$"),
    pytest.param(("irred-test", "--q", "2", "--poly", "1,x,1"), ValueError,
                 "^--poly takes ints separated by commas, not 'x'$",
                 id="argv9-ValueError-^--poly takes ints separated by commas, not 'x'$"),
    pytest.param(("period", "--seq", "1,x"), ValueError,
                 "^--seq takes ints separated by commas, not 'x'$",
                 id="argv10-ValueError-^--seq takes ints separated by commas, not 'x'$"),
]


@pytest.mark.parametrize("argv, error, text", CLI_REFUSALS)
def test_cli_refusals(capsys, argv, error, text):
    fn, args = cli._parse(list(argv))
    with pytest.raises(refusal_type(error), match=text) as exc:
        fn(args)
    assert type(exc.value) is refusal_type(error)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_all_w_text_names_delegated_rows(capsys):
    code, out, _ = run(capsys, "hm-verify", "--q", "3", "--n", "3", "--all-w", "--c", "1",
                       "--no-witness")
    assert code == 0
    lines = out.splitlines()
    assert [line.startswith("q=3 n=3 w=2 c=1 ") for line in lines] == [False, True, False,
                                                                       False]
    assert lines[1].endswith(" ok (delegated to w=1)")


def _readme_cli_block():
    """The `hmdft ...` lines of the fenced block under "## CLI" in README.md,
    each with the `# ` comment lines that follow it."""
    text = (Path(hmdft.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("hmdft "):
            commands.append((line, []))
        elif line.startswith("# "):
            commands[-1][1].append(line[2:])
    return commands


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_block()
    assert len(commands) == 9
    for line, shown in commands:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        assert out.splitlines()[:len(shown)] == shown, line
    assert [shown for line, shown in commands if shown] == \
        [["witness: 1 1 0 0 1", "poly: x^4 + x + 1"]]
    assert (tmp_path / "report.json").exists()
