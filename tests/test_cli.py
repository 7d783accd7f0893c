import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmdft
from hmdft import cli, numtheory
from hmdft.cli import _check_grid, _json, _parse_ints, main
from hmdft.gf import FIELD_ORDER_CAP, MODULUS_GUARD
from hmdft.harness import SweepConfig

from helpers import check_grid_oracle, parse_ints_oracle

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
    f = CyclicFn.from_elements([emb.lift(small.element(c)) for c in seq])
    z = primitive_element(big)
    arg = ",".join(map(str, seq))
    for extra, oracle in (((), brute_dft), (("--inverse",), brute_idft)):
        code, out, _ = run(capsys, "dft", "--q", "4", "--n", "2", "--seq", arg,
                           *extra, "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == list(oracle(f, z).codes)


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


def test_period_above_half_weight(capsys):
    # masks are defined for any w in [1, n]; claims only apply up to n/2
    code, out, _ = run(capsys, "period", "--q", "3", "--n", "2", "--w", "2", "--c", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] >= 1 and payload["threshold"] == 2


def test_dft_requires_source(capsys):
    code, _, err = run(capsys, "dft", "--q", "2", "--n", "4")
    assert code == 2 and "error" in err


def test_cap_flag(capsys):
    code, _, err = run(capsys, "witness", "--q", "7", "--n", "5", "--w", "1", "--c", "1",
                       "--cap", "100")
    assert code == 2 and "cap" in err
    # F_{2^22} is over the field-order cap, so the root indicator is refused up front
    code, _, err = run(capsys, "factor-test", "--q", "2", "--n", "22", "--poly", "1,1,1")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize("grid", [("--q", "2", "--n", "6:3"),
                                  ("--q", ",", "--n", "2:3"),
                                  ("--q", "2", "--n", "2:3", "--w", "9"),
                                  ("--q", "7", "--n", "9"),
                                  ("--q", "3", "--n", "3", "--w", "3", "--c", "0"),
                                  ("--q", "3", "--n", "1", "--all-w", "--c", "0"),
                                  ("--q", "2,3", "--n", "2:3", "--w", "3", "--c", "0")],
                         ids=["reversed-n", "no-q", "w-fits-no-n", "all-over-cap",
                              "pinned-norm-of-zero", "all-w-norm-of-zero",
                              "norm-of-zero-or-no-w"])
def test_hm_verify_empty_grid_rejected(capsys, grid):
    code, out, err = run(capsys, "hm-verify", *grid)
    assert code == 2 and "error" in err and out == ""


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
    env.pop("HMDFT_SIZE_CAP", None)
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
    monkeypatch.delenv("HMDFT_SIZE_CAP", raising=False)
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
def test_cap_binds_every_subcommand(capsys, monkeypatch, argv):
    monkeypatch.delenv("HMDFT_SIZE_CAP", raising=False)
    code, out, err = run(capsys, *argv, "--cap", "100")
    assert code == 2 and out == "" and "cap 100" in err


def test_size_cap_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("HMDFT_SIZE_CAP", "100")
    argv = ("factor-test", "--q", "2", "--n", "8", "--poly", "1,1,1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cap 100" in err
    code, out, _ = run(capsys, *argv, "--cap", "255")  # --cap wins
    assert code in (0, 1) and "status:" in out


def test_factor_test_default_has_no_user_cap(capsys, monkeypatch):
    # 2**16 - 1 is over DEFAULT_SIZE_CAP, which only period, witness and
    # hm-verify apply when no cap is set
    monkeypatch.delenv("HMDFT_SIZE_CAP", raising=False)
    code, out, _ = run(capsys, "factor-test", "--q", "2", "--n", "16", "--poly", "1,1,1")
    assert code in (0, 1) and "status:" in out
    code, _, err = run(capsys, "period", "--q", "2", "--n", "16", "--w", "3")
    assert code == 2 and "cap 20000" in err


def _cli_env():
    env = dict(os.environ, PYTHONPATH=str(Path(hmdft.__file__).parents[1]),
               COLUMNS="80")
    env.pop("HMDFT_SIZE_CAP", None)
    return env


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
    assert _outcome(_parse_ints, text) == _outcome(parse_ints_oracle, text)


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
    q_list = tuple(draw(st.lists(st.sampled_from([-2, 1, 2, 3, 4, 7, 9, 16, 1024]),
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
def test_check_grid_matches_oracle(cfg):
    assert _outcome(_check_grid, cfg) == _outcome(check_grid_oracle, cfg)


@pytest.mark.parametrize("n_range", ["100:2000000", "100:200000000"])
def test_hm_verify_huge_n_range_fails_fast(n_range):
    # the grid check takes no step per n, so a huge range fails at once
    proc = subprocess.run([sys.executable, "-m", "hmdft.cli", "hm-verify", "--q", "3",
                           "--n", n_range, "--no-witness"],
                          capture_output=True, text=True, timeout=10, env=_cli_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: every (q, n) in the grid is over the size cap "
                           "20000 or a hard limit\n")


DFT_SEQ = "0,3,1,0,2,2,0,0,1,0,3,0,0,1,0"  # F_4 codes, (q, n) = (4, 2)
MIXED = [("period", "--q", "2", "--n", "8", "--w", "1", "--cap", "100"),
         ("period", "--q", "2", "--n", "8", "--w", "1"),
         ("dft", "--q", "4", "--n", "2", "--seq", DFT_SEQ, "--inverse", "--format", "json"),
         ("witness", "--q", "2"),  # usage error
         ("dft", "--q", "4", "--n", "2", "--seq", DFT_SEQ, "--format", "json"),
         ("factor-test", "--q", "2", "--n", "4", "--poly", EX15_POLY)]


def test_one_process_matches_fresh_processes(monkeypatch):
    # main's parser lives for the whole process: no option of one call may
    # leak into the next
    monkeypatch.delenv("HMDFT_SIZE_CAP", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    shared = [_in_process(argv) for argv in MIXED]
    assert [r[0] for r in shared] == [2, 0, 0, 2, 0, 0]
    assert shared == [_fresh(argv) for argv in MIXED]


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


@pytest.mark.parametrize("size", [cli._INT_RUN - 1, cli._INT_RUN, cli._INT_RUN + 1,
                                  3 * cli._INT_RUN + 5])
def test_json_long_int_lists_cross_run_boundaries(size):
    values = [(i * 7919) % 65536 - 3 for i in range(size)] + [2 ** 70]
    for value in ({"values": values}, [values, values[:3]], values):
        assert _json(value) == json.dumps(value, indent=2)


def test_json_refuses_what_no_payload_holds():
    for value in (object(), {1, 2}, b"x", [1, object()], 1.5, {"r": [0.5]}):
        with pytest.raises(TypeError):
            _json(value)
