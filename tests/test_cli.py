import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmdft
from hmdft.cli import main

EX15_POLY = "0,0,0,1,0,1,1,0,0,1,1,0,1"


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
                                  ("--q", "7", "--n", "9")],
                         ids=["reversed-n", "no-q", "w-fits-no-n", "all-over-cap"])
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
