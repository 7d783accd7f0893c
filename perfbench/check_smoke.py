"""Fast self-test of the benchmark on the tiny `smoke` workload.

    python3 perfbench/check_smoke.py

Checks that an untraced run prints every end-to-end metric of
BENCHMARK.json with its unit, that a traced run prints every per-layer
metric with its unit, that a tampered recorded digest fails the run, and
that a copy of the benchmark without the hmdft source exits non-zero
without printing a result.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", *args],
                          capture_output=True, text=True, timeout=120, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def expect(cond, what, detail=""):
    if not cond:
        raise SystemExit(f"FAIL: {what}\n{detail}")
    print(f"ok: {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        rc, res, proc = run(["--trace", trace])
        expect(rc == 0 and res is not None and res["correct"],
               f"--trace {trace} run passes its correctness gate", proc.stderr)
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}
               and res["attempted"] >= 1, f"--trace {trace} result has the four keys")
        got = res["metrics"]
        want = {m["name"]: m["unit"] for m in spec[group]}
        expect(set(got) == set(want), f"--trace {trace} prints exactly the "
               f"{group} metrics (missing {set(want) - set(got)}, "
               f"extra {set(got) - set(want)})")
        expect(all(got[k]["unit"] == u and isinstance(got[k]["value"], (int, float))
                   for k, u in want.items()),
               f"--trace {trace} gives every metric a number and its unit")

    table = json.loads((HERE / "expected.json").read_text())
    good = table["smoke"]["1"]
    table["smoke"]["1"] = ("0" if good[0] != "0" else "1") + good[1:]
    tampered = OUT / "tampered.json"
    tampered.write_text(json.dumps(table))
    rc, res, _ = run(["--trace", "0", "--expected", str(tampered)])
    expect(rc != 0 and res is not None and res["correct"] is False,
           "a tampered digest fails the run")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, res, _ = run(["--trace", "0"], cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    expect(rc != 0 and res is None, "without the hmdft source the run fails "
           "and prints no result")
    print("smoke check passed")


if __name__ == "__main__":
    main()
