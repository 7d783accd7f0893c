"""Alternated pairs of benchmark runs in two checkouts.

    python bench/pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N]

Runs ``perfbench/run.py`` in the checkout PARENT and in the checkout CHANGE
in turn, N pairs (default 10), PARENT first in the first pair and the order
flipped at each pair after it, each run at the ``run_seconds`` of this
repository's BENCHMARK.json.  Each side first gets one run that is not
recorded, so that both hold the same bytecode caches before any run counts
(a side that wrote its caches during a recorded run would differ in
``peak_rss_mb`` for that reason alone).  Then, for each end-to-end metric
that BENCHMARK.json names, one line:

    request_p50_ms: parent 0.466 change 0.386 (-17.2%), change lower in 10 of 10, parent IQR 0.021

the two medians, the change's median relative to the parent's, in how many
pairs the change's run read lower than the parent's run of that pair, and
the distance between the quartiles of the parent's runs, which a gain in
the median should exceed.
Stdlib only.  Exit status 0, 1 when a run fails, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed, seconds) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: perfbench/run.py's own")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}

    def run(side):
        return run_once(sides[side], args.workload, args.seed, bench["run_seconds"])

    try:
        for side in sides:  # not recorded: both sides write their caches
            run(side)
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run(side))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, pairs {args.pairs}, order flipped at each pair")
    for name in names:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        a, b = statistics.median(parent), statistics.median(change)
        rel = f"{100 * (b - a) / a:+.1f}%" if a else "n/a"
        lower = sum(c < p for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        print(f"{name}: parent {a:.4g} change {b:.4g} ({rel}), "
              f"change lower in {lower} of {args.pairs}, parent IQR {q3 - q1:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
