"""Benchmark of the hmdft certification pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that has `src/hmdft`.  Each job runs in a fresh,
single-threaded interpreter (worker.py), one at a time.  The worker imports
hmdft from `src/`, builds the fields the workload names (set-up), then calls
`hmdft.cli.main(argv)` for each CLI call of the job.

Each worker runs the job once, so every job pass starts from a cold
process, as a real `hmdft` call does.  --trace 0 runs Workload.workers
workers (scaled by --seconds / 30), then set-up-only workers up to
Workload.setups set-up samples, and prints the end-to-end metrics as medians
over the workers.  --trace 1 runs one untraced and one
traced worker, prints the per-layer metrics and writes the spans to
perfbench/out/.  Either way the outputs must first pass the correctness gate
in checks.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Speed normalisation.  The shared machines this runs on change speed by up to
30% from one second to the next, and times taken at other moments (before
and after a worker) do not follow the worker's.  So a speed probe
(speedprobe.py) runs beside every worker, in a process of its own pinned to
the worker's CPU, and times a fixed slice of work in its own CPU time every
8 ms.  Every end-to-end time is reported in reference seconds: the wall
seconds of an interval times PROBE_REF_S over the mean probe slice in that
interval (widened by PAD_S on either side).  On a machine whose probe slice
takes PROBE_REF_S, reference and wall seconds agree.  The raw wall-time
medians are printed before the result.

Exit status: 0 on success, 1 if an output is wrong or a worker dies, 2 on a
usage error or when there is no hmdft source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify-readme", "periods-2e5", "symmetry-readme", "spectral-mix")
REFERENCE_S = 30.0      # --seconds at which a run starts Workload.workers
DEADLINE_S = 170.0      # every worker must end within this much of the start
TAIL_BEYOND = 10        # samples a tail percentile must leave above it
PROBE_REF_S = 45e-6     # a probe slice's CPU seconds on the reference machine
PAD_S = 0.1             # probe samples this far outside an interval also count
MIN_PROBES = 5          # fewer samples in an interval: use all of the worker's


def percentile_tail(values):
    """Highest order statistic with TAIL_BEYOND samples above it, else the max.

    Returns (value, percentile, sample count).
    """
    v = sorted(values)
    n = len(v)
    if n > TAIL_BEYOND:
        return v[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n
    return v[-1], 100.0, n


class Runner:
    def __init__(self, wl, seed, start):
        self.wl = wl
        self.seed = seed
        self.start = start

    def spawn(self, calls, trace=False):
        """Run one fresh worker over `calls` once, with a speed probe beside it.

        Returns the worker's result with setup_s, job_s and each request's
        latency_s in wall seconds, and setup_ref_s, job_ref_s and
        latency_ref_s in reference seconds.
        """
        spec = {"root": str(ROOT), "calls": [list(c) for c in calls],
                "fields": [list(f) for f in self.wl.fields], "trace": trace,
                "run_id": f"{self.wl.name}-seed{self.seed}-{os.getpid()}"}
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise RuntimeError("out of time before starting a worker")
        probe = subprocess.Popen([sys.executable, "-I", str(HERE / "speedprobe.py")],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 text=True, cwd=str(ROOT))
        try:
            probe.stdout.readline()   # "ready"
            proc = subprocess.run([sys.executable, "-I", str(HERE / "worker.py")],
                                  input=json.dumps(spec), capture_output=True,
                                  text=True, timeout=remaining, cwd=str(ROOT))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
            result = json.loads(proc.stdout)
            samples = json.loads(probe.communicate("", timeout=30)[0] or "[]")
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        if not samples:
            raise RuntimeError("the speed probe took no samples")
        for key, window in (("setup", result.pop("setup_window")),
                            ("job", result.pop("job_window"))):
            result[f"{key}_s"] = window[1] - window[0]
            result[f"{key}_ref_s"] = reference_s(window, samples)
        for r in result["results"]:
            window = r.pop("window")
            r["latency_s"] = window[1] - window[0]
            r["latency_ref_s"] = reference_s(window, samples)
        return result


def reference_s(window, samples) -> float:
    """The wall seconds of `window` in reference seconds, by the probe samples."""
    a, b = window
    d = [s for end, s in samples if a - PAD_S <= end <= b + PAD_S]
    if len(d) < MIN_PROBES:
        d = [s for _, s in samples]
    return (b - a) * PROBE_REF_S / statistics.fmean(d)


def load_expected(path: Path, name: str, seed: int):
    if not path.is_file():
        return None
    table = json.loads(path.read_text()).get(name, {})
    return table.get("*", table.get(str(seed)))


def verify(wl, workers, expected):
    """Gate every worker's outputs; return (attempted, failed, digest)."""
    digests = {checks.digest(w["results"]) for w in workers}
    if len(digests) != 1:
        raise checks.Mismatch("workers of the same job produced different outputs")
    (got,) = digests
    # equal digests mean equal outputs, so the oracles confirm one worker's
    attempted, failed = checks.Checker().check(wl.calls, workers[0]["results"])
    for argv, r in zip(wl.calls, workers[0]["results"]):
        if r["rc"] not in (0, 1):
            print(f"failed: hmdft {argv[0]} exited {r['rc']}: "
                  f"{(r['error'] or r['stderr']).strip()[-500:]}", file=sys.stderr)
    attempted *= len(workers)
    failed *= len(workers)
    if expected is not None and got != expected:
        raise checks.Mismatch(f"output digest {got} differs from the recorded "
                              f"{expected}")
    return attempted, failed, got


def e2e_metrics(workers, setup_workers, attempted, failed):
    """End-to-end metrics in reference seconds, as medians over fresh workers."""
    p50s, tails = [], []
    for w in workers:
        lat_ms = [1000.0 * r["latency_ref_s"] for r in w["results"]]
        tail, pct, n = percentile_tail(lat_ms)
        p50s.append(statistics.median(lat_ms))
        tails.append(tail)
    print(f"requests per pass: {n}, tail = p{pct:.1f}; job workers: {len(workers)}; "
          f"set-up samples: {len(setup_workers)}; raw wall medians: job "
          f"{statistics.median(w['job_s'] for w in workers):.4f} s, set-up "
          f"{statistics.median(w['setup_s'] for w in setup_workers):.4f} s")
    return {
        "setup_s": (statistics.median(w["setup_ref_s"] for w in setup_workers), "s"),
        "job_s": (statistics.median(w["job_ref_s"] for w in workers), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(w["maxrss_kb"] for w in workers) / 1024,
                        "MB"),
        "request_p50_ms": (statistics.median(p50s), "ms"),
        "request_tail_ms": (statistics.median(tails), "ms"),
    }


def layer_metrics(plain, traced, out_path):
    spans = traced["spans"]
    totals = tracing.span_totals(spans)
    metrics = {}
    for mod, fname, _ in tracing.TRACED:
        name = f"{mod}.{fname}"
        t = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.s"] = (t["s"], "s")
        metrics[f"{name}.self_s"] = (t["self_s"], "s")
    for c in tracing.COUNTERS:
        metrics[c] = (traced["counters"].get(c, 0), "count")
    _, pct, n = percentile_tail([r["latency_s"] for r in traced["results"]])
    metrics["bench.setup.s"] = (traced["setup_s"], "s")
    metrics["bench.job.s"] = (traced["job_s"], "s")
    metrics["bench.requests"] = (n, "count")
    metrics["bench.tail_percentile"] = (pct, "%")
    metrics["trace_overhead"] = (traced["job_ref_s"] / plain["job_ref_s"] - 1, "ratio")
    for phase in ("bench.setup", "bench.job"):
        name, s, total = tracing.dominant(spans, phase)
        share = s / total if total else 0.0
        print(f"dominant span in {phase[6:]}: {name} "
              f"({s:.3f} s of {total:.3f} s, {share:.0%})")
    for name in ("symfun.delta_mask", "symfun.is_q_symmetric"):
        by_qn: dict[tuple, float] = {}
        for s in spans:
            if s[2] == name:
                key = (s[5]["q"], s[5]["n"])
                by_qn[key] = by_qn.get(key, 0.0) + s[4] - s[3]
        if by_qn:
            (q, n), s = max(by_qn.items(), key=lambda kv: kv[1])
            print(f"{name}: (q, n) = ({q}, {n}) takes {s:.3f} s of "
                  f"{sum(by_qn.values()):.3f} s")
    out_path.parent.mkdir(exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, tags in spans:
            fh.write(json.dumps({"run": traced["run_id"], "id": sid,
                                 "parent": parent, "name": name, "start": start,
                                 "end": end, "tags": tags}) + "\n")
    print(f"spans: {len(spans)} written to {out_path.relative_to(ROOT)}")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("smoke",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help="seed of the spectral-mix request list (default "
                         f"%(default)s; confirm claims on {workloads.SECOND_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="recorded output digests (default: %(default)s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hmdft" / "__init__.py").is_file():
        print(f"error: no hmdft source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # each worker and its speed probe share one CPU, so the probe times
        # the CPU the worker runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    wl = workloads.build(args.workload, args.seed)
    runner = Runner(wl, args.seed, start)
    print(f"workload {wl.name}, seed {args.seed}: {len(wl.calls)} CLI calls; "
          f"python {platform.python_version()}, {os.cpu_count()} CPUs")
    try:
        if args.trace:
            plain = runner.spawn(wl.calls)
            traced = runner.spawn(wl.calls, trace=True)
            workers = [plain, traced]
        else:
            count = max(1, round(wl.workers * args.seconds / REFERENCE_S))
            workers = [runner.spawn(wl.calls) for _ in range(count)]
            setup_workers = workers + [runner.spawn(())
                                       for _ in range(wl.setups - count)]
        expected = load_expected(args.expected, wl.name, args.seed)
        attempted, failed, got = verify(wl, workers, expected)
    except checks.Mismatch as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"digest {got}")
    if args.trace:
        out = HERE / "out" / f"trace-{wl.name}-seed{args.seed}.jsonl"
        metrics = layer_metrics(plain, traced, out)
    else:
        metrics = e2e_metrics(workers, setup_workers, attempted, failed)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
