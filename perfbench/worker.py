"""One benchmark worker, run in a fresh interpreter by run.py.

Reads a JSON spec on stdin, times the import of hmdft plus the cold build
of every field the spec names (set-up), then runs the job once: each CLI
call in-process through `hmdft.cli.main`, exactly as the `hmdft` command
does, capturing its output.  Writes one JSON result to stdout, with the
start and end of set-up, of the job and of each call on the
time.perf_counter() clock.  With "trace"
set, the package's functions are wrapped by tracing.Tracer before set-up and
the spans are returned with the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_calls(cli, calls, tracer):
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        rec = tracer.open("bench.request", {"cmd": argv[0]}) if tracer else None
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a crash is a failed request, not a dead worker
            rc = None
            error = traceback.format_exc(limit=4)
        end = time.perf_counter()
        if rec is not None:
            tracer.close(rec)
        results.append({"rc": rc, "window": (t, end),
                        "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:], "error": error})
    return results


def main() -> None:
    spec = json.load(sys.stdin)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hmdft
    from hmdft import cli, gf

    if not os.path.realpath(hmdft.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hmdft imported from {hmdft.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        rec = tracer.open("bench.setup")
    for p, m, big_m in spec["fields"]:
        small = gf.make_field(p, m)
        if big_m is not None:
            gf.subfield_embedding(small, gf.make_field(p, big_m))
    t1 = time.perf_counter()
    if tracer:
        tracer.close(rec)
        rec = tracer.open("bench.job")
    results = run_calls(cli, spec["calls"], tracer)
    t2 = time.perf_counter()
    if tracer:
        tracer.close(rec)
    payload = {
        "run_id": spec["run_id"],
        "setup_window": (t0, t1),
        "job_window": (t1, t2),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "spans": tracer.spans if tracer else None,
        "counters": dict(tracer.counters) if tracer else None,
    }
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
