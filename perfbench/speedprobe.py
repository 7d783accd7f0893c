"""Times the machine's speed while a worker runs, from a process of its own.

    python3 -I perfbench/speedprobe.py

run.py starts this on the CPU the worker is pinned to.  Every PERIOD_S it
runs a fixed slice of interpreter work twice: once to bring the slice's code
and data back into cache after the worker ran, then once timed.  It times the
slice in its own CPU time, so waiting for the worker to yield the CPU does
not count, while a slower CPU (a busy neighbour, a lower clock) does.  The
probe shares no interpreter, lock, tracer or memory with the worker.

Prints "ready" once running; when its stdin closes, prints the samples as
a JSON list of [end, seconds], where end is on the time.perf_counter()
clock.  On Linux that clock is the system-wide monotonic clock, so the
worker's timestamps can be compared with the probe's.
"""

from __future__ import annotations

import json
import select
import sys
import time

PERIOD_S = 0.008

_DATA = list(range(256))


def work() -> int:
    data, acc = _DATA, 0
    for i in range(300):
        acc += data[(i * 7) & 255] * i % 13
    return acc


def main() -> None:
    samples = []
    print("ready", flush=True)
    stdin = sys.stdin.fileno()
    while not select.select([stdin], [], [], PERIOD_S)[0]:
        work()
        t = time.thread_time()
        work()
        seconds = time.thread_time() - t
        samples.append((time.perf_counter(), seconds))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
