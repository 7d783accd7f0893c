"""Span recorder that wraps the package's public functions from outside.

`Tracer.install()` rebinds each traced function in the namespace of every
`hmdft` module that holds it, so calls between modules go through the
recorder.  Spans stay in memory as [id, parent, name, start, end, tags]
rows.  Work counters are computed from call arguments and results; the time
spent computing them is taken off the span clock, so it shows in no span.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _nonzero(f) -> int:
    return f.N - f.codes.count(0)


def _count_field(tr, rec, a, k, ctx):
    if id(ctx) not in tr.seen_fields:   # first return of a field = cold build
        tr.seen_fields.add(id(ctx))
        tr.counters["gf.field_order_sum"] += ctx.order


def _count_mask(tr, rec, a, k, mask):
    rec[5] = {"q": _arg(a, k, 0, "q"), "n": _arg(a, k, 1, "n")}
    tr.counters["symfun.mask_support"] += _nonzero(mask)


def _count_convolve(tr, rec, a, k, out):
    f, g = _arg(a, k, 0, "f"), _arg(a, k, 1, "g")
    tr.counters["cyclic.convolve.term_pairs"] += _nonzero(f) * _nonzero(g)


def _count_symmetry(tr, rec, a, k, out):
    q, n = _arg(a, k, 1, "q"), _arg(a, k, 2, "n")
    rec[5] = {"q": q, "n": n}
    tr.counters["symfun.is_q_symmetric.perm_support"] += \
        math.factorial(n) * _nonzero(_arg(a, k, 0, "f"))


def _count_root(tr, rec, a, k, ri):
    tr.counters["spectral.root_exponent"] += ri.subfield_order - 1


def _count_dft(tr, rec, a, k, out):
    f = _arg(a, k, 0, "f")
    tr.counters["cyclic.dft.terms"] += f.N * _nonzero(f)


# (module, function, counter hook) for every traced function
TRACED = (
    ("gf", "make_field", _count_field),
    ("gf", "subfield_embedding", None),
    ("gf", "char_poly", None),
    ("symfun", "delta_mask", _count_mask),
    ("symfun", "is_q_symmetric", _count_symmetry),
    ("cyclic", "conv_power", None),
    ("cyclic", "convolve", _count_convolve),
    ("cyclic", "least_period", None),
    ("cyclic", "dft", _count_dft),
    ("cyclic", "idft", None),
    ("cyclo", "threshold", None),
    ("harness", "find_witness", None),
    ("harness", "sweep", None),
    ("spectral", "oracle_irreducible", None),
    ("spectral", "build_root_indicator", _count_root),
    ("cli", "main", None),
)
COUNTERS = ("gf.field_order_sum", "symfun.mask_support",
            "cyclic.convolve.term_pairs", "symfun.is_q_symmetric.perm_support",
            "harness.witness_candidates", "spectral.root_exponent",
            "cyclic.dft.terms")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.seen_fields: set[int] = set()
        self.paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def open(self, name: str, tags=None) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               name, self.now(), None, tags]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[4] = self.now()
        self.stack.pop()

    def wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if hook is not None:
                t = time.perf_counter()
                hook(tracer, rec, args, kwargs, result)
                tracer.paused += time.perf_counter() - t
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever an hmdft module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hmdft" or n.startswith("hmdft."))]
        for mod, fname, hook in TRACED:
            orig = getattr(sys.modules[f"hmdft.{mod}"], fname)
            _rebind(modules, orig, self.wrap(f"{mod}.{fname}", orig, hook))
        # witness candidates: element_degree calls made by the harness only
        harness = sys.modules["hmdft.harness"]
        degree = harness.element_degree
        counters = self.counters

        @functools.wraps(degree)
        def counted(*args, **kwargs):
            counters["harness.witness_candidates"] += 1
            return degree(*args, **kwargs)

        harness.element_degree = counted


def _rebind(modules, orig, wrapper) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s[2], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s[4] - s[3]
        t["calls"] += 1
        t["self_s"] += dur - child_time[s[0]]
        parent = by_id.get(s[1])
        while parent is not None and parent[2] != s[2]:
            parent = by_id.get(parent[1])
        if parent is None:   # not nested in a span of the same name
            t["s"] += dur
    return out


def dominant(spans, phase: str, skip=("cli.main", "harness.sweep")):
    """Traced function with the largest inclusive time under the `phase` span."""
    phase_ids = {s[0] for s in spans if s[2] == phase}
    by_id = {s[0]: s for s in spans}

    def in_phase(s):
        parent = s[1]
        while parent is not None:
            if parent in phase_ids:
                return True
            parent = by_id[parent][1]
        return False

    totals = span_totals([s for s in spans if in_phase(s)])
    cands = [(v["s"], k) for k, v in totals.items()
             if k not in skip and not k.startswith("bench.")]
    phase_s = sum(s[4] - s[3] for s in spans if s[2] == phase)
    if not cands:
        return None, 0.0, phase_s
    best_s, best = max(cands)
    return best, best_s, phase_s
