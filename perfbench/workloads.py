"""Workload definitions: the CLI calls each workload makes and the fields it names.

A workload is a list of `hmdft` CLI argument vectors plus the fields and
embeddings its inputs name, which every worker builds during set-up.  The
sweep grids are fixed; only `spectral-mix` draws its inputs from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
SECOND_SEED = 2     # for confirming a claim on inputs not used to tune it

# q -> (p, j) with q = p**j, for every q the workloads use
_PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                 8: (2, 3), 9: (3, 2)}

SPECTRAL_PAIRS = ((2, 12), (2, 14), (2, 16), (3, 6), (3, 7), (4, 5), (5, 4),
                  (5, 5), (7, 3), (7, 4), (8, 3), (9, 3))

# Copies of each (q, n, kind) in one list: DFT_REPS for dft (one copy is a
# forward and an --inverse request), LIGHT_REPS for the others, unless named
# in _REPS.  The counts put the median latency inside the 10-30 ms cluster
# of dft requests at (2, 12), (3, 7), (5, 5) and (7, 4), and the tail inside
# the 0.2-0.4 s cluster of factor-tests at (3, 6), (5, 4) and (9, 3), so
# neither quantile sits on a gap between clusters.  irred-test and
# factor-test at (5, 5) and (7, 4) (2-5 s each, and their cost varies by 2x
# with the polynomial) and factor-test at (2, 16) and (3, 7) are left out:
# with one of each per list they made job_s vary by 12% from seed to seed.
LIGHT_REPS = 5
DFT_REPS = 3
_REPS = {(2, 14, "irred-test"): 2, (2, 14, "factor-test"): 1,
         (2, 16, "irred-test"): 1, (2, 16, "factor-test"): 0,
         (3, 7, "irred-test"): 1, (3, 7, "factor-test"): 0,
         (5, 5, "irred-test"): 0, (5, 5, "factor-test"): 0,
         (7, 4, "irred-test"): 0, (7, 4, "factor-test"): 0,
         (2, 14, "dft"): 2, (2, 16, "dft"): 1}


@dataclass(frozen=True)
class Workload:
    """CLI calls of one job and the fields set-up builds before them.

    `fields` holds (p, m, big_m): set-up builds F_{p^m} and, when big_m is
    not None, F_{p^big_m} together with the embedding of the first into it.
    """

    name: str
    calls: tuple[tuple[str, ...], ...]
    fields: tuple[tuple[int, int, int | None], ...]
    workers: int = 1        # fresh processes, one job pass each, at --seconds 30
    setups: int = 3         # set-up samples per run; set-up-only workers make up the rest


def prime_power(q: int) -> tuple[int, int]:
    return _PRIME_POWERS[q]


def _grid_fields(qs, n_lo, n_hi, cap, big):
    fields = []
    for q in qs:
        p, j = prime_power(q)
        fields.append((p, j, None))
        if big:
            for n in range(n_lo, n_hi + 1):
                if q ** n - 1 <= cap:
                    fields.append((p, j, j * n))
    return fields


def _sweep(name, groups, extra, workers, setups=3):
    """A workload of one `hm-verify` call per (q list, n range) group."""
    calls = []
    fields = []
    big = "--no-witness" not in extra
    for qs, (lo, hi), cap in groups:
        argv = ["hm-verify", "--q", ",".join(map(str, qs)), "--n", f"{lo}:{hi}"]
        if cap is not None:
            argv += ["--cap", str(cap)]
        calls.append(tuple(argv + list(extra) + ["--format", "json"]))
        fields.extend(_grid_fields(qs, lo, hi, cap or 20000, big))
    return Workload(name, tuple(calls), tuple(dict.fromkeys(fields)), workers,
                    setups)


def random_poly(rng: random.Random, q: int, degree: int) -> list[int]:
    """Codes of a uniformly random monic polynomial over F_q not divisible by x."""
    return [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(degree - 1)] + [1]


def spectral_requests(seed: int, pairs=SPECTRAL_PAIRS,
                      light_reps=LIGHT_REPS) -> list[tuple[str, ...]]:
    """The seeded `spectral-mix` request list, in a seeded random order.

    irred-test takes a random monic polynomial of degree n, factor-test one
    of degree n + 3; each dft input is a random monic polynomial of degree n
    read as a sequence of length q**n - 1, sent once forward and once with
    --inverse.
    """
    rng = random.Random(seed)
    reqs = []
    for q, n in pairs:
        N = q ** n - 1
        for kind in ("irred-test", "factor-test", "dft"):
            default = min(DFT_REPS, light_reps) if kind == "dft" else light_reps
            for _ in range(_REPS.get((q, n, kind), default)):
                poly = random_poly(rng, q, n + 3 if kind == "factor-test" else n)
                text = ",".join(map(str, poly))
                if kind == "irred-test":
                    reqs.append(("irred-test", "--q", str(q), "--poly", text))
                elif kind == "factor-test":
                    reqs.append(("factor-test", "--q", str(q), "--n", str(n),
                                 "--poly", text))
                else:
                    seq = ",".join(map(str, poly + [0] * (N - len(poly))))
                    base = ("dft", "--q", str(q), "--n", str(n), "--seq", seq)
                    reqs.append(base)
                    reqs.append(base + ("--inverse",))
    rng.shuffle(reqs)
    return [r + ("--format", "json") for r in reqs]


def _spectral(name, seed, **kw):
    calls = spectral_requests(seed, **kw)
    pairs = kw.get("pairs", SPECTRAL_PAIRS)
    fields = [(*prime_power(q), prime_power(q)[1] * n) for q, n in pairs]
    return Workload(name, tuple(calls), tuple(fields))


README_GRID = (2, 3, 4, 5, 7)


def build(name: str, seed: int) -> Workload:
    """The workload called `name`; only spectral-mix depends on `seed`."""
    if name == "verify-readme":
        return _sweep(name, [(README_GRID, (2, 6), None)], [], workers=8)
    if name == "periods-2e5":
        return _sweep(name, [((2, 3, 4, 5, 7, 8, 9), (2, 12), 200000)],
                      ["--no-witness"], workers=2, setups=9)
    if name == "symmetry-readme":
        # the README grid without (5, 6), whose 720-permutation loop alone
        # takes about 50 s: split into two calls so the run fits its budget
        return _sweep(name, [((2, 3, 4, 7), (2, 6), None), ((5,), (2, 5), None)],
                      ["--no-witness", "--check-symmetry"], workers=1, setups=9)
    if name == "spectral-mix":
        return _spectral(name, seed)
    if name == "smoke":
        # a tiny grid plus one request of each spectral kind, for check_smoke.py
        sweep = _sweep(name, [((2, 3), (2, 3), None)], [], 1)
        spec = _spectral(name, seed, pairs=((2, 4),), light_reps=1)
        calls = sweep.calls + spec.calls
        fields = tuple(dict.fromkeys(sweep.fields + spec.fields))
        return Workload(name, calls, fields)
    raise KeyError(name)
