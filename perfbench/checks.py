"""Correctness gate: output digests plus independent oracle confirmations.

Every `Proven` verdict is confirmed with `oracle_irreducible` (irred-test)
or `oracle_factor_degrees` (factor-test), every sweep witness with
`oracle_irreducible` and its prescribed coefficient, and every transform
value against a Horner evaluation of the input polynomial, which shares no
code with `cyclic.dft`.  Any disagreement raises Mismatch, which fails the
benchmark; it is never counted as a failed or slow request.
"""

from __future__ import annotations

import hashlib
import json

from workloads import prime_power


class Mismatch(Exception):
    """An output disagrees with its oracle, its recorded digest or another run."""


def digest(results) -> str:
    """SHA-256 over every call's exit code and output bytes, in call order."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r['rc']}\n".encode())
        h.update(hashlib.sha256(r["stdout"].encode()).digest())
    return h.hexdigest()


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


class Checker:
    """Confirms outputs with the oracles of the hmdft package under test."""

    def __init__(self):
        from hmdft import gf, spectral

        self.gf = gf
        self.spectral = spectral
        self._evals: dict[tuple, list[int]] = {}

    def _poly(self, q, codes):
        p, j = prime_power(q)
        return self.gf.PolyFq(self.gf.make_field(p, j), codes)

    def check(self, calls, results) -> tuple[int, int]:
        """Return (attempted, failed) items; raise Mismatch on a wrong output."""
        attempted = failed = 0
        for argv, r in zip(calls, results):
            if r["rc"] not in (0, 1):   # exit 2 or an exception
                attempted += 1
                failed += 1
                continue
            try:
                a, f = self._check_one(argv, r["rc"], json.loads(r["stdout"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise Mismatch(f"{argv[0]}: malformed output ({exc!r})") from exc
            attempted += a
            failed += f
        return attempted, failed

    def _check_one(self, argv, rc, out) -> tuple[int, int]:
        if argv[0] != "hm-verify":
            if argv[0] == "dft":
                self._transform(argv, rc, out)
            else:
                self._verdict(argv, rc, out)
            return 1, 0
        rows = out["reports"]
        if out["summary"]["total"] != len(rows):
            raise Mismatch(f"{argv}: summary total disagrees with rows")
        for row in rows:
            if row["witness"] is not None:
                self._witness(row)
        return len(rows), sum(1 for row in rows if not row["passed"])

    def _witness(self, row):
        q, n, w, c = row["q"], row["n"], row["w"], row["c"]
        h = self._poly(q, row["witness"])
        coeff = h.codes[n - w] if n - w < len(h.codes) else 0
        if not (h.degree == n and h.is_monic and coeff == c
                and self.spectral.oracle_irreducible(h)):
            raise Mismatch(f"witness {row['witness']} fails for (q, n, w, c) = "
                           f"{(q, n, w, c)}")

    def _verdict(self, argv, rc, out):
        q = int(_opt(argv, "--q"))
        h = self._poly(q, [int(x) for x in _opt(argv, "--poly").split(",")])
        n = int(_opt(argv, "--n")) if argv[0] == "factor-test" else h.degree
        status, r, thr = out["status"], out["r"], out["threshold"]
        if (q ** n - 1) % r or (status == "Proven") != (thr % r != 0) \
                or (status == "Proven") != (rc == 0):
            raise Mismatch(f"{argv[:3]}: inconsistent verdict {out} (exit {rc})")
        if status != "Proven":
            return
        if argv[0] == "irred-test":
            ok = self.spectral.oracle_irreducible(h)
        else:
            ok = n in self.spectral.oracle_factor_degrees(h)
        if not ok:
            raise Mismatch(f"{argv[:5]}: Proven verdict refuted by the oracle")

    def _transform(self, argv, rc, out):
        q, n = int(_opt(argv, "--q")), int(_opt(argv, "--n"))
        seq = _opt(argv, "--seq")
        vals = self._evaluate(q, n, seq)
        N = len(vals)
        if "--inverse" in argv:
            p, j = prime_power(q)
            big = self.gf.make_field(p, j * n)
            ninv = pow(N % p, p - 2, p)
            want = [big.mul_codes(ninv, vals[-i % N]) for i in range(N)]
        else:
            want = vals
        if rc != 0 or out["values"] != want:
            raise Mismatch(f"dft --q {q} --n {n}: values disagree with evaluation")

    def _evaluate(self, q, n, seq):
        """h(zeta**i) for i < q**n - 1, by Horner's rule on the lifted codes."""
        key = (q, n, seq)
        if key not in self._evals:
            gf = self.gf
            p, j = prime_power(q)
            small, big = gf.make_field(p, j), gf.make_field(p, j * n)
            emb = gf.subfield_embedding(small, big)
            codes = [int(x) for x in seq.split(",")]
            coeffs = [emb.lift(gf.FieldElement(small, c)).code
                      for c in codes[:max(i for i, c in enumerate(codes) if c) + 1]]
            mul, add = big.mul_codes, big.add_codes
            zeta = gf.primitive_element(big).code
            vals = []
            z = 1
            for _ in range(len(codes)):
                v = 0
                for c in reversed(coeffs):
                    v = add(mul(v, z), c)
                vals.append(v)
                z = mul(z, zeta)
            self._evals[key] = vals
        return self._evals[key]
