"""Catalogue of planted faults in ``src/hmdft``, each with the tests that must catch it.

Each mutant names one file under ``src/hmdft``, the exact texts it replaces
(each must occur there exactly once) and the pytest node ids of which at
least one must fail once it is applied.  The runner copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies one
mutant there, runs its node ids and prints ``killed`` or ``survived`` with
the time taken, then one summary line, ``N of M killed in T s``; the
working tree is never touched.  Stdlib only; pytest does not collect this
file (``tests/test_mutants.py`` checks the catalogue against the tree).

    python tests/mutants.py --all          # every mutant
    python tests/mutants.py NAME [NAME ...]
    python tests/mutants.py --list

Exit status 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

ORBIT_WALK = ("        if size != n:\n            continue\n",
              "        if n % size:\n            continue\n")
SUBFIELD_TEST = ("    if element_degree(alpha, q, n) != n:\n        return False\n", "")


class Mutant(NamedTuple):
    name: str
    path: str                            # relative to the repository root
    edits: tuple[tuple[str, str], ...]   # (exact text, replacement), in order
    node_ids: tuple[str, ...]            # at least one must fail
    note: str


MUTANTS = (
    Mutant("orbit-walk-any-divisor", "src/hmdft/harness.py", (ORBIT_WALK,),
           ("tests/test_harness.py::test_scan_forms_char_polys_of_degree_n_orbit_leaders_only",
            "tests/test_harness.py::test_sweep_small_grid_deterministic",
            "tests/test_acceptance.py::test_c5_witness_grid_end_to_end"),
           "leaders of orbits of any size dividing n reach char_poly; the root "
           "check's degree test rejects their reducible polynomials"),
    Mutant("orbit-walk-and-no-subfield-test", "src/hmdft/harness.py",
           (ORBIT_WALK, SUBFIELD_TEST),
           ("tests/test_acceptance.py::test_c5_witness_grid_end_to_end",
            "tests/test_harness.py::test_oracle_confirms_every_witness_of_the_451_row_grid",
            "tests/test_harness.py::test_sweep_witnesses_match_scan_oracle_on_readme_grid"),
           "a reducible char_poly of a root in a proper subfield is reported as "
           "a witness; no check in src/ is left to stop it"),
    Mutant("horner-drops-constant-term", "src/hmdft/harness.py",
           (("emb.lift_codes(h.codes)", "emb.lift_codes(h.codes[1:])"),),
           ("tests/test_harness.py::test_sweep_small_grid_deterministic",
            "tests/test_harness.py::test_root_check_rejects_a_wrong_degree_or_a_non_monic_h"),
           "h(a) is read without its constant term, so genuine witnesses fail"),
    Mutant("lowering-bypassed", "src/hmdft/harness.py",
           (("        low = emb.lower_poly(cp)\n", "        low = cp\n"),),
           ("tests/test_harness.py::test_sweep_witnesses_match_scan_oracle_at_q_8_9_16",),
           "char_poly is kept over F_{q^n}; prime-field codes lift to "
           "themselves, so only q in {4, 8, 9, 16} sees it"),
    Mutant("norm-sign-dropped", "src/hmdft/gf.py",
           (("        norm = pow(a1, m, p) * (-1) ** m * g[0]\n",
             "        norm = pow(a1, m, p) * g[0]\n"),),
           ("tests/test_gf.py::test_searches_match_the_rabin_and_pow_mod_searches",
            "tests/test_gf.py::test_canonical_fields_match_loop_oracles"),
           "the zeta search reads N(c) without (-1)**m, so for odd m and odd p "
           "it refutes or passes a linear candidate on the wrong norm"),
    Mutant("shift-by-plus-b", "src/hmdft/gf.py",
           (("[(u - b * v) % p for u, v in", "[(u + b * v) % p for u, v in"),),
           ("tests/test_gf.py::test_canonical_fields_match_loop_oracles",),
           "the zeta search powers x modulo f(x + b), whose root is x - b, not "
           "the candidate x + b; only a field whose zeta search passes x, over "
           "odd p, sees it"),
    Mutant("ben-or-stops-early", "src/hmdft/gf.py",
           (("    for _ in range(m // 2 - 1):\n", "    for _ in range(m // 2 - 2):\n"),),
           ("tests/test_gf.py::test_ben_or_matches_rabin_on_every_monic",
            "tests/test_gf.py::test_canonical_fields_match_loop_oracles"),
           "Ben-Or's test skips d = m//2, so a product of two rootless "
           "factors of degree m/2 passes as irreducible"),
    Mutant("root-step-skips-zero", "src/hmdft/gf.py",
           (("for a, v in enumerate(vals)]", "for a, v in enumerate(vals[1:], 1)]"),),
           ("tests/test_gf.py::test_ben_or_matches_rabin_on_every_monic",
            "tests/test_gf.py::test_canonical_fields_match_loop_oracles"),
           "Ben-Or's root step evaluates at 1..p-1 only, so x**2 is taken as "
           "the modulus at m = 2 and x*g passes at m = 3; from m = 4 on the "
           "d = 2 gcd still finds the root 0"),
    Mutant("zeta-scan-from-p-plus-1", "src/hmdft/gf.py",
           (("    for c in range(p, p * p):\n", "    for c in range(p + 1, p * p):\n"),),
           ("tests/test_gf.py::test_primitive_element_f16_is_x",
            "tests/test_gf.py::test_searches_match_the_rabin_and_pow_mod_searches"),
           "x itself is never a candidate, so every field whose zeta is x "
           "gets a later one"),
    Mutant("blocks-times-zeta", "src/hmdft/gf.py",
           (("        c = lo[s & mask] ^ hi[s >> h]  # zeta**L, zeta times zeta**(L - 1)\n",
             "        c = cols[0]\n"),),
           ("tests/test_gf.py::test_small_field_tables_match_polymul_walk",
            "tests/test_gf.py::test_large_field_tables_match_polymul_walk"),
           "the p = 2 exp build multiplies every doubled block by zeta, not by "
           "zeta**L; the first 512 powers are walked, so only F_{2^m} with "
           "m >= 10 sees it, and its closure check raises"),
    Mutant("byte-plane-dropped", "src/hmdft/gf.py",
           (("            for j in range(nb):\n                acc ^= ",
             "            for j in range(nb - 1):\n                acc ^= "),),
           ("tests/test_gf.py::test_large_field_tables_match_polymul_walk",
            "tests/test_gf.py::test_exp_table_at_the_cap_by_sampled_powers"),
           "the p = 2 exp build's XOR skips the top input byte plane; fields "
           "with m <= 9 are walked, so only F_{2^m} with m >= 10 (2 and 3 "
           "planes) sees it.  The closure check raises from m = 11 on; "
           "F_{2^10}'s table of 654 distinct codes, one of them 0, passes "
           "zeta**M = 1 and log[1] = 0, and the log table's exact "
           "certificate (log[0] = -1, the sum of its logs) refuses it"),
    Mutant("prepared-tail-not-negated", "src/hmdft/gf.py",
           (("log[neg(c)] - M", "log[c] - M"),),
           ("tests/test_gf.py::test_prepared_division_matches_term_by_term",
            "tests/test_spectral.py::test_order_route_matches_both_oracles_every_small_monic_h"),
           "a prepared divisor adds f * h_j below each top term instead of "
           "f * (-h_j); -1 = 1 in characteristic 2, so only odd p sees it"),
    Mutant("prepared-lead-inverse-dropped", "src/hmdft/gf.py",
           (("-log[h[-1]] % M", "0"),),
           ("tests/test_gf.py::test_prepared_division_matches_term_by_term",
            "tests/test_gf.py::test_ben_or_matches_rabin_on_every_monic"),
           "a prepared divisor takes its lead for 1, so each quotient term is "
           "c, not c/h_d; every modulus is monic, so only a non-monic "
           "divisor, as _gcd passes its remainders, sees it"),
    Mutant("zech-wrap-dropped", "src/hmdft/gf.py",
           (("        succ[p - 1::p] = log[0::p]\n", ""),),
           ("tests/test_gf.py::test_zech_table_matches_digitwise_reference",
            "tests/test_gf.py::test_add_codes_match_digitwise_reference"),
           "adding 1 to a constant digit p - 1 carries into the next digit, "
           "so every Zech sum through such a code is wrong"),
    Mutant("element-degree-skips-two-divisors", "src/hmdft/gf.py",
           (("numtheory.divisors(n)[:-1]", "numtheory.divisors(n)[:-2]"),),
           ("tests/test_gf.py::test_element_degree_examples",
            "tests/test_gf.py::test_element_degree_counts"),
           "the degree rule skips the largest proper divisor of n too, so an "
           "element of F_{q^d}, d that divisor, reads as degree n"),
    Mutant("empty-modulus-check-dropped", "src/hmdft/cyclic.py",
           (("    if N < 1:\n"
             "        raise ValueError(f\"modulus N must be at least 1, not N={N}\")\n",
             "    pass\n"),),
           ("tests/test_cyclic.py::test_cyclic_refusals",),
           "Z_N with N < 1 is built: SupportSet reduces mod 0 or a negative N, "
           "and CyclicFn holds no value at all"),
    Mutant("top-binomials-sign-flip", "src/hmdft/numtheory.py",
           (("[p - 1 if sum(digits(k, p)) % 2 else 1 ",
             "[1 if sum(digits(k, p)) % 2 else p - 1 "),),
           ("tests/test_numtheory.py::test_top_binomials_match_exact_binomials",
            "tests/test_symfun.py::test_mask_period_matches_transform_side_oracle"),
           "C(q - 1, k) mod p takes the sign of the wrong digit-sum parity, so "
           "every mask coefficient over odd p is negated or not"),
    Mutant("descent-if-for-while", "src/hmdft/cyclic.py",
           (("        while r % ell == 0 and is_period(r // ell):\n",
             "        if r % ell == 0 and is_period(r // ell):\n"),),
           ("tests/test_cyclic.py::test_least_period_divides_n_and_matches_brute",
            "tests/test_cyclic.py::test_descent_matches_ascending_scan"),
           "the descent divides by each prime at most once, so a least "
           "period missing a square of a prime of N is reported too large"),
    Mutant("xor-runs-undoubled", "src/hmdft/cyclic.py",
           (("    E = ctx.exp * 2  #", "    E = ctx.exp  #"),),
           ("tests/test_dft_routes.py::test_polynomial_inputs_take_runs",
            "tests/test_dft_routes.py::test_routes_match_brute_force_on_sparse_inputs",
            "tests/test_dft_routes.py::test_runs_cut_few_slices",
            "tests/test_dft_routes.py::test_routes_at_the_edge_of_the_slice_budget"),
           "the XOR runs read the field's exp array once, not doubled, "
           "so a run that crosses the wrap at M is cut short"),
    Mutant("coset-walk-zero-branch-dropped", "src/hmdft/cyclic.py",
           (("ls = (ls + z) % M if z >= 0 else -1", "ls = (ls + z) % M"),),
           ("tests/test_dft_routes.py::test_cancelling_partial_sum_restarts",
            "tests/test_dft_routes.py::test_log_domain_sums_match_the_add_loop"),
           "a Zech sum that cancels to 0 is read as the log zech < 0 points "
           "past, so the next term joins a wrong partial sum"),
    Mutant("coset-walk-term-log-unreduced", "src/hmdft/cyclic.py",
           (("lt = (lc + kj * i) % M", "lt = lc + kj * i"),),
           ("tests/test_dft_routes.py::test_log_domain_sums_match_the_add_loop",
            "tests/test_cyclic.py::test_dft_against_brute_force"),
           "a term's log is left past M, so the Zech step reads the table at "
           "the wrong difference, or past its end"),
    Mutant("coset-walk-subfield-of-zeta", "src/hmdft/cyclic.py",
           (("FieldElement(ctx, exp[G % M])", "FieldElement(ctx, exp[1])"),),
           ("tests/test_dft_routes.py::test_other_inputs_take_the_coset_walk",),
           "the walk reads the degree of zeta, m, so P = 1 mod N and every "
           "point is summed alone; each transform stays right, so only the "
           "pass count sees it"),
    Mutant("certificate-cache-keyed-on-low", "src/hmdft/symfun.py",
           (("        side = not c\n", "        side = (1 if c else q - 1) == q - 1\n"),),
           ("tests/test_symfun.py::test_shift_certificate_keys_on_whether_c_is_zero",),
           "mask_periods keys its verdict tables on low, so at q = 2, where both "
           "sides have low = 1, every c reads the c = 0 side's table; the tries "
           "and digit tests agree there, so every period stays right and only "
           "the tables formed show it"),
    Mutant("verdicts-read-across-sides", "src/hmdft/symfun.py",
           (("        low, tries, verdicts = tables[side]\n",
             "        low, tries, verdicts = *tables[side][:2], tables.get(True, tables[side])[2]\n"),),
           ("tests/test_symfun.py::test_mask_periods_match_a_fresh_descent_per_c",
            "tests/test_harness.py::test_sweep_shares_certificates_and_factors_each_q_once"),
           "once c = 0 has run, every c != 0 reads the c = 0 side's verdicts, "
           "certificates from points of another mask; they refute only shifts "
           "that are no period of a c != 0 mask on the grids, so the periods "
           "stay right and only the digit tests made show it"),
    Mutant("level-coefs-neg-dropped", "src/hmdft/symfun.py",
           (("[neg(mul(binom[k], mul(power(sign, k), power(b, q - 1 - k))))",
             "[mul(binom[k], mul(power(sign, k), power(b, q - 1 - k)))"),),
           ("tests/test_symfun.py::test_mask_period_matches_transform_side_oracle",
            "tests/test_symfun.py::test_delta_mask_binomial_expansion"),
           "every mask coefficient over odd p is negated, on both mask routes "
           "at once, so only oracles outside _level_coefs see it"),
    Mutant("certificate-admits-x-0", "src/hmdft/symfun.py",
           (("        if d and (rest or not low <= k < q or max(d) > k):\n",
             "        if not d or (rest or not low <= k < q or max(d) > k):\n"),),
           ("tests/test_symfun.py::test_shift_certificates_check_out_on_periods_grid",),
           "a shift landing on x = 0 is read as a zero of the mask, but slot 0 "
           "holds 1 + coef_0, so the certificate is false; no period of the "
           "grid changes, so only the certificate check sees it"),
    Mutant("slot-0-wrap-dropped", "src/hmdft/symfun.py",
           (("self._slot0 = add(add(1, coef[0]), coef[q - 1] if w == n else 0)",
             "self._slot0 = add(1, coef[0])"),),
           ("tests/test_symfun.py::test_mask_points_match_delta_mask",),
           "at w = n the all-(q-1) vector sums to q**n - 1, which wraps to slot "
           "0; without it the point reader's mask(0) differs from delta_mask"),
    Mutant("counts-c0-reads-full-key", "src/hmdft/symfun.py",
           (("return False, _fixed_by_generators([v if v >= top else 0 for v in key], q, n)",
             "return False, False"),),
           ("tests/test_harness.py::test_planted_counts_split_the_symmetry_verdict_at_c_0",),
           "c = 0 takes the full key's refusal, so a c = 0 mask, which reads "
           "level q - 1 alone, reads asymmetric from another level's counts; "
           "the real counts pass the full key, so only planted counts see it"),
    Mutant("counts-key-count-dropped", "src/hmdft/symfun.py",
           (("bytes([0, *range(k * p + 1, k * p + p)])", "bytes([0] + [k * p + 1] * (p - 1))"),),
           ("tests/test_symfun.py::test_multiset_counts_match_weight_counts",),
           "the byte lanes' key holds the level alone, so counts that differ "
           "within a level's orbit would pass the symmetry check; the real "
           "counts are constant there, so only the count oracle sees it"),
    Mutant("lane-wrap-fold-dropped", "src/hmdft/symfun.py",
           (("return ((acc & low) + (acc >> wrap)).to_bytes(", "return (acc & low).to_bytes("),),
           ("tests/test_symfun.py::test_multiset_counts_match_weight_counts",),
           "the lanes past N are cut off, not wrapped to the points they "
           "reach mod N, so every tuple of Omega whose sum passes N is lost"),
    Mutant("lane-mod-table-mod-p-plus-one", "src/hmdft/symfun.py",
           (("mod = (bytes(range(p)) * (256 // p + 1))[:256]",
             "mod = (bytes(range(p + 1)) * (256 // p + 1))[:256]"),),
           ("tests/test_symfun.py::test_multiset_counts_match_weight_counts",),
           "the lanes are reduced mod p + 1, so a count of p or more reads "
           "wrong, and a level's wrong counts feed every level after it"),
    Mutant("counts-two-levels-check-dropped", "src/hmdft/symfun.py",
           (("    if key.count(0) != N - size:\n        raise ValueError(f\"two levels",
             "    if False:\n        raise ValueError(f\"two levels"),),
           ("tests/test_symfun.py::test_two_levels_at_one_point_raise",),
           "two levels at one point go unseen, and the key keeps one of them; "
           "the real counts never meet, so only a planted Omega sees it"),
    Mutant("lanes-ignore-density", "src/hmdft/symfun.py",
           (("if lanes and len(level) * 256 >= N:", "if lanes:"),),
           ("tests/test_symfun.py::test_weight_counts_route_each_level_by_density",),
           "every level whose sums fit a byte goes to the lanes, sparse or "
           "not, so a level of a few points pays passes over all N bytes; "
           "the counts are the same, so only the route test sees it"),
    Mutant("symmetry-swap-clause-dropped", "src/hmdft/symfun.py",
           (("\n            and all(codes[d0 + d1 * q::qq] == codes[d1 + d0 * q::qq]\n"
             "                    for d1 in range(q) for d0 in range(d1)))", ")"),),
           ("tests/test_symfun.py::test_is_q_symmetric_exact_above_eight_digits",),
           "the slice rule checks the n-cycle alone, so a function invariant "
           "under rotation only, as adjacent digit pairs at n = 9, passes"),
    Mutant("phi-rho-modulus-plus-one", "src/hmdft/symfun.py",
           (("k % (q ** n - 1)", "k % (q ** n + 1)"),),
           ("tests/test_symfun.py::test_phi_rho_reads_k_modulo_q_to_the_n_minus_1",),
           "phi_rho reduces k modulo q**n + 1, which differs from q**n - 1 "
           "only for k >= q**n - 1"),
    Mutant("poly-range-check-dropped", "src/hmdft/gf.py",
           (("        check_codes(ctx.order, codes, \"coefficient\")\n", ""),),
           ("tests/test_gf.py::test_gf_refusals",
            "tests/test_refusals.py::test_a_refusal_is_a_plain_value_error"),
           "PolyFq keeps a code outside [0, order), which the field's tables "
           "read, a negative one from their end, as some other code; the "
           "CLI's --poly has no range check of its own"),
    Mutant("check-modulus-q-floor-dropped", "src/hmdft/gf.py",
           (("    check_q(q)\n    if not 1 <= n <= N.bit_length():\n",
             "    if not 1 <= n <= N.bit_length():\n"),),
           ("tests/test_symfun.py::test_symfun_refusals",),
           "check_modulus takes a negative q whose q**n - 1 is N, as (-3)**2 - 1 "
           "= 8, and is_q_symmetric reads an asymmetric f on Z_8 as symmetric"),
    Mutant("q-floor-admits-one", "src/hmdft/gf.py",
           (("    if q < 2:\n        raise ValueError(f\"q must be at least 2, not q={q}\")\n",
             "    if q < 1:\n        raise ValueError(f\"q must be at least 2, not q={q}\")\n"),),
           ("tests/test_refusals.py::test_every_q_floor_refusal_reads_one_text",),
           "check_q lets q = 1 through, so every rule that calls it reads "
           "Z_{1^n - 1} = Z_0 and fails later, or not at all"),
    Mutant("field-order-factored-first", "src/hmdft/gf.py",
           (("    check_q(q)\n    if q > FIELD_ORDER_CAP:\n",
             "    check_q(q)\n    p, k = numtheory.prime_power(q)\n    if q > FIELD_ORDER_CAP:\n"),
            ("    return numtheory.prime_power(q)\n\n\ndef check_n",
             "    return p, k\n\n\ndef check_n")),
           ("tests/test_refusals.py::test_every_field_order_refusal_reads_one_text",
            "tests/test_harness.py::test_sweep_refuses_a_large_q_without_factoring_it"),
           "check_field_order factors q before its size test, so a q past "
           "FIELD_ORDER_CAP is factored, and one that is no prime power reads "
           "that refusal, not the size cap's"),
    Mutant("n-floor-ignores-least", "src/hmdft/gf.py",
           (("    if n < least:\n", "    if n < 1:\n"),),
           ("tests/test_refusals.py::test_every_n_floor_refusal_reads_one_text",),
           "check_n holds every caller to n >= 1, so the threshold, the "
           "spectral verdicts and the period command take n = 1, which has "
           "no period threshold"),
    Mutant("w-range-upper-bound-dropped", "src/hmdft/gf.py",
           (("    if not least <= w <= most:\n", "    if not least <= w:\n"),),
           ("tests/test_refusals.py::test_every_w_range_refusal_reads_one_text",),
           "check_w takes a w above its top, so omega returns an empty set "
           "for w > n and verify_period_claims runs a w above n/2"),
    Mutant("code-range-admits-order", "src/hmdft/gf.py",
           (("<= max(codes) < order:", "<= max(codes) <= order:"),),
           ("tests/test_refusals.py::test_every_code_range_refusal_reads_one_text",),
           "check_codes takes the code order itself, which the field's "
           "tables read past their end, or as some other code"),
    Mutant("oracle-gcd-step-dropped", "src/hmdft/gf.py",
           (("        if k in gcd_at and len(_gcd(ctx, hm.codes, (PolyFq(ctx, f) - x).codes)) != 1:\n"
             "            return False\n", ""),),
           ("tests/test_gf.py::test_oracle_irreducible_counts_match_gauss",
            "tests/test_spectral.py::test_oracle_irreducible_vs_trial_division"),
           "Rabin's test keeps only x**(q**n) = x mod h, which every squarefree "
           "h with factors of degree dividing n passes"),
    Mutant("oracle-frobenius-row-dropped", "src/hmdft/gf.py",
           (("    for _ in range(n - 2):\n", "    for _ in range(n - 3):\n"),),
           ("tests/test_gf.py::test_oracle_irreducible_counts_match_gauss",
            "tests/test_spectral.py::test_oracle_irreducible_vs_trial_division",
            "tests/test_spectral.py::test_oracle_factor_degrees_random_products",
            "tests/test_spectral.py::test_oracle_factor_degrees_matches_trial_division_exhaustively"),
           "the Frobenius matrix lacks its row x**(q*(n-1)) mod h, so from "
           "degree 3 on a power with a term in x**(n-1) has no row to read; "
           "both oracles read the walk"),
    Mutant("factor-peel-once", "src/hmdft/gf.py",
           (("        while g.degree > 0:\n", "        if g.degree > 0:\n"),),
           ("tests/test_spectral.py::test_oracle_factor_degrees_high_multiplicity",),
           "each degree's gcd is peeled off once, so a repeated factor is left "
           "for later degrees and read as one factor of their sum"),
    Mutant("factor-split-stops-early", "src/hmdft/gf.py",
           (("    while f.degree >= 2 * d:\n", "    while f.degree > 2 * d:\n"),),
           ("tests/test_spectral.py::test_oracle_factor_degrees",),
           "the peeling stops at degree 2d, not below it, so a product of two "
           "degree-d factors, as (x**2 + x + 1)**2 over F_2, reads as [2d]"),
    Mutant("root-indicator-x-dropped", "src/hmdft/spectral.py",
           (("PolyFq.x(ctx) * g.derivative()", "g.derivative()"),),
           ("tests/test_spectral.py::test_build_root_indicator_example",
            "tests/test_spectral.py::test_root_indicator_matches_powering_every_small_h"),
           "S is formed without its factor x, so its value at a root r of g is "
           "1/r, not 1; only g with the root 1 alone, or none, escapes"),
    Mutant("root-gcd-minus-one-dropped", "src/hmdft/spectral.py",
           ((" - PolyFq(ctx, (1,)), h)", ", h)"),),
           ("tests/test_spectral.py::test_order_route_edge_cases",),
           "g = gcd(x**N mod h, h), not gcd(h, x**N - 1), so the all-roots "
           "h, where x**N mod h = 1, reads g = 1 and r = 1, not N"),
    Mutant("delegated-row-undelegated", "src/hmdft/harness.py",
           (("delegated_to_w=v if 0 < v < w else None", "delegated_to_w=None"),),
           ("tests/test_harness.py::test_sweep_full_w_policy_delegates",
            "tests/test_harness.py::test_grouped_sweep_matches_the_per_row_sweep"),
           "a row with n/2 < w < n reports the period of n - w without naming "
           "it, as if its own mask had that period"),
    Mutant("grid-pinned-c-unchecked", "src/hmdft/harness.py",
           (("    if cfg.pinned_c is not None:  # a norm row with no witness reads no c\n"
             "        check_codes(qs[0], (cfg.pinned_c,), \"pinned c\")\n", ""),),
           ("tests/test_cli.py::test_hm_verify_refuses_a_pinned_c_outside_f_q",),
           "a pinned c that is no F_q code reaches the rows, and a norm row "
           "with no witness, which reads no c, reports it ok"),
    Mutant("parser-required-check-dropped", "src/hmdft/cli.py",
           (("    if missing:\n"
             "        _usage(cmd, \"the following flags are required: \" + \", \".join(missing))\n",
             ""),),
           ("tests/test_cli.py::test_usage_error_exits_2_with_usage_and_message",),
           "a command with a required flag missing runs with None for it, "
           "and fails later, if at all, without a usage error"),
    Mutant("parser-int-conversion-skipped", "src/hmdft/cli.py",
           (("                value = int(value)\n", "                pass\n"),),
           ("tests/test_cli.py::test_usage_error_exits_2_with_usage_and_message",
            "tests/test_cli.py::test_flag_value_forms_and_repeats_read_alike"),
           "an int flag keeps its text, so --q=x reaches the handler and "
           "every int option is compared and computed on as a str"),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the copy of the tree at ``root``."""
    target = root / mutant.path
    text = target.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError(f"{mutant.name}: text to replace occurs "
                             f"{text.count(old)} times in {mutant.path}")
        text = text.replace(old, new)
    target.write_text(text)


def run(mutant: Mutant) -> bool:
    """Whether a node id of ``mutant`` fails on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="hmdft-mutant-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.node_ids], cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 1: some test failed
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    return proc.returncode == 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run")
    ap.add_argument("--all", action="store_true", help="run every mutant")
    ap.add_argument("--list", action="store_true", help="list the mutants")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.note}")
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown or not (args.all or args.names):
        ap.error(f"unknown mutant {unknown[0]}" if unknown else "name a mutant or --all")
    chosen = MUTANTS if args.all else [by_name[n] for n in args.names]
    survived = 0
    start = time.perf_counter()
    for m in chosen:
        t0 = time.perf_counter()
        killed = run(m)
        survived += not killed
        print(f"{m.name}: {'killed' if killed else 'survived'} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
