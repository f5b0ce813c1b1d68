"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are printed to stdout; the repository's pytest addopts include
-rP so they are replayed in the run summary even when the tests pass.
Every criterion is exhaustive at its stated orders; order-4 sweeps run on
isomorphism-class representatives, which suffices because every property
checked is isomorphism-invariant.
"""

import json
import random
import time

import pytest

import semiring_lab as sl
from semiring_lab.cli import main

from conftest import naive_labeled_count


def _criterion(num, description, ok, detail=""):
    line = "[%s] acceptance criterion %d: %s" % (
        "PASS" if ok else "FAIL", num, description)
    if detail:
        line += " (%s)" % detail
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def order4_instances(small_semirings, iso4):
    """Everything of order <= 3 labeled, plus order-4 iso representatives."""
    return small_semirings + iso4


def test_criterion_1_golden_sigma(golden3):
    started = time.monotonic()
    sig = sl.sigma(golden3)
    star = sl.sigma_star(golden3)
    elapsed = time.monotonic() - started
    expected = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}
    ok = (sig.pairs == expected
          and not sig.contains(0, 2)
          and len(star.pairs) == 9
          and elapsed < 1.0)
    _criterion(1, "golden 3-element example: sigma not transitive, "
                  "sigma* universal", ok, "%.3fs" % elapsed)


def test_criterion_2_eta_triple_agreement(labeled_by_order):
    started = time.monotonic()
    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        for t in labeled_by_order[n]:
            parts = {sl.least_dl_congruence(t, m).labels
                     for m in ("meet_oracle", "sigma_closure", "sigma_star")}
            checked += 1
            if len(parts) != 1:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60.0
    _criterion(2, "eta methods agree on all %d labeled instances of "
                  "order <= 3" % checked, ok,
               "%d mismatches, %.1fs" % (mismatches, elapsed))


def test_criterion_3_theorem_suites(capsys):
    started = time.monotonic()
    code3 = main(["verify", "--suite", "all", "--max-order", "3"])
    out3 = capsys.readouterr().out
    elapsed3 = time.monotonic() - started
    bad3 = json.loads(out3)["results"]["inconsistencies"]

    started4 = time.monotonic()
    code4 = main(["verify", "--suite", "all", "--max-order", "4", "--iso"])
    out4 = capsys.readouterr().out
    elapsed4 = time.monotonic() - started4
    bad4 = json.loads(out4)["results"]["inconsistencies"]

    ok = (code3 == 0 and bad3 == 0 and elapsed3 < 300.0
          and code4 == 0 and bad4 == 0 and elapsed4 < 1800.0)
    _criterion(3, "full theorem catalog consistent at order <= 3 labeled "
                  "and order 4 up to iso", ok,
               "order<=3: %d bad in %.1fs; order 4: %d bad in %.1fs"
               % (bad3, elapsed3, bad4, elapsed4))


def test_criterion_4_normal_band_consequence(order4_instances):
    normal = sl.parse_identity("xyzx = xzyx")
    violations = 0
    members = 0
    for t in order4_instances:
        if sl.in_variety(t, "D_dot"):
            members += 1
            if not sl.satisfies_identity(t, normal)[0]:
                violations += 1
    ok = violations == 0 and members > 0
    _criterion(4, "every D_dot member of order <= 4 has a normal "
                  "multiplicative band", ok,
               "%d members, %d violations" % (members, violations))


def test_criterion_5_spined_round_trip(order4_instances, labeled_by_order):
    failures = 0
    members = 0
    for t in order4_instances:
        if not sl.in_variety(t, "D_dot"):
            continue
        members += 1
        decomp = sl.spined_decompose(t)
        rebuilt, _ = sl.spined_product(decomp.s1, decomp.s2, decomp.d,
                                       decomp.phi1, decomp.phi2)
        if sl.is_isomorphic(t, rebuilt) is None:
            failures += 1

    # converse direction: random spined products of L_dot / R_dot members
    # over a shared spine land in D_dot
    pool = labeled_by_order[1] + labeled_by_order[2] + labeled_by_order[3]
    by_spine_l = {}
    by_spine_r = {}
    for t in pool:
        d, proj = sl.quotient(t, sl.eta(t))
        key = sl.canonical_form(d)
        if sl.in_variety(t, "L_dot"):
            by_spine_l.setdefault(key, []).append((t, d, proj))
        if sl.in_variety(t, "R_dot"):
            by_spine_r.setdefault(key, []).append((t, d, proj))
    keys = sorted(set(by_spine_l) & set(by_spine_r),
                  key=lambda k: (k.order, k.add, k.mul))
    rng = random.Random(20260824)
    product_failures = 0
    for _ in range(100):
        key = rng.choice(keys)
        s1, d1, proj1 = rng.choice(by_spine_l[key])
        s2, d2, proj2 = rng.choice(by_spine_r[key])
        iso = sl.is_isomorphic(d2, d1)
        phi2 = [iso[x] for x in proj2]
        prod, _ = sl.spined_product(s1, s2, d1, list(proj1), phi2)
        if not sl.in_variety(prod, "D_dot"):
            product_failures += 1

    ok = failures == 0 and product_failures == 0 and members > 0
    _criterion(5, "spined decomposition round-trips on all order <= 4 "
                  "D_dot members; 100 random spined products are D_dot "
                  "members", ok,
               "%d members, %d round-trip failures, %d product failures"
               % (members, failures, product_failures))


def test_criterion_6_malcev_equivalences(order4_instances):
    lz_d = sl.malcev_product("LZ_dot", "D")
    rz_d = sl.malcev_product("RZ_dot", "D")
    mismatches = 0
    for t in order4_instances:
        if sl.in_variety(t, "L_dot") != sl.malcev_membership(t, lz_d)[0]:
            mismatches += 1
        if sl.in_variety(t, "R_dot") != sl.malcev_membership(t, rz_d)[0]:
            mismatches += 1
    ok = mismatches == 0
    _criterion(6, "L_dot coincides with LZ_dot o D and R_dot with "
                  "RZ_dot o D at order <= 4", ok,
               "%d mismatches over %d instances"
               % (mismatches, len(order4_instances)))


def test_criterion_7_enumeration_oracle(labeled_by_order):
    mismatches = []
    for n in (1, 2, 3):
        generated = len(labeled_by_order[n])
        oracle = naive_labeled_count(n)
        if generated != oracle:
            mismatches.append((n, generated, oracle))
    ok = not mismatches
    _criterion(7, "backtracking generator counts match the naive filter "
                  "oracle at orders 1-3", ok, str(mismatches) if mismatches
               else "counts %s" % [len(labeled_by_order[n]) for n in (1, 2, 3)])


def test_criterion_8_quasi_order_equivalence(order4_instances):
    mismatches = 0
    for t in order4_instances:
        l_mul, r_mul, _ = sl.green_mult(t)
        _, _, le_l_mul, le_r_mul, le_add, _ = sl.quasi_orders(t)
        e = sl.eta(t)
        if le_l_mul.is_subset_of(le_add) != (e == l_mul):
            mismatches += 1
        if le_r_mul.is_subset_of(le_add) != (e == r_mul):
            mismatches += 1
    ok = mismatches == 0
    _criterion(8, "le_l_mul within le_add iff eta = L_dot, and dually, "
                  "at order <= 4", ok,
               "%d mismatches over %d instances"
               % (mismatches, len(order4_instances)))


def test_criterion_9_worker_determinism(capsys):
    main(["verify", "--suite", "all", "--max-order", "3", "--workers", "1"])
    out1 = capsys.readouterr().out
    main(["verify", "--suite", "all", "--max-order", "3", "--workers", "8"])
    out8 = capsys.readouterr().out
    ok = out1 == out8 and len(out1) > 0
    _criterion(9, "verify reports are byte-identical with 1 and 8 workers",
               ok, "%d bytes" % len(out1))
