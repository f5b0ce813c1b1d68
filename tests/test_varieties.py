import gc
import random
import tracemalloc

import pytest

import semiring_lab as sl
from semiring_lab.relations import Partition
from semiring_lab.varieties import THEOREMS, green_relation

from conftest import relabel_seeded


def test_membership_examples(golden3, dl2):
    assert not sl.in_variety(golden3, "N")
    assert not sl.in_variety(golden3, "LZ_dot")  # ca = a != c
    assert sl.in_variety(dl2, "D")
    assert sl.in_variety(dl2, "N")


def test_membership_is_identity_conjunction(dl2):
    spec = sl.VarietySpec("ad-hoc", (sl.parse_identity("x+y = y+x"),
                                     sl.parse_identity("xy = x")))
    assert not sl.variety_membership(dl2, spec)


def test_green_relation_selector(golden3):
    assert green_relation(golden3, "D_dot") == Partition.from_blocks(3, [[0, 1], [2]])
    with pytest.raises(sl.PreconditionError):
        green_relation(golden3, "H_dot")


def test_eta_equals_relation_examples(golden3, dl2):
    assert sl.eta_equals_relation(dl2, "D_dot")  # both are equality
    assert not sl.eta_equals_relation(golden3, "D_dot")
    assert not sl.eta_equals_relation(golden3, "D_plus")


def test_verify_theorem_examples(golden3, dl2, order1):
    r = sl.verify_theorem(golden3, "THM_3_1")
    assert r.consistent
    assert all(v is False for _, v in r.conditions)

    r = sl.verify_theorem(dl2, "THM_3_3")
    assert r.consistent
    assert all(v is True for _, v in r.conditions)

    for tid in THEOREMS:
        assert sl.verify_theorem(order1, tid).consistent


def test_unknown_theorem(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.verify_theorem(golden3, "THM_9_9")


def test_full_catalog_consistent_small(small_semirings):
    # any inconsistency contradicts a proved theorem: build-stopping
    for t in small_semirings:
        for tid in THEOREMS:
            report = sl.verify_theorem(t, tid)
            assert report.consistent, (tid, t)


def test_d_members_have_trivial_eta(small_semirings):
    for t in small_semirings:
        if sl.in_variety(t, "D"):
            assert sl.eta(t) == Partition.equality(t.order)


def test_l_dot_and_r_dot_inside_d_dot(small_semirings, iso4):
    for t in small_semirings + iso4:
        if sl.in_variety(t, "L_dot") or sl.in_variety(t, "R_dot"):
            assert sl.in_variety(t, "D_dot")


def test_l_dot_mult_reduct_left_regular_and_left_normal(small_semirings):
    left_regular = sl.parse_identity("xyx = xy")
    left_normal = sl.parse_identity("xyz = xzy")
    for t in small_semirings:
        if sl.in_variety(t, "L_dot"):
            assert sl.satisfies_identity(t, left_regular)[0]
            assert sl.satisfies_identity(t, left_normal)[0]


def test_thm_4_3_observed_variants_fail_somewhere(small_semirings):
    # the eta=R-dot reading of the overloaded first factor is refuted by
    # finite instances; the as-printed RB reading is the gating condition
    seen_bad = {"LN_iff_Rdot_malcev_LZplus_D": False,
                "LN_iff_Ldot_malcev_LZplus_D": False}
    for t in small_semirings:
        r = sl.verify_theorem(t, "THM_4_3")
        assert r.consistent
        for label, value in r.observations:
            if not value:
                seen_bad[label] = True
    assert all(seen_bad.values())


def test_bi_equals_lqbi_and_rqbi(small_semirings):
    for t in small_semirings[::6]:
        assert sl.in_variety(t, "Bi") == (
            sl.in_variety(t, "LQBi") and sl.in_variety(t, "RQBi"))


def test_relabelling_leaves_invariants_unchanged(iso_small):
    # metamorphic: no isomorphism-invariant output may see the labels
    rng = random.Random(5120)
    for t in iso_small:
        r = relabel_seeded(t, rng)
        assert ([sl.in_variety(r, name) for name in sorted(sl.CATALOG)]
                == [sl.in_variety(t, name) for name in sorted(sl.CATALOG)])
        assert (sorted(map(len, sl.eta(r).blocks()))
                == sorted(map(len, sl.eta(t).blocks())))
        for tid in sorted(THEOREMS):
            assert sl.verify_theorem(r, tid) == sl.verify_theorem(t, tid), tid


def test_theorem_sweep_retains_no_memory(labeled_by_order):
    # nothing computed for one instance may outlive its checks
    instances = labeled_by_order[3]
    assert len(instances) == 379
    for tid in THEOREMS:  # first calls may import lazily
        sl.verify_theorem(instances[0], tid)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in instances:
            for tid in THEOREMS:
                sl.verify_theorem(t, tid)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 64 * 1024, "%d bytes retained" % retained
