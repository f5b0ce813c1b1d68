import collections
import copy
import gc
import hashlib
import pickle
import random
import tracemalloc

import pytest

import semiring_lab as sl
from semiring_lab import cli, congruences, core, relations, structure, varieties
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
        shared = sl.Analysis(r)
        for tid in sorted(THEOREMS):
            assert sl.verify_theorem(shared, tid) == sl.verify_theorem(t, tid), tid


# sha256 of the repr of every TheoremReport, one per line, over the 835
# order-4 classes in enumeration order and the theorems in sorted order;
# frozen from the recursive evaluator with no per-instance sharing
THEOREM_REPORTS_SHA256 = (
    "2d16c732b1f5ce21d3ab50f6439e0ceca07fc9ae45b3eed900fce38f707b6a0b")
# the same over the 9 407 order-5 classes, frozen while quotient and the
# spined decomposition still re-checked what they now take as proved
THEOREM_REPORTS_ORDER5_SHA256 = (
    "4584a601b277a75ab1dadbcac852da9ac935fae6cf4a755405c9568d55728b3e")


def _theorem_reports_digest(ts):
    digest = hashlib.sha256()
    for t in ts:
        analysis = sl.Analysis(t)
        for tid in sorted(THEOREMS):
            digest.update(repr(sl.verify_theorem(analysis, tid)).encode() + b"\n")
    return digest.hexdigest()


def test_theorem_reports_are_frozen(iso4):
    assert len(iso4) == 835
    assert _theorem_reports_digest(iso4) == THEOREM_REPORTS_SHA256


@pytest.mark.slow
def test_order5_theorem_reports_are_frozen():
    # about 12 s: the order-5 enumeration and the sweep over it
    iso5 = sl.all_idempotent_semirings(5, up_to_iso=True)
    assert len(iso5) == 9407
    assert _theorem_reports_digest(iso5) == THEOREM_REPORTS_ORDER5_SHA256


def test_shared_analysis_computes_each_relation_once(monkeypatch, dl2, golden3):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("green_add", relations.green_add),
                     ("green_mult", relations.green_mult),
                     ("eta", congruences.eta), ("sigma", congruences.sigma),
                     ("parse_term", core.parse_term), ("compile", core._compile)):
        for module in (core, relations, congruences, structure, varieties, cli):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    suite = tuple(sorted(THEOREMS))
    for t in (dl2, golden3):  # dl2 reaches every branch of the suite
        calls.clear()
        assert cli._verify_one((t.order, 0, t, suite)) == []
        assert calls["green_add"] == calls["green_mult"] == calls["sigma"] == 1
        assert calls["eta"] <= 1 and calls["parse_term"] == 0, calls
        calls.clear()
        cli._verify_one((t.order, 0, t, suite))
        assert calls["compile"] == 0, calls


def test_identities_pickle_and_copy_after_use(dl2, golden3):
    # compiled evaluators are made by exec and cannot be pickled; they
    # must stay out of the pickled state of everything that holds them
    ident = sl.parse_identity("xyzx = xzyx")
    spec = sl.CATALOG["LN"]
    cfg = sl.EnumConfig(order=3, up_to_iso=True,
                        filter=sl.malcev_product("RB", "LZ_plus", "D"))
    sl.satisfies_identity(dl2, ident)
    sl.variety_membership(dl2, spec)
    sl.malcev_membership(dl2, cfg.filter)
    assert "failures" in vars(ident) and "failures" in vars(spec.identities[0])
    for obj in (ident, spec, cfg):
        for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert copied == obj
    again = pickle.loads(pickle.dumps(ident))
    assert sl.satisfies_identity(golden3, again) == sl.satisfies_identity(golden3, ident)


def test_theorem_sweep_retains_no_memory(labeled_by_order):
    # nothing computed for one instance may outlive its checks, whether
    # each theorem analyses the instance afresh or the CLI's per-instance
    # Analysis is shared across the suite
    instances = labeled_by_order[3]
    assert len(instances) == 379
    suite = tuple(sorted(THEOREMS))
    for tid in THEOREMS:  # first calls may import lazily
        sl.verify_theorem(instances[0], tid)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, t in enumerate(instances):
            for tid in THEOREMS:
                sl.verify_theorem(t, tid)
            cli._verify_one((3, i, t, suite))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 64 * 1024, "%d bytes retained" % retained
