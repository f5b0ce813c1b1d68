import collections
import copy
import gc
import hashlib
import pickle
import random
import time
import tracemalloc
from functools import partial

import pytest

import semiring_lab as sl
from semiring_lab import cli, congruences, core, relations, varieties
from semiring_lab.enumeration import _Budget
from semiring_lab.relations import Partition
from semiring_lab.varieties import THEOREMS, _spined_obstruction

from conftest import is_congruence_by_substitution, relabel_seeded, set_partitions


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
    assert sl.Analysis(golden3).green["D_dot"] == Partition.from_blocks(3, [[0, 1], [2]])
    with pytest.raises(sl.PreconditionError, match="unknown relation 'H_dot'"):
        sl.eta_equals_relation(golden3, "H_dot")


def test_analysis_refuses_a_non_idempotent_table():
    # a semiring whose . is constant: 0.0 = 1
    t = sl.SemiringTable.from_rows([[0, 1], [1, 1]], [[1, 1], [1, 1]])
    assert sl.validate_semiring(t).is_semiring
    with pytest.raises(sl.PreconditionError, match="Analysis needs an idempotent"):
        sl.Analysis(t)


def test_membership_refuses_unknown_names_and_empty_products(monkeypatch, golden3):
    a = sl.Analysis(golden3)
    for names in ((), ("nope",), ("LZ_plus", "nope")):
        with pytest.raises(sl.PreconditionError):
            a.member(*names)
    # the names are checked on a cache miss only: a hit is one lookup
    member = a.member("LZ_plus", "D")

    def refuse(*names):
        raise AssertionError("a cached membership checked its names again")
    monkeypatch.setattr(varieties, "malcev_product", refuse)
    assert a.member("LZ_plus", "D") == member


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


def _with_relabellings(classes, seed):
    """Each class, then one seeded relabelling of it."""
    rng = random.Random(seed)
    for t in classes:
        yield t
        yield relabel_seeded(t, rng)


def test_lemma_4_2_clause_matches_the_quotient_route(iso_upto4):
    # oracle for the clause read off the blocks of eta: build S/D. and ask
    # an Analysis of its own whether it lies in LZ_plus o D
    seen = set()
    for t in _with_relabellings(iso_upto4, 4201):
        d_mul = sl.green_mult(t)[2]
        clause = sl.is_congruence(t, d_mul) and sl.Analysis(
            congruences._quotient(t, d_mul)[0]).member("LZ_plus", "D")
        conditions = dict(sl.verify_theorem(t, "LEMMA_4_2").conditions)
        assert conditions["Ddot_congruence_and_quotient_in_LZplus_malcev_D"] == clause
        seen.add(clause)
    assert seen == {False, True}


def test_quasi_order_inclusions_match_the_relations(iso_upto4):
    # oracle for THM_3_3's and THM_3_4's inclusion conditions, which judge
    # reads off identities: the quasi-orders built as relations
    seen = set()
    for t in _with_relabellings(iso_upto4, 3334):
        a = sl.Analysis(t)
        judged = (dict(varieties.judge(a, "THM_3_3")[1])["le_l_mul_in_le_add"],
                  dict(varieties.judge(a, "THM_3_4")[1])["le_r_mul_in_le_add"])
        _, _, le_l_mul, le_r_mul, le_add, _ = sl.quasi_orders(t)
        assert judged == (le_l_mul.is_subset_of(le_add), le_r_mul.is_subset_of(le_add)), t
        seen.add(judged)
    assert len(seen) == 4


def test_sigma_is_eta_matches_the_partition_comparison(iso_upto4):
    # oracle for comparing sizes: sigma is an equivalence whose partition
    # is eta
    seen = set()
    for t in _with_relabellings(iso_upto4, 2525):
        a = sl.Analysis(t)
        assert a.sigma_is_eta == (a.sigma_transitive and Partition.from_pairs(
            t.order, a.sigma.pairs) == a.eta)
        seen.add(a.sigma_is_eta)
    assert seen == {False, True}


def _sharing_bands(tables):
    """The tables grouped by + table, each group's rebuilt over one + tuple
    object, in a row, as a band job's tables are: so their Analyses share
    the group's BandFacts."""
    groups = {}
    for t in tables:
        groups.setdefault(t.add, []).append(t)
    return [t._replace(add=add) for add, group in groups.items() for t in group]


def _own_add(t):
    """t over a copy of its + tuple, whose Analysis makes facts of its own."""
    return t._replace(add=tuple(row for row in t.add))


def test_shared_band_facts_give_the_reports_of_an_analysis_of_its_own(iso_upto4):
    # oracle for the facts the tables over one + tuple share: an Analysis
    # of the table over a copy of the tuple, which computes its own
    shared = [sl.Analysis(t) for t in _sharing_bands(_with_relabellings(iso_upto4, 1616))]
    assert len({id(a.band) for a in shared}) == len({a.t.add for a in shared}) < len(shared)
    for a in shared:
        own = _own_add(a.t)
        assert ([sl.verify_theorem(a, tid) for tid in sorted(THEOREMS)]
                == [sl.verify_theorem(own, tid) for tid in sorted(THEOREMS)])
        assert sl.Analysis(own).band is not a.band
        assert a.green["D_plus"] is a.band.green["D_plus"]
        assert a.lines[1] is a.band.transposed


def test_interleaved_and_relabelled_tables_read_the_facts_of_their_own_band(iso4):
    # each class, then a relabelling of it, over the + tuple of another
    # band; then the tables of two bands of one order alternating, and a
    # table over an equal + tuple that is another object
    first = iso4[0]
    other = next(t for t in iso4 if t.add != first.add)
    tables = [*_with_relabellings(iso4[::7], 2929), first, other, first, other,
              _own_add(first)]
    for t in tables:
        a = sl.Analysis(t)
        assert a.band.add == t.add, t
        assert a.green["D_plus"] == sl.green_add(t)[2], t
        assert a.lines[1] == tuple(zip(*t.add)), t
    assert sl.Analysis(first).band is sl.Analysis(first).band


# the right factors whose rho the theorems and the decomposition ask about
RIGHT_FACTORS = (("D",), ("R_plus", "D"), ("LZ_plus", "D"), ("RZ_plus", "D"),
                 ("LZ_dot", "D"), ("RZ_dot", "D"))


def test_shared_table_closures_match_congruence_closure(iso_upto4):
    # oracle for the closures over the Analysis's translation tables
    for t in _sharing_bands(_with_relabellings(iso_upto4, 7070)):
        a = sl.Analysis(t)
        assert a.eta == sl.congruence_closure(t, a.sigma) == sl.eta(t)
        for names in RIGHT_FACTORS:
            seed = core._instances(t, sl.CATALOG[names[0]], a._rho_blocks(names[1:]))
            assert (Partition.from_blocks(t.order, a._rho_blocks(names))
                    == sl.congruence_closure(t, seed)), names


# the three-factor products THEOREMS and OBSERVATIONS ask about
THREE_FACTOR = (("RB", "LZ_plus", "D"), ("RB", "RZ_plus", "D"),
                ("R_dot", "LZ_plus", "D"), ("L_dot", "LZ_plus", "D"))


def _bound_routes(tables):
    """How often each three-factor product is decided by member's upper
    bound, its lower bound and the closure of rho, on each table with and
    without judge_suite's mask; each answer is checked against _relates
    over the blocks of the closure, which member took on every table
    before the bounds."""
    routes = {names: collections.Counter() for names in THREE_FACTOR}
    for t in _sharing_bands(tables):
        closure = sl.Analysis(t)
        for names in THREE_FACTOR:
            expected = core._relates(t, range(t.order), sl.CATALOG[names[0]],
                                     closure._rho_blocks(names[1:]))
            for masked in (False, True):
                a = sl.Analysis(t)
                if masked:
                    a._failed = varieties.JUDGED.failed(t.add, t.mul, range(t.order))
                assert a.member(*names) == expected, (names, t)
                route = ("upper" if a.member(names[0], *names[2:]) else
                         "closure" if names[1:] in a._rho else "lower")
                routes[names][route, masked] += 1
    for counts in routes.values():  # the mask leaves each route as it was
        assert {r: k for (r, m), k in counts.items() if m} == {
            r: k for (r, m), k in counts.items() if not m}
    return {names: {r: k for (r, m), k in counts.items() if not m}
            for names, counts in routes.items()}


def test_three_factor_bounds_match_the_closure(iso_upto4, small_semirings):
    # oracle for member's two bounds on V o W o E: _relates over the blocks
    # of rho(W o E), on every class up to order 4, a seeded relabelling of
    # each and every labelled table up to order 3.  Of the 927 classes, both
    # THM_4_3 products need the closure on 112, and on 59 of the 396 tables
    thm_4_3 = THREE_FACTOR[:2]
    classes = _bound_routes(iso_upto4)
    for names in thm_4_3:
        assert classes[names] == {"upper": 196, "lower": 619, "closure": 112}, classes
    rng = random.Random(9191)
    relabelled = _bound_routes(relabel_seeded(t, rng) for t in iso_upto4)
    assert relabelled == classes
    labelled = _bound_routes(small_semirings)
    for names in thm_4_3:
        assert labelled[names] == {"upper": 123, "lower": 214, "closure": 59}, labelled


def test_label_congruence_test_matches_substitution(iso_upto4):
    # oracle for is_congruence and the congruence tests over an Analysis's
    # shared translation tables, which compare block labels: single-sided
    # substitution through Partition.related, on the six Green partitions,
    # and up to order 3 on every partition
    seen = set()
    for t in _sharing_bands(_with_relabellings(iso_upto4, 6262)):
        a = sl.Analysis(t)
        parts = list(a.green.values())
        if t.order <= 3:
            parts += map(Partition, set_partitions(t.order))
        for p in parts:
            expected = is_congruence_by_substitution(t, p)
            assert relations._compatible(p.labels, a.lines) == expected, p
            assert sl.is_congruence(t, p) == expected, p
            seen.add(expected)
    assert seen == {False, True}


# BAND_SEMIRING_REGULAR's conclusion, the identity BandFacts.regular reads
_REGULAR = "x+y+z+x = x+y+x+z+x"


def test_holds_matches_satisfies_identity(iso_upto4):
    # oracle for the compiled identities Analysis.holds and BandFacts read
    seen = set()
    identities = dict(varieties.THEOREM_IDENTITIES)
    for t in _sharing_bands(_with_relabellings(iso_upto4, 8080)):
        a = sl.Analysis(t)
        for text, ident in identities.items():
            assert a.holds(text) == sl.satisfies_identity(t, ident)[0], text
            seen.add(a.holds(text))
        assert a.band.regular == a.holds(_REGULAR)
    assert seen == {False, True}


def test_holds_refuses_an_unknown_text_as_member_refuses_an_unknown_class(dl2):
    a = sl.Analysis(dl2)
    for judged in (False, True):  # with no mask, then with judge_suite's
        if judged:
            varieties.judge_suite(a, ("LEMMA_1_1", "LEMMA_1_2"))
            assert a._failed is not None
        with pytest.raises(sl.PreconditionError,
                           match=r"unknown identity 'x = y'; known: xz\+xyz\+xz = xz, "):
            a.holds("x = y")
        # the mask's bits of a class are keyed apart from those of a text
        with pytest.raises(sl.PreconditionError, match="unknown identity 'N'; known: "):
            a.holds("N")
        with pytest.raises(sl.PreconditionError, match="unknown class 'NOPE'; known: "):
            a.member("NOPE")


def _judged_tables(iso_upto4, small_semirings):
    """Every class up to order 4 and one relabelling of each, then every
    labelled table up to order 3."""
    return [*_with_relabellings(iso_upto4, 2727), *small_semirings]


def test_the_pass_sets_a_bit_exactly_where_its_identity_fails(iso_upto4, small_semirings):
    # oracle for JUDGED's pass: bit i of the mask is whether identity i's
    # own failures yield anything
    judged = varieties.JUDGED
    always = set(range(len(judged)))
    for t in _judged_tables(iso_upto4, small_semirings):
        mask = judged.failed(t.add, t.mul, range(t.order))
        assert mask >> len(judged) == 0
        for i, ident in enumerate(judged):
            failed = next(ident.failures(t.add, t.mul, range(t.order)), None) is not None
            assert (mask >> i & 1) == failed, (ident, t)
            if failed:
                always.discard(i)
    # only LEMMA_REGBAND's pair holds everywhere; every other bit is read both ways
    assert {judged[i] for i in always} == {varieties.THEOREM_IDENTITIES[text] for text in (
        "xyzx = xyzx+xyxzx+xyzx", "xyxzx = xyxzx+xyzx+xyxzx")}


def _same_conditions_without_the_pass(monkeypatch, tables):
    """judge_suite of every theorem on each table, with the pass over JUDGED
    (run once per Analysis) and without it, where each question read off
    the mask takes its own route, gives the same conditions."""
    calls = []
    failed = varieties.JUDGED.failed

    def judge_all(tables):
        for t in tables:
            a = sl.Analysis(t)
            yield varieties.judge_suite(a, sorted(THEOREMS)), a._failed is None

    monkeypatch.setattr(varieties.JUDGED, "failed", lambda *args: (calls.append(1), failed(*args))[1])
    with_pass = list(judge_all(tables))
    assert len(calls) == len(tables)
    monkeypatch.setattr(varieties.JUDGED, "failed", lambda *args: None)
    without = list(judge_all(tables))
    assert [v for v, unmasked in with_pass] == [v for v, unmasked in without]
    assert {unmasked for _, unmasked in with_pass} == {False}
    assert {unmasked for _, unmasked in without} == {True}


def test_a_suite_gives_the_same_conditions_without_the_pass(monkeypatch, iso_upto4,
                                                            small_semirings):
    # oracle for the questions read off the mask: each one's own route,
    # which judge alone and every other caller take; judge_suite runs the
    # pass once per Analysis, and not for one theorem
    tables = _judged_tables(iso_upto4, small_semirings)
    one = sl.Analysis(tables[-1])
    assert varieties.judge_suite(one, ["THM_4_3"]) == [varieties.judge(one, "THM_4_3")]
    assert one._failed is None
    _same_conditions_without_the_pass(monkeypatch, tables)


@pytest.mark.slow
def test_order5_bounds_and_mask_match_their_oracles(monkeypatch):
    # about 13 s: on every order-5 class, member's two bounds on the four
    # three-factor products against the closure of rho(W o E), and the
    # suite with the pass over JUDGED against it without; the routes are
    # those counted when the lower bounds built a Partition
    iso5 = sl.all_idempotent_semirings(5, up_to_iso=True)
    assert len(iso5) == 9407
    routes = _bound_routes(iso5)
    for names in THREE_FACTOR[:2]:  # THM_4_3's products
        assert routes[names] == {"upper": 837, "lower": 7810, "closure": 760}, routes
    for names in THREE_FACTOR[2:]:  # its observations'
        assert routes[names] == {"upper": 386, "lower": 8433, "closure": 588}, routes
    _same_conditions_without_the_pass(monkeypatch, iso5)


def test_judged_is_what_theorems_ask_of_tables_outside_d_dot(small_semirings):
    # JUDGED holds, each once, the identities of every single-name member
    # and holds question THEOREMS ask of some table outside D_dot, and of
    # every first factor of a product they ask, which a product over one
    # block of rho reads off the mask; the two asked of D_dot members alone
    # stay out, and so do the varieties asked of no table as a single name
    # or first factor (D, Sl_plus, RZ_plus).  Recorded on every table up
    # to order 3, so an edit to THEOREMS cannot leave JUDGED stale
    class Recording(sl.Analysis):
        def __init__(self, t):
            super().__init__(t)
            self.asked, self.first = set(), set()

        def member(self, *names):
            (self.asked if len(names) == 1 else self.first).add(names[0])
            return super().member(*names)

        def holds(self, text):
            self.asked.add(text)
            return super().holds(text)

    asked, outside, first = set(), set(), set()
    for t in small_semirings:
        a = Recording(t)
        for tid in sorted(THEOREMS):
            varieties.judge(a, tid)
        asked |= a.asked
        first |= a.first
        if not a.member("D_dot"):
            outside |= a.asked
    identities = varieties.THEOREM_IDENTITIES
    of = {**{name: spec.identities for name, spec in sl.CATALOG.items()},
          **{text: (ident,) for text, ident in identities.items()}}
    assert len(set(varieties.JUDGED)) == len(varieties.JUDGED)
    assert set(varieties.JUDGED) == {i for q in outside | first for i in of[q]}
    assert asked - outside == {"xyzx = xzyx", "xyzx = xzyx+xyzx+xzyx"}
    assert first == {"R_plus", "LZ_plus", "LZ_dot", "RZ_dot", "RB"}, first
    assert {i.nvars for i in varieties.JUDGED} == {2, 3}


def test_a_band_job_reads_each_additive_fact_once(monkeypatch, iso4):
    # Green's relations of +, the transposed + table and the additive
    # regularity identity, once per band job, however many tables it
    # completes; Green's relations of . once per table
    calls = collections.Counter()
    job_add = []

    def counting(name, fn):
        def wrapper(table, *args):
            calls[name, table is job_add[0]] += 1
            return fn(table, *args)
        return wrapper

    for name, fn in (("_green", relations._green), ("_transpose", relations._transpose)):
        for module in (relations, congruences, varieties, cli):
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    regular = varieties.THEOREM_IDENTITIES[_REGULAR]
    monkeypatch.setitem(vars(regular), "failures",
                        counting("regular", regular.failures))
    suite = tuple(sorted(THEOREMS))
    tables, shared = 0, 0
    for add, auts in sl.enumeration.bands(4, _Budget(10 ** 6, 60.0)):
        calls.clear()
        job_add[:] = [add]
        job = (4, add, auts, 10 ** 6, time.monotonic() + 60)
        _, _, _, found = sl.enumeration._band_job(partial(cli._verify_one, suite), job)
        count = len(found)
        assert [failures for _, _, failures in found] == [()] * count
        in_bi = any(sl.in_variety(sl.SemiringTable.from_rows(add, mul), "Bi")
                    for mul, _ in sl.enumeration.completions(add, auts, _Budget(10 ** 6, 60.0)))
        assert calls["_green", True] == calls["_transpose", True] == 1, calls
        assert calls["regular", True] == in_bi, calls
        assert calls["_green", False] == count, calls
        tables += count
        shared += in_bi and count > 1
    assert tables == len(iso4) and shared > 0


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
    sigma_of = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "sigma":
                sigma_of.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("_green", relations._green),
                     ("eta", congruences.eta), ("sigma", congruences.sigma),
                     ("parse_term", core.parse_term), ("compile", core._compile)):
        for module in (core, relations, congruences, varieties, cli):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    monkeypatch.setattr(varieties, "_band", varieties.BandFacts(()))  # as in a fresh process
    checked = []
    require = core._require_idempotent
    for module in (core, varieties):
        monkeypatch.setattr(module, "_require_idempotent",
                            lambda t, what: checked.append(t) or require(t, what))
    suite = tuple(sorted(THEOREMS))
    for t in (dl2, golden3):  # dl2 reaches every branch of the suite
        calls.clear()
        checked.clear()
        del sigma_of[:]
        assert cli._verify_one(suite, sl.Analysis(t)) == ()
        # one _green per reduct; sigma once, on t (twice while LEMMA_4_2's
        # quotient had an Analysis of its own); 8 idempotency checks of t,
        # one per Malcev call, while the Analysis checked
        assert calls["_green"] == 2 and sigma_of == [t], calls
        assert sum(x is t for x in checked) == 1, checked
        assert calls["eta"] <= 1 and calls["parse_term"] == 0, calls
        calls.clear()
        cli._verify_one(suite, sl.Analysis(t))
        assert calls["compile"] == 0, calls


def test_sweep_tests_each_congruence_and_builds_each_product_once(monkeypatch, iso4):
    # quotients the theorem layer takes only by partitions it has already
    # tested, or by eta, skip quotient's own test; the Analysis reads the
    # catalog directly instead of building a Malcev product per call, and
    # keeps the blocks of each rho
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each congruence test, by is_congruence or over an Analysis's shared
    # tables, is one relations._compatible
    for module, name in ((congruences, "_compatible"), (varieties, "_compatible"),
                         (varieties, "malcev_product")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(Partition, "blocks", counting("blocks", Partition.blocks))
    monkeypatch.setattr(Partition, "__init__", counting("Partition", Partition.__init__))
    monkeypatch.setattr(varieties, "_merge_blocks", counting("merge", varieties._merge_blocks))
    monkeypatch.setattr(varieties, "_CHECKED", set())  # as in a fresh process
    monkeypatch.setattr(relations.BinRelation, "is_equivalence",
                        counting("is_equivalence", relations.BinRelation.is_equivalence))
    suite = tuple(sorted(THEOREMS))
    for t in iso4:
        assert cli._verify_one(suite, sl.Analysis(t)) == ()
    # 2 413 and 9 133 while quotient re-tested and every call built a
    # product; 783 while LEMMA_4_2 built one per D-dot quotient, none while
    # a membership first asked left its names unchecked; 15 333 while verify
    # also computed THM_4_3's two observations, which it does not report;
    # 13 663 while each class asked about was checked once per instance: the
    # 18 name tuples the suite asks (11 single names, 6 products, and RB o D,
    # THM_4_3's upper bound) are now checked once per process.  1 153 while
    # LEMMA_4_2 tested D-dot for a congruence on each of the 835 tables: it
    # now does so on the 258 where D-dot relates LZ_plus's instances inside
    # eta's blocks, besides COR_JOIN's tests of L-dot and R-dot on the 159
    # tables in D_dot
    assert calls["_compatible"] == 258 + 2 * 159, calls
    assert calls["malcev_product"] == 18, calls
    # 11 546 and 1 504 while the Malcev test took the blocks of rho on every
    # call and THM_2_5 tested a transitive sigma for an equivalence; 5 701
    # while COR_JOIN built three quotients, 5 224 while LEMMA_4_2 built one,
    # 3 658 while each congruence test took its partition's blocks; 2 505
    # (eta's and both THM_4_3 closures' on each of the 835 tables) while
    # those closures ran on every table, and 835 + 2 * (676 + 99) while eta,
    # each THM_4_3 product's lower bound (on the 676 tables outside RB o D)
    # and its closure (on the 99 of them the bounds leave) built a Partition
    # for its blocks: the block merge now returns them as lists
    assert calls["blocks"] == 0 and calls["is_equivalence"] == 0, calls
    # 5 028 while each THM_4_3 lower bound and closure built one too, the
    # 2 * (676 + 99) above: now Green's three of each table and eta, and
    # Green's three of each of the 46 + tables
    assert calls["Partition"] == 4 * 835 + 3 * 46, calls
    # asked again on a table whose bounds leave the closure, nothing merges
    a = next(a for a in map(sl.Analysis, iso4)
             if (a.member("RB", "LZ_plus", "D"), ("LZ_plus", "D") in a._rho)[1])
    calls.clear()
    a.member("RB", "LZ_plus", "D")
    a.member("LZ_plus", "D")
    assert calls["merge"] == 0, calls


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
        for t in instances:
            for tid in THEOREMS:
                sl.verify_theorem(t, tid)
            cli._verify_one(suite, sl.Analysis(t))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 64 * 1024, "%d bytes retained" % retained


# ---------------------------------------------------------------------------
# Malcev products

def test_malcev_named_is_plain_membership(dl2):
    assert sl.malcev_membership(dl2, sl.malcev_product("D")) == (True, None)


def test_malcev_dl2_in_lz_dot_of_d(dl2):
    ok, witness = sl.malcev_membership(dl2, sl.malcev_product("LZ_dot", "D"))
    assert ok
    assert witness == Partition.equality(2)  # singleton classes are left-zero


def test_malcev_golden3_not_in_lz_dot_of_d(golden3):
    # its only congruences are equality (quotient not in D) and universal
    # (the single class is not a left-zero multiplicative band: cb = b)
    ok, witness = sl.malcev_membership(golden3, sl.malcev_product("LZ_dot", "D"))
    assert not ok and witness is None


def test_malcev_products_on_one_analysis_share_sigma(monkeypatch, iso4):
    # six products decided on one Analysis compute sigma (and eta) once,
    # and agree with deciding each on the table afresh
    products = [sl.malcev_product(*names) for names in (
        ("LZ_dot", "D"), ("RZ_dot", "D"), ("R_plus", "D"), ("LZ_plus", "D"),
        ("RB", "LZ_plus", "D"), ("RB", "RZ_plus", "D"))]
    t = iso4[500]
    fresh = [sl.malcev_membership(t, names) for names in products]
    assert any(member for member, _ in fresh) and not all(member for member, _ in fresh)
    calls = []
    sigma = varieties.sigma
    monkeypatch.setattr(varieties, "sigma", lambda s: (calls.append(s), sigma(s))[1])
    a = sl.Analysis(t)
    assert [sl.malcev_membership(a, names) for names in products] == fresh
    assert len(calls) == 1


def test_malcev_trivial_algebra(order1):
    assert sl.malcev_membership(order1, sl.malcev_product("LZ_dot", "D"))[0]
    assert sl.malcev_membership(order1, sl.malcev_product("RB", "LZ_plus", "D"))[0]


def test_classes_refuse_unknown_names_and_empty_products(dl2):
    # a class is a tuple of catalog names, checked wherever one is taken
    for names in ((), ("Nope",), ("LZ_dot", "Nope"), ("Nope", "D")):
        with pytest.raises(sl.PreconditionError):
            sl.malcev_product(*names)
        with pytest.raises(sl.PreconditionError):
            sl.malcev_membership(dl2, names)
        with pytest.raises(sl.PreconditionError):
            sl.EnumConfig(order=2, filter=names)
    with pytest.raises(sl.PreconditionError):  # a name, not a class
        sl.EnumConfig(order=2, filter="D")
    assert sl.malcev_product("LZ_dot", "D") == ("LZ_dot", "D")


def test_single_name_membership_is_the_variety(iso_small):
    # the product of no factors has the single block range(n), so one name
    # is plain membership
    assert len(iso_small) == 92
    for t in iso_small:
        a = sl.Analysis(t)
        for name in sl.CATALOG:
            assert a.member(name) == sl.in_variety(t, name), (name, t)


def test_malcev_requires_idempotent_semiring():
    not_idempotent = sl.SemiringTable.from_rows([[0, 1], [1, 1]], [[1, 1], [1, 1]])
    with pytest.raises(sl.PreconditionError):
        sl.malcev_membership(not_idempotent, sl.malcev_product("LZ_dot", "D"))


def test_malcev_matches_identity_characterization(small_semirings):
    # Theorem: membership in L_dot coincides with LZ_dot o D, dually R
    lz_d = sl.malcev_product("LZ_dot", "D")
    rz_d = sl.malcev_product("RZ_dot", "D")
    for t in small_semirings:
        assert sl.in_variety(t, "L_dot") == sl.malcev_membership(t, lz_d)[0]
        assert sl.in_variety(t, "R_dot") == sl.malcev_membership(t, rz_d)[0]


# ---------------------------------------------------------------------------
# spined products

def test_spined_product_trivial(order1):
    prod, elems = sl.spined_product(order1, order1, order1, [0], [0])
    assert prod.order == 1 and elems == ((0, 0),)


def test_spined_product_over_trivial_spine(golden3, order1):
    # with D trivial every pair is admitted: S x {e} is a copy of S
    prod, _ = sl.spined_product(golden3, order1, order1, [0, 0, 0], [0])
    assert sl.is_isomorphic(prod, golden3) is not None


def test_spined_product_fiber_counting(dl2):
    # identity maps onto the spine admit exactly the diagonal pairs
    prod, elems = sl.spined_product(dl2, dl2, dl2, [0, 1], [0, 1])
    assert prod.order == 2
    assert elems == ((0, 0), (1, 1))
    assert sl.is_isomorphic(prod, dl2) is not None


def test_spined_product_of_mirrored_l_dot_member():
    # an L-dot member with a 2-block eta, spined with its opposite
    cfg = sl.EnumConfig(order=3, up_to_iso=True, filter=("L_dot",))
    s1 = next(t for t in sl.enumerate_idempotent_semirings(cfg)
              if sl.eta(t).num_blocks() == 2)
    s2 = sl.SemiringTable.from_rows(
        [[s1.add[j][i] for j in range(3)] for i in range(3)],
        [[s1.mul[j][i] for j in range(3)] for i in range(3)])
    assert sl.in_variety(s2, "R_dot")
    d, proj = sl.quotient(s1, sl.eta(s1))
    assert sl.eta(s2) == sl.eta(s1)  # the opposite has the same eta
    prod, elems = sl.spined_product(s1, s2, d, proj, proj)
    blocks = sl.eta(s1).blocks()
    assert prod.order == sum(len(b) ** 2 for b in blocks)
    assert sl.in_variety(prod, "D_dot")


def test_spined_product_rejects_non_homomorphism(dl2, lz2, order1):
    with pytest.raises(sl.PreconditionError):
        sl.spined_product(dl2, dl2, dl2, [0, 0], [0, 1])  # not surjective
    with pytest.raises(sl.PreconditionError):
        sl.spined_product(lz2, dl2, dl2, [1, 0], [0, 1])  # not a homomorphism
    z2 = sl.SemiringTable.from_rows([[0, 1], [1, 0]], [[0, 0], [0, 1]])
    assert sl.validate_semiring(z2).is_semiring  # but 1+1 = 0
    with pytest.raises(sl.PreconditionError):
        sl.spined_product(z2, order1, order1, [0, 0], [0])  # not idempotent


def test_spined_decompose_requires_membership(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.spined_decompose(golden3)


def test_spined_decompose_trivial(order1):
    d = sl.spined_decompose(order1)
    assert d.s1.order == d.s2.order == d.d.order == 1


def test_spined_round_trip_small(small_semirings, iso4):
    count = 0
    for t in small_semirings + iso4:
        if not sl.in_variety(t, "D_dot"):
            assert _spined_obstruction(sl.Analysis(t))
            continue
        count += 1
        decomp = sl.spined_decompose(t)
        assert sl.in_variety(decomp.s1, "R_dot")
        assert sl.in_variety(decomp.s2, "L_dot")
        assert sl.is_distributive_lattice(decomp.d)
        rebuilt, elems = sl.reconstruct(decomp)
        assert rebuilt.order == t.order
        assert set(decomp.theta) == set(elems)
        assert sl.is_isomorphic(t, rebuilt) is not None
    assert count > 0  # the suite must actually exercise members
