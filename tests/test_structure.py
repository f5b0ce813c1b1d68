import itertools
import random

import pytest

import semiring_lab as sl
from semiring_lab.relations import Partition
from semiring_lab.structure import _attempt_spined_decomposition

from conftest import is_isomorphic_by_search, preserves_operations, relabel_seeded


# ---------------------------------------------------------------------------
# quotients

def test_quotient_by_universal(golden3, order1):
    q, proj = sl.quotient(golden3, Partition.universal(3))
    assert q.order == 1
    assert proj == (0, 0, 0)
    assert sl.is_isomorphic(q, order1) is not None


def test_quotient_by_equality_is_isomorphic_copy(golden3):
    q, proj = sl.quotient(golden3, Partition.equality(3))
    assert proj == (0, 1, 2)
    assert sl.is_isomorphic(q, golden3) == (0, 1, 2)


def test_quotient_requires_congruence(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.quotient(golden3, Partition.from_blocks(3, [[0, 1], [2]]))


def test_quotients_validate(iso_upto4):
    # oracle for quotient, which neither re-checks that its tables are
    # well-defined nor re-validates them
    for t in iso_upto4:
        for p in sl.all_congruences(t).partitions:
            q, proj = sl.quotient(t, p)
            assert sl.validate_semiring(q).is_idempotent_semiring
            assert sorted(set(proj)) == list(range(q.order))
            assert all(q.add[proj[a]][proj[b]] == proj[t.add[a][b]]
                       and q.mul[proj[a]][proj[b]] == proj[t.mul[a][b]]
                       for a in range(t.order) for b in range(t.order))


# ---------------------------------------------------------------------------
# distributive lattice recognition

def test_is_distributive_lattice(dl2, chain3, golden3, lz2):
    assert sl.is_distributive_lattice(dl2)
    assert sl.is_distributive_lattice(chain3)
    assert not sl.is_distributive_lattice(golden3)
    assert not sl.is_distributive_lattice(lz2)


_DUAL_ABSORPTION = sl.parse_identity("x(x+y) = x")


def test_distributive_lattices_absorb_dually(iso_upto4):
    # oracle for is_distributive_lattice, which trusts x(x+y) = x on
    # idempotent input; the quotient by equality is a copy of t itself
    lattices = 0
    for t in iso_upto4:
        for p in sl.all_congruences(t).distributive_lattice_congruences():
            q, _ = sl.quotient(t, p)
            assert sl.satisfies_identity(q, _DUAL_ABSORPTION)[0], (t, p)
            lattices += 1
    assert lattices > len(iso_upto4)


# the valid semirings of order 2 whose . is not idempotent yet which satisfy
# D's identities; dual absorption fails on each
_NON_IDEMPOTENT_D = [
    ([[0, 0], [0, 1]], [[1, 1], [1, 1]]),
    ([[0, 1], [1, 0]], [[0, 0], [0, 0]]),
    ([[0, 1], [1, 1]], [[0, 0], [0, 0]]),
    ([[1, 0], [0, 1]], [[1, 1], [1, 1]]),
]


def test_is_distributive_lattice_requires_idempotency():
    tables = [[list(r[:2]), list(r[2:])] for r in itertools.product(range(2), repeat=4)]
    refused = []
    for add in tables:
        for mul in tables:
            t = sl.SemiringTable.from_rows(add, mul)
            if all(add[a][a] == a and mul[a][a] == a for a in range(2)):
                continue
            with pytest.raises(sl.PreconditionError):
                sl.is_distributive_lattice(t)
            if (sl.validate_semiring(t).is_semiring
                    and sl.variety_membership(t, sl.CATALOG["D"])):
                refused.append((add, mul))
    assert refused == _NON_IDEMPOTENT_D
    for add, mul in refused:
        t = sl.SemiringTable.from_rows(add, mul)
        assert not sl.satisfies_identity(t, _DUAL_ABSORPTION)[0]


# ---------------------------------------------------------------------------
# Malcev products

def test_malcev_named_is_plain_membership(dl2):
    assert sl.malcev_membership(dl2, sl.Named(sl.CATALOG["D"]))[0]


def test_malcev_dl2_in_lz_dot_of_d(dl2):
    ok, witness = sl.malcev_membership(dl2, sl.malcev_product("LZ_dot", "D"))
    assert ok
    assert witness == Partition.equality(2)  # singleton classes are left-zero


def test_malcev_golden3_not_in_lz_dot_of_d(golden3):
    # its only congruences are equality (quotient not in D) and universal
    # (the single class is not a left-zero multiplicative band: cb = b)
    ok, witness = sl.malcev_membership(golden3, sl.malcev_product("LZ_dot", "D"))
    assert not ok and witness is None


def test_malcev_trivial_algebra(order1):
    assert sl.malcev_membership(order1, sl.malcev_product("LZ_dot", "D"))[0]
    assert sl.malcev_membership(order1, sl.malcev_product("RB", "LZ_plus", "D"))[0]


def test_malcev_left_factor_must_be_named():
    with pytest.raises(sl.PreconditionError):
        sl.Malcev(sl.malcev_product("LZ_dot", "D"), sl.Named(sl.CATALOG["D"]))


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
# isomorphism and canonical forms

def test_is_isomorphic_self(golden3):
    assert sl.is_isomorphic(golden3, golden3) == (0, 1, 2)


def test_is_isomorphic_cycle_relabeling(golden3):
    perm = (1, 2, 0)
    relabeled = golden3.relabel(perm)
    found = sl.is_isomorphic(golden3, relabeled)
    assert found is not None
    # the found bijection must genuinely carry one onto the other
    assert relabeled.relabel(_invert(found)).add == golden3.add


def _invert(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def test_lz2_not_isomorphic_to_rz2(lz2, rz2):
    assert sl.is_isomorphic(lz2, rz2) is None
    assert sl.canonical_form(lz2) != sl.canonical_form(rz2)


def test_isomorphism_is_an_equivalence(small_semirings):
    ts = small_semirings[40:46]
    for s in ts:
        assert sl.is_isomorphic(s, s) is not None
    for s in ts:
        for t in ts:
            forward = sl.is_isomorphic(s, t)
            backward = sl.is_isomorphic(t, s)
            assert (forward is None) == (backward is None)
    for a in ts:
        for b in ts:
            for c in ts:
                if sl.is_isomorphic(a, b) and sl.is_isomorphic(b, c):
                    assert sl.is_isomorphic(a, c) is not None


def test_is_isomorphic_agrees_with_search(iso_small):
    rng = random.Random(3120)
    relabelled = [relabel_seeded(t, rng) for t in iso_small]
    found = 0
    for s in iso_small:
        for t in relabelled:
            perm = sl.is_isomorphic(s, t)
            assert (perm is None) == (is_isomorphic_by_search(s, t) is None)
            if perm is not None:
                assert preserves_operations(s, t, perm)
                found += 1
    assert found == len(iso_small)  # each class meets only its own relabelling


def test_is_isomorphic_finds_seeded_relabellings(iso4):
    rng = random.Random(4120)
    for s in iso4:
        t = relabel_seeded(s, rng)
        perm = sl.is_isomorphic(s, t)
        assert perm is not None and preserves_operations(s, t, perm)
        assert sl.canonical_form(t) == s


def test_canonical_form_constant_on_orbits(iso_small):
    # every representative is canonical, so its whole orbit maps onto it
    for t in iso_small:
        forms = {sl.canonical_form(t.relabel(p))
                 for p in itertools.permutations(range(t.order))}
        assert forms == {t}


def test_canonical_form_agrees_with_is_isomorphic(small_semirings):
    # checked against the permutation search, which shares no code with it
    ts = small_semirings[100:115]
    for s in ts:
        for t in ts:
            assert (sl.canonical_form(s) == sl.canonical_form(t)) == \
                (is_isomorphic_by_search(s, t) is not None)


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
    cfg = sl.EnumConfig(order=3, up_to_iso=True, filter=sl.CATALOG["L_dot"])
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


def test_green_d_is_l_then_r_and_h_is_trivial(iso_upto4):
    # oracle for the spined decomposition, which trusts that theta is a
    # bijection onto the fiber product: in a band D = L o R and L meet R
    # is equality
    for t in iso_upto4:
        for l, r, d in (sl.green_mult(t), sl.green_add(t)):
            assert d.as_relation() == l.as_relation().compose(r.as_relation())
            assert l.meet(r) == Partition.equality(t.order)


def test_spined_round_trip_small(small_semirings, iso4):
    count = 0
    for t in small_semirings + iso4:
        if not sl.in_variety(t, "D_dot"):
            ok, _, _ = _attempt_spined_decomposition(t)
            assert not ok
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
