import pytest

import semiring_lab as sl
from semiring_lab.relations import Partition
from semiring_lab.structure import _attempt_spined_decomposition


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


def test_quotients_validate(small_semirings):
    for t in small_semirings[::8]:
        for p in sl.all_congruences(t).partitions:
            q, _ = sl.quotient(t, p)
            assert sl.validate_semiring(q).is_idempotent_semiring


# ---------------------------------------------------------------------------
# distributive lattice recognition

def test_is_distributive_lattice(dl2, chain3, golden3, lz2):
    assert sl.is_distributive_lattice(dl2)
    assert sl.is_distributive_lattice(chain3)
    assert not sl.is_distributive_lattice(golden3)
    assert not sl.is_distributive_lattice(lz2)


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


def test_canonical_form_constant_on_orbits(golden3):
    import itertools
    forms = {sl.canonical_form(golden3.relabel(p))
             for p in itertools.permutations(range(3))}
    assert len(forms) == 1


def test_canonical_form_agrees_with_is_isomorphic(small_semirings):
    ts = small_semirings[100:115]
    for s in ts:
        for t in ts:
            assert (sl.canonical_form(s) == sl.canonical_form(t)) == \
                (sl.is_isomorphic(s, t) is not None)


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


def test_spined_product_rejects_non_homomorphism(dl2, lz2):
    with pytest.raises(sl.PreconditionError):
        sl.spined_product(dl2, dl2, dl2, [0, 0], [0, 1])  # not surjective
    with pytest.raises(sl.PreconditionError):
        sl.spined_product(lz2, dl2, dl2, [1, 0], [0, 1])  # not a homomorphism


def test_spined_decompose_requires_membership(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.spined_decompose(golden3)


def test_spined_decompose_trivial(order1):
    d = sl.spined_decompose(order1)
    assert d.s1.order == d.s2.order == d.d.order == 1


def test_spined_round_trip_small(small_semirings):
    count = 0
    for t in small_semirings:
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
