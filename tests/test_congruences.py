import itertools

import pytest

import semiring_lab as sl
from semiring_lab.congruences import principal_congruence
from semiring_lab.relations import BinRelation, Partition

from conftest import set_partitions


def naive_congruence_closure(t, pairs):
    """Fixpoint oracle: alternate equivalence closure and substitution
    closure until nothing changes.  Independent of the union-find path."""
    rel = set(pairs)
    while True:
        before = len(rel)
        rel |= {(a, a) for a in range(t.order)}
        rel |= {(b, a) for a, b in rel}
        rel |= {(a, c) for a, b in list(rel) for b2, c in list(rel) if b == b2}
        for a, b in list(rel):
            for c in range(t.order):
                rel.add((t.add[a][c], t.add[b][c]))
                rel.add((t.add[c][a], t.add[c][b]))
                rel.add((t.mul[a][c], t.mul[b][c]))
                rel.add((t.mul[c][a], t.mul[c][b]))
        if len(rel) == before:
            return Partition.from_pairs(t.order, rel)


def all_congruences_by_filter(t):
    """Bell(n) oracle: every partition, filtered by is_congruence."""
    return sorted((Partition(labels) for labels in set_partitions(t.order)
                   if sl.is_congruence(t, Partition(labels))),
                  key=lambda p: p.labels)


# ---------------------------------------------------------------------------
# is_congruence

def test_trivial_partitions_are_congruences(small_semirings):
    for t in small_semirings[::5]:
        assert sl.is_congruence(t, Partition.equality(t.order))
        assert sl.is_congruence(t, Partition.universal(t.order))


def test_golden3_ab_block_is_not_a_congruence(golden3):
    # {{a,b},{c}} is compatible with mul but not with add: a+c=c, b+c=b
    p = Partition.from_blocks(3, [[0, 1], [2]])
    assert not sl.is_congruence(golden3, p)


def test_is_congruence_order_mismatch(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.is_congruence(golden3, Partition.equality(2))


# ---------------------------------------------------------------------------
# congruence closure

def test_closure_of_sigma_on_golden3_is_universal(golden3):
    assert sl.congruence_closure(golden3, sl.sigma(golden3)) == Partition.universal(3)


def test_closure_of_empty_seed(small_semirings):
    for t in small_semirings[::9]:
        assert sl.congruence_closure(t, []) == Partition.equality(t.order)


def test_closure_of_sigma_on_lattice_is_equality(dl2):
    assert sl.congruence_closure(dl2, sl.sigma(dl2)) == Partition.equality(2)


def test_closure_matches_naive_fixpoint(small_semirings):
    seeds = [[(0, 1)], [(0, 2), (1, 2)], [(2, 0)], [(1, 0), (0, 1)]]
    for t in small_semirings[::11]:
        for seed in seeds:
            seed = [(a % t.order, b % t.order) for a, b in seed]
            assert sl.congruence_closure(t, seed) == naive_congruence_closure(t, seed)


def test_closure_result_is_a_congruence(small_semirings):
    for t in small_semirings[::13]:
        p = sl.congruence_closure(t, [(0, t.order - 1)])
        assert sl.is_congruence(t, p)


# ---------------------------------------------------------------------------
# sigma and sigma_star

def test_sigma_golden3(golden3):
    rel = sl.sigma(golden3)
    assert rel.contains(0, 1) and rel.contains(1, 2)
    assert not rel.contains(0, 2)
    assert rel.is_reflexive() and rel.is_symmetric()
    assert not rel.is_transitive()


def test_sigma_trivial_cases(order1, dl2):
    assert sl.sigma(order1).pairs == {(0, 0)}
    assert sl.sigma(dl2) == BinRelation(2, [(0, 0), (1, 1)])


def test_sigma_star_golden3(golden3):
    rel = sl.sigma_star(golden3)
    assert rel.contains(0, 2)  # witness x = b
    assert len(rel.pairs) == 9  # universal


def test_sigma_star_is_transitive_closure(small_semirings):
    for t in small_semirings:
        assert sl.sigma_star(t) == sl.sigma(t).transitive_closure()


# ---------------------------------------------------------------------------
# least distributive lattice congruence

def test_three_methods_on_named_instances(golden3, dl2, order1):
    for t, expected in ((golden3, Partition.universal(3)),
                        (dl2, Partition.equality(2)),
                        (order1, Partition.universal(1))):
        for method in ("meet_oracle", "sigma_closure", "sigma_star"):
            assert sl.least_dl_congruence(t, method) == expected


def test_unknown_method(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.least_dl_congruence(golden3, "guesswork")


def test_d_plus_refines_eta(small_semirings):
    for t in small_semirings:
        _, _, d_add = sl.green_add(t)
        assert d_add.refines(sl.eta(t))


def test_quotient_by_eta_is_distributive_lattice(iso_upto4):
    # oracle for the spined decomposition, which trusts that eta is a
    # congruence with a distributive lattice quotient
    for t in iso_upto4:
        e = sl.eta(t)
        assert sl.is_congruence(t, e)
        q, _ = sl.quotient(t, e)
        assert sl.is_distributive_lattice(q)


def test_n_members_have_transitive_sigma(small_semirings):
    n_spec = sl.CATALOG["N"]
    alt = sl.parse_identity("xz+xyz+xz = xz")
    for t in small_semirings:
        in_n = sl.variety_membership(t, n_spec)
        # the two characterizations of N must agree on every instance
        assert in_n == sl.satisfies_identity(t, alt)[0]
        if in_n:
            rel = sl.sigma(t)
            assert rel.is_transitive()
            assert rel.to_partition() == sl.eta(t)


# ---------------------------------------------------------------------------
# the congruence lattice

def test_all_congruences_counts(order1, dl2, golden3):
    assert len(sl.all_congruences(order1)) == 1
    assert len(sl.all_congruences(dl2)) == 2
    # only the trivial congruences survive on the 3-element example
    assert [p.blocks() for p in sl.all_congruences(golden3).partitions] == \
        [((0, 1, 2),), ((0,), (1,), (2,))]


def test_all_congruences_against_partition_filter(small_semirings, iso4):
    for t in small_semirings[::4] + iso4[::19]:
        computed = sorted(sl.all_congruences(t).partitions, key=lambda p: p.labels)
        assert computed == all_congruences_by_filter(t)


def test_all_congruences_flags(dl2):
    cs = sl.all_congruences(dl2)
    assert all(cs.dl_flags)  # both quotients of a lattice are lattices


def test_principal_congruences_are_least(small_semirings):
    for t in small_semirings[::15]:
        for a, b in itertools.combinations(range(t.order), 2):
            p = principal_congruence(t, a, b)
            assert p.related(a, b)
            for q in sl.all_congruences(t).partitions:
                if q.related(a, b):
                    assert p.refines(q)


def test_order_bound_enforced(chain3):
    n = 9
    big = sl.SemiringTable.from_rows(
        [[max(i, j) for j in range(n)] for i in range(n)],
        [[min(i, j) for j in range(n)] for i in range(n)])
    with pytest.raises(sl.ResourceBoundError):
        sl.all_congruences(big)
    # configurable bound
    assert len(sl.all_congruences(big, 9)) > 1
