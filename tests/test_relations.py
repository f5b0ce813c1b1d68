import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_lab as sl
from semiring_lab.relations import BinRelation, Partition

from conftest import set_partitions


# ---------------------------------------------------------------------------
# Partition mechanics

def test_partition_canonical_labels():
    assert Partition([5, 5, 2, 5]).labels == (0, 0, 1, 0)
    assert Partition.from_blocks(3, [[2], [0, 1]]) == Partition([0, 0, 1])
    assert Partition.from_pairs(4, [(3, 1)]) == Partition([0, 1, 2, 1])


def test_partition_meet_join():
    p = Partition([0, 0, 1, 1])
    q = Partition([0, 1, 1, 0])
    assert p.meet(q) == Partition([0, 1, 2, 3])
    assert p.join(q) == Partition([0, 0, 0, 0])
    assert p.meet(p) == p and p.join(p) == p


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6),
       st.lists(st.integers(0, 3), min_size=1, max_size=6))
@settings(deadline=None)
def test_partition_order_relations(xs, ys):
    n = min(len(xs), len(ys))
    p, q = Partition(xs[:n]), Partition(ys[:n])
    assert p.meet(q).refines(p) and p.meet(q).refines(q)
    assert p.refines(p.join(q)) and q.refines(p.join(q))
    assert p.refines(q) == (p.meet(q) == p)
    assert p.refines(q) == (p.join(q) == q)


def test_partition_json(golden3):
    p = Partition.from_blocks(3, [[0, 1], [2]])
    assert p.to_json(golden3.names) == [["a", "b"], ["c"]]


def test_bin_relation_predicates():
    r = BinRelation(3, [(0, 1), (1, 2)])
    assert not r.is_reflexive() and not r.is_symmetric()
    assert not r.is_transitive()
    closure = r.transitive_closure()
    assert closure.contains(0, 2) and closure.is_transitive()
    assert r.compose(r) == BinRelation(3, [(0, 2)])
    with pytest.raises(sl.PreconditionError):
        r.to_partition()


# ---------------------------------------------------------------------------
# Green's relations

def test_green_mult_golden3(golden3):
    l_dot, r_dot, d_dot = sl.green_mult(golden3)
    assert d_dot == Partition.from_blocks(3, [[0, 1], [2]])
    assert l_dot == Partition.from_blocks(3, [[0, 1], [2]])
    assert r_dot == Partition.equality(3)


def test_green_add_golden3(golden3):
    l_add, r_add, d_add = sl.green_add(golden3)
    assert d_add == Partition.equality(3)


def test_green_trivial(order1, dl2):
    assert all(p == Partition.equality(1) for p in sl.green_mult(order1))
    assert all(p == Partition.equality(1) for p in sl.green_add(order1))
    # the additive reduct of a lattice is a semilattice: D+ is equality
    _, _, d_add = sl.green_add(dl2)
    assert d_add == Partition.equality(2)


def test_green_rejects_a_non_band():
    # + is max; . is not associative: (2.0).1 = 1 but 2.(0.1) = 2
    add = [[max(i, j) for j in range(3)] for i in range(3)]
    t = sl.SemiringTable.from_rows(add, [[0, 0, 0], [0, 1, 0], [2, 1, 2]])
    with pytest.raises(sl.InternalConsistencyError,
                       match="Green's D is not an equivalence"):
        sl.green_mult(t)


def test_green_containments(small_semirings):
    for t in small_semirings:
        l_dot, r_dot, d_dot = sl.green_mult(t)
        assert l_dot.refines(d_dot)
        assert r_dot.refines(d_dot)
        meet = l_dot.meet(r_dot)
        inter = l_dot.as_relation().intersection(r_dot.as_relation())
        assert meet == inter.to_partition()


def test_d_is_closure_of_l_union_r(small_semirings, iso4):
    for t in small_semirings + iso4:
        l_dot, r_dot, d_dot = sl.green_mult(t)
        union = l_dot.as_relation().union(r_dot.as_relation())
        assert union.transitive_closure().to_partition() == d_dot


# ---------------------------------------------------------------------------
# quasi-orders

def test_quasi_orders_dl2(dl2):
    le_l_add, _, _, _, le_add, _ = sl.quasi_orders(dl2)
    assert le_add.pairs == {(0, 0), (1, 1), (0, 1)}  # the lattice order


def test_quasi_orders_golden3(golden3):
    _, _, le_l_mul, _, _, _ = sl.quasi_orders(golden3)
    assert le_l_mul.contains(0, 2)  # ca = a


def test_quasi_order_properties(small_semirings):
    for t in small_semirings:
        qs = sl.quasi_orders(t)
        for q in qs:
            assert q.is_reflexive()
            assert q.is_transitive()
        le_add, le_mul = qs[4], qs[5]
        assert le_add.is_antisymmetric()
        assert le_mul.is_antisymmetric()


def test_quasi_order_intersections(small_semirings):
    for t in small_semirings[::7]:
        le_l_add, le_r_add, le_l_mul, le_r_mul, le_add, le_mul = sl.quasi_orders(t)
        assert le_add == le_l_add.intersection(le_r_add)
        assert le_mul == le_l_mul.intersection(le_r_mul)


def test_set_partitions_oracle_counts():
    # Bell numbers; the oracle itself needs a sanity pin
    assert sum(1 for _ in set_partitions(3)) == 5
    assert sum(1 for _ in set_partitions(4)) == 15
    assert sum(1 for _ in set_partitions(5)) == 52
