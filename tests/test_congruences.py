import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_lab as sl
from semiring_lab import congruences, relations
from semiring_lab.core import _instances, _relates
from semiring_lab.relations import BinRelation, Partition

from conftest import is_congruence_by_substitution, relabel_seeded, set_partitions


class UnionFind:
    """Disjoint sets over range(n); union reports whether it merged."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def partition(self):
        return Partition([self.find(x) for x in range(len(self.parent))])


def naive_congruence_closure(t, pairs):
    """Fixpoint oracle: alternate equivalence closure and substitution
    closure until nothing changes, then label each element by its class.
    Shares no code with the block merge of congruence_closure."""
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
            return Partition(frozenset(b for a2, b in rel if a2 == a)
                             for a in range(t.order))


def union_find_closure(t, pairs):
    """The closure congruence_closure used before its flat block lists:
    union-find plus a queue of merged pairs, each merge (a, b) enqueueing
    (a+c, b+c), (c+a, c+b), (ac, bc), (ca, cb) for every c."""
    uf = UnionFind(t.order)
    queue = deque()
    for a, b in pairs:
        if uf.union(a, b):
            queue.append((a, b))
    while queue:
        a, b = queue.popleft()
        for c in range(t.order):
            for x, y in ((t.add[a][c], t.add[b][c]), (t.add[c][a], t.add[c][b]),
                         (t.mul[a][c], t.mul[b][c]), (t.mul[c][a], t.mul[c][b])):
                if uf.union(x, y):
                    queue.append((x, y))
    return uf.partition()


def all_congruences_by_filter(t):
    """Bell(n) oracle: every partition, filtered by single-sided
    substitution (conftest.is_congruence_by_substitution)."""
    return sorted((Partition(labels) for labels in set_partitions(t.order)
                   if is_congruence_by_substitution(t, Partition(labels))),
                  key=lambda p: p.labels)


def all_congruences_by_principal_joins(t):
    """The search all_congruences ran before its set-partition filter, as
    the reference for its partitions, their order and their flags: join
    each congruence found with the principal ones until none is new, since
    every congruence is the join of the principal congruences of its
    pairs."""
    n = t.order
    principal = tuple({sl.congruence_closure(t, [(a, b)])
                       for a in range(n) for b in range(a + 1, n)})
    found = {Partition.equality(n), *principal}
    frontier = principal
    while frontier:
        fresh = []
        for p in frontier:
            for q in principal:
                j = p.join(q)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    parts = tuple(sorted(found, key=lambda p: p.labels))
    flags = tuple(_relates(t, p.labels, sl.CATALOG["D"], (range(n),)) for p in parts)
    return sl.CongruenceSet(parts, flags)


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


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_closure_matches_the_union_find_closure(iso_upto4, data):
    t = data.draw(st.sampled_from(iso_upto4))
    element = st.integers(0, t.order - 1)
    seed = data.draw(st.lists(st.tuples(element, element), max_size=6))
    assert sl.congruence_closure(t, seed) == union_find_closure(t, seed)


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_from_pairs_matches_union_find(data):
    # from_pairs is the block merge of congruence_closure with no translations
    n = data.draw(st.integers(1, 7))
    element = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=8))
    uf = UnionFind(n)
    for a, b in pairs:
        uf.union(a, b)
    assert Partition.from_pairs(n, pairs) == uf.partition()


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


def test_sigma_star_is_transitive_closure(small_semirings, iso4):
    for t in small_semirings + iso4:
        assert sl.sigma_star(t) == sl.sigma(t).transitive_closure()


def test_sigma_matches_the_two_sided_absorption_predicate(iso_upto4):
    # oracle for sigma's table, which evaluates each absorption once per
    # ordered pair: the predicate that tests both absorptions of each pair
    def absorbed(t, a, b):
        aba = t.mul[t.mul[a][b]][a]
        return t.add[t.add[aba][a]][aba] == aba

    rng = random.Random(1507)
    for t in iso_upto4:
        for s in (t, relabel_seeded(t, rng)):
            assert sl.sigma(s) == BinRelation.from_predicate(
                s.order, lambda a, b: absorbed(s, a, b) and absorbed(s, b, a))


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


def test_every_method_needs_an_idempotent_semiring():
    # + constantly 0 and . constantly 1: neither operation is idempotent
    t = sl.SemiringTable.from_rows([[0, 0], [0, 0]], [[1, 1], [1, 1]])
    for method in congruences.LDC_METHODS:
        with pytest.raises(sl.PreconditionError, match="needs an idempotent semiring"):
            sl.least_dl_congruence(t, method)
    with pytest.raises(sl.PreconditionError, match="needs an idempotent semiring"):
        sl.eta(t)


def test_oracle_routes_run_no_closure(monkeypatch, iso_small):
    # the meet over the congruence lattice and sigma_star read as a
    # partition share no code with the block merge of the closure, so each
    # checks the sigma closure independently
    assert len(iso_small) == 92
    before = [(sl.eta(t), sl.all_congruences(t)) for t in iso_small]

    def no_merge(*args):
        raise AssertionError("the block merge ran")

    monkeypatch.setattr(relations, "_merge_blocks", no_merge)
    monkeypatch.setattr(congruences, "_merge_blocks", no_merge)
    with pytest.raises(AssertionError, match="block merge"):
        sl.eta(iso_small[-1])
    for t, (eta, lattice) in zip(iso_small, before):
        assert sl.all_congruences(t) == lattice, t
        assert sl.least_dl_congruence(t, "meet_oracle") == eta, t
        assert sl.least_dl_congruence(t, "sigma_star") == eta, t


def test_d_plus_refines_eta(small_semirings):
    for t in small_semirings:
        _, _, d_add = sl.green_add(t)
        assert d_add.refines(sl.eta(t))


def test_d_dot_refines_eta(iso_upto4):
    # LEMMA_4_2 reads rho(D) of S/D. as eta/D. on this ground: in the
    # semilattice S/eta, aba = a and bab = b give [a] = [a][b] = [b]
    rng = random.Random(4242)
    for t in iso_upto4:
        for s in (t, relabel_seeded(t, rng)):
            assert sl.green_mult(s)[2].refines(sl.eta(s)), s


def test_quotient_by_eta_is_distributive_lattice(iso_upto4):
    # oracle for the spined decomposition, which trusts that eta is a
    # congruence with a distributive lattice quotient
    for t in iso_upto4:
        e = sl.eta(t)
        assert sl.is_congruence(t, e)
        q, _ = sl.quotient(t, e)
        assert sl.is_distributive_lattice(q)


def test_closure_of_d_instances_is_eta(iso_upto4):
    # oracle for rho(D) = eta in Malcev membership: the least congruence
    # with quotient in D, as the closure of D's identity instances on t
    d_spec = sl.CATALOG["D"]
    for t in iso_upto4:
        closure = sl.congruence_closure(t, _instances(t, d_spec, [range(t.order)]))
        assert closure == sl.eta(t), t


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


def test_all_congruences_matches_the_principal_join_search(iso_upto4, labeled_by_order):
    rng = random.Random(2022)
    for t in iso_upto4:
        for s in (t, relabel_seeded(t, rng)):
            assert sl.all_congruences(s) == all_congruences_by_principal_joins(s), s
    for t in labeled_by_order[1] + labeled_by_order[2] + labeled_by_order[3]:
        assert sl.all_congruences(t) == all_congruences_by_principal_joins(t), t


def test_all_congruences_flags(dl2):
    cs = sl.all_congruences(dl2)
    assert all(cs.dl_flags)  # both quotients of a lattice are lattices


def _holds_by_evaluation(t, spec):
    return all(sl.eval_term(t, ident.lhs, w) == sl.eval_term(t, ident.rhs, w)
               for ident in spec.identities
               for w in itertools.product(range(t.order), repeat=ident.nvars))


def test_relates_decides_each_quotient_in_each_variety(iso_small):
    # oracle for core._relates over the carrier: the quotient built, its
    # membership decided by variety_membership and by term evaluation, for
    # every congruence of the 92 classes up to order 3 and every catalog
    # variety; the dl flags of all_congruences are the case V = D
    assert len(iso_small) == 92
    seen = set()
    for t in iso_small:
        cs = sl.all_congruences(t)
        for theta, flag in zip(cs.partitions, cs.dl_flags):
            q = sl.quotient(t, theta)[0]
            for name, spec in sl.CATALOG.items():
                member = sl.variety_membership(q, spec)
                assert member == _holds_by_evaluation(q, spec), (t, theta, name)
                assert _relates(t, theta.labels, spec, (range(t.order),)) == member, (
                    t, theta, name)
                seen.add(member)
            assert flag == sl.variety_membership(q, sl.CATALOG["D"]), (t, theta)
    assert seen == {False, True}


def test_principal_congruences_are_least(small_semirings):
    for t in small_semirings[::15]:
        for a, b in itertools.combinations(range(t.order), 2):
            p = sl.congruence_closure(t, [(a, b)])
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
