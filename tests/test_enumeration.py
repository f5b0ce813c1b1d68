import copy
import functools
import itertools
import math
import pickle
import types
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_lab as sl
from semiring_lab import enumeration, varieties
from semiring_lab.enumeration import (DEFAULT_NODE_BUDGET, _assoc_ok, _Budget, _complete,
                                      _distributive_domain, _forced, bands,
                                      completions)

from conftest import _relabel_rows, dual, labelled_bands, labelled_search, naive_labeled_pairs

# counts computed once with naive_labeled_count and frozen; the live
# oracle comparison below keeps the generator honest regardless.  Order 4
# is reached only up to isomorphism, through the orbit sum below.
LABELED_COUNTS = {1: 1, 2: 16, 3: 379, 4: 15108}
ISO_COUNTS = {1: 1, 2: 10, 3: 81, 4: 835}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_matches_oracle(n, labeled_by_order):
    # itertools.product lists the naive pairs in depth-first order
    assert [(t.add, t.mul) for t in labeled_by_order[n]] == naive_labeled_pairs(n)
    assert len(labeled_by_order[n]) == LABELED_COUNTS[n]
    # built without from_rows' input checks, yet the same tables
    assert all(t == sl.SemiringTable.from_rows(t.add, t.mul) for t in labeled_by_order[n])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iso_stream_is_the_canonical_filter(n, labeled_by_order):
    # oracle: every labelled table, kept iff it is its own canonical form
    oracle = [t for t in labeled_by_order[n] if sl.canonical_form(t) == t]
    assert sl.all_idempotent_semirings(n, up_to_iso=True) == oracle


def _assoc_ok_by_scan(table, pre, i, j):
    """Every determined associativity instance that looks up cell (i, j)
    holds, by a scan of all n^2 cells for km = i and mk = j, with no
    preimage index (pre is ignored) and no domain assumed: _assoc_ok's
    contract on any value, where _assoc_ok trusts _forced's."""
    n, v = len(table), table[i][j]
    row_i, row_v = table[i], table[v]
    for k in range(n):
        jk, ki = table[j][k], table[k][i]
        if jk is not None:  # (ij)k = i(jk)
            left, right = row_v[k], row_i[jk]
            if left is not None and right is not None and left != right:
                return False
        if ki is not None:  # (ki)j = k(ij)
            left, right = table[ki][j], table[k][v]
            if left is not None and right is not None and left != right:
                return False
        for m in range(n):
            if table[k][m] == i:  # (km)j = k(mj) with km = i
                mj = table[m][j]
                if mj is not None and table[k][mj] not in (None, v):
                    return False
            if table[m][k] == j:  # (im)k = i(mk) with mk = j
                im = row_i[m]
                if im is not None and table[im][k] not in (None, v):
                    return False
    return True


def _touching_sums(add, n):
    """For each element e, the triples (y, z, y+z) with e among them."""
    return [[(y, z, add[y][z]) for y in range(n) for z in range(n)
             if e in (y, z, add[y][z])] for e in range(n)]


def _distrib_ok(add, touching, mul, i, j):
    """Every determined instance of x(y+z) = xy+xz or (y+z)x = yx+zx that
    looks up . cell (i, j) holds: x = i with j among y, z, y+z on the
    left, x = j with i among them on the right."""
    row_i = mul[i]
    for y, z, s in touching[j]:
        xy, xz, whole = row_i[y], row_i[z], row_i[s]
        if None not in (xy, xz, whole) and whole != add[xy][xz]:
            return False
    for y, z, s in touching[i]:
        yx, zx, whole = mul[y][j], mul[z][j], mul[s][j]
        if None not in (yx, zx, whole) and whole != add[yx][zx]:
            return False
    return True


def _check_only(add):
    """The . search's rule before domains: a value is kept iff the
    associativity and distributivity instances that look its cell up hold."""
    touching = _touching_sums(add, len(add))
    return lambda tab, pre, i, j: (_assoc_ok_by_scan(tab, pre, i, j) and
                                   _distrib_ok(add, touching, tab, i, j))


def _every(n):
    """The domain that tries every value 0..n-1 at every cell."""
    return lambda tab, pre, i, j: (1 << n) - 1


def _band_domain(n):
    """The band search's domain: the values _forced keeps."""
    return lambda tab, pre, i, j: _forced(tab, pre, i, j, (1 << n) - 1)


def _preimages(table):
    """The preimage index of table, rebuilt from scratch."""
    pre = [[] for _ in table]
    for k, row in enumerate(table):
        for m, v in enumerate(row):
            if v is not None:
                pre[v].append((k, m))
    return pre


@functools.cache
def _labelled_bands(n):
    return tuple(add for add, _ in _complete(n, _every(n), _assoc_ok_by_scan, [],
                                             _Budget(10 ** 7, 1800.0)))


def _leaf_filtered_bands(n):
    """The least bands by comparing full relabelled copies of every
    labelled band, each with its automorphisms, identity included."""
    perms = list(itertools.permutations(range(n)))
    kept = []
    for add in _labelled_bands(n):
        keys = [_relabel_rows(add, p) for p in perms]
        if min(keys) == add:
            kept.append((add, [p for p, key in zip(perms, keys) if key == add]))
    return kept


def _leaf_filtered_iso_stream(n):
    """The iso stream with no pruning under Aut(+) and no orderly band
    search: the least bands from _leaf_filtered_bands, each band's .
    tables completed in full, and a completion dropped iff some
    automorphism of + relabels it smaller.  Returns the kept (add, mul)
    pairs and the numbers of least bands and of completions."""
    budget = _Budget(10 ** 7, 1800.0)
    kept, least, completed = [], _leaf_filtered_bands(n), 0
    for add, auts in least:
        touching = _touching_sums(add, n)
        for mul, _ in _complete(n, _every(n), lambda tab, pre, i, j: (
                _assoc_ok_by_scan(tab, pre, i, j) and
                _distrib_ok(add, touching, tab, i, j)), [], budget):
            completed += 1
            if not any(_relabel_rows(mul, p) < mul for p in auts):
                kept.append((add, mul))
    return kept, len(least), completed


@pytest.mark.parametrize("n, bands, completions", [(3, 10, 138), (4, 46, 2216)])
def test_orderly_pruning_keeps_the_leaf_filtered_stream(n, bands, completions, iso4):
    kept, least, completed = _leaf_filtered_iso_stream(n)
    assert (least, completed) == (bands, completions)
    assert [(t.add, t.mul) for t in _iso_reps(n, iso4)] == kept


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_band_stream_is_the_leaf_filtered_band_stream(n):
    # in order: every labelled band, then the full least-band filter
    budget = _Budget(10 ** 7, 1800.0)
    assert tuple(labelled_bands(n, budget)) == _labelled_bands(n)
    found, expected = list(bands(n, budget)), _leaf_filtered_bands(n)
    assert [add for add, _ in found] == [add for add, _ in expected]
    # the automorphisms, identity left out, each with its inverse
    assert [[p for p, _ in auts] for _, auts in found] == \
        [auts[1:] for _, auts in expected]
    assert all(q[a] == b for _, auts in found for p, q in auts
               for b, a in enumerate(p))


@pytest.mark.parametrize("n, least, orbits", [(3, 10, 35), (4, 46, 604),
                                              (5, 251, 16727)])
def test_least_bands_and_their_orbit_sums(n, least, orbits):
    # sum of n!/|Aut(B)| over the least bands counts the labelled bands
    found = list(bands(n, _Budget(10 ** 7, 1800.0)))
    assert len(found) == least
    assert sum(math.factorial(n) // (1 + len(auts)) for _, auts in found) == orbits
    if n < 5:
        assert len(_labelled_bands(n)) == orbits


def test_order6_least_bands():
    # about 1 s; 126096 nodes when every value was tried at every cell,
    # and 120 M for the labelled order-6 band search
    budget = _Budget(63545, 1800.0)
    found = list(bands(6, budget))
    assert len(found) == 1682
    assert sum(720 // (1 + len(auts)) for _, auts in found) == 681232
    assert budget.nodes_left == 0


@st.composite
def _assoc_cases(draw):
    """A partial table (random, or a labelled band of order 4 with cells
    erased) and a determined cell (i, j) of it, maybe changed."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        cell = st.one_of(st.none(), st.integers(0, n - 1))
        rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    else:
        n, band = 4, draw(st.sampled_from(_labelled_bands(4)))
        keep = draw(st.lists(st.booleans(), min_size=16, max_size=16))
        rows = [[v if keep[4 * a + b] else None for b, v in enumerate(row)]
                for a, row in enumerate(band)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if rows[i][j] is None or draw(st.booleans()):
        rows[i][j] = draw(st.integers(0, n - 1))
    return rows, i, j


@given(case=_assoc_cases())
@settings(deadline=None, max_examples=500)
def test_indexed_assoc_check_matches_the_full_scan(case):
    # on every value the cell's _forced domain keeps, whatever the rest of
    # the table holds
    rows, i, j = case
    rows[i][j] = None
    pre, n = _preimages(rows), len(rows)
    kept = _forced(rows, pre, i, j, (1 << n) - 1)
    for v in range(n):
        if kept >> v & 1:
            rows[i][j] = v
            pre[v].append((i, j))
            assert _assoc_ok(rows, pre, i, j) == _assoc_ok_by_scan(rows, None, i, j)
            pre[v].pop()


def test_preimage_index_stays_in_step():
    # at every node of the order-4 band search and of the order-3 .
    # searches, and wherever a domain is computed, the index _complete
    # hands over equals the one rebuilt from the table
    budget, checked, domains = _Budget(10 ** 7, 1800.0), [0], [0]

    def in_step(tab, pre):
        return sorted(map(sorted, pre)) == sorted(map(sorted, _preimages(tab)))

    def stepped_ok(tab, pre, i, j):
        checked[0] += 1
        assert in_step(tab, pre)
        return _assoc_ok(tab, pre, i, j)

    def stepped(domain):
        def stepped_domain(tab, pre, i, j):
            domains[0] += 1
            assert tab[i][j] is None and in_step(tab, pre)
            return domain(tab, pre, i, j)
        return stepped_domain

    assert len(list(_complete(4, stepped(_band_domain(4)), stepped_ok, [], budget))) == 604
    semirings = 0
    for add in _labelled_bands(3):
        semirings += len(list(_complete(3, stepped(_distributive_domain(add)),
                                        stepped_ok, [], budget)))
    assert semirings == 379
    assert checked[0] == 10 ** 7 - budget.nodes_left
    assert domains[0] > 0


def _relabelled_cmp(rows, perm, inv):
    """Sign of perm.rows - rows, cell (a, b) of perm.rows being
    perm[rows[inv a][inv b]], over all cells in row-major order up to the
    first cell that is None on either side (0 if they agree there)."""
    for a, ia in enumerate(inv):
        row, src = rows[a], rows[ia]
        for b, ib in enumerate(inv):
            x, v = row[b], src[ib]
            if x is None or v is None:
                return 0
            if perm[v] != x:
                return -1 if perm[v] < x else 1
    return 0


def restart_orderly(ok, perms):
    """ok, and no relabelling in perms makes the table smaller on the
    prefix determined on both sides, compared from cell (0, 0) at every
    node: the lex-leader test that _complete resumes from the parent's."""
    def least_ok(tab, pre, i, j):
        return ok(tab, pre, i, j) and all(_relabelled_cmp(tab, p, q) >= 0
                                          for p, q in perms)
    return least_ok


def _perms(n):
    return [(p, sorted(range(n), key=p.__getitem__))
            for p in itertools.permutations(range(n))][1:]


def _resumed_and_restarted(n, domain, perms):
    """Each table of _complete(n, domain, _assoc_ok, perms) with the
    relabellings that fix it, and the nodes spent; then the same from the
    reference search, which restarts every comparison and finds the
    automorphisms of each leaf by a second pass over perms."""
    resumed, restarted = _Budget(10 ** 7, 1800.0), _Budget(10 ** 7, 1800.0)
    found = []
    for rows, tied in _complete(n, domain, _assoc_ok, perms, resumed):
        # a relabelling tied at a leaf has compared every cell
        assert all(c == n * n - n for _, _, c in tied)
        found.append((rows, [(p, q) for p, q, _ in tied]))
    expected = [(rows, [(p, q) for p, q in perms if _relabelled_cmp(rows, p, q) == 0])
                for rows, _ in _complete(n, domain, restart_orderly(_assoc_ok, perms),
                                         [], restarted)]
    return (found, resumed.nodes_left), (expected, restarted.nodes_left)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_resumed_band_search_is_the_restart_search(n):
    resumed, restarted = _resumed_and_restarted(n, _band_domain(n), _perms(n))
    assert resumed == restarted


@pytest.mark.parametrize("n", [3, 4])
def test_resumed_dot_searches_are_the_restart_searches(n):
    # under every least band, with its automorphisms
    with_auts = 0
    for add, auts in bands(n, _Budget(10 ** 7, 1800.0)):
        resumed, restarted = _resumed_and_restarted(n, _distributive_domain(add), auts)
        assert resumed == restarted
        with_auts += bool(auts)
    assert with_auts == {3: 7, 4: 34}[n]  # of the 10 and 46 least bands


def _searched(n, domain, ok, perms):
    """Each table of _complete(n, domain, ok, perms) with the relabellings
    that fix it, in stream order, and the nodes spent."""
    budget = _Budget(10 ** 7, 1800.0)
    found = [(rows, [(p, q) for p, q, _ in tied])
             for rows, tied in _complete(n, domain, ok, perms, budget)]
    return found, 10 ** 7 - budget.nodes_left


def _domain_checked(n, domain, oracle):
    """domain, asserting at each node it is computed at that its values
    passing _assoc_ok are exactly the values 0..n-1 that oracle accepts."""
    def checked(tab, pre, i, j):
        m, passing, accepted = domain(tab, pre, i, j), set(), set()
        for v in range(n):
            tab[i][j] = v
            pre[v].append((i, j))
            if m >> v & 1 and _assoc_ok(tab, pre, i, j):
                passing.add(v)
            if oracle(tab, pre, i, j):
                accepted.add(v)
            pre[v].pop()
        tab[i][j] = None
        assert passing == accepted
        return m
    return checked


@pytest.mark.parametrize("n, nodes, check_only", [
    (1, 0, 0), (2, 6, 6), (3, 75, 105), (4, 702, 1152), (5, 6414, 11785)])
def test_band_domains_keep_the_check_only_search(n, nodes, check_only):
    # the check-only search tries every value at every cell, as the search
    # did before value sets, and spends the node counts it spent
    found = _searched(n, _domain_checked(n, _band_domain(n), _assoc_ok_by_scan),
                      _assoc_ok, _perms(n))
    expected = _searched(n, _every(n), _assoc_ok_by_scan, _perms(n))
    assert found == (expected[0], nodes)
    assert expected[1] == check_only


@pytest.mark.parametrize("n, up_to_iso, nodes, check_only", [
    (3, True, 427, 834), (4, True, 7820, 22296), (3, False, 1602, 3372)])
def test_dot_domains_keep_the_check_only_search(n, up_to_iso, nodes, check_only):
    # every . search under the least bands with their automorphisms, or
    # under every labelled band with none: the same tables, automorphisms
    # and order; the check-only search spends the node counts of the search
    # before value sets (the labelled order-3 search took 222 + 3372 = 3594)
    spent = [0, 0]
    budget = _Budget(10 ** 7, 1800.0)
    for add, auts in (bands(n, budget) if up_to_iso else
                      ((add, []) for add in labelled_bands(n, budget))):
        domain = _domain_checked(n, _distributive_domain(add), _check_only(add))
        found = _searched(n, domain, _assoc_ok, auts)
        expected = _searched(n, _every(n), _check_only(add), auts)
        assert found[0] == expected[0]
        spent[0] += found[1]
        spent[1] += expected[1]
    assert spent == [nodes, check_only]


def _cmp_by_prefix(rows, perm):
    """_relabelled_cmp's contract, by flattening both tables and cutting
    them at the first cell undetermined on either side."""
    n = len(rows)
    inv = [perm.index(a) for a in range(n)]
    image = [None if rows[inv[a]][inv[b]] is None else perm[rows[inv[a]][inv[b]]]
             for a in range(n) for b in range(n)]
    flat = [x for row in rows for x in row]
    cut = next((k for k, pair in enumerate(zip(image, flat)) if None in pair),
               n * n)
    return (image[:cut] > flat[:cut]) - (image[:cut] < flat[:cut])


@st.composite
def _partial_tables(draw):
    n = draw(st.integers(1, 4))
    cell = st.one_of(st.none(), st.integers(0, n - 1))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return rows, draw(st.permutations(range(n)))


@given(case=_partial_tables())
@settings(deadline=None, max_examples=300)
def test_relabelled_cmp_compares_the_determined_prefix(case):
    # any table, idempotent or not, full or partial
    rows, perm = case
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    assert _relabelled_cmp(rows, perm, inv) == _cmp_by_prefix(rows, perm)
    if all(None not in row for row in rows):
        image, key = _relabel_rows(rows, perm), tuple(map(tuple, rows))
        assert _relabelled_cmp(rows, perm, inv) == (image > key) - (image < key)


def _iso_reps(n, iso4):
    return iso4 if n == 4 else sl.all_idempotent_semirings(n, up_to_iso=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iso_counts(n, iso4):
    reps = _iso_reps(n, iso4)
    assert len(reps) == ISO_COUNTS[n]
    # representatives are canonical-minimal and pairwise non-isomorphic
    for t in reps:
        assert sl.canonical_form(t) == t
    forms = {(t.add, t.mul) for t in reps}
    assert len(forms) == len(reps)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_counting_reconciles(n, iso4):
    # sum of orbit sizes n!/|Aut(t)| over the iso classes must give the
    # labeled count; the automorphisms completions finds at each leaf are
    # exactly the non-identity relabellings that fix its table
    budget = _Budget(DEFAULT_NODE_BUDGET, 1800.0)
    leaves = [(add, mul, auts) for add, band_auts in bands(n, budget)
              for mul, auts in completions(add, band_auts, budget)]
    reps = _iso_reps(n, iso4)
    assert [(t.add, t.mul) for t in reps] == [(add, mul) for add, mul, _ in leaves]
    total = 0
    for t, (_, _, auts) in zip(reps, leaves):
        images = {p: t.relabel(p) for p in itertools.permutations(range(n))}
        orbit = {(r.add, r.mul) for r in images.values()}
        fixing = {p for p, r in images.items() if (r.add, r.mul) == (t.add, t.mul)}
        assert {p for p, _ in auts} == fixing - {tuple(range(n))}
        assert len(orbit) == math.factorial(n) // (1 + len(auts))
        total += len(orbit)
    assert total == LABELED_COUNTS[n]


def test_every_yield_is_valid_and_regular(labeled_by_order):
    ten = sl.parse_identity("xyzx = xyzx+xyxzx+xyzx")
    eleven = sl.parse_identity("xyxzx = xyxzx+xyzx+xyxzx")
    for t in labeled_by_order[3]:
        assert sl.validate_semiring(t).is_idempotent_semiring
        assert sl.satisfies_identity(t, ten)[0]
        assert sl.satisfies_identity(t, eleven)[0]


def test_stream_is_deterministic():
    first = [(t.add, t.mul) for t in sl.all_idempotent_semirings(3)]
    second = [(t.add, t.mul) for t in sl.all_idempotent_semirings(3)]
    assert first == second


def _orbit_stream_and_labelled_search(n):
    """The (add, mul) of the labelled stream of order n, then of the
    labelled search, with the nodes that search spends."""
    budget = _Budget(10 ** 8, 1800.0)
    stream = [(t.add, t.mul) for t in sl.enumerate_idempotent_semirings(sl.EnumConfig(n))]
    return stream, list(labelled_search(n, budget)), 10 ** 8 - budget.nodes_left


@pytest.mark.parametrize("n, tables, nodes", [(1, 1, 0), (2, 16, 30), (3, 379, 1750),
                                              (4, 15108, 132868)])
def test_orbit_stream_is_the_labelled_search(n, tables, nodes):
    # table by table, in order
    stream, searched, spent = _orbit_stream_and_labelled_search(n)
    assert len(stream) == tables and stream == searched
    assert spent == nodes


@pytest.mark.slow
def test_orbit_stream_is_the_labelled_search_at_order5():
    # about 50 s; run with `pytest -m slow`
    stream, searched, spent = _orbit_stream_and_labelled_search(5)
    assert len(stream) == 844129 and stream == searched
    assert spent == 13835350


def test_each_labelled_table_carries_its_canonical_forms_class():
    # metamorphic: the class whose check result a labelled table carries is
    # the one whose representative is its canonical form
    def rows(a):
        return a.t.add, a.t.mul

    for n, index, t, rep in enumeration.sweep([sl.EnumConfig(n) for n in (1, 2, 3)], 1, rows):
        canon = sl.canonical_form(t)
        assert rep == (canon.add, canon.mul), (n, index)
    assert (n, index) == (3, 378)


@pytest.mark.parametrize("workers", [1, 2])
def test_labelled_order1_is_the_orbit_of_its_class(monkeypatch, workers):
    # order 1 takes every labelled order's path: its one table is the orbit
    # of its class, with that class's check result
    calls, orbits = [], enumeration._orbits

    def counted(n, least, budget):
        calls.append(n)
        return orbits(n, least, budget)

    monkeypatch.setattr(enumeration, "_orbits", counted)
    stream = list(enumeration.sweep([sl.EnumConfig(1)], workers, attrgetter("t.mul")))
    assert stream == [(1, 0, sl.SemiringTable.from_rows([[0]], [[0]]), ((0,),))]
    assert calls == [1]


def test_the_band_search_samples_the_clock_every_4096_nodes():
    # 10**7 = 2441 * 4096 + 1664, so spend first reads the clock, already
    # past a deadline of 0 s, after 1664 of the order-6 band search's nodes
    budget = _Budget(10 ** 7, 0.0)
    with pytest.raises(sl.BudgetExceededError, match="wall-clock budget exhausted"):
        list(bands(6, budget))
    assert 10 ** 7 - budget.nodes_left == 1664


def test_the_clock_is_read_before_each_labelled_band(monkeypatch):
    # the clock stands still until the first labelled band has been yielded,
    # then passes the deadline: the stream ends at that band's end
    first = [(t.add, t.mul) for t in sl.all_idempotent_semirings(3)[:9]]
    now, orbits = [0.0], enumeration._orbits

    def late(*args):
        for item in orbits(*args):
            yield item
            now[0] = 3600.0

    monkeypatch.setattr(enumeration, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(enumeration, "_orbits", late)
    kept = []
    with pytest.raises(sl.BudgetExceededError, match="wall-clock budget exhausted"):
        for t in sl.enumerate_idempotent_semirings(sl.EnumConfig(3, budget_secs=60.0)):
            kept.append(t)
    assert [(t.add, t.mul) for t in kept] == first  # one + table's
    assert len({t.add for t in kept}) == 1


def test_budget_exhaustion_is_an_error():
    cfg = sl.EnumConfig(order=3, budget_nodes=50)
    with pytest.raises(sl.BudgetExceededError):
        list(sl.enumerate_idempotent_semirings(cfg))


def test_node_budget_pins_the_pruning():
    # a labelled order-3 stream spends the 502 nodes of the iso search and
    # one per table, 502 + 379; the labelled search visits 1750 (3594 when
    # every value was tried at every cell)
    cfg = sl.EnumConfig(order=3, budget_nodes=881)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == 379
    with pytest.raises(sl.BudgetExceededError):
        list(sl.enumerate_idempotent_semirings(sl.EnumConfig(order=3, budget_nodes=880)))


@pytest.mark.parametrize("n, nodes, classes", [(3, 502, 81), (4, 8522, 835)])
def test_node_budget_pins_the_orderly_pruning(n, nodes, classes):
    # without the orderly band search the iso search visits 575 and
    # 13009, and without pruning under Aut(+) either, 732 and 23070 (939
    # and 23448 when every value was tried at every cell)
    cfg = sl.EnumConfig(order=n, up_to_iso=True, budget_nodes=nodes)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == classes
    with pytest.raises(sl.BudgetExceededError):
        list(sl.enumerate_idempotent_semirings(
            sl.EnumConfig(order=n, up_to_iso=True, budget_nodes=nodes - 1)))


def _iso_classes(n, budget):
    """The number of classes and, by orbit-stabilizer, of labelled tables:
    n!/|Aut(S)| in each class, |Aut(S)| being one more than the
    automorphisms completions finds at its leaf."""
    sizes = [1 + len(auts) for add, band_auts in bands(n, budget)
             for _, auts in completions(add, band_auts, budget)]
    return len(sizes), sum(math.factorial(n) // size for size in sizes)


def test_order5_iso_count():
    # about 1 s: 6414 band and 134793 . nodes; the labelled search finds
    # the same 844129 tables in about 40 s
    budget = _Budget(141207, 1800.0)
    assert _iso_classes(5, budget) == (9407, 844129)
    assert budget.nodes_left == 0


@pytest.mark.slow
def test_order6_iso_count():
    # about 16 s; run with `pytest -m slow`.  63545 band and 2461137 .
    # nodes, within the default budget of 10**7
    budget = _Budget(2524682, 1800.0)
    assert _iso_classes(6, budget) == (119699, 63093228)
    assert budget.nodes_left == 0 and 2524682 < DEFAULT_NODE_BUDGET


def test_iso_search_completes_only_least_bands():
    # the labelled order-4 search alone needs 132868 nodes
    # (test_orbit_stream_is_the_labelled_search); the labelled stream
    # spends 8522 + 15108
    cfg = sl.EnumConfig(order=4, up_to_iso=True, budget_nodes=100_000)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == 835


def _dot_first_classes(n, budget):
    """One (add, mul) per class of order n by the .-first route, an oracle
    for the +-first search: each least band from bands() taken as the .
    table, and its + tables filled by _complete under the band's
    automorphisms.  A + value is kept when the associativity instances
    _assoc_ok checks hold, and so do the distributivity instances that
    look up its cell: as y+z for every x, or as xy+xz or yx+zx, found
    through an index of the (x, y, z) per pair of products."""
    every = (1 << n) - 1
    found = []
    for mul, auts in bands(n, budget):
        as_left = [[[] for _ in range(n)] for _ in range(n)]  # xy+xz
        as_right = [[[] for _ in range(n)] for _ in range(n)]  # yx+zx
        for x, y, z in itertools.product(range(n), repeat=3):
            as_left[mul[x][y]][mul[x][z]].append((x, y, z))
            as_right[mul[y][x]][mul[z][x]].append((x, y, z))

        def ok(add, pre, i, j):
            v = add[i][j]
            for x in range(n):  # x(i+j) = xi+xj and (i+j)x = ix+jx
                left, right = add[mul[x][i]][mul[x][j]], add[mul[i][x]][mul[j][x]]
                if left not in (None, mul[x][v]) or right not in (None, mul[v][x]):
                    return False
            return (_assoc_ok(add, pre, i, j)
                    and all(add[y][z] is None or mul[x][add[y][z]] == v
                            for x, y, z in as_left[i][j])
                    and all(add[y][z] is None or mul[add[y][z]][x] == v
                            for x, y, z in as_right[i][j]))

        found += [(add, mul) for add, _ in _complete(
            n, lambda tab, pre, i, j: _forced(tab, pre, i, j, every), ok, auts, budget)]
    return found


def test_dot_first_route_finds_the_same_classes(iso_upto4):
    budget = _Budget(DEFAULT_NODE_BUDGET, 1800.0)
    forms = {sl.canonical_form(sl.SemiringTable.from_rows(add, mul))
             for n in (1, 2, 3, 4) for add, mul in _dot_first_classes(n, budget)}
    assert forms == set(iso_upto4)
    # the class set is closed under reversing + or . or both
    for plus, dot in itertools.product((False, True), repeat=2):
        assert {sl.canonical_form(dual(t, plus, dot)) for t in iso_upto4} == forms


def test_dot_first_route_count_at_order5():
    # about 1 s
    budget = _Budget(DEFAULT_NODE_BUDGET, 1800.0)
    assert len(_dot_first_classes(5, budget)) == 9407
    assert DEFAULT_NODE_BUDGET - budget.nodes_left == 291897


@pytest.mark.slow
def test_dot_first_route_count_at_order6():
    # about 25 s; run with `pytest -m slow`.  The +-first search finds the
    # same 119699 classes (test_order6_iso_count)
    budget = _Budget(DEFAULT_NODE_BUDGET, 1800.0)
    assert len(_dot_first_classes(6, budget)) == 119699
    assert DEFAULT_NODE_BUDGET - budget.nodes_left == 5780446


def test_filter_by_variety():
    cfg = sl.EnumConfig(order=3, filter=("D_dot",))
    members = list(sl.enumerate_idempotent_semirings(cfg))
    ident = sl.parse_identity("x = xyx+x+xyx")
    assert members
    assert all(sl.satisfies_identity(t, ident)[0] for t in members)
    # filtering is a pure restriction of the unfiltered stream
    unfiltered = [t for t in sl.all_idempotent_semirings(3)
                  if sl.satisfies_identity(t, ident)[0]]
    assert [(t.add, t.mul) for t in members] == [(t.add, t.mul) for t in unfiltered]


def test_filter_by_malcev_expression():
    cfg = sl.EnumConfig(order=2, filter=sl.malcev_product("LZ_dot", "D"))
    members = list(sl.enumerate_idempotent_semirings(cfg))
    assert members
    for t in members:
        assert sl.in_variety(t, "L_dot")  # Malcev characterization


def test_filter_shares_each_bands_facts(monkeypatch):
    # one BandFacts per band, so + is transposed once per band and . once
    # per table; without a filter no BandFacts is made and nothing transposed,
    # and a plain loop of Analysis over that stream makes one per band too
    adds, transposed, made = [], [], []
    bands_of, transpose, facts = enumeration.bands, varieties._transpose, varieties.BandFacts

    def recording_bands(*args):
        for add, auts in bands_of(*args):
            adds.append(add)
            yield add, auts

    monkeypatch.setattr(enumeration, "bands", recording_bands)
    monkeypatch.setattr(varieties, "_transpose",
                        lambda table: (transposed.append(table), transpose(table))[1])
    monkeypatch.setattr(varieties, "BandFacts",
                        lambda add: (made.append(add), facts(add))[1])
    assert len(list(sl.enumerate_idempotent_semirings(sl.EnumConfig(
        order=4, up_to_iso=True, filter=("LZ_dot", "D"))))) == 73
    of_add = sum(any(table is add for add in adds) for table in transposed)
    assert (len(adds), len(made), of_add, len(transposed) - of_add) == (46, 46, 46, 835)
    del adds[:], transposed[:], made[:]
    stream = list(sl.enumerate_idempotent_semirings(sl.EnumConfig(order=4, up_to_iso=True)))
    assert (len(stream), len(adds), made, transposed) == (835, 46, [], [])
    assert all(sl.Analysis(t).band.add is t.add for t in stream)
    assert (len(made), len({id(add) for add in made})) == (46, 46)


_BAD_CONFIGS = [(sl.PreconditionError, dict(order=0)),
                (sl.PreconditionError, dict(order=-3)),
                (sl.ResourceBoundError, dict(order=9)),
                (sl.PreconditionError, dict(budget_nodes=0)),
                (sl.PreconditionError, dict(budget_nodes=-1)),
                (sl.PreconditionError, dict(budget_secs=0.0)),
                (sl.PreconditionError, dict(budget_secs=float("nan"))),
                (sl.PreconditionError, dict(filter="D")),
                (sl.PreconditionError, dict(filter=["D"])),
                (sl.PreconditionError, dict(filter=())),
                (sl.PreconditionError, dict(filter=("Nope",))),
                (sl.PreconditionError, dict(filter=("LZ_dot", "Nope")))]


@pytest.mark.parametrize("error, change", _BAD_CONFIGS)
def test_config_refuses_the_same_inputs_on_every_construction(error, change):
    # the constructor, positional or by keyword, _make, _replace, and the
    # round trips through pickle and copy of an unchecked tuple
    valid = sl.EnumConfig(order=3, up_to_iso=True, filter=("D",))
    fields = valid._asdict()
    fields.update(change)
    forged = tuple.__new__(sl.EnumConfig, tuple(fields.values()))
    makers = [lambda: sl.EnumConfig(*fields.values()), lambda: sl.EnumConfig(**fields),
              lambda: sl.EnumConfig._make(fields.values()),
              lambda: valid._replace(**change),
              lambda: pickle.loads(pickle.dumps(valid))._replace(**change),
              lambda: copy.deepcopy(valid)._replace(**change),
              lambda: copy.deepcopy(forged), lambda: copy.copy(forged)]
    makers += [lambda p=p: pickle.loads(pickle.dumps(forged, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    refusals = set()
    for make in makers:
        with pytest.raises(error) as info:
            make()
        refusals.add((type(info.value), str(info.value)))
    assert len(refusals) == 1, refusals


def test_config_validation():
    with pytest.raises(sl.PreconditionError):
        sl.EnumConfig(order=0)
    with pytest.raises(sl.PreconditionError):
        sl.EnumConfig(order=2, budget_nodes=0)
    with pytest.raises(sl.PreconditionError):
        sl.EnumConfig(order=2, budget_secs=float("nan"))
    sl.EnumConfig(order=8)
    with pytest.raises(sl.ResourceBoundError):  # before n! permutations exist
        sl.EnumConfig(order=9)
