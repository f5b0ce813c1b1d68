import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_lab as sl
from semiring_lab.core import _relabel_rows
from semiring_lab.enumeration import (_assoc_ok, _Budget, _complete, _distrib_ok,
                                      _idempotent_seed, _off_diagonal_cells,
                                      _relabelled_cmp, _touching_sums)

# counts computed once with naive_labeled_count and frozen; the live
# oracle comparison below keeps the generator honest regardless.  Order 4
# is reached only up to isomorphism, through the orbit sum below.
LABELED_COUNTS = {1: 1, 2: 16, 3: 379, 4: 15108}
ISO_COUNTS = {1: 1, 2: 10, 3: 81, 4: 835}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_matches_oracle(n, labeled_by_order):
    # itertools.product lists the naive pairs in depth-first order
    assert [(t.add, t.mul) for t in labeled_by_order[n]] == sl.naive_labeled_pairs(n)
    assert len(labeled_by_order[n]) == LABELED_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iso_stream_is_the_canonical_filter(n, labeled_by_order):
    # oracle: every labelled table, kept iff it is its own canonical form
    oracle = [t for t in labeled_by_order[n] if sl.canonical_form(t) == t]
    assert sl.all_idempotent_semirings(n, up_to_iso=True) == oracle


def _leaf_filtered_iso_stream(n):
    """The iso stream with no pruning under Aut(+): the least bands found
    by comparing full relabelled copies, each band's . tables completed in
    full, and a completion dropped iff some automorphism of + relabels it
    smaller.  Returns the kept (add, mul) pairs and the numbers of least
    bands and of completions."""
    cells, budget = _off_diagonal_cells(n), _Budget(10 ** 7, 1800.0)
    perms = list(itertools.permutations(range(n)))
    kept, bands, completions = [], 0, 0
    for add in _complete(_idempotent_seed(n), n, cells, 0,
                         lambda tab, i, j: _assoc_ok(tab, n, i, j), budget):
        keys = [_relabel_rows(add, p) for p in perms]
        if min(keys) < add:
            continue
        bands += 1
        auts = [p for p, key in zip(perms, keys) if key == add]
        touching = _touching_sums(add, n)
        for mul in _complete(_idempotent_seed(n), n, cells, 0,
                             lambda tab, i, j: (_assoc_ok(tab, n, i, j) and
                                                _distrib_ok(add, touching, tab, i, j)),
                             budget):
            completions += 1
            if not any(_relabel_rows(mul, p) < mul for p in auts):
                kept.append((add, mul))
    return kept, bands, completions


@pytest.mark.parametrize("n, bands, completions", [(3, 10, 138), (4, 46, 2216)])
def test_orderly_pruning_keeps_the_leaf_filtered_stream(n, bands, completions, iso4):
    kept, least, completed = _leaf_filtered_iso_stream(n)
    assert (least, completed) == (bands, completions)
    assert [(t.add, t.mul) for t in _iso_reps(n, iso4)] == kept


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
    # labeled count
    total = 0
    for t in _iso_reps(n, iso4):
        orbit = {(r.add, r.mul)
                 for r in (t.relabel(p) for p in itertools.permutations(range(n)))}
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


def test_budget_exhaustion_is_an_error():
    cfg = sl.EnumConfig(order=3, budget_nodes=50)
    with pytest.raises(sl.BudgetExceededError):
        list(sl.enumerate_idempotent_semirings(cfg))


def test_node_budget_pins_the_pruning():
    # the labelled order-3 search visits exactly 3594 nodes
    cfg = sl.EnumConfig(order=3, budget_nodes=3594)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == 379
    with pytest.raises(sl.BudgetExceededError):
        list(sl.enumerate_idempotent_semirings(sl.EnumConfig(order=3, budget_nodes=3593)))


@pytest.mark.parametrize("n, nodes, classes", [(3, 1056, 81), (4, 32572, 835)])
def test_node_budget_pins_the_orderly_pruning(n, nodes, classes):
    # without pruning under Aut(+) the iso search visits 1320 and 54168
    cfg = sl.EnumConfig(order=n, up_to_iso=True, budget_nodes=nodes)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == classes
    with pytest.raises(sl.BudgetExceededError):
        list(sl.enumerate_idempotent_semirings(
            sl.EnumConfig(order=n, up_to_iso=True, budget_nodes=nodes - 1)))


@pytest.mark.slow
def test_order5_iso_count():
    # two order-5 searches, about 10 s; run with `pytest -m slow`
    cfg = sl.EnumConfig(order=5, up_to_iso=True, budget_nodes=1268080)
    assert sum(1 for _ in sl.enumerate_idempotent_semirings(cfg)) == 9407
    with pytest.raises(sl.BudgetExceededError):
        for _ in sl.enumerate_idempotent_semirings(
                sl.EnumConfig(order=5, up_to_iso=True, budget_nodes=1268079)):
            pass


def test_iso_search_completes_only_least_bands():
    # the labelled order-4 search alone needs 410152 nodes
    cfg = sl.EnumConfig(order=4, up_to_iso=True, budget_nodes=100_000)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == 835


def test_filter_by_variety():
    cfg = sl.EnumConfig(order=3, filter=sl.CATALOG["D_dot"])
    members = list(sl.enumerate_idempotent_semirings(cfg))
    ident = sl.parse_identity("x = xyx+x+xyx")
    assert members
    assert all(sl.satisfies_identity(t, ident)[0] for t in members)
    # filtering is a pure restriction of the unfiltered stream
    unfiltered = [t for t in sl.all_idempotent_semirings(3)
                  if sl.satisfies_identity(t, ident)[0]]
    assert [(t.add, t.mul) for t in members] == [(t.add, t.mul) for t in unfiltered]


def test_filter_by_malcev_expression():
    expr = sl.Malcev(sl.Named(sl.CATALOG["LZ_dot"]), sl.Named(sl.CATALOG["D"]))
    cfg = sl.EnumConfig(order=2, filter=expr)
    members = list(sl.enumerate_idempotent_semirings(cfg))
    assert members
    for t in members:
        assert sl.in_variety(t, "L_dot")  # Malcev characterization


def test_max_count_truncates():
    cfg = sl.EnumConfig(order=3, max_count=5)
    assert len(list(sl.enumerate_idempotent_semirings(cfg))) == 5


def test_config_validation():
    with pytest.raises(sl.PreconditionError):
        sl.EnumConfig(order=0)
    with pytest.raises(sl.PreconditionError):
        sl.EnumConfig(order=2, budget_nodes=0)
    with pytest.raises(sl.PreconditionError):
        sl.EnumConfig(order=2, budget_secs=float("nan"))
