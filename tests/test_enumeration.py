import itertools

import pytest

import semiring_lab as sl

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
