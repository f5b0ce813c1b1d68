import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_lab as sl
from semiring_lab import core
from semiring_lab.core import _AXIOMS, Add, Mul, Var, _canonical_labelling, _instances
from semiring_lab.varieties import THEOREM_IDENTITIES

from conftest import (_relabel_rows, canonical_labelling_by_scan, failures_by_eval_term,
                      is_isomorphic_by_search, preserves_operations,
                      relabel_seeded, violations_by_loops)


def test_golden3_validates(golden3):
    report = sl.validate_semiring(golden3)
    assert report.is_semiring
    assert report.is_idempotent_semiring
    assert report.violations == ()


def test_order1_validates(order1):
    report = sl.validate_semiring(order1)
    assert report.is_idempotent_semiring
    assert report.violations == ()


def test_mutated_table_reports_violation(golden3):
    # change mul entry (c, a) from a to b and re-run the exhaustive check
    mul = [list(row) for row in golden3.mul]
    mul[2][0] = 1
    mutated = sl.SemiringTable.from_rows(golden3.add, mul, golden3.names)
    report = sl.validate_semiring(mutated)
    assert not report.is_idempotent_semiring
    assert report.violations != ()


def test_validation_is_pure(golden3):
    assert sl.validate_semiring(golden3) == sl.validate_semiring(golden3)


def test_validation_matches_hand_loops(small_semirings):
    # the axioms are checked as identities; the loops are the oracle
    rng = random.Random(2017)
    tables = list(small_semirings)
    for n in (1, 2, 3, 4):
        for _ in range(300):
            add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:  # idempotent, so other axioms decide
                for i in range(n):
                    add[i][i] = mul[i][i] = i
            tables.append(sl.SemiringTable.from_rows(add, mul))
    kinds = set()
    for t in tables:
        report = sl.validate_semiring(t)
        assert report.violations == violations_by_loops(t)
        kinds.update(name for name, _ in report.violations)
    assert len(kinds) == 6  # every axiom is seen failing


# each axiom as "witness w violates it", written out by hand
_VIOLATED_BY = {
    "add_associative": lambda A, M, a, b, c: A[A[a][b]][c] != A[a][A[b][c]],
    "mul_associative": lambda A, M, a, b, c: M[M[a][b]][c] != M[a][M[b][c]],
    "left_distributive": lambda A, M, a, b, c: M[a][A[b][c]] != A[M[a][b]][M[a][c]],
    "right_distributive": lambda A, M, a, b, c: M[A[a][b]][c] != A[M[a][c]][M[b][c]],
    "add_idempotent": lambda A, M, a: A[a][a] != a,
    "mul_idempotent": lambda A, M, a: M[a][a] != a,
}


@st.composite
def _random_tables(draw):
    n = draw(st.integers(1, 4))
    cells = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    add, mul = draw(cells), draw(cells)
    if draw(st.booleans()):  # idempotent, so other axioms decide
        for i in range(n):
            add[i][i] = mul[i][i] = i
    return sl.SemiringTable.from_rows(add, mul)


@given(t=_random_tables())
@settings(deadline=None, max_examples=300)
def test_validation_witnesses_violate_their_axioms(t):
    report = sl.validate_semiring(t)
    names = [name for name, _ in report.violations]
    assert len(names) == len(set(names)) and set(names) <= set(_VIOLATED_BY)
    for name, witness in report.violations:
        assert _VIOLATED_BY[name](t.add, t.mul, *witness), (name, witness)


def test_malformed_tables_rejected():
    with pytest.raises(sl.SemiringFormatError):
        sl.SemiringTable.from_rows([[0, 1]], [[0]])
    with pytest.raises(sl.SemiringFormatError):
        sl.SemiringTable.from_rows([[0, 2], [1, 1]], [[0, 0], [1, 1]])


# ---------------------------------------------------------------------------
# term evaluation

def test_eval_term_hand_checked(golden3):
    a, b, c = 0, 1, 2
    term = sl.parse_term("x+xyx+x")
    assert sl.eval_term(golden3, term, [c, b]) == b  # cbc=b, c+b+c=b
    assert sl.eval_term(golden3, sl.parse_term("xyx"), [a, b]) == a


def test_eval_var_is_identity(small_semirings):
    for t in small_semirings[:20]:
        for x in range(t.order):
            assert sl.eval_term(t, Var(0), [x]) == x


def test_eval_term_out_of_range(golden3):
    with pytest.raises(sl.PreconditionError):
        sl.eval_term(golden3, Var(1), [0])


def test_parse_term_shapes():
    assert sl.parse_term("x") == Var(0)
    assert sl.parse_term("xy") == Mul(Var(0), Var(1))
    assert sl.parse_term("x+y+x") == Add(Add(Var(0), Var(1)), Var(0))
    assert sl.parse_term("x(y+z)") == Mul(Var(0), Add(Var(1), Var(2)))
    with pytest.raises(sl.SemiringFormatError):
        sl.parse_term("x+")
    with pytest.raises(sl.SemiringFormatError):
        sl.parse_term("(x")


def test_satisfies_identity_examples(golden3):
    a, b, c = 0, 1, 2
    ok, witness = sl.satisfies_identity(golden3, sl.parse_identity("xy = yx"))
    assert not ok and witness == (a, b)
    ok, witness = sl.satisfies_identity(golden3, sl.parse_identity("x+xyx+x = x"))
    assert not ok and witness == (c, b)
    ok, witness = sl.satisfies_identity(golden3, sl.parse_identity("x+x = x"))
    assert ok and witness is None


def test_witnesses_falsify(small_semirings):
    idents = [sl.parse_identity(s) for s in
              ("xy = yx", "x+y = y+x", "x = xyx", "x+xy+x = x")]
    for t in small_semirings:
        for ident in idents:
            ok, witness = sl.satisfies_identity(t, ident)
            if not ok:
                assert (sl.eval_term(t, ident.lhs, witness)
                        != sl.eval_term(t, ident.rhs, witness))


@given(perm=st.permutations([0, 1, 2]))
@settings(deadline=None, max_examples=6)
def test_identity_invariant_under_variable_renaming(small_semirings, perm):
    def rename(term):
        if isinstance(term, Var):
            return Var(perm[term.index])
        kind = Add if isinstance(term, Add) else Mul
        return kind(rename(term.left), rename(term.right))

    base = sl.parse_identity("xy+z = x+yz")  # arbitrary 3-variable identity
    renamed = sl.Identity(rename(base.lhs), rename(base.rhs), 3)
    for t in small_semirings[::17]:
        assert (sl.satisfies_identity(t, base)[0]
                == sl.satisfies_identity(t, renamed)[0])


def test_compiled_identities_match_eval_term(iso_small):
    # every identity the library evaluates, on the 92 classes of order <= 3
    # and one relabelling of each: same failures in the same order, hence
    # the same truth value and first witness, and the same Malcev pairs
    # inside each eta class
    idents = ([i for spec in sl.CATALOG.values() for i in spec.identities]
              + list(THEOREM_IDENTITIES.values()) + [i for _, i in _AXIOMS])
    rng = random.Random(4471)
    for t in iso_small:
        for s in (t, relabel_seeded(t, rng)):
            classes = sl.eta(s).blocks()
            for ident in idents:
                ref = list(failures_by_eval_term(s, ident, range(s.order)))
                assert list(ident.failures(s.add, s.mul, range(s.order))) == ref
                assert sl.satisfies_identity(s, ident) == (
                    (False, ref[0][0]) if ref else (True, None))
                pairs = [(u, v) for block in classes
                         for _, u, v in failures_by_eval_term(s, ident, block)]
                assert list(_instances(s, sl.VarietySpec("one", (ident,)),
                                       classes)) == pairs


def test_compiled_relates_matches_the_instances(iso_upto4):
    # oracle for core._relates, each identity's compiled early-exit
    # relates: the labels of every instance _instances yields, for every
    # catalog spec and every congruence of every class up to order 4, as
    # the labels over the carrier and as the blocks under equality
    seen = set()
    for t in iso_upto4:
        n = t.order
        for p in sl.all_congruences(t).partitions:
            for labels, blocks in ((p.labels, (range(n),)), (range(n), p.blocks())):
                for spec in sl.CATALOG.values():
                    expected = all(labels[u] == labels[v]
                                   for u, v in _instances(t, spec, blocks))
                    assert core._relates(t, labels, spec, blocks) == expected, (spec, p)
                    seen.add(expected)
    assert seen == {False, True}


def test_compiled_source_computes_each_subterm_once(monkeypatch):
    # xyzx occurs twice and xy three times; each distinct compound subterm
    # is looked up once, in the loop of its last variable, by one identity's
    # failures and by a pass over several, which shares xy, xyx and the
    # rest between LEMMA_REGBAND's pair
    def compounds(term):
        if isinstance(term, Var):
            return set()
        return {term} | compounds(term.left) | compounds(term.right)

    sources = []
    monkeypatch.setattr(core, "exec", lambda src, scope: (
        sources.append(src), exec(src, scope)), raising=False)
    pair = [sl.parse_identity(text) for text in (  # fresh, so compiled here
        "xyzx = xyzx+xyxzx+xyzx", "xyxzx = xyxzx+xyzx+xyxzx")]
    pair[0].failures
    core.Identities(pair).failed
    one, both = sources
    for src, idents, lookups in ((one, pair[:1], 8), (both, pair, 10)):
        assert len(set().union(*(compounds(i.lhs) | compounds(i.rhs) for i in idents))) == lookups
        assert src.count("A[") + src.count("M[") == lookups, src
        assert src.count("M[v0][v1]") == 1 and src.index("M[v0][v1]") < src.index("for v2")


def test_sum_and_product_terms_stay_apart():
    # as plain tuples Add(l, r) and Mul(l, r) would be equal
    x, y = Var(0), Var(1)
    assert Add(x, y) != Mul(x, y) and not Add(x, y) == Mul(x, y)
    assert Add(x, Mul(x, y)) != Add(x, Add(x, y))
    assert Add(x, Mul(x, y)) == Add(x, Mul(x, y))
    assert hash(Mul(x, Add(x, y))) == hash(Mul(Var(0), Add(Var(0), Var(1))))
    keys = {Add(x, y): "+", Mul(x, y): "."}
    assert len(keys) == 2 and keys[Add(x, y)] == "+" and keys[Mul(x, y)] == "."


# sides of one shape that differ only in + against .; were the two terms
# equal, _compile's subterm cache would read one for the other
_SWAPPED = ("x+y = xy", "xy = x+y", "x+yz = x(y+z)", "(x+y)z = xy+z",
            "x+y+xy = xy+x+y", "xyx = x+y+x", "x(y+z)x = x+yz+x")


def test_identities_differing_only_in_the_operation_match_eval_term(golden3, iso_small):
    idents = [sl.parse_identity(text) for text in _SWAPPED]
    failing = 0
    for t in [golden3] + iso_small:
        for ident in idents:
            ref = list(failures_by_eval_term(t, ident, range(t.order)))
            assert list(ident.failures(t.add, t.mul, range(t.order))) == ref
            assert sl.satisfies_identity(t, ident) == (
                (False, ref[0][0]) if ref else (True, None))
            failing += bool(ref)
    assert not sl.satisfies_identity(golden3, idents[0])[0] and failing > len(iso_small)


def _refusal(make):
    with pytest.raises(sl.PreconditionError) as info:
        make()
    return type(info.value), str(info.value)


def test_identity_refuses_undeclared_variables_on_every_construction():
    # the constructor, positional or by keyword, _make, _replace, and the
    # round trips through pickle and copy of an unchecked tuple
    valid = sl.parse_identity("xy = yx")
    for lhs, rhs, nvars in ((Var(1), Var(0), 1), (Add(Var(0), Var(2)), Var(0), 2),
                            (Var(0), Mul(Var(0), Var(1)), 0)):
        fields = dict(lhs=lhs, rhs=rhs, nvars=nvars)
        forged = tuple.__new__(sl.Identity, (lhs, rhs, nvars))
        makers = [lambda: sl.Identity(lhs, rhs, nvars), lambda: sl.Identity(**fields),
                  lambda: sl.Identity._make((lhs, rhs, nvars)),
                  lambda: valid._replace(**fields),
                  lambda: pickle.loads(pickle.dumps(valid))._replace(**fields),
                  lambda: copy.deepcopy(forged), lambda: copy.copy(forged)]
        makers += [lambda p=p: pickle.loads(pickle.dumps(forged, p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        refusals = {_refusal(make) for make in makers}
        assert len(refusals) == 1, refusals


def test_records_refuse_assignment_to_fields(golden3, dl2):
    t = golden3
    records = [(t, "order"), (Var(0), "index"), (Add(Var(0), Var(0)), "left"),
               (Mul(Var(0), Var(0)), "right"), (sl.parse_identity("x = x"), "lhs"),
               (sl.validate_semiring(t), "violations"), (sl.CATALOG["D"], "name"),
               (sl.all_congruences(t), "dl_flags"), (sl.spined_decompose(dl2), "s1"),
               (sl.EnumConfig(order=2), "order")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        assert pickle.loads(pickle.dumps(record)) == copy.deepcopy(record) == record


def test_compiled_failures_stay_out_of_the_pickled_state(golden3):
    ident = sl.parse_identity("x+yz = x(y+z)")
    sl.satisfies_identity(golden3, ident)
    assert "failures" in vars(ident)
    copies = [pickle.loads(pickle.dumps(ident, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.deepcopy(ident), copy.copy(ident)]:
        assert again == ident and "failures" not in vars(again)
        assert sl.satisfies_identity(golden3, again) == sl.satisfies_identity(golden3, ident)


@pytest.mark.parametrize("k", [20, 21])
def test_identities_with_many_variables(k, order1, dl2):
    # nested loops reach Python's limit of 20 blocks; past it the compiled
    # code loops once over the product, in the same order
    assert sl.satisfies_identity(order1, sl.Identity(Var(0), Var(0), k)) == (True, None)
    ident = sl.Identity(Var(k - 1), Mul(Var(0), Var(k - 1)), k)
    first = next(failures_by_eval_term(dl2, ident, range(2)))
    assert next(ident.failures(dl2.add, dl2.mul, range(2))) == first
    assert sl.satisfies_identity(dl2, ident) == (False, first[0])


def test_regular_band_identities_hold_everywhere(small_semirings):
    # these two hold in every idempotent semiring, no hypotheses
    ten = sl.parse_identity("xyzx = xyzx+xyxzx+xyzx")
    eleven = sl.parse_identity("xyxzx = xyxzx+xyzx+xyxzx")
    for t in small_semirings:
        assert sl.satisfies_identity(t, ten)[0]
        assert sl.satisfies_identity(t, eleven)[0]


# ---------------------------------------------------------------------------
# text format

def test_text_round_trip(golden3, dl2, chain3, small_semirings):
    for t in (golden3, dl2, chain3, *small_semirings):
        assert sl.parse_semiring_text(sl.format_semiring_text(t)) == t


@st.composite
def _named_tables(draw):
    n = draw(st.integers(1, 4))
    cells = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    name = st.text(st.characters(categories=["L", "N", "P", "S"]),
                   min_size=1, max_size=4)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    return sl.SemiringTable.from_rows(draw(cells), draw(cells), names)


@given(t=_named_tables())
@settings(deadline=None, max_examples=200)
def test_text_round_trip_random_names(t):
    # any tables, semirings or not, under any distinct whitespace-free names
    assert sl.parse_semiring_text(sl.format_semiring_text(t)) == t


@pytest.mark.parametrize("names", [["a b", "c"], ["", "c"], ["x\n", "y"], [" a", "b"],
                                   [0, 1]])
def test_names_the_text_format_cannot_carry_are_refused(names):
    # each once made a table that format_semiring_text could not print, or
    # printed to a file that parse_semiring_text refused or altered
    with pytest.raises(sl.SemiringFormatError):
        sl.SemiringTable.from_rows([[0, 1], [1, 1]], [[0, 0], [0, 1]], names)


def test_parse_without_names_line():
    t = sl.parse_semiring_text("2\ne0 e1\ne1 e1\n\ne0 e0\ne0 e1\n")
    assert t.order == 2
    assert t.names == ("e0", "e1")


def test_parse_rejects_bad_input():
    with pytest.raises(sl.SemiringFormatError):
        sl.parse_semiring_text("")
    with pytest.raises(sl.SemiringFormatError):
        sl.parse_semiring_text("2\na b\na a\n")  # wrong line count
    with pytest.raises(sl.SemiringFormatError):
        sl.parse_semiring_text("2\na b\na q\nb b\na a\na b\n")  # unknown name


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


def test_relabel_refuses_a_map_that_is_not_a_bijection(iso_small):
    # a repeated value, a value outside range(n) and a map too short
    # (they made an invalid table, a table with entry 5 and an IndexError)
    t = iso_small[16]  # all_idempotent_semirings(3, True)[5]
    assert t.order == 3
    for perm in ([0, 0, 1], [0, 1, 5], [0, 1]):
        with pytest.raises(sl.PreconditionError, match="not a permutation"):
            t.relabel(perm)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_bijection_relabels_as_the_rows_oracle(n):
    # each map of _bijections(n), and SemiringTable.relabel, against the rows
    # comprehension, on tables that need satisfy no axiom
    rng = random.Random(n)
    add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    mul = [[(a * 2 + b) % n for b in range(n)] for a in range(n)]
    t = sl.SemiringTable.from_rows(add, mul, list("abcde")[:n])
    bijections = core._bijections(n)
    assert [p for p, _, _ in bijections] == list(itertools.permutations(range(n)))
    for p, q, image in bijections:
        assert [p[c] for c in q] == list(range(n))
        for rows in (t.add, t.mul):
            flat = bytes(itertools.chain(*rows))
            assert tuple(zip(*[iter(image(flat))] * n)) == _relabel_rows(rows, p)
        r = t.relabel(p)
        assert (r.add, r.mul) == (_relabel_rows(t.add, p), _relabel_rows(t.mul, p))
        assert [r.names[p[k]] for k in range(n)] == list(t.names)


def test_orders_above_the_bound_are_refused_before_any_relabelling(monkeypatch):
    # 9! = 362 880 maps would be built for canonical_form and is_isomorphic;
    # the one bound lives in core, and congruences keeps its name for it
    def refuse(p):
        raise AssertionError("no relabelling may be built above the bound")

    monkeypatch.setattr(core, "_relabelling", refuse)
    n = core.DEFAULT_ORDER_BOUND + 1
    assert n == 9 and sl.congruences.DEFAULT_ORDER_BOUND is core.DEFAULT_ORDER_BOUND
    rows = [[a] * n for a in range(n)]  # the left-zero band, for both operations
    t = sl.SemiringTable.from_rows(rows, rows)
    for refused in (lambda: sl.canonical_form(t), lambda: sl.is_isomorphic(t, t),
                    lambda: sl.EnumConfig(order=n), lambda: sl.all_congruences(t)):
        with pytest.raises(sl.ResourceBoundError, match="order 9 exceeds .* bound 8$"):
            refused()


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


def _assert_labelling_matches_the_full_scan(t):
    key, perm = canonical_labelling_by_scan(t)
    assert _canonical_labelling(t) == (key, perm)
    canon = sl.canonical_form(t)
    assert canon.add + canon.mul == key
    # the canonical form's own first labelling is the identity
    assert sl.is_isomorphic(t, canon) == perm


def test_canonical_labelling_matches_the_full_scan(labeled_by_order):
    # the least + first, then the least . over the bijections attaining it:
    # the full scan's key and first bijection on every labelled table up to
    # order 4, directly and through canonical_form and is_isomorphic
    for n in (1, 2, 3, 4):
        tables = labeled_by_order[n] if n < 4 else sl.all_idempotent_semirings(4)
        for t in tables:
            _assert_labelling_matches_the_full_scan(t)
        assert len(tables) == (1, 16, 379, 15108)[n - 1]


@pytest.mark.slow
def test_canonical_labelling_matches_the_full_scan_at_order5():
    # a seeded relabelling of each of the 9 407 order-5 classes
    rng = random.Random(5120)
    classes = sl.all_idempotent_semirings(5, up_to_iso=True)
    assert len(classes) == 9407
    for s in classes:
        _assert_labelling_matches_the_full_scan(relabel_seeded(s, rng))


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
