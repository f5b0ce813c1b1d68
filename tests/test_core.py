import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiring_lab as sl
from semiring_lab.core import _AXIOMS, Add, Mul, Var
from semiring_lab.structure import _instances
from semiring_lab.varieties import THEOREM_IDENTITIES

from conftest import failures_by_eval_term, relabel_seeded, violations_by_loops


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
