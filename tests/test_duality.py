"""Metamorphic checks under the dualities that reverse + or . or both, over
every class of orders 1..4: the catalog's left/right names swap, and each
left/right pair of theorem statements trades places."""

import pytest

import semiring_lab as sl

from conftest import dual

# the catalog names each duality swaps; every other name is self-dual
_PLUS_PAIRS = (("LZ_plus", "RZ_plus"), ("LN", "RN"))
_DOT_PAIRS = (("LZ_dot", "RZ_dot"), ("LNB_dot", "RNB_dot"), ("LQBi", "RQBi"),
              ("L_dot", "R_dot"))
# L_plus_var (x+yxy = x) has no dual in the catalog; t' = dual(t) satisfies
# it iff t satisfies this identity, + read reversed (. reversed fixes yxy)
_L_PLUS_VAR_DUAL = {True: "yxy+x = x", False: "x+yxy = x"}

DUALITIES = [(True, False), (False, True), (True, True)]


def _name_map(plus, dot):
    swaps = (_PLUS_PAIRS if plus else ()) + (_DOT_PAIRS if dot else ())
    names = {name: name for name in sl.CATALOG}
    for a, b in swaps:
        names[a], names[b] = b, a
    return names


@pytest.mark.parametrize("plus, dot", DUALITIES)
def test_dual_is_an_idempotent_semiring(iso_upto4, plus, dot):
    for t in iso_upto4:
        assert sl.validate_semiring(dual(t, plus, dot)).is_idempotent_semiring
        assert dual(dual(t, plus, dot), plus, dot) == t


@pytest.mark.parametrize("plus, dot", DUALITIES)
def test_catalog_membership_of_the_dual(iso_upto4, plus, dot):
    names = _name_map(plus, dot)
    l_plus_var_dual = sl.parse_identity(_L_PLUS_VAR_DUAL[plus])
    told_apart = set()
    for t in iso_upto4:
        d = dual(t, plus, dot)
        for name in sl.CATALOG:
            if name == "L_plus_var":
                assert sl.in_variety(d, name) == sl.satisfies_identity(t, l_plus_var_dual)[0]
            else:
                assert sl.in_variety(d, name) == sl.in_variety(t, names[name]), (name, t)
                if sl.in_variety(t, name) != sl.in_variety(t, names[name]):
                    told_apart.add(name)
    # the test has power: some instance tells the two sides of each pair apart
    assert told_apart == {name for name in names if names[name] != name}


@pytest.mark.parametrize("plus", [False, True])
def test_thm_3_3_is_thm_3_4_of_the_dot_dual(iso_upto4, plus):
    # position by position: the L_dot side of t is the R_dot side of its dual
    for t in iso_upto4:
        left = sl.verify_theorem(t, "THM_3_3").conditions
        right = sl.verify_theorem(dual(t, plus, True), "THM_3_4").conditions
        assert [v for _, v in left] == [v for _, v in right], t


def _clause(a, tid, name, member, malcev):
    """A THM_4_1 or THM_4_3 clause `member == malcev` of Analysis a, with
    both of its sides, which a slip could swap together."""
    return (dict(sl.verify_theorem(a, tid).conditions)[name],
            a.member(member), a.malcev(*malcev))


@pytest.mark.parametrize("plus", [False, True])
def test_thm_4_1_l_clause_is_the_r_clause_of_the_dot_dual(iso_upto4, plus):
    sides = set()
    for t in iso_upto4:
        left = _clause(sl.Analysis(t), "THM_4_1", "L_dot_iff_LZdot_malcev_D",
                       "L_dot", ("LZ_dot", "D"))
        right = _clause(sl.Analysis(dual(t, plus, True)), "THM_4_1",
                        "R_dot_iff_RZdot_malcev_D", "R_dot", ("RZ_dot", "D"))
        assert left == right, t
        sides.add(left[2])
    assert sides == {True, False}


@pytest.mark.parametrize("dot", [False, True])
def test_thm_4_3_ln_clause_is_the_rn_clause_of_the_plus_dual(iso_upto4, dot):
    # RB (xyx = x) is self-dual, LN and RN swap, and so do LZ_plus and RZ_plus
    sides = set()
    for t in iso_upto4:
        left = _clause(sl.Analysis(t), "THM_4_3", "LN_iff_RB_malcev_LZplus_D",
                       "LN", ("RB", "LZ_plus", "D"))
        right = _clause(sl.Analysis(dual(t, True, dot)), "THM_4_3",
                        "RN_iff_RB_malcev_RZplus_D", "RN", ("RB", "RZ_plus", "D"))
        assert left == right, t
        sides.add(left[2])
    assert sides == {True, False}
