"""Metamorphic checks under the dualities that reverse + or . or both:
the catalog's left/right names swap, and THM_3_3 turns into THM_3_4."""

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
def test_dual_is_an_idempotent_semiring(iso_small, plus, dot):
    for t in iso_small:
        assert sl.validate_semiring(dual(t, plus, dot)).is_idempotent_semiring
        assert dual(dual(t, plus, dot), plus, dot) == t


@pytest.mark.parametrize("plus, dot", DUALITIES)
def test_catalog_membership_of_the_dual(iso_small, plus, dot):
    names = _name_map(plus, dot)
    l_plus_var_dual = sl.parse_identity(_L_PLUS_VAR_DUAL[plus])
    told_apart = set()
    for t in iso_small:
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
def test_thm_3_3_is_thm_3_4_of_the_dot_dual(iso_small, plus):
    # position by position: the L_dot side of t is the R_dot side of its dual
    for t in iso_small:
        left = sl.verify_theorem(t, "THM_3_3").conditions
        right = sl.verify_theorem(dual(t, plus, True), "THM_3_4").conditions
        assert [v for _, v in left] == [v for _, v in right], t
