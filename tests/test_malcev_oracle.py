"""Malcev membership by the least congruence, checked against a search of
the whole congruence lattice."""

import random

import semiring_lab as sl


def _subalgebra(t, elems):
    """Restrict t to elems, or None if elems is not closed under + and .."""
    index = {x: i for i, x in enumerate(sorted(elems))}
    order = sorted(elems)
    add, mul = [], []
    for a in order:
        add_row, mul_row = [], []
        for b in order:
            s, m = t.add[a][b], t.mul[a][b]
            if s not in index or m not in index:
                return None
            add_row.append(index[s])
            mul_row.append(index[m])
        add.append(add_row)
        mul.append(mul_row)
    return sl.SemiringTable.from_rows(add, mul, [t.names[x] for x in order])


class LatticeMalcev:
    """Lattice-search oracle for malcev_membership.

    For the product (V,) + rest: search all congruences rho of t in
    canonical order for one whose quotient lies in rest and whose classes
    are all closed under both operations and lie in V (both checks
    recursive).  A class not closed under + or . disqualifies its
    congruence.  Returns the first witness in canonical congruence order.

    Each table's congruence list, quotients and class subalgebras, and
    each (table, variety) membership, are computed once per oracle.
    """

    def __init__(self):
        self._lattices = {}
        self._members = {}

    def _lattice(self, t):
        if t not in self._lattices:
            self._lattices[t] = [
                (rho, sl.quotient(t, rho)[0],
                 [_subalgebra(t, block) for block in rho.blocks()])
                for rho in sl.all_congruences(t).partitions]
        return self._lattices[t]

    def membership(self, t, names):
        if len(names) == 1:
            key = (t, names[0])
            if key not in self._members:
                self._members[key] = sl.variety_membership(t, sl.CATALOG[names[0]])
            return self._members[key], None
        for rho, q, subs in self._lattice(t):
            if not self.membership(q, names[1:])[0]:
                continue
            if all(sub is not None and self.membership(sub, names[:1])[0]
                   for sub in subs):
                return True, rho
        return False, None


THEOREM_PRODUCTS = ("R_plus:D", "LZ_plus:D", "LZ_dot:D", "RZ_dot:D",
                    "RB:LZ_plus:D", "RB:RZ_plus:D", "R_dot:LZ_plus:D",
                    "L_dot:LZ_plus:D")


def _check_agreement(oracle, t, text):
    names = text.split(":")
    expr = sl.malcev_product(*names)
    member, witness = sl.malcev_membership(t, expr)
    expected, oracle_witness = oracle.membership(t, expr)
    assert member == expected, (text, t)
    if member:
        # the least witness is a congruence inside every other witness
        assert sl.is_congruence(t, witness), (text, t)
        assert witness.refines(oracle_witness), (text, t)
        if names[-1] == "D" and len(names) == 2:
            assert witness == sl.eta(t)
    else:
        assert witness is None


def test_agrees_with_lattice_search_on_all_catalog_pairs():
    oracle = LatticeMalcev()
    tables = [t for n in (1, 2, 3)
              for t in sl.all_idempotent_semirings(n, up_to_iso=True)]
    assert len(tables) == 92
    names = sorted(sl.CATALOG)
    rng = random.Random(1706)
    triples = [":".join(rng.choice(names) for _ in range(3)) for _ in range(30)]
    for t in tables:
        for v in names:
            for w in names:
                _check_agreement(oracle, t, "%s:%s" % (v, w))
        for text in triples:
            _check_agreement(oracle, t, text)


def test_agrees_with_lattice_search_on_theorem_products(iso4):
    oracle = LatticeMalcev()
    for t in iso4:
        for text in THEOREM_PRODUCTS:
            _check_agreement(oracle, t, text)
