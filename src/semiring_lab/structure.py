"""Quotients, distributive lattices, isomorphism and spined products.

The tables here are built from a semiring and a congruence, or from
factors and maps; the spined-product conditions of an Analysis are tested
by _spined_obstruction, and varieties.spined_decompose builds the
decomposition from them.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence, Tuple

from .congruences import is_congruence
from .core import (CATALOG, PreconditionError, SemiringTable, _instances,
                   _relabel_rows, _require_idempotent, validate_semiring,
                   variety_membership)
from .relations import Partition, _compatible


# ---------------------------------------------------------------------------
# Quotients and distributive lattices

def quotient(t: SemiringTable, p: Partition
             ) -> Tuple[SemiringTable, Tuple[int, ...]]:
    """Quotient semiring and the projection map element -> block index.

    Block representatives are the least element of each block.  Only the
    congruence is checked: it makes the tables independent of the
    representatives, and a homomorphic image of a semiring satisfies its
    identities (Burris & Sankappanavar), so the quotient is not re-validated
    (tests/test_structure.py::test_quotients_validate).
    """
    if not is_congruence(t, p):
        raise PreconditionError("partition is not a congruence")
    return _quotient(t, p)


def _quotient(t: SemiringTable, p: Partition) -> Tuple[SemiringTable, Tuple[int, ...]]:
    """quotient for a partition already known to be a congruence."""
    blocks = p.blocks()
    k = len(blocks)
    reps = [block[0] for block in blocks]
    lab = p.labels
    add = [[lab[t.add[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    mul = [[lab[t.mul[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    names = tuple("|".join(t.names[x] for x in block) for block in blocks)
    return SemiringTable.from_rows(add, mul, names), tuple(lab)


def is_distributive_lattice(t: SemiringTable) -> bool:
    """Membership of an idempotent semiring in the variety D: both
    operations commutative plus absorption x+xy = x.

    The dual absorption x(x+y) = xx+xy = x+xy = x then follows from
    distributivity and xx = x, hence the idempotency guard (tests/
    test_structure.py::test_distributive_lattices_absorb_dually).
    """
    _require_idempotent(t, "distributive lattice recognition")
    return variety_membership(t, CATALOG["D"])


# ---------------------------------------------------------------------------
# Isomorphism and spined products

def _canonical_labelling(t: SemiringTable
                         ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The least relabelling of t, as its + rows then its . rows, which
    isomorphic tables and only they share, and the first bijection
    i -> perm[i] attaining it."""
    best = None
    for perm in itertools.permutations(range(t.order)):
        key = _relabel_rows(t.add, perm) + _relabel_rows(t.mul, perm)
        if best is None or key < best[0]:
            best = key, perm
    return best


def canonical_form(t: SemiringTable) -> SemiringTable:
    """Lexicographically least relabeling of t, with default names.

    Two semirings are isomorphic iff their canonical forms are equal.
    """
    key, n = _canonical_labelling(t)[0], t.order
    return SemiringTable.from_rows(key[:n], key[n:])


def is_isomorphic(s: SemiringTable, t: SemiringTable
                  ) -> Optional[Tuple[int, ...]]:
    """A bijection i -> perm[i] preserving both operations, or None:
    s's canonical labelling followed by the inverse of t's, which is
    deterministic and the identity when the two tables are equal."""
    if s.order != t.order:
        return None
    (s_key, s_perm), (t_key, t_perm) = _canonical_labelling(s), _canonical_labelling(t)
    if s_key != t_key:
        return None
    t_inv = sorted(range(t.order), key=t_perm.__getitem__)
    return tuple(t_inv[c] for c in s_perm)


def spined_product(s1: SemiringTable, s2: SemiringTable, d: SemiringTable,
                   phi1: Sequence[int], phi2: Sequence[int]
                   ) -> Tuple[SemiringTable, Tuple[Tuple[int, int], ...]]:
    """Fiber product of s1 and s2 over the spine d.

    s1 and s2 must be idempotent semirings, and phi1 and phi2 surjective
    homomorphisms onto d (all verified).
    Returns the product table and its carrier as (s1-index, s2-index)
    pairs in lexicographic order.
    """
    for s, phi, label in ((s1, phi1, "phi1"), (s2, phi2, "phi2")):
        if len(phi) != s.order or any(not 0 <= v < d.order for v in phi):
            raise PreconditionError("%s is not a map onto d's carrier" % label)
        if set(phi) != set(range(d.order)):
            raise PreconditionError("%s is not surjective" % label)
        for a in range(s.order):
            for b in range(s.order):
                if (phi[s.add[a][b]] != d.add[phi[a]][phi[b]]
                        or phi[s.mul[a][b]] != d.mul[phi[a]][phi[b]]):
                    raise PreconditionError("%s is not a homomorphism" % label)
    elems = [(i, j) for i in range(s1.order) for j in range(s2.order)
             if phi1[i] == phi2[j]]
    index = {e: k for k, e in enumerate(elems)}
    add = [[index[(s1.add[a1][b1], s2.add[a2][b2])] for (b1, b2) in elems]
           for (a1, a2) in elems]
    mul = [[index[(s1.mul[a1][b1], s2.mul[a2][b2])] for (b1, b2) in elems]
           for (a1, a2) in elems]
    names = ["(%s,%s)" % (s1.names[i], s2.names[j]) for i, j in elems]
    prod = SemiringTable.from_rows(add, mul, names)
    # a subdirect product of s1 and s2: it fails exactly when one of them does
    if not validate_semiring(prod).is_idempotent_semiring:
        raise PreconditionError("s1 or s2 is not an idempotent semiring")
    return prod, tuple(elems)


class SpinedDecomposition(NamedTuple):
    """S embedded in the fiber product of S/L. and S/R. over S/D.."""

    s1: SemiringTable          # S / L-dot, lies in R-dot
    s2: SemiringTable          # S / R-dot, lies in L-dot
    d: SemiringTable           # S / D-dot, a distributive lattice
    phi1: Tuple[int, ...]      # S1 -> D
    phi2: Tuple[int, ...]      # S2 -> D
    theta: Tuple[Tuple[int, int], ...]  # a -> (L-class, R-class)


def _spined_obstruction(a: "Analysis") -> str:  # noqa: F821 (varieties.Analysis)
    """Why the table t of the Analysis a does not decompose as the spined
    product of S/L. and S/R. over S/D., or "" when it does.

    Only the paper's content is tested: D. = eta, L. and R. are
    congruences, S/L. is in R_dot and S/R. in L_dot.  The last two are
    decided without building the quotients: the projection onto S/L. is a
    surjective homomorphism, so S/L. satisfies x = yx+x+yx iff both sides
    are L.-related at every assignment in S, and likewise for S/R. (tests/
    test_structure.py::test_spined_round_trip_small checks the quotient
    tables).  The rest holds by construction: eta is a congruence with
    S/eta in D (tests/test_congruences.py::
    test_quotient_by_eta_is_distributive_lattice); D = L o R in any
    semigroup (Howie, Fundamentals of Semigroup Theory, ch. 2) and bands
    are H-trivial, so theta is a bijection onto the fiber product (tests/
    test_structure.py::test_green_d_is_l_then_r_and_h_is_trivial).
    """
    t, l_dot, r_dot = a.t, a.green["L_dot"], a.green["R_dot"]
    # the cheapest refutation first, before any congruence test
    if a.green["D_dot"] != a.eta:
        return "D-dot differs from the least d.l. congruence"
    for p, name in ((l_dot, "L-dot"), (r_dot, "R-dot")):
        if not _compatible(p.labels, a.lines):
            return "%s is not a congruence" % name
    for p, name, variety in ((l_dot, "L-dot", "R_dot"), (r_dot, "R-dot", "L_dot")):
        lab = p.labels
        if any(lab[u] != lab[v]
               for u, v in _instances(t, CATALOG[variety], [range(t.order)])):
            return "S/%s is not in %s" % (name, variety)
    return ""


def reconstruct(decomp: SpinedDecomposition
                ) -> Tuple[SemiringTable, Tuple[Tuple[int, int], ...]]:
    """Rebuild the spined product a decomposition embeds into."""
    return spined_product(decomp.s1, decomp.s2, decomp.d,
                          decomp.phi1, decomp.phi2)
