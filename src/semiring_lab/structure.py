"""Quotients, Malcev products, spined products and isomorphism testing."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

from .core import (InternalConsistencyError, PreconditionError, SemiringTable,
                   _relabel_rows, satisfies_identity, validate_semiring)
from .relations import Partition


# ---------------------------------------------------------------------------
# Class expressions: named varieties and Malcev products

@dataclass(frozen=True)
class Named:
    variety: "VarietySpec"  # noqa: F821 (defined in varieties)


@dataclass(frozen=True)
class Malcev:
    """The Malcev product left o right of a variety and a class expression."""

    left: Named
    right: "ClassExpr"

    def __post_init__(self):
        if not isinstance(self.left, Named):
            raise PreconditionError("the left factor of a Malcev product "
                                    "must be a named variety")


ClassExpr = Union[Named, Malcev]


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
    from .congruences import is_congruence
    if not is_congruence(t, p):
        raise PreconditionError("partition is not a congruence")
    blocks = p.blocks()
    k = len(blocks)
    reps = [block[0] for block in blocks]
    lab = p.labels
    add = [[lab[t.add[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    mul = [[lab[t.mul[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    names = tuple("|".join(t.names[x] for x in block) for block in blocks)
    return SemiringTable.from_rows(add, mul, names), tuple(lab)


def _require_idempotent(t: SemiringTable, what: str) -> None:
    if any(t.add[a][a] != a or t.mul[a][a] != a for a in range(t.order)):
        raise PreconditionError("%s needs an idempotent semiring" % what)


def is_distributive_lattice(t: SemiringTable) -> bool:
    """Membership of an idempotent semiring in the variety D: both
    operations commutative plus absorption x+xy = x.

    The dual absorption x(x+y) = xx+xy = x+xy = x then follows from
    distributivity and xx = x, hence the idempotency guard (tests/
    test_structure.py::test_distributive_lattices_absorb_dually).
    """
    from .varieties import CATALOG, variety_membership
    _require_idempotent(t, "distributive lattice recognition")
    return variety_membership(t, CATALOG["D"])


# ---------------------------------------------------------------------------
# Malcev products

def _instances(t: SemiringTable, spec: "VarietySpec",  # noqa: F821
               blocks: Sequence[Sequence[int]]) -> Iterator[Tuple[int, int]]:
    """Every pair (u(a), v(a)) with u(a) != v(a), for an identity u = v of
    spec and an assignment a drawn from a single block."""
    for ident in spec.identities:
        for block in blocks:
            for _, u, v in ident.failures(t.add, t.mul, block):
                yield u, v


def _least_congruence(t: SemiringTable, expr: ClassExpr,
                     right: Optional[Partition] = None) -> Partition:
    """rho(expr) (see malcev_membership); `right`, if given, is
    rho(expr.right)."""
    from .congruences import congruence_closure
    if isinstance(expr, Named):
        return congruence_closure(t, _instances(t, expr.variety, [range(t.order)]))
    right = _least_congruence(t, expr.right) if right is None else right
    return congruence_closure(t, _instances(t, expr.left.variety, right.blocks()))


def malcev_membership(t: SemiringTable, expr: ClassExpr,
                      right: Optional[Partition] = None
                      ) -> Tuple[bool, Optional[Partition]]:
    """Membership of an idempotent semiring t in a class expression, with
    the least witness congruence.

    Named(V) is plain variety membership (no witness).  t lies in
    Malcev(V, E) iff V's identities hold inside every class of rho(E),
    the least congruence of t with quotient in E; rho(E) is then returned
    as the witness, and every witness contains it.  rho(W) for a variety
    W is the congruence closure of all identity instances of W on t;
    rho(V o E) is the closure of those instances of V whose assignment
    lies inside one class of rho(E).  rho(D) is the least distributive
    lattice congruence eta.  `right`, if given, is rho(E).

    Proof: every right-nested product of varieties is closed under
    subalgebras and subdirect products, so t has a least congruence with
    quotient in it (Burris & Sankappanavar, A Course in Universal Algebra,
    1981), and a witness rho contains rho(E).  By idempotency congruence
    classes are subalgebras, so each class of rho(E) is a subalgebra of a
    class of rho; V is closed under subalgebras, so rho(E) is a witness
    whenever any congruence is.  Applied to a quotient t/theta in V o E,
    the same argument shows theta contains V's instances inside the
    classes of rho(E); their closure theta0 lies inside rho(E), and
    rho(E)/theta0 witnesses t/theta0 in V o E, so theta0 is rho(V o E).
    """
    if isinstance(expr, Named):
        from .varieties import variety_membership
        return variety_membership(t, expr.variety), None
    _require_idempotent(t, "Malcev membership")
    rho = _least_congruence(t, expr.right) if right is None else right
    for _ in _instances(t, expr.left.variety, rho.blocks()):
        return False, None
    return True, rho


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


@dataclass(frozen=True)
class SpinedDecomposition:
    """S embedded in the fiber product of S/L. and S/R. over S/D.."""

    s1: SemiringTable          # S / L-dot, lies in R-dot
    s2: SemiringTable          # S / R-dot, lies in L-dot
    d: SemiringTable           # S / D-dot, a distributive lattice
    phi1: Tuple[int, ...]      # S1 -> D
    phi2: Tuple[int, ...]      # S2 -> D
    theta: Tuple[Tuple[int, int], ...]  # a -> (L-class, R-class)


def _attempt_spined_decomposition(t: SemiringTable, a: Optional["Analysis"] = None
                                  ) -> Tuple[bool, Optional[SpinedDecomposition], str]:
    """Run the decomposition machinery without assuming membership.

    Returns (ok, decomposition, reason).  Used both by spined_decompose
    (where a failure on a member contradicts the theorem) and by the
    corollary check (where failure on a non-member is expected).
    `a` is t's Analysis (for its Green's relations and eta), made if None.

    Only the paper's content is tested: D. = eta, L. and R. are
    congruences, S/L. is in R_dot and S/R. in L_dot.  The rest holds by
    construction: eta is a congruence with S/eta in D (tests/
    test_congruences.py::test_quotient_by_eta_is_distributive_lattice);
    D = L o R in any semigroup (Howie, Fundamentals of Semigroup Theory,
    ch. 2) and bands are H-trivial, so theta is a bijection onto the fiber
    product (tests/test_structure.py::test_green_d_is_l_then_r_and_h_is_trivial).
    """
    from .congruences import is_congruence
    from .varieties import CATALOG, Analysis, variety_membership
    a = Analysis(t) if a is None else a
    l_dot, r_dot, d_dot = (a.green[k] for k in ("L_dot", "R_dot", "D_dot"))
    # the cheapest refutation first, before any congruence test or quotient
    if d_dot != a.eta:
        return False, None, "D-dot differs from the least d.l. congruence"
    for p, name in ((l_dot, "L-dot"), (r_dot, "R-dot")):
        if not is_congruence(t, p):
            return False, None, "%s is not a congruence" % name
    s1, proj1 = quotient(t, l_dot)
    s2, proj2 = quotient(t, r_dot)
    if not variety_membership(s1, CATALOG["R_dot"]):
        return False, None, "S/L-dot is not in R_dot"
    if not variety_membership(s2, CATALOG["L_dot"]):
        return False, None, "S/R-dot is not in L_dot"
    d, projd = quotient(t, d_dot)
    # phi maps: L-class of a -> D-class of a (well-defined since L-dot
    # refines D-dot); likewise for R-classes
    phi1 = [0] * s1.order
    phi2 = [0] * s2.order
    for x in range(t.order):
        phi1[proj1[x]] = projd[x]
        phi2[proj2[x]] = projd[x]
    theta = tuple(zip(proj1, proj2))
    return True, SpinedDecomposition(s1, s2, d, tuple(phi1), tuple(phi2), theta), ""


def spined_decompose(t: SemiringTable) -> SpinedDecomposition:
    """Decompose a member of D_dot as a spined product of S/L. and S/R..

    Non-members are refused with a PreconditionError naming the failing
    identity witness.  Any post-membership failure contradicts a proved
    theorem and raises InternalConsistencyError.
    """
    from .varieties import CATALOG
    ok, witness = satisfies_identity(t, CATALOG["D_dot"].identities[0])
    if not ok:
        raise PreconditionError(
            "not in D_dot: identity x = xyx+x+xyx fails at %r" % (witness,))
    success, decomp, reason = _attempt_spined_decomposition(t)
    if not success:
        raise InternalConsistencyError(
            "spined decomposition failed on a D_dot member: %s" % reason)
    assert decomp is not None
    return decomp


def reconstruct(decomp: SpinedDecomposition
                ) -> Tuple[SemiringTable, Tuple[Tuple[int, int], ...]]:
    """Rebuild the spined product a decomposition embeds into."""
    return spined_product(decomp.s1, decomp.s2, decomp.d,
                          decomp.phi1, decomp.phi2)
