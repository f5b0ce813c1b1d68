"""Malcev-product membership, spined products and decomposition, and
per-instance theorem checks.

A class is the tuple of catalog names of a right-nested Malcev product
V1 o (V2 o (... o Vk)), one name being the variety itself (the catalog is
core.CATALOG); Analysis.member decides every such class.

Every theorem of interest is an equivalence (conditions that must all agree
on each finite instance) or an implication (material implications that must
all hold).  verify_theorem evaluates each condition on its own terms --
identity checks, relation comparisons, Malcev memberships -- reading one
Analysis that computes what they share once, and the facts of + once per +
table.  judge_suite judges several theorems after one pass over JUDGED.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .congruences import _quotient, sigma
from .core import (CATALOG, Identities, Identity, InternalConsistencyError, PreconditionError,
                   SemiringTable, _instances, _relates, _require_idempotent,
                   parse_identity, satisfies_identity, validate_semiring)
from .relations import Partition, _compatible, _green, _merge_blocks, _transpose


def malcev_product(*names: str) -> Tuple[str, ...]:
    """The right-nested Malcev product V1 o (V2 o (... o Vk)) of catalog
    varieties, as the tuple of their names; a single name is that variety.
    An empty product or an unknown name is refused."""
    if not names:
        raise PreconditionError("a Malcev product needs at least one variety")
    for name in names:
        if name not in CATALOG:
            raise PreconditionError(
                "unknown class %r; known: %s" % (name, ", ".join(sorted(CATALOG))))
    return names


RELATION_NAMES = ("D_plus", "L_plus", "R_plus", "D_dot", "L_dot", "R_dot")


def eta_equals_relation(t: SemiringTable, which: str) -> bool:
    """Whether the least distributive lattice congruence equals the named
    Green's relation, compared as partitions."""
    if which not in RELATION_NAMES:
        raise PreconditionError("unknown relation %r; expected one of %r"
                                % (which, RELATION_NAMES))
    a = Analysis(t)
    return a.eta == a.green[which]


class _lazy(cached_property):
    """cached_property without the lock Python 3.10 and 3.11 take on each first read"""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class BandFacts:
    """What the theorems ask of a + table alone, each computed at most once
    and shared by the Analysis of every table over that + tuple: Green's
    L+, R+ and D+, the transposed table and BAND_SEMIRING_REGULAR's
    conclusion."""

    green = _lazy(lambda self: dict(zip(
        ("L_plus", "R_plus", "D_plus"), _green(self.add, len(self.add)))))
    transposed = _lazy(lambda self: _transpose(self.add))
    regular = _lazy(lambda self: next(THEOREM_IDENTITIES[
        "x+y+z+x = x+y+x+z+x"].failures(self.add, None, range(len(self.add))),
        None) is None)

    def __init__(self, add: Tuple[Tuple[int, ...], ...]):
        self.add = add


class Analysis:
    """What the theorem catalog asks of one instance t, each computed at
    most once and dropped with this object: Green's relations of both
    reducts, sigma, eta (the closure of sigma, as in congruences.eta),
    the membership of each class asked about, and the blocks of the least
    congruence rho(E) of each right factor E of a Malcev product.  Every
    other identity a theorem reads, the quasi-order inclusions of THM_3_3
    and THM_3_4 among them, is one of THEOREM_IDENTITIES, asked by holds.
    Once judge_suite has run its pass over JUDGED, member and holds read off
    its mask each variety, text and product over one block of rho it decides.
    What depends on + alone is read from band, the BandFacts of t.add,
    kept in _band and reused by the next Analysis over that same tuple object.

    t must be an idempotent semiring.  Only idempotency is checked, once,
    here; the rest is the caller's to validate."""

    # sigma calls the module-level function of the same name; green skips
    # green_add's and green_mult's band check
    green = _lazy(lambda self: {**self.band.green, **dict(zip(
        ("L_dot", "R_dot", "D_dot"), _green(self.t.mul, self.t.order)))})
    sigma = _lazy(lambda self: sigma(self.t))
    # congruences._translations of t, made once: eta, each rho and the
    # congruence tests of LEMMA_4_2 and COR_JOIN read them
    lines = _lazy(lambda self: (self.t.add, self.band.transposed,
                                self.t.mul, _transpose(self.t.mul)))
    # the closure of sigma, as block labels and blocks: eta and rho(D)
    _eta = _lazy(lambda self: _merge_blocks(self.t.order, self.sigma.pairs, self.lines))
    eta = _lazy(lambda self: Partition(self._eta[0]))
    sigma_transitive = _lazy(lambda self: self.sigma.is_transitive())
    # sigma lies in eta, its closure, so they are equal iff equally large
    sigma_is_eta = _lazy(lambda self: len(self.sigma.pairs) == sum(
        len(block) ** 2 for block in self._rho_blocks(("D",))))

    def __init__(self, t: SemiringTable):
        global _band
        _require_idempotent(t, "Analysis")
        if _band.add is not t.add:
            _band = BandFacts(t.add)
        self.t, self.band = t, _band
        self._members: Dict[Tuple[str, ...], bool] = {}
        self._rho: Dict[Tuple[str, ...], Sequence[Sequence[int]]] = {}
        self._failed: Optional[int] = None  # JUDGED's mask, once judge_suite runs the pass

    def member(self, *names: str) -> bool:
        """Membership in the right-nested Malcev product of the named catalog
        varieties, one name being the variety itself: each block of rho of
        the rest lies in the first (the proof is at malcev_membership).  Of
        V o W o E, rho(W o E) lies in rho(E) and holds the equivalence W's
        instances generate in rho(E)'s blocks: two bounds before its closure."""
        found = self._members.get(names)
        if found is None:
            if names not in _CHECKED:
                _CHECKED.add(malcev_product(*names))
            bits = _BITS.get(names[:1]) if self._failed is not None else None
            t, rest = self.t, names[1:]
            if len(rest) > 1 and (self.member(names[0], *rest[1:]) or not _relates(
                    t, range(t.order), CATALOG[names[0]], _merge_blocks(t.order, _instances(
                        t, CATALOG[rest[0]], self._rho_blocks(rest[1:])))[1])):
                found = self.member(names[0], *rest[1:])  # the bound that decided
            # over one block, _relates with labels range(n) is plain membership
            elif bits is not None and (not rest or len(self._rho_blocks(rest)) == 1):
                found = not self._failed & bits
            else:
                found = _relates(t, range(t.order), CATALOG[names[0]], self._rho_blocks(rest))
            self._members[names] = found
        return found

    def holds(self, text: str) -> bool:
        if self._failed is not None and text in _BITS:
            return not self._failed & _BITS[text]
        ident = THEOREM_IDENTITIES.get(text)
        if ident is None:
            raise PreconditionError("unknown identity %r; known: %s"
                                    % (text, ", ".join(THEOREM_IDENTITIES)))
        return next(ident.failures(self.t.add, self.t.mul, range(self.t.order)), None) is None

    def _rho_blocks(self, names: Tuple[str, ...]) -> Sequence[Sequence[int]]:
        """The blocks of rho of the right-nested product of the named
        varieties: the closure of the first's identity instances inside the
        blocks of rho of the rest.  The product of no factors has the single
        block range(n), and rho(D) is eta."""
        blocks = self._rho.get(names)
        if blocks is None:
            if not names:
                return (range(self.t.order),)
            blocks = self._rho[names] = self._eta[1] if names == ("D",) else _merge_blocks(
                self.t.order, _instances(self.t, CATALOG[names[0]],
                                         self._rho_blocks(names[1:])), self.lines)[1]
        return blocks


def malcev_membership(t: Union[SemiringTable, Analysis], names: Tuple[str, ...]
                      ) -> Tuple[bool, Optional[Partition]]:
    """Membership of an idempotent semiring t, given as a table or as an
    Analysis shared by the products decided on it, in the right-nested
    Malcev product of the named catalog varieties, with the least witness
    congruence (None for a single name, which is plain membership).

    The names are checked as malcev_product checks them, and the product
    is decided by Analysis.member.  t lies in V o E iff V's identities
    hold inside every class of rho(E), the least congruence of t with
    quotient in E; rho(E) is then returned as the witness, and every
    witness contains it.  rho(W) for a variety W is the congruence closure
    of all identity instances of W on t; rho(V o E) is the closure of
    those instances of V whose assignment lies inside one class of rho(E).
    rho(D) is the least distributive lattice congruence eta.

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
    names = malcev_product(*names)
    a = t if isinstance(t, Analysis) else Analysis(t)
    if not a.member(*names):
        return False, None
    if len(names) == 1:
        return True, None
    return True, Partition.from_blocks(a.t.order, a._rho_blocks(names[1:]))


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


def _spined_obstruction(a: Analysis) -> str:
    """Why the table t of the Analysis a does not decompose as the spined
    product of S/L. and S/R. over S/D., or "" when it does.

    Only the paper's content is tested: D. = eta, L. and R. are
    congruences, S/L. is in R_dot and S/R. in L_dot.  The last two are
    read off the congruences by core._relates, without building the
    quotients (tests/test_varieties.py::test_spined_round_trip_small checks
    the quotient tables).  The rest holds by construction: eta is a
    congruence with S/eta in D (tests/test_congruences.py::
    test_quotient_by_eta_is_distributive_lattice); D = L o R in any
    semigroup (Howie, Fundamentals of Semigroup Theory, ch. 2) and bands
    are H-trivial, so theta is a bijection onto the fiber product (tests/
    test_relations.py::test_green_d_is_l_then_r_and_h_is_trivial).
    """
    t, l_dot, r_dot = a.t, a.green["L_dot"], a.green["R_dot"]
    # the cheapest refutation first, before any congruence test
    if a.green["D_dot"] != a.eta:
        return "D-dot differs from the least d.l. congruence"
    for p, name in ((l_dot, "L-dot"), (r_dot, "R-dot")):
        if not _compatible(p.labels, a.lines):
            return "%s is not a congruence" % name
    for p, name, variety in ((l_dot, "L-dot", "R_dot"), (r_dot, "R-dot", "L_dot")):
        if not _relates(t, p.labels, CATALOG[variety], (range(t.order),)):
            return "S/%s is not in %s" % (name, variety)
    return ""


def spined_decompose(t: SemiringTable) -> SpinedDecomposition:
    """Decompose a member of D_dot as a spined product of S/L. and S/R..

    Non-members are refused with a PreconditionError naming the failing
    identity witness.  Any post-membership failure contradicts a proved
    theorem and raises InternalConsistencyError.  The quotients and the
    maps are built only once _spined_obstruction has found none.
    """
    ok, witness = satisfies_identity(t, CATALOG["D_dot"].identities[0])
    if not ok:
        raise PreconditionError(
            "not in D_dot: identity x = xyx+x+xyx fails at %r" % (witness,))
    a = Analysis(t)
    reason = _spined_obstruction(a)
    if reason:
        raise InternalConsistencyError(
            "spined decomposition failed on a D_dot member: %s" % reason)
    s1, proj1 = _quotient(t, a.green["L_dot"])
    s2, proj2 = _quotient(t, a.green["R_dot"])
    d, projd = _quotient(t, a.eta)
    # phi maps: L-class of a -> D-class of a (well-defined since L-dot
    # refines D-dot); likewise for R-classes
    phi1 = [0] * s1.order
    phi2 = [0] * s2.order
    for x in range(t.order):
        phi1[proj1[x]] = projd[x]
        phi2[proj2[x]] = projd[x]
    return SpinedDecomposition(s1, s2, d, tuple(phi1), tuple(phi2),
                               tuple(zip(proj1, proj2)))


def reconstruct(decomp: SpinedDecomposition
                ) -> Tuple[SemiringTable, Tuple[Tuple[int, int], ...]]:
    """Rebuild the spined product a decomposition embeds into."""
    return spined_product(decomp.s1, decomp.s2, decomp.d,
                          decomp.phi1, decomp.phi2)


# The identities the theorems test beyond the catalog's, parsed once.
THEOREM_IDENTITIES: Dict[str, Identity] = {text: parse_identity(text) for text in (
    "xz+xyz+xz = xz", "x = x(y+x+y)", "x = (y+x+y)x", "xyzx = xyzx+xyxzx+xyzx",
    "xyxzx = xyxzx+xyzx+xyxzx", "xz = xz+xyz", "xz = xyz+xz", "xz = xyz+xz+xyz",
    "xyzx = xzyx+xyzx+xzyx", "xyzx = xzyx", "xz = xzy+xz+xzy", "x = x+xy",
    "x = xy+x", "x = x+yx", "x = yx+x", "x+y+z+x = x+y+x+z+x")}
# What judge_suite decides in one pass per table, each identity once: the single names
# and texts THEOREMS ask of some table outside D_dot and the first factors of their
# products, so none of these varieties' (Bi's repeat LQBi's and RQBi's) or texts'
_ALONE = {id(i) for i in (*(i for v in ("Bi", "D", "Sl_plus", "RZ_plus", "RNB_dot") for i in
                            CATALOG[v].identities), *map(THEOREM_IDENTITIES.get, (
    "xyzx = xzyx+xyzx+xzyx", "xyzx = xzyx", "x+y+z+x = x+y+x+z+x")))}
JUDGED = Identities([i for i in (*(i for spec in CATALOG.values() for i in spec.identities),
                                 *THEOREM_IDENTITIES.values()) if id(i) not in _ALONE])
# the mask's bits of each (name,) and text all in JUDGED, by object: hashing terms costs more
_BIT = {id(ident): 1 << k for k, ident in enumerate(JUDGED)}
_BITS = {question: sum(_BIT[id(i)] for i in idents) for question, idents in (
    *(((name,), spec.identities) for name, spec in CATALOG.items()),
    *((text, (ident,)) for text, ident in THEOREM_IDENTITIES.items()))
    if all(id(i) in _BIT for i in idents)}
_BITS[("Bi",)] = _BITS[("LQBi",)] | _BITS[("RQBi",)]
_CHECKED = set()  # the name tuples member has checked, once per process
# the BandFacts the last Analysis read: holding its + tuple, no other tuple takes its id
_band = BandFacts(())


# ---------------------------------------------------------------------------
# Theorem reports

class TheoremReport(NamedTuple):
    """Conditions of one theorem evaluated on one finite instance.

    For an equivalence, consistent means all condition values agree; for
    an implication, that every (material) implication holds.  Observations
    record empirical side findings and never affect consistency.
    """

    theorem_id: str
    kind: str  # "equivalence" | "implication"
    conditions: Tuple[Tuple[str, bool], ...]
    consistent: bool
    observations: Tuple[Tuple[str, bool], ...] = ()


def _lemma_4_2_clause(a: Analysis) -> bool:
    # D. lies in eta (in the semilattice S/eta, aba = a and bab = b give [a] = [b]),
    # so rho(D) of S/D. is eta/D.: S/D. is in LZ_plus o D iff its classes lie in LZ_plus
    # (the label test first: it fails on most tables, and costs less than the congruence test)
    lab = a.green["D_dot"].labels
    return _relates(a.t, lab, CATALOG["LZ_plus"], a._rho_blocks(("D",))) and _compatible(
        lab, a.lines)


# Each theorem's kind and its conditions on an Analysis.
THEOREMS: Dict[str, Tuple[str, Callable[[Analysis], Tuple[Tuple[str, bool], ...]]]] = {
    "LEMMA_1_1": ("equivalence", lambda a: (
        ("eta_equals_D_plus", a.eta == a.green["D_plus"]),
        ("band_semiring_identities", a.member("Bi")),
        ("in_Rplus_malcev_D", a.member("R_plus", "D")),
    )),
    "LEMMA_1_2": ("equivalence", lambda a: (
        ("eta_equals_L_plus", a.eta == a.green["L_plus"]),
        ("LN_and_Ddot_in_Lplus",
         a.member("LN") and a.green["D_dot"].refines(a.green["L_plus"])),
        ("identity_x_plus_yxy", a.member("L_plus_var")),
        ("in_LZplus_malcev_D", a.member("LZ_plus", "D")),
    )),
    "LEMMA_2_4": ("equivalence", lambda a: (
        ("in_N", a.member("N")),
        ("identity_xz_xyz_xz", a.holds("xz+xyz+xz = xz")),
    )),
    "THM_2_5": ("implication", lambda a: (
        ("N_implies_sigma_transitive", (not a.member("N")) or a.sigma_transitive),
        ("N_implies_sigma_is_eta", (not a.member("N")) or a.sigma_is_eta),
    )),
    "THM_3_1": ("equivalence", lambda a: (
        ("eta_equals_D_dot", a.eta == a.green["D_dot"]),
        ("N_and_Dplus_in_Ddot",
         a.member("N") and a.green["D_plus"].refines(a.green["D_dot"])),
        ("identity_D_dot", a.member("D_dot")),
    )),
    "LEMMA_3_2": ("equivalence", lambda a: (
        ("identity_bi1", a.member("LQBi")),
        ("N_and_Rdot_in_Dplus",
         a.member("N") and a.green["R_dot"].refines(a.green["D_plus"])),
    )),
    "THM_3_3": ("equivalence", lambda a: (
        ("eta_equals_L_dot", a.eta == a.green["L_dot"]),
        ("Dplus_in_Ldot_and_bi1",
         a.green["D_plus"].refines(a.green["L_dot"]) and a.member("LQBi")),
        ("N_and_Rdot_Dplus_Ldot",
         a.member("N") and a.green["R_dot"].refines(a.green["D_plus"])
         and a.green["D_plus"].refines(a.green["L_dot"])),
        # a <=l. b (a = ba) puts a in <=+ below b (b = a+b = b+a).  As b is
        # idempotent, the a with a = ba are exactly the products by, so the
        # inclusion says b = b+by = by+b for all b, y: two identities
        ("le_l_mul_in_le_add", a.holds("x = x+xy") and a.holds("x = xy+x")),
        ("identity_L_dot", a.member("L_dot")),
        ("identity_L_dot_factored", a.holds("x = x(y+x+y)")),
    )),
    "THM_3_4": ("equivalence", lambda a: (
        ("eta_equals_R_dot", a.eta == a.green["R_dot"]),
        ("Dplus_in_Rdot_and_bi2",
         a.green["D_plus"].refines(a.green["R_dot"]) and a.member("RQBi")),
        ("N_and_Ldot_Dplus_Rdot",
         a.member("N") and a.green["L_dot"].refines(a.green["D_plus"])
         and a.green["D_plus"].refines(a.green["R_dot"])),
        # dually, the a with a = ab are the products yb
        ("le_r_mul_in_le_add", a.holds("x = x+yx") and a.holds("x = yx+x")),
        ("identity_R_dot", a.member("R_dot")),
        ("identity_R_dot_factored", a.holds("x = (y+x+y)x")),
    )),
    "LEMMA_REGBAND": ("implication", lambda a: (
        ("identity_10", a.holds("xyzx = xyzx+xyxzx+xyzx")),
        ("identity_11", a.holds("xyxzx = xyxzx+xyzx+xyxzx")),
    )),
    "LEMMA_DDOT_EQ": ("equivalence", lambda a: (
        ("in_D_dot", a.member("D_dot")),
        ("pair_of_absorptions",
         a.holds("xz = xz+xyz") and a.holds("xz = xyz+xz")),
        ("identity_xz_sandwich", a.holds("xz = xyz+xz+xyz")),
    )),
    "LEMMA_NBD": ("implication", lambda a: (
        ("Ddot_implies_nb_sandwich",
         (not a.member("D_dot")) or a.holds("xyzx = xzyx+xyzx+xzyx")),
    )),
    "THM_NORMAL": ("implication", lambda a: (
        ("Ddot_implies_normal_band",
         (not a.member("D_dot")) or a.holds("xyzx = xzyx")),
    )),
    "THM_LNB": ("equivalence", lambda a: (
        ("in_LNBdot_and_Ddot", a.member("LNB_dot") and a.member("D_dot")),
        ("identity_xz_xzy", a.holds("xz = xzy+xz+xzy")),
        ("in_L_dot", a.member("L_dot")),
    )),
    "LEMMA_4_2": ("equivalence", lambda a: (
        ("in_LN", a.member("LN")),
        ("Ddot_congruence_and_quotient_in_LZplus_malcev_D", _lemma_4_2_clause(a)),
    )),
    "THM_4_1": ("implication", lambda a: (
        ("L_dot_iff_LZdot_malcev_D",
         a.member("L_dot") == a.member("LZ_dot", "D")),
        ("R_dot_iff_RZdot_malcev_D",
         a.member("R_dot") == a.member("RZ_dot", "D")),
    )),
    # Both clauses have first factor R-bullet as printed; under the RB
    # reading (see CATALOG note) that is exactly what gets checked here.
    "THM_4_3": ("implication", lambda a: (
        ("LN_iff_RB_malcev_LZplus_D",
         a.member("LN") == a.member("RB", "LZ_plus", "D")),
        ("RN_iff_RB_malcev_RZplus_D",
         a.member("RN") == a.member("RB", "RZ_plus", "D")),
    )),
    "BAND_SEMIRING_REGULAR": ("implication", lambda a: (
        ("Bi_implies_additive_regular_band",
         (not a.member("Bi")) or a.band.regular),
    )),
    "COR_JOIN": ("equivalence", lambda a: (
        ("in_D_dot", a.member("D_dot")),
        ("spined_decomposition_succeeds", not _spined_obstruction(a)),
    )),
}
# What verify_theorem reports beside the conditions: the alternative
# readings of THM_4_3's overloaded name, never gating conditions.  The
# verify command reports conditions only and does not compute them.
OBSERVATIONS: Dict[str, Callable[[Analysis], Tuple[Tuple[str, bool], ...]]] = {
    "THM_4_3": lambda a: (
        ("LN_iff_Rdot_malcev_LZplus_D",
         a.member("LN") == a.member("R_dot", "LZ_plus", "D")),
        ("LN_iff_Ldot_malcev_LZplus_D",
         a.member("LN") == a.member("L_dot", "LZ_plus", "D")),
    )}


def judge(a: Analysis, theorem_id: str) -> Tuple[str, Tuple[Tuple[str, bool], ...], bool]:
    """The named theorem's kind, its conditions on a's table, and whether
    they agree (an equivalence) or all hold (an implication)."""
    if theorem_id not in THEOREMS:
        raise PreconditionError("unknown theorem id %r" % theorem_id)
    kind, conditions_of = THEOREMS[theorem_id]
    conditions = conditions_of(a)
    values = {v for _, v in conditions}
    consistent = values == {True} if kind == "implication" else len(values) == 1
    return kind, conditions, consistent


def judge_suite(a: Analysis, theorem_ids: Sequence[str]) -> list:
    """judge of each named theorem on a's table, after one pass over JUDGED
    if more than one is named: one theorem asks too little to pay for it."""
    if len(theorem_ids) > 1 and a._failed is None:
        a._failed = JUDGED.failed(a.t.add, a.t.mul, range(a.t.order))
    return [judge(a, tid) for tid in theorem_ids]


def verify_theorem(t: Union[SemiringTable, Analysis], theorem_id: str
                   ) -> TheoremReport:
    """judge's verdict on one instance, given as a table or as an Analysis
    shared by the theorems checked on it, with the theorem's observations."""
    a = t if isinstance(t, Analysis) else Analysis(t)
    observed = OBSERVATIONS.get(theorem_id)
    return TheoremReport(theorem_id, *judge(a, theorem_id), observed(a) if observed else ())
