"""Variety catalog, membership predicates, and per-instance theorem checks.

Every theorem of interest is either an equivalence (a list of conditions
that must all agree on each finite instance) or an implication (a list of
material implications that must all hold).  verify_theorem evaluates the
conditions independently -- identity checks, relation comparisons, Malcev
memberships -- so each check stays two-sided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .core import (Identity, PreconditionError, SemiringTable, holds,
                   parse_identity, satisfies_identity)
from .relations import Partition, green_add, green_mult, quasi_orders
from .structure import ClassExpr, Malcev, Named, malcev_membership, quotient


@dataclass(frozen=True)
class VarietySpec:
    """A named variety given by its defining identities, read within the
    class of idempotent semirings (the semiring axioms are presupposed)."""

    name: str
    identities: Tuple[Identity, ...]


def _spec(name: str, *identity_texts: str) -> VarietySpec:
    return VarietySpec(name, tuple(parse_identity(s) for s in identity_texts))


# Naming note: the literature writes R-bullet both for the variety of
# multiplicatively rectangular semirings (xyx = x) and for the variety on
# which the least distributive lattice congruence equals Green's R of the
# multiplicative reduct.  Here the former is "RB", the latter "R_dot".
CATALOG: Dict[str, VarietySpec] = {spec.name: spec for spec in [
    _spec("I"),                                  # all idempotent semirings
    _spec("R_plus", "x+y+x = x"),
    _spec("RB", "xyx = x"),
    _spec("LZ_plus", "x+y = x"),
    _spec("RZ_plus", "x+y = y"),
    _spec("LZ_dot", "xy = x"),
    _spec("RZ_dot", "xy = y"),
    _spec("LNB_dot", "xyz = xzy"),
    _spec("RNB_dot", "xyz = yxz"),
    _spec("LQBi", "x+xy+x = x"),
    _spec("RQBi", "x+yx+x = x"),
    _spec("LN", "x+xyx = x"),
    _spec("RN", "xyx+x = x"),
    _spec("N", "x+xyx+x = x"),
    _spec("Sl_plus", "x+y = y+x"),
    _spec("D", "x+y = y+x", "xy = yx", "x+xy = x"),
    _spec("Bi", "x+xy+x = x", "x+yx+x = x"),
    _spec("D_dot", "x = xyx+x+xyx"),
    _spec("L_dot", "x = xy+x+xy"),
    _spec("R_dot", "x = yx+x+yx"),
    _spec("L_plus_var", "x+yxy = x"),
]}


def variety_membership(t: SemiringTable, v: VarietySpec) -> bool:
    """Conjunction of exhaustive identity checks over v's identities."""
    return all(satisfies_identity(t, ident)[0] for ident in v.identities)


def in_variety(t: SemiringTable, name: str) -> bool:
    return variety_membership(t, CATALOG[name])


def malcev_product(*names: str) -> ClassExpr:
    """The right-nested Malcev product V1 o (V2 o (... o Vk)) of catalog
    varieties; a single name gives that variety."""
    for name in names:
        if name not in CATALOG:
            raise PreconditionError(
                "unknown class %r; known: %s" % (name, ", ".join(sorted(CATALOG))))
    expr = Named(CATALOG[names[-1]])
    for name in reversed(names[:-1]):
        expr = Malcev(Named(CATALOG[name]), expr)
    return expr


RELATION_NAMES = ("D_plus", "L_plus", "R_plus", "D_dot", "L_dot", "R_dot")


def green_relation(t: SemiringTable, which: str) -> Partition:
    if which not in RELATION_NAMES:
        raise PreconditionError("unknown relation %r; expected one of %r"
                                % (which, RELATION_NAMES))
    l_add, r_add, d_add = green_add(t)
    l_mul, r_mul, d_mul = green_mult(t)
    return {"D_plus": d_add, "L_plus": l_add, "R_plus": r_add,
            "D_dot": d_mul, "L_dot": l_mul, "R_dot": r_mul}[which]


def eta_equals_relation(t: SemiringTable, which: str) -> bool:
    """Whether the least distributive lattice congruence equals the named
    Green's relation, compared as partitions."""
    from .congruences import eta
    return eta(t) == green_relation(t, which)


# ---------------------------------------------------------------------------
# Theorem reports

@dataclass(frozen=True)
class TheoremReport:
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


def _equivalence(theorem_id: str, conditions: List[Tuple[str, bool]]
                 ) -> TheoremReport:
    values = [v for _, v in conditions]
    return TheoremReport(theorem_id, "equivalence", tuple(conditions),
                         all(v == values[0] for v in values))


def _implication(theorem_id: str, conditions: List[Tuple[str, bool]]
                 ) -> TheoremReport:
    # condition values are material implications; all must hold
    return TheoremReport(theorem_id, "implication", tuple(conditions),
                         all(v for _, v in conditions))


def _malcev(t: SemiringTable, *names: str) -> bool:
    return malcev_membership(t, malcev_product(*names))[0]


def _thm_lemma_1_1(t: SemiringTable) -> TheoremReport:
    return _equivalence("LEMMA_1_1", [
        ("eta_equals_D_plus", eta_equals_relation(t, "D_plus")),
        ("band_semiring_identities", in_variety(t, "Bi")),
        ("in_Rplus_malcev_D", _malcev(t, "R_plus", "D")),
    ])


def _thm_lemma_1_2(t: SemiringTable) -> TheoremReport:
    _, _, d_mul = green_mult(t)
    l_add, _, _ = green_add(t)
    return _equivalence("LEMMA_1_2", [
        ("eta_equals_L_plus", eta_equals_relation(t, "L_plus")),
        ("LN_and_Ddot_in_Lplus", in_variety(t, "LN") and d_mul.refines(l_add)),
        ("identity_x_plus_yxy", holds(t, "x+yxy = x")),
        ("in_LZplus_malcev_D", _malcev(t, "LZ_plus", "D")),
    ])


def _thm_lemma_2_4(t: SemiringTable) -> TheoremReport:
    return _equivalence("LEMMA_2_4", [
        ("in_N", in_variety(t, "N")),
        ("identity_xz_xyz_xz", holds(t, "xz+xyz+xz = xz")),
    ])


def _thm_2_5(t: SemiringTable) -> TheoremReport:
    from .congruences import eta, sigma
    in_n = in_variety(t, "N")
    rel = sigma(t)
    transitive = rel.is_transitive()
    induces = transitive and rel.is_equivalence() and rel.to_partition() == eta(t)
    return _implication("THM_2_5", [
        ("N_implies_sigma_transitive", (not in_n) or transitive),
        ("N_implies_sigma_is_eta", (not in_n) or induces),
    ])


def _thm_3_1(t: SemiringTable) -> TheoremReport:
    _, _, d_mul = green_mult(t)
    _, _, d_add = green_add(t)
    return _equivalence("THM_3_1", [
        ("eta_equals_D_dot", eta_equals_relation(t, "D_dot")),
        ("N_and_Dplus_in_Ddot", in_variety(t, "N") and d_add.refines(d_mul)),
        ("identity_D_dot", holds(t, "x = xyx+x+xyx")),
    ])


def _thm_lemma_3_2(t: SemiringTable) -> TheoremReport:
    _, r_mul, _ = green_mult(t)
    _, _, d_add = green_add(t)
    return _equivalence("LEMMA_3_2", [
        ("identity_bi1", holds(t, "x+xy+x = x")),
        ("N_and_Rdot_in_Dplus", in_variety(t, "N") and r_mul.refines(d_add)),
    ])


def _thm_3_3(t: SemiringTable) -> TheoremReport:
    l_mul, r_mul, _ = green_mult(t)
    _, _, d_add = green_add(t)
    _, _, le_l_mul, _, le_add, _ = quasi_orders(t)
    return _equivalence("THM_3_3", [
        ("eta_equals_L_dot", eta_equals_relation(t, "L_dot")),
        ("Dplus_in_Ldot_and_bi1",
         d_add.refines(l_mul) and holds(t, "x+xy+x = x")),
        ("N_and_Rdot_Dplus_Ldot",
         in_variety(t, "N") and r_mul.refines(d_add) and d_add.refines(l_mul)),
        ("le_l_mul_in_le_add", le_l_mul.is_subset_of(le_add)),
        ("identity_L_dot", holds(t, "x = xy+x+xy")),
        ("identity_L_dot_factored", holds(t, "x = x(y+x+y)")),
    ])


def _thm_3_4(t: SemiringTable) -> TheoremReport:
    l_mul, r_mul, _ = green_mult(t)
    _, _, d_add = green_add(t)
    _, _, _, le_r_mul, le_add, _ = quasi_orders(t)
    return _equivalence("THM_3_4", [
        ("eta_equals_R_dot", eta_equals_relation(t, "R_dot")),
        ("Dplus_in_Rdot_and_bi2",
         d_add.refines(r_mul) and holds(t, "x+yx+x = x")),
        ("N_and_Ldot_Dplus_Rdot",
         in_variety(t, "N") and l_mul.refines(d_add) and d_add.refines(r_mul)),
        ("le_r_mul_in_le_add", le_r_mul.is_subset_of(le_add)),
        ("identity_R_dot", holds(t, "x = yx+x+yx")),
        ("identity_R_dot_factored", holds(t, "x = (y+x+y)x")),
    ])


def _thm_regband(t: SemiringTable) -> TheoremReport:
    return _implication("LEMMA_REGBAND", [
        ("identity_10", holds(t, "xyzx = xyzx+xyxzx+xyzx")),
        ("identity_11", holds(t, "xyxzx = xyxzx+xyzx+xyxzx")),
    ])


def _thm_ddot_eq(t: SemiringTable) -> TheoremReport:
    return _equivalence("LEMMA_DDOT_EQ", [
        ("in_D_dot", in_variety(t, "D_dot")),
        ("pair_of_absorptions",
         holds(t, "xz = xz+xyz") and holds(t, "xz = xyz+xz")),
        ("identity_xz_sandwich", holds(t, "xz = xyz+xz+xyz")),
    ])


def _thm_nbd(t: SemiringTable) -> TheoremReport:
    in_ddot = in_variety(t, "D_dot")
    return _implication("LEMMA_NBD", [
        ("Ddot_implies_nb_sandwich",
         (not in_ddot) or holds(t, "xyzx = xzyx+xyzx+xzyx")),
    ])


def _thm_normal(t: SemiringTable) -> TheoremReport:
    in_ddot = in_variety(t, "D_dot")
    return _implication("THM_NORMAL", [
        ("Ddot_implies_normal_band",
         (not in_ddot) or holds(t, "xyzx = xzyx")),
    ])


def _thm_lnb(t: SemiringTable) -> TheoremReport:
    return _equivalence("THM_LNB", [
        ("in_LNBdot_and_Ddot", in_variety(t, "LNB_dot") and in_variety(t, "D_dot")),
        ("identity_xz_xzy", holds(t, "xz = xzy+xz+xzy")),
        ("in_L_dot", in_variety(t, "L_dot")),
    ])


def _thm_lemma_4_2(t: SemiringTable) -> TheoremReport:
    from .congruences import is_congruence
    _, _, d_mul = green_mult(t)
    clause = False
    if is_congruence(t, d_mul):
        q, _ = quotient(t, d_mul)
        clause = _malcev(q, "LZ_plus", "D")
    return _equivalence("LEMMA_4_2", [
        ("in_LN", in_variety(t, "LN")),
        ("Ddot_congruence_and_quotient_in_LZplus_malcev_D", clause),
    ])


def _thm_4_1(t: SemiringTable) -> TheoremReport:
    return _implication("THM_4_1", [
        ("L_dot_iff_LZdot_malcev_D",
         in_variety(t, "L_dot") == _malcev(t, "LZ_dot", "D")),
        ("R_dot_iff_RZdot_malcev_D",
         in_variety(t, "R_dot") == _malcev(t, "RZ_dot", "D")),
    ])


def _thm_4_3(t: SemiringTable) -> TheoremReport:
    # Both clauses have first factor R-bullet as printed; under the RB
    # reading (see CATALOG note) that is exactly what gets checked here.
    # The alternative readings of the overloaded name are evaluated too
    # and reported as observations, never as gating conditions.
    report = _implication("THM_4_3", [
        ("LN_iff_RB_malcev_LZplus_D",
         in_variety(t, "LN") == _malcev(t, "RB", "LZ_plus", "D")),
        ("RN_iff_RB_malcev_RZplus_D",
         in_variety(t, "RN") == _malcev(t, "RB", "RZ_plus", "D")),
    ])
    observations = (
        ("LN_iff_Rdot_malcev_LZplus_D",
         in_variety(t, "LN") == _malcev(t, "R_dot", "LZ_plus", "D")),
        ("LN_iff_Ldot_malcev_LZplus_D",
         in_variety(t, "LN") == _malcev(t, "L_dot", "LZ_plus", "D")),
    )
    return TheoremReport(report.theorem_id, report.kind, report.conditions,
                         report.consistent, observations)


def _thm_band_regular(t: SemiringTable) -> TheoremReport:
    in_bi = in_variety(t, "Bi")
    return _implication("BAND_SEMIRING_REGULAR", [
        ("Bi_implies_additive_regular_band",
         (not in_bi) or holds(t, "x+y+z+x = x+y+x+z+x")),
    ])


def _thm_cor_join(t: SemiringTable) -> TheoremReport:
    from .structure import _attempt_spined_decomposition
    ok, _, _ = _attempt_spined_decomposition(t)
    return _equivalence("COR_JOIN", [
        ("in_D_dot", in_variety(t, "D_dot")),
        ("spined_decomposition_succeeds", ok),
    ])


THEOREMS: Dict[str, Callable[[SemiringTable], TheoremReport]] = {
    "LEMMA_1_1": _thm_lemma_1_1,
    "LEMMA_1_2": _thm_lemma_1_2,
    "LEMMA_2_4": _thm_lemma_2_4,
    "THM_2_5": _thm_2_5,
    "THM_3_1": _thm_3_1,
    "LEMMA_3_2": _thm_lemma_3_2,
    "THM_3_3": _thm_3_3,
    "THM_3_4": _thm_3_4,
    "LEMMA_REGBAND": _thm_regband,
    "LEMMA_DDOT_EQ": _thm_ddot_eq,
    "LEMMA_NBD": _thm_nbd,
    "THM_NORMAL": _thm_normal,
    "THM_LNB": _thm_lnb,
    "LEMMA_4_2": _thm_lemma_4_2,
    "THM_4_1": _thm_4_1,
    "THM_4_3": _thm_4_3,
    "BAND_SEMIRING_REGULAR": _thm_band_regular,
    "COR_JOIN": _thm_cor_join,
}


def verify_theorem(t: SemiringTable, theorem_id: str) -> TheoremReport:
    """Evaluate every condition of the named theorem on one instance."""
    if theorem_id not in THEOREMS:
        raise PreconditionError("unknown theorem id %r" % theorem_id)
    return THEOREMS[theorem_id](t)
