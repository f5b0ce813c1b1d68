"""Finite-algebra workbench for idempotent semirings.

Computes Green's relations on both reducts, the least distributive
lattice congruence (three independent routes), variety and Malcev-product
membership, quotients and spined-product decompositions, and machine
checks a catalog of theorems about these on exhaustively enumerated small
semirings.
"""

from .core import (BudgetExceededError, Identity, InternalConsistencyError,
                   PreconditionError, ResourceBoundError, SemiringFormatError,
                   SemiringTable, Term, ValidationReport, eval_term,
                   format_semiring_text, parse_identity, parse_semiring_text,
                   parse_term, satisfies_identity, validate_semiring)
from .relations import BinRelation, Partition, green_add, green_mult, quasi_orders
from .congruences import (CongruenceSet, all_congruences, congruence_closure,
                          eta, is_congruence, least_dl_congruence, sigma,
                          sigma_star)
from .varieties import (CATALOG, TheoremReport, THEOREMS, VarietySpec,
                        eta_equals_relation, in_variety, malcev_product,
                        variety_membership, verify_theorem)
from .structure import (ClassExpr, Malcev, Named, SpinedDecomposition,
                        canonical_form, is_distributive_lattice, is_isomorphic,
                        malcev_membership, quotient, reconstruct,
                        spined_decompose, spined_product)
from .enumeration import (EnumConfig, all_idempotent_semirings,
                          enumerate_idempotent_semirings, naive_labeled_count,
                          naive_labeled_pairs)

__version__ = "0.1.0"
