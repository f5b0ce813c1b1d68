"""Finite-algebra workbench for idempotent semirings.

Computes Green's relations on both reducts, the least distributive
lattice congruence (three routes, only one running a congruence closure,
cross-checked), variety and Malcev-product membership, quotients and
spined-product decompositions, and machine checks a catalog of theorems
about these on exhaustively enumerated small semirings.

A class is a right-nested Malcev product V1 o (V2 o (... o Vk)) of
catalog varieties, given as the tuple of their names (malcev_product);
varieties.Analysis.member decides it, one name being plain membership.
Apart from the three eta routes, each question has one implementation,
and the modules import only downwards: core, relations, congruences,
varieties, enumeration, cli.
"""

from .core import (CATALOG, BudgetExceededError, Identity,
                   InternalConsistencyError, PreconditionError,
                   ResourceBoundError, SemiringFormatError, SemiringTable, Term,
                   ValidationReport, VarietySpec, canonical_form, eval_term,
                   format_semiring_text, in_variety, is_distributive_lattice,
                   is_isomorphic, parse_identity, parse_semiring_text,
                   parse_term, satisfies_identity, validate_semiring,
                   variety_membership)
from .relations import BinRelation, Partition, green_add, green_mult, quasi_orders
from .congruences import (CongruenceSet, all_congruences, congruence_closure,
                          eta, is_congruence, least_dl_congruence, quotient,
                          sigma, sigma_star)
from .varieties import (Analysis, SpinedDecomposition, TheoremReport, THEOREMS,
                        eta_equals_relation, malcev_membership, malcev_product,
                        reconstruct, spined_decompose, spined_product,
                        verify_theorem)
from .enumeration import (EnumConfig, all_idempotent_semirings,
                          enumerate_idempotent_semirings)

__version__ = "0.1.0"
