"""Hopf-Galois structures on separable field extensions, computed
group-theoretically via regular permutation subgroups."""

from .catalog import iso_type
from .engine import (ExtensionProblem, HGStructure, NodeBudget, coset_action,
                     enumerate_regular_normalized, enumerate_via_transversal,
                     translation_structure)
from .errors import BudgetExceeded, CapExceeded, NotNormalClosure
from .groups import (FiniteGroup, SubgroupRef, abelian_invariants,
                     alternating, are_isomorphic, automorphism_group,
                     characteristic_subgroups, cyclic, dicyclic, dihedral,
                     direct_product, elementary_abelian, holomorph,
                     holomorph_copies, inner_automorphism,
                     is_characteristically_simple, quaternion,
                     semidirect_product, symmetric)
from .minimality import (ClassificationReport, characteristic_obstruction,
                         classify, correspondence_stats, g_stable_subgroups,
                         holomorph_minimality_certificate,
                         intermediate_subgroups, is_minimal,
                         minimal_lower_bound, normal_complements)

__version__ = "0.1.0"
