"""zirkit: exact zero-forcing irredundance computations on small graphs.

Computes forts, private forts, ZIr-sets, and the parameters zir, Z, Zbar,
ZIR, gamma, gamma2, alpha, and gammaP on bitset-encoded graphs of order up
to 64, with certified witnesses, a family regression table, and exhaustive
small-order theorem surveys.
"""

from .errors import (BudgetError, GraphFormatError, InvalidSpecError,
                     PreconditionError, SizeCapError, ZirkitError)
from .graphs import (Graph, bit_list, bits, complement, corona, disjoint_union,
                     enumerate_labeled_graphs, join, mask_of, parse_graph6,
                     to_graph6)
from .families import FamilySpec, generate, parse_family_expr
from .forcing import (ClosureCache, ForceStep, closure, closure_with_chronicle,
                      enumerate_forts, enumerate_minimal_forts, is_fort,
                      is_minimal_zfs, is_z_irrelevant, is_zero_forcing_set,
                      max_fort_avoiding, zero_forcing_number)
from .irredundance import (abandons_fort, graph_abandons_fort, has_private_fort,
                           is_maximal_zir_set, is_zir_set, lower_zir_number,
                           minimal_private_fort, upper_zero_forcing_number,
                           upper_zir_number)
from .domination import (independence_number, k_domination_number,
                         power_domination_number)
from .profiles import (CheckReport, ParamProfile, check_bounds,
                       check_characterizations, parameter_profile,
                       recognize_zn2_complement_form)
from .subsets import exact_params
from .survey import SurveyReport, survey
from .tables import TableRow, expected_values, family_table

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "GraphFormatError", "InvalidSpecError", "PreconditionError",
    "SizeCapError", "ZirkitError",
    "Graph", "bit_list", "bits", "complement", "corona",
    "disjoint_union", "enumerate_labeled_graphs", "join", "mask_of",
    "parse_graph6", "to_graph6",
    "FamilySpec", "generate", "parse_family_expr",
    "ClosureCache", "ForceStep", "closure", "closure_with_chronicle",
    "enumerate_forts", "enumerate_minimal_forts", "is_fort", "is_minimal_zfs",
    "is_z_irrelevant", "is_zero_forcing_set", "max_fort_avoiding",
    "zero_forcing_number",
    "abandons_fort", "graph_abandons_fort", "has_private_fort",
    "is_maximal_zir_set", "is_zir_set", "lower_zir_number",
    "minimal_private_fort", "upper_zero_forcing_number", "upper_zir_number",
    "independence_number", "k_domination_number", "power_domination_number",
    "CheckReport", "ParamProfile", "check_bounds", "check_characterizations",
    "parameter_profile", "recognize_zn2_complement_form",
    "SurveyReport", "exact_params", "survey",
    "TableRow", "expected_values", "family_table",
]
