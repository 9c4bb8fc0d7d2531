"""tamecount: exact rational machinery for tame ramification types,
tubular meromorphicity regions, convex-hull certificates, and
power-saving exponents of number-field counting asymptotics."""

from .perm import (Permutation, PermutationGroup, parse_permutation, index_of,
                   direct_product, product_representation, wreath_product,
                   regular_representation, quotient, normal_subgroups,
                   abelian_normal_subgroups, upper_central_series, is_nilpotent,
                   fitting_subgroup, pointwise_class_centralizer, parse_group_file,
                   export_group_file)
from .ramtypes import (CyclotomicProfile, TameType, WeightFunction, tame_types,
                       min_weight, pushforward_type, pole_order_bound,
                       weight_discriminant, weight_conductor_d4,
                       weight_product_ramified, weight_inv_gamma, weight_custom)
from .concentration import (ConcentrationVerdict, classify, h1ur_chain, wreath_theta_bound,
                            wreath_theta_from_params, direct_product_condition)
from .regions import (SubconvexityProfile, LinearConstraint, TubularRegion,
                      subconvexity_matrix, build_region, absolute_convergence_orthant,
                      make_profile, shortcut_2d)
from .hull_lp import (LPProblem, LPResult, lp_solve, HullCertificate, hull_membership,
                      verify_certificate, line_threshold, conditional_hull_point_check)
from .asymptotics import (MalleReport, analyze, xi_exponent, b_bounds, d4_gamma_family)
from .catalog import CatalogEntry, resolve_entry, resolve_weight, resolve_cyclotomic

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
