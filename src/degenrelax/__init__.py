"""Degenerate-weight p-energy toolkit."""

from .weights import (Exponent, Interval, Weight, ZeroInfo, ClosedFormWeight,
                      PiecewisePowerWeight, PowerPiece, GridSampledWeight,
                      WeightSpecError, builtin_figure1, builtin_power,
                      builtin_cascade, weight_from_csv,
                      weight_from_spec, parse_weight_arg)
from .quadrature import (QuadratureConfig, IntegralResult, integrate, integrate_ranges,
                         FirstPass, classify_endpoint_integrability, EndpointClass,
                         IntegrandEvaluationError, DEFAULT_CONFIG)
from .degeneracy import (DegeneracyInterval, DegeneracyStructure, detect_structure,
                         local_exponent_estimate, IndeterminateIntegrabilityError)
from .auxweight import (AuxWeight, AuxBounds, build_aux_weight,
                        derivative_identity_residual, aux_global_bounds)
from .spaces import (TestFunction, MembershipReport, PointwiseCheck, PoincareReport,
                     VanishingCheck, ExtensionCheck, poly_function, constant_function,
                     spline_function, sqrt_edge_function, log_edge_function,
                     random_test_functions, seminorm_energy, lp_aux_norm,
                     check_membership, space_norm, pointwise_poincare_check,
                     poincare_global_check, endpoint_vanishing_check,
                     ac_extension_check)
from .relaxation import (FunctionalValue, ApproxMember, ApproxSequence,
                         RelaxationVerdict, UnsupportedStructureError,
                         original_functional, relaxed_functional,
                         min_mesh_parameter, build_approx_sequence,
                         verify_relaxation)
from .cascade import CascadeReport, cascade_partial_sums

__version__ = "0.1.0"
