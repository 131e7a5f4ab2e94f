"""Degenerate-weight p-energy toolkit."""

import os as _os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_cap():
    """Default each numeric library's thread count to DEGEN_RELAX_THREADS.

    Runs on package import, before any submodule loads numpy.  Returns the
    reason an invalid value was ignored (the CLI exits with it), else None.
    """
    raw = _os.environ.get("DEGEN_RELAX_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        return f"DEGEN_RELAX_THREADS={raw!r} is not an integer"
    if n < 1:
        return f"DEGEN_RELAX_THREADS must be >= 1, got {n}"
    for var in _THREAD_VARS:
        _os.environ.setdefault(var, str(n))
    return None


_apply_thread_cap()

from .weights import (Exponent, Interval, Weight, ZeroInfo, ClosedFormWeight,
                      PiecewisePowerWeight, PowerPiece, GridSampledWeight,
                      WeightSpecError, builtin_figure1, builtin_power,
                      builtin_cascade, eval_weight, weight_from_csv,
                      weight_from_spec, parse_weight_arg)
from .quadrature import (QuadratureConfig, IntegralResult, integrate, integrate_ranges,
                         classify_endpoint_integrability, local_exponent_estimate,
                         EndpointClass, IntegrandEvaluationError,
                         IndeterminateIntegrabilityError, DEFAULT_CONFIG)
from .degeneracy import DegeneracyInterval, DegeneracyStructure, detect_structure
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
