"""zexlab: desk-scale measurements of smoothness lost by zero-extension.

Functions live on dyadic lattices over the unit cube; the package computes
their moduli of continuity, hybrid boundary-aware moduli, piecewise-constant
approximations (uniform and threshold-adaptive), kernel smoothing errors, and
fitted convergence rates, and ships a one-shot verification suite wiring all
of the inequality checks together.
"""

from .grid import (CorpusMember, ExtendedGridFunction, FunctionSpec,
                   GridFunction, LatticeShift, boundary_power, const, corpus,
                   cusp, difference, indicator, linear, lp_norm, parse_spec,
                   random_dyadic, sample, tensor_product, zero_extend)
from .moduli import (LowerBoundWarning, ModulusCurve, ResolutionWarning,
                     default_t_grid, hybrid_curve, hybrid_modulus,
                     interior_curve, interior_ladder, interior_modulus,
                     whole_curve, whole_modulus)
from .dyadic import (PiecewiseConstant, average_error_constant,
                     average_error_report, dyadic_average, render_average,
                     shift_bound_check, shift_bound_suite, unit_ball_volume)
from .adaptive import (AdaptivePartition, ErrorPyramid, build_partition,
                       count_bound_report, default_epsilons, local_error,
                       sobolev_seminorm, verify_partition)
from .kernels import (KernelSpec, apply_kernel, error_curve, error_modulus_ratio,
                      error_norm, extension_bound_check)
from .besov import (BalancedEnvelope, BesovParams, FitResult,
                    VanishingModulusError, besov_seminorm,
                    besov_embedding_check, divergence_witness,
                    envelope_ladder_report, exponent_drop_check, fit_exponent,
                    fit_points)

__version__ = "0.1.0"
