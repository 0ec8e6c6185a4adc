"""Harmonic analysis for the Weinstein operator on R^d x (0, inf).

Transform, generalized translation, convolution, dilated-symbol multiplier
operators, and numerically certified uncertainty inequalities, on tensor
grids carrying the weighted measure x_{d+1}^{2*alpha+1} dx / C.
"""

from .bessel import bessel_j_normalized, weinstein_kernel
from .core import (Field, Grid, SigmaGrid, WeightField, WeinsteinParams,
                   build_grid, build_sigma_grid, gaussian_field,
                   inner_product, measure_weights, norm_p,
                   normalization_constant, theta_integral)
from .errors import (ConfigError, GridMismatchError, IntegrabilityGuardError,
                     MeasureRangeError, SigmaRangeError, SizeGuardError)
from .multiplier import (MultiplierProfile, SweepStats, admissibility_defect,
                         apply_multiplier, apply_multiplier_kernel,
                         dilate_symbol, kernel_psi,
                         make_admissible_radial, multiplier_densities,
                         multiplier_plancherel_defect, multiplier_sweep)
from .transform import (TransformPlan, direct_quadrature, forward,
                        frequency_grid, inverse, make_plan)
from .translation import (TranslationRule, convolve, convolve_direct,
                          translate_direct, translate_spectral)
from .uncertainty import (InequalityCertificate, Region, SigmaRegion,
                          ball_region, ball_region_for_mass,
                          concentration_defect, dispersion,
                          donoho_stark_certificate,
                          general_heisenberg_certificate,
                          heisenberg_certificate,
                          multiplier_heisenberg_certificate,
                          region_from_mask, sigma_halfline_region)

__version__ = "0.1.0"

__all__ = [
    "bessel_j_normalized", "weinstein_kernel",
    "Field", "Grid", "SigmaGrid", "WeightField", "WeinsteinParams",
    "build_grid", "build_sigma_grid", "gaussian_field", "inner_product",
    "measure_weights", "norm_p", "normalization_constant", "theta_integral",
    "ConfigError", "GridMismatchError", "IntegrabilityGuardError",
    "MeasureRangeError", "SigmaRangeError", "SizeGuardError",
    "MultiplierProfile", "SweepStats", "admissibility_defect",
    "apply_multiplier", "apply_multiplier_kernel", "dilate_symbol",
    "kernel_psi", "make_admissible_radial",
    "multiplier_densities", "multiplier_plancherel_defect", "multiplier_sweep",
    "TransformPlan", "direct_quadrature", "forward", "frequency_grid",
    "inverse", "make_plan",
    "TranslationRule", "convolve", "convolve_direct", "translate_direct",
    "translate_spectral",
    "InequalityCertificate", "Region", "SigmaRegion", "ball_region",
    "ball_region_for_mass", "concentration_defect", "dispersion",
    "donoho_stark_certificate", "general_heisenberg_certificate",
    "heisenberg_certificate", "multiplier_heisenberg_certificate",
    "region_from_mask", "sigma_halfline_region",
]
