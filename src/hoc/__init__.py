"""Numerical concentration certificates under spectral-gap conditions.

The package turns the exact derivative norms of polynomial functions into
explicit moment, tail, and exponential-moment certificates, and checks every
certificate against deterministic Monte Carlo ground truth. See the README
for the route taxonomy and the experiment runner.
"""

from .bounds import (Certificate, Ladder, MissingHypothesisError, exact_hs_rungs,
                     exp_moment_certificate, multilinear_certificates,
                     tail_certificate, weighted_moment_bounds,
                     weighted_tail_certificate)
from .measures import (CATALOG, CoordinateDist, GapResult, MeasureSpec,
                       UncertifiedConstantError, catalog_oracle,
                       coordinate_moment, coordinate_sigma2, spectral_gap_oracle,
                       student_weight_kappa, student_weight_norm, weighted_norm)
from .polynomials import (MultilinearSpec, PolyFunction, from_multilinear,
                          opnorm_gradient_check)
from .rmt import (Calibration, EigenSample, WignerEnsemble, calibrate, draw_statistics,
                  rmt_certificates, sample_ensemble)
from .tensors import UnsupportedSizeError
from .verify import (EmpiricalReport, check_exp_certificate, check_moment_bound,
                     check_tail_certificate, empirical_lp, tail_counts,
                     wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "Ladder", "MissingHypothesisError", "exact_hs_rungs", "exp_moment_certificate",
    "multilinear_certificates", "tail_certificate", "weighted_moment_bounds",
    "weighted_tail_certificate", "CATALOG", "CoordinateDist", "GapResult", "MeasureSpec",
    "UncertifiedConstantError", "catalog_oracle", "coordinate_moment", "coordinate_sigma2",
    "spectral_gap_oracle", "student_weight_kappa", "student_weight_norm", "weighted_norm",
    "MultilinearSpec", "PolyFunction", "from_multilinear", "opnorm_gradient_check", "Calibration",
    "EigenSample", "WignerEnsemble", "calibrate", "draw_statistics", "rmt_certificates",
    "sample_ensemble", "UnsupportedSizeError", "EmpiricalReport", "check_exp_certificate",
    "check_moment_bound", "check_tail_certificate", "empirical_lp", "tail_counts",
    "wilson_interval",
]
