"""Estimation after selection for exponential hazard rates under entropy loss.

Select the population with the largest sample sum out of k exponential
populations, then estimate its hazard rate. This package provides the
scale-inverse estimator family c/Y_J and its improved corrections, with
estimate() to evaluate any of them on rows of sums, the admissibility
interval and minimax constants for two populations, exact k = 2 risks
from a Beta(n, n) integral of the Monte Carlo kernel's conditional loss,
and a deterministic Monte Carlo risk engine whose results are a pure
function of the seed, stream and replication count.
"""

__version__ = "0.1.0"

from .estimators import (
    AdmissibleRange,
    Admissibility,
    Classification,
    EstimatorKind,
    EstimatorSpec,
    admissible_range,
    alpha_upper_bound,
    classify_c,
    estimate,
    ml,
    ml_improved,
    n1,
    n2,
    n2_improved,
    validate_improved,
)
from .model import PopulationSet, RngSpec, draw_sums
from .numerics import (
    DomainError,
    QuadratureConvergenceError,
    QuadratureSpec,
    adaptive_quad,
    digamma,
    gamma_cdf,
    reg_inc_beta,
)
from .risk import (
    BayesPrior,
    PairedComparison,
    RiskEstimate,
    bayes_risk,
    entropy_loss,
    exact_risk_scaleinv_k2,
    gb_component_risk,
    h_of_q,
    mc_dominance,
    mc_risk,
    mc_risk_component,
    mc_risks,
    sup_risk_scaleinv,
)

__all__ = [
    "__version__",
    "AdmissibleRange",
    "Admissibility",
    "BayesPrior",
    "Classification",
    "DomainError",
    "EstimatorKind",
    "EstimatorSpec",
    "PairedComparison",
    "PopulationSet",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "RiskEstimate",
    "RngSpec",
    "adaptive_quad",
    "admissible_range",
    "alpha_upper_bound",
    "bayes_risk",
    "classify_c",
    "digamma",
    "draw_sums",
    "entropy_loss",
    "estimate",
    "exact_risk_scaleinv_k2",
    "gamma_cdf",
    "gb_component_risk",
    "h_of_q",
    "mc_dominance",
    "mc_risk",
    "mc_risk_component",
    "mc_risks",
    "ml",
    "ml_improved",
    "n1",
    "n2",
    "n2_improved",
    "reg_inc_beta",
    "sup_risk_scaleinv",
    "validate_improved",
]
