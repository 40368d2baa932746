"""Equilibrium measures, extremal polynomial norm ratios, and width rate
predictors for planar condensers (a disk or segment plate inside a Jordan
curve), computed from closed-form Green functions on fixed grids."""

__version__ = "0.1.0"

from .balayage import BalayageResult, balayage_to_E, balayage_to_gamma, counting_alpha_beta
from .equilibrium import (EquilibriumResult, SweepReport, condenser_capacity,
                          equilibrium_result, fekete_green, leja_weighted,
                          m_hat_theta, m_theta, support_S_theta, theta_sweep)
from .extremal import (ChiEstimate, ZeroConfig, chi_asymptotic_pair, chi_bruteforce,
                       chi_estimate, ratio_norms, zero_distribution_diag)
from .geometry import (Condenser, CurveSpec, EDomain, concentric_condenser,
                       green_exterior_gamma, green_kernel, green_pole_infinity,
                       log_capacity, offset_condenser, sample_curve)
from .measure import (DiscreteMeasure, FieldGrid, M_functional, energy_I, energy_J,
                      green_potential, log_potential, to_json)
from .nwidth import WidthReport, g_theta_field, width_lower_bound, width_rate_predict

__all__ = [
    "BalayageResult", "ChiEstimate", "Condenser", "CurveSpec", "DiscreteMeasure",
    "EDomain", "EquilibriumResult", "FieldGrid", "M_functional", "SweepReport",
    "WidthReport", "ZeroConfig", "balayage_to_E", "balayage_to_gamma",
    "chi_asymptotic_pair", "chi_bruteforce", "chi_estimate", "concentric_condenser",
    "condenser_capacity", "counting_alpha_beta", "energy_I", "energy_J",
    "equilibrium_result", "fekete_green", "g_theta_field", "green_exterior_gamma",
    "green_kernel", "green_pole_infinity", "green_potential", "leja_weighted",
    "log_capacity", "log_potential", "m_hat_theta", "m_theta", "offset_condenser",
    "ratio_norms", "sample_curve", "support_S_theta", "theta_sweep", "to_json",
    "width_lower_bound", "width_rate_predict", "zero_distribution_diag",
]
