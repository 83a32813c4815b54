"""Asset pricing for a quadratic-OU dividend economy with finite-lived
Bayesian dynasties: closed-form pricing kernel, Bessel-based exponent
functions, quadrature stock and closed-form bond prices, calibration,
and Monte Carlo verification oracles."""

from .beliefs import BeliefInput, lambda_density, posterior, sample_age
from .calibration import (CalibrationTarget, build_defaults, expected_rate,
                          solve_gamma)
from .model import (DerivedConstants, InvalidParamsError, MarketState,
                    ModelParams, derive_constants, dividend, expected_u,
                    limit_constants, log_zeta, short_rate)
from .odes import (DegenerateGError, OdeInputs, OdeSolution, abc_eval,
                   abc_numeric, g_closed)
from .oracles import (McEstimate, OracleConfig, OverflowGuardError,
                      aggregation_check, martingale_check, mc_stock, mc_v,
                      xi_eta_check)
from .ou import SimConfig, SimPath, sample_stationary, simulate
from .pricing import (DivergentIntegralError, PriceReport,
                      QuadratureToleranceError, bond_price, drift_star,
                      pde_residual, stock_price, volatility, volatility_grid)

__version__ = "0.1.0"

__all__ = [
    "BeliefInput", "CalibrationTarget", "DegenerateGError",
    "DerivedConstants", "DivergentIntegralError", "InvalidParamsError",
    "MarketState", "McEstimate", "ModelParams", "OdeInputs", "OdeSolution",
    "OracleConfig", "OverflowGuardError", "PriceReport", "SimConfig",
    "SimPath", "abc_eval", "abc_numeric", "aggregation_check",
    "bond_price", "build_defaults", "derive_constants", "dividend",
    "drift_star", "expected_rate", "expected_u", "g_closed",
    "lambda_density", "limit_constants", "log_zeta", "martingale_check",
    "mc_stock", "mc_v", "pde_residual", "posterior", "sample_age",
    "sample_stationary", "short_rate", "simulate", "solve_gamma",
    "stock_price", "volatility", "volatility_grid", "xi_eta_check",
]
