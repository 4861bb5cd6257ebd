"""Spectral-Galerkin solver and adjoint-based optimal-control toolkit for a
three-field fractional phase-field tumor-growth system."""

from .adjoint import (AdjointData, AdjointTrajectory, adjoint_residuals,
                      build_adjoint_data, solve_adjoint,
                      solve_adjoint_viscous_galerkin, viscosity_sweep)
from .config import (ExperimentConfig, config_from_dict, parse_config,
                     serialize_config)
from .control import (OptimizationReport, OptimizerOptions, control_inner,
                      control_norm, cost_eval, fd_gradient_check, project_admissible,
                      projected_gradient_descent, reduced_gradient,
                      sample_variational_inequality, stationarity_residual)
from .errors import (ConfigError, DegenerateSystemError, DomainViolationError,
                     NoSeparationIntervalError, StepFailureError, TumorCtrlError)
from .linearized import (LinearizedTrajectory, frechet_remainder_probe,
                         solve_linearized, y_norm)
from .model import (Potential, Proliferation, SeparationInterval,
                    separation_interval)
from .problem import ControlProblemSpec
from .spectral import (FractionalPower, QuadratureGrid, SpectralBasis,
                       build_basis, midpoint_grid, solve_power_plus_mult)
from .state import (FULLY_IMPLICIT, SEMI_IMPLICIT_P, SolverConfig,
                    StateTrajectory, TimeGrid, discrete_energy,
                    energy_identity_residual, export_trajectory_csv,
                    initial_mu, load_trajectory, max_mu_inf, pde_residuals,
                    save_trajectory, solve_forward, step)
from .system import TumorSystem

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
