"""Projection-method discretizations of a 1-D neural field equation.

Four interchangeable spatial schemes (finite-element and Chebyshev
collocation, finite-element and spectral Galerkin), two time integrators,
ten manufactured-solution benchmarks, a study harness that measures
convergence orders, and property checks, the a-priori error bound among them.
"""

from .checks import sandwich_check
from .harness import (
    ConvergenceRecord,
    StudyConfig,
    emit_csv,
    euler_split_study,
    observed_order,
    run_study,
    trajectory_error,
)
from .model import ChebyshevGrid, FiringRate, Interval, UniformGrid
from .problems import PROBLEM_IDS, make_problem
from .quadrature import QuadratureRule, clenshaw_curtis, gauss_legendre_2, trapezium_rule
from .schemes import (
    SemiDiscreteSystem,
    build_cheb_collocation,
    build_fe_collocation,
    build_fe_galerkin,
    build_spectral_galerkin,
)
from .timestep import IntegrationError, Trajectory, euler_integrate, rk54_integrate

__all__ = [
    "ChebyshevGrid",
    "ConvergenceRecord",
    "FiringRate",
    "IntegrationError",
    "Interval",
    "PROBLEM_IDS",
    "QuadratureRule",
    "SemiDiscreteSystem",
    "StudyConfig",
    "Trajectory",
    "UniformGrid",
    "build_cheb_collocation",
    "build_fe_collocation",
    "build_fe_galerkin",
    "build_spectral_galerkin",
    "clenshaw_curtis",
    "emit_csv",
    "euler_integrate",
    "euler_split_study",
    "gauss_legendre_2",
    "make_problem",
    "observed_order",
    "rk54_integrate",
    "run_study",
    "sandwich_check",
    "trajectory_error",
    "trapezium_rule",
]

__version__ = "0.1.0"
