"""Splitting proximal point solver for nonconvex Nash-Cournot market models.

The library models an n-firm market with affine inverse demand and a
smooth, possibly nonconvex, production cost; solves its stationarity
problem by a splitting proximal iteration with guaranteed per-step
descent; and ships the verification instruments (a stationarity
certificate, a certified Nash gap, bound checks) used to certify the
output.
"""

from .costs import AffineCost, CostDomainError, CostModel, ExpCost, LogCost
from .diagnostics import gamma_lower_bound, nash_gap
from .experiments import (
    ExampleFamily,
    ExperimentConfig,
    X0Policy,
    affine_market,
    exp_cost_market,
    generate_instance,
    initial_point,
    log_cost_market,
    run_experiment,
    verify_run,
)
from .model import MarketInstance, potential_gamma
from .solver import (
    ConfigurationError,
    IterationTrace,
    SolveResult,
    SolveStatus,
    SolverConfig,
    Splitting,
    StepPolicy,
    eps_certificate,
    solve,
)
from .subqp import prox_step

__version__ = "0.1.0"
