"""The package's public surface, pinned: a new public name, knob or status is a deliberate diff."""

import ast
import dataclasses
import types
from pathlib import Path

import cournotprox
from cournotprox import (
    AffineCost, CostModel, ExpCost, ExperimentConfig, LogCost, SolverConfig, SolveStatus,
)

PUBLIC_NAMES = {
    # costs
    "AffineCost", "CostDomainError", "CostModel", "ExpCost", "LogCost",
    # model
    "MarketInstance", "potential_gamma",
    # subqp
    "classical_equilibrium", "prox_step",
    # solver
    "ConfigurationError", "IterationTrace", "SolveResult", "SolveStatus", "SolverConfig",
    "Splitting", "StepPolicy", "eps_certificate", "solve",
    # diagnostics
    "gamma_lower_bound", "nash_gap",
    # experiments
    "ExampleFamily", "ExperimentConfig", "X0Policy", "affine_market", "exp_cost_market",
    "generate_instance", "initial_point", "log_cost_market", "run_experiment", "verify_run",
}

SOLVER_CONFIG_FIELDS = [
    "step_policy", "eps", "max_iter", "record_iterates", "record_bound", "gamma_lb", "splitting",
]

EXPERIMENT_CONFIG_FIELDS = [
    "example", "n", "sweep", "seed", "eps", "step_policy", "splitting", "max_iter", "out_dir",
    "x0", "trace", "custom",
]


def test_public_top_level_names():
    # submodules become package attributes once imported anywhere; they are not names
    public = {
        name
        for name, value in vars(cournotprox).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES


def test_oracles_import_only_public_names():
    # a reference oracle built on a private helper would check that helper against itself
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "cournotprox" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cournotprox"):
            assert node.module == "cournotprox"  # no submodule, where private names live
            imported += [a.name for a in node.names]
    assert imported and set(imported) <= PUBLIC_NAMES


def test_only_the_cost_term_evaluates_the_cost():
    # the cost's sign is written in model._cost_term; a second caller of the cost's
    # kernel outside costs.py would be a second place that writes it
    callers = set()
    for path in sorted(Path(cournotprox.__file__).parent.glob("*.py")):
        if path.name == "costs.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("value_components", "value", "gradient")
                ):
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("model.py", "_cost_term")}


def test_solver_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == SOLVER_CONFIG_FIELDS


def test_experiment_config_fields():
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == EXPERIMENT_CONFIG_FIELDS


def test_solve_statuses():
    assert [s.value for s in SolveStatus] == ["Converged", "MaxIter", "NonFinite"]


def test_cost_contract_is_one_kernel():
    # every formula lives in value_components and every bound in lipschitz_on, which
    # is also the domain test: infinite on a box that leaves the domain
    assert CostModel.__abstractmethods__ == {"value_components", "lipschitz_on"}
    for cls in (CostModel, AffineCost, ExpCost, LogCost):
        gone = {"value", "gradient", "contains", "value_and_gradient", "lipschitz_L"}
        assert not {name for name in gone if hasattr(cls, name)}


def test_the_potentials_bound_is_private():
    # L_h + (n-1)*beta is written once, in the solver's paper splitting
    for module in (cournotprox, cournotprox.model):
        assert not hasattr(module, "lipschitz_gamma")
