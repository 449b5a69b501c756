"""The package's public surface, pinned: a new public name, knob or status is a deliberate diff."""

import ast
import dataclasses
import types
from pathlib import Path

import cournotprox
from cournotprox import (
    AffineCost, CostModel, ExpCost, ExperimentConfig, LogCost, SolverConfig, SolveStatus,
    Splitting,
)
from cournotprox.experiments import VerifyReport

PUBLIC_NAMES = {
    # costs
    "AffineCost", "CostDomainError", "CostModel", "ExpCost", "LogCost",
    # model
    "MarketInstance", "potential_gamma",
    # subqp
    "prox_step",
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
    "example", "sweep", "seed", "eps", "step_policy", "splitting", "max_iter", "out_dir",
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
    # kernel outside costs.py, or a second reader of a cost parameter such as
    # AffineCost.mu_h, would be a second place that writes it
    callers, reads = set(), set()
    for path in sorted(Path(cournotprox.__file__).parent.glob("*.py")):
        if path.name == "costs.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                where = (path.name, getattr(top, "name", None))
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("value_components", "value", "gradient")
                ):
                    callers.add(where)
                if isinstance(node, ast.Attribute) and node.attr != "n" and _names_a_cost(node.value):
                    reads.add((*where, node.attr))
    assert callers == {("model.py", "_cost_term")}
    assert reads == {("model.py", "_cost_term", "value_components")}


def _names_a_cost(node):
    # inst.cost, self.cost or a plain name cost
    return (isinstance(node, ast.Attribute) and node.attr == "cost") or (
        isinstance(node, ast.Name) and node.id == "cost"
    )


def test_the_tests_write_the_sign_once():
    # tests/oracles.py holds the tests' one copy of the cost's sign, SIGN, and the
    # signed helpers built on it; every other test module reads oracles.SIGN when it
    # runs or takes a helper, so one monkeypatch of SIGN flips the whole test side
    unsigned = {"cost_value", "cost_gradient", "cost_curvature"}
    assigned, copied, importers, negated = [], [], set(), set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [path.name for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name) and n.id == "SIGN"]
            elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
                names = {a.name for a in node.names}
                copied += [path.name] if "SIGN" in names else []
                if names & unsigned:
                    importers.add(path.name)
            elif path.name != "oracles.py" and (
                (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                 and _calls_the_kernel(node.operand))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and _calls_the_kernel(node.right))
            ):
                negated.add(path.name)
    assert assigned == ["oracles.py"]
    assert not copied
    assert importers == {"test_costs.py"}
    assert not negated


def _calls_the_kernel(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "value_components")


def test_only_subqp_tells_the_splittings_apart():
    # what each splitting keeps is written in subqp; a comparison with a Splitting
    # member elsewhere would be a second place that writes it
    testers = set()
    for path in sorted(Path(cournotprox.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                    isinstance(v, ast.Attribute) and v.attr in Splitting.__members__
                    for v in (node.left, *node.comparators)
                ):
                    testers.add((path.name, getattr(top, "name", None)))
    assert testers == {
        ("subqp.py", "_linear_term"), ("subqp.py", "_local_model"), ("subqp.py", "prox_step"),
    }


def test_solver_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == SOLVER_CONFIG_FIELDS


def test_experiment_config_fields():
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == EXPERIMENT_CONFIG_FIELDS


def test_verify_report_fields():
    # each check's verdict is its entry in one map, not a flag beside a row
    assert [f.name for f in dataclasses.fields(VerifyReport)] == ["path", "rows", "failures"]


def test_solve_statuses():
    assert [s.value for s in SolveStatus] == ["Converged", "MaxIter", "NonFinite"]


def test_cost_contract_is_one_kernel():
    # every formula lives in value_components, the curvature too: the instance reads
    # its bound, and with it the domain test, from h'' at the box's two ends
    assert CostModel.__abstractmethods__ == {"value_components"}
    for cls in (CostModel, AffineCost, ExpCost, LogCost):
        gone = {"value", "gradient", "contains", "value_and_gradient", "lipschitz_L"}
        assert not {name for name in gone if hasattr(cls, name)}


def test_the_potentials_bound_is_private():
    # L_h + (n-1)*beta is written once, in the solver's paper splitting
    for module in (cournotprox, cournotprox.model):
        assert not hasattr(module, "lipschitz_gamma")
