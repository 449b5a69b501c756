"""The package's public surface, pinned: a new public name, knob or status is a deliberate diff."""

import ast
import dataclasses
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cournotprox
from cournotprox import (
    AffineCost, CostModel, ExampleFamily, ExpCost, ExperimentConfig, LogCost, MarketInstance,
    SolverConfig, SolveStatus, Splitting, log_cost_market, nash_gap, prox_step,
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
    "IterationTrace", "SolveResult", "SolveStatus", "SolverConfig",
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


def market(**kwargs):
    spec = dict(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0,
                cost=LogCost(c0=2.0, c=1.5, r=1.0, n=2))
    return MarketInstance(**{**spec, **kwargs})


INST = log_cost_market(2, 0)

# every scalar setting that enters the library, by the name its error must give
SETTINGS = {
    "beta": lambda v: market(beta=v),
    "alpha0": lambda v: market(alpha0=v),
    "mu": lambda v: market(mu=v),
    "eps": lambda v: SolverConfig(eps=v),
    "gamma_lb": lambda v: SolverConfig(gamma_lb=v),
    "max_iter": lambda v: SolverConfig(max_iter=v),
    "c": lambda v: prox_step(INST, INST.center(), v),
    "radius": lambda v: nash_gap(INST, INST.center(), v),
    "n": lambda v: LogCost(c0=2.0, c=1.5, r=1.0, n=v),
    "r": lambda v: LogCost(c0=2.0, c=1.5, r=v, n=2),
    "seed": lambda v: ExperimentConfig(sweep=(2,), seed=v),
}
INTEGER_SETTINGS = {"max_iter", "n", "seed"}
NO_NUMBERS = {"bool": True, "str": "0.1", "none": None, "sized_array": np.array([1.0])}
# beyond every float, so float() overflows; an integer setting takes them
TOO_BIG = {"huge_int": 10**400, "huge_fraction": Fraction(10**400)}
# n is also an axis length, which numpy caps at intp; a size it allows is never built here
TOO_LONG = {"past_intp": np.iinfo(np.intp).max + 1, "two_to_63": 2**63, "huge_int": 10**400}


# gamma_lb=None is no bad value: it asks solve to compute the bound
@pytest.mark.parametrize(
    "name, value",
    [pytest.param(name, value, id=f"{name}-{kind}") for name in SETTINGS
     for kind, value in NO_NUMBERS.items() if (name, kind) != ("gamma_lb", "none")]
    + [pytest.param(name, value, id=f"{name}-{kind}") for name in SETTINGS
       for kind, value in TOO_BIG.items() if name not in INTEGER_SETTINGS]
    + [pytest.param("n", value, id=f"n-{kind}") for kind, value in TOO_LONG.items()],
)
def test_a_setting_that_is_no_number_is_refused_by_name(name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        SETTINGS[name](value)


@pytest.mark.parametrize("value", list(TOO_LONG.values()), ids=list(TOO_LONG))
def test_a_sweep_size_past_numpys_longest_axis_is_refused_as_n(value):
    # each sweep size is an n and passes the cost's own check, before any run
    message = rf"^n must be a positive integer at most {np.iinfo(np.intp).max}$"
    for call in (lambda: LogCost(c0=2.0, c=1.5, r=1.0, n=value),
                 lambda: ExperimentConfig(sweep=(2, value))):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("name", list(SETTINGS))
def test_a_number_in_range_is_accepted(name):
    # a numpy scalar and a 0-d array are one number too
    if name in INTEGER_SETTINGS:
        values = (3, np.int32(3), np.array(3))
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            SETTINGS[name](0.1)
    else:
        values = (0.1, np.float32(0.1), np.array(0.1))
    for value in values:
        SETTINGS[name](value)


@pytest.mark.parametrize(
    "error, name, call",
    [
        (TypeError, "cost", lambda: market(cost=object())),
        (ValueError, "n", lambda: LogCost(c0=2.0, c=1.5, r=1.0, n=0)),
        (ValueError, "x", lambda: LogCost(c0=2.0, c=1.5, r=1.0, n=2).value_components(np.zeros(3))),
        (ValueError, "cost", lambda: ExperimentConfig(
            example=ExampleFamily.LOG, custom={"cost": "quadratic"})),
        (ValueError, "x", lambda: prox_step(INST, np.zeros(3), 1.0)),
    ],
    ids=["market_cost", "cost_n", "cost_points", "custom_family", "step_x"],
)
def test_a_bad_argument_is_refused_by_name(error, name, call):
    with pytest.raises(error, match=rf"\b{name}\b"):
        call()
