import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cournotprox

from cournotprox import (
    AffineCost,
    CostModel,
    ExpCost,
    LogCost,
    MarketInstance,
    SolverConfig,
    Splitting,
    eps_certificate,
    gamma_lower_bound,
    nash_gap,
    potential_gamma,
    prox_step,
    solve,
)
from cournotprox import diagnostics, model
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market
import oracles
from oracles import (
    affine_equilibrium,
    brute_force_stationary_points,
    full_scan_min,
    gradient_mapping,
    library_cost_term,
    lipschitz_gamma,
    phi_bifunction,
    unilateral_terms,
)
from test_costs import QuadraticCost


class SinCost(CostModel):
    """Nonconvex cost h_i(x) = a*sin(x).

    On ``sin_market``'s box [pi/2, 3*pi/2], h_i'' = -a*sin(x) rises
    monotonically, as ``CostModel``'s class asks, and changes sign: each
    firm's deviation profile is convex on the lower part of the box and
    concave on the upper, so it can have an interior well and a lower end.
    """

    def __init__(self, a, n):
        self.a, self.n = float(a), n

    def value_components(self, x, grad=None, out=None, curv=None):
        x = self._check_points(x)
        if grad is not None:
            np.multiply(self.a, np.cos(x), out=grad)
        if curv is not None:
            np.multiply(-self.a, np.sin(x), out=curv)
        return np.multiply(self.a, np.sin(x), out=out)


def sin_market(n, seed):
    return MarketInstance(beta=0.1, alpha0=2.0, mu=np.random.default_rng(seed).uniform(0.0, 1.0, n),
                          lower=0.5 * np.pi, upper=1.5 * np.pi, cost=SinCost(1.5, n))


def deviation_box(inst, x, radius):
    return np.maximum(inst.lower, x - radius), np.minimum(inst.upper, x + radius)


def dense_gap(inst, x, radius, points=400_000):
    """Per-firm dense scan of phi_bifunction: the gap lies in [ref, ref + slack]."""
    lo, up = deviation_box(inst, x, radius)
    ref = 0.0
    for i in range(inst.n):
        Y = np.repeat(x[None, :], points, axis=0)
        Y[:, i] = np.linspace(lo[i], up[i], points)
        ref -= min(0.0, float(np.min(phi_bifunction(inst, x, Y))))
    d = (up - lo) / (points - 1)
    slack = (2.0 * inst.beta + inst.L_h) * float(np.sum(d**2)) / 8.0
    return ref, slack


def assert_certified(inst, x, radius):
    lo, hi = nash_gap(inst, x, radius)
    assert 0.0 <= lo <= hi <= lo + 1e-12
    ref, ref_slack = dense_gap(inst, x, radius)
    # the bracket is exact up to rounding, so it lies inside the dense one
    assert ref <= lo + 1e-12
    assert hi <= ref + ref_slack + 1e-12
    return lo, hi


class TestNashGap:
    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market, sin_market])
    def test_bifunction_splits_into_unilateral_terms(self, make):
        inst = make(5, 1)
        rng = np.random.default_rng(1)
        x = rng.uniform(inst.lower, inst.upper)
        Y = rng.uniform(inst.lower, inst.upper, (50, 5))
        split = np.sum(unilateral_terms(inst, x, Y) - unilateral_terms(inst, x, x), axis=-1)
        np.testing.assert_allclose(phi_bifunction(inst, x, Y), split, rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("radius", [np.inf, 1.5])
    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market, affine_market, sin_market])
    def test_bracket_holds_dense_reference(self, make, radius):
        for n in (1, 2, 3):
            inst = make(n, n) if make is not affine_market else affine_market(n, mu=2.0 + n)
            rng = np.random.default_rng(n)
            res, _ = solve(inst, SolverConfig(eps=1e-3))
            for x in (res.x, rng.uniform(inst.lower, inst.upper)):
                assert_certified(inst, x, radius)

    def test_nonconvex_cost_stationary_point_is_no_equilibrium(self):
        # with h = 1.5*sin the solver, started at the upper side, stops at a local
        # minimum of the potential from which a unilateral jump into a well still pays
        inst = sin_market(3, 0)
        res, _ = solve(inst, SolverConfig(eps=1e-8), x0=np.full(3, 1.5 * np.pi))
        assert np.linalg.norm(res.x - prox_step(inst, res.x, 1.0, splitting=Splitting.PAPER)) <= 1e-6
        lo, _ = assert_certified(inst, res.x, np.inf)
        assert lo > 1e-2

    def test_a_local_equilibrium_that_is_not_global(self):
        # the abstract's first claim, on sin_market(3, 1) under today's sign: started at
        # the upper side, the solver stops with firm 2 at its upper end, where no
        # deviation within 0.5 pays but a jump into the well at the lower part of its
        # box gains 0.68; started at the lower side, it stops at a global equilibrium
        inst = sin_market(3, 1)
        local, _ = solve(inst, SolverConfig(eps=1e-8), x0=np.full(3, 1.5 * np.pi))
        assert local.x[2] == inst.upper[2]
        assert assert_certified(inst, local.x, 0.5)[1] <= 1e-12
        assert assert_certified(inst, local.x, np.inf)[0] > 0.5
        best, _ = solve(inst, SolverConfig(eps=1e-8), x0=np.full(3, 0.5 * np.pi))
        assert assert_certified(inst, best.x, np.inf)[1] <= 1e-12
        assert best.gamma_final < local.gamma_final

    def test_finite_radius_on_unbounded_box(self):
        inst = affine_market(2, mu=2.0, upper=np.inf)
        star = affine_equilibrium(inst)
        assert nash_gap(inst, star, radius=3.0)[0] == 0.0
        with pytest.raises(ValueError):
            nash_gap(inst, star)

    def test_validation(self):
        inst = log_cost_market(2, 6)
        for r in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                nash_gap(inst, inst.center(), radius=r)
        with pytest.raises(ValueError):
            nash_gap(inst, np.full(2, 99.0))
        with pytest.raises(ValueError):
            nash_gap(inst, np.full(3, 5.0))
        # within the 1e-9 tolerance an anchor just outside the box is accepted
        assert nash_gap(inst, np.array([10.0 + 5e-10, 0.0]))[0] >= 0.0

    @pytest.mark.parametrize("radius", [True, np.True_], ids=["bool", "np_bool"])
    def test_rejects_boolean_radius(self, radius):
        # True would scan at radius 1
        inst = log_cost_market(2, 6)
        with pytest.raises(ValueError, match="radius"):
            nash_gap(inst, inst.center(), radius=radius)


class TestGapSample:
    """The local gap test: nash_gap over an infinity-norm ball of finite radius."""

    def test_affine_equilibrium_consistent_with_local_optimality(self):
        inst = affine_market(6, mu=2.0)
        star = affine_equilibrium(inst)
        for r in (0.5, 5.0):
            lo, hi = nash_gap(inst, star, r)
            assert lo == 0.0
            assert hi <= 1e-12

    def test_non_equilibrium_detected(self):
        inst = log_cost_market(5, 2)
        x = inst.project(np.full(5, 1.0))  # far from stationarity
        for r in (0.5, 5.0):
            assert nash_gap(inst, x, radius=r)[0] > 1e-2

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_solver_limits_pass_box_covering_gap_test(self, make):
        # radius larger than the box diameter turns the local test global
        inst = make(10, 7)
        res, _ = solve(inst, SolverConfig(eps=1e-3))
        diameter = float(np.linalg.norm(inst.upper - inst.lower))
        lo, hi = nash_gap(inst, res.x, radius=diameter + 1.0)
        assert (lo, hi) == nash_gap(inst, res.x)
        assert hi <= 1e-3


class TestGlobalCheck:
    """The global gap test: nash_gap over the whole box."""

    def test_affine_equilibrium_certified(self):
        inst = affine_market(6, mu=2.0)
        star = affine_equilibrium(inst)
        lo, hi = nash_gap(inst, star)
        assert lo == 0.0
        assert hi <= 1e-12

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_solver_output_certified(self, make):
        inst = make(10, 3)
        res, _ = solve(inst, SolverConfig(eps=1e-3))
        _, hi = assert_certified(inst, res.x, np.inf)
        assert hi <= 1e-3

    def test_large_mapping_detected_via_prox_candidate(self):
        inst = log_cost_market(10, 4)
        x = inst.project(np.full(10, 1.0))
        c = 1.0 / lipschitz_gamma(inst)
        assert np.linalg.norm(gradient_mapping(inst, x, c)) > 1.0
        # the prox point is one feasible deviation, so its gain bounds the gap from below
        s = prox_step(inst, x, c, splitting=Splitting.PAPER)
        witness = -float(phi_bifunction(inst, x, s[None, :])[0])
        lo, hi = nash_gap(inst, x)
        assert 1e-2 < witness <= hi
        assert lo > 1e-2


class TestFixedPointResidual:
    """The fixed-point residual ||x - s_c(x)||, and the certificate built on it."""

    def test_zero_at_equilibrium_for_every_damping(self):
        inst = affine_market(5, mu=2.0)
        star = affine_equilibrium(inst)
        for c in (0.1, 1.0, 10.0):
            assert np.linalg.norm(star - prox_step(inst, star, c, splitting=Splitting.PAPER)) <= 1e-8

    def test_positive_away_from_stationarity(self):
        inst = log_cost_market(5, 5)
        x = inst.project(np.ones(5))
        assert np.linalg.norm(x - prox_step(inst, x, 1.0, splitting=Splitting.PAPER)) > 1e-2

    def test_identity_with_gradient_mapping(self):
        inst = exp_cost_market(7, 6)
        L = lipschitz_gamma(inst)
        rng = np.random.default_rng(10)
        for c in (0.3, 2.0):
            x = rng.uniform(inst.lower, inst.upper)
            residual = float(np.linalg.norm(x - prox_step(inst, x, c, splitting=Splitting.PAPER)))
            assert eps_certificate(inst, x, c, Splitting.PAPER) == (1.0 / c + L) * residual


class TestGammaLowerBound:
    def test_linear_profile_hits_exact_value(self):
        # h = 0 and alpha_tilde >= 0: each 1-D profile is linear, minimized at
        # the upper bound, so the bound is -sum(alpha_tilde * upper) exactly
        inst = affine_market(3, mu=2.0, upper=50.0)
        lb = gamma_lower_bound(inst)
        assert lb == pytest.approx(-np.sum(inst.alpha_tilde * inst.upper), abs=1e-9)

    def test_single_firm_reference_values(self):
        inst = affine_market(1, mu=0.0, upper=10.0)
        lb = gamma_lower_bound(inst)
        assert lb == pytest.approx(-100.0, abs=1e-9)
        # true potential minimum sits above the separable bound
        assert potential_gamma(inst, np.array([10.0])) == pytest.approx(-90.0)
        assert lb <= -90.0

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_bounds_potential_everywhere(self, make):
        inst = make(6, 7)
        lb = gamma_lower_bound(inst)
        rng = np.random.default_rng(11)
        X = rng.uniform(inst.lower, inst.upper, (2000, 6))
        assert np.min(potential_gamma(inst, X)) >= lb

    def test_bounds_every_trace_value(self):
        inst = log_cost_market(20, 8)
        res, trace = solve(inst, SolverConfig(eps=1e-4))
        lb = gamma_lower_bound(inst)
        assert lb <= np.min(trace.gamma)
        assert lb <= res.gamma_final

    def test_interior_minimum_is_exact(self):
        # each profile t + SIGN*(2 + 1.5*log1p(2t)) is least at a box end or at t = 1,
        # the interior minimum of t - 2 - 1.5*log1p(2t), its form under -h
        n = 3
        cost = LogCost(c0=2.0, c=1.5, r=2.0, n=n)
        inst = MarketInstance(beta=0.1, alpha0=0.0, mu=1.0, lower=0.0, upper=10.0, cost=cost)
        f_min = min(t + oracles.SIGN * (2.0 + 1.5 * np.log1p(2.0 * t)) for t in (0.0, 1.0, 10.0))
        assert gamma_lower_bound(inst) == pytest.approx(n * f_min, rel=1e-12)

    @pytest.mark.parametrize("make, cost", [(log_cost_market, LogCost), (exp_cost_market, ExpCost)])
    def test_two_cost_calls_on_the_shipped_families(self, make, cost, monkeypatch):
        # every profile is convex and falls across the box: its two ends settle it
        counted = Counted(cost.value_components)
        monkeypatch.setattr(cost, "value_components", lambda *args: counted(*args))
        for n in (100, 1000, 10_000):
            inst = make(n, 0)
            counted.calls = 0  # after construction's two curvature calls
            gamma_lower_bound(inst)
            assert counted.calls == 2, n

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_the_ends_settle_the_bound_bit_for_bit(self, make):
        # no firm takes a Newton step: the bound is the sum of each profile's
        # better end, -alpha_tilde*t + k(t), in the primitive's operation order
        for n in (100, 1000, 10_000):
            inst = make(n, 0)
            b = -inst.alpha_tilde
            p_lower = model._cost_term(inst, inst.lower) + b * inst.lower
            p_upper = model._cost_term(inst, inst.upper) + b * inst.upper
            want = float(np.add.reduce(np.minimum(p_lower, p_upper)))
            assert gamma_lower_bound(inst) == want, n

    def test_an_active_firm_runs_the_newton_loop(self, monkeypatch):
        # h_i = a_i*x**2 with a_i of either sign: under either sign of the cost term
        # some profile -10*t +- a_i*t**2 is convex with its minimum inside [0, 10]
        inst = quadratic_market(20, 3)
        counted = Counted(QuadraticCost.value_components)
        monkeypatch.setattr(QuadraticCost, "value_components", lambda *args: counted(*args))
        lb = gamma_lower_bound(inst)
        assert counted.calls > 2
        b = -inst.alpha_tilde
        ends = np.minimum(model._cost_term(inst, inst.lower) + b * inst.lower,
                          model._cost_term(inst, inst.upper) + b * inst.upper)
        assert lb < float(np.add.reduce(ends)) - 1.0

    def test_unbounded_box_rejected(self):
        cost = AffineCost(mu_h=np.zeros(2))
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=np.inf, cost=cost)
        with pytest.raises(ValueError):
            gamma_lower_bound(inst)


def quadratic_market(n, seed):
    # h_i = a_i*x**2 with a_i of either sign: convex and concave profiles
    cost = QuadraticCost(np.random.default_rng(seed).uniform(-1.0, 1.0, n))
    return MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)


MARKETS = [  # at n = 20 some firms' best response is interior under either sign
    lambda: log_cost_market(20, 3),
    lambda: exp_cost_market(20, 3),
    lambda: affine_market(20, mu=2.0),
    lambda: quadratic_market(20, 3),
    lambda: sin_market(20, 3),
]
MARKET_IDS = ["log", "exp", "affine", "quadratic", "sin"]


def profile(inst, a, b):
    """p_i(t) = (a/2)*t**2 + b[i]*t + k_i(t), written apart from the primitive."""
    return lambda t: (0.5 * a * t + b) * t + model._cost_term(inst, t)


def caller_profiles(inst, x, radius, monkeypatch):
    """The (a, b, lower, upper) that gamma_lower_bound and nash_gap hand to _profile_min."""
    seen = []
    real = diagnostics._profile_min

    def record(inst, a, b, lower, upper):
        seen.append((a, np.array(b), np.array(lower), np.array(upper)))
        return real(inst, a, b, lower, upper)

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_profile_min", record)
        gamma_lower_bound(inst)
        nash_gap(inst, x, radius)
    return seen


class Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


class TestProfileMin:
    """The exact per-firm minimizer behind nash_gap and gamma_lower_bound."""

    @pytest.mark.parametrize("sign", ["minus_h", "plus_h"])
    @pytest.mark.parametrize("radius", [np.inf, 0.5])
    @pytest.mark.parametrize("make", MARKETS, ids=MARKET_IDS)
    def test_matches_dense_scan_for_both_callers(self, make, radius, sign, monkeypatch):
        # under the paper's sign, +h, the log and exp profiles start at the upper end
        if sign == "plus_h":
            monkeypatch.setattr(model, "_cost_term", library_cost_term(1.0))
        inst = make()
        for seed in range(2):
            x = np.random.default_rng(seed).uniform(inst.lower, inst.upper)
            calls = caller_profiles(inst, x, radius, monkeypatch)
            assert [a for a, *_ in calls] == [0.0, 2.0 * inst.beta]
            for a, b, lower, upper in calls:
                best, floor = diagnostics._profile_min(inst, a, b, lower, upper)
                dense, spacing = full_scan_min(profile(inst, a, b), lower, upper, 10_001)
                # the profile dips at most this far below the dense nodes around it
                dip = (abs(a) + inst.L_h) * spacing**2 / 8.0
                rounding = 1e-12 * (1.0 + np.abs(dense))
                assert np.all(floor <= best)
                assert np.all(floor <= dense)
                assert np.all(best <= dense + rounding)
                assert np.all(dense - dip - rounding <= floor)

    @pytest.mark.parametrize("make", MARKETS, ids=MARKET_IDS)
    def test_a_point_interval_is_its_value(self, make):
        inst = make()
        t = np.random.default_rng(5).uniform(inst.lower, inst.upper)
        for a, b in ((0.0, -inst.alpha_tilde), (2.0 * inst.beta, np.linspace(-3.0, 3.0, inst.n))):
            best, floor = diagnostics._profile_min(inst, a, b, t, t)
            assert np.array_equal(best, profile(inst, a, b)(t))
            assert np.array_equal(floor, best)

    def test_a_concave_profile_is_least_at_an_end(self):
        # p'' = a -/+ 1 < 0 under either sign of the cost term: no Newton step, the
        # better end is the minimum, and best and floor are its value
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=-2.0, upper=3.0,
                              cost=QuadraticCost(np.full(20, 0.5)))
        b = np.linspace(-3.0, 3.0, 20)
        best, floor = diagnostics._profile_min(inst, -5.0, b, inst.lower, inst.upper)
        f = profile(inst, -5.0, b)
        ends = np.minimum(f(inst.lower), f(inst.upper))
        assert np.array_equal(best, ends)
        assert np.array_equal(floor, ends)

    def test_a_nan_cost_takes_no_newton_step(self, monkeypatch):
        calls = []

        def nan_cost(self, x, grad=None, out=None, curv=None):
            calls.append(x)
            for buf in (grad, out, curv):
                buf[...] = np.nan
            return out

        inst = exp_cost_market(5, 0)
        monkeypatch.setattr(ExpCost, "value_components", nan_cost)
        best, floor = diagnostics._profile_min(inst, 0.2, np.zeros(5), inst.lower, inst.upper)
        assert np.all(np.isnan(best)) and np.all(np.isnan(floor))
        assert len(calls) == 2

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_bracket_is_tight_at_the_solver_limit(self, make):
        for n in (100, 1000, 10_000):
            inst = make(n, 0)
            res, _ = solve(inst, SolverConfig(eps=1e-3))
            lo, hi = nash_gap(inst, res.x)
            assert 0.0 <= hi - lo <= 1e-8, n

    def test_memory_is_a_few_n_vectors(self):
        n = 100_000
        inst = log_cost_market(n, 0)
        x = inst.center()
        slope = model._coupling_slope(inst, x, np.add.reduce(x))
        for a, b in ((0.0, -inst.alpha_tilde), (2.0 * inst.beta, slope)):
            tracemalloc.start()
            try:
                diagnostics._profile_min(inst, a, b, inst.lower, inst.upper)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 * n * 8


class TestBruteForce:
    def test_single_firm_log_instance_upper_bound_only(self):
        cost = LogCost(c0=2.0, c=1.5, r=2.0, n=1)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        pts = brute_force_stationary_points(inst, 101)
        assert pts.shape == (1, 1)
        assert pts[0, 0] == 10.0

    def test_two_firm_affine_interior_solution(self):
        inst = affine_market(2, mu=2.0, upper=50.0)
        star = affine_equilibrium(inst)
        pts = brute_force_stationary_points(inst, 201)
        assert pts.size > 0
        spacing = 50.0 / 200
        dists = np.linalg.norm(pts - star, axis=1)
        assert np.min(dists) <= spacing * np.sqrt(2)

    def test_nonempty_on_compact_box(self):
        for seed in range(4):
            inst = exp_cost_market(2, seed)
            assert brute_force_stationary_points(inst, 80).size > 0

    def test_solver_limits_land_in_certified_cells(self):
        for make, n, seed in ((log_cost_market, 1, 0), (exp_cost_market, 2, 1)):
            inst = make(n, seed)
            res, _ = solve(inst, SolverConfig(eps=1e-8))
            pts = brute_force_stationary_points(inst, 201)
            spacing = float(np.max((inst.upper - inst.lower) / 200))
            assert np.min(np.linalg.norm(pts - res.x, axis=1)) <= spacing * np.sqrt(n)

    def test_dimension_cap(self):
        inst = log_cost_market(4, 2)
        with pytest.raises(ValueError):
            brute_force_stationary_points(inst, 11)


def test_import_loads_no_scipy():
    src = str(Path(cournotprox.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cournotprox; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
