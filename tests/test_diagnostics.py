import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cournotprox

from cournotprox import (
    AffineCost,
    LogCost,
    MarketInstance,
    SolverConfig,
    brute_force_stationary_points,
    classical_equilibrium,
    fixed_point_residual,
    gamma_lower_bound,
    gap_sample,
    global_equilibrium_check,
    gradient_mapping,
    lipschitz_gamma,
    phi_bifunction,
    potential_gamma,
    solve,
)
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market


class TestGapSample:
    def test_zero_at_anchor_only(self):
        inst = log_cost_market(5, 0)
        est = gap_sample(inst, inst.center(), r=1.0, sampler=np.random.default_rng(0), count=0)
        assert est.min_phi_found == 0.0
        assert est.sample_count == 1
        np.testing.assert_array_equal(est.argmin_y, inst.center())

    def test_never_positive_and_upper_bounds_truth(self):
        inst = exp_cost_market(4, 1)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(inst.lower, inst.upper)
            est = gap_sample(inst, x, r=3.0, sampler=rng, count=500)
            assert est.min_phi_found <= 0.0
            assert inst.contains(est.argmin_y, tol=1e-12)
            assert np.linalg.norm(est.argmin_y - x) <= 3.0 + 1e-12

    def test_affine_equilibrium_consistent_with_local_optimality(self):
        inst = affine_market(6, mu=2.0)
        star = classical_equilibrium(inst)
        for r in (0.5, 5.0, 500.0):
            est = gap_sample(inst, star, r=r, sampler=np.random.default_rng(2), count=4000)
            assert est.min_phi_found >= -1e-8

    def test_non_equilibrium_detected(self):
        inst = log_cost_market(5, 2)
        x = inst.project(np.full(5, 1.0))  # far from stationarity
        est = gap_sample(inst, x, r=5.0, sampler=np.random.default_rng(3), count=2000)
        assert est.min_phi_found < -1e-3

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_solver_limits_pass_box_covering_gap_test(self, make):
        # radius larger than the box diameter turns the local test global
        inst = make(10, 7)
        res, _ = solve(inst, SolverConfig(eps=1e-3))
        diameter = float(np.linalg.norm(inst.upper - inst.lower))
        est = gap_sample(
            inst, res.x, r=diameter + 1.0, sampler=np.random.default_rng(7), count=10_000
        )
        assert est.min_phi_found >= -1e-3

    def test_no_solution_counterexample_every_anchor_fails(self):
        # operator F(x) = x with cost term -x^2/2 makes the bifunction
        # -(y-x)^2/2: strictly negative off the diagonal, so no anchor is a
        # local equilibrium at any radius
        cost = AffineCost(mu_h=np.zeros(1))
        inst = MarketInstance(beta=1.0, alpha0=0.0, mu=0.0, lower=-1.0, upper=1.0, cost=cost)
        phi = lambda x, Y: -0.5 * np.sum((Y - x) ** 2, axis=-1)
        rng = np.random.default_rng(4)
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            for r in (0.1, 0.5, 2.0):
                est = gap_sample(inst, np.array([x]), r=r, sampler=rng, count=100, phi=phi)
                assert est.min_phi_found < 0.0

    def test_dense_grid_matches_sampling_for_one_firm(self):
        inst = log_cost_market(1, 5)
        x = np.array([4.0])
        est = gap_sample(
            inst, x, r=2.0, sampler=np.random.default_rng(5), count=0, grid_resolution=4001
        )
        ts = np.linspace(2.0, 6.0, 200_001)[:, None]
        oracle = float(np.min(phi_bifunction(inst, x, ts)))
        assert est.min_phi_found <= 0.0
        assert est.min_phi_found >= oracle
        assert est.min_phi_found == pytest.approx(oracle, abs=1e-6)

    def test_validation(self):
        inst = log_cost_market(2, 6)
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            gap_sample(inst, inst.center(), r=0.0, sampler=rng, count=1)
        with pytest.raises(ValueError):
            gap_sample(inst, inst.center(), r=1.0, sampler=rng, count=-1)
        with pytest.raises(ValueError):
            gap_sample(inst, np.full(2, 99.0), r=1.0, sampler=rng, count=1)


class TestGlobalCheck:
    def test_affine_equilibrium_certified(self):
        inst = affine_market(6, mu=2.0)
        star = classical_equilibrium(inst)
        worst = global_equilibrium_check(inst, star, 10_000, np.random.default_rng(7))
        assert worst >= -1e-6

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_solver_output_certified(self, make):
        inst = make(10, 3)
        res, _ = solve(inst, SolverConfig(eps=1e-3))
        worst = global_equilibrium_check(inst, res.x, 10_000, np.random.default_rng(8))
        assert worst >= -1e-3

    def test_large_mapping_detected_via_prox_candidate(self):
        inst = log_cost_market(10, 4)
        x = inst.project(np.full(10, 1.0))
        assert np.linalg.norm(gradient_mapping(inst, x, 1.0 / lipschitz_gamma(inst))) > 1.0
        worst = global_equilibrium_check(inst, x, 0, np.random.default_rng(9))
        assert worst < -1e-2

    def test_requires_concave_cost(self):
        class WeirdCost(LogCost):
            is_concave = False

        cost = WeirdCost(c0=2.0, c=1.5, r=1.0, n=2)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        with pytest.raises(ValueError):
            global_equilibrium_check(inst, inst.center(), 10)


class TestFixedPointResidual:
    def test_zero_at_equilibrium_for_every_damping(self):
        inst = affine_market(5, mu=2.0)
        star = classical_equilibrium(inst)
        for c in (0.1, 1.0, 10.0):
            assert fixed_point_residual(inst, star, c) <= 1e-8

    def test_positive_away_from_stationarity(self):
        inst = log_cost_market(5, 5)
        assert fixed_point_residual(inst, inst.project(np.ones(5)), 1.0) > 1e-2

    def test_identity_with_gradient_mapping(self):
        inst = exp_cost_market(7, 6)
        rng = np.random.default_rng(10)
        for c in (0.3, 2.0):
            x = rng.uniform(inst.lower, inst.upper)
            lhs = fixed_point_residual(inst, x, c)
            rhs = c * np.linalg.norm(gradient_mapping(inst, x, c))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestGammaLowerBound:
    def test_linear_profile_hits_exact_value(self):
        # h = 0 and alpha_tilde >= 0: each 1-D profile is linear, minimized at
        # the upper bound, so the bound is -sum(alpha_tilde * upper) exactly
        inst = affine_market(3, mu=2.0, upper=50.0)
        lb = gamma_lower_bound(inst, 512)
        assert lb == pytest.approx(-np.sum(inst.alpha_tilde * inst.upper), abs=1e-9)

    def test_single_firm_reference_values(self):
        inst = affine_market(1, mu=0.0, upper=10.0)
        lb = gamma_lower_bound(inst, 512)
        assert lb == pytest.approx(-100.0, abs=1e-9)
        # true potential minimum sits above the separable bound
        assert potential_gamma(inst, np.array([10.0])) == pytest.approx(-90.0)
        assert lb <= -90.0

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_bounds_potential_everywhere(self, make):
        inst = make(6, 7)
        lb = gamma_lower_bound(inst, 256)
        rng = np.random.default_rng(11)
        X = rng.uniform(inst.lower, inst.upper, (2000, 6))
        assert np.min(potential_gamma(inst, X)) >= lb

    def test_bounds_every_trace_value(self):
        inst = log_cost_market(20, 8)
        res, trace = solve(inst, SolverConfig(eps=1e-4))
        lb = gamma_lower_bound(inst, 1024)
        assert lb <= np.min(trace.gamma)
        assert lb <= res.gamma_final

    def test_resolution_refinement_moves_little(self):
        inst = log_cost_market(4, 9)
        coarse = gamma_lower_bound(inst, 64)
        fine = gamma_lower_bound(inst, 4096)
        # per-cell error is bounded by the profile slope times the spacing
        slope = float(np.max(np.abs(inst.alpha_tilde)) + np.max(inst.cost.gradient(np.zeros(4))))
        cell = float(np.max(inst.upper - inst.lower)) / 63
        assert abs(coarse - fine) <= inst.n * slope * cell

    @pytest.mark.parametrize("G", [64, 1024])
    def test_interior_minimum_bounded_within_grid_error(self, G):
        # each profile t - 2 - 1.5*log1p(2t) has its minimum at t = 1, between
        # grid nodes, so only the subtracted L_h*d**2/8 term keeps the bound valid
        n = 3
        cost = LogCost(c0=2.0, c=1.5, r=2.0, n=n)
        inst = MarketInstance(beta=0.1, alpha0=0.0, mu=1.0, lower=0.0, upper=10.0, cost=cost)
        f_min = 1.0 - 2.0 - 1.5 * np.log1p(2.0)
        d = 10.0 / (G - 1)
        lb = gamma_lower_bound(inst, G)
        assert n * f_min - n * cost.lipschitz_L() * d**2 / 8 <= lb <= n * f_min

    def test_unbounded_box_rejected(self):
        cost = AffineCost(mu_h=np.zeros(2))
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=np.inf, cost=cost)
        with pytest.raises(ValueError):
            gamma_lower_bound(inst, 64)


class TestBruteForce:
    def test_single_firm_log_instance_upper_bound_only(self):
        cost = LogCost(c0=2.0, c=1.5, r=2.0, n=1)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        pts = brute_force_stationary_points(inst, 101)
        assert pts.shape == (1, 1)
        assert pts[0, 0] == 10.0

    def test_two_firm_affine_interior_solution(self):
        inst = affine_market(2, mu=2.0, upper=50.0)
        star = classical_equilibrium(inst)
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
