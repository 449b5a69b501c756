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
    classical_equilibrium,
    eps_certificate,
    gamma_lower_bound,
    nash_gap,
    potential_gamma,
    prox_step,
    solve,
)
from cournotprox import diagnostics
from cournotprox.diagnostics import _GAP_GRID, _scan_min
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market
from oracles import (
    apply_Btilde,
    brute_force_stationary_points,
    cost_gradient,
    full_scan_min,
    gradient_mapping,
    lipschitz_gamma,
    phi_bifunction,
)


class SinCost(CostModel):
    """Nonconvex cost h_i(x) = a*sin(x): each firm's deviation profile has several local minima."""

    def __init__(self, a, n):
        self.a, self.n = float(a), n

    def value_components(self, x, grad=None, out=None):
        x = self._check_points(x)
        if grad is not None:
            np.multiply(self.a, np.cos(x), out=grad)
        return np.multiply(self.a, np.sin(x), out=out)

    def lipschitz_on(self, lower):
        return abs(self.a)


def sin_market(n, seed):
    return MarketInstance(beta=0.1, alpha0=2.0, mu=np.random.default_rng(seed).uniform(0.0, 1.0, n),
                          lower=0.0, upper=10.0, cost=SinCost(1.5, n))


def unilateral_terms(inst, x, t):
    """q_i(t) = beta*t**2 + (beta*sigma_{-i} - alpha_tilde[i])*t - h_i(t), firm axis last."""
    slope = apply_Btilde(inst, x) - inst.alpha_tilde
    return inst.beta * t * t + slope * t - inst.cost.value_components(t)


def scan_interval(inst, x, radius):
    return np.maximum(inst.lower, x - radius), np.minimum(inst.upper, x + radius)


def dense_gap(inst, x, radius, points=400_000):
    """Per-firm dense scan of phi_bifunction: the gap lies in [ref, ref + slack]."""
    lo, up = scan_interval(inst, x, radius)
    ref = 0.0
    for i in range(inst.n):
        Y = np.repeat(x[None, :], points, axis=0)
        Y[:, i] = np.linspace(lo[i], up[i], points)
        ref -= min(0.0, float(np.min(phi_bifunction(inst, x, Y))))
    d = (up - lo) / (points - 1)
    slack = (2.0 * inst.beta + inst.cost.lipschitz_on(0.0)) * float(np.sum(d**2)) / 8.0
    return ref, slack


def scan_slack(inst, x, radius):
    lo, up = scan_interval(inst, x, radius)
    d = (up - lo) / (_GAP_GRID - 1)
    return (2.0 * inst.beta + inst.cost.lipschitz_on(0.0)) * float(np.sum(d**2)) / 8.0


def assert_certified(inst, x, radius):
    lo, hi = nash_gap(inst, x, radius)
    assert 0.0 <= lo <= hi
    assert hi - lo <= scan_slack(inst, x, radius) * (1 + 1e-12) + np.spacing(hi)
    ref, ref_slack = dense_gap(inst, x, radius)
    # both brackets hold the true gap, so they must overlap
    assert lo <= ref + ref_slack + 1e-12
    assert ref <= hi + 1e-12
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
        # with h = 1.5*sin the solver stops at a local minimum of the potential
        # from which a unilateral jump to another well still pays
        inst = sin_market(3, 0)
        res, _ = solve(inst, SolverConfig(eps=1e-8), x0=np.full(3, 10.0))
        assert np.linalg.norm(res.x - prox_step(inst, res.x, 1.0)) <= 1e-6
        lo, _ = assert_certified(inst, res.x, np.inf)
        assert lo > 1e-2

    def test_finite_radius_on_unbounded_box(self):
        inst = affine_market(2, mu=2.0, upper=np.inf)
        star = classical_equilibrium(inst)
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
        star = classical_equilibrium(inst)
        for r in (0.5, 5.0):
            lo, hi = nash_gap(inst, star, r)
            assert lo == 0.0
            assert hi <= scan_slack(inst, star, r) * (1 + 1e-12)
            assert hi <= 1e-4

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
        star = classical_equilibrium(inst)
        lo, hi = nash_gap(inst, star)
        assert lo == 0.0
        assert hi <= scan_slack(inst, star, np.inf) * (1 + 1e-12)
        assert hi <= 1e-4

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
        witness = -float(phi_bifunction(inst, x, prox_step(inst, x, c)[None, :])[0])
        lo, hi = nash_gap(inst, x)
        assert 1e-2 < witness <= hi
        assert lo > 1e-2


class TestFixedPointResidual:
    """The fixed-point residual ||x - s_c(x)||, and the certificate built on it."""

    def test_zero_at_equilibrium_for_every_damping(self):
        inst = affine_market(5, mu=2.0)
        star = classical_equilibrium(inst)
        for c in (0.1, 1.0, 10.0):
            assert np.linalg.norm(star - prox_step(inst, star, c)) <= 1e-8

    def test_positive_away_from_stationarity(self):
        inst = log_cost_market(5, 5)
        x = inst.project(np.ones(5))
        assert np.linalg.norm(x - prox_step(inst, x, 1.0)) > 1e-2

    def test_identity_with_gradient_mapping(self):
        inst = exp_cost_market(7, 6)
        L = lipschitz_gamma(inst)
        rng = np.random.default_rng(10)
        for c in (0.3, 2.0):
            x = rng.uniform(inst.lower, inst.upper)
            residual = float(np.linalg.norm(x - prox_step(inst, x, c)))
            assert eps_certificate(inst, x, c, Splitting.PAPER) == (1.0 / c + L) * residual


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
        h_slope = cost_gradient(inst.cost, np.zeros(4))
        slope = float(np.max(np.abs(inst.alpha_tilde)) + np.max(h_slope))
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
        assert n * f_min - n * cost.lipschitz_on(0.0) * d**2 / 8 <= lb <= n * f_min

    @pytest.mark.parametrize("grid", [2.5, 1024.0, "64", None, 1, True])
    def test_grid_must_be_an_integer_of_at_least_two(self, grid):
        inst = log_cost_market(3, 0)
        with pytest.raises(ValueError, match="integer"):
            gamma_lower_bound(inst, grid)

    def test_numpy_integer_grid_accepted(self):
        inst = log_cost_market(3, 0)
        assert gamma_lower_bound(inst, np.int64(64)) == gamma_lower_bound(inst, 64)

    def test_unbounded_box_rejected(self):
        cost = AffineCost(mu_h=np.zeros(2))
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=np.inf, cost=cost)
        with pytest.raises(ValueError):
            gamma_lower_bound(inst, 64)


def full_walk(profile, lower, upper, grid, curvature):
    return full_scan_min(profile, lower, upper, grid)


def caller_scans(inst, x, monkeypatch):
    """The (profile, curvature) that gamma_lower_bound and nash_gap hand to the scan."""
    seen = []

    def record(profile, lower, upper, grid, curvature):
        seen.append((profile, curvature))
        return full_scan_min(profile, lower, upper, grid)

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_scan_min", record)
        gamma_lower_bound(inst)
        nash_gap(inst, x)
    return seen


class Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


def two_wells(t, deep):
    # wells of curvature 1e-3 (t in node units): a shallow one on coarse node 320
    # and, when ``deep``, a deeper one midway between coarse nodes 704 and 736
    shallow = 5e-4 * (t - 320.0) ** 2
    return np.minimum(shallow, 5e-4 * (t - 720.0) ** 2 - 0.1) if deep else shallow


def fuzz_case(rng, grid):
    """A scan problem of n < 40 firms with profiles q*t**2 + a*t + b*sin(omega*t).

    Every firm sits at the one curvature bound 2|q| + |b|*omega**2, so the
    envelopes touch the profiles; one case in five has curvature 0 (linear
    profiles). In every other case the slope a is tuned per firm so that the
    upper box end, where the profile may be steep, ties to a few ulp with the
    best interior node, a shallow dip that must not be pruned away when it is
    the lower of the two.
    """
    n = int(rng.integers(1, 40))
    lower = rng.uniform(-5.0, 5.0, n)
    upper = lower + rng.choice([0.0, 1e-3, 1.0, 10.0], n) * rng.uniform(0.5, 1.0, n)
    curvature = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 3.0)
    share = rng.uniform(0.0, 1.0, n)
    omega = 10.0 ** rng.uniform(-1.0, 1.5, n)
    q = rng.choice([-0.5, 0.5], n) * curvature * (1.0 - share)
    b = rng.choice([-1.0, 1.0], n) * curvature * share / omega**2
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    if curvature > 0 and grid > 2 and rng.random() < 0.5:
        t = lower + np.linspace(0.0, 1.0, grid)[:, None] * (upper - lower)
        g = q * t * t + b * np.sin(omega * t)
        dip = np.argmin(g[1:-1], axis=0) + 1
        cols = np.arange(n)
        rise = (t[-1] - t[dip, cols]) * (1.0 + rng.uniform(-1e-15, 1e-15, n))
        a = np.where(rise != 0, (g[dip, cols] - g[-1]) / np.where(rise != 0, rise, 1.0), a)
    return (lambda t: (q * t + a) * t + b * np.sin(omega * t)), lower, upper, curvature


class TestScanMin:
    """The pruned scan returns the full walk's bits while skipping nodes the curvature rules out."""

    @pytest.mark.parametrize("radius", [np.inf, 1.5])
    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market, affine_market, sin_market])
    def test_matches_full_walk_for_both_callers(self, make, radius, monkeypatch):
        inst = make(7, 3) if make is not affine_market else affine_market(7, mu=2.0)
        x = np.random.default_rng(3).uniform(inst.lower, inst.upper)
        lower, upper = scan_interval(inst, x, radius)
        scans = caller_scans(inst, x, monkeypatch)
        assert len(scans) == 2
        for profile, curvature in scans:
            for grid in (2, 3, 14, 64, 1024, 2048):
                best, spacing = _scan_min(profile, lower, upper, grid, curvature)
                ref_best, ref_spacing = full_scan_min(profile, lower, upper, grid)
                assert np.array_equal(best, ref_best), (grid, curvature)
                assert np.array_equal(spacing, ref_spacing)

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market, sin_market])
    def test_callers_match_full_walk(self, make, monkeypatch):
        inst = make(12, 5)
        res, _ = solve(inst, SolverConfig(eps=1e-3))
        answers = [gamma_lower_bound(inst), nash_gap(inst, res.x), nash_gap(inst, res.x, 0.5)]
        monkeypatch.setattr(diagnostics, "_scan_min", full_walk)
        reference = [gamma_lower_bound(inst), nash_gap(inst, res.x), nash_gap(inst, res.x, 0.5)]
        assert answers == reference

    def test_verification_walk_widens_to_a_deeper_well(self):
        # the coarse walk sees only the shallow well; the deep one lies between coarse
        # nodes, and only the floor test of the verification walk sends the scan there
        lower, upper = np.zeros(2), np.array([1023.0, 1023.0])
        counts, results = [], []
        for deep in (False, True):
            profile = Counted(
                lambda t: np.stack([two_wells(t[0], deep), 5e-4 * (t[1] - 100.0) ** 2])
            )
            results.append(_scan_min(profile, lower, upper, 1024, 1e-3))
            counts.append(profile.calls)
            ref_best, _ = full_scan_min(profile, lower, upper, 1024)
            assert np.array_equal(results[-1][0], ref_best)
        assert results[1][0][0] == pytest.approx(-0.1)
        # the same coarse, window and verification walks, plus the span
        assert counts[1] > counts[0]
        assert counts[0] < 150

    def test_a_well_between_nodes_above_best_is_walked(self):
        # curvature exactly 1e-3: best (0) sits on a top-level node, and a deeper well is
        # centred midway between top-level nodes 512 and 768, which lie 8.092 above best.
        # Only the floor's vertex, 0.1 below best, keeps that interval live.
        well = lambda t, c: 5e-4 * (t - c) ** 2
        profile = lambda t: np.minimum(well(t, 256.0), well(t, 640.0) - 0.1)
        lower, upper = np.zeros(1), np.array([1024.0])
        best, _ = _scan_min(profile, lower, upper, 1025, 1e-3)
        assert np.array_equal(best, full_scan_min(profile, lower, upper, 1025)[0])
        assert best[0] == -0.1

    def test_a_tie_with_the_floor_is_walked(self):
        # a flat profile at curvature 0: every floor ties best, so no interval may be
        # pruned, and a rounding-sized dip at one node between coarse nodes is found
        profile = lambda t: np.where(np.abs(t - 500.0) < 0.25, -1e-300, 0.0)
        lower, upper = np.zeros(3), np.full(3, 1023.0)
        best, _ = _scan_min(profile, lower, upper, 1024, 0.0)
        assert np.array_equal(best, full_scan_min(profile, lower, upper, 1024)[0])
        assert np.all(best == -1e-300)

    def test_lower_bound_evaluates_a_tenth_of_the_grid(self, monkeypatch):
        inst = log_cost_market(1000, 0)
        counted = Counted(LogCost.value_components)
        monkeypatch.setattr(LogCost, "value_components", lambda *args: counted(*args))
        gamma_lower_bound(inst, 1024)
        assert 0 < counted.calls <= 150

    @pytest.mark.parametrize("grid", [2, 3, 5, 17, 64, 1024, 2048])
    def test_fuzz_matches_full_walk(self, grid):
        rng = np.random.default_rng(grid)
        for _ in range(40 if grid < 1024 else 8):
            profile, lower, upper, curvature = fuzz_case(rng, grid)
            best, spacing = _scan_min(profile, lower, upper, grid, curvature)
            ref_best, ref_spacing = full_scan_min(profile, lower, upper, grid)
            assert np.array_equal(best, ref_best)
            assert np.array_equal(spacing, ref_spacing)

    @pytest.mark.parametrize("make, cost", [(log_cost_market, LogCost), (exp_cost_market, ExpCost)])
    def test_lower_bound_walks_only_the_top_level(self, make, cost, monkeypatch):
        # each firm's profile is least at its upper end, where it is steep: the
        # top level's five nodes rule out every interval, and the pruning walk
        # reads the node values the best-value walk kept
        counted = Counted(cost.value_components)
        monkeypatch.setattr(cost, "value_components", lambda *args: counted(*args))
        for n in (100, 1000, 10_000):
            counted.calls = 0
            gamma_lower_bound(make(n, 0), 1024)
            assert counted.calls == 5, n

    def test_many_wells_past_the_kept_nodes_match_full_walk(self, monkeypatch):
        # on a wide box both callers' SinCost profiles have a well each 2*pi (the gap's
        # anchored at zero output), so the levels below the top span more than
        # _KEPT_NODES nodes and walk their nodes twice; the top level's five nodes are
        # evaluated once, and the next level follows them
        n = 6
        mu = np.random.default_rng(4).uniform(0.0, 1.0, n)
        inst = MarketInstance(beta=0.1, alpha0=2.0, mu=mu, lower=0.0, upper=100.0,
                              cost=SinCost(3.0, n))
        x = inst.lower.copy()
        for profile, curvature in caller_scans(inst, x, monkeypatch):
            for grid in (1024, 2048):
                seen = []

                def recorded(t):
                    seen.append(t.tobytes())
                    return profile(t)

                best, spacing = _scan_min(recorded, inst.lower, inst.upper, grid, curvature)
                ref_best, ref_spacing = full_scan_min(profile, inst.lower, inst.upper, grid)
                assert np.array_equal(best, ref_best)
                assert np.array_equal(spacing, ref_spacing)
                assert len(set(seen)) < len(seen)  # a wide level walked its nodes twice
                assert seen[5:10] != seen[:5]

    def test_memory_is_a_few_n_vectors(self):
        n = 100_000
        inst = log_cost_market(n, 0)
        profile = lambda t: -inst.alpha_tilde * t - inst.cost.value_components(t)
        tracemalloc.start()
        try:
            _scan_min(profile, inst.lower, inst.upper, 1024, inst.cost.lipschitz_on(0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * 8


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
