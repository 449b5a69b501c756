import inspect
import math
import sys
import warnings
import zlib
from collections import Counter

import numpy as np
import pytest

import cournotprox.subqp
from cournotprox import (
    AffineCost, CostModel, MarketInstance, SolverConfig, SolveStatus, Splitting, StepPolicy, solve,
)
from cournotprox import model
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market
from cournotprox.subqp import _aggregate_root, _clamp, _newton_point, prox_step
import oracles
from oracles import (
    affine_equilibrium, apply_Btilde, breakpoint_root, cost_term_curvature, cost_term_slope,
    exact_coupling_step, library_cost_term, newton_point, oracle_reference, oracle_residual,
    pg_reference, phi_bifunction,
)


class LinearCost(CostModel):
    """h_i(x) = m*x: a custom cost with zero curvature."""

    def __init__(self, m, n):
        self.m, self.n = float(m), n

    def value_components(self, x, grad=None, out=None, curv=None):
        x = self._check_points(x)
        if grad is not None:
            grad[...] = self.m
        if curv is not None:
            curv[...] = 0.0
        return np.multiply(self.m, x, out=out)


def single_firm_instance(mu_h, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0):
    cost = AffineCost(mu_h=[mu_h])
    return MarketInstance(beta=beta, alpha0=alpha0, mu=0.0, lower=lower, upper=upper, cost=cost)


class TestProxStep:
    def test_interior_closed_form(self):
        # model slope g = -alpha_tilde + SIGN*mu_h = 0.6 at any x when n = 1,
        # so s = (3 - 0.6)/1.2 = 2.0
        inst = single_firm_instance(mu_h=oracles.SIGN * 10.6)
        s = prox_step(inst, np.array([3.0]), c=1.0, splitting=Splitting.PAPER)
        assert s[0] == pytest.approx(2.0, abs=1e-14)

    def test_clamped_at_lower_bound(self):
        inst = single_firm_instance(mu_h=oracles.SIGN * 15.0)  # g = 5: unclamped (3-5)/1.2 < 0
        s = prox_step(inst, np.array([3.0]), c=1.0, splitting=Splitting.PAPER)
        assert s[0] == 0.0

    def test_fixed_point_at_equilibrium(self):
        inst = affine_market(8, mu=2.0)
        star = affine_equilibrium(inst)
        for c in (0.1, 1.0, 10.0):
            s = prox_step(inst, star, c, splitting=Splitting.PAPER)
            np.testing.assert_allclose(s, star, atol=1e-9)

    def test_rejects_nonpositive_damping(self):
        inst = affine_market(2)
        with pytest.raises(ValueError):
            prox_step(inst, np.zeros(2), 0.0, splitting=Splitting.PAPER)

    @pytest.mark.parametrize("splitting", [Splitting.PAPER, Splitting.EXACT_COUPLING])
    @pytest.mark.parametrize("c", [True, np.True_], ids=["bool", "np_bool"])
    def test_rejects_boolean_damping(self, c, splitting):
        # True would step at c = 1
        inst = log_cost_market(3, 0)
        with pytest.raises(ValueError, match="c must be a real number"):
            prox_step(inst, inst.center(), c, splitting=splitting)

    @pytest.mark.parametrize("c", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_damping(self, c):
        # NaN is refused; c = inf is no damping at all, which the paper's step
        # takes too: the box clip of -g/(2*beta)
        inst = log_cost_market(3, 0)
        x = inst.center()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isnan(c):
                with pytest.raises(ValueError, match="positive"):
                    prox_step(inst, x, c, splitting=Splitting.PAPER)
                return
            s = prox_step(inst, x, c, splitting=Splitting.PAPER)
        g = apply_Btilde(inst, x) - inst.alpha_tilde + cost_term_slope(inst.cost, x)
        want = np.clip(-g / (2.0 * inst.beta), inst.lower, inst.upper)
        np.testing.assert_allclose(s, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("make,seed", [(log_cost_market, 0), (exp_cost_market, 1)])
    def test_variational_optimality_condition(self, make, seed):
        inst = make(12, seed)
        rng = np.random.default_rng(seed)
        for c in (0.05, 0.2, 1.0):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c, splitting=Splitting.PAPER)
            G = (x - s) / c
            v = (
                2.0 * inst.beta * s
                + apply_Btilde(inst, x)
                - inst.alpha_tilde
                + cost_term_slope(inst.cost, x)
                - G
            )
            Y = rng.uniform(inst.lower, inst.upper, (100, inst.n))
            assert np.min((Y - s) @ v) >= -1e-8

    def test_writes_into_out(self):
        inst = exp_cost_market(10, 3)
        rng = np.random.default_rng(4)
        x = rng.uniform(inst.lower, inst.upper)
        g = rng.normal(size=10)
        for slope in (None, g):
            out = np.full(10, np.nan)
            s = prox_step(inst, x, 0.7, slope, out, splitting=Splitting.PAPER)
            assert s is out
            assert s.tobytes() == prox_step(inst, x, 0.7, slope, splitting=Splitting.PAPER).tobytes()

    @pytest.mark.parametrize("make,seed", [(log_cost_market, 0), (exp_cost_market, 1)])
    def test_exact_coupling_step_matches_reference(self, make, seed):
        # the same entry point takes the exact-coupling step, c = inf included
        inst = make(12, seed)
        rng = np.random.default_rng(seed)
        for c in (0.05, 1.0, np.inf):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c, splitting=Splitting.EXACT_COUPLING)
            np.testing.assert_allclose(s, exact_coupling_step(inst, x, c), rtol=1e-12, atol=1e-12)
            # into out, with the slope and the scratch from the caller: same bits
            g = cost_term_slope(inst.cost, x) - inst.alpha_tilde
            out = np.full(12, np.nan)
            scratch = (np.empty(12), np.empty((2, 12), dtype=bool), np.array([np.sum(x), np.nan]))
            t = prox_step(inst, x, c, g, out, Splitting.EXACT_COUPLING, scratch)
            assert t is out and t.tobytes() == s.tobytes()
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                prox_step(inst, inst.center(), bad, splitting=Splitting.EXACT_COUPLING)

    @pytest.mark.parametrize("splitting", list(Splitting))
    def test_a_caller_carrying_total_outputs_gets_the_same_step_and_its_total(self, splitting):
        # the solver passes sum(x) in and takes sum(out) back through the scratch
        inst = log_cost_market(12, 3)
        rng = np.random.default_rng(3)
        for c in (0.05, 1.0):
            x = rng.uniform(inst.lower, inst.upper)
            sums = np.array([np.add.reduce(x), np.nan])
            scratch = (np.empty(12), np.empty((2, 12), dtype=bool), sums)
            t = prox_step(inst, x, c, None, None, splitting, scratch)
            assert t.tobytes() == prox_step(inst, x, c, splitting=splitting).tobytes()
            assert sums[0] == np.add.reduce(x) and sums[1] == np.add.reduce(t)

    def test_output_stays_in_box(self):
        inst = log_cost_market(20, 5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, 3.0, splitting=Splitting.PAPER)
            assert inst.contains(s)


class TestBoxPG:
    """The test-local projected-gradient reference, and the closed forms checked against it."""

    def test_matches_closed_form_on_prox_subproblems(self):
        # the prox subproblem: Hessian (2*beta + 1/c) I, linear term g - x/c
        rng = np.random.default_rng(3)
        for n in (1, 5, 30, 100):
            inst = log_cost_market(n, n)
            x = rng.uniform(inst.lower, inst.upper)
            g = apply_Btilde(inst, x) - inst.alpha_tilde + cost_term_slope(inst.cost, x)
            for c in (0.1, 1.0, math.inf):  # at c = inf: Hessian 2*beta, linear term g
                d = 2.0 * inst.beta + 1.0 / c
                pg = pg_reference(lambda v: d * v, g - x / c, inst.lower, inst.upper, 1.0 / d, x)
                s = prox_step(inst, x, c, splitting=Splitting.PAPER)
                np.testing.assert_allclose(pg, s, atol=1e-8)

    def test_two_firm_interior_system(self):
        # 0.2 x1 + 0.1 x2 = 8 and symmetric -> x = 8/0.3
        Q = np.array([[0.2, 0.1], [0.1, 0.2]])
        x = pg_reference(lambda v: Q @ v, np.array([-8.0, -8.0]), 0.0, 50.0, 1.0 / 0.3, np.zeros(2))
        np.testing.assert_allclose(x, [8.0 / 0.3, 8.0 / 0.3], atol=1e-6)
        # the same system is the oracle QP of a two-firm market: beta = 0.1, mu - alpha0 = -8
        inst = affine_market(2, mu=2.0)
        np.testing.assert_allclose(affine_equilibrium(inst), x, atol=1e-9)
        np.testing.assert_allclose(prox_step(inst, np.zeros(2), math.inf), x, atol=1e-9)

    def test_zero_linear_term_gives_origin(self):
        d = np.array([1.0, 2.0, 3.0])
        x = pg_reference(lambda v: d * v, np.zeros(3), -1.0, 1.0, 1.0 / 3.0, np.ones(3))
        np.testing.assert_allclose(x, np.zeros(3), atol=1e-12)
        # mu + SIGN*mu_h = alpha0 makes the oracle's linear term vanish
        inst = MarketInstance(
            beta=1.0, alpha0=5.0, mu=[1.0, 2.0, 3.0], lower=-1.0, upper=1.0,
            cost=AffineCost(mu_h=oracles.SIGN * np.array([4.0, 3.0, 2.0])),
        )
        np.testing.assert_array_equal(affine_equilibrium(inst), np.zeros(3))
        np.testing.assert_array_equal(prox_step(inst, np.ones(3), math.inf), np.zeros(3))


def starts(inst, seed, count=3):
    """The box center and ``count`` seeded random finite starts, in the box or not."""
    rng = np.random.default_rng(seed)
    center = inst.center()
    return [center] + [center + 20.0 * rng.standard_normal(inst.n) for _ in range(count)]


class TestStepAtInfinity:
    """With zero cost curvature the default step at c = inf is the equilibrium, from any start.

    The exact-coupling model is then the potential itself, so
    ``prox_step(inst, x, math.inf)`` is the affine oracle that
    ``run_experiment`` checks ``solve`` against; every answer here is
    compared with ``oracles.affine_equilibrium``, which shares no code
    with the library.
    """

    def test_symmetric_closed_form(self):
        inst = affine_market(5, mu=2.0)
        for x in starts(inst, 5):
            star = prox_step(inst, x, math.inf)
            np.testing.assert_allclose(star, np.full(5, 8.0 / 0.6), atol=1e-6)
            np.testing.assert_allclose(star, affine_equilibrium(inst), rtol=1e-12)
            # KKT residual at the reported point
            g = 2.0 * inst.beta * star + apply_Btilde(inst, star) + inst.mu - inst.alpha0
            r = np.max(np.abs(star - np.clip(star - g, inst.lower, inst.upper)))
            assert r <= 1e-8

    def test_single_firm_active_upper_bound(self):
        inst = affine_market(1, mu=0.0, upper=10.0)
        assert affine_equilibrium(inst)[0] == pytest.approx(10.0, abs=1e-9)
        for x in starts(inst, 1):
            assert prox_step(inst, x, math.inf)[0] == pytest.approx(10.0, abs=1e-9)

    def test_single_firm_interior(self):
        inst = affine_market(1, mu=9.0, upper=10.0)
        assert affine_equilibrium(inst)[0] == pytest.approx(5.0, abs=1e-9)
        for x in starts(inst, 2):
            assert prox_step(inst, x, math.inf)[0] == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("cost", [AffineCost(mu_h=2.0, n=4), LinearCost(2.0, 4)],
                             ids=["affine", "custom"])
    def test_takes_the_cost_term_that_solve_takes(self, cost):
        # both take the cost term from the library's one function, so they agree on
        # its sign; any cost with zero curvature has the step as its oracle, a custom one too
        inst = MarketInstance(beta=1.0, alpha0=100.0, mu=0.0, lower=0.0, upper=np.inf, cost=cost)
        ref = affine_equilibrium(inst)
        np.testing.assert_allclose(ref, (100.0 - oracles.SIGN * 2.0) / 5.0, rtol=1e-14)
        for x in starts(inst, 4):
            np.testing.assert_allclose(prox_step(inst, x, math.inf), ref, rtol=1e-13)
        res, _ = solve(inst, SolverConfig(eps=1e-12))
        np.testing.assert_allclose(res.x, ref, rtol=1e-12)

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["minus_h", "plus_h"])
    def test_cost_level_linear_coefficients_enter_oracle(self, sign, monkeypatch):
        # one linear cost m*x per firm, split between the market's mu and the cost
        # model's mu_h, whose term of the potential is SIGN*mu_h*x: the market solves
        # like the one with the whole cost in mu, under either sign of the potential
        if sign != oracles.SIGN:  # the other sign: both sides' one copy flipped together
            monkeypatch.setattr(model, "_cost_term", library_cost_term(sign))
            monkeypatch.setattr(oracles, "SIGN", sign)
        n = 6
        rng = np.random.default_rng(11)
        m, share = rng.uniform(0.0, 6.0, n), rng.uniform(0.0, 1.0, n)
        whole = affine_market(n, mu=m)
        split = MarketInstance(
            beta=0.1, alpha0=10.0, mu=share * m, lower=0.0, upper=50.0,
            cost=AffineCost(mu_h=oracles.SIGN * (1.0 - share) * m),
        )
        ref = affine_equilibrium(whole)
        assert 0.0 < np.count_nonzero((0.0 < ref) & (ref < 50.0)) < n  # some firms at a bound
        np.testing.assert_allclose(affine_equilibrium(split), ref, rtol=1e-12, atol=1e-12)
        for x in starts(split, 11):
            np.testing.assert_allclose(prox_step(split, x, math.inf), ref, rtol=1e-12, atol=1e-12)
        for splitting in Splitting:
            res, _ = solve(split, SolverConfig(eps=1e-10, splitting=splitting))
            assert res.status is SolveStatus.CONVERGED
            np.testing.assert_allclose(res.x, ref, rtol=1e-8, atol=1e-8)

    def test_solves_the_market_inequality(self):
        rng = np.random.default_rng(6)
        inst = affine_market(7, mu=rng.uniform(0.0, 5.0, 7))
        Y = rng.uniform(inst.lower, inst.upper, (10_000, 7))
        assert np.min(phi_bifunction(inst, affine_equilibrium(inst), Y)) >= -1e-6
        for x in starts(inst, 6):
            star = prox_step(inst, x, math.inf)
            np.testing.assert_allclose(star, affine_equilibrium(inst), rtol=1e-12, atol=1e-12)
            assert np.min(phi_bifunction(inst, star, Y)) >= -1e-6

    @pytest.mark.parametrize("n", [7, 1_000, 10_000, 100_000])
    def test_kkt_residual_on_asymmetric_markets(self, n):
        # cond(Q) = n + 1: a first-order method needs O(n) iterations here
        inst = affine_market(n, mu=np.random.default_rng(n).uniform(0.0, 12.0, n))
        ref = affine_equilibrium(inst)
        assert oracle_residual(inst, ref) <= 1e-10
        for x in starts(inst, n, count=2):
            star = prox_step(inst, x, math.inf)
            assert inst.contains(star)
            assert oracle_residual(inst, star) <= 1e-10
            np.testing.assert_allclose(star, ref, rtol=1e-12, atol=1e-12)

    def test_unbounded_upper_with_cost_level_coefficients(self):
        # price 10 - 0.1*sigma and a cost term SIGN*2*x: each firm's best response
        # gives x = (10 - SIGN*2)/(0.1*(n+1))
        inst = MarketInstance(
            beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=np.inf,
            cost=AffineCost(mu_h=np.full(4, 2.0)),
        )
        want = np.full(4, (10.0 - oracles.SIGN * 2.0) / 0.5)
        np.testing.assert_allclose(affine_equilibrium(inst), want, rtol=1e-14)
        for x in starts(inst, 3):
            star = prox_step(inst, x, math.inf)
            np.testing.assert_allclose(star, want, rtol=1e-14)
            assert oracle_residual(inst, star) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
    def test_matches_projected_gradient_reference(self, n):
        # infinite sides too: an open upper side, and an open lower one
        rng = np.random.default_rng(100 + n)
        markets = [
            affine_market(n, mu=rng.uniform(0.0, 12.0, n)),
            affine_market(
                n, mu=rng.uniform(0.0, 12.0, n), lower=rng.uniform(0.0, 2.0, n), upper=np.inf
            ),
            MarketInstance(
                beta=0.3, alpha0=20.0, mu=rng.uniform(0.0, 3.0, n),
                lower=-np.inf, upper=rng.uniform(0.0, 20.0, n),
                cost=AffineCost(mu_h=rng.uniform(0.0, 3.0, n)),
            ),
        ]
        for inst in markets:
            ref = affine_equilibrium(inst)
            np.testing.assert_allclose(ref, oracle_reference(inst), atol=1e-9)
            for x in starts(inst, n):
                star = prox_step(inst, x, math.inf)
                assert oracle_residual(inst, star) <= 1e-10
                np.testing.assert_allclose(star, ref, rtol=1e-12, atol=1e-9)


def lines_run(fn, *args, traced=None):
    """Call fn(*args); return its result and how often each source line of ``traced`` ran.

    ``traced`` defaults to fn. Lines run by a recursive call of
    ``traced`` are not counted.
    """
    code, ran = (traced or fn).__code__, Counter()

    def count(frame, event, arg):
        if event == "line":
            ran[frame.f_lineno] += 1
        return count

    def tracer(frame, event, arg):
        if frame.f_code is code and frame.f_back.f_code is not code:
            return count
        return None

    sys.settrace(tracer)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
    return out, ran


def line_of(fn, text):
    lines, first = inspect.getsourcelines(fn)
    (offset,) = [i for i, line in enumerate(lines) if text in line]
    return first + offset


class TestAggregateRoot:
    """Safeguarded Newton on sum(clip(a - k*sigma, lower, upper)) = sigma, against the oracle."""

    @staticmethod
    def assert_matches_oracle(a, k, lower, upper, sigma0):
        buf = np.empty_like(a)
        sigma, total = _aggregate_root(a, k, lower, upper, sigma0, buf)
        # the sum the solver reuses as the step's total output
        assert total == np.add.reduce(buf)
        ref = breakpoint_root(a, k, lower, upper)
        x_ref = np.clip(a - k * ref, lower, upper)
        # relative to the magnitude of the terms the root balances
        scale = float(np.sum(np.abs(x_ref))) + abs(ref)
        assert abs(sigma - ref) <= 1e-12 * scale
        assert np.max(np.abs(buf - x_ref)) <= 1e-12 * scale
        return sigma

    def test_fuzz_against_breakpoint_root(self):
        # k in (0, 1], mixed infinite sides, starts up to 1e8 away from the root
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(1, 60))
            k = 1.0 if trial % 7 == 0 else float(rng.uniform(1e-3, 1.0))
            a = rng.normal(0.0, rng.choice([1.0, 10.0, 1e4]), n)
            lower = rng.uniform(-5.0, 5.0, n)
            upper = lower + rng.exponential(3.0, n)
            lower[rng.random(n) < 0.2] = -np.inf
            upper[rng.random(n) < 0.2] = np.inf
            far = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 8.0)
            start = breakpoint_root(a, k, lower, upper) + far
            self.assert_matches_oracle(a, k, lower, upper, start)

    def test_fuzz_per_firm_k_against_breakpoint_root(self):
        # the Newton trial's root: one k per firm in (0, 1]
        rng = np.random.default_rng(2025)
        for trial in range(500):
            n = int(rng.integers(1, 60))
            k = rng.uniform(1e-3, 1.0, n)
            a = rng.normal(0.0, rng.choice([1.0, 10.0, 1e4]), n)
            lower = rng.uniform(-5.0, 5.0, n)
            upper = lower + rng.exponential(3.0, n)
            lower[rng.random(n) < 0.2] = -np.inf
            upper[rng.random(n) < 0.2] = np.inf
            far = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 8.0)
            start = breakpoint_root(a, k, lower, upper) + far
            self.assert_matches_oracle(a, k, lower, upper, start)

    def test_every_bound_infinite_or_pinned(self):
        n = 6
        a = np.linspace(-3.0, 4.0, n)
        free = np.full(n, np.inf)
        self.assert_matches_oracle(a, 0.5, -free, free, 0.0)
        # pinned firms (lower == upper) never count as free
        pinned = np.arange(n, dtype=float)
        sigma = self.assert_matches_oracle(a, 0.5, pinned, pinned, -1e6)
        assert sigma == np.sum(pinned)

    def test_root_near_zero_among_cancelling_terms(self):
        # terms of +-1e8 that cancel put the root within rounding noise of the
        # start sigma = 0; a stop scaled by the root itself would keep moving
        # sigma by its own few ulp for hundreds of passes
        rng = np.random.default_rng(5)
        passes = Counter()
        for trial in range(200):
            n = int(rng.integers(2, 200))
            a = np.where(np.arange(n) % 2, 1e8, -1e8) * rng.uniform(0.5, 2.0, n)
            a += rng.normal(0.0, 1e-7, n) - np.mean(a)
            k = 1.0 if trial % 3 == 0 else float(rng.uniform(1e-3, 1.0))
            lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
            lower[rng.random(n) < 0.3] = -3e8
            upper[rng.random(n) < 0.3] = 3e8
            buf = np.empty(n)
            (sigma, _), ran = lines_run(_aggregate_root, a, k, lower, upper, 0.0, buf)
            passes[ran[line_of(_aggregate_root, "t = np.subtract(a, k * sigma")]] += 1
            ref = breakpoint_root(a, k, lower, upper)
            x_ref = np.clip(a - k * ref, lower, upper)
            scale = float(np.sum(np.abs(x_ref))) + abs(ref)
            assert abs(sigma - ref) <= 1e-12 * scale
            assert np.max(np.abs(buf - x_ref)) <= 1e-12 * scale
        assert max(passes) <= 4

    def test_bisection_where_newton_overshoots(self):
        # every firm is free only for sigma in (49, 50): outside, F has slope -1
        # and each Newton move lands on the far end of the bracket
        n = 1000
        a, lower, upper = np.full(n, 50.0), np.zeros(n), np.ones(n)
        (sigma, _), ran = lines_run(_aggregate_root, a, 1.0, lower, upper, 1e3, np.empty(n))
        assert ran[line_of(_aggregate_root, "sigma = 0.5 * (lo + hi)")] >= 1
        assert ran[line_of(_aggregate_root, "t = np.subtract(a, k * sigma")] <= 30
        assert sigma == pytest.approx(breakpoint_root(a, 1.0, lower, upper), rel=1e-14)

    def test_rounding_above_the_noise_estimate_ends_by_bracket_collapse(self, monkeypatch):
        # a sum that errs by 64 ulp of its terms' magnitude, with a sign that
        # changes from point to point: F's sign is then unreliable over a range
        # 16 times the stop's estimate, Newton keeps proposing moves above it,
        # and the search ends once the bracket is inside that estimate
        class NoisyAdd:
            # np.add, whose reduce is the root's sum
            def __getattr__(self, name):
                return getattr(np.add, name)

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            @staticmethod
            def reduce(x, *args, **kwargs):
                sign = 1.0 if zlib.crc32(np.asarray(x).tobytes()) & 1 else -1.0
                exact = np.add.reduce(x, *args, **kwargs)
                return exact + sign * 64.0 * math.ulp(np.add.reduce(np.abs(x)))

        class NoisySum:
            add = NoisyAdd()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(cournotprox.subqp, "np", NoisySum())
        rng = np.random.default_rng(5)
        n, k = 20, 0.01
        a = rng.normal(0.0, 10.0, n)
        lower, upper = np.full(n, -50.0), np.full(n, 50.0)
        ref = breakpoint_root(a, k, lower, upper)
        buf = np.empty(n)
        (sigma, _), ran = lines_run(_aggregate_root, a, k, lower, upper, ref + 1e3, buf)
        # moves leave the bracket (bisection), and the return under the
        # bracket test ends the search
        assert ran[line_of(_aggregate_root, "sigma = 0.5 * (lo + hi)")] >= 1
        assert ran[line_of(_aggregate_root, "if hi - lo <= noise") + 1] == 1
        assert ran[line_of(_aggregate_root, "t = np.subtract(a, k * sigma")] <= 80
        x_ref = np.clip(a - k * ref, lower, upper)
        assert abs(sigma - ref) <= 1e-12 * (float(np.sum(np.abs(x_ref))) + abs(ref))

    def test_nan_stops_at_once(self):
        a = np.array([1.0, np.nan, 2.0])
        buf = np.empty(3)
        _aggregate_root(a, 0.5, np.zeros(3), np.full(3, 5.0), 0.0, buf)
        assert np.isnan(buf[1])


class TestClamp:
    """The one clamp of the PAPER step and the aggregate root: a clip on stride-0 sides."""

    @staticmethod
    def boxes(rng, n):
        # each pairing of stride-0 and dense sides, with infinite sides
        lo = float(rng.uniform(-5.0, 5.0))
        hi = lo + float(rng.exponential(3.0))
        lower = lo - rng.exponential(1.0, n)
        upper = hi + rng.exponential(1.0, n)
        lower[rng.random(n) < 0.2] = -np.inf
        upper[rng.random(n) < 0.2] = np.inf
        lo = -np.inf if rng.random() < 0.2 else lo
        hi = np.inf if rng.random() < 0.2 else hi
        flat = lambda v: np.broadcast_to(np.asarray(v), (n,))
        return [(flat(lo), flat(hi)), (lower, upper), (flat(lo), upper), (lower, flat(hi))]

    def test_fuzz_against_the_two_ufuncs(self):
        # bit for bit, NaN and infinite entries included, into a buffer and in place
        rng = np.random.default_rng(27)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            t = rng.normal(0.0, 10.0, n)
            t[rng.random(n) < 0.1] = np.nan
            t[rng.random(n) < 0.05] = np.inf
            t[rng.random(n) < 0.05] = -np.inf
            for lower, upper in self.boxes(rng, n):
                want = np.minimum(np.maximum(t, lower), upper).tobytes()
                assert _clamp(t, lower, upper, np.empty(n)).tobytes() == want
                inplace = t.copy()
                assert _clamp(inplace, lower, upper, inplace) is inplace
                assert inplace.tobytes() == want

    def test_a_zero_on_a_zero_side_may_differ_in_sign_only(self):
        # the clip keeps t's zero where the ufuncs order -0.0 below 0.0
        t = np.array([-0.0, 0.0, -0.0, 0.0])
        flat = lambda v: np.broadcast_to(np.asarray(v), (4,))
        for lo, hi in ((0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)):
            got = _clamp(t, flat(lo), flat(hi), np.empty(4))
            np.testing.assert_array_equal(got, np.minimum(np.maximum(t, lo), hi))

    def test_the_root_and_the_paper_step_go_through_it(self, monkeypatch):
        calls = []
        clamp = cournotprox.subqp._clamp

        def counting(t, lower, upper, out):
            calls.append(out is t)  # the root clamps its pass in place
            return clamp(t, lower, upper, out)

        monkeypatch.setattr(cournotprox.subqp, "_clamp", counting)
        inst = log_cost_market(50, 1)
        x = inst.center()
        prox_step(inst, x, 0.1, splitting=Splitting.PAPER)
        assert calls == [False]
        calls.clear()
        ran = lines_run(prox_step, inst, x, 0.1, traced=_aggregate_root)[1]
        assert calls and all(calls)
        assert len(calls) == ran[line_of(_aggregate_root, "t = np.subtract(a, k * sigma")]

    @pytest.mark.parametrize("dense", [False, True])
    def test_only_dense_sides_take_the_two_ufuncs(self, monkeypatch, dense):
        used = []

        class Recording:
            def __getattr__(self, name):
                if name in ("maximum", "minimum"):
                    used.append(name)
                return getattr(np, name)

        monkeypatch.setattr(cournotprox.subqp, "np", Recording())
        n = 40
        side = (lambda v: np.full(n, v)) if dense else (lambda v: v)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=side(0.0), upper=side(10.0),
                              cost=log_cost_market(n, 1).cost)
        assert (inst.lower.strides == (0,)) is not dense
        x = inst.center()
        for splitting in Splitting:
            used.clear()
            prox_step(inst, x, 0.1, splitting=splitting)
            # one pair per clamp: the PAPER step's, or each root pass's
            pairs = len(used) // 2 if dense else 0
            assert used == ["maximum", "minimum"] * pairs and (pairs > 0) is dense


class TestRootJump:
    """From 32,768 firms, a pass that finds no free firm jumps to a stride sample's root."""

    PASS = "t = np.subtract(a, k * sigma"
    CHECK = "if lo < jump < hi"
    JUMP = "sigma = jump"

    @staticmethod
    def runs(ran, text):
        return ran[line_of(_aggregate_root, text)]

    def test_fuzz_against_breakpoint_root(self):
        # far starts; dense, stride-0, infinite and pinned sides; a sorted a or
        # sorted pinned values, which skew the every-(n // 256)-th-firm sample
        rng = np.random.default_rng(4096)
        jumps = refused = 0
        for trial in range(80):
            n = int(rng.integers(32768, 70000))
            k = 1.0 if trial % 5 == 0 else float(rng.uniform(1e-3, 1.0))
            a = rng.normal(0.0, rng.choice([1.0, 10.0, 1e4]), n)
            if trial % 3 == 1:
                a.sort()
            kind = trial % 4
            if kind == 0:
                lower = rng.uniform(-5.0, 5.0, n)
                upper = lower + rng.exponential(3.0, n)
                lower[rng.random(n) < 0.2] = -np.inf
                upper[rng.random(n) < 0.2] = np.inf
            elif kind == 1:
                lower = np.broadcast_to(0.0, (n,))
                upper = np.broadcast_to(float(rng.uniform(0.5, 10.0)), (n,))
            elif kind == 2:
                lower = np.broadcast_to(-np.inf, (n,))
                upper = rng.uniform(0.0, 5.0, n)
            else:
                lower = rng.uniform(-5.0, 5.0, n)
                upper = lower + rng.exponential(3.0, n)
                pinned = rng.random(n) < rng.choice([0.5, 0.9, 1.0])
                at = np.sort(rng.uniform(-5.0, 5.0, n)) if trial % 2 else rng.uniform(-5.0, 5.0, n)
                lower[pinned] = upper[pinned] = at[pinned]
            far = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 8.0)
            ref = breakpoint_root(a, k, lower, upper)
            buf = np.empty(n)
            (sigma, total), ran = lines_run(_aggregate_root, a, k, lower, upper, ref + far, buf)
            assert total == np.add.reduce(buf)
            x_ref = np.clip(a - k * ref, lower, upper)
            scale = float(np.sum(np.abs(x_ref))) + abs(ref)
            assert abs(sigma - ref) <= 1e-12 * scale
            assert np.max(np.abs(buf - x_ref)) <= 1e-12 * scale
            jumps += self.runs(ran, self.JUMP)
            refused += self.runs(ran, self.CHECK) - self.runs(ran, self.JUMP)
        assert jumps >= 10
        assert refused >= 1

    @pytest.mark.parametrize("descending", [False, True])
    def test_a_jump_outside_a_one_sided_bracket_is_refused(self, descending):
        # every firm pinned, at values sorted so that the sample's lowest (or
        # highest) firm of each block misjudges the total by about n*step/2:
        # from 1 below (above) the root the jump lands beyond the bracket's
        # finite end, where the bracket's midpoint would be +inf (-inf); the
        # Newton move lands on the root instead
        n = 32768
        at = np.arange(n, dtype=float)[::-1] if descending else np.arange(n, dtype=float)
        root = float(np.sum(at))
        start = root + 1.0 if descending else root - 1.0
        buf = np.empty(n)
        (sigma, _), ran = lines_run(_aggregate_root, np.zeros(n), 0.5, at, at, start, buf)
        assert sigma == root
        assert self.runs(ran, self.CHECK) == 1
        assert self.runs(ran, self.JUMP) == 0
        assert self.runs(ran, self.PASS) == 2

    @pytest.mark.parametrize("n, jumps", [(32767, 0), (32768, 1)])
    def test_the_jump_runs_from_32768_firms(self, n, jumps):
        # every firm clipped at the far start; below the threshold Newton creeps
        rng = np.random.default_rng(3)
        a, lower, upper = rng.normal(0.0, 1e3, n), np.zeros(n), np.ones(n)
        ref = breakpoint_root(a, 0.5, lower, upper)
        (sigma, _), ran = lines_run(_aggregate_root, a, 0.5, lower, upper, ref + 1e6, np.empty(n))
        assert self.runs(ran, self.JUMP) == jumps
        assert sigma == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 7, 90])
    def test_line_search_passes_at_1e5(self, seed):
        # the linesearch-log1e5 benchmark solve: 32/34/33 full passes without the jump
        inst = log_cost_market(100_000, seed)
        config = SolverConfig(step_policy=StepPolicy.LINE_SEARCH, record_bound=False)
        (res, _), ran = lines_run(solve, inst, config, traced=_aggregate_root)
        assert res.status is SolveStatus.CONVERGED
        assert self.runs(ran, self.PASS) <= 25

    @pytest.mark.parametrize("family, damping, most", [
        (exp_cost_market, "1/L_h", 6),  # 22 full passes without the jump
        (exp_cost_market, "inf", 6),  # 23
        (log_cost_market, "inf", 8),  # 26
    ])
    def test_cold_first_step_passes_at_1e5(self, family, damping, most):
        # the first exact-coupling step from the box midpoint, where every firm
        # is clipped at the warm start sum(x)
        inst = family(100_000, 0)
        c = 1.0 / inst.L_h if damping == "1/L_h" else math.inf
        x = 0.5 * (inst.lower + inst.upper)
        step, ran = lines_run(
            prox_step, inst, x, c, None, None, Splitting.EXACT_COUPLING, traced=_aggregate_root
        )
        np.testing.assert_allclose(step, exact_coupling_step(inst, x, c), rtol=0, atol=1e-12)
        assert self.runs(ran, self.PASS) <= most


class TestNewtonPoint:
    """The box minimizer of the potential's second-order model, behind the solver's Newton trial."""

    @staticmethod
    def newton(inst, x):
        # the solver's inputs: the exact-coupling linear term and the cost term's curvature
        g = cost_term_slope(inst.cost, x) - inst.alpha_tilde
        curv = cost_term_curvature(inst.cost, x)
        out, sums = np.empty(inst.n), np.array([np.add.reduce(x), np.nan])
        scratch = (np.empty(inst.n), np.empty((2, inst.n), dtype=bool), sums)
        y = _newton_point(inst, x, g, curv, out, scratch)
        assert y is None or (y is out and sums[1] == np.add.reduce(y))
        return y

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_matches_oracle_and_projected_gradient(self, make):
        inst = make(12, 3)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(inst.lower, inst.upper)
            y = self.newton(inst, x)
            np.testing.assert_allclose(y, newton_point(inst, x), rtol=0.0, atol=1e-12)
            # Hessian beta*(I + 11') + diag(curv), linear term g - curv*x
            curv = cost_term_curvature(inst.cost, x)
            g = cost_term_slope(inst.cost, x) - inst.alpha_tilde
            hess = lambda v: inst.beta * (v + np.sum(v)) + curv * v
            top = inst.beta * (inst.n + 1) + np.max(curv)
            pg = pg_reference(hess, g - curv * x, inst.lower, inst.upper, 1.0 / top, x)
            np.testing.assert_allclose(y, pg, atol=1e-8)

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_the_point_keeps_the_bits_of_its_formula(self, make):
        # D = beta + curv, a = (curv*x - g)/D and k = beta/D, divided as written
        inst = make(1000, 2)
        x = np.random.default_rng(3).uniform(inst.lower, inst.upper)
        curv = cost_term_curvature(inst.cost, x)
        g = cost_term_slope(inst.cost, x) - inst.alpha_tilde
        d = curv + inst.beta
        want = np.empty(inst.n)
        _aggregate_root((curv * x - g) / d, inst.beta / d, inst.lower, inst.upper,
                        np.add.reduce(x), want, signed=inst._signed)
        assert self.newton(inst, x).tobytes() == want.tobytes()

    def test_affine_cost_gives_the_equilibrium(self):
        # no cost curvature: the model is the potential, from any point
        inst = affine_market(9, mu=np.linspace(0.0, 4.0, 9))
        x = np.random.default_rng(1).uniform(inst.lower, inst.upper)
        np.testing.assert_allclose(self.newton(inst, x), affine_equilibrium(inst), atol=1e-12)

    def test_no_minimizer_where_some_D_is_not_positive(self):
        # the shipped families have -h'' >= 0, so D >= beta: give one firm a
        # curvature with D = 0, D < 0 or D NaN
        inst = log_cost_market(5, 0)
        x = inst.center()
        g = cost_term_slope(inst.cost, x) - inst.alpha_tilde
        for bad in (-inst.beta, -2.0 * inst.beta, np.nan):
            curv = cost_term_curvature(inst.cost, x)
            curv[2] = bad
            out = np.full(5, 7.0)
            scratch = (np.empty(5), np.empty((2, 5), dtype=bool), np.array([np.sum(x), np.nan]))
            assert _newton_point(inst, x, g, curv, out, scratch) is None
            assert np.all(out == 7.0)  # the trial point is not touched

    def test_per_firm_k_jumps_from_a_far_start(self):
        # the first Newton trial at n = 1e5 starts its root far off, every firm
        # clipped; the stride sample slices k like a, so it jumps at once
        inst = log_cost_market(100_000, 0)
        x = inst.center()
        ran = lines_run(self.newton, inst, x, traced=_aggregate_root)[1]
        assert ran[line_of(_aggregate_root, TestRootJump.JUMP)] >= 1
        assert ran[line_of(_aggregate_root, TestRootJump.PASS)] <= 6
