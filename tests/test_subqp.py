import inspect
import math
import sys
import warnings
import zlib
from collections import Counter

import numpy as np
import pytest

import cournotprox.subqp
from cournotprox import AffineCost, MarketInstance, Splitting, classical_equilibrium
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market
from cournotprox.subqp import _aggregate_root, prox_step
from oracles import (
    apply_Btilde, breakpoint_root, cost_gradient, exact_coupling_step, phi_bifunction,
)


def pg_reference(hess, linear, lower, upper, step, x, tol=1e-12, max_iter=100_000):
    """Projected gradient on min (1/2) x'Hx + linear'x over the box, step <= 1/lam_max(H).

    Independent of the library's closed forms; stops on the unit-step
    projected-gradient residual.
    """
    for _ in range(max_iter):
        g = hess(x) + linear
        if np.max(np.abs(x - np.clip(x - g, lower, upper))) <= tol:
            return x
        x = np.clip(x - step * g, lower, upper)
    raise AssertionError("reference projected gradient did not converge")


def oracle_linear(inst):
    return inst.mu + inst.cost.mu_h - inst.alpha0


def oracle_residual(inst, x):
    """Unit-step projected-gradient residual of the oracle QP, beta*(x + sigma) + linear."""
    g = inst.beta * (x + np.sum(x)) + oracle_linear(inst)
    return np.max(np.abs(x - np.clip(x - g, inst.lower, inst.upper)))


def oracle_reference(inst):
    return pg_reference(
        lambda v: inst.beta * (v + np.sum(v)),
        oracle_linear(inst),
        inst.lower,
        inst.upper,
        1.0 / (inst.beta * (inst.n + 1)),
        inst.center(),
    )


def single_firm_instance(mu_h, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0):
    cost = AffineCost(mu_h=[mu_h])
    return MarketInstance(beta=beta, alpha0=alpha0, mu=0.0, lower=lower, upper=upper, cost=cost)


class TestProxStep:
    def test_interior_closed_form(self):
        # model slope g = -alpha_tilde - mu_h = 0.6 at any x when n = 1,
        # so s = (3 - 0.6)/1.2 = 2.0
        inst = single_firm_instance(mu_h=-10.6)
        s = prox_step(inst, np.array([3.0]), c=1.0)
        assert s[0] == pytest.approx(2.0, abs=1e-14)

    def test_clamped_at_lower_bound(self):
        inst = single_firm_instance(mu_h=-15.0)  # g = 5: unclamped (3-5)/1.2 < 0
        s = prox_step(inst, np.array([3.0]), c=1.0)
        assert s[0] == 0.0

    def test_fixed_point_at_equilibrium(self):
        inst = affine_market(8, mu=2.0)
        star = classical_equilibrium(inst)
        for c in (0.1, 1.0, 10.0):
            np.testing.assert_allclose(prox_step(inst, star, c), star, atol=1e-9)

    def test_rejects_nonpositive_damping(self):
        inst = affine_market(2)
        with pytest.raises(ValueError):
            prox_step(inst, np.zeros(2), 0.0)

    @pytest.mark.parametrize("splitting", [Splitting.PAPER, Splitting.EXACT_COUPLING])
    @pytest.mark.parametrize("c", [True, np.True_], ids=["bool", "np_bool"])
    def test_rejects_boolean_damping(self, c, splitting):
        # True would step at c = 1
        inst = log_cost_market(3, 0)
        with pytest.raises(ValueError, match="positive"):
            prox_step(inst, inst.center(), c, splitting=splitting)

    @pytest.mark.parametrize("c", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_damping(self, c):
        inst = log_cost_market(3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                prox_step(inst, inst.center(), c)

    @pytest.mark.parametrize("make,seed", [(log_cost_market, 0), (exp_cost_market, 1)])
    def test_variational_optimality_condition(self, make, seed):
        inst = make(12, seed)
        rng = np.random.default_rng(seed)
        for c in (0.05, 0.2, 1.0):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c)
            G = (x - s) / c
            v = (
                2.0 * inst.beta * s
                + apply_Btilde(inst, x)
                - inst.alpha_tilde
                - cost_gradient(inst.cost, x)
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
            s = prox_step(inst, x, 0.7, slope, out)
            assert s is out
            assert s.tobytes() == prox_step(inst, x, 0.7, slope).tobytes()

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
            g = -(inst.alpha_tilde + cost_gradient(inst.cost, x))
            out, scratch = np.full(12, np.nan), (np.empty(12), np.empty((2, 12), dtype=bool))
            t = prox_step(inst, x, c, g, out, Splitting.EXACT_COUPLING, scratch)
            assert t is out and t.tobytes() == s.tobytes()
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                prox_step(inst, inst.center(), bad, splitting=Splitting.EXACT_COUPLING)

    def test_output_stays_in_box(self):
        inst = log_cost_market(20, 5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, 3.0)
            assert inst.contains(s)


class TestBoxPG:
    """The test-local projected-gradient reference, and the closed forms checked against it."""

    def test_matches_closed_form_on_prox_subproblems(self):
        # the prox subproblem: Hessian (2*beta + 1/c) I, linear term g - x/c
        rng = np.random.default_rng(3)
        for n in (1, 5, 30, 100):
            inst = log_cost_market(n, n)
            x = rng.uniform(inst.lower, inst.upper)
            g = apply_Btilde(inst, x) - inst.alpha_tilde - cost_gradient(inst.cost, x)
            for c in (0.1, 1.0):
                d = 2.0 * inst.beta + 1.0 / c
                pg = pg_reference(lambda v: d * v, g - x / c, inst.lower, inst.upper, 1.0 / d, x)
                np.testing.assert_allclose(pg, prox_step(inst, x, c), atol=1e-8)

    def test_two_firm_interior_system(self):
        # 0.2 x1 + 0.1 x2 = 8 and symmetric -> x = 8/0.3
        Q = np.array([[0.2, 0.1], [0.1, 0.2]])
        x = pg_reference(lambda v: Q @ v, np.array([-8.0, -8.0]), 0.0, 50.0, 1.0 / 0.3, np.zeros(2))
        np.testing.assert_allclose(x, [8.0 / 0.3, 8.0 / 0.3], atol=1e-6)
        # the same system is the oracle QP of a two-firm market: beta = 0.1, mu - alpha0 = -8
        np.testing.assert_allclose(classical_equilibrium(affine_market(2, mu=2.0)), x, atol=1e-9)

    def test_zero_linear_term_gives_origin(self):
        d = np.array([1.0, 2.0, 3.0])
        x = pg_reference(lambda v: d * v, np.zeros(3), -1.0, 1.0, 1.0 / 3.0, np.ones(3))
        np.testing.assert_allclose(x, np.zeros(3), atol=1e-12)
        # mu + mu_h = alpha0 makes the oracle's linear term vanish
        inst = MarketInstance(
            beta=1.0, alpha0=5.0, mu=[1.0, 2.0, 3.0], lower=-1.0, upper=1.0,
            cost=AffineCost(mu_h=[4.0, 3.0, 2.0]),
        )
        np.testing.assert_array_equal(classical_equilibrium(inst), np.zeros(3))


class TestClassicalEquilibrium:
    def test_symmetric_closed_form(self):
        inst = affine_market(5, mu=2.0)
        star = classical_equilibrium(inst)
        np.testing.assert_allclose(star, np.full(5, 8.0 / 0.6), atol=1e-6)
        # KKT residual at the reported point
        g = 2.0 * inst.beta * star + apply_Btilde(inst, star) + inst.mu - inst.alpha0
        r = np.max(np.abs(star - np.clip(star - g, inst.lower, inst.upper)))
        assert r <= 1e-8

    def test_single_firm_active_upper_bound(self):
        inst = affine_market(1, mu=0.0, upper=10.0)
        assert classical_equilibrium(inst)[0] == pytest.approx(10.0, abs=1e-9)

    def test_single_firm_interior(self):
        inst = affine_market(1, mu=9.0, upper=10.0)
        assert classical_equilibrium(inst)[0] == pytest.approx(5.0, abs=1e-9)

    def test_requires_affine_cost(self):
        inst = log_cost_market(3, 0)
        with pytest.raises(TypeError):
            classical_equilibrium(inst)

    def test_cost_level_linear_coefficients_enter_oracle(self):
        # same market expressed with the linear part inside the cost model
        n = 4
        inst_mu = affine_market(n, mu=2.0)
        cost = AffineCost(mu_h=np.full(n, 2.0))
        inst_h = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=50.0, cost=cost)
        np.testing.assert_allclose(
            classical_equilibrium(inst_mu), classical_equilibrium(inst_h), atol=1e-8
        )

    def test_solves_the_market_inequality(self):
        rng = np.random.default_rng(6)
        inst = affine_market(7, mu=rng.uniform(0.0, 5.0, 7))
        star = classical_equilibrium(inst)
        Y = rng.uniform(inst.lower, inst.upper, (10_000, 7))
        assert np.min(phi_bifunction(inst, star, Y)) >= -1e-6

    @pytest.mark.parametrize("n", [7, 1_000, 10_000, 100_000])
    def test_kkt_residual_on_asymmetric_markets(self, n):
        # cond(Q) = n + 1: a first-order method needs O(n) iterations here
        inst = affine_market(n, mu=np.random.default_rng(n).uniform(0.0, 12.0, n))
        star = classical_equilibrium(inst)
        assert inst.contains(star)
        assert oracle_residual(inst, star) <= 1e-10

    def test_unbounded_upper_with_cost_level_coefficients(self):
        # price 10 - 0.1*sigma, unit cost 2: each firm's best response gives x = 80/(n+1)
        inst = MarketInstance(
            beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=np.inf,
            cost=AffineCost(mu_h=np.full(4, 2.0)),
        )
        star = classical_equilibrium(inst)
        np.testing.assert_allclose(star, np.full(4, 16.0), rtol=1e-14)
        assert oracle_residual(inst, star) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
    def test_matches_projected_gradient_reference(self, n):
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
            star = classical_equilibrium(inst)
            assert oracle_residual(inst, star) <= 1e-10
            np.testing.assert_allclose(star, oracle_reference(inst), atol=1e-9)


def lines_run(fn, *args):
    """Call fn(*args); return its result and how often each source line of fn ran."""
    code, ran = fn.__code__, Counter()

    def tracer(frame, event, arg):
        if frame.f_code is code and event == "line":
            ran[frame.f_lineno] += 1
        return tracer

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
        sigma = _aggregate_root(a, k, lower, upper, sigma0, buf)
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
            sigma, ran = lines_run(_aggregate_root, a, k, lower, upper, 0.0, buf)
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
        sigma, ran = lines_run(_aggregate_root, a, 1.0, lower, upper, 1e3, np.empty(n))
        assert ran[line_of(_aggregate_root, "sigma = 0.5 * (lo + hi)")] >= 1
        assert ran[line_of(_aggregate_root, "t = np.subtract(a, k * sigma")] <= 30
        assert sigma == pytest.approx(breakpoint_root(a, 1.0, lower, upper), rel=1e-14)

    def test_rounding_above_the_noise_estimate_ends_by_bracket_collapse(self, monkeypatch):
        # a sum that errs by 64 ulp of its terms' magnitude, with a sign that
        # changes from point to point: F's sign is then unreliable over a range
        # 16 times the stop's estimate, Newton keeps proposing moves above it,
        # and the search ends once the bracket is inside that estimate
        class NoisySum:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sum(x, *args, **kwargs):
                sign = 1.0 if zlib.crc32(np.asarray(x).tobytes()) & 1 else -1.0
                return np.sum(x, *args, **kwargs) + sign * 64.0 * math.ulp(np.sum(np.abs(x)))

        monkeypatch.setattr(cournotprox.subqp, "np", NoisySum())
        rng = np.random.default_rng(5)
        n, k = 20, 0.01
        a = rng.normal(0.0, 10.0, n)
        lower, upper = np.full(n, -50.0), np.full(n, 50.0)
        ref = breakpoint_root(a, k, lower, upper)
        buf = np.empty(n)
        sigma, ran = lines_run(_aggregate_root, a, k, lower, upper, ref + 1e3, buf)
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
