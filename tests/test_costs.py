import numpy as np
import pytest

import cournotprox.subqp
from cournotprox import (
    AffineCost, CostDomainError, CostModel, ExpCost, LogCost, MarketInstance, SolverConfig,
    SolveStatus, Splitting, solve,
)
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market
from cournotprox.model import _cost_term
from oracles import (
    box_bound, cost_curvature, cost_gradient, cost_term, cost_term_curvature, cost_term_slope,
    cost_value, fd_gradient_check,
)


def log_family(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return LogCost(c0=2.0, c=1.5, r=1.0 + rng.random(n), n=n)


def exp_family(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return ExpCost(c0=4.0, c=2.0, r=0.1 + 0.1 * rng.random(n), n=n)


def affine_family(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return AffineCost(mu_h=rng.uniform(0.0, 3.0, n), xi=rng.uniform(0.0, 2.0, n))


class QuadraticCost(CostModel):
    """Custom cost h_i(x) = a[i]*x**2 that implements only the abstract method."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.n = self.a.size

    def value_components(self, x, grad=None, out=None, curv=None):
        x = self._check_points(x)
        if grad is not None:
            np.multiply(2.0 * self.a, x, out=grad)
        if curv is not None:
            curv[...] = 2.0 * self.a
        return np.multiply(self.a, x**2, out=out)


def custom_family(n=6, seed=0):
    return QuadraticCost(np.random.default_rng(seed).uniform(-1.0, 1.0, n))


ALL_FAMILIES = [log_family, exp_family, affine_family]


class TestContract:
    def test_one_method_makes_a_cost_that_solves(self):
        cost = QuadraticCost(np.linspace(0.01, 0.03, 5))
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        assert inst.L_h == 0.06
        for splitting in Splitting:
            res, _ = solve(inst, SolverConfig(splitting=splitting))
            assert res.status is SolveStatus.CONVERGED
            assert inst.contains(res.x)

    def test_newton_trial_skipped_where_the_model_has_no_minimizer(self, monkeypatch):
        # -h'' = -2a: D = beta - 2a <= 0 on the last firm, so every Newton trial
        # on this slow tail is skipped and counts as no trial. D is tested before
        # any pass: a skipped trial writes nothing, its scratch included.
        skipped, untouched = [], []
        newton = cournotprox.subqp._newton_point

        def recording(inst, x, g, curv, out, scratch):
            scratch[0].fill(-7.0)  # spent scratch: the prox step after it rewrites it
            before = curv.tobytes() + out.tobytes()
            y = newton(inst, x, g, curv, out, scratch)
            skipped.append(y is None)
            untouched.append(
                np.all(scratch[0] == -7.0) and curv.tobytes() + out.tobytes() == before
            )
            return y

        monkeypatch.setattr(cournotprox.subqp, "_newton_point", recording)
        cost = QuadraticCost([0.01, 0.02, 0.03, 0.04, 0.06])
        inst = MarketInstance(beta=0.1, alpha0=1.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        res, _ = solve(inst)
        assert res.status is SolveStatus.CONVERGED
        assert res.trials == res.iterations == 25
        assert len(skipped) == 21 and all(skipped) and all(untouched)


class TestLogCost:
    def test_gradient_at_origin(self):
        model = LogCost(c0=2.0, c=1.5, r=2.0, n=3)
        np.testing.assert_allclose(cost_gradient(model, np.zeros(3)), [3.0, 3.0, 3.0])

    def test_gradient_decays_at_large_output(self):
        model = LogCost(c0=2.0, c=1.5, r=2.0, n=2)
        g = cost_gradient(model, np.full(2, 1e9))
        assert np.all(g > 0) and np.all(g < 1e-8)

    def test_curvature_bound_for_reference_parameters(self):
        # c=1.5 with r <= 2 keeps the bound at or below 1.5 * 2^2 = 6
        model = log_family(20, 1)
        assert box_bound(model) <= 6.0
        exact = LogCost(c0=2.0, c=1.5, r=2.0, n=1)
        assert box_bound(exact) == pytest.approx(6.0)

    def test_domain_violation_raises(self):
        model = LogCost(c0=2.0, c=1.5, r=2.0, n=2)
        bad = np.array([0.5, -0.5])  # 1 + 2*(-0.5) = 0
        with pytest.raises(CostDomainError):
            cost_value(model, bad)
        with pytest.raises(CostDomainError):
            cost_gradient(model, bad)
        with pytest.raises(CostDomainError):
            box_bound(model, bad)
        assert box_bound(model, np.zeros(2)) == 6.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogCost(c0=-1.0, c=1.0, r=1.0, n=1)
        with pytest.raises(ValueError):
            LogCost(c0=0.0, c=0.0, r=1.0, n=1)
        with pytest.raises(ValueError):
            LogCost(c0=0.0, c=1.0, r=-1.0, n=1)
        with pytest.raises(ValueError):
            LogCost(c0=0.0, c=1.0, r=1.0)  # all scalars, no n

    @pytest.mark.parametrize(
        "n", [2.5, 2.0, "3", True], ids=["float", "integral_float", "str", "bool"]
    )
    def test_explicit_n_must_be_an_integer(self, n):
        # truncating 2.5 to 2 would build a 2-firm cost under an n = 2.5 label
        for family in (LogCost, ExpCost):
            with pytest.raises(ValueError, match="integer"):
                family(c0=2.0, c=1.0, r=1.0, n=n)
        with pytest.raises(ValueError, match="integer"):
            AffineCost(mu_h=1.0, n=n)
        assert LogCost(c0=2.0, c=1.0, r=1.0, n=np.int64(3)).n == 3


class TestExpCost:
    def test_gradient_at_origin(self):
        model = ExpCost(c0=2.0, c=2.0, r=0.15, n=2)
        np.testing.assert_allclose(cost_gradient(model, np.zeros(2)), [0.3, 0.3])

    def test_gradient_positive_and_decreasing(self):
        model = exp_family(4, 3)
        xs = np.linspace(0.0, 10.0, 50)[:, None] * np.ones(4)
        g = cost_gradient(model, xs)
        assert np.all(g > 0)
        assert np.all(np.diff(g, axis=0) < 0)

    def test_curvature_bound_for_reference_parameters(self):
        # c=2 with r < 0.2 keeps the bound below 2 * 0.2^2 = 0.08
        model = exp_family(50, 5)
        assert box_bound(model) < 0.08

    @pytest.mark.parametrize("n", [1, 100, 10_000])
    def test_stored_negative_rate_keeps_the_bits(self, n):
        # -r is stored once: the value, slope and curvature keep the bits of the
        # formulas that negate r*x and r*h' on every call, negative points included
        model = exp_family(n, n)
        x = np.random.default_rng(n).uniform(-30.0, 30.0, (8, n))
        assert np.any(x < 0.0) and not model._neg_r.flags.writeable
        e = np.exp(-(model.r * x))
        value, slope = model.c0 - model.c * e, model.cr * e
        grad, curv = np.empty_like(x), np.empty_like(x)
        assert model.value_components(x, grad, None, curv).tobytes() == value.tobytes()
        assert grad.tobytes() == slope.tobytes()
        assert curv.tobytes() == (-(model.r * slope)).tobytes()
        assert model.value_components(x).tobytes() == value.tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExpCost(c0=1.0, c=2.0, r=0.1, n=1)  # ceiling below c
        with pytest.raises(ValueError):
            ExpCost(c0=4.0, c=2.0, r=0.0, n=1)


class TestAffineCost:
    def test_values_and_gradient(self):
        model = AffineCost(mu_h=[1.0, 2.0], xi=[0.5, 0.5])
        x = np.array([3.0, 4.0])
        assert cost_value(model, x) == pytest.approx(3.0 + 8.0 + 1.0)
        np.testing.assert_array_equal(cost_gradient(model, x), [1.0, 2.0])
        assert box_bound(model) == 0.0

    def test_offsets_shift_values_only(self):
        base = AffineCost(mu_h=[1.0, 2.0])
        shifted = AffineCost(mu_h=[1.0, 2.0], xi=5.0)
        x = np.array([1.0, 1.0])
        assert cost_value(shifted, x) - cost_value(base, x) == pytest.approx(10.0)
        np.testing.assert_array_equal(cost_gradient(shifted, x), cost_gradient(base, x))


class TestParameters:
    @pytest.mark.parametrize(
        "family, kwargs",
        [
            (LogCost, dict(c0=True, c=True, r=np.array([True, True]))),
            (LogCost, dict(c0=2.0, c=1.0, r=np.array([True, True]))),
            (ExpCost, dict(c0=4.0, c=np.True_, r=0.1, n=2)),
            (AffineCost, dict(mu_h=True, n=2)),
            (AffineCost, dict(mu_h=0.0, xi=np.True_, n=2)),
        ],
        ids=["log_all", "log_r_array", "exp_np_bool", "affine_mu_h", "affine_xi"],
    )
    def test_rejects_booleans(self, family, kwargs):
        with pytest.raises(ValueError, match="must be real numbers, got dtype bool"):
            family(**kwargs)

    def test_scalar_parameters_are_stored_once(self):
        c0 = np.array(2.0)
        model = LogCost(c0=c0, c=1.5, r=[1.0, 2.0, 3.0])
        c0[...] = 0.0  # the caller's array is not the parameter
        for arr in (model.c0, model.c):
            assert (arr.shape, arr.dtype, arr.strides) == ((3,), np.float64, (0,))
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        np.testing.assert_array_equal(model.c0, [2.0, 2.0, 2.0])
        assert model.r.strides == (8,) and not model.r.flags.writeable
        affine = AffineCost(mu_h=0.5, xi=1.0, n=4)
        assert affine.mu_h.strides == affine.xi.strides == (0,)
        np.testing.assert_array_equal(cost_gradient(affine, np.ones((2, 4))), np.full((2, 4), 0.5))


class TestBatchSemantics:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_value_reduces_trailing_axis(self, family):
        model = family()
        X = np.random.default_rng(0).uniform(0, 10, (7, model.n))
        vals = cost_value(model, X)
        assert vals.shape == (7,)
        assert vals[2] == pytest.approx(cost_value(model, X[2]))


class TestValueAndGradient:
    @pytest.mark.parametrize("family", ALL_FAMILIES + [custom_family])
    @pytest.mark.parametrize("shape", [(), (7,)], ids=["point", "batch"])
    def test_matches_value_and_gradient_bitwise(self, family, shape):
        model = family(50, 4)
        x = np.random.default_rng(5).uniform(0.0, 10.0, shape + (model.n,))
        values = model.value_components(x)
        out = np.full_like(x, np.nan)
        assert model.value_components(x, out=out) is out and out.tobytes() == values.tobytes()
        for work in (None, np.full_like(x, np.nan)):
            grad = np.full_like(x, np.nan)
            got = model.value_components(x, grad, work)
            assert work is None or got is work
            assert got.tobytes() == values.tobytes()
            assert grad.tobytes() == cost_gradient(model, x).tobytes()
            assert np.sum(got, axis=-1).tobytes() == np.asarray(cost_value(model, x)).tobytes()

    def test_log_domain_violation_raises(self):
        model = LogCost(c0=2.0, c=1.5, r=2.0, n=2)
        for bad in (np.array([0.5, -0.5]), np.array([0.5, np.nan])):
            with pytest.raises(CostDomainError):
                model.value_components(bad, np.empty(2))


class TestCurvature:
    @pytest.mark.parametrize("family", [log_family, exp_family, custom_family])
    def test_matches_central_difference_of_the_slope(self, family):
        model = family(50, 4)
        x = np.random.default_rng(6).uniform(0.5, 9.5, (20, model.n))
        step = 1e-5
        fd = (cost_gradient(model, x + step) - cost_gradient(model, x - step)) / (2.0 * step)
        np.testing.assert_allclose(cost_curvature(model, x), fd, rtol=1e-6)

    def test_affine_writes_zero(self):
        curv = np.full(6, np.nan)
        affine_family().value_components(np.linspace(0.0, 5.0, 6), np.empty(6), None, curv)
        assert np.all(curv == 0.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_asking_for_it_keeps_the_value_and_slope_bits(self, family):
        model = family(50, 4)
        x = np.random.default_rng(7).uniform(0.0, 10.0, model.n)
        grad, plain_grad = np.empty(model.n), np.empty(model.n)
        values = model.value_components(x, grad, None, np.empty(model.n))
        assert values.tobytes() == model.value_components(x, plain_grad).tobytes()
        assert grad.tobytes() == plain_grad.tobytes()

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market, affine_market])
    def test_shipped_families_are_in_the_stated_class(self, make):
        # CostModel's class, for which nash_gap and gamma_lower_bound are certified:
        # each h_i'' monotone on the box, so its differences along the box have one sign
        inst = make(20)
        t = inst.lower + np.linspace(0.0, 1.0, 10_001)[:, None] * (inst.upper - inst.lower)
        curv = cost_curvature(inst.cost, t)
        steps = np.diff(curv, axis=0)
        assert np.all(np.all(steps >= 0.0, axis=0) | np.all(steps <= 0.0, axis=0))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cost_term_signs_it_with_the_slope(self, family):
        cost = family(8, 2)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        x = np.linspace(0.0, 10.0, 8)
        slope, curv = np.empty(8), np.empty(8)
        terms = _cost_term(inst, x, slope, None, curv)
        # the library's sign, model._cost_term's, against the tests' one, oracles.SIGN
        np.testing.assert_array_equal(terms, cost_term(cost, x))
        np.testing.assert_array_equal(slope, cost_term_slope(cost, x))
        np.testing.assert_array_equal(curv, cost_term_curvature(cost, x))


class TestGradientChecks:
    def test_affine_exact_up_to_rounding(self):
        # the per-component derivative is exact; only summation rounding remains
        model = affine_family()
        x = np.random.default_rng(2).uniform(0, 10, model.n)
        assert fd_gradient_check(model, x, 1e-5) <= 1e-8

    @pytest.mark.parametrize("family", [log_family, exp_family])
    def test_smooth_families_match_finite_differences(self, family):
        model = family(8, 7)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.0, 10.0, 8)
            assert fd_gradient_check(model, x, 1e-5) <= 1e-6

    def test_step_validation(self):
        with pytest.raises(ValueError):
            fd_gradient_check(affine_family(), np.zeros(6), 0.0)

    def test_domain_violation_at_perturbed_point(self):
        model = LogCost(c0=2.0, c=1.5, r=2.0, n=1)
        with pytest.raises(CostDomainError):
            fd_gradient_check(model, np.array([-0.4999999]), 1e-3)


class TestAnalyticProperties:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_empirical_gradient_lipschitz(self, family):
        model = family(10, 11)
        L = box_bound(model, 0.0, 10.0)
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 10, (1000, model.n))
        Y = rng.uniform(0, 10, (1000, model.n))
        lhs = np.linalg.norm(cost_gradient(model, X) - cost_gradient(model, Y), axis=1)
        rhs = L * np.linalg.norm(X - Y, axis=1)
        assert np.all(lhs <= rhs)

    @pytest.mark.parametrize("family", [log_family, exp_family])
    def test_box_bound_below_zero_is_attained_at_the_lower_side(self, family):
        # the orthant bound c*r^2 fails below 0; the box bound holds on a grid
        # above the lower sides and is the curvature at one of them
        model = family(10, 14)
        lower = np.linspace(-0.3, 0.0, 10)
        L = box_bound(model, lower)
        assert L > box_bound(model)
        t = lower + np.linspace(0.0, 5.0, 2001)[:, None]
        curvature = np.abs(np.gradient(cost_gradient(model, t), t[:, 0], axis=0))
        assert np.max(curvature) <= L
        at_lower = np.abs(model.c * model.r**2 / (1.0 + model.r * lower) ** 2)
        if family is exp_family:
            at_lower = model.c * model.r**2 * np.exp(-model.r * lower)
        assert L == pytest.approx(np.max(at_lower), rel=1e-14)

    @pytest.mark.parametrize("make, at_one", [
        (log_cost_market, lambda cost: cost.c * cost.r**2 / (1.0 + cost.r) ** 2),
        (exp_cost_market, lambda cost: cost.c * cost.r**2 * np.exp(-cost.r)),
    ], ids=["log", "exp"])
    def test_box_bound_above_zero_is_taken_at_the_lower_side(self, make, at_one):
        # a box above 0 gets its own bound, not the orthant's c*r^2: on [1, 10]
        # the curvature is largest at x = 1, and the fixed step damps by it
        inst = make(100, 0, lower=1.0)
        cost = inst.cost
        assert inst.L_h == pytest.approx(np.max(at_one(cost)), rel=1e-15)
        assert inst.L_h < box_bound(cost)  # the orthant's bound: log 5.98, here 0.666
        res, trace = solve(inst, SolverConfig(eps=1e-8))
        assert res.status is SolveStatus.CONVERGED
        assert np.all(trace.c == 1.0 / inst.L_h)

    def test_a_box_without_a_bound_is_refused(self):
        with pytest.raises(ValueError, match="curvature"):
            box_bound(exp_family(3), np.array([0.0, -np.inf, 1.0]))
        # below the log domain, 1 + r*x <= 0, there is no bound either
        with pytest.raises(CostDomainError):
            box_bound(LogCost(c0=2.0, c=1.5, r=2.0, n=1), np.array([-0.5]))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_linearization_error_bounded_by_curvature(self, family):
        model = family(10, 12)
        L = box_bound(model, 0.0, 10.0)
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 10, (500, model.n))
        Y = rng.uniform(0, 10, (500, model.n))
        lin = cost_value(model, X) + np.sum(cost_gradient(model, X) * (Y - X), axis=1)
        err = np.abs(cost_value(model, Y) - lin)
        bound = 0.5 * L * np.sum((Y - X) ** 2, axis=1)
        assert np.all(err <= bound + 1e-9)

    @pytest.mark.parametrize("family", [log_family, exp_family])
    def test_midpoint_concavity(self, family):
        model = family(10, 13)
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 10, (500, model.n))
        Y = rng.uniform(0, 10, (500, model.n))
        mid = cost_value(model, 0.5 * (X + Y))
        assert np.all(mid >= 0.5 * cost_value(model, X) + 0.5 * cost_value(model, Y) - 1e-12)
