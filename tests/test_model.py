import dataclasses
import warnings

import numpy as np
import pytest

from cournotprox import (
    AffineCost,
    CostModel,
    ExpCost,
    LogCost,
    MarketInstance,
    SolverConfig,
    Splitting,
    StepPolicy,
    eps_certificate,
    gamma_lower_bound,
    nash_gap,
    potential_gamma,
    prox_step,
    solve,
)
from cournotprox import model
from cournotprox.experiments import exp_cost_market, log_cost_market
from cournotprox.subqp import _aggregate_root
import oracles
from oracles import (
    affine_equilibrium,
    apply_Btilde,
    apply_Q,
    cost_term_curvature,
    cost_term_slope,
    cost_term_total,
    dphi_directional,
    exact_coupling_step,
    grad_gamma,
    library_cost_term,
    lipschitz_gamma,
    phi_bifunction,
    potential_reference,
)
from test_diagnostics import SinCost
from test_subqp import line_of, lines_run


def zero_cost_instance(n, beta=0.1, alpha0=10.0, lower=0.0, upper=10.0, mu=0.0):
    return MarketInstance(
        beta=beta, alpha0=alpha0, mu=mu, lower=lower, upper=upper,
        cost=AffineCost(mu_h=np.zeros(n)),
    )


def affine_cost_market(n, seed):
    mu_h = np.random.default_rng(seed).uniform(0.5, 3.0, n)
    return MarketInstance(
        beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=AffineCost(mu_h=mu_h, xi=1.5)
    )


class CountingCost(CostModel):
    """A cost that forwards to another and records each point its curvature is asked at."""

    def __init__(self, inner):
        self.inner, self.n, self.curvature_points = inner, inner.n, []

    def value_components(self, x, grad=None, out=None, curv=None):
        if curv is not None:
            self.curvature_points.append(np.array(x, dtype=float))
        return self.inner.value_components(x, grad, out, curv)


class RootCost(CostModel):
    """h_i(x) = 2*sqrt(1 + s*x), defined where s*x > -1; sign s = 1 by default.

    |h_i''| = 0.5*(1 + s*x)**-1.5 grows toward the domain's edge: below -1
    for s = 1, above 1 for s = -1, where h'' reads NaN.
    """

    def __init__(self, n, sign=1.0):
        self.n, self.sign = n, sign

    def value_components(self, x, grad=None, out=None, curv=None):
        root = np.sqrt(1.0 + self.sign * self._check_points(x))
        if grad is not None:
            np.divide(self.sign, root, out=grad)
        if curv is not None:
            np.multiply(-0.5, (1.0 / root) ** 3, out=curv)
        return np.multiply(2.0, root, out=out)


def dense_btilde(inst):
    n = inst.n
    return inst.beta * (np.ones((n, n)) - np.eye(n))


def dense_q(inst):
    n = inst.n
    return 2.0 * inst.beta * np.eye(n) + dense_btilde(inst)


class TestOperators:
    # the reference operators in oracles.py, which later tests rely on
    def test_own_output_operator(self):
        # the own-output curvature 2*beta*x is what Q keeps beyond the coupling
        inst = zero_cost_instance(2)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(apply_Q(inst, x) - apply_Btilde(inst, x), [0.2, 0.4])

    def test_own_output_operator_single_firm(self):
        inst = zero_cost_instance(1, beta=0.5)
        np.testing.assert_allclose(apply_Q(inst, [3.0]) - apply_Btilde(inst, [3.0]), [3.0])

    def test_operators_vanish_at_zero(self):
        inst = zero_cost_instance(4)
        np.testing.assert_array_equal(apply_Q(inst, np.zeros(4)), np.zeros(4))
        np.testing.assert_array_equal(apply_Btilde(inst, np.zeros(4)), np.zeros(4))

    def test_coupling_operator(self):
        inst = zero_cost_instance(3)
        np.testing.assert_allclose(apply_Btilde(inst, [1.0, 2.0, 3.0]), [0.5, 0.4, 0.3])

    def test_coupling_vanishes_for_single_firm(self):
        inst = zero_cost_instance(1)
        np.testing.assert_array_equal(apply_Btilde(inst, [7.0]), [0.0])

    def test_coupling_swaps_pair(self):
        inst = zero_cost_instance(2, beta=1.0)
        np.testing.assert_allclose(apply_Btilde(inst, [1.0, 1.0]), [1.0, 1.0])

    def test_matches_dense_matrix_product(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 17, 50):
            inst = zero_cost_instance(n, beta=0.3)
            x = rng.uniform(-4.0, 9.0, n)
            np.testing.assert_allclose(apply_Btilde(inst, x), dense_btilde(inst) @ x, atol=1e-12)
            np.testing.assert_allclose(apply_Q(inst, x), dense_q(inst) @ x, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        inst = zero_cost_instance(3)
        with pytest.raises(ValueError):
            potential_gamma(inst, [1.0, 2.0])
        with pytest.raises(ValueError):
            potential_gamma(inst, np.ones(4))

    def test_batched_evaluation(self):
        inst = zero_cost_instance(3)
        X = np.arange(12.0).reshape(4, 3)
        rows = np.stack([apply_Btilde(inst, x) for x in X])
        np.testing.assert_allclose(apply_Btilde(inst, X), rows)


class TestSpectrum:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_combined_operator_extreme_eigenvalues(self, n):
        inst = zero_cost_instance(n, beta=0.4)
        eigs = np.linalg.eigvalsh(dense_q(inst))
        assert eigs[0] == pytest.approx(inst.beta, abs=1e-12)
        assert eigs[-1] == pytest.approx(inst.beta * (n + 1), abs=1e-12)

    def test_combined_operator_single_firm_eigenvalue(self):
        # with one firm the coupling vanishes and 2*beta = beta*(n+1) is the
        # only eigenvalue
        inst = zero_cost_instance(1, beta=0.4)
        eigs = np.linalg.eigvalsh(dense_q(inst))
        assert eigs[0] == eigs[-1] == pytest.approx(2 * inst.beta, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_coupling_norm_matches_power_iteration(self, n):
        inst = zero_cost_instance(n, beta=0.25)
        M = dense_btilde(inst)
        # power iteration on M@M (PSD) converges for every n, including the
        # degenerate +/-beta spectrum at n=2
        v = np.full(n, 1.0) + 1e-3 * np.arange(n)
        v /= np.linalg.norm(v)
        MM = M @ M
        for _ in range(400):
            w = MM @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
        est = float(np.sqrt(v @ (MM @ v)))
        # with zero cost curvature, L_gamma is the coupling norm alone
        assert abs(est - lipschitz_gamma(inst)) <= 1e-8


class TestPotential:
    def test_value_at_zero_is_the_cost_term(self):
        inst = log_cost_market(6, 3)
        assert potential_gamma(inst, np.zeros(6)) == pytest.approx(
            float(cost_term_total(inst.cost, np.zeros(6))), abs=1e-12
        )

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market, affine_cost_market])
    def test_fused_call_keeps_the_bits_and_leaves_the_cost_gradient(self, make):
        # with and without buffers, on one point and on a batch, the bits of the
        # summed cost kernel; the buffer receives the cost term's slope, SIGN*h'(x)
        inst = make(9, 4)
        for shape in ((9,), (3, 9)):
            x = np.random.default_rng(6).uniform(0.0, 10.0, shape)
            want = np.asarray(potential_reference(inst, x)).tobytes()
            assert np.asarray(potential_gamma(inst, x)).tobytes() == want
            for work in (None, np.empty(shape)):
                grad = np.full(shape, np.nan)
                assert np.asarray(potential_gamma(inst, x, grad, work)).tobytes() == want
                assert grad.tobytes() == cost_term_slope(inst.cost, x).tobytes()

    @pytest.mark.parametrize("n", [1, 9, 1000, 100_000])
    def test_a_point_squares_by_one_dot(self, n):
        # one point takes |y|^2 from y @ y, the dot that subqp's kept quadratics read;
        # on a box around 0, sigma^2 does not swamp |y|^2, where summed squares round otherwise
        rng = np.random.default_rng(n)
        for inst in (log_cost_market(n, 2), exp_cost_market(n, 2, lower=-10.0)):
            for _ in range(10):
                y = rng.uniform(inst.lower, inst.upper)
                sigma = np.add.reduce(y)
                cost = np.add.reduce(model._cost_term(inst, y))
                want = 0.5 * inst.beta * (y @ y + sigma**2) - y @ inst.alpha_tilde + cost
                assert float(potential_gamma(inst, y)).hex() == float(want).hex()

    def test_single_firm_closed_form(self):
        inst = zero_cost_instance(1)
        # beta*x^2 - alpha_tilde*x at x=10
        assert potential_gamma(inst, [10.0]) == pytest.approx(-90.0, abs=1e-12)

    def test_difference_antisymmetry(self):
        inst = exp_cost_market(5, 11)
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 10, 5), rng.uniform(0, 10, 5)
        d1 = potential_gamma(inst, x) - potential_gamma(inst, y)
        d2 = potential_gamma(inst, y) - potential_gamma(inst, x)
        assert d1 == pytest.approx(-d2, abs=1e-12)

    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_gradient_matches_finite_differences(self, make):
        inst = make(8, 21)
        rng = np.random.default_rng(5)
        step = 1e-5
        shifts = step * np.eye(8)
        for _ in range(100):
            x = rng.uniform(0.5, 9.5, 8)
            fd = (potential_gamma(inst, x + shifts) - potential_gamma(inst, x - shifts)) / (2 * step)
            g = grad_gamma(inst, x)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)

    def test_gradient_is_dense_product_form(self):
        inst = log_cost_market(7, 2)
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 10, 7)
        expected = dense_q(inst) @ x - inst.alpha_tilde + cost_term_slope(inst.cost, x)
        np.testing.assert_allclose(grad_gamma(inst, x), expected, atol=1e-12)


def check_the_papers_sign():
    """Every answer on 4 firms with AffineCost(mu_h=2) follows the paper's potential, +h.

    The oracles must read the paper's sign, ``oracles.SIGN == 1``. The
    equilibrium is (alpha0 - mu_h)/(beta*(n + 1)) = 19.6 per firm, the
    answer of ``oracles.affine_equilibrium``; the shipped -h model solves
    to 20.4.
    """
    assert oracles.SIGN == 1.0
    x = np.array([1.0, 2.0, 3.0, 4.0])
    for upper in (np.inf, 50.0):
        inst = MarketInstance(beta=1.0, alpha0=100.0, mu=0.0, lower=0.0, upper=upper,
                              cost=AffineCost(mu_h=2.0, n=4))
        star = affine_equilibrium(inst)
        np.testing.assert_allclose(star, 19.6, rtol=1e-14)
        assert potential_gamma(inst, x) == pytest.approx(potential_reference(inst, x), rel=1e-14)
        for splitting in Splitting:
            # a fixed point of the step: reaches prox_step's own cost call
            assert eps_certificate(inst, star, 1.0, splitting) <= 1e-12
            for policy in StepPolicy:
                cfg = SolverConfig(step_policy=policy, splitting=splitting, eps=1e-12)
                res, _ = solve(inst, cfg)
                np.testing.assert_allclose(res.x, star, rtol=1e-12)
                if upper < np.inf:
                    assert nash_gap(inst, res.x)[0] == 0.0
                    assert gamma_lower_bound(inst) <= res.gamma_final
    # each firm's bound profile -alpha_tilde*t + h(t) = -98*t is least at t = 50
    assert gamma_lower_bound(inst) == pytest.approx(-4 * 98.0 * 50.0, rel=1e-14)


class TestCostSign:
    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["minus_h", "plus_h"])
    def test_the_sign_is_written_in_one_function(self, sign, monkeypatch):
        # one function on each side writes the sign, model._cost_term in the library and
        # oracles.SIGN in the tests: flipped together, the library gives the paper's
        # answers and every oracle still agrees with it
        monkeypatch.setattr(model, "_cost_term", library_cost_term(sign))
        monkeypatch.setattr(oracles, "SIGN", sign)
        if sign == 1.0:
            check_the_papers_sign()
        # the exp family is strongly convex under either sign
        inst = exp_cost_market(9, 4)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.uniform(inst.lower, inst.upper)
            want = float(potential_reference(inst, x)).hex()
            assert float(potential_gamma(inst, x)).hex() == want
            for c in (0.05, 1.0, np.inf):
                np.testing.assert_allclose(
                    prox_step(inst, x, c), exact_coupling_step(inst, x, c), rtol=1e-12, atol=1e-12
                )
        inst = MarketInstance(beta=1.0, alpha0=100.0, mu=0.0, lower=0.0, upper=np.inf,
                              cost=AffineCost(mu_h=2.0, n=4))
        star = affine_equilibrium(inst)
        np.testing.assert_allclose(star, (100.0 - sign * 2.0) / 5.0, rtol=1e-14)
        # the library's affine oracle, the default step at c = inf
        np.testing.assert_allclose(prox_step(inst, inst.center(), np.inf), star, rtol=1e-14)
        res, _ = solve(inst, SolverConfig(eps=1e-12))
        np.testing.assert_allclose(res.x, star, rtol=1e-12)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1 step 3: the library still writes -h")
    def test_the_library_solves_the_papers_model(self, monkeypatch):
        monkeypatch.setattr(oracles, "SIGN", 1.0)
        check_the_papers_sign()


class TestBifunctions:
    def test_phi_vanishes_on_diagonal(self):
        inst = log_cost_market(5, 4)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(0, 10, 5)
            assert phi_bifunction(inst, x, x) == 0.0

    def test_phi_affine_single_firm_value(self):
        inst = zero_cost_instance(1)
        # (0 - 10)*(10 - 0) + 0.1*100 - 0 = -90
        assert phi_bifunction(inst, [0.0], [10.0]) == pytest.approx(-90.0, abs=1e-12)


class TestDirectionalSlope:
    def test_zero_direction(self):
        inst = log_cost_market(3, 6)
        assert dphi_directional(inst, [1.0, 2.0, 3.0], np.zeros(3)) == 0.0

    def test_positive_homogeneity(self):
        inst = exp_cost_market(4, 9)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 10, 4)
        d = rng.standard_normal(4)
        for t in (0.0, 0.5, 2.0, 7.0):
            assert dphi_directional(inst, x, t * d) == pytest.approx(
                t * dphi_directional(inst, x, d), rel=1e-12, abs=1e-12
            )

    def test_boundary_stationarity_certified_by_sign(self):
        cost = LogCost(c0=2.0, c=1.5, r=2.0, n=1)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        val = dphi_directional(inst, [10.0], [-1.0])
        # minus the potential's slope 2*beta*x - alpha_tilde + SIGN*h'(x), h'(10) = 3/21
        assert val == pytest.approx(-(0.2 * 10.0 - 10.0 + oracles.SIGN * 3.0 / 21.0), rel=1e-12)
        assert val > 0  # moving into the box only increases the potential
        # brute-force grid oracle: the potential is minimized at the upper bound
        ts = np.linspace(0.0, 10.0, 100_001)
        vals = potential_gamma(inst, ts[:, None])
        assert np.argmin(vals) == ts.size - 1


class TestInstanceValidation:
    def test_rejects_bad_scalars(self):
        cost = AffineCost(mu_h=np.zeros(2))
        with pytest.raises(ValueError):
            MarketInstance(beta=0.0, alpha0=1.0, mu=0.0, lower=0.0, upper=1.0, cost=cost)
        with pytest.raises(ValueError):
            MarketInstance(beta=1.0, alpha0=-1.0, mu=0.0, lower=0.0, upper=1.0, cost=cost)

    @pytest.mark.parametrize(
        "beta, alpha0",
        [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)],
        ids=["beta_inf", "beta_nan", "alpha0_inf", "alpha0_nan"],
    )
    def test_rejects_non_finite_scalars(self, beta, alpha0):
        cost = AffineCost(mu_h=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            MarketInstance(beta=beta, alpha0=alpha0, mu=0.0, lower=0.0, upper=1.0, cost=cost)

    @pytest.mark.parametrize(
        "beta, alpha0", [(True, 1.0), (1.0, True), (np.True_, 1.0)], ids=["beta", "alpha0", "np_bool"]
    )
    def test_rejects_boolean_scalars(self, beta, alpha0):
        # float(True) is 1.0, but True is no demand slope or intercept
        cost = AffineCost(mu_h=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            MarketInstance(beta=beta, alpha0=alpha0, mu=0.0, lower=0.0, upper=1.0, cost=cost)

    @pytest.mark.parametrize("shape", ["scalar", "vector"])
    def test_rejects_bad_vectors(self, shape):
        # a scalar is stored as a stride-0 view whose one number the checks read;
        # a vector is checked cell by cell: the messages are the same
        cost = AffineCost(mu_h=np.zeros(3))

        def given(value):
            return value if shape == "scalar" else [0.0, value, 0.0]

        def market(mu=0.0, lower=0.0, upper=1.0):
            return MarketInstance(beta=1.0, alpha0=1.0, mu=mu, lower=lower, upper=upper, cost=cost)

        with pytest.raises(ValueError, match="^mu must be nonnegative$"):
            market(mu=given(-1.0))
        for box in (dict(lower=given(2.0)), dict(upper=given(-1.0))):
            with pytest.raises(ValueError, match="^empty box: lower > upper somewhere$"):
                market(**box)
        with pytest.raises(ValueError, match="length-3"):
            market(mu=np.zeros(4))

    @pytest.mark.parametrize("shape", ["scalar", "vector"])
    def test_non_finite_parameters_name_themselves(self, shape):
        # a scalar is checked once before it is broadcast, a vector cell by cell:
        # the messages are the same
        cost = AffineCost(mu_h=np.zeros(3))

        def given(value):
            return value if shape == "scalar" else [0.0, value, 0.0]

        with pytest.raises(ValueError, match="^mu must be finite$"):
            MarketInstance(beta=1.0, alpha0=1.0, mu=given(np.inf), lower=0.0, upper=1.0, cost=cost)
        with pytest.raises(ValueError, match="^lower must not contain NaN$"):
            MarketInstance(beta=1.0, alpha0=1.0, mu=0.0, lower=given(np.nan), upper=1.0, cost=cost)

    def test_a_negative_lower_side_is_noted_once(self):
        # the aggregate root's rounding estimate reads this flag instead of
        # reducing the lower sides on every pass
        cost = AffineCost(mu_h=np.zeros(3))

        def signed(lower):
            return MarketInstance(beta=1.0, alpha0=1.0, mu=0.0, lower=lower, upper=1.0, cost=cost)._signed

        assert not signed(0.0) and not signed([0.0, 0.5, 0.0])
        assert signed(-1.0) and signed([0.0, -np.inf, 0.0])

    def test_an_infinite_side_is_noted_once(self):
        cost = AffineCost(mu_h=np.zeros(3))

        def bounded(lower, upper):
            return MarketInstance(beta=1.0, alpha0=1.0, mu=0.0, lower=lower, upper=upper, cost=cost)._bounded

        assert bounded(0.0, 1.0) and bounded([0.0, -1.0, 0.0], [1.0, 2.0, 1.0])
        assert not bounded(-np.inf, 1.0) and not bounded([0.0, -np.inf, 0.0], 1.0)
        assert not bounded(0.0, np.inf) and not bounded(0.0, [1.0, np.inf, 1.0])

    @pytest.mark.parametrize("side", [np.inf, -np.inf], ids=["plus_inf", "minus_inf"])
    def test_rejects_box_side_at_the_wrong_infinity(self, side):
        # lower = upper = +inf (or -inf) is not an empty box, but no point lies in it
        cost = AffineCost(mu_h=np.zeros(3))
        for lower, upper in ((side, side), ([0.0, side, 0.0], [1.0, side, 1.0])):
            with pytest.raises(ValueError, match=r"^lower must be below \+inf and upper above -inf$"):
                MarketInstance(beta=1.0, alpha0=1.0, mu=0.0, lower=lower, upper=upper, cost=cost)

    def test_rejects_box_outside_cost_domain(self):
        cost = LogCost(c0=0.0, c=1.0, r=2.0, n=1)
        with pytest.raises(ValueError):
            MarketInstance(beta=1.0, alpha0=1.0, mu=0.0, lower=-1.0, upper=1.0, cost=cost)

    def test_one_infinite_lower_side_is_checked_against_the_cost_domain(self):
        # one -inf side among finite ones must not switch the domain check off
        cost = LogCost(c0=2.0, c=1.5, r=1.5, n=3)
        for lower in (-np.inf, [0.0, -np.inf, 0.0]):
            with pytest.raises(ValueError, match="cost domain"):
                MarketInstance(beta=0.1, alpha0=0.0, mu=5.0, lower=lower, upper=10.0, cost=cost)
        # a cost defined on the whole line takes negative sides, but its curvature
        # grows without bound below 0, so no damping suits an unbounded side; at
        # -1e4 the bound's exp overflows to inf, the right answer, with no warning
        exp = ExpCost(c0=4.0, c=2.0, r=0.1, n=3)
        MarketInstance(beta=0.1, alpha0=0.0, mu=5.0, lower=-5.0, upper=10.0, cost=exp)
        for lower in (-np.inf, -1e4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="curvature"):
                    MarketInstance(beta=0.1, alpha0=0.0, mu=5.0, lower=lower, upper=10.0, cost=exp)

    def test_a_box_that_leaves_the_domain_above_is_refused(self):
        # 2*sqrt(1 - x) on [0, 2]: the lower side is inside the domain, the upper
        # side is not, and the bound read at both ends sees it
        cost = RootCost(3, sign=-1.0)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=0.75, cost=cost)
        assert inst.L_h == 4.0
        with pytest.raises(ValueError, match="cost domain"):
            MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=2.0, cost=cost)

    def test_a_nan_curvature_at_the_upper_side_alone_is_refused(self):
        # sin's curvature is finite at pi/2 and NaN at +inf: one NaN end refuses the box
        cost = SinCost(1.5, 3)
        assert MarketInstance(beta=0.1, alpha0=2.0, mu=0.0, lower=0.5 * np.pi,
                              upper=1.5 * np.pi, cost=cost).L_h == 1.5
        with pytest.raises(ValueError, match="cost domain"):
            MarketInstance(beta=0.1, alpha0=2.0, mu=0.0, lower=0.5 * np.pi, upper=np.inf, cost=cost)

    def test_a_custom_costs_domain_is_checked_through_its_bound(self):
        # the one curvature test also rejects a box that leaves the cost's domain
        cost = RootCost(3)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=-0.75, upper=10.0, cost=cost)
        assert inst.L_h == 4.0
        for lower in (-1.0, [0.0, -2.0, 0.0]):
            with pytest.raises(ValueError, match="cost domain"):
                MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=lower, upper=10.0, cost=cost)

    @pytest.mark.parametrize(
        "make",
        [lambda: log_cost_market(4), lambda: log_cost_market(4).cost,
         lambda: exp_cost_market(4).cost, lambda: affine_cost_market(4, 0).cost],
        ids=["MarketInstance", "LogCost", "ExpCost", "AffineCost"],
    )
    def test_instances_compare_and_hash_by_identity(self, make):
        # comparing the array fields field by field would raise on two equal-valued copies
        a = make()
        b = dataclasses.replace(a)
        assert (a == b) is False and a != b
        assert a == a
        assert {a, a, b} == {a, b} and len({a, b}) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lower": False, "upper": True, "mu": False},
            {"upper": np.True_},
            {"mu": np.array([False, True])},
        ],
        ids=["box_and_mu", "np_bool_side", "bool_array_mu"],
    )
    def test_rejects_boolean_parameters(self, kwargs):
        # float(True) is 1.0, but [False, True] is no box
        spec = {"beta": 1.0, "alpha0": 1.0, "mu": 0.0, "lower": 0.0, "upper": 1.0, **kwargs}
        with pytest.raises(ValueError, match="must be real numbers, got dtype bool"):
            MarketInstance(cost=AffineCost(mu_h=0.0, n=2), **spec)

    def test_scalar_parameters_are_stored_once(self):
        inst = zero_cost_instance(5, lower=0.0, upper=10.0, mu=1.5)
        for name in ("mu", "lower", "upper"):
            arr = getattr(inst, name)
            assert (arr.shape, arr.dtype, arr.strides) == ((5,), np.float64, (0,))
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[2] = 0.0
        # the potential reads alpha_tilde through a dot product: it stays dense
        assert inst.alpha_tilde.strides == (8,) and inst.alpha_tilde.flags.c_contiguous
        np.testing.assert_array_equal(inst.alpha_tilde, np.full(5, 8.5))
        vector = zero_cost_instance(5, upper=np.full(5, 10.0))
        assert vector.upper.strides == (8,) and not vector.upper.flags.writeable

    def test_a_callers_scalar_array_is_copied(self):
        side, mu = np.array(10.0), np.array(1.0)
        inst = zero_cost_instance(3, upper=side, mu=mu)
        side[...], mu[...] = 0.5, 4.0
        np.testing.assert_array_equal(inst.upper, [10.0, 10.0, 10.0])
        np.testing.assert_array_equal(inst.mu, [1.0, 1.0, 1.0])

    def test_instance_arrays_are_readonly(self):
        inst = zero_cost_instance(3)
        with pytest.raises(ValueError):
            inst.lower[0] = -1.0
        with pytest.raises(ValueError):
            inst.alpha_tilde[0] = 0.0

    def test_center_falls_back_without_warnings(self):
        lower = [-np.inf, 0.0, -np.inf, 1.0]
        upper = [np.inf, np.inf, 3.0, 2.0]
        inst = zero_cost_instance(4, lower=lower, upper=upper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            center = inst.center()
        np.testing.assert_array_equal(center, [0.0, 0.0, 3.0, 1.5])

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([0.0, -2.5, 1e-300, 7.0], [10.0, 3.25, 3e-300, 7.0]),
            ([-np.inf, 0.0, -np.inf, 1.0], [np.inf, np.inf, 3.0, 2.0]),
            (-np.inf, np.inf),
            ([1e308, -1e308, -1e308, 1e308], [1.5e308, -1e308, 1e308, 1e308]),
            ([-1e308, -1.7e308, -np.inf, 1e308], [1e308, -1e308, -1e308, np.inf]),
        ],
        ids=["finite", "half_infinite", "whole_line", "overflowing", "overflowing_half_infinite"],
    )
    def test_center_keeps_the_clipped_midpoint_bits(self, lower, upper):
        inst = zero_cost_instance(4, lower=lower, upper=upper)
        lo, up = inst.lower, inst.upper
        lo_f = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
        up_f = np.where(np.isfinite(up), up, lo_f)
        with np.errstate(over="ignore"):  # 1e308 + 1e308 overflows on both sides
            total = lo_f + up_f
        # where the sum overflows, halving each side first gives the midpoint
        want = np.clip(np.where(np.isfinite(total), 0.5 * total, 0.5 * lo_f + 0.5 * up_f), lo, up)
        got = inst.center()
        assert got.tobytes() == want.tobytes()
        assert inst.contains(got)

    def test_center_of_huge_sides_is_the_midpoint(self):
        inst = zero_cost_instance(2, lower=1e308, upper=[1.5e308, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            center = inst.center()
        np.testing.assert_array_equal(center, [1.25e308, 1e308])

    def test_lipschitz_constant_combines_cost_and_coupling(self):
        inst = log_cost_market(10, 0)
        cost = inst.cost
        assert lipschitz_gamma(inst) == pytest.approx(np.max(cost.c * cost.r**2) + 0.9, rel=1e-12)

    def test_curvature_bound_is_computed_once_per_instance(self):
        # construction reads L_h from h'' at the box's two ends, to reject an unbounded
        # box, and stores it; its readers (the solver, the certificate, L_gamma) take it
        cost = CountingCost(LogCost(c0=2.0, c=1.5, r=np.linspace(1.0, 2.0, 20)))
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        ends = cost.curvature_points
        assert len(ends) == 2
        assert ends[0].tobytes() == inst.lower.tobytes() and ends[1].tobytes() == inst.upper.tobytes()
        assert inst.L_h == np.max(np.abs(cost_term_curvature(cost.inner, inst.lower)))
        assert lipschitz_gamma(inst) == inst.L_h + 19 * inst.beta


class TestClamp:
    """The one box clamp, of project, center, the PAPER step and the aggregate root:
    a clip on stride-0 sides, the ufunc pair on dense ones."""

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
        # bit for bit, NaN and infinite entries included, into a buffer, in place and new
        rng = np.random.default_rng(27)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            t = rng.normal(0.0, 10.0, n)
            t[rng.random(n) < 0.1] = np.nan
            t[rng.random(n) < 0.05] = np.inf
            t[rng.random(n) < 0.05] = -np.inf
            for lower, upper in self.boxes(rng, n):
                want = np.minimum(np.maximum(t, lower), upper).tobytes()
                assert model._clamp(t, lower, upper, np.empty(n)).tobytes() == want
                assert model._clamp(t, lower, upper).tobytes() == want
                inplace = t.copy()
                assert model._clamp(inplace, lower, upper, inplace) is inplace
                assert inplace.tobytes() == want

    def test_a_zero_on_a_zero_side_may_differ_in_sign_only(self):
        # the clip keeps t's zero where the ufuncs order -0.0 below 0.0
        t = np.array([-0.0, 0.0, -0.0, 0.0])
        flat = lambda v: np.broadcast_to(np.asarray(v), (4,))
        for lo, hi in ((0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)):
            got = model._clamp(t, flat(lo), flat(hi), np.empty(4))
            np.testing.assert_array_equal(got, np.minimum(np.maximum(t, lo), hi))

    @pytest.mark.parametrize(
        "lower, upper",
        [(-1.0, 2.0), (0.0, np.inf), (-np.inf, np.inf), ("dense", "dense"), ("dense", np.inf),
         ("dense_infinite", "dense_infinite")],
        ids=["stride0", "stride0_half_infinite", "stride0_whole_line", "dense",
             "dense_and_stride0_infinite", "dense_infinite"],
    )
    def test_project_is_np_clip_up_to_a_zeros_sign(self, lower, upper):
        n = 200
        rng = np.random.default_rng(5)
        sides = {"dense": (-rng.exponential(1.0, n), rng.exponential(1.0, n))}
        sides["dense_infinite"] = tuple(np.where(rng.random(n) < 0.3, s * np.inf, s)
                                        for s in sides["dense"])
        lower = sides[lower][0] if isinstance(lower, str) else lower
        upper = sides[upper][1] if isinstance(upper, str) else upper
        inst = zero_cost_instance(n, lower=lower, upper=upper)
        x = rng.normal(0.0, 2.0, (3, n))
        x[0, ::7], x[1, ::5], x[2, ::9] = -0.0, np.inf, np.nan
        x[2, 1::9] = -np.inf
        for point in (x, x[0], list(x[1])):
            got = inst.project(point)
            np.testing.assert_array_equal(got, np.clip(point, inst.lower, inst.upper))
            assert got is not point and got.dtype == np.float64

    def test_the_steps_the_root_center_and_project_go_through_it(self, monkeypatch):
        calls = []
        clamp = model._clamp

        def counting(t, lower, upper, out=None):
            calls.append(out is t)  # center and the root clamp in place
            return clamp(t, lower, upper, out)

        monkeypatch.setattr(model, "_clamp", counting)
        inst = log_cost_market(50, 1)
        x = inst.center()
        assert calls == [True]
        calls.clear()
        inst.project(x)
        assert calls == [False]
        calls.clear()
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

        n = 40
        side = (lambda v: np.full(n, v)) if dense else (lambda v: v)
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=side(0.0), upper=side(10.0),
                              cost=log_cost_market(n, 1).cost)
        assert (inst.lower.strides == (0,)) is not dense
        monkeypatch.setattr(model, "np", Recording())
        x = inst.center()
        assert used == ["maximum", "minimum"] * dense
        used.clear()
        inst.project(x)
        assert used == ["maximum", "minimum"] * dense
        for splitting in Splitting:
            used.clear()
            prox_step(inst, x, 0.1, splitting=splitting)
            # one pair per clamp: the PAPER step's, or each root pass's
            pairs = len(used) // 2 if dense else 0
            assert used == ["maximum", "minimum"] * pairs and (pairs > 0) is dense
