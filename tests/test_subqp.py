import numpy as np
import pytest

from cournotprox import (
    AffineCost,
    BoxQP,
    MarketInstance,
    SubproblemError,
    apply_B,
    apply_Btilde,
    box_pg_solve,
    classical_equilibrium,
    phi_bifunction,
)
from cournotprox.experiments import affine_market, exp_cost_market, log_cost_market
from cournotprox.subqp import prox_step, prox_subproblem


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

    @pytest.mark.parametrize("make,seed", [(log_cost_market, 0), (exp_cost_market, 1)])
    def test_variational_optimality_condition(self, make, seed):
        inst = make(12, seed)
        rng = np.random.default_rng(seed)
        for c in (0.05, 0.2, 1.0):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c)
            G = (x - s) / c
            v = (
                apply_B(inst, s)
                + apply_Btilde(inst, x)
                - inst.alpha_tilde
                - inst.cost.gradient(x)
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

    def test_output_stays_in_box(self):
        inst = log_cost_market(20, 5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, 3.0)
            assert inst.contains(s)


class TestBoxPG:
    def test_matches_closed_form_on_prox_subproblems(self):
        rng = np.random.default_rng(3)
        for n in (1, 5, 30, 100):
            inst = log_cost_market(n, n)
            x = rng.uniform(inst.lower, inst.upper)
            for c in (0.1, 1.0):
                qp = prox_subproblem(inst, x, c)
                pg = box_pg_solve(qp, tol=1e-12, max_iter=10_000, x0=x)
                np.testing.assert_allclose(pg, prox_step(inst, x, c), atol=1e-8)

    def test_two_firm_interior_system(self):
        # 0.2 x1 + 0.1 x2 = 8 and symmetric -> x = 8/0.3
        Q = np.array([[0.2, 0.1], [0.1, 0.2]])
        qp = BoxQP(Q, np.array([-8.0, -8.0]), 0.0, 50.0)
        x = box_pg_solve(qp, tol=1e-12)
        np.testing.assert_allclose(x, [8.0 / 0.3, 8.0 / 0.3], atol=1e-6)

    def test_zero_linear_term_gives_origin(self):
        qp = BoxQP(np.array([1.0, 2.0, 3.0]), np.zeros(3), -1.0, 1.0)
        np.testing.assert_allclose(box_pg_solve(qp, tol=1e-14), np.zeros(3), atol=1e-13)

    def test_budget_exhaustion_is_loud(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 40))
        Q = A @ A.T + 1e-3 * np.eye(40)
        qp = BoxQP(Q, rng.standard_normal(40), -10.0, 10.0)
        with pytest.raises(SubproblemError) as exc:
            box_pg_solve(qp, tol=1e-14, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.residual > 1e-14
        assert exc.value.x.shape == (40,)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxQP(np.array([1.0, -1.0]), np.zeros(2), 0.0, 1.0)  # not PD
        with pytest.raises(ValueError):
            BoxQP(lambda v: v, np.zeros(2), 0.0, 1.0)  # callable without lam_max
        with pytest.raises(ValueError):
            BoxQP(np.eye(3), np.zeros(2), 0.0, 1.0)  # shape mismatch
        qp = BoxQP(np.array([1.0]), np.zeros(1), 0.0, 1.0)
        with pytest.raises(ValueError):
            box_pg_solve(qp, tol=0.0)

    def test_dense_indefinite_rejected(self):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(ValueError):
            BoxQP(M, np.zeros(2), 0.0, 1.0)


class TestClassicalEquilibrium:
    def test_symmetric_closed_form(self):
        inst = affine_market(5, mu=2.0)
        star = classical_equilibrium(inst)
        np.testing.assert_allclose(star, np.full(5, 8.0 / 0.6), atol=1e-6)
        # KKT residual at the reported point
        g = apply_B(inst, star) + apply_Btilde(inst, star) + inst.mu - inst.alpha0
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
