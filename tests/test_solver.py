import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

import cournotprox.model
import cournotprox.solver
import cournotprox.subqp
from cournotprox import (
    AffineCost,
    ExpCost,
    LogCost,
    MarketInstance,
    SolveStatus,
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
from cournotprox.experiments import (
    affine_market, exp_cost_market, log_cost_market, verify_run, write_trace_csv,
)
import oracles
from oracles import (
    affine_equilibrium,
    box_bound,
    cost_term_curvature,
    cost_term_slope,
    decrease_rhs,
    dphi_directional,
    exact_coupling_step,
    exact_decrease_rhs,
    gradient_mapping,
    lipschitz_gamma,
)

PAPER = Splitting.PAPER
EXACT = Splitting.EXACT_COUPLING

FAMILIES = {
    "affine": lambda n, seed: affine_market(n, mu=np.random.default_rng(seed).uniform(0.0, 5.0, n)),
    "log": log_cost_market,
    "exp": exp_cost_market,
}


# (policy, family, n, seed, max_iter): the original line-search grid keeps its
# ids; n=20000 puts each n-vector above the allocator's 128 KiB mmap threshold.
REFERENCE_CASES = [
    pytest.param(StepPolicy.LINE_SEARCH, make, n, seed, None, id=f"{seed}-{n}-{name}")
    for seed in (3, 4)
    for n in (20, 200)
    for name, make in (("log", log_cost_market), ("exp", exp_cost_market))
] + [
    pytest.param(StepPolicy.FIXED, log_cost_market, 20, 3, None, id="fixed-3-20-log"),
    pytest.param(StepPolicy.FIXED, exp_cost_market, 200, 4, None, id="fixed-4-200-exp"),
    pytest.param(StepPolicy.LINE_SEARCH, log_cost_market, 20_000, 3, 30, id="3-20000-log"),
    pytest.param(StepPolicy.FIXED, exp_cost_market, 20_000, 4, 30, id="fixed-4-20000-exp"),
]


def best_scaled_step(trace):
    """Running minimum of ||dx_k||^2 / (2 c_k): the trace's delta column."""
    return np.minimum.accumulate(trace.step_norm**2 / (2.0 * trace.c))


def with_cost(inst, cost):
    return MarketInstance(
        beta=inst.beta, alpha0=inst.alpha0, mu=inst.mu,
        lower=inst.lower, upper=inst.upper, cost=cost,
    )


def counting_log_market(base):
    """``base`` on a ``CountingLogCost``, its counts cleared of the two construction calls."""
    inst = with_cost(base, CountingLogCost(c0=base.cost.c0, c=base.cost.c, r=base.cost.r))
    inst.cost.calls.clear()  # L_h is read from h'' at the box's two ends
    return inst


class CountingLogCost(LogCost):
    """LogCost that counts its kernel calls with and without a gradient buffer."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", Counter())

    def value_components(self, x, grad=None, out=None, curv=None):
        self.calls["values_only" if grad is None else "with_gradient"] += 1
        return super().value_components(x, grad, out, curv)


class NaNGradientExpCost(ExpCost):
    def value_components(self, x, grad=None, out=None, curv=None):
        values = super().value_components(x, grad, out, curv)
        if grad is not None:
            grad[...] = np.nan
        return values


class NaNValueExpCost(ExpCost):
    def value_components(self, x, grad=None, out=None, curv=None):
        values = super().value_components(x, grad, out, curv)
        values[...] = np.nan
        return values


class InfValueOffCenterLogCost(LogCost):
    # h = -inf everywhere but at the box center 5: the first step, finite, lands
    # where the potential is not
    def value_components(self, x, grad=None, out=None, curv=None):
        values = super().value_components(x, grad, out, curv)
        values[np.asarray(x) != 5.0] = -np.inf
        return values


def reference_line_search_run(inst, x, steps, bracket=(0.1, 10.0)):
    """Line search built from prox_step, potential_gamma and decrease_rhs alone.

    ``bracket`` is [c_lo, c_hi] in units of 1/L_gamma; (1, 1) is fixed damping.
    The first search starts at 2/L_gamma, clipped to the bracket. A
    failed trial at c asks for c_need = |s - x|^2 / (2*(gamma(s) - m)),
    where m is the local model at s without its damping term; the next
    trial is the first halving of c at or below c_need, floored at c_lo,
    or one halving when gamma(s) - m is not finite. The next search
    starts at c_up = 2c, clipped, where c is the damping just accepted,
    if that accepted step also passes the test at c_up, and at c
    otherwise.
    """
    L = lipschitz_gamma(inst)
    c_lo, c_hi = bracket[0] / L, bracket[1] / L
    c_next = min(c_hi, max(c_lo, 2.0 / L))
    cs, xs = [], [x]
    for _ in range(steps):
        c = c_next
        while True:
            s = prox_step(inst, x, c, splitting=PAPER)
            if potential_gamma(inst, s) <= decrease_rhs(inst, x, s, c) or c <= c_lo:
                break
            excess = potential_gamma(inst, s) - decrease_rhs(inst, x, s, math.inf)
            c_need = float((s - x) @ (s - x)) / (2.0 * excess) if math.isfinite(excess) else c
            c = 0.5 * c
            while c > max(c_need, c_lo):
                c = 0.5 * c
            c = max(c, c_lo)
        c_up = min(c_hi, 2.0 * c)
        c_next = c_up if potential_gamma(inst, s) <= decrease_rhs(inst, x, s, c_up) else c
        cs.append(c)
        xs.append(s)
        x = s
    return np.asarray(cs), xs


def slow_tail(step, prev, eps):
    """The solver's Newton gate: the last two step norms predict more than two further steps."""
    return step > eps and step * (step / prev) ** 2 > eps


def newton_trial(inst, x):
    """The solver's Newton trial from x: its point if that lowers the potential, else None.

    The point is ``subqp._newton_point``'s (checked against the oracle in
    test_subqp), from the cost term's slope and curvature at x, so its
    bits are the solver's.
    """
    g = cost_term_slope(inst.cost, x) - inst.alpha_tilde
    sums = np.array([np.add.reduce(x), math.nan])
    scratch = (np.empty(inst.n), np.empty((2, inst.n), dtype=bool), sums)
    out = np.empty(inst.n)
    y = cournotprox.subqp._newton_point(inst, x, g, cost_term_curvature(inst.cost, x), out, scratch)
    return y if y is not None and potential_gamma(inst, y) < potential_gamma(inst, x) else None


def doubling_run(inst, eps):
    """The exact-coupling line search that always starts at twice the last accepted damping.

    Built from prox_step, potential_gamma and exact_decrease_rhs, with the
    solver's Newton trial after a step on a slow tail (``newton_trial``);
    it stops at the first step of norm at most ``eps``. Returns the
    damping column, the iterates and the number of trials.
    """
    L = inst.L_h
    c_lo, c_hi = 0.1 / L, 10.0 / L
    x, c_prev, trials, prev = inst.center(), 1.0 / L, 0, math.nan
    cs, xs = [], [x]
    while True:
        c = min(c_hi, max(c_lo, 2.0 * c_prev))
        while True:
            s = prox_step(inst, x, c, splitting=EXACT)
            trials += 1
            if c <= c_lo or potential_gamma(inst, s) <= exact_decrease_rhs(inst, x, s, c):
                break
            c = max(0.5 * c, c_lo)
        cs.append(c)
        xs.append(s)
        step = float(np.linalg.norm(s - x))
        x, c_prev = s, c
        if step <= eps:
            return np.asarray(cs), xs, trials
        if slow_tail(step, prev, eps):
            trials += 1
            y = newton_trial(inst, x)
            if y is not None:
                xs[-1] = x = y
        prev = step


def halving_run(inst, splitting, eps):
    """The line search that halves the damping after every failed trial.

    Built from prox_step, potential_gamma and the splitting's
    sufficient-decrease test (decrease_rhs or exact_decrease_rhs); it
    starts at 2/L, keeps the solver's checked doubling between searches
    and, under EXACT, its Newton trial after a step on a slow tail, and
    stops at the first step of norm at most ``eps``. Returns the damping
    column, the iterates and the number of trials.
    """
    if splitting is PAPER:
        L, rhs = lipschitz_gamma(inst), decrease_rhs
    else:
        L, rhs = inst.L_h, exact_decrease_rhs
    c_lo, c_hi = 0.1 / L, 10.0 / L
    x, c_next, trials, prev = inst.center(), min(c_hi, 2.0 / L), 0, math.nan
    cs, xs = [], [x]
    while True:
        c = c_next
        while True:
            s = prox_step(inst, x, c, splitting=splitting)
            trials += 1
            if c <= c_lo or potential_gamma(inst, s) <= rhs(inst, x, s, c):
                break
            c = max(0.5 * c, c_lo)
        c_up = min(c_hi, 2.0 * c)
        c_next = c_up if potential_gamma(inst, s) <= rhs(inst, x, s, c_up) else c
        cs.append(c)
        xs.append(s)
        step = float(np.linalg.norm(s - x))
        x = s
        if step <= eps:
            return np.asarray(cs), xs, trials
        if splitting is EXACT and slow_tail(step, prev, eps):
            trials += 1
            y = newton_trial(inst, x)
            if y is not None:
                xs[-1] = x = y
        prev = step


class FarNonFiniteLogCost(LogCost):
    """LogCost whose value is ``bad`` beyond ``radius`` from ``anchor``; it records each point."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "seen", [])

    def value_components(self, x, grad=None, out=None, curv=None):
        values = super().value_components(x, grad, out, curv)
        self.seen.append(np.array(x))
        if np.linalg.norm(x - self.anchor) > self.radius:
            values[...] = self.bad
        return values


def first_step(inst, x0):
    """One line-search iteration of the paper's splitting from x0: trials, damping, step."""
    cfg = SolverConfig(
        step_policy=StepPolicy.LINE_SEARCH, max_iter=1, record_iterates=True, splitting=PAPER
    )
    res, trace = solve(inst, cfg, x0)
    return res.trials, trace.c[0], trace.iterates[1]


def assert_accepted_steps_decrease(splitting, rhs):
    """Every accepted line-search step passes the splitting's sufficient-decrease test.

    Row k's step is the prox step from iterate k at the row's damping (a
    step depends on x and c alone); under EXACT a kept Newton point with a
    lower potential may follow it as the next iterate.
    """
    for make, seed in ((log_cost_market, 11), (exp_cost_market, 12)):
        inst = make(20, seed)
        cfg = SolverConfig(
            step_policy=StepPolicy.LINE_SEARCH, eps=1e-5, record_iterates=True,
            splitting=splitting,
        )
        res, trace = solve(inst, cfg)
        assert res.status is SolveStatus.CONVERGED
        for k in range(len(trace)):
            x, after, c = trace.iterates[k], trace.iterates[k + 1], trace.c[k]
            s = prox_step(inst, x, c, splitting=splitting)
            assert potential_gamma(inst, s) <= rhs(inst, x, s, c) + 1e-9
            assert np.array_equal(after, s) or potential_gamma(inst, after) < potential_gamma(inst, s)


def assert_converged_certificate_sound(splitting, L_of):
    """A converged line-search run's certificate obeys the bracket's worst case."""
    for make, seed in ((log_cost_market, 0), (exp_cost_market, 1)):
        inst = make(15, seed)
        L = L_of(inst)
        cfg = SolverConfig(step_policy=StepPolicy.LINE_SEARCH, eps=1e-4, splitting=splitting)
        res, trace = solve(inst, cfg)
        assert res.status is SolveStatus.CONVERGED
        c_lo, c_hi = 0.1 / L, 10.0 / L
        assert res.certificate <= (1.0 + c_hi * L) * (cfg.eps / c_lo) + 1e-12


class TestGradientMapping:
    def test_single_firm_value(self):
        # g = -alpha_tilde + SIGN*mu_h = 0.6, so s = (3 - 0.6)/1.2 = 2 and G = 3 - s
        cost = AffineCost(mu_h=[oracles.SIGN * 10.6])
        inst = MarketInstance(beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=10.0, cost=cost)
        G = gradient_mapping(inst, np.array([3.0]), c=1.0)
        assert G[0] == pytest.approx(1.0, abs=1e-14)

    def test_vanishes_at_stationary_point(self):
        inst = affine_market(6, mu=3.0)
        star = affine_equilibrium(inst)
        for c in (0.05, 0.5, 5.0):
            assert np.linalg.norm(gradient_mapping(inst, star, c)) <= 1e-8

    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_monotone_in_damping(self, name):
        inst = FAMILIES[name](12, 3)
        L = lipschitz_gamma(inst)
        cs = 2.0 ** np.arange(-4, 5) / L
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(inst.lower, inst.upper)
            e = np.array([np.linalg.norm(gradient_mapping(inst, x, c)) for c in cs])
            r = np.array([np.linalg.norm(x - prox_step(inst, x, c, splitting=PAPER)) for c in cs])
            assert np.all(np.diff(e) <= 1e-10)
            assert np.all(np.diff(r) >= -1e-10)


class TestSolveConvex:
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_matches_affine_oracle(self, n):
        # both splittings against the sorted-breakpoint reference, which shares no
        # code with the solver
        inst = FAMILIES["affine"](n, 100 + n)
        ref = affine_equilibrium(inst)
        for splitting in Splitting:
            res, _ = solve(inst, SolverConfig(eps=1e-8, splitting=splitting))
            assert res.status is SolveStatus.CONVERGED
            assert np.max(np.abs(res.x - ref)) <= 1e-6

    def test_stationary_start_stops_immediately(self):
        inst = affine_market(4, mu=2.0)
        star = affine_equilibrium(inst)
        res, trace = solve(inst, SolverConfig(eps=1e-6), x0=star)
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations == 1
        assert trace.step_norm[0] <= 1e-6


class TestSolveNonconvex:
    @pytest.mark.parametrize("make", [log_cost_market, exp_cost_market])
    def test_converges_at_reference_tolerance(self, make):
        inst = make(10, 0)
        res, trace = solve(inst, SolverConfig(eps=1e-3))
        assert res.status is SolveStatus.CONVERGED
        assert trace.step_norm[-1] <= 1e-3
        assert inst.contains(res.x)

    def test_every_iterate_feasible(self):
        inst = log_cost_market(15, 9)
        res, trace = solve(inst, SolverConfig(eps=1e-4, record_iterates=True), x0=np.full(15, 2.0))
        for x in trace.iterates:
            assert inst.contains(x)

    def test_descent_inequality_every_iteration(self):
        for make, seed in ((log_cost_market, 1), (exp_cost_market, 2)):
            inst = make(20, seed)
            c = 1.0 / lipschitz_gamma(inst)
            res, trace = solve(inst, SolverConfig(eps=1e-5, splitting=PAPER))
            gammas = np.append(trace.gamma, res.gamma_final)
            drop = 0.5 * trace.c * trace.residual**2
            assert np.all(gammas[1:] <= gammas[:-1] - drop + 1e-9)
            assert np.all(trace.c == c)

    def test_descent_inequality_every_iteration_exact_coupling(self):
        # the damping is 1/L_h, independent of n; the drop is still (c/2)*||G_c||^2
        for make, seed in ((log_cost_market, 1), (exp_cost_market, 2)):
            inst = make(20, seed)
            c = 1.0 / inst.L_h
            res, trace = solve(inst, SolverConfig(eps=1e-5))
            assert res.status is SolveStatus.CONVERGED
            gammas = np.append(trace.gamma, res.gamma_final)
            drop = 0.5 * trace.c * trace.residual**2
            assert np.all(gammas[1:] <= gammas[:-1] - drop + 1e-9)
            assert np.all(trace.c == c)

    @pytest.mark.parametrize("splitting", [EXACT, PAPER])
    @pytest.mark.parametrize("cost, lower", [
        (LogCost(c0=2.0, c=1.5, r=1.5, n=5), -0.6),
        (ExpCost(c0=4.0, c=2.0, r=0.5, n=5), -5.0),
    ], ids=["log", "exp"])
    def test_descent_on_a_box_below_zero(self, cost, lower, splitting):
        # |h''| grows toward negative x, so c*r^2 bounds it only on x >= 0; the
        # damping comes from the bound at the lower side, 100 and 12 times larger
        # here; the exact-coupling step at 1/(c*r^2) breaks the inequality below
        inst = MarketInstance(beta=0.1, alpha0=0.0, mu=3.0, lower=lower, upper=5.0, cost=cost)
        L_h = inst.L_h
        assert L_h >= 12.0 * box_bound(inst.cost, 0.0, 5.0)
        L = L_h if splitting is EXACT else L_h + 4 * inst.beta
        res, trace = solve(inst, SolverConfig(eps=1e-8, splitting=splitting))
        assert res.status is SolveStatus.CONVERGED
        assert np.all(res.x < 0.0)
        assert np.all(trace.c == 1.0 / L)
        gammas = np.append(trace.gamma, res.gamma_final)
        drop = 0.5 * trace.c * trace.residual**2
        assert np.all(gammas[1:] <= gammas[:-1] - drop + 1e-9)

    @pytest.mark.parametrize("make, iterations, trials", [
        (log_cost_market, 7, 10), (exp_cost_market, 5, 7),
    ])
    def test_exact_coupling_steps_match_reference_step(self, make, iterations, trials, monkeypatch):
        # every step is the breakpoint-solved exact-coupling step from its row's
        # iterate; a kept Newton point replaces the step's point as the next
        # iterate, so each step is taken where prox_step writes it
        steps = []

        def recording_step(*args, **kwargs):
            out = prox_step(*args, **kwargs)
            steps.append(out.copy())
            return out

        monkeypatch.setattr(cournotprox.solver, "prox_step", recording_step)
        inst = make(40, 5)
        res, trace = solve(inst, SolverConfig(eps=1e-6, record_iterates=True))
        assert (res.iterations, res.trials) == (iterations, trials)
        assert len(steps) == len(trace) == len(trace.iterates) - 1
        for x, s, c, norm in zip(trace.iterates, steps, trace.c, trace.step_norm):
            np.testing.assert_allclose(s, exact_coupling_step(inst, x, c), rtol=0.0, atol=1e-12)
            assert norm == np.linalg.norm(s - x)
        np.testing.assert_array_equal(res.x, steps[-1])

    def test_max_iter_status(self):
        inst = log_cost_market(10, 4)
        res, trace = solve(inst, SolverConfig(eps=1e-12, max_iter=5))
        assert res.status is SolveStatus.MAX_ITER
        assert res.iterations == 5
        assert len(trace) == 5

    def test_x0_projection_flag(self):
        inst = log_cost_market(3, 5)
        res, _ = solve(inst, SolverConfig(eps=1e-3), x0=np.array([50.0, -3.0, 5.0]))
        assert res.x0_projected
        res2, _ = solve(inst, SolverConfig(eps=1e-3), x0=np.full(3, 5.0))
        assert not res2.x0_projected

    def test_bound_recording_can_be_disabled(self):
        inst = log_cost_market(5, 8)
        _, trace = solve(inst, SolverConfig(eps=1e-3, record_bound=False))
        assert trace.gamma_lb is None
        assert np.all(np.isnan(trace.bound_rhs))


class TestLineSearch:
    def test_guaranteed_damping_accepted_immediately(self):
        # the coupling makes the first trial 2/L_gamma fail; the halved trial
        # is the guaranteed 1/L_gamma and passes at once
        inst = exp_cost_market(10, 1)
        L = lipschitz_gamma(inst)
        x = inst.center()
        trials, c, s = first_step(inst, x)
        assert (trials, c) == (2, 1.0 / L)
        assert potential_gamma(inst, s) <= decrease_rhs(inst, x, s, c)

    def test_each_trial_point_is_summed_once(self, monkeypatch):
        # each step leaves the sum of its trial point (the exact-coupling root
        # sums it on its last pass); the potential, the sufficient-decrease test
        # and the next linear term and warm start take that total instead of
        # summing the point again
        summed = Counter()

        def count(x):
            if np.shape(x)[-1:] == (n,):
                summed[np.asarray(x).tobytes()] += 1

        class CountingAdd:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            @staticmethod
            def reduce(x, *args, **kwargs):
                count(x)
                return np.add.reduce(x, *args, **kwargs)

        class CountingSum:
            add = CountingAdd()

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sum(x, *args, **kwargs):
                count(x)
                return np.sum(x, *args, **kwargs)

        trial_points = []
        newton = cournotprox.subqp._newton_point

        def recording_step(*args, **kwargs):
            out = prox_step(*args, **kwargs)
            trial_points.append(out.tobytes())
            return out

        def recording_newton(*args):
            out = newton(*args)
            trial_points.append(out.tobytes())
            return out

        for module in (cournotprox.model, cournotprox.solver, cournotprox.subqp):
            monkeypatch.setattr(module, "np", CountingSum())
        monkeypatch.setattr(cournotprox.solver, "prox_step", recording_step)
        # the Newton trial points too: EXACT's run keeps two of them
        monkeypatch.setattr(cournotprox.subqp, "_newton_point", recording_newton)
        # PAPER's first trial at n = 200 clips to zero, whose squares have its bytes
        for splitting, n in ((EXACT, 200), (PAPER, 50)):
            summed.clear()
            trial_points.clear()
            cfg = SolverConfig(
                step_policy=StepPolicy.LINE_SEARCH, record_iterates=True, record_bound=False,
                splitting=splitting,
            )
            res, trace = solve(log_cost_market(n, 0), cfg)
            assert res.status is SolveStatus.CONVERGED
            assert len(trial_points) == res.trials > res.iterations  # a rejected trial too
            assert [summed[p] for p in trial_points] == [1] * res.trials
            assert summed[trace.iterates[0].tobytes()] == 1

    def test_each_trial_point_is_dotted_once(self, monkeypatch):
        # potential_gamma dots each point it evaluates with itself and hands
        # |y|^2 on through _sq; the kept quadratic of the sufficient-decrease
        # test takes that number, and no other code dots a point again
        evaluated, kept_args, self_dots = [], [], []
        potential = cournotprox.solver.potential_gamma
        local_model = cournotprox.solver._local_model
        center = MarketInstance.center

        class Point(np.ndarray):
            # the solve's iterate and trial point (np.empty_like keeps the type);
            # potential_gamma and the step read them through np.asarray, as ndarrays
            def __matmul__(self, other):
                if np.may_share_memory(self, other):
                    self_dots.append(1)
                return np.ndarray.__matmul__(self, other)

        def recording_potential(inst, x, *args, **kwargs):
            value = potential(inst, x, *args, **kwargs)
            y = np.asarray(x)
            evaluated.append((float(y @ y), kwargs["_sq"][0]))
            return value

        def recording_model(inst, splitting):
            L, kept, newton = local_model(inst, splitting)

            def recording_kept(sq, sigma):
                kept_args.append((sq, len(evaluated)))
                return kept(sq, sigma)

            return L, recording_kept, newton

        monkeypatch.setattr(cournotprox.solver, "potential_gamma", recording_potential)
        monkeypatch.setattr(cournotprox.solver, "_local_model", recording_model)
        monkeypatch.setattr(MarketInstance, "center", lambda inst: center(inst).view(Point))
        for splitting, n in ((EXACT, 200), (PAPER, 50)):
            evaluated.clear()
            kept_args.clear()
            cfg = SolverConfig(
                step_policy=StepPolicy.LINE_SEARCH, record_bound=False, splitting=splitting,
            )
            res, _ = solve(log_cost_market(n, 0), cfg)
            assert res.status is SolveStatus.CONVERGED
            assert type(res.x) is Point and self_dots == []
            assert len(evaluated) == res.trials + 1 > res.iterations + 1
            # the same dot: every bit of |y|^2 reaches the test
            assert all(sq.hex() == want.hex() for want, sq in evaluated)
            # each kept quadratic reads a number, that of the point evaluated last
            assert len(kept_args) >= res.trials
            for sq, seen in kept_args:
                assert np.ndim(sq) == 0
                assert sq.hex() == evaluated[seen - 1][0].hex()

    def test_affine_single_firm_accepts_any_damping(self):
        # no curvature at all: the local model is exact, so every c passes and
        # the search has the one-point bracket c = inf; the first step lands on
        # the equilibrium and the second confirms it
        inst = affine_market(1, mu=2.0)
        cfg = SolverConfig(
            step_policy=StepPolicy.LINE_SEARCH, eps=1e-12, max_iter=4, splitting=PAPER
        )
        res, trace = solve(inst, cfg, np.array([7.0]))
        assert res.status is SolveStatus.CONVERGED
        assert res.trials == res.iterations == 2
        np.testing.assert_array_equal(trace.c, [math.inf, math.inf])
        np.testing.assert_allclose(res.x, affine_equilibrium(inst), rtol=1e-14)

    def test_oversized_damping_gets_shrunk(self):
        inst = exp_cost_market(10, 2)
        L = lipschitz_gamma(inst)
        x = np.zeros(10)  # every firm moves up together: the coupling bound is tight
        trials, c, s = first_step(inst, x)
        assert trials > 1
        assert c < 2.0 / L
        assert potential_gamma(inst, s) <= decrease_rhs(inst, x, s, c)

    def test_accepted_steps_satisfy_decrease_condition(self):
        assert_accepted_steps_decrease(PAPER, decrease_rhs)

    def test_accepted_steps_satisfy_decrease_condition_exact_coupling(self):
        assert_accepted_steps_decrease(EXACT, exact_decrease_rhs)

    @pytest.mark.parametrize("policy, make, n, seed, max_iter", REFERENCE_CASES)
    def test_matches_reference_line_search(self, policy, make, n, seed, max_iter):
        inst = make(n, seed)
        capped = {} if max_iter is None else {"max_iter": max_iter}
        cfg = SolverConfig(
            step_policy=policy, eps=1e-5, record_iterates=True, splitting=PAPER, **capped
        )
        res, trace = solve(inst, cfg)
        assert res.status is (SolveStatus.MAX_ITER if capped else SolveStatus.CONVERGED)
        bracket = (1.0, 1.0) if policy is StepPolicy.FIXED else (0.1, 10.0)
        # the reference runs after solve returned, so the run's reused
        # buffers must not show through trace.iterates or res.x
        cs, xs = reference_line_search_run(inst, inst.center(), len(trace), bracket)
        np.testing.assert_array_equal(trace.c, cs)
        assert len(trace.iterates) == len(xs)
        for got, want in zip(trace.iterates, xs):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.x, xs[-1], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "make, n, seed, old_trials, new_trials",
        [
            (log_cost_market, 2000, 0, 7, 6),
            (log_cost_market, 20_000, 3, 12, 7),
            (exp_cost_market, 2000, 0, 12, 7),
            (exp_cost_market, 20_000, 3, 8, 5),
        ],
    )
    def test_checked_doubling_skips_only_rejected_trials(self, make, n, seed, old_trials, new_trials):
        # here every doubled trial the search no longer makes would have been
        # rejected, so the run keeps the always-doubling run's answers bit for
        # bit with fewer trials
        inst = make(n, seed)
        cfg = SolverConfig(step_policy=StepPolicy.LINE_SEARCH, record_bound=False)
        res, trace = solve(inst, cfg)
        cs, xs, trials = doubling_run(inst, cfg.eps)
        assert res.status is SolveStatus.CONVERGED
        np.testing.assert_array_equal(res.x, xs[-1])
        np.testing.assert_array_equal(trace.c, cs)
        assert res.iterations == len(cs)
        assert res.certificate == eps_certificate(inst, xs[-2], cs[-1])
        assert (trials, res.trials) == (old_trials, new_trials)

    @pytest.mark.parametrize(
        "make, n, seed, splitting, old_trials, new_trials",
        [
            (log_cost_market, 10_000, 0, EXACT, 7, 6),
            (log_cost_market, 100_000, 0, EXACT, 7, 6),
            (log_cost_market, 1000, 0, PAPER, 63, 53),
            (exp_cost_market, 100, 0, PAPER, 153, 126),
        ],
        ids=["log-1e4-exact", "log-1e5-exact", "log-1e3-paper", "exp-1e2-paper"],
    )
    def test_backtracking_skips_only_failing_trials(
        self, make, n, seed, splitting, old_trials, new_trials
    ):
        # after a failed trial the search goes straight to the first halving
        # at or below the damping that failed step asks for; here every
        # halving it skips would have failed too, so the run keeps the
        # halving run's answers bit for bit with fewer trials
        inst = make(n, seed)
        cfg = SolverConfig(step_policy=StepPolicy.LINE_SEARCH, record_bound=False, splitting=splitting)
        res, trace = solve(inst, cfg)
        cs, xs, trials = halving_run(inst, splitting, cfg.eps)
        assert res.status is SolveStatus.CONVERGED
        np.testing.assert_array_equal(res.x, xs[-1])
        np.testing.assert_array_equal(trace.c, cs)
        assert res.iterations == len(cs)
        assert res.certificate == eps_certificate(inst, xs[-2], cs[-1], splitting)
        assert (trials, res.trials) == (old_trials, new_trials)

    @pytest.mark.parametrize("splitting", [EXACT, PAPER])
    @pytest.mark.parametrize("bad", [-math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_trials_halve_once_each(self, bad, splitting):
        # the potential is non-finite at every trial above c_lo (a cost value
        # of -inf makes it +inf), so no failed trial names a damping: the
        # search halves once per trial down the whole grid 2/L, 1/L, ...,
        # 0.125/L and accepts the floor 0.1/L
        base = log_cost_market(50, 2)
        L = lipschitz_gamma(base) if splitting is PAPER else base.L_h
        x0 = base.center()
        grid = [2.0 / L, 1.0 / L, 0.5 / L, 0.25 / L, 0.125 / L, 0.1 / L]
        steps = [prox_step(base, x0, c, splitting=splitting) for c in grid]
        norms = [float(np.linalg.norm(s - x0)) for s in steps]
        assert norms[-1] < norms[-2]
        cost = FarNonFiniteLogCost(c0=base.cost.c0, c=base.cost.c, r=base.cost.r)
        for name, value in (("anchor", x0), ("radius", 0.5 * (norms[-1] + norms[-2])), ("bad", bad)):
            object.__setattr__(cost, name, value)
        inst = with_cost(base, cost)
        cost.seen.clear()  # construction read h'' at the box's two ends
        cfg = SolverConfig(
            step_policy=StepPolicy.LINE_SEARCH, max_iter=1, record_bound=False, splitting=splitting
        )
        res, trace = solve(inst, cfg)
        assert res.trials == len(grid)
        np.testing.assert_array_equal(trace.c, [0.1 / L])
        assert math.isfinite(res.gamma_final)
        assert len(cost.seen) == 1 + len(grid)  # the start point, then each trial
        for seen, step in zip(cost.seen[1:], steps):
            np.testing.assert_array_equal(seen, step)

    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    def test_each_iterate_evaluated_once(self, policy):
        # one kernel call with a gradient buffer per prox step plus one at the start point
        base = log_cost_market(30, 5)
        inst = counting_log_market(base)
        res, _ = solve(inst, SolverConfig(step_policy=policy, record_bound=False, splitting=PAPER))
        assert res.status is SolveStatus.CONVERGED
        if policy is StepPolicy.FIXED:
            assert res.trials == res.iterations
        else:
            assert res.trials > res.iterations
        assert inst.cost.calls == {"with_gradient": res.trials + 1}
        assert inst.cost.calls["values_only"] == 0

    @pytest.mark.parametrize("policy, iterations, trials", [
        (StepPolicy.FIXED, 5, 7), (StepPolicy.LINE_SEARCH, 5, 7),
    ])
    def test_each_iterate_evaluated_once_exact_coupling(self, policy, iterations, trials):
        # the aggregate root needs no cost evaluation and the Newton trial's
        # curvature comes from the prox step's own call: still one per trial,
        # two of them Newton trials here, plus the start
        base = log_cost_market(30, 5)
        inst = counting_log_market(base)
        res, _ = solve(inst, SolverConfig(step_policy=policy, record_bound=False))
        assert res.status is SolveStatus.CONVERGED
        assert (res.iterations, res.trials) == (iterations, trials)
        assert inst.cost.calls == {"with_gradient": res.trials + 1}

    def test_line_search_run_still_descends(self):
        inst = log_cost_market(20, 13)
        res, trace = solve(inst, SolverConfig(step_policy=StepPolicy.LINE_SEARCH, eps=1e-5))
        gammas = np.append(trace.gamma, res.gamma_final)
        assert np.all(np.diff(gammas) <= 1e-9)


class TestNewtonTrial:
    """After an exact-coupling step on a slow tail, the box minimizer of the second-order model."""

    @staticmethod
    def counted_newton(monkeypatch):
        calls = []
        newton = cournotprox.subqp._newton_point

        def counting(*args):
            out = newton(*args)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(cournotprox.subqp, "_newton_point", counting)
        return calls

    def test_cuts_the_slow_log_tail(self, tmp_path, monkeypatch):
        # 52 steps at 1/L_h alone; each step from iterate 8 on shrank by about 0.9
        calls = self.counted_newton(monkeypatch)
        inst = log_cost_market(100, 0)
        res, trace = solve(inst, SolverConfig(record_iterates=True))
        assert res.status is SolveStatus.CONVERGED
        assert res.iterations <= 6
        assert res.trials == res.iterations + len(calls)
        assert calls == [True, True]
        gammas = np.append(trace.gamma, res.gamma_final)
        assert np.all(np.diff(gammas) <= 0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        # every check ran, the per-iteration bound included, and passed
        assert list(verify_run(path).failures.values()) == [None] * 5

    def test_certificate_from_a_newton_iterate(self):
        # the last step starts from a kept Newton point: the certificate is still
        # eps_certificate there, bit for bit
        inst = log_cost_market(100, 0)
        res, trace = solve(inst, SolverConfig(record_iterates=True))
        before, start = trace.iterates[-3], trace.iterates[-2]
        assert not np.array_equal(start, prox_step(inst, before, trace.c[-2]))
        assert res.certificate == eps_certificate(inst, start, res.c_final)

    def test_the_line_search_benchmark_tries_none(self, monkeypatch):
        # its steps shrink fast enough (largest step*rate^2 about 6e-5 against
        # eps = 1e-3), so the solve computes what it did without the trial
        calls = self.counted_newton(monkeypatch)
        inst = log_cost_market(100_000, 0)
        cfg = SolverConfig(step_policy=StepPolicy.LINE_SEARCH, record_bound=False)
        res, _ = solve(inst, cfg)
        assert calls == []
        assert (res.iterations, res.trials) == (5, 6)
        assert res.certificate.hex() == "0x1.3808641ccee7ep-8"

    def test_only_exact_coupling_tries_it(self, monkeypatch):
        calls = self.counted_newton(monkeypatch)
        res, _ = solve(log_cost_market(100, 0), SolverConfig(splitting=PAPER))
        assert calls == [] and res.trials == res.iterations

    def test_asking_for_the_curvature_adds_no_cost_call(self):
        base = log_cost_market(100, 0)
        inst = counting_log_market(base)
        res, _ = solve(inst, SolverConfig(record_bound=False))
        assert res.trials > res.iterations
        assert inst.cost.calls == {"with_gradient": res.trials + 1}
        slope, curv = np.empty(100), np.empty(100)
        inst.cost.calls.clear()
        potential_gamma(inst, res.x, slope, _curv=curv)
        assert inst.cost.calls == {"with_gradient": 1}


class TestResultOwnsItsMemory:
    """``result.x`` and the recorded iterates hold their n floats and nothing else."""

    @pytest.mark.parametrize("splitting", [EXACT, PAPER])
    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    def test_no_result_pins_the_scratch(self, splitting, policy, monkeypatch):
        # the iterate and the trial point swap after every accepted step and kept
        # Newton point, so result.x is the start array after an even number of
        # swaps and the trial point after an odd one; neither may be a view of
        # the solve's (4, n) scratch block, which a kept result would pin
        n = 200
        starts, kept_newton = [], []
        center = MarketInstance.center
        newton = cournotprox.subqp._newton_point

        def recording_center(inst):
            starts.append(center(inst))
            return starts[-1]

        def recording_newton(*args):
            out = newton(*args)
            if out is not None:
                kept_newton.append(out.tobytes())
            return out

        monkeypatch.setattr(MarketInstance, "center", recording_center)
        monkeypatch.setattr(cournotprox.subqp, "_newton_point", recording_newton)
        parities = set()
        for max_iter in (1, 2, 100_000):
            cfg = SolverConfig(
                step_policy=policy, max_iter=max_iter, record_iterates=True,
                splitting=splitting,
            )
            res, trace = solve(log_cost_market(n, 0), cfg)
            parities.add(res.x is starts[-1])
            for y in (res.x, *trace.iterates):
                assert y.base is None and y.nbytes == 8 * n
        assert parities == {True, False}
        if splitting is EXACT and policy is StepPolicy.LINE_SEARCH:
            # a Newton point was kept: it is a recorded iterate
            iterates = {y.tobytes() for y in trace.iterates}
            assert any(p in iterates for p in kept_newton)


class TestNonFinite:
    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    @pytest.mark.parametrize("cost_cls", [NaNGradientExpCost, NaNValueExpCost])
    def test_nan_cost_stops_at_once(self, cost_cls, policy):
        base = exp_cost_market(2, 0)
        inst = with_cost(base, cost_cls(c0=base.cost.c0, c=base.cost.c, r=base.cost.r))
        res, trace = solve(inst, SolverConfig(step_policy=policy))
        assert res.status is SolveStatus.NON_FINITE
        assert res.iterations <= 2
        assert len(trace) == res.iterations
        assert np.all(np.isfinite(res.x))
        if cost_cls is NaNValueExpCost:
            # the start point's potential is NaN: no step is taken, so no residual
            assert res.iterations == 0 and math.isnan(res.final_residual)

    @pytest.mark.parametrize("splitting", [PAPER, EXACT])
    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    def test_an_infinite_potential_after_a_finite_step_is_not_certified(self, policy, splitting):
        base = log_cost_market(6, 0)
        inst = with_cost(base, InfValueOffCenterLogCost(c0=base.cost.c0, c=base.cost.c, r=base.cost.r))
        res, trace = solve(inst, SolverConfig(step_policy=policy, splitting=splitting))
        assert res.status is SolveStatus.NON_FINITE
        assert res.iterations == len(trace) == 1
        assert math.isinf(res.gamma_final) and math.isfinite(res.final_step_norm)
        assert math.isnan(res.certificate)


class TestSlopeBounds:
    # proof-consistent lower bounds for the directional slope at the prox point
    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_slope_at_prox_point_toward_anchor(self, name):
        inst = FAMILIES[name](12, 21)
        L = lipschitz_gamma(inst)
        rng = np.random.default_rng(31)
        for frac in (0.1, 0.5, 1.0):
            c = frac / L
            for _ in range(100):
                x = rng.uniform(inst.lower, inst.upper)
                s = prox_step(inst, x, c, splitting=PAPER)
                lhs = dphi_directional(inst, s, x - s)
                rhs = (1.0 / c - L) * float((x - s) @ (x - s))
                assert lhs >= rhs - 1e-9

    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_slope_at_prox_point_toward_any_point(self, name):
        inst = FAMILIES[name](12, 22)
        L = lipschitz_gamma(inst)
        c = 1.0 / L
        rng = np.random.default_rng(32)
        for _ in range(100):
            x = rng.uniform(inst.lower, inst.upper)
            y = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c, splitting=PAPER)
            G = np.linalg.norm(gradient_mapping(inst, x, c))
            lhs = dphi_directional(inst, s, y - s)
            rhs = -(1.0 + c * L) * G * np.linalg.norm(y - s)
            assert lhs >= rhs - 1e-9

    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_unit_direction_slopes_bounded_by_certificate(self, name):
        inst = FAMILIES[name](12, 23)
        L = lipschitz_gamma(inst)
        c = 0.7 / L
        rng = np.random.default_rng(33)
        for _ in range(100):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c, splitting=PAPER)
            kappa = eps_certificate(inst, x, c)
            y = rng.uniform(inst.lower, inst.upper)
            d = y - s
            nd = np.linalg.norm(d)
            if nd == 0.0:
                continue
            assert dphi_directional(inst, s, d / nd) >= -kappa - 1e-9


class TestLocalModelBounds:
    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_model_value_caps_potential_drop(self, name):
        # model value + anchor constant <= gamma(x) - (c/2)||G||^2, any c > 0
        inst = FAMILIES[name](12, 24)
        L = lipschitz_gamma(inst)
        rng = np.random.default_rng(34)
        for c in (0.3 / L, 1.0 / L, 4.0 / L):
            for _ in range(100):
                x = rng.uniform(inst.lower, inst.upper)
                s = prox_step(inst, x, c, splitting=PAPER)
                lhs = decrease_rhs(inst, x, s, c)
                G = np.linalg.norm(gradient_mapping(inst, x, c))
                assert lhs <= potential_gamma(inst, x) - 0.5 * c * G**2 + 1e-9

    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_model_value_dominates_next_potential_when_damped(self, name):
        inst = FAMILIES[name](12, 25)
        L = lipschitz_gamma(inst)
        rng = np.random.default_rng(35)
        for c in (0.2 / L, 1.0 / L):
            for _ in range(100):
                x = rng.uniform(inst.lower, inst.upper)
                s = prox_step(inst, x, c, splitting=PAPER)
                assert potential_gamma(inst, s) <= decrease_rhs(inst, x, s, c) + 1e-9

    @pytest.mark.parametrize("name", ["log", "exp"])
    def test_combined_descent_inequality(self, name):
        inst = FAMILIES[name](12, 26)
        L = lipschitz_gamma(inst)
        c = 1.0 / L
        rng = np.random.default_rng(36)
        for _ in range(100):
            x = rng.uniform(inst.lower, inst.upper)
            s = prox_step(inst, x, c, splitting=PAPER)
            G = np.linalg.norm(gradient_mapping(inst, x, c))
            assert potential_gamma(inst, s) <= potential_gamma(inst, x) - 0.5 * c * G**2 + 1e-9


class TestBoundAndCertificates:
    def test_best_step_bound_holds_along_runs(self):
        for seed in range(3):
            inst = log_cost_market(30, seed)
            res, trace = solve(inst, SolverConfig(eps=1e-4))
            assert trace.gamma_lb is not None
            ks = np.arange(len(trace))
            rhs = (trace.gamma[0] - trace.gamma_lb) / (ks + 1)
            assert np.all(trace.delta <= rhs + 1e-12)

    def test_squared_steps_are_summable(self):
        inst = exp_cost_market(25, 3)
        res, trace = solve(inst, SolverConfig(eps=1e-6))
        total = np.sum(trace.step_norm**2 / (2.0 * trace.c))
        assert total <= trace.gamma[0] - trace.gamma_lb + 1e-9
        assert trace.step_norm[-1] <= 1e-6

    def test_delta_is_running_minimum(self):
        inst = log_cost_market(8, 6)
        _, trace = solve(inst, SolverConfig(eps=1e-5))
        assert np.all(np.diff(trace.delta) <= 0.0 + 1e-15)
        for k in (0, len(trace) // 2, len(trace) - 1):
            assert best_scaled_step(trace)[k] == pytest.approx(trace.delta[k], rel=1e-12)

    def test_delta_trivial_cases(self):
        from cournotprox.solver import IterationTrace

        tr = IterationTrace(
            gamma=np.zeros(4),
            step_norm=np.full(4, 2.0),
            c=np.full(4, 0.5),
        )
        # constant steps s=2, c=0.5: every prefix minimum is 4/(2*0.5) = 4
        assert len(tr) == 4
        np.testing.assert_allclose(best_scaled_step(tr), np.full(4, 4.0))
        empty = IterationTrace(*(np.zeros(0),) * 3)
        assert len(empty) == 0
        assert best_scaled_step(empty).size == 0

    def test_bound_rhs_arithmetic(self):
        # the column is the budget (gamma(x0) - gamma_lb)/(k+1)
        inst = log_cost_market(6, 2)
        gamma0 = float(potential_gamma(inst, inst.center()))
        for drop, expected in ((0.0, [0.0, 0.0, 0.0]), (3.0, [3.0, 1.5, 1.0])):
            _, trace = solve(inst, SolverConfig(eps=1e-12, max_iter=3, gamma_lb=gamma0 - drop))
            assert trace.gamma[0] == gamma0
            np.testing.assert_allclose(trace.bound_rhs, expected, rtol=1e-12, atol=0.0)

    def test_certificate_formula(self):
        inst = log_cost_market(10, 0)
        L = lipschitz_gamma(inst)
        c = 1.0 / L
        x = inst.center()
        G = np.linalg.norm(gradient_mapping(inst, x, c))
        # at c = 1/L the certificate is exactly twice the mapping norm
        assert eps_certificate(inst, x, c, PAPER) == pytest.approx(2.0 * G, rel=1e-12)
        star = affine_equilibrium(affine_market(4))
        assert eps_certificate(affine_market(4), star, 1.0, PAPER) <= 1e-8

    def test_certificate_formula_exact_coupling(self):
        inst = log_cost_market(10, 0)
        L_h = inst.L_h
        x = inst.center()
        for c in (0.3 / L_h, 1.0 / L_h):
            step = np.linalg.norm(exact_coupling_step(inst, x, c) - x)
            assert eps_certificate(inst, x, c) == pytest.approx((1.0 / c + L_h) * step, rel=1e-12)
        # affine: L_h = 0 and c = inf, so the certificate is 0 anywhere
        market = affine_market(4)
        assert eps_certificate(market, market.center(), math.inf) == 0.0
        star = affine_equilibrium(market)
        assert eps_certificate(market, star, 1.0) <= 1e-8

    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_result_certificate_is_eps_certificate(self, name, policy):
        # one formula: the solve's certificate is eps_certificate at the last
        # iterate before result.x, with the damping of that last step
        inst = FAMILIES[name](50, 27)
        cfg = SolverConfig(step_policy=policy, record_iterates=True, splitting=PAPER)
        res, trace = solve(inst, cfg)
        assert res.status is SolveStatus.CONVERGED
        assert res.certificate == eps_certificate(inst, trace.iterates[-2], res.c_final, PAPER)

    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_result_certificate_is_eps_certificate_exact_coupling(self, name, policy):
        inst = FAMILIES[name](50, 27)
        res, trace = solve(inst, SolverConfig(step_policy=policy, record_iterates=True))
        assert res.status is SolveStatus.CONVERGED
        assert res.certificate == eps_certificate(inst, trace.iterates[-2], res.c_final)
        if name == "affine":
            assert res.c_final == math.inf and res.certificate == 0.0

    @pytest.mark.parametrize("c", [math.nan, math.inf], ids=["nan", "inf"])
    def test_certificate_rejects_non_finite_damping(self, c):
        # NaN is refused; at c = inf the paper's certificate is L_gamma*||x - s||
        inst = log_cost_market(3, 0)
        x = inst.center()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isnan(c):
                with pytest.raises(ValueError, match="positive"):
                    eps_certificate(inst, x, c, PAPER)
                return
            kappa = eps_certificate(inst, x, c, PAPER)
        step = np.linalg.norm(prox_step(inst, x, c, splitting=PAPER) - x)
        assert kappa == lipschitz_gamma(inst) * step > 0.0

    @pytest.mark.parametrize("splitting", [PAPER, EXACT])
    def test_certificate_rejects_boolean_damping(self, splitting):
        # True would step at c = 1
        inst = log_cost_market(3, 0)
        with pytest.raises(ValueError, match="c must be a real number"):
            eps_certificate(inst, inst.center(), True, splitting)

    @pytest.mark.parametrize("c", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
    def test_exact_coupling_certificate_rejects_bad_damping(self, c):
        inst = log_cost_market(3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive"):
                eps_certificate(inst, inst.center(), c)

    def test_converged_certificate_soundness(self):
        assert_converged_certificate_sound(PAPER, lipschitz_gamma)

    def test_converged_certificate_soundness_exact_coupling(self):
        assert_converged_certificate_sound(EXACT, lambda inst: inst.L_h)


class TestConfigValidation:
    def test_zero_curvature_gets_default_damping(self):
        inst = affine_market(1, mu=2.0)  # L_gamma = 0: the model is exact, so c = inf
        res, trace = solve(inst, SolverConfig(eps=1e-8, splitting=PAPER))
        assert res.status is SolveStatus.CONVERGED
        assert trace.c[0] == math.inf

    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 10_000])
    def test_zero_cost_curvature_takes_infinite_damping(self, n, policy):
        # L_h = 0: the exact-coupling model is the potential, so c = inf and the
        # first step lands on the equilibrium; the second confirms it. The
        # paper's model is the potential too at n = 1, where L_gamma = L_h.
        inst = affine_market(n, mu=np.random.default_rng(n).uniform(0.0, 5.0, n))
        for splitting in (EXACT, PAPER) if n == 1 else (EXACT,):
            cfg = SolverConfig(step_policy=policy, eps=1e-12, splitting=splitting)
            res, trace = solve(inst, cfg)
            assert res.status is SolveStatus.CONVERGED
            assert res.iterations == 2
            assert np.all(trace.c == math.inf)
            np.testing.assert_array_equal(trace.residual, 0.0)
            np.testing.assert_array_equal(trace.delta, 0.0)
            assert res.certificate == 0.0
            np.testing.assert_allclose(res.x, affine_equilibrium(inst), rtol=1e-14, atol=1e-12)

    def test_parameter_sanity(self):
        for bad in ({"eps": 0.0}, {"max_iter": 0}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)

    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", 2.5), ("max_iter", "10"), ("eps", "0.1"), ("eps", None), ("gamma_lb", "1.0"),
         ("step_policy", "fixed"), ("record_bound", "no"), ("record_iterates", 1),
         ("max_iter", True), ("eps", True), ("gamma_lb", False)],
    )
    def test_rejects_settings_of_the_wrong_type(self, field, value):
        # rejected at construction, not as a TypeError inside solve; a bare "fixed"
        # would otherwise run the line search, and "no" would read as True
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_numeric_settings_are_stored_as_python_numbers(self):
        cfg = SolverConfig(eps=np.float32(0.5), max_iter=np.int64(7), gamma_lb=np.float32(-2.0))
        assert type(cfg.eps) is float and cfg.eps == 0.5
        assert type(cfg.max_iter) is int and cfg.max_iter == 7
        assert type(cfg.gamma_lb) is float and cfg.gamma_lb == -2.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["eps", "gamma_lb"])
    def test_rejects_non_finite_settings(self, field, value):
        # rejected at construction, before any instance is seen
        for policy in StepPolicy:
            with pytest.raises(ValueError, match=field):
                SolverConfig(step_policy=policy, **{field: value})

    def test_rejects_a_splitting_that_is_no_splitting(self):
        # a bare string would fall through to one branch or the other unnoticed
        with pytest.raises(ValueError, match="splitting"):
            SolverConfig(splitting="paper")

    def test_settings_are_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eps = 1e-6

    def test_bad_x0_shape(self):
        inst = affine_market(3)
        with pytest.raises(ValueError):
            solve(inst, x0=np.zeros(4))

    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_nan_start_is_rejected(self, name):
        # projection keeps a NaN, so unchecked it reaches the cost: a false
        # cost-domain error on log, a NonFinite stop with NaN in x on the others
        inst = FAMILIES[name](3, 0)
        x = np.array([np.nan, 1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            solve(inst, x0=x)
        with pytest.raises(ValueError, match="NaN"):
            eps_certificate(inst, x, 1.0)

    @pytest.mark.parametrize("name", ["log", "exp", "affine"])
    def test_infinite_start_is_projected(self, name):
        inst = FAMILIES[name](3, 0)
        res, _ = solve(inst, x0=np.array([np.inf, -np.inf, 2.0]))
        assert res.x0_projected
        assert res.status is SolveStatus.CONVERGED


class TestTraceConsistency:
    def test_columns_tie_together(self):
        inst = log_cost_market(12, 14)
        res, trace = solve(inst, SolverConfig(eps=1e-4, record_iterates=True))
        np.testing.assert_allclose(trace.residual, trace.step_norm / trace.c, rtol=1e-14)
        recomputed = np.minimum.accumulate(trace.step_norm**2 / (2 * trace.c))
        np.testing.assert_allclose(trace.delta, recomputed, rtol=1e-14)
        assert len(trace.iterates) == len(trace) + 1
        np.testing.assert_array_equal(trace.iterates[-1], res.x)
        assert res.final_residual == trace.residual[-1]

    def test_iterate_recording_defaults_off_for_large_n(self):
        # off by default at every n, small ones included
        for n in (101, 5):
            inst = log_cost_market(n, 15)
            _, trace = solve(inst, SolverConfig(eps=1e-2))
            assert trace.iterates is None
            _, trace2 = solve(inst, SolverConfig(eps=1e-2, record_iterates=True))
            assert trace2.iterates is not None

    def test_unbounded_box_skips_bound_column(self):
        cost = AffineCost(mu_h=np.full(2, 2.0))
        inst = MarketInstance(
            beta=0.1, alpha0=10.0, mu=0.0, lower=0.0, upper=np.inf, cost=cost
        )
        res, trace = solve(inst, SolverConfig(eps=1e-8), x0=np.zeros(2))
        assert res.status is SolveStatus.CONVERGED
        assert np.all(np.isnan(trace.bound_rhs))


class TestScalarParameters:
    # a scalar parameter is stored once as a stride-0 view; the same market
    # from dense vectors must give the same bits everywhere
    @pytest.mark.parametrize(
        "make",
        [log_cost_market, exp_cost_market, lambda n, seed: affine_market(n)],
        ids=["log", "exp", "affine"],
    )
    def test_scalar_and_vector_markets_agree_bit_for_bit(self, make):
        inst = make(300, 4)
        # replace() passes each stored vector back through construction, which copies it
        dense = dataclasses.replace(inst, cost=dataclasses.replace(inst.cost))
        assert inst.lower.strides == inst.mu.strides == (0,)
        assert dense.lower.strides == dense.mu.strides == (8,)
        scalar = "mu_h" if isinstance(inst.cost, AffineCost) else "c0"
        assert getattr(inst.cost, scalar).strides == (0,)
        assert getattr(dense.cost, scalar).strides == (8,)
        assert gamma_lower_bound(inst).hex() == gamma_lower_bound(dense).hex()
        for splitting in Splitting:
            for policy in StepPolicy:
                cfg = SolverConfig(step_policy=policy, splitting=splitting)
                (res, trace), (res_d, trace_d) = solve(inst, cfg), solve(dense, cfg)
                assert res.x.tobytes() == res_d.x.tobytes()
                assert res.certificate.hex() == res_d.certificate.hex()
                assert (res.iterations, res.trials) == (res_d.iterations, res_d.trials)
                for col in ("gamma", "step_norm", "c"):
                    assert getattr(trace, col).tobytes() == getattr(trace_d, col).tobytes()
                assert trace.gamma_lb.hex() == trace_d.gamma_lb.hex()
                assert nash_gap(inst, res.x) == nash_gap(dense, res.x)
