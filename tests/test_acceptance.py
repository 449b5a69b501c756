"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Figures-level iteration counts and CPU times are hardware
and seed dependent, so scaling runs are checked qualitatively (finite
termination, recorded growth) while everything else is oracle- or
property-based at fixed tolerances.
"""

import dataclasses
import time

import numpy as np

from cournotprox import (
    SolveStatus,
    SolverConfig,
    Splitting,
    StepPolicy,
    classical_equilibrium,
    eps_certificate,
    gamma_lower_bound,
    nash_gap,
    potential_gamma,
    prox_step,
    solve,
)
from cournotprox.experiments import (
    ExampleFamily,
    ExperimentConfig,
    affine_market,
    exp_cost_market,
    log_cost_market,
    run_experiment,
)
from oracles import (
    affine_equilibrium,
    brute_force_stationary_points,
    cost_gradient,
    cost_value,
    decrease_rhs,
    dphi_directional,
    exact_decrease_rhs,
    fd_gradient_check,
    grad_gamma,
    gradient_mapping,
    lipschitz_gamma,
)


def _passed(name):
    print(f"\n[ACCEPTANCE PASS] {name}")


def family_instances(n, seed):
    return {
        "affine": affine_market(n, mu=np.random.default_rng(seed).uniform(0.0, 5.0, n)),
        "log": log_cost_market(n, seed),
        "exp": exp_cost_market(n, seed),
    }


def test_convex_oracle_equivalence():
    # both splittings against the sorted-breakpoint reference, which shares no
    # code with the solver's steps or with classical_equilibrium
    t0 = time.perf_counter()
    for n in (1, 2, 5, 20, 100):
        if n == 5:
            inst = affine_market(5, mu=2.0)
        else:
            inst = affine_market(n, mu=np.random.default_rng(100 + n).uniform(0.0, 5.0, n))
        star = affine_equilibrium(inst)
        assert np.max(np.abs(classical_equilibrium(inst) - star)) <= 1e-9
        for splitting in Splitting:
            res, _ = solve(inst, SolverConfig(eps=1e-8, splitting=splitting))
            assert res.status is SolveStatus.CONVERGED
            assert np.max(np.abs(res.x - star)) <= 1e-6, f"oracle mismatch at n={n}, {splitting}"
            if n == 5:
                closed_form = (10.0 - 2.0) / (6 * 0.1)
                assert np.max(np.abs(res.x - closed_form)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"
    _passed(f"convex-oracle equivalence (both splittings, n in 1..100, sup-err <= 1e-6, "
            f"{elapsed:.2f}s)")


def _descent_suite(splitting, L_of, rhs):
    checked_fixed = checked_ls = 0
    for make in (log_cost_market, exp_cost_market):
        for seed in range(20):
            inst = make(50, seed)
            c = 1.0 / L_of(inst)
            cfg = SolverConfig(eps=1e-3, record_iterates=True, splitting=splitting)
            res, trace = solve(inst, cfg)
            gammas = np.append(trace.gamma, res.gamma_final)
            drop = 0.5 * trace.c * trace.residual**2
            assert np.all(trace.c == c)
            assert np.all(gammas[1:] <= gammas[:-1] - drop + 1e-9), f"descent broke: seed {seed}"
            checked_fixed += len(trace)

            cfg = SolverConfig(
                step_policy=StepPolicy.LINE_SEARCH, eps=1e-3, record_iterates=True,
                splitting=splitting,
            )
            res_ls, tr_ls = solve(inst, cfg)
            for k in range(len(tr_ls)):
                x, s, ck = tr_ls.iterates[k], tr_ls.iterates[k + 1], tr_ls.c[k]
                assert (
                    potential_gamma(inst, s) <= rhs(inst, x, s, ck) + 1e-9
                ), f"accepted step without sufficient decrease: seed {seed}, k={k}"
            checked_ls += len(tr_ls)
    return checked_fixed, checked_ls


def test_descent_suite():
    checked_fixed, checked_ls = _descent_suite(Splitting.PAPER, lipschitz_gamma, decrease_rhs)
    _passed(
        f"descent suite (40 runs/policy at n=50: {checked_fixed} fixed steps monotone, "
        f"{checked_ls} line-search steps pass sufficient decrease)"
    )


def test_descent_suite_exact_coupling():
    checked_fixed, checked_ls = _descent_suite(
        Splitting.EXACT_COUPLING, lambda inst: inst.cost.lipschitz_on(0.0), exact_decrease_rhs
    )
    _passed(
        f"exact-coupling descent suite (40 runs/policy at n=50: {checked_fixed} fixed steps "
        f"monotone at c = 1/L_h, {checked_ls} line-search steps pass sufficient decrease)"
    )


def test_exact_coupling_default_on_sweep_instances():
    # the six instances of the log/exp sweeps to n=1e4: the default splitting
    # stops certified at 2*L_h*eps and ends no farther than the paper's
    # splitting from an eps=1e-10 reference, in the iterate and the potential
    worst_gap = 0.0
    for make in (log_cost_market, exp_cost_market):
        for n in (100, 1000, 10_000):
            inst = make(n, 0)
            ref, _ = solve(inst, SolverConfig(eps=1e-10, record_bound=False))
            assert ref.status is SolveStatus.CONVERGED
            cfg = SolverConfig(eps=1e-3, record_bound=False)
            exact, _ = solve(inst, cfg)
            paper, _ = solve(inst, dataclasses.replace(cfg, splitting=Splitting.PAPER))
            assert exact.status is SolveStatus.CONVERGED
            assert exact.certificate <= 2.0 * inst.cost.lipschitz_on(0.0) * cfg.eps
            assert np.max(np.abs(exact.x - ref.x)) <= np.max(np.abs(paper.x - ref.x))
            assert exact.gamma_final - ref.gamma_final <= paper.gamma_final - ref.gamma_final
            worst_gap = max(worst_gap, exact.gamma_final - ref.gamma_final)
    _passed(f"exact-coupling default on the six sweep instances (excess <= {worst_gap:.1e})")


def test_best_step_bound_on_runs():
    t0 = time.perf_counter()
    for seed in range(5):
        inst = log_cost_market(100, seed)
        res, trace = solve(inst, SolverConfig(eps=1e-3))
        assert res.status is SolveStatus.CONVERGED
        lb = gamma_lower_bound(inst, 1024)
        ks = np.arange(len(trace))
        rhs = (trace.gamma[0] - lb) / (ks + 1)
        assert np.all(trace.delta <= rhs), f"bound violated for seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(f"best-step bound delta_k <= (gamma0 - lb)/(k+1) on 5 runs at n=100 ({elapsed:.2f}s)")


def test_inequality_suite():
    rng = np.random.default_rng(2024)
    for name, inst in family_instances(12, 55).items():
        L = lipschitz_gamma(inst)
        X = rng.uniform(inst.lower, inst.upper, (100, 12))
        Y = rng.uniform(inst.lower, inst.upper, (100, 12))

        # slope toward the anchor, three damping levels
        for frac in (0.1, 0.5, 1.0):
            c = frac / L
            for x in X:
                s = prox_step(inst, x, c)
                assert dphi_directional(inst, s, x - s) >= (1.0 / c - L) * float(
                    (x - s) @ (x - s)
                ) - 1e-9

        # slope toward arbitrary points, and its unit-direction consequence
        c = 1.0 / L
        for x, y in zip(X, Y):
            s = prox_step(inst, x, c)
            G = np.linalg.norm(gradient_mapping(inst, x, c))
            nd = np.linalg.norm(y - s)
            assert dphi_directional(inst, s, y - s) >= -(1.0 + c * L) * G * nd - 1e-9
            if nd > 0:
                assert dphi_directional(inst, s, (y - s) / nd) >= -eps_certificate(
                    inst, x, c
                ) - 1e-9

        # local-model bounds: drop estimate (any c) and domination (damped c)
        for c in (0.5 / L, 1.0 / L):
            for x in X:
                s = prox_step(inst, x, c)
                G = np.linalg.norm(gradient_mapping(inst, x, c))
                lhs = decrease_rhs(inst, x, s, c)
                assert lhs <= potential_gamma(inst, x) - 0.5 * c * G**2 + 1e-9
                assert potential_gamma(inst, s) <= lhs + 1e-9

        # linearization error of the cost against its curvature bound
        Lh = inst.cost.lipschitz_on(0.0)
        lin = cost_value(inst.cost, X) + np.sum(cost_gradient(inst.cost, X) * (Y - X), axis=1)
        assert np.all(
            np.abs(cost_value(inst.cost, Y) - lin) <= 0.5 * Lh * np.sum((Y - X) ** 2, axis=1) + 1e-9
        )

        # damping monotonicity over the nine-point grid
        cs = 2.0 ** np.arange(-4, 5) / L
        for x in X:
            e = np.array([np.linalg.norm(gradient_mapping(inst, x, c)) for c in cs])
            r = np.array([np.linalg.norm(x - prox_step(inst, x, c)) for c in cs])
            assert np.all(np.diff(e) <= 1e-10)
            assert np.all(np.diff(r) >= -1e-10)
    _passed("inequality suite (slope bounds, model bounds, linearization, damping monotonicity)")


def test_gradient_validation():
    rng = np.random.default_rng(77)
    for name, inst in family_instances(10, 66).items():
        step = 1e-5
        shifts = step * np.eye(10)
        for _ in range(100):
            x = rng.uniform(inst.lower + step, inst.upper - step)
            assert fd_gradient_check(inst.cost, x, step) <= 1e-6, name
            fd = (potential_gamma(inst, x + shifts) - potential_gamma(inst, x - shifts)) / (
                2 * step
            )
            g = grad_gamma(inst, x)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g), name
    _passed("gradient validation (cost and potential match central differences, rel <= 1e-6)")


def test_stationarity_certification():
    # residuals across damping levels at tightly converged points
    for inst in (affine_market(20, mu=3.0), log_cost_market(10, 1), exp_cost_market(10, 2)):
        res, _ = solve(inst, SolverConfig(eps=1e-10))
        assert res.status is SolveStatus.CONVERGED
        L = lipschitz_gamma(inst)
        for frac in (0.1, 1.0, 10.0):
            assert np.linalg.norm(res.x - prox_step(inst, res.x, frac / L)) <= 1e-6

    # desk-scale cross-check against the grid oracle
    for make, n, seed in ((log_cost_market, 1, 0), (log_cost_market, 2, 3), (exp_cost_market, 2, 4)):
        inst = make(n, seed)
        res, _ = solve(inst, SolverConfig(eps=1e-8))
        pts = brute_force_stationary_points(inst, 201)
        assert pts.size > 0
        spacing = float(np.max((inst.upper - inst.lower) / 200))
        assert np.min(np.linalg.norm(pts - res.x, axis=1)) <= spacing * np.sqrt(n)
    _passed("stationarity certification (residuals <= 1e-6 across c grid; limits in oracle cells)")


def test_global_equilibrium_consistency():
    worst_seen = 0.0
    for make in (log_cost_market, exp_cost_market):
        for seed in range(5):
            inst = make(10, seed)
            res, _ = solve(inst, SolverConfig(eps=1e-3))
            assert res.status is SolveStatus.CONVERGED
            hi = nash_gap(inst, res.x)[1]
            worst_seen = max(worst_seen, hi)
            assert hi <= 1e-3
    _passed(f"global-equilibrium consistency (10 runs, certified Nash gap <= {worst_seen:.2e} <= 1e-3)")


def test_large_scale_termination(tmp_path):
    t0 = time.perf_counter()
    table = []
    for family in (ExampleFamily.LOG, ExampleFamily.EXP):
        out = tmp_path / family.value
        cfg = ExperimentConfig(
            example=family,
            sweep=(10, 50, 100, 500, 1000),
            eps=1e-3,
            max_iter=100_000,
            out_dir=out,
        )
        assert run_experiment(cfg) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 6
        for line in summary[1:]:
            fields = line.split(",")
            assert fields[2] == "Converged"
            table.append((family.value, fields[0], fields[3]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    listing = "; ".join(f"{f} n={n}: {it} iters" for f, n, it in table)
    _passed(f"large-scale termination in {elapsed:.1f}s ({listing})")


def test_determinism(tmp_path):
    bytes_seen = {}
    for tag in ("first", "second"):
        out = tmp_path / tag
        for family in (ExampleFamily.LOG, ExampleFamily.EXP):
            cfg = ExperimentConfig(
                example=family, sweep=(10, 25), seed=42, out_dir=out / family.value
            )
            assert run_experiment(cfg) == 0
            for trace in sorted((out / family.value).glob("trace_*.csv")):
                bytes_seen.setdefault((family.value, trace.name), []).append(trace.read_bytes())
    assert bytes_seen
    for key, contents in bytes_seen.items():
        assert contents[0] == contents[1], f"trace differs between runs: {key}"
    _passed("determinism (repeated runs emit byte-identical trace CSVs)")
