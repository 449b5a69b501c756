import csv
import io

import numpy as np
import pytest

from cournotprox import (
    AffineCost, IterationTrace, MarketInstance, SolverConfig, Splitting, StepPolicy, solve,
)
from cournotprox import experiments
from cournotprox.cli import main, parse_config_file
from cournotprox.experiments import (
    SUMMARY_FIELDS,
    TRACE_FIELDS,
    ExampleFamily,
    ExperimentConfig,
    X0Policy,
    affine_market,
    exp_cost_market,
    generate_instance,
    initial_point,
    log_cost_market,
    read_trace_csv,
    run_experiment,
    verify_run,
    write_trace_csv,
)
from oracles import affine_equilibrium, lipschitz_gamma


CHECKS = (
    "row index", "delta recompute", "residual recompute", "per-iteration bound",
    "potential monotone",
)


def read_summary(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_FIELDS
    return [dict(zip(SUMMARY_FIELDS, r)) for r in rows[1:]]


def assert_same_market(got, want):
    # bit for bit, dtype and stride-0 storage of a scalar included
    assert type(got.cost) is type(want.cost)
    cost_fields = ("mu_h", "xi") if isinstance(want.cost, AffineCost) else ("c0", "c", "r", "cr")
    pairs = [(getattr(got, f), getattr(want, f)) for f in
             ("beta", "alpha0", "mu", "lower", "upper", "alpha_tilde", "L_h", "_signed")]
    pairs += [(getattr(got.cost, f), getattr(want.cost, f)) for f in cost_fields]
    for mine, theirs in pairs:
        mine, theirs = np.asarray(mine), np.asarray(theirs)
        assert mine.dtype == theirs.dtype and mine.strides == theirs.strides
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


class TestInstanceFamilies:
    def test_log_parameters_in_range(self):
        inst = log_cost_market(50, 123)
        assert np.all(inst.cost.r > 1.0) and np.all(inst.cost.r < 2.0)
        assert inst.L_h <= 6.0
        assert inst.beta == 0.1 and inst.alpha0 == 10.0
        np.testing.assert_array_equal(inst.lower, np.zeros(50))
        np.testing.assert_array_equal(inst.upper, np.full(50, 10.0))

    def test_exp_parameters_in_range(self):
        inst = exp_cost_market(50, 123)
        assert np.all(inst.cost.r > 0.1) and np.all(inst.cost.r < 0.2)
        assert inst.L_h < 0.08

    def test_same_seed_bit_identical(self):
        a = log_cost_market(20, 7)
        b = log_cost_market(20, 7)
        np.testing.assert_array_equal(a.cost.r, b.cost.r)
        c = log_cost_market(20, 8)
        assert np.any(a.cost.r != c.cost.r)

    def test_generate_instance_dispatch(self):
        cfg = ExperimentConfig(example=ExampleFamily.EXP, seed=3)
        inst = generate_instance(cfg, 5)
        assert inst.n == 5
        np.testing.assert_array_equal(inst.cost.r, exp_cost_market(5, 3).cost.r)
        cfg_a = ExperimentConfig(example=ExampleFamily.AFFINE)
        assert generate_instance(cfg_a, 4).L_h == 0.0

    def test_generate_custom_instance(self):
        cfg = ExperimentConfig(
            example=ExampleFamily.EXP, seed=1,
            custom={"c0": 5.0, "c": 2.5, "r": 0.12, "upper": 20.0},
        )
        inst = generate_instance(cfg, 3)
        np.testing.assert_array_equal(inst.cost.r, np.full(3, 0.12))
        np.testing.assert_array_equal(inst.cost.c0, np.full(3, 5.0))
        np.testing.assert_array_equal(inst.upper, np.full(3, 20.0))
        with pytest.raises(ValueError, match="'bogus'"):
            ExperimentConfig(example=ExampleFamily.EXP, custom={"bogus": 1})

    @pytest.mark.parametrize("kind, custom", [
        ("log", {}), ("log", {"c0": 2.0, "c": 1.5, "upper": 10.0, "mu": 0.0, "r": None}),
        ("exp", {"c0": 4.0, "c": 2.0, "beta": 0.1, "lower": 0.0}),
        ("affine", {"mu": 2.0, "mu_h": 0.0, "xi": 0.0, "upper": 50.0}),
    ], ids=["no_keys", "log", "exp", "affine"])
    def test_custom_market_with_default_keys_is_the_family_market(self, kind, custom):
        # keys spelled at their defaults leave the r draw, the cost and the market and
        # box the family function's, bit for bit, stride-0 storage of a scalar included
        family = {"log": log_cost_market, "exp": exp_cost_market,
                  "affine": lambda n, seed: affine_market(n)}[kind]
        for n, seed in ((1, 0), (7, 3), (1000, 11)):
            cfg = ExperimentConfig(example=ExampleFamily(kind), seed=seed, custom=custom)
            assert_same_market(generate_instance(cfg, n), family(n, seed))

    @pytest.mark.parametrize("example, keys", [
        (ExampleFamily.LOG, {"beta": 0.2, "c0": 3.0, "r": np.linspace(1.0, 2.0, 5), "mu": 0.5}),
        (ExampleFamily.EXP, {"alpha0": 12.0, "lower": 1.0, "c": 1.0}),
        (ExampleFamily.AFFINE, {"mu": np.arange(5.0), "mu_h": 1.0, "xi": 0.5}),
    ], ids=["log", "exp", "affine"])
    def test_a_config_builds_the_market_a_direct_call_builds(self, example, keys):
        # one way to build a market: the config passes its keys to the family function
        cfg = ExperimentConfig(example=example, seed=4, custom=keys)
        family = {ExampleFamily.LOG: lambda n: log_cost_market(n, 4, **keys),
                  ExampleFamily.EXP: lambda n: exp_cost_market(n, 4, **keys),
                  ExampleFamily.AFFINE: lambda n: affine_market(n, **keys)}[example]
        assert_same_market(generate_instance(cfg, 5), family(5))

    def test_positional_arguments_keep_their_places(self):
        # market keys were appended: affine_market(5, 3.0) still sets mu
        assert affine_market(5, 3.0).mu[0] == 3.0
        assert log_cost_market(5, 0, 0.2, 11.0, 0.0, 9.0, 2.5, 1.0).cost.c0[0] == 2.5
        assert exp_cost_market(5, 0, 0.2, 11.0, 0.0, 9.0, 4.5, 1.0).cost.c[0] == 1.0

    def test_initial_point_policies(self):
        cfg = ExperimentConfig(example=ExampleFamily.LOG, seed=11)
        inst = generate_instance(cfg, 6)
        np.testing.assert_array_equal(initial_point(cfg, inst), np.zeros(6) + 5.0)
        cfg.x0 = X0Policy.ZERO
        np.testing.assert_array_equal(initial_point(cfg, inst), np.zeros(6))
        cfg.x0 = X0Policy.RANDOM
        a = initial_point(cfg, inst)
        b = initial_point(cfg, inst)
        np.testing.assert_array_equal(a, b)
        assert inst.contains(a)
        assert np.any(a != 5.0)

    def test_random_start_needs_a_bounded_box(self):
        cfg = ExperimentConfig(
            example=ExampleFamily.AFFINE, x0=X0Policy.RANDOM, custom={"upper": float("inf")},
        )
        with pytest.raises(ValueError, match="bounded box"):
            initial_point(cfg, generate_instance(cfg, 2))

    @pytest.mark.parametrize("example, key", [
        (ExampleFamily.LOG, "mu_h"), (ExampleFamily.AFFINE, "c0"), (ExampleFamily.EXP, "cost"),
        (ExampleFamily.LOG, "n"), (ExampleFamily.LOG, "seed_or_rng"),
    ], ids=["mu_h_on_log", "c0_on_affine", "cost_on_exp", "n", "seed_or_rng"])
    def test_a_key_of_another_family_is_refused_by_name(self, example, key):
        # the size and the seed come from the run, not from a market key
        with pytest.raises(ValueError, match=rf"'{key}' for example = {example.value}$"):
            ExperimentConfig(example=example, sweep=(3,), custom={key: 1.0})

    @pytest.mark.parametrize("field, value", [
        ("example", "exp"), ("example", "custom"), ("x0", "center"), ("x0", "zero"),
        ("trace", "off"), ("trace", 0),
    ], ids=["example_str", "example_custom", "x0_center_str", "x0_zero_str", "trace_str",
            "trace_int"])
    def test_a_misread_enum_or_bool_is_refused_by_name(self, field, value):
        # a plain string is no member: read as one, "exp" would reach the wrong branch
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            ExperimentConfig(sweep=(3,), **{field: value})

    def test_the_solver_defaults_are_the_solver_configs(self):
        # each solver knob's default is written once, on SolverConfig
        assert ExperimentConfig().solver_config() == SolverConfig()

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(sweep=(10, 10))
        with pytest.raises(ValueError):
            ExperimentConfig(sweep=(50, 10))
        with pytest.raises(ValueError):
            ExperimentConfig(sweep=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(eps=0.0)
        with pytest.raises(ValueError, match="sweep"):
            run_experiment(ExperimentConfig(out_dir=tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "sizes",
        [{"sweep": (2.5,)}, {"sweep": ("3",)}, {"sweep": (2.9, 3.5)},
         {"sweep": (10, np.float64(20.0))}, {"sweep": (True,)}, {"sweep": (True, 2)}],
        ids=["n_float", "n_str", "sweep_floats", "sweep_numpy_float", "n_bool", "sweep_bool"],
    )
    def test_non_integer_sizes_are_rejected(self, sizes):
        # truncating 2.5 to 2 would solve a 2-firm market under an n = 2.5 label
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig(example=ExampleFamily.LOG, **sizes)

    def test_integer_sizes_are_plain_ints(self):
        cfg = ExperimentConfig(sweep=(np.int32(2), np.int64(3), 5))
        assert cfg.sweep == (2, 3, 5)
        assert all(type(v) is int for v in cfg.sweep)

    @pytest.mark.parametrize(
        "seed", [2.5, 2.0, "3", True], ids=["float", "integral_float", "str", "bool"]
    )
    def test_non_integer_seed_is_rejected(self, seed):
        # numpy's SeedSequence would refuse it only once the run starts
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentConfig(example=ExampleFamily.LOG, sweep=(3,), seed=seed)

    def test_seed_is_a_plain_non_negative_int(self):
        cfg = ExperimentConfig(example=ExampleFamily.LOG, sweep=(3,), seed=np.int64(4))
        assert cfg.seed == 4 and type(cfg.seed) is int
        with pytest.raises(ValueError, match="non-negative"):
            ExperimentConfig(example=ExampleFamily.LOG, sweep=(3,), seed=-1)

    @pytest.mark.parametrize("example", list(ExampleFamily))
    def test_generate_instance_rejects_a_non_integer_n(self, example):
        cfg = ExperimentConfig(example=example)
        with pytest.raises(ValueError, match="integer"):
            generate_instance(cfg, 2.5)
        assert generate_instance(cfg, np.int64(2)).n == 2


class TestRunExperiment:
    def test_affine_sweep_with_oracle_column(self, tmp_path):
        # the paper's step shares no code with the oracle; the default's root
        # finder is the oracle's, which TestClassicalEquilibrium checks on its own
        for splitting in Splitting:
            out = tmp_path / splitting.value
            cfg = ExperimentConfig(
                example=ExampleFamily.AFFINE, sweep=(1, 2, 5), eps=1e-8, out_dir=out,
                splitting=splitting,
            )
            assert run_experiment(cfg) == 0
            rows = read_summary(out / "summary.csv")
            assert [r["n"] for r in rows] == ["1", "2", "5"]
            for r in rows:
                assert r["status"] == "Converged"
                assert float(r["oracle_err"]) <= 1e-6
                assert r["bound_ok"] == "1"
                assert r["splitting"] == splitting.value
            assert (out / "trace_affine_n5_seed0.csv").exists()

    def test_nonconvex_sweep(self, tmp_path):
        cfg = ExperimentConfig(example=ExampleFamily.LOG, sweep=(10, 30), out_dir=tmp_path, seed=5)
        assert run_experiment(cfg) == 0
        rows = read_summary(tmp_path / "summary.csv")
        assert all(r["status"] == "Converged" for r in rows)
        assert all(r["oracle_err"] == "" for r in rows)
        assert all(int(r["iterations"]) >= 1 for r in rows)

    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    def test_summary_records_certificate_and_trials(self, tmp_path, policy):
        cfg = ExperimentConfig(
            example=ExampleFamily.EXP, sweep=(10, 30), step_policy=policy, out_dir=tmp_path, seed=2
        )
        assert run_experiment(cfg) == 0
        for row in read_summary(tmp_path / "summary.csv"):
            res, _ = solve(generate_instance(cfg, int(row["n"])), cfg.solver_config())
            assert float(row["certificate"]) == res.certificate
            assert int(row["trials"]) == res.trials
            if policy is StepPolicy.FIXED:
                # one prox step per iteration, and here one Newton trial besides
                assert (res.iterations, res.trials) == {10: (3, 4), 30: (4, 5)}[int(row["n"])]
            else:
                assert res.trials >= res.iterations

    @pytest.mark.parametrize("policy", [StepPolicy.FIXED, StepPolicy.LINE_SEARCH])
    def test_summary_records_curvature_damping_and_lower_bound(self, tmp_path, policy):
        cfg = ExperimentConfig(
            example=ExampleFamily.LOG, sweep=(5, 20), step_policy=policy, out_dir=tmp_path, seed=3
        )
        assert run_experiment(cfg) == 0
        for row in read_summary(tmp_path / "summary.csv"):
            inst = generate_instance(cfg, int(row["n"]))
            res, trace = solve(inst, cfg.solver_config())
            assert float(row["L_gamma"]) == lipschitz_gamma(inst)
            assert float(row["c_final"]) == res.c_final == trace.c[-1]
            assert float(row["gamma_lb"]) == trace.gamma_lb

    @pytest.mark.parametrize("splitting", list(Splitting))
    def test_summary_L_is_the_bound_that_sized_the_fixed_damping(self, tmp_path, splitting):
        cfg = ExperimentConfig(
            example=ExampleFamily.EXP, sweep=(5, 20), out_dir=tmp_path, seed=1, splitting=splitting
        )
        assert run_experiment(cfg) == 0
        for row in read_summary(tmp_path / "summary.csv"):
            inst = generate_instance(cfg, int(row["n"]))
            L = float(row["L"])
            assert L > 0.0
            assert float(row["c_final"]) == 1.0 / L
            assert L == (inst.L_h if splitting is Splitting.EXACT_COUPLING else lipschitz_gamma(inst))
            assert float(row["L_gamma"]) == lipschitz_gamma(inst)

    def test_summary_leaves_gamma_lb_empty_on_an_unbounded_box(self, tmp_path):
        cfg = ExperimentConfig(
            example=ExampleFamily.AFFINE, sweep=(3,), eps=1e-8, out_dir=tmp_path,
            custom={"mu_h": 2.0, "upper": float("inf")},
        )
        assert run_experiment(cfg) == 0
        (row,) = read_summary(tmp_path / "summary.csv")
        assert row["gamma_lb"] == ""
        assert float(row["L_gamma"]) == lipschitz_gamma(generate_instance(cfg, 3))

    def test_an_affine_run_with_keys_is_oracle_checked(self, tmp_path, monkeypatch):
        keys = {"mu": 3.0, "mu_h": 1.0, "xi": 0.5, "upper": 20.0}
        cfg = ExperimentConfig(example=ExampleFamily.AFFINE, sweep=(1, 5), eps=1e-8,
                               out_dir=tmp_path, custom=keys)
        assert run_experiment(cfg) == 0
        for row in read_summary(tmp_path / "summary.csv"):
            star = affine_equilibrium(affine_market(int(row["n"]), **keys))
            res, _ = solve(generate_instance(cfg, int(row["n"])), cfg.solver_config())
            assert float(row["oracle_err"]) <= 1e-6 and np.max(np.abs(res.x - star)) <= 1e-6
        # the check bites: an oracle one unit off fails the run
        oracle = experiments.prox_step
        monkeypatch.setattr(experiments, "prox_step", lambda *a: oracle(*a) + 1.0)
        assert run_experiment(cfg) == 1
        assert all(float(r["oracle_err"]) > 0.5 for r in read_summary(tmp_path / "summary.csv"))

    def test_center_sweep_projects_no_start(self, tmp_path, monkeypatch):
        # solve's default start is the midpoint run_experiment would pass, so
        # a CENTER sweep hands over none and nothing clips it again
        calls = []
        project = MarketInstance.project

        def counting_project(inst, x):
            calls.append(inst.n)
            return project(inst, x)

        monkeypatch.setattr(MarketInstance, "project", counting_project)
        cfg = ExperimentConfig(example=ExampleFamily.LOG, sweep=(5, 20), out_dir=tmp_path / "c")
        assert run_experiment(cfg) == 0
        assert calls == []
        cfg = ExperimentConfig(
            example=ExampleFamily.LOG, sweep=(5, 20), x0=X0Policy.ZERO, out_dir=tmp_path / "z"
        )
        assert run_experiment(cfg) == 0
        assert calls  # the counter sees the projections of the other policies

    def test_empty_sweep_header_only(self, tmp_path):
        cfg = ExperimentConfig(example=ExampleFamily.LOG, sweep=(), out_dir=tmp_path)
        assert run_experiment(cfg) == 0
        assert read_summary(tmp_path / "summary.csv") == []

    def test_failure_exit_code(self, tmp_path):
        cfg = ExperimentConfig(
            example=ExampleFamily.EXP, sweep=(40,), eps=1e-10, max_iter=3, out_dir=tmp_path
        )
        assert run_experiment(cfg) == 1
        rows = read_summary(tmp_path / "summary.csv")
        assert rows[0]["status"] == "MaxIter"

    def test_bound_check_agrees_with_verify(self, tmp_path, monkeypatch):
        # a budget near 1e8 has an ulp above 1e-12: delta one ulp over it is
        # rounding, so the summary and --verify must both pass the row
        inst = log_cost_market(3, 0)
        res, _ = solve(inst)
        trace = IterationTrace(
            gamma=np.array([np.nextafter(1e8, 0.0)]), step_norm=np.array([1e4]),
            c=np.array([0.5]), gamma_lb=0.0,
        )
        assert trace.delta[0] > trace.bound_rhs[0] + 1e-12
        monkeypatch.setattr(experiments, "solve", lambda *args: (res, trace))
        cfg = ExperimentConfig(example=ExampleFamily.LOG, sweep=(3,), out_dir=tmp_path)
        assert run_experiment(cfg) == 0
        (row,) = read_summary(tmp_path / "summary.csv")
        assert row["bound_ok"] == "1"
        report = verify_run(tmp_path / "trace_log_n3_seed0.csv")
        assert report.failures["per-iteration bound"] is None

    def test_trace_off_writes_summary_only(self, tmp_path):
        cfg = ExperimentConfig(example=ExampleFamily.LOG, sweep=(5,), out_dir=tmp_path, trace=False)
        run_experiment(cfg)
        assert not list(tmp_path.glob("trace_*.csv"))
        assert (tmp_path / "summary.csv").exists()


def csv_writer_bytes(trace):
    # the reference: every cell through csv.writer, a float in 17 significant digits
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_FIELDS)
    columns = (trace.gamma, trace.step_norm, trace.c, trace.residual, trace.delta,
               trace.bound_rhs)
    for k, row in enumerate(zip(*columns)):
        writer.writerow([k, *(f"{float(v):.17g}" for v in row)])
    return buf.getvalue().encode()


class TestTraceCSV:
    @pytest.mark.parametrize("inst, config", [
        (log_cost_market(8, 2), SolverConfig(eps=1e-4)),
        # a NaN in every bound_rhs cell
        (log_cost_market(8, 2), SolverConfig(eps=1e-4, splitting=Splitting.PAPER,
                                             record_bound=False)),
        (affine_market(8), SolverConfig()),  # c = inf on every row
    ], ids=["log", "no_bound", "affine_c_inf"])
    def test_round_trip_is_exact(self, tmp_path, inst, config):
        _, trace = solve(inst, config)
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == csv_writer_bytes(trace)
        cols = read_trace_csv(path)
        assert list(cols) == TRACE_FIELDS
        np.testing.assert_array_equal(cols["gamma"], trace.gamma)
        np.testing.assert_array_equal(cols["step_norm"], trace.step_norm)
        np.testing.assert_array_equal(cols["c_k"], trace.c)
        np.testing.assert_array_equal(cols["delta_k"], trace.delta)
        np.testing.assert_array_equal(cols["bound_rhs"], trace.bound_rhs)

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = ExperimentConfig(
                example=ExampleFamily.EXP, sweep=(5, 12), seed=9, out_dir=out,
                x0=X0Policy.RANDOM,
            )
            assert run_experiment(cfg) == 0
        for name in ("trace_exp_n5_seed9.csv", "trace_exp_n12_seed9.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # summaries agree except for wall time
        rows_a, rows_b = read_summary(out_a / "summary.csv"), read_summary(out_b / "summary.csv")
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("time_ms"), rb.pop("time_ms")
            assert ra == rb

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,gamma,step_norm,c_k,residual_G,delta_k,bound_rhs\n0,1,2,3,4,5,6\n1,x,2,3,4,5,6\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            read_trace_csv(path)
        path.write_text("wrong,header\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1"):
            read_trace_csv(path)
        path.write_text("k,gamma,step_norm,c_k,residual_G,delta_k,bound_rhs\n0,1\n")
        with pytest.raises(ValueError, match="expected 7 fields"):
            read_trace_csv(path)


class TestVerifyRun:
    def make_trace(self, tmp_path, **cfg_kwargs):
        cfg = ExperimentConfig(
            example=ExampleFamily.LOG, sweep=(12,), seed=4, out_dir=tmp_path, **cfg_kwargs
        )
        assert run_experiment(cfg) == 0
        return tmp_path / "trace_log_n12_seed4.csv"

    def test_clean_trace_passes(self, tmp_path):
        report = verify_run(self.make_trace(tmp_path))
        assert report.passed
        assert report.failures == dict.fromkeys(CHECKS)  # every check ran and passed
        assert "PASS" in str(report)

    def test_delta_recompute_is_exact(self, tmp_path):
        path = self.make_trace(tmp_path)
        cols = read_trace_csv(path)
        recomputed = np.minimum.accumulate(cols["step_norm"] ** 2 / (2 * cols["c_k"]))
        assert np.max(np.abs(recomputed - cols["delta_k"])) <= 1e-12

    def test_corrupted_gamma_detected_at_row(self, tmp_path):
        path = self.make_trace(tmp_path)
        lines = path.read_text().splitlines()
        j = 3  # corrupt the potential at data row 3 (0-based row index in the trace)
        fields = lines[1 + j].split(",")
        fields[1] = repr(float(fields[1]) + 1e6)
        lines[1 + j] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        report = verify_run(path)
        assert report.failures["potential monotone"] == j
        assert not report.passed
        assert "FAIL" in str(report)

    def test_corrupted_residual_detected_at_row(self, tmp_path):
        path = self.make_trace(tmp_path)
        lines = path.read_text().splitlines()
        j = 2  # tamper with one residual_G cell; every other column stays consistent
        fields = lines[1 + j].split(",")
        fields[4] = repr(float(fields[4]) * (1.0 + 1e-6))
        lines[1 + j] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        report = verify_run(path)
        assert report.failures == {**dict.fromkeys(CHECKS), "residual recompute": j}
        assert not report.passed
        assert f"residual recompute: FAIL (row {j})" in str(report)

    @pytest.mark.parametrize("column", ["gamma", "step_norm", "residual_G", "delta_k"])
    def test_nan_cell_is_detected_at_its_row(self, tmp_path, column, capsys):
        # NaN compares false both ways: a check written as "beyond tolerance" passes it
        path = self.make_trace(tmp_path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")  # data row 1
        fields[TRACE_FIELDS.index(column)] = "nan"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        report = verify_run(path)
        assert not report.passed
        checked = ("delta recompute", "residual recompute", "potential monotone")
        rows = {report.failures[name] for name in checked} - {None}
        assert rows == {1}
        assert main(["--verify", str(path)]) == 1
        assert "FAIL (row 1)" in capsys.readouterr().out

    @staticmethod
    def set_cell(path, row, column, text):
        lines = path.read_text().splitlines()
        fields = lines[1 + row].split(",")
        fields[TRACE_FIELDS.index(column)] = text
        lines[1 + row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "column, text",
        [("bound_rhs", "nan"), ("bound_rhs", "123.0"), ("bound_rhs", "-5.0"), ("k", "7")],
    )
    def test_every_stored_column_is_checked(self, tmp_path, column, text, capsys):
        # a budget too loose, negative or missing on one row, or a row number out of
        # sequence, is caught at that row: no recomputed column reads them
        path = self.make_trace(tmp_path)
        self.set_cell(path, 2, column, text)
        assert not verify_run(path).passed
        assert main(["--verify", str(path)]) == 1
        assert "FAIL (row 2)" in capsys.readouterr().out

    def test_a_trace_without_a_bound_holds_only_nan_budgets(self, tmp_path):
        inst = log_cost_market(12, 4)
        _, trace = solve(inst, SolverConfig(record_bound=False))
        assert trace.gamma_lb is None and len(trace) > 3
        path = tmp_path / "unbounded.csv"
        write_trace_csv(path, trace)
        report = verify_run(path)
        assert report.passed and "per-iteration bound" not in report.failures
        self.set_cell(path, 2, "bound_rhs", "1.0")
        report = verify_run(path)
        assert not report.passed
        assert "per-iteration bound: FAIL (row 2)" in str(report)

    @pytest.mark.parametrize("case, code, expected", [
        ("clean", 0, ["PASS", "PASS", "PASS", "PASS", "PASS"]),
        ("corrupted", 1, ["FAIL (row 4)", "PASS", "FAIL (row 2)", "FAIL (row 1)", "FAIL (row 3)"]),
        ("unbounded", 0, ["PASS", "PASS", "PASS", "SKIPPED", "PASS"]),
    ])
    def test_printed_report(self, tmp_path, capsys, case, code, expected):
        # the text --verify prints, line by line, for a trace that passes, one that
        # fails four checks at once, and one without a lower bound
        if case == "unbounded":
            _, trace = solve(log_cost_market(12, 4), SolverConfig(record_bound=False))
            path = tmp_path / "unbounded.csv"
            write_trace_csv(path, trace)
        else:
            path = self.make_trace(tmp_path)
        if case == "corrupted":
            self.set_cell(path, 3, "gamma", "1e9")
            self.set_cell(path, 2, "residual_G", "0.5")
            self.set_cell(path, 1, "bound_rhs", "nan")
            self.set_cell(path, 4, "k", "7")
        assert main(["--verify", str(path)]) == code
        lines = [f"trace: {path} (5 rows)"]
        lines += [f"{name}: {verdict}" for name, verdict in zip(CHECKS, expected)]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_single_row_trace_trivially_passes(self, tmp_path):
        inst = affine_market(3, mu=2.0)
        res, trace = solve(inst, SolverConfig(eps=1e-3), x0=affine_equilibrium(inst))
        assert len(trace) == 1
        path = tmp_path / "single.csv"
        write_trace_csv(path, trace)
        assert verify_run(path).passed

    def test_line_search_trace_passes(self, tmp_path):
        path = self.make_trace(tmp_path, step_policy=StepPolicy.LINE_SEARCH)
        assert verify_run(path).passed


class TestCli:
    def test_run_and_verify(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["--example", "affine", "--sweep", "1,2", "--eps", "1e-8", "--out", str(out)]
        )
        assert code == 0
        assert (out / "summary.csv").exists()
        trace = out / "trace_affine_n1_seed0.csv"
        assert trace.exists()
        assert main(["--verify", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# comment line\n"
            "example = log\n"
            "n = 4\n"
            "seed = 2\n"
            "eps = 1e-4\n"
            "c0 = 2.5\n"
            "c = 1.5\n"
            "upper = 12\n"
        )
        out = tmp_path / "o"
        code = main(["--config", str(cfgfile), "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = read_summary(out / "summary.csv")
        assert rows[0]["seed"] == "7"  # flag wins over file
        assert rows[0]["n"] == "4"
        # the file's market keys reach the family function as numbers
        inst = log_cost_market(4, 7, c0=2.5, c=1.5, upper=12.0)
        res, _ = solve(inst, SolverConfig(eps=1e-4))
        assert float(rows[0]["certificate"]) == res.certificate
        assert float(rows[0]["L"]) == inst.L_h

    def test_missing_size_is_an_error(self, tmp_path, capsys):
        assert main(["--example", "log", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, keys", [
        (["--n", "5", "--sweep", "10,20"], ""), ([], "n = 5\nsweep = 10,20\n"),
    ], ids=["flags", "file_keys"])
    def test_both_sizes_from_one_place_exit_2(self, tmp_path, capsys, flags, keys):
        # --n N is the sweep N: given beside --sweep, one of the two would be dropped
        cfgfile = tmp_path / "sizes.cfg"
        cfgfile.write_text(f"example = log\n{keys}")
        argv = ["--config", str(cfgfile), *flags, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "both n and sweep" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys, flags, sizes", [
        ("n = 4", ["--sweep", "5,6"], ["5", "6"]),
        ("sweep = 5,6", ["--n", "4"], ["4"]),
        ("sweep = 5,6", ["--sweep", "3"], ["3"]),
        ("n = 4", [], ["4"]),
    ], ids=["sweep_flag_over_n_key", "n_flag_over_sweep_key", "sweep_over_sweep", "file_only"])
    def test_a_size_flag_overrides_the_files_size(self, tmp_path, keys, flags, sizes):
        cfgfile = tmp_path / "sizes.cfg"
        cfgfile.write_text(f"example = log\n{keys}\n")
        assert main(["--config", str(cfgfile), *flags, "--out", str(tmp_path / "o")]) == 0
        assert [r["n"] for r in read_summary(tmp_path / "o" / "summary.csv")] == sizes

    @pytest.mark.parametrize("flags, key", [
        (["--n", "2.5"], "n"), (["--n", "x"], "n"), (["--n", "3", "--seed", "1.5"], "seed"),
        (["--n", "3", "--eps", "abc"], "eps"),
    ], ids=["n_float", "n_word", "seed_float", "eps_word"])
    def test_non_integer_size_or_seed_flag_exits_2(self, tmp_path, capsys, flags, key):
        # the flags' strings are converted with the file's, so a bad one is a
        # bad setting, and the error names it
        argv = ["--example", "log", *flags, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys, key", [
        ("example = log\nn = 2.5\n", "n"),
        ("example = log\nn = 3\neps = abc\n", "eps"),
        ("example = log\nn = 3\ntrace = ON\n", "trace"),
        ("example = log\nn = 3\nbeta = abc\n", "beta"),
    ], ids=["n", "eps", "trace", "market_key"])
    def test_a_bad_file_value_names_its_key(self, tmp_path, capsys, keys, key):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(keys)
        assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "nan"], ["--eps", "inf"], ["--eps", "-1"], ["--max-iter", "0"], ["--seed", "-1"]],
        ids=["eps_nan", "eps_inf", "eps_negative", "max_iter_zero", "seed_negative"],
    )
    def test_bad_solver_setting_exits_2(self, tmp_path, capsys, flags):
        assert main(["--example", "log", "--n", "3", "--out", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "bad",
        ["beta = nan", "c = -1.5", "lower = inf\nupper = inf", "lower = -inf"],
        ids=["beta_nan", "c_negative", "box_at_plus_inf", "log_lower_at_minus_inf"],
    )
    def test_bad_custom_market_exits_2(self, tmp_path, capsys, bad):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"example = log\n{bad}\n")
        assert main(["--config", str(cfgfile), "--n", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exp_lower_side_at_minus_inf_exits_2(self, tmp_path, capsys):
        # the exp cost is defined on the whole line, but its curvature has no
        # bound on an unbounded-below side, so no damping suits the box
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("example = exp\nlower = -inf\n")
        assert main(["--config", str(cfgfile), "--n", "3", "--out", str(tmp_path / "o")]) == 2
        assert "curvature" in capsys.readouterr().err

    def test_affine_sweep_lands_on_the_oracle(self, tmp_path):
        # L_h = 0: the default splitting steps with c = inf onto the equilibrium
        out = tmp_path / "affine"
        assert main(["--example", "affine", "--sweep", "1,2,10,100,1000", "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert [r["n"] for r in rows] == ["1", "2", "10", "100", "1000"]
        for r in rows:
            assert r["status"] == "Converged" and r["iterations"] == "2"
            assert float(r["oracle_err"]) <= 1e-12
            assert r["c_final"] == "inf" and float(r["certificate"]) == 0.0
            assert r["splitting"] == "exact"
        for n in (1, 1000):
            assert main(["--verify", str(out / f"trace_affine_n{n}_seed0.csv")]) == 0

    @pytest.mark.parametrize("splitting, L_of", [
        ("exact", lambda inst: inst.L_h),
        ("paper", lipschitz_gamma),
    ])
    def test_splitting_flag_and_config_key(self, tmp_path, splitting, L_of):
        out = tmp_path / "flag"
        argv = ["--example", "log", "--n", "20", "--splitting", splitting, "--out", str(out)]
        assert main(argv) == 0
        cfgfile = tmp_path / "split.cfg"
        cfgfile.write_text(f"example = log\nn = 20\nsplitting = {splitting}\n")
        assert main(["--config", str(cfgfile), "--out", str(tmp_path / "file")]) == 0
        inst = log_cost_market(20, 0)
        for where in ("flag", "file"):
            (row,) = read_summary(tmp_path / where / "summary.csv")
            assert row["splitting"] == splitting
            assert float(row["c_final"]) == 1.0 / L_of(inst)

    def test_bad_splitting_value_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "split.cfg"
        cfgfile.write_text("example = log\nsplitting = exact_coupling\n")
        assert main(["--config", str(cfgfile), "--n", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()
        with pytest.raises(SystemExit) as exc:
            main(["--example", "log", "--n", "3", "--splitting", "both"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("keys, error", [
        ("example = log\nmu_h = 1\n", "unknown market key 'mu_h' for example = log"),
        ("example = affine\nc0 = 2\n", "unknown market key 'c0' for example = affine"),
        ("example = log\ncost = log\n", "unknown market key 'cost' for example = log"),
        ("mu_h = abc\n", "unknown market key 'mu_h' for example = log"),
        ("example = exp\nr = random\n", "r: could not convert string to float: 'random'"),
        ("example = custom\n", "example: 'custom' is not a valid ExampleFamily"),
    ], ids=["mu_h_on_log", "c0_on_affine", "cost", "unknown_before_its_value", "r_random",
            "example_custom"])
    def test_a_key_of_another_family_exits_2(self, tmp_path, capsys, keys, error):
        # a key is checked against the family before its value is read; r is a log
        # and exp key, but a number: the family rule is to leave it out; example
        # alone picks the family
        cfgfile = tmp_path / "keys.cfg"
        cfgfile.write_text(keys)
        assert main(["--config", str(cfgfile), "--n", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sizes", [["--n", "100000000000000000000000"],
                                       ["--sweep", "3,100000000000000000000000"],
                                       ["--n", "4611686018427387904"]],
                             ids=["n", "sweep", "n_past_the_longest_float_vector"])
    def test_a_size_past_numpys_longest_axis_exits_2(self, tmp_path, capsys, sizes):
        # numpy would refuse it only inside a run, with no name; a smaller size runs none first;
        # 2**62 is an axis numpy can index, but no float vector it can describe
        assert main(["--example", "log", *sizes, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: n must be a positive integer at most ")
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # the flag's spelling is not a file key: max_iter is
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text("example = log\nmax-iter = 3\n")
        assert main(["--config", str(cfgfile), "--n", "5", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'max-iter'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, first, second", [("seed", "1", "2"), ("c0", "2.0", "3.0")],
                             ids=["flag_key", "market_key"])
    def test_a_repeated_config_key_exits_2(self, tmp_path, capsys, key, first, second):
        # a later line would silently win: the file is refused, naming the key and its line
        cfgfile = tmp_path / "twice.cfg"
        cfgfile.write_text(f"example = log\n{key} = {first}\nn = 5\n{key} = {second}\n")
        assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        message = f"error: {cfgfile}:4: '{key}' is set twice; give each key once\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()
        with pytest.raises(ValueError, match=f"twice.cfg:4: '{key}' is set twice"):
            parse_config_file(cfgfile)

    @pytest.mark.parametrize("value", ["true", "ON"])
    def test_trace_file_value_must_be_on_or_off_exits_2(self, tmp_path, capsys, value):
        cfgfile = tmp_path / "trace.cfg"
        cfgfile.write_text(f"example = log\ntrace = {value}\n")
        assert main(["--config", str(cfgfile), "--n", "5", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_trace_off_writes_the_summary_and_no_trace(self, tmp_path, where):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("example = log\n" + ("trace = off\n" if where == "file" else ""))
        flags = ["--trace", "off"] if where == "flag" else []
        out = tmp_path / "o"
        assert main(["--config", str(cfgfile), "--sweep", "3,5", "--out", str(out), *flags]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]
        assert [row["n"] for row in read_summary(out / "summary.csv")] == ["3", "5"]

    def test_trace_on_writes_one_trace_per_size(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--example", "exp", "--sweep", "3,5", "--trace", "on", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "summary.csv", "trace_exp_n3_seed0.csv", "trace_exp_n5_seed0.csv",
        ]
        # the parser is built once per process: later calls read only their own flags
        assert main(["--n", "3", "--trace", "off", "--out", str(tmp_path / "off")]) == 0
        assert [p.name for p in (tmp_path / "off").iterdir()] == ["summary.csv"]
        assert main(["--n", "4", "--out", str(tmp_path / "default")]) == 0
        assert sorted(p.name for p in (tmp_path / "default").iterdir()) == [
            "summary.csv", "trace_log_n4_seed0.csv",
        ]

    @pytest.mark.parametrize("in_file, flag", [("off", "on"), ("on", "off")])
    def test_the_trace_flag_overrides_the_file(self, tmp_path, in_file, flag):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"example = log\ntrace = {in_file}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfgfile), "--n", "3", "--trace", flag, "--out", str(out)]) == 0
        assert (out / "trace_log_n3_seed0.csv").exists() is (flag == "on")

    def test_random_start_on_unbounded_box_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "open.cfg"
        cfgfile.write_text("example = affine\nupper = inf\n")
        argv = ["--config", str(cfgfile), "--n", "3", "--x0", "random", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: x0 = random")

    @pytest.mark.parametrize("flag, content", [
        ("--verify", None), ("--verify", "k,gamma\n0,1\n"), ("--config", None),
    ], ids=["verify_missing", "verify_bad_header", "config_missing"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, flag, content):
        # exit 1 means a run did not converge; a file that cannot be read is a bad setting
        path = tmp_path / "given.csv"
        if content is not None:
            path.write_text(content)
        assert main([flag, str(path), "--n", "3", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "given.csv" in err
        assert not (tmp_path / "o").exists()

    def test_out_is_an_existing_file_exits_2(self, tmp_path, capsys):
        # exit 1 means a run did not converge; an --out that cannot be a directory is a bad setting
        path = tmp_path / "taken"
        path.write_text("not a directory\n")
        assert main(["--example", "log", "--n", "3", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err
        assert path.read_text() == "not a directory\n"

    def test_parse_config_file_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            parse_config_file(p)

    def test_bad_choice_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--example", "nonsense"])

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COURNOTPROX_OUTDIR", str(tmp_path / "envout"))
        code = main(["--example", "log", "--n", "4", "--eps", "1e-2"])
        assert code == 0
        assert (tmp_path / "envout" / "summary.csv").exists()
