"""Orchestration layer: strict config parsing, manifests, atomic
artifact directories, replay, and the command line surface."""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

import fracflow
import fracflow.experiments
import fracflow.solver
from fracflow.cli import main as cli_main
from fracflow.ensemble_stats import format_table
from fracflow.errors import (
    ConfigurationError,
    NonContractionError,
    NumericError,
)
from fracflow.experiments import (
    CHUNK,
    REGISTRY,
    CheckResult,
    Experiment,
    ExperimentResult,
    get_experiment,
    grid_from_record,
    list_experiments,
    parallel_ladder,
    parallel_picard,
)
from fracflow.random_fields import (
    load_ensemble,
    measure_from_spec,
    sample_ensemble,
)
from fracflow.runner import RunConfig, RunManifest, replay_run, run_experiment
from fracflow.solver import (
    NonlinearitySpec,
    SolverConfig,
    picard_solve,
    solve_polynomial,
)

SMALL = {"experiment": "zero-nonlinearity", "n_members": 8, "seed": 11}


def small_config(**overrides):
    data = dict(SMALL)
    data.update(overrides)
    return RunConfig.from_dict(data)


@pytest.fixture
def failing_experiment():
    """Registers a synthetic experiment whose single check fails."""
    defaults = get_experiment("zero-nonlinearity").default_config()
    defaults["experiment"] = "always-fails"

    def fn(config, workers):
        return ExperimentResult(
            "always-fails", [CheckResult("doomed", False, "synthetic")])

    REGISTRY["always-fails"] = Experiment(
        "always-fails", "test fixture", defaults, fn)
    yield "always-fails"
    REGISTRY.pop("always-fails", None)


@pytest.fixture
def never_runs_experiment():
    defaults = get_experiment("zero-nonlinearity").default_config()
    defaults["experiment"] = "never-runs"

    def fn(config, workers):
        raise RuntimeError("experiment body executed")

    REGISTRY["never-runs"] = Experiment(
        "never-runs", "test fixture", defaults, fn)
    yield "never-runs"
    REGISTRY.pop("never-runs", None)


class TestRegistry:
    # the acceptance suite in criterion order; zero-nonlinearity is the
    # extra cheap end-to-end vehicle and belongs to no criterion
    CRITERION_EXPERIMENTS = [
        "linear-spectral-decay", "semigroup-contraction",
        "kernel-identities", "gradient-bound", "picard-contraction",
        "moment-monotonicity", "energy-dissipation", "orthogonality",
        "cutoff-ladder", "stroock-varopoulos", "solver-cross-validation",
        "replay-determinism",
    ]

    def test_registry_nonempty_with_statements(self):
        entries = list_experiments()
        assert len(entries) >= 12
        assert all(statement for _, statement in entries)

    def test_every_criterion_has_exactly_one_experiment(self):
        names = [name for name, _ in list_experiments()]
        assert len(set(self.CRITERION_EXPERIMENTS)) == 12
        for name in self.CRITERION_EXPERIMENTS:
            assert names.count(name) == 1
        assert set(names) - set(self.CRITERION_EXPERIMENTS) == \
            {"zero-nonlinearity"}

    def test_default_configs_all_validate(self):
        for name, _ in list_experiments():
            cfg = RunConfig.from_dict({"experiment": name})
            assert cfg.experiment == name
            assert cfg.n_members >= 1


class TestRunConfig:
    def test_defaults_filled_in(self):
        cfg = RunConfig.from_dict({"experiment": "zero-nonlinearity"})
        assert cfg.n_members == 64
        assert cfg.seed == 3
        assert cfg.grid == {"d": 1, "n": 256, "len": 2.0 * math.pi}
        assert cfg.measure["family"] == "gaussian_bump"
        assert cfg.solver["tol"] == 1e-12
        assert cfg.out is None

    def test_round_trip_is_idempotent(self):
        cfg = small_config()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_nested_override_merges(self):
        cfg = small_config(measure={"params": {"width": 0.9}})
        assert cfg.measure["family"] == "gaussian_bump"
        assert cfg.measure["params"]["width"] == 0.9
        assert cfg.measure["mass"] == 1.0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="extra_knob"):
            RunConfig.from_dict({**SMALL, "extra_knob": 1})

    def test_unknown_experiment_names_nearest(self):
        with pytest.raises(ConfigurationError,
                           match="did you mean 'zero-nonlinearity'"):
            RunConfig.from_dict({"experiment": "zero-nonlinearty"})

    def test_experiment_key_required(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            RunConfig.from_dict({})
        with pytest.raises(ConfigurationError, match="mapping"):
            RunConfig.from_dict(["zero-nonlinearity"])

    def test_member_count_validated(self):
        with pytest.raises(ConfigurationError, match="n_members"):
            small_config(n_members=0)
        with pytest.raises(ConfigurationError, match="integer"):
            small_config(n_members="plenty")

    def test_bad_nested_record_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(measure={"family": "white_noise"})
        with pytest.raises(ConfigurationError):
            small_config(grid={"d": 1, "n": 256, "len": 2.0, "pad": 3})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        assert RunConfig.from_file(path) == small_config()

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            RunConfig.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            RunConfig.from_file(bad)


class TestRunManifest:
    def test_save_load_round_trip(self, tmp_path):
        manifest, _ = run_experiment(small_config())
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_passed_property(self):
        manifest, _ = run_experiment(small_config())
        assert manifest.passed
        manifest.checks.append({"name": "x", "passed": False, "detail": ""})
        assert not manifest.passed

    def test_load_rejects_incomplete(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"experiment": "zero-nonlinearity"}))
        with pytest.raises(ConfigurationError, match="missing field"):
            RunManifest.load(path)


class TestRunExperiment:
    def test_manifest_contents(self):
        manifest, result = run_experiment(small_config())
        assert manifest.version == fracflow.__version__
        assert manifest.experiment == "zero-nonlinearity"
        assert manifest.member_seeds == [[11, i] for i in range(8)]
        assert manifest.flagged_members == []
        assert manifest.passed and result.passed
        # echo is the fully merged config, nothing left implicit
        assert manifest.config["solver"]["max_iter"] == 6
        header, rows = result.tables["free_flow_error"]
        text = format_table(header, rows)
        assert manifest.tables["free_flow_error"] == \
            hashlib.sha256(text.encode()).hexdigest()

    def test_artifacts_on_disk(self, tmp_path):
        out = tmp_path / "run"
        manifest, result = run_experiment(small_config(), out=out)
        assert sorted(os.listdir(out)) == [
            "final_state.bin", "final_state.json",
            "free_flow_error.tsv", "manifest.json"]
        text = (out / "free_flow_error.tsv").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            manifest.tables["free_flow_error"]
        ens = load_ensemble(str(out / "final_state"))
        np.testing.assert_array_equal(
            ens.values, result.fields["final_state"].values)
        disk = RunManifest.load(out / "manifest.json")
        assert disk.to_dict() == manifest.to_dict()

    def test_occupied_out_fails_before_solving(self, tmp_path,
                                               never_runs_experiment):
        out = tmp_path / "taken"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        cfg = small_config(experiment=never_runs_experiment)
        # ConfigurationError, not the fixture's RuntimeError: the out
        # check has to win before any compute starts
        with pytest.raises(ConfigurationError, match="already exists"):
            run_experiment(cfg, out=out)
        assert (out / "keep.txt").read_text() == "precious"

    def test_no_partial_artifacts_on_failure(self, tmp_path, monkeypatch):
        def boom(ens, base):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("fracflow.runner.export_ensemble", boom)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="disk on fire"):
            run_experiment(small_config(), out=out)
        assert not out.exists()
        assert [p for p in os.listdir(tmp_path)
                if p.startswith(".staging-")] == []

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_experiment(small_config(), workers=0)


class TestReplay:
    def test_replay_reproduces_tables(self, tmp_path):
        out = tmp_path / "orig"
        original, _ = run_experiment(small_config(), out=out)
        manifest, _, matches = replay_run(out / "manifest.json")
        assert matches == {"free_flow_error": True}
        assert manifest.tables == original.tables
        assert manifest.member_seeds == original.member_seeds

    def test_replay_writes_identical_artifacts(self, tmp_path):
        out1 = tmp_path / "orig"
        run_experiment(small_config(), out=out1)
        out2 = tmp_path / "again"
        replay_run(out1 / "manifest.json", out=out2)
        assert (out1 / "free_flow_error.tsv").read_bytes() == \
            (out2 / "free_flow_error.tsv").read_bytes()
        assert (out1 / "final_state.bin").read_bytes() == \
            (out2 / "final_state.bin").read_bytes()


class TestWorkerDeterminism:
    def test_on_disk_bytes_worker_independent(self, tmp_path):
        # 300 members forces two chunks, so two workers genuinely split
        cfg = small_config(n_members=300, seed=17)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        m1, _ = run_experiment(cfg, workers=1, out=out1)
        m2, _ = run_experiment(cfg, workers=2, out=out2)
        assert m1.tables == m2.tables
        assert m1.member_seeds == m2.member_seeds
        assert (out1 / "free_flow_error.tsv").read_bytes() == \
            (out2 / "free_flow_error.tsv").read_bytes()
        assert (out1 / "final_state.bin").read_bytes() == \
            (out2 / "final_state.bin").read_bytes()


class TestParallelPicard:
    GRID = {"d": 1, "n": 32, "len": 2 * math.pi}
    MEASURE = {"family": "gaussian_bump", "mass": 1.0, "mean": 0.0,
               "params": {"width": 0.6}}
    TANH = {"kind": "lipschitz_tanh", "scale": 0.5}

    def solver(self, **kw):
        rec = {"s": 0.75, "z": [1.0], "time_grid": [0.0, 0.05, 0.1],
               "bielecki_k": 4.0, "tol": 1e-8, "max_iter": 40}
        rec.update(kw)
        return rec

    def whole_batch(self, nl_rec, solver_rec, n, seed):
        """picard_solve on the whole sample that parallel_picard chunks."""
        grid = grid_from_record(self.GRID)
        ens = sample_ensemble(measure_from_spec(grid, self.MEASURE), n, seed)
        return picard_solve(ens, NonlinearitySpec.from_record(nl_rec),
                            SolverConfig.from_record(solver_rec))

    def test_unconverged_members_summed_over_chunks(self):
        # two chunks; tol 1e-14 is out of reach in 2 sweeps for every member
        n = CHUNK + 3
        _, info = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                  self.solver(tol=1e-14, max_iter=2), n, seed=5)
        assert not info["converged"]
        assert info["diagnostics"].unconverged_members == n
        _, info = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                  self.solver(), n, seed=5)
        assert info["converged"]
        assert info["diagnostics"].unconverged_members == 0

    def test_failed_chunk_flags_its_members(self, monkeypatch):
        real = fracflow.experiments._picard_iterate

        def first_chunk_fails(ens, spec, config):
            if ens.seeds[0] == (5, 0):
                raise NumericError("synthetic blowup")
            return real(ens, spec, config)

        n = 2 * CHUNK + 3
        whole, _ = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                   self.solver(), n, seed=5)
        monkeypatch.setattr(fracflow.experiments, "_picard_iterate",
                            first_chunk_fails)
        traj, info = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                     self.solver(), n, seed=5)
        assert [f[0] for f in info["flagged"]] == list(range(CHUNK))
        assert {f[2] for f in info["flagged"]} == {"synthetic blowup"}
        assert info["member_seeds"] == whole.seeds[CHUNK:]
        assert np.array_equal(traj.values, whole.values[:, CHUNK:])

    @pytest.mark.parametrize("solver_kw", [{}, {"tol": 1e-12, "max_iter": 6}],
                             ids=["converging", "capped"])
    def test_merged_diagnostics_equal_whole_batch(self, solver_kw):
        n = CHUNK + 3
        rec = self.solver(**solver_kw)
        traj, info = parallel_picard(self.GRID, self.MEASURE, self.TANH, rec,
                                     n, seed=5, workers=2)
        whole, diag = self.whole_batch(self.TANH, rec, n, seed=5)
        merged = info["diagnostics"]
        assert merged.residuals == diag.residuals
        assert merged.iterations == diag.iterations
        assert merged.converged == diag.converged == info["converged"]
        assert merged.unconverged_members == diag.unconverged_members
        assert np.array_equal(traj.values, whole.values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_growing_run_raises_noncontraction(self, workers):
        # two chunks; with K = 0.01 the tanh(30) map does not contract
        n = CHUNK + 3
        nl = {"kind": "lipschitz_tanh", "scale": 30.0}
        rec = self.solver(s=1.0, time_grid=np.linspace(0, 2, 21).tolist(),
                          bielecki_k=0.01, max_iter=8)
        with pytest.raises(NonContractionError) as whole:
            self.whole_batch(nl, rec, n, seed=5)
        with pytest.raises(NonContractionError) as pooled:
            parallel_picard(self.GRID, self.MEASURE, nl, rec, n, seed=5,
                            workers=workers)
        assert pooled.value.measured_ratio == whole.value.measured_ratio
        assert pooled.value.iterations == whole.value.iterations == 8


class TestParallelLadder:
    CONFIG = {"experiment": "cutoff-ladder", "n_members": CHUNK + 3,
              "grid": {"n": 32}}

    @pytest.fixture
    def captured(self, monkeypatch):
        """The rung trajectories each ladder path hands to ladder_report."""
        calls = []
        real = fracflow.solver.ladder_report

        def capture(solutions, diagnostics):
            calls.append(solutions)
            return real(solutions, diagnostics)

        monkeypatch.setattr(fracflow.solver, "ladder_report", capture)
        monkeypatch.setattr(fracflow.experiments, "ladder_report", capture)
        return calls

    def test_equals_in_memory_ladder(self, captured):
        cfg = RunConfig.from_dict(self.CONFIG)
        args = (cfg.grid, cfg.measure, cfg.nonlinearity, cfg.solver,
                cfg.n_members, cfg.seed, (1, 2, 4, 8))
        top, report = parallel_ladder(*args, workers=2)
        grid = grid_from_record(cfg.grid)
        ens = sample_ensemble(measure_from_spec(grid, cfg.measure),
                              cfg.n_members, cfg.seed)
        ref_top, ref = solve_polynomial(
            ens, NonlinearitySpec.from_record(cfg.nonlinearity),
            SolverConfig.from_record(cfg.solver), (1, 2, 4, 8))
        pooled, in_memory = captured
        assert list(pooled) == list(in_memory) == [1.0, 2.0, 4.0, 8.0]
        for n in pooled:
            assert np.array_equal(pooled[n].values, in_memory[n].values)
            assert report.diagnostics[n] == ref.diagnostics[n]
        assert np.array_equal(top.values, ref_top.values)
        assert top.seeds == ref_top.seeds
        assert report.pair_distances.keys() == ref.pair_distances.keys()
        for pair, d in report.pair_distances.items():
            assert np.array_equal(d, ref.pair_distances[pair])
        for p, z in report.guard_z.items():
            assert np.array_equal(z, ref.guard_z[p])
        assert report.unconverged_levels == ref.unconverged_levels
        assert report.cauchy_violations == ref.cauchy_violations

    def test_failed_chunk_raises(self, monkeypatch):
        real = fracflow.experiments._picard_iterate

        def level_two_fails(ens, spec, config):
            if spec.cutoff_level == 2.0 and ens.seeds[0][1] == 0:
                raise NumericError("synthetic blowup")
            return real(ens, spec, config)

        monkeypatch.setattr(fracflow.experiments, "_picard_iterate",
                            level_two_fails)
        cfg = RunConfig.from_dict(self.CONFIG)
        with pytest.raises(NumericError, match="ladder level 2: synthetic"):
            parallel_ladder(cfg.grid, cfg.measure, cfg.nonlinearity,
                            cfg.solver, cfg.n_members, cfg.seed, (1, 2, 4))

    def test_on_disk_bytes_worker_independent(self, tmp_path):
        cfg = RunConfig.from_dict(self.CONFIG)
        m1, _ = run_experiment(cfg, workers=1, out=tmp_path / "w1")
        m2, _ = run_experiment(cfg, workers=2, out=tmp_path / "w2")
        assert m1.tables == m2.tables
        assert m1.member_seeds == m2.member_seeds
        for name in ("ladder_distances.tsv", "final_state.bin"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w2" / name).read_bytes()


class TestCli:
    def write_config(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "zero-nonlinearity" in out
        assert "replay-determinism" in out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        rc = cli_main(["run", cfg, "--out", str(out), "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "PASS matches-semigroup" in captured.out
        assert (out / "manifest.json").exists()

    def test_run_names_unconverged_ladder_rungs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "experiment": "cutoff-ladder", "n_members": 8,
            "solver": {"max_iter": 4, "tol": 1e-14}})
        cli_main(["run", cfg, "--workers", "1"])
        out = capsys.readouterr().out
        assert "unconverged rungs: n=1 (4 sweeps, residual" in out
        assert "n=8 (4 sweeps, residual" in out
        # tol 1e-14 is out of reach in 4 sweeps, so no member stops early
        for n in (1, 2, 4, 8):
            assert re.search(rf"n={n} \(4 sweeps, residual [^,]+, "
                             r"8 of 8 members above tol\)", out)

    def test_run_without_out_writes_nothing(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL)
        assert cli_main(["run", cfg, "--workers", "1"]) == 0
        capsys.readouterr()
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_failing_check_exit_one(self, tmp_path, capsys,
                                    failing_experiment):
        cfg = self.write_config(tmp_path, {"experiment": failing_experiment})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL doomed" in captured.out

    def test_config_error_exit_two(self, tmp_path, capsys):
        rc = cli_main(["run", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error" in captured.err
        cfg = self.write_config(tmp_path, {**SMALL, "mystery": 1})
        rc = cli_main(["run", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert "mystery" in captured.err

    @pytest.mark.parametrize("data", [
        {**SMALL, "grid": {"n": "abc"}},
        {**SMALL, "grid": {"n": 256.7}},
        {**SMALL, "grid": {"len": "long"}},
        {**SMALL, "grid": {"d": True}},
        {**SMALL, "measure": {"params": {"width": "wide"}}},
        {**SMALL, "measure": {"mass": [1.0]}},
        {"experiment": "linear-spectral-decay", "solver": {"z": [1, 0, 3]}},
        {"experiment": "linear-spectral-decay", "solver": {"z": ["x"]}},
        {**SMALL, "solver": {"s": "abc"}},
        {**SMALL, "solver": {"time_grid": ["a", "b"]}},
        {**SMALL, "solver": {"tol": "tiny"}},
        {**SMALL, "solver": {"bielecki_k": None}},
        {**SMALL, "nonlinearity": {"scale": "big"}},
        {**SMALL, "solver": {"max_iter": 2.5}},
        {**SMALL, "solver": {"dealias": "yes"}},
        {**SMALL, "n_members": 2.5},
    ], ids=["n-string", "n-fraction", "len-string", "d-bool", "width-string",
            "mass-list", "z-3d-on-1d-grid", "z-string", "s-string",
            "time-grid-strings", "tol-string", "k-null", "scale-string",
            "max-iter-fraction", "dealias-string", "members-fraction"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, data):
        rc = cli_main(["run", self.write_config(tmp_path, data),
                       "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error" in captured.err
        assert captured.out == ""

    def test_seed_override(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        rc = cli_main(["run", cfg, "--seed", "99", "--out", str(out),
                       "--workers", "1"])
        capsys.readouterr()
        assert rc == 0
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.config["seed"] == 99
        assert manifest.member_seeds[0] == [99, 0]

    def test_replay_round_trip(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert cli_main(["run", cfg, "--out", str(out),
                         "--workers", "1"]) == 0
        capsys.readouterr()
        rc = cli_main(["replay", str(out / "manifest.json"),
                       "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "replay free_flow_error: match" in captured.out

    def test_replay_flags_mismatch(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        cli_main(["run", cfg, "--out", str(out), "--workers", "1"])
        capsys.readouterr()
        path = out / "manifest.json"
        data = json.loads(path.read_text())
        data["tables"]["free_flow_error"] = "0" * 64
        path.write_text(json.dumps(data))
        rc = cli_main(["replay", str(path), "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "MISMATCH" in captured.out
