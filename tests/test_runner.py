"""Orchestration layer: strict config parsing, manifests, atomic
artifact directories, replay, and the command line surface."""

import hashlib
import inspect
import json
import math
import os
import re
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import fracflow
import fracflow.experiments
import fracflow.solver
from fracflow.cli import main as cli_main
from fracflow.ensemble_stats import (
    dissipation_residual,
    dissipation_series,
    format_table,
    ladder_moments,
    ladder_series,
    moment_series,
    reduce_moments,
)
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
    _cfg_parts,
    _dissipation_chunk,
    _dissipation_solves,
    _moment_guard,
    _solve_grid,
    get_experiment,
    list_experiments,
    parallel_ladder,
    parallel_picard,
)
from fracflow.random_fields import (
    Ensemble,
    gaussian_bump_measure,
    load_ensemble,
    member_mean,
    sample_ensemble,
    two_mode_measure,
    z_score,
)
from fracflow.runner import RunConfig, RunManifest, replay_run, run_experiment
from fracflow.solver import (
    NonlinearitySpec,
    SolverConfig,
    _DuhamelPlan,
    _picard_iterate,
    cutoff_map,
    picard_solve,
)
from fracflow.spectral import (
    Grid,
    apply_multiplier_values,
    semigroup_multiplier,
    spatial_rms,
)

SMALL = {"experiment": "zero-nonlinearity", "n_members": 8, "seed": 11}


def ladder_rung(initial, spec, level):
    """Initial data h_n(u0) and flux f(h_n(.)) of ladder level n: the
    whole-batch solve each ladder level must equal."""
    return (replace(initial, values=cutoff_map(initial.values, level)),
            replace(spec, cutoff_level=level))


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
            "always-fails", [CheckResult("doomed", 1.0, -1.0, "synthetic")])

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

    # the model sections each experiment builds, all its defaults hold
    MODEL_SECTIONS = {
        "linear-spectral-decay": {"measure"},
        "zero-nonlinearity": {"measure", "nonlinearity", "solver"},
        "semigroup-contraction": {"measure", "solver"},
        "kernel-identities": set(),
        "gradient-bound": {"measure", "solver"},
        "picard-contraction": {"measure", "nonlinearity", "solver"},
        "moment-monotonicity": {"measure", "nonlinearity", "solver"},
        "energy-dissipation": {"measure", "nonlinearity", "solver"},
        "orthogonality": {"measure", "solver"},
        "cutoff-ladder": {"measure", "nonlinearity", "solver"},
        "stroock-varopoulos": {"measure"},
        "solver-cross-validation": {"measure", "nonlinearity", "solver"},
        "replay-determinism": {"measure", "nonlinearity", "solver"},
    }

    def test_defaults_hold_only_the_sections_read(self):
        assert set(REGISTRY) == set(self.MODEL_SECTIONS)
        for name, sections in self.MODEL_SECTIONS.items():
            defaults = get_experiment(name).defaults
            assert set(defaults) - {"experiment", "grid", "n_members", "seed",
                                    "out"} == sections, name
            cfg = RunConfig.from_dict({"experiment": name}).to_dict()
            for key in {"measure", "nonlinearity", "solver"} - sections:
                assert cfg[key] is None, (name, key)


class TestPublicApi:
    def test_every_exported_name_resolves_once(self):
        names = fracflow.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(fracflow, name), name


class TestBenchmarkBindings:
    """perfbench/rep.py and perfbench/spans.py wrap or read these names;
    renaming one must fail here rather than in a benchmark run."""

    def test_bound_names_exist(self):
        import fracflow.runner as runner
        import fracflow.solver as solver

        experiments = fracflow.experiments
        for owner, name in [(solver, "picard_solve"),
                            (solver, "spatial_rms"),
                            (solver.NonlinearitySpec, "evaluate"),
                            (experiments, "parallel_picard"),
                            (experiments, "_solve_chunk"),
                            (runner, "_write_artifacts"),
                            (runner, "_table_text")]:
            assert callable(getattr(owner, name, None)), name
        assert isinstance(experiments.CHUNK, int)
        assert isinstance(experiments.REGISTRY, dict)
        # spans.py wraps each public function of these modules in a timed
        # span, and a generator's span would close before its body runs
        for layer in ("random_fields", "spectral", "solver", "ensemble_stats",
                      "experiments", "runner"):
            module = sys.modules[f"fracflow.{layer}"]
            for key, fn in vars(module).items():
                assert not (inspect.isgeneratorfunction(fn)
                            and not key.startswith("_")
                            and fn.__module__ == module.__name__), key

    def test_read_attributes_exist(self):
        # spans.py reads a solve's sweeps, converged flag and residuals and
        # a sample's member count; rep.py reads parallel_picard's info
        ens = sample_ensemble(gaussian_bump_measure(Grid(1, 16, 2 * math.pi),
                                                    1.0, mass=1.0), 2, seed=1)
        assert ens.n_members == 2
        cfg = SolverConfig(0.75, [1.0], [0.0, 0.1])
        _, diag = picard_solve(ens, NonlinearitySpec.zero(), cfg)
        assert isinstance(diag.iterations, int)
        assert isinstance(diag.converged, bool)
        assert isinstance(diag.residuals, list)
        _, info = parallel_picard(ens.grid, gaussian_bump_measure(
            ens.grid, 1.0, mass=1.0), NonlinearitySpec.zero(), cfg, 2, 1)
        assert info["flagged"] == [] and info["converged"] is True

    def test_parallel_picard_members_fifth(self):
        assert list(inspect.signature(parallel_picard).parameters)[4] == \
            "n_members"

    def test_solve_chunk_returns_values(self):
        grid = Grid(1, 16, 2 * math.pi)
        payload = fracflow.experiments._chunk_payloads(
            gaussian_bump_measure(grid, 1.0, mass=1.0),
            NonlinearitySpec.zero(), SolverConfig(0.75, [1.0], [0.0, 0.1]),
            2, seed=1)[0]
        result = fracflow.experiments._solve_chunk(payload)
        assert isinstance(result, dict)
        assert result["values"].shape == (2, 2, 16)


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

    def test_another_kind_replaces_the_default_nonlinearity(self):
        # tanh's scale is no key of a Burgers record, so it is not merged in
        burgers = {"kind": "burgers_quadratic"}
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "nonlinearity": burgers})
        assert cfg.nonlinearity == burgers
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "nonlinearity": {"scale": 0.25}})
        assert cfg.nonlinearity == {"kind": "lipschitz_tanh", "scale": 0.25}

    def test_another_family_replaces_the_default_params(self, tmp_path):
        # a power-law measure reads nu, not the gaussian bump's width, so
        # the manifest echoes only nu; mass and mean apply to every family
        record = {"experiment": "zero-nonlinearity",
                  "measure": {"family": "power_law", "params": {"nu": 1.5}}}
        cfg = RunConfig.from_dict(record)
        assert cfg.measure == {"family": "power_law", "mass": 1.0,
                               "mean": 0.0, "params": {"nu": 1.5}}
        manifest, _ = run_experiment(cfg, workers=1, out=tmp_path / "run")
        assert manifest.config["measure"]["params"] == {"nu": 1.5}
        with pytest.raises(ConfigurationError, match="missing parameter 'nu'"):
            RunConfig.from_dict({"experiment": "zero-nonlinearity",
                                 "measure": {"family": "power_law"}})

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
        # a directly built config makes the same checks
        record = small_config().to_dict()
        for bad in ({"n_members": 2.5}, {"seed": "x"}):
            with pytest.raises(ConfigurationError, match="integer"):
                RunConfig(**{**record, **bad})

    @pytest.mark.parametrize("out", [5, True, ["run"]],
                             ids=["int", "bool", "list"])
    def test_out_must_be_a_path_string(self, out):
        # an int would be taken for a file descriptor, not a directory
        with pytest.raises(ConfigurationError, match="'out' must be"):
            small_config(out=out)
        assert small_config(out="run").out == "run"

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
        # keys that are not fields, as a later version may write, are ignored
        path.write_text(json.dumps({**manifest.to_dict(), "host": "x"}))
        assert RunManifest.load(path).to_dict() == manifest.to_dict()

    def test_passed_property(self):
        manifest, _ = run_experiment(small_config())
        assert manifest.passed
        manifest.checks.append({"name": "x", "passed": False, "detail": ""})
        assert not manifest.passed

    def test_load_rejects_incomplete(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"experiment": "zero-nonlinearity"}))
        with pytest.raises(ConfigurationError, match=r"missing \['checks'"):
            RunManifest.load(path)
        # without tables a replay would have nothing to compare
        manifest, _ = run_experiment(small_config())
        record = manifest.to_dict()
        del record["tables"]
        path.write_text(json.dumps(record))
        with pytest.raises(ConfigurationError, match=r"missing \['tables'\]"):
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

    @pytest.mark.parametrize("out", [987654, ["runs"]],
                             ids=["int", "list"])
    def test_non_path_out_fails_before_solving(self, tmp_path, monkeypatch,
                                               never_runs_experiment, out):
        # an int would be taken for a file descriptor by os.path.exists
        # and then written as a relative directory name
        monkeypatch.chdir(tmp_path)
        cfg = small_config(experiment=never_runs_experiment)
        with pytest.raises(ConfigurationError, match="out must be a path"):
            run_experiment(cfg, out=out)
        assert os.listdir(tmp_path) == []


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
        # 65 members are three chunks per solve, so two workers genuinely
        # split energy-dissipation's three pooled solves
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "n_members": 65, "grid": {"n": 64}})
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        m1, _ = run_experiment(cfg, workers=1, out=out1)
        m2, _ = run_experiment(cfg, workers=2, out=out2)
        assert m1.tables == m2.tables
        assert m1.checks == m2.checks
        assert m1.member_seeds == m2.member_seeds
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)) == [
            "dissipation_burgers.tsv", "dissipation_linear.tsv",
            "dissipation_tanh.tsv", "manifest.json"]
        for name in names[:-1]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestChunkSize:
    # every number is per member first and reduced in member order, so
    # the chunk size moves no byte of a table or of the final state.  At
    # n = 64 only energy-dissipation's gate runs on a coarser grid (16);
    # at n = 256 tanh does too (128), so both coarse solves, and any
    # member re-solved on the configured grid, are decided per member
    CONFIGS = {
        "cutoff-ladder": {"experiment": "cutoff-ladder",
                          "n_members": CHUNK + 3, "grid": {"n": 32}},
        "energy-dissipation": {"experiment": "energy-dissipation",
                               "n_members": CHUNK + 1, "grid": {"n": 64}},
        "energy-dissipation-n256": {"experiment": "energy-dissipation",
                                    "n_members": CHUNK + 1,
                                    "grid": {"n": 256}},
        # a k = 1 pair puts tanh on n = 16 too, where about half of the
        # members must be re-solved on n = 64
        "energy-dissipation-refined": {
            "experiment": "energy-dissipation", "n_members": CHUNK + 1,
            "grid": {"n": 64},
            "measure": {"family": "two_mode", "mass": 0.01, "mean": 1.0,
                        "params": {"wavenumber": 1.0}}}}

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_artifacts_independent_of_chunk(self, tmp_path, monkeypatch,
                                            config):
        cfg = RunConfig.from_dict(self.CONFIGS[config])

        def artifacts(chunk, workers):
            monkeypatch.setattr(fracflow.experiments, "CHUNK", chunk)
            out = tmp_path / f"c{chunk}-w{workers}"
            manifest, _ = run_experiment(cfg, workers=workers, out=out)
            files = {name: (out / name).read_bytes()
                     for name in sorted(os.listdir(out))
                     if name.endswith((".tsv", ".bin"))}
            # the detail lines carry the notes built from the residual
            # histories joined over the chunks
            checks = [(c["name"], c["passed"], c["detail"])
                      for c in manifest.checks]
            return files, checks

        ref = artifacts(CHUNK, 1)
        assert any(name.endswith(".tsv") for name in ref[0])
        if config == "energy-dissipation-n256":
            assert [detail.rsplit("; ", 1)[1] for _, _, detail in ref[1][:2]] \
                == [f"n = {n}, 0 of {CHUNK + 1} members re-solved on n = 256"
                    for n in (16, 128)]
        if config == "energy-dissipation-refined":
            refined = int(re.search(r"n = 16, (\d+) of", ref[1][1][2])[1])
            assert 0 < refined < CHUNK + 1
        for chunk in (16, 256):
            for workers in (1, 2):
                assert artifacts(chunk, workers) == ref, (chunk, workers)

    def test_ladder_chunk_peak_memory(self):
        # a ladder task holds every level's trajectory of its members, so
        # CHUNK sets a pool worker's peak; at the shipped grid (n = 512,
        # 11 nodes, levels 1, 2, 4, 8) it must stay under 8 MiB
        cfg = RunConfig.from_dict({"experiment": "cutoff-ladder",
                                   "n_members": CHUNK})
        _, measure, spec, solver = _cfg_parts(cfg.to_dict())
        assert (measure.grid.n, len(solver.time_grid)) == (512, 11)
        payload = fracflow.experiments._chunk_payloads(
            measure, spec, solver, CHUNK, cfg.seed,
            ladder=(1.0, 2.0, 4.0, 8.0))[0]
        tracemalloc.start()
        try:
            res = fracflow.experiments._solve_chunk(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res["error"] is None and res["final"].shape == (CHUNK, 512)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("kind", ["plain", "dissipation", "ladder"])
    def test_chunk_values_have_member_axis_one(self, kind):
        grid = Grid(1, 32, 2 * math.pi)
        measure = gaussian_bump_measure(grid, 0.6, mass=1.0)
        nl = NonlinearitySpec.burgers(cutoff_level=2.0)
        solver = SolverConfig(0.75, [1.0], [0.0, 0.05, 0.1], bielecki_k=4.0)
        payload = fracflow.experiments._chunk_payloads(
            measure, nl, solver, 5, seed=3,
            ladder=[1.0, 2.0, 4.0] if kind == "ladder" else None,
            dissipation=kind == "dissipation")[0]
        res = fracflow.experiments._solve_chunk(payload)
        values = res["values"]
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64
        # ladder: three level pairs, then the moments for p = 2, 4, 6
        trailing = {"plain": (32,), "dissipation": (2,), "ladder": (6,)}
        assert values.shape == (3, 5) + trailing[kind]
        if kind == "ladder":
            assert res["final"].shape == (5, 32)


class TestJoinMemory:
    """The parent writes each chunk result into the joined arrays as it
    arrives and drops it, so its traced peak stays near the joined
    arrays' bytes; a join holding every chunk until the end would read
    about twice that.  The chunk results are synthetic, each built only
    when the join reads it, at the shipped ladder grid (n = 512, 11
    nodes, levels 1, 2, 4, 8): they stand in for _solve_chunk's, in this
    process (workers=1), so _chunk_results joins them as it joins real
    ones."""
    LEVELS = (1.0, 2.0, 4.0, 8.0)

    def parts(self):
        cfg = RunConfig.from_dict({"experiment": "cutoff-ladder"})
        parts = _cfg_parts(cfg.to_dict())
        assert (parts[0].n, len(parts[3].time_grid)) == (512, 11)
        return parts

    def traced_peak(self, monkeypatch, result, call) -> int:
        """tracemalloc peak of a second call() with every chunk result
        made by result(payload) as the join reads it."""
        monkeypatch.setattr(fracflow.experiments, "_solve_chunk", result)
        # untraced first: the first call's one-off imports and caches
        # would count against the join
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @staticmethod
    def chunk(payload, **arrays) -> dict:
        size = payload["size"]
        seeds = [(payload["seed"], payload["start"] + j) for j in range(size)]
        return {"start": payload["start"], "seeds": seeds, "error": None,
                **arrays}

    @staticmethod
    def history(config, size) -> np.ndarray:
        # one sweep, converged
        history = np.full((config.max_iter, size), -np.inf)
        history[0] = 1e-9
        return history

    @pytest.mark.parametrize("chunks", [8, 32])
    def test_ladder_peak_near_joined_bytes(self, monkeypatch, chunks):
        grid, measure, spec, solver = self.parts()
        nodes, n_members = len(solver.time_grid), chunks * CHUNK
        k = 6 + 3                 # level pairs, then moments p = 2, 4, 6

        def result(payload):
            size = payload["size"]
            rng = np.random.default_rng(payload["start"])
            series = rng.random((nodes, size, k)) / np.arange(1, k + 1)
            return self.chunk(
                payload, values=series, final=rng.random((size, grid.n)),
                history=np.stack([self.history(solver, size)]
                                 * len(self.LEVELS)))

        joined = 8 * n_members * (nodes * k + grid.n
                                  + len(self.LEVELS) * solver.max_iter)
        final = []
        peak = self.traced_peak(monkeypatch, result, lambda: final.append(
            parallel_ladder(grid, measure, spec, solver, n_members, 96,
                            self.LEVELS)[0]))
        assert final[-1].values.shape == (n_members, grid.n)
        assert peak < 1.5 * joined, peak / joined

    @pytest.mark.parametrize("chunks", [8, 32])
    def test_picard_peak_near_joined_bytes(self, monkeypatch, chunks):
        _, measure, _, solver = self.parts()
        grid = Grid(1, 128, 2 * math.pi)
        nodes, n_members = len(solver.time_grid), chunks * CHUNK

        def result(payload):
            size = payload["size"]
            return self.chunk(payload,
                              values=np.ones((nodes, size, grid.n)),
                              history=self.history(solver, size))

        joined = 8 * n_members * (nodes * grid.n + solver.max_iter)
        trajs = []
        peak = self.traced_peak(monkeypatch, result, lambda: trajs.append(
            parallel_picard(grid, measure, NonlinearitySpec.tanh(0.5),
                            solver, n_members, 96)[0]))
        assert trajs[-1].values.shape == (nodes, n_members, grid.n)
        assert peak < 1.5 * joined, peak / joined


class TestParallelPicard:
    GRID = Grid(1, 32, 2 * math.pi)
    MEASURE = gaussian_bump_measure(GRID, 0.6, mass=1.0)
    TANH = NonlinearitySpec.tanh(0.5)

    def solver(self, **kw):
        args = {"s": 0.75, "z": [1.0], "time_grid": [0.0, 0.05, 0.1],
                "bielecki_k": 4.0, "tol": 1e-8, "max_iter": 40}
        args.update(kw)
        return SolverConfig(**args)

    def whole_batch(self, spec, solver, n, seed):
        """picard_solve on the whole sample that parallel_picard chunks."""
        return picard_solve(sample_ensemble(self.MEASURE, n, seed), spec,
                            solver)

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

    def test_failed_middle_chunk_drops_its_columns(self, monkeypatch):
        # three chunks, the middle one fails: the joined run is the whole
        # run without that chunk's columns, diagnostics included
        real = fracflow.experiments._picard_iterate

        def middle_chunk_fails(ens, spec, config):
            if ens.seeds[0] == (5, CHUNK):
                raise NumericError("synthetic blowup")
            return real(ens, spec, config)

        n = 2 * CHUNK + 3
        whole, _ = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                   self.solver(), n, seed=5)
        kept = np.r_[0:CHUNK, 2 * CHUNK:n]
        _, diag = picard_solve(
            Ensemble(self.GRID, whole.values[0, kept],
                     seeds=[whole.seeds[i] for i in kept]),
            self.TANH, self.solver())
        monkeypatch.setattr(fracflow.experiments, "_picard_iterate",
                            middle_chunk_fails)
        traj, info = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                     self.solver(), n, seed=5)
        assert [f[0] for f in info["flagged"]] == list(range(CHUNK, 2 * CHUNK))
        assert [f[1] for f in info["flagged"]] == whole.seeds[CHUNK:2 * CHUNK]
        assert info["member_seeds"] == [whole.seeds[i] for i in kept]
        assert np.array_equal(traj.values, whole.values[:, kept])
        assert traj.values.flags.c_contiguous
        assert info["diagnostics"] == diag

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_flux_flags_its_chunk(self, monkeypatch, workers):
        """A real overflow, no patched solver: the first chunk's draws are
        scaled to ~1e200, where Burgers cut off at 1e200 gives f = inf.
        Its members are flagged; the other chunks solve as before."""
        spec = NonlinearitySpec.burgers(cutoff_level=1e200)
        real = fracflow.experiments.sample_ensemble

        def first_chunk_huge(measure, n, seed, counter_offset=0):
            ens = real(measure, n, seed, counter_offset=counter_offset)
            if counter_offset == 0:
                ens.values[:] *= 1e200
            return ens

        n = 2 * CHUNK + 3
        whole, _ = parallel_picard(self.GRID, self.MEASURE, spec,
                                   self.solver(), n, seed=5)
        # a module global: forked pool workers inherit the patch
        monkeypatch.setattr(fracflow.experiments, "sample_ensemble",
                            first_chunk_huge)
        traj, info = parallel_picard(self.GRID, self.MEASURE, spec,
                                     self.solver(), n, seed=5, workers=workers)
        assert [f[0] for f in info["flagged"]] == list(range(CHUNK))
        assert {f[2] for f in info["flagged"]} == {
            "nonlinearity 'burgers_quadratic' produced non-finite values"}
        assert info["member_seeds"] == whole.seeds[CHUNK:]
        assert np.array_equal(traj.values, whole.values[:, CHUNK:])

    @pytest.mark.parametrize("failing", [{0}, {0, 1}], ids=["one-left",
                                                             "none-left"])
    def test_flagged_chunks_leaving_one_member_raise(self, monkeypatch,
                                                     failing):
        """The kept-member rule is the join's: when flagged chunks leave
        fewer than two of CHUNK + 1 members, parallel_picard raises
        naming the first flagged member."""
        real = fracflow.experiments._picard_iterate

        def chunks_fail(ens, spec, config):
            if ens.seeds[0][1] // CHUNK in failing:
                raise NumericError("synthetic blowup")
            return real(ens, spec, config)

        monkeypatch.setattr(fracflow.experiments, "_picard_iterate",
                            chunks_fail)
        n = CHUNK + 1
        flagged = CHUNK if failing == {0} else n
        with pytest.raises(NumericError, match=re.escape(
                f"{flagged} members flagged, {n - flagged} left for a "
                "member-level stderr; the first, member 0 (seed (5, 0)): "
                "synthetic blowup")):
            parallel_picard(self.GRID, self.MEASURE, self.TANH,
                            self.solver(), n, seed=5)

    def test_one_unflagged_member_returns(self):
        traj, info = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                     self.solver(), 1, seed=5)
        assert traj.values.shape == (3, 1, 32)
        assert info["flagged"] == [] and info["member_seeds"] == [(5, 0)]
        assert info["diagnostics"].members == 1

    @pytest.mark.parametrize("solver_kw", [{}, {"tol": 1e-12, "max_iter": 6}],
                             ids=["converging", "capped"])
    def test_merged_diagnostics_equal_whole_batch(self, solver_kw):
        n = CHUNK + 3
        solver = self.solver(**solver_kw)
        traj, info = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                     solver, n, seed=5, workers=2)
        whole, diag = self.whole_batch(self.TANH, solver, n, seed=5)
        merged = info["diagnostics"]
        assert merged.residuals == diag.residuals
        assert merged.iterations == diag.iterations
        assert merged.converged == diag.converged == info["converged"]
        assert merged.unconverged_members == diag.unconverged_members
        assert merged.members == diag.members == n
        assert np.array_equal(traj.values, whole.values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_growing_run_raises_noncontraction(self, workers):
        # two chunks; with K = 0.01 the tanh(30) map does not contract
        n = CHUNK + 3
        nl = NonlinearitySpec.tanh(30.0)
        solver = self.solver(s=1.0, time_grid=np.linspace(0, 2, 21),
                             bielecki_k=0.01, max_iter=8)
        with pytest.raises(NonContractionError) as whole:
            self.whole_batch(nl, solver, n, seed=5)
        with pytest.raises(NonContractionError) as pooled:
            parallel_picard(self.GRID, self.MEASURE, nl, solver, n, seed=5,
                            workers=workers)
        assert pooled.value.measured_ratio == whole.value.measured_ratio
        assert pooled.value.bound == whole.value.bound
        assert pooled.value.iterations == whole.value.iterations == 8

    def test_pool_no_wider_than_chunk_count(self, monkeypatch):
        # a fork pool starts all max_workers processes at its first submit
        widths, started = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

            def shutdown(self, *args, **kwargs):
                started.append(len(self._processes))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(fracflow.experiments, "ProcessPoolExecutor",
                            RecordingPool)
        n = CHUNK + 1
        whole, _ = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                   self.solver(), n, seed=5)
        traj, _ = parallel_picard(self.GRID, self.MEASURE, self.TANH,
                                  self.solver(), n, seed=5, workers=4)
        assert widths == started == [2]
        assert np.array_equal(traj.values, whole.values)


class TestParallelLadder:
    CONFIG = {"experiment": "cutoff-ladder", "n_members": CHUNK + 3,
              "grid": {"n": 32}}

    def whole_batch(self, monkeypatch, *args):
        """parallel_ladder with CHUNK above the member count: one chunk
        holding the whole batch, solved in this process."""
        with monkeypatch.context() as patch:
            patch.setattr(fracflow.experiments, "CHUNK", args[4] + 1)
            return parallel_ladder(*args)

    def test_equals_in_memory_ladder(self, monkeypatch):
        cfg = RunConfig.from_dict(self.CONFIG)
        parts = _cfg_parts(cfg.to_dict())
        _, measure, spec, solver = parts
        args = (*parts, cfg.n_members, cfg.seed, (1, 2, 4, 8))
        ref_final, ref_series, ref_diagnostics, _ = self.whole_batch(
            monkeypatch, *args)
        # the top rung as a trajectory, for the moment tables' rows
        top, _ = picard_solve(*ladder_rung(
            sample_ensemble(measure, cfg.n_members, cfg.seed), spec, 8.0),
            solver)
        # two chunks, each reduced per member as its levels arrive
        for workers in (1, 2):
            final, series, diagnostics, flagged = parallel_ladder(
                *args, workers=workers)
            assert flagged == []
            assert list(diagnostics) == [1.0, 2.0, 4.0, 8.0]
            assert diagnostics == ref_diagnostics
            assert np.array_equal(series, ref_series)
            assert np.array_equal(final.values, ref_final.values)
            assert np.array_equal(final.values, top.values[-1])
            assert final.times == ref_final.times == top.times[-1]
            assert final.seeds == ref_final.seeds == top.seeds
            moments = ladder_moments(series)
            assert moments.keys() == {2, 4, 6}
            # the rows of moment-monotonicity's moment_p2/p4/p6 tables
            for p in (2, 4, 6):
                rows = reduce_moments(solver.time_grid, moments[p], p).rows()
                assert np.array_equal(rows, moment_series(top, p).rows(),
                                      equal_nan=True)

    @pytest.mark.parametrize("experiment,override", [
        ("cutoff-ladder", {}),
        ("moment-monotonicity", {}),
        ("moment-monotonicity", {"grid": {"d": 2, "n": 16},
                                 "solver": {"z": [1.0, 0.5]}}),
    ], ids=["cutoff-ladder", "moment-monotonicity", "moment-monotonicity-d2"])
    def test_rung_reuse_equals_whole_batch_rungs(self, monkeypatch,
                                                 experiment, override):
        """A rung copies the members its cut-off never bound on the rung
        below; every level must still equal a whole-batch solve of that
        rung, diagnostics included, and the top rung must sweep fewer
        members than the chunk holds, or the reuse has switched off."""
        cfg = RunConfig.from_dict({"experiment": experiment,
                                   "n_members": CHUNK + 3, "grid": {"n": 32},
                                   **override})
        grid, measure, spec, solver = parts = _cfg_parts(cfg.to_dict())
        levels = (1.0, 2.0, 4.0, 8.0)
        ens = sample_ensemble(measure, cfg.n_members, cfg.seed)
        solutions, diagnostics = {}, {}
        for n in levels:
            traj, diagnostics[n] = picard_solve(*ladder_rung(ens, spec, n),
                                                solver)
            solutions[n] = traj.values
        ref_series = ladder_series(grid, solutions)

        most_rows = {}            # each rung solve's plan -> its widest sweep
        first_rows = {}           # each rung solve's plan -> rows it starts
        real_apply = _DuhamelPlan.apply
        real_first = _DuhamelPlan.first_iterate

        def counting(plan, node1, values, members=None, reach=None):
            rows = values.shape[1] if members is None else members.size
            most_rows[plan] = max(most_rows.get(plan, 0), rows)
            return real_apply(plan, node1, values, members, reach)

        def starting(plan, u0):
            first_rows[plan] = first_rows.get(plan, 0) + u0.shape[0]
            return real_first(plan, u0)

        monkeypatch.setattr(_DuhamelPlan, "apply", counting)
        monkeypatch.setattr(_DuhamelPlan, "first_iterate", starting)
        for workers in (1, 2):
            final, series, level_diagnostics, _ = parallel_ladder(
                *parts, cfg.n_members, cfg.seed, levels, workers=workers)
            assert level_diagnostics == diagnostics, workers
            assert np.array_equal(series, ref_series)
            assert np.array_equal(final.values, solutions[8.0][-1])
            assert final.seeds == ens.seeds
        # only the in-process run's sweeps are counted: two chunks, workers 1
        def per_level(rows_of):
            return {n: sum(rows for plan, rows in rows_of.items()
                           if plan.spec.cutoff_level == n) for n in levels}

        swept = per_level(most_rows)
        assert swept[levels[0]] == cfg.n_members
        assert swept[levels[-1]] < cfg.n_members
        # a level starts (free flow, f(u0)) only the members it sweeps
        assert per_level(first_rows) == swept

    def test_reuse_decision_reads_every_flux_input(self, monkeypatch):
        """The rung above reuses exactly the members whose data and every
        flux input lay strictly inside the level.  Member 17's data (6.26)
        stay inside 8 while an iterate reaches 8.03, and member 0's data
        are made to touch 4 exactly; neither may be reused there."""
        cfg = RunConfig.from_dict({
            "experiment": "cutoff-ladder", "n_members": 20, "grid": {"n": 32},
            "solver": {"time_grid": np.linspace(0.0, 1.0, 11).tolist()}})
        grid, measure, spec, solver = parts = _cfg_parts(cfg.to_dict())
        levels = (2.0, 4.0, 8.0, 16.0)
        ens = sample_ensemble(measure, cfg.n_members, cfg.seed)
        # cos is exactly 1 at the node x = 0
        ens.values[0] = 4.0 * np.cos(grid.axis_points())
        monkeypatch.setattr(fracflow.experiments, "sample_ensemble",
                            lambda *args, **kw: ens)

        solved = {n: set() for n in levels}
        real_iterate = fracflow.solver._picard_iterate

        def recording(initial, rung_spec, config, reach=None):
            solved[rung_spec.cutoff_level].update(s[1] for s in initial.seeds)
            return real_iterate(initial, rung_spec, config, reach)

        monkeypatch.setattr(fracflow.solver, "_picard_iterate", recording)
        parallel_ladder(*parts, cfg.n_members, cfg.seed, levels)
        # reused from a level: the members the level above does not solve
        free = {n: set(range(cfg.n_members)) - solved[m]
                for n, m in zip(levels, levels[1:])}

        reach = []
        real_evaluate = NonlinearitySpec.evaluate

        def evaluate(nl, x):
            reach.append(float(np.max(np.abs(x))))
            return real_evaluate(nl, x)

        monkeypatch.setattr(NonlinearitySpec, "evaluate", evaluate)
        expected = {n: set() for n in levels[:-1]}
        inputs = {}
        for i in range(cfg.n_members):
            one = Ensemble(grid, ens.values[i:i + 1],
                           seeds=ens.seeds[i:i + 1])
            for n in levels[:-1]:
                reach.clear()
                real_iterate(*ladder_rung(one, spec, n), solver)
                inputs[i, n] = max(reach)
                if np.max(np.abs(ens.values[i])) < n and max(reach) < n:
                    expected[n].add(i)
        assert free == expected
        assert expected[2.0] and expected[4.0] and expected[8.0]
        assert inputs[0, 4.0] == 4.0 and 0 not in free[4.0]
        assert np.max(np.abs(ens.values[17])) < 8.0 <= inputs[17, 8.0]
        assert 17 not in free[8.0]

    def test_failed_chunk_reaches_the_manifest(self, monkeypatch, capsys,
                                               tmp_path):
        """A chunk that fails at level 2 is flagged, not raised: the
        manifest lists its members with the level's message, the CLI
        counts them, and the run goes on with the other chunk."""
        real = fracflow.solver._picard_iterate

        def level_two_fails(ens, spec, config, reach=None):
            if spec.cutoff_level == 2.0 and ens.seeds[0][1] == 0:
                raise NumericError("synthetic blowup")
            return real(ens, spec, config, reach)

        monkeypatch.setattr(fracflow.solver, "_picard_iterate",
                            level_two_fails)
        cfg = RunConfig.from_dict(self.CONFIG)
        config, out = tmp_path / "ladder.json", tmp_path / "run"
        config.write_text(json.dumps(self.CONFIG))
        cli_main(["run", str(config), "--workers", "1", "--out", str(out)])
        assert f"flagged members: {CHUNK}\n" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        flagged = manifest["flagged_members"]
        assert [f["member"] for f in flagged] == list(range(CHUNK))
        assert {f["error"] for f in flagged} == {
            "ladder level 2: synthetic blowup"}
        assert [f["seed"] for f in flagged] == \
            [[cfg.seed, j] for j in range(CHUNK)]
        assert manifest["member_seeds"] == \
            [[cfg.seed, j] for j in range(CHUNK, cfg.n_members)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_chunks_drop_their_columns(self, monkeypatch, workers):
        """Chunk 0 fails at level 4 and chunk 2 at level 2: both chunks'
        members are flagged with their level's message, and every level's
        series, the final state, the seeds and every level's diagnostics
        are the whole run's minus those columns."""
        cfg = RunConfig.from_dict(dict(self.CONFIG,
                                       n_members=2 * CHUNK + 3))
        parts = _cfg_parts(cfg.to_dict())
        _, _, spec, solver = parts
        args = (*parts, cfg.n_members, cfg.seed, (1, 2, 4))
        histories = []
        real_diagnostics = fracflow.experiments._diagnostics

        def capture_history(history, rung_spec, config):
            histories.append(history)
            return real_diagnostics(history, rung_spec, config)

        monkeypatch.setattr(fracflow.experiments, "_diagnostics",
                            capture_history)
        whole_final, whole_series, _, _ = parallel_ladder(*args)
        whole_histories = list(histories)

        real = fracflow.solver._picard_iterate
        fails = {(4.0, 0): "chunk 0 blowup", (2.0, 2): "chunk 2 blowup"}

        def failing(ens, rung_spec, config, reach=None):
            chunk = ens.seeds[0][1] // CHUNK
            if (rung_spec.cutoff_level, chunk) in fails:
                raise NumericError(fails[rung_spec.cutoff_level, chunk])
            return real(ens, rung_spec, config, reach)

        # a module global: forked pool workers inherit the patch
        monkeypatch.setattr(fracflow.solver, "_picard_iterate", failing)
        final, series, diagnostics, flagged = parallel_ladder(
            *args, workers=workers)
        kept = np.r_[CHUNK:2 * CHUNK]
        assert flagged == (
            [(j, whole_final.seeds[j], "ladder level 4: chunk 0 blowup")
             for j in range(CHUNK)]
            + [(j, whole_final.seeds[j], "ladder level 2: chunk 2 blowup")
               for j in range(2 * CHUNK, cfg.n_members)])
        assert np.array_equal(series, whole_series[:, kept])
        assert series.flags.c_contiguous
        assert np.array_equal(final.values, whole_final.values[kept])
        assert final.seeds == [whole_final.seeds[i] for i in kept]
        assert list(diagnostics) == [1.0, 2.0, 4.0]
        for n, whole_history in zip(diagnostics, whole_histories):
            assert diagnostics[n] == real_diagnostics(
                whole_history[:, kept], replace(spec, cutoff_level=n),
                solver)

    def test_growing_level_raises_noncontraction(self):
        # on this sample a rung's residual series ends above its first; the
        # pooled ladder raises as picard_solve does on the whole batch's
        # rungs, with the bound of the level's cut-off flux
        cfg = RunConfig.from_dict(dict(self.CONFIG, seed=99,
                                       grid={"n": 128}))
        levels = (1, 2, 4, 8)
        parts = _cfg_parts(cfg.to_dict())
        _, measure, spec, solver = parts
        args = (*parts, cfg.n_members, cfg.seed, levels)
        ens = sample_ensemble(measure, cfg.n_members, cfg.seed)
        with pytest.raises(NonContractionError) as whole:
            for n in levels:
                picard_solve(*ladder_rung(ens, spec, n), solver)
        for workers in (1, 2):
            with pytest.raises(NonContractionError) as pooled:
                parallel_ladder(*args, workers=workers)
            assert pooled.value.measured_ratio == whole.value.measured_ratio
            assert pooled.value.bound == whole.value.bound
            assert pooled.value.iterations == whole.value.iterations

    def test_moment_guard_detail_skips_node_zero(self):
        """Node 0 compares h_top(u0) with itself, so its z is 0 whatever
        the data; the detail line reports the minimum over nodes 1..N,
        and the experiment's check is _moment_guard's on its ladder."""
        cfg = RunConfig.from_dict(self.CONFIG)
        _, series, _, _ = parallel_ladder(
            *_cfg_parts(cfg.to_dict()), cfg.n_members, cfg.seed,
            (1, 2, 4, 8))
        moments = ladder_moments(series)
        guard_z = [z_score(*member_mean(m[0][None, :] - m, axis=1))
                   for m in (moments[2], moments[4])]
        assert all(z[0] == 0.0 for z in guard_z)
        later = min(float(np.min(z[1:])) for z in guard_z)
        assert later > 0.0
        check = _moment_guard(moments)
        assert check.detail == f"min initial-bound z = {later:.2f}"
        assert check.passed
        result = get_experiment("cutoff-ladder").fn(cfg.to_dict(), 1)
        assert {c.name: c for c in result.checks}["moment-guard"] == check

    def test_on_disk_bytes_worker_independent(self, tmp_path):
        cfg = RunConfig.from_dict(self.CONFIG)
        m1, _ = run_experiment(cfg, workers=1, out=tmp_path / "w1")
        m2, _ = run_experiment(cfg, workers=2, out=tmp_path / "w2")
        assert m1.tables == m2.tables
        assert m1.member_seeds == m2.member_seeds
        for name in ("ladder_distances.tsv", "final_state.bin"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w2" / name).read_bytes()


@pytest.mark.parametrize("experiment,owner,solve", [
    ("cutoff-ladder", fracflow.solver, "_picard_iterate"),
    ("energy-dissipation", fracflow.experiments, "_picard_iterate"),
    ("replay-determinism", fracflow.experiments, "_picard_iterate"),
])
def test_flagged_chunks_leaving_one_member_fail_the_run(
        monkeypatch, capsys, tmp_path, experiment, owner, solve):
    """Chunk 0 of a CHUNK + 1 member run fails numerically, which leaves
    one member for a member-level stderr: the run fails (exit 1) naming
    the flagged count and the first flagged member, and is not reported
    as a rejected configuration."""
    real = getattr(owner, solve)

    def chunk_zero_fails(ens, *args, **kwargs):
        if ens.seeds[0][1] == 0:
            raise NumericError("synthetic blowup")
        return real(ens, *args, **kwargs)

    monkeypatch.setattr(owner, solve, chunk_zero_fails)
    record = {"experiment": experiment, "n_members": CHUNK + 1,
              "grid": {"n": 32}}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(record))
    assert cli_main(["run", str(config), "--workers", "1"]) == 1
    seed = RunConfig.from_dict(record).seed
    where = "ladder level 1: " if experiment == "cutoff-ladder" else ""
    assert capsys.readouterr().err == (
        f"run failed: {CHUNK} members flagged, 1 left for a member-level "
        f"stderr; the first, member 0 (seed ({seed}, 0)): "
        f"{where}synthetic blowup\n")


class TestEnergyDissipationPool:
    # two chunks per solve; the gate's exact linear check still passes on
    # this grid, so all three solves are reported
    CONFIG = {"experiment": "energy-dissipation", "n_members": CHUNK + 1,
              "grid": {"n": 64}}
    FIELDS = ("lhs", "rhs", "residual", "stderr", "low_confidence")

    @pytest.fixture
    def reports(self, monkeypatch):
        """The reports energy-dissipation reduces from its chunk series."""
        calls = []
        real = fracflow.experiments.reduce_dissipation

        def capture(times, series):
            calls.append(real(times, series))
            return calls[-1]

        monkeypatch.setattr(fracflow.experiments, "reduce_dissipation",
                            capture)
        return calls

    def test_reduced_series_equal_trajectory_path(self, reports,
                                                  monkeypatch):
        noted = {}
        real_noted = fracflow.experiments._noted

        def capture(check, solves, noun):
            noted.update(solves)
            return real_noted(check, solves, noun)

        monkeypatch.setattr(fracflow.experiments, "_noted", capture)
        cfg = RunConfig.from_dict(self.CONFIG)
        result = get_experiment("energy-dissipation").fn(cfg.to_dict(), 2)
        assert [c.name for c in result.checks][:3] == [
            "linear-gate", "tanh-identity", "burgers-identity"]
        assert len(reports) == 3
        seeds = []
        grid, measure, spec, solver = _cfg_parts(cfg.to_dict())
        solves = _dissipation_solves(grid, measure, spec, cfg.n_members)
        for report, (m, flux, offset) in zip(reports, solves.values()):
            # the whole Picard solve in this process, drawn from its
            # counter block and solved on the grid the experiment solves it
            # on: the gate (f = 0) on n = 16, from every 4th point and P_t
            # u0, tanh and Burgers on n = 64 from the march
            ens = sample_ensemble(m, cfg.n_members, cfg.seed,
                                  counter_offset=offset)
            solved = _solve_grid(m, flux)
            gate = flux.kind == "zero"
            assert solved.n == (16 if gate else 64)
            ens = Ensemble(solved, ens.values[:, ::grid.n // solved.n],
                           seeds=ens.seeds)
            traj, _ = _picard_iterate(ens, flux, solver, march=not gate)
            ref = dissipation_residual(traj, solver.s)
            for name in self.FIELDS:
                assert np.array_equal(getattr(report, name),
                                      getattr(ref, name)), name
            assert report.n_members == ref.n_members == cfg.n_members
            seeds += traj.seeds
        assert result.member_seeds == seeds
        assert result.flagged == []
        # P_t u0 is the fixed point, so one sweep of each member confirms it
        assert noted["linear gate"].converged
        assert noted["linear gate"].iterations == 1
        # so no gate member was re-solved on the configured grid
        assert result.checks[0].detail == (
            "interior residual within dt^2 relative + 3 stderr (dt=0.005); "
            "it flows a |k| = 1 mode, where |k|^{2s} = 1 for every s, so it "
            "tests the time stencil, not s; "
            f"n = 16, 0 of {cfg.n_members} members re-solved on n = 64")
        assert result.checks[1].detail.endswith("; n = 64")

    def test_gate_detail_names_its_own_mode(self):
        """On a 3 pi torus the gate's wavenumber 1 snaps to the grid mode
        |k| = 4/3, whose |k|^{2s} depends on s: the detail says so and
        does not claim the check is blind to s."""
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "n_members": 2 * CHUNK + 1,
                                   "grid": {"n": 64, "len": 3 * math.pi}})
        result = get_experiment("energy-dissipation").fn(cfg.to_dict(), 1)
        detail = result.checks[0].detail
        assert result.checks[0].name == "linear-gate"
        assert "; it flows a |k| = 1.33 mode, where |k|^{2s} = 1.54 at " \
            "s = 0.75; n = 32" in detail
        assert "time stencil" not in detail

    def test_tables_worker_independent(self, tmp_path):
        cfg = RunConfig.from_dict(self.CONFIG)
        m1, _ = run_experiment(cfg, workers=1, out=tmp_path / "w1")
        m2, _ = run_experiment(cfg, workers=2, out=tmp_path / "w2")
        assert sorted(m1.tables) == ["dissipation_burgers",
                                     "dissipation_linear", "dissipation_tanh"]
        assert m1.tables == m2.tables
        assert m1.member_seeds == m2.member_seeds

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_gate_drops_later_solves_unread(self, monkeypatch,
                                                   workers):
        n = self.CONFIG["n_members"]
        real_series = fracflow.experiments.dissipation_series
        real_iterate = fracflow.experiments._picard_iterate

        def gate_off_balance(traj, s):
            series = real_series(traj, s)
            if traj.seeds[0][1] < n:          # the gate's counter block
                series[..., 1] -= 1.0         # a rate the flow never had
            return series

        def burgers_blows_up(ens, spec, config, **kwargs):
            if spec.kind == "burgers_quadratic":
                raise NumericError("synthetic blowup")
            return real_iterate(ens, spec, config, **kwargs)

        # module globals: forked pool workers inherit both patches
        monkeypatch.setattr(fracflow.experiments, "dissipation_series",
                            gate_off_balance)
        monkeypatch.setattr(fracflow.experiments, "_picard_iterate",
                            burgers_blows_up)
        cfg = RunConfig.from_dict(self.CONFIG)
        result = get_experiment("energy-dissipation").fn(cfg.to_dict(),
                                                         workers)
        checks = {c.name: c for c in result.checks}
        assert not checks["linear-gate"].passed
        for name in ("tanh-identity", "burgers-identity"):
            assert not checks[name].passed
            assert math.isnan(checks[name].statistic)
            assert checks[name].margin == -math.inf
            assert checks[name].detail == "skipped: linear gate failed"
        assert list(result.tables) == ["dissipation_linear"]
        assert result.member_seeds == [(cfg.seed, j) for j in range(n)]
        assert result.flagged == []


class TestCoarseDissipationGrid:
    """energy-dissipation's smooth solves run on the coarsest grid that
    resolves their data, and every member either lies within tol/100 of
    its configured-grid solve or is that solve, bit for bit."""

    @staticmethod
    def configured(m, flux, solver, members, seed, offset):
        """Each member's configured-grid series and residual history,
        every member solved alone from the march."""
        solves = [_picard_iterate(sample_ensemble(m, 1, seed, offset + i),
                                  flux, solver, march=True)
                  for i in members]
        return (np.concatenate([dissipation_series(traj, solver.s)
                                for traj, _ in solves], axis=1),
                np.concatenate([history for _, history in solves], axis=1))

    @pytest.mark.parametrize("name, coarse", [("linear", 16), ("tanh", 128)])
    def test_accepted_members_within_tol_100_at_shipped_grid(self, name,
                                                             coarse):
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "n_members": 64})
        grid, measure, spec, solver = _cfg_parts(cfg.to_dict())
        m, flux, offset = _dissipation_solves(grid, measure, spec,
                                              64)[name]
        assert (grid.n, _solve_grid(m, flux).n) == (512, coarse)
        ens = sample_ensemble(m, 64, cfg.seed, counter_offset=offset)
        out = _dissipation_chunk(ens, m, flux, solver)
        ref, history = _picard_iterate(ens, flux, solver,
                                       march=name != "linear")
        ref = dissipation_series(ref, solver.s)
        kept = ~out["refined"]
        assert kept.sum() >= 60
        assert np.max(np.abs(out["values"][:, kept] - ref[:, kept])) <= \
            solver.tol / 100
        assert np.array_equal(out["values"][:, ~kept], ref[:, ~kept])
        assert np.array_equal(out["history"][:, ~kept], history[:, ~kept])

    def test_refined_members_are_the_configured_grid_solve(self):
        # a k = 1 pair puts tanh on n = 16, where its flux's harmonics at
        # index 6 and above exceed tol/100 on the larger members
        grid = Grid(1, 64, 2 * math.pi)
        m = two_mode_measure(grid, [1.0], mass=0.01)
        flux = NonlinearitySpec.tanh(0.5)
        solver = SolverConfig(0.75, [1.0], np.linspace(0.0, 0.1, 11),
                              bielecki_k=4.0)
        assert _solve_grid(m, flux).n == 16
        out = _dissipation_chunk(sample_ensemble(m, 16, 5), m, flux, solver)
        refined = np.flatnonzero(out["refined"])
        kept = np.flatnonzero(~out["refined"])
        assert refined.size and kept.size
        values, history = self.configured(m, flux, solver, refined, 5, 0)
        assert np.array_equal(out["values"][:, refined], values)
        assert np.array_equal(out["history"][:, refined], history)
        values, _ = self.configured(m, flux, solver, kept, 5, 0)
        assert np.max(np.abs(out["values"][:, kept] - values)) <= \
            solver.tol / 100

    def test_cut_off_and_polynomial_fluxes_keep_the_grid(self):
        """The cut-off Burgers solve and every ladder keep the configured
        grid, so their tables are the configured-grid solve's."""
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "n_members": 8})
        grid, measure, spec, solver = _cfg_parts(cfg.to_dict())
        for flux in (NonlinearitySpec.burgers(cutoff_level=2.0),
                     NonlinearitySpec.tanh(0.5, cutoff_level=2.0),
                     NonlinearitySpec.power(1.0, 2.0, cutoff_level=2.0)):
            assert _solve_grid(measure, flux) == grid
        m, flux, offset = _dissipation_solves(grid, measure, spec,
                                              8)["burgers"]
        ens = sample_ensemble(m, 8, cfg.seed, counter_offset=offset)
        out = _dissipation_chunk(ens, m, flux, solver)
        traj, _ = _picard_iterate(ens, flux, solver, march=True)
        assert not out["refined"].any()
        assert np.array_equal(out["values"],
                              dissipation_series(traj, solver.s))

    @pytest.mark.parametrize("n, width, mass, coarse", [
        (512, 0.6, 1.0, 128), (512, 0.3, 1.0, 64), (96, 0.6, 1.0, 96),
        (48, 0.1, 1.0, 24), (40, 0.6, 0.0, 10), (512, 1000.0, 1.0, 512)])
    def test_grid_rule(self, n, width, mass, coarse):
        """The coarsest even n/2^j >= 8 whose Nyquist index is at least
        8 K: K = 7 at width 0.6, 3 at 0.3 and 1 at 0.1 (sqrt(w) falls
        below 1e-16 of its peak beyond), 0 for a zero measure; a band
        filling the grid keeps it, and a cut-off or polynomial flux
        always does."""
        grid = Grid(1, n, 2 * math.pi)
        m = gaussian_bump_measure(grid, width, mass=mass)
        assert _solve_grid(m, NonlinearitySpec.tanh(0.5)).n == coarse
        assert _solve_grid(m, NonlinearitySpec.zero()).n == coarse
        assert _solve_grid(m, NonlinearitySpec.burgers(2.0)) == grid


class TestMarchedStart:
    """energy-dissipation's tanh and Burgers solves start Picard from the
    product-integration march; every other solve starts from P_t u0."""

    @pytest.mark.parametrize("name", ["tanh", "burgers"])
    def test_marched_solve_within_tol_of_plain_fixed_point(self, name):
        """Each member's marched solve, on the grid the chunk solves it
        on, lies within tol of its plain-start solve in the Bielecki norm,
        and takes fewer sweeps."""
        cfg = RunConfig.from_dict({"experiment": "energy-dissipation",
                                   "n_members": CHUNK})
        grid, measure, spec, solver = _cfg_parts(cfg.to_dict())
        m, flux, offset = _dissipation_solves(grid, measure, spec,
                                              CHUNK)[name]
        solved = _solve_grid(m, flux)
        ens = sample_ensemble(m, CHUNK, cfg.seed, counter_offset=offset)
        ens = Ensemble(solved, np.ascontiguousarray(
            ens.values[:, ::grid.n // solved.n]), seeds=ens.seeds)
        plain, plain_history = _picard_iterate(ens, flux, solver)
        marched, history = _picard_iterate(ens, flux, solver, march=True)
        weights = np.exp(-solver.bielecki_k * solver.time_grid)
        distance = np.max(weights[:, None] * spatial_rms(
            solved, marched.values - plain.values), axis=0)
        assert distance.shape == (CHUNK,)
        assert np.all(distance <= solver.tol)
        assert np.all(history[-1] <= solver.tol)
        assert np.all(np.isfinite(history).sum(axis=0)
                      <= np.isfinite(plain_history).sum(axis=0))
        assert np.isfinite(history).sum() < np.isfinite(plain_history).sum()

    def test_picard_solve_and_ladder_chunk_start_from_free_flow(self):
        """The first-sweep residual of picard_solve and of a ladder
        chunk's first level is each member's weighted distance between
        P_t u0 and F(P_t u0)."""
        grid = Grid(1, 32, 2 * math.pi)
        measure = gaussian_bump_measure(grid, 0.6, mass=1.0)
        spec = NonlinearitySpec.burgers()
        solver = SolverConfig(0.75, [1.0], np.linspace(0.0, 0.1, 11),
                              bielecki_k=4.0)
        ens = sample_ensemble(measure, 5, seed=3)

        def free_flow_residual(u0, flux):
            free = np.stack([apply_multiplier_values(
                grid, u0, semigroup_multiplier(grid, solver.s, float(t)))
                for t in solver.time_grid])
            plan = _DuhamelPlan(grid, flux, solver)
            return plan.apply(plan.first_iterate(u0)[1], free)

        flux = replace(spec, cutoff_level=2.0)
        _, diag = picard_solve(ens, flux, solver)
        want = free_flow_residual(ens.values, flux)
        assert diag.residuals[0] == pytest.approx(np.max(want), rel=1e-9)
        payload = fracflow.experiments._chunk_payloads(
            measure, spec, solver, 5, seed=3, ladder=[1.0, 2.0])[0]
        history = fracflow.experiments._solve_chunk(payload)["history"]
        want = free_flow_residual(cutoff_map(ens.values, 1.0),
                                  replace(spec, cutoff_level=1.0))
        np.testing.assert_allclose(history[0, 0], want, rtol=1e-9)


class TestTwoDimensions:
    """The paper's data live on R^d: the pooled identities run on a 2-d
    torus with an oblique transport direction."""

    @pytest.mark.parametrize("experiment", ["energy-dissipation",
                                            "moment-monotonicity"])
    def test_passes_in_d2(self, experiment):
        cfg = RunConfig.from_dict({"experiment": experiment,
                                   "grid": {"d": 2, "n": 32},
                                   "n_members": 64,
                                   "solver": {"z": [1.0, 0.5]}})
        manifest, result = run_experiment(cfg, workers=2)
        assert manifest.passed, "\n".join(result.summary_lines())
        assert not result.flagged
        assert len(manifest.member_seeds) == (
            3 * 64 if experiment == "energy-dissipation" else 64)


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

    def test_run_names_unconverged_dissipation_solves(self, tmp_path,
                                                      capsys):
        cfg = self.write_config(tmp_path, {
            "experiment": "energy-dissipation", "n_members": 8,
            "grid": {"n": 64}, "solver": {"max_iter": 2, "tol": 1e-14}})
        cli_main(["run", cfg, "--workers", "1"])
        out = capsys.readouterr().out
        # zero flux makes the gate's first sweep exact, so it converges
        gate = next(line for line in out.splitlines() if "linear-gate" in line)
        assert "unconverged" not in gate
        for label in ("tanh", "burgers"):
            assert re.search(rf"{label}-identity: .*; unconverged solve: "
                             rf"{label} \(2 sweeps, residual [^,]+, 8 of 8 "
                             r"members above tol\)", out)

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
        {**SMALL, "grid": [32]},
        {**SMALL, "measure": {"params": {"width": "wide"}}},
        {**SMALL, "measure": {"mass": [1.0]}},
        {"experiment": "orthogonality", "solver": {"z": [1, 0, 3]}},
        {"experiment": "orthogonality", "solver": {"z": ["x"]}},
        {**SMALL, "solver": {"s": "abc"}},
        {**SMALL, "solver": {"time_grid": ["a", "b"]}},
        {**SMALL, "solver": {"time_grid": [0, [1, 2]]}},
        {**SMALL, "solver": {"tol": "tiny"}},
        {**SMALL, "solver": {"bielecki_k": None}},
        {**SMALL, "nonlinearity": {"scale": "big"}},
        {**SMALL, "solver": {"max_iter": 2.5}},
        {**SMALL, "solver": {"dealias": "yes"}},
        {**SMALL, "n_members": 2.5},
        {**SMALL, "out": 5},
        {**SMALL, "out": True},
    ], ids=["n-string", "n-fraction", "len-string", "d-bool", "grid-list",
            "width-string",
            "mass-list", "z-3d-on-1d-grid", "z-string", "s-string",
            "time-grid-strings", "time-grid-ragged", "tol-string", "k-null",
            "scale-string", "max-iter-fraction", "dealias-string",
            "members-fraction", "out-int", "out-bool"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, data):
        rc = cli_main(["run", self.write_config(tmp_path, data),
                       "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error" in captured.err
        assert captured.out == ""

    # an experiment's config holds only the model sections it builds
    @pytest.mark.parametrize("experiment, section", [
        ("linear-spectral-decay", "nonlinearity"),
        ("linear-spectral-decay", "solver"),
        ("semigroup-contraction", "nonlinearity"),
        ("kernel-identities", "measure"),
        ("kernel-identities", "nonlinearity"),
        ("kernel-identities", "solver"),
        ("gradient-bound", "nonlinearity"),
        ("orthogonality", "nonlinearity"),
        ("stroock-varopoulos", "nonlinearity"),
        ("stroock-varopoulos", "solver"),
    ])
    def test_unread_section_exit_two(self, tmp_path, capsys, experiment,
                                     section):
        record = get_experiment("zero-nonlinearity").default_config()[section]
        cfg = self.write_config(tmp_path, {"experiment": experiment,
                                           section: record})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (f"configuration error: experiment "
                                f"{experiment!r} reads no {section} section; "
                                f"leave '{section}' out of its config\n")
        assert captured.out == ""

    @pytest.mark.parametrize("experiment, section", [
        ("energy-dissipation", "nonlinearity"), ("orthogonality", "solver")])
    def test_null_read_section_exit_two(self, tmp_path, capsys, experiment,
                                        section):
        cfg = self.write_config(tmp_path, {"experiment": experiment,
                                           section: None})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == \
            f"configuration error: {section} record must be a mapping\n"
        assert captured.out == ""

    @pytest.mark.parametrize("experiment", ["kernel-identities",
                                            "stroock-varopoulos"])
    def test_unread_sections_replay_as_null(self, tmp_path, capsys,
                                            experiment):
        cfg = self.write_config(tmp_path, {"experiment": experiment,
                                           "n_members": 200})
        out = tmp_path / "run"
        assert cli_main(["run", cfg, "--out", str(out),
                         "--workers", "1"]) == 0
        capsys.readouterr()
        config = RunManifest.load(out / "manifest.json").config
        assert config["nonlinearity"] is None and config["solver"] is None
        assert (config["measure"] is None) == (experiment
                                               == "kernel-identities")
        rc = cli_main(["replay", str(out / "manifest.json"),
                       "--workers", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "MISMATCH" not in captured.out
        assert captured.out.count(": match") == len(
            RunManifest.load(out / "manifest.json").tables)

    @pytest.mark.parametrize("experiment", ["cutoff-ladder",
                                            "moment-monotonicity"])
    def test_ladder_cutoff_exit_two_before_solving(self, tmp_path, capsys,
                                                   monkeypatch, experiment):
        # each ladder level sets the cut-off, so a configured one is unread
        def no_solve(*args):
            raise AssertionError("a member chunk was solved")

        monkeypatch.setattr(fracflow.experiments, "_solve_chunk", no_solve)
        cfg = self.write_config(tmp_path, {
            "experiment": experiment,
            "nonlinearity": {"kind": "burgers_quadratic", "cutoff_level": 3}})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "the flux's own cutoff_level 3 would be ignored" in captured.err
        assert captured.out == ""

    def test_solver_failure_exit_one(self, tmp_path, capsys):
        # a valid config whose ladder does not contract on this sample: a
        # FracflowError that is not a configuration error
        cfg = self.write_config(tmp_path, {"experiment": "cutoff-ladder",
                                           "n_members": 128, "seed": 99})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(
            "run failed: residual still growing after 40 iterations")
        assert captured.out == ""

    @pytest.mark.parametrize("experiment", [
        "cutoff-ladder", "moment-monotonicity", "energy-dissipation",
        "replay-determinism"])
    def test_one_member_exit_two_before_solving(self, tmp_path, capsys,
                                                monkeypatch, experiment):
        def no_solve(*args):
            raise AssertionError("a member chunk was solved")

        # plain chunks solve through the first, ladder levels the second
        monkeypatch.setattr(fracflow.experiments, "_picard_iterate", no_solve)
        monkeypatch.setattr(fracflow.solver, "_picard_iterate", no_solve)
        cfg = self.write_config(tmp_path, {"experiment": experiment,
                                           "n_members": 1})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "needs >= 2 members" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_two_node_dissipation_exit_two_before_solving(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # both nodes of [0, dt] are one-sided, so no interior node is left
        # for the gate or the identities to test
        def no_solve(*args):
            raise AssertionError("a member chunk was solved")

        monkeypatch.setattr(fracflow.experiments, "_solve_chunk", no_solve)
        cfg = self.write_config(tmp_path, {
            "experiment": "energy-dissipation", "n_members": 8,
            "grid": {"n": 32}, "solver": {"time_grid": [0.0, 0.0005]}})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("configuration error:")
        assert "time_grid of >= 3 nodes, got 2" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_three_node_dissipation_runs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "experiment": "energy-dissipation", "n_members": 8,
            "grid": {"n": 32}, "solver": {"time_grid": [0.0, 0.0005, 0.001]}})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        assert "PASS linear-gate" in captured.out

    @pytest.mark.parametrize("experiment", [
        "moment-monotonicity", "orthogonality", "stroock-varopoulos",
        "replay-determinism"])
    def test_one_member_estimate_exit_two(self, tmp_path, capsys,
                                          experiment):
        # one member has no stderr, so no statistical check can pass
        cfg = self.write_config(tmp_path, {"experiment": experiment,
                                           "n_members": 1})
        rc = cli_main(["run", cfg, "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "needs >= 2 members" in captured.err
        assert "Traceback" not in captured.err
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

    @pytest.mark.parametrize("edit", [
        lambda data: {**data, "config": "zero-nonlinearity"},
        lambda data: {**data, "tables": list(data["tables"])},
        lambda data: [data],
    ], ids=["config-string", "tables-list", "document-list"])
    def test_malformed_manifest_exit_two(self, tmp_path, capsys, edit):
        cfg = self.write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        cli_main(["run", cfg, "--out", str(out), "--workers", "1"])
        capsys.readouterr()
        path = out / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = cli_main(["replay", str(path), "--workers", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error" in captured.err
        assert "must be a mapping" in captured.err
