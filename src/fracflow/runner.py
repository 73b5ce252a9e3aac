"""Run orchestration around the experiment registry: strict JSON
configs, manifest emission, atomic artifact directories, and replay.

A config file only needs the experiment name; every omitted field is
filled from the experiment's defaults and the fully merged config is
echoed into the manifest, so nothing about a run is ever implicit.  The
defaults hold only the model sections (measure, nonlinearity, solver)
the experiment builds: a config that sets another is rejected, and the
echo records it as null, so every value the manifest names was read.
Artifacts are written to a staging directory and renamed into place,
which means an output directory either holds a complete run or does not
exist.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields

from .ensemble_stats import format_table
from .errors import ConfigurationError, from_record, require_number
from .experiments import ExperimentResult, _cfg_parts, get_experiment
from .random_fields import export_ensemble
from .spectral import normalize_direction


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    # a measure of another family reads none of the default's params
    if override.get("family", base.get("family")) != base.get("family"):
        out.pop("params", None)
    for key, value in override.items():
        old = out.get(key)
        # a nonlinearity of another kind reads none of the default's keys,
        # so its record replaces the default's instead of merging into it
        if (isinstance(value, dict) and isinstance(old, dict)
                and value.get("kind", old.get("kind")) == old.get("kind")):
            out[key] = _deep_merge(old, value)
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    """A fully resolved run description; construct via from_dict or
    from_file so defaults are merged and everything validates.  A model
    section its experiment does not read is None."""

    experiment: str
    grid: dict
    n_members: int
    seed: int
    measure: dict | None = None
    nonlinearity: dict | None = None
    solver: dict | None = None
    out: str | None = None

    def __post_init__(self):
        self.n_members = require_number(self.n_members, "n_members",
                                        integer=True)
        if self.n_members < 1:
            raise ConfigurationError(
                f"n_members must be >= 1, got {self.n_members}")
        self.seed = require_number(self.seed, "seed", integer=True)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError(
                f"'out' must be a path string or null, got {self.out!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a mapping")
        name = data.get("experiment")
        if not isinstance(name, str):
            raise ConfigurationError("config needs an 'experiment' name")
        defaults = get_experiment(name).default_config()
        merged = _deep_merge(defaults, data)
        # an experiment reads exactly the model sections of its defaults
        for key in ("measure", "nonlinearity", "solver"):
            if key in defaults and not isinstance(merged[key], dict):
                raise ConfigurationError(f"{key} record must be a mapping")
            if key not in defaults and merged.get(key) is not None:
                raise ConfigurationError(
                    f"experiment {name!r} reads no {key} section; leave "
                    f"'{key}' out of its config")
        cfg = from_record(cls, merged, "config")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}")
        return cls.from_dict(data)

    def validate(self):
        """Build every section once; raises on the first bad one."""
        grid, _, _, solver = _cfg_parts(self.to_dict())
        if solver is not None:
            normalize_direction(grid, solver.z)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit a run: the full config
    echo, per-member seeds, check outcomes, and a sha256 per emitted
    table (wall clock is informational and excluded from any
    byte-for-byte comparison)."""

    experiment: str
    version: str
    config: dict
    workers: int
    wall_clock_s: float
    member_seeds: list
    flagged_members: list
    checks: list
    tables: dict                # required: replay compares every entry
    field_files: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read manifest {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"manifest {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigurationError(f"manifest {path} must be a mapping")
        for key in ("config", "tables"):
            if not isinstance(data.get(key, {}), dict):
                raise ConfigurationError(
                    f"manifest {path} field {key!r} must be a mapping")
        # keys that are not fields (from other versions) are ignored
        names = {f.name for f in fields(cls)}
        return from_record(cls, {k: v for k, v in data.items() if k in names},
                           f"manifest {path}")


def _table_text(result: ExperimentResult, name: str) -> str:
    header, rows = result.tables[name]
    return format_table(header, rows)


def run_experiment(config: RunConfig, workers: int = 1,
                   out=None) -> tuple:
    """Execute a validated config; returns (RunManifest, ExperimentResult)
    and, when an output directory is set, writes the artifact set there
    atomically."""
    from fracflow import __version__

    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    out = config.out if out is None else out
    if out is not None and not isinstance(out, (str, os.PathLike)):
        raise ConfigurationError(
            f"out must be a path or None, got {out!r}")
    # fail on an occupied target before burning compute, not after
    if out is not None and os.path.exists(out):
        raise ConfigurationError(
            f"output directory {os.path.abspath(str(out))} already exists; "
            "refusing to overwrite")
    t0 = time.perf_counter()
    result = get_experiment(config.experiment).fn(config.to_dict(), workers)
    wall = time.perf_counter() - t0
    tables = {name: hashlib.sha256(_table_text(result, name).encode())
              .hexdigest() for name in sorted(result.tables)}
    manifest = RunManifest(
        experiment=config.experiment,
        version=__version__,
        config=config.to_dict(),
        workers=workers,
        wall_clock_s=wall,
        member_seeds=[list(s) for s in result.member_seeds],
        flagged_members=[{"member": int(i), "seed": list(s), "error": msg}
                         for i, s, msg in result.flagged],
        checks=[{"name": c.name, "passed": bool(c.passed),
                 "detail": c.detail} for c in result.checks],
        tables=tables,
    )
    if out is not None:
        _write_artifacts(str(out), manifest, result)
    return manifest, result


def _write_artifacts(out: str, manifest: RunManifest,
                     result: ExperimentResult):
    out = os.path.abspath(out)
    if os.path.exists(out):
        raise ConfigurationError(
            f"output directory {out} already exists; refusing to overwrite")
    parent = os.path.dirname(out)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=parent)
    try:
        for name in sorted(result.tables):
            with open(os.path.join(staging, f"{name}.tsv"), "w") as fh:
                fh.write(_table_text(result, name))
        for name in sorted(result.fields):
            paths = export_ensemble(result.fields[name],
                                    os.path.join(staging, name))
            manifest.field_files[name] = [os.path.basename(p) for p in paths]
        manifest.save(os.path.join(staging, "manifest.json"))
        os.rename(staging, out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def replay_run(manifest_path, workers: int = 1, out=None) -> tuple:
    """Re-execute a run from its manifest echo.

    Returns (manifest, result, matches) where matches reports, per
    table, whether the replayed sha256 equals the recorded one; with the
    same config and seed these must all be True for any worker count.
    """
    original = RunManifest.load(manifest_path)
    config_dict = dict(original.config)
    config_dict["out"] = None
    config = RunConfig.from_dict(config_dict)
    manifest, result = run_experiment(config, workers=workers, out=out)
    matches = {name: manifest.tables.get(name) == sha
               for name, sha in original.tables.items()}
    return manifest, result, matches
