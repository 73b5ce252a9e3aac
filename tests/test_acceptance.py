"""Acceptance gate: every verification experiment at its shipped
defaults, with the stated runtime budgets enforced.

Each test prints a single pass/fail line (run pytest with -s to watch
them stream) and fails with the full check details if the underlying
experiment reports a violation.
"""

import os
import time

import pytest

from fracflow.experiments import get_experiment
from fracflow.runner import RunConfig, replay_run, run_experiment

pytestmark = pytest.mark.slow


def _run(name):
    experiment = get_experiment(name)
    config = experiment.default_config()
    t0 = time.perf_counter()
    # output is bit-identical for any worker count (criterion 12), so
    # the pooled experiments may use every core
    result = experiment.fn(config, os.cpu_count() or 1)
    wall = time.perf_counter() - t0
    return result, wall


def _report(number, label, result, wall):
    verdict = "PASS" if result.passed else "FAIL"
    print(f"[criterion {number:02d}] {label}: {verdict} ({wall:.1f}s)")
    detail = "\n".join(result.summary_lines())
    assert result.passed, detail
    assert not result.flagged, f"{len(result.flagged)} members flagged"


def test_01_linear_spectral_decay():
    result, wall = _run("linear-spectral-decay")
    _report(1, "linear spectral decay", result, wall)
    assert wall < 10.0, f"runtime {wall:.1f}s exceeds 10 s budget"


def test_02_semigroup_law_and_contraction():
    result, wall = _run("semigroup-contraction")
    _report(2, "semigroup law and L2 contraction", result, wall)


def test_03_kernel_identities():
    result, wall = _run("kernel-identities")
    _report(3, "kernel mass, scaling, Gaussian oracle", result, wall)
    assert wall < 1.0, f"runtime {wall:.2f}s exceeds 1 s budget"


def test_04_gradient_semigroup_bound():
    result, wall = _run("gradient-bound")
    _report(4, "gradient-flow operator bound", result, wall)


def test_05_picard_contraction_rate():
    result, wall = _run("picard-contraction")
    _report(5, "Picard contraction at the predicted rate", result, wall)
    assert wall < 60.0, f"runtime {wall:.1f}s exceeds 60 s budget"


def test_06_moment_monotonicity():
    result, wall = _run("moment-monotonicity")
    _report(6, "moment monotonicity p in {2, 4, 6}", result, wall)
    assert wall < 600.0, f"runtime {wall:.1f}s exceeds 10 min budget"


def test_07_energy_dissipation_identity():
    result, wall = _run("energy-dissipation")
    _report(7, "energy-dissipation identity", result, wall)


def test_08_orthogonality_identity():
    result, wall = _run("orthogonality")
    _report(8, "gradient-pairing orthogonality", result, wall)


def test_09_cutoff_ladder_cauchy():
    result, wall = _run("cutoff-ladder")
    _report(9, "cut-off ladder Cauchy behavior", result, wall)


def test_10_convexity_inequality():
    result, wall = _run("stroock-varopoulos")
    _report(10, "kernel convexity inequality", result, wall)


def test_11_solver_cross_validation():
    result, wall = _run("solver-cross-validation")
    _report(11, "solver cross-validation", result, wall)


def test_12_byte_identical_replay(tmp_path):
    result, wall = _run("replay-determinism")
    _report(12, "worker-count determinism", result, wall)
    # same property through the artifact pipeline: a written manifest of a
    # pooled run (three chunks per solve) replayed with a different worker
    # count
    config = RunConfig.from_dict({"experiment": "energy-dissipation",
                                  "n_members": 65, "grid": {"n": 64}})
    out = tmp_path / "orig"
    original, _ = run_experiment(config, workers=1, out=out)
    replayed, _, matches = replay_run(out / "manifest.json", workers=2)
    assert matches and all(matches.values()), f"table mismatch: {matches}"
    assert replayed.tables == original.tables
