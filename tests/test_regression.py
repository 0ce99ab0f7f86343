"""Portable regression check: a fresh run of each committed config against
the committed reference CSVs, compared by the benchmark's correctness
gate (identity and ``passed`` columns exact, eigenvalue columns to a
relative tolerance) rather than byte for byte."""

import importlib.util
import pathlib

import pytest

from cylgap import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gate", ROOT / "perfbench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


# reference directory under perfbench/reference -> committed config
CONFIGS = {"asymmetric": "asymmetric_showcase.cfg",
           "model_gap": "model_gap.cfg",
           "multi_direction": "multi_direction.cfg"}


@pytest.mark.parametrize("workload", list(CONFIGS))
def test_config_matches_reference(tmp_path, monkeypatch, workload):
    out = tmp_path / workload
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(out))
    cli.run(str(ROOT / "configs" / CONFIGS[workload]))
    result = load_gate().check(ROOT / "perfbench" / "reference" / workload,
                               out)
    assert result.rows > 0
    assert result.ok, result.problems
