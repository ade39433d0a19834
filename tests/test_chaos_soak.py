"""The chaos soak end to end: every mode green, and a failing oracle
check fails the round and keeps its state for post-mortem.

Three rounds per mode cover everything a mode cycles through by round
index: the crash, torn-tail and bad-checkpoint scenarios of ``single``,
the three ``reshard`` faults and the three ``ingest`` targets.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.testing import VersionOracle

_PATH = Path(__file__).resolve().parent.parent / "tools" / "chaos_soak.py"
_SPEC = importlib.util.spec_from_file_location("chaos_soak", _PATH)
chaos_soak = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(chaos_soak)


def test_mode_table_lists_every_stack():
    assert set(chaos_soak.MODES) == {
        "single", "cluster", "router", "net", "reshard", "ingest",
    }


@pytest.mark.parametrize("mode", tuple(chaos_soak.MODES))
def test_three_rounds_pass(mode, tmp_path):
    status = chaos_soak.soak(
        seeds=[0], time_budget=0, min_rounds=3, mode=mode,
        artifact_dir=tmp_path,
    )
    assert status == 0
    assert not list(tmp_path.iterdir()), "a passing soak kept artifacts"


@pytest.mark.parametrize("mode", tuple(chaos_soak.MODES))
def test_wrong_oracle_fails_the_round_and_keeps_its_state(
    mode, tmp_path, monkeypatch
):
    """Every mode checks through ``VersionOracle.box_sum``: a truth that
    is one unit off must fail round 0 and keep its parameters and state
    directory under the artifact dir."""
    truth = VersionOracle.box_sum
    monkeypatch.setattr(
        VersionOracle, "box_sum",
        lambda self, low, high, version: truth(self, low, high, version) + 1,
    )
    status = chaos_soak.soak(
        seeds=[0], time_budget=0, min_rounds=1, mode=mode,
        artifact_dir=tmp_path,
    )
    assert status == 1
    kept = tmp_path / "seed0-round0"
    params = json.loads((kept / "round.json").read_text())
    assert params["seed"] == 0 and params["round"] == 0
    assert "AssertionError" in params["traceback"]
    assert (kept / "state").is_dir()
