"""Golden steady-state trials for the default memory layout.

``golden_trials.json`` holds ``run_trial`` results at the micro scale
with every wall-clock-dependent field stripped.  Any change that alters
an answer, a hit, a flush cadence or a byte count on these configs fails
here, so refactors of the storage tier can prove they change speed only.

Regenerate (only when a change is *meant* to alter results) with::

    PYTHONPATH=src python -m tests.test_golden_trials
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.runner import TrialSpec, run_trial
from tests.test_experiments import MICRO

GOLDEN_PATH = Path(__file__).with_name("golden_trials.json")

#: Fields that measure time rather than behaviour.
_WALL_CLOCK_FIELDS = ("spec", "insert_rate", "effective_digestion_rate")


def _specs() -> dict[str, dict]:
    specs: dict[str, dict] = {}
    for policy in ("fifo", "lru", "kflushing", "kflushing-mk"):
        for mode in ("correlated", "uniform"):
            specs[f"{policy}-s1-{mode}"] = dict(policy=policy, workload_mode=mode)
    specs["kflushing-strict-and"] = dict(policy="kflushing", strict_and=True)
    specs["kflushing-disk-elide-empty"] = dict(
        policy="kflushing", disk_elide_empty=True
    )
    specs["kflushing-s1-disk-cache"] = dict(
        policy="kflushing", disk_cache_bytes=20_000
    )
    specs["kflushing-adaptive"] = dict(policy="kflushing", adaptive=True)
    return specs


SPECS = _specs()


def _comparable(result) -> dict:
    payload = asdict(result)
    for name in _WALL_CLOCK_FIELDS:
        payload.pop(name)
    payload["extras"] = {
        key: value
        for key, value in payload["extras"].items()
        if "seconds" not in key and "rate" not in key
    }
    return payload


def _run(name: str) -> dict:
    return _comparable(run_trial(TrialSpec(scale=MICRO, seed=13, **SPECS[name])))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_spec(golden):
    assert sorted(golden) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_trial_matches_golden(name, golden):
    # A JSON round trip keeps floats exact (repr round-trips), so equality
    # here is bit-for-bit on every number.
    assert json.loads(json.dumps(_run(name))) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: _run(name) for name in sorted(SPECS)}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
