"""``run_trials`` with ``jobs > 1`` and a metrics path.

Each worker writes its trial's events to a private file; the runner
merges them, in spec order, into the one JSONL file a serial run writes
and leaves no worker file behind.
"""

import json

from repro.experiments.parallel import run_trials
from repro.experiments.runner import TrialSpec
from repro.obs import Instrumentation, JsonlSink, activated
from tests.test_experiments import DETERMINISTIC_FIELDS, MICRO


class TestParallelMetricsMerge:
    """--jobs composes with --metrics-out: worker files merge into one."""

    def _specs(self):
        return [
            TrialSpec(policy="fifo", scale=MICRO, seed=s) for s in (1, 2)
        ] + [TrialSpec(policy="kflushing", scale=MICRO, seed=3)]

    def test_parallel_matches_serial_events(self, tmp_path):
        specs = self._specs()
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = run_trials(specs, jobs=1, metrics_path=serial_path)
        parallel = run_trials(specs, jobs=2, metrics_path=parallel_path)
        for a, b in zip(serial, parallel):
            for name in DETERMINISTIC_FIELDS:
                assert getattr(a, name) == getattr(b, name)
        serial_events = [json.loads(l) for l in serial_path.read_text().splitlines()]
        parallel_events = [
            json.loads(l) for l in parallel_path.read_text().splitlines()
        ]
        # Trials are merged in spec order, so modulo wall-clock fields the
        # streams should describe the same events; cheap invariants:
        assert len(serial_events) == len(parallel_events)
        snaps = [e for e in parallel_events if e["type"] == "trial_snapshot"]
        assert len(snaps) == len(specs)
        assert not list(tmp_path.glob("parallel.jsonl.w*")), "worker files left behind"

    def test_activated_scope_discovery(self, tmp_path):
        specs = self._specs()[:2]
        path = tmp_path / "scope.jsonl"
        obs = Instrumentation(sink=JsonlSink(path))
        with activated(obs):
            run_trials(specs, jobs=2)
        obs.close()
        events = [json.loads(l) for l in path.read_text().splitlines()]
        assert sum(1 for e in events if e["type"] == "trial_snapshot") == len(specs)
        assert not list(tmp_path.glob("scope.jsonl.w*"))
