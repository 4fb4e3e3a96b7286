"""Cross-process durability: concurrent writers and kill-mid-write.

These tests exercise the on-disk stores the way parallel workers do:
several processes hammering the same key at once, and a worker dying
(SIGKILL — no cleanup handlers) in the middle of a write.
The contract under test: a reader never sees a half-written artifact —
either the previous complete snapshot, the new one, or (for streamed
traces) every complete record up to the cut.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}


class TestConcurrentWriters:
    def test_two_workers_racing_one_characterization_key(self, tmp_path):
        script = """
import sys
import numpy as np
from repro.arith.modes import default_mode_bank
from repro.core.characterize import CharacterizationCache, characterize
from repro.arith.fixed import FixedPointFormat
from repro.solvers.functions import QuadraticFunction
from repro.solvers.gradient_descent import GradientDescent

cache_dir = sys.argv[1]
fn = QuadraticFunction.random_spd(dim=4, seed=31, condition=25.0)
method = GradientDescent(fn, x0=np.full(4, 2.0), learning_rate=0.05)
bank = default_mode_bank()
fmt = FixedPointFormat(width=32, frac_bits=16)
table = characterize(method, bank, fmt, probe_iterations=2)
cache = CharacterizationCache(cache_dir)
for _ in range(25):
    cache.store(method, bank, fmt, 2, table)
assert cache.load(method, bank, fmt, 2) is not None
print("ok")
"""
        cache_dir = str(tmp_path / "char-cache")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, cache_dir],
                env=ENV,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err

        # Every cache file on disk parses cleanly.
        entries = list(Path(cache_dir).glob("*.json"))
        assert entries
        for entry in entries:
            json.loads(entry.read_text())


class TestKillMidWrite:
    def test_sigkill_mid_stream_recovers_all_complete_records(self, tmp_path):
        # A worker streaming a trace is SIGKILLed mid-run.  The file on
        # disk must never be unparseable: partial load recovers every
        # complete record, and the header is always intact because the
        # writer emits it first.
        script = """
import sys
from repro.obs.events import TraceEvent
from repro.obs.io import TraceWriter

writer = TraceWriter(sys.argv[1], meta={"label": "victim"})
print("ready", flush=True)
i = 0
while True:
    writer.write_event(
        TraceEvent(kind="iteration", iteration=i, detail={"objective": 0.5})
    )
    i += 1
"""
        path = tmp_path / "victim.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            env=ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            # Let it stream for a moment, then kill without warning.
            deadline = time.monotonic() + 10
            while path.stat().st_size < 4096:
                assert time.monotonic() < deadline, "writer produced no output"
                time.sleep(0.01)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        from repro.obs.io import load_trace

        trace = load_trace(path, partial=True)
        assert trace.meta == {"label": "victim"}
        assert len(trace.events) > 0
        # Events form the uninterrupted prefix of the stream.
        assert [e.iteration for e in trace.events] == list(
            range(len(trace.events))
        )

    def test_sigkill_mid_snapshot_keeps_previous_generation(self, tmp_path):
        # A worker atomically re-snapshotting a trace in a tight loop is
        # SIGKILLed.  Strict load must still parse: the destination only
        # ever holds a complete generation.
        script = """
import sys
from repro.obs.events import TraceEvent
from repro.obs.io import save_trace

path = sys.argv[1]
print("ready", flush=True)
generation = 0
while True:
    events = [
        TraceEvent(kind="iteration", iteration=i) for i in range(50)
    ]
    save_trace(path, events, meta={"generation": generation})
    generation += 1
"""
        path = tmp_path / "snapshot.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            env=ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            deadline = time.monotonic() + 10
            while not path.exists():
                assert time.monotonic() < deadline, "no snapshot appeared"
                time.sleep(0.01)
            time.sleep(0.2)  # let a few generations land
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        from repro.obs.io import load_trace

        trace = load_trace(path)  # strict: must be a complete snapshot
        assert len(trace.events) == 50
        assert isinstance(trace.meta["generation"], int)

