"""The supervisor's watchdog: which dead workers it restarts.

Before every worker is ready, any worker exit fails
``ExamCluster.start()`` at once.  After that, a worker whose recovery
refuses its shard's WAL exits 2, as ``serve --wal-dir`` does, and is
never restarted: replaying the same bytes would fail the same way.  Any
other death (SIGKILL, exit 1) is restarted.  The flaky workers below
wrap the real ``_worker_main``; workers are forked, so they run the
patched module attribute.
"""

import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import supervisor
from repro.cluster.supervisor import RECOVERY_REFUSED, ExamCluster
from repro.core.errors import StoreError

GOLDEN_WAL = Path(__file__).parents[1] / "store" / "golden_v2" / "wal"


def damaged_root(root):
    """A cluster WAL root: shard-0 holds the golden v2 segment with a
    flipped magic, shard-1 is empty.  Returns the damaged segment."""
    shutil.copytree(GOLDEN_WAL, root / "shard-0")
    (root / "shard-1").mkdir()
    (segment,) = sorted((root / "shard-0").glob("wal-*.walb"))
    raw = bytearray(segment.read_bytes())
    raw[0] ^= 0xFF
    segment.write_bytes(bytes(raw))
    return segment


def wait_for(condition, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition never held")
        time.sleep(0.05)


class TestRefusedRecovery:
    def test_start_fails_at_once_and_forks_the_shard_once(self, tmp_path):
        segment = damaged_root(tmp_path)
        before = segment.read_bytes()
        cluster = ExamCluster(workers=2, wal_root=tmp_path)
        began = time.monotonic()
        with pytest.raises(StoreError, match="shard-0 exited with code 2"):
            cluster.start()
        assert time.monotonic() - began < 10
        assert cluster.restarts["shard-0"] == 0
        # start() stopped the healthy worker before raising
        assert all(
            process.exitcode is not None
            for process in cluster._processes.values()
        )
        assert segment.read_bytes() == before

    def test_a_refused_restart_is_not_retried(self, tmp_path, monkeypatch):
        """shard-0 boots, is SIGKILLed, and its restart exits 2: the
        watchdog leaves it down."""
        boots = tmp_path / "boots"
        boots.mkdir()
        real = supervisor._worker_main

        def refused_on_restart(cluster, shard):
            if shard == "shard-0":
                boot = len(list(boots.iterdir()))
                (boots / str(boot)).touch()
                if boot > 0:
                    sys.exit(RECOVERY_REFUSED)
            real(cluster, shard)

        monkeypatch.setattr(supervisor, "_worker_main", refused_on_restart)
        with ExamCluster(workers=2) as cluster:
            cluster.kill_worker("shard-0", signal.SIGKILL)
            wait_for(lambda: len(list(boots.iterdir())) == 2)
            wait_for(
                lambda: cluster._processes["shard-0"].exitcode
                == RECOVERY_REFUSED
            )
            time.sleep(4 * supervisor.WATCH_INTERVAL)
            assert cluster.restarts == {"shard-0": 1, "shard-1": 0}
            assert len(list(boots.iterdir())) == 2


class TestOtherDeaths:
    def test_a_worker_that_exits_1_is_restarted(self, tmp_path, monkeypatch):
        """shard-1 boots, is SIGKILLed, and its first restart exits 1:
        the watchdog restarts it again."""
        boots = tmp_path / "boots"
        boots.mkdir()
        real = supervisor._worker_main

        def crashes_on_first_restart(cluster, shard):
            if shard == "shard-1":
                boot = len(list(boots.iterdir()))
                (boots / str(boot)).touch()
                if boot == 1:
                    sys.exit(1)
            real(cluster, shard)

        monkeypatch.setattr(
            supervisor, "_worker_main", crashes_on_first_restart
        )
        with ExamCluster(workers=2) as cluster:
            cluster.kill_worker("shard-1", signal.SIGKILL)
            wait_for(
                lambda: len(list(boots.iterdir())) == 3
                and cluster._probe("shard-1")
            )
            assert cluster.restarts == {"shard-0": 0, "shard-1": 2}

    def test_an_exit_before_ready_fails_start_at_once(
        self, tmp_path, monkeypatch
    ):
        real = supervisor._worker_main

        def exits_1_at_boot(cluster, shard):
            if shard == "shard-0":
                sys.exit(1)
            real(cluster, shard)

        monkeypatch.setattr(supervisor, "_worker_main", exits_1_at_boot)
        cluster = ExamCluster(workers=2, wal_root=tmp_path)
        began = time.monotonic()
        with pytest.raises(StoreError, match="shard-0 exited with code 1"):
            cluster.start()
        assert time.monotonic() - began < 10
        assert cluster.restarts == {"shard-0": 0, "shard-1": 0}
