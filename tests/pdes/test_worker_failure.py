"""A failing partition worker ends the run at once and leaves no process.

The workers synchronise among themselves, so when one dies its peers sit
in ``recv`` on a pipe that will never speak again.  The parent is the
only one who can notice: it waits on every worker's control pipe *and*
process sentinel, raises on the first failure, terminates the rest and
reaps them all.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.api import PlatformBuilder, Scenario
from repro.pdes import run_partitioned
from repro.pdes.coordinator import PartitionWorkerError

from test_exchange import run_with_deadline
from test_partition_rules import handoff_scenario


def endless_scenario():
    """Two partitions whose PEs compute forever: only a failure ends it."""
    def forever(config):
        def task(ctx):
            while True:
                yield from ctx.compute(100)
        return [task] * config.num_pes

    config = (PlatformBuilder().pes(4).wrapper_memories(4)
              .mesh(4, 4, pe_nodes=(0, 2, 8, 10),
                    memory_nodes=(5, 7, 13, 15))
              .partitions(2).build())
    return Scenario(name="endless", config=config, workload=forever)


def test_killed_worker_surfaces_within_a_second_with_its_exit_code():
    killed_at = []

    def killer():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            victims = [child for child in multiprocessing.active_children()
                       if child.name == "pdes-p1"]
            if victims:
                time.sleep(0.2)  # let the round loop get going
                killed_at.append(time.monotonic())
                os.kill(victims[0].pid, signal.SIGKILL)
                return
            time.sleep(0.005)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    with pytest.raises(PartitionWorkerError) as excinfo:
        run_with_deadline(run_partitioned, endless_scenario())
    raised_at = time.monotonic()
    thread.join(timeout=5)
    assert killed_at, "the helper thread never found pdes-p1"
    assert raised_at - killed_at[0] < 1.0
    assert "partition 1 worker died (exit code -9)" in str(excinfo.value)
    assert multiprocessing.active_children() == []


def test_partition_error_ends_the_run_while_the_peer_waits_in_recv():
    # Both PEs in the top half, their lock-guarded memory in the bottom:
    # partition 0 raises at the cut while partition 1, idle, is blocked
    # waiting for partition 0's window message.
    started = time.monotonic()
    with pytest.raises(PartitionWorkerError) as excinfo:
        run_with_deadline(run_partitioned, handoff_scenario(
            pe_nodes=(0, 1), memory_nodes=(15,)))
    assert time.monotonic() - started < 5.0
    message = str(excinfo.value)
    assert message.startswith("partition 0 failed:")
    assert "cross-partition reserve/release" in message
    assert multiprocessing.active_children() == []
