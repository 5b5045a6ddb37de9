"""The peer-to-peer window exchange: deadlock freedom and mode identity.

Partition workers swap their window messages directly, pair by pair.  A
message carries the flits the peer owns, so its size is unbounded; a
worker that sent to everyone before receiving from anyone would block
in ``send`` opposite a peer doing the same as soon as a message outgrew
the pipe buffer.  The round loop therefore orders every pair (lower
index sends first, peers visited in index order), and both tests here run
under a hard deadline so a regression fails instead of hanging.
"""

import multiprocessing
import threading
from types import SimpleNamespace

from repro.api import PlatformBuilder, Scenario
from repro.pdes import run_partitioned
from repro.pdes.coordinator import _worker_rounds

DEADLINE_S = 60.0


def run_with_deadline(target, *args):
    """``target(*args)`` on a helper thread; fails if it does not return."""
    outcome = {}

    def body():
        try:
            outcome["value"] = target(*args)
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout=DEADLINE_S)
    assert not thread.is_alive(), f"still blocked after {DEADLINE_S:.0f} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class BulkyPartition:
    """Stands in for a ``PartitionSim``: every window emits ``size`` bytes
    of "flits" for every peer, for ``windows`` windows."""

    context = SimpleNamespace(epoch_time=10)
    scenario = SimpleNamespace(max_time=None)

    def __init__(self, index, count, windows, size):
        self.index, self.count = index, count
        self.windows, self.size = windows, size
        self.sync_wait = 0.0
        self.received = []

    def next_activity(self):
        return 0 if self.windows else None

    def advance(self, horizon, inbound):
        self.received.append(sum(len(blob) for blob in inbound))
        self.windows -= 1
        blobs = [bytes(self.size)] if self.windows else []
        return ([blobs] * self.count, None,
                horizon if self.windows else None)


def test_oversize_window_messages_do_not_deadlock():
    """Four workers, 1 MiB for every peer in every window — 16x the pipe
    buffer, in all twelve directions at once."""
    count, windows, size = 4, 3, 1 << 20
    links = [[None] * count for _ in range(count)]
    for low in range(count):
        for high in range(low + 1, count):
            links[low][high], links[high][low] = multiprocessing.Pipe()
    parts = [BulkyPartition(index, count, windows, size)
             for index in range(count)]
    rounds = [None] * count

    def worker(index):
        rounds[index] = _worker_rounds(parts[index], links[index])

    threads = [threading.Thread(target=worker, args=(index,), daemon=True)
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DEADLINE_S)
    try:
        assert not any(thread.is_alive() for thread in threads), (
            "window exchange deadlocked")
    finally:
        for conn in (end for row in links for end in row if end):
            conn.close()
    assert rounds == [windows] * count
    # Window 0 had nothing inbound; every later one, each peer's megabyte.
    assert all(part.received == [0] + [(count - 1) * size] * (windows - 1)
               for part in parts)
    assert all(part.sync_wait > 0 for part in parts)


def test_far_corner_fir_across_four_workers_equals_inprocess():
    """Every PE of an 8x8 mesh streams its FIR buffers to one far-corner
    memory across both cuts; the four worker processes must finish and
    report what the in-process loop reports, field for field, ``rounds``
    included.  (Array transfers go in 256-word chunks and a PE has one
    request outstanding, so a window's flits here total kilobytes; the
    oversize case is the test above.)"""
    nodes = tuple(range(63))
    config = (PlatformBuilder().pes(32).wrapper_memories(1)
              .mesh(8, 8, pe_nodes=nodes[:32], memory_nodes=(63,))
              .partitions(4, epoch_cycles=64).build())
    scenario = Scenario(name="far-corner", config=config, workload="fir",
                        params={"num_samples": 256}, seed=5)
    across = run_with_deadline(
        lambda: run_partitioned(scenario, mode="process"))
    local = run_partitioned(scenario, mode="inprocess")
    assert multiprocessing.active_children() == []
    assert across.pdes["boundary_messages"] > 1_000
    assert across.pdes["rounds"] == local.pdes["rounds"] > 100
    first, second = (report.observables() for report in (across, local))
    assert first["pdes"].pop("mode") == "process"
    assert second["pdes"].pop("mode") == "inprocess"
    assert first == second
    assert across.cost() == local.cost()
    waits = [row["sync_wait_seconds"]
             for row in across.pdes["per_partition"]]
    assert all(wait > 0 for wait in waits)
