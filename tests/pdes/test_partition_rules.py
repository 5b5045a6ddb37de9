"""Feature rules under partitioning: what runs, what is rejected, and why.

Reserve/release atomicity is only sound inside one event loop: two
partitions racing a lock through latency-paying boundary links could both
observe it free.  The partitioned NoC therefore refuses to carry a memory
lock command across a cut — contenders for a lock must be co-located with
the memory that holds it.
"""

import pytest

from repro.api import PlatformBuilder, Scenario, run_scenario
from repro.fabric import BusOp, BusRequest
from repro.memory import MemOpcode
from repro.noc.packet import Packet
from repro.noc.partitioned import BoundaryRuntime, PartitionContext, PartitionError


def handoff_scenario(*, pe_nodes, memory_nodes, partitions=2):
    config = (PlatformBuilder().pes(2).wrapper_memories(len(memory_nodes))
              .mesh(4, 4, pe_nodes=pe_nodes, memory_nodes=memory_nodes)
              .partitions(partitions).build())
    return Scenario(name="handoff", config=config,
                    workload="stress_locked_handoff",
                    params={"words": 16}, seed=3)


def test_cross_cut_lock_commands_are_rejected():
    # Both PEs in the top half, their lock-guarded memory in the bottom:
    # the producer's RESERVE would cross the cut.
    result = run_scenario(handoff_scenario(
        pe_nodes=(0, 1), memory_nodes=(15,)))
    assert result.error is not None
    assert "reserve" in result.error.lower()


def test_co_located_lock_contenders_run_fine():
    # Same workload, memory in the same half as both PEs: no cut crossed.
    result = run_scenario(handoff_scenario(
        pe_nodes=(0, 1), memory_nodes=(5,)))
    assert result.error is None, result.error
    assert result.passed, result.failures
    assert result.report.pdes["boundary_messages"] == 0


def test_partition_error_is_raised_from_the_noc_layer():
    """The rejection happens at emit time with a pointed message (unit
    check, no worker processes involved)."""
    from repro.pdes import run_partitioned

    with pytest.raises(Exception) as excinfo:
        run_partitioned(handoff_scenario(pe_nodes=(0, 1),
                                         memory_nodes=(15,)),
                        mode="inprocess")
    # The kernel wraps process exceptions in its ProcessError; the
    # PartitionError diagnosis must survive in the message.
    message = str(excinfo.value)
    assert PartitionError.__name__ in message
    assert "cross-partition reserve/release" in message


def test_plain_cross_cut_reads_and_writes_are_allowed():
    """Only lock commands are special: ordinary loads/stores cross cuts."""
    config = (PlatformBuilder().pes(4).wrapper_memories(1)
              .mesh(4, 4, pe_nodes=(0, 2, 8, 10), memory_nodes=(15,))
              .partitions(2).build())
    result = run_scenario(Scenario(
        name="cross-rw", config=config, workload="fir",
        params={"num_samples": 16}, seed=2))
    assert result.error is None, result.error
    assert result.passed, result.failures
    assert result.report.pdes["boundary_messages"] > 0


@pytest.mark.parametrize("words, refused", [
    ([int(MemOpcode.RESERVE), 0, 0x40], True),
    ([int(MemOpcode.RELEASE), 0, 0x40], True),
    # Too short to decode: the memory NACKs it and no lock changes hands.
    ([int(MemOpcode.RESERVE), 0], False),
    ([int(MemOpcode.WRITE), 0, 0x40, 0, 1], False),
])
def test_a_cut_refuses_exactly_the_lock_commands(words, refused):
    """The boundary asks the one launch test: a RESERVE / RELEASE that the
    memory would execute is refused, anything else crosses."""
    runtime = BoundaryRuntime(PartitionContext(
        partitions=2, index=0, epoch_cycles=1, epoch_time=10,
        owned_nodes=frozenset(), pe_owner=(0,)))
    packet = Packet(BusRequest(0, BusOp.WRITE, 0, burst_data=words),
                    src_node=0, dst_node=1, flits=2)
    if refused:
        with pytest.raises(PartitionError, match="reserve/release"):
            runtime.emit("request", packet, now=0)
    else:
        runtime.emit("request", packet, now=0)
        assert [flit.packet for flit in runtime.outbox] == [packet]
