"""Fabric-layer contracts shared by every interconnect topology.

Slave attachment must validate through the one shared AddressMap path (so
bad maps fail identically on bus, crossbar and mesh), the stats emission
must carry the same columns everywhere, and ``repro.interconnect`` must
re-export none of what moved to ``repro.fabric``.
"""

import pytest

import repro.fabric as fabric
import repro.interconnect as interconnect
from repro.fabric import (
    AddressMapConflict,
    ArbitrationSpec,
    BusOp,
    BusResponse,
    BusSlave,
    Fabric,
    ResponseStatus,
    percentile_summary,
)
from repro.interconnect import Crossbar, SharedBus
from repro.kernel import Module, SimulationStats, Simulator
from repro.noc import MeshNoc, NocConfig

TOPOLOGIES = ["shared_bus", "crossbar", "mesh"]


class NullSlave(BusSlave):
    def serve(self, request, offset):
        return BusResponse(data=offset), 1


def make_fabric(topology, top=None):
    top = top if top is not None else Module("top")
    if topology == "shared_bus":
        return SharedBus("bus", period=10, parent=top)
    if topology == "crossbar":
        return Crossbar("xbar", period=10, parent=top)
    return MeshNoc("noc", period=10, config=NocConfig(rows=2, cols=2),
                   parent=top)


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestSharedAttachValidation:
    """Identical attach-time failures on every topology."""

    def test_overlapping_regions_rejected(self, topology):
        fab = make_fabric(topology)
        fab.attach_slave("a", 0x1000, 0x100, NullSlave())
        with pytest.raises(AddressMapConflict, match="overlaps"):
            fab.attach_slave("b", 0x1080, 0x100, NullSlave())

    def test_duplicate_name_rejected(self, topology):
        fab = make_fabric(topology)
        fab.attach_slave("a", 0x1000, 0x100, NullSlave())
        with pytest.raises(AddressMapConflict, match="already used"):
            fab.attach_slave("a", 0x8000, 0x100, NullSlave())

    def test_zero_size_region_rejected(self, topology):
        fab = make_fabric(topology)
        with pytest.raises(ValueError, match="size must be positive"):
            fab.attach_slave("a", 0x1000, 0, NullSlave())

    def test_negative_base_rejected(self, topology):
        fab = make_fabric(topology)
        with pytest.raises(ValueError, match="base must be non-negative"):
            fab.attach_slave("a", -4, 0x100, NullSlave())

    def test_failed_attach_leaves_no_transport_state(self, topology):
        fab = make_fabric(topology)
        fab.attach_slave("a", 0x1000, 0x100, NullSlave())
        with pytest.raises(AddressMapConflict):
            fab.attach_slave("b", 0x1000, 0x100, NullSlave())
        # Only the successful region is mapped, and only one channel (the
        # bus's own, or the slave's on the crossbar and the mesh) exists.
        assert [region.name for region in fab.address_map.regions] == ["a"]
        assert len(fab._channels) == 1


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestUniformStatsEmission:
    UNIFORM_KEYS = {"transactions", "busy_cycles", "decode_errors",
                    "per_master", "utilization", "latency_percentiles",
                    "arbitration"}

    def run_traffic(self, topology):
        top = Module("top")
        fab = make_fabric(topology, top)
        fab.attach_slave("ram", 0x0, 0x1000, NullSlave())

        class Driver(Module):
            def __init__(self, name, port, parent):
                super().__init__(name, parent)
                self.port = port
                self.add_process(self._run)

            def _run(self):
                yield from self.port.read(0x10)
                yield from self.port.write(0x20, 7)

        Driver("m0", fab.master_port(0), top)
        sim = Simulator(top)
        sim.run()
        return fab, sim

    def test_uniform_columns(self, topology):
        fab, sim = self.run_traffic(topology)
        block = fab.interconnect_stats(sim.now)
        assert self.UNIFORM_KEYS <= set(block)
        assert block["transactions"] == 2
        assert 0.0 <= block["utilization"] <= 1.0
        latency = block["latency_percentiles"]
        assert latency["count"] == 2
        assert latency["p50"] >= 1
        assert latency["max"] >= latency["p50"]
        assert block["arbitration"]["grant_counts"].get(0, 0) >= 1

    def test_topology_blocks_decorate_not_replace(self, topology):
        fab, sim = self.run_traffic(topology)
        block = fab.interconnect_stats(sim.now)
        if topology == "mesh":
            assert block["noc"]["packets"] > 0
        elif topology == "crossbar":
            assert block["channels"]["ram"]["transactions"] == 2

    def test_empty_fabric_reports_no_data_not_zero_latency(self, topology):
        fab = make_fabric(topology)
        block = fab.interconnect_stats(0)
        assert block["transactions"] == 0
        assert block["latency_percentiles"] == {
            "count": 0, "p50": None, "p95": None, "max": None,
        }


class SlowSlave(BusSlave):
    def serve(self, request, offset):
        return BusResponse(data=offset), 3


#: ``(time, status, total_cycles)`` of each master's first read in the race
#: below.  The bus holds its one channel for the misdecoded read
#: (arbitration + one error cycle), so master 1 waits behind it; the
#: concurrent topologies answer a decode error at once, and master 1's read
#: crosses the mesh both ways.
DECODE_ERROR_TIMING = {
    "shared_bus": {0: (20, ResponseStatus.DECODE_ERROR, 2),
                   1: (60, ResponseStatus.OK, 4)},
    "crossbar": {0: (0, ResponseStatus.DECODE_ERROR, 1),
                 1: (40, ResponseStatus.OK, 4)},
    "mesh": {0: (0, ResponseStatus.DECODE_ERROR, 1),
             1: (160, ResponseStatus.OK, 16)},
}

#: When each master resumes after each of its three reads, master 0's
#: ``wait_cycles`` and the four scheduler counters of the whole race.  On
#: the crossbar and the mesh a decode error completes one cycle after its
#: post, with no wait.
DECODE_ERROR_RESUMES = {
    "shared_bus": ({0: [20, 80, 140], 1: [60, 120, 180]}, 8,
                   (26, 18, 28, 30)),
    "crossbar": ({0: [10, 20, 30], 1: [40, 80, 120]}, 0, (19, 12, 24, 21)),
    "mesh": ({0: [10, 20, 30], 1: [160, 320, 480]}, 0, (73, 48, 116, 99)),
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_decode_error_timing(topology):
    """Master 0 reads an unmapped address three times back to back while
    master 1 reads a 3-cycle slave three times, both from t=0: every
    topology completes and resumes them when it always has."""
    top = Module("top")
    fab = make_fabric(topology, top)
    fab.attach_slave("ram", 0x0, 0x1000, SlowSlave())
    completions = {}
    fab.probes.subscribe(port_complete=lambda port, request, response:
                         completions.setdefault(port.master_id, (
                             fab.sim_now(), response.status,
                             response.total_cycles)))
    resumes = {0: [], 1: []}

    class Driver(Module):
        def __init__(self, name, port, address, parent):
            super().__init__(name, parent)
            self.port = port
            self.address = address
            self.add_process(self._run)

        def _run(self):
            for _ in range(3):
                yield from self.port.read(self.address)
                resumes[self.port.master_id].append(fab.sim_now())

    Driver("m0", fab.master_port(0), 0x8000, top)
    Driver("m1", fab.master_port(1), 0x10, top)
    sim = Simulator(top)
    sim.run()
    assert completions == DECODE_ERROR_TIMING[topology]
    assert fab.stats.decode_errors == 3
    assert (resumes, fab.stats.master(0).wait_cycles,
            tuple(getattr(sim.stats, name)
                  for name in SimulationStats.COUNTERS)
            ) == DECODE_ERROR_RESUMES[topology]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_sim_now_follows_the_simulator(topology):
    """``sim_now()`` reads 0 before elaboration and the simulator's ``now``
    during a run — also on a fabric with no slave, so no channel, attached."""
    top = Module("top")
    fab = make_fabric(topology, top)
    seen = []

    def ticker():
        for delay in (0, 7, 30):
            yield delay
            seen.append((fab.sim_now(), sim.now))

    top.add_process(ticker)
    sim = Simulator(top)
    assert fab.sim_now() == 0
    sim.run()
    assert seen == [(0, 0), (7, 7), (37, 37)]


class TestEmptyPercentileSummary:
    """Regression: empty sample sets must yield an explicit no-data row."""

    def test_empty_sample_is_explicit(self):
        summary = percentile_summary([])
        assert summary["count"] == 0
        assert summary["p50"] is None
        assert summary["p95"] is None
        assert summary["max"] is None

    def test_single_sample_is_intact(self):
        assert percentile_summary([9]) == {"count": 1, "p50": 9, "p95": 9,
                                           "max": 9}


class TestFabricArbitrationWiring:
    def test_policy_granting_nobody_raises_instead_of_spinning(self):
        class BrokenPolicy(fabric.ArbitrationPolicy):
            def grant(self, requesters):
                return None

        top = Module("top")
        bus = SharedBus("bus", period=10, parent=top)
        bus.channel.arbiter = BrokenPolicy()
        bus.attach_slave("ram", 0x0, 0x100, NullSlave())

        class Driver(Module):
            def __init__(self, name, port, parent):
                super().__init__(name, parent)
                self.port = port
                self.add_process(self._run)

            def _run(self):
                yield from self.port.read(0x0)

        Driver("m0", bus.master_port(0), top)
        # The kernel wraps process exceptions in ProcessError; the fabric's
        # diagnostic must survive in the message instead of a silent spin.
        from repro.kernel.errors import ProcessError

        with pytest.raises(ProcessError, match="granted nobody"):
            Simulator(top).run()

    def test_one_policy_instance_per_grant_point(self):
        top = Module("top")
        xbar = Crossbar("xbar", period=10,
                        arbitration=ArbitrationSpec("fixed_priority"),
                        parent=top)
        xbar.attach_slave("a", 0x0000, 0x100, NullSlave())
        xbar.attach_slave("b", 0x1000, 0x100, NullSlave())
        policies = xbar.arbitration_policies
        assert len(policies) == 2
        assert policies[0] is not policies[1]
        assert all(isinstance(p, fabric.FixedPriorityArbiter)
                   for p in policies)

    def test_merged_grant_counts_sum_over_points(self):
        top = Module("top")
        xbar = Crossbar("xbar", period=10, parent=top)
        xbar.attach_slave("a", 0x0000, 0x100, NullSlave())
        xbar.attach_slave("b", 0x1000, 0x100, NullSlave())
        a, b = xbar.arbitration_policies
        a.grant([0, 1])
        b.grant([0])
        assert xbar.merged_grant_counts() == {0: 2}


class TestShimRemoval:
    """The pre-fabric deprecation shims are gone as of 2.0."""

    def test_interconnect_exports_only_topologies(self):
        assert interconnect.__all__ == ["Crossbar", "SharedBus"]
        for moved in ("MasterPort", "BusSlave", "BusStats", "MasterStats",
                      "BusRequest", "AddressMap", "RoundRobinArbiter",
                      "make_arbiter"):
            assert not hasattr(interconnect, moved), (
                f"repro.interconnect still re-exports {moved}; it lives in "
                f"repro.fabric now"
            )

    def test_topologies_are_fabric_subclasses(self):
        assert issubclass(SharedBus, Fabric)
        assert issubclass(Crossbar, Fabric)
        assert issubclass(MeshNoc, Fabric)
        # The duplicated plumbing is really gone: the shared surface is
        # inherited, not re-defined per topology.
        for cls in (SharedBus, Crossbar, MeshNoc):
            for method in ("attach_slave", "master_port", "add_snooper",
                           "interconnect_stats", "_account",
                           "_register_port"):
                assert method not in vars(cls), (
                    f"{cls.__name__} re-defines {method}; it must inherit "
                    f"it from Fabric"
                )


class TestCoherenceRequiresFabric:
    def test_non_fabric_interconnect_rejected(self):
        from repro.cache.coherence import CoherenceDomain

        class FakeBus:
            def add_snooper(self, snooper):  # pragma: no cover
                pass

        with pytest.raises(TypeError, match="repro.fabric.Fabric"):
            CoherenceDomain().attach_interconnect(FakeBus(), {})

    def test_fabric_interconnect_accepted(self):
        from repro.cache.coherence import CoherenceDomain

        top = Module("top")
        bus = SharedBus("bus", period=10, parent=top)
        domain = CoherenceDomain()
        domain.attach_interconnect(bus, {0x1000_0000: 0})
        assert len(bus._snoopers) == 1


class TestRequestHelpers:
    def test_master_port_requires_unique_ids(self):
        top = Module("top")
        bus = SharedBus("bus", period=10, parent=top)
        bus.master_port(0)
        with pytest.raises(ValueError, match="registered twice"):
            bus.master_port(0)

    def test_read_write_round_trip_on_mesh(self):
        top = Module("top")
        noc = make_fabric("mesh", top)
        written = {}

        class Probe(NullSlave):
            def serve(self, request, offset):
                if request.op is BusOp.WRITE:
                    written[offset] = request.data
                    return BusResponse(), 1
                return BusResponse(data=written.get(offset, 0)), 1

        noc.attach_slave("ram", 0x0, 0x1000, Probe())

        class Driver(Module):
            def __init__(self, name, port, parent):
                super().__init__(name, parent)
                self.port = port
                self.value = None
                self.add_process(self._run)

            def _run(self):
                yield from self.port.write(0x40, 1234)
                response = yield from self.port.read(0x40)
                self.value = response.data

        driver = Driver("m0", noc.master_port(0), top)
        Simulator(top).run()
        assert driver.value == 1234
