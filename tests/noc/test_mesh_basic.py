"""Unit tests of the mesh NoC: configuration, routing, flit math,
transfers, arbitration fairness, backpressure and decode errors."""

import pytest

from repro.fabric import BusOp, BusRequest, BusResponse, BusSlave, ResponseStatus
from repro.kernel import Module, Simulator
from repro.noc import (
    LOCAL_LANE,
    MeshNoc,
    NocConfig,
    entry_lane,
    flits_for_payload,
)


class ScratchSlave(BusSlave):
    """A tiny word-addressable RAM with configurable access latency."""

    def __init__(self, words=64, cycles=1):
        self.storage = [0] * words
        self.cycles = cycles
        self.accesses = 0

    def serve(self, request, offset):
        return self._access(request, offset), self.cycles

    def _access(self, request, offset):
        self.accesses += 1
        index = offset // 4
        if index >= len(self.storage):
            return BusResponse(status=ResponseStatus.SLAVE_ERROR)
        if request.op is BusOp.WRITE:
            if request.burst_data is not None:
                for i, word in enumerate(request.burst_data):
                    self.storage[index + i] = word
            else:
                self.storage[index] = request.data
            return BusResponse()
        if request.burst_length:
            return BusResponse(
                burst_data=self.storage[index:index + request.burst_length]
            )
        return BusResponse(data=self.storage[index])


class MasterHarness(Module):
    """Runs a scripted list of operations and records the responses."""

    def __init__(self, name, port, script, parent=None, start_delay=0):
        super().__init__(name, parent)
        self.port = port
        self.script = script
        self.responses = []
        self.finish_time = None
        self.start_delay = start_delay
        self.add_process(self._run, name="driver")

    def _run(self):
        if self.start_delay:
            yield self.start_delay
        for request in self.script:
            response = yield from self.port.transfer(request)
            self.responses.append(response)
        self.finish_time = self.port._interconnect.sim_now()


def run_top(build):
    top = Module("top")
    artifacts = build(top)
    sim = Simulator(top)
    sim.run()
    return sim, artifacts


class TestNocConfig:
    def test_defaults_resolve_near_square(self):
        assert NocConfig().resolve(4, 1).rows == 2
        assert NocConfig().resolve(4, 1).cols == 2
        resolved = NocConfig().resolve(8, 2)
        assert resolved.rows * resolved.cols >= 8
        assert NocConfig().resolve(1, 1).rows == 1

    def test_partial_dims_complete_the_grid(self):
        resolved = NocConfig(rows=2).resolve(8, 1)
        assert (resolved.rows, resolved.cols) == (2, 4)
        resolved = NocConfig(cols=3).resolve(7, 1)
        assert (resolved.rows, resolved.cols) == (3, 3)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(rows=0)
        with pytest.raises(ValueError):
            NocConfig(flit_bytes=0)
        with pytest.raises(ValueError):
            NocConfig(link_cycles=0)
        with pytest.raises(ValueError):
            NocConfig(router_cycles=-1)
        with pytest.raises(ValueError):
            NocConfig(buffer_packets=0)
        with pytest.raises(ValueError):
            NocConfig(memory_nodes=[1])  # must be a tuple
        with pytest.raises(ValueError):
            NocConfig(rows=2, cols=2, memory_nodes=(4,)).resolve(1, 1)

    def test_describe_mentions_dims(self):
        assert "2x3" in NocConfig(rows=2, cols=3).describe()


class TestFlitMath:
    def test_head_only_packet(self):
        assert flits_for_payload(0, 4) == 1

    def test_payload_rounds_up_to_flits(self):
        assert flits_for_payload(4, 4) == 2
        assert flits_for_payload(5, 4) == 3
        assert flits_for_payload(16, 8) == 3

    def test_entry_lanes_distinct_from_local(self):
        lanes = {entry_lane(d) for d in "EWNS"}
        assert len(lanes) == 4
        assert LOCAL_LANE not in lanes


class TestXYRouting:
    def make_noc(self):
        return MeshNoc("noc", period=10, config=NocConfig(rows=3, cols=3))

    def test_same_node_is_inject_then_eject(self):
        noc = self.make_noc()
        path, lanes = noc._route(4, 4, lane0=7)
        assert path == [("inj", 4), ("ej", 4)]
        assert lanes == [7, LOCAL_LANE]

    def test_x_before_y(self):
        noc = self.make_noc()
        path, _lanes = noc._route(0, 8, lane0=0)
        # node 0 -> 1 -> 2 (east hops) then 2 -> 5 -> 8 (south hops).
        assert path == [("inj", 0), ("link", 0, "E"), ("link", 1, "E"),
                        ("link", 2, "S"), ("link", 5, "S"), ("ej", 8)]

    def test_west_and_north_directions(self):
        noc = self.make_noc()
        path, _lanes = noc._route(8, 0, lane0=0)
        assert path == [("inj", 8), ("link", 8, "W"), ("link", 7, "W"),
                        ("link", 6, "N"), ("link", 3, "N"), ("ej", 0)]

    def test_lanes_follow_entry_sides(self):
        noc = self.make_noc()
        _path, lanes = noc._route(0, 2, lane0=5)
        # inject lane, local lane at the first link, then entered-from-west.
        assert lanes == [5, LOCAL_LANE, entry_lane("E"), entry_lane("E")]

    def test_route_length_is_manhattan_distance(self):
        noc = self.make_noc()
        for src in range(9):
            for dst in range(9):
                path, lanes = noc._route(src, dst, lane0=0)
                hops = (abs(src % 3 - dst % 3) + abs(src // 3 - dst // 3))
                assert len(path) == hops + 2  # inject + links + eject
                assert len(lanes) == len(path)


class TestMeshTransfers:
    def test_single_master_read_write(self):
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2), parent=top)
            slave = ScratchSlave()
            noc.attach_slave("ram", 0x0, 0x100, slave)
            port = noc.master_port(0)
            script = [
                BusRequest(0, BusOp.WRITE, 0x10, data=0xBEEF),
                BusRequest(0, BusOp.READ, 0x10),
            ]
            harness = MasterHarness("m0", port, script, parent=top)
            return noc, slave, harness

        _sim, (noc, slave, harness) = run_top(build)
        assert [r.status for r in harness.responses] == [ResponseStatus.OK] * 2
        assert harness.responses[1].data == 0xBEEF
        assert slave.storage[4] == 0xBEEF
        assert noc.stats.transactions == 2
        assert noc.stats.master(0).reads == 1
        assert noc.stats.master(0).writes == 1

    def test_burst_round_trip(self):
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2), parent=top)
            slave = ScratchSlave()
            noc.attach_slave("ram", 0x0, 0x100, slave)
            port = noc.master_port(3)
            script = [
                BusRequest(3, BusOp.WRITE, 0x0, burst_data=[1, 2, 3, 4]),
                BusRequest(3, BusOp.READ, 0x0, burst_length=4),
            ]
            harness = MasterHarness("m3", port, script, parent=top)
            return noc, slave, harness

        _sim, (noc, _slave, harness) = run_top(build)
        assert harness.responses[1].burst_data == [1, 2, 3, 4]
        # 4 words x 4 bytes at 4 B/flit = 4 body flits + head.
        assert noc.noc_stats.flits_sent >= 2 * 5

    def test_network_latency_exceeds_slave_latency(self):
        """End-to-end cycles include router pipeline and link traversal."""
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2, router_cycles=2,
                                           link_cycles=3), parent=top)
            slave = ScratchSlave(cycles=1)
            noc.attach_slave("ram", 0x0, 0x100, slave)
            port = noc.master_port(0)
            harness = MasterHarness(
                "m0", port, [BusRequest(0, BusOp.READ, 0x0)], parent=top)
            return noc, slave, harness

        _sim, (noc, _slave, harness) = run_top(build)
        [response] = harness.responses
        # Node 0 -> node 3 is two hops each way plus inject/eject ports:
        # every port pays router_cycles + link_cycles for the head alone.
        assert response.total_cycles > 4 * (2 + 3)
        assert response.slave_cycles == 1
        latencies = noc.noc_stats.latencies
        assert latencies == [response.total_cycles]

    def test_decode_error_completes_and_is_accounted(self):
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=1, cols=1), parent=top)
            slave = ScratchSlave()
            noc.attach_slave("ram", 0x0, 0x100, slave)
            port = noc.master_port(0)
            harness = MasterHarness(
                "m0", port, [BusRequest(0, BusOp.READ, 0x9999)], parent=top)
            return noc, slave, harness

        _sim, (noc, _slave, harness) = run_top(build)
        [response] = harness.responses
        assert response.status is ResponseStatus.DECODE_ERROR
        assert noc.stats.decode_errors == 1
        assert noc.stats.master(0).errors == 1
        assert noc.stats.master(0).transactions == 1

    def test_multiple_masters_same_slave_all_complete(self):
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2), parent=top)
            slave = ScratchSlave(cycles=3)
            noc.attach_slave("ram", 0x0, 0x100, slave)
            harnesses = []
            for master in range(4):
                port = noc.master_port(master)
                script = [BusRequest(master, BusOp.WRITE, 0x10 * master,
                                     data=master + 1),
                          BusRequest(master, BusOp.READ, 0x10 * master)]
                harnesses.append(
                    MasterHarness(f"m{master}", port, script, parent=top))
            return noc, slave, harnesses

        _sim, (noc, slave, harnesses) = run_top(build)
        for master, harness in enumerate(harnesses):
            assert harness.responses[1].data == master + 1
        assert noc.stats.transactions == 8
        assert slave.accesses == 8

    def test_slaves_on_different_nodes_serve_in_parallel(self):
        """Traffic to distinct memories must overlap (unlike a shared bus)."""
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2), parent=top)
            slow0, slow1 = ScratchSlave(cycles=40), ScratchSlave(cycles=40)
            noc.attach_slave("ram0", 0x0, 0x100, slow0)
            noc.attach_slave("ram1", 0x1000, 0x100, slow1)
            h0 = MasterHarness("m0", noc.master_port(0),
                               [BusRequest(0, BusOp.READ, 0x0)], parent=top)
            h1 = MasterHarness("m1", noc.master_port(1),
                               [BusRequest(1, BusOp.READ, 0x1000)], parent=top)
            return noc, h0, h1

        sim, (_noc, h0, h1) = run_top(build)
        # Serialized service would need >= 80 cycles of slave time alone.
        assert sim.now < 2 * 40 * 10

    def test_one_outstanding_request_enforced(self):
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=1, cols=1), parent=top)
            slave = ScratchSlave(cycles=50)
            noc.attach_slave("ram", 0x0, 0x100, slave)
            port = noc.master_port(0)
            harness = MasterHarness(
                "m0", port, [BusRequest(0, BusOp.READ, 0x0)], parent=top)

            class Doubler(Module):
                def __init__(self, parent):
                    super().__init__("doubler", parent)
                    self.error = None
                    self.add_process(self._run)

                def _run(self):
                    yield 50  # while the first request is in flight
                    try:
                        noc._post(port, BusRequest(0, BusOp.READ, 0x0))
                    except RuntimeError as exc:
                        self.error = exc

            doubler = Doubler(top)
            return noc, harness, doubler

        _sim, (_noc, _harness, doubler) = run_top(build)
        assert isinstance(doubler.error, RuntimeError)

    def test_duplicate_master_id_rejected(self):
        noc = MeshNoc("noc", period=10, config=NocConfig(rows=1, cols=1))
        noc.master_port(0)
        with pytest.raises(ValueError):
            noc.master_port(0)

    def test_placement_overrides(self):
        noc = MeshNoc("noc", period=10,
                      config=NocConfig(rows=2, cols=2, pe_nodes=(3, 2),
                                       memory_nodes=(0,)))
        assert noc.node_of_master(0) == 3
        assert noc.node_of_master(1) == 2
        assert noc.node_of_slave(0) == 0

    def test_default_placement_spreads_slaves_from_far_corner(self):
        noc = MeshNoc("noc", period=10, config=NocConfig(rows=2, cols=2))
        assert noc.node_of_master(0) == 0
        assert noc.node_of_slave(0) == 3
        assert noc.node_of_slave(1) == 2


class TestBackpressure:
    def test_tiny_buffers_still_deliver_everything(self):
        """Saturating one ejection port with single-packet buffers must
        block worms, not drop or deadlock them."""
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2, buffer_packets=1),
                          parent=top)
            slave = ScratchSlave(words=256, cycles=8)
            noc.attach_slave("ram", 0x0, 0x400, slave)
            harnesses = []
            for master in range(4):
                script = [BusRequest(master, BusOp.WRITE,
                                     0x20 * master + 4 * i,
                                     burst_data=[master * 100 + i] * 4)
                          for i in range(3)]
                harnesses.append(MasterHarness(
                    f"m{master}", noc.master_port(master), script,
                    parent=top))
            return noc, slave, harnesses

        _sim, (noc, slave, _harnesses) = run_top(build)
        assert noc.stats.transactions == 12
        assert slave.accesses == 12
        # Single-packet buffers leave no room for rival queues: contention
        # surfaces as upstream channels held by blocked worms instead.
        blocked = sum(link.blocked_cycles
                      for link in noc.noc_stats.links.values())
        assert blocked > 0

    def test_deeper_buffers_expose_grant_contention(self):
        """With room to queue, rival input lanes meet at the arbiter."""
        def build(top):
            noc = MeshNoc("noc", period=10,
                          config=NocConfig(rows=2, cols=2, buffer_packets=4),
                          parent=top)
            slave = ScratchSlave(words=256, cycles=8)
            noc.attach_slave("ram", 0x0, 0x400, slave)
            harnesses = []
            for master in range(4):
                script = [BusRequest(master, BusOp.WRITE,
                                     0x20 * master + 4 * i,
                                     burst_data=[master * 100 + i] * 4)
                          for i in range(3)]
                harnesses.append(MasterHarness(
                    f"m{master}", noc.master_port(master), script,
                    parent=top))
            return noc, slave, harnesses

        _sim, (noc, _slave, _harnesses) = run_top(build)
        assert noc.stats.transactions == 12
        contended = sum(link.contended_grants
                        for link in noc.noc_stats.links.values())
        assert contended > 0
        assert noc.noc_stats.router_contention
