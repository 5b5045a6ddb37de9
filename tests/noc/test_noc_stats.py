"""Unit tests of the NoC statistics layer (links, contention, latencies)."""

from repro.noc import LinkStats, NocStats


class TestLinkStats:
    def test_utilization_bounds(self):
        link = LinkStats("n0->n1", busy_cycles=50)
        assert link.utilization(100) == 0.5
        assert link.utilization(25) == 1.0  # clamped
        assert link.utilization(0) == 0.0

    def test_as_dict_round_trip(self):
        link = LinkStats("n0->n1", busy_cycles=3, packets=2, flits=7,
                         blocked_cycles=1, contended_grants=1)
        assert link.as_dict() == {
            "busy_cycles": 3, "packets": 2, "flits": 7,
            "blocked_cycles": 1, "contended_grants": 1,
        }


class TestNocStats:
    def test_link_created_on_first_use(self):
        stats = NocStats()
        link = stats.link("req:n0->n1")
        assert stats.link("req:n0->n1") is link
        assert link.name == "req:n0->n1"

    def test_packet_and_hop_accounting(self):
        stats = NocStats()
        stats.record_packet(flits=5, hops=3)
        stats.record_packet(flits=1, hops=5)
        assert stats.packets_sent == 2
        assert stats.flits_sent == 6
        assert stats.average_hops == 4.0

    def test_latency_percentiles_nearest_rank(self):
        stats = NocStats()
        for cycles in [10, 20, 30, 40, 100]:
            stats.record_latency(cycles)
        summary = stats.latency_percentiles()
        assert summary == {"count": 5, "p50": 30, "p95": 100, "max": 100}

    def test_empty_latency_percentiles(self):
        # No recorded packets must read as "no data", never as an observed
        # zero-cycle latency.
        assert NocStats().latency_percentiles() == {
            "count": 0, "p50": None, "p95": None, "max": None,
        }

    def test_contention_ignores_zero_waiting(self):
        stats = NocStats()
        stats.record_contention(3, 0)
        assert stats.router_contention == {}
        stats.record_contention(3, 2)
        stats.record_contention(3, 1)
        assert stats.router_contention == {3: 3}

    def test_as_dict_includes_utilization_when_elapsed_known(self):
        stats = NocStats()
        stats.link("req:n0->n1").busy_cycles = 25
        summary = stats.as_dict(elapsed_cycles=100)
        assert summary["link_utilization"]["req:n0->n1"] == 0.25
        assert "link_utilization" not in stats.as_dict()
