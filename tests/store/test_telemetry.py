"""Sweep telemetry: event records, JSONL log, progress folding, monitor."""

import io
import json

import pytest

from repro.store import SweepEvent, SweepMonitor, read_events, sweep_progress


def _event(kind, scenario="s", index=0, **kwargs):
    return SweepEvent.now(kind, scenario, index, **kwargs)


class TestSweepEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep event kind"):
            SweepEvent(kind="exploded")

    def test_dict_round_trip(self):
        event = _event("finished", host_seconds=1.5,
                       counters={"passed": True}, detail="ok")
        clone = SweepEvent.from_dict(event.as_dict())
        assert clone == event

    def test_now_stamps_wall_clock(self):
        assert _event("started").wall_time > 0


class TestEventLog:
    def test_read_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = _event("started").as_dict()
        with open(path, "w") as handle:
            handle.write(json.dumps(good) + "\n")
            handle.write("{truncated json\n")
            handle.write("\n")
            handle.write(json.dumps(_event("finished").as_dict()) + "\n")
        events = read_events(str(path))
        assert [e.kind for e in events] == ["started", "finished"]

    def test_missing_log_reads_empty(self, tmp_path):
        assert read_events(str(tmp_path / "absent.jsonl")) == []

    def test_monitor_appends_jsonl(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with SweepMonitor(log_path=path, live=False) as monitor:
            monitor.begin(2)
            monitor.emit(_event("scheduled"))
            monitor.emit(_event("finished", host_seconds=0.5))
        events = read_events(path)
        assert [e.kind for e in events] == ["sweep_begin", "scheduled",
                                           "finished"]
        # Appending: a second sweep extends the same log.
        with SweepMonitor(log_path=path, live=False) as monitor:
            monitor.emit(_event("scheduled", "t"))
        assert len(read_events(path)) == 4


class TestSweepProgress:
    def test_counts_and_states(self):
        events = [
            SweepEvent.now("sweep_begin", counters={"total": 3}),
            _event("scheduled", "a", 0), _event("scheduled", "b", 1),
            _event("scheduled", "c", 2),
            _event("cache_hit", "a", 0, host_seconds=0.1),
            _event("started", "b", 1),
            _event("heartbeat", "b", 1, host_seconds=2.0),
            _event("finished", "c", 2, host_seconds=4.0),
        ]
        snapshot = sweep_progress(events)
        assert snapshot["total"] == 3
        assert snapshot["done"] == 2  # cache hit + finished
        assert snapshot["counts"]["running"] == 1
        assert snapshot["counts"]["cache_hit"] == 1
        assert [row["scenario"] for row in snapshot["running"]] == ["b"]
        assert snapshot["stragglers"][0]["scenario"] == "c"
        assert not snapshot["ended"]

    def test_failures_collected_with_detail(self):
        events = [
            _event("scheduled", "x"), _event("scheduled", "y"),
            _event("failed", "x", detail="boom"),
            _event("timeout", "y", detail="5s"),
            SweepEvent.now("sweep_end"),
        ]
        snapshot = sweep_progress(events)
        assert snapshot["ended"]
        assert {f["scenario"]: f["kind"] for f in snapshot["failures"]} == {
            "x": "failed", "y": "timeout"}

    def test_total_falls_back_to_seen_scenarios(self):
        snapshot = sweep_progress([_event("scheduled", "only")])
        assert snapshot["total"] == 1


class TestMonitorRendering:
    def test_live_progress_line_rewrites(self):
        stream = io.StringIO()
        monitor = SweepMonitor(stream=stream, live=True)
        monitor.begin(2)
        monitor.emit(_event("scheduled", "a"))
        monitor.emit(_event("finished", "a", host_seconds=0.2))
        text = stream.getvalue()
        assert "\r" in text
        assert "1/2 done" in text

    def test_non_tty_stream_stays_silent(self):
        stream = io.StringIO()
        monitor = SweepMonitor(stream=stream)  # StringIO is not a tty
        monitor.emit(_event("scheduled", "a"))
        assert stream.getvalue() == ""

