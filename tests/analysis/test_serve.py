"""The sweep observatory front door: offline queries and HTTP endpoints."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ExperimentRunner, PlatformBuilder, scenario_grid
from repro.analysis.serve import DashboardData, main, serve
from repro.store import ResultStore, SweepMonitor


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One completed small sweep: store + event log + a trace artifact."""
    root = tmp_path_factory.mktemp("sweep")
    store_path = str(root / "sweep.sqlite")
    events_path = str(root / "sweep.events.jsonl")
    traces = root / "traces"
    traces.mkdir()
    (traces / "run.trace.json").write_text('{"traceEvents": []}')
    config = PlatformBuilder().pes(1).wrapper_memories(1).build()
    grid = scenario_grid("fir", config, "fir",
                         param_grid={"num_samples": [8, 12]},
                         params={"seed": 3}, seed=7)
    store = ResultStore(store_path)
    with SweepMonitor(log_path=events_path, live=False) as monitor:
        ExperimentRunner(grid, store=store, monitor=monitor).run()
    store.close()
    return {"root": root, "store": store_path, "events": events_path,
            "traces": str(traces)}


@pytest.fixture(scope="module")
def data(sweep_dir):
    return DashboardData(store_path=sweep_dir["store"],
                         traces_dir=sweep_dir["traces"])


class TestDashboardData:
    def test_events_log_auto_discovered_next_to_store(self, sweep_dir, data):
        assert data.events_path == sweep_dir["events"]

    def test_results_rows_and_filters(self, data):
        payload = data.results()
        assert payload["count"] == 2
        names = [row["scenario"] for row in payload["rows"]]
        assert names == sorted(names)
        assert data.results(scenario="num_samples=8")["count"] == 1
        assert data.results(status="failed")["count"] == 0
        limited = data.results(limit=1)
        assert limited["count"] == 2 and len(limited["rows"]) == 1

    def test_result_detail_by_key(self, data):
        key = data.results()["rows"][0]["key"]
        detail = data.result(key)
        assert detail["found"]
        assert detail["result"]["report"]["simulated_cycles"] > 0
        assert not data.result("0" * 64)["found"]

    def test_progress_from_event_log(self, data):
        progress = data.progress()
        assert progress["done"] == 2
        assert progress["counts"]["finished"] == 2
        assert progress["ended"]

    def test_bench_compares_committed_ledger_with_itself(self, data):
        payload = data.bench()
        # Both sides default to the committed BENCH_kernel.json.
        assert payload["rows"] == [] and "note" not in payload
        assert "ledgers match" in data.index_html()

    def test_bench_lists_mismatching_rows(self, sweep_dir, tmp_path):
        from repro.api import PerfRecorder

        current = str(tmp_path / "current.json")
        recorder = PerfRecorder("e3_accuracy", path=current)
        recorder.record_cycles("trace-sram", 1)
        recorder.flush()
        data = DashboardData(store_path=sweep_dir["store"],
                             bench_current=current)
        rows = data.bench()["rows"]
        changed = [row for row in rows if row["status"] == "changed"]
        assert [(row["key"], row["field"], row["new"]) for row in changed] == [
            ("e3_accuracy/trace-sram", "simulated_cycles", 1)]
        assert {row["status"] for row in rows} == {"changed", "removed"}
        assert "e3_accuracy/trace-sram" in data.index_html()

    def test_bench_reports_an_unreadable_file_as_a_note(self, tmp_path):
        damaged = tmp_path / "damaged.json"
        damaged.write_text("[]")
        payload = DashboardData(bench_current=str(damaged)).bench()
        assert payload["rows"] == [] and str(damaged) in payload["note"]

    def test_traces_listing(self, data):
        payload = data.traces()
        assert [f["name"] for f in payload["files"]] == ["run.trace.json"]
        assert data.trace_path("run.trace.json") is not None
        assert data.trace_path("../escape.json") is None
        assert data.trace_path("absent.json") is None

    def test_unlisted_extensions_are_not_served(self, sweep_dir, data):
        # A stray file in the traces dir is neither listed nor fetchable.
        stray = sweep_dir["root"] / "traces" / "secrets.txt"
        stray.write_text("not a trace")
        try:
            names = [f["name"] for f in data.traces()["files"]]
            assert "secrets.txt" not in names
            assert data.trace_path("secrets.txt") is None
        finally:
            stray.unlink()

    def test_missing_artifacts_are_empty_not_fatal(self, tmp_path):
        empty = DashboardData(store_path=str(tmp_path / "none.sqlite"))
        assert empty.results()["count"] == 0
        assert empty.progress()["total"] == 0
        assert empty.traces()["files"] == []
        assert not empty.result("0" * 64)["found"]

    def test_index_html_renders(self, data):
        page = data.index_html()
        assert "sweep observatory" in page
        assert "fir[num_samples=8]" in page
        assert "passed" in page


class TestHttpServer:
    @pytest.fixture(scope="class")
    def base_url(self, data):
        server = serve(data, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()

    def test_html_index(self, base_url):
        status, body = self._get(base_url + "/")
        assert status == 200
        assert b"sweep observatory" in body

    def test_api_results_with_query(self, base_url):
        status, body = self._get(
            base_url + "/api/results?status=passed&limit=1")
        payload = json.loads(body)
        assert status == 200
        assert payload["count"] == 2 and len(payload["rows"]) == 1

    def test_api_result_detail(self, base_url, data):
        key = data.results()["rows"][0]["key"]
        status, body = self._get(base_url + f"/api/result/{key}")
        assert status == 200 and json.loads(body)["found"]

    def test_api_progress_and_bench_and_traces(self, base_url):
        for route in ("/api/progress", "/api/bench", "/api/traces"):
            status, body = self._get(base_url + route)
            assert status == 200, route
            json.loads(body)

    def test_trace_download(self, base_url):
        status, body = self._get(base_url + "/traces/run.trace.json")
        assert status == 200
        assert json.loads(body) == {"traceEvents": []}

    def test_unknown_route_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(base_url + "/api/nope")
        assert excinfo.value.code == 404


class TestQueryCli:
    def test_query_results_table(self, sweep_dir, capsys):
        rc = main(["query", "results", "--store", sweep_dir["store"],
                   "--table"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fir[num_samples=8]" in out and "passed" in out

    def test_query_results_json(self, sweep_dir, capsys):
        rc = main(["query", "results", "--store", sweep_dir["store"],
                   "--status", "passed"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["count"] == 2

    def test_query_progress(self, sweep_dir, capsys):
        rc = main(["query", "progress", "--store", sweep_dir["store"],
                   "--events", sweep_dir["events"]])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["done"] == 2

    def test_query_bench(self, capsys):
        rc = main(["query", "bench"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["rows"] == []
        with pytest.raises(SystemExit):
            main(["query", "bench", "--metric", "cycles_per_second"])

    def test_query_result_requires_key(self, sweep_dir, capsys):
        rc = main(["query", "result", "--store", sweep_dir["store"]])
        assert rc == 2
        key = DashboardData(
            store_path=sweep_dir["store"]).results()["rows"][0]["key"]
        rc = main(["query", "result", "--store", sweep_dir["store"],
                   "--key", key])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["found"]
