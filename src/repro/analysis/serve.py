"""The sweep observatory front door: a queryable dashboard over sweep state.

``python -m repro.analysis.serve`` exposes everything a sweep leaves on
disk — the :class:`~repro.store.store.ResultStore`, the JSONL event log,
``BENCH_kernel.json`` ledgers and exported ``repro.obs`` trace
artifacts — through one stdlib-only surface with two heads:

* ``serve`` — an ``http.server`` dashboard: a server-rendered HTML page at
  ``/`` plus JSON endpoints ``/api/results``, ``/api/result/<key>``,
  ``/api/progress``, ``/api/bench`` and ``/api/traces`` (trace files are
  downloadable under ``/traces/<name>``);
* ``query`` — the same payloads, offline, printed as JSON (or an aligned
  table with ``--table`` for results): scripts and CI smoke tests read
  sweep state without binding a port.

No third-party dependencies, no JavaScript frameworks: the HTML page is
plain server-rendered tables and stat tiles (status is always conveyed by
a text label, never color alone) with an optional meta-refresh for live
sweeps.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional
from urllib.parse import parse_qs, urlparse

from ..api.perf import BenchFileError, bench_json_path
from ..soc.stats import format_table
from ..store.store import ResultStore
from ..store.telemetry import read_events, sweep_progress
from .bench_compare import compare_bench_files

#: Committed ledger the bench view compares against by default.
DEFAULT_BENCH_BASELINE = "BENCH_kernel.json"


class DashboardData:
    """Read-only view over one sweep's on-disk artifacts.

    Every accessor tolerates absence: a missing store, event log, bench
    file or traces directory yields an empty payload with a note, never an
    exception — the dashboard must be usable *while* a sweep is still
    materialising its artifacts.
    """

    def __init__(self, *, store_path: Optional[str] = None,
                 events_path: Optional[str] = None,
                 bench_baseline: str = DEFAULT_BENCH_BASELINE,
                 bench_current: Optional[str] = None,
                 traces_dir: Optional[str] = None) -> None:
        self.store_path = store_path
        if events_path is None and store_path is not None:
            sibling = os.path.join(os.path.dirname(os.path.abspath(store_path)),
                                   "sweep.events.jsonl")
            events_path = sibling if os.path.exists(sibling) else None
        self.events_path = events_path
        self.bench_baseline = bench_baseline
        self.bench_current = bench_current or bench_json_path()
        self.traces_dir = traces_dir

    # -- payloads ------------------------------------------------------------
    def results(self, *, scenario: Optional[str] = None,
                status: Optional[str] = None,
                limit: Optional[int] = None) -> dict:
        """Store summary rows, filterable by scenario substring and status
        (``passed`` / ``failed``)."""
        if not self.store_path or not os.path.exists(self.store_path):
            return {"store": self.store_path, "count": 0, "rows": [],
                    "note": "no result store found"}
        with ResultStore(self.store_path) as store:
            rows = store.rows()
        if scenario:
            rows = [row for row in rows if scenario in row["scenario"]]
        if status == "passed":
            rows = [row for row in rows if row["passed"]]
        elif status == "failed":
            rows = [row for row in rows if not row["passed"]]
        total = len(rows)
        if limit is not None:
            rows = rows[:limit]
        return {"store": self.store_path, "count": total, "rows": rows}

    def result(self, key: str) -> dict:
        """Full detail of one stored result, addressed by content key."""
        if not self.store_path or not os.path.exists(self.store_path):
            return {"key": key, "found": False, "note": "no result store found"}
        with ResultStore(self.store_path) as store:
            result = store.get(key)
        if result is None:
            return {"key": key, "found": False}
        return {"key": key, "found": True, "result": result.as_dict()}

    def progress(self) -> dict:
        """Per-sweep progress folded from the JSONL event log."""
        if not self.events_path or not os.path.exists(self.events_path):
            return {"events": self.events_path, "total": 0,
                    "note": "no event log found"}
        snapshot = sweep_progress(read_events(self.events_path))
        snapshot["events"] = self.events_path
        return snapshot

    def bench(self) -> dict:
        """``bench_compare`` mismatches: committed ledger vs current file."""
        payload = {"baseline": self.bench_baseline,
                   "current": self.bench_current, "rows": []}
        if not os.path.exists(self.bench_baseline):
            payload["note"] = "no baseline bench file"
            return payload
        try:
            payload["rows"] = compare_bench_files(self.bench_baseline,
                                                  self.bench_current)
        except BenchFileError as error:
            payload["note"] = str(error)
        return payload

    def traces(self) -> dict:
        """Exported ``repro.obs`` trace artifacts available for download."""
        if not self.traces_dir or not os.path.isdir(self.traces_dir):
            return {"dir": self.traces_dir, "files": [],
                    "note": "no traces directory"}
        files = []
        for name in sorted(os.listdir(self.traces_dir)):
            path = os.path.join(self.traces_dir, name)
            if os.path.isfile(path) and name.endswith((".json", ".csv")):
                files.append({"name": name, "bytes": os.path.getsize(path),
                              "href": f"/traces/{name}"})
        return {"dir": self.traces_dir, "files": files}

    def trace_path(self, name: str) -> Optional[str]:
        """Filesystem path of one *listed* trace artifact (path-safe).

        Only names the :meth:`traces` listing would show are served: a
        bare basename with a ``.json``/``.csv`` extension.  Anything else
        sitting in the traces directory is not downloadable.
        """
        if not self.traces_dir or os.path.basename(name) != name:
            return None
        if not name.endswith((".json", ".csv")):
            return None
        path = os.path.join(self.traces_dir, name)
        return path if os.path.isfile(path) else None

    # -- HTML ----------------------------------------------------------------
    def index_html(self, refresh_s: Optional[int] = None) -> str:
        """The server-rendered dashboard page."""
        results = self.results(limit=200)
        progress = self.progress()
        bench = self.bench()
        traces = self.traces()
        counts = progress.get("counts", {})
        tiles = [
            ("stored results", str(results["count"])),
            ("sweep done", f"{progress.get('done', 0)}"
                           f"/{progress.get('total', 0)}"),
            ("cache hits", str(counts.get("cache_hit", 0))),
            ("failures", str(counts.get("failed", 0)
                             + counts.get("timeout", 0))),
        ]
        tiles_html = "".join(
            f'<div class="tile"><div class="tile-value">{html.escape(value)}'
            f'</div><div class="tile-label">{html.escape(label)}</div></div>'
            for label, value in tiles)
        sections = [
            _html_section("Results", _results_table_html(results)),
            _html_section("Sweep progress", _progress_html(progress)),
            _html_section("Bench ledger mismatches",
                          _bench_table_html(bench)),
            _html_section("Trace artifacts", _traces_html(traces)),
        ]
        refresh = (f'<meta http-equiv="refresh" content="{int(refresh_s)}">'
                   if refresh_s else "")
        return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">{refresh}
<title>repro sweep observatory</title>
<style>
  :root {{ color-scheme: light dark; }}
  body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
         max-width: 72rem; padding: 0 1rem; }}
  h1 {{ font-size: 1.3rem; }} h2 {{ font-size: 1.05rem; margin-top: 2rem; }}
  .tiles {{ display: flex; gap: 1rem; flex-wrap: wrap; }}
  .tile {{ border: 1px solid color-mix(in srgb, currentColor 25%, transparent);
          border-radius: 8px; padding: .75rem 1.25rem; min-width: 8rem; }}
  .tile-value {{ font-size: 1.5rem; font-weight: 600; }}
  .tile-label {{ opacity: .7; }}
  table {{ border-collapse: collapse; width: 100%; margin: .5rem 0; }}
  th, td {{ text-align: left; padding: .3rem .6rem;
           border-bottom: 1px solid
           color-mix(in srgb, currentColor 18%, transparent); }}
  th {{ opacity: .7; font-weight: 600; }}
  td.num, th.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
  .muted {{ opacity: .6; }}
  code {{ font-size: .85em; }}
</style></head><body>
<h1>repro sweep observatory</h1>
<p class="muted">store: <code>{html.escape(str(self.store_path))}</code> ·
events: <code>{html.escape(str(self.events_path))}</code> ·
endpoints: <code>/api/results</code> <code>/api/progress</code>
<code>/api/bench</code> <code>/api/traces</code></p>
<div class="tiles">{tiles_html}</div>
{''.join(sections)}
</body></html>
"""


def _html_section(title: str, body: str) -> str:
    return f"<h2>{html.escape(title)}</h2>\n{body}\n"


def _html_table(columns: List[tuple], rows: List[dict],
                empty: str = "(none)") -> str:
    """Render ``rows`` as an HTML table; ``columns`` are
    ``(key, header, numeric)`` triples."""
    if not rows:
        return f'<p class="muted">{html.escape(empty)}</p>'
    head = "".join(
        f'<th class="num">{html.escape(header)}</th>' if numeric
        else f"<th>{html.escape(header)}</th>"
        for _, header, numeric in columns)
    body_rows = []
    for row in rows:
        cells = []
        for key, _, numeric in columns:
            value = row.get(key, "")
            text = "" if value is None else str(value)
            cells.append(f'<td class="num">{html.escape(text)}</td>' if numeric
                         else f"<td>{html.escape(text)}</td>")
        body_rows.append(f"<tr>{''.join(cells)}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body_rows)}</tbody></table>")


def _results_table_html(results: dict) -> str:
    rows = []
    for row in results["rows"]:
        rows.append({
            "scenario": row["scenario"],
            "workload": row.get("workload", ""),
            "status": "passed" if row["passed"] else "FAILED",
            "host_s": f"{row['host_seconds']:.3f}",
            "cycles": row.get("simulated_cycles"),
            "hits": row.get("hits", 0),
            "key": row["key"][:12],
        })
    return _html_table(
        [("scenario", "scenario", False), ("workload", "workload", False),
         ("status", "status", False), ("host_s", "host s", True),
         ("cycles", "simulated cycles", True), ("hits", "cache hits", True),
         ("key", "key", False)],
        rows, empty="no stored results")


def _progress_html(progress: dict) -> str:
    if not progress.get("total"):
        return '<p class="muted">no event log / empty sweep</p>'
    counts = progress.get("counts", {})
    parts = [f"{progress.get('done', 0)}/{progress.get('total', 0)} done"]
    parts.extend(f"{value} {kind}" for kind, value in sorted(counts.items())
                 if value)
    blocks = [f"<p>{html.escape(' · '.join(parts))}</p>"]
    if progress.get("running"):
        blocks.append(_html_table(
            [("scenario", "running scenario", False),
             ("last_signal_age_s", "last signal age (s)", True)],
            progress["running"]))
    if progress.get("stragglers"):
        blocks.append(_html_table(
            [("scenario", "slowest scenarios", False),
             ("host_seconds", "host s", True)],
            [{"scenario": row["scenario"],
              "host_seconds": f"{row['host_seconds']:.3f}"}
             for row in progress["stragglers"]]))
    if progress.get("failures"):
        blocks.append(_html_table(
            [("kind", "failure", False), ("scenario", "scenario", False),
             ("detail", "detail", False)], progress["failures"]))
    return "\n".join(blocks)


def _bench_table_html(bench: dict) -> str:
    return _html_table(
        [("key", "bench/scenario", False), ("status", "status", False),
         ("field", "field", False), ("old", "baseline", True),
         ("new", "current", True)],
        bench["rows"], empty=bench.get("note", "ledgers match"))


def _traces_html(traces: dict) -> str:
    rows = traces.get("files", [])
    if not rows:
        return (f'<p class="muted">'
                f'{html.escape(traces.get("note", "no trace artifacts"))}'
                f'</p>')
    linked = [{"name": f"{row['name']}", "bytes": row["bytes"],
               "href": row["href"]} for row in rows]
    body = "".join(
        f'<tr><td><a href="{html.escape(row["href"])}">'
        f'{html.escape(row["name"])}</a></td>'
        f'<td class="num">{row["bytes"]}</td></tr>'
        for row in linked)
    return (f"<table><thead><tr><th>trace</th>"
            f'<th class="num">bytes</th></tr></thead>'
            f"<tbody>{body}</tbody></table>")


# -- HTTP server ------------------------------------------------------------
def make_handler(data: DashboardData, refresh_s: Optional[int] = None):
    """Build the request-handler class bound to one :class:`DashboardData`."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-observatory/1.0"

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            parsed = urlparse(self.path)
            query = {key: values[-1]
                     for key, values in parse_qs(parsed.query).items()}
            route = parsed.path
            try:
                if route in ("/", "/index.html"):
                    page_refresh = int(query.get("refresh", refresh_s or 0))
                    self._send_html(data.index_html(page_refresh or None))
                elif route == "/api/results":
                    limit = query.get("limit")
                    self._send_json(data.results(
                        scenario=query.get("scenario"),
                        status=query.get("status"),
                        limit=int(limit) if limit else None))
                elif route.startswith("/api/result/"):
                    self._send_json(data.result(route.rsplit("/", 1)[-1]))
                elif route == "/api/progress":
                    self._send_json(data.progress())
                elif route == "/api/bench":
                    self._send_json(data.bench())
                elif route == "/api/traces":
                    self._send_json(data.traces())
                elif route.startswith("/traces/"):
                    self._send_file(data.trace_path(route.rsplit("/", 1)[-1]))
                else:
                    self._send_json({"error": f"unknown route {route}"},
                                    status=404)
            except Exception as exc:  # surface, don't kill the server
                self._send_json({"error": f"{type(exc).__name__}: {exc}"},
                                status=500)

        # -- responses --------------------------------------------------
        def _send_json(self, payload: dict, status: int = 200) -> None:
            body = json.dumps(payload, indent=1, default=str).encode("utf-8")
            self._send(body, "application/json", status)

        def _send_html(self, page: str) -> None:
            self._send(page.encode("utf-8"), "text/html; charset=utf-8", 200)

        def _send_file(self, path: Optional[str]) -> None:
            if path is None:
                self._send_json({"error": "no such trace"}, status=404)
                return
            # Stream in chunks: trace exports can be large and one request
            # must not hold the whole artifact in memory.
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                self.send_response(200)
                self.send_header("Content-Type", "application/octet-stream")
                self.send_header("Content-Length", str(size))
                self.end_headers()
                while True:
                    chunk = handle.read(64 * 1024)
                    if not chunk:
                        break
                    self.wfile.write(chunk)

        def _send(self, body: bytes, content_type: str, status: int) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt: str, *args) -> None:
            # Quiet by default; the progress line owns the terminal.
            pass

    return Handler


def serve(data: DashboardData, host: str = "127.0.0.1", port: int = 8349,
          refresh_s: Optional[int] = None) -> ThreadingHTTPServer:
    """Bind the dashboard server (``port=0`` picks a free port); the caller
    drives ``serve_forever`` — tests use a background thread instead."""
    return ThreadingHTTPServer((host, port), make_handler(data, refresh_s))


# -- CLI --------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.serve",
        description="Queryable dashboard over sweep stores, event logs, "
                    "bench ledger mismatches and trace artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=None,
                       help="path to the sweep's ResultStore SQLite file")
        p.add_argument("--events", default=None,
                       help="path to the sweep's JSONL event log (default: "
                            "sweep.events.jsonl next to the store)")
        p.add_argument("--bench-baseline", default=DEFAULT_BENCH_BASELINE,
                       help="baseline BENCH_kernel.json "
                            f"(default: {DEFAULT_BENCH_BASELINE})")
        p.add_argument("--bench-current", default=None,
                       help="candidate bench file (default: "
                            "$REPRO_BENCH_JSON or BENCH_kernel.json)")
        p.add_argument("--traces-dir", default=None,
                       help="directory of exported repro.obs trace artifacts")

    serve_parser = sub.add_parser("serve", help="run the HTTP dashboard")
    add_common(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8349)
    serve_parser.add_argument("--refresh", type=int, default=None,
                              metavar="SECONDS",
                              help="auto-refresh interval of the HTML page")

    query_parser = sub.add_parser(
        "query", help="print one dashboard payload offline (no server)")
    add_common(query_parser)
    query_parser.add_argument(
        "what", choices=["results", "progress", "bench", "traces", "result"],
        help="which payload to print")
    query_parser.add_argument("--key", default=None,
                              help="content key (for `query result`)")
    query_parser.add_argument("--scenario", default=None,
                              help="scenario-name substring filter")
    query_parser.add_argument("--status", choices=["passed", "failed"],
                              default=None)
    query_parser.add_argument("--limit", type=int, default=None)
    query_parser.add_argument("--table", action="store_true",
                              help="aligned text table instead of JSON "
                                   "(results/traces only)")
    return parser


def _query(data: DashboardData, args: argparse.Namespace) -> int:
    if args.what == "results":
        payload = data.results(scenario=args.scenario, status=args.status,
                               limit=args.limit)
        if args.table:
            rows = [{
                "scenario": row["scenario"],
                "workload": row.get("workload", ""),
                "status": "passed" if row["passed"] else "FAILED",
                "host_s": round(row["host_seconds"], 3),
                "hits": row.get("hits", 0),
                "key": row["key"][:12],
            } for row in payload["rows"]]
            print(format_table(rows) if rows else "(no stored results)")
            return 0
    elif args.what == "progress":
        payload = data.progress()
    elif args.what == "bench":
        payload = data.bench()
    elif args.what == "traces":
        payload = data.traces()
        if args.table:
            print(format_table(payload["files"]) if payload["files"]
                  else "(no trace artifacts)")
            return 0
    else:
        if not args.key:
            print("query result requires --key", file=sys.stderr)
            return 2
        payload = data.result(args.key)
    print(json.dumps(payload, indent=1, default=str))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for both the server and the offline query head."""
    args = _build_parser().parse_args(argv)
    data = DashboardData(
        store_path=args.store, events_path=args.events,
        bench_baseline=args.bench_baseline, bench_current=args.bench_current,
        traces_dir=args.traces_dir,
    )
    if args.command == "query":
        try:
            return _query(data, args)
        except BrokenPipeError:  # e.g. `... query results | head`
            try:
                sys.stdout.close()
            except OSError:
                pass
            return 0
    server = serve(data, host=args.host, port=args.port,
                   refresh_s=args.refresh)
    host, port = server.server_address[:2]
    print(f"sweep observatory on http://{host}:{port}/ "
          f"(store: {args.store or '-'}, events: {data.events_path or '-'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
