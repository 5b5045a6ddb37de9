"""Protocol-checker tests: lock leaks, reentry, lifecycle, register misuse."""

from repro.api import PlatformBuilder, run_tasks
from repro.check.protocol import ProtocolChecker
from repro.check.report import ReportSink
from repro.memory import DataType
from repro.memory.protocol import REG_STATUS


def _site(master, op, time=0):
    """An access record: (master, op, time, mem_index, vptr, traceback)."""
    return (master, op, time, 0, 0x100, [])


def _checker():
    return ProtocolChecker(ReportSink(max_reports=16))


KEY = (0, 1)


def test_lock_leak_reported_at_finish():
    checker = _checker()
    checker.reserved(KEY, "pe0", 0x100, _site("pe0", "reserve"))
    checker.finish(now=12345)
    [report] = checker.sink.reports
    assert report.checker == "lock-leak"
    assert "pe0" in report.message and "missing release" in report.message
    assert report.sites[0].op == "reserve"
    assert checker.lock_leaks == 1


def test_release_clears_the_leak():
    checker = _checker()
    checker.reserved(KEY, "pe0", 0x100, _site("pe0", "reserve"))
    checker.released(KEY)
    checker.finish(now=1)
    assert checker.sink.reports == []


def test_reserve_reentry_reports_both_sites():
    checker = _checker()
    checker.reserved(KEY, "pe0", 0x100, _site("pe0", "reserve", time=10))
    checker.reserved(KEY, "pe0", 0x100, _site("pe0", "reserve", time=20))
    [report] = checker.sink.reports
    assert report.checker == "reserve-reentry"
    assert [site.time for site in report.sites] == [10, 20]


def test_reserve_handoff_between_masters_is_not_reentry():
    checker = _checker()
    checker.reserved(KEY, "pe0", 0x100, _site("pe0", "reserve"))
    checker.released(KEY)
    checker.reserved(KEY, "pe1", 0x100, _site("pe1", "reserve"))
    assert checker.sink.reports == []


def test_port_lifecycle_double_issue_and_orphan_complete():
    checker = _checker()
    port = object()
    checker.port_issued(port, "pe0", time=0)
    checker.port_issued(port, "pe0", time=5)
    assert checker.lifecycle_violations == 1
    checker.port_completed(port, "pe0", time=6)
    checker.port_completed(port, "pe0", time=7)
    assert checker.lifecycle_violations == 1  # both were issued
    checker.port_completed(port, "pe0", time=8)
    assert checker.lifecycle_violations == 2  # never issued
    kinds = [r.checker for r in checker.sink.reports]
    assert kinds == ["port-lifecycle", "port-lifecycle"]


# -- platform integration ------------------------------------------------------------
def _sanitized(num_pes=1):
    return (PlatformBuilder().pes(num_pes).wrapper_memories(1)
            .sanitize().build())


def test_platform_reports_reserve_held_at_end():
    def leaker(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from smem.reserve(vptr)  # noqa: RC004 — the planted bug
        return vptr  # finishes while still holding the reservation

    report = run_tasks(_sanitized(), [leaker])
    leaks = [r for r in report.sanitizer_reports
             if r["checker"] == "lock-leak"]
    assert len(leaks) == 1
    assert "pe0" in leaks[0]["message"]
    # The site points into the workload.
    names = [frame[2] for frame in leaks[0]["sites"][0]["traceback"]]
    assert "leaker" in names


def test_platform_reports_write_to_readonly_register():
    def misuser(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        # REG_STATUS is a documented read-only wrapper register.
        base = smem.base_address
        yield from ctx.port.write(base + REG_STATUS, 0xDEAD)
        yield from smem.free(vptr)
        return 0

    report = run_tasks(_sanitized(), [misuser])
    misuses = [r for r in report.sanitizer_reports
               if r["checker"] == "register-misuse"]
    assert len(misuses) == 1
    assert "read-only" in misuses[0]["message"]


def test_platform_reports_subword_register_access():
    def misuser(ctx):
        smem = ctx.smem(0)
        base = smem.base_address
        yield from ctx.port.write(base + REG_STATUS, 1, size=2)
        return 0

    report = run_tasks(_sanitized(), [misuser])
    misuses = [r for r in report.sanitizer_reports
               if r["checker"] == "register-misuse"]
    assert len(misuses) == 1
    assert "word-access only" in misuses[0]["message"]


def test_platform_clean_run_has_no_protocol_findings():
    def polite(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from smem.reserve(vptr)
        yield from smem.write_array(vptr, [1, 2, 3, 4])
        yield from smem.release(vptr)
        yield from smem.free(vptr)
        return 0

    report = run_tasks(_sanitized(), [polite])
    assert report.sanitizer_reports == []
