"""Coherence-invariant checker: never two dirty L1 copies of one line.

The MSI protocol makes the dirty-dirty state unreachable on a healthy
platform, so the planted-bug test drives the checker with stub caches;
the platform test asserts that a real cached multi-PE run stays clean.
"""

from repro.api import PlatformBuilder, run_tasks
from repro.check.protocol import CoherenceChecker
from repro.check.report import ReportSink
from repro.memory import DataType


class _Alloc:
    def __init__(self, uid=1, vptr=0x100):
        self.uid = uid
        self.vptr = vptr


class _Line:
    def __init__(self, alloc, mem_index=0, line_no=0, lo=0, hi=32,
                 dirty=True):
        self.alloc = alloc
        self.mem_index = mem_index
        self.line_no = line_no
        self.lo_byte = lo
        self.hi_byte = hi
        self._dirty = dirty

    def has_dirty(self):
        return self._dirty


class _StubLines(list):
    def overlapping(self, mem_index, lo_byte, hi_byte):
        return [line for line in self
                if line.mem_index == mem_index and line.lo_byte < hi_byte
                and lo_byte < line.hi_byte]


class _StubCache:
    def __init__(self, master_id, lines):
        self.master_id = master_id
        self.lines = _StubLines(lines)


def test_planted_dirty_dirty_is_reported_once():
    alloc = _Alloc()
    cache_a = _StubCache(0, [_Line(alloc, dirty=True)])
    cache_b = _StubCache(1, [_Line(alloc, dirty=True)])
    checker = CoherenceChecker(ReportSink(max_reports=8),
                               [cache_a, cache_b])
    assert checker.scan(now=100) == 1
    [report] = checker.sink.reports
    assert report.checker == "coherence"
    assert "dirty-dirty" in report.message
    assert len(report.sites) == 2
    assert {site.master for site in report.sites} == {"master0", "master1"}
    # Rescanning the same pair does not duplicate the finding.
    assert checker.scan(now=200) == 0
    assert checker.violations == 1


def test_clean_and_disjoint_lines_do_not_trip():
    alloc = _Alloc()
    other_alloc = _Alloc(uid=2, vptr=0x200)
    checker = CoherenceChecker(ReportSink(max_reports=8), [
        _StubCache(0, [_Line(alloc, dirty=True),
                       _Line(other_alloc, lo=64, hi=96, dirty=True)]),
        _StubCache(1, [_Line(alloc, dirty=False),          # clean copy
                       _Line(other_alloc, lo=96, hi=128)]),  # disjoint bytes
    ])
    assert checker.scan(now=1) == 0
    assert checker.sink.reports == []


def test_cached_platform_run_stays_coherence_clean():
    shared = {}

    def writer(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(16, DataType.UINT32)
        yield from smem.reserve(vptr)
        yield from smem.write_array(vptr, list(range(16)))
        yield from smem.release(vptr)
        shared["vptr"] = vptr
        shared["ready"] = True
        yield from ctx.compute(20)
        return 0

    def reader(ctx):
        smem = ctx.smem(0)
        while not shared.get("ready"):
            yield 16 * ctx.clock_period
        vptr = shared["vptr"]
        yield from smem.reserve(vptr)
        data = yield from smem.read_array(vptr, 16)
        yield from smem.release(vptr)
        return data

    config = (PlatformBuilder().pes(2).wrapper_memories(1)
              .l1_cache(sets=8, ways=2, line_bytes=16)
              .sanitize().build())
    report = run_tasks(config, [writer, reader])
    assert report.all_pes_finished
    assert report.results["pe1"] == list(range(16))
    coherence = [r for r in report.sanitizer_reports
                 if r["checker"] == "coherence"]
    assert coherence == []
