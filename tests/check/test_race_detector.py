"""Race-detector tests: unit-level state machine plus platform runs."""

import pytest

from repro.api import PlatformBuilder, run_tasks
from repro.check.race import RaceDetector
from repro.check.report import ReportSink
from repro.memory import DataType


def _site(master, op, time=0):
    """An access record: (master, op, time, mem_index, vptr, traceback).
    A reported site's element is the word's own."""
    return (master, op, time, 0, 0x100, [])


@pytest.fixture
def detector():
    detector = RaceDetector(ReportSink(max_reports=16))
    detector.register_actor(0)
    detector.register_actor(1)
    return detector


KEY = (0, 1)  # (mem_index, alloc uid)


def test_plain_write_write_race(detector):
    detector.begin_op(0)
    detector.plain_write(0, KEY, [0, 1], _site("pe0", "array write"))
    detector.begin_op(1)
    detector.plain_write(1, KEY, [0, 1], _site("pe1", "array write"))
    [report] = detector.sink.reports
    assert report.checker == "data-race"
    assert len(report.sites) == 2
    assert {site.master for site in report.sites} == {"pe0", "pe1"}
    # Identical conflicting epochs are deduplicated (element 1 is the
    # same unordered pair as element 0).
    assert detector.races == 1


def test_plain_read_write_race(detector):
    detector.begin_op(0)
    detector.plain_write(0, KEY, [3], _site("pe0", "array write"))
    detector.begin_op(1)
    detector.plain_read(1, KEY, [3], _site("pe1", "array read"))
    assert detector.races == 1
    # Both sites are built at the report, at the racing word's element.
    [report] = detector.sink.reports
    assert [(site.master, site.element) for site in report.sites] == [
        ("pe0", 3), ("pe1", 3)]
    assert "vptr=0x100[3]" in report.message
    # Two plain reads of the same word do not race each other.
    detector.begin_op(0)
    races_before = detector.races
    detector.plain_read(0, KEY, [3], _site("pe0", "array read"))
    assert detector.races == races_before


def test_lock_orders_accesses(detector):
    detector.begin_op(0)
    detector.plain_write(0, KEY, [0], _site("pe0", "array write"))
    detector.release(0, KEY)
    detector.begin_op(1)
    detector.acquire(1, KEY)
    detector.plain_read(1, KEY, [0], _site("pe1", "array read"))
    assert detector.races == 0


def test_atomic_flag_orders_plain_accesses(detector):
    # The wait_flag idiom: plain writes, then a scalar flag write; the
    # reader polls the flag (acquire) and then reads the payload.
    detector.begin_op(0)
    detector.plain_write(0, KEY, [1], _site("pe0", "array write"))
    detector.begin_op(0)
    detector.atomic_write(0, KEY, 0, _site("pe0", "write"))
    detector.begin_op(1)
    detector.atomic_read(1, KEY, 0, _site("pe1", "read"))
    detector.plain_read(1, KEY, [1], _site("pe1", "array read"))
    assert detector.races == 0


def test_unordered_atomic_does_not_bless_earlier_reader(detector):
    # Reader reads the payload BEFORE acquiring the flag: still a race.
    detector.begin_op(1)
    detector.plain_read(1, KEY, [1], _site("pe1", "array read"))
    detector.begin_op(0)
    detector.plain_write(0, KEY, [1], _site("pe0", "array write"))
    assert detector.races == 1


def test_free_races_with_unordered_access(detector):
    detector.begin_op(0)
    detector.plain_write(0, KEY, [0], _site("pe0", "array write"))
    detector.begin_op(1)
    detector.free_alloc(1, KEY, _site("pe1", "free"))
    assert detector.races == 1
    # The allocation's state is gone afterwards.
    assert KEY not in detector.words


def test_irq_edge_orders_accesses(detector):
    detector.begin_op(0)
    detector.plain_write(0, KEY, [0], _site("pe0", "array write"))
    detector.irq_raised([4], raiser=0, controller_base=None)
    detector.irq_claimed(1, [4])
    detector.begin_op(1)
    detector.plain_read(1, KEY, [0], _site("pe1", "array read"))
    assert detector.races == 0


def test_kernel_event_edge_only_for_registered_actors(detector):
    event = object()
    # An unregistered notifier must not create an edge.
    detector.kernel_notify("not-an-actor", event)
    detector.kernel_wake(1, event)
    detector.begin_op(0)
    detector.plain_write(0, KEY, [0], _site("pe0", "array write"))
    detector.begin_op(1)
    detector.plain_read(1, KEY, [0], _site("pe1", "array read"))
    assert detector.races == 1


# -- platform integration ------------------------------------------------------------
def test_platform_reports_planted_race_with_both_sites():
    shared = {}

    def writer(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(8, DataType.UINT32)
        shared["vptr"] = vptr
        yield from smem.write_array(vptr, list(range(8)))
        yield from ctx.compute(50)
        return 0

    def racer(ctx):
        smem = ctx.smem(0)
        while "vptr" not in shared:
            yield from ctx.compute(5)
        # Host-dict handoff carries no simulated synchronisation: racy.
        yield from smem.write_array(shared["vptr"], [9] * 8)
        return 1

    config = PlatformBuilder().pes(2).wrapper_memories(1).sanitize().build()
    report = run_tasks(config, [writer, racer])
    races = [r for r in report.sanitizer_reports if r["checker"] == "data-race"]
    assert len(races) == 1
    [race] = races
    sites = race["sites"]
    assert {site["master"] for site in sites} == {"pe0", "pe1"}
    # Both sites carry a workload traceback naming the task function.
    names = [frame[2] for site in sites for frame in site["traceback"]]
    assert "writer" in names and "racer" in names
    # ...and the simulated time of each access.
    assert all(site["time"] > 0 for site in sites)


def test_platform_clean_producer_consumer_has_no_reports():
    from repro.sw.registry import workload

    config = PlatformBuilder().pes(2).wrapper_memories(1).sanitize().build()
    inst = workload.create("producer_consumer", config, num_items=8, seed=1)
    report = run_tasks(config, inst.tasks)
    assert report.sanitizer_reports == []
    assert report.all_pes_finished


def test_report_cap_and_meta_entry():
    shared = {}

    def writer(ctx):
        smem = ctx.smem(0)
        vptrs = []
        for _ in range(4):
            vptr = yield from smem.alloc(4, DataType.UINT32)
            yield from smem.write_array(vptr, [1] * 4)
            vptrs.append(vptr)
        shared["vptrs"] = vptrs
        yield from ctx.compute(50)
        return 0

    def racer(ctx):
        smem = ctx.smem(0)
        while "vptrs" not in shared:
            yield from ctx.compute(3)
        # One distinct race pair per allocation: four findings, cap two.
        for vptr in shared["vptrs"]:
            yield from smem.write_array(vptr, [2] * 4)
        return 1

    config = (PlatformBuilder().pes(2).wrapper_memories(1)
              .sanitize(max_reports=2).build())
    report = run_tasks(config, [writer, racer])
    assert len(report.sanitizer_reports) == 3  # 2 reports + the meta entry
    meta = report.sanitizer_reports[-1]
    assert meta["checker"] == "meta"
