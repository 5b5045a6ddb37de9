"""The sanitizer's memory-window rule: below the I/O array a memory takes
one write, the ``REG_COMMAND`` burst, and any other write is register
misuse — a former operand offset as much as a result register."""

from repro.api import PlatformBuilder, run_tasks
from repro.memory import DataType


def test_write_to_a_former_operand_offset_is_register_misuse():
    def poker(ctx):
        smem = ctx.smem(0)
        vptr = yield from smem.alloc(4, DataType.UINT32)
        yield from ctx.port.write(smem.base_address + 0x28, vptr)
        yield from smem.free(vptr)
        return 0

    config = PlatformBuilder().pes(1).wrapper_memories(1).sanitize().build()
    report = run_tasks(config, [poker])
    misuses = [r for r in report.sanitizer_reports
               if r["checker"] == "register-misuse"]
    assert len(misuses) == 1
    assert "+0x28" in misuses[0]["message"]
    assert "read-only" in misuses[0]["message"]
