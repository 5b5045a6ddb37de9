"""The wrapper's cycle-true FSM.

The FSM is the cycle-true part of the wrapper: it receives the transaction
head (opcode + sm_addr), drives the functional part (pointer table and
translator) and paces the whole operation according to the configured delay
parameters.  :class:`WrapperFsm` describes every operation as a *run-length
cycle schedule* — the states the FSM traverses, each with the number of
cycles it is occupied — and advances through it arithmetically, so one
operation costs the same host work however many cycles it occupies.  The
state-occupancy statistics (how many cycles were spent decoding, calling the
host, transferring data, responding) are what the evaluation benches read.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..memory.protocol import ARRAY_OPCODES, MemOpcode
from .delays import WrapperDelays

#: FSM state names (Figure 2: Idle, Address/decode, Functional, Write/Read
#: transfer, respond).
S_IDLE = "IDLE"
S_DECODE = "DECODE"
S_TABLE = "TABLE"
S_HOST_CALL = "HOST_CALL"
S_ACCESS = "ACCESS"
S_TRANSFER = "TRANSFER"
S_RESPOND = "RESPOND"

#: One schedule entry: ``(state, cycles occupied)``, ``cycles >= 1``.
Run = Tuple[str, int]


class WrapperFsm:
    """Builds and accounts the cycle schedule of every wrapper operation."""

    def __init__(self, delays: WrapperDelays) -> None:
        self.delays = delays
        #: Current state.  An operation is advanced whole, so between calls
        #: the FSM is always back in ``IDLE``.
        self.state = S_IDLE
        #: Total cycles accounted (operations plus idle evaluations).
        self.cycles = 0
        self._occupancy: Dict[str, int] = {}
        #: Number of operations processed, by opcode name.
        self.operations: Dict[str, int] = {}
        d = delays
        decode = (S_DECODE, max(1, d.decode_cycles))
        table = (S_TABLE, d.table_cycles)
        host_call = (S_HOST_CALL, d.host_call_cycles)
        access = (S_ACCESS, d.access_cycles)
        # Re-compaction of the pointer table happens in the table state,
        # hence FREE's second visit.
        functional = {
            MemOpcode.ALLOC: (table, host_call),
            MemOpcode.FREE: (table, host_call, table),
            MemOpcode.READ: (table, access),
            MemOpcode.WRITE: (table, access),
            MemOpcode.READ_ARRAY: (table, access),
            MemOpcode.WRITE_ARRAY: (table, access),
            MemOpcode.RESERVE: (table,),
            MemOpcode.RELEASE: (table,),
            MemOpcode.QUERY: (table,),
        }
        #: Per opcode, the runs up to the data-dependent part of the schedule
        #: (NOP only decodes and responds).
        self._head: Dict[MemOpcode, List[Run]] = {
            opcode: [run for run in (decode, *functional.get(opcode, ()))
                     if run[1] > 0]
            for opcode in MemOpcode
        }
        self._respond: Run = (S_RESPOND, max(1, d.respond_cycles))

    # -- schedule construction --------------------------------------------------------
    def schedule_for(self, opcode: MemOpcode, words: int, byte_count: int
                     ) -> List[Run]:
        """Return the run-length state sequence for one operation.

        ``words`` is the number of data words moved through the I/O arrays
        (0 for scalar operations), ``byte_count`` the payload size used for
        the data-dependent hook.  States occupied for zero cycles are left
        out.
        """
        schedule = list(self._head[opcode])
        if opcode in ARRAY_OPCODES:
            transfer = self.delays.per_word_cycles * words
            if transfer > 0:
                schedule.append((S_TRANSFER, transfer))
        extra = self.delays.extra(opcode, byte_count)
        if extra:
            schedule.append((S_ACCESS, extra))
        schedule.append(self._respond)
        return schedule

    # -- execution ----------------------------------------------------------------------
    def run_operation(self, opcode: MemOpcode, words: int = 0,
                      byte_count: int = 0) -> int:
        """Advance the FSM through one operation; returns the cycle count."""
        occupancy = self._occupancy
        total = 0
        for state, cycles in self.schedule_for(opcode, words, byte_count):
            occupancy[state] = occupancy.get(state, 0) + cycles
            total += cycles
        self.cycles += total
        name = opcode.name
        self.operations[name] = self.operations.get(name, 0) + 1
        return total

    def account_idle(self, cycles: int) -> None:
        """Account ``cycles`` evaluations of the idle state."""
        self.cycles += cycles
        self._occupancy[S_IDLE] = self._occupancy.get(S_IDLE, 0) + cycles

    # -- statistics -----------------------------------------------------------------------
    def occupancy(self) -> Dict[str, int]:
        """Cycles spent in each state since construction."""
        return dict(self._occupancy)

    def busy_fraction(self) -> float:
        """Fraction of accounted cycles spent outside the idle state."""
        if self.cycles == 0:
            return 0.0
        return 1.0 - self._occupancy.get(S_IDLE, 0) / self.cycles
