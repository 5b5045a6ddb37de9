"""The sanitizer suite: probe-bus glue between platform and checkers.

One :class:`SanitizerSuite` per sanitized :class:`~repro.soc.platform.Platform`.
:meth:`SanitizerSuite.attach` (called once, from ``Platform.prepare_run``)
reads the actors (PE programs, DMA engines), the L1 caches and the
address map off the platform and subscribes to five points of its
:class:`~repro.kernel.probes.Probes` bus — ``port_issue`` /
``port_complete`` (fabric transfers), ``sync`` (kernel event
notify/wake, watched for the actors' processes only) and ``irq_raise`` /
``irq_claim`` (interrupt controller) — feeding the race detector, the
protocol checkers and the coherence checker.  A transfer is placed by the
fabric's decode (``request.region``) and a command burst is the memory's
(``request.decoded``).  Word state is keyed by allocation generation uid,
the row the platform's :class:`~repro.cache.shadow.ShadowMap` left at
``request.row`` (the row the L1s key their lines by), so vptr reuse never
aliases.

Everything here only observes.  No event is notified, no process is
created, no wait is issued: a sanitized run is counter-identical (delta
cycles, activations, timed steps, events fired, simulated time) to the
same run with ``check=None``.

With L1 caches enabled, accesses served from a cache never reach the
fabric and cache-internal traffic (fills, writebacks) is issued by
whichever process triggered the snoop; the race detector therefore skips
cache-tagged transfers — it stays free of false positives but may miss
races hidden by caching.  The coherence checker covers cached platforms.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cache.shadow import BOOKKEEPING_OPCODES
from ..fabric.address_map import Region
from ..fabric.transaction import (
    CACHE_TAG_SUFFIXES,
    WORD_SIZE,
    BusOp,
    BusRequest,
    BusResponse,
)
from ..memory.protocol import (
    ARRAY_OPCODES,
    IO_ARRAY_BASE,
    REG_COMMAND,
    MemCommand,
    MemOpcode,
    MemStatus,
)
from .config import CheckConfig
from .protocol import CoherenceChecker, ProtocolChecker
from .race import RaceDetector
from .report import Access, Frame, ReportSink
from .vclock import Actor

#: The access a completed data command is to the race detector.
_ACCESS_LABELS = {MemOpcode.READ: "scalar read", MemOpcode.WRITE: "scalar write",
                  MemOpcode.READ_ARRAY: "array read",
                  MemOpcode.WRITE_ARRAY: "array write"}

#: Documented read-only word registers per device kind.
_DEVICE_READONLY = {
    "dma": frozenset({9, 10, 11}),        # WORDS_DONE, IRQ_LINE, TRANSFERS
    "timer": frozenset({3}),              # IRQ_LINE
    "irq_controller": frozenset({2}),     # LEVEL (wire state)
}


def _mask_lines(mask: int) -> List[int]:
    lines = []
    line = 0
    while mask:
        if mask & 1:
            lines.append(line)
        mask >>= 1
        line += 1
    return lines


def workload_frames(process) -> List[Frame]:
    """The ``yield from`` chain of a suspended process, outermost first."""
    frames: List[Frame] = []
    generator = process._generator
    try:
        while generator is not None:
            frame = generator.gi_frame
            if frame is not None:
                code = frame.f_code
                frames.append((code.co_filename, frame.f_lineno,
                               code.co_name))
            generator = generator.gi_yieldfrom
    except AttributeError:  # the chain ends in an iterator, not a generator
        pass
    return frames


class SanitizerSuite:
    """Runtime sanitizers of one platform run (see module docstring)."""

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.sink = ReportSink(config.max_reports)
        self.race: Optional[RaceDetector] = (
            RaceDetector(self.sink) if config.race else None)
        self.protocol: Optional[ProtocolChecker] = (
            ProtocolChecker(self.sink) if config.protocol else None)
        self.coherence: Optional[CoherenceChecker] = None
        self._actor_of_process: Dict[object, Actor] = {}
        self._process_of_actor: Dict[Actor, object] = {}
        self._labels: Dict[Actor, str] = {}
        self._finished = False

    # -- wiring ----------------------------------------------------------------------
    def attach(self, platform) -> None:
        """Read the built platform and subscribe to its probe bus.

        Called once from ``Platform.prepare_run``, when processors, caches
        and simulator all exist.
        """
        interconnect = platform.interconnect
        self.shadow = platform.shadow
        self._find_region = interconnect.address_map.find_region
        #: Memory-window base -> memory index; any other region is a device.
        self._mem_index = platform.windows
        self._simulator = platform.simulator
        controller = platform.irq_controller
        self._controller_base: Optional[int] = (
            interconnect.address_map.base_of(controller)
            if controller is not None else None)
        for engine in platform.dma_engines:
            self._add_actor(engine.port.master_id, engine.name,
                            engine.processes[0])
        for pe_index, processor in zip(platform.pe_indices,
                                       platform.processors):
            self._add_actor(pe_index, processor.name, processor.processes[0])
        if self.config.coherence and platform.caches:
            self.coherence = CoherenceChecker(self.sink, platform.caches)
        probes = platform.probes
        probes.subscribe(
            port_issue=self.on_port_issue,
            port_complete=self.on_port_complete,
            irq_raise=self.irq_raised,
            irq_claim=self.irq_claimed,
        )
        if self.race is not None:
            probes.watch(*self._actor_of_process)
            probes.subscribe(sync=self.on_kernel_sync)

    def _add_actor(self, actor: Actor, label: str, process) -> None:
        """Declare a synchronisation-carrying actor (PE, DMA engine)."""
        self._labels[actor] = label
        if self.race is not None:
            self.race.register_actor(actor)
        self._actor_of_process[process] = actor
        self._process_of_actor[actor] = process

    # -- shared helpers ------------------------------------------------------------
    def _label(self, actor: Actor) -> str:
        label = self._labels.get(actor)
        return label if label is not None else f"master{actor}"

    def _access(self, actor: Actor, op: str, time: int, mem_index: int = -1,
                vptr: int = 0) -> Access:
        """The record of one access; its site is built if a finding names it
        (:func:`~repro.check.report.site_of`)."""
        traceback: List[Frame] = []
        if self.config.capture_stacks:
            process = self._process_of_actor.get(actor)
            if process is not None:
                traceback = workload_frames(process)
        return (self._label(actor), op, time, mem_index, vptr, traceback)

    # -- fabric port probes ----------------------------------------------------------
    def on_port_issue(self, port, request: BusRequest) -> None:
        if self.protocol is not None:
            self.protocol.port_issued(
                port, port.name or f"master{request.master_id}",
                self._simulator.now)
        race = self.race
        if race is None or request.op is not BusOp.WRITE:
            return
        actor = request.master_id
        if (actor not in race.clocks
                or request.address in self.shadow.command_mem):
            return  # a memory's command burst rings no device
        region = self._find_region(request.address)
        if region is None or region.base in self._mem_index:
            return
        # A doorbell: the writer's clock is published at *issue* time —
        # deliberately early (the device may act any time after), which
        # can only under-approximate the edge, never invent one.
        device = region.slave
        race.device_write_edge(
            actor, region.base,
            device.port.master_id if device.kind == "dma" else None)

    def on_port_complete(self, port, request: BusRequest,
                         response: BusResponse) -> None:
        if self.protocol is not None:
            self.protocol.port_completed(
                port, port.name or f"master{request.master_id}",
                self._simulator.now)
        region = request.region  # the fabric's decode
        if region is None:
            return
        mem_index = self._mem_index.get(region.base)
        command = request.decoded  # the memory's, made as it served
        if mem_index is None:
            self._device_access(region, request)
        elif isinstance(command, MemCommand):
            self._memory_command(mem_index, command, request, response)
        elif self.protocol is not None:
            self._register_access(region, request, command)

    # -- device-window accesses --------------------------------------------------------
    def _device_access(self, window: Region, request: BusRequest) -> None:
        if self.protocol is None:
            return
        offset = request.address - window.base
        actor = request.master_id
        time = self._simulator.now
        if not request.is_burst and request.size != WORD_SIZE:
            self.protocol.register_misuse(
                f"{self._label(actor)}: {request.size}-byte access to "
                f"{window.name}+{offset:#x} (registers are word-access "
                f"only)",
                self._access(actor, "sub-word access", time))
            return
        if request.op is BusOp.WRITE and not request.is_burst \
                and offset % WORD_SIZE == 0 \
                and offset // WORD_SIZE in _DEVICE_READONLY.get(
                    window.slave.kind, ()):
            self.protocol.register_misuse(
                f"{self._label(actor)}: write to read-only register "
                f"{window.name}+{offset:#x} (silently ignored by the "
                f"device)",
                self._access(actor, "read-only write", time))

    # -- memory-window accesses --------------------------------------------------------
    def _register_access(self, window: Region, request: BusRequest,
                         command: Optional[MemStatus]) -> None:
        """A memory-window transfer that launched no command (``command`` is
        ``None``, or the NACKed :attr:`MemStatus.ERR_MALFORMED`)."""
        offset = request.address - window.base
        if offset >= IO_ARRAY_BASE:
            return
        # Below the I/O array a memory takes one write: the command burst.
        actor = request.master_id
        time = self._simulator.now
        if not request.is_burst and request.size != WORD_SIZE:
            self.protocol.register_misuse(
                f"{self._label(actor)}: {request.size}-byte access to "
                f"{window.name}+{offset:#x} (memory registers are "
                f"word-access only)",
                self._access(actor, "sub-word access", time))
        elif request.op is BusOp.WRITE and command is None:
            self.protocol.register_misuse(
                f"{self._label(actor)}: write to read-only register "
                f"{window.name}+{offset:#x} (only the command burst at "
                f"+{REG_COMMAND:#x} is written below the I/O array)",
                self._access(actor, "read-only write", time))

    def _memory_command(self, mem_index: int, command: MemCommand,
                        request: BusRequest, response: BusResponse) -> None:
        actor = request.master_id
        ok = response.ok
        opcode = command.opcode
        race = self.race
        tracked = race is not None and actor in race.clocks
        cache_internal = request.tag.endswith(CACHE_TAG_SUFFIXES)
        if tracked and not cache_internal:
            race.begin_op(actor)

        label = _ACCESS_LABELS.get(opcode)
        if label is not None:
            if not ok or not tracked or cache_internal:
                return
            array = opcode in ARRAY_OPCODES
            count = command.dim if array else 1
            located = self.shadow.resolve(mem_index, command.vptr,
                                          command.offset, count)
            if located is None:
                return
            alloc, start = located
            key = (mem_index, alloc.uid)
            access = self._access(actor, label, self._simulator.now,
                                  mem_index, command.vptr)
            if array:
                touch = (race.plain_write if opcode is MemOpcode.WRITE_ARRAY
                         else race.plain_read)
                touch(actor, key, range(start, start + count), access)
            else:
                touch = (race.atomic_write if opcode is MemOpcode.WRITE
                         else race.atomic_read)
                touch(actor, key, start, access)
            return

        if opcode not in BOOKKEEPING_OPCODES:
            return
        alloc = request.row if ok else None
        if alloc is None or opcode is MemOpcode.ALLOC:
            return
        key = (mem_index, alloc.uid)
        time = self._simulator.now
        if opcode is MemOpcode.FREE:
            if tracked and not cache_internal:
                race.free_alloc(actor, key, self._access(
                    actor, "free", time, mem_index, command.vptr))
            elif race is not None:
                race.words.pop(key, None)
                race.lock_vc.pop(key, None)
            if self.protocol is not None:
                self.protocol.freed(key)
        elif opcode is MemOpcode.RESERVE:
            if tracked:
                race.acquire(actor, key)
            if self.protocol is not None:
                self.protocol.reserved(
                    key, self._label(actor), command.vptr,
                    self._access(actor, "reserve", time, mem_index,
                                 command.vptr))
        else:
            if tracked:
                race.release(actor, key)
            if self.protocol is not None:
                self.protocol.released(key)
        self._scan_coherence(time)

    # -- kernel ``sync`` probe ---------------------------------------------------------
    def on_kernel_sync(self, kind: str, event, process) -> None:
        """A watched actor process notified ``event``, or was woken by it."""
        actor = self._actor_of_process.get(process)
        if actor is None:  # watched by another subscriber
            return
        if kind == "notify":
            self.race.kernel_notify(actor, event)
        else:
            self.race.kernel_wake(actor, event)

    # -- interrupt-controller probes (see dev.irq) -------------------------------------
    def irq_raised(self, mask: int) -> None:
        race = self.race
        if race is None:
            return
        raiser = self._actor_of_process.get(self._simulator.current_process)
        race.irq_raised(_mask_lines(mask), raiser, self._controller_base)

    def irq_claimed(self, pe_id: int, mask: int) -> None:
        if self.race is not None:
            self.race.irq_claimed(pe_id, _mask_lines(mask))

    # -- coherence scans ---------------------------------------------------------------
    def _scan_coherence(self, time: int) -> None:
        if self.coherence is not None:
            self.coherence.scan(time)

    # -- end of simulation -------------------------------------------------------------
    def finish(self, now: int) -> None:
        if self._finished:
            return
        self._finished = True
        if self.protocol is not None:
            self.protocol.finish(now)
        if self.coherence is not None:
            self.coherence.scan(now)

    # -- results -----------------------------------------------------------------------
    @property
    def reports(self) -> List[dict]:
        return self.sink.as_dicts()

    def counts(self) -> Dict[str, int]:
        counters: Dict[str, int] = {"total": self.sink.total}
        if self.race is not None:
            counters["data_races"] = self.race.races
        if self.protocol is not None:
            counters["lock_leaks"] = self.protocol.lock_leaks
            counters["reserve_reentries"] = self.protocol.reentries
            counters["lifecycle_violations"] = \
                self.protocol.lifecycle_violations
            counters["register_misuses"] = self.protocol.register_misuses
        if self.coherence is not None:
            counters["coherence_violations"] = self.coherence.violations
        return counters

    def format(self) -> str:
        return self.sink.format()
