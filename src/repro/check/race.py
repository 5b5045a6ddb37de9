"""Happens-before data-race detection over shared-memory words.

A FastTrack-flavoured vector-clock analysis adapted to the platform's
transaction protocol.  The *actors* are the fabric masters (PE tasks,
DMA engines) plus string pseudo-actors for device processes; each actor
carries a :class:`~repro.check.vclock.VectorClock` that advances once per
observed transfer and joins along every synchronisation edge:

* ``RESERVE``/``RELEASE`` pairs on an allocation (lock semantics);
* kernel ``Event`` notify→wake, *only* between registered actors — the
  fabric's internal channel processes are deliberately not actors, so
  the shared bus does not become a universal synchroniser that would
  mask every real race;
* device doorbells: a write into a device's register window publishes
  the writer's clock to the window (and to the device's master actor's
  mailbox), so DMA-engine transfers are ordered after the programming
  writes;
* interrupts: ``raise_irq`` publishes the raiser's clock to the line,
  a claimed ``wait_irq`` acquires it.

Word-level state follows the protocol's two access classes: *scalar*
``WRITE``/``READ`` commands are treated as atomic release/acquire
operations (the memory module serialises them, and the polling idiom
``wait_flag`` is exactly a message-passing handoff), while
``WRITE_ARRAY``/``READ_ARRAY``/``FREE`` are plain accesses that must be
ordered by some synchronisation edge.  Conflicting unordered accesses
are reported with both sites.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .report import Access, ReportSink, SanitizerReport, site_of
from .vclock import Actor, Epoch, VectorClock

#: Key of one allocation's shadow state: (memory index, allocation uid).
AllocKey = Tuple[int, int]


class WordState:
    """Last-access state of one element of one allocation."""

    __slots__ = ("w", "w_access", "aw", "aw_access", "reads", "areads",
                 "msg")

    def __init__(self) -> None:
        #: Last plain write: epoch + access.
        self.w: Optional[Epoch] = None
        self.w_access: Optional[Access] = None
        #: Last atomic (scalar) write: epoch + access.
        self.aw: Optional[Epoch] = None
        self.aw_access: Optional[Access] = None
        #: Plain reads since the last plain write: actor -> (clock, access).
        self.reads: Dict[Actor, Tuple[int, Access]] = {}
        #: Atomic reads since the last plain write: actor -> (clock, access).
        self.areads: Dict[Actor, Tuple[int, Access]] = {}
        #: Release clock accumulated by atomic writes to this word.
        self.msg: Optional[VectorClock] = None


class RaceDetector:
    """Vector-clock state machine fed by the sanitizer suite.

    Accesses arrive as :data:`~repro.check.report.Access` records; a word's
    element is the element of both sites of a race reported on it.
    """

    def __init__(self, sink: ReportSink) -> None:
        self.sink = sink
        self.clocks: Dict[Actor, VectorClock] = {}
        #: (mem, uid) -> element -> WordState.
        self.words: Dict[AllocKey, Dict[int, WordState]] = {}
        self.lock_vc: Dict[AllocKey, VectorClock] = {}
        #: Kernel-event release clocks (notify by a registered actor).
        self.event_vc: Dict[object, VectorClock] = {}
        #: Device-register-window release clocks, keyed by window base.
        self.window_vc: Dict[int, VectorClock] = {}
        #: Clocks published to a device-master actor but not yet joined.
        self.mailboxes: Dict[Actor, VectorClock] = {}
        #: IRQ-line release clocks.
        self.line_vc: Dict[int, VectorClock] = {}
        self._reported: set = set()
        #: Distinct race pairs found (reported or deduplicated).
        self.races = 0

    # -- actors ------------------------------------------------------------------
    def register_actor(self, actor: Actor) -> None:
        self.clocks.setdefault(actor, VectorClock())

    def begin_op(self, actor: Actor) -> VectorClock:
        """Start one observed operation of ``actor``: drain the actor's
        mailbox (doorbell edges published to it) and advance its clock."""
        vc = self.clocks[actor]
        mailbox = self.mailboxes.pop(actor, None)
        if mailbox is not None:
            vc.join(mailbox)
        vc.tick(actor)
        return vc

    # -- race reporting ----------------------------------------------------------
    def _race(self, prev_epoch: Epoch, prev: Access, cur_epoch: Epoch,
              access: Access, element: int) -> None:
        key = (prev_epoch, cur_epoch)
        if key in self._reported:
            return
        self._reported.add(key)
        self.races += 1
        master, op, time, mem_index, vptr, _ = access
        self.sink.emit(SanitizerReport(
            checker="data-race",
            message=(f"unsynchronized accesses to smem{mem_index} "
                     f"vptr={vptr:#x}[{element}]: "
                     f"{master} {op} conflicts with {prev[0]} {prev[1]}"),
            time=time,
            sites=[site_of(prev, element), site_of(access, element)],
        ))

    def _check_epoch(self, vc: VectorClock, epoch: Optional[Epoch],
                     prev: Optional[Access], cur_epoch: Epoch,
                     access: Access, element: int) -> None:
        if epoch is not None and not vc.ordered_before(epoch):
            self._race(epoch, prev, cur_epoch, access, element)

    def _check_read_set(self, vc: VectorClock,
                        read_set: Dict[Actor, Tuple[int, Access]],
                        cur_epoch: Epoch, access: Access,
                        element: int) -> None:
        for actor, (clock, read) in read_set.items():
            if vc.get(actor, 0) < clock:
                self._race((actor, clock), read, cur_epoch, access, element)

    # -- word accesses -----------------------------------------------------------
    def _word(self, key: AllocKey, element: int) -> WordState:
        per_alloc = self.words.get(key)
        if per_alloc is None:
            per_alloc = self.words[key] = {}
        state = per_alloc.get(element)
        if state is None:
            state = per_alloc[element] = WordState()
        return state

    def plain_write(self, actor: Actor, key: AllocKey,
                    elements: Iterable[int], access: Access) -> None:
        vc = self.clocks[actor]
        cur = vc.epoch(actor)
        for element in elements:
            state = self._word(key, element)
            self._check_epoch(vc, state.w, state.w_access, cur, access,
                              element)
            self._check_epoch(vc, state.aw, state.aw_access, cur, access,
                              element)
            self._check_read_set(vc, state.reads, cur, access, element)
            self._check_read_set(vc, state.areads, cur, access, element)
            state.w = cur
            state.w_access = access
            state.aw = None
            state.aw_access = None
            state.reads.clear()
            state.areads.clear()

    def plain_read(self, actor: Actor, key: AllocKey,
                   elements: Iterable[int], access: Access) -> None:
        vc = self.clocks[actor]
        cur = vc.epoch(actor)
        for element in elements:
            state = self._word(key, element)
            self._check_epoch(vc, state.w, state.w_access, cur, access,
                              element)
            self._check_epoch(vc, state.aw, state.aw_access, cur, access,
                              element)
            state.reads[actor] = (cur[1], access)

    def atomic_write(self, actor: Actor, key: AllocKey, element: int,
                     access: Access) -> None:
        """A scalar WRITE: release semantics (serialised by the module)."""
        vc = self.clocks[actor]
        cur = vc.epoch(actor)
        state = self._word(key, element)
        self._check_epoch(vc, state.w, state.w_access, cur, access, element)
        self._check_read_set(vc, state.reads, cur, access, element)
        if state.msg is None:
            state.msg = VectorClock()
        state.msg.join(vc)
        state.aw = cur
        state.aw_access = access

    def atomic_read(self, actor: Actor, key: AllocKey, element: int,
                    access: Access) -> None:
        """A scalar READ: acquire semantics."""
        vc = self.clocks[actor]
        cur = vc.epoch(actor)
        state = self._word(key, element)
        self._check_epoch(vc, state.w, state.w_access, cur, access, element)
        if state.msg is not None:
            vc.join(state.msg)
        state.areads[actor] = (cur[1], access)

    def free_alloc(self, actor: Actor, key: AllocKey,
                   access: Access) -> None:
        """FREE conflicts with any unordered access to the allocation."""
        vc = self.clocks[actor]
        cur = vc.epoch(actor)
        per_alloc = self.words.pop(key, None)
        if per_alloc is not None:
            for element, state in per_alloc.items():
                self._check_epoch(vc, state.w, state.w_access, cur, access,
                                  element)
                self._check_epoch(vc, state.aw, state.aw_access, cur,
                                  access, element)
                self._check_read_set(vc, state.reads, cur, access, element)
                self._check_read_set(vc, state.areads, cur, access, element)
        self.lock_vc.pop(key, None)

    # -- synchronisation edges ---------------------------------------------------
    def acquire(self, actor: Actor, key: AllocKey) -> None:
        held = self.lock_vc.get(key)
        if held is not None:
            self.clocks[actor].join(held)

    def release(self, actor: Actor, key: AllocKey) -> None:
        vc = self.lock_vc.get(key)
        if vc is None:
            vc = self.lock_vc[key] = VectorClock()
        vc.join(self.clocks[actor])

    def device_write_edge(self, actor: Actor, window_base: int,
                          device_actor: Optional[Actor] = None) -> None:
        """A registered actor wrote into a device's register window:
        publish its clock to the window (doorbell ordering for IRQ
        raises decoded later) and to the device-master's mailbox."""
        vc = self.clocks[actor]
        window = self.window_vc.get(window_base)
        if window is None:
            window = self.window_vc[window_base] = VectorClock()
        window.join(vc)
        if device_actor is not None:
            mailbox = self.mailboxes.get(device_actor)
            if mailbox is None:
                mailbox = self.mailboxes[device_actor] = VectorClock()
            mailbox.join(vc)

    def irq_raised(self, lines: Iterable[int], raiser: Optional[Actor],
                   controller_base: Optional[int]) -> None:
        """Publish the raiser's knowledge to every raised line.

        Software doorbells arrive through the controller's bus window (the
        raising process is then the fabric channel, not an actor), so the
        window clock is folded in as the doorbell's release clock."""
        source = VectorClock()
        if raiser is not None and raiser in self.clocks:
            source.join(self.clocks[raiser])
        if controller_base is not None:
            window = self.window_vc.get(controller_base)
            if window is not None:
                source.join(window)
        if not source:
            return
        for line in lines:
            line_clock = self.line_vc.get(line)
            if line_clock is None:
                line_clock = self.line_vc[line] = VectorClock()
            line_clock.join(source)

    def irq_claimed(self, actor: Actor, lines: Iterable[int]) -> None:
        if actor not in self.clocks:
            return
        vc = self.clocks[actor]
        for line in lines:
            line_clock = self.line_vc.get(line)
            if line_clock is not None:
                vc.join(line_clock)

    def kernel_notify(self, actor: Actor, event: object) -> None:
        if actor not in self.clocks:
            return
        vc = self.event_vc.get(event)
        if vc is None:
            vc = self.event_vc[event] = VectorClock()
        vc.join(self.clocks[actor])

    def kernel_wake(self, actor: Actor, event: object) -> None:
        if actor not in self.clocks:
            return
        vc = self.event_vc.get(event)
        if vc is not None:
            self.clocks[actor].join(vc)
