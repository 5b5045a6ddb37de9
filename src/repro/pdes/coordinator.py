"""The PDES coordinator: spawn, supervise, merge — the workers sync themselves.

:func:`run_partitioned` plans the tiling, connects every pair of
partitions with one duplex pipe, forks one worker process per partition
and stays out of the round loop.  The workers advance in conservative
lockstep windows on their own:

1. a worker ends its window by sending every peer ``(na, e, flits)`` —
   its *next activity time* ``na`` (the earliest instant anything can
   happen there, undelivered inbound flits included: the null message),
   the earliest ``deliver_time`` ``e`` among all flits it emitted in the
   window, and the flits that peer owns — and receives the same from
   every peer;
2. every worker now holds every partition's ``na`` and ``e`` and computes
   ``H = min(all na, all e) + lookahead`` itself (:func:`next_horizon`):
   no partition can receive anything before ``H``, because every boundary
   crossing pays the full ``epoch_cycles`` cut latency on top of a
   departure no earlier than that minimum.  Identical inputs give the
   identical ``H`` everywhere, so the run is lockstep and deterministic
   with nobody in the middle;
3. all partitions simulate to ``H`` in parallel.

When :func:`next_horizon` says the run is over each worker trims its clock
to the last real activity and sends its statistics up its control pipe —
the only message the parent ever gets from it.  The parent waits on the
control pipes *and* the process sentinels, so a worker that dies or fails
ends the run at once (the rest are terminated, none is left behind), and
:func:`~repro.pdes.merge.merge_reports` folds the payloads into one
sequential-shaped :class:`~repro.soc.stats.SimulationReport`.

Inside an already-forked daemon worker (an ``ExperimentRunner`` shard)
processes cannot fork again, so the same windows run in-process over
:class:`~repro.pdes.partition.PartitionSim` objects through the same
:func:`next_horizon` — identical simulation, no parallelism.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _wallclock
import traceback
from multiprocessing import connection as _mp_connection
from typing import List, Optional, Sequence, Tuple

from ..noc.partitioned import BoundaryFlit
from ..soc.platform import load_layers
from .merge import merge_reports
from .partition import PartitionPayload, PartitionSim
from .plan import PartitionPlan, plan_partitions

#: Hard cap on sync rounds — a runaway backstop far above any real run
#: (the horizon advances by at least one epoch per round).
_MAX_ROUNDS = 10_000_000

#: How long a worker polls a peer's pipe before it blocks in ``recv``:
#: lockstep peers close their windows microseconds apart, and a blocked
#: ``recv`` pays a 0.3-0.5 ms idle wake-up on a VM.  Bounded, so a worker
#: whose peer is really behind (or dead) sleeps instead of burning a core.
_SPIN_SECONDS = 0.002

#: Between polls the core goes to whoever is runnable — with more
#: partitions than cores that is the very peer being waited for.
_yield_core = getattr(os, "sched_yield", lambda: _wallclock.sleep(0))


class PartitionWorkerError(RuntimeError):
    """A partition worker died or reported a failure."""


def next_horizon(bounds: Sequence[Optional[int]],
                 emitted: Sequence[Optional[int]], frontier: int,
                 lookahead: int, max_time: Optional[int]) -> Optional[int]:
    """The next window's horizon, or ``None`` when the run is over.

    Per partition: ``bounds`` is its next activity time, ``emitted`` the
    earliest ``deliver_time`` among the flits it sent across a cut in the
    window that just closed at ``frontier`` (``None``: drained / none).
    Pure, so every worker derives the same answer from the same exchange.
    """
    alive = [time for time in (*bounds, *emitted) if time is not None]
    if not alive:
        return None
    earliest = min(alive)
    if max_time is None:
        return earliest + lookahead
    if earliest > max_time:
        # Nothing more can happen before the deadline: pad every
        # partition's clock to it once, exactly like sc_start, then stop.
        return max_time if frontier < max_time else None
    return min(earliest + lookahead, max_time)


def _recv(conn):
    """``conn.recv()``, polling first for up to :data:`_SPIN_SECONDS`."""
    deadline = _wallclock.perf_counter() + _SPIN_SECONDS
    while not conn.poll(0) and _wallclock.perf_counter() < deadline:
        _yield_core()
    return conn.recv()


def _worker_rounds(part: PartitionSim, peers: list) -> int:
    """One worker's round loop; returns the number of windows it ran.

    Peers are visited in index order and, within a pair, the lower index
    sends first while the higher receives first: every worker takes its
    pairs in the same global ``(low, high)`` order and no pair ever has
    both ends in a blocking ``send``, however large a window's flits.
    """
    mine = part.index
    lookahead, max_time = part.context.epoch_time, part.scenario.max_time
    bounds: List[Optional[int]] = [None] * len(peers)
    emitted: List[Optional[int]] = [None] * len(peers)
    outboxes: List[List[BoundaryFlit]] = [[] for _ in peers]
    bounds[mine] = part.next_activity()
    frontier = 0
    for rounds in range(_MAX_ROUNDS):
        sent = _wallclock.perf_counter()
        inbound: List[BoundaryFlit] = []
        for peer, conn in enumerate(peers):
            if conn is None:  # this partition's own slot
                continue
            message = (bounds[mine], emitted[mine], outboxes[peer])
            if mine < peer:
                conn.send(message)
                bounds[peer], emitted[peer], flits = _recv(conn)
            else:
                bounds[peer], emitted[peer], flits = _recv(conn)
                conn.send(message)
            inbound += flits
        part.sync_wait += _wallclock.perf_counter() - sent
        horizon = next_horizon(bounds, emitted, frontier, lookahead, max_time)
        if horizon is None:
            return rounds
        outboxes, emitted[mine], bounds[mine] = part.advance(horizon, inbound)
        frontier = horizon
    raise PartitionWorkerError("PDES round limit exceeded (workers stuck?)")


def _inprocess_rounds(parts: List[PartitionSim]) -> int:
    """The same windows over local partitions, one after the other."""
    lookahead = parts[0].context.epoch_time
    max_time = parts[0].scenario.max_time
    bounds = [part.next_activity() for part in parts]
    emitted: List[Optional[int]] = [None] * len(parts)
    inbound: List[List[BoundaryFlit]] = [[] for _ in parts]
    frontier = 0
    for rounds in range(_MAX_ROUNDS):
        horizon = next_horizon(bounds, emitted, frontier, lookahead, max_time)
        if horizon is None:
            return rounds
        arriving: List[List[BoundaryFlit]] = [[] for _ in parts]
        for index, part in enumerate(parts):
            outboxes, emitted[index], bounds[index] = part.advance(
                horizon, inbound[index])
            for peer, flits in enumerate(outboxes):
                arriving[peer] += flits
        inbound, frontier = arriving, horizon
    raise PartitionWorkerError("PDES round limit exceeded (loop stuck?)")


def _partition_main(control, peers: list, scenario, plan: PartitionPlan,
                    index: int) -> None:
    """Worker-process entry point: build, run every round, report once."""
    try:
        part = PartitionSim(scenario, plan, index)
        rounds = _worker_rounds(part, peers)
        control.send(("final", part.finish(), rounds))
    except BaseException:
        try:
            control.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        control.close()


def _take(index: int, process, control) -> Tuple[PartitionPayload, int]:
    """Worker ``index``'s one message, or the error that stands for it."""
    # An exited worker's sentinel is ready too; what it sent first wins.
    try:
        message = control.recv() if control.poll() else None
    except (EOFError, OSError):  # closed, or killed halfway through a send
        message = None
    if message is None:
        process.join()  # reap it: the exit code is None until then
        raise PartitionWorkerError(
            f"partition {index} worker died (exit code {process.exitcode})")
    if message[0] == "error":
        raise PartitionWorkerError(
            f"partition {index} failed:\n{message[1]}")
    return message[1], message[2]


def _run_processes(scenario, plan: PartitionPlan
                   ) -> Tuple[List[PartitionPayload], int]:
    """Fork one worker per partition and take each one's final message.

    The first to die or report an error ends the run: the others, blocked
    in ``recv`` on it, are terminated, and all are reaped either way.
    """
    ctx = multiprocessing.get_context()
    # Loaded here so the workers inherit it: each would otherwise import
    # the platform's layers and the workload module on its own.
    load_layers(scenario.config, scenario.workload, partitioned=True)
    count = plan.partitions
    # links[a][b] is partition a's end of the one duplex pipe between a, b.
    links: List[list] = [[None] * count for _ in range(count)]
    for low in range(count):
        for high in range(low + 1, count):
            links[low][high], links[high][low] = ctx.Pipe()
    workers: List[tuple] = []
    try:
        for index in range(count):
            control, child = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_partition_main,
                args=(child, links[index], scenario, plan, index),
                daemon=True, name=f"pdes-p{index}",
            )
            process.start()
            child.close()
            workers.append((process, control))
        payloads: List[Optional[PartitionPayload]] = [None] * count
        waiting = dict(enumerate(workers))
        while waiting:
            owner = {}
            for index, (process, control) in waiting.items():
                owner[control] = owner[process.sentinel] = index
            for index in {owner[ready]
                          for ready in _mp_connection.wait(list(owner))}:
                payloads[index], rounds = _take(index, *waiting.pop(index))
        return payloads, rounds
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for conn in (end for row in links for end in row if end is not None):
            conn.close()
        for process, control in workers:
            process.join()
            control.close()


def run_partitioned(scenario, *, mode: str = "auto"):
    """Run ``scenario`` partitioned; returns the merged report.

    ``mode`` is ``"process"`` (one worker process per partition),
    ``"inprocess"`` (same windows, no processes — used automatically
    inside daemon workers, which cannot fork), or ``"auto"``.
    """
    plan = plan_partitions(scenario.config)
    if mode == "auto":
        mode = ("inprocess" if multiprocessing.current_process().daemon
                else "process")
    if mode not in ("process", "inprocess"):
        raise ValueError(f"unknown PDES mode {mode!r}")

    wall_start = _wallclock.perf_counter()
    if mode == "process":
        payloads, rounds = _run_processes(scenario, plan)
    else:
        parts = [PartitionSim(scenario, plan, index)
                 for index in range(plan.partitions)]
        rounds = _inprocess_rounds(parts)
        payloads = [part.finish() for part in parts]
    wallclock = _wallclock.perf_counter() - wall_start
    return merge_reports(
        scenario, plan, payloads,
        mode=mode, rounds=rounds,
        boundary_messages=sum(payload.boundary_sent for payload in payloads),
        wallclock_seconds=wallclock,
    )
