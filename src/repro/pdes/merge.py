"""Merging per-partition statistics into one sequential-shaped report.

Every helper here is exact arithmetic over disjoint contributions:

* the scheduler counters (``SimulationStats.COUNTERS``) sum over
  partitions — each wake/evaluation happens in exactly one partition's
  kernel;
* transactions and latency samples are recorded once, master-side, at
  packet completion — a boundary-crossing transaction is accounted only
  by the partition that owns its master, so summing never double-counts;
* latency percentiles are recomputed from the *concatenated* raw sample
  arrays (partitions ship their packed int64 arrays), which is exact —
  percentiles of percentiles would not be;
* per-link NoC counters merge field-wise by link name (each physical
  link's traffic is simulated by exactly one partition);
* utilization uses the full-mesh port count and the merged end time, the
  same denominator the sequential report uses.

The merged report carries a ``pdes`` block with the partition/epoch
geometry, sync-round and boundary-message counts, the per-partition
breakdown, and (when tracing is on) one merged Chrome trace whose track
groups are prefixed ``p<k>:`` so every partition gets a distinct pid.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, List, Optional

from ..fabric.stats import BusStats, percentile_summary
from ..kernel.simulator import SimulationStats
from ..noc.stats import NocStats
from ..obs.export import chrome_trace
from ..soc.stats import SimulationReport
from .partition import PartitionPayload
from .plan import PartitionPlan


def merge_kernel_stats(stats_dicts: List[dict]) -> dict:
    """Sum the scheduler counters and host seconds; the end time is the
    latest partition's."""
    merged = {counter: sum(stats.get(counter, 0) for stats in stats_dicts)
              for counter in SimulationStats.COUNTERS}
    merged["wallclock_seconds"] = sum(
        (stats.get("wallclock_seconds", 0.0) for stats in stats_dicts), 0.0)
    merged["end_time"] = max(
        (stats.get("end_time", 0) for stats in stats_dicts), default=0)
    return merged


def merge_bus_stats(payloads: List[PartitionPayload]) -> BusStats:
    """Field-wise sum of the fabric counters (masters are disjoint)."""
    merged = BusStats()
    for payload in payloads:
        stats = payload.bus_stats
        merged.transactions += stats.transactions
        merged.busy_cycles += stats.busy_cycles
        merged.decode_errors += stats.decode_errors
        for master_id, per_master in stats.per_master.items():
            target = merged.master(master_id)
            target.transactions += per_master.transactions
            target.reads += per_master.reads
            target.writes += per_master.writes
            target.words += per_master.words
            target.busy_cycles += per_master.busy_cycles
            target.wait_cycles += per_master.wait_cycles
            target.errors += per_master.errors
    return merged


def merge_latencies(payloads: List[PartitionPayload]) -> array:
    """Concatenate the raw completion-latency samples (partition order)."""
    merged = array("q")
    for payload in payloads:
        merged.extend(payload.latencies)
    return merged


def merge_grant_counts(payloads: List[PartitionPayload]) -> Dict[int, int]:
    merged: Dict[int, int] = {}
    for payload in payloads:
        for master_id, count in payload.grant_counts.items():
            merged[master_id] = merged.get(master_id, 0) + count
    return merged


def merge_noc_stats(payloads: List[PartitionPayload]) -> NocStats:
    """Merge per-link/per-router counters by name/node (disjoint traffic)."""
    merged = NocStats()
    for payload in payloads:
        stats = payload.noc_stats
        for name, link in stats.links.items():
            target = merged.link(name)
            target.busy_cycles += link.busy_cycles
            target.packets += link.packets
            target.flits += link.flits
            target.blocked_cycles += link.blocked_cycles
            target.contended_grants += link.contended_grants
        for node, count in stats.router_contention.items():
            merged.router_contention[node] = (
                merged.router_contention.get(node, 0) + count)
        merged.latencies.extend(stats.latencies)
        merged.packets_sent += stats.packets_sent
        merged.flits_sent += stats.flits_sent
        merged.hops_total += stats.hops_total
    return merged


def merge_interconnect_stats(config, payloads: List[PartitionPayload],
                             simulated_time: int) -> dict:
    """Rebuild the sequential ``interconnect_stats`` block exactly
    (same keys, same derivations) from the merged raw counters."""
    period = config.clock_period
    noc_config = config.resolved_noc()
    bus = merge_bus_stats(payloads)
    latencies = merge_latencies(payloads)
    noc = merge_noc_stats(payloads)
    grant_counts = merge_grant_counts(payloads)
    elapsed_cycles = simulated_time // period if period else 0
    ports_total = max((payload.ports_total for payload in payloads),
                      default=0)
    utilization = 0.0
    if elapsed_cycles > 0 and ports_total:
        utilization = min(1.0, noc.total_busy_cycles()
                          / (elapsed_cycles * ports_total))
    block = {
        **bus.as_dict(),
        "utilization": utilization,
        "latency_percentiles": percentile_summary(latencies),
        "arbitration": {
            "kind": payloads[0].arbitration_kind if payloads else "?",
            "grant_counts": {master_id: count for master_id, count in
                             sorted(grant_counts.items())},
        },
    }
    noc_block = {
        "rows": noc_config.rows,
        "cols": noc_config.cols,
        "flit_bytes": noc_config.flit_bytes,
        "link_cycles": noc_config.link_cycles,
        "router_cycles": noc_config.router_cycles,
    }
    noc_block.update(noc.as_dict(elapsed_cycles=elapsed_cycles))
    block["noc"] = noc_block
    monitor_rows = sorted(
        (row for payload in payloads for row in payload.monitor_rows),
        key=lambda row: row[0],
    )
    if monitor_rows:
        block["memory_monitors"] = [stats for _, stats in monitor_rows]
        block["memory_transactions"] = sum(stats["transactions"]
                                           for _, stats in monitor_rows)
    return block


def _merge_trace(payloads: List[PartitionPayload]) -> Optional[dict]:
    """One Chrome trace over all partitions, distinct pid per partition."""
    if all(payload.trace_events is None for payload in payloads):
        return None
    events = []
    dropped = 0
    filtered = 0
    for payload in payloads:
        dropped += payload.trace_dropped
        filtered += payload.trace_filtered
        for event in payload.trace_events or ():
            group, lane = event.track
            events.append(dataclasses.replace(
                event, track=(f"p{payload.index}:{group}", lane)))

    class _Merged:
        pass

    merged = _Merged()
    merged.events = events
    merged.dropped = dropped
    merged.filtered = filtered
    return chrome_trace(merged)


def _merge_obs_summary(payloads: List[PartitionPayload]) -> Optional[dict]:
    summaries = [(payload.index, payload.obs_summary)
                 for payload in payloads if payload.obs_summary is not None]
    if not summaries:
        return None
    merged: dict = {"config": summaries[0][1].get("config")}
    traces = [summary.get("trace") for _, summary in summaries
              if summary.get("trace")]
    if traces:
        merged["trace"] = {
            "events": sum(trace.get("events", 0) for trace in traces),
            "dropped": sum(trace.get("dropped", 0) for trace in traces),
            "filtered": sum(trace.get("filtered", 0) for trace in traces),
        }
    merged["per_partition"] = [dict(summary, partition=index)
                               for index, summary in summaries]
    return merged


def merge_reports(scenario, plan: PartitionPlan,
                  payloads: List[PartitionPayload], *, mode: str,
                  rounds: int, boundary_messages: int,
                  wallclock_seconds: float) -> SimulationReport:
    """Fold the partition payloads into one :class:`SimulationReport`."""
    config = scenario.config
    simulated_time = max((payload.simulated_time for payload in payloads),
                         default=0)
    pe_rows = sorted((row for payload in payloads
                      for row in payload.pe_rows), key=lambda row: row[0])
    memory_rows = sorted((row for payload in payloads
                          for row in payload.memory_rows),
                         key=lambda row: row[0])
    timeseries = [dict(row, partition=payload.index)
                  for payload in payloads for row in payload.timeseries]
    pdes_block: dict = {
        "partitions": plan.partitions,
        "epoch_cycles": plan.epoch_cycles,
        "mode": mode,
        "rounds": rounds,
        "boundary_messages": boundary_messages,
        "per_partition": [
            {
                "partition": payload.index,
                "pes": list(payload.pes),
                "memories": list(payload.memories),
                "simulated_time": payload.simulated_time,
                "kernel_stats": dict(payload.kernel_stats),
                "wallclock_seconds": payload.wallclock_seconds,
                "sync_wait_seconds": payload.sync_wait_seconds,
                "boundary_sent": payload.boundary_sent,
                "boundary_received": payload.boundary_received,
            }
            for payload in payloads
        ],
    }
    trace = _merge_trace(payloads)
    if trace is not None:
        pdes_block["chrome_trace"] = trace
    return SimulationReport(
        description=config.describe(),
        simulated_time=simulated_time,
        clock_period=config.clock_period,
        wallclock_seconds=wallclock_seconds,
        kernel_stats=merge_kernel_stats(
            [payload.kernel_stats for payload in payloads]),
        pe_reports=[report for _, report, _, _, _ in pe_rows],
        memory_reports=[report for _, report in memory_rows],
        interconnect_stats=merge_interconnect_stats(
            config, payloads, simulated_time),
        timeseries=timeseries,
        obs_summary=_merge_obs_summary(payloads),
        results={name: result for _, _, result, _, name in pe_rows},
        finished={name: finished for _, _, _, finished, name in pe_rows},
        pdes=pdes_block,
    )
