"""repro.pdes — partitioned (parallel discrete-event) simulation.

Shards a mesh platform into rectangular spatial partitions, runs each
partition's event loop in its own worker process, and synchronizes
conservatively at link-latency epochs:

* :func:`plan_partitions` / :class:`PartitionPlan` — quadrant tiling of
  the NoC, PE/memory ownership, epoch (lookahead) selection;
* :class:`~repro.pdes.partition.PartitionSim` — one partition's platform
  shard plus its epoch-bounded kernel windows;
* :func:`run_partitioned` — the coordinator: forks the workers (they
  swap null messages and boundary flits peer-to-peer, window by window),
  supervises them, merges one :class:`~repro.soc.stats.SimulationReport`;
* :class:`~repro.noc.partitioned.PartitionError` — raised for features
  that partitioning rejects (re-exported here for convenience).

Scenario code never calls this module directly: setting
``partitions=N`` on a :class:`~repro.soc.config.PlatformConfig` makes
:func:`repro.api.run_scenario` dispatch here automatically.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "..noc.partitioned": ["BoundaryFlit", "PartitionContext",
                          "PartitionError"],
    ".coordinator": ["run_partitioned"],
    ".plan": ["DEFAULT_EPOCH_CYCLES", "PartitionPlan", "plan_partitions"],
})

__all__ = [
    "BoundaryFlit",
    "DEFAULT_EPOCH_CYCLES",
    "PartitionContext",
    "PartitionError",
    "PartitionPlan",
    "plan_partitions",
    "run_partitioned",
]
