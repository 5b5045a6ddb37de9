"""Configuration of the simulation sanitizers.

A :class:`CheckConfig` on :attr:`repro.soc.config.PlatformConfig.check`
(builder: ``.sanitize()``) arms the runtime sanitizer suite of
:mod:`repro.check`.  The config is frozen so scenario sharding can pickle
platform configs, exactly like :class:`~repro.cache.config.CacheConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckConfig:
    """What the sanitizer suite observes during a simulation.

    Sanitizers only *observe*: with any combination of checkers enabled
    the simulated time and the golden scheduler counters are identical to
    a run with ``check=None``.
    """

    #: Happens-before data-race detection over shared-memory words.
    race: bool = True
    #: Protocol checkers: lock leaks, reserve re-entry, port lifecycle,
    #: register misuse.
    protocol: bool = True
    #: Coherence invariant: never two dirty L1 copies of the same line.
    coherence: bool = True
    #: Reports beyond this cap are counted but not recorded (a racy loop
    #: would otherwise flood the report with one entry per word).
    max_reports: int = 32
    #: Capture the workload traceback (file:line chain through
    #: ``yield from``) at every access site.  Costs one walk of the actor's
    #: generator chain per tracked memory command — about 5 % of a
    #: sanitized 8-PE stencil run on the mesh — since the site itself is
    #: built only when a finding reports it; disable for sanitized perf
    #: sweeps.
    capture_stacks: bool = True

    def __post_init__(self) -> None:
        if self.max_reports <= 0:
            raise ValueError("max_reports must be positive")
        if not (self.race or self.protocol or self.coherence):
            raise ValueError(
                "CheckConfig with every checker disabled checks nothing; "
                "use check=None instead"
            )

    def describe(self) -> str:
        enabled = [name for name, on in (("race", self.race),
                                         ("protocol", self.protocol),
                                         ("coherence", self.coherence)) if on]
        return "+".join(enabled)
