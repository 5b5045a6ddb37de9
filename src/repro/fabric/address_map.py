"""Address decoding for the system interconnect.

An :class:`AddressMap` is an ordered collection of non-overlapping
:class:`Region` entries, each mapping a byte-address range onto a slave
object.  The map performs decode (address → slave, local offset) and reverse
lookup (slave → base address), and validates overlaps at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple


class AddressDecodeError(Exception):
    """Raised when an address does not fall into any mapped region."""


class AddressMapConflict(Exception):
    """Raised when two regions overlap or a name is reused."""


@dataclass(frozen=True)
class Region:
    """A contiguous address window assigned to one slave."""

    name: str
    base: int
    size: int
    slave: Any

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("region base must be non-negative")
        if self.size <= 0:
            raise ValueError("region size must be positive")

    @property
    def end(self) -> int:
        """First byte address *after* the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this region."""
        return self.base <= address < self.end

    def overlaps(self, other: "Region") -> bool:
        """True if this region shares any address with ``other``."""
        return self.base < other.end and other.base < self.end


class AddressMap:
    """The system memory map used by buses and crossbars to route requests."""

    def __init__(self) -> None:
        self._regions: List[Region] = []

    def add_region(self, name: str, base: int, size: int, slave: Any) -> Region:
        """Register a new window; raises :class:`AddressMapConflict` on overlap."""
        region = Region(name, base, size, slave)
        for existing in self._regions:
            if existing.name == name:
                raise AddressMapConflict(f"region name {name!r} already used")
            if existing.overlaps(region):
                raise AddressMapConflict(
                    f"region {name!r} [{base:#x}, {region.end:#x}) overlaps "
                    f"{existing.name!r} [{existing.base:#x}, {existing.end:#x})"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    @property
    def regions(self) -> List[Region]:
        """Registered regions sorted by base address."""
        return list(self._regions)

    def decode(self, address: int) -> Tuple[Any, int, Region]:
        """Resolve ``address`` to ``(slave, offset_within_region, region)``."""
        region = self.find_region(address)
        if region is None:
            raise AddressDecodeError(f"no slave mapped at address {address:#x}")
        return region.slave, address - region.base, region

    def find_region(self, address: int) -> Optional[Region]:
        """Return the region containing ``address``, or ``None``."""
        # Linear scan is fine: maps have a handful of regions and decode is
        # not the bottleneck compared with slave behaviour.
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    def base_of(self, slave: Any) -> int:
        """Base address of the first region mapping ``slave``."""
        for region in self._regions:
            if region.slave is slave:
                return region.base
        raise KeyError(f"slave {slave!r} is not mapped")

    def slaves(self) -> List[Any]:
        """Distinct slaves in base-address order."""
        seen: List[Any] = []
        for region in self._regions:
            if region.slave not in seen:
                seen.append(region.slave)
        return seen

    def __len__(self) -> int:
        return len(self._regions)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = ", ".join(
            f"{r.name}@[{r.base:#x},{r.end:#x})" for r in self._regions
        )
        return f"AddressMap({parts})"
