"""The wrapper's translator.

The translator is the component of the wrapper's functional part that, led
by the FSM, performs "endianess, data type translation and host machine
functional calls".  Concretely it:

* converts between the simulated architecture's element representation
  (data type width, signedness, byte order) and the host representation,
* maps ALLOC/FREE onto host ``calloc``/``free`` calls,
* performs the native loads/stores on the host blocks for READ/WRITE and
  for the I/O-array (indexed structure) transfers.

It also counts how many host calls and native accesses it performed, which
the benches use to show that wrapper operations cost O(1) host work per
element instead of a simulated allocator walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..memory.dynamic_base import (
    decode_array,
    decode_element,
    encode_array,
    encode_element,
)
from ..memory.host_memory import HostAllocationError, HostBlock, HostMemory
from ..memory.protocol import DATA_TYPE_SIZES, DataType, Endianness
from .errors import TranslationError


@dataclass
class TranslatorStats:
    """Work counters of one translator instance."""

    host_allocs: int = 0
    host_frees: int = 0
    element_reads: int = 0
    element_writes: int = 0
    array_elements_moved: int = 0


class Translator:
    """Endianness/data-type translation plus host function call marshalling."""

    def __init__(self, host: HostMemory,
                 endianness: Endianness = Endianness.LITTLE) -> None:
        self.host = host
        self.endianness = endianness
        self.stats = TranslatorStats()

    # -- host management calls ---------------------------------------------------
    def host_calloc(self, dim: int, data_type: DataType) -> HostBlock:
        """Allocate ``dim`` elements of ``data_type`` on the host (calloc)."""
        if dim <= 0:
            raise TranslationError("allocation dimension must be positive")
        try:
            block = self.host.calloc(dim, DATA_TYPE_SIZES[data_type])
        except HostAllocationError as exc:
            raise TranslationError(str(exc)) from exc
        self.stats.host_allocs += 1
        return block

    def host_free(self, block: HostBlock) -> None:
        """Release a host block (free)."""
        self.host.free(block)
        self.stats.host_frees += 1

    # -- scalar element transfers ---------------------------------------------------
    def store_element(self, block: HostBlock, byte_offset: int, value: int,
                      data_type: DataType) -> None:
        """Translate ``value`` and store it into the host block."""
        payload = encode_element(value, data_type, self.endianness)
        block.write_bytes(byte_offset, payload)
        self.stats.element_writes += 1

    def load_element(self, block: HostBlock, byte_offset: int,
                     data_type: DataType) -> int:
        """Load an element from the host block and translate it back."""
        size = DATA_TYPE_SIZES[data_type]
        payload = block.read_bytes(byte_offset, size)
        self.stats.element_reads += 1
        return decode_element(payload, data_type, self.endianness)

    # -- indexed structure (array) transfers --------------------------------------------
    def store_array(self, block: HostBlock, byte_offset: int, values: List[int],
                    data_type: DataType) -> int:
        """Store a list of raw element words into the host block."""
        payload = encode_array(values, data_type, self.endianness)
        block.write_bytes(byte_offset, payload)
        self.stats.array_elements_moved += len(values)
        return len(payload)

    def load_array(self, block: HostBlock, byte_offset: int, count: int,
                   data_type: DataType) -> List[int]:
        """Load ``count`` elements from the host block as raw element words."""
        payload = block.read_bytes(byte_offset, count * DATA_TYPE_SIZES[data_type])
        self.stats.array_elements_moved += count
        return decode_array(payload, count, data_type, self.endianness)
