"""Static table memory module.

This is the traditional memory model the paper starts from: a fixed-size
table (here a ``bytearray``) mapped on the interconnect.  It supports byte,
half-word, word and burst accesses with a configurable latency model and
endianness, and is used for instruction/data memory of the ISSs, for the
baseline platforms, and as the backing store of the fully-modelled dynamic
memory baseline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..fabric import BusSlave
from ..fabric import BusOp, BusRequest, BusResponse, ResponseStatus
from .latency import LatencyModel
from .protocol import Endianness


class StaticMemory(BusSlave):
    """A word-addressable static memory with configurable latency."""

    def __init__(
        self,
        size_bytes: int,
        latency: Optional[LatencyModel] = None,
        endianness: Endianness = Endianness.LITTLE,
        name: str = "smem",
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.name = name
        self.size_bytes = size_bytes
        self.storage = bytearray(size_bytes)
        self.latency_model = latency if latency is not None else LatencyModel()
        self.endianness = endianness
        self.reads = 0
        self.writes = 0

    # -- direct (debug/loader) access: does not consume simulated time ----------
    def load_bytes(self, offset: int, payload: bytes) -> None:
        """Back-door write used by program loaders and test benches."""
        if offset < 0 or offset + len(payload) > self.size_bytes:
            raise ValueError("back-door load outside memory bounds")
        self.storage[offset:offset + len(payload)] = payload

    def dump_bytes(self, offset: int, length: int) -> bytes:
        """Back-door read used by checkers and test benches."""
        if offset < 0 or offset + length > self.size_bytes:
            raise ValueError("back-door dump outside memory bounds")
        return bytes(self.storage[offset:offset + length])

    def read_word_backdoor(self, offset: int) -> int:
        """Back-door 32-bit read (no simulated time)."""
        return int.from_bytes(self.dump_bytes(offset, 4), self.endianness.value)

    def write_word_backdoor(self, offset: int, value: int) -> None:
        """Back-door 32-bit write (no simulated time)."""
        self.load_bytes(offset, (value & 0xFFFFFFFF).to_bytes(4, self.endianness.value))

    # -- BusSlave protocol ----------------------------------------------------------
    def serve(self, request: BusRequest, offset: int
              ) -> Tuple[BusResponse, int]:
        model = self.latency_model
        if request.is_burst:
            words = request.word_count
            cycles = (model.burst_read(words) if request.op is BusOp.READ
                      else model.burst_write(words))
            return self._burst_access(request, offset), max(1, cycles)
        cycles = (model.scalar_read() if request.op is BusOp.READ
                  else model.scalar_write())
        return self._scalar_access(request, offset), max(1, cycles)

    # -- helpers -----------------------------------------------------------------------
    def _scalar_access(self, request: BusRequest, offset: int) -> BusResponse:
        size = request.size
        if offset < 0 or offset + size > self.size_bytes:
            return BusResponse(status=ResponseStatus.SLAVE_ERROR)
        if request.op is BusOp.WRITE:
            self.writes += 1
            value = request.data & ((1 << (8 * size)) - 1)
            self.storage[offset:offset + size] = value.to_bytes(
                size, self.endianness.value
            )
            return BusResponse()
        self.reads += 1
        word = int.from_bytes(self.storage[offset:offset + size],
                              self.endianness.value)
        return BusResponse(data=word)

    def _burst_access(self, request: BusRequest, offset: int) -> BusResponse:
        word_count = request.word_count
        if offset < 0 or offset + 4 * word_count > self.size_bytes:
            return BusResponse(status=ResponseStatus.SLAVE_ERROR)
        if request.op is BusOp.WRITE:
            assert request.burst_data is not None
            self.writes += word_count
            for index, word in enumerate(request.burst_data):
                position = offset + 4 * index
                self.storage[position:position + 4] = (word & 0xFFFFFFFF).to_bytes(
                    4, self.endianness.value
                )
            return BusResponse()
        self.reads += word_count
        words: List[int] = []
        for index in range(word_count):
            position = offset + 4 * index
            words.append(int.from_bytes(self.storage[position:position + 4],
                                        self.endianness.value))
        return BusResponse(burst_data=words)
