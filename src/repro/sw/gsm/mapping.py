"""Mapping of the GSM workload onto the simulated MPSoC platform.

This is the workload of the paper's experiment: each processing element
encodes its own GSM channel (a stream of 160-sample frames) while all
dynamic data — input frames, encoded parameter blocks and the channel
descriptor — lives in the dynamic shared memories and is managed through
the wrapper API (alloc / array transfers / free per frame).

Two placement policies mirror the paper's two platforms:

* ``dedicated`` — PE *i* keeps its buffers in shared memory ``i % M``
  (with M = 1 this is the "4 ISSs with one memory" configuration);
* ``striped`` — each PE spreads consecutive frames across all memories
  round-robin, so every memory sees traffic from every PE.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from ...memory.protocol import DataType
from ..instruction_costs import estimate_loop_cycles
from ..registry import Workload, workload
from ..task import TaskContext
from .codec import generate_speech_like
from .encoder import GsmEncoder
from .tables import FRAME_SAMPLES, PARAMETERS_PER_FRAME

#: Supported frame-placement policies.
PLACEMENT_DEDICATED = "dedicated"
PLACEMENT_STRIPED = "striped"


def _encode_cost_cycles(ctx: TaskContext) -> int:
    """Cycle annotation for encoding one frame on the PE.

    The estimate follows the published complexity of full-rate GSM encoders
    on ARM7-class cores (a few hundred thousand cycles per frame dominate
    the LTP lag search: 81 lags x 40 MACs per sub-frame).
    """
    ltp_macs = 81 * 40 * 4
    lpc_macs = 9 * FRAME_SAMPLES
    filter_ops = 8 * FRAME_SAMPLES * 2
    rpe_ops = 4 * (40 * 11 + 13 * 6)
    return estimate_loop_cycles(ltp_macs + lpc_macs + filter_ops + rpe_ops,
                                body_alu=1, body_mul=1, body_local=1,
                                model=ctx.cost_model)


def make_gsm_encoder_task(channel_samples: Sequence[int], pe_index: int,
                          placement: str = PLACEMENT_DEDICATED):
    """Build a task encoding ``channel_samples`` (multiple of 160) on one PE.

    The task allocates, per frame: an input buffer (160 x INT16) and an
    output buffer (76 x UINT16) in shared memory, moves the samples in with
    an array transfer, encodes locally (charging the annotated cycles),
    writes the parameters back and frees both buffers.  It returns the list
    of encoded parameter frames read back from shared memory.
    """
    if len(channel_samples) % FRAME_SAMPLES:
        raise ValueError("channel length must be a multiple of 160 samples")
    samples = [int(v) for v in channel_samples]
    num_frames = len(samples) // FRAME_SAMPLES

    def task(ctx: TaskContext) -> Generator[object, None, List[List[int]]]:
        encoder = GsmEncoder()
        encoded_frames: List[List[int]] = []
        for frame_index in range(num_frames):
            if placement == PLACEMENT_STRIPED:
                smem = ctx.memory_for(frame_index)
            else:
                smem = ctx.memory_for(pe_index)
            start = frame_index * FRAME_SAMPLES
            frame = samples[start:start + FRAME_SAMPLES]

            # The ctx.span annotations mark the phases on the PE's trace
            # timeline; without observability they are no-ops.
            with ctx.span(f"frame{frame_index}"):
                with ctx.span("load"):
                    input_vptr = yield from smem.alloc(FRAME_SAMPLES, DataType.INT16)
                    output_vptr = yield from smem.alloc(PARAMETERS_PER_FRAME,
                                                        DataType.UINT16)
                    yield from smem.write_array(input_vptr,
                                                [v & 0xFFFF for v in frame])

                    # Fetch the frame back (the encoder reads its input from
                    # the shared memory, as the ISS software in the paper
                    # does).
                    fetched = yield from smem.read_array_signed(
                        input_vptr, FRAME_SAMPLES, DataType.INT16
                    )
                with ctx.span("encode"):
                    parameters = encoder.encode_frame(fetched)
                    yield from ctx.compute(_encode_cost_cycles(ctx))

                with ctx.span("store"):
                    words = parameters.flatten()
                    yield from smem.write_array(output_vptr, words)
                    stored = yield from smem.read_array(output_vptr,
                                                        PARAMETERS_PER_FRAME)
                    encoded_frames.append(stored)

                    yield from smem.free(input_vptr)
                    yield from smem.free(output_vptr)
        ctx.note(f"gsm: encoded {num_frames} frames on pe{pe_index}")
        return encoded_frames

    return task


def make_gsm_channels(num_channels: int, frames_per_channel: int,
                      seed: int = 99) -> List[List[int]]:
    """Generate one deterministic speech-like channel per processing element."""
    return [generate_speech_like(frames_per_channel, seed=seed + 17 * channel)
            for channel in range(num_channels)]


def reference_encode(channels: Sequence[Sequence[int]]) -> List[List[List[int]]]:
    """Pure-Python reference: encode every channel without the platform."""
    reference: List[List[List[int]]] = []
    for channel in channels:
        encoder = GsmEncoder()
        frames = encoder.encode_stream(list(channel))
        reference.append([frame.flatten() for frame in frames])
    return reference


def build_gsm_tasks(channels: Sequence[Sequence[int]],
                    placement: str = PLACEMENT_DEDICATED) -> List:
    """One encoder task per channel, ready for :meth:`Platform.add_tasks`."""
    return [make_gsm_encoder_task(channel, pe_index, placement=placement)
            for pe_index, channel in enumerate(channels)]


def check_platform_results(results: Dict[str, object],
                           reference: Sequence[Sequence[Sequence[int]]]) -> bool:
    """Compare per-PE platform results against the reference encoding."""
    for pe_index, expected_frames in enumerate(reference):
        produced = results.get(f"pe{pe_index}")
        if produced is None:
            return False
        if [list(frame) for frame in produced] != [list(f) for f in expected_frames]:
            return False
    return True


@workload.register("gsm_encode")
def _gsm_encode(config, *, frames: int = 1, seed: int = 42,
                placement: str = None, channels=None):
    """The paper's workload: one GSM 06.10 encoder channel per PE.

    ``placement`` defaults to striped when the platform has several shared
    memories and dedicated otherwise, mirroring the two platforms of the
    paper's Section 4 experiment.
    """
    if channels is None:
        channels = make_gsm_channels(config.num_pes, frames, seed=seed)
    if placement is None:
        placement = (PLACEMENT_STRIPED if config.num_memories > 1
                     else PLACEMENT_DEDICATED)
    tasks = build_gsm_tasks(channels, placement=placement)
    reference = reference_encode(channels)

    def check(report):
        return (check_platform_results(report.results, reference)
                or "encoded GSM parameters differ from the reference encoder")

    return Workload(
        tasks=tasks,
        checks=[check],
        description=(f"gsm_encode: {len(channels)} channel(s) x "
                     f"{frames} frame(s), {placement} placement"),
    )
