"""GSM 06.10 full-rate decoder.

The decoder reverses the RPE and LTP stages per sub-frame, runs the
short-term synthesis lattice over the reconstructed residual and applies the
de-emphasis post-processing, producing 160 linear PCM samples per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .arith import add, mult_r, saturate
from .encoder import GsmFrameParameters
from .lpc import ShortTermState, short_term_synthesis
from .ltp import ltp_synthesis
from .rpe import rpe_decode
from .tables import LTP_MAX_LAG, SUBFRAMES_PER_FRAME


@dataclass
class GsmDecoderState:
    """All persistent state of one decoder channel."""

    short_term: ShortTermState = field(default_factory=ShortTermState)
    #: Reconstructed residual history (the last 120 samples).
    drp_history: List[int] = field(default_factory=lambda: [0] * LTP_MAX_LAG)
    #: De-emphasis filter memory.
    msr: int = 0


class GsmDecoder:
    """Stateful GSM 06.10 full-rate decoder for one speech channel."""

    def __init__(self) -> None:
        self.state = GsmDecoderState()
        self.frames_decoded = 0

    def decode_frame(self, parameters: GsmFrameParameters) -> List[int]:
        """Decode one frame of parameters to 160 linear PCM samples."""
        state = self.state
        residual: List[int] = []
        for subframe in range(SUBFRAMES_PER_FRAME):
            erp = rpe_decode(parameters.grids[subframe],
                             parameters.xmaxcs[subframe],
                             parameters.pulses[subframe])
            drp = ltp_synthesis(erp, state.drp_history,
                                parameters.lags[subframe],
                                parameters.gains[subframe])
            state.drp_history = (state.drp_history + drp)[-LTP_MAX_LAG:]
            residual.extend(drp)

        synthesised = short_term_synthesis(state.short_term, parameters.larc,
                                           residual)

        # 4.3.5 — de-emphasis, upscaling and truncation.
        output: List[int] = []
        msr = state.msr
        for sample in synthesised:
            msr = add(sample, mult_r(msr, 28180))
            value = saturate(add(msr, msr))
            output.append(value & ~7)  # truncate the 3 LSBs as the spec does
        state.msr = msr
        self.frames_decoded += 1
        return output

    def decode_stream(self, frames: Sequence[GsmFrameParameters]) -> List[int]:
        """Decode a sequence of frames into one continuous sample stream."""
        samples: List[int] = []
        for frame in frames:
            samples.extend(self.decode_frame(frame))
        return samples
