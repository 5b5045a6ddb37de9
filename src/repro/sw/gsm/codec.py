"""Convenience layer over the GSM 06.10 encoder/decoder.

Provides a one-call encode/decode round trip, deterministic synthetic speech
generation (no audio files are shipped), and signal-quality metrics used by
the tests and the evaluation to sanity-check the codec on the simulated
platform against the pure-Python reference run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .tables import FRAME_SAMPLES

if TYPE_CHECKING:
    from .encoder import GsmFrameParameters


def generate_speech_like(num_frames: int, seed: int = 1234) -> List[int]:
    """Deterministic speech-like test signal (sum of gliding tones + noise).

    The generator is a stand-in for the speech input of the paper's GSM
    workload: it has a strong pitch-like component (so the LTP finds real
    lags), a moving formant-ish component and a noise floor, all bounded to
    the 16-bit input range the codec expects.
    """
    if num_frames <= 0:
        raise ValueError("need at least one frame")
    samples: List[int] = []
    state = seed & 0x7FFFFFFF or 1
    total = num_frames * FRAME_SAMPLES
    for index in range(total):
        # Pitch component around 100-160 Hz equivalent (period ~ 50-80 samples).
        pitch_period = 55 + 20 * math.sin(2 * math.pi * index / (FRAME_SAMPLES * 7))
        pitch = 9000 * math.sin(2 * math.pi * index / pitch_period)
        # Formant-like component.
        formant = 2500 * math.sin(2 * math.pi * index / 23.0 + 1.3)
        # Deterministic pseudo-noise (LCG).
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        noise = ((state >> 16) & 0x3FF) - 512
        # Slow amplitude envelope so some frames are quiet.
        envelope = 0.25 + 0.75 * abs(math.sin(2 * math.pi * index / (FRAME_SAMPLES * 11)))
        value = int(envelope * (pitch + formant) + noise)
        samples.append(max(-32768, min(32767, value)))
    return samples


def generate_silence(num_frames: int) -> List[int]:
    """All-zero input frames."""
    return [0] * (num_frames * FRAME_SAMPLES)


def encode_decode(samples: Sequence[int]
                  ) -> Tuple[List[GsmFrameParameters], List[int]]:
    """Encode then decode a sample stream with fresh codec state."""
    # Imported here: the signal generators above are also the input of
    # workloads that never run the codec (alloc_churn, dma_memcpy).
    from .decoder import GsmDecoder
    from .encoder import GsmEncoder

    encoder = GsmEncoder()
    decoder = GsmDecoder()
    frames = encoder.encode_stream(list(samples))
    reconstructed = decoder.decode_stream(frames)
    return frames, reconstructed


def signal_power(samples: Sequence[int]) -> float:
    """Mean square value of a sample sequence."""
    if not samples:
        return 0.0
    return sum(float(v) * float(v) for v in samples) / len(samples)


def segmental_snr_db(original: Sequence[int], reconstructed: Sequence[int],
                     segment: int = FRAME_SAMPLES, skip: int = FRAME_SAMPLES
                     ) -> float:
    """Average per-segment SNR in dB (skipping the first ``skip`` samples).

    The first frame is skipped because the codec's filters start from zero
    state; GSM 06.10 is a lossy coder so values of a few dB already indicate
    that the decoded signal tracks the original.
    """
    length = min(len(original), len(reconstructed))
    snrs: List[float] = []
    for start in range(skip, length - segment + 1, segment):
        orig = original[start:start + segment]
        reco = reconstructed[start:start + segment]
        power = signal_power(orig)
        error = signal_power([o - r for o, r in zip(orig, reco)])
        if power <= 0:
            continue
        if error <= 0:
            snrs.append(60.0)
            continue
        snrs.append(10.0 * math.log10(power / error))
    if not snrs:
        return 0.0
    return sum(snrs) / len(snrs)


def correlation(original: Sequence[int], reconstructed: Sequence[int]) -> float:
    """Pearson correlation between original and reconstructed signals."""
    length = min(len(original), len(reconstructed))
    if length == 0:
        return 0.0
    xs = [float(v) for v in original[:length]]
    ys = [float(v) for v in reconstructed[:length]]
    mean_x = sum(xs) / length
    mean_y = sum(ys) / length
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den_x = math.sqrt(sum((x - mean_x) ** 2 for x in xs))
    den_y = math.sqrt(sum((y - mean_y) ** 2 for y in ys))
    if den_x == 0 or den_y == 0:
        return 0.0
    return num / (den_x * den_y)
