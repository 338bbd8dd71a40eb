"""Synthetic easy/hard frame generation, dataset splitting, and WAV ingestion.

Easy frames are low-amplitude noise (sometimes with a faint tone); hard
frames are sums of strong sinusoids over the same noise. The corpus shape is
the block of constants below, read at call time; a SignalSpec sets only the
frame length and the seed. The difficulty tag exists purely for evaluation:
no training code ever reads it. Generation is a pure function of
(spec, index): every frame draws from its own generator seeded by
(seed, stream, index), so parallel generation and regeneration agree bitwise.
Each frame makes its noise draw, then its uniforms in one batched draw in
stream order. The tones, clipping and peak normalization then run as
whole-array passes over one (n, frame_len) matrix whose rows are the frames'
samples. Every step is elementwise or a per-row max, so the bits are those of
synthesizing each frame on its own.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .output import write_atomic

EASY = "easy"
HARD = "hard"

_EASY_STREAM = 0
_HARD_STREAM = 1
_SPLIT_STREAM = 2

# The corpus shape. Every frame is Gaussian noise of standard deviation
# NOISE_AMP; EASY_TONE_SHARE of the easy frames add one faint tone, and every
# hard frame adds HARD_COMPONENTS strong ones. A range is the (low, high) of a
# uniform draw; frequencies are in cycles per sample.
NOISE_AMP = 0.02
EASY_TONE_SHARE = 0.3
EASY_TONE_AMP_RANGE = (0.01, 0.05)
HARD_COMPONENTS = 3
HARD_AMP_RANGE = (0.2, 0.9)
FREQ_RANGE = (0.02, 0.45)

#: Sample rate written into generated WAV files.
WAV_RATE = 16000

#: Largest value a config may give a size: frame_len, n_easy, n_hard, each dims
#: entry and the dense weight count of dims. Far past it numpy cannot allocate
#: the arrays.
MAX_SIZE = 2 ** 24


def check_size(name: str, value: int) -> None:
    if value > MAX_SIZE:
        raise ConfigError(f"{name} must be <= MAX_SIZE ({MAX_SIZE}), got {value}")


@dataclass
class Frame:
    samples: np.ndarray  # float64 in [-1, 1]
    difficulty: str
    source_id: str


@dataclass
class SignalSpec:
    frame_len: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.frame_len <= 0:
            raise ConfigError(f"frame_len must be positive, got {self.frame_len}")
        check_size("frame_len", self.frame_len)
        if self.seed < 0:
            raise ConfigError(f"data seed must be >= 0, got {self.seed}")


def _frame_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, index))))


def _check_count(what: str, n: int) -> None:
    if n < 0:
        raise ContractError(f"{what}: frame count must be >= 0, got {n}")


def _scale(u: np.ndarray, low: float, high: float) -> None:
    """In place, u -> low + (high - low) * u: Generator.uniform's arithmetic, bit for bit."""
    low, high = float(low), float(high)
    u *= high - low
    u += low


def _tone(u: np.ndarray, freq_range, amp_range, out: np.ndarray) -> np.ndarray:
    """Writes amp * sin(2 pi freq t + phase) into out's rows; u is (rows, 3) uniforms.

    The uniforms (freq, phase, amp) are scaled in place. Each step is an
    elementwise ufunc in the per-frame expression's order, so a row is
    bitwise the tone that frame alone would get.
    """
    freq, phase, amp = u[:, 0:1], u[:, 1:2], u[:, 2:3]
    _scale(freq, *freq_range)
    _scale(phase, 0.0, 2.0 * np.pi)
    _scale(amp, *amp_range)
    freq *= 2.0 * np.pi
    np.multiply(freq, np.arange(out.shape[1]), out=out)
    out += phase
    np.sin(out, out=out)
    out *= amp
    return out


def gen_easy(spec: SignalSpec, n: int) -> list[Frame]:
    """Noise frames at NOISE_AMP, EASY_TONE_SHARE of them with one faint tone."""
    _check_count("gen_easy", n)
    samples = np.empty((n, spec.frame_len))
    u = np.empty((n, 3))
    toned = []
    for i in range(n):
        rng = _frame_rng(spec.seed, _EASY_STREAM, i)
        samples[i] = rng.normal(0.0, NOISE_AMP, spec.frame_len)
        if rng.random() < EASY_TONE_SHARE:
            rng.random(out=u[len(toned)])
            toned.append(i)
    m = len(toned)
    samples[toned] += _tone(u[:m], FREQ_RANGE, EASY_TONE_AMP_RANGE,
                            np.empty((m, spec.frame_len)))
    np.clip(samples, -1.0, 1.0, out=samples)
    return [Frame(samples[i], EASY, f"easy:{i}") for i in range(n)]


def gen_hard(spec: SignalSpec, n: int) -> list[Frame]:
    """Sums of HARD_COMPONENTS strong sinusoids plus noise, peak-normalized."""
    _check_count("gen_hard", n)
    samples = np.empty((n, spec.frame_len))
    u = np.empty((n, HARD_COMPONENTS, 3))
    for i in range(n):
        rng = _frame_rng(spec.seed, _HARD_STREAM, i)
        samples[i] = rng.normal(0.0, NOISE_AMP, spec.frame_len)
        rng.random(out=u[i])
    buf = np.empty_like(samples)
    for k in range(HARD_COMPONENTS):
        samples += _tone(u[:, k], FREQ_RANGE, HARD_AMP_RANGE, buf)
    peak = np.abs(samples, out=buf).max(axis=1, keepdims=True)
    np.divide(samples, peak, out=samples, where=peak > 1.0)
    del u, buf  # freed before the frames are made: the peak stays one matrix above the result
    return [Frame(samples[i], HARD, f"hard:{i}") for i in range(n)]


@dataclass
class Dataset:
    train: list[Frame] = field(default_factory=list)
    calibrate: list[Frame] = field(default_factory=list)
    test: list[Frame] = field(default_factory=list)

    def split_sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.calibrate), len(self.test)


def split(frames: list[Frame], ratios: tuple[float, float, float], seed: int) -> Dataset:
    """Deterministic stratified partition into train/calibrate/test.

    Frames are grouped by difficulty and each group is shuffled and cut by
    the same ratios, so the difficulty mix of every split matches the global
    mix to within one frame per group.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r >= 0 for r in ratios) or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigError(f"split ratios must be finite, non-negative and sum to 1, got {ratios}")

    groups: dict[str, list[Frame]] = {}
    for frame in frames:
        groups.setdefault(frame.difficulty, []).append(frame)

    ds = Dataset()
    for gi, name in enumerate(sorted(groups)):
        group = groups[name]
        rng = _frame_rng(seed, _SPLIT_STREAM, gi)
        order = rng.permutation(len(group))
        n = len(group)
        cut1 = round(n * ratios[0])
        cut2 = round(n * (ratios[0] + ratios[1]))
        ds.train.extend(group[k] for k in order[:cut1])
        ds.calibrate.extend(group[k] for k in order[cut1:cut2])
        ds.test.extend(group[k] for k in order[cut2:])
    return ds


def frames_to_matrix(frames: list[Frame]) -> np.ndarray:
    if not frames:
        raise ContractError("frames_to_matrix: empty frame list")
    return np.stack([f.samples for f in frames])


# --- 16-bit PCM mono WAV ---------------------------------------------------


def _read_exact(buf: bytes, offset: int, count: int, what: str) -> bytes:
    if offset + count > len(buf):
        raise FormatError(f"wav: truncated while reading {what}")
    return buf[offset:offset + count]


def load_wav(path, frame_len: int = SignalSpec.frame_len) -> list[Frame]:
    """Parses a RIFF/WAVE file (PCM, mono, 16-bit) into consecutive frames.

    Samples are scaled by 1/32768 into [-1, 1); a trailing remainder shorter
    than frame_len is dropped. Loaded frames carry the hard tag since real
    data is unlabeled. Anything but format code 1 / 1 channel / 16 bits is
    rejected with the offending header field named.
    """
    with open(path, "rb") as fh:
        buf = fh.read()

    if _read_exact(buf, 0, 4, "chunk id") != b"RIFF":
        raise FormatError(f"wav: chunk id is {buf[:4]!r}, expected b'RIFF'")
    if _read_exact(buf, 8, 4, "format id") != b"WAVE":
        raise FormatError(f"wav: format id is {buf[8:12]!r}, expected b'WAVE'")

    fmt_seen = False
    data = None
    offset = 12
    while offset + 8 <= len(buf):
        cid = buf[offset:offset + 4]
        (size,) = struct.unpack_from("<I", buf, offset + 4)
        body = _read_exact(buf, offset + 8, size, f"{cid!r} chunk body")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"wav: fmt chunk size {size} is too small")
            audio_format, channels, _rate, _byte_rate, _align, bits = struct.unpack_from(
                "<HHIIHH", body, 0
            )
            if audio_format != 1:
                raise FormatError(f"wav: audio format code is {audio_format}, expected 1 (PCM)")
            if channels != 1:
                raise FormatError(f"wav: channel count is {channels}, expected 1 (mono)")
            if bits != 16:
                raise FormatError(f"wav: bits per sample is {bits}, expected 16")
            fmt_seen = True
        elif cid == b"data":
            if not fmt_seen:
                raise FormatError("wav: data chunk appears before fmt chunk")
            data = body
            break
        # unknown chunks are skipped; chunk bodies are word-aligned
        offset += 8 + size + (size & 1)

    if not fmt_seen:
        raise FormatError("wav: missing fmt chunk")
    if data is None:
        raise FormatError("wav: missing data chunk")

    raw = np.frombuffer(data[: len(data) // 2 * 2], dtype="<i2")
    samples = raw.astype(np.float64) / 32768.0
    n_frames = len(samples) // frame_len
    name = getattr(path, "name", str(path))
    return [
        Frame(samples[k * frame_len:(k + 1) * frame_len].copy(), HARD, f"{name}:{k}")
        for k in range(n_frames)
    ]


def write_wav(path, samples: np.ndarray) -> None:
    """Writes mono 16-bit PCM; values are clipped then scaled by 32768."""
    q = np.clip(np.round(np.asarray(samples, dtype=np.float64) * 32768.0), -32768, 32767)
    pcm = q.astype("<i2").tobytes()
    write_atomic(path, b"".join([
        b"RIFF", struct.pack("<I", 36 + len(pcm)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, WAV_RATE, WAV_RATE * 2, 2, 16),
        b"data", struct.pack("<I", len(pcm)), pcm,
    ]))
