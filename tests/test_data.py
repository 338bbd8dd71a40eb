import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from switchpass import data as dat
from switchpass.errors import ConfigError, ContractError, FormatError


def spec_with(**kw):
    return dat.SignalSpec(**{"seed": 123, **kw})


# Per-frame references: the generators as they were before synthesis ran in
# whole-array passes, reading the same corpus-shape constants. The batched
# generators must reproduce them bit for bit.
def reference_easy(spec, n):
    frames = []
    t = np.arange(spec.frame_len)
    for i in range(n):
        rng = dat._frame_rng(spec.seed, dat._EASY_STREAM, i)
        samples = rng.normal(0.0, dat.NOISE_AMP, spec.frame_len)
        if rng.uniform() < dat.EASY_TONE_SHARE:
            freq = rng.uniform(*dat.FREQ_RANGE)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(*dat.EASY_TONE_AMP_RANGE)
            samples = samples + amp * np.sin(2.0 * np.pi * freq * t + phase)
        samples = np.clip(samples, -1.0, 1.0)
        frames.append(dat.Frame(samples, dat.EASY, f"easy:{i}"))
    return frames


def reference_hard(spec, n):
    frames = []
    t = np.arange(spec.frame_len)
    for i in range(n):
        rng = dat._frame_rng(spec.seed, dat._HARD_STREAM, i)
        samples = rng.normal(0.0, dat.NOISE_AMP, spec.frame_len)
        for _ in range(dat.HARD_COMPONENTS):
            freq = rng.uniform(*dat.FREQ_RANGE)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(*dat.HARD_AMP_RANGE)
            samples = samples + amp * np.sin(2.0 * np.pi * freq * t + phase)
        peak = np.max(np.abs(samples))
        if peak > 1.0:
            samples = samples / peak
        frames.append(dat.Frame(samples, dat.HARD, f"hard:{i}"))
    return frames


@pytest.mark.parametrize("frame_len", [1, 7, 64])
@pytest.mark.parametrize("seed", [0, 123, 2**32 + 3])
@pytest.mark.parametrize("gen, reference", [(dat.gen_easy, reference_easy),
                                            (dat.gen_hard, reference_hard)],
                         ids=["easy", "hard"])
def test_generators_bitwise_equal_the_per_frame_reference(gen, reference, seed, frame_len,
                                                          monkeypatch):
    # Noise 1.0 drives easy frames past the clip and hard peaks past 1.
    spec = dat.SignalSpec(frame_len=frame_len, seed=seed)
    for components, noise, n in itertools.product([0, 1, 3, 5], [0.0, 0.02, 1.0], [0, 1, 300]):
        monkeypatch.setattr(dat, "HARD_COMPONENTS", components)
        monkeypatch.setattr(dat, "NOISE_AMP", noise)
        got, want = gen(spec, n), reference(spec, n)
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            assert (g.samples.tobytes(), g.difficulty, g.source_id) == \
                   (w.samples.tobytes(), w.difficulty, w.source_id), \
                   (spec, components, noise, g.source_id)


@pytest.mark.parametrize("gen, reference, name, value", [
    (dat.gen_easy, reference_easy, "NOISE_AMP", 0.5),
    (dat.gen_easy, reference_easy, "EASY_TONE_SHARE", 1.0),
    (dat.gen_easy, reference_easy, "EASY_TONE_AMP_RANGE", (0.4, 0.6)),
    (dat.gen_easy, reference_easy, "FREQ_RANGE", (0.1, 0.2)),
    (dat.gen_hard, reference_hard, "NOISE_AMP", 0.5),
    (dat.gen_hard, reference_hard, "HARD_COMPONENTS", 1),
    (dat.gen_hard, reference_hard, "HARD_AMP_RANGE", (0.05, 0.1)),
    (dat.gen_hard, reference_hard, "FREQ_RANGE", (0.1, 0.2)),
], ids=["easy-NOISE_AMP", "easy-EASY_TONE_SHARE", "easy-EASY_TONE_AMP_RANGE", "easy-FREQ_RANGE",
        "hard-NOISE_AMP", "hard-HARD_COMPONENTS", "hard-HARD_AMP_RANGE", "hard-FREQ_RANGE"])
def test_generators_read_each_corpus_constant_at_call_time(gen, reference, name, value,
                                                           monkeypatch):
    # Each constant shapes the frames, and its value at call time is the one used.
    spec, n = spec_with(), 50
    before = [f.samples.tobytes() for f in gen(spec, n)]
    monkeypatch.setattr(dat, name, value)
    got = [f.samples.tobytes() for f in gen(spec, n)]
    assert got == [f.samples.tobytes() for f in reference(spec, n)]
    assert got != before


@pytest.mark.parametrize("gen", [dat.gen_easy, dat.gen_hard], ids=["easy", "hard"])
def test_synthesis_holds_at_most_one_extra_frame_matrix(gen):
    # Synthesis runs in place: past the memory the returned frames hold, the
    # peak may add one (n, frame_len) float64 buffer and the uniform draws.
    spec, n = spec_with(), 20000
    tracemalloc.start()
    try:
        frames = gen(spec, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frames) == n
    assert peak - held <= 8 * n * (spec.frame_len + 3 * dat.HARD_COMPONENTS)


class TestGenEasy:
    def test_zero_noise_frames_without_tone_are_all_zero(self, monkeypatch):
        monkeypatch.setattr(dat, "NOISE_AMP", 0.0)
        frames = dat.gen_easy(spec_with(), 50)
        silent = [f for f in frames if np.max(np.abs(f.samples)) == 0.0]
        toned = [f for f in frames if np.max(np.abs(f.samples)) > 0.0]
        # The faint tone rides on ~30% of frames; the rest must be exactly zero.
        assert len(silent) > len(toned) > 0
        for f in toned:
            assert np.max(np.abs(f.samples)) <= 0.05 + 1e-12

    def test_deterministic(self):
        a = dat.gen_easy(spec_with(), 20)
        b = dat.gen_easy(spec_with(), 20)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.samples, fb.samples)

    def test_prefix_stable_per_frame_seeding(self):
        a = dat.gen_easy(spec_with(), 5)
        b = dat.gen_easy(spec_with(), 10)
        assert np.array_equal(a[4].samples, b[4].samples)

    def test_mean_absolute_amplitude_small(self):
        frames = dat.gen_easy(spec_with(), 1000)
        mean_abs = np.mean([np.mean(np.abs(f.samples)) for f in frames])
        assert mean_abs < 0.1

    def test_difficulty_tag(self):
        assert all(f.difficulty == dat.EASY for f in dat.gen_easy(spec_with(), 5))


class TestGenHard:
    def test_zero_components_reduces_to_noise(self, monkeypatch):
        monkeypatch.setattr(dat, "HARD_COMPONENTS", 0)
        frames = dat.gen_hard(spec_with(), 100)
        stds = [np.std(f.samples) for f in frames]
        assert 0.015 < np.mean(stds) < 0.025  # noise amp 0.02

    def test_deterministic(self):
        a = dat.gen_hard(spec_with(), 20)
        b = dat.gen_hard(spec_with(), 20)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.samples, fb.samples)

    def test_prefix_stable_per_frame_seeding(self):
        a = dat.gen_hard(spec_with(), 5)
        b = dat.gen_hard(spec_with(), 10)
        assert np.array_equal(a[4].samples, b[4].samples)

    def test_amplitude_separation_vs_easy(self):
        easy = dat.gen_easy(spec_with(), 1000)
        hard = dat.gen_hard(spec_with(), 1000)
        mean_easy = np.mean([np.mean(np.abs(f.samples)) for f in easy])
        mean_hard = np.mean([np.mean(np.abs(f.samples)) for f in hard])
        assert mean_hard > 3 * mean_easy

    def test_all_samples_in_range(self):
        for f in dat.gen_hard(spec_with(), 200) + dat.gen_easy(spec_with(), 200):
            assert np.all(f.samples >= -1.0) and np.all(f.samples <= 1.0)

    def test_rms_energy_separation(self):
        easy = dat.gen_easy(spec_with(), 500)
        hard = dat.gen_hard(spec_with(), 500)
        rms = lambda f: float(np.sqrt(np.mean(f.samples ** 2)))
        easy_p99 = np.percentile([rms(f) for f in easy], 99)
        frac_above = np.mean([rms(f) > easy_p99 for f in hard])
        assert frac_above >= 0.99


@pytest.mark.parametrize("gen", [dat.gen_easy, dat.gen_hard], ids=["easy", "hard"])
def test_negative_frame_count_is_rejected_with_the_count(gen):
    # A DataConfig field assigned after construction skips its __post_init__,
    # so generation checks the count itself rather than return no frames.
    assert gen(spec_with(), 0) == []
    with pytest.raises(ContractError, match=r"got -5\b"):
        gen(spec_with(), -5)


class TestSplit:
    def test_everything_in_train(self):
        frames = dat.gen_easy(spec_with(), 30)
        ds = dat.split(frames, (1.0, 0.0, 0.0), seed=1)
        assert ds.split_sizes() == (30, 0, 0)

    def test_exact_counts(self):
        frames = dat.gen_easy(spec_with(), 50) + dat.gen_hard(spec_with(), 50)
        ds = dat.split(frames, (0.8, 0.1, 0.1), seed=1)
        assert ds.split_sizes() == (80, 10, 10)

    def test_stratification_within_one_frame(self):
        frames = dat.gen_easy(spec_with(), 60) + dat.gen_hard(spec_with(), 40)
        ds = dat.split(frames, (0.7, 0.15, 0.15), seed=2)
        for part, total in ((ds.train, 70), (ds.calibrate, 15), (ds.test, 15)):
            n_easy = sum(f.difficulty == dat.EASY for f in part)
            assert abs(n_easy - 0.6 * total) <= 1

    def test_deterministic_and_disjoint(self):
        frames = dat.gen_easy(spec_with(), 40) + dat.gen_hard(spec_with(), 40)
        a = dat.split(frames, (0.5, 0.25, 0.25), seed=3)
        b = dat.split(frames, (0.5, 0.25, 0.25), seed=3)
        ids_a = [f.source_id for f in a.train + a.calibrate + a.test]
        ids_b = [f.source_id for f in b.train + b.calibrate + b.test]
        assert ids_a == ids_b
        assert len(set(ids_a)) == len(ids_a)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            dat.split([], (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ConfigError):
            dat.split([], (-0.1, 0.6, 0.5), seed=0)


class TestFramesToMatrix:
    def test_shapes(self):
        frames = dat.gen_easy(spec_with(), 3)
        assert dat.frames_to_matrix(frames).shape == (3, 64)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            dat.frames_to_matrix([])


def write_raw_wav(path, samples_i16, *, magic=b"RIFF", wave_id=b"WAVE",
                  audio_format=1, channels=1, bits=16, with_data=True):
    pcm = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    body = wave_id
    body += b"fmt " + struct.pack("<I", 16)
    body += struct.pack("<HHIIHH", audio_format, channels, 16000, 32000, 2, bits)
    if with_data:
        body += b"data" + struct.pack("<I", len(pcm)) + pcm
    blob = magic + struct.pack("<I", len(body)) + body
    path.write_bytes(blob)
    return path


class TestLoadWav:
    def test_two_zero_frames(self, tmp_path):
        path = write_raw_wav(tmp_path / "z.wav", [0] * 128)
        frames = dat.load_wav(path, frame_len=64)
        assert len(frames) == 2
        for f in frames:
            assert np.array_equal(f.samples, np.zeros(64))
            assert f.difficulty == dat.HARD

    def test_default_frame_len_is_the_signal_spec_default(self, tmp_path):
        n = dat.SignalSpec().frame_len
        path = write_raw_wav(tmp_path / "d.wav", [0] * (2 * n + 1))
        assert [len(f.samples) for f in dat.load_wav(path)] == [n, n]

    def test_trailing_remainder_dropped(self, tmp_path):
        path = write_raw_wav(tmp_path / "t.wav", [100] * 100)
        frames = dat.load_wav(path, frame_len=64)
        assert len(frames) == 1

    def test_scaling_extremes(self, tmp_path):
        path = write_raw_wav(tmp_path / "s.wav", [-32768, 32767] * 32)
        frames = dat.load_wav(path, frame_len=64)
        assert frames[0].samples[0] == -1.0
        assert frames[0].samples[1] == 32767 / 32768

    def test_bad_magic(self, tmp_path):
        path = write_raw_wav(tmp_path / "m.wav", [0] * 4, magic=b"RIFX")
        with pytest.raises(FormatError, match="RIFF"):
            dat.load_wav(path)

    def test_bad_wave_id(self, tmp_path):
        path = write_raw_wav(tmp_path / "w.wav", [0] * 4, wave_id=b"AIFF")
        with pytest.raises(FormatError, match="WAVE"):
            dat.load_wav(path)

    def test_bad_format_code(self, tmp_path):
        path = write_raw_wav(tmp_path / "f.wav", [0] * 4, audio_format=3)
        with pytest.raises(FormatError, match="audio format code is 3"):
            dat.load_wav(path)

    def test_bad_channel_count(self, tmp_path):
        path = write_raw_wav(tmp_path / "c.wav", [0] * 4, channels=2)
        with pytest.raises(FormatError, match="channel count is 2"):
            dat.load_wav(path)

    def test_bad_bit_depth(self, tmp_path):
        path = write_raw_wav(tmp_path / "b.wav", [0] * 4, bits=8)
        with pytest.raises(FormatError, match="bits per sample is 8"):
            dat.load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = write_raw_wav(tmp_path / "d.wav", [], with_data=False)
        with pytest.raises(FormatError, match="data chunk"):
            dat.load_wav(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(b"RI")
        with pytest.raises(FormatError):
            dat.load_wav(path)

    def test_unknown_chunks_skipped(self, tmp_path):
        pcm = struct.pack("<64h", *([7] * 64))
        body = b"WAVE"
        body += b"LIST" + struct.pack("<I", 4) + b"info"
        body += b"fmt " + struct.pack("<I", 16)
        body += struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body += b"data" + struct.pack("<I", len(pcm)) + pcm
        path = tmp_path / "l.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        frames = dat.load_wav(path, frame_len=64)
        assert len(frames) == 1
        assert frames[0].samples[0] == 7 / 32768


class TestWriteWav:
    def test_roundtrip_bitwise_at_16bit_quantization(self, tmp_path):
        frames = dat.gen_hard(spec_with(), 4)
        samples = np.concatenate([f.samples for f in frames])
        path = tmp_path / "rt.wav"
        dat.write_wav(path, samples)
        loaded = dat.load_wav(path, frame_len=64)
        quantized = np.clip(np.round(samples * 32768.0), -32768, 32767) / 32768.0
        got = np.concatenate([f.samples for f in loaded])
        assert np.array_equal(got, quantized)

    def test_rewrite_identical_bytes(self, tmp_path):
        samples = dat.gen_easy(spec_with(), 2)[0].samples
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        dat.write_wav(p1, samples)
        dat.write_wav(p2, samples)
        assert p1.read_bytes() == p2.read_bytes()


class TestSignalSpecValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            dat.SignalSpec(frame_len=0)
