"""The anneal's exact-stream draws against numpy's ``Generator``.

``repro.cad.place._ExactStream`` reproduces ``Generator.integers(low,
high)`` and ``Generator.random()`` from the PCG64 raw stream.  Every
placement depends on it matching numpy draw for draw, so these tests
hold it to numpy on random interleavings of both calls, and check the
once-per-process guard that fails loudly if it ever stops matching.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cad.place as place_module
from repro.arch.layout import FabricLayout, TileType
from repro.cad.pack import pack_netlist
from repro.cad.place import _ExactStream, _verify_exact_stream, place

UINT32_SPAN = 1 << 32

# One draw: ``None`` is random(); (low, width) is integers(low, low + width).
_draw = st.one_of(
    st.none(),
    st.tuples(
        st.integers(-(1 << 40), 1 << 40),
        st.one_of(
            st.just(1),
            st.integers(2, 64),
            st.integers(2, UINT32_SPAN),
            st.sampled_from([UINT32_SPAN - 1, UINT32_SPAN, (1 << 31) + 1]),
        ),
    ),
)


def _assert_same_draws(reference, stream, draws) -> None:
    for i, draw in enumerate(draws):
        if draw is None:
            expected, got = float(reference.random()), stream.random()
        else:
            low, width = draw
            expected = int(reference.integers(low, low + width))
            got = stream.integers(low, low + width)
        assert type(got) is type(expected)
        assert got == expected, f"draw {i}: {draw}"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    warmup=st.integers(0, 3),
    draws=st.lists(_draw, max_size=300),
)
def test_matches_numpy_on_random_interleavings(seed, warmup, draws):
    reference = np.random.default_rng(seed)
    mirror = np.random.default_rng(seed)
    # An odd number of 32-bit warm-up draws leaves a half buffered.
    for _ in range(warmup):
        reference.integers(0, 5)
        mirror.integers(0, 5)
    _assert_same_draws(reference, _ExactStream(mirror), draws)


def test_starts_from_the_state_a_shuffle_leaves():
    buffered = 0
    for seed in range(20):
        reference = np.random.default_rng(seed)
        mirror = np.random.default_rng(seed)
        for rng in (reference, mirror):
            rng.shuffle(list(range(37)))
        # Whether a 32-bit half is left buffered depends on the seed.
        buffered += mirror.bit_generator.state["has_uint32"]
        draws = [None, (0, 9), (-4, 5), (0, 1), (-4, 5), None] * 50
        _assert_same_draws(reference, _ExactStream(mirror), draws)
    assert 0 < buffered < 20


def test_width_one_range_consumes_no_draw():
    reference = np.random.default_rng(3)
    stream = _ExactStream(np.random.default_rng(3))
    assert stream.integers(7, 8) == 7
    assert stream.integers(-2, -1) == -2
    assert stream.integers(0, 100) == int(reference.integers(0, 100))
    assert stream.random() == float(reference.random())


def test_full_32_bit_range_returns_the_raw_half():
    stream = _ExactStream(np.random.default_rng(11))
    word = int(np.random.default_rng(11).bit_generator.random_raw())
    assert stream.integers(0, UINT32_SPAN) == word & 0xFFFFFFFF
    assert stream.integers(0, UINT32_SPAN) == word >> 32


def test_refills_across_chunks():
    reference = np.random.default_rng(5)
    stream = _ExactStream(np.random.default_rng(5))
    draws = [None, (0, 3)] * (place_module._RAW_CHUNK + 7)
    _assert_same_draws(reference, stream, draws)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 2), (0, UINT32_SPAN + 1)])
def test_rejects_unsupported_ranges(low, high):
    with pytest.raises(ValueError, match="unsupported range"):
        _ExactStream(np.random.default_rng(0)).integers(low, high)


def test_needs_a_pcg64_generator():
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(TypeError, match="PCG64"):
        _ExactStream(rng)


class TestGuard:
    def test_passes_on_this_numpy(self, monkeypatch):
        monkeypatch.setattr(place_module, "_stream_verified", False)
        _verify_exact_stream()
        assert place_module._stream_verified is True

    @pytest.mark.parametrize("method", ["integers", "random"])
    def test_raises_when_the_emulation_disagrees(self, monkeypatch, method):
        real = getattr(_ExactStream, method)
        calls = []

        def off_by_one(self, *args):
            calls.append(args)
            value = real(self, *args)
            # Disagree on the fifth call only.
            return value + 1 if len(calls) == 5 else value

        monkeypatch.setattr(_ExactStream, method, off_by_one)
        monkeypatch.setattr(place_module, "_stream_verified", False)
        with pytest.raises(RuntimeError, match="no longer matches numpy"):
            _verify_exact_stream()
        assert place_module._stream_verified is False

    def test_place_runs_the_guard(self, monkeypatch, tiny_netlist, arch):
        packed = pack_netlist(tiny_netlist, arch)
        counts = {t: 0 for t in TileType}
        for cluster in packed.clusters:
            counts[cluster.type] += 1
        layout = FabricLayout.for_netlist(
            arch, counts[TileType.CLB], counts[TileType.BRAM],
            counts[TileType.DSP], counts[TileType.IO],
        )
        monkeypatch.setattr(place_module, "_stream_verified", False)
        monkeypatch.setattr(_ExactStream, "random", lambda self: 0.5)
        with pytest.raises(RuntimeError, match="no longer matches numpy"):
            place(packed, layout, seed=3, effort=0.05)
