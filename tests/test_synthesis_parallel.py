"""The production synthesizer is byte-identical to the serial oracle.

``repro.data.synthesis.synthesize_image`` draws every random number in
the calling thread and builds the cloud spectra on a worker thread.  The
serial original lives in ``tests/synthesis_oracle.py``.  For every shape, profile and
channel count checked here, both must return the same bytes and leave
the generator in the same state, so an image never depends on which
path produced it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data import synthesis
from repro.data.synthesis import PROFILES, synthesize_image
from repro.utils.rng import rng_for
from tests import synthesis_oracle as oracle

SHAPES = [(1, 1), (2, 3), (7, 5), (48, 48), (321, 481), (500, 500), (1080, 1920)]


def assert_same_as_oracle(height: int, width: int, profile: str, channels: int) -> None:
    key = ("synthesis-parallel", height, width, profile, channels)
    rng, ref_rng = rng_for(3, *key), rng_for(3, *key)
    image = synthesize_image(rng, height, width, profile, channels)
    reference = oracle.synthesize_image(ref_rng, height, width, profile, channels)
    assert image.shape == reference.shape == (channels, height, width)
    assert image.dtype == reference.dtype
    assert image.tobytes() == reference.tobytes()
    assert rng.random() == ref_rng.random()


@pytest.fixture
def pools(monkeypatch):
    """Count the worker pools the synthesizer starts."""
    started = []
    executor = synthesis.ThreadPoolExecutor

    def counting(*args, **kwargs):
        started.append(args)
        return executor(*args, **kwargs)

    monkeypatch.setattr(synthesis, "ThreadPoolExecutor", counting)
    return started


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_frames_match_oracle(shape, profile, channels, pools):
    assert_same_as_oracle(*shape, profile, channels)
    assert len(pools) == 1


def test_worker_error_propagates(monkeypatch):
    def broken_on_worker(*args):
        assert threading.current_thread() is not threading.main_thread()
        raise FloatingPointError("spectrum failed")

    monkeypatch.setattr(synthesis, "_spectrum", broken_on_worker)
    with pytest.raises(FloatingPointError, match="spectrum failed"):
        synthesize_image(rng_for(0, "broken"), 8, 8)


def test_disc_bounding_box_matches_full_frame_mask():
    # 200 shapes per frame, about 60 of them discs, with bounding boxes
    # clipped by every border and frames down to a single pixel.
    for h, w in [(1, 1), (5, 9), (64, 48), (200, 300)]:
        rng, ref_rng = rng_for(4, "discs", h, w), rng_for(4, "discs", h, w)
        canvas = synthesis._geometric_shapes(rng, h, w, 200)
        reference = oracle._geometric_shapes(ref_rng, h, w, 200)
        assert canvas.tobytes() == reference.tobytes()
        assert rng.random() == ref_rng.random()
        assert np.count_nonzero(canvas) > 0
