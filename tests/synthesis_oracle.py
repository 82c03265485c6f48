"""Reference oracle for image synthesis: the serial synthesizer.

This is the original single-threaded :func:`synthesize_image` that the
production synthesizer (:mod:`repro.data.synthesis`) replaced.  The
production code splits each 1/f^beta cloud into its RNG draw (kept in
the calling thread, in this function's draw order) and its deterministic
spectrum and inverse FFT (the spectrum built on a worker thread for large
frames), and rasterizes discs on their bounding boxes.  This copy keeps
the original serial order and full-frame disc masks, verbatim, for the
byte-identity tests and the pipeline benchmark only.

Both must return byte-identical arrays and leave the generator in the
same state::

    a = synthesize_image(rng_for(seed, "x"), 1080, 1920, "city")
    b = oracle.synthesize_image(rng_for(seed, "x"), 1080, 1920, "city")
    assert a.tobytes() == b.tobytes()
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.data.synthesis import PROFILES, ImageProfile
from repro.utils.validation import check_positive


def _power_law_cloud(rng: np.random.Generator, h: int, w: int, beta: float = 2.0) -> np.ndarray:
    """Random field with an isotropic 1/f^beta amplitude spectrum in [0,1]."""
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = 1.0  # keep DC finite; we normalize afterwards anyway
    amplitude = radius ** (-beta / 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi, amplitude.shape)
    spectrum = amplitude * np.exp(1j * phase)
    field = np.fft.irfft2(spectrum, s=(h, w))
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        return np.zeros((h, w))
    return (field - lo) / (hi - lo)


def _piecewise_regions(rng: np.random.Generator, h: int, w: int, levels: int = 7) -> np.ndarray:
    """Piecewise-constant field: a smooth cloud quantized to a few levels."""
    base = _power_law_cloud(rng, h, w, beta=2.5)
    quantized = np.floor(base * levels) / max(levels - 1, 1)
    return np.clip(quantized, 0.0, 1.0)


def _geometric_shapes(rng: np.random.Generator, h: int, w: int, count: int) -> np.ndarray:
    """Overlay of constant-intensity rectangles and discs (man-made edges)."""
    canvas = np.zeros((h, w))
    for _ in range(count):
        value = rng.uniform(-0.5, 0.5)
        if rng.random() < 0.7:
            rh = int(rng.uniform(0.03, 0.3) * h) + 1
            rw = int(rng.uniform(0.03, 0.3) * w) + 1
            y0 = rng.integers(0, max(h - rh, 1))
            x0 = rng.integers(0, max(w - rw, 1))
            canvas[y0 : y0 + rh, x0 : x0 + rw] = value
        else:
            r = rng.uniform(0.02, 0.15) * min(h, w)
            cy, cx = rng.uniform(0, h), rng.uniform(0, w)
            yy, xx = np.ogrid[:h, :w]
            canvas[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = value
    return canvas


def synthesize_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    profile: ImageProfile | str = "nature",
    channels: int = 3,
) -> np.ndarray:
    """Synthesize one (channels, height, width) float image in [0, 1], serially."""
    check_positive("height", height)
    check_positive("width", width)
    check_positive("channels", channels)
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
            ) from None

    megapixels = height * width / 1e6
    shape_count = max(1, int(round(profile.shapes * max(megapixels, 0.05))))

    luma = profile.cloud * _power_law_cloud(rng, height, width)
    luma = luma + profile.regions * _piecewise_regions(rng, height, width)
    luma = luma + _geometric_shapes(rng, height, width, shape_count)
    if profile.detail > 0:
        luma = luma + profile.detail * rng.standard_normal((height, width))

    sigma = profile.smoothness * height / 1080.0
    if sigma > 0.05:
        luma = ndimage.gaussian_filter(luma, sigma=sigma)

    lo, hi = luma.min(), luma.max()
    luma = (luma - lo) / max(hi - lo, 1e-12)

    planes = []
    for _ in range(channels):
        chroma = 0.12 * _power_law_cloud(rng, height, width, beta=2.5) - 0.06
        planes.append(luma + chroma)
    image = np.stack(planes, axis=0)

    if profile.noise_sigma > 0:
        image = image + rng.normal(0.0, profile.noise_sigma, image.shape)

    return np.clip(image, 0.0, 1.0)
