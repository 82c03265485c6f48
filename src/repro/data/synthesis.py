"""Procedural natural-image synthesis.

Natural images have three statistical properties that drive every result in
the Diffy paper:

1. a roughly 1/f^2 power spectrum (large smooth areas, strong spatial
   correlation between adjacent pixels),
2. piecewise-smooth structure — object interiors are nearly constant while
   object boundaries produce sharp, sparse edges (Fig 2: "deltas peak only
   around the edges"),
3. moderate sensor noise for real captures (the RNI15 dataset).

The synthesizer composes these ingredients.  Each *profile* (nature, city,
texture, noisy) weights them differently, mirroring the paper's HD33
description of "nature, city and texture scenes".
"""

from __future__ import annotations

import bisect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.utils.rng import DEFAULT_SEED, rng_for
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ImageProfile:
    """Weights of the synthesis ingredients for one scene type.

    Attributes
    ----------
    cloud:
        Weight of the 1/f^2 spectrum component (smooth intensity fields).
    regions:
        Weight of the piecewise-constant region component (flat areas with
        sharp boundaries).
    shapes:
        Number of constant-colour geometric shapes per megapixel (buildings,
        signs — dominant in "city" scenes).
    detail:
        Weight of a high-frequency texture component.
    noise_sigma:
        Additive Gaussian sensor-noise standard deviation (intensity units,
        image range is [0, 1]).
    smoothness:
        Gaussian blur radius applied to the composite, *per 1080 rows* of
        nominal scene height.  Higher resolutions of the same scene are
        smoother per-pixel, which is exactly why HD inputs show the
        strongest spatial correlation.
    """

    cloud: float = 1.0
    regions: float = 0.6
    shapes: float = 12.0
    detail: float = 0.08
    noise_sigma: float = 0.0
    smoothness: float = 1.6


#: Scene profiles referenced by the Table II dataset definitions.
PROFILES: dict[str, ImageProfile] = {
    "nature": ImageProfile(cloud=1.0, regions=0.55, shapes=4.0, detail=0.10),
    "city": ImageProfile(cloud=0.6, regions=0.8, shapes=40.0, detail=0.06),
    "texture": ImageProfile(cloud=0.5, regions=0.3, shapes=6.0, detail=0.30),
    "noisy": ImageProfile(cloud=1.0, regions=0.6, shapes=8.0, detail=0.10, noise_sigma=0.04),
    "portrait": ImageProfile(cloud=1.1, regions=0.7, shapes=3.0, detail=0.05),
}


def _cloud_phase(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """The random draw of a 1/f^beta cloud: one phase per half-spectrum bin."""
    return rng.uniform(0.0, 2.0 * np.pi, (h, w // 2 + 1))


def _amplitude(h: int, w: int, beta: float) -> np.ndarray:
    """Isotropic 1/f^beta amplitude over the half spectrum of an (h, w) field."""
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = 1.0  # keep DC finite; we normalize afterwards anyway
    return radius ** (-beta / 2.0)


def _spectrum(phase: np.ndarray, amplitude: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``amplitude * np.exp(1j * phase)``, computed in place in ``out``.

    The costliest step of a cloud, made of ufuncs that release the GIL and
    allocate nothing, so a worker thread can run it without keeping any
    memory of its own.
    """
    np.multiply(1j, phase, out=out)
    np.exp(out, out=out)
    return np.multiply(amplitude, out, out=out)


def _cloud_field(spectrum: np.ndarray, h: int, w: int) -> np.ndarray:
    """A cloud's field from its spectrum, normalized to [0,1]."""
    field = np.fft.irfft2(spectrum, s=(h, w))
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        return np.zeros((h, w))
    field -= lo
    field /= hi - lo
    return field


def _piecewise_regions(base: np.ndarray, levels: int = 7) -> np.ndarray:
    """Piecewise-constant field: a smooth cloud quantized to a few levels.

    The level sets of a smooth random field give organically shaped regions
    (like objects / sky / ground) with perfectly flat interiors and sharp
    boundaries.
    """
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
            # Test only the disc's bounding box, padded by a pixel so that
            # rounding in the distance test cannot reach past it.
            y0, y1 = max(int(cy - r) - 1, 0), min(int(cy + r) + 2, h)
            x0, x1 = max(int(cx - r) - 1, 0), min(int(cx + r) + 2, w)
            yy, xx = np.ogrid[y0:y1, x0:x1]
            box = canvas[y0:y1, x0:x1]
            box[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = value
    return canvas


def synthesize_image(
    rng: np.random.Generator,
    height: int,
    width: int,
    profile: ImageProfile | str = "nature",
    channels: int = 3,
) -> np.ndarray:
    """Synthesize one (channels, height, width) float image in [0, 1].

    Channels share a common luminance structure with small chroma
    perturbations, matching the strong cross-channel correlation of RGB
    photographs.

    Every random draw happens in the calling thread, in a fixed order
    (luma cloud, regions, shapes, detail, chroma clouds, noise).  The
    cloud spectra are built on a worker thread; a spectrum is a pure
    function of its drawn phases, so the image does not depend on when
    the worker runs.
    """
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
    amplitudes = {beta: _amplitude(height, width, beta) for beta in (2.0, 2.5)}

    # The spectra are built on a worker thread, into buffers allocated
    # here, while this thread rasterizes the shapes, draws the detail noise
    # and runs the inverse FFTs and the blur.
    with ThreadPoolExecutor(1) as worker:

        def spectrum(beta: float):
            """Draw a cloud's phases now; the returned call yields its spectrum."""
            phase = _cloud_phase(rng, height, width)
            buffer = np.empty(phase.shape, np.complex128)
            return worker.submit(_spectrum, phase, amplitudes[beta], buffer).result

        cloud = spectrum(2.0)
        regions = spectrum(2.5)
        shapes = _geometric_shapes(rng, height, width, shape_count)
        detail = rng.standard_normal((height, width)) if profile.detail > 0 else None
        chroma = [spectrum(2.5) for _ in range(channels)]

        # Each spectrum is released once its field is added in (an HD
        # frame's take 16.6 MB apiece), hence the dels and the pops.
        luma = profile.cloud * _cloud_field(cloud(), height, width)
        luma += profile.regions * _piecewise_regions(_cloud_field(regions(), height, width))
        luma += shapes
        del cloud, regions, shapes
        if detail is not None:
            luma += profile.detail * detail
            del detail

        sigma = profile.smoothness * height / 1080.0
        if sigma > 0.05:
            luma = ndimage.gaussian_filter(luma, sigma=sigma)

        lo, hi = luma.min(), luma.max()
        luma -= lo
        luma /= max(hi - lo, 1e-12)

        image = np.empty((channels, height, width))
        for plane in image:
            np.multiply(_cloud_field(chroma.pop(0)(), height, width), 0.12, out=plane)
            plane -= 0.06
            plane += luma

    if profile.noise_sigma > 0:
        image += rng.normal(0.0, profile.noise_sigma, image.shape)

    return np.clip(image, 0.0, 1.0, out=image)


# ---- input drift schedules (the calibration loop's disturbance) ---------


@dataclass(frozen=True)
class DriftPhase:
    """One segment of a drift timeline.

    The phase starts at ``start_s`` with gain ``gain0``, ramps linearly
    to ``gain1`` over ``ramp_s`` seconds (a brightness/contrast ramp),
    then holds ``gain1`` until the next phase.  ``profile`` names the
    scene statistics in force (a distribution shift switches it).
    """

    start_s: float
    gain0: float
    gain1: float
    ramp_s: float
    profile: str

    def gain_at(self, t: float) -> float:
        if self.ramp_s <= 0.0 or t >= self.start_s + self.ramp_s:
            return self.gain1
        if t <= self.start_s:
            return self.gain0
        frac = (t - self.start_s) / self.ramp_s
        return self.gain0 + (self.gain1 - self.gain0) * frac


@dataclass(frozen=True)
class DriftSchedule:
    """A deterministic input-drift timeline for one serving run.

    Two disturbance axes, matching what the calibration control loop
    (:mod:`repro.calib`) must survive:

    - **gain drift** — a multiplicative activation-magnitude gain
      (brightness/contrast), piecewise-linear in time;
    - **distribution shift** — the scene profile
      (:data:`repro.data.synthesis.PROFILES`) in force at each time.

    Both are pure functions of time, so any worker serving any request
    substream observes the identical drift — the schedule never needs to
    travel with the requests.
    """

    duration_s: float
    phases: "tuple[DriftPhase, ...]"

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        if not self.phases:
            raise ValueError("a drift schedule needs at least one phase")
        starts = [p.start_s for p in self.phases]
        if starts[0] != 0.0:
            raise ValueError("the first drift phase must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("drift phases must have strictly increasing starts")
        object.__setattr__(self, "_starts", starts)

    def _phase(self, t: float) -> DriftPhase:
        return self.phases[max(0, bisect.bisect_right(self._starts, t) - 1)]

    def gain(self, t: float) -> float:
        """Activation-magnitude gain in force at time ``t``."""
        return self._phase(t).gain_at(t)

    def profile(self, t: float) -> str:
        """Scene-profile name in force at time ``t``."""
        return self._phase(t).profile

    @property
    def is_static(self) -> bool:
        """True when the schedule never leaves gain 1.0 / the base profile."""
        base = self.phases[0].profile
        return all(
            p.gain0 == 1.0 and p.gain1 == 1.0 and p.profile == base for p in self.phases
        )


def generate_drift_schedule(
    duration_s: float,
    magnitude: float,
    events: int = 2,
    base_profile: str = "nature",
    shift_profiles: "tuple[str, ...]" = ("city", "noisy"),
    profile_shift_probability: float = 0.5,
    ramp_fraction: float = 0.25,
    seed: int = DEFAULT_SEED,
) -> DriftSchedule:
    """Seeded drift timeline: gain ramps plus scene-distribution shifts.

    ``events`` drift events are spread over jittered, evenly-sized slots
    of the window.  Each event ramps the gain to a fresh target whose
    log-magnitude is drawn uniformly in the *upper half* of
    ``[0, log(magnitude)]`` with a random sign — every event is a real
    excursion (brightness up or down), never a near-identity wiggle —
    over ``ramp_fraction`` of its slot, and with
    ``profile_shift_probability`` also switches the scene profile.
    ``magnitude=1.0`` yields the identity schedule (gain
    pinned at 1.0, base profile throughout) — the no-drift control every
    false-positive property is checked against.  Pure function of its
    arguments.
    """
    check_positive("duration_s", duration_s)
    if magnitude < 1.0:
        raise ValueError(f"magnitude must be >= 1 (1 = no drift), got {magnitude}")
    check_positive("events", events)
    if not 0.0 <= profile_shift_probability <= 1.0:
        raise ValueError(
            f"profile_shift_probability must be in [0, 1], got {profile_shift_probability}"
        )
    if not 0.0 < ramp_fraction <= 1.0:
        raise ValueError(f"ramp_fraction must be in (0, 1], got {ramp_fraction}")
    for name in (base_profile, *shift_profiles):
        if name not in PROFILES:
            raise ValueError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    phases = [DriftPhase(0.0, 1.0, 1.0, 0.0, base_profile)]
    if magnitude == 1.0:
        return DriftSchedule(duration_s, tuple(phases))
    rng = rng_for(seed, "drift-schedule", magnitude, events)
    slot = duration_s / (events + 1)
    gain = 1.0
    profile = base_profile
    log_mag = float(np.log(magnitude))
    for k in range(events):
        # Event k lands in the middle half of its slot, jittered.
        start = slot * (k + 1) + slot * float(rng.uniform(-0.25, 0.25))
        excursion = float(rng.uniform(0.5 * log_mag, log_mag))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        target = float(np.exp(sign * excursion))
        if rng.random() < profile_shift_probability and shift_profiles:
            profile = str(shift_profiles[int(rng.integers(len(shift_profiles)))])
        phases.append(DriftPhase(start, gain, target, ramp_fraction * slot, profile))
        gain = target
    return DriftSchedule(duration_s, tuple(phases))
