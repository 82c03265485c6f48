"""Activation precision detection: profiled (static) and dynamic per-group.

The paper uses two precision mechanisms:

* **Profiled per-layer precisions** (Table III, after Judd et al. [3]):
  one precision per layer, determined offline over a profiling dataset, at
  which no accuracy is lost.  We realize this as the smallest width that
  represents every activation seen during profiling.

* **Dynamic per-group precisions** (Dynamic Stripes [33], Section III-F):
  activations are stored in groups of 16 with a 4-bit header giving the
  width all 16 values in the group are stored at.  Applied to raw values
  this is the paper's RawD16 scheme; applied to deltas it is DeltaD16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.nn.trace import ActivationTrace
from repro.utils.bits import bits_for_magnitude, bits_for_signed, quantize_to_width
from repro.utils.validation import check_positive

__all__ = [
    "HEADER_BITS",
    "MAX_PRECISION",
    "profiled_precision",
    "profiled_precision_tolerant",
    "profiled_precision_drifted",
    "profile_network_precisions",
    "GroupPrecisionEncoding",
    "group_precisions",
    "group_precisions_drifted",
    "drift_values",
    "quantize_to_width",
]

#: Width of the per-group precision header (can encode widths 1..16).
HEADER_BITS = 4

#: Hardware word width that bounds any detected precision.
MAX_PRECISION = 16


def _required_bits(values: np.ndarray, signed: bool) -> np.ndarray:
    if signed:
        return bits_for_signed(values)
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError("unsigned precision requested for values with negatives")
    return np.maximum(bits_for_magnitude(arr), 1)


def profiled_precision(arrays: Iterable[np.ndarray], signed: bool = False) -> int:
    """Smallest width representing every value across ``arrays``.

    ``signed`` selects two's-complement (deltas) vs magnitude-only
    (post-ReLU activations) accounting.  Result is clamped to
    :data:`MAX_PRECISION`.
    """
    best = 1
    seen = False
    for arr in arrays:
        a = np.asarray(arr, dtype=np.int64)
        if a.size == 0:
            continue
        seen = True
        best = max(best, int(_required_bits(np.array([a.min(), a.max()]), signed).max()))
    if not seen:
        raise ValueError("profiled_precision needs at least one non-empty array")
    return min(best, MAX_PRECISION)


def profiled_precision_tolerant(
    arrays: Iterable[np.ndarray],
    signed: bool = False,
    clip_quantile: float = 0.999,
    lsb_tolerance: float = 0.005,
) -> int:
    """Accuracy-tolerant profiled precision (how Judd et al. profile [3]).

    The paper's profiled precisions are the smallest widths *at which the
    network's output quality does not degrade* — not exact value coverage.
    Two relaxations model that criterion without a task metric:

    - the covered range is the ``clip_quantile`` magnitude (rare outliers
      saturate harmlessly),
    - the least-significant step is allowed to be as coarse as
      ``lsb_tolerance`` of the nonzero-value RMS (quantization noise far
      below the signal level does not affect output quality).

    The result is the width of ``quantile / step`` plus a sign bit if
    requested, clamped to [1, MAX_PRECISION].
    """
    mags = []
    for arr in arrays:
        a = np.abs(np.asarray(arr, dtype=np.int64)).reshape(-1)
        if a.size:
            mags.append(a)
    if not mags:
        raise ValueError("profiled_precision_tolerant needs non-empty arrays")
    flat = np.concatenate(mags)
    top = float(np.quantile(flat, clip_quantile))
    nonzero = flat[flat > 0]
    if nonzero.size == 0:
        return 1
    rms = float(np.sqrt(np.mean(nonzero.astype(np.float64) ** 2)))
    step = max(rms * lsb_tolerance * np.sqrt(12.0), 1.0)
    levels = max(top / step, 1.0)
    bits = int(np.ceil(np.log2(levels + 1.0))) + (1 if signed else 0)
    return int(np.clip(bits, 1, MAX_PRECISION))


def profile_network_precisions(
    traces: Sequence[ActivationTrace], signed: bool = False
) -> list[int]:
    """Per-layer profiled precisions for a network (Table III).

    Layer ``i``'s precision covers the *imap* of conv layer ``i`` across
    all provided traces — this is the stored representation the precision
    applies to.
    """
    if not traces:
        raise ValueError("need at least one trace")
    n_layers = len(traces[0])
    if any(len(t) != n_layers for t in traces):
        raise ValueError("traces have inconsistent layer counts")
    return [
        profiled_precision((t[i].imap for t in traces), signed=signed)
        for i in range(n_layers)
    ]


@dataclass(frozen=True)
class GroupPrecisionEncoding:
    """Result of dynamic per-group precision detection over one array.

    Attributes
    ----------
    group_size:
        Activations per group (16 in the paper's RawD16/DeltaD16).
    precisions:
        Detected width per group (the 4-bit header contents).
    values:
        Count of encoded values (including zero padding of the tail group).
    signed:
        Whether widths include a sign bit.
    """

    group_size: int
    precisions: np.ndarray
    values: int
    signed: bool

    @property
    def payload_bits(self) -> int:
        """Bits spent on activation payloads."""
        return int(self.precisions.sum()) * self.group_size

    @property
    def header_bits(self) -> int:
        """Bits spent on the 4-bit per-group precision headers."""
        return len(self.precisions) * HEADER_BITS

    @property
    def total_bits(self) -> int:
        """Payload plus metadata (what travels off-chip)."""
        return self.payload_bits + self.header_bits

    @property
    def mean_precision(self) -> float:
        return float(self.precisions.mean()) if len(self.precisions) else 0.0


def group_precisions(
    values: np.ndarray, group_size: int = 16, signed: bool = False
) -> GroupPrecisionEncoding:
    """Dynamic Stripes-style per-group precision detection.

    ``values`` is flattened in storage order and split into groups of
    ``group_size`` (the tail group is zero-padded, as the hardware pads the
    final memory line).  Each group's precision is the width of its
    widest member.
    """
    check_positive("group_size", group_size)
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    n = flat.size
    if n == 0:
        return GroupPrecisionEncoding(group_size, np.zeros(0, dtype=np.int64), 0, signed)
    # v ^ (v >> 63) is v for v >= 0 and -v - 1 for v < 0: the magnitude
    # whose bit length plus a sign bit is the two's-complement width.
    mags = flat ^ (flat >> 63) if signed else flat
    # Bit length is monotone in the magnitude, so a group's width is the
    # width of its largest magnitude — and of the bitwise OR of its
    # magnitudes, whose highest set bit is the maximum's (OR reduces
    # faster than max).  Widths are counted on one value per group; the
    # zero padding of the tail group changes none.  An unsigned group with
    # a negative member has a negative OR, which _required_bits rejects.
    full = n - n % group_size
    maxima = np.bitwise_or.reduce(mags[:full].reshape(-1, group_size), axis=1)
    if full < n:
        maxima = np.append(maxima, np.bitwise_or.reduce(mags[full:]))
    precisions = np.minimum(_required_bits(maxima, signed), MAX_PRECISION)
    return GroupPrecisionEncoding(group_size, precisions, n + (-n) % group_size, signed)


# ---- drift-aware variants (the calibration control loop's model) --------
#
# Input drift is modeled as a multiplicative gain on activation
# magnitudes: for post-ReLU networks, scaling the input brightness /
# contrast by ``g`` scales every layer's activations by ``g`` (ReLU is
# positively homogeneous, ReLU(g*x) = g*ReLU(x) for g > 0), so a single
# gain parameter propagates a brightness ramp through the whole network
# without re-tracing.  ``repro.calib`` builds its shadow statistics on
# exactly this model; the functions here are the reference definitions
# the calibration tables are checked against.


def drift_values(values: np.ndarray, gain: float) -> np.ndarray:
    """Integer activations after a magnitude gain (round half away).

    ``gain=1.0`` returns the input values unchanged (same array, no
    arithmetic), so drift-free paths stay bit-identical.
    """
    if gain <= 0.0:
        raise ValueError(f"gain must be > 0, got {gain}")
    arr = np.asarray(values, dtype=np.int64)
    if gain == 1.0:
        return arr
    mags = np.floor(np.abs(arr).astype(np.float64) * gain + 0.5).astype(np.int64)
    return np.sign(arr) * mags


def profiled_precision_drifted(
    arrays: Iterable[np.ndarray], gain: float, signed: bool = False
) -> int:
    """Profiled per-layer precision of the gain-drifted values.

    The width a *fresh* profiling pass would pick if the input statistics
    had drifted by ``gain`` — what the online recalibrator must converge
    to.  ``gain=1.0`` reduces exactly to :func:`profiled_precision`.
    """
    return profiled_precision((drift_values(a, gain) for a in arrays), signed=signed)


def group_precisions_drifted(
    values: np.ndarray, gain: float, group_size: int = 16, signed: bool = False
) -> GroupPrecisionEncoding:
    """Dynamic per-group precisions of the gain-drifted values.

    ``gain=1.0`` reduces exactly to :func:`group_precisions`; larger
    gains widen exactly the groups whose maxima cross a power of two —
    the overflow signal the shadow counters watch for.
    """
    return group_precisions(drift_values(values, gain), group_size, signed=signed)
