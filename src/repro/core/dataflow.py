"""Brick/pallet dataflow geometry shared by the accelerator models.

Terminology (from the PRA paper, used throughout Diffy):

* **brick**: 16 activations consecutive along the channel dimension,
  ``a(c..c+15, y, x)`` — the unit VAA processes per cycle and the unit
  dynamic precisions are grouped by.
* **pallet**: 16 bricks from 16 consecutive windows along the row,
  ``a^B(c, y, x) .. a^B(c, y, x+15)`` — the unit PRA/Diffy process
  concurrently across their 16 SIP columns.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_positive

#: Activations per brick (channel-direction vector width).
BRICK_SIZE = 16

#: Windows per pallet (SIP columns per tile).
PALLET_SIZE = 16


def num_bricks(channels: int, brick: int = BRICK_SIZE) -> int:
    """Bricks needed to cover ``channels`` (the tail brick is padded)."""
    check_positive("channels", channels)
    return math.ceil(channels / brick)


def num_pallets(row_windows: int, pallet: int = PALLET_SIZE) -> int:
    """Pallets needed to cover one row of output windows."""
    check_positive("row_windows", row_windows)
    return math.ceil(row_windows / pallet)


def raw_window_mask(out_h: int, out_w: int, axis: str = "x") -> np.ndarray:
    """Boolean (out_h, out_w) mask of windows computed from raw values.

    Under the paper's delta dataflow (Section III-D) only the first window
    of each differential chain is computed directly: the leftmost window of
    each row for X-axis chains, the top window of each column for Y-axis.
    """
    check_positive("out_h", out_h)
    check_positive("out_w", out_w)
    mask = np.zeros((out_h, out_w), dtype=bool)
    if axis == "x":
        mask[:, 0] = True
    elif axis == "y":
        mask[0, :] = True
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return mask
