"""Reference oracle for the bitstream codecs: value-at-a-time bit loops.

These are the original ``BitWriter``/``BitReader`` implementations of the
GroupCodec (RawD/DeltaD), RLEz and MSR wire formats, which the
whole-array bit-plane codecs (:mod:`repro.compression.bitplane` and
:class:`repro.weights.MSRCodec`) replaced.  They are legible, obviously
correct and slow, and are kept for the equivalence tests and the codec
benchmarks only.

Each function has the signature of the production function it stands in
for.  :func:`reference_codecs` swaps them in for the duration of a
``with`` block, so the codec classes and everything above them (fault
injection, protection, serving, experiments) run on the oracle::

    with reference_codecs() as calls:
        encoded = GroupCodec(16, signed=True).encode(values)
    assert calls.encodes == 1

It patches module and class attributes and restores them on exit, so it
is safe inside hypothesis tests (no function-scoped fixture) but not
across threads.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.compression import bitplane
from repro.compression.bitplane import CHECKSUM_BITS, CRC8_POLY
from repro.compression.codec import Encoded
from repro.compression.schemes import RLE_COUNT_BITS, _RLE_SPAN
from repro.core.precision import HEADER_BITS, group_precisions
from repro.utils.bits import signed_range
from repro.weights import MSRCodec


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits of the unsigned ``value`` (MSB first)."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit {width} unsigned bits")
        for i in reversed(range(width)):
            self._bits.append((value >> i) & 1)

    def bit_slice(self, start: int, end: int) -> "list[int]":
        """The written 0/1 bits in ``[start, end)`` (for checksumming)."""
        return self._bits[start:end]

    def __len__(self) -> int:
        return len(self._bits)

    def getvalue(self) -> bytes:
        """The buffer padded to a whole number of bytes."""
        bits = self._bits + [0] * ((-len(self._bits)) % 8)
        out = bytearray()
        for i in range(0, len(bits), 8):
            byte = 0
            for b in bits[i : i + 8]:
                byte = (byte << 1) | b
            out.append(byte)
        return bytes(out)


class BitReader:
    """MSB-first bit reader over bytes."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        end = self._pos + width
        if end > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        value = 0
        for i in range(self._pos, end):
            byte = self._data[i // 8]
            bit = (byte >> (7 - (i % 8))) & 1
            value = (value << 1) | bit
        self._pos = end
        return value

    @property
    def bits_read(self) -> int:
        return self._pos

    def bit_slice(self, start: int, end: int) -> "list[int]":
        """The 0/1 bits in ``[start, end)`` without moving the cursor."""
        if start < 0 or end > len(self._data) * 8 or start > end:
            raise ValueError(f"bit range [{start}, {end}) out of bounds")
        return [(self._data[i // 8] >> (7 - (i % 8))) & 1 for i in range(start, end)]


def crc8_bits(bits: "list[int]") -> int:
    """CRC-8 (poly 0x07, init 0) over a 0/1 bit sequence, MSB first: the
    bit-at-a-time shift-register definition."""
    crc = 0
    for b in bits:
        crc ^= (int(b) & 1) << 7
        crc = ((crc << 1) ^ CRC8_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def _to_twos_complement(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _from_twos_complement(raw: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return raw - (1 << width) if raw & sign_bit else raw


# ---------------------------------------------------------------------------
# GroupCodec (stands in for bitplane.group_encode / group_decode_flagged)
# ---------------------------------------------------------------------------


def group_encode(
    flat: np.ndarray, group_size: int, signed: bool, checksum: bool
) -> "tuple[bytes, int]":
    """Pack a validated flat int64 stream; returns ``(data, bits)``."""
    enc = group_precisions(flat, group_size, signed=signed)
    writer = BitWriter()
    padded = np.zeros(len(enc.precisions) * group_size, dtype=np.int64)
    padded[: flat.size] = flat
    for g, width in enumerate(enc.precisions):
        width = int(width)
        start = len(writer)
        # Headers store width-1 so 4 bits cover widths 1..16.
        writer.write(width - 1, HEADER_BITS)
        for v in padded[g * group_size : (g + 1) * group_size]:
            v = int(v)
            writer.write(_to_twos_complement(v, width) if signed else v, width)
        if checksum:
            writer.write(crc8_bits(writer.bit_slice(start, len(writer))), CHECKSUM_BITS)
    bits = len(writer)
    expected = enc.total_bits + (len(enc.precisions) * CHECKSUM_BITS if checksum else 0)
    if bits != expected:
        raise AssertionError(f"codec wrote {bits} bits but accounting says {expected}")
    return writer.getvalue(), bits


def group_decode_flagged(
    data: bytes,
    stream_bits: int,
    values: int,
    group_size: int,
    signed: bool,
    checksum: bool,
    strict: bool,
    suspect_bits: "tuple[tuple[int, int], ...]" = (),
) -> "tuple[np.ndarray, tuple[int, ...]]":
    """Decode a (validated, when strict) stream; returns ``(values, flagged)``."""
    reader = BitReader(data)
    out: list[int] = []
    flagged: list[int] = []
    groups = -(-values // group_size)
    exhausted_at: "Optional[int]" = None
    group_vals: list[int] = []
    try:
        for g in range(groups):
            group_vals = []
            start = reader.bits_read
            width = reader.read(HEADER_BITS) + 1
            for _ in range(group_size):
                raw = reader.read(width)
                group_vals.append(_from_twos_complement(raw, width) if signed else raw)
            if checksum:
                end = reader.bits_read
                stored = reader.read(CHECKSUM_BITS)
                span_end = reader.bits_read
                known_bad = any(start < hi and lo < span_end for lo, hi in suspect_bits)
                if known_bad or stored != crc8_bits(reader.bit_slice(start, end)):
                    if strict:
                        raise ValueError(f"corrupt stream: checksum mismatch in group {g}")
                    flagged.append(g)
                    group_vals = [0] * group_size
            out.extend(group_vals)
    except EOFError:
        if strict:
            raise ValueError(
                f"corrupt stream: exhausted after {reader.bits_read} of {stream_bits} bits"
            ) from None
        if not checksum:
            # Without checksums the hardware unit keeps whatever values it
            # managed to shift in before the stream ran dry; with them the
            # partial group is unverifiable, so it zero-fills.
            out.extend(group_vals)
        exhausted_at = len(out) // group_size
    if strict and reader.bits_read != stream_bits:
        raise ValueError(f"decoded {reader.bits_read} bits, expected {stream_bits}")
    if checksum:
        # Exhaustion or an end misalignment after a checksum failure is the
        # signature of a header desync, under which every later group
        # decoded from the wrong offsets — and a garbage group still passes
        # its CRC-8 with probability 2^-8.  Flag the whole tail from the
        # first failure.  (A payload-only error keeps the stream aligned
        # and keeps the precise per-group flags.)
        if exhausted_at is not None:
            flagged.extend(range(exhausted_at, groups))
        desynced = exhausted_at is not None or (bool(flagged) and reader.bits_read != stream_bits)
        if desynced and flagged:
            flagged = list(range(flagged[0], groups))
    if len(out) < values:
        out.extend([0] * (values - len(out)))
    return np.array(out[:values], dtype=np.int64), tuple(flagged)


# ---------------------------------------------------------------------------
# RLEZeroCodec (stands in for bitplane.rlez_encode / rlez_decode)
# ---------------------------------------------------------------------------


def rlez_encode(flat: np.ndarray) -> "tuple[bytes, int]":
    """Pack a validated flat int64 stream into (skip, value) tokens."""
    writer = BitWriter()
    pending_zeros = 0

    def emit(value: int, skip: int) -> None:
        writer.write(skip, RLE_COUNT_BITS)
        writer.write(_to_twos_complement(value, 16), 16)

    for v in flat:
        v = int(v)
        if v == 0:
            pending_zeros += 1
            if pending_zeros == _RLE_SPAN + 1:
                emit(0, _RLE_SPAN)  # escape: 15 skipped + stored zero
                pending_zeros = 0
            continue
        emit(v, pending_zeros)
        pending_zeros = 0
    while pending_zeros > 0:
        chunk = min(pending_zeros, _RLE_SPAN + 1)
        emit(0, chunk - 1)
        pending_zeros -= chunk
    return writer.getvalue(), len(writer)


def rlez_decode(data: bytes, stream_bits: int, values: int, strict: bool) -> np.ndarray:
    """Decode a (validated, when strict) token stream."""
    reader = BitReader(data)
    out: list[int] = []
    try:
        while reader.bits_read < stream_bits:
            skip = reader.read(RLE_COUNT_BITS)
            value = _from_twos_complement(reader.read(16), 16)
            out.extend([0] * skip)
            out.append(value)
    except EOFError:
        if strict:
            raise ValueError(
                f"corrupt stream: exhausted after {reader.bits_read} of {stream_bits} bits"
            ) from None
    # Trailing stored zeros may have been emitted as escape values; the
    # value count disambiguates.
    if len(out) < values:
        out.extend([0] * (values - len(out)))
    return np.array(out[:values], dtype=np.int64)


# ---------------------------------------------------------------------------
# MSRCodec (stands in for MSRCodec._encode_vectorized / _decode_flagged_vectorized)
# ---------------------------------------------------------------------------


def _choose_run(codec: MSRCodec, col: np.ndarray) -> "tuple[int, list[int]]":
    """Run choice: minimal column size, ties to the larger run."""
    best_run, best_size, best_comp = 1, None, np.zeros(0, dtype=np.int64)
    for run in range(1, codec.max_msr + 1):
        compact = codec.bits - run + 1
        lo, hi = signed_range(compact)
        oob = np.flatnonzero((col < lo) | (col > hi))
        size = oob.size * codec._entry_bits + codec.column_size * compact
        if best_size is None or size <= best_size:
            best_run, best_size, best_comp = run, size, oob
    return best_run, [int(i) for i in best_comp]


def msr_encode(codec: MSRCodec, flat: np.ndarray) -> Encoded:
    """Pack a validated flat weight stream; tail columns are zero padded."""
    writer = BitWriter()
    columns = -(-flat.size // codec.column_size) if flat.size else 0
    padded = np.zeros(columns * codec.column_size, dtype=np.int64)
    padded[: flat.size] = flat
    for c in range(columns):
        col = padded[c * codec.column_size : (c + 1) * codec.column_size]
        run, comp = _choose_run(codec, col)
        compact = codec.bits - run + 1
        lo, hi = signed_range(compact)
        start = len(writer)
        writer.write(run - 1, codec._run_bits)
        writer.write(len(comp), codec._count_bits)
        for idx in comp:
            writer.write(idx, codec._index_bits)
            writer.write(_to_twos_complement(int(col[idx]), codec.bits), codec.bits)
        for v in col:
            v = int(v)
            stored = v if lo <= v <= hi else 0
            writer.write(_to_twos_complement(stored, compact), compact)
        if codec.checksum:
            writer.write(crc8_bits(writer.bit_slice(start, len(writer))), CHECKSUM_BITS)
    bits = len(writer)
    expected = codec._layout(flat).total_bits
    if bits != expected:
        raise AssertionError(f"codec wrote {bits} bits but accounting says {expected}")
    return Encoded(data=writer.getvalue(), bits=bits, values=int(flat.size))


def msr_decode_flagged(
    codec: MSRCodec,
    encoded: Encoded,
    strict: bool,
    suspect_bits: "tuple[tuple[int, int], ...]",
) -> "tuple[np.ndarray, tuple[int, ...]]":
    """Decode a (validated, when strict) stream; returns ``(values, flagged)``."""
    reader = BitReader(encoded.data)
    out: list[int] = []
    flagged: list[int] = []
    columns = -(-encoded.values // codec.column_size)
    exhausted_at: "Optional[int]" = None
    col_vals: list[int] = []
    try:
        for g in range(columns):
            col_vals = []
            comp: "list[tuple[int, int]]" = []
            start = reader.bits_read
            run = reader.read(codec._run_bits) + 1
            m = reader.read(codec._count_bits)
            for _ in range(m):
                idx = reader.read(codec._index_bits)
                raw = reader.read(codec.bits)
                comp.append((idx, _from_twos_complement(raw, codec.bits)))
            compact = codec.bits - run + 1
            for _ in range(codec.column_size):
                col_vals.append(_from_twos_complement(reader.read(compact), compact))
            if codec.checksum:
                end = reader.bits_read
                stored = reader.read(CHECKSUM_BITS)
                span_end = reader.bits_read
                known_bad = any(start < hi and lo < span_end for lo, hi in suspect_bits)
                if known_bad or stored != crc8_bits(reader.bit_slice(start, end)):
                    if strict:
                        raise ValueError(f"corrupt stream: checksum mismatch in column {g}")
                    flagged.append(g)
                    col_vals = [0] * codec.column_size
                    comp = []
            # Compensation applies only on column completion; entries whose
            # index exceeds the column (corruption) are ignored.
            for idx, val in comp:
                if idx < codec.column_size:
                    col_vals[idx] = val
            out.extend(col_vals)
    except EOFError:
        if strict:
            raise ValueError(
                f"corrupt stream: exhausted after {reader.bits_read} of {encoded.bits} bits"
            ) from None
        if not codec.checksum:
            # Without checksums the hardware unit keeps whatever compact
            # values it managed to shift in before the stream ran dry
            # (uncompensated); with them the partial column is
            # unverifiable, so it zero-fills.
            out.extend(col_vals)
        exhausted_at = len(out) // codec.column_size
    if strict and reader.bits_read != encoded.bits:
        raise ValueError(f"decoded {reader.bits_read} bits, expected {encoded.bits}")
    if codec.checksum:
        # Same desync rule as the activation streams: exhaustion or an end
        # misalignment after a checksum failure means later columns decoded
        # from the wrong offsets — flag the whole tail.
        if exhausted_at is not None:
            flagged.extend(range(exhausted_at, columns))
        desynced = exhausted_at is not None or (bool(flagged) and reader.bits_read != encoded.bits)
        if desynced and flagged:
            flagged = list(range(flagged[0], columns))
    if len(out) < encoded.values:
        out.extend([0] * (encoded.values - len(out)))
    return np.array(out[: encoded.values], dtype=np.int64), tuple(flagged)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


@dataclass
class OracleCalls:
    """Encodes and decodes the oracle served inside one
    :func:`reference_codecs` block."""

    encodes: int = 0
    decodes: int = 0


@contextlib.contextmanager
def reference_codecs() -> Iterator[OracleCalls]:
    """Run every codec on the oracle for the block; yields its call counts."""
    calls = OracleCalls()

    def counted(fn, kind: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            setattr(calls, kind, getattr(calls, kind) + 1)
            return fn(*args, **kwargs)

        return wrapper

    swaps = (
        (bitplane, "group_encode", counted(group_encode, "encodes")),
        (bitplane, "group_decode_flagged", counted(group_decode_flagged, "decodes")),
        (bitplane, "rlez_encode", counted(rlez_encode, "encodes")),
        (bitplane, "rlez_decode", counted(rlez_decode, "decodes")),
        (MSRCodec, "_encode_vectorized", counted(msr_encode, "encodes")),
        (MSRCodec, "_decode_flagged_vectorized", counted(msr_decode_flagged, "decodes")),
    )
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swaps]
    try:
        for owner, name, fn in swaps:
            setattr(owner, name, fn)
        yield calls
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def both_paths(fn):
    """``(fn() on the oracle, fn() on the production codecs)``."""
    with reference_codecs():
        ref = fn()
    return ref, fn()
