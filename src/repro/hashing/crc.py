"""Table-driven CRC implementations.

Two parts of the reproduced system are CRC-based:

1. The Tofino switch ASIC exposes CRC polynomials as its hashing extern; the
   DART prototype (paper section 6) uses "the CRC extern" to map ``(n, key)``
   to a collector ID and memory address.
2. RoCEv2 packets end with a 32-bit *invariant CRC* (iCRC) computed over the
   packet with volatile fields masked out; the DART switch must generate it
   and the RDMA NIC validates it.

The implementations below are classic reflected table-driven CRCs.  They are
deliberately dependency-free and byte-exact so that tests can pin known
check values ("123456789" vectors from the CRC catalogue).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def _reflect(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``."""
    reflected = 0
    for _ in range(width):
        reflected = (reflected << 1) | (value & 1)
        value >>= 1
    return reflected


def _reflect_array(values: np.ndarray, width: int) -> np.ndarray:
    """:func:`_reflect` of every element of an unsigned integer array."""
    kind = values.dtype.type
    reflected = np.zeros_like(values)
    for bit in range(width):
        reflected |= ((values >> kind(bit)) & kind(1)) << kind(width - 1 - bit)
    return reflected


def _varying_columns(rows: np.ndarray) -> np.ndarray:
    """Indexes of the columns of a ``uint8`` matrix that vary.

    Column-wise max/min over a C-contiguous matrix step once per row, so
    whole groups of rows are first laid side by side (a free reshape) and
    the reductions step once per group; rows short of a group are reduced
    as they are.
    """
    count, width = rows.shape
    group = max(1, 4096 // max(width, 1))
    body = count - count % group
    high = rows[body:].max(axis=0, initial=0)
    low = rows[body:].min(axis=0, initial=255)
    if body:
        side_by_side = rows[:body].reshape(body // group, group * width)
        high = np.maximum(
            high, side_by_side.max(axis=0).reshape(group, width).max(axis=0)
        )
        low = np.minimum(
            low, side_by_side.min(axis=0).reshape(group, width).min(axis=0)
        )
    return np.flatnonzero(high != low)


def _build_table(poly: int, width: int, reflected: bool) -> Tuple[int, ...]:
    """Precompute the 256-entry CRC table for one byte of input."""
    mask = (1 << width) - 1
    top_bit = 1 << (width - 1)
    table = []
    for byte in range(256):
        if reflected:
            crc = _reflect(byte, 8) << (width - 8)
        else:
            crc = byte << (width - 8)
        for _ in range(8):
            if crc & top_bit:
                crc = ((crc << 1) ^ poly) & mask
            else:
                crc = (crc << 1) & mask
        if reflected:
            crc = _reflect(crc, width)
        table.append(crc)
    return tuple(table)


@dataclass(frozen=True)
class CrcAlgorithm:
    """A parameterised CRC algorithm in the Rocksoft model.

    Attributes mirror the standard CRC catalogue fields so that any
    polynomial a Tofino hash extern can be configured with is expressible.
    """

    name: str
    width: int
    poly: int
    init: int
    reflect_in: bool
    reflect_out: bool
    xor_out: int
    check: int  # CRC of b"123456789", for self-tests

    def __post_init__(self) -> None:
        if self.width < 8 or self.width > 64:
            raise ValueError(f"unsupported CRC width {self.width}")
        object.__setattr__(
            self, "_table", _build_table(self.poly, self.width, self.reflect_in)
        )

    @property
    def mask(self) -> int:
        """Bit mask of the CRC width."""
        return (1 << self.width) - 1

    def compute(self, data: bytes, initial: int | None = None) -> int:
        """CRC of ``data``; ``initial`` allows incremental computation.

        When ``initial`` is given it must be a previous :meth:`compute`
        result; the final XOR is undone/redone so that
        ``compute(a + b) == compute(b, initial=compute(a))``.
        """
        table = self._table  # type: ignore[attr-defined]
        if initial is None:
            crc = self.init
        else:
            crc = (initial ^ self.xor_out) & self.mask
            if self.reflect_in != self.reflect_out:
                crc = _reflect(crc, self.width)
        if self.reflect_in:
            for byte in data:
                crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
        else:
            shift = self.width - 8
            for byte in data:
                crc = (table[((crc >> shift) ^ byte) & 0xFF] ^ (crc << 8)) & self.mask
        if self.reflect_in != self.reflect_out:
            crc = _reflect(crc, self.width)
        return (crc ^ self.xor_out) & self.mask

    def compute_rows(self, rows: np.ndarray) -> np.ndarray:
        """CRC of every row of a ``uint8`` matrix at once (vectorised).

        ``rows`` has shape ``(n, width)``; the result is an array of ``n``
        CRCs (``uint32``, or ``uint64`` above 32 bits), bit-identical to
        calling :meth:`compute` on each row's bytes.

        A CRC is affine over GF(2): the register after ``width`` bytes is
        the initial value run through ``width`` zero bytes, xor one term
        per byte, ``T[p, row[p]]`` (:meth:`_advance_table`).  Columns that
        hold the same byte in every row add the same term to every row,
        so they are summed once; only the varying columns cost a table
        gather per row.  A batch of report frames shares most header
        bytes, so that is a few dozen gathers for the whole batch.
        """
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D byte matrix, got shape {rows.shape}")
        count, width = rows.shape
        table = self._advance_table(width)
        if count == 0:
            return np.empty(0, dtype=table.dtype)
        # Row d of ``table`` advances a term by d zero bytes, so the byte
        # in column c (width - 1 - c bytes before the end) reads row
        # width - 1 - c; column 256 holds the initial register.
        distance = np.arange(width - 1, -1, -1)
        varying = _varying_columns(rows)
        constant = np.ones(width, dtype=bool)
        constant[varying] = False
        register = table[width, 256] ^ np.bitwise_xor.reduce(
            table[distance[constant], rows[0, constant]]
        )
        index = rows.T[varying].astype(np.intp)
        index += (distance[varying] * table.shape[1])[:, None]
        registers = np.bitwise_xor.reduce(table.ravel().take(index), axis=0)
        registers ^= register
        if self.reflect_in != self.reflect_out:
            registers = _reflect_array(registers, self.width)
        return registers ^ table.dtype.type(self.xor_out)

    def _advance_table(self, width: int) -> np.ndarray:
        """Register terms for rows of up to ``width`` bytes.

        Row ``d``, column ``b < 256``, is the register (init 0) after the
        byte ``b`` followed by ``d`` zero bytes; row ``d``, column 256, is
        the initial register after ``d`` zero bytes.  Row 0 is the byte
        table plus the initial register, and each further row is the
        previous one pushed through one zero byte, which is linear.  The
        table is kept and rebuilt only for a wider row, so every width up
        to the widest seen shares it.
        """
        cached = getattr(self, "_advance_cache", None)
        if cached is not None and len(cached) > width:
            return cached
        dtype = np.uint32 if self.width <= 32 else np.uint64
        byte_table = np.array(self._table, dtype=dtype)  # type: ignore[attr-defined]
        table = np.empty((width + 1, 257), dtype=dtype)
        table[0, :256] = byte_table
        table[0, 256] = self.init
        low_byte, eight = dtype(0xFF), dtype(8)
        for distance in range(1, width + 1):
            previous = table[distance - 1]
            if self.reflect_in:
                table[distance] = byte_table[previous & low_byte] ^ (previous >> eight)
            else:
                table[distance] = (
                    byte_table[(previous >> dtype(self.width - 8)) & low_byte]
                    ^ (previous << eight)
                ) & dtype(self.mask)
        object.__setattr__(self, "_advance_cache", table)
        return table

    def verify(self) -> bool:
        """Check the algorithm against its catalogue check value."""
        return self.compute(b"123456789") == self.check


# Catalogue entries used throughout the system.
CRC8 = CrcAlgorithm(
    name="CRC-8",
    width=8,
    poly=0x07,
    init=0x00,
    reflect_in=False,
    reflect_out=False,
    xor_out=0x00,
    check=0xF4,
)

CRC16_CCITT = CrcAlgorithm(
    name="CRC-16/CCITT-FALSE",
    width=16,
    poly=0x1021,
    init=0xFFFF,
    reflect_in=False,
    reflect_out=False,
    xor_out=0x0000,
    check=0x29B1,
)

#: The Ethernet / RoCEv2 iCRC polynomial (reflected CRC-32).
CRC32 = CrcAlgorithm(
    name="CRC-32",
    width=32,
    poly=0x04C11DB7,
    init=0xFFFFFFFF,
    reflect_in=True,
    reflect_out=True,
    xor_out=0xFFFFFFFF,
    check=0xCBF43926,
)

#: CRC-32C (Castagnoli), the other polynomial Tofino commonly exposes.
CRC32C = CrcAlgorithm(
    name="CRC-32C",
    width=32,
    poly=0x1EDC6F41,
    init=0xFFFFFFFF,
    reflect_in=True,
    reflect_out=True,
    xor_out=0xFFFFFFFF,
    check=0xE3069283,
)


def crc8(data: bytes) -> int:
    """CRC-8 of ``data`` (plain 0x07 polynomial)."""
    return CRC8.compute(data)


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of ``data``."""
    return CRC16_CCITT.compute(data)


def crc32(data: bytes) -> int:
    """Standard reflected CRC-32 of ``data`` (Ethernet / RoCEv2 iCRC)."""
    return CRC32.compute(data)


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli) of ``data``."""
    return CRC32C.compute(data)
