"""CRC-32 frame check sequence (IEEE 802.3 / 802.11 FCS).

Link-level simulations decide "frame received correctly" the way real
hardware does: by checking the FCS, not by peeking at the transmitted
bits.  Implemented MSB-first over bit arrays (table-driven per byte, with
a bit loop only for a non-byte-aligned tail) to match the rest of the PHY
pipeline.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import as_bit_array

__all__ = ["crc32_bits", "append_crc", "check_crc", "CRC_BITS"]

CRC_BITS = 32
_POLYNOMIAL = 0x04C11DB7
_MASK = 0xFFFFFFFF


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        register = byte << 24
        for _ in range(8):
            if register & 0x80000000:
                register = ((register << 1) ^ _POLYNOMIAL) & _MASK
            else:
                register = (register << 1) & _MASK
        table.append(register)
    return table


_TABLE = _build_table()


def crc32_bits(bits) -> np.ndarray:
    """CRC-32 of a bit array (MSB-first), returned as 32 bits.

    Standard IEEE 802.3 algorithm: initial value all-ones, final
    complement, MSB-first processing.
    """
    array = as_bit_array(bits)
    register = _MASK
    aligned = (array.size // 8) * 8
    if aligned:
        for byte in np.packbits(array[:aligned]).tolist():
            index = ((register >> 24) ^ byte) & 0xFF
            register = ((register << 8) & _MASK) ^ _TABLE[index]
    for bit in array[aligned:].tolist():
        top = (register >> 31) & 1
        register = (register << 1) & _MASK
        if top ^ bit:
            register ^= _POLYNOMIAL
    register ^= _MASK
    # The 32 register bits MSB-first: the big-endian bytes, unpacked.
    return np.unpackbits(np.frombuffer(register.to_bytes(4, "big"),
                                       dtype=np.uint8))


def append_crc(bits) -> np.ndarray:
    """Return ``bits`` with their CRC-32 appended."""
    array = as_bit_array(bits)
    return np.concatenate([array, crc32_bits(array)])


def check_crc(bits_with_crc) -> bool:
    """Validate a stream produced by :func:`append_crc`."""
    array = as_bit_array(bits_with_crc)
    if array.size <= CRC_BITS:
        return False
    payload = array[:-CRC_BITS]
    expected = array[-CRC_BITS:]
    return bool((crc32_bits(payload) == expected).all())
