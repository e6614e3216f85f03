"""64-bit slot words: a read-only flag over a 63-bit payload.

A leaf slot holds one word. The most significant bit marks the slot
read-only; the low 63 bits carry the payload. Payload 0 means "no key", so
user keys live in [1, 2**63 - 1]. A read-only word with payload 0 is a dead
slot: either freed by a removal or frozen while empty. Dead slots stay
unusable until the leaf is rebuilt.
"""

from __future__ import annotations

PAYLOAD_BITS = 63
RO_BIT = 1 << PAYLOAD_BITS
PAYLOAD_MASK = RO_BIT - 1

MIN_KEY = 1
MAX_KEY = PAYLOAD_MASK

EMPTY = 0
DEAD = RO_BIT


def encode(key: int) -> int:
    """Writable word carrying `key`. Keys are exactly `int`: a float, a
    string or a bool (even True, which equals 1) is rejected."""
    _exact_int("key", key)
    if not MIN_KEY <= key <= MAX_KEY:
        raise ValueError(f"key out of range [1, 2**63-1]: {key!r}")
    return key


def pack(key: int, value: int, value_bits: int) -> int:
    """Pack a (key, value) pair into one payload: key << value_bits | value.

    Key, value and value_bits are exactly `int`, as for `encode`. The
    combined width must fit the 63 payload bits and the packed payload
    must be non-zero (payload 0 means an empty slot).
    """
    _exact_int("key", key)
    _exact_int("value", value)
    _check_bits(value_bits)
    if value < 0 or value >> value_bits:
        raise ValueError(f"value needs more than {value_bits} bits: {value}")
    if key <= 0 or (key << value_bits) > PAYLOAD_MASK:
        raise ValueError(f"key does not fit above {value_bits} value bits: {key}")
    return (key << value_bits) | value


def unpack(word: int, value_bits: int) -> tuple[int, int]:
    """Inverse of pack, ignoring the read-only flag. The word is exactly an
    `int` in [0, 2**64)."""
    _exact_int("word", word)
    if not 0 <= word < 1 << 64:
        raise ValueError(f"word out of range [0, 2**64): {word}")
    _check_bits(value_bits)
    p = word & PAYLOAD_MASK
    return p >> value_bits, p & ((1 << value_bits) - 1)


def _exact_int(name: str, x, least=None) -> None:
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, not {type(x).__name__}: "
                         f"{x!r}")
    if least is not None and x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")


def _check_bits(value_bits) -> None:
    _exact_int("value_bits", value_bits)
    if not 0 < value_bits < PAYLOAD_BITS:
        raise ValueError(f"value_bits out of range (0, 63): {value_bits}")
