import pytest
from hypothesis import given
from hypothesis import strategies as st

from lftree.keyspace import (DEAD, EMPTY, MAX_KEY, MIN_KEY, PAYLOAD_MASK,
                             RO_BIT, encode, pack, unpack)


def test_word_layout_constants():
    assert RO_BIT == 1 << 63
    assert PAYLOAD_MASK == (1 << 63) - 1
    assert MIN_KEY == 1
    assert MAX_KEY == PAYLOAD_MASK
    assert EMPTY == 0
    assert DEAD == RO_BIT  # frozen empty: read-only bit, payload 0


def test_encode_bounds():
    assert encode(MIN_KEY) == 1
    assert encode(MAX_KEY) == MAX_KEY
    for bad in (0, -1, MAX_KEY + 1, 1 << 63):
        with pytest.raises(ValueError):
            encode(bad)


def test_readonly_flag_round_trip():
    w = encode(12345)
    assert not w & RO_BIT
    f = w | RO_BIT
    assert f & RO_BIT
    assert f & PAYLOAD_MASK == 12345
    assert DEAD & RO_BIT and DEAD & PAYLOAD_MASK == 0


def test_pack_known_values():
    # independent arithmetic: key * 2^bits + value
    assert pack(3, 1, 8) == 3 * 256 + 1 == 769
    assert pack(1, 0, 8) == 256
    assert pack(2**54, 255, 8) == 2**54 * 256 + 255
    # the largest packable key at 8 value bits fills the payload exactly
    assert pack(2**55 - 1, 255, 8) == PAYLOAD_MASK


def test_pack_overflow():
    with pytest.raises(ValueError):
        pack(2**55, 0, 8)  # key << 8 leaves the 63-bit payload
    with pytest.raises(ValueError):
        pack(1, 256, 8)  # value needs 9 bits
    with pytest.raises(ValueError):
        pack(0, 0, 8)
    for bits in (0, -1, 63, 64):
        with pytest.raises(ValueError):
            pack(1, 0, bits)


@pytest.mark.parametrize("args", [
    (True, 1, 4),      # True == 1 would pack to 17
    (2, True, 4),      # True == 1 would pack to 33
    (2, 1, True),
    (1.5, 1, 4),
    (2, 1.0, 4),
    (2, 1, 4.0),
    ("2", 1, 4),
    (2, None, 4),
], ids=["bool-key", "bool-value", "bool-bits", "float-key", "float-value",
        "float-bits", "str-key", "none-value"])
def test_pack_rejects_non_int_arguments(args):
    with pytest.raises(ValueError, match="must be an int"):
        pack(*args)


def test_unpack_rejects_non_int_value_bits():
    for bits in (4.0, True, "4"):
        with pytest.raises(ValueError, match="must be an int"):
            unpack(17, bits)


@pytest.mark.parametrize("word, match", [
    (-1, "out of range"),
    (1 << 64, "out of range"),
    (1 << 70, "out of range"),
    (True, "must be an int"),
    (1.5, "must be an int"),
    ("17", "must be an int"),
], ids=["negative", "2**64", "2**70", "bool", "float", "str"])
def test_unpack_rejects_a_word_outside_64_bits(word, match):
    with pytest.raises(ValueError, match=match):
        unpack(word, 3)


def test_unpack_takes_every_64_bit_word():
    assert unpack(0, 3) == (0, 0)
    assert unpack((1 << 64) - 1, 3) == (PAYLOAD_MASK >> 3, 7)


@given(st.integers(min_value=MIN_KEY, max_value=MAX_KEY))
def test_encode_payload_round_trip(key):
    assert encode(key) & PAYLOAD_MASK == key
    assert (encode(key) | RO_BIT) & PAYLOAD_MASK == key


@given(st.data())
def test_pack_unpack_round_trip(data):
    bits = data.draw(st.integers(min_value=1, max_value=32))
    key = data.draw(st.integers(min_value=1,
                                max_value=(PAYLOAD_MASK >> bits)))
    value = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    word = pack(key, value, bits)
    assert unpack(word, bits) == (key, value)
    assert word <= PAYLOAD_MASK


@given(st.data())
def test_pack_preserves_key_order(data):
    bits = data.draw(st.integers(min_value=1, max_value=16))
    top = PAYLOAD_MASK >> bits
    k1 = data.draw(st.integers(min_value=1, max_value=top))
    k2 = data.draw(st.integers(min_value=1, max_value=top))
    v1 = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    v2 = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    if k1 < k2:
        assert pack(k1, v1, bits) < pack(k2, v2, bits)
