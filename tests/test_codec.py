"""Wire-format tests: encode's byte layout, round trips through the FSU1
oracle decoder, and the oracle's malformed-input offsets."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsparse.sparsify import (HEADER_BYTES, SparseUpdate, SparsityPolicy, encode,
                                encoded_size, sparsify)
from oracles import decode, update_fields


def random_update(rng, dim=None, count=None):
    """Random update with float32-representable values (wire precision)."""
    dim = int(rng.integers(1, 2000)) if dim is None else dim
    count = int(rng.integers(0, dim + 1)) if count is None else count
    indices = np.sort(rng.choice(dim, size=count, replace=False))
    values = rng.standard_normal(count).astype(np.float32).astype(np.float64)
    return SparseUpdate(dim, indices, values,
                        round=int(rng.integers(0, 2 ** 32)),
                        client_id=int(rng.integers(0, 2 ** 16)))


class TestByteLayout:
    def test_empty_update_is_header_only(self):
        assert len(encode(SparseUpdate(10, [], []))) == 27

    def test_length_is_27_plus_8m(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = random_update(rng)
            assert len(encode(u)) == 27 + 8 * len(u) == encoded_size(len(u))

    def test_header_fields_little_endian(self):
        u = SparseUpdate(300, [5, 7], [1.0, -2.0], round=9, client_id=3)
        data = encode(u)
        assert data[:4] == b"FSU1"
        assert data[4] == 1
        assert struct.unpack_from("<Q", data, 5)[0] == 300
        assert struct.unpack_from("<Q", data, 13)[0] == 2
        assert struct.unpack_from("<I", data, 21)[0] == 9
        assert struct.unpack_from("<H", data, 25)[0] == 3
        assert struct.unpack_from("<II", data, 27) == (5, 7)
        assert struct.unpack_from("<ff", data, 35) == (1.0, -2.0)

    def test_field_width_limits(self):
        with pytest.raises(ValueError):
            encode(SparseUpdate(2 ** 33, [2 ** 32], [1.0]))
        with pytest.raises(ValueError):
            encode(SparseUpdate(4, [0], [1.0], round=2 ** 32))
        with pytest.raises(ValueError):
            encode(SparseUpdate(4, [0], [1.0], client_id=2 ** 16))


class TestRoundTrip:
    def test_decode_encode_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = random_update(rng)
            assert update_fields(decode(encode(u))) == update_fields(u)

    def test_empty_and_full_updates(self):
        empty = SparseUpdate(50, [], [], round=1, client_id=2)
        assert update_fields(decode(encode(empty))) == update_fields(empty)
        v = np.random.default_rng(2).standard_normal(50).astype(np.float32)
        full = SparseUpdate(50, np.arange(50), v.astype(np.float64))
        assert update_fields(decode(encode(full))) == update_fields(full)

    def test_values_round_to_float32(self):
        u = SparseUpdate(3, [0], [0.1])  # 0.1 is not float32-representable
        got = decode(encode(u))
        assert got.values[0] == np.float64(np.float32(0.1))
        assert got.values[0] != 0.1

    def test_value_beyond_float32_range_goes_as_inf_unwarned(self):
        """pytest turns warnings into errors, so a cast warning fails this."""
        got = decode(encode(SparseUpdate(3, [0, 2], [1e39, -1e39])))
        assert got.values.tolist() == [np.inf, -np.inf]

    def test_encode_decode_identity_on_bytes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            data = encode(random_update(rng))
            assert encode(decode(data)) == data

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_seed(self, seed):
        u = random_update(np.random.default_rng(seed))
        assert update_fields(decode(encode(u))) == update_fields(u)


class TestDecodeErrors:
    """The oracle rejects malformed bytes, naming the offset."""

    def test_bad_magic_names_offset_zero(self):
        data = b"XSU1" + encode(SparseUpdate(4, [], []))[4:]
        with pytest.raises(ValueError, match="offset 0"):
            decode(data)

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated header"):
            decode(b"FSU1\x01")

    def test_truncated_payload_names_expected_and_actual(self):
        data = encode(SparseUpdate(10, [1, 2, 3], [1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match=r"expected 51 bytes.*got 50"):
            decode(data[:-1])

    def test_unsupported_version(self):
        data = bytearray(encode(SparseUpdate(4, [], [])))
        data[4] = 9
        with pytest.raises(ValueError, match="version 9 at offset 4"):
            decode(bytes(data))

    def test_non_increasing_indices_name_offset(self):
        good = encode(SparseUpdate(10, [2, 5], [1.0, 2.0]))
        bad = bytearray(good)
        # overwrite the second index (offset 27 + 4) with 1 < 2
        struct.pack_into("<I", bad, 31, 1)
        with pytest.raises(ValueError, match="offset 31"):
            decode(bytes(bad))

    def test_out_of_range_index_names_offset(self):
        good = encode(SparseUpdate(10, [2, 5], [1.0, 2.0]))
        bad = bytearray(good)
        struct.pack_into("<I", bad, 31, 10)  # == dim
        with pytest.raises(ValueError, match="offset 31"):
            decode(bytes(bad))


class TestCommBytes:
    """Communication is metered as encoded_size(entry count) per upload."""

    def test_three_identical_updates(self):
        u = SparseUpdate(1000, np.arange(100), np.ones(100))
        assert 3 * encoded_size(len(u)) == 3 * len(encode(u)) == 3 * (27 + 800) == 2481

    def test_empty_list(self):
        # empty index and value lists: the header is the whole message
        u = SparseUpdate(1000, [], [])
        assert len(encode(u)) == encoded_size(0) == HEADER_BYTES == 27

    def test_matches_actual_encode_lengths(self):
        rng = np.random.default_rng(4)
        updates = [random_update(rng) for _ in range(10)]
        assert ([encoded_size(len(u)) for u in updates]
                == [len(encode(u)) for u in updates])

    def test_payload_ratio_scales_with_rate(self):
        d = 100000
        v = np.random.default_rng(5).standard_normal(d)

        def payload(rate):
            keep = sparsify(v, SparsityPolicy("top_k", rate=rate))
            return len(encode(SparseUpdate(d, keep, v[keep]))) - HEADER_BYTES
        dense_payload, sparse_payload = payload(1.0), payload(0.1)
        assert sparse_payload / dense_payload == pytest.approx(0.1, abs=1e-9)
