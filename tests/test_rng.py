"""Keyed Philox streams: the key range and the batched draws."""

import numpy as np
import pytest

from starflow.rng import make_rng, stream_rows

KEYS = (0, 2**63, 2**64 - 1)

DRAWS = {
    "random": lambda rng: rng.random(5),
    "integers": lambda rng: rng.integers(0, 2, size=7, dtype=np.int64),
    # three 32-bit draws leave the second half of a 64-bit output buffered
    "odd_int32": lambda rng: rng.integers(0, 1000, size=3, dtype=np.int32),
    "int32_then_random": lambda rng: np.append(
        rng.integers(0, 1000, size=1, dtype=np.int32), rng.random(2)),
}


def test_keys_below_2_63_keep_their_streams():
    # values drawn with the earlier list-valued key, which was exact below 2**63
    assert make_rng(2**63 - 1, 2**62).integers(0, 2**32, size=4).tolist() == \
        [2400756497, 732669456, 3299425929, 2291678378]
    assert make_rng(2**62 + 3, 7).random(2).tolist() == \
        [0.6549379811407532, 0.03553692837350919]


def test_keys_at_or_above_2_63_are_distinct():
    draws = {key: make_rng(key, 0).random(3).tolist() for key in (0, 2**63, 2**63 + 1, 2**64 - 1)}
    assert len({tuple(d) for d in draws.values()}) == len(draws)
    assert make_rng(5, 2**63).random(3).tolist() != make_rng(5, 2**63 + 1).random(3).tolist()


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_out_of_range_keys_rejected(seed, stream_id):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        make_rng(seed, stream_id)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        stream_rows(seed, [stream_id], DRAWS["random"])


def test_odd_int32_draw_leaves_a_buffered_half():
    rng = make_rng(0, 0)
    DRAWS["odd_int32"](rng)
    assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
@pytest.mark.parametrize("seed", KEYS)
def test_stream_rows_equal_per_stream_draws(seed, draw):
    ids = [*KEYS, 0, 2**63, 17, 17]
    rows = stream_rows(seed, ids, draw)
    assert rows.shape[0] == len(ids)
    for row, stream_id in zip(rows, ids):
        expected = draw(make_rng(seed, stream_id))
        assert row.dtype == expected.dtype
        assert np.array_equal(row, expected)

