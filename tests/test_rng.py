"""Keyed Philox streams: the key range and the batched draws."""

import numpy as np
import pytest
from numpy.random import Philox

from starflow.chain import _uniforms
from starflow.rng import make_rng, stream_rows
from starflow.walk import _fair_steps

KEYS = (0, 2**63, 2**64 - 1)


def _halves(words):
    return words.astype("<u8").view("<u4")


# name -> (words, the draw taken from them, the same draw of a generator)
DRAWS = {
    "random": (5, _uniforms, lambda rng: rng.random(5)),
    "integers": (4, lambda w: _fair_steps(w, 7),
                 lambda rng: rng.integers(0, 2, size=7, dtype=np.int64) * 2 - 1),
    # three 32-bit draws leave the second half of a 64-bit output buffered
    "odd_int32": (2, lambda w: _halves(w)[:3],
                  lambda rng: rng.integers(0, 2**32, size=3, dtype=np.uint32)),
    # a 64-bit draw after a 32-bit one takes the next word, not the buffered half
    "int32_then_random": (3, lambda w: np.append(_halves(w)[0], _uniforms(w[1:])),
                          lambda rng: np.append(rng.integers(0, 2**32, size=1, dtype=np.uint32),
                                                rng.random(2))),
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
        stream_rows(seed, [stream_id], 3)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        stream_rows(seed, [5, 2**64 - 1, stream_id, 7], 3)


def test_non_integer_keys_rejected():
    with pytest.raises(TypeError):
        make_rng(1.0, 0)
    with pytest.raises(TypeError):
        stream_rows(0, [1, 2.5], 3)


def test_odd_int32_draw_leaves_a_buffered_half():
    rng = make_rng(0, 0)
    DRAWS["odd_int32"][2](rng)
    assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
@pytest.mark.parametrize("seed", KEYS)
def test_stream_rows_equal_per_stream_draws(seed, draw):
    n_words, from_words, from_generator = draw
    ids = [*KEYS, 0, 2**63, 17, 17]
    for stream_ids in (ids, np.array(ids, dtype=np.uint64), range(3, 6)):
        words = stream_rows(seed, stream_ids, n_words)
        assert words.shape == (len(stream_ids), n_words) and words.dtype == np.uint64
        for row, stream_id in zip(words, stream_ids):
            rng = make_rng(seed, int(stream_id))
            assert np.array_equal(row, make_rng(seed, int(stream_id)).bit_generator
                                  .random_raw(n_words))
            assert np.array_equal(from_words(row), from_generator(rng))
    assert stream_rows(seed, [], n_words).shape == (0, n_words)


@pytest.mark.parametrize("count", [*range(1, 10), 999, 1000, 1001])
@pytest.mark.parametrize("seed, stream_id", [(0, 2**64 - 1), (2**63, 0), (2**64 - 1, 2**63)])
def test_word_uniforms_are_generator_random(seed, stream_id, count):
    # chain's marks take their uniforms from the words of their stream
    words = stream_rows(seed, [stream_id], count)[0]
    assert np.array_equal(_uniforms(words), make_rng(seed, stream_id).random(count))


@pytest.mark.parametrize("n_words", [0, 1, 7, 1001])
@pytest.mark.parametrize("seed", KEYS)
def test_stream_rows_are_fresh_generator_words(seed, n_words):
    # each row re-keys one Philox: edge ids, and ids repeated after others,
    # give the first words of a generator built for the stream alone
    ids = [2**64 - 1, 0, 2**63, 0, 2**64 - 1, 1]
    words = stream_rows(seed, ids, n_words)
    assert words.shape == (len(ids), n_words) and words.dtype == np.uint64
    for row, stream_id in zip(words, ids):
        fresh = Philox(key=np.array([seed, stream_id], dtype=np.uint64))
        assert np.array_equal(row, fresh.random_raw(n_words))
