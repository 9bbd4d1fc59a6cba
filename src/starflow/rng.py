"""Counter-based random streams.

Every stochastic object in the package draws from a Philox generator keyed
by (seed, stream_id).  Philox is counter-based, so identical keys reproduce
identical draws bit-for-bit on any platform, and distinct stream ids give
statistically independent streams that can be generated in parallel.  Each
half of the key is one 64-bit word, so seeds and stream ids lie in
[0, 2^64).

A stream is a fixed sequence of 64-bit words, and numpy's draws are fixed
functions of them (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011, for the counter-based design).  ``stream_rows`` hands out the
first words of many streams at once: it re-keys one Philox per stream
instead of building a generator each, since a new generator also builds (and
discards) a seed sequence from OS entropy, which costs more than the short
draws of a replica.  ``walk`` and ``chain`` turn the words into steps and
uniforms exactly as ``Generator.integers(0, 2)`` and ``Generator.random``
would.  The long draws of one stream, ``walk.increment_blocks`` and
``chain.simulate_chain_batch``, read raw words block by block from the bit
generator of ``make_rng``.

numpy.random is imported with this module, which numpy would otherwise do
on the first draw, inside a run.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

import numpy as np
from numpy.random import Generator, Philox


def _keys(seed: int, stream_ids: Iterable[int]) -> np.ndarray:
    """The Philox keys of the (seed, stream_id) streams, one uint64 pair per
    row; ValueError unless every word lies in [0, 2**64)."""
    seed = operator.index(seed)
    ids = np.asarray(stream_ids)
    if ids.dtype.kind not in "iu":  # ints past int64 arrive as floats or objects
        ids = np.array([operator.index(i) for i in stream_ids], dtype=object)
    words = ids.tolist()
    for name, low, high in (("seed", seed, seed),
                            ("stream_id", min(words, default=0), max(words, default=0))):
        if low < 0 or high >= 2**64:
            raise ValueError(f"{name}: need 0 <= {name} < 2**64, "
                             f"got {low if low < 0 else high}")
    keys = np.empty((len(ids), 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = ids
    return keys


def make_rng(seed: int, stream_id: int = 0) -> Generator:
    """Return a Generator for the (seed, stream_id) stream."""
    return Generator(Philox(key=_keys(seed, [stream_id])[0]))


def stream_rows(seed: int, stream_ids: Iterable[int], n_words: int) -> np.ndarray:
    """A (len(stream_ids), n_words) uint64 array whose row r holds the first
    n_words 64-bit outputs of the (seed, stream_ids[r]) stream.

    One Philox serves every stream.  Before each row its state is reset to
    that of a new generator of the stream: the key, a zero counter and an
    empty output buffer.  The state is set from Python ints, which the
    setter takes in less than half the time of uint64 arrays.
    """
    keys = _keys(seed, stream_ids)
    out = np.empty((len(keys), n_words), dtype=np.uint64)
    if not len(keys):
        return out
    bit_generator = Philox(key=keys[0])
    state = bit_generator.state
    fresh = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
             "buffer": state["buffer"].tolist()}
    for r, key in enumerate(keys.tolist()):
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        out[r] = bit_generator.random_raw(n_words)
    return out
