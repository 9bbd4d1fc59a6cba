"""Counter-based random streams.

Every stochastic object in the package draws from a Philox generator keyed
by (seed, stream_id).  Philox is counter-based, so identical keys reproduce
identical draws bit-for-bit on any platform, and distinct stream ids give
statistically independent streams that can be generated in parallel.  Each
half of the key is one 64-bit word, so seeds and stream ids lie in
[0, 2^64).

``stream_rows`` draws one row from each of many streams.  It re-keys one
Philox per stream instead of building a generator each: a new generator
also builds (and discards) a seed sequence from OS entropy, which costs more
than the short draws of a replica.

numpy.random is imported with this module, which numpy would otherwise do
on the first draw, inside a run.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable

import numpy as np
from numpy.random import Generator, Philox


def _key(seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of the (seed, stream_id) stream, as a uint64 pair."""
    words = operator.index(seed), operator.index(stream_id)
    for name, word in zip(("seed", "stream_id"), words):
        if not 0 <= word < 2**64:
            raise ValueError(f"{name}: need 0 <= {name} < 2**64, got {word}")
    return np.array(words, dtype=np.uint64)


def make_rng(seed: int, stream_id: int = 0) -> Generator:
    """Return a Generator for the (seed, stream_id) stream."""
    return Generator(Philox(key=_key(seed, stream_id)))


def stream_rows(seed: int, stream_ids: Iterable[int],
                draw: Callable[[Generator], np.ndarray]) -> np.ndarray:
    """Row r is ``draw(make_rng(seed, stream_ids[r]))``, stacked.

    One Philox serves every stream.  Before each draw its state is reset to
    that of a new (seed, stream_id) generator: the key, a zero counter, an
    empty output buffer and no buffered 32-bit half.
    """
    bit_generator = Philox(key=_key(seed, 0))
    rng = Generator(bit_generator)
    fresh = bit_generator.state
    rows = []
    for stream_id in stream_ids:
        fresh["state"]["key"] = _key(seed, stream_id)
        bit_generator.state = fresh
        rows.append(draw(rng))
    return np.stack(rows)
