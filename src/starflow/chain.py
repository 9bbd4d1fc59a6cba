"""Markov chains on the star-graph lattice.

Two transition laws appear.  A step draws a uniform u; d = +1 when u >= 1/2
and -1 otherwise.  The immediate-exit chain moves R <- |R + d|, because the
junction always exits; the lazy chain moves R <- max(R + d, 0), because a
down draw holds at the junction.  A junction exit takes ray i with
probability alpha_i (lazy: alpha_i / 2, from 2u - 1) by one clamped lookup
on ``RayParams.alpha_cumulative``.  ``simulate_chain_batch`` steps on the
stream's raw 64-bit words, from which u is (word >> 11) 2**-53, so d is the
word's top bit.  A step is a few in-place calls on the radii; a chain that
leaves the junction keeps its word, and the rays are looked up once, at the
end, from each chain's last exit word.

``flip_batch`` realizes the coupling that builds an immediate-exit chain M
from a walk S and its transform S-bar = T(S) by assigning an independent ray
mark to every excursion of the reflected path Y-bar.  M's radius is |S|, and
its ray follows one rule: from each block boundary tau_l on it is the block's
auxiliary mark, and one step after excursion i of Y-bar starts it is that
excursion's mark eta_i, carried forward and 0 at the junction.  The blocks
are classified by case (no excursion / one excursion, two sub-cases /
two excursions) from the tau positions and the excursion table.  The flip
reads S, S-bar, Y-bar and the taus from one ``cv.transform`` pass over a
(replicas, steps) batch, and the bound is a mask over the batch.  Past a
row's stop, the end of its last completed block, its ray is 0, no
transition is live and no excursion is kept.  So ``flip_batches`` reads
each row's stop off its walk (``cv.stops``), sorts a window of rows by
stop and flips them in batches of rows with near stops, each transformed
only up to its largest stop + 2.  The walks and both mark arrays come from
one re-keyed Philox per array (``rng.stream_rows``), as the words that
``Generator.integers(0, 2)`` and ``Generator.random`` turn into their steps
and uniforms, and each mark array is mapped to rays with one exit-ray
lookup.

The product chain eta . Y-bar (``oracles.flipped_product_chain``) is the
discrete flow of mappings started at the junction and driven by -S-bar, with
every departure inside excursion i given eta_i.  So the flip bound
d(M_n, eta_i Y-bar_n) <= 2 is the link from the chain stage to the flow
stage: the flipped chain stays within 2 of that flow.  One change-point
helper builds the ray of M and the marked path of the bound.  ``FlipBatch``
is the only flip result, and ``transition_counts`` counts the live
transitions of a batch of chains, the flipped ones and the product chain
alike.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import walk
from .cv import Transform, last_boundaries, stops, transform
from .graph import RayParams
from .rng import make_rng, stream_rows
from .walk import ExcursionTable, excursion_table, increment_rows, row_blocks


def _exit_ray(params: RayParams, u):
    """Ray 1..N of a junction exit for uniform(s) u: 1 + #{j < N : u >= c_j}
    over the cumulative edges c_j of alpha, the count that
    ``searchsorted(side="right")`` gives.  The last edge is skipped, so the
    ray clamps to N: the float sum can end just below 1.  The rays are in
    ``params.ray_dtype``, each edge added in place.
    """
    ray = np.ones(np.shape(u), dtype=params.ray_dtype)
    for edge in params.alpha_cumulative[:-1].tolist():
        ray += u >= edge
    return ray


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms ``Generator.random`` returns for 64-bit words: the top 53
    bits of each, (word >> 11) * 2**-53."""
    return (words >> 11) * 2.0 ** -53


def ray_mark_rows(params: RayParams, count: int, seed: int,
                  stream_ids: Sequence[int]) -> np.ndarray:
    """Row r holds count i.i.d. ray indices (1..N) with law alpha, one from
    the uniform of each of the first count words of stream stream_ids[r]
    (``rng.stream_rows``), looked up together.

    Marks are consumed in ordinal order, so a stream gives the same mark
    sequence regardless of how many are needed.
    """
    return _exit_ray(params, _uniforms(stream_rows(seed, stream_ids, count)))


def _step(radii: np.ndarray, last: np.ndarray, words: np.ndarray, d: np.ndarray,
          floor: np.ndarray | None) -> None:
    """Move chains at radii one step in place, one word each, with d = +-1
    the word's top bit; a chain that leaves the junction keeps its word in
    last.  With floor None this is the immediate-exit chain, R <- |R + d|;
    with floor an array of zeros, the lazy chain, R <- max(R + d, 0), which
    leaves only on an up draw, that is, where R < d."""
    leave = np.equal(radii, 0) if floor is None else np.less(radii, d)
    np.copyto(last, words, where=leave)
    radii += d
    if floor is None:
        np.abs(radii, out=radii)
    else:
        np.maximum(radii, floor, out=radii)


def _exit_rays(params: RayParams, last: np.ndarray, n_steps: int, lazy: bool) -> np.ndarray:
    """The exit rays of the last exit words' uniforms (lazy: of 2u - 1), and
    0 for a chain that never left: a lazy one keeps a word below 2**63, and
    an immediate-exit one leaves at its first step."""
    u = _uniforms(last)
    if lazy:
        u = (u - 0.5) * 2.0
    rays = _exit_ray(params, u)
    rays[u < 0 if lazy else n_steps == 0] = 0
    return rays


def _chain_states(n_steps: int, n_replicas: int, seed: int, stream_id: int,
                  lazy: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(last exit words, radii) of chains from the junction at time 0 and
    after each step, updated in place.  Step k takes the k-th n_replicas
    words of the stream, those of the k-th ``rng.random(n_replicas)``, drawn
    raw in blocks of at most ROW_BLOCK_STEPS; d = +1 where a word's top bit
    is set (u >= 1/2).  The radii take the least signed dtype holding n_steps."""
    bit_generator = make_rng(seed, stream_id).bit_generator
    dtype = np.min_scalar_type(-n_steps - 1)
    radii = np.zeros(n_replicas, dtype=dtype)
    last = np.zeros(n_replicas, dtype=np.uint64)
    floor = np.zeros_like(radii) if lazy else None
    yield last, radii
    for steps in row_blocks(n_steps, n_replicas):
        words = bit_generator.random_raw((steps.stop - steps.start, n_replicas))
        d = (words.view(np.int64) < 0).astype(dtype)
        d += d
        d -= 1
        for k in range(len(words)):
            _step(radii, last, words[k], d[k], floor)
            yield last, radii


def simulate_chain_batch(params: RayParams, n_steps: int, n_replicas: int, seed: int,
                         stream_id: int, lazy: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Final (rays, radii) of many independent chains, vectorized across
    replicas, as int64 arrays.  The rays are looked up once, from each
    chain's last exit word; a chain at the junction keeps its last exit's."""
    for last, radii in _chain_states(n_steps, n_replicas, seed, stream_id, lazy):
        pass
    return (_exit_rays(params, last, n_steps, lazy).astype(np.int64),
            radii.astype(np.int64))


# ---------------------------------------------------------------------------
# Excursion flipping
# ---------------------------------------------------------------------------

CASE_NO_EXCURSION = "i"
CASE_ONE_EARLY = "ii1"
CASE_ONE_LATE = "ii2"
CASE_TWO = "iii"
CASES = (CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE, CASE_TWO)


def _carry(shape: tuple[int, int], row, pos, marks) -> np.ndarray:
    """A (rows, width) array, in the dtype of marks, whose row r holds at
    each column the mark of row r's last change point (row[i], pos[i]) at or
    before it, and 0 before the first.  Change points at or past width are
    dropped; of change points at one place, the one listed last wins.  The
    dtype must hold the differences of the marks."""
    n_rows, width = shape
    row, pos, marks = np.asarray(row), np.asarray(pos), np.asarray(marks)
    inside = pos < width
    key = row[inside] * width + pos[inside]
    order = np.argsort(key, kind="stable")
    key, marks = key[order], marks[inside][order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    key, marks = key[last], marks[last]
    # each change point adds its mark less the one it replaces in its row
    step = marks.copy()
    step[1:] -= np.where(key[1:] // width == key[:-1] // width, marks[:-1], 0)
    carried = np.zeros((n_rows, width), dtype=step.dtype)
    np.put(carried, key, step)
    return np.cumsum(carried, axis=1, dtype=carried.dtype, out=carried)


@dataclass
class FlipBatch:
    """Flipped chains of R walks, as (R, W) arrays over the W columns of the
    transform pass ``t``: the walk length L, or for ``flip_batches``
    min(L, max(n_end) + 2), the columns up to the batch's last stop + 1.

    Row r holds S_0..S_W in ``t.s``, S-bar_0..S-bar_{W-1} in ``t.sbar`` and
    the block boundaries in ``t.is_tau``; ``ybar`` is the reflected path.
    ``rays`` and ``radii`` are the flipped chain M on [0, W - 1]; its ray is
    0 at the junction and after ``n_end[r]``, the end of the last completed
    block, where the chain stops.  ``exc`` is the excursion table of
    ``ybar`` and ``marks`` the ray mark of each entry.  ``block_row`` and
    ``cases`` give each completed block's row and case (an index into
    CASES), in row-major order.  The ray is built on first read from
    ``ray_changes``, its (row, column, mark) change points.  ``streams``
    holds each row's walk stream id (uint64) where the walks came from
    streams, as in ``flip_batches``.
    """

    t: Transform
    ybar: np.ndarray
    radii: np.ndarray
    n_end: np.ndarray
    exc: ExcursionTable
    marks: np.ndarray
    block_row: np.ndarray
    cases: np.ndarray
    ray_changes: tuple[np.ndarray, np.ndarray, np.ndarray]
    streams: np.ndarray | None = None

    @cached_property
    def rays(self) -> np.ndarray:
        """M's ray: the mark of the row's last change point, 0 at the
        junction and after n_end."""
        rays = _carry(self.radii.shape, *self.ray_changes)
        rays[(self.radii == 0) | (np.arange(rays.shape[1]) > self.n_end[:, None])] = 0
        return rays

    def bound_deviation(self) -> np.ndarray:
        """Per row, max over excursions i and times n in them of
        d(M_n, eta_i * Y-bar_n); excursions dropped with the truncated tail
        are left out."""
        kept = self.exc.end <= self.n_end[self.exc.row]
        start, end, marks = self.exc.start[kept], self.exc.end[kept], self.marks[kept]
        # eta_i on [start, end] of each kept excursion i, 0 elsewhere; the
        # reset after an excursion that ends at the last column is dropped
        mark = _carry(self.radii.shape, np.repeat(self.exc.row[kept], 2),
                      np.column_stack([start, end + 1]).ravel(),
                      np.column_stack([marks, np.zeros_like(marks)]).ravel())
        rays, radii, ybar = self.rays, self.radii, self.ybar
        same_ray = (rays == 0) | (rays == mark) | (ybar == 0)
        dev = np.where(same_ray, np.abs(radii - ybar), radii + ybar)
        return np.where(mark > 0, dev, 0).max(axis=1, initial=0)

    def exit_counts(self, params: RayParams) -> np.ndarray:
        """``transition_counts``'s junction exits per ray 1..N."""
        return _exits(params, self.rays, self.radii, self.n_end)

    def move_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """``transition_counts``'s (up_by_r, down_by_r); the ray is not read."""
        return _moves(self.radii, self.n_end)[1:]

def flip_batch(t: Transform, eta: np.ndarray, beta_aux: np.ndarray,
               streams: np.ndarray | None = None) -> FlipBatch:
    """Flip every row of the transform pass t of a batch of walks at once.

    eta[r, i - 1] is the ray mark of the i-th excursion of row r's reflected
    path and beta_aux[r, l] the auxiliary mark of its block l.  M's ray
    follows one rule: from tau_l on it is beta_aux[r, l], and one step after
    excursion i starts it is eta_i; it is carried forward, and set to 0
    where |S| = 0 and after n_end.  So on every kept excursion, from its
    start + 1, M is off the junction only on the ray eta_i, and the flip
    bound d(M_n, eta_i * Y-bar_n) <= 2 is the CV bound ||S_n| - Y-bar_n| <= 2.
    Each completed block is classified by how many excursions it holds and
    where the first one ends.  streams, the rows' stream ids, is kept as
    ``FlipBatch.streams``.
    """
    width = t.sbar.shape[1]
    ybar = t.runmax - t.sbar
    exc = excursion_table(ybar)
    is_tau = t.is_tau
    n_end = last_boundaries(is_tau)
    t_row, t_pos = np.nonzero(is_tau)
    t_ord = np.arange(len(t_row)) - np.searchsorted(t_row, t_row)
    # a tau opens a completed block when the next tau is in the same row
    opens = np.append(t_row[1:] == t_row[:-1], False)
    b_row, lo, hi = t_row[opens], t_pos[opens], t_pos[1:][opens[:-1]]
    if np.any(ybar[b_row, lo] != 0) or np.any(ybar[b_row, hi] != 0):
        raise AssertionError("reflected path must vanish at block ends")
    # an excursion lies in the block of the last tau at or before its start;
    # one that starts at or after n_end lies in no completed block
    t_of = np.searchsorted(t_row * width + t_pos, exc.row * width + exc.start,
                           side="right") - 1
    inside = np.flatnonzero(opens[t_of])
    t_in = t_of[inside]
    straddle = exc.end[inside] > t_pos[t_in + 1]
    if np.any(straddle):
        k = t_in[np.argmax(straddle)]
        raise AssertionError(f"excursion straddles block [{t_pos[k]}, {t_pos[k + 1]}]")
    block = (np.cumsum(opens) - 1)[t_in]
    count = np.bincount(block, minlength=len(lo))
    marks = eta[exc.row, exc.ordinal - 1]
    # first excursion of each block; the padding entry stands in where a
    # block has none
    start, end = np.append(exc.start, 0), np.append(exc.end, 0)
    e1 = np.append(inside, len(marks))[np.searchsorted(block, np.arange(len(lo)))]
    one = count == 1
    early = one & (end[e1] == hi - 2)
    late = one & (end[e1] == hi - 1)
    if np.any((count == 0) & (hi != lo + 2)):
        raise AssertionError("blocks without excursions must have length 2")
    if np.any(late & (start[e1] + 1 != lo + 2)):
        raise AssertionError("late-excursion block must switch at tau_l + 2")
    if np.any(one & ~early & ~late):
        raise AssertionError("single excursion must end at block end - 2 or - 1")
    if np.any(count > 2):
        raise AssertionError("a block holds at most two excursions")
    cases = np.select([count == 0, early, late], [0, 1, 2], 3)
    changes = (np.append(t_row, exc.row), np.append(t_pos, exc.start + 1),
               np.append(beta_aux[t_row, t_ord], marks))
    return FlipBatch(t, ybar, np.abs(t.s[:, :width]), n_end, exc, marks, b_row, cases,
                     changes, streams)


# row blocks of walks per window that ``flip_batches`` sorts by stop
FLIP_WINDOW_BLOCKS = 16


def flip_batches(params: RayParams, length: int, seed: int,
                 stream_ids: Sequence[int]) -> Iterator[FlipBatch]:
    """The flip realizations of the given streams, in batches of rows with
    near stops.

    For stream id k, the walk of `length` steps comes from stream k
    (``generate_walk``), the excursion marks eta from stream k + 1 and the
    block marks from stream k + 2 (``ray_mark_rows``).  The walks are drawn
    in windows of up to FLIP_WINDOW_BLOCKS row blocks (``row_blocks``), one
    ``increment_rows`` call per block, and a window's rows are sorted by
    stop, stably.  Past its stop a row counts nothing, and Y-bar needs the
    columns up to a stop + 1 to close the excursions that end by it, so a
    batch is flipped on the first w = min(length, largest stop + 2) columns
    of its rows, and it takes rows in stop order while rows x w stays
    within ROW_BLOCK_STEPS (one row at least).  ``FlipBatch.streams`` names
    each row's stream.  A block is dropped once its rows are gathered, and
    the generator keeps no array of a batch once it is yielded.
    """
    blocks = list(row_blocks(len(stream_ids), length))
    for i in range(0, len(blocks), FLIP_WINDOW_BLOCKS):
        window = blocks[i : i + FLIP_WINDOW_BLOCKS]
        steps = [increment_rows(length, seed, stream_ids[rows]) for rows in window]
        ids = np.array(stream_ids[window[0].start : window[-1].stop], dtype=np.uint64)
        per_block, left = len(steps[0]), [len(x) for x in steps]
        n_end = np.concatenate([stops(x) for x in steps])
        order = np.argsort(n_end, kind="stable")
        width = np.minimum(n_end[order] + 2, length)
        first = 0
        while first < len(order):
            # width does not decrease, so the rows that fit are a prefix
            fit = np.arange(1, len(order) - first + 1) * width[first:] <= walk.ROW_BLOCK_STEPS
            end = first + max(1, int(np.count_nonzero(fit)))
            rows = order[first:end]
            yield _flip_rows(params, seed, _gather(steps, left, *np.divmod(rows, per_block),
                                                   int(width[end - 1])), ids[rows])
            first = end


def _gather(steps: list, left: list[int], block: np.ndarray, row: np.ndarray,
            width: int) -> np.ndarray:
    """The first width steps of the rows row[i] of the row blocks
    steps[block[i]].  A block is dropped, its entry set to None, once none
    of its rows is left: left[b] counts block b's rows not yet gathered."""
    x = np.empty((len(block), width), dtype=np.int8)
    for b, count in zip(*(a.tolist() for a in np.unique(block, return_counts=True))):
        here = block == b
        x[here] = steps[b][row[here], :width]
        left[b] -= count
        if not left[b]:
            steps[b] = None
    return x


def _flip_rows(params: RayParams, seed: int, x: np.ndarray,
               streams: np.ndarray) -> FlipBatch:
    """The ``flip_batch`` of the walk steps x of the streams `streams`.

    Every excursion of Y-bar starts at a zero of Y-bar, and so does every
    block, at its tau, so each mark stream draws as many marks as the row
    with the most zeros has; marks are prefix-stable, so they do not depend
    on that count.  A random walk of n steps has on the order of sqrt(n)
    zeros.
    """
    t = transform(x)
    n_marks = int(np.count_nonzero(t.sbar == t.runmax, axis=1).max())
    eta, beta_aux = (ray_mark_rows(params, n_marks, seed, [k + j for k in streams.tolist()])
                     for j in (1, 2))
    return flip_batch(t, eta, beta_aux, streams)


def _stop_width(n_end: np.ndarray) -> int:
    """The columns 0..max(n_end) of a batch whose row r stops at n_end[r]:
    past them no row has a live transition."""
    return int(n_end.max(initial=0)) + 1


def _exits(params: RayParams, rays: np.ndarray, radii: np.ndarray,
           n_end: np.ndarray) -> np.ndarray:
    """Junction exits per ray 1..N over the live transitions."""
    width = _stop_width(n_end)
    live = np.arange(1, width) <= n_end[:, None]
    exits = live & (radii[:, : width - 1] == 0) & (radii[:, 1:width] > 0)
    return np.bincount(rays[:, 1:width][exits], minlength=params.N + 1)[1:]


def _moves(radii: np.ndarray, n_end: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(junction holds, up_by_r, down_by_r) over the live transitions.

    Away from the junction a chain moves its radius by +-1, so one count of
    2 R + (up) over the live transitions gives every cell: 0 a hold, 1 an
    exit, 2 r + 1 and 2 r a move up and down from radius r >= 1.  The
    counts run to the largest radius up to the last stop.
    """
    width = _stop_width(n_end)
    radii = radii[:, :width]
    live = np.arange(1, width) <= n_end[:, None]
    before, after = radii[:, :-1], radii[:, 1:]
    moves = np.bincount((2 * before + (after > before))[live],
                        minlength=2 * int(radii.max(initial=0)) + 2)
    up_by_r, down_by_r = moves[1::2].copy(), moves[::2].copy()
    up_by_r[0] = down_by_r[0] = 0
    return int(moves[0]), up_by_r, down_by_r


def transition_counts(params: RayParams, rays: np.ndarray, radii: np.ndarray,
                      n_end: np.ndarray) -> dict:
    """Transition counts of R chains given as (R, L) rays and radii, over
    the live transitions k -> k + 1 with k + 1 <= n_end[r]: junction holds,
    junction exits per ray 1..N, and interior up and down moves by the
    radius they leave (``up_by_r`` and ``down_by_r`` have one length, up to
    the largest radius by the last stop).  Only the columns up to the last
    stop are read.
    """
    hold, up_by_r, down_by_r = _moves(radii, n_end)
    return {"hold": hold, "exits": _exits(params, rays, radii, n_end),
            "up_by_r": up_by_r, "down_by_r": down_by_r}
