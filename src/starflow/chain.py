"""Markov chains on the star-graph lattice.

Two transition laws appear:

* the immediate-exit chain: from the junction, exit on ray i with
  probability alpha_i; from radius n >= 1, move +-1 with probability 1/2;
* the lazy chain: hold at the junction with probability 1/2, exit on ray i
  with probability alpha_i / 2, identical away from the junction.

``flip_batch`` realizes the coupling that builds an immediate-exit chain
from a transformed walk pair (S, S-bar) by assigning an independent ray mark
to every excursion of the reflected path, following the block case analysis
(no excursion / one excursion, two sub-cases / two excursions).  It flips a
(replicas, steps) batch in one array pass: the blocks are classified from
the tau positions and the excursion table, the ray is set at its change
points and carried forward, and the bound and the proof facts are masks
over the batch.  ``flip_batches`` draws replicas in batches of bounded size;
``flip_excursions``, ``flip_bound_deviation`` and ``check_proof_facts`` are
its one-row cases.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .cv import cv_forward, cv_forward_increments, reflected_path
from .errors import NotAPreimageError
from .graph import GraphPoint, RayParams, point
from .rng import make_rng
from .walk import (Excursion, ExcursionTable, WalkWindow, excursion_table, excursions,
                   generate_walk, random_increments)


def _alpha_cum(params: RayParams) -> np.ndarray:
    return np.cumsum([float(a) for a in params.alpha])


def draw_ray_marks(params: RayParams, count: int, seed: int, stream_id: int) -> np.ndarray:
    """i.i.d. ray indices (1..N) with law alpha from a dedicated stream.

    Marks are consumed in ordinal order, so the same (seed, stream_id)
    reproduces the same mark sequence regardless of how many are needed.
    """
    rng = make_rng(seed, stream_id)
    u = rng.random(count)
    return np.searchsorted(_alpha_cum(params), u, side="right") + 1


@dataclass
class ChainPath:
    """A lattice path on the graph: ray index (junction entries ignored) and
    integer radius per time step."""

    params: RayParams
    rays: np.ndarray
    radii: np.ndarray

    def __len__(self):
        return len(self.radii)


def step_chain(params: RayParams, x: GraphPoint, u: float, lazy: bool = False) -> GraphPoint:
    """One transition from x given a uniform draw u in [0, 1)."""
    if x.radius == 0:
        if lazy:
            if u < 0.5:
                return x
            u = (u - 0.5) * 2.0
        ray = int(np.searchsorted(_alpha_cum(params), u, side="right")) + 1
        return point(min(ray, params.N), 1, params.N)
    delta = 1 if u >= 0.5 else -1
    return point(x.ray, x.radius + delta, params.N)


def simulate_chain(params: RayParams, n_steps: int, seed: int, stream_id: int,
                   lazy: bool = False) -> ChainPath:
    """A single chain path started at the junction."""
    rng = make_rng(seed, stream_id)
    u = rng.random(n_steps)
    rays = np.zeros(n_steps + 1, dtype=np.int64)
    radii = np.zeros(n_steps + 1, dtype=np.int64)
    cum = _alpha_cum(params)
    for k in range(n_steps):
        if radii[k] == 0:
            v = u[k]
            if lazy:
                if v < 0.5:
                    continue  # rays/radii already zero at k+1
                v = (v - 0.5) * 2.0
            rays[k + 1] = min(int(np.searchsorted(cum, v, side="right")) + 1, params.N)
            radii[k + 1] = 1
        else:
            rays[k + 1] = rays[k]
            radii[k + 1] = radii[k] + (1 if u[k] >= 0.5 else -1)
    return ChainPath(params, rays, radii)


def simulate_chain_batch(params: RayParams, n_steps: int, n_replicas: int, seed: int,
                         stream_id: int, lazy: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Final (rays, radii) of many independent chains, vectorized across replicas."""
    rng = make_rng(seed, stream_id)
    rays = np.zeros(n_replicas, dtype=np.int64)
    radii = np.zeros(n_replicas, dtype=np.int64)
    cum = _alpha_cum(params)
    for _ in range(n_steps):
        u = rng.random(n_replicas)
        at0 = radii == 0
        if lazy:
            move = ~at0 | (u >= 0.5)
            v = np.where(at0, (u - 0.5) * 2.0, u)
        else:
            move = np.ones(n_replicas, dtype=bool)
            v = u
        exit0 = at0 & move
        new_rays = np.minimum(np.searchsorted(cum, v[exit0], side="right") + 1, params.N)
        rays[exit0] = new_rays
        radii[exit0] = 1
        interior = ~at0
        radii[interior] += np.where(u[interior] >= 0.5, 1, -1)
    return rays, radii


# ---------------------------------------------------------------------------
# Excursion flipping
# ---------------------------------------------------------------------------

CASE_NO_EXCURSION = "i"
CASE_ONE_EARLY = "ii1"
CASE_ONE_LATE = "ii2"
CASE_TWO = "iii"
CASES = (CASE_NO_EXCURSION, CASE_ONE_EARLY, CASE_ONE_LATE, CASE_TWO)

# the most walk steps one batch of flip_batches holds: 1 MiB per int64 array
FLIP_BATCH_STEPS = 2 ** 17


@dataclass
class FlipResult:
    """Output of ``flip_excursions``: the chain, the block structure, the
    excursion list of the reflected path, and whether a trailing partial
    block was truncated."""

    chain: ChainPath
    taus: np.ndarray                      # tau_0 = 0 included; completed blocks only
    block_cases: list[str]
    excursion_list: list[Excursion]
    truncated: bool


def _path_values(increments: np.ndarray) -> np.ndarray:
    """Values 0, S_1, ..., S_n of each row of a (R, n) increment batch."""
    values = np.zeros((increments.shape[0], increments.shape[1] + 1), dtype=np.int64)
    np.cumsum(increments, axis=1, out=values[:, 1:])
    return values


def _tau_mask(s: np.ndarray) -> np.ndarray:
    """(R, n) block boundaries of walks with values S_0..S_n per row:
    tau_0 = 0 and every i in [1, n - 1] with S_{i-1} S_{i+1} < 0."""
    is_tau = np.ones((s.shape[0], s.shape[1] - 1), dtype=bool)
    is_tau[:, 1:] = s[:, :-2] * s[:, 2:] < 0
    return is_tau


def _last_tau(is_tau: np.ndarray) -> np.ndarray:
    """Per row, the last block boundary: where the flipped chain stops."""
    return is_tau.shape[1] - 1 - np.argmax(is_tau[:, ::-1], axis=1)


@dataclass
class FlipBatch:
    """Flipped chains of R transform pairs of one length, as (R, L) arrays.

    Row r holds S_0..S_L in ``s``, S-bar_0..S-bar_{L-1} in ``sbar`` and the
    reflected path in ``ybar``.  ``rays`` and ``radii`` are the flipped chain
    M on [0, L - 1]; its ray is 0 at the junction and after ``n_end[r]``, the
    end of the last completed block, where the chain stops.  ``is_tau``
    marks the block boundaries.  ``exc`` is the excursion table of ``ybar``
    and ``marks`` the ray mark of each entry.  ``block_row`` and ``cases``
    give each completed block's row and case (an index into CASES), in
    row-major order.
    """

    params: RayParams
    s: np.ndarray
    sbar: np.ndarray
    ybar: np.ndarray
    rays: np.ndarray
    radii: np.ndarray
    is_tau: np.ndarray
    n_end: np.ndarray
    exc: ExcursionTable
    marks: np.ndarray
    block_row: np.ndarray
    cases: np.ndarray

    def result(self, r: int) -> FlipResult:
        """Row r, as ``flip_excursions`` returns it."""
        n = int(self.n_end[r])
        own = self.exc.row == r
        excs = [Excursion(*e) for e in zip(self.exc.start[own].tolist(),
                                           self.exc.end[own].tolist(),
                                           self.exc.ordinal[own].tolist())]
        cases = [CASES[c] for c in self.cases[self.block_row == r].tolist()]
        chain = ChainPath(self.params, self.rays[r, : n + 1], self.radii[r, : n + 1])
        return FlipResult(chain, np.flatnonzero(self.is_tau[r]), cases, excs,
                          n < self.rays.shape[1] - 1)

    def bound_deviation(self) -> np.ndarray:
        """``flip_bound_deviation`` of every row."""
        kept = self.exc.end <= self.n_end[self.exc.row]
        return _bound_deviation(self.rays, self.radii, self.ybar, self.exc.row[kept],
                                self.exc.start[kept], self.exc.end[kept],
                                self.marks[kept])

    def exit_counts(self) -> np.ndarray:
        """Junction exits per ray 1..N, summed over the rows' chains."""
        r = self.radii
        live = np.arange(1, r.shape[1]) <= self.n_end[:, None]
        exits = live & (r[:, :-1] == 0) & (r[:, 1:] == 1)
        return np.bincount(self.rays[:, 1:][exits], minlength=self.params.N + 1)[1:]

    def proof_fact_violations(self) -> np.ndarray:
        """``check_proof_facts`` of every row."""
        return _proof_fact_violations(self.s, self.sbar, self.ybar, self.is_tau,
                                      self.n_end)


def flip_batch(s: np.ndarray, sbar: np.ndarray, eta: np.ndarray,
               beta_aux: np.ndarray, params: RayParams) -> FlipBatch:
    """Flip every row of a batch of transform pairs at once.

    s (R, L + 1) and sbar (R, L) hold the values of walks S and of their
    transforms S-bar = T(S); the caller guarantees the pairing.
    eta[r, i - 1] is the ray mark of the i-th excursion of row r's reflected
    path and beta_aux[r, l] the auxiliary mark of its block l.  Each block
    is classified by how many excursions it holds and where they end; the
    ray is set where it changes (at tau_l, and at the first zero of S inside
    the block in the late-excursion and two-excursion cases) and carried
    forward.
    """
    n_rows, length = sbar.shape
    ybar = reflected_path(sbar)
    exc = excursion_table(ybar)
    is_tau = _tau_mask(s)
    n_end = _last_tau(is_tau)
    t_row, t_pos = np.nonzero(is_tau)
    # a tau opens a completed block when the next tau is in the same row
    opens = np.append(t_row[1:] == t_row[:-1], False)
    b_row, lo, hi = t_row[opens], t_pos[opens], t_pos[1:][opens[:-1]]
    b_ord = (np.arange(len(t_row)) - np.searchsorted(t_row, t_row))[opens]
    if np.any(ybar[b_row, lo] != 0) or np.any(ybar[b_row, hi] != 0):
        raise AssertionError("reflected path must vanish at block ends")
    # an excursion lies in the block of the last tau at or before its start;
    # one that starts at or after n_end lies in no completed block
    width = length + 1
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
    # first and second excursion of each block; the padding entry stands in
    # where a block has fewer
    start, end, mark = (np.append(a, 0) for a in (exc.start, exc.end, marks))
    at = np.searchsorted(block, np.arange(len(lo)))
    padded = np.append(inside, len(marks))
    e1, e2 = padded[at], padded[np.minimum(at + 1, len(inside))]
    one = count == 1
    early = one & (end[e1] == hi - 2)
    late = one & (end[e1] == hi - 1)
    two = count == 2
    if np.any((count == 0) & (hi != lo + 2)):
        raise AssertionError("blocks without excursions must have length 2")
    if np.any(late & (start[e1] + 1 != lo + 2)):
        raise AssertionError("late-excursion block must switch at tau_l + 2")
    if np.any(one & ~early & ~late):
        raise AssertionError("single excursion must end at block end - 2 or - 1")
    if np.any(count > 2):
        raise AssertionError("a block holds at most two excursions")
    cases = np.select([count == 0, early, late], [0, 1, 2], 3)
    switch = late | two
    first_ray = np.where((count == 0) | late, beta_aux[b_row, b_ord], mark[e1])
    t_star = np.where(late, start[e1], start[e2]) + 1
    second_ray = np.where(late, mark[e1], mark[e2])
    # change points in row-major order: lo, then t_star where the ray switches
    ch_row = np.column_stack([b_row, b_row]).ravel()
    ch_pos = np.column_stack([lo, t_star]).ravel()
    ch_ray = np.column_stack([first_ray, second_ray]).ravel()
    keep = np.column_stack([np.ones_like(switch), switch]).ravel()
    ch_row, ch_pos, ch_ray = ch_row[keep], ch_pos[keep], ch_ray[keep]
    prev = np.zeros_like(ch_ray)
    prev[1:] = np.where(ch_row[1:] == ch_row[:-1], ch_ray[:-1], 0)
    rays = np.zeros((n_rows, length), dtype=np.int64)
    rays[ch_row, ch_pos] = ch_ray - prev
    np.cumsum(rays, axis=1, out=rays)
    radii = np.abs(s[:, :length])
    rays[(radii == 0) | (np.arange(length) > n_end[:, None])] = 0
    return FlipBatch(params, s, sbar, ybar, rays, radii, is_tau, n_end, exc, marks,
                     b_row, cases)


def flip_excursions(s_bar: WalkWindow, s: WalkWindow, eta: np.ndarray,
                    beta_aux: np.ndarray, params: RayParams) -> FlipResult:
    """Build the flipped chain M from a transform pair (S-bar, S) and marks.

    eta[i-1] is the ray mark of the i-th excursion of the reflected path;
    beta_aux[l] is the auxiliary mark of block l.  M_n = (mark ray) * |S_n|
    on each block, with the mark switching at the first zero of S inside the
    block in the late-excursion and two-excursion cases.  The one-row case
    of ``flip_batch``.
    """
    if not np.array_equal(cv_forward_increments(s.increments), s_bar.increments):
        raise NotAPreimageError("cv_forward(S) != S_bar")
    batch = flip_batch(s.values[None], s_bar.values[None], np.asarray(eta)[None],
                       np.asarray(beta_aux)[None], params)
    return batch.result(0)


def flip_realization(params: RayParams, length: int, seed: int,
                     stream_id: int) -> tuple[FlipResult, WalkWindow, WalkWindow, np.ndarray]:
    """(flipped chain, S, S-bar, eta) for a walk S of the given length.

    S comes from stream stream_id, the excursion marks eta from stream_id + 1
    and the block marks from stream_id + 2.  Both mark streams give `length`
    marks, more than there are excursions or blocks; marks are prefix-stable,
    so eta's first entries do not depend on that count.
    """
    s = generate_walk(0, length, seed, stream_id)
    s_bar = cv_forward(s)
    eta = draw_ray_marks(params, length, seed, stream_id + 1)
    beta_aux = draw_ray_marks(params, length, seed, stream_id + 2)
    return flip_excursions(s_bar, s, eta, beta_aux, params), s, s_bar, eta


def flip_batches(params: RayParams, length: int, seed: int,
                 stream_ids: Sequence[int]) -> Iterator[FlipBatch]:
    """The flip realizations of the given streams, drawn as
    ``flip_realization`` draws them, in batches of at most
    FLIP_BATCH_STEPS walk steps (and at least one replica)."""
    rows = max(1, FLIP_BATCH_STEPS // length)
    for i in range(0, len(stream_ids), rows):
        ids = stream_ids[i : i + rows]
        incs = np.stack([random_increments(length, seed, sid) for sid in ids])
        eta = np.stack([draw_ray_marks(params, length, seed, sid + 1) for sid in ids])
        beta_aux = np.stack([draw_ray_marks(params, length, seed, sid + 2) for sid in ids])
        yield flip_batch(_path_values(incs), _path_values(cv_forward_increments(incs)),
                         eta, beta_aux, params)


def _bound_deviation(rays, radii, ybar, row, start, end, marks) -> np.ndarray:
    """Per row, the max over the listed excursions [start, end] of the row,
    and the times n in them, of d(M_n, mark * Y-bar_n)."""
    n_rows, width = rays.shape
    mark = np.zeros((n_rows, width + 1), dtype=np.int64)
    mark[row, start] = marks
    mark[row, end + 1] -= marks
    np.cumsum(mark, axis=1, out=mark)
    mark = mark[:, :width]
    same_ray = (rays == 0) | (rays == mark) | (ybar == 0)
    dev = np.where(same_ray, np.abs(radii - ybar), radii + ybar)
    return np.where(mark > 0, dev, 0).max(axis=1, initial=0)


def flip_bound_deviation(result: FlipResult, s_bar: WalkWindow, eta: np.ndarray) -> int:
    """max over excursions i and times n in them of d(M_n, eta_i * Y-bar_n).

    Excursions dropped with the truncated tail are left out.  The one-row
    case of ``FlipBatch.bound_deviation``.
    """
    chain = result.chain
    n = len(chain.radii)
    kept = np.array([(e.start, e.end, e.ordinal - 1) for e in result.excursion_list
                     if e.end < n], dtype=np.intp).reshape(-1, 3)
    ybar = reflected_path(s_bar.values)[:n]
    start, end, index = kept.T
    return int(_bound_deviation(chain.rays[None], chain.radii[None], ybar[None],
                                np.zeros_like(start), start, end,
                                np.asarray(eta)[index])[0])


def flipped_product_chain(s_bar: WalkWindow, eta: np.ndarray, params: RayParams) -> ChainPath:
    """The chain eta . Y-bar: ray mark eta_i inside the i-th excursion,
    junction wherever the reflected path is zero.  Its transition law is the
    lazy matrix.  Times after the last complete excursion are dropped."""
    ybar = reflected_path(s_bar.values)
    exc = excursions(ybar)
    covered_to = len(ybar)
    if exc:
        last_end = exc[-1].end
    else:
        last_end = -1
    tail_pos = np.nonzero(ybar > 0)[0]
    open_tail = tail_pos[tail_pos > last_end]
    if open_tail.size:
        covered_to = int(open_tail[0])  # keep [0, first uncovered positive - 1]
    radii = ybar[:covered_to].copy()
    rays = np.zeros(covered_to, dtype=np.int64)
    for e in exc:
        if e.end < covered_to:
            rays[e.start : e.end + 1] = eta[e.ordinal - 1]
    rays[radii == 0] = 0
    return ChainPath(params, rays, radii)


def transition_counts(chain: ChainPath) -> dict:
    """Counts of junction holds, junction exits per ray, and interior up/down."""
    radii = chain.radii
    rays = chain.rays
    at0 = radii[:-1] == 0
    hold = int(np.sum(at0 & (radii[1:] == 0)))
    exit_mask = at0 & (radii[1:] == 1)
    exit_rays = rays[1:][exit_mask]
    exits = np.bincount(exit_rays, minlength=chain.params.N + 1)[1:]
    interior = radii[:-1] >= 1
    up_mask = interior & (radii[1:] > radii[:-1])
    down_mask = interior & (radii[1:] < radii[:-1])
    up = int(np.sum(up_mask))
    down = int(np.sum(down_mask))
    max_r = int(radii.max(initial=0))
    up_by_r = np.bincount(radii[:-1][up_mask], minlength=max_r + 1)
    down_by_r = np.bincount(radii[:-1][down_mask], minlength=max_r + 1)
    return {"hold": hold, "exits": exits, "up": up, "down": down,
            "up_by_r": up_by_r, "down_by_r": down_by_r}


def _proof_fact_violations(s, sbar, ybar, is_tau, n_end) -> np.ndarray:
    """Per row, the violations of the facts in ``check_proof_facts``."""
    cols = np.arange(sbar.shape[1])
    last = n_end[:, None]
    after = s[:, 1:]  # S_{k+1} in column k
    # (a) at k = j + 1 for every j strictly inside block l = #(taus <= j) - 1
    l = np.cumsum(is_tau, axis=1) - 1
    bad_a = ~is_tau & (cols < last) & ((sbar == 2 * l + 1) != (after == 0))
    # (b) at every k of every block [tau_l, tau_{l+1}]: a tau between two
    # blocks is checked once for each
    bad_b = ((ybar == 0) & (np.abs(after) > 1)).astype(np.int64) + \
        ((after == 0) & (ybar != 0))
    checks = ((cols <= last) & (last > 0)) + (is_tau & (cols > 0) & (cols < last))
    return bad_a.sum(axis=1) + (bad_b * checks).sum(axis=1)


def check_proof_facts(s: WalkWindow, s_bar: WalkWindow) -> int:
    """Pathwise facts used in the flipping proof; returns violation count.

    (a) for k in [tau_l + 2, tau_{l+1}]: S-bar_{k-1} = 2l + 1  iff  S_k = 0;
    (b) for k in [tau_l, tau_{l+1}]: Y-bar_k = 0 implies |S_{k+1}| <= 1, and
        S_{k+1} = 0 implies Y-bar_k = 0.
    The one-row case of ``FlipBatch.proof_fact_violations``.
    """
    s_vals = s.values[None]
    sbar = s_bar.values[None]
    is_tau = _tau_mask(s_vals)
    return int(_proof_fact_violations(s_vals, sbar, reflected_path(sbar), is_tau,
                                      _last_tau(is_tau))[0])
