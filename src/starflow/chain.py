"""Markov chains on the star-graph lattice.

Two transition laws appear:

* the immediate-exit chain: from the junction, exit on ray i with
  probability alpha_i; from radius n >= 1, move +-1 with probability 1/2;
* the lazy chain: hold at the junction with probability 1/2, exit on ray i
  with probability alpha_i / 2, identical away from the junction.

``flip_excursions`` realizes the coupling that builds an immediate-exit
chain from a transformed walk pair (S, S-bar) by assigning an independent
ray mark to every excursion of the reflected path, following the block case
analysis (no excursion / one excursion, two sub-cases / two excursions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cv import cv_forward, cv_forward_increments, reflected_path, tau_sequence
from .errors import NotAPreimageError
from .graph import GraphPoint, RayParams, point
from .rng import make_rng
from .walk import Excursion, WalkWindow, excursions, generate_walk


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


def _excursions_in_block(exc: list[Excursion], lo: int, hi: int) -> list[Excursion]:
    inside = [e for e in exc if lo <= e.start and e.end <= hi]
    straddle = [e for e in exc if (e.start < lo < e.end) or (e.start < hi < e.end)]
    if straddle:
        raise AssertionError(f"excursion straddles block [{lo}, {hi}]")
    return inside


def flip_excursions(s_bar: WalkWindow, s: WalkWindow, eta: np.ndarray,
                    beta_aux: np.ndarray, params: RayParams) -> FlipResult:
    """Build the flipped chain M from a transform pair (S-bar, S) and marks.

    eta[i-1] is the ray mark of the i-th excursion of the reflected path;
    beta_aux[l] is the auxiliary mark of block l.  M_n = (mark ray) * |S_n|
    on each block, with the mark switching at the first zero of S inside the
    block in the late-excursion and two-excursion cases.
    """
    if not np.array_equal(cv_forward_increments(s.increments), s_bar.increments):
        raise NotAPreimageError("cv_forward(S) != S_bar")
    sbar_vals = s_bar.values
    s_vals = s.values
    ybar = reflected_path(sbar_vals)
    exc = excursions(ybar)
    taus_all = np.concatenate([[0], tau_sequence(s_vals)])
    m = len(sbar_vals) - 1  # last index of S-bar / Y-bar
    complete = taus_all[taus_all <= m]
    n_end = int(complete[-1])  # chain stops at the last completed block
    truncated = n_end < m
    rays = np.zeros(n_end + 1, dtype=np.int64)
    cases: list[str] = []
    for l in range(len(complete) - 1):
        lo, hi = int(complete[l]), int(complete[l + 1])
        if ybar[lo] != 0 or ybar[hi] != 0:
            raise AssertionError("reflected path must vanish at block ends")
        inside = _excursions_in_block(exc, lo, hi)
        if len(inside) == 0:
            if hi != lo + 2:
                raise AssertionError("blocks without excursions must have length 2")
            rays[lo : hi + 1] = beta_aux[l]
            cases.append(CASE_NO_EXCURSION)
        elif len(inside) == 1:
            e = inside[0]
            if e.end == hi - 2:
                rays[lo : hi + 1] = eta[e.ordinal - 1]
                cases.append(CASE_ONE_EARLY)
            elif e.end == hi - 1:
                t_star = e.start + 1
                if t_star != lo + 2:
                    raise AssertionError("late-excursion block must switch at tau_l + 2")
                rays[lo:t_star] = beta_aux[l]
                rays[t_star : hi + 1] = eta[e.ordinal - 1]
                cases.append(CASE_ONE_LATE)
            else:
                raise AssertionError("single excursion must end at block end - 2 or - 1")
        elif len(inside) == 2:
            e1, e2 = inside
            t_star = e2.start + 1
            rays[lo:t_star] = eta[e1.ordinal - 1]
            rays[t_star : hi + 1] = eta[e2.ordinal - 1]
            cases.append(CASE_TWO)
        else:
            raise AssertionError("a block holds at most two excursions")
    radii = np.abs(s_vals[: n_end + 1] - s_vals[0])
    rays[radii == 0] = 0
    chain = ChainPath(params, rays, radii)
    return FlipResult(chain, complete, cases, exc, truncated)


def flip_realization(params: RayParams, length: int, seed: int,
                     stream_id: int) -> tuple[FlipResult, WalkWindow, WalkWindow, np.ndarray]:
    """(flipped chain, S, S-bar, eta) for a walk S of the given length.

    S comes from stream stream_id, the excursion marks eta from stream_id + 1
    and the block marks from stream_id + 2.
    """
    s = generate_walk(0, length, seed, stream_id)
    s_bar = cv_forward(s)
    n_exc = len(excursions(reflected_path(s_bar.values)))
    eta = draw_ray_marks(params, n_exc, seed, stream_id + 1)
    beta_aux = draw_ray_marks(params, length, seed, stream_id + 2)
    return flip_excursions(s_bar, s, eta, beta_aux, params), s, s_bar, eta


def flip_bound_deviation(result: FlipResult, s_bar: WalkWindow, eta: np.ndarray) -> int:
    """max over excursions i and times n in them of d(M_n, eta_i * Y-bar_n)."""
    ybar = reflected_path(s_bar.values)
    radii = result.chain.radii
    rays = result.chain.rays
    worst = 0
    for e in result.excursion_list:
        if e.end >= len(radii):
            continue  # dropped with the truncated tail
        mark = int(eta[e.ordinal - 1])
        for n in range(e.start, e.end + 1):
            if rays[n] == 0 or rays[n] == mark or ybar[n] == 0:
                dev = abs(int(radii[n]) - int(ybar[n]))
            else:
                dev = int(radii[n]) + int(ybar[n])
            worst = max(worst, dev)
    return worst


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


def check_proof_facts(s: WalkWindow, s_bar: WalkWindow) -> int:
    """Pathwise facts used in the flipping proof; returns violation count.

    (a) for k in [tau_l + 2, tau_{l+1}]: S-bar_{k-1} = 2l + 1  iff  S_k = 0;
    (b) for k in [tau_l, tau_{l+1}]: Y-bar_k = 0 implies |S_{k+1}| <= 1, and
        S_{k+1} = 0 implies Y-bar_k = 0.
    """
    s_vals = s.values
    sbar_vals = s_bar.values
    ybar = reflected_path(sbar_vals)
    taus = np.concatenate([[0], tau_sequence(s_vals)])
    m = len(sbar_vals) - 1
    bad = 0
    for l in range(len(taus) - 1):
        lo, hi = int(taus[l]), int(taus[l + 1])
        if hi > m:
            break
        for k in range(lo + 2, hi + 1):
            if (sbar_vals[k - 1] == 2 * l + 1) != (s_vals[k] == 0):
                bad += 1
        for k in range(lo, hi + 1):
            if k + 1 < len(s_vals):
                if ybar[k] == 0 and abs(int(s_vals[k + 1])) > 1:
                    bad += 1
                if s_vals[k + 1] == 0 and ybar[k] != 0:
                    bad += 1
    return bad
