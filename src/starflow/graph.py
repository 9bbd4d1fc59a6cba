"""Geometry of the N-ray star graph.

The graph consists of N half-lines (rays) glued at a single junction.  A
point is a (ray, radius) pair; every radius-0 point is the same junction and
canonicalizes to ray N, so atoms of a measure never split the junction mass.
Distances are radial within a ray and pass through the junction across rays.

Points with an int ray and an int radius are interned, in a table of bounded
size filled as they are first asked for, so the per-query flows get one
object per lattice point and measure equality meets keys by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import NegativeRadiusError

Weight = Fraction
Radius = Union[int, float, Fraction]

# the most entries of each table of immutable lattice values: the interned
# points, the alpha spreads of one RayParams and the interned weights; past
# that, further ones are built on every call
CACHE_MAX = 1024
_LATTICE_POINTS: dict[tuple[int, int, int], "GraphPoint"] = {}
_ONE = Fraction(1)
_WEIGHTS: dict[tuple[int, int], Fraction] = {(1, 1): _ONE}


def interned_weight(numerator: int, denominator: int) -> Fraction:
    """numerator / denominator, one object per value while the table has
    room, so that measure equality meets equal weights by identity.  The
    table is keyed by the pair as given and by its lowest terms."""
    w = _WEIGHTS.get((numerator, denominator))
    if w is None:
        w = Fraction(numerator, denominator)
        w = _WEIGHTS.get((w.numerator, w.denominator), w)
        if len(_WEIGHTS) < CACHE_MAX - 1:
            _WEIGHTS[w.numerator, w.denominator] = _WEIGHTS[numerator, denominator] = w
    return w


@dataclass(frozen=True)
class RayParams:
    """Number of rays and the exit-probability vector alpha (exact rationals)."""

    N: int
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        alpha = tuple(Fraction(a) for a in self.alpha)
        if len(alpha) != self.N:
            raise ValueError("alpha must have exactly N entries")
        if any(a <= 0 for a in alpha):
            raise ValueError("every alpha_i must be > 0")
        if sum(alpha) != 1:
            raise ValueError("alpha must sum to exactly 1")
        object.__setattr__(self, "alpha",
                           tuple(interned_weight(a.numerator, a.denominator) for a in alpha))

    @classmethod
    def uniform(cls, N: int) -> "RayParams":
        return cls(N, tuple(Fraction(1, N) for _ in range(N)))

    @cached_property
    def alpha_numerators(self) -> tuple[int, tuple[int, ...]]:
        """(D, (D alpha_1, ..., D alpha_N)) with D the lcm of the alpha
        denominators: alpha as integers over one common denominator."""
        common = math.lcm(*(a.denominator for a in self.alpha))
        return common, tuple(a.numerator * (common // a.denominator) for a in self.alpha)

    @cached_property
    def alpha_cumulative(self) -> np.ndarray:
        """The cumulative sums of alpha in floats; the last may fall just below 1."""
        return np.cumsum([float(a) for a in self.alpha])

    @cached_property
    def ray_dtype(self) -> np.dtype:
        """The narrowest signed integer dtype that holds -N..N, the rays and
        their differences: int8 up to N = 127, int16 up to N = 32767."""
        return np.min_scalar_type(-self.N - 1)

    @cached_property
    def _spreads(self) -> dict[int, dict]:
        """spread_atoms' table: the atoms at each int radius, as first built."""
        return {}

    def spread_atoms(self, radius: Radius) -> dict[GraphPoint, Fraction]:
        """The atoms of the alpha spread at a radius > 0, as a new dict.  The
        atoms at an int radius are built once and copied after that."""
        cached = type(radius) is int
        atoms = self._spreads.get(radius) if cached else None
        if atoms is None:
            atoms = {point(i, radius, self.N): a for i, a in enumerate(self.alpha, 1)}
            if cached and len(self._spreads) < CACHE_MAX:
                self._spreads[radius] = atoms
        return dict(atoms)


@dataclass(frozen=True)
class GraphPoint:
    """A point of the star graph: ray index in [1..N], nonnegative radius.

    Construct through ``point(ray, radius, N)`` to get junction
    canonicalization; radius-0 points always carry ray == N.
    """

    ray: int
    radius: Radius

    def __eq__(self, other):
        if not isinstance(other, GraphPoint):
            return NotImplemented
        if self.radius == 0 and other.radius == 0:
            return True
        return self.ray == other.ray and self.radius == other.radius

    def __hash__(self):
        if self.radius == 0:
            return hash((0, 0))
        return hash((self.ray, self.radius))


def point(ray: int, radius: Radius, N: int) -> GraphPoint:
    """Canonical GraphPoint: the junction stores ray N regardless of input ray.

    With ray, radius and N all of type int the point is interned: the same
    arguments give the same object.  Other radii keep their type.
    """
    lattice = type(ray) is int and type(radius) is int and type(N) is int
    if lattice:
        pt = _LATTICE_POINTS.get((ray if radius else N, radius, N))
        if pt is not None:
            return pt
    if radius < 0:
        raise NegativeRadiusError(f"radius {radius} < 0")
    if radius == 0:
        pt = GraphPoint(N, 0)
    elif not 1 <= ray <= N:
        raise ValueError(f"ray {ray} outside [1..{N}]")
    else:
        pt = GraphPoint(ray, radius)
    if lattice and len(_LATTICE_POINTS) < CACHE_MAX:
        _LATTICE_POINTS[pt.ray, radius, N] = pt
    return pt


def junction(N: int) -> GraphPoint:
    return point(N, 0, N)


def graph_distance(x: GraphPoint, y: GraphPoint) -> Radius:
    """Tree distance: |h - h'| on a common ray, h + h' across rays.

    Junction canonicalization (ray N at radius 0) makes both branches agree
    whenever either point is the junction.
    """
    if x.ray == y.ray:
        return abs(x.radius - y.radius)
    return x.radius + y.radius


class DiscreteMeasure:
    """Finitely supported probability measure with exact rational weights.

    Atoms are keyed by canonical point, so junction mass is always a single
    atom.  Weights must be positive and sum exactly to 1.

    A builder that has made sure of that passes ``trusted=True`` and a dict
    from distinct canonical points to Fraction weights.  The dict becomes
    the measure's atoms as it is, unchecked, so it must not be shared.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[GraphPoint, Weight]] | dict[GraphPoint, Fraction],
                 *, trusted: bool = False):
        if trusted:
            self.atoms = atoms
            return
        merged: dict[GraphPoint, Fraction] = {}
        for pt, w in atoms:
            w = Fraction(w) if not isinstance(w, Fraction) else w
            if pt in merged:
                merged[pt] += w
            else:
                merged[pt] = w
        if any(w <= 0 for w in merged.values()):
            raise ValueError("weights must be > 0")
        if sum(merged.values()) != 1:
            raise ValueError("weights must sum to exactly 1")
        self.atoms = merged

    @classmethod
    def dirac(cls, x: GraphPoint) -> "DiscreteMeasure":
        return cls({x: _ONE}, trusted=True)

    @classmethod
    def ray_spread(cls, params: RayParams, radius: Radius) -> "DiscreteMeasure":
        """The alpha-weighted spread at a common radius (a single junction atom at radius 0)."""
        if radius == 0:
            return cls.dirac(junction(params.N))
        return cls(params.spread_atoms(radius), trusted=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    def __hash__(self):
        return hash(frozenset(self.atoms.items()))

    def __repr__(self):
        inner = ", ".join(f"({p.ray},{p.radius}):{w}" for p, w in sorted(
            self.atoms.items(), key=lambda kv: (kv[0].ray, kv[0].radius)))
        return f"DiscreteMeasure({inner})"
