"""Geometry of the N-ray star graph.

The graph consists of N half-lines (rays) glued at a single junction.  A
point is a (ray, radius) pair; every radius-0 point is the same junction and
canonicalizes to ray N, so atoms of a measure never split the junction mass.
Distances are radial within a ray and pass through the junction across rays.
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
        object.__setattr__(self, "alpha", alpha)

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
    """Canonical GraphPoint: the junction stores ray N regardless of input ray."""
    if radius < 0:
        raise NegativeRadiusError(f"radius {radius} < 0")
    if radius == 0:
        return GraphPoint(N, 0)
    if not 1 <= ray <= N:
        raise ValueError(f"ray {ray} outside [1..{N}]")
    return GraphPoint(ray, radius)


def junction(N: int) -> GraphPoint:
    return GraphPoint(N, 0)


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
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[GraphPoint, Weight]], *, _checked: bool = False):
        merged: dict[GraphPoint, Fraction] = {}
        for pt, w in atoms:
            w = Fraction(w) if not isinstance(w, Fraction) else w
            if pt in merged:
                merged[pt] += w
            else:
                merged[pt] = w
        if not _checked:
            if any(w <= 0 for w in merged.values()):
                raise ValueError("weights must be > 0")
            if sum(merged.values()) != 1:
                raise ValueError("weights must sum to exactly 1")
        self.atoms = merged

    @classmethod
    def dirac(cls, x: GraphPoint) -> "DiscreteMeasure":
        return cls([(x, Fraction(1))], _checked=True)

    @classmethod
    def ray_spread(cls, params: RayParams, radius: Radius) -> "DiscreteMeasure":
        """The alpha-weighted spread at a common radius (a single junction atom at radius 0)."""
        if radius == 0:
            return cls.dirac(junction(params.N))
        return cls(
            [(point(i + 1, radius, params.N), a) for i, a in enumerate(params.alpha)],
            _checked=True,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    def __hash__(self):
        return hash(frozenset(self.atoms.items()))

    def __repr__(self):
        inner = ", ".join(f"({p.ray},{p.radius}):{w}" for p, w in sorted(
            self.atoms.items(), key=lambda kv: (kv[0].ray, kv[0].radius)))
        return f"DiscreteMeasure({inner})"

    def total_mass(self) -> Fraction:
        return sum(self.atoms.values(), Fraction(0))
