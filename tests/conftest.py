"""Shared test-side references."""

import math

import pytest

from starflow.graph import DiscreteMeasure, GraphPoint


def _rescale_measure(m: DiscreteMeasure, n: int) -> DiscreteMeasure:
    """A kernel on lattice radii with every radius divided by sqrt(n): the
    reference for the rescaled discrete side of the convergence pass."""
    root = math.sqrt(n)
    return DiscreteMeasure((GraphPoint(pt.ray, pt.radius / root) if pt.radius else pt, w)
                           for pt, w in m.atoms.items())


@pytest.fixture()
def rescale_measure():
    return _rescale_measure
