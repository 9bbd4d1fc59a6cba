"""Grid compose oracles against the one-row compose references."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from starflow.flows import FlowRealization, kernel_compose, psi_compose
from starflow.graph import DiscreteMeasure, RayParams, junction, point
from starflow.oracles import grid_measures, grid_points, kernel_compose_grid, psi_compose_grid
from starflow.rng import make_rng
from starflow.walk import WalkWindow

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


@pytest.mark.parametrize("length", range(1, 9))
def test_grid_oracles_equal_one_row_compose(length):
    # every walk of this length, every start time, end time and radius 0..3
    # on varied rays, with marks drawn per walk
    walks = np.array(list(itertools.product((1, -1), repeat=length)))
    eta = make_rng(59, length).integers(1, 4, size=walks.shape)
    starts = [(p, 1 + radius % 3, radius) for p in range(length + 1) for radius in range(4)]
    p, ray, radius = (np.array(a) for a in zip(*starts))
    rays, radii = psi_compose_grid(walks, eta, 3, p, ray, radius)
    assert np.all(rays[radii == 0] == 3)  # the junction carries ray N
    points = grid_points(rays, radii, 3)
    numerators, denominators = kernel_compose_grid(walks, PARAMS, p, ray, radius)
    measures, index = grid_measures(numerators, denominators)
    for w, bits in enumerate(walks):
        fr = FlowRealization(WalkWindow(0, bits), eta[w], PARAMS)
        for s, (start, start_ray, start_radius) in enumerate(starts):
            x = point(start_ray, start_radius, 3)
            for n in range(start, length + 1):
                assert points[w, s, n] == psi_compose(fr, start, n, x), (bits, start, n, x)
                assert measures[index[w, s, n]] == \
                    kernel_compose(fr.walk, PARAMS, start, n, x), (bits, start, n, x)


def test_grid_kernels_keep_integer_numerators():
    # K_{0,2} from the junction on steps (1, 1) spreads once: sixths of alpha
    # at radius 2; K_{0,1} on step -1 stays the Dirac at the junction
    numerators, denominators = kernel_compose_grid([[1, 1], [-1, 1]], PARAMS, [0], [1], [0])
    assert numerators.dtype == np.int64
    assert denominators[:, 0].tolist() == [[1, 6, 6], [1, 1, 6]]
    assert numerators[0, 0, 2, :, 2].tolist() == [3, 2, 1]
    measures, index = grid_measures(numerators, denominators)
    assert measures[index[1, 0, 1]] == DiscreteMeasure.dirac(junction(3))
    assert measures[index[0, 0, 2]] == DiscreteMeasure.ray_spread(PARAMS, 2)


def test_grid_oracles_reject_bad_input():
    for increments, p, radius in (([[1, 0]], [0], [0]), ([[1, -1]], [3], [0]),
                                  ([[1, -1]], [0], [-1]), ([[1, -1]], [0, 1], [0])):
        with pytest.raises(ValueError):
            psi_compose_grid(increments, [1, 1], 3, p, [1] * len(p), radius)
        with pytest.raises(ValueError):
            kernel_compose_grid(increments, PARAMS, p, [1] * len(p), radius)
