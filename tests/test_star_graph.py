"""Geometry of the star graph: points, distance, measures."""

from fractions import Fraction

import pytest

from starflow import graph
from starflow.graph import (DiscreteMeasure, GraphPoint, RayParams, graph_distance,
                            interned_weight, junction, point)
from starflow.errors import NegativeRadiusError
from starflow.rng import make_rng

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def test_distance_same_ray():
    assert graph_distance(point(1, 2, 3), point(1, 5, 3)) == 3


def test_distance_cross_ray():
    assert graph_distance(point(1, 2, 3), point(3, 5, 3)) == 7


def test_distance_identity():
    x = point(2, 4, 3)
    assert graph_distance(x, x) == 0


def test_distance_junction_identification():
    assert graph_distance(GraphPoint(2, 0), GraphPoint(7, 0)) == 0


def test_junction_points_compare_equal():
    assert GraphPoint(2, 0) == GraphPoint(7, 0)
    assert hash(GraphPoint(2, 0)) == hash(GraphPoint(7, 0))
    assert point(1, 0, 5) == junction(5)


def test_junction_canonicalizes_to_ray_n():
    assert point(1, 0, 5).ray == 5


def test_point_rejects_negative_radius():
    with pytest.raises(NegativeRadiusError):
        point(2, -1, 3)


def test_metric_axioms_random_triples():
    rng = make_rng(5, 0)
    for _ in range(10_000):
        pts = [point(int(rng.integers(1, 5)), int(rng.integers(0, 10)), 4)
               for _ in range(3)]
        x, y, z = pts
        assert graph_distance(x, y) == graph_distance(y, x)
        assert graph_distance(x, y) >= 0
        assert (graph_distance(x, y) == 0) == (x == y)
        assert graph_distance(x, z) <= graph_distance(x, y) + graph_distance(y, z)


def test_ray_params_validation():
    RayParams(2, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        RayParams(2, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        RayParams(2, (Fraction(3, 2), Fraction(-1, 2)))


def test_measure_junction_merging():
    params = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    m = DiscreteMeasure.ray_spread(params, 0)
    assert len(m.atoms) == 1
    assert m.atoms[junction(3)] == 1


def test_measure_weights_validated():
    with pytest.raises(ValueError):
        DiscreteMeasure([(point(1, 1, 2), Fraction(1, 2))])
    with pytest.raises(ValueError):
        DiscreteMeasure([(point(1, 1, 2), Fraction(3, 2)),
                         (point(2, 1, 2), Fraction(-1, 2))])


def test_measure_atom_merge_on_equal_points():
    m = DiscreteMeasure([(GraphPoint(1, 0), Fraction(1, 2)),
                         (GraphPoint(2, 0), Fraction(1, 2))])
    assert len(m.atoms) == 1
    assert sum(m.atoms.values()) == 1


def test_int_lattice_points_are_interned():
    assert point(2, 3, 3) is point(2, 3, 3)
    assert point(1, 0, 3) is point(2, 0, 3) is junction(3)


@pytest.mark.parametrize("radius", [2.0, Fraction(2)], ids=["float", "Fraction"])
def test_whole_radii_of_other_types_keep_their_type(radius):
    x = point(1, radius, 3)
    assert type(x.radius) is type(radius)
    assert x == point(1, 2, 3) and hash(x) == hash(point(1, 2, 3))
    assert point(1, radius, 3) is not x
    spread = DiscreteMeasure.ray_spread(PARAMS, radius)
    assert [type(pt.radius) for pt in spread.atoms] == [type(radius)] * 3
    assert spread == DiscreteMeasure.ray_spread(PARAMS, 2)


def test_point_errors_are_raised_on_every_call():
    for _ in range(2):
        with pytest.raises(NegativeRadiusError):
            point(2, -1, 3)
        with pytest.raises(ValueError, match="outside"):
            point(4, 1, 3)
        with pytest.raises(NegativeRadiusError):
            DiscreteMeasure.ray_spread(PARAMS, -1)


def test_caches_stop_growing_at_their_bound(monkeypatch):
    monkeypatch.setattr(graph, "CACHE_MAX", 8)
    monkeypatch.setattr(graph, "_LATTICE_POINTS", {})
    for radius in range(1, 21):
        x = point(1, radius, 5)
        assert x == GraphPoint(1, radius)
        assert (point(1, radius, 5) is x) == (radius <= 8)
    assert len(graph._LATTICE_POINTS) == 8
    params = RayParams.uniform(2)
    for radius in range(1, 21):
        assert DiscreteMeasure.ray_spread(params, radius).atoms == {
            GraphPoint(1, radius): Fraction(1, 2), GraphPoint(2, radius): Fraction(1, 2)}
    assert len(params._spreads) == 8
    assert len(graph._LATTICE_POINTS) == 8


def test_ray_spread_atoms_are_not_shared():
    first = DiscreteMeasure.ray_spread(PARAMS, 3)
    first.atoms[point(1, 3, 3)] = Fraction(1)
    del first.atoms[point(2, 3, 3)]
    assert DiscreteMeasure.ray_spread(PARAMS, 3).atoms == {
        point(i, 3, 3): a for i, a in enumerate(PARAMS.alpha, 1)}


def test_interned_weights_are_one_object_per_value(monkeypatch):
    # equal weights are one object, in alpha and in Diracs alike, while the
    # table has room; past its bound they are built as plain Fractions
    assert interned_weight(3, 6) is interned_weight(1, 2) is RayParams.uniform(2).alpha[0]
    assert interned_weight(4, 4) is DiscreteMeasure.dirac(junction(3)).atoms[junction(3)]
    monkeypatch.setattr(graph, "CACHE_MAX", 8)
    monkeypatch.setattr(graph, "_WEIGHTS", {})
    for d in range(2, 30):
        assert interned_weight(2, 2 * d) == Fraction(1, d)
    assert len(graph._WEIGHTS) == 8
