"""Mapping and kernel flows: one-step laws, cocycle, closed forms, conditional law."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from starflow import flows
from starflow.errors import OutOfWindowError, WindowTooLargeError
from starflow.flows import (FlowRealization, _mark_law, closed_forms_from,
                            departure_candidates, kernel_closed_form, kernel_compose,
                            kernel_is_conditional_law, kernel_one_step, psi_closed_form,
                            psi_compose, psi_one_step)
from starflow.graph import (DiscreteMeasure, RayParams, junction, point)
from starflow.rng import make_rng
from starflow.walk import WalkWindow, generate_walk

PARAMS = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))


def _fr(increments, eta):
    return FlowRealization(WalkWindow(0, np.array(increments)),
                           np.array(eta, dtype=np.int64), PARAMS)


def test_one_step_interior():
    fr = _fr([1, -1], [1, 1])
    assert psi_one_step(fr, 0, point(2, 3, 3)) == point(2, 4, 3)
    assert psi_one_step(fr, 1, point(2, 3, 3)) == point(2, 2, 3)


def test_one_step_junction():
    fr = _fr([-1, 1], [3, 3])
    assert psi_one_step(fr, 0, junction(3)) == junction(3)
    assert psi_one_step(fr, 1, junction(3)) == point(3, 1, 3)


def test_compose_identity_and_example():
    # S = (0,1,2,1,0,-1), eta_0 = ray 2
    fr = _fr([1, 1, -1, -1, -1], [2, 1, 1, 1, 1])
    assert psi_compose(fr, 2, 2, point(1, 1, 3)) == point(1, 1, 3)
    radii = [psi_compose(fr, 0, k, junction(3)).radius for k in range(6)]
    assert radii == [0, 1, 2, 1, 0, 0]
    assert psi_compose(fr, 0, 2, junction(3)).ray == 2


def _psi_fold(fr, p, n, x):
    for k in range(p, n):
        x = psi_one_step(fr, k, x)
    return x


def _kernel_chain(walk, p, n, x):
    current = DiscreteMeasure.dirac(x)
    for k in range(p, n):
        atoms = {}
        for y, w in current.atoms.items():
            for z, v in kernel_one_step(walk, PARAMS, k, y).atoms.items():
                atoms[z] = atoms.get(z, Fraction(0)) + w * v
        current = DiscreteMeasure(atoms.items())
    return current


def test_compose_oracles_equal_one_step_chaining_exhaustive():
    # the compose oracles step plain (ray, radius) state; pin them to the
    # one-step maps so they cannot drift toward the closed forms they check
    eta = np.array([2, 1, 3, 1, 3, 2, 1, 2], dtype=np.int64)
    for bits in itertools.product((1, -1), repeat=8):
        walk = WalkWindow(0, np.array(bits))
        fr = FlowRealization(walk, eta, PARAMS)
        for p in range(0, 9):
            for n in range(p, 9):
                for radius in range(0, 4):
                    x = point(1 + radius % 3, radius, 3)
                    assert psi_compose(fr, p, n, x) == _psi_fold(fr, p, n, x)
                    assert kernel_compose(walk, PARAMS, p, n, x) == \
                        _kernel_chain(walk, p, n, x)


def test_trusted_kernels_equal_validated_rebuilds_exhaustive():
    # kernels skip the validating DiscreteMeasure build; rebuilding their
    # atoms through it must give the same measure, on canonical points
    eta = np.array([3, 1, 2, 2, 1, 3, 1], dtype=np.int64)
    for bits in itertools.product((1, -1), repeat=7):
        walk = WalkWindow(0, np.array(bits))
        for p in range(0, 8):
            kernels = [kernel_one_step(walk, PARAMS, p, point(2, r, 3))
                       for r in range(4) if p < 7]
            for n in range(p, 8):
                for radius in range(0, 4):
                    x = point(1 + radius % 3, radius, 3)
                    kernels += [kernel_compose(walk, PARAMS, p, n, x),
                                kernel_closed_form(walk, PARAMS, p, n, x)]
            for k in kernels:
                assert DiscreteMeasure(k.atoms.items()) == k
                assert all(point(pt.ray, pt.radius, 3) is pt and type(w) is Fraction
                           for pt, w in k.atoms.items())
        assert psi_closed_form(FlowRealization(walk, eta, PARAMS), 0, 7, junction(3)) is \
            psi_compose(FlowRealization(walk, eta, PARAMS), 0, 7, junction(3))


def test_kernel_weights_meet_by_identity():
    # both kernel flows take their weights from the interned table, so the
    # spread that kernel_compose builds holds the objects of PARAMS.alpha
    walk = WalkWindow(0, np.array([1, 1, -1, 1]))
    composed = kernel_compose(walk, PARAMS, 0, 4, junction(3))
    assert composed == kernel_closed_form(walk, PARAMS, 0, 4, junction(3))
    assert [composed.atoms[point(i, 2, 3)] for i in (1, 2, 3)] == list(PARAMS.alpha)
    assert all(composed.atoms[point(i, 2, 3)] is a for i, a in enumerate(PARAMS.alpha, 1))


def test_compose_oracles_off_lattice_radius():
    # a whole radius of float type steps like its int, through the compose
    # oracles as through the one-step chain and the closed forms; a radius
    # off the lattice is refused before it can move
    fr = _fr([1, -1, -1], [1, 1, 1])
    y = point(2, 2.0, 3)
    assert psi_compose(fr, 0, 3, y) == _psi_fold(fr, 0, 3, y) == \
        psi_closed_form(fr, 0, 3, y) == point(2, 1, 3)
    assert kernel_compose(fr.walk, PARAMS, 0, 3, y) == _kernel_chain(fr.walk, 0, 3, y) == \
        kernel_closed_form(fr.walk, PARAMS, 0, 3, y)
    for radius in (Fraction(3, 2), Fraction(1, 2)):
        x = point(2, radius, 3)
        for off_lattice in (lambda: psi_compose(fr, 0, 3, x),
                            lambda: kernel_compose(fr.walk, PARAMS, 0, 3, x),
                            lambda: psi_closed_form(fr, 0, 3, x),
                            lambda: kernel_closed_form(fr.walk, PARAMS, 0, 3, x)):
            with pytest.raises(ValueError, match="off the lattice"):
                off_lattice()


def test_closed_form_translation_branch():
    fr = _fr([-1, 1, 1], [1, 1, 1])
    assert psi_closed_form(fr, 0, 1, point(1, 2, 3)) == point(1, 1, 3)


def test_closed_form_matches_compose_exhaustive():
    for bits in itertools.product((1, -1), repeat=8):
        fr = FlowRealization(WalkWindow(0, np.array(bits)),
                             np.tile([2, 1, 3, 1], 2).astype(np.int64), PARAMS)
        for p in range(0, 9):
            for n in range(p, 9):
                for radius in range(0, 4):
                    x = point(1, radius, 3)
                    assert psi_closed_form(fr, p, n, x) == psi_compose(fr, p, n, x)


def test_closed_forms_lattice_radius_agrees_with_hitting_time_path():
    # a whole radius as an int and as a float takes the same hit test
    eta = np.array([3, 1, 2, 2, 1, 3, 1, 2], dtype=np.int64)
    for bits in itertools.product((1, -1), repeat=8):
        fr = FlowRealization(WalkWindow(0, np.array(bits)), eta, PARAMS)
        for p in range(0, 9):
            for n in range(p, 9):
                for radius in range(0, 4):
                    x, y = point(2, radius, 3), point(2, float(radius), 3)
                    assert psi_closed_form(fr, p, n, x) == psi_closed_form(fr, p, n, y)
                    assert kernel_closed_form(fr.walk, PARAMS, p, n, x) == \
                        kernel_closed_form(fr.walk, PARAMS, p, n, y)


def test_closed_form_after_hit_equals_zero_start():
    rng = make_rng(51, 0)
    fr = FlowRealization.generate(PARAMS, 0, 400, 51, 1, 2)
    walk = fr.walk
    for _ in range(2_000):
        p = int(rng.integers(0, 400))
        n = int(rng.integers(p, 401))
        radius = int(rng.integers(0, 4))
        x = point(2, radius, 3)
        s = walk.values[p : n + 1] - walk.values[p]
        got = psi_closed_form(fr, p, n, x)
        if np.any(s[:-1] == -radius):  # the hitting time of -|x| is before n
            assert got == psi_closed_form(fr, p, n, junction(3))
            assert got.radius == s[-1] - s.min()


def test_cocycle_random_triples():
    fr = FlowRealization.generate(PARAMS, 0, 1_000, 52, 0, 1)
    rng = make_rng(52, 2)
    for _ in range(10_000):
        p = int(rng.integers(0, 1_000))
        q = int(rng.integers(p, 1_001))
        r = int(rng.integers(p, q + 1))
        x = point(int(rng.integers(1, 4)), int(rng.integers(0, 4)), 3)
        assert psi_closed_form(fr, r, q, psi_closed_form(fr, p, r, x)) == \
            psi_closed_form(fr, p, q, x)


def test_ray_merge_property():
    fr = FlowRealization.generate(PARAMS, 0, 500, 53, 0, 1)
    walk = fr.walk
    rng = make_rng(53, 2)
    checked = 0
    for _ in range(10_000):
        p = int(rng.integers(0, 498))
        r = int(rng.integers(p + 1, 500))
        q = int(rng.integers(r + 1, 501))
        low = walk.values[p : q + 1].min()
        if low != walk.values[r : q + 1].min() or walk.values[q] == low:
            continue  # the running minima differ, or S+_{p,q} = 0
        checked += 1
        assert psi_closed_form(fr, p, q, junction(3)).ray == \
            psi_closed_form(fr, r, q, junction(3)).ray
    assert checked > 100


def test_kernel_examples():
    walk = WalkWindow(0, np.array([1, 1, -1, -1, -1]))
    m = kernel_closed_form(walk, PARAMS, 0, 3, junction(3))
    assert m == DiscreteMeasure([(point(i, 1, 3), a)
                                 for i, a in enumerate(PARAMS.alpha, start=1)])
    assert kernel_closed_form(walk, PARAMS, 0, 4, junction(3)) == \
        DiscreteMeasure.dirac(junction(3))


def test_kernel_compose_equals_closed_form_exhaustive():
    walk = generate_walk(0, 12, 54, 0)
    for p in range(0, 13):
        for n in range(p, 13):
            for radius in range(0, 4):
                x = point(2, radius, 3)
                assert kernel_compose(walk, PARAMS, p, n, x) == \
                    kernel_closed_form(walk, PARAMS, p, n, x)


def test_kernel_cocycle_exact():
    walk = generate_walk(0, 12, 55, 0)
    x = point(1, 1, 3)
    for p in range(0, 13):
        for q in range(p, 13):
            for r in range(p, q + 1):
                left = kernel_compose(walk, PARAMS, p, q, x)
                via = {}
                for y, w in kernel_compose(walk, PARAMS, p, r, x).atoms.items():
                    for z, v in kernel_compose(walk, PARAMS, r, q, y).atoms.items():
                        via[z] = via.get(z, Fraction(0)) + w * v
                assert DiscreteMeasure(via.items()) == left
                assert sum(left.atoms.values()) == 1


def test_conditional_law_all_short_walks():
    for bits in itertools.product((1, -1), repeat=6):
        walk = WalkWindow(0, np.array(bits))
        assert kernel_is_conditional_law(walk, PARAMS, 0, 6, junction(3))


@pytest.mark.parametrize("params", [
    RayParams(2, (Fraction(1, 4), Fraction(3, 4))),
    RayParams(4, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))),
], ids=["N2", "N4"])
def test_conditional_law_other_alphas(params):
    # common denominators 4 and 8, not PARAMS's 6, in the integer weights
    for bits in itertools.product((1, -1), repeat=6):
        walk = WalkWindow(0, np.array(bits))
        for x in (junction(params.N), point(1, 2, params.N)):
            assert kernel_is_conditional_law(walk, params, 0, 6, x)


def test_conditional_law_translation_branch():
    walk = generate_walk(0, 8, 56, 0)
    assert kernel_is_conditional_law(walk, PARAMS, 0, 8, point(1, 9, 3))


def _law_by_closed_form(walk, params, p, n, x):
    """The law of Psi_{p,n}(x) given S as the check once summed it: one
    realization per mark assignment of the departure candidates, marks 1
    elsewhere, each valued by psi_closed_form."""
    free = departure_candidates(walk, p, n)
    scale, numerators = params.alpha_numerators
    atoms = {}
    for assignment in itertools.product(range(1, params.N + 1), repeat=len(free)):
        eta = np.ones(len(walk.increments), dtype=np.int64)
        eta[np.array(free, dtype=np.int64) - walk.p_min] = assignment
        y = psi_closed_form(FlowRealization(walk, eta, params), p, n, x)
        atoms[y] = atoms.get(y, 0) + math.prod(numerators[ray - 1] for ray in assignment)
    return DiscreteMeasure((y, Fraction(w, scale ** len(free))) for y, w in atoms.items())


def test_mark_law_matches_per_assignment_closed_forms():
    # the scan-once law against the closed form valued on every assignment,
    # on every walk of length <= 8, from junction and off-junction starts
    for length in range(1, 9):
        for bits in itertools.product((1, -1), repeat=length):
            walk = WalkWindow(0, np.array(bits))
            for p in (0, length // 2):
                for x in (junction(3), point(2, 2, 3)):
                    law = _mark_law(walk, PARAMS, p, length, x)
                    assert law == _law_by_closed_form(walk, PARAMS, p, length, x), (bits, p, x)
                    assert law == kernel_closed_form(walk, PARAMS, p, length, x)


def _reads_a_mark(walk, p, n, x):
    """Psi_{p,n}(x) leaves the junction on a mark: the hit has happened and
    the radius is positive."""
    s = walk.values[p : n + 1] - walk.values[p]
    return n > p and s[:-1].min() <= -x.radius and s[-1] > s.min()


def test_conditional_law_rejects_a_uniform_spread():
    # negative control: enumeration weights 1/3 each in place of alpha fail
    # the check on exactly the walks whose flow reads a mark
    uniform = RayParams(3, PARAMS.alpha)
    vars(uniform)["alpha_numerators"] = (3, (1, 1, 1))
    rejected = 0
    for bits in itertools.product((1, -1), repeat=6):
        walk = WalkWindow(0, np.array(bits))
        for x in (junction(3), point(2, 2, 3)):
            reads = _reads_a_mark(walk, 0, 6, x)
            assert kernel_is_conditional_law(walk, uniform, 0, 6, x) is not reads
            rejected += reads
    assert rejected > 50


def _last_argmin_moved(offset):
    """_flow_radius with the read moved from the last argmin J of the path:
    to its first argmin (offset None), or to J + offset."""
    flow_radius = flows._flow_radius

    def moved(path, radius):
        hit, r, j = flow_radius(path, radius)
        if hit and r:
            j = path.index(min(path)) if offset is None else j + offset
        return hit, r, j
    return moved


def test_conditional_law_rejects_a_read_off_the_departures(monkeypatch):
    # negative control: one step after the last argmin the flow is away from
    # the junction, so a read there is no departure and the check fails
    monkeypatch.setattr(flows, "_flow_radius", _last_argmin_moved(1))
    for bits in itertools.product((1, -1), repeat=6):
        walk = WalkWindow(0, np.array(bits))
        for x in (junction(3), point(2, 2, 3)):
            assert kernel_is_conditional_law(walk, PARAMS, 0, 6, x) is \
                not _reads_a_mark(walk, 0, 6, x)


def test_conditional_law_cannot_see_which_departure_is_read(monkeypatch):
    # given S every mark has law alpha, so a read moved to the first argmin,
    # itself a departure candidate, keeps the law and passes the check; the
    # pathwise comparison with the composition is what catches it
    monkeypatch.setattr(flows, "_flow_radius", _last_argmin_moved(None))
    eta = np.array([2, 1, 3, 1, 3, 2], dtype=np.int64)
    caught = 0
    for bits in itertools.product((1, -1), repeat=6):
        walk = WalkWindow(0, np.array(bits))
        fr = FlowRealization(walk, eta, PARAMS)
        for x in (junction(3), point(2, 2, 3)):
            assert kernel_is_conditional_law(walk, PARAMS, 0, 6, x)
            caught += psi_closed_form(fr, 0, 6, x) != psi_compose(fr, 0, 6, x)
    assert caught > 0


def test_flow_realization_keeps_read_only_marks():
    # the realization copies eta; its array and the marks that mark() reads
    # cannot be written, so they stay the same marks
    eta = np.array([2, 1, 3], dtype=np.int32)
    fr = FlowRealization(WalkWindow(-1, np.array([1, -1, 1])), eta, PARAMS)
    eta[0] = 3
    assert fr.eta.dtype == np.int64 and fr.eta.tolist() == [2, 1, 3]
    assert [fr.mark(p) for p in (-1, 0, 1)] == [2, 1, 3]
    assert all(type(fr.mark(p)) is int for p in (-1, 0, 1))
    with pytest.raises(ValueError):
        fr.eta[0] = 1
    for p in (-2, 2):
        with pytest.raises(OutOfWindowError):
            fr.mark(p)
    # a realization of two rows holds its marks as an array only
    rows = FlowRealization.generate(PARAMS, -1, 2, 59, [0, 1], [2, 3])
    assert rows.eta.shape == rows.walk.values.shape[:1] + (3,) == (2, 3)
    with pytest.raises(ValueError, match="one-row"):
        rows.mark(0)
    with pytest.raises(ValueError, match="one-row"):
        rows.walk.path(-1, 1)


def test_conditional_law_window_cap():
    walk = generate_walk(0, 20, 57, 0)
    with pytest.raises(WindowTooLargeError):
        kernel_is_conditional_law(walk, PARAMS, 0, 20, junction(3))


def test_out_of_window_errors():
    fr = _fr([1, -1], [1, 2])
    with pytest.raises(OutOfWindowError):
        psi_compose(fr, 2, 1, junction(3))
    with pytest.raises(OutOfWindowError):
        psi_one_step(fr, 5, junction(3))
    with pytest.raises(OutOfWindowError):
        kernel_compose(fr.walk, PARAMS, 2, 1, junction(3))
    for oracle in (lambda: psi_compose(fr, 0, 3, junction(3)),
                   lambda: psi_compose(fr, -1, 1, junction(3)),
                   lambda: kernel_compose(fr.walk, PARAMS, 1, 3, point(1, 1, 3)),
                   lambda: psi_closed_form(fr, 0, 3, point(1, 1, 3)),
                   lambda: kernel_closed_form(fr.walk, PARAMS, -1, 1, junction(3))):
        with pytest.raises(OutOfWindowError):
            oracle()


def test_closed_forms_from_matches_scalar():
    # every +-1 walk of length 8 on [-2, 6], every start time and radius 0..3,
    # with random marks and start rays
    rng = make_rng(58, 0)
    for bits in itertools.product((1, -1), repeat=8):
        eta = rng.integers(1, 4, size=8)
        fr = FlowRealization(WalkWindow(-2, np.array(bits)), eta, PARAMS)
        for p in range(-2, 7):
            for radius in range(4):
                x = point(int(rng.integers(1, 4)), radius, 3)
                after, rays, radii = closed_forms_from(fr, p, x)
                assert len(after) == 7 - p
                for n, hit, ray, r in zip(range(p, 7), after.tolist(), rays.tolist(),
                                          radii.tolist()):
                    y = psi_closed_form(fr, p, n, x)
                    assert (ray, r) == (y.ray, y.radius)
                    kernel = (DiscreteMeasure.ray_spread(PARAMS, r) if hit
                              else DiscreteMeasure.dirac(point(ray, r, 3)))
                    assert kernel == kernel_closed_form(fr.walk, PARAMS, p, n, x)
    for p in (-3, 7):
        with pytest.raises(OutOfWindowError):
            closed_forms_from(fr, p, junction(3))


def test_closed_forms_from_rejects_off_lattice_radius():
    # every entry point of the flows takes lattice points only; radius 1/2 on
    # steps (-1, -1, 1, 1) once gave closed_forms_from radius -1/2 at n = 1
    # and a hit that never happens
    fr = _fr([-1, -1, 1, 1], [1, 2, 3, 1])
    walk = fr.walk
    entry_points = {
        "psi_one_step": lambda x: psi_one_step(fr, 0, x),
        "kernel_one_step": lambda x: kernel_one_step(walk, PARAMS, 0, x),
        "psi_compose": lambda x: psi_compose(fr, 0, 4, x),
        "kernel_compose": lambda x: kernel_compose(walk, PARAMS, 0, 4, x),
        "psi_closed_form": lambda x: psi_closed_form(fr, 0, 4, x),
        "kernel_closed_form": lambda x: kernel_closed_form(walk, PARAMS, 0, 4, x),
        "kernel_is_conditional_law": lambda x: kernel_is_conditional_law(walk, PARAMS, 0, 4, x),
        "closed_forms_from": lambda x: [a.tolist() for a in closed_forms_from(fr, 0, x)],
    }
    for name, entry in entry_points.items():
        for radius in (Fraction(1, 2), 0.5, Fraction(5, 2)):
            with pytest.raises(ValueError, match="off the lattice"):
                entry(point(2, radius, 3))
        # whole radii of any type are lattice radii
        want = entry(point(2, 2, 3))
        for radius in (2.0, Fraction(2)):
            assert entry(point(2, radius, 3)) == want, (name, radius)
