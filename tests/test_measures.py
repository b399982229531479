"""Weighted measures: ball and tube masses, Frostman fits, Riesz-type
energies, radial pushforwards, and shell decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.covering import fit_log2_slope
from gmtlab.errors import (
    AllMassAtCenter,
    EmptyInput,
    InvariantViolation,
    PreconditionError,
)
from gmtlab.generators import (
    DiscreteSet,
    circle_set,
    gen_grid,
    gen_random_delta_s_set,
    segment_set,
)
from gmtlab.geometry import Ball, Line, Point, Tube
from gmtlab.measures import (
    WeightedMeasure,
    ball_mass,
    ball_masses_at_support,
    energy,
    frostman_fit,
    mass_shell_decompose,
    radial_pushforward,
    tube_mass,
)


@pytest.fixture(scope="module")
def grid3_uniform(grid3):
    return WeightedMeasure.uniform(grid3)


# ---------------------------------------------------------------------------
# construction and restriction
# ---------------------------------------------------------------------------


class TestWeightedMeasure:
    def test_uniform_weights(self, grid3_uniform):
        assert grid3_uniform.weights.sum() == pytest.approx(1.0)
        assert np.all(grid3_uniform.weights == 1.0 / 9.0)

    def test_rejects_negative_weights(self, grid3):
        w = np.full(9, 1.0 / 9.0)
        w[0] = -w[0]
        with pytest.raises(PreconditionError):
            WeightedMeasure(grid3, w)

    def test_rejects_unnormalized(self, grid3):
        with pytest.raises(PreconditionError):
            WeightedMeasure(grid3, np.full(9, 0.2))

    def test_restrict_renormalizes(self, grid3_uniform):
        r = grid3_uniform.restrict([0, 1, 2])
        assert r.weights.sum() == pytest.approx(1.0)
        assert np.count_nonzero(r.weights) == 3

    def test_restrict_without_renormalize_keeps_submass(self, grid3_uniform):
        r = grid3_uniform.restrict([0, 1, 2], renormalize=False)
        assert r.weights.sum() == pytest.approx(3.0 / 9.0)


# ---------------------------------------------------------------------------
# ball and tube masses
# ---------------------------------------------------------------------------


def test_ball_mass_on_grid(grid3_uniform):
    """Closed ball of radius 1/2 at the corner catches exactly 3 of the
    9 grid points: the corner itself and its two axis neighbors."""
    m = ball_mass(grid3_uniform, Ball(Point(0.0, 0.0), 0.5))
    assert m == pytest.approx(3.0 / 9.0)


def test_ball_mass_total(grid3_uniform):
    assert ball_mass(grid3_uniform, Ball(Point(0.5, 0.5), 2.0)) == pytest.approx(1.0)


def test_tube_mass_axis_row(grid3_uniform):
    """A width-1/2 tube around y = 0 holds the bottom row of the grid."""
    t = Tube(Line.from_angle_offset(0.0, 0.0), 0.5)
    assert tube_mass(grid3_uniform, t) == pytest.approx(3.0 / 9.0)


def test_tube_mass_restriction(grid3_uniform):
    t = Tube(Line.from_angle_offset(0.0, 0.0), 0.5)
    mask = np.zeros(9, dtype=bool)
    mask[:2] = True  # (0,0) and one more bottom-row point at most
    restricted = tube_mass(grid3_uniform, t, restrict_to=mask)
    assert restricted <= tube_mass(grid3_uniform, t) + 1e-15


def test_ball_masses_at_support_matches_direct(grid3_uniform):
    radii = [0.25, 0.5, 1.0]
    fast = ball_masses_at_support(grid3_uniform, radii)
    pts = grid3_uniform.support.points
    for r, got in zip(radii, fast):
        d = np.hypot(pts[:, 0, None] - pts[None, :, 0],
                     pts[:, 1, None] - pts[None, :, 1])
        direct = (d <= r + 1e-12) @ grid3_uniform.weights
        assert np.allclose(got, direct)


# ---------------------------------------------------------------------------
# frostman fits
# ---------------------------------------------------------------------------


def test_frostman_fit_full_grid():
    m = WeightedMeasure.uniform(gen_grid(64))
    fit = frostman_fit(m, 2, 5)
    assert fit.exponent == pytest.approx(2.0, abs=0.05)


def test_frostman_fit_segment():
    m = WeightedMeasure.uniform(segment_set(512))
    fit = frostman_fit(m, 2, 8)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)


def test_frostman_fit_point_mass_is_exponent_zero():
    ds = DiscreteSet(np.array([[0.5, 0.5], [0.9, 0.9]]), 2.0 ** -8, check=False)
    m = WeightedMeasure(ds, np.array([1.0, 0.0]))
    fit = frostman_fit(m, 2, 7)
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)


def _frostman_exponent_oracle(m, level_min, level_max):
    """frostman_fit's former exponent: np.polyfit of log2 max ball mass
    against log2 radius, clamped to [0, 2]."""
    levels = list(range(level_min, level_max + 1))
    per_level = ball_masses_at_support(m, [2.0 ** -lv for lv in levels])
    maxima = [float(masses[int(np.argmax(masses))]) for masses in per_level]
    logr = np.array([-float(lv) for lv in levels])
    logm = np.log2(np.maximum(maxima, 1e-300))
    slope = float(np.polyfit(logr, logm, 1)[0])
    return min(2.0, max(0.0, slope))


@pytest.mark.parametrize("make,window", [
    (lambda: WeightedMeasure.uniform(gen_random_delta_s_set(1.0, 2.0 ** -8, seed=4)), (2, 8)),
    (lambda: WeightedMeasure.uniform(gen_random_delta_s_set(1.5, 2.0 ** -7, seed=9)), (1, 7)),
    (lambda: WeightedMeasure.uniform(circle_set(200)), (1, 5)),
    (lambda: radial_pushforward(
        WeightedMeasure.uniform(gen_random_delta_s_set(1.5, 2.0 ** -7, seed=2)),
        Point(0.5, -0.4)).as_circle_measure(), (2, 7)),
])
def test_frostman_fit_exponent_matches_polyfit_oracle(make, window):
    m = make()
    assert frostman_fit(m, *window).exponent == pytest.approx(
        _frostman_exponent_oracle(m, *window), abs=1e-12)


@given(st.lists(st.floats(2.0 ** -40, 1.0), min_size=4, max_size=12))
@settings(max_examples=100, deadline=None)
def test_fit_log2_slope_matches_polyfit(maxima):
    logr = -np.arange(2.0, 2.0 + len(maxima))
    want = float(np.polyfit(logr, np.log2(maxima), 1)[0])
    assert fit_log2_slope(logr, maxima)[0] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_segment_sigma_half():
    """Frozen oracle: the 1024-point unit segment at sigma = 1/2.

    The continuum value for uniform measure on [0,1] is 8/3; the finite
    sum sits a little below it.  The constant was derived by the direct
    double loop reproduced here.
    """
    m = WeightedMeasure.uniform(segment_set(1024))
    e = energy(m, 0.5)
    assert e == pytest.approx(2.5754070392885775, rel=1e-12)

    i = np.arange(1024, dtype=float)
    d = np.abs(i[:, None] - i[None, :]) / 1024.0
    np.fill_diagonal(d, np.inf)
    oracle = float((d ** -0.5).sum() / 1024 ** 2)
    assert e == pytest.approx(oracle, rel=1e-12)
    assert e < 8.0 / 3.0


def test_energy_circle_matches_1d_reduction():
    """Equispaced circle points reduce to a 1-variable sum by symmetry."""
    n = 512
    m = WeightedMeasure.uniform(circle_set(n))
    k = np.arange(1, n)
    oracle = float(np.sum((2.0 * np.sin(np.pi * k / n)) ** -0.75) / n)
    assert energy(m, 0.75) == pytest.approx(oracle, rel=1e-10)


def test_energy_monotone_in_sigma():
    """On a diameter <= 1 set, raising sigma raises every kernel term."""
    m = WeightedMeasure.uniform(segment_set(128))
    assert energy(m, 0.3) <= energy(m, 0.6) <= energy(m, 0.9)


def test_energy_sigma_domain():
    m = WeightedMeasure.uniform(segment_set(8))
    with pytest.raises(PreconditionError):
        energy(m, 0.0)
    with pytest.raises(PreconditionError):
        energy(m, 2.0)


# ---------------------------------------------------------------------------
# radial pushforward
# ---------------------------------------------------------------------------


class TestRadialPushforward:
    def test_mass_conservation(self, grid3_uniform):
        dm = radial_pushforward(grid3_uniform, Point(-1.0, -1.0))
        assert dm.total_mass + dm.leaked_mass == pytest.approx(1.0)
        assert dm.leaked_mass == 0.0

    def test_center_on_support_leaks(self, grid3_uniform):
        """The drop cutoff is twice the support resolution (here 2*0.5), so
        the corner center loses the corner point and its three neighbors
        within distance 1."""
        dm = radial_pushforward(grid3_uniform, Point(0.0, 0.0))
        assert dm.leaked_mass == pytest.approx(4.0 / 9.0)

    def test_all_mass_at_center(self):
        ds = DiscreteSet(np.array([[0.5, 0.5]]), 0.25)
        m = WeightedMeasure.uniform(ds)
        with pytest.raises(AllMassAtCenter):
            radial_pushforward(m, Point(0.5, 0.5 + 1e-6))

    def test_angles_sorted_and_wrapped(self, grid3_uniform):
        dm = radial_pushforward(grid3_uniform, Point(0.5, 2.0))
        assert np.all(np.diff(dm.angles) > 0)
        assert dm.angles.min() >= 0.0
        assert dm.angles.max() < 2.0 * math.pi

    def test_circle_from_center_is_uniform(self):
        dm = radial_pushforward(
            WeightedMeasure.uniform(circle_set(256)), Point(0.0, 0.0)
        )
        assert len(dm) == 256
        assert np.allclose(dm.masses, 1.0 / 256.0)
        gaps = np.diff(dm.angles)
        assert np.allclose(gaps, gaps[0])

    def test_collinear_directions_merge(self):
        """Three points behind one another from the center give one atom."""
        pts = np.array([[0.25, 0.0], [0.5, 0.0], [1.0, 0.0]])
        ds = DiscreteSet(pts, 2.0 ** -6)
        dm = radial_pushforward(WeightedMeasure.uniform(ds), Point(-1.0, 0.0))
        assert len(dm) == 1
        assert dm.masses[0] == pytest.approx(1.0)

    def test_circle_embedding_roundtrip(self):
        dm = radial_pushforward(
            WeightedMeasure.uniform(circle_set(64)), Point(0.0, 0.0)
        )
        cm = dm.as_circle_measure()
        assert cm.weights.sum() == pytest.approx(1.0)
        r = np.hypot(cm.support.points[:, 0], cm.support.points[:, 1])
        assert np.allclose(r, 1.0)


# ---------------------------------------------------------------------------
# shell decomposition
# ---------------------------------------------------------------------------


class TestMassShells:
    def test_partition_covers_all_support(self, grid3_uniform):
        shells = mass_shell_decompose(grid3_uniform, 0.5, 2.0, 16.0)
        seen = np.concatenate([np.asarray(ix) for ix in shells.shells.values()])
        assert sorted(seen.tolist()) == list(range(9))
        assert len(set(seen.tolist())) == 9

    def test_shell_membership_matches_definition(self, grid3_uniform):
        r, t, c = 0.5, 2.0, 16.0
        shells = mass_shell_decompose(grid3_uniform, r, t, c)
        masses = ball_masses_at_support(grid3_uniform, [r])[0]
        top = c * r ** t
        for j, idx in shells.shells.items():
            if j == shells.tail_index:
                continue
            for i in np.asarray(idx):
                assert masses[i] <= top * 2.0 ** -j * (1.0 + 1e-9)
                assert masses[i] > top * 2.0 ** -(j + 1) * (1.0 - 1e-9)

    def test_rejects_small_constant(self, grid3_uniform):
        with pytest.raises(PreconditionError):
            mass_shell_decompose(grid3_uniform, 0.5, 2.0, 1.0)

    def test_rejects_radius_below_resolution(self, grid3_uniform):
        with pytest.raises(PreconditionError):
            mass_shell_decompose(grid3_uniform, 2.0 ** -9, 2.0, 16.0)
