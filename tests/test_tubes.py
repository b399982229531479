"""Tube families, probe containment, thin-tube audits, and the constant
schedule.  The collinear audit numbers are exact by construction, so they
are asserted to near machine precision rather than a loose band."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.dyadic import level_of
from gmtlab.errors import (
    InvariantViolation,
    PreconditionError,
    SeparationViolated,
)
from gmtlab.generators import DiscreteSet, circle_set, gen_grid, gen_random_delta_s_set
from gmtlab.geometry import Line, Point, line_residuals
from gmtlab.measures import (
    WeightedMeasure,
    frostman_fit,
    radial_pushforward,
    tube_mass,
)
from gmtlab.tubes import (
    _CONTAIN_TOL,
    FuRenInstance,
    TubeFamily,
    _anchors,
    _line_metric_cells,
    _max_dist_to_line,
    _positive_separation,
    bootstrap_schedule,
    containment_multiplicity,
    fu_ren_audit,
    heaviest_tube,
    sample_probe_tubes,
    thin_tube_audit,
    tube_mass_exponent,
    uniform_tube_family,
    verify_tube_set,
)


def _collinear_pair(delta=2.0 ** -8):
    xs = np.stack([np.linspace(0.0, 0.2, 8), np.zeros(8)], axis=1)
    ys = np.stack([np.linspace(0.6, 1.0, 32), np.zeros(32)], axis=1)
    mu = WeightedMeasure.uniform(DiscreteSet(xs, delta, check=False))
    nu = WeightedMeasure.uniform(DiscreteSet(ys, delta, check=False))
    return mu, nu


# ---------------------------------------------------------------------------
# tube families
# ---------------------------------------------------------------------------


class TestTubeFamily:
    def test_basic_construction(self):
        fam = TubeFamily(
            np.array([0.0, 1.0]), np.array([0.1, -0.2]),
            width=0.125, direction_net_step=1.0, scale=0.125,
        )
        assert len(fam) == 2
        assert fam.width == 0.125
        axis = Line.from_angle_offset(float(fam.angles[0]), float(fam.offsets[0]))
        assert axis.offset() == pytest.approx(0.1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(PreconditionError):
            TubeFamily(np.zeros(3), np.zeros(2), width=0.1,
                       direction_net_step=0.1, scale=0.1)

    def test_size_cap(self):
        n = 2000  # over the 16 * scale^-2 cap for scale = 0.1
        with pytest.raises(InvariantViolation):
            TubeFamily(np.zeros(n), np.linspace(-1, 1, n), width=0.2,
                       direction_net_step=0.1, scale=0.1)

    def test_anchor_arrays_match_tubes(self):
        fam = uniform_tube_family(0.25)
        ax, ay = _anchors(fam.angles, fam.offsets)
        for i in (0, len(fam) // 2, len(fam) - 1):
            axis = Line.from_angle_offset(float(fam.angles[i]), float(fam.offsets[i]))
            assert axis.anchor.x == pytest.approx(ax[i], abs=1e-12)
            assert axis.anchor.y == pytest.approx(ay[i], abs=1e-12)


class TestUniformFamily:
    def test_frozen_sizes(self):
        assert len(uniform_tube_family(2.0 ** -2)) == 238
        assert len(uniform_tube_family(2.0 ** -4)) == 3640

    def test_size_bounds(self):
        for r in (2.0 ** -2, 2.0 ** -3, 2.0 ** -5):
            fam = uniform_tube_family(r)
            assert 0.25 / r ** 2 <= len(fam) <= 16.0 / r ** 2
            assert fam.width == pytest.approx(2.0 * r)

    def test_scale_domain(self):
        with pytest.raises(PreconditionError):
            uniform_tube_family(0.5)
        with pytest.raises(PreconditionError):
            uniform_tube_family(2.0 ** -15)

    def test_offsets_cover_the_unit_disc(self):
        fam = uniform_tube_family(2.0 ** -3)
        assert fam.offsets.min() <= -0.9
        assert fam.offsets.max() >= 0.9

    @pytest.mark.parametrize("r", [2.0 ** -k for k in range(2, 10)] + [0.1, 0.2, 0.03])
    def test_matches_per_column_oracle(self, r):
        """The family built column by column, as before the two offset
        rows were tiled; 2^-9 is the finest scale tested (2^-14 would
        hold about 3.7e9 members)."""
        m_cols = 2 * math.ceil(1.1 * math.pi / r)
        step = math.pi / m_cols
        angles, offsets = [], []
        for k in range(m_cols):
            phase = 0.5 * (k % 2)
            j_lo = math.ceil((-1.0 - 1e-12) / r - phase)
            j_hi = math.floor((1.0 + 1e-12) / r - phase)
            offs = (np.arange(j_lo, j_hi + 1) + phase) * r
            angles.append(np.full(offs.size, k * step))
            offsets.append(offs)
        fam = uniform_tube_family(r)
        assert fam.angles.tobytes() == np.concatenate(angles).tobytes()
        assert fam.offsets.tobytes() == np.concatenate(offsets).tobytes()
        assert fam.direction_net_step == step


# ---------------------------------------------------------------------------
# probe containment
# ---------------------------------------------------------------------------


class TestContainment:
    def test_probe_on_family_tube_axis(self):
        """A probe running down a family tube's own axis is contained in
        at least that tube."""
        fam = uniform_tube_family(2.0 ** -3)
        i = int(np.argmin(np.abs(fam.offsets)))  # probes need |d| < 1
        assert containment_multiplicity(
            fam, float(fam.angles[i]), float(fam.offsets[i])
        ) >= 1

    def test_matches_sampled_oracle(self, rng):
        """Sandwich the exact test between two sampled counts.

        Points along the probe's boundary within the unit disc give a
        lower bound on the max distance to each family axis; counting
        tubes that pass with margin (definitely in) and with slack
        (possibly in) brackets the implementation's answer.
        """
        r = 2.0 ** -2
        fam = uniform_tube_family(r)
        n_axis, n_fam = 801, len(fam)
        fx, fy = _anchors(fam.angles, fam.offsets)
        nx, ny = -np.sin(fam.angles), np.cos(fam.angles)
        for _ in range(12):
            theta = float(rng.uniform(0.0, math.pi))
            d = float(rng.uniform(-(1.0 - 2.0 * r), 1.0 - 2.0 * r))
            impl = containment_multiplicity(fam, theta, d)
            ex, ey = math.cos(theta), math.sin(theta)
            px, py = -math.sin(theta) * d, math.cos(theta) * d
            half_chord = math.sqrt(max(0.0, 1.0 - d * d))
            t = np.linspace(-half_chord, half_chord, n_axis)
            for side in (-r / 2.0, 0.0, r / 2.0):
                qx = px + t * ex - side * math.sin(theta)
                qy = py + t * ey + side * math.cos(theta)
                inside = qx ** 2 + qy ** 2 <= 1.0
                qxi, qyi = qx[inside], qy[inside]
                dist = np.abs(
                    (qxi[None, :] - fx[:, None]) * nx[:, None]
                    + (qyi[None, :] - fy[:, None]) * ny[:, None]
                )
                worst = dist.max(axis=1) if qxi.size else np.zeros(n_fam)
                if side == -r / 2.0:
                    sampled_max = worst
                else:
                    sampled_max = np.maximum(sampled_max, worst)
            definitely = int((sampled_max <= fam.width / 2.0 - 1e-6).sum())
            possibly = int((sampled_max <= fam.width / 2.0 + 1e-6).sum())
            assert definitely <= impl <= possibly

    def test_probe_outside_disc_rejected(self):
        fam = uniform_tube_family(2.0 ** -3)
        with pytest.raises(PreconditionError):
            containment_multiplicity(fam, 0.3, 1.5)

    def test_sample_probe_tubes_deterministic(self):
        a1, d1 = sample_probe_tubes(2.0 ** -4, 50, seed=3)
        a2, d2 = sample_probe_tubes(2.0 ** -4, 50, seed=3)
        assert np.array_equal(a1, a2) and np.array_equal(d1, d2)
        assert np.all(np.abs(d1) <= 1.0 - 2.0 ** -3)

    def test_multiplicity_within_contract(self):
        r = 2.0 ** -4
        fam = uniform_tube_family(r)
        angles, offsets = sample_probe_tubes(r, 100, seed=1)
        mults = [containment_multiplicity(fam, a, d)
                 for a, d in zip(angles, offsets)]
        assert min(mults) >= 1
        assert max(mults) <= 50


def _containment_multiplicity_oracle(fam, theta_p, d_p):
    """containment_multiplicity before the per-family column index: each
    probe rounds and argsorts every member angle, walks the window's
    columns one by one and takes np.unique of the candidates."""
    h = fam.scale / 2.0
    if abs(d_p) >= 1.0:
        raise PreconditionError("probe axis misses the open unit disc")
    chord = 2.0 * math.sqrt(max(1e-300, 1.0 - d_p * d_p))
    sin_win = min(1.0, fam.width / chord + 1e-9)
    ang_win = math.asin(sin_win)
    step = fam.direction_net_step
    k_star = round(theta_p / step)
    j_span = int(math.ceil(ang_win / step)) + 1
    cand_idx = []
    m_cols = int(round(math.pi / step))
    col_of = np.round(fam.angles / step).astype(np.int64)
    order = np.argsort(col_of, kind="stable")
    col_sorted = col_of[order]
    for k in range(k_star - j_span, k_star + j_span + 1):
        km = k % m_cols
        lo = np.searchsorted(col_sorted, km, side="left")
        hi = np.searchsorted(col_sorted, km, side="right")
        if hi > lo:
            cand_idx.append(order[lo:hi])
    if not cand_idx:
        return 0
    idx = np.unique(np.concatenate(cand_idx))
    th = fam.angles[idx]
    mid = d_p * np.array([-math.sin(theta_p), math.cos(theta_p)])
    mid_gap = line_residuals(mid, th, fam.offsets[idx])[0]
    idx = idx[mid_gap <= fam.width / 2.0 + 1e-9]
    if idx.size == 0:
        return 0
    dist = _max_dist_to_line(theta_p, d_p, h, fam.angles[idx], fam.offsets[idx])
    return int((dist <= fam.width / 2.0 + _CONTAIN_TOL).sum())


def _probes_with_wrap(fam, count, seed):
    """Random probes, probes within a column of angle 0 and of pi, and
    probes along the axes of eight members."""
    rng = np.random.default_rng(seed)
    step = fam.direction_net_step
    near = np.concatenate([[0.0, 1e-15, math.pi, np.nextafter(math.pi, 0.0)],
                           rng.uniform(0.0, 1.5 * step, 6),
                           math.pi - rng.uniform(0.0, 1.5 * step, 6)])
    angles = np.concatenate([rng.uniform(0.0, math.pi, count), near])
    lim = 1.0 - 2.0 * fam.scale
    offsets = rng.uniform(-lim, lim, angles.size)
    on_axis = rng.choice(np.flatnonzero(np.abs(fam.offsets) < lim), 8)
    return (np.concatenate([angles, fam.angles[on_axis]]),
            np.concatenate([offsets, fam.offsets[on_axis]]))


class TestContainmentIndex:
    """containment_multiplicity on the per-family column index against the
    retired per-probe argsort."""

    @staticmethod
    def _assert_matches(fam, angles, offsets):
        got = [containment_multiplicity(fam, a, d)
               for a, d in zip(angles.tolist(), offsets.tolist())]
        assert got == [_containment_multiplicity_oracle(fam, a, d)
                       for a, d in zip(angles.tolist(), offsets.tolist())]
        assert max(got) > 0

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_uniform_families(self, level):
        fam = uniform_tube_family(2.0 ** -level)
        self._assert_matches(fam, *_probes_with_wrap(fam, 24, level))
        order, columns, starts = fam._column_index
        assert order.size == len(fam)
        assert columns.size == starts.size - 1 <= len(fam)

    def test_shuffled_members_and_column_m_cols(self):
        base = uniform_tube_family(2.0 ** -4)
        step = base.direction_net_step
        m_cols = int(round(math.pi / step))
        perm = np.random.default_rng(2).permutation(len(base))
        # one member just below pi rounds to column m_cols: never a candidate
        angles = np.append(base.angles[perm], math.pi - step / 4.0)
        offsets = np.append(base.offsets[perm], 0.0)
        fam = TubeFamily(angles, offsets, width=base.width,
                         direction_net_step=step, scale=base.scale)
        assert round(angles[-1] / step) == m_cols
        self._assert_matches(fam, *_probes_with_wrap(fam, 24, 5))
        without = TubeFamily(angles[:-1], offsets[:-1], width=base.width,
                             direction_net_step=step, scale=base.scale)
        for a in (0.0, math.pi - step / 4.0):
            assert containment_multiplicity(fam, a, 0.0) == \
                containment_multiplicity(without, a, 0.0)

    def test_columns_far_outnumber_members(self):
        rng = np.random.default_rng(7)
        step = 1e-5
        m_cols = int(round(math.pi / step))
        cols = rng.integers(0, m_cols, 40)
        cols[:10] = rng.integers(0, 20, 10)            # near angle 0
        cols[10:20] = m_cols - rng.integers(1, 20, 10)  # near angle pi
        fam = TubeFamily(cols * step, rng.uniform(-0.5, 0.5, 40), width=0.05,
                         direction_net_step=step, scale=0.025)
        self._assert_matches(fam, *_probes_with_wrap(fam, 6, 8))
        assert m_cols > 1000 * len(fam) and fam._column_index[1].size <= len(fam)

    def test_window_wider_than_the_net(self):
        """Few columns, wide tubes: the window covers every column; members
        off the net and at negative columns as well."""
        rng = np.random.default_rng(9)
        step = math.pi / 4.0
        angles = np.concatenate([np.arange(4) * step, rng.uniform(-0.5, math.pi, 20)])
        fam = TubeFamily(angles, rng.uniform(-0.6, 0.6, angles.size), width=0.6,
                         direction_net_step=step, scale=0.3)
        self._assert_matches(fam, *_probes_with_wrap(fam, 24, 10))

    def test_step_beyond_two_pi_is_rejected(self):
        """round(pi / step) = 0 columns; the retired code divided by zero."""
        fam = TubeFamily(np.zeros(1), np.zeros(1), width=0.5,
                         direction_net_step=7.0, scale=0.25)
        with pytest.raises(ZeroDivisionError):
            _containment_multiplicity_oracle(fam, 0.3, 0.0)
        with pytest.raises(PreconditionError):
            containment_multiplicity(fam, 0.3, 0.0)

    def test_empty_family(self):
        fam = TubeFamily(np.zeros(0), np.zeros(0), width=0.1,
                         direction_net_step=0.1, scale=0.1)
        assert containment_multiplicity(fam, 0.3, 0.2) == 0


# ---------------------------------------------------------------------------
# heaviest tube
# ---------------------------------------------------------------------------


class TestHeaviestTube:
    def test_returned_mass_is_consistent(self):
        m = WeightedMeasure.uniform(gen_grid(9))
        tube, mass = heaviest_tube(m, Point(0.5, 0.0), 2.0 ** -3)
        assert mass == pytest.approx(tube_mass(m, tube))
        # it can never do worse than the horizontal row through the point
        assert mass >= 9.0 / 81.0 - 1e-12

    def test_tilted_tube_beats_the_row(self):
        """Frozen: on the 9x9 grid a width-1/8 tube through (0.5, 0) tilted
        to net angle 0.125 clips a tenth point from the next row up."""
        m = WeightedMeasure.uniform(gen_grid(9))
        tube, mass = heaviest_tube(m, Point(0.5, 0.0), 2.0 ** -3)
        assert mass == pytest.approx(10.0 / 81.0)
        assert tube.axis.angle == pytest.approx(0.125)

    def test_restriction_mask(self):
        m = WeightedMeasure.uniform(gen_grid(5))
        mask = np.zeros(25, dtype=bool)
        mask[:5] = True  # bottom row only
        tube, mass = heaviest_tube(m, Point(0.5, 0.0), 2.0 ** -2,
                                   restrict_to=mask)
        assert mass <= 5.0 / 25.0 + 1e-12

    def test_width_below_resolution_rejected(self):
        m = WeightedMeasure.uniform(gen_grid(9))  # delta = 1/8
        with pytest.raises(PreconditionError):
            heaviest_tube(m, Point(0.5, 0.5), 2.0 ** -4)

    def test_ties_break_toward_the_smallest_angle(self):
        """Directions 17, 19 and 21 of the width-2^-7 net each hold 24 of
        the 1,087 points. A float sum of 1/n weights made direction 19
        heavier by rounding; integer counts tie, and 17 wins."""
        m = WeightedMeasure.uniform(gen_random_delta_s_set(1.5, 2.0 ** -7, 1))
        x = Point(1.2263578446997732, 0.5829224404981834)
        width = 2.0 ** -7
        rel = m.support.points - np.array([x.x, x.y])
        ang = np.arange(math.ceil(math.pi / width)) * width
        counts = (line_residuals(rel, ang, np.zeros(ang.size)) <= width / 2.0 + 1e-12).sum(axis=0)
        assert np.flatnonzero(counts == counts.max()).tolist() == [17, 19, 21]
        tube, mass = heaviest_tube(m, x, width)
        assert tube.axis.angle == 17 * width
        assert mass == 24 / len(m) == tube_mass(m, tube)


# ---------------------------------------------------------------------------
# thin-tube audit
# ---------------------------------------------------------------------------


class TestThinTubeAudit:
    @pytest.mark.parametrize("sigma,k", [(0.1, 1.0), (0.5, 4.0), (1.0, 16.0)])
    def test_collinear_fails_exactly(self, sigma, k):
        """Both measures on the x-axis: the delta-width tube along it holds
        all of nu, so the worst ratio is exactly delta^-sigma / K."""
        mu, nu = _collinear_pair()
        audit = thin_tube_audit(mu, nu, sigma, k)
        assert not audit.passed
        assert audit.worst_ratio == pytest.approx(
            (2.0 ** -8) ** -sigma / k, rel=1e-9
        )
        assert audit.worst_tube is not None

    def test_center_vs_circle_passes(self):
        center = WeightedMeasure.uniform(
            DiscreteSet(np.array([[0.0, 0.0]]), 2.0 ** -10, check=False)
        )
        circ = WeightedMeasure.uniform(circle_set(256))
        audit = thin_tube_audit(center, circ, 1.0, 64.0)
        assert audit.passed
        assert audit.worst_ratio <= 1.0

    def test_separation_required(self):
        mu, _ = _collinear_pair()
        with pytest.raises(SeparationViolated):
            thin_tube_audit(mu, mu, 0.5, 4.0)

    def test_shrink_strips_offending_mass(self):
        mu, nu = _collinear_pair()
        audit = thin_tube_audit(mu, nu, 0.5, 4.0, shrink=True)
        # everything sits in one line, so shrinking removes all joint mass
        assert audit.c_mass == pytest.approx(0.0, abs=1e-12)
        assert audit.g_indicator.shape == (len(mu), len(nu))

    def test_audit_json_shape(self):
        mu, nu = _collinear_pair()
        audit = thin_tube_audit(mu, nu, 0.5, 4.0)
        payload = audit.as_json()
        assert payload["pass"] is False
        assert "worst_ratio" in payload and "g_kept_fraction" in payload

    def test_sigma_domain(self):
        mu, nu = _collinear_pair()
        with pytest.raises(PreconditionError):
            thin_tube_audit(mu, nu, 2.5, 1.0)


def test_tube_exponent_tracks_pushforward_dimension():
    """For the circle seen from its center both routes must say
    dimension about 1."""
    circ = WeightedMeasure.uniform(circle_set(512))
    expo = tube_mass_exponent(circ, Point(0.0, 0.0), 2, 6)
    push = radial_pushforward(circ, Point(0.0, 0.0)).as_circle_measure()
    fit = frostman_fit(push, 2, 6)
    assert abs(expo - fit.exponent) < 0.1
    assert expo == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# line-metric spread of tube sets
# ---------------------------------------------------------------------------


class TestVerifyTubeSet:
    def test_uniform_family_is_spread(self):
        chk = verify_tube_set(uniform_tube_family(2.0 ** -2), 2.0, 16.0)
        assert chk.passed
        assert chk.worst_ratio <= 1.0

    def test_pencil_at_matching_exponent(self):
        dl = 2.0 ** -6
        n_t = int(round(dl ** -0.5))
        angs = (np.arange(n_t) / n_t) * math.pi
        offs = 0.3 * -np.sin(angs) + 0.4 * np.cos(angs)
        pencil = TubeFamily(angs, offs, width=2 * dl,
                            direction_net_step=math.pi / n_t, scale=dl)
        assert verify_tube_set(pencil, 0.5, 16.0).passed

    def test_clustered_family_fails(self):
        dl = 2.0 ** -6
        bad = TubeFamily(np.full(64, 0.1), np.full(64, 0.2), width=2 * dl,
                         direction_net_step=dl, scale=dl)
        chk = verify_tube_set(bad, 0.5, 2.0)
        assert not chk.passed
        assert chk.worst_ratio > 2.0


def _verify_tube_set_oracle(fam, sigma, c):
    """verify_tube_set's former loop: a 3-column np.unique of the cells
    near each member at each level."""
    p = len(fam)
    r = fam.scale
    ax, ay = _anchors(fam.angles, fam.offsets)
    cells = _line_metric_cells(fam.angles, ax, ay, r)
    total = np.unique(cells, axis=0).shape[0]
    ang = fam.angles
    worst = (-1.0, 0, 0)
    for lv in range(level_of(r), -1, -1):
        rho = 2.0 ** -lv
        for i in range(p):
            dth = np.abs(ang - ang[i])
            dth = np.minimum(dth, math.pi - dth)
            dist = dth + np.hypot(ax - ax[i], ay - ay[i])
            near = dist <= rho + 1e-12
            cnt = np.unique(cells[near], axis=0).shape[0]
            ratio = cnt / (rho ** sigma * total)
            if ratio > worst[0]:
                worst = (ratio, i, lv)
    return worst[0] <= c * (1.0 + 1e-9), worst[0], worst[1], worst[2]


def _random_family(seed, n, dl):
    rng = np.random.default_rng(seed)
    step = math.pi / 32
    angs = rng.integers(0, 32, size=n) * step
    offs = rng.integers(-12, 12, size=n) * (dl / 2)
    return TubeFamily(angs, offs, width=2 * dl, direction_net_step=step, scale=dl)


def _boundary_family():
    """Tubes mostly at angle 0, where the line-metric distance to the tube
    at offset 0 is the offset: some sit exactly at rho + 1e-12 for a
    dyadic rho, some one ulp beyond, and several share a cell."""
    dl = 2.0 ** -4
    offs = [0.0, 0.0, 0.001, -0.001, 0.03]
    for lv in range(5):
        edge = 2.0 ** -lv + 1e-12
        offs += [edge, -edge, edge, float(np.nextafter(edge, 2.0))]
    angs = np.zeros(len(offs))
    angs[-3:] = dl
    return TubeFamily(angs, np.array(offs), width=2 * dl,
                      direction_net_step=dl, scale=dl)


def _tied_family():
    """Three parallel tubes 2^-4 apart. At sigma = 0 every ball that holds
    all three cells ties at ratio 1: at the finest level only the middle
    tube's does, one level up the first tube's too. The finest level is
    scanned first, so the middle tube is the witness."""
    dl = 2.0 ** -4
    return TubeFamily(np.zeros(3), np.arange(3) * dl, width=2 * dl,
                      direction_net_step=dl, scale=dl)


@pytest.mark.parametrize("make", [
    _boundary_family,
    _tied_family,
    lambda: uniform_tube_family(2.0 ** -2),
    lambda: TubeFamily(np.full(64, 0.1), np.full(64, 0.2), width=2.0 ** -5,
                       direction_net_step=2.0 ** -6, scale=2.0 ** -6),
    lambda: _random_family(0, 200, 2.0 ** -5),
    lambda: _random_family(1, 150, 2.0 ** -3),
])
def test_verify_tube_set_matches_oracle(make):
    fam = make()
    for sigma in (0.0, 0.5, 1.0, 2.0):
        chk = verify_tube_set(fam, sigma, 4.0)
        got = (chk.passed, chk.worst_ratio, chk.worst_index, chk.worst_level)
        assert got == _verify_tube_set_oracle(fam, sigma, 4.0)


def test_verify_tube_set_tie_goes_to_finest_level():
    chk = verify_tube_set(_tied_family(), 0.0, 4.0)
    assert (chk.worst_ratio, chk.worst_index, chk.worst_level) == (1.0, 1, 4)


# ---------------------------------------------------------------------------
# joint instances and the constant schedule
# ---------------------------------------------------------------------------


def _example_instance():
    r = 2.0 ** -4
    base = gen_grid(5)
    px = DiscreteSet(base.points, r, check=False)
    py = DiscreteSet(base.points.copy(), r, check=False)
    tube_map = {}
    for i in (0, 12):
        x, y = px.points[i]
        a = (np.arange(4) / 4) * math.pi
        o = x * -np.sin(a) + y * np.cos(a)
        tube_map[i] = TubeFamily(a, o, width=2 * r,
                                 direction_net_step=math.pi / 4, scale=r)
    return FuRenInstance(px, py, tube_map, s=1.2, t=1.2, sigma=0.9,
                         zeta=0.5, eta=0.4)


class TestFuRenInstance:
    def test_audit_accepts_example(self):
        rep = fu_ren_audit(_example_instance())
        assert rep["hypotheses_met"]
        assert rep["failed"] == []
        assert rep["implied_bound"] == pytest.approx(0.9)
        assert rep["consistent"]

    def test_audit_counts_tube_members_in_blocks(self):
        """16,641 grid points against 512 tubes: the whole residual matrix
        and its product temporary took about 130 MiB; blocks of
        (1 << 22) // 512 points hold about half of that."""
        import tracemalloc

        r = 2.0 ** -7
        py = gen_grid(129)
        assert py.delta == r
        px = DiscreteSet(py.points[[0, 8000]], r, check=False)
        x, y = px.points[1]
        a = np.arange(512) * (math.pi / 512)
        fam = TubeFamily(a, x * -np.sin(a) + y * np.cos(a), width=2 * r,
                         direction_net_step=math.pi / 512, scale=r)
        inst = FuRenInstance(px, py, {1: fam}, s=0.5, t=2.0, sigma=1.0,
                             zeta=0.5, eta=0.9)
        tracemalloc.start()
        try:
            rep = fu_ren_audit(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(f.startswith("tube set") for f in rep["failed"])
        assert peak < 96 * 2 ** 20

    def test_tube_must_contain_its_point(self):
        r = 2.0 ** -4
        base = gen_grid(5)
        px = DiscreteSet(base.points, r, check=False)
        fam = TubeFamily(np.array([0.0]), np.array([0.9]), width=2 * r,
                         direction_net_step=math.pi, scale=r)
        with pytest.raises(PreconditionError):
            FuRenInstance(px, px, {0: fam}, s=1.0, t=1.0, sigma=0.5,
                          zeta=0.5, eta=0.4)


class TestBootstrapSchedule:
    def test_frozen_midrange_values(self):
        sch = bootstrap_schedule(0.5, 1.0, 0.01)
        assert sch["eta"] == pytest.approx(0.00125, rel=1e-9)
        assert sch["kappa"] == pytest.approx(0.035, rel=1e-9)
        assert sch["log2_r1"] == -2068.0

    def test_tail_sum_below_half_eps(self):
        """The whole point of eta: the dyadic tail sum of r^eta past r2
        stays under eps/2."""
        sch = bootstrap_schedule(0.5, 1.0, 0.01)
        eta, l2r2, eps = sch["eta"], sch["log2_r2"], sch["eps"]
        m0 = math.ceil(-l2r2)
        tail = 2.0 ** (-m0 * eta) / (1.0 - 2.0 ** -eta)
        assert tail < eps / 2.0

    def test_underflow_is_reported_in_log2(self):
        sch = bootstrap_schedule(0.4, 0.7, 0.05, k_constant=4.0,
                                 frostman_constant=16.0)
        assert math.isfinite(sch["log2_r2"])
        assert sch["r2"] == 0.0  # raw value underflows, log2 carries it

    def test_domain_checks(self):
        with pytest.raises(PreconditionError):
            bootstrap_schedule(1.0, 0.5, 0.01)  # sigma >= s
        with pytest.raises(PreconditionError):
            bootstrap_schedule(0.5, 1.0, 0.5)  # eps too large
        with pytest.raises(PreconditionError):
            bootstrap_schedule(0.5, 1.0, 0.01, k_constant=0.5)


def _positive_separation_tree_oracle(mu, nu):
    """_positive_separation before the near-neighbour sweep: each positive
    point of mu's nearest positive point of nu from a k-d tree."""
    from scipy.spatial import cKDTree

    a = mu.support.points[mu.counts > 0]
    b = nu.support.points[nu.counts > 0]
    d, _ = cKDTree(b).query(a, k=1)
    return float(np.min(d))


def _measure(pts, zero_mask):
    c = np.where(zero_mask, 0, 1)
    c[0] += c.sum() == 0
    return WeightedMeasure(DiscreteSet(np.array(pts), 2.0 ** -12, check=False), c)


@st.composite
def _measure_pairs(draw):
    """Two measures on lattice points, whose distances include exact
    multiples of the pitch (3-4-5 triangles among them), or on float
    points that may coincide across the two; some weights zero; and a
    reach that is often one of the lattice distances exactly."""
    lattice = draw(st.booleans())
    if lattice:
        h = 2.0 ** -draw(st.integers(3, 6))
        coord = st.integers(-6, 6).map(lambda i: i * h)
    else:
        h = 0.1
        coord = st.floats(-1.3, 1.3, allow_nan=False)
    pool = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=40))
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=40)
    a, b = draw(pick), draw(pick)
    za = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    zb = draw(st.lists(st.booleans(), min_size=len(b), max_size=len(b)))
    reach = draw(st.sampled_from([h, 2 * h, 5 * h, 4.0, 1e-9]))
    return _measure(a, za), _measure(b, zb), reach


@settings(max_examples=300, deadline=None)
@given(_measure_pairs())
def test_positive_separation_matches_tree_oracle(case):
    """The least distance is the oracle's exactly when it is below the
    reach, and at least the reach otherwise."""
    mu, nu, reach = case
    got = _positive_separation(mu, nu, reach)
    want = _positive_separation_tree_oracle(mu, nu)
    if want < reach:
        assert got == want
    else:
        assert got >= reach


def test_separation_message_matches_tree_oracle():
    """thin_tube_audit quotes the exact gap when the supports are too
    close: here 3/4 of the four resolutions it needs, along the sweep."""
    mu = _measure([(0.125, 0.125)], [False])
    nu = _measure([(0.125 + 3 * 2.0 ** -12, 0.125), (0.875, 0.25)],
                  [False, False])
    need = 4.0 * 2.0 ** -12
    with pytest.raises(SeparationViolated) as exc:
        thin_tube_audit(mu, nu, 0.5)
    gap = _positive_separation_tree_oracle(mu, nu)
    assert gap == 3 * 2.0 ** -12
    assert str(exc.value) == f"supports are {gap!r} apart, need at least {need!r}"


def test_positive_separation_of_vertical_segments():
    """Two off-grid vertical segments of 2^14 points each: the sweep runs
    along them."""
    import time

    n = 2 ** 14
    t = np.arange(n) / (n + 1.0)
    mu = _measure(np.stack([np.full(n, 0.3), t], axis=1), np.zeros(n, dtype=bool))
    nu = _measure(np.stack([np.full(n, 0.3 + 2.0 ** -10), t], axis=1),
                  np.zeros(n, dtype=bool))
    t0 = time.perf_counter()
    got = _positive_separation(mu, nu, 2.0 ** -8)
    assert time.perf_counter() - t0 < 1.0
    assert got == _positive_separation_tree_oracle(mu, nu)


_NON_FINITE_CALLS = {
    "thin_tube_audit-k_constant":
        lambda v: thin_tube_audit(*_collinear_pair(), 0.5, k_constant=v),
    "verify_tube_set-c": lambda v: verify_tube_set(uniform_tube_family(0.25), 0.5, v),
    "heaviest_tube-width":
        lambda v: heaviest_tube(_collinear_pair()[1], Point(0.0, 0.0), v),
    "bootstrap_schedule-k_constant":
        lambda v: bootstrap_schedule(0.5, 1.0, 0.01, k_constant=v),
    "bootstrap_schedule-frostman_constant":
        lambda v: bootstrap_schedule(0.5, 1.0, 0.01, frostman_constant=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", list(_NON_FINITE_CALLS))
def test_nan_and_infinite_arguments_are_refused(name, value):
    """A guard written x < lo lets NaN through: thin_tube_audit passed
    with worst ratio -1, verify_tube_set failed with constant nan, and
    heaviest_tube raised a bare ValueError."""
    with pytest.raises(PreconditionError):
        _NON_FINITE_CALLS[name](value)
