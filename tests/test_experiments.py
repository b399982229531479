"""End-to-end experiment drivers: radial profiles, spanned-line dimension,
line-removal profiles, union tube counts, and orthogonal projections."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmtlab.covering import _check_level_window
from gmtlab.covering import circle_covering_number, verify_delta_s_set
from gmtlab.dyadic import MAX_LEVEL, level_of, quota_child_counts, unique_rows
from gmtlab.errors import (
    AllCollinear,
    AllMassAtCenter,
    CollinearX,
    ConfigInvalid,
    LowDimY,
    PreconditionError,
    ScaleRangeTooNarrow,
)
import gmtlab.experiments as experiments
from gmtlab.experiments import (
    X_CONSTANT_EXPONENT,
    ExperimentSpec,
    _clamped_window,
    _pencil_rngs,
    _seed_words,
    Target,
    all_collinear,
    direction_intervals,
    erdos_beck_profile,
    farthest_point_indices,
    furstenberg_count,
    line_set_dimension,
    orthogonal_exceptional_profile,
    radial_dimension_profile,
)
from gmtlab.generators import (
    DiscreteSet,
    gen_grid,
    gen_random_delta_s_set,
    segment_set,
)
from gmtlab.geometry import Point
from gmtlab.tubes import TubeFamily, verify_tube_set


def _collinear_set(n=32):
    pts = np.column_stack([np.linspace(0.0, 1.0, n), np.zeros(n)])
    return DiscreteSet(pts, 2.0 ** -6, check=False)


# ---------------------------------------------------------------------------
# targets and specs
# ---------------------------------------------------------------------------


class TestTargetAndSpec:
    def test_parse_known_targets(self):
        assert Target.parse("kaufman11") is Target.KAUFMAN11
        assert Target.parse(" FALCONER12 ") is Target.FALCONER12

    def test_parse_unknown(self):
        # the last two ran through commands of their own, never `project`
        for name in ("nonsense", "furstenberg27", "orthokaufmanc"):
            with pytest.raises(ConfigInvalid):
                Target.parse(name)

    def test_spec_window_too_narrow(self, fourcorner4):
        with pytest.raises(ScaleRangeTooNarrow):
            ExperimentSpec(fourcorner4, fourcorner4, scale_levels=(3, 5))

    def test_spec_sample_count_positive(self, fourcorner4):
        with pytest.raises(PreconditionError):
            ExperimentSpec(fourcorner4, fourcorner4, x_sample=0)


# ---------------------------------------------------------------------------
# small geometric helpers
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_all_collinear_detects_line(self):
        assert all_collinear(_collinear_set().points)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not all_collinear(tri)

    def test_farthest_point_spread(self, rng):
        pts = rng.random((200, 2))
        idx = farthest_point_indices(pts, 8)
        assert len(idx) == 8
        assert len(set(idx.tolist())) == 8
        # greedy start is index 0 by contract
        assert idx[0] == 0

    def test_direction_intervals_drop_near_center(self, grid5):
        lower, upper = direction_intervals(grid5, Point(0.0, 0.0))
        # the corner point itself (distance 0) is dropped
        assert lower.size < len(grid5)
        halfw = (upper - lower) / 2.0
        assert np.all(halfw > 0.0)
        assert np.all(halfw <= math.pi / 2.0 + 1e-12)

    def test_direction_intervals_widths_shrink_with_distance(self, grid5):
        lower, upper = direction_intervals(grid5, Point(-2.0, 0.5))
        # all points at distance >= 1.5: halfwidth <= asin(delta / 1.5)
        halfw = (upper - lower) / 2.0
        assert halfw.max() <= math.asin(min(1.0, grid5.delta / 1.5)) + 1e-12

    def test_direction_intervals_match_centre_and_halfwidth(self):
        """The tangent edges are the former centre -/+ asin(delta / |d|),
        up to rounding, and exact where a lower tangent is horizontal:
        points 26 and 38 lie one delta above the centre's line, so only
        the arcs from 0 up to their upper edges are met, never arc
        2^L - 1, which centre - halfwidth = -1.4e-17 reached."""
        y = gen_random_delta_s_set(1.5, 2.0 ** -7, 3)
        x = Point(0.1328125, 0.0)
        lower, upper = direction_intervals(y, x)
        d = y.points - np.array([x.x, x.y])
        dist = np.hypot(d[:, 0], d[:, 1])
        keep = dist >= 2.0 * y.delta * (1.0 - 1e-12)
        ang = np.mod(np.arctan2(d[keep, 1], d[keep, 0]), 2.0 * math.pi)
        halfw = np.arcsin(np.minimum(1.0, y.delta / dist[keep]))
        turn = lambda v: np.mod(v + math.pi, 2.0 * math.pi) - math.pi
        assert np.max(np.abs(turn(lower - (ang - halfw)))) <= 1e-15
        assert np.max(np.abs(turn(upper - (ang + halfw)))) <= 1e-15
        assert np.all((upper >= lower) & (upper - lower < math.pi))
        idx = [26, 38]
        assert np.array_equal(y.points[keep][idx, 1], [y.delta, y.delta])
        assert lower[26] == 0.0 and lower[38] == 0.0
        for level in range(0, 21):
            arcs = 2 ** level
            top = int(math.floor(upper[idx].max() / (2.0 * math.pi) * arcs))
            assert circle_covering_number(lower[idx], level, upper=upper[idx]) == (
                min(top + 1, arcs))


def _direction_intervals_oracle(y, x):
    """direction_intervals before it reused its buffers: one (n, 2)
    difference array, and np.where for the wrapped lower edges."""
    d = y.points - np.array([x.x, x.y])
    dist = np.hypot(d[:, 0], d[:, 1])
    keep = dist >= 2.0 * y.delta * (1.0 - 1e-12)
    if not np.any(keep):
        raise AllMassAtCenter(
            f"every point of the projected set sits within 2 delta of "
            f"({x.x:g}, {x.y:g})"
        )
    dx, dy = d[keep, 0], d[keep, 1]
    rho = y.delta
    tangent = np.sqrt(dx * dx + dy * dy - rho * rho)
    lower = np.arctan2(dy * tangent - dx * rho, dx * tangent + dy * rho)
    upper = np.arctan2(dy * tangent + dx * rho, dx * tangent - dy * rho)
    return np.where(upper < lower, lower - 2.0 * math.pi, lower), upper


_INTERVAL_CASES = {
    # the centre and its 8 neighbours lie within 2 delta and are dropped
    "dropped": (lambda: gen_grid(9), Point(0.5, 0.5), 9),
    # points one delta above the centre's line: lower edges exactly 0
    "axis-aligned": (lambda: gen_random_delta_s_set(1.5, 2.0 ** -7, 3),
                     Point(0.1328125, 0.0), 3),
    # points due left of the centre: intervals across pi, lower edges
    # moved below -pi
    "wrapped": (lambda: gen_grid(9), Point(1.5, 0.0), 0),
    "inside": (lambda: gen_random_delta_s_set(1.5, 2.0 ** -10, 3),
               Point(0.5, 0.5), None),
    "outside": (lambda: gen_random_delta_s_set(1.5, 2.0 ** -10, 3),
                Point(-0.3, 0.2), 0),
}


@pytest.mark.parametrize("case", sorted(_INTERVAL_CASES))
def test_direction_intervals_match_the_retired_body(case):
    make, x, dropped = _INTERVAL_CASES[case]
    y = make()
    got = direction_intervals(y, x)
    want = _direction_intervals_oracle(y, x)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    lower, upper = got
    if dropped is not None:
        assert len(y) - lower.size == dropped
    if case == "axis-aligned":
        assert np.count_nonzero(lower == 0.0) >= 2
    if case == "wrapped":
        assert np.count_nonzero(lower < -math.pi) >= 2
    assert np.all(upper >= lower)


def test_direction_intervals_of_a_swallowed_set():
    """Every point within 2 delta of the centre: both bodies refuse alike."""
    y = DiscreteSet(np.array([[0.5, 0.5], [0.5, 0.5 + 2.0 ** -8],
                              [0.5 + 2.0 ** -8, 0.5]]), 2.0 ** -8, check=False)
    x = Point(0.5 + 2.0 ** -9, 0.5)
    errors = []
    for fn in (direction_intervals, _direction_intervals_oracle):
        with pytest.raises(AllMassAtCenter) as exc:
            fn(y, x)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# radial dimension profile
# ---------------------------------------------------------------------------


class TestRadialProfile:
    def test_rejects_collinear_x(self):
        spec = ExperimentSpec(_collinear_set(), gen_grid(17), x_sample=4,
                              scale_levels=(0, 4))
        with pytest.raises(CollinearX):
            radial_dimension_profile(spec)

    def test_rejects_low_dimensional_y(self):
        """Only the sum-rule variant needs dim Y > 1.05."""
        spec = ExperimentSpec(gen_grid(17), _collinear_set(64), x_sample=4,
                              scale_levels=(0, 4), target=Target.FALCONER12)
        with pytest.raises(LowDimY):
            radial_dimension_profile(spec)

    def test_rejects_wrong_target(self, fourcorner4):
        spec = ExperimentSpec(fourcorner4, fourcorner4, x_sample=4,
                              scale_levels=(0, 6), target=Target.BECKCOR13)
        with pytest.raises(ConfigInvalid):
            radial_dimension_profile(spec)

    def test_fourcorner_profile_shape(self, fourcorner4):
        spec = ExperimentSpec(fourcorner4, fourcorner4, x_sample=8,
                              scale_levels=(0, 8), target=Target.KAUFMAN11)
        res = radial_dimension_profile(spec)
        assert len(res.per_x_table) == 8
        assert res.best_dimension.slope == max(s for _, s in res.per_x_table)
        assert res.predicted_lower_bound == pytest.approx(
            min(res.margin + res.best_dimension.slope, 1.0), abs=1e-9
        ) or res.margin == pytest.approx(
            res.best_dimension.slope - res.predicted_lower_bound
        )

    def test_falconer_target_uses_sum_rule(self):
        x = gen_random_delta_s_set(0.8, 2.0 ** -8, seed=1)
        y = gen_random_delta_s_set(1.4, 2.0 ** -8, seed=2)
        spec = ExperimentSpec(x, y, x_sample=6, scale_levels=(2, 8),
                              target=Target.FALCONER12)
        res = radial_dimension_profile(spec)
        # predicted floor is min(dimX + dimY - 1, 1), measured desk-scale
        assert 0.0 <= res.predicted_lower_bound <= 1.0


# ---------------------------------------------------------------------------
# spanned-line dimension
# ---------------------------------------------------------------------------


class TestLineSetDimension:
    def test_rejects_collinear(self):
        with pytest.raises(AllCollinear):
            line_set_dimension(_collinear_set())

    def test_triangle_is_zero_dimensional(self):
        tri = DiscreteSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 2.0 ** -4
        )
        est = line_set_dimension(tri)
        assert est.slope == pytest.approx(0.0, abs=0.05)

    def test_grid16_frozen_slope(self):
        est = line_set_dimension(gen_grid(16))
        assert est.slope == pytest.approx(1.7463, abs=1e-3)
        assert est.level_range == (1, 4)

    def test_grid_line_set_is_nearly_two_dimensional(self):
        est = line_set_dimension(gen_grid(32))
        assert est.slope > 1.8


# ---------------------------------------------------------------------------
# line-removal (erdos-beck style) profile
# ---------------------------------------------------------------------------


class TestErdosBeckProfile:
    def test_segment_plus_point(self):
        """A segment with one extra point: removing the heavy line leaves
        almost nothing, so t_achieved is about dim X and the predicted
        floor collapses to zero."""
        seg = segment_set(128)
        pts = np.concatenate([seg.points, [[0.5, 0.5]]])
        ds = DiscreteSet(pts, seg.delta, check=False)
        out = erdos_beck_profile(ds, 0.5)
        assert out["predicted"] == pytest.approx(0.0)
        assert out["t_achieved"] == pytest.approx(out["dim_x"], abs=0.05)
        # realized removal depth far exceeds the hypothesis t = 0.5
        assert out["warnings"] != []

    def test_grid_keeps_t_small(self):
        out = erdos_beck_profile(gen_grid(16), 0.3)
        # no single line dominates a grid, so removal barely dents it
        assert out["t_achieved"] <= 0.3
        assert out["warnings"] == []
        assert out["measured"] > 0.0

    def test_t_domain(self, grid5):
        with pytest.raises(PreconditionError):
            erdos_beck_profile(grid5, -0.1)
        with pytest.raises(PreconditionError):
            erdos_beck_profile(grid5, 2.5)

    def test_collinear_rejected(self):
        with pytest.raises(AllCollinear):
            erdos_beck_profile(_collinear_set(), 0.1)


# ---------------------------------------------------------------------------
# union tube counting
# ---------------------------------------------------------------------------


class TestFurstenbergCount:
    def test_structural_consistency(self):
        out = furstenberg_count(0.5, 1.0, 2.0 ** -6, seed=3)
        assert out["count"] >= 1
        assert out["wolff_floor"] == pytest.approx((2.0 ** -6) ** -1.0)
        assert out["ratio"] == pytest.approx(out["count"] / out["wolff_floor"])
        assert out["mean_pencil_size"] >= 1.0

    def test_deterministic(self):
        a = furstenberg_count(0.4, 0.9, 2.0 ** -6, seed=12)
        b = furstenberg_count(0.4, 0.9, 2.0 ** -6, seed=12)
        assert a["count"] == b["count"]

    def test_sigma_domain(self):
        with pytest.raises(PreconditionError):
            furstenberg_count(0.0, 1.0, 2.0 ** -6, seed=0)
        with pytest.raises(PreconditionError):
            furstenberg_count(1.0, 1.2, 2.0 ** -6, seed=0)

    def test_s_must_exceed_sigma(self):
        with pytest.raises(PreconditionError):
            furstenberg_count(0.8, 0.5, 2.0 ** -6, seed=0)

    def test_supplied_x_set_is_validated(self):
        clustered = DiscreteSet(
            np.random.default_rng(1).random((64, 2)) * 2.0 ** -5 + 0.4,
            2.0 ** -10, check=False,
        )
        with pytest.raises(PreconditionError):
            furstenberg_count(0.5, 1.5, 2.0 ** -10, seed=0, x_set=clustered)

    def test_supplied_x_set_at_another_resolution_is_refused(self):
        x_set = gen_random_delta_s_set(1.0, 2.0 ** -8, 3)
        with pytest.raises(PreconditionError, match="resolution"):
            furstenberg_count(0.5, 1.0, 2.0 ** -6, seed=0, x_set=x_set)

    def test_pencil_zero_is_always_verified(self, monkeypatch):
        """Pencils of 2^(0.9 * 10) ~ 300 tubes: pencil 0 is checked, once,
        at full size, and it meets the regularity target."""
        checked = []

        def spy(fam, sigma, c):
            chk = verify_tube_set(fam, sigma, c)
            checked.append((fam.label, len(fam), chk.passed))
            return chk

        monkeypatch.setattr(experiments, "verify_tube_set", spy)
        out = furstenberg_count(0.9, 1.0, 2.0 ** -10, seed=1)
        assert out["mean_pencil_size"] == 300.0
        assert checked == [("pencil 0", 300, True)]
        assert out["warnings"] == [
            f"generator regularity constant 16 exceeds the target "
            f"delta^-{X_CONSTANT_EXPONENT:g} = {2.0 ** (10 * X_CONSTANT_EXPONENT):.2f} "
            f"at this scale"
        ]

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (np.int64(-1), ValueError), (1.5, TypeError),
        (np.float64(2.0), TypeError), (None, TypeError),
    ])
    def test_seeds_are_refused_as_pcg64_refuses_them(self, seed, error):
        """A supplied set leaves the pencil seeding as the first use of
        the seed."""
        with pytest.raises(error):
            np.random.PCG64((seed, 0))
        x_set = gen_random_delta_s_set(1.0, 2.0 ** -6, 3)
        with pytest.raises(error):
            furstenberg_count(0.5, 1.0, 2.0 ** -6, seed, x_set=x_set)


_SEEDS = st.one_of(st.integers(0, 2 ** 100),
                   st.integers(0, 2 ** 63 - 1).map(np.int64))


@given(seed=_SEEDS, start=st.integers(0, 2 ** 32 - 8),
       n=st.integers(1, 8), k=st.integers(1, 40))
@example(seed=0, start=0, n=3, k=5)
@example(seed=np.int64(0), start=0, n=1, k=1)
@example(seed=2 ** 32 - 1, start=0, n=4, k=7)
@example(seed=np.int64(2 ** 32 - 1), start=0, n=2, k=3)
@example(seed=2 ** 32, start=0, n=2, k=3)
@example(seed=np.int64(2 ** 32), start=5, n=2, k=3)
@example(seed=2 ** 64 + 3, start=0, n=3, k=3)
@example(seed=2 ** 96 + 1, start=1, n=2, k=3)  # a fifth entropy word
@example(seed=7, start=2 ** 32 - 8, n=8, k=2)
@settings(max_examples=60, deadline=None)
def test_pencil_streams_match_pcg64_seed_sequences(seed, start, n, k):
    """Seeding a block of pencils at once gives each pencil i the stream
    of Generator(PCG64((seed, i)))."""
    got = [rng.random(k) for rng in _pencil_rngs(_seed_words(seed), start, start + n)]
    want = [np.random.Generator(np.random.PCG64((seed, i))).random(k)
            for i in range(start, start + n)]
    assert len(got) == n
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _quota_angle_cells_oracle(sigma, levels, rng):
    """_quota_angle_cells before pencils were built in blocks: one
    generator, one pencil."""
    cells = np.zeros(1, dtype=np.int64)
    surplus = np.zeros(1)
    carry = 0.0
    for _ in range(levels):
        p = cells.shape[0]
        counts, carry = quota_child_counts(
            surplus,
            branch_log2=sigma,
            available=np.full(p, 2, dtype=np.int64),
            hard_cap=2,
            tiebreak=rng.random(p),
            carry=carry,
        )
        ranks = np.argsort(rng.random((p, 2)), axis=1).argsort(axis=1)
        parent_idx, sub_idx = np.nonzero(ranks < counts[:, None])
        cells = cells[parent_idx] * 2 + sub_idx
        surplus = surplus[parent_idx] + np.log2(counts[parent_idx]) - sigma
    return cells


def _line_metric_cells_oracle(fam, scale):
    """tubes._line_metric_cells when it took a TubeFamily, with the
    former TubeFamily.anchor_arrays inlined."""
    ax, ay = (-fam.offsets * np.sin(fam.angles),
              fam.offsets * np.cos(fam.angles))
    return np.column_stack((
        np.floor(fam.angles / scale).astype(np.int64),
        np.floor(ax / scale).astype(np.int64),
        np.floor(ay / scale).astype(np.int64),
    ))


def _furstenberg_count_oracle(sigma, s, delta, seed, x_set=None):
    """furstenberg_count before pencils were built in blocks: one
    TubeFamily per point."""
    if not (0.0 < sigma < 1.0):
        raise PreconditionError(f"sigma {sigma!r} outside (0, 1)")
    if not (sigma < s < 2.0):
        raise PreconditionError(f"s {s!r} outside (sigma, 2)")
    if not (2.0 ** -12 - 1e-15 <= delta <= 2.0 ** -4 + 1e-15):
        raise PreconditionError(f"delta {delta!r} outside [2^-12, 2^-4]")
    lv = level_of(delta)
    warnings: list = []
    if x_set is None:
        x_set = gen_random_delta_s_set(s, delta, seed)
        target_c = delta ** -X_CONSTANT_EXPONENT
        if 16.0 > target_c:
            warnings.append(
                f"generator regularity constant 16 exceeds the target "
                f"delta^-{X_CONSTANT_EXPONENT:g} = {target_c:.2f} at this scale"
            )
    else:
        chk = verify_delta_s_set(x_set, s, 16.0)
        if not chk.passed:
            raise PreconditionError(
                f"supplied point set is not ({delta:g}, {s:g})-regular at "
                f"constant 16 (worst ratio {chk.worst_ratio:.2f})"
            )
    step = math.pi * 2.0 ** -lv
    all_cells = []
    pencil_sizes = []
    for i, (px, py) in enumerate(x_set.points):
        rng = np.random.default_rng((seed, i))
        cells = _quota_angle_cells_oracle(sigma, lv, rng)
        angles = (cells.astype(float) + 0.5) * step
        offsets = -px * np.sin(angles) + py * np.cos(angles)
        fam = TubeFamily(angles, offsets, width=delta,
                         direction_net_step=step, scale=delta,
                         label=f"pencil {i}")
        pencil_sizes.append(len(fam))
        if i == 0:
            chk = verify_tube_set(fam, sigma, 16.0)
            if not chk.passed:
                warnings.append(
                    f"pencil 0 misses the direction-regularity target "
                    f"(worst ratio {chk.worst_ratio:.2f} > 16)"
                )
        all_cells.append(_line_metric_cells_oracle(fam, delta))
    count = int(unique_rows(np.concatenate(all_cells, axis=0)).shape[0])
    wolff_floor = delta ** (-2.0 * sigma)
    return {
        "count": count,
        "wolff_floor": wolff_floor,
        "ratio": count / wolff_floor,
        "n_points": len(x_set),
        "mean_pencil_size": float(np.mean(pencil_sizes)),
        "warnings": warnings,
    }


def _assert_same_outcome(*args, **kwargs):
    """furstenberg_count and its oracle return the same dict, value types
    included, or raise the same error."""
    outcomes = []
    for fn in (furstenberg_count, _furstenberg_count_oracle):
        try:
            out = fn(*args, **kwargs)
            outcomes.append((out, {k: type(v) for k, v in out.items()}))
        except PreconditionError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


class TestFurstenbergBlocks:
    """Pencils built in blocks against the retired per-point loop."""

    @given(
        sigma=st.floats(0.05, 0.95),
        level=st.integers(4, 10),
        u=st.floats(0.01, 1.0),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_generated_and_supplied_sets(self, sigma, level, u, seed):
        delta = 2.0 ** -level
        # at most about 2^9 points, or 2^(0.97 * 10) at the finest level
        s = sigma + u * (max(sigma + 0.02, min(1.99, 9.0 / level)) - sigma)
        _assert_same_outcome(sigma, s, delta, seed)
        x_set = gen_random_delta_s_set(s, delta, seed + 1)
        _assert_same_outcome(sigma, s, delta, seed, x_set=x_set)

    @pytest.mark.parametrize("sigma, seed", [(0.3, 4), (0.93, 5)])
    def test_several_blocks_and_a_partial_one(self, sigma, seed):
        """At delta = 2^-10 a block holds 256 points; this set has 406."""
        delta = 2.0 ** -10
        x_set = gen_random_delta_s_set(0.95, delta, 6)
        assert len(x_set) == 406
        assert furstenberg_count(sigma, 0.95, delta, seed, x_set=x_set)["n_points"] == 406
        _assert_same_outcome(sigma, 0.95, delta, seed, x_set=x_set)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_count_at_the_radial_call(self, seed):
        """The counts that packed cell keys give at (0.5, 1.0, 2^-10), the
        call the radial workload makes, are the retired loop's."""
        got = furstenberg_count(0.5, 1.0, 2.0 ** -10, seed)
        assert got["count"] == _furstenberg_count_oracle(0.5, 1.0, 2.0 ** -10, seed)["count"]

    def test_union_is_merged_in_bounded_memory(self):
        """At (0.9, 1.5, 2^-9) the 8,695 points take 17 blocks of pencils
        of 274 tubes, 2.4 million line-metric cells in all, of which
        261,317 are distinct (the retired loop's count, 3 s to recount).
        Each block's cells are made distinct and merged into the running
        union, so the peak traced memory stays under 60 MiB, where keeping
        every block's cells for one final union peaked at 89 MiB."""
        import tracemalloc

        tracemalloc.start()
        try:
            got = furstenberg_count(0.9, 1.5, 2.0 ** -9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got["count"] == 261317 and got["n_points"] == 8695
        assert peak < 60 * 2 ** 20

    def test_tiny_sigma(self):
        """Below sigma = 1.44e-12 the hard cap is one child per parent, where
        the retired loop allowed two; the extra child is never granted."""
        _assert_same_outcome(1e-13, 0.5, 2.0 ** -12, 3)


# ---------------------------------------------------------------------------
# orthogonal projections
# ---------------------------------------------------------------------------


class TestOrthogonalProfile:
    def test_segment_has_exactly_one_collapse_direction(self, segment256):
        out = orthogonal_exceptional_profile(segment256, 0.5)
        assert out["n_exceptional"] == 1
        assert out["measured_dim"] == 0.0
        # the collapsing direction projects along the segment's own span
        assert out["exceptional_directions"][0] == pytest.approx(math.pi / 2.0)

    def test_full_grid_has_no_exceptional_directions(self):
        out = orthogonal_exceptional_profile(gen_grid(64), 0.85)
        assert out["n_exceptional"] == 0
        assert out["measured_dim"] == 0.0

    def test_sigma_precondition(self, segment256):
        with pytest.raises(PreconditionError):
            orthogonal_exceptional_profile(segment256, 0.95)

    @given(st.floats(2.0 ** -24, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_windows_are_clamped_windows(self, delta):
        """The dim Y and projection windows, as computed inline before,
        are _clamped_window((2, MAX_LEVEL)) and _clamped_window((2, 8))."""
        hi = level_of(delta)
        lv_hi = min(8, level_of(delta))
        old = ((min(2, max(0, hi - 3)), hi), (min(2, max(0, lv_hi - 3)), lv_hi))
        if hi < 3:
            # the old windows spanned under 3 levels, which box_dimension refuses
            with pytest.raises(ScaleRangeTooNarrow):
                _clamped_window((2, MAX_LEVEL), delta)
            with pytest.raises(PreconditionError):
                _check_level_window(*old[0], delta)
            return
        assert _clamped_window((2, MAX_LEVEL), delta) == old[0]
        assert _clamped_window((2, 8), delta) == old[1]

    def test_coarse_set_is_too_narrow(self):
        ds = DiscreteSet(np.array([[0.0, 0.0], [0.25, 0.5], [0.5, 0.25]]), 0.25)
        with pytest.raises(ScaleRangeTooNarrow):
            orthogonal_exceptional_profile(ds, 0.1)

    def test_projection_dims_cover_net(self, segment256):
        out = orthogonal_exceptional_profile(segment256, 0.3)
        assert out["direction_count"] == 1024
        assert out["projection_dims"].shape == (1024,)
        assert np.all(out["projection_dims"] >= -0.1)
