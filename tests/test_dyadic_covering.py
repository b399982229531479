"""Dyadic grid utilities, covering numbers, and dimension estimates.

Frozen values in here were derived by hand or by a second, independent
counting route before being pinned; when a number appears as a bare
constant it is an oracle, not a regression snapshot.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.covering import (
    box_dimension,
    circle_box_dimension,
    circle_covering_number,
    covering_number,
    fit_log2_slope,
    frostman_extract,
    hausdorff_content,
    per_scale_counts,
    verify_delta_s_set,
)
from gmtlab.dyadic import (
    MAX_LEVEL,
    cell_indices,
    count_cells,
    is_dyadic,
    level_of,
    quota_child_counts,
)
from gmtlab.errors import (
    EmptyInput,
    PreconditionError,
    ScaleRangeTooNarrow,
)
from gmtlab.generators import (
    DiscreteSet,
    cantor_middle_thirds,
    gen_ifs,
    gen_random_delta_s_set,
    segment_set,
)


# ---------------------------------------------------------------------------
# grid indexing
# ---------------------------------------------------------------------------


def test_level_of():
    assert level_of(1.0) == 0
    assert level_of(2.0 ** -5) == 5
    assert level_of(0.3) == 1
    assert level_of(2.0 ** -30) == MAX_LEVEL
    with pytest.raises(ValueError):
        level_of(0.0)


def test_is_dyadic():
    assert is_dyadic(0.25)
    assert is_dyadic(2.0 ** -13)
    assert not is_dyadic(0.3)
    assert not is_dyadic(3.0 ** -4)


def test_count_cells_matches_set_of_tuples(rng):
    pts = rng.uniform(-1.0, 2.0, size=(400, 2))
    for side in (0.5, 0.25, 0.125):
        expected = len({
            (math.floor(x / side), math.floor(y / side)) for x, y in pts
        })
        assert count_cells(pts, side) == expected


def test_cell_indices_negative_coordinates():
    cells = cell_indices(np.array([[-0.1, 0.1]]), 0.5)
    assert cells.tolist() == [[-1, 0]]


# ---------------------------------------------------------------------------
# quota branching
# ---------------------------------------------------------------------------


@given(
    p=st.integers(1, 40),
    branch=st.floats(0.2, 2.0),
    carry=st.floats(0.0, 0.999),
    seed=st.integers(0, 2 ** 31),
)
@settings(max_examples=80, deadline=None)
def test_quota_counts_stay_in_range(p, branch, carry, seed):
    r = np.random.default_rng(seed)
    surplus = r.normal(size=p)
    available = r.integers(1, 5, size=p)
    hard_cap = int(math.ceil(2.0 ** branch))
    counts, new_carry = quota_child_counts(
        surplus, branch, available, hard_cap, tiebreak=r.random(p), carry=carry
    )
    assert (counts >= 1).all()
    assert (counts <= np.minimum(available, hard_cap)).all()
    assert 0.0 <= new_carry < 1.0 + 1e-9


@given(p=st.integers(1, 64), seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_quota_budget_conservation(p, seed):
    """With no caps binding, total kept equals the rounded-down budget
    base*p + floor(frac*p + carry), and the carry keeps the remainder."""
    r = np.random.default_rng(seed)
    branch = 0.7
    base = int(math.floor(2.0 ** branch))
    frac = 2.0 ** branch - base
    available = np.full(p, 8)
    counts, new_carry = quota_child_counts(
        r.normal(size=p), branch, available, hard_cap=8,
        tiebreak=r.random(p), carry=0.0,
    )
    expected_total = base * p + int(math.floor(frac * p + 1e-9))
    assert int(counts.sum()) == expected_total
    assert new_carry == pytest.approx(frac * p - math.floor(frac * p + 1e-9),
                                      abs=1e-6)


def test_quota_prefers_lowest_surplus():
    surplus = np.array([0.5, -1.0, 0.0])
    counts, _ = quota_child_counts(
        surplus, 0.5, np.full(3, 4), hard_cap=2,
        tiebreak=np.zeros(3), carry=0.0,
    )
    # 2^0.5 ~ 1.41 gives budget floor(.41*3)=1 extra child, to index 1
    assert counts.tolist() == [1, 2, 1]


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------


def test_covering_number_trivial_cases():
    one = DiscreteSet(np.array([[0.3, 0.3]]), 0.5)
    assert covering_number(one, 0) == 1
    assert covering_number(one, 1) == 1
    with pytest.raises(PreconditionError):
        covering_number(one, -1)


def _cantor_corner_cells(depth: int, level: int) -> int:
    """Exact-rational oracle: the generator emits the left corner of each
    surviving ternary interval, so count the dyadic cells those corners
    occupy."""
    corners = [Fraction(0)]
    for _ in range(depth):
        corners = [c / 3 for c in corners] + [c / 3 + Fraction(2, 3) for c in corners]
    side = 2 ** level
    return len({(c * side).__floor__() for c in corners})


@pytest.mark.parametrize("depth,expected", [(6, 27), (7, 28)])
def test_cantor_level6_covering(depth, expected, cantor6):
    """Level-6 dyadic cells occupied by the middle-thirds corner points.

    Several depth-7 corners share a 2^-6 cell, so the count is 28 rather
    than the naive 2^6 = 64; the depth-6 set drops one more to 27.  Both
    values come out of the exact-arithmetic oracle above.
    """
    assert _cantor_corner_cells(depth, 6) == expected
    if depth == 6:
        assert covering_number(cantor6, 6) == expected
    else:
        deep = gen_ifs(cantor_middle_thirds(), 3.0 ** -7)
        assert covering_number(deep, 6) == expected


def test_per_scale_counts_monotone(fourcorner4):
    counts = per_scale_counts(fourcorner4, 0, 8)
    values = [c for _, c in counts]
    assert values[0] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_box_dimension_of_segment():
    est = box_dimension(segment_set(512), 2, 9)
    assert est.slope == pytest.approx(1.0, abs=0.02)
    assert est.r_squared > 0.999


def test_box_dimension_window_validation(segment256):
    with pytest.raises(ScaleRangeTooNarrow):
        box_dimension(segment256, 3, 4)
    with pytest.raises(PreconditionError):
        box_dimension(segment256, 5, 14)  # probes below the set resolution


def test_fit_log2_slope_exact_line():
    levels = np.arange(2, 9, dtype=float)
    values = 2.0 ** (1.5 * levels + 0.25)
    slope, intercept, r2 = fit_log2_slope(levels, values)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(0.25, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def _ortho_slopes_oracle(levels, counts):
    """orthogonal_exceptional_profile's former private slope fit, one
    column of covering counts per direction."""
    logs = np.log2(counts)
    xm = levels.mean()
    sxx = float(np.sum((levels - xm) ** 2))
    return (levels - xm) @ (logs - logs.mean(axis=0)) / sxx


@given(lo=st.integers(0, 4), n_levels=st.integers(4, 9), seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_fit_log2_slope_columns_match_ortho_oracle(lo, n_levels, seed):
    levels = np.arange(lo, lo + n_levels, dtype=float)
    counts = np.random.default_rng(seed).integers(1, 1 << 12, size=(n_levels, 33))
    slopes, intercepts, r2 = fit_log2_slope(levels, counts.astype(float))
    assert np.array_equal(slopes, _ortho_slopes_oracle(levels, counts))
    for j in (0, 16, 32):
        one = fit_log2_slope(levels, counts[:, j])
        assert one == pytest.approx((slopes[j], intercepts[j], r2[j]), abs=1e-12)


# ---------------------------------------------------------------------------
# circle covering
# ---------------------------------------------------------------------------


class TestCircleCovering:
    def test_halving_convention(self):
        """Level l cuts the circle into 2^l arcs of width 2*pi*2^-l."""
        angles = [0.1, 0.2, math.pi, 2.0 * math.pi - 0.1]
        assert circle_covering_number(angles, 0) == 1
        assert circle_covering_number(angles, 1) == 2
        assert circle_covering_number(angles, 3) == 3

    def test_wraps_modulo_two_pi(self):
        assert circle_covering_number([0.05, 2.0 * math.pi + 0.05], 4) == 1

    def test_interval_mode_counts_spanned_arcs(self):
        # centered on an arc boundary, a near-pi-wide interval spans 2 arcs
        n = circle_covering_number([0.0], 2, halfwidths=[math.pi / 2.0 - 1e-6])
        assert n == 2
        # centered mid-arc it reaches one arc further on each side
        n = circle_covering_number([math.pi / 4.0], 2,
                                   halfwidths=[math.pi / 2.0 - 1e-6])
        assert n == 3
        # full-circle halfwidth saturates
        assert circle_covering_number([1.0], 4, halfwidths=[math.pi]) == 16

    def test_interval_mode_rejects_negative_halfwidth(self):
        with pytest.raises(PreconditionError):
            circle_covering_number([0.0], 2, halfwidths=[-0.1])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            circle_covering_number([], 3)

    def test_equispaced_angles_have_dimension_one(self):
        angles = np.arange(512) * (2.0 * math.pi / 512.0)
        est = circle_box_dimension(angles, 2, 8)
        assert est.slope == pytest.approx(1.0, abs=0.01)

    def test_single_angle_has_dimension_zero(self):
        est = circle_box_dimension([1.3], 2, 8)
        assert est.slope == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# content, delta-s checks, extraction
# ---------------------------------------------------------------------------


def test_hausdorff_content_of_segment():
    """At s = 1 the greedy dyadic bound for a unit segment sits in [1/2, 2]."""
    seg = segment_set(512)
    c = hausdorff_content(seg, 1.0)
    assert 0.5 <= c <= 2.0


def test_hausdorff_content_s0_counts_one():
    seg = segment_set(64)
    assert hausdorff_content(seg, 0.0) == 1.0  # one level-0 square suffices


def test_verify_delta_s_set_accepts_generated(rand_half_set):
    check = verify_delta_s_set(rand_half_set, 0.5, 16.0)
    assert check.passed
    # worst_ratio is the constant the set actually needs
    assert check.worst_ratio <= 16.0 + 1e-9


def test_verify_delta_s_set_rejects_clustered():
    """512 points crammed into one tiny square are not a (delta, 1.5)-set."""
    rng = np.random.default_rng(5)
    base = rng.random((512, 2)) * 2.0 ** -6
    ds = DiscreteSet(base + 0.5, 2.0 ** -16, check=False)
    check = verify_delta_s_set(ds, 1.5, 16.0)
    assert not check.passed
    assert check.worst_ratio > 1.0


def test_frostman_extract_subset_and_floor(rand_half_set):
    rho = 2.0 ** -6
    out = frostman_extract(rand_half_set, 0.5, rho)
    src = {tuple(p) for p in rand_half_set.points}
    assert all(tuple(p) in src for p in out.points)
    assert count_cells(out.points, rho) == len(out)  # one point per rho-cell
    floor = 2.0 ** -6 * hausdorff_content(rand_half_set, 0.5) * rho ** -0.5
    assert len(out) >= floor


def test_frostman_extract_passes_its_own_check(rand_half_set):
    rho = 2.0 ** -6
    out = frostman_extract(rand_half_set, 0.5, rho)
    sub = DiscreteSet(out.points, rho, check=False)
    assert verify_delta_s_set(sub, 0.5, 16.0).passed


def test_dimension_estimate_r_squared_high_for_selfsimilar(cantor6):
    est = box_dimension(cantor6, 2, 9)
    assert est.r_squared > 0.98
    assert est.level_range == (2, 9)
