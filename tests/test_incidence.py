"""Point-line incidence machinery: spanned lines, incidence counts with
their unconditional bounds, richness profiles, and the dichotomy stats.

The 3x3 grid numbers (20 lines, 48 incidences, 8 three-point lines) are
checked against a from-scratch integer-arithmetic oracle, not just
asserted, so a counting regression cannot hide behind the constant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.errors import InvariantViolation, PreconditionError, TooFewPoints
from gmtlab.experiments import line_set_dimension
from gmtlab.generators import DiscreteSet, gen_grid, gen_planted_collinear
from gmtlab.geometry import LINE_EQ_TOL, Line, Point, line_distance
from gmtlab.incidence import (
    LineSet,
    beck_analyze,
    incidence_count,
    rich_lines,
    _spanned_float,
    spanned_lines,
    weak_dirac_stat,
)


def _integer_line_census(ipts):
    """Exact spanned-line statistics for integer points.

    Keys each pair's line by its reduced normal triple (a, b, c) with
    a*x + b*y == c, then recovers per-line point counts from pair
    multiplicities: a line with k points appears in k*(k-1)/2 pairs.
    """
    n = ipts.shape[0]
    ii, jj = np.triu_indices(n, 1)
    dx = ipts[jj, 0] - ipts[ii, 0]
    dy = ipts[jj, 1] - ipts[ii, 1]
    a, b = -dy, dx
    c = a * ipts[ii, 0] + b * ipts[ii, 1]
    g = np.gcd(np.gcd(np.abs(a), np.abs(b)), np.abs(c))
    g = np.maximum(g, 1)
    a, b, c = a // g, b // g, c // g
    flip = (a < 0) | ((a == 0) & (b < 0))
    a, b, c = np.where(flip, -a, a), np.where(flip, -b, b), np.where(flip, -c, c)
    triples, pair_mult = np.unique(
        np.stack([a, b, c], axis=1), axis=0, return_counts=True
    )
    k = ((1.0 + np.sqrt(1.0 + 8.0 * pair_mult)) / 2.0).round().astype(int)
    assert np.all(k * (k - 1) // 2 == pair_mult)  # multiplicities are triangular
    return triples, k


@pytest.fixture(scope="module")
def grid3_lines(grid3):
    return spanned_lines(grid3)


# ---------------------------------------------------------------------------
# spanned lines
# ---------------------------------------------------------------------------


class TestSpannedLines:
    def test_grid3_count_vs_oracle(self, grid3, grid3_lines):
        ipts = (grid3.points * 2).round().astype(np.int64)
        triples, k = _integer_line_census(ipts)
        assert triples.shape[0] == 20
        assert len(grid3_lines) == 20
        assert sorted(k.tolist()) == sorted(
            grid3_lines.point_counts.astype(int).tolist()
        )

    def test_grid3_exact_mode(self, grid3_lines):
        assert grid3_lines.exact
        assert grid3_lines.provenance == "spanned"

    def test_two_points_single_line(self):
        ds = DiscreteSet(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5)
        ls = spanned_lines(ds)
        assert len(ls) == 1

    def test_too_few_points(self):
        ds = DiscreteSet(np.array([[0.5, 0.5]]), 0.5)
        with pytest.raises(TooFewPoints):
            spanned_lines(ds)

    def test_collinear_input_spans_one_line(self):
        pts = np.column_stack([np.linspace(0.0, 1.0, 9), np.zeros(9)])
        ds = DiscreteSet(pts, 2.0 ** -4)
        assert len(spanned_lines(ds)) == 1

    def test_float_path_agrees_on_scaled_grid(self, grid3):
        """Dividing by pi defeats the rational fast path; the tolerance
        keyed float path must still find the same 20 lines."""
        ds = DiscreteSet(grid3.points / math.pi, grid3.delta / 4.0)
        ls = spanned_lines(ds)
        assert not ls.exact
        assert len(ls) == 20
        assert incidence_count(ds, ls).incidence_count == 48

    def test_pair_partition(self, grid3_lines):
        """Every unordered pair lies on exactly one spanned line."""
        k = grid3_lines.point_counts.astype(np.int64)
        assert int((k * (k - 1) // 2).sum()) == 9 * 8 // 2

    def test_float_path_refuses_merged_lines(self):
        """Two parallel segments 4e-8 apart share one rounded key: its
        pair count 2 is not a binomial coefficient, so the float path
        refuses instead of reporting 3 lines where there are 6."""
        r = math.sqrt(2.0) / 2.0
        pts = np.array([[0.1 * r, 0.3 * r], [0.15 * r, 0.3 * r],
                        [0.8 * r, 0.3 * r + 4e-8], [0.85 * r, 0.3 * r + 4e-8]])
        ds = DiscreteSet(pts, 2.0 ** -26)
        with pytest.raises(InvariantViolation, match="binomial"):
            spanned_lines(ds)
        with pytest.raises(InvariantViolation, match="binomial"):
            line_set_dimension(ds)

    def test_angle_offset_arrays_roundtrip(self, grid3_lines):
        ang, off = grid3_lines.angle_offset_arrays()
        rebuilt = [Line.from_angle_offset(float(t), float(d))
                   for t, d in zip(ang, off)]
        for i, rb in enumerate(rebuilt):
            assert grid3_lines.line(i).distance_to_point(rb.anchor) < 1e-9


def _spanned_float_oracle(points):
    """The float path's former per-pair dict loop for the representative
    (first pair hitting each key) and its unchecked point counts."""
    n = points.shape[0]
    ii, jj = np.triu_indices(n, 1)
    dx = points[jj, 0] - points[ii, 0]
    dy = points[jj, 1] - points[ii, 1]
    theta = np.arctan2(dy, dx) % math.pi
    theta = np.where(theta >= math.pi - 1e-12, 0.0, theta)
    nx, ny = -np.sin(theta), np.cos(theta)
    d = points[ii, 0] * nx + points[ii, 1] * ny
    quant = np.column_stack((np.round(theta / 1e-7), np.round(d / 1e-7))).astype(np.int64)
    uniq, inv, cnt = np.unique(quant, axis=0, return_inverse=True, return_counts=True)
    k = ((1.0 + np.sqrt(1.0 + 8.0 * cnt.astype(np.float64))) / 2.0).astype(np.int64)
    ang = np.zeros(uniq.shape[0])
    off = np.zeros(uniq.shape[0])
    seen: dict = {}
    for idx, key in enumerate(inv.tolist()):
        if key not in seen:
            seen[key] = idx
    for key, idx in seen.items():
        ang[key] = theta[idx]
        off[key] = d[idx]
    return np.column_stack((ang, off)), k, cnt


@given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 31), grid=st.booleans())
@settings(max_examples=60, deadline=None)
def test_spanned_float_matches_dict_loop_oracle(n, seed, grid):
    """Random float sets, and scaled lattice sets with many collinear
    triples, give the oracle's representatives and counts bit for bit."""
    rng = np.random.default_rng(seed)
    if grid:
        raw = np.unique(rng.integers(0, 8, size=(n, 2)), axis=0)
        pts = raw / (7.0 * math.pi)
    else:
        pts = rng.random((n, 2)) * 0.7
    angoff, k, _ = _spanned_float_oracle(pts)
    ang, off, got_k = _spanned_float(pts)
    assert np.array_equal(ang, angoff[:, 0])
    assert np.array_equal(off, angoff[:, 1])
    assert np.array_equal(got_k, k)


def _from_lines_oracle(lines):
    """LineSet.from_lines' former pairwise loop: first seen wins."""
    kept = []
    for ln in lines:
        if all(line_distance(ln, other) > LINE_EQ_TOL for other in kept):
            kept.append(ln)
    return kept


_angle = st.one_of(
    st.sampled_from([0.0, 1e-11, math.pi - 1e-11, math.pi - 4e-10]),
    st.floats(0.0, math.pi, exclude_max=True),
)


@given(params=st.lists(st.tuples(_angle, st.floats(-1.0, 1.0)), min_size=1, max_size=20),
       jitter=st.lists(st.sampled_from([0.0, 1e-12, -3e-10, 4e-10, 2e-9]),
                       min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_from_lines_matches_pairwise_oracle(params, jitter):
    """Near-duplicates within and just beyond the tolerance, including
    across the angle wrap 0 ~ pi, dedupe as the former loop did."""
    lines = []
    for i, (t, d) in enumerate(params):
        e = jitter[i % len(jitter)]
        lines += [Line.from_angle_offset(t, d), Line.from_angle_offset(t + e, d - e)]
    want = _from_lines_oracle(lines)
    got = LineSet.from_lines(lines)
    assert np.array_equal(got.angles, [ln.angle for ln in want])
    assert np.array_equal(got.offsets, [ln.offset() for ln in want])


# ---------------------------------------------------------------------------
# incidence counts and bounds
# ---------------------------------------------------------------------------


class TestIncidenceCount:
    def test_grid3_exact(self, grid3, grid3_lines):
        rep = incidence_count(grid3, grid3_lines)
        assert rep.incidence_count == 48
        assert rep.n_points == 9
        assert rep.n_lines == 20

    def test_bound_fields(self, grid3, grid3_lines):
        rep = incidence_count(grid3, grid3_lines, eps=0.1)
        assert rep.cs_bound == pytest.approx(9 + 20 + (9 * 20) ** 0.75)
        assert rep.eps_bound == pytest.approx(
            20 + 9 + 20 ** 0.6 * 9 ** 0.8
        )
        assert rep.incidence_count <= rep.cs_bound

    def test_eps_domain(self, grid3, grid3_lines):
        with pytest.raises(PreconditionError):
            incidence_count(grid3, grid3_lines, eps=0.3)

    def test_supplied_lines_count(self, grid3):
        ls = LineSet.from_lines([
            Line.from_angle_offset(0.0, 0.0),     # bottom row: 3 points
            Line.from_angle_offset(0.0, 0.25),    # between rows: 0 points
        ])
        rep = incidence_count(grid3, ls)
        assert rep.incidence_count == 3

    def test_duplicate_supplied_lines_collapse(self):
        a = Line.from_angle_offset(0.5, 0.1)
        ls = LineSet.from_lines([a, Line.from_angle_offset(0.5, 0.1)])
        assert len(ls) == 1

    def test_random_instances_match_brute_force(self, rng):
        """Lattice instances with genuine collinearities: the reported count
        must equal the direct point-in-line check."""
        for _ in range(25):
            scale = int(rng.integers(6, 24))
            raw = np.unique(rng.integers(0, scale + 1, size=(40, 2)), axis=0)
            ds = DiscreteSet(raw.astype(float) / scale, 1.0 / (4 * scale),
                             check=False)
            ls = spanned_lines(ds)
            ang, off = ls.angle_offset_arrays()
            nx, ny = -np.sin(ang), np.cos(ang)
            d = np.abs(nx[:, None] * ds.points[None, :, 0]
                       + ny[:, None] * ds.points[None, :, 1] - off[:, None])
            brute = int((d < 1e-9).sum())
            rep = incidence_count(ds, ls)
            assert rep.incidence_count == brute
            assert rep.incidence_count <= rep.cs_bound


# ---------------------------------------------------------------------------
# rich lines
# ---------------------------------------------------------------------------


def test_rich_lines_grid3(grid3):
    assert len(rich_lines(grid3, 3)) == 8  # 3 rows, 3 columns, 2 diagonals
    assert len(rich_lines(grid3, 4)) == 0
    with pytest.raises(PreconditionError):
        rich_lines(grid3, 1)


def test_rich_lines_grid5_rows(grid5):
    rich5 = rich_lines(grid5, 5)
    # 5 rows + 5 columns + 2 main diagonals have >= 5 of the 25 points
    assert len(rich5) == 12


# ---------------------------------------------------------------------------
# dichotomy analysis
# ---------------------------------------------------------------------------


class TestBeckAnalyze:
    def test_profile_partitions_pairs(self, grid5):
        rep = beck_analyze(grid5)
        assert sum(rep.connected_pair_profile.values()) == 25 * 24 // 2

    def test_grid_is_both(self, grid5):
        rep = beck_analyze(grid5)
        assert rep.max_collinear == 5
        assert rep.dichotomy_verdict == "Both"

    def test_verdict_rule_consistency(self, grid9):
        rep = beck_analyze(grid9, c_threshold=64.0)
        n = rep.n_points
        rich = rep.max_collinear >= n / 64.0
        many = rep.spanned_line_count >= n * n / 4096.0
        expected = {(True, True): "Both", (True, False): "RichLine",
                    (False, True): "ManyLines"}[(rich, many)]
        assert rep.dichotomy_verdict == expected

    def test_planted_100_50_frozen_ratio(self):
        """Frozen value for the erdos-beck ratio of the planted family."""
        rep = beck_analyze(gen_planted_collinear(100, 50, seed=0))
        assert rep.max_collinear == 50
        assert rep.erdos_beck_ratio == pytest.approx(0.7452, abs=1e-12)

    def test_single_line_input_is_rich(self):
        """n must clear 64 here, or one line already satisfies the
        many-lines threshold n^2/4096 and the verdict reads Both."""
        pts = np.column_stack([np.linspace(0.0, 1.0, 128), np.zeros(128)])
        rep = beck_analyze(DiscreteSet(pts, 2.0 ** -7))
        assert rep.dichotomy_verdict == "RichLine"
        assert rep.erdos_beck_ratio is None

    def test_threshold_domain(self, grid3):
        with pytest.raises(PreconditionError):
            beck_analyze(grid3, c_threshold=1.0)


# ---------------------------------------------------------------------------
# weak dirac statistic
# ---------------------------------------------------------------------------


def test_weak_dirac_grid3(grid3):
    """The busiest point of the 3x3 grid is an edge midpoint on 6 lines:
    its row, its column, and four 2-point lines."""
    pt, count = weak_dirac_stat(grid3)
    assert count == 6
    assert (pt.x, pt.y) == (0.5, 0.0)


def test_weak_dirac_needs_three_points():
    ds = DiscreteSet(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5)
    with pytest.raises(TooFewPoints):
        weak_dirac_stat(ds)
