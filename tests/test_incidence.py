"""Point-line incidence machinery: spanned lines, incidence counts with
their unconditional bounds, richness profiles, and the dichotomy stats.

The 3x3 grid numbers (20 lines, 48 incidences, 8 three-point lines) are
checked against a from-scratch integer-arithmetic oracle, not just
asserted, so a counting regression cannot hide behind the constant.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmtlab.dyadic import unique_rows
from gmtlab.errors import AllCollinear, InvariantViolation, PreconditionError, TooFewPoints
from gmtlab.experiments import line_set_dimension
from gmtlab.generators import DiscreteSet, gen_grid, gen_planted_collinear
from gmtlab.geometry import LINE_EQ_TOL, Line, Point, line_distance
import gmtlab.incidence as inc
from gmtlab.incidence import (
    BeckReport,
    LineSet,
    beck_analyze,
    incidence_count,
    rich_lines,
    _COORD_CAP,
    _DENOM_CAP,
    _lines_by_size,
    _points_on_lines,
    _rationalize,
    _spanned_exact,
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

    def test_angle_offset_arrays_roundtrip(self, grid3, grid3_lines):
        """Each line rebuilt from its (angle, offset) passes within 1e-9 of
        exactly as many grid points as the exact path counted on it."""
        ang, off = grid3_lines.angle_offset_arrays()
        pts = [Point(*p) for p in grid3.points]
        for t, d, k in zip(ang, off, grid3_lines.point_counts):
            rb = Line.from_angle_offset(float(t), float(d))
            assert sum(rb.distance_to_point(p) < 1e-9 for p in pts) == k


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


def _canonical_triples(ints: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """gcd-reduced sign-normalized (a, b, c) with a*x + b*y = c through
    integer points i and j."""
    a = ints[j, 1] - ints[i, 1]
    b = ints[i, 0] - ints[j, 0]
    c = a * ints[i, 0] + b * ints[i, 1]
    g = np.gcd(np.gcd(np.abs(a), np.abs(b)), np.abs(c))
    g = np.maximum(g, 1)
    a //= g
    b //= g
    c //= g
    flip = (a < 0) | ((a == 0) & (b < 0))
    sign = np.where(flip, -1, 1)
    return np.column_stack((a * sign, b * sign, c * sign))


def _spanned_exact_oracle(ints, chunk):
    """_spanned_exact before a single chunk skipped the merge: every chunk's
    distinct rows go through a second unique_rows and an np.add.at."""
    n = ints.shape[0]
    pieces = []
    counts_pieces = []
    ii, jj = np.triu_indices(n, 1)
    for s in range(0, ii.size, chunk):
        part = _canonical_triples(ints, ii[s:s + chunk], jj[s:s + chunk])
        uniq, cnt = unique_rows(part, return_counts=True)
        pieces.append(uniq)
        counts_pieces.append(cnt)
    allrows = np.concatenate(pieces)
    allcnt = np.concatenate(counts_pieces)
    triples, inv = unique_rows(allrows, return_inverse=True)
    pair_counts = np.zeros(triples.shape[0], dtype=np.int64)
    np.add.at(pair_counts, inv, allcnt)
    return triples, _points_on_lines(pair_counts)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spanned_exact_chunking_matches_two_pass_oracle(chunk, seed,
                                                        monkeypatch):
    """Lattice sets with many collinear triples: any chunk size gives the
    single-chunk rows and counts, and so does the retired two-pass code."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(9), np.arange(9)), -1).reshape(-1, 2)
    ints = grid[rng.permutation(grid.shape[0])[:60]]  # 1,770 pairs
    single = _spanned_exact(ints)
    monkeypatch.setattr(inc, "_PAIR_CHUNK", chunk)
    chunked = _spanned_exact(ints)
    for want in (single, _spanned_exact_oracle(ints, chunk),
                 _spanned_exact_oracle(ints, 1 << 21)):
        assert np.array_equal(chunked[0], want[0])
        assert np.array_equal(chunked[1], want[1])


def _rationalize_oracle(points):
    """_rationalize's Fraction loop over every distinct value, the only
    path before dyadic values were settled in numpy."""
    vals = np.unique(points)
    fracs = []
    den = 1
    for v in vals.tolist():
        f = Fraction(v).limit_denominator(_DENOM_CAP)
        if float(f) != v:
            return None
        fracs.append(f)
        den = den * f.denominator // math.gcd(den, f.denominator)
        if den > _DENOM_CAP:
            return None
    lut = np.array([f.numerator * (den // f.denominator) for f in fracs],
                   dtype=np.int64)
    if lut.size and np.max(np.abs(lut)) > _COORD_CAP:
        return None
    pos = np.searchsorted(vals, points.ravel())
    ints = lut[pos].reshape(points.shape)
    return ints, den


def _assert_rationalize_matches(points):
    want = _rationalize_oracle(points)
    got = _rationalize(points)
    if want is None:
        assert got is None
        return
    assert got[1] == want[1] and type(got[1]) is int
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])


@given(m=st.lists(st.integers(-(1 << 24), 1 << 24), min_size=1, max_size=40),
       e=st.integers(0, 22), shape=st.sampled_from([(-1,), (-1, 2)]))
@settings(max_examples=150, deadline=None)
def test_rationalize_dyadic_matches_fraction_loop(m, e, shape):
    """Values m / 2^e: the numpy path gives the loop's ints and denominator
    for e up to 21, and the loop refuses e = 22 when m is odd."""
    vals = np.array(m, dtype=float) / 2.0 ** e
    pts = np.resize(vals, (2 * vals.size,)).reshape(shape)
    _assert_rationalize_matches(pts)


@pytest.mark.parametrize("vals,den", [
    ([0.0], 1),
    ([-0.0, 0.0, 0.0], 1),
    ([0.375], 8),
    ([-3.0, 0.5, -0.25, 7.0], 4),
    ([1.0 / _DENOM_CAP, 0.5], _DENOM_CAP),
    ([float(_COORD_CAP), -float(_COORD_CAP)], 1),
    ([(_COORD_CAP - 1) / _DENOM_CAP], _DENOM_CAP),
])
def test_rationalize_dyadic_skips_the_fraction_loop(vals, den, monkeypatch):
    """Dyadic input within the caps never builds a Fraction."""
    pts = np.array(vals).reshape(-1, 1)
    want = _rationalize_oracle(pts)
    monkeypatch.setattr(inc, "Fraction", None)
    got = _rationalize(pts)
    assert got[1] == want[1] == den
    assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize("vals,den", [
    ([0.1, 0.5], 10),                       # decimal: the loop, den 10 * 2^e
    ([0.1, 0.25, 0.5], 20),
    ([0.3, -0.125, 3.0], 40),
    ([1.0 / (1 << 22)], None),              # denominator 2^22: refused
    ([1.0 / (1 << 22), 0.5], None),
    ([1.0 / 3.0, 0.5], 6),
    ([1.0 / math.pi], None),                # no small fraction
    ([float(_COORD_CAP + 1)], None),        # just over the coordinate cap
    ([float(_COORD_CAP), 0.5], None),       # over the cap once scaled
    ([_COORD_CAP / 2 + 0.25], None),
    ([-float(_COORD_CAP) - 0.5], None),
])
def test_rationalize_other_input_matches_fraction_loop(vals, den):
    pts = np.array(vals).reshape(-1, 1)
    _assert_rationalize_matches(pts)
    got = _rationalize(pts)
    assert (got is None) if den is None else (got[1] == den)


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


@pytest.mark.parametrize("gap", [6e-10, 9.9e-10, 1e-9, 1.01e-9, 1.9e-9])
@pytest.mark.parametrize("base", [0.0, 1.0, math.pi - 3e-10])
def test_from_lines_angle_gap_near_the_tolerance(gap, base):
    """Lines through the origin differ by their angle gap alone, so the
    angle window must reach the full tolerance, across the wrap too."""
    angles = [base + gap * i for i in range(4)] + [base + gap / 2]
    lines = [Line.from_angle_offset(t, 0.0) for t in angles]
    want = _from_lines_oracle(lines)
    got = LineSet.from_lines(lines)
    assert np.array_equal(got.angles, [ln.angle for ln in want])


# ---------------------------------------------------------------------------
# incidence counts and bounds
# ---------------------------------------------------------------------------


class TestIncidenceCount:
    def test_grid3_exact(self, grid3, grid3_lines):
        rep = incidence_count(grid3, grid3_lines)
        assert rep.incidence_count == 48
        assert rep.warnings == ()
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


def _beck_analyze_oracle(p, c_threshold=64.0):
    """beck_analyze before per-anchor direction groups: every spanned line
    keyed by its pair triples (spanned_lines on non-lattice input)."""
    n = len(p)
    if n < 3:
        raise TooFewPoints("dichotomy analysis needs at least three points")
    if c_threshold < 2.0:
        raise PreconditionError(f"c_threshold {c_threshold!r} below 2")
    rat = _rationalize(p.points)
    if rat is None:
        k = spanned_lines(p).point_counts
    else:
        k = _spanned_exact_oracle(rat[0], 1 << 21)[1]
    max_collinear = int(k.max())
    spanned_count = k.size
    pair_counts = k * (k - 1) // 2
    profile = {}
    total_pairs = 0
    r = 2
    while r <= n:
        in_bracket = (k >= r) & (k < 2 * r)
        t_r = int(pair_counts[in_bracket].sum())
        profile[r] = t_r
        total_pairs += t_r
        l_r = int((k >= r).sum())
        if t_r > 2 * r * r * l_r:
            raise InvariantViolation(
                f"bracket r={r}: {t_r} connected pairs exceed 2 r^2 |L_r|"
            )
        r *= 2
    if total_pairs != n * (n - 1) // 2:
        raise InvariantViolation(
            f"connected pairs sum to {total_pairs}, expected {n * (n - 1) // 2}"
        )
    rich = max_collinear >= n / c_threshold
    many = spanned_count >= n * n / (c_threshold * c_threshold)
    if rich and many:
        verdict = "Both"
    elif rich:
        verdict = "RichLine"
    elif many:
        verdict = "ManyLines"
    else:
        raise InvariantViolation(
            "neither dichotomy branch holds; the threshold argument excludes this"
        )
    k_planted = n - max_collinear
    ratio = spanned_count / (n * k_planted) if k_planted >= 1 else None
    return BeckReport(n, max_collinear, spanned_count, profile, verdict,
                      ratio, c_threshold)


@st.composite
def _lattice_points(draw, lo=-60, hi=60):
    """Distinct integer points in [lo, hi]^2, at least three: a scatter,
    planted lines with arbitrary steps, collinear runs and a grid block."""
    coord = st.integers(lo, hi)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=20))
    for run in range(draw(st.integers(0, 4))):
        x0, y0 = draw(coord), draw(coord)
        dx, dy = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        if run % 2:   # a collinear run: consecutive steps
            steps = range(draw(st.integers(2, 12)))
        else:         # a planted line: scattered steps
            steps = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=12))
        pts += [(x0 + t * dx, y0 + t * dy) for t in steps]
    side = draw(st.integers(0, 7))
    gx, gy, step = draw(coord), draw(coord), draw(st.integers(1, 3))
    pts += [(gx + step * u, gy + step * v) for u in range(side) for v in range(side)]
    pts = [(x, y) for x, y in pts if lo <= x <= hi and lo <= y <= hi]
    pts = list(dict.fromkeys(pts + [(lo, lo), (hi, hi), (lo, hi)]))
    order = draw(st.permutations(range(len(pts))))
    return np.array([pts[i] for i in order], dtype=np.int64)


def _k_multiset(lines_with):
    return np.repeat(np.arange(lines_with.size), lines_with)


@given(ints=_lattice_points())
@settings(max_examples=120, deadline=None)
def test_line_sizes_match_spanned_exact(ints):
    """The direction-group line sizes are the k multiset of the retired
    pair-triple keying, also with anchor blocks of one pair and of seven
    pairs, which put groups next to block boundaries."""
    want = np.sort(_spanned_exact_oracle(ints, 1 << 21)[1])
    for chunk in (None, 1, 7):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(inc, "_PAIR_CHUNK", chunk)
            got = _lines_by_size(ints)
        assert got[:2].sum() == 0 and got.size == ints.shape[0] + 1
        assert np.array_equal(_k_multiset(got), want)


def _direction_groups_gcd_oracle(ints, every_partner=False):
    """_direction_groups before slope keys: every pair's direction reduced
    by a gcd, in 51 bits below 12 bits of anchor."""
    n = ints.shape[0]
    per_anchor = np.full(n, n - 1) if every_partner else np.arange(n - 1, -1, -1)
    for a, b in inc._row_blocks(per_anchor, inc._PAIR_CHUNK, 1 << 12):
        # every pair temporary is dropped or reused as soon as it is spent
        keys, t = inc._expand(per_anchor[a:b])
        i = keys + a
        j = t + (t >= i) if every_partner else i + 1 + t
        del t
        dx = ints[j, 0]
        dx -= ints[i, 0]
        dy = ints[j, 1]
        dy -= ints[i, 1]
        del i, j
        g = np.gcd(dx, dy)
        np.maximum(g, 1, out=g)
        np.negative(g, out=g, where=(dx < 0) | ((dx == 0) & (dy < 0)))
        dx //= g
        dy //= g
        del g
        keys <<= 51
        keys |= inc._pack(dx, dy)
        del dx, dy
        keys.sort()
        start = np.flatnonzero(np.diff(keys, prepend=-1))
        heads = keys[start]
        size = np.diff(np.append(start, keys.size))
        del keys, start
        yield (a + (heads >> 51), size, *inc._unpack(heads))


def _lines_by_size_gcd_oracle(ints):
    """_lines_by_size on the gcd-keyed direction groups."""
    n = ints.shape[0]
    groups = np.zeros(n + 1, dtype=np.int64)
    for _, size, _, _ in _direction_groups_gcd_oracle(ints):
        groups += np.bincount(size, minlength=n + 1)
    lines = np.zeros(n + 1, dtype=np.int64)
    lines[2:] = groups[1:-1] - groups[2:]
    if np.any(lines < 0):
        raise InvariantViolation("direction group counts increase with group size")
    return lines


def _lines_per_point(groups, n):
    """Lines through each point: its direction groups over every partner."""
    per_point = np.zeros(n, dtype=np.int64)
    for anchor, *_ in groups:
        per_point += np.bincount(anchor, minlength=n)
    return per_point


def _weak_dirac_gcd_oracle(p):
    """weak_dirac_stat on the gcd-keyed direction groups."""
    ints = _rationalize(p.points)[0]
    per_point = _lines_per_point(_direction_groups_gcd_oracle(ints, True), len(p))
    if per_point.max() == 1:
        raise AllCollinear("every point lies on a single line")
    best = int(np.argmax(per_point))
    return Point(*p.points[best]), int(per_point[best])


def _assert_slope_keys_match_gcd_oracle(ints, chunks=(None, 1, 7)):
    """Line sizes and lines per point from slope keys equal the gcd-keyed
    ones, also in anchor blocks of one and of seven pairs."""
    n = ints.shape[0]
    want = _lines_by_size_gcd_oracle(ints)
    want_per_point = _lines_per_point(_direction_groups_gcd_oracle(ints, True), n)
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(inc, "_PAIR_CHUNK", chunk)
            assert np.array_equal(_lines_by_size(ints), want)
            got = _lines_per_point(inc._direction_groups(ints, every_partner=True), n)
            assert np.array_equal(got, want_per_point)


# slopes 13561679/16762046 and 13494603/16679141 are Farey neighbours;
# rounded and times 2^48 they are 227733134766626.5 and 227733134766625.5,
# which rint takes to the same even integer
_FAREY_TIE = [(0, 0), (16762046, 13561679), (16679141, 13494603)]


@given(ints=_lattice_points())
@example(ints=np.array([(-_COORD_CAP, 0), (_COORD_CAP, 1), (_COORD_CAP - 1, 1), (0, 5)]))
@example(ints=np.array([(0, -_COORD_CAP), (1, _COORD_CAP), (1, _COORD_CAP - 1), (5, 0)]))
@example(ints=np.array([(x - _COORD_CAP, y - _COORD_CAP) for x, y in _FAREY_TIE]))
@example(ints=np.array([(y - _COORD_CAP, x - _COORD_CAP) for x, y in _FAREY_TIE]))
@example(ints=np.array([(2, 0), (5, 0), (0, 0), (-7, 0), (1, 1), (9, 1)]))
@example(ints=np.array([(0, 0), (3, 3), (-2, -2), (1, -1), (-4, 4), (2, 3),
                        (3, 2), (-3, 3), (5, 5)]))
@settings(max_examples=120, deadline=None)
def test_slope_keys_match_gcd_oracle(ints):
    """Planted lines, collinear runs and grid blocks, and the examples:
    Farey neighbours at the cap 2^-48 apart in slope, from one anchor,
    and their steep mirror; two neighbours that a scale of 2^48 would
    merge; horizontal pairs with dx < 0, whose slope is -0.0; exact
    diagonals, |dx| = |dy|."""
    _assert_slope_keys_match_gcd_oracle(ints)


@given(ints=_lattice_points())
@settings(max_examples=40, deadline=None)
def test_weak_dirac_matches_gcd_oracle(ints):
    ds = DiscreteSet(ints / 64.0, 2.0 ** -6, check=False)
    assert weak_dirac_stat(ds) == _weak_dirac_gcd_oracle(ds)


def test_slope_keys_match_gcd_oracle_across_anchor_blocks():
    """2,200 points of a 48 x 48 grid: a line's direction groups fall in
    different blocks. At the default chunk their 2.4M pairs take 76 blocks
    (158 with every partner); in chunks of 2^21 pairs they fill two anchor
    blocks (three with every partner), with anchor offsets up to 1,396 in
    11 bits."""
    grid = np.stack(np.meshgrid(np.arange(48), np.arange(48)), -1).reshape(-1, 2)
    ints = grid[np.random.default_rng(5).permutation(grid.shape[0])[:2200]]
    _assert_slope_keys_match_gcd_oracle(ints, chunks=(None, 1 << 21))


@pytest.mark.parametrize("dx,dy,key", [
    (1, 0, 1 << 49),
    (-3, 0, 1 << 49),                           # slope -0.0
    (1, 1, 1 << 50),
    (-2, -2, 1 << 50),
    (1, -1, 0),
    (2, 1, (1 << 49) + (1 << 48)),
    (1, 2, (1 << 51) + (1 << 49) + (1 << 48)),  # steep
    (0, 5, (1 << 51) + (1 << 49)),
    (-1, 2, (1 << 51) + (1 << 48)),
    (1 << 24, 1, (1 << 49) + (1 << 25)),
    (0, 0, (1 << 50) + (1 << 49)),              # coincident: t = 2
])
def test_slope_key_layout(dx, dy, key):
    """rint(t * 2^49) + 2^49 with the steep flag at bit 51: diagonals are
    not steep, and the zero direction takes a key of its own."""
    got = inc._slope_keys(np.array([dx, -dx]), np.array([dy, -dy]))
    assert got.tolist() == [key, key]


def _assert_spanned_exact_matches_oracle(ints):
    want = _spanned_exact_oracle(ints, 1 << 21)
    for chunk in (None, 1, 7):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(inc, "_PAIR_CHUNK", chunk)
            got = _spanned_exact(ints)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


_EDGE = (-_COORD_CAP, -_COORD_CAP + 1, -1, 0, 1, _COORD_CAP - 1, _COORD_CAP)


@given(st.lists(st.tuples(st.sampled_from(_EDGE), st.sampled_from(_EDGE)),
                min_size=2, max_size=30, unique=True))
@example([(0, -_COORD_CAP), (1, _COORD_CAP), (-1, _COORD_CAP),
          (-_COORD_CAP, -_COORD_CAP), (_COORD_CAP, _COORD_CAP - 1)])
@example([(-_COORD_CAP, 0), (0, 0), (_COORD_CAP, 0), (0, 1)])
@settings(max_examples=80, deadline=None)
def test_line_sizes_at_the_coordinate_cap(pts):
    """Reduced directions up to (2^24, 2^24 - 1), (1, +-2^24) and (0, 1)
    fill the 25 + 26 direction bits of a key without a carry; the first
    example sees (1, 2^24) and (1, -2^24) from one anchor. The spanned
    triples are the pair-triple oracle's, with c within int64 and
    horizontal lines (dy = 0, the second example) signed as a = 0, b > 0.
    The slope keys give the gcd-keyed line sizes and lines per point."""
    ints = np.array(pts, dtype=np.int64)
    want = np.sort(_spanned_exact_oracle(ints, 1 << 21)[1])
    assert np.array_equal(_k_multiset(_lines_by_size(ints)), want)
    _assert_spanned_exact_matches_oracle(ints)
    _assert_slope_keys_match_gcd_oracle(ints, chunks=(None,))


@given(ints=_lattice_points(), shift=st.sampled_from([0, -100, _COORD_CAP - 60]))
@settings(max_examples=120, deadline=None)
def test_spanned_exact_matches_pair_triple_oracle(ints, shift):
    """Triples from the direction groups are the retired pair triples, row
    for row and in the same order, with the same point counts: planted
    lines, collinear runs and grid blocks, moved to negative coordinates
    and up to the coordinate cap, in anchor blocks of one and seven pairs
    and of the default size."""
    _assert_spanned_exact_matches_oracle(ints + shift)


@given(ints=_lattice_points(), c=st.sampled_from([2.0, 8.0, 64.0]))
@settings(max_examples=80, deadline=None)
def test_beck_analyze_matches_spanned_lines_oracle(ints, c):
    ds = DiscreteSet(ints / 64.0, 2.0 ** -6, check=False)
    try:
        want = _beck_analyze_oracle(ds, c)
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            beck_analyze(ds, c)
        return
    assert beck_analyze(ds, c) == want


@pytest.mark.parametrize("make", [
    lambda: gen_planted_collinear(512, 16, seed=1),
    lambda: gen_grid(24),
    lambda: DiscreteSet(gen_grid(9).points / math.pi, 2.0 ** -8),  # float path
])
def test_beck_analyze_matches_oracle_on_named_sets(make):
    ds = make()
    assert beck_analyze(ds) == _beck_analyze_oracle(ds)


def test_beck_reads_no_line_keys(monkeypatch, grid3, grid5):
    """The dichotomy, the planted generator's maximum and the weak Dirac
    count never build line triples."""
    def refuse(*args):
        raise AssertionError("line triples built")

    monkeypatch.setattr(inc, "_spanned_exact", refuse)
    assert beck_analyze(grid5).max_collinear == 5
    assert gen_planted_collinear(64, 16, seed=2).label == "planted-64-16"
    assert weak_dirac_stat(grid3)[1] == 6


# ---------------------------------------------------------------------------
# weak dirac statistic
# ---------------------------------------------------------------------------


def test_weak_dirac_grid3(grid3):
    """The busiest point of the 3x3 grid is an edge midpoint on 6 lines:
    its row, its column, and four 2-point lines."""
    pt, count = weak_dirac_stat(grid3)
    assert count == 6
    assert (pt.x, pt.y) == (0.5, 0.0)


def _weak_dirac_oracle(p):
    """weak_dirac_stat before line ids: it uniqued the triples once for
    the collinearity check and again inside the (point, triple) rows."""
    n = len(p)
    ints, _ = _rationalize(p.points)
    ii, jj = np.triu_indices(n, 1)
    triples = _canonical_triples(ints, ii, jj)
    if np.unique(triples, axis=0).shape[0] == 1:
        raise AllCollinear("every point lies on a single line")
    rows = np.concatenate([
        np.column_stack((ii, triples)),
        np.column_stack((jj, triples)),
    ])
    uniq = np.unique(rows, axis=0)
    per_point = np.bincount(uniq[:, 0], minlength=n)
    best = int(np.argmax(per_point))
    return Point(*p.points[best]), int(per_point[best])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=3, max_size=30, unique=True),
       st.sampled_from([None, 7, 40]))
def test_weak_dirac_matches_oracle(ipts, chunk):
    """Also with blocks of one anchor, and of several for small sets."""
    ds = DiscreteSet(np.array(ipts, dtype=float) / 8.0, 0.125)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(inc, "_PAIR_CHUNK", chunk)
        try:
            want = _weak_dirac_oracle(ds)
        except AllCollinear:
            with pytest.raises(AllCollinear):
                weak_dirac_stat(ds)
            return
        assert weak_dirac_stat(ds) == want


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=2, max_size=20))
@example([(0, 0), (0, 0), (1, 0)])
@example([(1, 1), (1, 1)])
def test_coincident_points(ipts):
    """Repeated points reach the counts only unchecked. The dichotomy, the
    spanned lines and the weak Dirac count refuse them (the triple keying
    refused most such sets by a pair count that is no binomial coefficient,
    and misreported a few, such as three copies of one point and one other
    point, as two 3-point lines)."""
    ipts = ipts + [ipts[0]]
    ds = DiscreteSet(np.array(ipts, dtype=float) / 8.0, 0.125, check=False)
    with np.errstate(all="raise"):
        for count in (beck_analyze, spanned_lines, weak_dirac_stat):
            with pytest.raises(InvariantViolation, match="coincident"):
                count(ds)


@pytest.mark.parametrize("pts", [
    [(0.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.5)],
    [(0.0, 0.0), (0.0, 0.0), (0.5, 0.0)],
])
def test_weak_dirac_refuses_coincident_points(pts):
    """The zero direction between two copies of (0, 0) was counted as a
    line: the first set gave 3 lines through (0, 0), where only 2 pass,
    and the second 2 lines and no AllCollinear, though it lies on one."""
    ds = DiscreteSet(np.array(pts), 0.25, check=False)
    with pytest.raises(InvariantViolation, match="coincident points do not span"):
        weak_dirac_stat(ds)


@pytest.mark.parametrize("pts", [
    [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.5, 0.25)],
    [(0.0, 0.0), (0.0, 0.0), (0.5, 0.25), (0.25, 0.75)],
])
@pytest.mark.parametrize("scale", [1.0, 1.0 / math.pi])
def test_spanned_lines_refuses_coincident_points(pts, scale):
    """Three copies of one point and one other point were two 3-point
    lines, one of them the NaN-offset (0, 0, 0), and 8 incidences; two
    copies and two other points raised on a pair count. Lattice (scale 1)
    and float input are both refused, and so are the line counts built on
    spanned_lines."""
    ds = DiscreteSet(np.array(pts) * scale, 0.25, check=False)
    for count in (spanned_lines, lambda p: rich_lines(p, 2), line_set_dimension):
        with pytest.raises(InvariantViolation, match="coincident points do not span"):
            count(ds)


def test_weak_dirac_rejects_collinear():
    ds = DiscreteSet(np.array([[0.0, 0.0], [0.25, 0.5], [0.5, 1.0]]), 0.125)
    with pytest.raises(AllCollinear):
        weak_dirac_stat(ds)


def test_weak_dirac_needs_three_points():
    ds = DiscreteSet(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5)
    with pytest.raises(TooFewPoints):
        weak_dirac_stat(ds)


# ---------------------------------------------------------------------------
# exact incidence counts by direction class
# ---------------------------------------------------------------------------


def _count_exact_oracle(p, l):
    """Points on each exact line, every point tested against every line in
    int64, blocks of (1 << 22) // m points: the dense test that counted
    every exact line set before lines were grouped by direction."""
    ints, dp = _rationalize(p.points)
    dl = l.denominator
    a = l.triples[:, 0] * dl
    b = l.triples[:, 1] * dl
    c = l.triples[:, 2] * dp
    counts = np.zeros(len(l), dtype=np.int64)
    block = max(1, (1 << 22) // max(1, len(l)))
    for s in range(0, len(p), block):
        px = ints[s:s + block, 0]
        py = ints[s:s + block, 1]
        hit = px[:, None] * a[None, :] + py[:, None] * b[None, :] == c[None, :]
        counts += hit.sum(axis=0)
    return counts


def _assert_counts_match_oracle(p, l, blocks=(None,)):
    """The class counts equal the dense oracle, line for line, with every
    listed _CLASS_BLOCK (None keeps the module's)."""
    want = _count_exact_oracle(p, l)
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(inc, "_CLASS_BLOCK", block)
            got, why = inc._count_on_lines_exact(p, l)
        assert why == ""
        assert np.array_equal(got, want)
    return want


def _lattice_set(ints, den=64):
    return DiscreteSet(ints.astype(float) / den, 1.0 / den, check=False)


def _classes(l):
    """Sizes of the line set's direction classes, lines of equal (a, b)."""
    return unique_rows(l.triples[:, :2], return_counts=True)[1]


@given(ints=_lattice_points(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_class_counts_match_dense_oracle(ints, seed):
    """Spanned lines, their rich subsets, and the spanned triples with
    their rows shuffled (no longer runs of one class), with class blocks
    of one row, of three rows and the module's."""
    p = _lattice_set(ints)
    n = len(p)
    l = spanned_lines(p)
    assert np.array_equal(_assert_counts_match_oracle(p, l, (None, 1, 3 * n)),
                          l.point_counts)
    for r in (3, 4):
        rich = rich_lines(p, r)
        if len(rich):
            _assert_counts_match_oracle(p, rich, (None, 1))
    perm = np.random.default_rng(seed).permutation(len(l))
    shuffled = LineSet(triples=l.triples[perm], denominator=l.denominator)
    assert np.array_equal(_assert_counts_match_oracle(p, shuffled, (None, 1)),
                          l.point_counts[perm])


@given(ints=_lattice_points(), q=st.sampled_from([2, 3, 1 << 10]))
@settings(max_examples=60, deadline=None)
def test_class_counts_at_another_line_denominator(ints, q):
    """Supplied exact lines at a denominator other than the points'. The
    spanned lines written at q times their denominator, each with the two
    parallels c +- 1 between it and its neighbours, count the spanned
    point counts and zero; those whose c is even, written at half the
    denominator, count their point counts again."""
    p = _lattice_set(ints)
    l = spanned_lines(p)
    t, dp = l.triples, l.denominator
    up = np.concatenate([np.column_stack((t[:, :2], q * t[:, 2] + j)) for j in (-1, 0, 1)])
    got = _assert_counts_match_oracle(p, LineSet(triples=up, denominator=q * dp))
    assert np.array_equal(got, np.concatenate((0 * l.point_counts, l.point_counts,
                                               0 * l.point_counts)))
    even = t[:, 2] % 2 == 0
    if dp % 2 == 0 and even.any():
        down = np.column_stack((t[even, :2], t[even, 2] // 2))
        got = _assert_counts_match_oracle(p, LineSet(triples=down, denominator=dp // 2))
        assert np.array_equal(got, l.point_counts[even])


@pytest.mark.parametrize("make", [
    lambda request: gen_grid(32),
    lambda request: gen_planted_collinear(256, 40, 3),
    lambda request: gen_grid(9),
    lambda request: request.getfixturevalue("fourcorner4"),
])
def test_class_counts_on_named_sets(make, request):
    """The 32 x 32 grid (every line in a class of two or more), a planted
    set, the 9 x 9 grid and the depth-4 four-corner set, with their rich
    subsets."""
    p = make(request)
    l = spanned_lines(p)
    assert np.array_equal(_assert_counts_match_oracle(p, l), l.point_counts)
    _assert_counts_match_oracle(p, rich_lines(p, 5))


def test_class_counts_stay_small_on_the_four_corner_set(fourcorner4):
    """The census of the depth-4 four-corner set (256 points, 23,546 lines
    in 2,536 direction classes) held 64.7 MiB at its peak when every point
    was tested against every line; by class it stays within 8 MiB."""
    import tracemalloc

    l = spanned_lines(fourcorner4)
    tracemalloc.start()
    try:
        rep = incidence_count(fourcorner4, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.incidence_count == int(l.point_counts.sum())
    assert peak < 8 << 20


def test_distinct_directions_take_the_dense_test(monkeypatch):
    """A line set whose classes all have one line, as the spanned lines of
    32 random lattice points: every line goes to the dense test in one call,
    in its own order, so its block is (1 << 22) // m points as before; no
    line is counted by class."""
    ints = np.random.default_rng(5).integers(0, 1 << 16, size=(32, 2))
    p = _lattice_set(ints, 1 << 16)
    l = spanned_lines(p)
    assert len(l) == 496 and np.all(_classes(l) == 1)
    calls = []
    dense = inc._count_dense

    def spy(ints, a, b, c):
        calls.append(c.size)
        return dense(ints, a, b, c)

    monkeypatch.setattr(inc, "_count_dense", spy)
    monkeypatch.setattr(inc, "_count_by_class",
                        lambda *args: pytest.fail("counted by class"))
    assert np.array_equal(inc._count_on_lines_exact(p, l)[0], l.point_counts)
    assert calls == [len(l)]


@given(k=st.integers(1, 4), n=st.integers(1, 6), scale=st.sampled_from([1, 1 << 59]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_count_in_rows_matches_per_row_count(k, n, scale, data):
    """Targets below, above and between a row's values, and equal to
    values of other rows, count only their own row's equal entries; at
    scale 2^59 the values span up to 2^63 and the targets reach -2^63, and
    the rows are lexsorted."""
    v = np.sort(np.array(data.draw(st.lists(st.integers(-8, 8), min_size=k * n,
                                            max_size=k * n)),
                         dtype=np.int64).reshape(k, n) * scale, axis=1)
    m = data.draw(st.integers(1, 12))
    r = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
    t = np.array(data.draw(st.lists(st.integers(-16, 15), min_size=m, max_size=m)),
                 dtype=np.int64) * scale
    want = [int(np.sum(v[i] == x)) for i, x in zip(r, t)]
    assert inc._count_in_rows(v.copy(), r, t).tolist() == want


def _cap_lines(dl):
    """Points at denominator 2^21 out to (+-0.875, +-1.75) and exact lines
    at denominator dl: x - y = 0 alone in its class, and four lines each
    of x + y = c and x + 2y = c."""
    e = 2.0 ** -21
    pts = [(0.875, 1.75), (-0.875, -1.75), (1, 0), (0, 0.5), (-1, 1),
           (0.5, 0.25), (-0.5, 0.75), (0, 0), (1, -0.5), (-1, 0.5), (1, -1),
           (0.5, -0.5), (0.5, 0.5), (0, 1), (e, 0)]
    lines = [(1, -1, 0), (1, 1, -2.625), (1, 1, 0), (1, 1, 0.25), (1, 1, 1),
             (1, 2, 0), (1, 2, 1), (1, 2, 3), (1, 2, 4.375)]
    triples = np.array([(a, b, int(c * dl)) for a, b, c in lines], dtype=np.int64)
    return (DiscreteSet(np.array(pts, dtype=float), e, check=False),
            LineSet(triples=triples, denominator=dl))


@pytest.mark.parametrize("dl,fallback", [(1 << 38, True), (1 << 30, False)])
def test_class_keys_over_63_bits_take_the_lexsort(dl, fallback, monkeypatch):
    """At dl = 2^38 the integer test needs 2^60.8, within the guard, but
    x + 2y takes values over a range of 8.75 * 2^59: with a bit for the
    class row the (class, value) key needs 64 bits, so the rows are
    lexsorted. At dl = 2^30 the key packs; so it does at 2^38 with one
    class per block."""
    p, l = _cap_lines(dl)
    sorts = []
    lexsort = np.lexsort

    def spy(keys, *args, **kwargs):
        sorts.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    want = _assert_counts_match_oracle(p, l)
    assert want.tolist() == [2, 1, 4, 1, 3, 3, 5, 0, 1]
    assert bool(sorts) == fallback
    sorts.clear()
    _assert_counts_match_oracle(p, l, (1,))
    assert sorts == []
