"""Point set constructors: validation, separation, and the promised
statistical shape of each family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.covering import verify_delta_s_set
from gmtlab.dyadic import count_cells, quota_child_counts
from gmtlab.errors import InvariantViolation, PreconditionError
from gmtlab.generators import (
    DiscreteSet,
    IfsSystem,
    cantor_middle_thirds,
    circle_set,
    four_corner_product,
    gen_grid,
    gen_ifs,
    gen_planted_collinear,
    gen_random_delta_s_set,
    segment_set,
)
from gmtlab.incidence import _lines_by_size, _spanned_exact


# ---------------------------------------------------------------------------
# DiscreteSet validation
# ---------------------------------------------------------------------------


class TestDiscreteSet:
    def test_rejects_duplicates(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(InvariantViolation):
            DiscreteSet(pts, 0.125)

    def test_rejects_out_of_box(self):
        with pytest.raises(PreconditionError):
            DiscreteSet(np.array([[5.0, 0.0]]), 0.5)

    def test_rejects_bad_delta(self):
        pts = np.array([[0.1, 0.1]])
        with pytest.raises(PreconditionError):
            DiscreteSet(pts, 0.0)
        with pytest.raises(PreconditionError):
            DiscreteSet(pts, 1.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(PreconditionError):
            DiscreteSet(np.array([[np.nan, 0.0]]), 0.5)

    def test_separation_enforced(self):
        pts = np.array([[0.0, 0.0], [0.0, 1e-9]])
        with pytest.raises(InvariantViolation):
            DiscreteSet(pts, 0.25)

    def test_grid_aligned_check_memory(self):
        """The 1024 x 1024 node grid at delta = 2^-10 holds 16 MiB of
        points; checking its separation keeps one float temporary beside
        the int64 nodes (it peaked at 105 MiB with four alive at once)."""
        import tracemalloc

        g = np.arange(1024) * 2.0 ** -10
        pts = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        tracemalloc.start()
        try:
            DiscreteSet(pts, 2.0 ** -10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2 ** 20

    def test_off_grid_by_more_than_the_snap_tolerance(self):
        """A point 2e-6 nodes off the grid takes the separation query, one
        1e-7 off is snapped to its node and counts as a duplicate."""
        delta = 2.0 ** -4
        near = np.array([[0.0, 0.0], [1e-7 * delta, 0.0]])
        with pytest.raises(InvariantViolation, match="duplicate grid-snapped"):
            DiscreteSet(near, delta)
        off = np.array([[0.0, 0.0], [2e-6 * delta, 0.0]])
        with pytest.raises(InvariantViolation, match="minimum separation"):
            DiscreteSet(off, delta)

    def test_points_are_read_only(self, grid3):
        with pytest.raises(ValueError):
            grid3.points[0, 0] = 99.0


def _separation_tree_oracle(pts, delta):
    """DiscreteSet's off-grid separation check before the near-neighbour
    sweep, by each point's nearest other point from a k-d tree: the error
    message, or None for a separated set."""
    from scipy.spatial import cKDTree

    d, _ = cKDTree(pts).query(pts, k=2)
    if d[:, 1].min() < delta / 2.0 - 1e-12:
        return f"minimum separation {d[:, 1].min():.3e} below delta/2 = {delta / 2:.3e}"
    return None


def _separation_message(pts, delta):
    try:
        DiscreteSet(pts, delta, check=False)._assert_separated()
    except InvariantViolation as exc:
        return str(exc)
    return None


@st.composite
def _off_grid_sets(draw):
    """Points of the lattice of pitch delta / 2 or delta / 4, so that
    neighbours lie exactly delta / 2 (or delta / 4) apart and none is a
    node of the delta-lattice; float points drawn from a small pool, so
    that some coincide; and single points."""
    kind = draw(st.sampled_from(["half", "quarter", "pool", "one"]))
    delta = 2.0 ** -draw(st.integers(3, 6))
    if kind in ("half", "quarter"):
        pitch = delta / (2 if kind == "half" else 4)
        nodes = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                              min_size=1, max_size=80, unique=True))
        # half a pitch off the nodes keeps every point off the delta-lattice
        pts = (np.array(nodes, dtype=float) + 0.5) * pitch
    else:
        coord = st.floats(-1.3, 1.3, allow_nan=False)
        pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
        size = 1 if kind == "one" else draw(st.integers(1, 60))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size,
                              max_size=size))
        pts = np.array([pool[i] for i in picks]) + 0.3 * delta
        delta = draw(st.sampled_from([delta, 1e-3, 0.25]))
    return pts, delta


@settings(max_examples=300, deadline=None)
@given(_off_grid_sets())
def test_off_grid_separation_matches_tree_oracle(case):
    pts, delta = case
    off = pts / delta - np.rint(pts / delta)
    assert np.abs(off).max() >= 1e-6  # the off-grid branch runs
    assert _separation_message(pts, delta) == _separation_tree_oracle(pts, delta)


def test_off_grid_separation_at_exactly_half_delta():
    """Neighbours exactly delta / 2 apart pass; a pair one ulp closer
    than delta / 2 - 1e-12 fails with the oracle's message."""
    delta = 2.0 ** -4
    row = np.stack([np.arange(9) * delta / 2 + delta / 4, np.full(9, 0.5)], axis=1)
    assert _separation_message(row, delta) is None
    close = np.array([[0.1, 0.1], [0.1 + np.nextafter(delta / 2 - 1e-12, 0.0), 0.1]])
    got = _separation_message(close, delta)
    assert got is not None and got == _separation_tree_oracle(close, delta)


def test_coincident_off_grid_points_are_refused():
    pts = np.array([[0.3, 0.3], [0.7, 0.1], [0.3, 0.3]])
    assert _separation_message(pts, 2.0 ** -4) == (
        "minimum separation 0.000e+00 below delta/2 = 3.125e-02")


@pytest.mark.parametrize("transpose", [False, True])
def test_off_grid_segment_checks_in_linear_time(transpose):
    """2^14 points on a vertical (or horizontal) segment off the grid:
    sweeping along the segment keeps the check well under a second,
    where sweeping across it would compare every pair."""
    import time

    n = 2 ** 14
    pts = np.stack([np.full(n, 0.3), np.arange(n) / (n + 1.0)], axis=1)
    if transpose:
        pts = pts[:, ::-1]
    t0 = time.perf_counter()
    DiscreteSet(pts, 2.0 ** -14)
    assert time.perf_counter() - t0 < 1.0
    assert _separation_message(pts, 2.0 ** -13) == _separation_tree_oracle(pts, 2.0 ** -13)


# ---------------------------------------------------------------------------
# iterated function systems
# ---------------------------------------------------------------------------


class TestIfs:
    def test_gen_ifs_sizes(self, cantor6, fourcorner4):
        assert len(cantor6) == 2 ** 6
        assert len(fourcorner4) == 4 ** 4

    def test_cantor_lives_on_x_axis(self, cantor6):
        assert np.all(cantor6.points[:, 1] == 0.0)
        assert cantor6.points[:, 0].min() >= 0.0
        assert cantor6.points[:, 0].max() <= 1.0

    def test_fourcorner_is_product_structure(self, fourcorner4):
        """Marginals of the four-corner set are both middle-half Cantor sets,
        so x and y coordinate sets coincide."""
        xs = np.unique(fourcorner4.points[:, 0])
        ys = np.unique(fourcorner4.points[:, 1])
        assert np.allclose(xs, ys)
        assert xs.size == 2 ** 4

    def test_ifs_depth_follows_target_delta(self):
        shallow = gen_ifs(cantor_middle_thirds(), 3.0 ** -3)
        assert len(shallow) == 8
        assert shallow.delta <= 3.0 ** -3 + 1e-12


# ---------------------------------------------------------------------------
# lattice-like families
# ---------------------------------------------------------------------------


def test_gen_grid_shape_and_delta():
    g = gen_grid(32)
    assert len(g) == 1024
    # spacing 1/31 snaps down to the dyadic 2^-5
    assert g.delta == 2.0 ** -5
    assert g.points.min() == 0.0
    assert g.points.max() == 1.0


def test_gen_grid_rejects_tiny():
    with pytest.raises(PreconditionError):
        gen_grid(1)


def test_segment_set_is_horizontal_by_default():
    s = segment_set(64)
    assert np.all(s.points[:, 1] == 0.0)
    assert len(s) == 64


def test_segment_set_vertical_flag():
    s = segment_set(16, vertical=True)
    assert np.all(s.points[:, 0] == 0.0)


def test_circle_set_radius():
    c = circle_set(256)
    r = np.hypot(c.points[:, 0], c.points[:, 1])
    assert np.allclose(r, 1.0)
    assert len(c) == 256


def test_circle_set_center_shift():
    c = circle_set(64, radius=0.5, center=(0.25, -0.25))
    r = np.hypot(c.points[:, 0] - 0.25, c.points[:, 1] + 0.25)
    assert np.allclose(r, 0.5)


# ---------------------------------------------------------------------------
# random (delta, s) sets
# ---------------------------------------------------------------------------


class TestRandomDeltaS:
    def test_deterministic_per_seed(self):
        a = gen_random_delta_s_set(0.8, 2.0 ** -6, seed=3)
        b = gen_random_delta_s_set(0.8, 2.0 ** -6, seed=3)
        assert np.array_equal(a.points, b.points)
        c = gen_random_delta_s_set(0.8, 2.0 ** -6, seed=4)
        assert not np.array_equal(a.points, c.points)

    def test_size_tracks_exponent(self):
        small = gen_random_delta_s_set(0.5, 2.0 ** -8, seed=0)
        large = gen_random_delta_s_set(1.5, 2.0 ** -8, seed=0)
        # target sizes are 2^(8*0.5)=16 and 2^(8*1.5)=4096 up to quota slack
        assert len(small) < len(large)
        assert abs(math.log2(len(small)) - 4.0) < 1.5
        assert abs(math.log2(len(large)) - 12.0) < 1.5

    def test_one_point_per_delta_cell(self):
        ds = gen_random_delta_s_set(1.0, 2.0 ** -7, seed=2)
        assert count_cells(ds.points, ds.delta) == len(ds)

    def test_passes_spread_check(self):
        ds = gen_random_delta_s_set(1.2, 2.0 ** -7, seed=5)
        assert verify_delta_s_set(ds, 1.2, 16.0).passed

    def test_rejects_non_dyadic_delta(self):
        with pytest.raises(PreconditionError):
            gen_random_delta_s_set(1.0, 0.3, seed=0)

    def test_rejects_s_out_of_range(self):
        with pytest.raises(PreconditionError):
            gen_random_delta_s_set(2.5, 2.0 ** -6, seed=0)

    def test_full_density_at_s2(self):
        ds = gen_random_delta_s_set(2.0, 2.0 ** -4, seed=1)
        assert len(ds) == 4 ** 4  # every cell survives the quota walk


def _random_delta_s_cells_oracle(s, delta, seed):
    """gen_random_delta_s_set's quota walk before it moved into
    dyadic.quota_tree: one 2-D tree, one generator."""
    subcells = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    levels = int(round(math.log2(1.0 / delta)))
    rng = np.random.default_rng(seed)

    cells = np.zeros((1, 2), dtype=np.int64)
    surplus = np.zeros(1)
    hard_cap = int(math.ceil(2.0 ** s - 1e-12))
    carry = 0.0
    for _ in range(levels):
        p = cells.shape[0]
        counts, carry = quota_child_counts(
            surplus,
            branch_log2=s,
            available=np.full(p, 4, dtype=np.int64),
            hard_cap=max(hard_cap, 1),
            tiebreak=rng.random(p),
            carry=carry,
        )
        ranks = np.argsort(rng.random((p, 4)), axis=1).argsort(axis=1)
        parent_idx, sub_idx = np.nonzero(ranks < counts[:, None])
        cells = cells[parent_idx] * 2 + subcells[sub_idx]
        surplus = surplus[parent_idx] + np.log2(counts[parent_idx]) - s
    return cells


@given(st.floats(0.0, 2.0), st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_delta_s_set_matches_oracle(s, level, seed):
    delta = 2.0 ** -level
    ds = gen_random_delta_s_set(s, delta, seed)
    want = _random_delta_s_cells_oracle(s, delta, seed).astype(float) * delta
    assert np.array_equal(ds.points, want)


# ---------------------------------------------------------------------------
# planted collinear
# ---------------------------------------------------------------------------


class TestPlanted:
    def test_exact_collinearity_count(self):
        ds = gen_planted_collinear(64, 16, seed=2)
        on_line = int(np.sum(np.abs(ds.points[:, 1] - 0.5) < 1e-12))
        assert on_line == 48  # n - k points sit on y = 1/2

    def test_all_collinear_when_k_zero(self):
        ds = gen_planted_collinear(32, 0, seed=1)
        assert np.all(np.abs(ds.points[:, 1] - 0.5) < 1e-12)

    def test_k_bounds(self):
        with pytest.raises(PreconditionError):
            gen_planted_collinear(32, 31, seed=0)
        with pytest.raises(PreconditionError):
            gen_planted_collinear(32, -1, seed=0)

    def test_meta_records_provenance(self):
        ds = gen_planted_collinear(16, 4, seed=9)
        assert ds.meta["params"] == {"n": 16, "k": 4}
        assert ds.meta["seed"] == 9


def _max_collinear_oracle(ipts: np.ndarray) -> int:
    """The planted generator's former private collinearity count, kept as
    the reference for the incidence line counts it now uses."""
    n = ipts.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    p, q = ipts[iu], ipts[ju]
    a = q[:, 1] - p[:, 1]
    b = p[:, 0] - q[:, 0]
    c = a * p[:, 0] + b * p[:, 1]
    g = np.gcd(np.gcd(np.abs(a), np.abs(b)), np.abs(c))
    g[g == 0] = 1
    a, b, c = a // g, b // g, c // g
    flip = (a < 0) | ((a == 0) & (b < 0))
    a[flip], b[flip], c[flip] = -a[flip], -b[flip], -c[flip]
    triples = np.stack([a, b, c], axis=1)
    _, counts = np.unique(triples, axis=0, return_counts=True)
    kmax = counts.max()
    # pair count C(k, 2) -> k
    return int((1 + math.isqrt(1 + 8 * int(kmax))) // 2)


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                min_size=2, max_size=40, unique=True))
@settings(max_examples=100, deadline=None)
def test_max_collinear_matches_oracle_on_lattice_sets(pts):
    ipts = np.array(pts, dtype=np.int64)
    want = _max_collinear_oracle(ipts)
    assert int(_spanned_exact(ipts)[1].max()) == want
    assert np.flatnonzero(_lines_by_size(ipts))[-1] == want


@pytest.mark.parametrize("n,k,seed", [(64, 16, 2), (40, 38, 5), (128, 0, 3)])
def test_planted_max_collinear_matches_oracle(n, k, seed):
    ipts = np.round(gen_planted_collinear(n, k, seed).points * 2 ** 16).astype(np.int64)
    assert _max_collinear_oracle(ipts) == n - k


def _gen_ifs_oracle(system, target_delta):
    """gen_ifs's former snapping: np.unique over the float rows."""
    rmax = max(m[0] for m in system.maps)
    depth = 1
    reach = rmax
    while reach > target_delta:
        depth += 1
        reach *= rmax
    pts = np.zeros((1, 2))
    mats = []
    for ratio, rot, (tx, ty) in system.maps:
        c, s = math.cos(rot), math.sin(rot)
        mats.append((ratio * np.array([[c, -s], [s, c]]), np.array([tx, ty])))
    for _ in range(depth):
        pts = np.concatenate([pts @ mat.T + t for mat, t in mats], axis=0)

    snapped = np.round(pts / target_delta) * target_delta
    return np.unique(snapped, axis=0)


@pytest.mark.parametrize("system, target_delta", [
    (cantor_middle_thirds(), 3.0 ** -6),
    (four_corner_product(), 4.0 ** -4),
    (IfsSystem(((0.5, 0.3, (0.1, 0.2)), (0.4, -1.0, (-0.3, 0.1)),
                (0.45, 2.0, (0.2, -0.4))), label="rotated"), 2.0 ** -6),
])
def test_gen_ifs_matches_float_unique_oracle(system, target_delta):
    """Bit for bit, except that a rotated orbit snapping to -0.0 now gives
    0.0: the integer nodes carry no sign of zero."""
    got = gen_ifs(system, target_delta).points
    want = _gen_ifs_oracle(system, target_delta)
    assert got.shape == want.shape
    assert got.tobytes() == (want + 0.0).tobytes()
    assert not np.any(np.signbit(got) & (got == 0.0))


def test_ifs_system_validation():
    with pytest.raises(PreconditionError):
        IfsSystem(maps=[], label="empty", depth=1)
