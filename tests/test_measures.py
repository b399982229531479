"""Weighted measures: ball and tube masses, Frostman fits, Riesz-type
energies, radial pushforwards, and shell decompositions."""

import importlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab import dyadic, measures
from gmtlab.covering import fit_log2_slope
from gmtlab.dyadic import MAX_FFT_CELLS
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


def _masses_by_route(m, radii, pairs_per_cell=None):
    """ball_masses_at_support, and per radius whether the FFT answered
    (empty when the support is off the lattice, so the FFT never runs).
    pairs_per_cell, if given, replaces dyadic._PAIRS_PER_FFT_CELL: 0 admits
    the FFT wherever the grid and the total fit its caps, math.inf refuses
    it everywhere, so that the sweep answers."""
    real = dyadic.lattice_disc_sums
    answered = []

    def spy(*args):
        sums = real(*args)
        answered.extend(s is not None for s in sums)
        return sums

    with mock.patch.object(dyadic, "lattice_disc_sums", spy), mock.patch.object(
            dyadic, "_PAIRS_PER_FFT_CELL",
            dyadic._PAIRS_PER_FFT_CELL if pairs_per_cell is None else pairs_per_cell):
        masses = ball_masses_at_support(m, radii)
    return masses, answered


def _swept_masses(m, radii):
    masses, answered = _masses_by_route(m, radii, math.inf)
    assert not any(answered)
    return masses


# ---------------------------------------------------------------------------
# construction and restriction
# ---------------------------------------------------------------------------


class TestWeightedMeasure:
    def test_uniform_weights(self, grid3_uniform):
        assert grid3_uniform.counts.dtype == np.int64
        assert np.all(grid3_uniform.counts == 1) and grid3_uniform.total == 9
        assert grid3_uniform.weights.sum() == pytest.approx(1.0)
        assert np.all(grid3_uniform.weights == 1.0 / 9.0)

    def test_rejects_negative_weights(self, grid3):
        c = np.ones(9, dtype=np.int64)
        c[0] = -1
        with pytest.raises(PreconditionError):
            WeightedMeasure(grid3, c)

    def test_rejects_unnormalized(self, grid3):
        """A measure is built from integer counts: float weights, summing
        to 1 or not, and booleans are refused."""
        for weights in (np.full(9, 0.2), np.full(9, 1.0 / 9.0), np.ones(9, dtype=bool)):
            with pytest.raises(PreconditionError):
                WeightedMeasure(grid3, weights)

    @pytest.mark.parametrize("counts, total", [
        ([1] + [0] * 8, 1),
        ([2 ** 53 - 9] + [1] * 8, 2 ** 53 - 1),
        ([0] * 9, None),
        ([2 ** 53 - 8] + [1] * 8, None),
        ([2 ** 62] * 9, None),
        (np.full(9, 2 ** 63, dtype=np.uint64), None),
    ])
    def test_counts_total_between_one_and_two_to_the_53(self, grid3, counts, total):
        """Below 2^53 every float sum of counts is exact; a total of 2^53
        or more, or one that overflows int64, is refused."""
        if total is None:
            with pytest.raises(PreconditionError):
                WeightedMeasure(grid3, np.asarray(counts))
        else:
            m = WeightedMeasure(grid3, np.asarray(counts))
            assert m.total == total and m.counts.dtype == np.int64


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


def test_ball_masses_at_support_matches_direct(grid3_uniform):
    radii = [0.25, 0.5, 1.0]
    fast = ball_masses_at_support(grid3_uniform, radii)
    pts = grid3_uniform.support.points
    for r, got in zip(radii, fast):
        d = np.hypot(pts[:, 0, None] - pts[None, :, 0],
                     pts[:, 1, None] - pts[None, :, 1])
        direct = (d <= r + 1e-12) @ grid3_uniform.weights
        assert np.allclose(got, direct)


def _ball_masses_tree_oracle(m, radii):
    """_ball_masses_tree before blocking, as a count oracle: one query for
    every centre, its members' counts summed in Python integers and
    divided by the total."""
    from scipy.spatial import cKDTree

    pts = m.support.points
    tree = cKDTree(pts)
    c = m.counts.tolist()
    out = []
    for r in radii:
        hoods = tree.query_ball_point(pts, r + measures.BALL_TOL)
        out.append(np.array([sum(c[i] for i in ix) / m.total for ix in hoods]))
    return out


@pytest.mark.parametrize("block", [1, 7, 64, 256])
def test_ball_masses_tree_blocks_match_oracle(monkeypatch, block):
    ds = gen_random_delta_s_set(1.2, 2.0 ** -7, seed=4)
    m = _random_counts(ds, 4)
    assert block < len(ds)
    monkeypatch.setattr(dyadic, "SWEEP_BLOCK", block)
    radii = [2.0 ** -lv for lv in range(1, 7)]
    for got, want in zip(ball_masses_at_support(m, radii),
                         _ball_masses_tree_oracle(m, radii)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _ball_masses_blocked_tree_oracle(m, radii, block=64):
    """_ball_masses_tree before the x-sorted sweep, with its block size as
    a parameter, as a count oracle: cKDTree queries of block centres at a
    time, and each ball's member count summed in Python integers and
    divided by the total."""
    from scipy.spatial import cKDTree

    pts = m.support.points
    tree = cKDTree(pts)
    c = m.counts.tolist()
    out = []
    for r in radii:
        masses = np.empty(pts.shape[0])
        for s in range(0, pts.shape[0], block):
            hoods = tree.query_ball_point(pts[s:s + block], r + measures.BALL_TOL)
            masses[s:s + block] = [sum(c[i] for i in ix) / m.total for ix in hoods]
        out.append(masses)
    return out


def _assert_sweep_matches_tree(m, radii):
    got = _swept_masses(m, radii)
    want = _ball_masses_blocked_tree_oracle(m, radii)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@st.composite
def _sweep_supports(draw):
    """Lattice sets (radii are lattice distances, some Pythagorean, so
    other points lie exactly r from a centre), off-lattice sets, and sets
    whose points share a few x-coordinates."""
    kind = draw(st.sampled_from(["lattice", "grid", "off-lattice", "shared-x"]))
    if kind in ("lattice", "grid"):
        h = 2.0 ** -draw(st.integers(4, 6))
        if kind == "grid":
            k = draw(st.integers(1, 11))
            nodes = [(i, j) for i in range(k) for j in range(k)]
        else:
            nodes = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                                  min_size=1, max_size=150, unique=True))
        pts = np.array(nodes, dtype=float) * h
        # 3^2 + 4^2 = 5^2, 5^2 + 12^2 = 13^2, 6^2 + 8^2 = 10^2; a radius
        # q h - BALL_TOL widens back to q h, so the bound is exactly q^2 h^2
        qs = draw(st.lists(st.sampled_from([1, 2, 3, 5, 10, 13, 40]), min_size=1, max_size=5))
        shave = draw(st.sampled_from([0.0, measures.BALL_TOL]))
        radii = [q * h - shave for q in qs]
        delta = h
    else:
        coord = st.floats(-1.3, 1.3, allow_nan=False)
        if kind == "shared-x":
            xs = draw(st.lists(coord, min_size=1, max_size=3))
            coord_x = st.sampled_from(xs)
        else:
            coord_x = coord
        pts = np.array(draw(st.lists(st.tuples(coord_x, coord), min_size=1, max_size=150)))
        radii = draw(st.lists(st.one_of(st.floats(1e-3, 4.0),
                                        st.sampled_from([2.0 ** -3, 0.3, 4.0])),
                              min_size=1, max_size=5))
        delta = 1e-3
    return DiscreteSet(pts, delta, check=False), radii


def _multiplicities(rng, n, bits=40):
    """Random counts of up to `bits` bits, about a tenth of them zero and
    at least one positive."""
    c = rng.integers(0, 2 ** rng.integers(1, bits + 1, n))
    c[rng.random(n) < 0.1] = 0
    c[0] += c.sum() == 0
    return c


@given(
    _sweep_supports(),
    st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)),
    st.sampled_from([1, 7, 64]),
)
@settings(max_examples=200, deadline=None)
def test_ball_masses_sweep_matches_blocked_tree(case, count_seed, block):
    """Uniform (count_seed None) and random-multiplicity measures, the
    counts over twelve orders of magnitude; radii unsorted, repeated and
    larger than the set."""
    ds, radii = case
    if count_seed is None:
        m = WeightedMeasure.uniform(ds)
    else:
        m = WeightedMeasure(ds, _multiplicities(np.random.default_rng(count_seed), len(ds)))
    with mock.patch.object(dyadic, "SWEEP_BLOCK", block):
        _assert_sweep_matches_tree(m, radii)


@pytest.mark.parametrize("block", [1, 5000])
def test_ball_masses_sweep_matches_blocked_tree_on_a_weighted_set(monkeypatch, block):
    """1,000 off-lattice points with random counts, each ball at radius 1
    holding hundreds of them; sweep blocks of one centre, and of all."""
    rng = np.random.default_rng(7)
    ds = DiscreteSet(rng.random((1000, 2)), 1e-6, check=False)
    m = WeightedMeasure(ds, _multiplicities(rng, 1000))
    monkeypatch.setattr(dyadic, "SWEEP_BLOCK", block)
    _assert_sweep_matches_tree(m, [2.0 ** -lv for lv in range(0, 9)])


@pytest.mark.parametrize("shave", [0.0, measures.BALL_TOL])
def test_ball_masses_sweep_on_lattice_distances(shave):
    """An 11 x 11 grid of the 2^-4 lattice holds pairs 5 h and 10 h apart
    (3-4-5 and 6-8-10 triangles); with q h - BALL_TOL as the radius the
    widened bound is exactly their squared distance."""
    h = 2.0 ** -4
    nodes = np.array([(i, j) for i in range(11) for j in range(11)], dtype=float)
    ds = DiscreteSet(nodes * h, h, check=False)
    radii = [q * h - shave for q in (1, 5, 10, 13)]
    _assert_sweep_matches_tree(WeightedMeasure.uniform(ds), radii)
    _assert_sweep_matches_tree(_random_counts(ds, 3), radii)


def test_ball_masses_sweep_memory_follows_the_pair_budget():
    """At radius 2 every ball of 1,000 points holds all of them, a million
    (ball, member) pairs in all; each block's counts are summed as it is
    swept, so memory stays at a few blocks' worth."""
    import tracemalloc

    rng = np.random.default_rng(8)
    ds = DiscreteSet(rng.random((1000, 2)), 1e-6, check=False)
    m = WeightedMeasure(ds, _multiplicities(rng, 1000))
    tracemalloc.start()
    try:
        ball_masses_at_support(m, [2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.6 MiB measured; 31.6 MB with every pair held until the end
    assert peak < 8 * 2 ** 20


def test_ball_masses_sweep_of_no_radii():
    assert _swept_masses(WeightedMeasure.uniform(gen_grid(3)), []) == []


def test_ball_masses_at_support_of_no_radii_on_any_support():
    """A lattice support, where the FFT is priced against the sweep's pairs
    per radius, gives no arrays for no radii, as an off-lattice one does."""
    big = gen_random_delta_s_set(1.5, 2.0 ** -9, 1)
    assert dyadic.lattice_nodes(big.points, big.delta) is not None
    off = DiscreteSet(np.random.default_rng(0).random((50, 2)), 1e-6, check=False)
    for ds in (gen_grid(3), big, off):
        for pairs_per_cell in (None, 0, math.inf):
            m = WeightedMeasure.uniform(ds)
            assert _masses_by_route(m, [], pairs_per_cell) == ([], [])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ball_masses_match_blocked_tree_on_radial_circle_measures(monkeypatch, seed):
    """The circle measures whose Frostman fit the radial benchmark times."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    wl = importlib.import_module("workloads").RadialWorkload(seed)
    radii = [2.0 ** -lv for lv in range(wl.z_levels[0], wl.z_levels[1] + 1)]
    for i in range(wl.pool):
        item = wl.make_item(i)
        circle = radial_pushforward(item["z"], item["centre"]).as_circle_measure()
        got, answered = _masses_by_route(circle, radii)
        assert answered == []  # off the lattice: the sweep
        for g, w in zip(got, _ball_masses_blocked_tree_oracle(circle, radii)):
            assert np.array_equal(g, w)


def _ball_masses_fft_oracle(m, radii):
    """The FFT route of ball masses before numpy.fft, as a count oracle: scipy's
    fftconvolve of the counts per radius, rounded and divided by the
    total."""
    from scipy.signal import fftconvolve

    # that version's lattice test: every point within 1e-6 delta of a node
    h = m.support.delta
    q = m.support.points / h
    if not np.max(np.abs(q - np.round(q))) < 1e-6:
        return None
    idx = np.round(m.support.points / h).astype(np.int64)
    lo = idx.min(axis=0)
    idx = idx - lo
    shape = idx.max(axis=0) + 1
    qmax = int(math.floor(max(radii) / h * (1.0 + 1e-9)))
    if (shape[0] + 2 * qmax) * (shape[1] + 2 * qmax) > MAX_FFT_CELLS:
        return None
    grid = np.zeros((int(shape[0]), int(shape[1])))
    np.add.at(grid, (idx[:, 0], idx[:, 1]), m.counts)
    out = []
    for r in radii:
        q = int(math.floor(r / h * (1.0 + 1e-9)))
        span = np.arange(-q, q + 1)
        kern = (span[:, None] ** 2 + span[None, :] ** 2) <= (r / h) ** 2 * (1.0 + 1e-9)
        conv = fftconvolve(grid, kern.astype(np.float64), mode="same")
        out.append(np.rint(conv[idx[:, 0], idx[:, 1]]) / m.total)
    return out


def _random_counts(ds, seed):
    return WeightedMeasure(ds, np.random.default_rng(seed).integers(1, 1000, len(ds)))


def test_ball_masses_fft_matches_fftconvolve_oracle():
    """Lattice points whose every radius ball_masses_at_support itself
    sends to the FFT; uniform and random counts."""
    ds = gen_random_delta_s_set(1.8, 2.0 ** -7, seed=2)
    radii = [2.0 ** -lv for lv in range(1, 8)] + [3.0 * 2.0 ** -6]
    for m in (WeightedMeasure.uniform(ds), _random_counts(ds, 2)):
        want = _ball_masses_fft_oracle(m, radii)
        assert want is not None
        masses, answered = _masses_by_route(m, radii)
        assert answered == [True] * len(radii)
        for got, ref in zip(masses, want):
            assert np.array_equal(got, ref)


def _lattice_box_subset(rows, cols, seed):
    """Half the nodes of a rows x cols box of the 2^-6 lattice."""
    rng = np.random.default_rng(seed)
    nodes = np.stack(np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij"),
                     axis=-1).reshape(-1, 2)
    keep = rng.permutation(nodes.shape[0])[:nodes.shape[0] // 2]
    return DiscreteSet((nodes[keep] - 20) * 2.0 ** -6, 2.0 ** -6)


@pytest.mark.parametrize("make", [
    lambda: gen_grid(33),
    lambda: _lattice_box_subset(45, 70, 1),
])
def test_ball_masses_fft_matches_tree(make):
    m = _random_counts(make(), 5)
    radii = [2.0 ** -lv for lv in range(2, 7)]
    fft, answered = _masses_by_route(m, radii, 0)
    assert answered == [True] * len(radii)
    for got, want in zip(fft, _swept_masses(m, radii)):
        assert np.array_equal(got, want)
    for got, want in zip(fft, _ball_masses_fft_oracle(m, radii)):
        assert np.array_equal(got, want)


def test_full_grid_masses_take_the_fft():
    """The full 64 x 64 grid of the 2^-6 lattice, 4,096 points: the FFT's
    price admits every radius 2^-1 ... 2^-5, and its masses are the
    sweep's."""
    m = WeightedMeasure.uniform(gen_random_delta_s_set(2.0, 2.0 ** -6, 0))
    assert len(m) == 64 * 64
    radii = [2.0 ** -lv for lv in range(1, 6)]
    fft, answered = _masses_by_route(m, radii)
    assert answered == [True] * len(radii)
    for got, want in zip(fft, _swept_masses(m, radii)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("args, routes", [
    ((1.5, 2.0 ** -7, 0), [True] * 5 + [False]),
    ((1.0, 2.0 ** -9, 0), [False] * 6),
])
def test_masses_are_priced_radius_by_radius(args, routes):
    """Each radius's grid is priced against the pairs a sweep at that
    radius alone would walk. On the 1,087 nodes of a (1.5, 2^-7)-set the
    FFT answers 2^-1 ... 2^-5 and the sweep 2^-6; the 512 nodes of a
    (1.0, 2^-9)-set spread over the square sweep every radius. Either way
    the masses are the forced sweep's."""
    ds = gen_random_delta_s_set(*args)
    m = WeightedMeasure(ds, np.random.default_rng(0).integers(1, 1000, len(ds)))
    radii = [2.0 ** -lv for lv in range(1, 7)]
    got, answered = _masses_by_route(m, radii)
    assert answered == routes
    for g, want in zip(got, _swept_masses(m, radii)):
        assert np.array_equal(g, want)


def test_near_node_support_takes_the_sweep():
    """Node (1, 0) of the 80 x 80 grid moved out by 1e-7 delta passes the
    separation check, but is no node: the FFT would count it at (1, 0),
    inside the delta-ball at the origin. Every route counts 2 of 6400."""
    h = 2.0 ** -7
    nodes = np.stack(np.meshgrid(np.arange(80), np.arange(80), indexing="ij"),
                     axis=-1).reshape(-1, 2)
    pts = nodes * h
    pts[80, 0] = h * (1.0 + 1e-7)
    assert nodes[80].tolist() == [1, 0]
    m = WeightedMeasure.uniform(DiscreteSet(pts, h))
    masses, answered = _masses_by_route(m, [h], 0)
    assert answered == []
    want = 2 / 6400
    assert masses[0][0] == want
    assert ball_mass(m, Ball(Point(0.0, 0.0), h)) == want
    assert _swept_masses(m, [h])[0][0] == want


def test_fft_ball_is_the_sweeps_closed_ball_just_inside_a_node_ring():
    """r just below 5h on the 80 x 80 grid: the 12 nodes at distance 5h of
    node (40, 40) lie beyond r + BALL_TOL, so every route counts 69 of 6400
    (a disc test with slack admitted them and counted 81)."""
    h = 2.0 ** -7
    nodes = np.stack(np.meshgrid(np.arange(80), np.arange(80), indexing="ij"),
                     axis=-1).reshape(-1, 2)
    m = WeightedMeasure.uniform(DiscreteSet(nodes * h, h))
    r = 5 * h * math.sqrt(1 - 4e-10)
    i = 40 * 80 + 40
    masses, answered = _masses_by_route(m, [r], 0)
    assert answered == [True]
    assert masses[0][i] == 69 / 6400
    assert ball_masses_at_support(m, [r])[0][i] == 69 / 6400
    assert _swept_masses(m, [r])[0][i] == 69 / 6400
    assert ball_mass(m, Ball(Point(40 * h, 40 * h), r)) == 69 / 6400


def test_lattice_of_a_pitch_that_is_not_dyadic_takes_the_sweep():
    """Offsets on a 3 * 2^-9 lattice need not be exact multiples of the
    pitch, so the FFT disc test would not be the sweep's; every point is
    a node, yet the masses come from the sweep."""
    h = 3.0 * 2.0 ** -9
    nodes = np.stack(np.meshgrid(np.arange(80), np.arange(80), indexing="ij"),
                     axis=-1).reshape(-1, 2)
    m = WeightedMeasure.uniform(DiscreteSet(nodes * h, h))
    assert dyadic.lattice_nodes(m.support.points, h) is not None
    got, answered = _masses_by_route(m, [5 * h], 0)
    assert answered == []
    assert np.array_equal(got[0], _swept_masses(m, [5 * h])[0])


@st.composite
def _big_lattice_measures(draw):
    """2^13 nodes of a box of the 2^-k lattice, uniform or with random
    multiplicities."""
    k = draw(st.sampled_from([7, 8]))
    rows = draw(st.integers(64, 128))
    cols = draw(st.integers(-(-8192 // rows), 128))
    i0, j0 = draw(st.integers(-128, 0)), draw(st.integers(-128, 0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    nodes = np.stack(np.meshgrid(np.arange(rows) + i0, np.arange(cols) + j0,
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    nodes = nodes[rng.permutation(nodes.shape[0])[:8192]]
    ds = DiscreteSet(nodes * 2.0 ** -k, 2.0 ** -k)
    if draw(st.booleans()):
        return WeightedMeasure.uniform(ds)
    # 2^13 counts below 2^26 total under the FFT's cap of 2^40
    return WeightedMeasure(ds, _multiplicities(rng, len(ds), bits=26))


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-9])
@settings(max_examples=6, deadline=None)
@given(_big_lattice_measures(), st.lists(st.integers(2, 6), min_size=1, max_size=3))
def test_fft_sweep_and_ball_mass_count_one_closed_ball(eps, m, qs):
    """Radii q h (1 - eps), at and just inside lattice distances: the FFT
    route of ball_masses_at_support, the sweep and ball_mass give equal
    masses."""
    h = m.support.delta
    radii = [q * h * (1.0 - eps) for q in qs]
    fft, answered = _masses_by_route(m, radii, 0)
    assert answered == [True] * len(radii)
    sweep = _swept_masses(m, radii)
    pts = m.support.points
    for r, got, want in zip(radii, fft, sweep):
        assert np.array_equal(got, want)
        for i in range(0, len(m), 1021):
            assert ball_mass(m, Ball(Point(*pts[i]), r)) == want[i]


@settings(max_examples=12, deadline=None)
@given(_big_lattice_measures(), st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.integers(-2, 2), st.integers(0, 2 ** 32 - 1))
def test_every_route_gives_count_over_total_on_each_side_of_the_fft_cap(m, qs, offset, seed):
    """The counts topped up on one node to MAX_FFT_TOTAL + offset, the
    FFT's worst case: at or under the cap the FFT answers, over it the
    sweep does, and either way every route's mass is the k-d tree's count
    over the total."""
    from scipy.spatial import cKDTree

    counts = m.counts.copy()
    counts[np.random.default_rng(seed).integers(len(m))] += (
        dyadic.MAX_FFT_TOTAL + offset - int(counts.sum()))
    m = WeightedMeasure(m.support, counts)
    h, pts, c = m.support.delta, m.support.points, counts.tolist()
    radii = [q * h for q in qs]
    fft, answered = _masses_by_route(m, radii, 0)
    assert answered == [offset <= 0] * len(radii)
    got = ball_masses_at_support(m, radii)
    tree = cKDTree(pts)
    for k, r in enumerate(radii):
        assert np.array_equal(got[k], _swept_masses(m, [r])[0])
        assert np.array_equal(got[k], fft[k])
        for i in range(0, len(m), 97):
            want = sum(c[j] for j in tree.query_ball_point(pts[i], r + measures.BALL_TOL))
            assert got[k][i] == want / m.total == ball_mass(m, Ball(Point(*pts[i]), r))


# ---------------------------------------------------------------------------
# frostman fits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", [lambda n: n, lambda n: n + 7,
                                    lambda n, fast=dyadic.fast_len: 2 * fast(n)])
def test_frostman_fit_uniform_witness_ignores_transform_length(monkeypatch, length):
    """FFT masses are rounded counts over the total, so centres with equal
    balls tie exactly and np.argmax takes the first, whatever the transform
    length (float sums let rounding noise choose)."""
    m = WeightedMeasure.uniform(gen_random_delta_s_set(2.0, 2.0 ** -7, 0))
    assert all(_masses_by_route(m, [2.0 ** -lv for lv in range(1, 8)])[1])
    want = frostman_fit(m, 1, 7)
    monkeypatch.setattr(dyadic, "fast_len", length)
    assert frostman_fit(m, 1, 7) == want
    masses = ball_masses_at_support(m, [2.0 ** -6])[0]
    assert np.array_equal(masses, np.rint(masses * len(m)) / len(m))


def _frostman_fit_oracle(m, level_min, level_max):
    """frostman_fit before dyadic.ball_max: every ball's mass by
    ball_masses_at_support (dyadic.ball_sums), reduced per radius."""
    levels = list(range(level_min, level_max + 1))
    radii = [2.0 ** -lv for lv in levels]
    per_level = ball_masses_at_support(m, radii)
    maxima = [float(masses.max()) for masses in per_level]
    slope, _, _ = fit_log2_slope(np.array([-float(lv) for lv in levels]),
                                 np.maximum(maxima, 1e-300))
    exponent = min(2.0, max(0.0, slope))
    constant = 1.0
    worst = (Point(*m.support.points[int(np.argmax(per_level[0]))]), radii[0])
    for r, masses in zip(radii, per_level):
        ratios = masses / r ** exponent
        j = int(np.argmax(ratios))
        if ratios[j] > constant:
            constant = float(ratios[j])
            worst = (Point(*m.support.points[j]), r)
    return measures.FrostmanFit(exponent, constant, worst)


@pytest.mark.parametrize("make, window", [
    (lambda: WeightedMeasure.uniform(gen_random_delta_s_set(1.5, 2.0 ** -9, 5)), (2, 8)),
    (lambda: WeightedMeasure(gen_random_delta_s_set(1.5, 2.0 ** -8, 6),
                             np.random.default_rng(6).integers(0, 50, 3074)), (1, 7)),
    (lambda: WeightedMeasure.uniform(gen_random_delta_s_set(2.0, 2.0 ** -7, 0)), (1, 6)),
    (lambda: WeightedMeasure.uniform(gen_random_delta_s_set(1.0, 2.0 ** -9, 0)), (1, 8)),
    (lambda: WeightedMeasure.uniform(gen_grid(33)), (1, 5)),
    (lambda: radial_pushforward(
        WeightedMeasure.uniform(gen_random_delta_s_set(1.5, 2.0 ** -7, seed=2)),
        Point(0.5, -0.4)).as_circle_measure(), (2, 7)),
])
def test_frostman_fit_matches_the_full_ball_mass_oracle(make, window):
    """frostman_fit under its own pricing, and with ball_max's table route
    forced onto every radius and priced out of every one, equals the fit
    that reduces ball_masses_at_support's arrays."""
    m = make()
    want = _frostman_fit_oracle(m, *window)
    assert frostman_fit(m, *window) == want
    for per_read in (0, math.inf):
        with mock.patch.object(dyadic, "_PAIRS_PER_READ", per_read):
            assert frostman_fit(m, *window) == want


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
    m = WeightedMeasure(ds, np.array([1, 0]))
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


def _energy_cdist_oracle(m, sigma):
    """energy before numpy distances: scipy's cdist per row block."""
    from scipy.spatial import distance

    pts = m.support.points
    w = m.weights
    n = len(m)
    if n < 2:
        return 0.0
    block = max(1, (1 << 22) // n)
    acc = 0.0
    with np.errstate(divide="ignore"):
        for i0 in range(0, n, block):
            i1 = min(n, i0 + block)
            d = distance.cdist(pts[i0:i1], pts)
            rows = np.arange(i0, i1)
            d[rows - i0, rows] = np.inf  # exclude the diagonal
            acc += float((w[i0:i1, None] * w[None, :] * d ** -sigma).sum())
    return acc


@pytest.mark.parametrize("make", [
    lambda: WeightedMeasure.uniform(segment_set(1024)),
    lambda: WeightedMeasure.uniform(circle_set(512)),
    lambda: WeightedMeasure.uniform(gen_random_delta_s_set(1.2, 2.0 ** -7, seed=0)),
    # off-lattice points, random weights, several row blocks
    lambda: _random_counts(DiscreteSet(
        np.random.default_rng(1).uniform(-0.7, 0.7, (2600, 2)), 2.0 ** -20,
        check=False), 1),
])
@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.5])
def test_energy_matches_cdist_oracle(make, sigma):
    m = make()
    assert energy(m, sigma) == _energy_cdist_oracle(m, sigma)


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

    @pytest.mark.parametrize("seed", [None, 3])
    def test_counts_are_conserved_exactly(self, seed):
        """Kept plus leaked counts are the total, as integers, and the
        circle measure carries the kept counts unchanged."""
        ds = gen_grid(9)
        m = (WeightedMeasure.uniform(ds) if seed is None
             else WeightedMeasure(ds, _multiplicities(np.random.default_rng(seed), len(ds))))
        dm = radial_pushforward(m, Point(0.0, 0.0))
        assert dm.counts.dtype == np.int64 and dm.total == m.total and dm.leaked > 0
        assert int(dm.counts.sum()) + dm.leaked == m.total
        assert dm.total_mass == int(dm.counts.sum()) / m.total
        assert dm.leaked_mass == dm.leaked / m.total
        cm = dm.as_circle_measure()
        assert np.array_equal(cm.counts, dm.counts)
        assert np.array_equal(cm.weights, dm.counts / dm.counts.sum())

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

    @pytest.mark.parametrize("r, c", [(math.nan, 16.0), (math.inf, 16.0),
                                      (0.5, math.nan), (0.5, math.inf)])
    def test_rejects_nan_and_infinite_radius_or_constant(self, grid3_uniform, r, c):
        with pytest.raises(PreconditionError):
            mass_shell_decompose(grid3_uniform, r, 2.0, c)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_ball_masses_at_support_refuses_non_finite_radii(grid3_uniform, r):
    """NaN once passed the r <= 0 guard and gave masses of 0."""
    with pytest.raises(PreconditionError):
        ball_masses_at_support(grid3_uniform, [0.5, r])
