"""Point set constructors: validation, separation, and the promised
statistical shape of each family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.covering import verify_delta_s_set
from gmtlab.dyadic import count_cells
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
from gmtlab.incidence import _spanned_exact


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

    def test_points_are_read_only(self, grid3):
        with pytest.raises(ValueError):
            grid3.points[0, 0] = 99.0

    def test_subset(self, grid5):
        sub = grid5.subset([0, 3, 7])
        assert len(sub) == 3
        assert sub.delta == grid5.delta


# ---------------------------------------------------------------------------
# iterated function systems
# ---------------------------------------------------------------------------


class TestIfs:
    def test_cantor_similarity_dimension(self):
        sys = cantor_middle_thirds()
        assert sys.similarity_dimension() == pytest.approx(
            math.log(2.0) / math.log(3.0)
        )

    def test_four_corner_similarity_dimension(self):
        assert four_corner_product().similarity_dimension() == pytest.approx(1.0)

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
    the reference for the incidence keying it now uses."""
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
    assert int(_spanned_exact(ipts)[1].max()) == _max_collinear_oracle(ipts)


@pytest.mark.parametrize("n,k,seed", [(64, 16, 2), (40, 38, 5), (128, 0, 3)])
def test_planted_max_collinear_matches_oracle(n, k, seed):
    ipts = np.round(gen_planted_collinear(n, k, seed).points * 2 ** 16).astype(np.int64)
    assert _max_collinear_oracle(ipts) == n - k


def test_ifs_system_validation():
    with pytest.raises(PreconditionError):
        IfsSystem(maps=[], label="empty", depth=1)
