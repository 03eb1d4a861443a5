"""Batch kernel: shape contract, scalar agreement, exactness, degeneracy flags."""

import math

import numpy as np
import pytest

from conftest import vector_angle
from kpcurve import sequence

EXACT_TOL_DEG = 1e-9


def random_batch(n, seed=0):
    return np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 5, 2))


class TestNumpyPath:
    def test_shape_contract(self):
        angles, bad = sequence.polyline_angles(random_batch(17))
        assert angles.shape == (17, 4)
        assert bad.shape == (17,)
        assert bad.dtype == np.int64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            sequence.polyline_angles(np.zeros((3, 4, 2)))
        with pytest.raises(ValueError):
            sequence.polyline_angles(np.zeros((5, 2)))

    def test_matches_scalar_reference(self):
        batch = random_batch(200, seed=3)
        angles, bad = sequence.polyline_angles(batch)
        assert not (bad >= 0).any()
        for pts, row in zip(batch, angles):
            expected = [
                vector_angle(pts[0], pts[1], pts[3], pts[4]),
                vector_angle(pts[0], pts[1], pts[1], pts[2]),
                vector_angle(pts[1], pts[2], pts[2], pts[3]),
                vector_angle(pts[2], pts[3], pts[3], pts[4]),
            ]
            assert np.allclose(row, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("beta", [1e-7, 1e-5, 1e-3, 179.999, 179.99999])
    def test_planted_bend_exact_near_0_and_180(self, beta):
        # straight run along +x into P2 at the origin, then a turn of beta
        # degrees; every segment vector is exactly representable
        turn = math.radians(beta)
        step = [math.cos(turn), math.sin(turn)]
        pts = np.array(
            [[-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0], step, [2 * c for c in step]]
        )
        angles, bad = sequence.polyline_angles(pts[np.newaxis])
        assert bad[0] == -1
        deviation, bend1, bend2, bend3 = angles[0]
        assert abs(deviation - beta) <= EXACT_TOL_DEG
        assert abs(bend2 - beta) <= EXACT_TOL_DEG
        assert bend1 == 0.0 and bend3 == 0.0

    def test_degenerate_rows_flagged_with_first_segment(self):
        batch = random_batch(4, seed=5)
        batch[1, 3] = batch[1, 2]  # segment 2 collapses
        batch[2, 1] = batch[2, 0]  # segment 0 collapses
        batch[2, 4] = batch[2, 3]  # ... and segment 3; first wins
        angles, bad = sequence.polyline_angles(batch)
        assert bad.tolist() == [-1, 2, 0, -1]
        assert np.isnan(angles[1]).all() and np.isnan(angles[2]).all()
        assert np.isfinite(angles[0]).all() and np.isfinite(angles[3]).all()

    def test_near_degenerate_below_epsilon_only(self):
        batch = random_batch(1, seed=6)
        batch[0, 1] = batch[0, 0] + np.array([2e-9, 0.0])  # above 1e-9: fine
        _, bad = sequence.polyline_angles(batch)
        assert bad[0] == -1
        batch[0, 1] = batch[0, 0] + np.array([5e-10, 0.0])  # below: degenerate
        _, bad = sequence.polyline_angles(batch)
        assert bad[0] == 0


def reference_polyline_angles(pts):
    """The kernel as a direct statement of its formula: the segment norms
    summed over the last axis, the four pairs gathered by index, and the
    first bad segment by ``np.where`` over ``argmax``."""
    seg = pts[:, 1:, :] - pts[:, :-1, :]
    degenerate = np.sqrt(np.sum(seg * seg, axis=2)) < sequence.EPSILON
    bad = np.where(degenerate.any(axis=1), np.argmax(degenerate, axis=1), -1).astype(np.int64)
    u, v = seg[:, [0, 0, 1, 2], :], seg[:, [3, 1, 2, 3], :]
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    angles = np.degrees(np.arctan2(np.abs(cross), dot))
    angles[bad >= 0] = np.nan
    return angles, bad


def near_epsilon_batch(n, seed):
    """Unit-square lines with some segments collapsed or shortened to about EPSILON."""
    rng = np.random.default_rng(seed)
    batch = rng.random((n, 5, 2))
    for row, segment in zip(range(0, n, 3), rng.integers(0, 4, n)):
        batch[row, segment + 1] = batch[row, segment]
    for row in range(1, n, 4):
        segment = rng.integers(0, 4)
        step = rng.uniform(0.5, 2.0) * sequence.EPSILON
        direction = rng.normal(size=2)
        batch[row, segment + 1] = batch[row, segment] + step * direction / np.hypot(*direction)
    return batch


class TestReferenceFormula:
    @pytest.mark.parametrize(
        "batch",
        [
            random_batch(0),
            random_batch(1, seed=1),
            random_batch(257, seed=2),
            np.zeros((3, 5, 2)),
            near_epsilon_batch(400, seed=4),
            near_epsilon_batch(7, seed=8),
        ],
        ids=["empty", "one", "random", "all-zero", "near-epsilon", "near-epsilon-small"],
    )
    def test_kernel_equals_reference_bitwise(self, batch):
        angles, bad = sequence.polyline_angles(batch)
        expected_angles, expected_bad = reference_polyline_angles(batch)
        assert angles.shape == expected_angles.shape and angles.flags.c_contiguous
        assert np.array_equal(angles, expected_angles, equal_nan=True)
        assert angles.tobytes() == expected_angles.tobytes()
        assert bad.dtype == expected_bad.dtype and np.array_equal(bad, expected_bad)

    @pytest.mark.parametrize("layout", ["middle-line-view", "fortran", "reversed"])
    def test_any_memory_layout_gives_the_bytes_of_a_contiguous_copy(self, layout):
        grids = np.random.default_rng(9).random((64, 15, 2))
        sequence.middle_line(grids)[:] = near_epsilon_batch(64, seed=9)
        middle = sequence.middle_line(grids)  # the strided view synth passes
        batch = {
            "middle-line-view": middle,
            "fortran": np.asfortranarray(middle),
            "reversed": middle[::-1, ::-1, ::-1],
        }[layout]
        assert not batch.flags.c_contiguous
        angles, bad = sequence.polyline_angles(batch)
        expected_angles, expected_bad = sequence.polyline_angles(np.ascontiguousarray(batch))
        assert (bad >= 0).any() and (bad < 0).any()
        assert angles.tobytes() == expected_angles.tobytes()
        assert np.array_equal(bad, expected_bad)

    def test_near_epsilon_rows_fall_on_both_sides_of_the_threshold(self):
        _, bad = sequence.polyline_angles(near_epsilon_batch(400, seed=4))
        near = [bad[row] >= 0 for row in range(1, 400, 4) if row % 3]
        assert any(near) and not all(near)


def short_segment_batches():
    """(n, 5, 2) lines: random, near EPSILON, all zero, a zero-length segment at
    each index, and two short segments in a line, the first one first."""
    at_each = np.repeat(random_batch(1, seed=5), 4, axis=0)
    for segment in range(4):
        at_each[segment, segment + 1] = at_each[segment, segment]
    twice = random_batch(3, seed=6)
    twice[:, 2], twice[:, 4] = twice[:, 1], twice[:, 3]
    return {
        "random": random_batch(257, seed=2),
        "near-epsilon": near_epsilon_batch(400, seed=4),
        "all-zero": np.zeros((3, 5, 2)),
        "zero-at-each-index": at_each,
        "two-short": twice,
        "empty": random_batch(0),
    }


class TestSegments:
    """``segments`` holds the one short-segment rule, for the kernel and for synth."""

    @pytest.mark.parametrize("name", list(short_segment_batches()))
    @pytest.mark.parametrize("layout", ["contiguous", "middle-line-view", "keypoint-major-view"])
    def test_first_short_segment_is_the_kernels(self, name, layout):
        batch = short_segment_batches()[name]
        n = len(batch)
        if layout == "middle-line-view":  # a slice of (n, 15, 2) grids
            grids = np.random.default_rng(1).random((n, 15, 2))
            sequence.middle_line(grids)[:] = batch
            batch = sequence.middle_line(grids)
        elif layout == "keypoint-major-view":  # the (n, 15, 2) view of a (15, n, 2) block
            grids = np.random.default_rng(1).random((15, n, 2)).transpose(1, 0, 2)
            sequence.middle_line(grids)[:] = batch
            batch = sequence.middle_line(grids)
            assert n < 2 or not batch.flags.c_contiguous
        seg, bad = sequence.segments(batch)
        assert seg.tobytes() == (batch[:, 1:] - batch[:, :-1]).tobytes()
        assert bad.dtype == np.int64
        assert np.array_equal(bad, sequence.polyline_angles(batch)[1])
        assert np.array_equal(bad, reference_polyline_angles(batch)[1])

    def test_zero_length_segment_at_each_index(self):
        _, bad = sequence.segments(short_segment_batches()["zero-at-each-index"])
        assert bad.tolist() == [0, 1, 2, 3]
        _, bad = sequence.segments(short_segment_batches()["two-short"])
        assert bad.tolist() == [1, 1, 1]
