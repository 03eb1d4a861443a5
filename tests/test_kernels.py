"""Batch kernel: shape contract, scalar agreement, exactness, degeneracy flags."""

import math

import numpy as np
import pytest

from conftest import vector_angle
from kpcurve import _kernels

EXACT_TOL_DEG = 1e-9


def random_batch(n, seed=0):
    return np.random.default_rng(seed).uniform(-5.0, 5.0, (n, 5, 2))


class TestNumpyPath:
    def test_shape_contract(self):
        angles, bad = _kernels.polyline_angles(random_batch(17))
        assert angles.shape == (17, 4)
        assert bad.shape == (17,)
        assert bad.dtype == np.int64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            _kernels.polyline_angles(np.zeros((3, 4, 2)))
        with pytest.raises(ValueError):
            _kernels.polyline_angles(np.zeros((5, 2)))

    def test_matches_scalar_reference(self):
        batch = random_batch(200, seed=3)
        angles, bad = _kernels.polyline_angles(batch)
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
        angles, bad = _kernels.polyline_angles(pts[np.newaxis])
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
        angles, bad = _kernels.polyline_angles(batch)
        assert bad.tolist() == [-1, 2, 0, -1]
        assert np.isnan(angles[1]).all() and np.isnan(angles[2]).all()
        assert np.isfinite(angles[0]).all() and np.isfinite(angles[3]).all()

    def test_near_degenerate_below_epsilon_only(self):
        batch = random_batch(1, seed=6)
        batch[0, 1] = batch[0, 0] + np.array([2e-9, 0.0])  # above 1e-9: fine
        _, bad = _kernels.polyline_angles(batch)
        assert bad[0] == -1
        batch[0, 1] = batch[0, 0] + np.array([5e-10, 0.0])  # below: degenerate
        _, bad = _kernels.polyline_angles(batch)
        assert bad[0] == 0
