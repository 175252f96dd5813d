import math

import mpmath as mp
import numpy as np
import pytest

from snwave import (
    MovingDomainSpec,
    alpha,
    analytic_perimeter,
    build_time_grid,
    compute_Tc,
    trapezoid_stats,
)
from snwave.geometry import BoundarySegments, level_nodes


def mp_tc(k: str) -> float:
    """Independent high-precision evaluation of the control-time constant."""
    with mp.workdps(50):
        kk = mp.mpf(k)
        return float(mp.e ** (2 * kk * (1 + kk) / (1 - kk) ** 3) / kk)


class TestAlpha:
    @pytest.mark.parametrize("k,t,expected", [
        (0.25, 0.0, 1.0),
        (0.25, 4.0, 2.0),
        (0.5, 1.0, 1.5),
    ])
    def test_values(self, k, t, expected):
        spec = MovingDomainSpec(k=k, T=10.0)
        assert alpha(spec, t) == pytest.approx(expected, abs=0)

    def test_affine_in_t(self):
        spec = MovingDomainSpec(k=0.3, T=5.0)
        ts = np.linspace(0.0, 5.0, 11)
        vals = np.array([alpha(spec, t) for t in ts])
        assert vals[0] == 1.0
        slopes = np.diff(vals) / np.diff(ts)
        np.testing.assert_allclose(slopes, 0.3, rtol=1e-12)

    def test_domain_error(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        with pytest.raises(ValueError, match="outside"):
            alpha(spec, -0.1)
        with pytest.raises(ValueError, match="outside"):
            alpha(spec, 2.5)

    def test_array_of_times(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        np.testing.assert_array_equal(alpha(spec, np.array([0.0, 1.0, 2.0])), [1.0, 1.25, 1.5])
        with pytest.raises(ValueError, match="time 2.5 outside"):
            alpha(spec, np.array([0.0, 1.0, 2.5]))
        with pytest.raises(ValueError, match="time -0.5 outside"):
            alpha(spec, np.array([-0.5, 1.0, 2.5]))


class TestSpec:
    def test_k_zero_accepted(self):
        MovingDomainSpec(k=0.0, T=1.0)

    @pytest.mark.parametrize("k", [-0.1, 1.0, 1.5])
    def test_bad_speed(self, k):
        with pytest.raises(ValueError):
            MovingDomainSpec(k=k, T=1.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            MovingDomainSpec(k=0.25, T=0.0)

    def test_infinite_horizon(self):
        with pytest.raises(ValueError, match="finite"):
            MovingDomainSpec(k=0.25, T=math.inf)


class TestComputeTc:
    def test_quarter_against_high_precision(self):
        assert compute_Tc(0.25) == pytest.approx(mp_tc("0.25"), abs=1e-10)
        assert compute_Tc(0.25) == pytest.approx(17.597834287066328, abs=1e-6)

    def test_half_against_high_precision(self):
        assert compute_Tc(0.5) == pytest.approx(mp_tc("0.5"), rel=1e-12)
        assert compute_Tc(0.5) == pytest.approx(325509.5828380078, rel=1e-9)

    @pytest.mark.parametrize("k", np.linspace(0.05, 0.80, 16))
    def test_exceeds_controllability_threshold(self, k):
        # strictly greater in exact arithmetic; the 1/k gap falls below
        # double rounding once exp(...) is large, so allow equality there
        # (the exponential overflows double precision past k ~ 0.83)
        expo = math.exp(2 * k * (1 + k) / (1 - k) ** 3)
        bound = (expo - 1.0) / k
        if expo < 1e15:
            assert compute_Tc(k) > bound
        else:
            assert compute_Tc(k) >= bound

    @pytest.mark.parametrize("k", [0.0, -0.5, 1.0, 2.0])
    def test_domain_error(self, k):
        with pytest.raises(ValueError):
            compute_Tc(k)

    def test_finite_below_overflow(self):
        assert compute_Tc(0.83) == pytest.approx(mp_tc("0.83"), rel=1e-11)

    @pytest.mark.parametrize("k", [0.836974051614105, 0.84, 0.9, 0.99])
    def test_overflow_is_a_value_error_naming_k(self, k):
        # exp(2k(1+k)/(1-k)^3) exceeds the float range from k ~ 0.837 on;
        # at the first k it is still finite and the division by k overflows
        with pytest.raises(ValueError, match=rf"overflows a float at k={k}$"):
            compute_Tc(k)


class TestTimeGrid:
    def test_basic(self):
        grid = build_time_grid(10.0, 100)
        assert grid.dt == pytest.approx(0.1, rel=1e-15)
        assert grid.levels[-1] == 10.0

    def test_from_tc(self):
        grid = build_time_grid(compute_Tc(0.25), 100)
        assert grid.dt == pytest.approx(0.17597834287066328, rel=1e-12)

    def test_small(self):
        grid = build_time_grid(1.0, 2)
        np.testing.assert_array_equal(grid.levels, [0.0, 0.5, 1.0])

    def test_too_few_steps(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_time_grid(1.0, 1)

    def test_infinite_horizon(self):
        with pytest.raises(ValueError, match="finite"):
            build_time_grid(math.inf, 10)

    def test_non_integral_steps(self):
        with pytest.raises(ValueError, match="M must be an integer"):
            build_time_grid(2.0, 10.5)
        assert build_time_grid(2.0, np.int64(10)).levels.shape == (11,)


class TestSpatialMesh:
    """``level_nodes``: one level's mesh at a scalar time, one row per time at an array."""

    def test_at_zero(self):
        spec = MovingDomainSpec(k=0.25, T=8.0)
        h, x = level_nodes(spec, 0.0, 4)
        assert h == 0.25
        np.testing.assert_allclose(x, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)

    def test_scaled_level(self):
        spec = MovingDomainSpec(k=0.25, T=8.0)
        _, x = level_nodes(spec, 4.0, 4)
        np.testing.assert_allclose(x, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=1e-15)

    def test_fixed_domain(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        _, x = level_nodes(spec, 0.7, 2)
        np.testing.assert_allclose(x, [0.0, 0.5, 1.0], atol=0)

    def test_node_count_constant_across_levels(self):
        spec = MovingDomainSpec(k=0.4, T=3.0)
        shapes = {level_nodes(spec, t, 17)[1].shape for t in (0.0, 1.5, 3.0)}
        assert shapes == {(18,)}
        assert level_nodes(spec, [0.0, 1.5, 3.0], 17)[1].shape == (3, 18)

    def test_non_integral_elements(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        for times in (1.0, [0.0, 0.5]):
            with pytest.raises(ValueError, match="N must be an integer"):
                level_nodes(spec, times, 10.5)
        assert level_nodes(spec, 1.0, np.int32(10))[1].shape == (11,)

    def test_too_few_elements(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        for times in (0.0, [0.0, 0.5]):
            with pytest.raises(ValueError, match="at least 2"):
                level_nodes(spec, times, 1)

    @pytest.mark.parametrize("N", [2, 3, 100])
    def test_scalar_time_is_the_row_of_the_array_call(self, N):
        spec = MovingDomainSpec(k=0.37, T=4.0)
        grid = build_time_grid(4.0, 7)
        h, nodes = level_nodes(spec, grid.levels, N)
        for m, t in enumerate(grid.levels):
            h_t, x_t = level_nodes(spec, float(t), N)
            assert np.shape(h_t) == () and x_t.shape == (N + 1,)
            assert np.float64(h_t).view(np.int64) == h[m].view(np.int64)
            np.testing.assert_array_equal(x_t.view(np.int64), nodes[m].view(np.int64))


class TestBoundarySegments:
    def test_disjoint_halves(self):
        segs = BoundarySegments.disjoint_halves(10.0)
        assert segs.sigma1 == (5.0, 10.0)
        assert segs.sigma2 == (0.0, 5.0)
        grid = build_time_grid(10.0, 10)
        m1 = segs.leader_mask(grid)
        m2 = segs.follower_mask(grid)
        assert not np.any(m1 & m2)
        assert m1.sum() == 5 and m2.sum() == 5

    def test_additive_overlap(self):
        segs = BoundarySegments.additive_overlap(10.0)
        assert segs.sigma1 == segs.sigma2 == (0.0, 10.0)
        grid = build_time_grid(10.0, 10)
        assert np.array_equal(segs.leader_mask(grid), segs.follower_mask(grid))

    @pytest.mark.parametrize("sigma1,sigma2,name", [
        ((4.0, 2.0), (2.0, 4.0), "sigma1"),
        ((2.0, 4.0), (2.0, 0.0), "sigma2"),
        ((2.0, 2.0), (0.0, 2.0), "sigma1"),
        ((2.0, 4.0), (0.0, math.inf), "sigma2"),
        ((math.nan, 4.0), (0.0, 2.0), "sigma1"),
        ((2.0, 4.0, 6.0), (0.0, 2.0), "sigma1"),
    ])
    def test_reversed_empty_or_infinite_segment_rejected(self, sigma1, sigma2, name):
        with pytest.raises(ValueError, match=name):
            BoundarySegments(sigma1, sigma2)


class TestTrapezoidStats:
    def test_border_matches_reference_values(self, tc_quarter):
        for mult, ref in ((1, 41.936), (5, 202.484), (10, 403.167)):
            spec = MovingDomainSpec(k=0.25, T=mult * tc_quarter)
            stats = trapezoid_stats(spec, target_edge=mult * tc_quarter / 128.0)
            assert abs(stats.border_length - ref) / ref < 0.01

    def test_border_close_to_analytic_perimeter(self, tc_quarter):
        spec = MovingDomainSpec(k=0.25, T=tc_quarter)
        per = analytic_perimeter(spec)
        assert per == pytest.approx(2 + tc_quarter * (1.25 + math.sqrt(17) / 4), rel=1e-12)
        stats = trapezoid_stats(spec, target_edge=0.2)
        assert abs(stats.border_length - per) / per < 0.01

    def test_border_converges_from_below(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        per = analytic_perimeter(spec)
        gaps = []
        for edge in (0.5, 0.25, 0.125, 0.0625):
            st = trapezoid_stats(spec, edge)
            # inscribed polyline never exceeds the exact perimeter (mod rounding)
            assert st.border_length <= per * (1 + 1e-12)
            gaps.append(per - st.border_length)
        assert gaps[-1] <= gaps[0] + 1e-9

    def test_counts_scale_with_resolution(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        coarse = trapezoid_stats(spec, 0.5)
        fine = trapezoid_stats(spec, 0.25)
        assert fine.n_vertices > coarse.n_vertices
        assert fine.n_triangles > coarse.n_triangles
        assert fine.n_triangles == 2 * (fine.n_vertices - stats_edge_count(fine))

    def test_bad_edge(self):
        spec = MovingDomainSpec(k=0.25, T=2.0)
        with pytest.raises(ValueError, match="positive"):
            trapezoid_stats(spec, 0.0)


def stats_edge_count(stats):
    # structured grid: vertices = (nx+1)(nt+1), triangles = 2 nx nt
    # => triangles = 2(vertices - nx - nt - 1); recover nx+nt+1 from both counts
    return stats.n_vertices - stats.n_triangles // 2
