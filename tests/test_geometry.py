import math

import mpmath as mp
import numpy as np
import pytest

from snwave import (
    MovingDomainSpec,
    alpha,
    analytic_perimeter,
    build_spatial_mesh,
    build_time_grid,
    compute_Tc,
    trapezoid_stats,
)
from snwave.geometry import BoundarySegments


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


class TestSpatialMesh:
    def test_at_zero(self):
        spec = MovingDomainSpec(k=0.25, T=8.0)
        mesh = build_spatial_mesh(spec, 0.0, 4)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)

    def test_scaled_level(self):
        spec = MovingDomainSpec(k=0.25, T=8.0)
        mesh = build_spatial_mesh(spec, 4.0, 4)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=1e-15)

    def test_fixed_domain(self):
        spec = MovingDomainSpec(k=0.0, T=1.0)
        mesh = build_spatial_mesh(spec, 0.7, 2)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0], atol=0)

    def test_node_count_constant_across_levels(self):
        spec = MovingDomainSpec(k=0.4, T=3.0)
        counts = {build_spatial_mesh(spec, t, 17).n_nodes for t in (0.0, 1.5, 3.0)}
        assert counts == {18}

    def test_too_few_elements(self):
        spec = MovingDomainSpec(k=0.25, T=1.0)
        with pytest.raises(ValueError, match="at least 2"):
            build_spatial_mesh(spec, 0.0, 1)


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
