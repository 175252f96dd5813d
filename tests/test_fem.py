import numpy as np
import pytest

from p1_dense import mass_matrix, stiffness_matrix
from snwave import (
    boundary_flux_left,
    build_time_grid,
    control_l2_norm,
    interpolate,
)
from snwave.fem import _mass_pairing


def uniform_nodes(length, N):
    return np.linspace(0.0, length, N + 1)


class TestMass:
    def test_three_node_entries(self):
        h = 0.5
        M = mass_matrix(2, h)
        np.testing.assert_allclose(np.diag(M), [h / 3, 2 * h / 3, h / 3], rtol=1e-15)
        np.testing.assert_allclose(np.diag(M, -1), h / 6, rtol=1e-15)
        np.testing.assert_allclose(np.diag(M, 1), h / 6, rtol=1e-15)

    @pytest.mark.parametrize("length", [1.0, 1.75])
    def test_total_sum_is_domain_length(self, length):
        M = mass_matrix(37, length / 37)
        assert M.sum() == pytest.approx(length, rel=1e-13)

    def test_constant_pairing(self):
        M = mass_matrix(24, 1.75 / 24)
        c = 3.0
        assert np.ones(25) @ M @ np.full(25, c) == pytest.approx(c * 1.75, rel=1e-13)

    def test_spd(self):
        A = mass_matrix(12, 1.0 / 12)
        np.testing.assert_allclose(A, A.T, atol=0)
        assert np.all(np.linalg.eigvalsh(A) > 0)


class TestStiffness:
    def test_interior_row(self):
        h = 0.25
        K = stiffness_matrix(4, h)
        assert K[2, 1] == pytest.approx(-1 / h)
        assert K[2, 2] == pytest.approx(2 / h)
        assert K[2, 3] == pytest.approx(-1 / h)

    def test_rows_sum_to_zero(self):
        A = stiffness_matrix(20, 1.4 / 20)
        np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-12)

    def test_kills_constants(self):
        K = stiffness_matrix(9, 1.0 / 9)
        np.testing.assert_allclose(K @ np.full(10, 4.2), 0.0, atol=1e-12)

    def test_linear_field_zero_interior(self):
        out = stiffness_matrix(8, 1.0 / 8) @ uniform_nodes(1.0, 8)
        np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-13)

    def test_positive_semidefinite(self):
        A = stiffness_matrix(12, 1.0 / 12)
        ev = np.linalg.eigvalsh(A)
        assert ev[0] > -1e-12
        assert ev[1] > 1e-9  # kernel is exactly the constants


class TestInterpolate:
    def test_identity_same_mesh(self):
        nodes = uniform_nodes(1.0, 16)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(17)
        out = interpolate(f, nodes, nodes)
        np.testing.assert_array_equal(out, f)
        assert out is not f

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    def test_identical_nodes_give_the_source_bits(self, N):
        # on identical node arrays np.interp takes each node's value as is,
        # so the result is a bitwise copy, the sign of a zero included
        nodes = uniform_nodes(1.3, N)
        f = np.random.default_rng(N).standard_normal(N + 1)
        f[1] = -0.0
        f[-1] = -0.0
        out = interpolate(f, nodes.copy(), nodes)
        np.testing.assert_array_equal(out.view(np.int64), f.view(np.int64))
        assert out is not f

    def test_exact_on_linear_resampling(self):
        src = uniform_nodes(1.0, 10)
        tgt = uniform_nodes(1.0, 17)
        out = interpolate(src.copy(), tgt, src)
        np.testing.assert_allclose(out, tgt, rtol=0, atol=1e-14)

    def test_zero_stays_zero(self):
        src = uniform_nodes(1.0, 8)
        tgt = uniform_nodes(1.5, 12)
        out = interpolate(np.zeros(9), tgt, src)
        np.testing.assert_array_equal(out, 0.0)

    def test_extension_by_zero_beyond_source(self):
        src = uniform_nodes(1.0, 8)
        tgt = uniform_nodes(2.0, 8)
        out = interpolate(np.ones(9), tgt, src)
        outside = tgt > 1.0
        np.testing.assert_array_equal(out[outside], 0.0)
        assert out[0] == 1.0

    def test_exact_on_shrinking_domain(self):
        # moving-mesh case used by the backward solver: target inside source
        src = uniform_nodes(1.5, 12)
        tgt = uniform_nodes(1.25, 12)
        out = interpolate(2.0 * src - 0.5, tgt, src)
        np.testing.assert_allclose(out, 2.0 * tgt - 0.5, atol=1e-13)

    @pytest.mark.parametrize("N", [2, 3, 100])
    @pytest.mark.parametrize("ratios", [(1.0, 1.0), (1.1, 1.2), (0.9, 0.8), (1.0, 1.5)],
                             ids=["identical", "growing", "shrinking", "mixed"])
    def test_stack_of_rows_matches_each_row(self, N, ratios):
        src = uniform_nodes(1.3, N)
        stack = np.array([uniform_nodes(1.3 * r, N) for r in ratios])
        values = np.random.default_rng(N).standard_normal(N + 1)
        values[1] = -0.0
        got = interpolate(values, stack, src)
        assert got.shape == (2, N + 1)
        for row, x in zip(got, stack):
            np.testing.assert_array_equal(row.view(np.int64),
                                          interpolate(values, x, src).view(np.int64))
        outside = stack > src[-1]
        assert outside.any() == (max(ratios) > 1.0)
        np.testing.assert_array_equal(got[outside], 0.0)
        if ratios == (1.0, 1.0):
            np.testing.assert_array_equal(got.view(np.int64),
                                          np.array([values, values]).view(np.int64))


def reference_interpolate(values, src, tgt):
    """Index-and-weight P1 interpolation from the uniform nodes ``src``
    onto ``tgt``, extended by zero beyond the source."""
    N = len(src) - 1
    pos = tgt / (src[-1] / N)
    j = np.minimum(pos.astype(np.int64), N - 1)
    w = pos - j
    vals = (1.0 - w) * values[j] + w * values[j + 1]
    vals[tgt > src[-1]] = 0.0
    return vals


class TestInterpolateOracle:
    """``interpolate`` against the index-and-weight formula."""

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    @pytest.mark.parametrize("ratio", [1.0 + 1.0 / 7.0, 0.97])  # growing, shrinking
    def test_matches_index_weight_formula(self, N, ratio):
        src = uniform_nodes(1.3, N)
        tgt = uniform_nodes(1.3 * ratio, N)
        values = np.random.default_rng(N).standard_normal(N + 1)
        got = interpolate(values, tgt, src)
        ref = reference_interpolate(values, src, tgt)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(values))
        outside = tgt > src[-1]
        assert outside.any() == (ratio > 1.0)
        np.testing.assert_array_equal(got[outside], 0.0)
        np.testing.assert_array_equal(ref[outside], 0.0)

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    def test_exact_at_source_endpoint(self, N):
        src = uniform_nodes(1.0, N)
        tgt = uniform_nodes(2.0, 2 * N)
        assert tgt[N] == src[-1]
        values = np.random.default_rng(N).standard_normal(N + 1)
        got = interpolate(values, tgt, src)
        ref = reference_interpolate(values, src, tgt)
        assert got[N] == ref[N] == values[-1]
        np.testing.assert_array_equal(got[N + 1:], 0.0)
        np.testing.assert_array_equal(ref[N + 1:], 0.0)


class TestMassPairing:
    """The row-wise pairing against a per-level loop over the dense mass matrix."""

    @pytest.mark.parametrize("N", [2, 3, 100])
    def test_matches_per_level_loop(self, N):
        rng = np.random.default_rng(N)
        rows = 9
        h = (1.3 / N) * (1.0 + 0.25 * rng.random(rows))
        a = rng.standard_normal((rows, N + 1))
        b = rng.standard_normal((rows, N + 1))

        def loop(a, b):
            return sum(float(a[r] @ mass_matrix(N, h[r]) @ b[r]) for r in range(rows))

        aa, bb = loop(a, a), loop(b, b)
        assert abs(_mass_pairing(a, a, h) - aa) <= 1e-13 * aa
        # a mixed pairing may cancel, so its scale is the Cauchy-Schwarz bound
        assert abs(_mass_pairing(a, b, h) - loop(a, b)) <= 1e-13 * np.sqrt(aa * bb)


class TestBoundaryFlux:
    def test_exact_for_linear(self):
        x = uniform_nodes(1.0, 10)
        assert boundary_flux_left(3.5 * x, 0.1) == pytest.approx(3.5, rel=1e-13)

    def test_exact_for_quadratic(self):
        # d/dx x^2 vanishes at 0 and the 3-point stencil reproduces it exactly:
        # (-3*0 + 4 h^2 - (2h)^2) / (2h) = 0
        x = uniform_nodes(1.0, 10)
        assert boundary_flux_left(x**2, 0.1) == 0.0

    def test_quadratic_with_all_terms(self):
        x = uniform_nodes(1.0, 16)
        f = 2.0 - 3.0 * x + 5.0 * x**2
        assert boundary_flux_left(f, 1.0 / 16) == pytest.approx(-3.0, rel=1e-12)

    def test_constant_is_zero(self):
        assert boundary_flux_left(np.full(6, 9.9), 0.2) == 0.0

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError, match="3 nodes"):
            boundary_flux_left(np.zeros(2), 1.0)
        boundary_flux_left(np.zeros(3), 0.5)  # 3 nodes: fine

    def test_stack_of_rows_matches_each_row(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(0.01, 0.1, size=7)
        rows = rng.standard_normal((7, 12))
        got = boundary_flux_left(rows, h)
        assert got.shape == (7,)
        for m in range(7):
            assert got[m] == boundary_flux_left(rows[m], h[m])


class TestControlNorm:
    def test_zero(self):
        grid = build_time_grid(1.0, 10)
        assert control_l2_norm(np.zeros(11), (0.0, 0.5), grid) == 0.0

    def test_constant_over_segment(self):
        grid = build_time_grid(10.0, 100)
        seg = (0.0, 5.0)
        vals = np.zeros(101)
        vals[grid.levels < 5.0] = 1.0
        assert control_l2_norm(vals, seg, grid) == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_homogeneity(self):
        grid = build_time_grid(2.0, 20)
        rng = np.random.default_rng(11)
        vals = np.zeros(21)
        mask = grid.levels < 1.0
        vals[mask] = rng.standard_normal(mask.sum())
        seg = (0.0, 1.0)
        assert control_l2_norm(2.0 * vals, seg, grid) == pytest.approx(
            2 * control_l2_norm(vals, seg, grid), rel=1e-13)
