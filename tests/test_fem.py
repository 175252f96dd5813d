import numpy as np
import pytest

from snwave import (
    ControlSamples,
    SpatialMesh,
    TriDiagMatrix,
    assemble_mass,
    assemble_stiffness,
    boundary_flux_left,
    build_time_grid,
    control_l2_norm,
    interpolate,
    solve_tridiagonal,
)
from snwave.fem import _mass_matvec


def uniform_mesh(length, N):
    return SpatialMesh(nodes=np.linspace(0.0, length, N + 1), h=length / N, length=length)


def dense(tri: TriDiagMatrix) -> np.ndarray:
    n = tri.n
    A = np.diag(tri.diagonal)
    A += np.diag(tri.lower, -1)
    A += np.diag(tri.upper, 1)
    return A


class TestMass:
    def test_three_node_entries(self):
        mesh = uniform_mesh(1.0, 2)
        h = 0.5
        M = assemble_mass(mesh)
        np.testing.assert_allclose(M.diagonal, [h / 3, 2 * h / 3, h / 3], rtol=1e-15)
        np.testing.assert_allclose(M.lower, h / 6, rtol=1e-15)
        np.testing.assert_allclose(M.upper, h / 6, rtol=1e-15)

    @pytest.mark.parametrize("length", [1.0, 1.75])
    def test_total_sum_is_domain_length(self, length):
        mesh = uniform_mesh(length, 37)
        M = assemble_mass(mesh)
        total = M.diagonal.sum() + M.lower.sum() + M.upper.sum()
        assert total == pytest.approx(length, rel=1e-13)

    def test_constant_pairing(self):
        mesh = uniform_mesh(1.75, 24)
        M = assemble_mass(mesh)
        c = 3.0
        assert np.ones(25) @ M.matvec(np.full(25, c)) == pytest.approx(c * 1.75, rel=1e-13)

    def test_spd(self):
        mesh = uniform_mesh(1.0, 12)
        A = dense(assemble_mass(mesh))
        np.testing.assert_allclose(A, A.T, atol=0)
        assert np.all(np.linalg.eigvalsh(A) > 0)


class TestStiffness:
    def test_interior_row(self):
        mesh = uniform_mesh(1.0, 4)
        h = 0.25
        K = assemble_stiffness(mesh)
        assert K.lower[1] == pytest.approx(-1 / h)
        assert K.diagonal[2] == pytest.approx(2 / h)
        assert K.upper[2] == pytest.approx(-1 / h)

    def test_rows_sum_to_zero(self):
        mesh = uniform_mesh(1.4, 20)
        A = dense(assemble_stiffness(mesh))
        np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-12)

    def test_kills_constants(self):
        mesh = uniform_mesh(1.0, 9)
        K = assemble_stiffness(mesh)
        np.testing.assert_allclose(K.matvec(np.full(10, 4.2)), 0.0, atol=1e-12)

    def test_linear_field_zero_interior(self):
        mesh = uniform_mesh(1.0, 8)
        K = assemble_stiffness(mesh)
        out = K.matvec(mesh.nodes.copy())
        np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-13)

    def test_positive_semidefinite(self):
        mesh = uniform_mesh(1.0, 12)
        A = dense(assemble_stiffness(mesh))
        ev = np.linalg.eigvalsh(A)
        assert ev[0] > -1e-12
        assert ev[1] > 1e-9  # kernel is exactly the constants


class TestSolveTridiagonal:
    def test_identity(self):
        A = TriDiagMatrix(lower=np.zeros(4), diagonal=np.ones(5), upper=np.zeros(4))
        rhs = np.array([3.0, -1.0, 2.5, 0.0, 7.0])
        np.testing.assert_array_equal(solve_tridiagonal(A, rhs), rhs)

    def test_one_by_one(self):
        A = TriDiagMatrix(lower=np.zeros(0), diagonal=np.array([4.0]), upper=np.zeros(0))
        np.testing.assert_allclose(solve_tridiagonal(A, np.array([2.0])), [0.5])

    @pytest.mark.parametrize("N", [8, 100, 10_000])
    def test_roundtrip_on_wave_assembly(self, N):
        rng = np.random.default_rng(N)
        mesh = uniform_mesh(1.0, N)
        dt = 0.01
        A = assemble_stiffness(mesh).add(assemble_mass(mesh), 1.0 / dt**2)
        v = rng.standard_normal(N + 1)
        rhs = A.matvec(v)
        x = solve_tridiagonal(A, rhs)
        assert np.max(np.abs(x - v)) <= 1e-10 * np.max(np.abs(v))

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        mesh = uniform_mesh(1.3, 200)
        A = assemble_stiffness(mesh).add(assemble_mass(mesh), 1.0 / 0.05**2)
        rhs = rng.standard_normal(201)
        x = solve_tridiagonal(A, rhs)
        res = np.max(np.abs(A.matvec(x) - rhs))
        norm_a = np.max(np.abs(A.diagonal)) + 2 * np.max(np.abs(A.lower))
        assert res <= 1e-10 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))

    def test_zero_pivot_names_index(self):
        A = TriDiagMatrix(lower=np.array([1.0, 1.0]),
                          diagonal=np.array([1.0, 1.0, 1.0]),
                          upper=np.array([1.0, 1.0]))
        # row 1 pivot becomes 1 - 1*1 = 0
        with pytest.raises(ValueError, match="pivot at row 1"):
            solve_tridiagonal(A, np.ones(3))

    def test_size_mismatch(self):
        A = TriDiagMatrix(lower=np.zeros(1), diagonal=np.ones(2), upper=np.zeros(1))
        with pytest.raises(ValueError, match="length"):
            solve_tridiagonal(A, np.ones(3))


class TestInterpolate:
    def test_identity_same_mesh(self):
        mesh = uniform_mesh(1.0, 16)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(17)
        out = interpolate(f, mesh.nodes, mesh.nodes)
        np.testing.assert_array_equal(out, f)
        assert out is not f

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    def test_identical_nodes_give_the_source_bits(self, N):
        # on identical node arrays np.interp takes each node's value as is,
        # so the result is a bitwise copy, the sign of a zero included
        nodes = uniform_mesh(1.3, N).nodes
        f = np.random.default_rng(N).standard_normal(N + 1)
        f[1] = -0.0
        f[-1] = -0.0
        out = interpolate(f, nodes.copy(), nodes)
        np.testing.assert_array_equal(out.view(np.int64), f.view(np.int64))
        assert out is not f

    def test_exact_on_linear_resampling(self):
        src = uniform_mesh(1.0, 10)
        tgt = uniform_mesh(1.0, 17)
        out = interpolate(src.nodes.copy(), tgt.nodes, src.nodes)
        np.testing.assert_allclose(out, tgt.nodes, rtol=0, atol=1e-14)

    def test_zero_stays_zero(self):
        src = uniform_mesh(1.0, 8)
        tgt = uniform_mesh(1.5, 12)
        out = interpolate(np.zeros(9), tgt.nodes, src.nodes)
        np.testing.assert_array_equal(out, 0.0)

    def test_extension_by_zero_beyond_source(self):
        src = uniform_mesh(1.0, 8)
        tgt = uniform_mesh(2.0, 8)
        out = interpolate(np.ones(9), tgt.nodes, src.nodes)
        outside = tgt.nodes > 1.0
        np.testing.assert_array_equal(out[outside], 0.0)
        assert out[0] == 1.0

    def test_exact_on_shrinking_domain(self):
        # moving-mesh case used by the backward solver: target inside source
        src = uniform_mesh(1.5, 12)
        tgt = uniform_mesh(1.25, 12)
        out = interpolate(2.0 * src.nodes - 0.5, tgt.nodes, src.nodes)
        np.testing.assert_allclose(out, 2.0 * tgt.nodes - 0.5, atol=1e-13)


def reference_interpolate(values, src, tgt):
    """Index-and-weight P1 interpolation, extended by zero beyond the source."""
    x = tgt.nodes
    pos = x / src.h
    j = np.minimum(pos.astype(np.int64), src.n_nodes - 2)
    w = pos - j
    vals = (1.0 - w) * values[j] + w * values[j + 1]
    vals[x > src.length] = 0.0
    return vals


class TestInterpolateOracle:
    """``interpolate`` against the index-and-weight formula."""

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    @pytest.mark.parametrize("ratio", [1.0 + 1.0 / 7.0, 0.97])  # growing, shrinking
    def test_matches_index_weight_formula(self, N, ratio):
        src = uniform_mesh(1.3, N)
        tgt = uniform_mesh(1.3 * ratio, N)
        values = np.random.default_rng(N).standard_normal(N + 1)
        got = interpolate(values, tgt.nodes, src.nodes)
        ref = reference_interpolate(values, src, tgt)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(values))
        outside = tgt.nodes > src.length
        assert outside.any() == (ratio > 1.0)
        np.testing.assert_array_equal(got[outside], 0.0)
        np.testing.assert_array_equal(ref[outside], 0.0)

    @pytest.mark.parametrize("N", [2, 3, 100, 300])
    def test_exact_at_source_endpoint(self, N):
        src = uniform_mesh(1.0, N)
        tgt = uniform_mesh(2.0, 2 * N)
        assert tgt.nodes[N] == src.length
        values = np.random.default_rng(N).standard_normal(N + 1)
        got = interpolate(values, tgt.nodes, src.nodes)
        ref = reference_interpolate(values, src, tgt)
        assert got[N] == ref[N] == values[-1]
        np.testing.assert_array_equal(got[N + 1:], 0.0)
        np.testing.assert_array_equal(ref[N + 1:], 0.0)


class TestMassStencil:
    @pytest.mark.parametrize("N", [2, 3, 64, 300])
    @pytest.mark.parametrize("length", [1.0, 1.75])
    def test_bitwise_equal_to_assembled_matvec(self, N, length):
        mesh = uniform_mesh(length, N)
        v = np.random.default_rng(N).standard_normal(N + 1)
        np.testing.assert_array_equal(_mass_matvec(v, mesh.h),
                                      assemble_mass(mesh).matvec(v))


class TestBoundaryFlux:
    def test_exact_for_linear(self):
        mesh = uniform_mesh(1.0, 10)
        assert boundary_flux_left(3.5 * mesh.nodes, mesh.h) == pytest.approx(3.5, rel=1e-13)

    def test_exact_for_quadratic(self):
        # d/dx x^2 vanishes at 0 and the 3-point stencil reproduces it exactly:
        # (-3*0 + 4 h^2 - (2h)^2) / (2h) = 0
        mesh = uniform_mesh(1.0, 10)
        assert boundary_flux_left(mesh.nodes**2, mesh.h) == 0.0

    def test_quadratic_with_all_terms(self):
        mesh = uniform_mesh(1.0, 16)
        f = 2.0 - 3.0 * mesh.nodes + 5.0 * mesh.nodes**2
        assert boundary_flux_left(f, mesh.h) == pytest.approx(-3.0, rel=1e-12)

    def test_constant_is_zero(self):
        mesh = uniform_mesh(1.0, 5)
        assert boundary_flux_left(np.full(6, 9.9), mesh.h) == 0.0

    def test_needs_three_nodes(self):
        tiny = uniform_mesh(1.0, 1)
        with pytest.raises(ValueError, match="3 nodes"):
            boundary_flux_left(np.zeros(2), tiny.h)
        mesh = uniform_mesh(1.0, 2)
        boundary_flux_left(np.zeros(3), mesh.h)  # 3 nodes: fine
        with pytest.raises(ValueError, match="unknown flux method"):
            boundary_flux_left(np.zeros(3), mesh.h, method="nope")

    def test_p1_gradient_alternative(self):
        mesh = uniform_mesh(1.0, 10)
        got = boundary_flux_left(3.5 * mesh.nodes, mesh.h, method="p1-gradient")
        assert got == pytest.approx(3.5, rel=1e-13)

    @pytest.mark.parametrize("method", ["one-sided", "p1-gradient"])
    def test_stack_of_rows_matches_each_row(self, method):
        rng = np.random.default_rng(5)
        h = rng.uniform(0.01, 0.1, size=7)
        rows = rng.standard_normal((7, 12))
        got = boundary_flux_left(rows, h, method=method)
        assert got.shape == (7,)
        for m in range(7):
            assert got[m] == boundary_flux_left(rows[m], h[m], method=method)


class TestControlNorm:
    def test_zero(self):
        grid = build_time_grid(1.0, 10)
        c = ControlSamples.zeros((0.0, 0.5), grid)
        assert control_l2_norm(c, grid) == 0.0

    def test_constant_over_segment(self):
        grid = build_time_grid(10.0, 100)
        seg = (0.0, 5.0)
        vals = np.zeros(101)
        vals[grid.levels < 5.0] = 1.0
        c = ControlSamples(segment=seg, values=vals)
        assert control_l2_norm(c, grid) == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_homogeneity(self):
        grid = build_time_grid(2.0, 20)
        rng = np.random.default_rng(11)
        vals = np.zeros(21)
        mask = grid.levels < 1.0
        vals[mask] = rng.standard_normal(mask.sum())
        c1 = ControlSamples(segment=(0.0, 1.0), values=vals)
        c2 = ControlSamples(segment=(0.0, 1.0), values=2.0 * vals)
        assert control_l2_norm(c2, grid) == pytest.approx(2 * control_l2_norm(c1, grid), rel=1e-13)

    def test_misaligned_grid(self):
        grid = build_time_grid(1.0, 10)
        c = ControlSamples(segment=(0.0, 0.5), values=np.zeros(5))
        with pytest.raises(ValueError, match="samples"):
            control_l2_norm(c, grid)
