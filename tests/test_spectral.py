"""Grids, transforms, kernel synthesis, and the binary field format."""

import struct

import numpy as np
import pytest

import paleyscope as ps


@pytest.fixture()
def grid():
    return ps.SpaceGrid(d=1, n=64, L=20.0)


class TestSpaceGrid:
    def test_axes(self, grid):
        x = grid.x_axis()
        assert x[0] == pytest.approx(-10.0)
        assert x[1] - x[0] == pytest.approx(grid.h)
        xi = grid.xi_axis()
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(2 * np.pi / 20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.SpaceGrid(d=1, n=100, L=20.0)  # not a power of two
        with pytest.raises(ValueError):
            ps.SpaceGrid(d=1, n=4, L=20.0)  # too small
        with pytest.raises(ValueError):
            ps.SpaceGrid(d=3, n=64, L=20.0)  # volumetric grids are gated

    def test_planar_shapes(self):
        g = ps.SpaceGrid(d=2, n=16, L=10.0)
        assert g.shape == (16, 16)
        assert g.xi_grid().shape == (16, 16, 2)
        assert g.abs_xi().shape == (16, 16)


class TestTransforms:
    def test_round_trip(self, grid):
        rng = np.random.default_rng(3)
        f = ps.Field(grid=grid, values=rng.standard_normal((2, 64))
                     + 1j * rng.standard_normal((2, 64)))
        back = ps.to_space(ps.to_frequency(f))
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)
        assert back.domain == "space"

    def test_domain_tags_enforced(self, grid):
        f = ps.Field(grid=grid, values=np.ones((1, 64), dtype=complex))
        fh = ps.to_frequency(f)
        with pytest.raises(ValueError):
            ps.to_frequency(fh)
        with pytest.raises(ValueError):
            ps.to_space(f)

    def test_parseval(self, grid):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        f = ps.Field(grid=grid, values=v)
        fh = ps.to_frequency(f)
        lhs = grid.h * np.sum(np.abs(f.values) ** 2)
        rhs = np.sum(np.abs(fh.values) ** 2) / grid.L
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_constant_concentrates_at_zero_mode(self, grid):
        f = ps.Field(grid=grid, values=np.ones((1, 64), dtype=complex))
        fh = ps.to_frequency(f).values[0]
        assert fh[0] == pytest.approx(20.0)
        assert np.max(np.abs(fh[1:])) == 0.0

    def test_pure_mode_maps_to_single_node(self, grid):
        x = grid.x_axis()
        xi0 = 2 * np.pi * 3 / 20.0
        f = ps.Field(grid=grid, values=np.exp(1j * xi0 * x)[None])
        fh = ps.to_frequency(f).values[0]
        assert abs(fh[3]) == pytest.approx(20.0, rel=1e-12)
        fh[3] = 0.0
        assert np.max(np.abs(fh)) < 1e-10

    def test_spacetime_round_trip(self, grid):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 1, 64)) + 0j
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1, values=v)
        back = ps.to_space(ps.to_frequency(f))
        np.testing.assert_allclose(back.values, v, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    def test_folded_inverse_factor_matches_to_space(self, d):
        g = ps.SpaceGrid(d=d, n=16, L=7.0)
        rng = np.random.default_rng(9)
        v = rng.standard_normal((3, 2) + g.shape) + 0j
        f = ps.SpaceTimeField(grid=g, t0=0.0, dt=0.1, values=v)
        prop = ps.Propagator(ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5), f)
        got = prop.ifft(prop.inverse_factor(0.3) * prop.fhat)
        np.testing.assert_allclose(got, 0.3 * prop.to_space(prop.fhat),
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(got, 0.3 * v, atol=1e-13)


class TestMultipliers:
    def test_fractional_multiplier_zero_mode(self, grid):
        assert ps.fractional_multiplier(grid, 1.0)[0] == 0.0
        assert ps.fractional_multiplier(grid, 0.0)[0] == 1.0

    def test_derivative_of_pure_mode(self, grid):
        x = grid.x_axis()
        xi0 = 2 * np.pi * 5 / 20.0
        f = ps.Field(grid=grid, values=np.exp(1j * xi0 * x)[None])
        out = ps.apply_multiplier(f, grid.abs_xi() ** 2)
        np.testing.assert_allclose(out.values, xi0 ** 2 * f.values, rtol=1e-12)

    def test_kernel_hat_is_a_grid_array(self, grid):
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        km = ps.kernel_hat(sym, 0.0, 0.3, 1.0, grid)
        assert km.shape == (64,)
        assert km[0] == 0.0  # positive eta kills the zero mode


class TestKernelSynthesis:
    def test_heat_kernel_mass_and_positivity(self):
        g = ps.SpaceGrid(d=1, n=256, L=20.0)
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        K = ps.to_space(ps.Field(g, ps.kernel_hat(sym, 0.0, 0.1, 0.0, g)[None], domain="freq"))
        mass = np.sum(K.values[0].real) * g.h
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert np.min(K.values[0].real) > -1e-12

    def test_unit_eta_kernel_has_zero_mean(self):
        g = ps.SpaceGrid(d=1, n=256, L=20.0)
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        K = ps.to_space(ps.Field(g, ps.kernel_hat(sym, 0.0, 0.1, 1.0, g)[None], domain="freq"))
        assert np.sum(K.values[0]) * g.h == pytest.approx(0.0, abs=1e-12)

    def test_cumulative_integrals_match_scalar_route(self, grid):
        sym = ps.FractionalSymbol(
            gamma=1.5, a=([0.0, 0.4], [1.0, 1.4]), nu=0.5)
        nt, t0, dt = 9, 0.1, 0.07
        table = ps.cumulative_symbol_integrals(sym, grid, t0, dt, nt)
        assert table.shape == (nt, 64)
        xi = grid.xi_grid()[..., 0]
        for i in (0, 3, 8):
            direct = np.array([
                ps.symbol_time_integral(sym, t0, t0 + i * dt, v)
                for v in xi])
            np.testing.assert_allclose(table[i], direct, atol=1e-13)


class TestFieldFormat:
    def test_round_trip(self, tmp_path, grid):
        rng = np.random.default_rng(7)
        v = (rng.standard_normal((3, 64))
             + 1j * rng.standard_normal((3, 64))).astype(np.complex64)
        f = ps.Field(grid=grid, values=v.astype(complex))
        path = tmp_path / "field.plsf"
        ps.dump_field(f, path)
        back = ps.load_field(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values.astype(np.complex64), v)

    def test_header_layout(self, tmp_path, grid):
        f = ps.Field(grid=grid, values=np.ones((2, 64), dtype=complex))
        path = tmp_path / "field.plsf"
        ps.dump_field(f, path)
        raw = path.read_bytes()
        magic, d, n, k_h, L = struct.unpack_from("<4sIIId", raw)
        assert magic == b"PLSF"
        assert (d, n, k_h) == (1, 64, 2)
        assert L == 20.0
        # fixed 32-byte header then row-major complex64 payload
        assert len(raw) == 32 + 2 * 64 * 8

    def _dumped(self, tmp_path, grid):
        f = ps.Field(grid=grid, values=np.ones((2, 64), dtype=complex))
        path = tmp_path / "field.plsf"
        ps.dump_field(f, path)
        return path, path.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path, grid):
        path, raw = self._dumped(tmp_path, grid)
        path.write_bytes(raw + b"junk")
        with pytest.raises(ValueError, match="trailing bytes"):
            ps.load_field(path)

    def test_nonzero_header_padding_rejected(self, tmp_path, grid):
        path, raw = self._dumped(tmp_path, grid)
        path.write_bytes(raw[:31] + b"\x01" + raw[32:])
        with pytest.raises(ValueError, match="header padding"):
            ps.load_field(path)

    def test_truncated_payload_rejected(self, tmp_path, grid):
        path, raw = self._dumped(tmp_path, grid)
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            ps.load_field(path)

    def test_rejects_frequency_domain(self, tmp_path, grid):
        f = ps.Field(grid=grid, values=np.ones((1, 64), dtype=complex))
        with pytest.raises(ValueError):
            ps.dump_field(ps.to_frequency(f), tmp_path / "bad.plsf")

