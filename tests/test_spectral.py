"""Grids, transforms, kernel synthesis, and the binary field format."""

import struct

import numpy as np
import pytest

import paleyscope as ps
from paleyscope import spde, spectral, squarefn

from conftest import grid_arrays, two_piece_families


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
        back = ps.to_space(grid, ps.to_frequency(f))
        np.testing.assert_allclose(back, f.values, atol=1e-13)

    def test_parseval(self, grid):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        f = ps.Field(grid=grid, values=v)
        fh = ps.to_frequency(f)
        lhs = grid.h * np.sum(np.abs(f.values) ** 2)
        rhs = np.sum(np.abs(fh) ** 2) / grid.L
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_constant_concentrates_at_zero_mode(self, grid):
        f = ps.Field(grid=grid, values=np.ones((1, 64), dtype=complex))
        fh = ps.to_frequency(f)[0]
        assert fh[0] == pytest.approx(20.0)
        assert np.max(np.abs(fh[1:])) == 0.0

    def test_pure_mode_maps_to_single_node(self, grid):
        x = grid.x_axis()
        xi0 = 2 * np.pi * 3 / 20.0
        f = ps.Field(grid=grid, values=np.exp(1j * xi0 * x)[None])
        fh = ps.to_frequency(f)[0]
        assert abs(fh[3]) == pytest.approx(20.0, rel=1e-12)
        fh[3] = 0.0
        assert np.max(np.abs(fh)) < 1e-10

    def test_spacetime_field_needs_a_slice(self, grid):
        with pytest.raises(ValueError, match="nt >= 1"):
            ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1, values=np.zeros((0, 1, 64)))

    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
    def test_spacetime_field_needs_a_finite_t0(self, grid, t0):
        with pytest.raises(ValueError, match="t0 must be finite"):
            ps.SpaceTimeField(grid=grid, t0=t0, dt=0.1, values=np.zeros((2, 1, 64)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_spacetime_field_needs_finite_values(self, grid, bad):
        # one bad sample in slice 5 would reach every ratio as nan
        v = ps.corpus_entry(grid, 16, 0).values.copy()
        v[5, 0, 7] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1, values=v)

    def test_spacetime_round_trip(self, grid):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 1, 64)) + 0j
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1, values=v)
        back = ps.to_space(grid, ps.to_frequency(f))
        np.testing.assert_allclose(back, v, atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    def test_folded_inverse_factor_matches_to_space(self, d):
        # a loop that folds grid.inverse_factor into its data and calls
        # ifftn has the bits of to_space, which also runs in place
        g = ps.SpaceGrid(d=d, n=16, L=7.0)
        rng = np.random.default_rng(9)
        v = rng.standard_normal((3, 2) + g.shape) + 0j
        fhat = ps.to_frequency(ps.SpaceTimeField(grid=g, t0=0.0, dt=0.1, values=v))
        assert g.inverse_factor is g.inverse_factor
        assert not g.inverse_factor.flags.writeable
        np.testing.assert_array_equal(g.inverse_factor, g.phase() / g.h ** d)
        got = np.fft.ifftn(fhat * g.inverse_factor, axes=tuple(range(-d, 0)))
        np.testing.assert_array_equal(got, ps.to_space(g, fhat))
        np.testing.assert_allclose(got, v, atol=1e-13)
        buf = fhat.copy()
        assert ps.to_space(g, buf, out=buf) is buf
        np.testing.assert_array_equal(buf, got)

    @pytest.mark.parametrize("d", [1, 2])
    def test_support_columns_are_the_restricted_slices_and_steps(self, d):
        # fhat, the step factors and the cell weights, formed on the support
        # only, are the grid's restricted afterwards, bit for bit
        g = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(g, 12, 1, t_window=0.77)
        for sym in two_piece_families(d):
            prop = ps.Propagator(sym, f)
            keep = prop.support
            assert keep.size == (8 if d == 1 else 80)
            ref = grid_arrays(sym, f)
            np.testing.assert_array_equal(prop.fhat, ref.fhat.reshape(12, 3, -1)[..., keep])
            np.testing.assert_array_equal(prop.step, ref.step.reshape(11, -1)[:, keep])
            np.testing.assert_array_equal(prop.weight, ref.weight.reshape(11, -1)[:, keep])

    def test_full_support_columns_are_views(self):
        # on the whole grid, columns and to_grid reshape without copying
        g = ps.SpaceGrid(d=2, n=8, L=7.0)
        v = np.random.default_rng(2).standard_normal((4, 2) + g.shape) + 0j
        prop = ps.Propagator(ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5),
                             ps.SpaceTimeField(grid=g, t0=0.0, dt=0.1, values=v))
        assert prop.support.size == 64
        back = prop.to_grid(prop.fhat)
        assert back.shape == v.shape and np.shares_memory(back, prop.fhat)
        assert np.shares_memory(prop.columns(back), prop.fhat)

    @pytest.mark.parametrize("d", [1, 2])
    def test_to_grid_puts_the_columns_back(self, d):
        # zero off the support, the columns on it, for any leading shape
        g = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        prop = ps.Propagator(ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5),
                             ps.corpus_entry(g, 12, 1, t_window=0.77))
        back = prop.to_grid(prop.fhat)
        assert back.shape == (12, 3) + g.shape
        off = np.ones(g.n ** d, dtype=bool)
        off[prop.support] = False
        flat = back.reshape(12, 3, -1)
        assert np.all(flat[..., off] == 0.0)
        np.testing.assert_array_equal(prop.columns(back), prop.fhat)


def _carry_loop(gain, drive, start):
    """X_r = X_{r-1} * gain[r] + drive[r] one step at a time, into a new array."""
    rows, x = [], start
    for g, b in zip(gain, drive):
        x = x * g + b
        rows.append(x)
    return np.array(rows).reshape(drive.shape)


class TestCarry:
    @pytest.mark.parametrize("kind", [float, complex])
    @pytest.mark.parametrize("steps", [0, 1, 7])
    @pytest.mark.parametrize("start", ["zero", "given"])
    def test_array_equal_to_the_step_loop(self, kind, steps, start):
        # a gain row (1, m) broadcasts against each drive row (M, m)
        rng = np.random.default_rng(steps)

        def draw(shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if kind is complex else x

        gain, drive = draw((steps, 1, 5)), draw((steps, 4, 5))
        x0 = draw((4, 5)) if start == "given" else 0.0
        want = _carry_loop(gain, drive, x0)
        got = spectral._carry(gain, drive, x0)
        assert got is drive
        np.testing.assert_array_equal(got, want)

    def test_every_carried_route_calls_it(self, monkeypatch, heat):
        # each module's binding of the one recurrence is wrapped, so a route
        # that carries its own loop again shows up as a missing call
        calls = []
        original = spectral._carry

        def counted(gain, drive, start):
            calls.append(drive.shape)
            return original(gain, drive, start)

        bound = [m for m in (spectral, squarefn, spde) if m._carry is original]
        assert bound == [spectral, squarefn, spde]
        for module in bound:
            monkeypatch.setattr(module, "_carry", counted)
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        f = ps.corpus_entry(grid, 16, 1)
        m = ps.Propagator(heat, f).support.size
        assert m * m <= f.nt * grid.n   # the support route
        spec = ps.NoiseSpec(K=f.k_h, seed=3, dt=f.dt, nt=f.nt)
        # the carried block per step: P (m, m), B (m,) and the paths (M, m)
        for run, block in ((lambda: ps.square_function(heat, 1.0, f), (m, m)),
                           (lambda: ps.lp_ratio(heat, 1.0, f, 2.0), (m,)),
                           (lambda: ps.moment_bound_check(heat, f, spec, M=3, p=2.0,
                                                          derivative_order=1.0), (3, m))):
            calls.clear()
            run()
            assert block in [shape[1:] for shape in calls]


class TestMultipliers:
    def test_fractional_multiplier_zero_mode(self, grid):
        assert ps.fractional_multiplier(grid, 1.0)[0] == 0.0
        assert ps.fractional_multiplier(grid, 0.0)[0] == 1.0

    def test_derivative_of_pure_mode(self, grid):
        x = grid.x_axis()
        xi0 = 2 * np.pi * 5 / 20.0
        f = ps.Field(grid=grid, values=np.exp(1j * xi0 * x)[None])
        out = ps.to_space(grid, ps.to_frequency(f) * grid.abs_xi() ** 2)
        np.testing.assert_allclose(out, xi0 ** 2 * f.values, rtol=1e-12)

    def test_kernel_hat_is_a_grid_array(self, grid):
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        km = ps.kernel_hat(sym, 0.0, 0.3, 1.0, grid)
        assert km.shape == (64,)
        assert km[0] == 0.0  # positive eta kills the zero mode


class TestKernelSynthesis:
    def test_heat_kernel_mass_and_positivity(self):
        g = ps.SpaceGrid(d=1, n=256, L=20.0)
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        K = ps.to_space(g, ps.kernel_hat(sym, 0.0, 0.1, 0.0, g))
        mass = np.sum(K.real) * g.h
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert np.min(K.real) > -1e-12

    def test_unit_eta_kernel_has_zero_mean(self):
        g = ps.SpaceGrid(d=1, n=256, L=20.0)
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        K = ps.to_space(g, ps.kernel_hat(sym, 0.0, 0.1, 1.0, g))
        assert np.sum(K) * g.h == pytest.approx(0.0, abs=1e-12)

    def test_cumulative_integrals_match_scalar_route(self, grid):
        sym = ps.FractionalSymbol(
            gamma=1.5, a=([0.0, 0.4], [1.0, 1.4]), nu=0.5)
        nt, t0, dt = 9, 0.1, 0.07
        table = ps.cumulative_symbol_integrals(sym, grid, t0, dt, nt)
        assert table.shape == (nt, 64)
        xi = grid.xi_grid()[..., 0]
        for i in (0, 3, 8):
            direct = np.array([
                sym.time_integral(t0, t0 + i * dt, v)
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

