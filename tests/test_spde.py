"""Stochastic convolution: reproducible noise, isometry, moments, causality."""

import numpy as np
import pytest

import paleyscope as ps


@pytest.fixture()
def grid():
    return ps.SpaceGrid(d=1, n=64, L=20.0)


@pytest.fixture()
def forcing(grid):
    return ps.corpus_entry(grid, 32, 1)  # three channels


@pytest.fixture()
def spec(forcing):
    return ps.NoiseSpec(K=3, seed=777, dt=forcing.dt, nt=32)


def _single_mode(grid, nt, mode=4):
    xi0 = 2 * np.pi * mode / grid.L
    vals = np.exp(1j * xi0 * grid.x_axis())[None, None, :] * np.ones(
        (nt, 1, 1))
    f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=1.0 / (nt - 1), values=vals)
    return f, xi0


class TestNoise:
    def test_same_path_reproduces(self, spec):
        a = ps.sample_brownian_increments(spec, 3)
        b = ps.sample_brownian_increments(spec, 3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 32)

    def test_paths_are_distinct(self, spec):
        a = ps.sample_brownian_increments(spec, 0)
        b = ps.sample_brownian_increments(spec, 1)
        assert np.any(a != b)

    def test_increment_scale(self, spec):
        block = np.concatenate(
            [ps.sample_brownian_increments(spec, p).ravel()
             for p in range(200)])
        assert block.std() == pytest.approx(np.sqrt(spec.dt), rel=0.02)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ps.NoiseSpec(K=0, seed=1, dt=0.1, nt=8)
        with pytest.raises(ValueError):
            ps.NoiseSpec(K=1, seed=1, dt=-0.1, nt=8)
        with pytest.raises(ValueError):
            ps.NoiseSpec(K=1, seed=1, dt=0.1, nt=1)


class TestSolution:
    def test_starts_at_rest(self, grid, heat, forcing, spec):
        u = ps.stochastic_convolution(heat, forcing, spec, path=0)
        assert np.all(u.values[0] == 0.0)
        assert u.values.shape == (32, 1, 64)

    def test_channel_mismatch_rejected(self, grid, heat, forcing):
        bad = ps.NoiseSpec(K=2, seed=777, dt=forcing.dt, nt=32)
        with pytest.raises(ValueError):
            ps.stochastic_convolution(heat, forcing, bad, path=0)

    def test_future_forcing_cannot_reach_the_present(self, grid, heat,
                                                     forcing, spec):
        ens = ps.simulate_ensemble(heat, forcing, spec, M=4, t_indices=(10,))
        tampered = forcing.values.copy()
        tampered[10:] = 7.7 + 0.1j
        f2 = ps.SpaceTimeField(grid=grid, t0=forcing.t0, dt=forcing.dt,
                               values=tampered)
        ens2 = ps.simulate_ensemble(heat, f2, spec, M=4, t_indices=(10,))
        np.testing.assert_array_equal(ens.values, ens2.values)

    def test_ensemble_shape_and_base_path(self, grid, heat, forcing, spec):
        ens = ps.simulate_ensemble(heat, forcing, spec, M=3,
                                   t_indices=(8, 31), base_path=5)
        assert ens.values.shape == (3, 2, 64)
        solo = ps.stochastic_convolution(heat, forcing, spec, path=5)
        np.testing.assert_allclose(
            ens.values[0, 1], solo.values[31, 0], atol=1e-12)


    def test_ensemble_matches_slice_by_slice_kernel_oracle(self, grid,
                                                          forcing, spec):
        # u(t_i) = sum_{j<i} sum_k (K(t_i, s_j) * f^k(s_j)) dW_kj with every
        # kernel tabulated from its own time integral; the symbol's
        # breakpoint 0.5 falls inside a step
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]),
                                  nu=0.5)
        t_indices = (5, 17, 31)
        ens = ps.simulate_ensemble(sym, forcing, spec, M=3,
                                   t_indices=t_indices, base_path=2)
        dw = np.stack([ps.sample_brownian_increments(spec, 2 + m)
                       for m in range(3)])
        t = forcing.times()
        for slot, i in enumerate(t_indices):
            want = np.zeros((3,) + grid.shape, dtype=complex)
            for j in range(i):
                km = ps.kernel_hat(sym, t[j], t[i], 0.0, grid)
                amp = ps.apply_multiplier(ps.Field(grid, forcing.values[j]),
                                          km).values
                want += np.einsum("mk,kx->mx", dw[:, :, j], amp)
            np.testing.assert_allclose(ens.values[:, slot], want, rtol=1e-12)


class TestSecondMoment:
    def test_matches_geometric_sum_oracle(self, grid, heat):
        # single mode: E|u(t_i, x)|^2 = sum_{j<i} exp(-2 xi0^2 (t_i-t_j)) dt
        f, xi0 = _single_mode(grid, 32)
        spec = ps.NoiseSpec(K=1, seed=777, dt=f.dt, nt=32)
        M = 3000
        ens = ps.simulate_ensemble(heat, f, spec, M=M, t_indices=(31,))
        samples = np.abs(ens.values[:, 0, 32]) ** 2
        t = f.times()
        exact = np.sum(np.exp(-2 * xi0 ** 2 * (t[31] - t[:31]))) * f.dt
        sd = samples.std(ddof=1) / np.sqrt(M)
        assert abs(samples.mean() - exact) < 4 * sd

    def test_isometry_check_is_tight(self, grid, heat):
        f, _ = _single_mode(grid, 32)
        spec = ps.NoiseSpec(K=1, seed=777, dt=f.dt, nt=32)
        ens = ps.simulate_ensemble(heat, f, spec, M=2048)
        est = ps.ito_isometry_check(heat, f, ens)
        assert est.value < 0.1
        assert est.M == 2048
        assert est.std_error > 0.0

    def test_zero_coefficients_rejected(self, grid, heat):
        vals = np.zeros((16, 1, 64), dtype=complex)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.05, values=vals)
        spec = ps.NoiseSpec(K=1, seed=1, dt=0.05, nt=16)
        with pytest.raises(ps.DegenerateFieldError):
            ps.ito_isometry_check(heat, f, ps.simulate_ensemble(heat, f, spec, M=16))

    def test_foreign_ensemble_rejected(self, grid, heat, forcing, spec):
        ens = ps.simulate_ensemble(heat, forcing, spec, M=4)
        shorter = ps.corpus_entry(grid, 16, 1)
        with pytest.raises(ValueError, match="step"):
            ps.ito_isometry_check(heat, shorter, ens)
        coarser = ps.corpus_entry(ps.SpaceGrid(d=1, n=32, L=20.0), 32, 1)
        with pytest.raises(ValueError, match="grid"):
            ps.ito_isometry_check(heat, coarser, ens)


def _moment_path_by_path(sym, f, spec, M, p, eta, base_path):
    """Reference route: every path convolved on its own, O(nt^2) per path."""
    g = f.grid
    prop = ps.Propagator(sym, f)
    riesz = ps.fractional_multiplier(g, eta)
    norms = np.empty(M)
    for m in range(M):
        dW = ps.sample_brownian_increments(spec, base_path + m)
        z = np.einsum("jk...,kj->j...", prop.fhat, dW)
        uhat = np.zeros((f.nt,) + g.shape, dtype=complex)
        for i in range(1, f.nt):
            uhat[i] = np.sum(prop.decay(i, i) * z[:i], axis=0)
        mag = np.abs(prop.to_space(riesz * uhat))
        norms[m] = np.sum(mag ** p) * g.h ** g.d * f.dt
    scale = ps.lp_space_time_norm(f, p) ** p
    return np.mean(norms) / scale, np.std(norms, ddof=1) / np.sqrt(M) / scale


class TestHigherMoments:
    def test_matches_path_by_path_reference(self, forcing, spec):
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]),
                                  nu=0.5)
        est = ps.moment_bound_check(sym, forcing, spec, M=6, p=4.0,
                                    derivative_order=1.0, base_path=3)
        value, std_error = _moment_path_by_path(sym, forcing, spec, 6, 4.0,
                                                1.0, base_path=3)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)

    def test_zero_forcing_is_trivially_bounded(self, grid, heat):
        vals = np.zeros((16, 1, 64), dtype=complex)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.05, values=vals)
        spec = ps.NoiseSpec(K=1, seed=1, dt=0.05, nt=16)
        est = ps.moment_bound_check(heat, f, spec, M=8, p=2.0,
                                    derivative_order=0.0)
        assert est.value == 0.0
        assert est.majorant == 0.0

    def test_second_moment_tracks_the_square_function(self, heat, forcing,
                                                      spec):
        est = ps.moment_bound_check(heat, forcing, spec, M=512, p=2.0,
                                    derivative_order=0.0)
        # left-point time stepping vs trapezoid plus sampling noise
        assert 0.7 < est.value / est.majorant < 1.3

    def test_parameter_validation(self, heat, forcing, spec):
        with pytest.raises(ValueError):
            ps.moment_bound_check(heat, forcing, spec, M=8, p=1.0,
                                  derivative_order=0.0)
        with pytest.raises(ValueError):
            ps.moment_bound_check(heat, forcing, spec, M=8, p=2.0,
                                  derivative_order=-1.0)


class TestGaussianity:
    def test_excess_kurtosis_is_small(self, heat, forcing, spec):
        ens = ps.simulate_ensemble(heat, forcing, spec, M=4000)
        assert abs(ps.gaussianity_diagnostic(ens)) < 0.3

    def test_degenerate_ensemble_rejected(self, grid, heat, spec):
        vals = np.zeros((32, 3, 64), dtype=complex)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=spec.dt, values=vals)
        ens = ps.simulate_ensemble(heat, f, spec, M=8)
        with pytest.raises(ps.DegenerateFieldError):
            ps.gaussianity_diagnostic(ens)
