"""Stochastic convolution: reproducible noise, isometry, moments, causality."""

import threading
import tracemalloc

import numpy as np
import pytest

import paleyscope as ps
from paleyscope import spde, spectral

from conftest import (
    cell_weights,
    exp_decay,
    grid_arrays,
    two_piece_families,
    with_out_of_band_mode,
)


@pytest.fixture()
def grid():
    return ps.SpaceGrid(d=1, n=64, L=20.0)


@pytest.fixture()
def forcing(grid):
    return ps.corpus_entry(grid, 32, 1)  # three channels


@pytest.fixture()
def spec(forcing):
    return ps.NoiseSpec(K=3, seed=777, dt=forcing.dt, nt=32)


def _fresh_increments(spec, path):
    """Reference draws: a new Philox generator keyed on (seed, path)."""
    key = np.array([spec.seed, path], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.standard_normal((spec.K, spec.nt)) * np.sqrt(spec.dt)


def _fresh_block(spec, M):
    return np.stack([_fresh_increments(spec, m) for m in range(M)])


def _full_grid_drive(ref, dt):
    """sqrt(W_j / dt) fhat_j over every mode, j = 0 .. nt - 2, from the
    ``grid_arrays`` ``ref``."""
    return np.sqrt(ref.weight)[:, None] * ref.fhat[:-1] * (1 / np.sqrt(dt))


def _full_grid_slices(ref, dt, t_index):
    """Reference convolved slices over every mode, shape (nt, K) + grid.shape:
    slice j < t_index is exp(I[t_index] - I[j+1]) sqrt(W_j / dt) fhat_j, the
    others stay zero."""
    conv_hat = np.zeros_like(ref.fhat)
    conv_hat[:t_index] = _full_grid_drive(ref, dt)[:t_index]
    factors = np.cumprod(ref.step[1:t_index][::-1], axis=0)[::-1]
    conv_hat[:t_index - 1] *= factors[:, None]
    return conv_hat


def _full_grid_contract(ref, dt, dw, t_index):
    """Reference u_hat(t_i) of every path over every mode, in one contraction."""
    return np.tensordot(dw, _full_grid_slices(ref, dt, t_index), axes=([1, 2], [1, 0]))


def _full_grid_advance(ref, dt, dw):
    """Reference recursion over every mode: yields u_hat(t_i), i = 1 .. nt - 1."""
    drive = _full_grid_drive(ref, dt)
    u = np.zeros(dw.shape[:1] + ref.step.shape[1:], dtype=complex)
    for i in range(1, ref.fhat.shape[0]):
        u = ref.step[i - 1] * u + np.tensordot(dw[:, :, i - 1], drive[i - 1], axes=1)
        yield u


def _point_row(grid, x_index):
    """The inverse transform's row of the grid point ``x_index``, grid shaped."""
    k = np.arange(grid.n)
    row = 1.0
    for x in x_index:
        row = np.multiply.outer(row, np.exp(2j * np.pi * ((k * x) % grid.n) / grid.n))
    return row * (grid.inverse_factor / grid.n ** grid.d)


def _path(sym, f, dw):
    """u(t_i), i = 1 .. nt - 1, of the paths in ``dw`` by :func:`spde._advance`
    on every mode of the grid, from the ``grid_arrays`` of ``(sym, f)``."""
    ref = grid_arrays(sym, f)
    u_hat = np.array(list(spde._advance(ref.step, _full_grid_drive(ref, f.dt), dw)))
    return ps.to_space(f.grid, u_hat)


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

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_draws_match_a_fresh_philox_per_path(self, seed):
        # interleaved paths of two specs whose tables end mid-buffer
        wide = ps.NoiseSpec(K=3, seed=seed, dt=0.01, nt=32)
        narrow = ps.NoiseSpec(K=1, seed=seed, dt=0.2, nt=9)
        for path in (0, 5, 1, 2 ** 64 - 1, 5):
            for spec in (wide, narrow):
                np.testing.assert_array_equal(ps.sample_brownian_increments(spec, path),
                                              _fresh_increments(spec, path))

    def test_threads_draw_concurrently(self):
        spec = ps.NoiseSpec(K=2, seed=3, dt=0.05, nt=17)
        start = threading.Barrier(2)
        drawn = {}

        def draw(parity):
            start.wait()
            drawn[parity] = [ps.sample_brownian_increments(spec, 2 * i + parity)
                             for i in range(300)]

        workers = [threading.Thread(target=draw, args=(parity,)) for parity in (0, 1)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        for parity in (0, 1):
            for i, got in enumerate(drawn[parity]):
                np.testing.assert_array_equal(got, _fresh_increments(spec, 2 * i + parity))

    def test_out_receives_the_fresh_philox_draws(self, spec):
        out = np.full((spec.K, spec.nt), np.nan)
        assert ps.sample_brownian_increments(spec, 9, out=out) is out
        np.testing.assert_array_equal(out, _fresh_increments(spec, 9))
        for shape in [(spec.nt, spec.K), (spec.K, spec.nt + 1), (spec.K * spec.nt,)]:
            with pytest.raises(ValueError):
                ps.sample_brownian_increments(spec, 9, out=np.empty(shape))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ps.NoiseSpec(K=0, seed=1, dt=0.1, nt=8)
        with pytest.raises(ValueError):
            ps.NoiseSpec(K=1, seed=1, dt=-0.1, nt=8)
        with pytest.raises(ValueError):
            ps.NoiseSpec(K=1, seed=1, dt=0.1, nt=1)

    @pytest.mark.parametrize("word", [-1, 2 ** 64, 1.5, True, "3"])
    def test_key_words_outside_uint64_are_refused(self, spec, word):
        # each would overflow the Philox key or be read as another word
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\) and be an integer"):
            ps.NoiseSpec(K=1, seed=word, dt=0.1, nt=8)
        with pytest.raises(ValueError, match=r"path must lie in \[0, 2\*\*64\) and be an integer"):
            ps.sample_brownian_increments(spec, word)

    def test_numpy_integer_key_words_draw_as_ints(self):
        wide = ps.NoiseSpec(K=1, seed=np.uint64(2 ** 64 - 1), dt=0.1, nt=8)
        np.testing.assert_array_equal(ps.sample_brownian_increments(wide, np.int64(3)),
                                      _fresh_increments(wide, 3))


def _advance_loop(step, drive, dw):
    """u_hat(t_i), i = 1 .. nt - 1, one step at a time, each with its own
    contraction over k."""
    u, rows = 0.0, []
    for j, row in enumerate(drive):
        u = step[j] * u + np.tensordot(dw[:, :, j], row, axes=1)
        rows.append(u)
    return np.array(rows)


class TestSolution:
    @pytest.mark.parametrize("entry", [0, 1], ids=["K1", "K3"])
    @pytest.mark.parametrize("steps", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    def test_chunks_hold_the_step_loop(self, monkeypatch, grid, heat, entry, steps):
        # 12 times take 11 steps: chunks of 3 leave a short last chunk; a
        # real symbol gives real step factors, the complex coefficient not
        f = ps.corpus_entry(grid, 12, entry)
        M = 4
        dw = _fresh_block(ps.NoiseSpec(K=f.k_h, seed=5, dt=f.dt, nt=12), M)
        swirl = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]), nu=0.5)
        for sym in (heat, swirl):
            prop = ps.Propagator(sym, f)
            if steps is not None:
                # the carried block is M x m complex
                monkeypatch.setattr(spectral, "_CHUNK_BYTES",
                                    steps * 16 * M * prop.support.size)
            drive = prop.held(1 / np.sqrt(prop.dt))
            got = np.array(list(spde._advance(prop.step, drive, dw)))
            want = _advance_loop(prop.step, drive, dw)
            if sym is heat:
                assert np.all(prop.step.imag == 0)
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_starts_at_rest(self, heat, forcing, spec):
        # u(t_0) = 0, so the first step is the drive of slice 0 alone
        prop = ps.Propagator(heat, forcing)
        drive = prop.held(1 / np.sqrt(prop.dt))
        dw = _fresh_block(spec, 2)
        u = list(spde._advance(prop.step, drive, dw))
        assert len(u) == spec.nt - 1
        assert u[0].shape == (2, prop.support.size)
        np.testing.assert_array_equal(u[0], np.tensordot(dw[:, :, 0], drive[0], axes=1))

    def test_channel_mismatch_rejected(self, grid, heat, forcing):
        bad = ps.NoiseSpec(K=2, seed=777, dt=forcing.dt, nt=32)
        with pytest.raises(ValueError, match="channel count"):
            ps.simulate_ensemble(heat, forcing, bad, M=2)
        with pytest.raises(ValueError, match="channel count"):
            ps.moment_bound_check(heat, forcing, bad, M=2, p=4.0, derivative_order=1.0)

    def test_future_forcing_cannot_reach_the_present(self, grid, heat,
                                                     forcing, spec):
        # u(t_i) reads forcing slices j < i only: bit for bit up to t_10,
        # and the tampered slices reach every later time
        dw = _fresh_block(spec, 1)
        u = _path(heat, forcing, dw)
        tampered = forcing.values.copy()
        tampered[10:] = 7.7 + 0.1j
        f2 = ps.SpaceTimeField(grid=grid, t0=forcing.t0, dt=forcing.dt,
                               values=tampered)
        u2 = _path(heat, f2, dw)
        # row i - 1 holds u(t_i)
        np.testing.assert_array_equal(u[:10], u2[:10])
        for i in range(11, spec.nt):
            assert not np.array_equal(u[i - 1], u2[i - 1])

    def test_enlarging_M_extends_the_ensemble(self, grid, heat, forcing, spec):
        # path m is keyed (seed, m): row m of a 3-path ensemble is row m of
        # a 5-path one
        ens = ps.simulate_ensemble(heat, forcing, spec, M=3)
        assert ens.values.shape == (3, 64)
        wide = ps.simulate_ensemble(heat, forcing, spec, M=5)
        np.testing.assert_allclose(ens.values, wide.values[:3], atol=1e-12)

    def test_ensemble_matches_slice_by_slice_kernel_oracle(self, grid, heat,
                                                          forcing, spec):
        # u(t_i) = sum_{j<i} sum_k (K(t_i, s_{j+1}) sqrt(W_j / dt) * f^k(s_j))
        # dW_kj with every kernel tabulated from its own time integral: each
        # path at every time by _advance on the Propagator's columns, and
        # the ensemble at the last; the two-piece symbol's breakpoint 0.5
        # falls inside a step
        two_piece = ps.FractionalSymbol(
            gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]), nu=0.5)
        t = forcing.times()
        for sym in (heat, two_piece):
            ens = ps.simulate_ensemble(sym, forcing, spec, M=2)
            prop = ens.propagator
            held = np.sqrt(cell_weights(sym, t, grid) / forcing.dt)
            for m in range(2):
                dw = ps.sample_brownian_increments(spec, m)
                u_hat = list(spde._advance(prop.step, prop.held(1 / np.sqrt(prop.dt)),
                                           dw[None]))
                u = ps.to_space(grid, prop.to_grid(np.array(u_hat)))[:, 0]
                want = np.zeros((spec.nt,) + grid.shape, dtype=complex)
                for i in range(1, spec.nt):
                    for j in range(i):
                        km = ps.kernel_hat(sym, t[j + 1], t[i], 0.0, grid) * held[j]
                        amp = ps.to_space(
                            grid, ps.to_frequency(ps.Field(grid, forcing.values[j])) * km)
                        want[i] += dw[:, j] @ amp
                np.testing.assert_allclose(u, want[1:], rtol=1e-12)
                np.testing.assert_allclose(ens.values[m], want[-1], rtol=1e-12)


def _bench_sized():
    """The bench heat config's corpus entry 1 and its noise: n = nt = 128,
    K = 3, m = 8 support columns."""
    grid = ps.SpaceGrid(d=1, n=128, L=20.0)
    f = ps.corpus_entry(grid, 128, 1)
    return f, ps.NoiseSpec(K=3, seed=1, dt=f.dt, nt=128)


class TestEnsembleContraction:
    def test_real_gemm_matches_the_complex_tensordot(self, heat):
        # the real GEMM on the float view against the complex contraction of
        # the same block and convolved slices, at the bench's M
        f, spec = _bench_sized()
        M = 4096
        ens = ps.simulate_ensemble(heat, f, spec, M)
        prop = ens.propagator
        u_hat = np.tensordot(_fresh_block(spec, M), spde._convolved_slices(prop),
                             axes=([1, 2], [1, 0]))
        want = ps.to_space(f.grid, prop.to_grid(u_hat))
        np.testing.assert_allclose(ens.values, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_traced_peak_is_within_the_block_and_the_grid(self, heat):
        # a complex copy of the block alone is twice the block
        f, spec = _bench_sized()
        M = 1024
        ps.simulate_ensemble(heat, f, spec, M)   # warm the thread's generator
        tracemalloc.start()
        try:
            ps.simulate_ensemble(heat, f, spec, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = M * spec.K * spec.nt * 8
        grid = M * f.grid.n * 16
        assert peak <= 1.25 * (block + grid)


class TestSecondMoment:
    def test_matches_geometric_sum_oracle(self, grid, heat):
        # single mode held over every cell: E|u(t_i, x)|^2 is the whole
        # integral int_0^{t_i} exp(-2 xi0^2 (t_i - s)) ds
        f, xi0 = _single_mode(grid, 32)
        spec = ps.NoiseSpec(K=1, seed=777, dt=f.dt, nt=32)
        M = 3000
        ens = ps.simulate_ensemble(heat, f, spec, M=M)
        samples = np.abs(ens.values[:, 32]) ** 2
        t = f.times()
        exact = (1.0 - np.exp(-2 * xi0 ** 2 * t[31])) / (2 * xi0 ** 2)
        sd = samples.std(ddof=1) / np.sqrt(M)
        assert abs(samples.mean() - exact) < 4 * sd

    def test_isometry_check_is_tight(self, grid, heat):
        f, _ = _single_mode(grid, 32)
        spec = ps.NoiseSpec(K=1, seed=777, dt=f.dt, nt=32)
        ens = ps.simulate_ensemble(heat, f, spec, M=2048)
        est = ps.ito_isometry_check(ens)
        assert est.value < 0.1
        assert est.M == 2048
        assert est.std_error > 0.0

    @pytest.mark.parametrize("d, x_index", [(1, None), (1, (5,)), (2, (3, 11))])
    def test_exact_moment_matches_the_full_inverse_transform(self, heat, d,
                                                            x_index):
        # the first ten slices of an entry, so that t_9 is the last time
        g = ps.SpaceGrid(d=d, n=64 if d == 1 else 16, L=20.0)
        entry = ps.corpus_entry(g, 16, 1)
        f = ps.SpaceTimeField(grid=g, t0=entry.t0, dt=entry.dt,
                              values=entry.values[:10])
        spec = ps.NoiseSpec(K=f.k_h, seed=5, dt=f.dt, nt=10)
        ens = ps.simulate_ensemble(heat, f, spec, M=64)
        x = (g.n // 2,) * d if x_index is None else x_index
        coeff = ps.to_space(g, _full_grid_slices(grid_arrays(heat, f), f.dt, 9))[
            (slice(None), slice(None)) + x]
        exact = np.sum(np.abs(coeff) ** 2) * spec.dt
        sq = np.abs(ens.values[(slice(None),) + x]) ** 2
        est = ps.ito_isometry_check(ens, x_index=x_index)
        assert est.value == pytest.approx(abs(sq.mean() - exact) / exact,
                                          rel=1e-12)
        assert est.std_error == pytest.approx(
            sq.std(ddof=1) / np.sqrt(64) / exact, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", [0, 1, 2],
                             ids=["fractional", "polyform", "levy"])
    def test_exact_moment_is_the_square_function(self, d, family):
        # E|u(t*, x)|^2 = G f(t*, x)^2 at eta = 0, pointwise; the step 0.07
        # puts the breakpoint 0.5 inside a step.  The check's exact moment is
        # the sample standard error over its relative one.
        sym = two_piece_families(d)[family]
        g = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(g, 12, 1, t_window=0.77)
        spec = ps.NoiseSpec(K=f.k_h, seed=5, dt=f.dt, nt=12)
        ens = ps.simulate_ensemble(sym, f, spec, M=16)
        G = ps.square_function(sym, 0.0, f).values[-1]
        for x in [(g.n // 2,) * d, (3,) * d]:
            est = ps.ito_isometry_check(ens, x_index=x)
            sq = np.abs(ens.values[(slice(None),) + x]) ** 2
            exact = sq.std(ddof=1) / np.sqrt(16) / est.std_error
            assert exact == pytest.approx(G[x] ** 2, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("entry, out_of_band", [(0, False), (1, False), (1, True)])
    def test_exact_moment_matches_the_point_row(self, heat, d, entry, out_of_band):
        # the support columns on the grid, contracted with the inverse
        # transform's row of each point: an independent route to c_jk(x)
        g = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(g, 12, entry, t_window=0.77)
        if out_of_band:
            f = with_out_of_band_mode(
                f, 7 if d == 1 else np.ravel_multi_index((6, 10), g.shape))
        spec = ps.NoiseSpec(K=f.k_h, seed=5, dt=f.dt, nt=12)
        ens = ps.simulate_ensemble(heat, f, spec, M=16)
        prop = ens.propagator
        conv = prop.to_grid(spde._convolved_slices(prop))
        for x in [(g.n // 2,) * d, (3,) * d, (g.n - 1,) + (5,) * (d - 1)]:
            coeff = np.tensordot(conv, _point_row(g, x), axes=d)
            exact = np.sum(np.abs(coeff) ** 2) * spec.dt
            sq = np.abs(ens.values[(slice(None),) + x]) ** 2
            est = ps.ito_isometry_check(ens, x_index=x)
            assert est.value == pytest.approx(abs(sq.mean() - exact) / exact,
                                              rel=1e-12)
            assert est.std_error == pytest.approx(
                sq.std(ddof=1) / np.sqrt(16) / exact, rel=1e-12)

    def test_exact_moment_takes_one_inverse_transform(self, heat, monkeypatch):
        # the module's binding is wrapped after the ensemble is simulated
        assert spde.to_space is spectral.to_space
        g = ps.SpaceGrid(d=2, n=16, L=12.0)
        f = ps.corpus_entry(g, 12, 1, t_window=0.77)
        spec = ps.NoiseSpec(K=f.k_h, seed=5, dt=f.dt, nt=12)
        ens = ps.simulate_ensemble(heat, f, spec, M=16)
        calls = []

        def counted(grid, values, out=None):
            calls.append(values.shape)
            return spectral.to_space(grid, values, out=out)

        monkeypatch.setattr(spde, "to_space", counted)
        ps.ito_isometry_check(ens, x_index=(3, 4))
        assert calls == [(12, f.k_h) + g.shape]

    def test_zero_coefficients_rejected(self, grid, heat):
        vals = np.zeros((16, 1, 64), dtype=complex)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.05, values=vals)
        spec = ps.NoiseSpec(K=1, seed=1, dt=0.05, nt=16)
        with pytest.raises(ps.DegenerateFieldError):
            ps.ito_isometry_check(ps.simulate_ensemble(heat, f, spec, M=16))


def _moment_path_by_path(sym, f, spec, M, p, eta):
    """Reference route: every path convolved on its own, O(nt^2) per path."""
    g = f.grid
    ref = grid_arrays(sym, f)
    riesz = ps.fractional_multiplier(g, eta)
    held = np.sqrt(cell_weights(sym, f.times(), g) / f.dt)
    norms = np.empty(M)
    for m in range(M):
        dW = ps.sample_brownian_increments(spec, m)
        z = held * np.einsum("jk...,kj->j...", ref.fhat[:-1], dW[:, :-1])
        uhat = np.zeros((f.nt,) + g.shape, dtype=complex)
        for i in range(1, f.nt):
            uhat[i] = np.sum(exp_decay(ref.integrals, i, i + 1)[1:] * z[:i], axis=0)
        mag = np.abs(ps.to_space(g, riesz * uhat))
        norms[m] = np.sum(mag ** p) * g.h ** g.d * f.dt
    scale = ps.lp_space_time_norm(f, p) ** p
    return np.mean(norms) / scale, np.std(norms, ddof=1) / np.sqrt(M) / scale


def _moment_by_contraction(sym, f, spec, M, p, eta):
    """Reference route: every time step contracted from scratch over the
    whole grid."""
    g = f.grid
    ref = grid_arrays(sym, f)
    riesz = ps.fractional_multiplier(g, eta)
    dw = _fresh_block(spec, M)
    sums = np.zeros(M)
    for i in range(1, f.nt):
        mag = np.abs(ps.to_space(g, riesz * _full_grid_contract(ref, f.dt, dw, i)))
        sums += np.sum(mag.reshape(M, -1) ** p, axis=1)
    norms = sums * g.h ** g.d * f.dt
    scale = ps.lp_space_time_norm(f, p) ** p
    G = ps.square_function(sym, eta, f)
    majorant = (ps.lp_space_time_norm(G, p) / ps.lp_space_time_norm(f, p)) ** p
    return (np.mean(norms) / scale, np.std(norms, ddof=1) / np.sqrt(M) / scale,
            majorant)


class TestHigherMoments:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_recursion_matches_per_step_contraction(self, d, p):
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]),
                                  nu=0.5)
        g = ps.SpaceGrid(d=d, n=64 if d == 1 else 16, L=20.0)
        f = ps.corpus_entry(g, 24, 1)
        spec = ps.NoiseSpec(K=f.k_h, seed=9, dt=f.dt, nt=24)
        est = ps.moment_bound_check(sym, f, spec, M=5, p=p,
                                    derivative_order=1.0)
        want = _moment_by_contraction(sym, f, spec, 5, p, 1.0)
        np.testing.assert_allclose([est.value, est.std_error, est.majorant],
                                   want, rtol=1e-12)

    def test_matches_path_by_path_reference(self, forcing, spec):
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]),
                                  nu=0.5)
        est = ps.moment_bound_check(sym, forcing, spec, M=6, p=4.0,
                                    derivative_order=1.0)
        value, std_error = _moment_path_by_path(sym, forcing, spec, 6, 4.0, 1.0)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_majorant_is_the_lp_ratio_bit_for_bit(self, forcing, spec, p):
        # the check reads ||G f||_p off the propagator its paths use
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]),
                                  nu=0.5)
        est = ps.moment_bound_check(sym, forcing, spec, M=4, p=p, derivative_order=1.0)
        assert est.majorant == ps.lp_ratio(sym, 1.0, forcing, p).ratio ** p

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
        # at p = 2 the held scheme's E ||u||_2^2 is ||G f||_2^2 exactly, so
        # only sampling noise separates the two
        est = ps.moment_bound_check(heat, forcing, spec, M=512, p=2.0,
                                    derivative_order=0.0)
        assert abs(est.value - est.majorant) <= 5 * est.std_error

    def test_parameter_validation(self, heat, forcing, spec):
        with pytest.raises(ValueError):
            ps.moment_bound_check(heat, forcing, spec, M=8, p=1.0,
                                  derivative_order=0.0)
        with pytest.raises(ValueError):
            ps.moment_bound_check(heat, forcing, spec, M=8, p=2.0,
                                  derivative_order=-1.0)

    @pytest.mark.parametrize("M", [0, 1])
    def test_fewer_than_two_paths_rejected(self, heat, forcing, spec, M):
        with pytest.raises(ValueError, match="M must be at least 2"):
            ps.simulate_ensemble(heat, forcing, spec, M=M)
        with pytest.raises(ValueError, match="M must be at least 2"):
            ps.moment_bound_check(heat, forcing, spec, M=M, p=4.0,
                                  derivative_order=1.0)


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


class TestObservationPoint:
    def test_point_must_be_d_integers_on_the_grid(self, heat):
        # a 1-tuple on a d = 2 ensemble would read a whole row of samples
        g = ps.SpaceGrid(d=2, n=16, L=20.0)
        f = ps.corpus_entry(g, 8, 1)
        spec = ps.NoiseSpec(K=f.k_h, seed=5, dt=f.dt, nt=8)
        ens = ps.simulate_ensemble(heat, f, spec, M=16)
        for bad in [(3,), (3, 4, 5), (3, 16), (-1, 2), [3, 4], (3.0, 4)]:
            with pytest.raises(ValueError, match="x_index"):
                ps.ito_isometry_check(ens, x_index=bad)
            with pytest.raises(ValueError, match="x_index"):
                ps.gaussianity_diagnostic(ens, x_index=bad)
        assert ps.gaussianity_diagnostic(ens, x_index=(np.int64(3), 4)) == \
            ps.gaussianity_diagnostic(ens, x_index=(3, 4))
        assert ps.ito_isometry_check(ens, x_index=(8, 8)) == ps.ito_isometry_check(ens)


def _full_grid_checks(sym, f, spec, M, p, eta):
    """The four public results by the full-grid references, from fresh draws.

    Returns the ensemble values, the moment check's (value, std_error) and
    the isometry check's (value, std_error) at the default point, each
    formed as the public function forms it but over every mode.
    """
    g = f.grid
    ref = grid_arrays(sym, f)
    dw = _fresh_block(spec, M)
    ens = ps.to_space(g, _full_grid_contract(ref, f.dt, dw, f.nt - 1))
    riesz = ps.fractional_multiplier(g, eta)
    sums = np.zeros(M)
    for u in _full_grid_advance(ref, f.dt, dw):
        mag = np.abs(ps.to_space(g, riesz * u))
        sums += np.sum(mag.reshape(M, -1) ** p, axis=1)
    norms = sums * g.h ** g.d * f.dt
    norm_f = ps.lp_space_time_norm(f, p)
    moment = [float(np.mean(norms)) / norm_f ** p,
              float(np.std(norms, ddof=1) / np.sqrt(M)) / norm_f ** p]
    x = (g.n // 2,) * g.d
    coeff = ps.to_space(g, _full_grid_slices(ref, f.dt, f.nt - 1))[
        (slice(None), slice(None)) + x]
    exact = float(np.sum(np.abs(coeff) ** 2) * spec.dt)
    sq = np.abs(ens[(slice(None),) + x]) ** 2
    iso = [abs(float(np.mean(sq)) - exact) / exact,
           float(np.std(sq, ddof=1) / np.sqrt(M)) / exact]
    return ens, moment, iso


def _assert_support_matches_full_grid(sym, f, bit_for_bit=False):
    """simulate_ensemble, moment_bound_check and ito_isometry_check against
    the full-grid references: rtol 1e-12 and atol 1e-12 of the largest
    reference value, or equal bits."""
    M, p, eta = 5, 4.0, 1.0
    spec = ps.NoiseSpec(K=f.k_h, seed=11, dt=f.dt, nt=f.nt)
    ens = ps.simulate_ensemble(sym, f, spec, M)
    est = ps.moment_bound_check(sym, f, spec, M, p, eta)
    iso = ps.ito_isometry_check(ens)
    got = [ens.values, [est.value, est.std_error], [iso.value, iso.std_error]]
    want = _full_grid_checks(sym, f, spec, M, p, eta)
    for name, a, b in zip(["ensemble", "moment", "isometry"], got, want):
        if bit_for_bit:
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(),
                                       err_msg=name)


class TestSupportColumns:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", [0, 1, 2],
                             ids=["fractional", "polyform", "levy"])
    @pytest.mark.parametrize("entry", [0, 1])
    def test_corpus_matches_the_full_grid(self, d, family, entry):
        sym = two_piece_families(d)[family]
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(grid, 12, entry, t_window=0.77)
        assert ps.Propagator(sym, f).support.size == (8 if d == 1 else 80)
        _assert_support_matches_full_grid(sym, f)

    @pytest.mark.parametrize("d", [1, 2])
    def test_an_out_of_band_mode_is_carried(self, d):
        sym = two_piece_families(d)[0]
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(grid, 12, 1, t_window=0.77)
        mode = 7 if d == 1 else np.ravel_multi_index((6, 10), grid.shape)
        g = with_out_of_band_mode(f, mode)
        assert mode in ps.Propagator(sym, g).support
        _assert_support_matches_full_grid(sym, g)

    @pytest.mark.parametrize("d", [1, 2])
    def test_full_support_is_the_full_grid_bit_for_bit(self, d):
        sym = two_piece_families(d)[2]
        grid = ps.SpaceGrid(d=d, n=16 if d == 1 else 8, L=12.0)
        rng = np.random.default_rng(d)
        shape = (10, 2) + grid.shape
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.07,
                              values=rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        assert ps.Propagator(sym, f).support.size == grid.n ** d
        _assert_support_matches_full_grid(sym, f, bit_for_bit=True)

    def test_zero_field_gives_zero_paths(self, heat):
        grid = ps.SpaceGrid(d=1, n=16, L=12.0)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1,
                              values=np.zeros((6, 2, 16), complex))
        spec = ps.NoiseSpec(K=2, seed=4, dt=0.1, nt=6)
        assert ps.Propagator(heat, f).support.size == 0
        ens = ps.simulate_ensemble(heat, f, spec, M=3)
        assert ens.values.shape == (3, 16) and np.all(ens.values == 0.0)
        est = ps.moment_bound_check(heat, f, spec, M=3, p=4.0, derivative_order=1.0)
        assert (est.value, est.std_error, est.majorant) == (0.0, 0.0, 0.0)
        with pytest.raises(ps.DegenerateFieldError):
            ps.ito_isometry_check(ens)
