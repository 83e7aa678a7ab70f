"""Maximal averages, parabolic sharp function, and the sup-ratio bound."""

import numpy as np
import pytest

import paleyscope as ps
from paleyscope.maximal import (
    _ball_mask,
    _cylinder_cells,
    _default_r_ladder,
    _window_means,
    _wrap_ball_means_nd,
)


def _wrap_window_means_1d(arr, k):
    """Reference: periodic centered window means of width 2k+1 along the
    last axis, one prefix-sum table per radius."""
    n = arr.shape[-1]
    if k == 0:
        return arr.copy()
    reps = int(np.ceil(k / n))
    pad_l = np.concatenate([arr] * reps, axis=-1)[..., -k:]
    pad_r = np.concatenate([arr] * reps, axis=-1)[..., :k]
    padded = np.concatenate([pad_l, arr, pad_r], axis=-1)
    c = np.cumsum(padded, axis=-1, dtype=float)
    c = np.concatenate([np.zeros(arr.shape[:-1] + (1,)), c], axis=-1)
    return (c[..., 2 * k + 1:] - c[..., :n]) / (2 * k + 1)


def _time_window_means(arr, k, full_normalizer=True):
    """Reference: zero-extended centered window means of width 2k+1 along
    axis 0, one prefix-sum table per radius."""
    nt = arr.shape[0]
    if k == 0:
        return arr.astype(float)
    pad = np.zeros((k,) + arr.shape[1:])
    padded = np.concatenate([pad, arr, pad], axis=0)
    c = np.cumsum(padded, axis=0, dtype=float)
    c = np.concatenate([np.zeros((1,) + arr.shape[1:]), c], axis=0)
    sums = c[2 * k + 1: 2 * k + 1 + nt] - c[:nt]
    if full_normalizer:
        return sums / (2 * k + 1)
    i = np.arange(nt)
    counts = np.minimum(i + k, nt - 1) - np.maximum(i - k, 0) + 1
    return sums / counts.reshape((nt,) + (1,) * (arr.ndim - 1))


def _indicator_field(n=1024, L=20.0):
    grid = ps.SpaceGrid(d=1, n=n, L=L)
    x = grid.x_axis()
    values = ((x >= 0) & (x <= 1)).astype(complex)[None]
    return grid, ps.Field(grid=grid, values=values)


class TestSpaceMaximal:
    def test_indicator_oracle(self):
        # the 205-point window centered at x = 1.9921875 holds the 52
        # unit samples at indices 512..563; wider or narrower windows
        # only lower the average, so the sup is exactly 52/205
        grid, f = _indicator_field()
        out = ps.maximal_space(f)
        idx = int(np.argmin(np.abs(grid.x_axis() - 2.0)))
        assert idx == 614
        assert out.values[0, idx].real == pytest.approx(52.0 / 205.0, abs=1e-15)
        # the continuous-limit value at x = 2 is 1/4
        assert abs(out.values[0, idx].real - 0.25) < 5e-3

    def test_dominates_the_field(self):
        grid, f = _indicator_field(n=128)
        out = ps.maximal_space(f)
        assert np.all(out.values.real >= np.abs(f.values) - 1e-15)
        # radius 0 returns the input itself, so even a signed field is
        # dominated with no slack
        v = np.random.default_rng(5).standard_normal((3, 128))
        out = ps.maximal_space(ps.Field(grid=grid, values=v + 0j))
        assert np.all(out.values.real >= v)

    def test_constant_is_fixed_point(self):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        f = ps.Field(grid=grid, values=np.full((2, 64), 3.0, dtype=complex))
        out = ps.maximal_space(f)
        np.testing.assert_allclose(out.values.real, 3.0, atol=1e-14)

    def test_requires_real_values(self):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        f = ps.Field(grid=grid, values=1j * np.ones((1, 64)))
        with pytest.raises(ValueError):
            ps.maximal_space(f)

    def test_planar_window_matches_direct_average(self):
        rng = np.random.default_rng(12)
        grid = ps.SpaceGrid(d=2, n=16, L=16.0)
        v = np.abs(rng.standard_normal((1, 16, 16)))
        (out,) = _wrap_ball_means_nd(v, [2], grid.d)
        # direct wrap-around disc average, radius 2 cells
        offsets = [(a, b) for a in range(-2, 3) for b in range(-2, 3)
                   if a * a + b * b <= 4]
        direct = np.zeros((16, 16))
        for i in range(16):
            for j in range(16):
                acc = [v[0, (i + a) % 16, (j + b) % 16] for a, b in offsets]
                direct[i, j] = np.mean(acc)
        np.testing.assert_allclose(out[0], direct, atol=1e-12)

    @pytest.mark.parametrize("k", [5, 8])
    def test_radius_beyond_half_the_grid_wraps(self, k):
        # on n = 8 cells these windows cover the circle more than once
        v = np.random.default_rng(14).standard_normal((2, 8))
        (out,) = _wrap_ball_means_nd(v, [k], 1)
        direct = np.array([[np.mean([row[(i + o) % 8]
                                     for o in range(-k, k + 1)])
                            for i in range(8)] for row in v])
        np.testing.assert_allclose(out, direct, rtol=0, atol=1e-14)

    def test_planar_ladder_transforms_the_data_once(self, monkeypatch):
        real = np.fft.fftn
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counting)
        grid = ps.SpaceGrid(d=2, n=16, L=16.0)
        ps.maximal_space(ps.Field(grid=grid, values=np.ones((3, 16, 16)) + 0j))
        # ladder 0, 1, 2, 4, 8: one transform of the data, one per kernel
        assert shapes.count((3, 16, 16)) == 1
        assert shapes.count((16, 16)) == 4


class TestWindowMeans:
    """The one prefix-sum primitive against the per-radius codes it replaced."""

    @staticmethod
    def _along(reference, arr, axis, *args):
        """Apply a reference that works on one fixed axis along ``axis``."""
        home = -1 if reference is _wrap_window_means_1d else 0
        return np.moveaxis(reference(np.moveaxis(arr, axis, home), *args),
                           home, axis)

    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("k", [1, 2, 6, 7, 13, 30])
    def test_wrap_matches_the_per_radius_table(self, axis, k):
        # axis lengths 11 and 13; k = 13 and 30 exceed both
        arr = np.random.default_rng(21).standard_normal((11, 13))
        (got,) = _window_means(arr, [k], axis, wrap=True)
        want = self._along(_wrap_window_means_1d, arr, axis, k)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("clipped", [False, True])
    def test_zero_padded_ladder_matches_the_per_radius_tables(self, axis,
                                                             clipped):
        # one table padded by the largest radius: the extra zeros are exact
        arr = np.random.default_rng(22).standard_normal((11, 13))
        ladder = range(2 * arr.shape[axis])
        got = list(_window_means(arr, ladder, axis, clipped=clipped))
        assert got[0] is arr
        for k in ladder[1:]:
            want = self._along(_time_window_means, arr, axis, k, not clipped)
            np.testing.assert_array_equal(got[k], want)


class TestTimeMaximal:
    def test_zero_extension_oracle(self):
        # ones on the first 51 of 101 slices; at the last slice the best
        # window holds all 51 against a full normalizer of 201
        grid = ps.SpaceGrid(d=1, n=8, L=20.0)
        vals = np.zeros((101, 1, 8), dtype=complex)
        vals[:51] = 1.0
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.02, values=vals)
        out = ps.maximal_time(f)
        assert out.values[100, 0, 0].real == pytest.approx(51.0 / 201.0)

    def test_interior_point_sees_everything(self):
        grid = ps.SpaceGrid(d=1, n=8, L=20.0)
        vals = np.ones((11, 1, 8), dtype=complex)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1, values=vals)
        out = ps.maximal_time(f)
        # the radius-0 window alone already gives the constant
        np.testing.assert_allclose(out.values.real, 1.0, atol=1e-14)


def _mean_deviation_sharp(g, delta0):
    """Reference: the paper's sharp function, the sup of the mean absolute
    deviation E|g - E[g]| over the cylinders that contain each point, by
    explicit enumeration of the cylinders of ``sharp_function``'s ladder.
    Quadratic in the grid size."""
    arr, grid, nt = g.values, g.grid, g.nt
    out = np.zeros_like(arr)
    for R in _default_r_ladder(g.dt, nt):
        kt, ks = _cylinder_cells(grid, g.dt, R, delta0)
        offsets = np.argwhere(_ball_mask(grid.d, ks)) - ks
        for ci in range(nt):
            times = slice(max(ci - kt, 0), min(ci + kt, nt - 1) + 1)
            for center in np.ndindex(*grid.shape):
                cells = (times,) + tuple((offsets[:, a] + center[a]) % grid.n
                                         for a in range(grid.d))
                patch = arr[cells]
                out[cells] = np.maximum(out[cells], np.mean(np.abs(patch - patch.mean())))
    return out


class TestSharpFunction:
    def test_constant_has_no_oscillation(self):
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.1,
                           values=np.full((16, 32), 2.0))
        out = ps.sharp_function(g, 0.5)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-13)

    def test_step_oscillates_near_the_jump(self):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        vals = np.zeros((32, 64))
        vals[:, :32] = 1.0
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.05, values=vals)
        out = ps.sharp_function(g, 0.5)
        assert np.max(out.values) > 0.1
        assert np.all(out.values >= 0.0)

    def test_mean_deviation_below_quadratic_oscillation(self):
        rng = np.random.default_rng(13)
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        vals = np.abs(rng.standard_normal((16, 32)))
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.05, values=vals)
        l1 = _mean_deviation_sharp(g, 0.5)
        l2 = ps.sharp_function(g, 0.5).values
        assert np.all(l1 <= l2 + 1e-12)
        assert np.all(l1 > 0)

    @pytest.mark.parametrize("kt,ks", [(0, 1), (1, 0), (2, 1), (3, 2), (7, 4)])
    def test_dilation_matches_neighbour_enumeration_in_2d(self, kt, ks):
        # every point takes the max over the cylinders around it: time
        # offsets clipped to the window, space offsets in the periodic ball
        from paleyscope.maximal import _ball_mask, _dilate

        grid = ps.SpaceGrid(d=2, n=8, L=20.0)
        arr = np.random.default_rng(11).standard_normal((8, 8, 8))
        offsets = np.argwhere(_ball_mask(2, ks)) - ks
        want = np.full_like(arr, -np.inf)
        for t, x, y in np.ndindex(*arr.shape):
            for s in range(max(t - kt, 0), min(t + kt, 7) + 1):
                for dx, dy in offsets:
                    want[t, x, y] = max(want[t, x, y],
                                        arr[s, (x + dx) % 8, (y + dy) % 8])
        np.testing.assert_array_equal(_dilate(arr, grid, kt, ks), want)


class TestSupRatio:
    def test_zero_field_gives_zero(self, heat):
        # a zero field gives G = 0, so both ratios are undefined: it raises
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.05,
                              values=np.zeros((16, 1, 32), complex))
        with pytest.raises(ps.DegenerateFieldError):
            ps.verify_sharp_bound(heat, 1.0, f, 2.0)

    def test_finite_on_corpus_entry(self, heat):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        f = ps.corpus_entry(grid, 32, 0)
        sup, fs = ps.verify_sharp_bound(heat, 1.0, f, 2.0)
        assert np.isfinite(sup) and sup > 0.0
        assert np.isfinite(fs) and fs > 0.0

    def test_anisotropy_defaults_to_inverse_order(self, levy):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        f = ps.corpus_entry(grid, 32, 0)
        a = ps.verify_sharp_bound(levy, 0.25, f, 2.0)
        b = ps.verify_sharp_bound(levy, 0.25, f, 2.0, delta0=1.0 / levy.order)
        assert a == b


class TestOscillationNormRatio:
    def test_degenerate_input_raises(self):
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.1,
                           values=np.ones((8, 32)))
        with pytest.raises(ps.DegenerateFieldError):
            ps.fefferman_stein_check(g, 4.0, 0.5)

    def test_ratio_is_order_one_for_smooth_data(self, heat):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        f = ps.corpus_entry(grid, 32, 0)
        g = ps.square_function(heat, 1.0, f)
        ratio = ps.fefferman_stein_check(g, 4.0, 0.5)
        assert 0.0 < ratio < 50.0

    def test_p_must_exceed_one(self):
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.1,
                           values=np.linspace(0, 1, 8 * 32).reshape(8, 32))
        with pytest.raises(ValueError):
            ps.fefferman_stein_check(g, 1.0, 0.5)


class TestSharpBoundRatios:
    @pytest.mark.parametrize("d", [1, 2])
    def test_one_sharp_function_feeds_both_ratios(self, biharm, heat, d):
        sym = biharm if d == 1 else heat
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=20.0)
        f = ps.corpus_entry(grid, 16, 1)
        eta, delta0 = sym.order / 2, 1.0 / sym.order
        sup, fs = ps.verify_sharp_bound(sym, eta, f, 3.0)
        # oracle from public pieces: sharp(G) over sqrt(M_t M_x |f|_H^2);
        # the RMS oscillation ignores the mean removed inside the route
        G = ps.square_function(sym, eta, f)
        density = ps.Field(grid, np.sum(np.abs(f.values) ** 2, axis=1))
        w = ps.maximal_time(ps.maximal_space(density)).values
        sharp = ps.sharp_function(G, delta0).values
        want = np.max(np.where(w > 0, sharp / np.sqrt(np.where(w > 0, w, 1.0)), 0.0))
        assert sup == pytest.approx(want, rel=1e-13)
        assert fs == ps.fefferman_stein_check(G, 3.0, delta0)

    def test_constant_field_and_small_p_raise(self, heat):
        # a nonzero constant field has a constant G: nothing oscillates
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        const = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.05,
                                  values=np.full((16, 1, 32), 3.0 + 0j))
        with pytest.raises(ps.DegenerateFieldError):
            ps.verify_sharp_bound(heat, 1.0, const, 2.0)
        f = ps.corpus_entry(grid, 8, 0)
        with pytest.raises(ValueError):
            ps.verify_sharp_bound(heat, 1.0, f, 1.0)
