"""Maximal averages, parabolic sharp function, and the sup-ratio bound."""

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

import paleyscope as ps
from paleyscope.cli import build_symbol
from paleyscope import maximal
from paleyscope.maximal import (
    _ball_mask,
    _cylinder_cells,
    _default_r_ladder,
    _dense_ladder_max,
    _fs_ratio,
    _mean_removed,
    _sharp_core,
    _space_radius_ladder,
    _window_max,
    _window_means,
    _wrap_ball_means_nd,
)


def _sharp(g, delta0):
    """The parabolic sharp function of a SquareField, as an array.

    For each radius R = dt * 2^j up to the window length the cylinder spans
    round(R/dt) time cells and round(R^delta0/h) space cells.
    """
    return _sharp_core(g.values, g.grid, g.dt, delta0)


def _dilate(arr, grid, kt, ks):
    """Pointwise sup over the cylinders around each point, as _sharp_core
    dilates: the time pass, then one pass over the periodic ball."""
    arr = _window_max(arr, kt, 0, wrap=False)
    return (maximum_filter(arr, footprint=_ball_mask(grid.d, ks)[None], mode="wrap")
            if ks else arr)


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


# -- oracles: the ladders as they stood before the shared tables -------------
# One prefix table per call on the data moved to axis 0, one footprint
# filter per dilation, and both cylinder means recomputed for every radius.

def _oracle_window_means(arr, ks, axis, wrap=False, clipped=False):
    kmax = max(ks, default=0)
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    width = [(kmax, kmax)] + [(0, 0)] * (a.ndim - 1)
    c = np.cumsum(np.pad(a, width, mode="wrap" if wrap else "constant"),
                  axis=0, dtype=float)
    c = np.concatenate([np.zeros((1,) + a.shape[1:]), c])
    i = np.arange(n).reshape((n,) + (1,) * (a.ndim - 1))
    for k in ks:
        if k == 0:
            yield arr
            continue
        sums = c[kmax + k + 1: kmax + k + 1 + n] - c[kmax - k: kmax - k + n]
        size = (np.minimum(i + k, n - 1) - np.maximum(i - k, 0) + 1 if clipped
                else 2 * k + 1)
        yield np.moveaxis(sums / size, 0, axis)


def _oracle_ball_means(arr, ks, d):
    if d == 1:
        yield from _oracle_window_means(arr, ks, axis=-1, wrap=True)
        return
    shape = arr.shape[-d:]
    axes = tuple(range(-d, 0))
    arr_hat = np.fft.fftn(arr, axes=axes) if any(ks) else None
    for k in ks:
        if k == 0:
            yield arr
            continue
        mask = _ball_mask(d, k)
        kernel = np.zeros(shape)
        idx = np.meshgrid(*[np.arange(-k, k + 1) % s for s in shape], indexing="ij")
        np.add.at(kernel, tuple(ix[mask] for ix in idx), 1.0)
        khat = np.fft.fftn(kernel, axes=axes)
        yield np.fft.ifftn(arr_hat * khat, axes=axes).real / mask.sum()


def _oracle_dilate(arr, grid, kt, ks):
    """kt cells of -inf appended to time stop the wrap mode from wrapping it."""
    if kt == 0 and ks == 0:
        return arr
    box = np.broadcast_to(_ball_mask(grid.d, ks)[None],
                          (2 * kt + 1,) + (2 * ks + 1,) * grid.d)
    pad = np.full((kt,) + arr.shape[1:], -np.inf)
    padded = np.concatenate([arr, pad], axis=0)
    return maximum_filter(padded, footprint=box, mode="wrap")[:arr.shape[0]]


def _oracle_sharp_core(arr, grid, dt, delta0):
    def cylinder_means(a, kt, ks):
        spaced = next(_oracle_ball_means(a, [ks], grid.d))
        return next(_oracle_window_means(spaced, [kt], axis=0, clipped=True))

    out = np.zeros_like(arr)
    for R in _default_r_ladder(dt, arr.shape[0]):
        kt, ks = _cylinder_cells(grid, dt, R, delta0)
        e1 = cylinder_means(arr, kt, ks)
        e2 = cylinder_means(arr ** 2, kt, ks)
        osc = np.sqrt(np.maximum(e2 - e1 ** 2, 0.0))
        np.maximum(out, _oracle_dilate(osc, grid, kt, ks), out=out)
    return out


def _oracle_maximal(values, ladder, means):
    out = np.full_like(values, -np.inf)
    for m in means(values, ladder):
        np.maximum(out, m, out=out)
    return out


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
    explicit enumeration of the cylinders of ``_sharp_core``'s ladder.
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
        np.testing.assert_allclose(_sharp(g, 0.5), 0.0, atol=1e-13)

    def test_step_oscillates_near_the_jump(self):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        vals = np.zeros((32, 64))
        vals[:, :32] = 1.0
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.05, values=vals)
        out = _sharp(g, 0.5)
        assert np.max(out) > 0.1
        assert np.all(out >= 0.0)

    def test_mean_deviation_below_quadratic_oscillation(self):
        rng = np.random.default_rng(13)
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        vals = np.abs(rng.standard_normal((16, 32)))
        g = ps.SquareField(grid=grid, t0=0.0, dt=0.05, values=vals)
        l1 = _mean_deviation_sharp(g, 0.5)
        l2 = _sharp(g, 0.5)
        assert np.all(l1 <= l2 + 1e-12)
        assert np.all(l1 > 0)

    @pytest.mark.parametrize("kt,ks", [(0, 1), (1, 0), (2, 1), (3, 2), (7, 4)])
    def test_dilation_matches_neighbour_enumeration_in_2d(self, kt, ks):
        # every point takes the max over the cylinders around it: time
        # offsets clipped to the window, space offsets in the periodic ball
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


TWO_PIECE_BIHARMONIC = build_symbol({
    "family": "polyform", "m": 2, "nu": 0.5,
    "coeffs": [{"alpha": [2], "beta": [2],
                "breakpoints": [0.0, 0.5], "values": [1.0, 2.0]}]})


def _signed_data(d, n, nt, seed):
    """Mean-removed random data: both signs, as the sharp function sees G."""
    arr = np.random.default_rng(seed).standard_normal((nt,) + (n,) * d)
    return arr - arr.mean()


class TestSharedTablesAgainstTheOracles:
    """Every shared-table ladder holds the bits of the per-radius code."""

    @pytest.mark.parametrize("d,n,nt", [(1, 32, 40), (1, 128, 128), (2, 16, 12)])
    @pytest.mark.parametrize("L,delta0", [(20.0, 0.5), (200.0, 0.5), (1.0, 0.25),
                                          (20.0, 1.0)])
    def test_sharp_core(self, d, n, nt, L, delta0):
        # L = 200 keeps every ball at ks = 0; L = 1 pins the large ones at n/2
        grid = ps.SpaceGrid(d=d, n=n, L=L)
        dt = 1.0 / nt
        arr = _signed_data(d, n, nt, 31)
        cells = {_cylinder_cells(grid, dt, R, delta0) for R in _default_r_ladder(dt, nt)}
        if L == 200.0:
            assert {ks for _, ks in cells} == {0}
        if L == 1.0:
            assert max(ks for _, ks in cells) == n // 2
        for data in (arr, np.abs(arr)):
            np.testing.assert_array_equal(_sharp_core(data, grid, dt, delta0),
                                          _oracle_sharp_core(data, grid, dt, delta0))

    @pytest.mark.parametrize("d,n", [(1, 16), (1, 128), (2, 16), (2, 32)])
    def test_maximal_space_and_time(self, d, n):
        grid = ps.SpaceGrid(d=d, n=n, L=20.0)
        arr = _signed_data(d, n, 24, 32)
        space = ps.maximal_space(ps.Field(grid, arr)).values
        want = _oracle_maximal(arr, _space_radius_ladder(grid),
                               lambda v, ks: _oracle_ball_means(v, ks, d))
        np.testing.assert_array_equal(space, want)
        time = ps.maximal_time(ps.Field(grid, space)).values
        want = _oracle_maximal(space, range(space.shape[0]),
                               lambda v, ks: _oracle_window_means(v, ks, axis=0))
        np.testing.assert_array_equal(time, want)

    @pytest.mark.parametrize("d,n,nt", [(1, 16, 12), (2, 8, 6)])
    @pytest.mark.parametrize("kt", [0, 1, 3, 6, 12, 30])
    @pytest.mark.parametrize("ks", [0, 1, 4])
    def test_dilate(self, d, n, nt, kt, ks):
        # kt >= nt reaches past both ends; ks = n/2 wraps onto itself
        grid = ps.SpaceGrid(d=d, n=n, L=20.0)
        arr = _signed_data(d, n, nt, 33)
        np.testing.assert_array_equal(_dilate(arr, grid, kt, ks),
                                      _oracle_dilate(arr, grid, kt, ks))

    @pytest.mark.parametrize("nt", [2, 3, 128])
    @pytest.mark.parametrize("d", [1, 2])
    def test_time_pass_matches_maximum_filter(self, d, nt):
        # kt = nt - 1 already spans the data; nt and 3 nt reach past both ends
        arr = _signed_data(d, 6, nt, 37)
        for kt in (0, 1, nt - 1, nt, 3 * nt):
            want = maximum_filter(arr, size=(2 * kt + 1,) + (1,) * d,
                                  mode="constant", cval=-np.inf)
            np.testing.assert_array_equal(_window_max(arr, kt, 0, wrap=False), want,
                                          err_msg=f"kt = {kt}")

    @pytest.mark.parametrize("d,n", [(1, 16), (1, 15), (2, 16), (2, 12)])
    def test_ball_pass_matches_maximum_filter(self, d, n):
        # radii past n/2 cover the circle; past n they wrap onto themselves
        arr = _signed_data(d, n, 3, 41)
        for ks in sorted({0, 1, 2, 3, n // 4, n // 2 - 1, n // 2, n // 2 + 1, n}):
            want = maximum_filter(arr, footprint=_ball_mask(d, ks)[None], mode="wrap")
            np.testing.assert_array_equal(maximal.maximum_filter(arr, ks, d), want,
                                          err_msg=f"ks = {ks}")

    @pytest.mark.parametrize("block", [1, 3, 16, 1000])
    @pytest.mark.parametrize("axis,wrap", [(0, False), (-1, True), (-1, False)])
    @pytest.mark.parametrize("sign", ["signed", "nonnegative"])
    def test_blocked_dense_ladders(self, monkeypatch, block, axis, wrap, sign):
        # radii 0 .. 30 on axes of 7 and 11: blocks of 3 and 16 leave a short
        # last block, and radii past the axis tile the circle or reach past
        # both ends
        arr = _signed_data(1, 11, 7, 38)
        if sign == "nonnegative":
            arr = np.abs(arr)
        monkeypatch.setattr(maximal, "_BLOCK_BYTES", block * arr.nbytes)
        for kmax in (0, 1, 6, 10, 30):
            want = _oracle_maximal(arr, range(kmax + 1), lambda v, ks: _oracle_window_means(
                v, ks, axis, wrap=wrap))
            np.testing.assert_array_equal(_dense_ladder_max(arr, kmax, axis, wrap=wrap),
                                          want, err_msg=f"kmax = {kmax}")

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("wrap,clipped", [(True, False), (False, False),
                                              (False, True)])
    def test_window_ladders(self, axis, wrap, clipped):
        # radii 11 .. 40 exceed the axes (7, 9, 11): wrapped ones tile the
        # circle, zero-padded ones reach past both ends
        arr = _signed_data(1, 11, 7, 34).reshape(7, 1, 11) * np.ones((1, 9, 1))
        ladder = [0, 1, 2, 5, 11, 12, 40]
        got = _window_means(arr, ladder, axis, wrap=wrap, clipped=clipped)
        want = _oracle_window_means(arr, ladder, axis, wrap=wrap, clipped=clipped)
        for k, a, b in zip(ladder, got, want):
            np.testing.assert_array_equal(a, b, err_msg=f"k = {k}")

    def test_ladder_means_share_one_buffer(self):
        # with out= given every radius overwrites the one buffer
        arr = _signed_data(1, 11, 7, 35)
        out = np.empty_like(arr)
        for k, m in zip([1, 3], _window_means(arr, [1, 3], axis=0, out=out)):
            assert m is out
            np.testing.assert_array_equal(m, next(_oracle_window_means(arr, [k], 0)))

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_verify_sharp_bound_on_the_bench_symbol(self, entry):
        sym = TWO_PIECE_BIHARMONIC
        grid = ps.SpaceGrid(d=1, n=128, L=20.0)
        f = ps.corpus_entry(grid, 128, entry)
        eta, delta0 = sym.order / 2, 1.0 / sym.order
        h0 = _mean_removed(ps.square_function(sym, eta, f).values)
        sharp = _oracle_sharp_core(h0, grid, f.dt, delta0)
        density = np.sum(np.abs(f.values) ** 2, axis=1)
        w = _oracle_maximal(
            _oracle_maximal(density, _space_radius_ladder(grid),
                            lambda v, ks: _oracle_ball_means(v, ks, 1)),
            range(f.nt), lambda v, ks: _oracle_window_means(v, ks, axis=0))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(w > 0, sharp / np.sqrt(np.maximum(w, 0.0)), 0.0)
        want = (float(np.max(ratio)), _fs_ratio(h0, sharp, 2.0, grid.h, f.dt))
        assert ps.verify_sharp_bound(sym, eta, f, 2.0) == want

    def test_planar_sharp_function_transforms_the_pair_once(self, monkeypatch):
        real = np.fft.fftn
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counting)
        grid = ps.SpaceGrid(d=2, n=16, L=4.0)
        arr = _signed_data(2, 16, 16, 36)
        dt = 1.0 / 16
        _sharp_core(arr, grid, dt, 0.5)
        radii = {_cylinder_cells(grid, dt, R, 0.5)[1] for R in _default_r_ladder(dt, 16)}
        # the value and its square ride one transform; one kernel per radius
        assert shapes.count((2, 16, 16, 16)) == 1
        assert shapes.count((16, 16)) == len(radii - {0}) > 1


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

    @pytest.mark.parametrize("delta0", [np.nan, np.inf])
    def test_non_finite_delta0_is_refused(self, heat, delta0):
        # at t_window 8 the cylinder radii pass 1, where R^inf overflows
        grid = ps.SpaceGrid(d=1, n=32, L=20.0)
        f = ps.corpus_entry(grid, 16, 0, t_window=8.0)
        with pytest.raises(ValueError, match="delta0"):
            ps.verify_sharp_bound(heat, 1.0, f, 2.0, delta0=delta0)
        with pytest.raises(ValueError, match="delta0"):
            ps.fefferman_stein_check(ps.square_function(heat, 1.0, f), 2.0, delta0)


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
        sharp = _sharp(G, delta0)
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
