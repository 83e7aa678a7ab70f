"""Square function, space-time norms, the elliptic ratio, and rescaling."""

import numpy as np
import pytest

import paleyscope as ps
from paleyscope import squarefn

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


def _single_mode(grid, nt, t_window, mode=4):
    """Pure frequency mode held constant over the whole window."""
    xi0 = 2 * np.pi * mode / grid.L
    vals = np.exp(1j * xi0 * grid.x_axis())[None, None, :] * np.ones(
        (nt, 1, 1))
    return ps.SpaceTimeField(
        grid=grid, t0=0.0, dt=t_window / (nt - 1), values=vals), xi0


class TestSquareFunction:
    @pytest.mark.parametrize("sym", [
        ps.PolyFormSymbol(m=2, coeffs={((2,), (2,)): ([0.0, 0.5], [1.0, 2.0])},
                          nu=0.5),
        ps.LevySymbol(k=0, gamma=0.5, d=1,
                      density=([0.0, 0.5], [[1.0, 1.0], [0.5, 0.5]])),
    ], ids=["biharmonic", "levy"])
    def test_matches_slice_by_slice_kernel_oracle(self, sym):
        # G f(t_i)^2 = sum_{j<i} |K(t_i, s_{j+1}) sqrt(W_j) * f(s_j)|^2 with
        # every kernel tabulated from its own time integral; the step 0.11
        # puts the symbol's breakpoint 0.5 inside a step
        grid = ps.SpaceGrid(d=1, n=16, L=20.0)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((9, 2, 16)) + 1j * rng.standard_normal((9, 2, 16))
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.11, values=vals)
        eta = sym.order / 2
        t = f.times()
        weight = cell_weights(sym, t, grid)
        want = np.zeros((9, 16))
        for i in range(1, 9):
            for j in range(i):
                km = ps.kernel_hat(sym, t[j + 1], t[i], eta, grid) * np.sqrt(weight[j])
                amp = ps.to_space(grid, ps.to_frequency(ps.Field(grid, vals[j])) * km)
                want[i] += np.sum(np.abs(amp) ** 2, axis=0)
        got = ps.square_function(sym, eta, f).values
        np.testing.assert_allclose(got, np.sqrt(want), rtol=1e-12)

    def test_first_slice_is_zero(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        g = ps.square_function(heat, 1.0, f)
        assert np.all(g.values[0] == 0.0)
        assert np.all(g.values >= 0.0)

    def test_single_mode_matches_closed_form(self, grid, heat):
        # |K*f|(t,s) = |xi0| exp(-xi0^2 (t-s)) uniformly in x, so the
        # squared output is the explicit integral (1 - exp(-2 xi0^2 t))/2,
        # which the cell weights of a field constant in time sum exactly.
        f, xi0 = _single_mode(grid, 2048, 1.0)
        g = ps.square_function(heat, 1.0, f)
        t = f.times()
        expected = np.sqrt((1.0 - np.exp(-2 * xi0 ** 2 * t)) / 2.0)
        err = np.max(np.abs(g.values - expected[:, None]))
        assert err < 1e-12

    def test_channels_add_in_quadrature(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        doubled = ps.SpaceTimeField(
            grid=grid, t0=f.t0, dt=f.dt,
            values=np.concatenate([f.values, f.values], axis=1))
        g1 = ps.square_function(heat, 1.0, f)
        g2 = ps.square_function(heat, 1.0, doubled)
        np.testing.assert_allclose(
            g2.values, np.sqrt(2.0) * g1.values, rtol=1e-12)

    def test_zero_slices_extend_causally(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        pad = np.zeros((3,) + f.values.shape[1:], dtype=complex)
        fe = ps.SpaceTimeField(
            grid=grid, t0=f.t0 - 3 * f.dt, dt=f.dt,
            values=np.concatenate([pad, f.values], axis=0))
        ge = ps.square_function(heat, 1.0, fe)
        g = ps.square_function(heat, 1.0, f)
        np.testing.assert_allclose(ge.values[3:], g.values, atol=1e-13)

    def test_negative_eta_rejected(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        with pytest.raises(ValueError):
            ps.square_function(heat, -0.5, f)


def _square_function_reference(sym, eta, f):
    """G f by the direct per-time loop: every exp(I[i] - I[j+1]) formed anew,
    the cell weights W_j from their per-sub-cell closed form, every (i, j)
    pair transformed on its own multiplier."""
    g = f.grid
    ref = grid_arrays(sym, f)
    riesz = ps.fractional_multiplier(g, eta)
    weight = cell_weights(sym, f.times(), g)
    out = np.zeros((f.nt,) + g.shape)
    for i in range(1, f.nt):
        # row j < i enters at t_{j+1}
        mult = riesz * exp_decay(ref.integrals, i, i + 1)[1:] * np.sqrt(weight[:i])
        amp = ps.to_space(g, mult[:, None, ...] * ref.fhat[:i])
        out[i] = np.sqrt(np.sum(np.abs(amp) ** 2, axis=(0, 1)))
    return out


class TestCarriedRecursion:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", [0, 1, 2],
                             ids=["fractional", "polyform", "levy"])
    @pytest.mark.parametrize("eta_scale", [0.0, 0.5])
    def test_matches_the_direct_loop(self, d, family, eta_scale):
        # the step 0.07 puts the symbols' breakpoint 0.5 inside a step
        sym = two_piece_families(d)[family]
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        rng = np.random.default_rng(5 + d)
        shape = (13, 3) + grid.shape
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.07, values=vals)
        eta = eta_scale * sym.order
        got = ps.square_function(sym, eta, f).values
        np.testing.assert_allclose(got, _square_function_reference(sym, eta, f),
                                   rtol=1e-12)


def _assert_routes_match_reference(sym, eta, f):
    """Both routes of square_function against the direct loop: rtol 1e-12,
    atol 1e-12 max G."""
    want = _square_function_reference(sym, eta, f)
    for route in (squarefn._support_route, squarefn._fft_route):
        got = route(ps.Propagator(sym, f), eta)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max(),
                                   err_msg=route.__name__)


def _on_modes(grid, nt, modes, seed=0):
    """Random two-channel field whose transform lives on the flat ``modes``."""
    rng = np.random.default_rng(seed)
    fhat = np.zeros((nt, 2, grid.n ** grid.d), complex)
    fhat[..., modes] = (rng.standard_normal((nt, 2, len(modes)))
                        + 1j * rng.standard_normal((nt, 2, len(modes))))
    return ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.07,
                             values=ps.to_space(grid, fhat.reshape((nt, 2) + grid.shape)))


@pytest.fixture()
def route_log(monkeypatch):
    """Names of the routes square_function takes, in call order."""
    taken = []
    for name in ("_support_route", "_fft_route"):
        real = getattr(squarefn, name)

        def logged(*args, _real=real, _name=name):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(squarefn, name, logged)
    return taken


class TestSupportRoute:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", [0, 1, 2],
                             ids=["fractional", "polyform", "levy"])
    @pytest.mark.parametrize("entry", [0, 1])
    def test_corpus_matches_the_direct_loop(self, d, family, entry):
        sym = two_piece_families(d)[family]
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(grid, 12, entry, t_window=0.77)
        prop = ps.Propagator(sym, f)
        assert prop.support.size == (8 if d == 1 else 80)
        _assert_routes_match_reference(sym, sym.order / 2, f)

    @pytest.mark.parametrize("d", [1, 2])
    def test_an_out_of_band_mode_enters_the_support(self, d):
        sym = two_piece_families(d)[0]
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        f = ps.corpus_entry(grid, 12, 1, t_window=0.77)
        mode = 7 if d == 1 else np.ravel_multi_index((6, 10), grid.shape)
        g = with_out_of_band_mode(f, mode)
        support = ps.Propagator(sym, g).support
        assert mode in support
        assert support.size == ps.Propagator(sym, f).support.size + 1
        _assert_routes_match_reference(sym, sym.order / 2, g)

    def test_a_mode_that_fills_a_small_slice_enters_the_support(self, heat):
        # each slice is its own FFT: mode 3 holds all of slices 1-7 at 1e-15
        # of mode 5's slices 8-14, and must not be judged against them
        grid = ps.SpaceGrid(d=1, n=32, L=10.0)
        wave = lambda k: np.exp(2j * np.pi * k * grid.x_axis() / grid.L)
        vals = np.zeros((16, 1, 32), complex)
        vals[1:8, 0] = 1e-15 * wave(3)
        vals[8:15, 0] = wave(5)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.05, values=vals)
        assert list(ps.Propagator(heat, f).support) == [3, 5]
        np.testing.assert_allclose(ps.square_function(heat, 1.0, f).values,
                                   _square_function_reference(heat, 1.0, f), rtol=1e-12)

    def test_zero_field_has_empty_support(self, heat):
        grid = ps.SpaceGrid(d=1, n=16, L=12.0)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.1,
                              values=np.zeros((5, 1, 16), complex))
        assert ps.Propagator(heat, f).support.size == 0
        assert np.all(ps.square_function(heat, 1.0, f).values == 0.0)

    def test_full_support_takes_the_fft_loop(self, route_log):
        sym = two_piece_families(1)[1]
        grid = ps.SpaceGrid(d=1, n=32, L=12.0)
        f = _on_modes(grid, 12, np.arange(32))
        assert ps.Propagator(sym, f).support.size == 32
        got = ps.square_function(sym, sym.order / 2, f).values
        assert route_log == ["_fft_route"]
        _assert_routes_match_reference(sym, sym.order / 2, f)
        np.testing.assert_array_equal(
            got, squarefn._fft_route(ps.Propagator(sym, f), sym.order / 2))

    @pytest.mark.parametrize("d, m, route", [
        (1, 16, "_support_route"), (1, 17, "_fft_route"),
        (2, 32, "_support_route"), (2, 33, "_fft_route"),
    ])
    def test_the_crossover_is_m_squared_at_nt_n_to_the_d(self, route_log, d, m, route):
        # nt n^d is 256 at d = 1 (n = 32, nt = 8) and 1024 at d = 2 (n = 16, nt = 4)
        sym = two_piece_families(d)[2]
        n, nt = (32, 8) if d == 1 else (16, 4)
        grid = ps.SpaceGrid(d=d, n=n, L=12.0)
        modes = np.random.default_rng(m).choice(n ** d, m, replace=False)
        f = _on_modes(grid, nt, modes, seed=d)
        assert ps.Propagator(sym, f).support.size == m
        ps.square_function(sym, sym.order / 2, f)
        assert route_log == [route]
        _assert_routes_match_reference(sym, sym.order / 2, f)


def _oracle_support_route(prop, eta):
    """The support route step by step: per time, the gain e e^*, the channel
    sum a a^* and one scatter of the carried covariance."""
    g = prop.grid
    size = g.n ** g.d
    nt = prop.fhat.shape[0]
    keep, e = prop.support, prop.step
    a = prop.held(prop.columns(ps.fractional_multiplier(g, eta) * g.inverse_factor))
    modes = np.unravel_index(keep, g.shape)
    delta = np.ravel_multi_index([(ax[:, None] - ax[None, :]) % g.n for ax in modes],
                                 g.shape)
    slots = (2 * delta[..., None] + np.arange(2)).ravel()
    scattered = np.zeros((nt, 2 * size))
    carried = np.zeros((keep.size,) * 2, dtype=complex)
    for i in range(1, nt):
        carried *= np.multiply.outer(e[i - 1], e[i - 1].conj())
        carried += np.einsum("ka,kb->ab", a[i - 1], a[i - 1].conj())
        scattered[i] = np.bincount(slots, weights=carried.view(float).ravel(),
                                   minlength=2 * size)
    axes = tuple(range(-g.d, 0))
    sq = np.fft.ifftn(scattered.view(complex).reshape((nt,) + g.shape),
                      axes=axes).real / size
    return np.sqrt(np.maximum(sq, 0.0))


class TestSupportRouteAgainstTheStepLoop:
    """The chunked support route holds the bits of the step-by-step loop."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("entry", [0, 1], ids=["K1", "K3"])
    @pytest.mark.parametrize("support", ["narrow", "full"])
    @pytest.mark.parametrize("steps", [1, 5, None], ids=["chunk1", "chunk5", "default"])
    def test_array_equal(self, monkeypatch, d, entry, support, steps):
        # 12 times take 11 steps: chunks of 5 leave a short last chunk
        sym = two_piece_families(d)[1]
        grid = ps.SpaceGrid(d=d, n=16, L=12.0)
        f = ps.corpus_entry(grid, 12, entry, t_window=0.77)
        if support == "full":
            rng = np.random.default_rng(40 + d)
            noise = rng.standard_normal(f.values.shape) + 1j * rng.standard_normal(
                f.values.shape)
            f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=f.dt, values=f.values + noise)
        prop = ps.Propagator(sym, f)
        assert f.k_h == (1 if entry == 0 else 3)
        assert (prop.support.size == grid.n ** d) == (support == "full")
        if steps is not None:
            monkeypatch.setattr(squarefn, "_CHUNK_BYTES", steps * 16 * prop.support.size ** 2)
        eta = sym.order / 2
        np.testing.assert_array_equal(squarefn._support_route(prop, eta),
                                      _oracle_support_route(prop, eta))


class TestParsevalNorm:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", [0, 1, 2],
                             ids=["fractional", "polyform", "levy"])
    @pytest.mark.parametrize("eta_scale", [0.0, 0.5])
    def test_matches_the_square_function_route(self, d, family, eta_scale):
        # the step 0.07 puts the symbols' breakpoint 0.5 inside a step
        sym = two_piece_families(d)[family]
        grid = ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0)
        rng = np.random.default_rng(11 + d)
        shape = (13, 2) + grid.shape
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=0.07, values=vals)
        eta = eta_scale * sym.order
        want = ps.lp_space_time_norm(ps.square_function(sym, eta, f), 2.0)
        assert squarefn._l2(ps.Propagator(sym, f), eta) == pytest.approx(want, rel=1e-12)

    def test_lp_ratio_takes_p2_from_parseval(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        rep = ps.lp_ratio(heat, 1.0, f, 2.0)
        assert rep.norm_G == squarefn._l2(ps.Propagator(heat, f), 1.0)
        want = ps.lp_space_time_norm(ps.square_function(heat, 1.0, f), 2.0)
        assert rep.norm_G == pytest.approx(want, rel=1e-12)

    def test_negative_eta_rejected(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        for p in (2.0, 3.0):
            with pytest.raises(ValueError, match="eta"):
                ps.lp_ratio(heat, -0.5, f, p)


def _grid_constant(sym, eta, grid, dt, nt):
    """Squared norm of the grid's p = 2 map f -> G f from t_0 = 0.

    By Parseval the map is diagonal in the mode and, per mode, sends the
    held slices q_j = |fhat_j|^2 to sum_i B_i; slice j counts
    |xi|^(2 eta) W_j R_j times, R_j = sum_{i > j} |exp(I[i] - I[j+1])|^2,
    which one backward pass over the step factors forms.
    """
    f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=dt,
                          values=np.zeros((nt, 1) + grid.shape, complex))
    ref = grid_arrays(sym, f)
    riesz2 = ps.fractional_multiplier(grid, eta) ** 2
    gain = np.abs(ref.step) ** 2
    R = np.ones(grid.shape)
    worst = np.max(riesz2 * ref.weight[nt - 2])
    for j in range(nt - 3, -1, -1):
        R = 1.0 + gain[j + 1] * R
        worst = max(worst, np.max(riesz2 * ref.weight[j] * R))
    return worst


_BENCH_BIHARMONIC = ps.PolyFormSymbol(
    m=2, coeffs={((2,), (2,)): ([0.0, 0.5], [1.0, 2.0])}, nu=0.5)
_DEFECT_B_LEVY = ps.LevySymbol(k=0, gamma=0.5, d=2, nodes=8,
                               density=([0.0, 0.5], [[1.0] * 8, [0.5] * 8]))


class TestGridConstant:
    @pytest.mark.parametrize("sym, grid, nt", [
        *[(two_piece_families(d)[k], ps.SpaceGrid(d=d, n=32 if d == 1 else 16, L=12.0), 40)
          for d in (1, 2) for k in range(3)],
        (_BENCH_BIHARMONIC, ps.SpaceGrid(d=1, n=128, L=20.0), 128),
        (_DEFECT_B_LEVY, ps.SpaceGrid(d=2, n=32, L=20.0), 32),
    ], ids=["fractional-1", "polyform-1", "levy-1", "fractional-2", "polyform-2",
            "levy-2", "bench-biharmonic", "defect-b-levy"])
    def test_p2_map_stays_under_the_decay_constant(self, sym, grid, nt):
        # ||G f||_2^2 <= C0 ||f||_2^2 on the grid for every f, with C0 the sup
        # over the grid's modes and over start times; the steps 0.07,
        # 1/127 and 1/31 put the breakpoint 0.5 inside a step
        dt = 0.07 if nt == 40 else 1.0 / (nt - 1)
        eta = sym.order / 2
        xi = grid.xi_grid().reshape(-1, grid.d)
        c0 = ps.verify_assumption1(sym, eta, xi)
        assert _grid_constant(sym, eta, grid, dt, nt) <= c0 * (1 + 1e-12)


class TestNorms:
    def test_hand_value_for_ones(self, grid):
        f = ps.SpaceTimeField(
            grid=grid, t0=0.0, dt=0.5, values=np.ones((3, 1, 64), complex))
        # sum dt h |f|^2 = 3 * 0.5 * 20
        assert ps.lp_space_time_norm(f, 2.0) == pytest.approx(np.sqrt(30.0))
        assert ps.lp_space_time_norm(f, 4.0) == pytest.approx(30.0 ** 0.25)

    def test_channels_enter_through_their_length(self, grid):
        f = ps.SpaceTimeField(
            grid=grid, t0=0.0, dt=0.5, values=np.ones((3, 4, 64), complex))
        # ell_2 over 4 unit channels has length 2
        assert ps.lp_space_time_norm(f, 2.0) == pytest.approx(
            2.0 * np.sqrt(30.0))

    def test_report_fields(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        rep = ps.lp_ratio(heat, 1.0, f, 2.0)
        assert rep.p == 2.0
        assert (rep.d, rep.n, rep.nt) == (1, 64, 16)
        assert rep.ratio == pytest.approx(rep.norm_G / rep.norm_f)

    def test_zero_input_raises(self, grid, heat):
        f = ps.SpaceTimeField(
            grid=grid, t0=0.0, dt=0.1, values=np.zeros((4, 1, 64), complex))
        with pytest.raises(ps.DegenerateFieldError):
            ps.lp_ratio(heat, 1.0, f, 2.0)


class TestEllipticRatio:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_p2_ratio_squared_is_half(self, grid, gamma):
        rng = np.random.default_rng(9)
        f = ps.Field(grid=grid, values=(rng.standard_normal((1, 64))
                                        + 1j * rng.standard_normal((1, 64))))
        rep = ps.elliptic_square_function(f, gamma, 2.0)
        assert rep.ratio ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_p4_ratio_is_finite_and_positive(self, grid):
        rng = np.random.default_rng(10)
        f = ps.Field(grid=grid, values=rng.standard_normal((1, 64)) + 0j)
        rep = ps.elliptic_square_function(f, 2.0, 4.0)
        assert 0.0 < rep.ratio < 10.0

    def test_constant_input_raises(self, grid):
        f = ps.Field(grid=grid, values=np.ones((1, 64), complex))
        with pytest.raises(ps.DegenerateFieldError):
            ps.elliptic_square_function(f, 2.0, 2.0)


def scaling_check(sym, f, c):
    """Relative discrepancy of G under the parabolic rescaling of order gamma.

    Rescaling space by 1/c and time by c^(-gamma) maps the grid (L, dt, t0)
    to (L/c, dt/c^gamma, t0/c^gamma) while keeping the same value array; the
    square function is invariant under this map because the kernel picks up
    c^(gamma/2) per amplitude while the time measure contributes c^(-gamma),
    which cancel inside the square root.  Requires a time-independent
    single-piece symbol so the rescaled symbol equals the original.
    """
    if not getattr(sym, "time_independent", False):
        raise ValueError("scaling check requires a time-independent symbol")
    gamma = sym.order
    eta = gamma / 2.0
    g = f.grid
    G1 = ps.square_function(sym, eta, f)
    g2 = ps.SpaceGrid(d=g.d, n=g.n, L=g.L / c)
    f2 = ps.SpaceTimeField(grid=g2, t0=f.t0 / c ** gamma, dt=f.dt / c ** gamma,
                           values=f.values)
    G2 = ps.square_function(sym, eta, f2)
    return float(np.max(np.abs(G2.values - G1.values)) / np.max(G1.values))


class TestScalingCheck:
    def test_identity_rescale_is_exact(self, grid, heat):
        f = ps.corpus_entry(grid, 16, 0)
        assert scaling_check(heat, f, 1.0) == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_parabolic_covariance(self, grid, gamma):
        sym = ps.FractionalSymbol(gamma=gamma, a=1.0, nu=0.5)
        f = ps.corpus_entry(grid, 16, 0)
        assert scaling_check(sym, f, 2.0) < 1e-13

    def test_time_dependent_symbol_rejected(self, grid):
        sym = ps.FractionalSymbol(
            gamma=2.0, a=([0.0, 0.5], [1.0, 1.5]), nu=0.5)
        f = ps.corpus_entry(grid, 16, 0)
        with pytest.raises(ValueError):
            scaling_check(sym, f, 2.0)
