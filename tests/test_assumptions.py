"""Exponent algebra, envelopes, moment ladders, and the decay constant."""

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import paleyscope as ps

from conftest import quad_profile


class TestFractions:
    def test_as_fraction_forms(self):
        assert ps.as_fraction(3) == Fraction(3)
        assert ps.as_fraction("2/3") == Fraction(2, 3)
        assert ps.as_fraction(0.5) == Fraction(1, 2)
        assert ps.as_fraction(Fraction(7, 4)) == Fraction(7, 4)
        with pytest.raises(TypeError):
            ps.as_fraction(None)

    def test_c3_delta0_frozen_values(self):
        c3, delta0 = ps.derive_c3_delta0(1, 1)
        assert (c3, delta0) == (Fraction(11, 6), Fraction(1, 6))
        c3, delta0 = ps.derive_c3_delta0(2, 1)
        assert (c3, delta0) == (Fraction(5, 2), Fraction(1, 2))

    def test_c2_lower_bound(self):
        with pytest.raises(ValueError):
            ps.derive_c3_delta0(Fraction(1, 2), 1)

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(1, 200),
        den=st.integers(1, 50),
        d=st.integers(1, 4),
    )
    def test_delta0_closed_form(self, num, den, d):
        c2 = Fraction(1, 2) + Fraction(num, den)
        _, delta0 = ps.derive_c3_delta0(c2, d)
        assert delta0 == (2 * c2 - 1) / (2 * (d + 2))

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.fractions(), b=st.fractions(), c=st.fractions(),
        e=st.fractions(), d=st.integers(1, 3),
    )
    def test_theta_is_linear(self, a, b, c, e, d):
        assert ps.theta(a + b, c + e, d) == ps.theta(a, c, d) + ps.theta(b, e, d)


class TestAdmissibility:
    def test_known_cases(self):
        assert ps.mu_admissible(3.2, 1)
        assert not ps.mu_admissible(8, 1)
        assert ps.mu_admissible(8, 10)
        assert not ps.mu_admissible(4, 1)  # block boundary is closed below
        assert ps.mu_admissible(Fraction(39, 10), 1)

    def test_blocks_in_the_plane(self):
        # d = 2 admits [0, 6)
        assert ps.mu_admissible(Fraction(59, 10), 2)
        assert not ps.mu_admissible(6, 2)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ps.mu_admissible(0, 1)


def _free_mu_from_zero(d, upper):
    """Reference scan of the admissibility blocks from q = 0 up to the window."""
    lower, upper = Fraction(d + 2), Fraction(upper)
    if upper <= lower:
        return None
    cap = d // 2 + 2
    q = 0
    while 4 * q < upper:
        for block_lo, block_hi, need in ((4 * q, 4 * q + 2, 2 * q + 1),
                                         (4 * q + 2, 4 * q + 4, 2 * q + 2)):
            lo, hi = max(Fraction(block_lo), lower), min(Fraction(block_hi), upper)
            if need <= cap and hi > lo:
                return (lo + hi) / 2
        q += 1
    return None


class TestFreeMu:
    @pytest.mark.parametrize("gamma", [Fraction(1, 3), Fraction(1, 2), 1,
                                       Fraction(3, 2), 2, 4, 10])
    def test_matches_the_scan_from_zero(self, gamma):
        from paleyscope.assumptions import _free_mu
        for d in range(1, 60):
            uppers = [gamma + d + 2, gamma + d + 4, 3 * gamma + d + 2, d + 6,
                      d + 2, Fraction(4 * d + 1, 4)]
            for upper in uppers:
                assert _free_mu(d, upper) == _free_mu_from_zero(d, upper), (d, upper)

    def test_huge_dimension_returns_at_once(self):
        # the scan starts at the block holding d + 2, so d = 10^9 costs a
        # few steps; scanning from q = 0 would take hours, so the call runs
        # in a daemon thread and a slow scan fails rather than hangs
        out = []
        worker = threading.Thread(
            target=lambda: out.append(ps.theorem_exponents(2, 10 ** 9)), daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "theorem_exponents(2, 10**9) still runs after 5 s"
        assert out[0].mu == (Fraction(10 ** 9 + 3),) * 3


class TestTheoremExponents:
    def test_heat_line_instantiation(self):
        ke = ps.theorem_exponents(2, 1)
        assert ke.c2 == Fraction(2)
        assert ke.c3 == Fraction(5, 2)
        assert ke.delta0 == Fraction(1, 2)
        assert ke.kappa == (Fraction(1, 2),) * 3
        assert ke.sigma == (Fraction(3, 2), Fraction(2), Fraction(5, 2))
        assert ke.mu == (Fraction(7, 2),) * 3
        assert ke.mu_upper == (Fraction(5), Fraction(7), Fraction(9))
        assert ke.is_valid

    def test_free_exponents_sit_in_admissible_pieces(self):
        ke = ps.theorem_exponents(Fraction(1, 2), 1)
        assert ke.mu == (Fraction(13, 4), Fraction(7, 2), Fraction(7, 2))
        for mu in ke.mu:
            assert mu > 3 and ps.mu_admissible(mu, 1)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), 1, 2, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_row_identities_hold_exactly(self, gamma, d):
        ke = ps.theorem_exponents(gamma, d)
        for name in ("c3_formula", "delta0_gamma", "theta_row1",
                      "theta_row2", "theta_row3", "theta_c3", "theta_c2"):
            assert ke.valid[name], name

    def test_solved_row_can_be_inadmissible(self):
        # delta0 - kappa = 1/2 with rhs 2 forces mu = 4, outside the
        # admissible set on the line
        ke = ps.KernelExponents(
            d=1, c2=Fraction(2), c3=Fraction(5, 2), delta0=Fraction(1, 2),
            kappa=(Fraction(0),) * 3,
            sigma=(Fraction(1, 4), Fraction(7, 8), Fraction(5, 2)))
        out = ps.solve_mu(ke)
        assert out.mu[0] == Fraction(4)
        assert not out.valid["mu1"]
        assert not out.is_valid

    def test_degenerate_row_with_nonzero_rhs_is_flagged(self):
        ke = ps.KernelExponents(
            d=1, c2=Fraction(2), c3=Fraction(5, 2), delta0=Fraction(1, 2),
            kappa=(Fraction(1, 2),) * 3,
            sigma=(Fraction(1), Fraction(2), Fraction(5, 2)))
        out = ps.solve_mu(ke)
        assert out.mu[0] is None
        assert not out.valid["row1"]


def _envelopes_term_by_term(sym, gamma, grid, s, t):
    """Reference (f1, f2, f3): one inverse transform per derivative term,
    each |.| added in axis order."""
    scale = (t - s) ** (-1.0 / gamma)
    xi = grid.xi_grid()
    base = ps.fractional_multiplier(grid, gamma / 2.0) * np.exp(
        sym.time_integral(s, t, xi * scale))
    mixed = (t - s) * sym.eval(t, xi * scale) * base
    f1, f2, f3 = (np.zeros(grid.shape) for _ in range(3))
    for i in range(grid.d):
        f1 += np.abs(ps.to_space(grid, xi[..., i] * base))
        for j in range(grid.d):
            f2 += np.abs(ps.to_space(grid, xi[..., i] * xi[..., j] * base))
        f3 += np.abs(ps.to_space(grid, xi[..., i] * mixed))
    return f1, f2, f3


class TestEnvelopes:
    def test_shapes_and_positivity(self, heat):
        grid = ps.SpaceGrid(d=1, n=256, L=20.0)
        env = ps.synthesize_envelopes(heat, 2.0, grid, 0.0, 1.0)
        for F in (env.f1, env.f2, env.f3):
            assert F.values.shape == (1, 256)
            assert np.all(F.values.real >= 0.0)
            assert np.all(F.values.imag == 0.0)
        assert env.m_values.shape == (256,)

    def test_window_independence_for_time_independent_symbols(self, heat):
        # the rescaled argument removes every trace of (s, t)
        grid = ps.SpaceGrid(d=1, n=256, L=20.0)
        a = ps.synthesize_envelopes(heat, 2.0, grid, 0.0, 1.0)
        b = ps.synthesize_envelopes(heat, 2.0, grid, 0.3, 0.8)
        np.testing.assert_allclose(a.f1.values, b.f1.values, rtol=1e-12)
        np.testing.assert_allclose(a.f3.values, b.f3.values, rtol=1e-12)

    def test_reversed_window_rejected(self, heat):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        with pytest.raises(ValueError):
            ps.synthesize_envelopes(heat, 2.0, grid, 1.0, 0.5)

    @pytest.mark.parametrize("d, n", [(1, 64), (1, 128), (2, 32), (2, 64)])
    @pytest.mark.parametrize("family", ["heat", "two-piece", "biharmonic"])
    def test_one_stacked_transform_keeps_every_bit(self, heat, d, n, family):
        sym = {"heat": heat,
               "two-piece": ps.FractionalSymbol(
                   1.5, a=([0.0, 0.4], [1.0 + 0.3j, 0.8 - 0.2j]), nu=0.5),
               "biharmonic": ps.FractionalSymbol(
                   4.0, a=([0.0, 0.5], [1.0, 1.5]), nu=0.5)}[family]
        grid = ps.SpaceGrid(d=d, n=n, L=20.0)
        env = ps.synthesize_envelopes(sym, sym.order, grid, 0.2, 0.9)
        want = _envelopes_term_by_term(sym, sym.order, grid, 0.2, 0.9)
        for got, ref in zip((env.f1, env.f2, env.f3), want):
            np.testing.assert_array_equal(got.values, ref[None].astype(complex))

    def test_envelopes_go_through_one_inverse_transform(self, heat, monkeypatch):
        # the module's binding is wrapped: one call per envelope family,
        # holding the d first, d^2 second and d mixed terms
        from paleyscope import assumptions, spectral
        assert assumptions.to_space is spectral.to_space
        calls = []

        def counted(grid, values, out=None):
            calls.append(values.shape)
            return spectral.to_space(grid, values, out=out)

        monkeypatch.setattr(assumptions, "to_space", counted)
        for d in (1, 2):
            grid = ps.SpaceGrid(d=d, n=16, L=20.0)
            ps.synthesize_envelopes(heat, 2.0, grid, 0.0, 1.0)
            assert calls == [(2 * d + d * d,) + grid.shape]
            calls.clear()

    def test_planar_second_derivatives_count_pairs(self, heat):
        grid = ps.SpaceGrid(d=2, n=32, L=20.0)
        env = ps.synthesize_envelopes(heat, 2.0, grid, 0.0, 1.0)
        assert env.f1.values.shape == (1, 32, 32)
        assert env.f2.values.shape == (1, 32, 32)


class TestMomentIntegral:
    def test_matches_adaptive_quadrature(self):
        grid = ps.SpaceGrid(d=1, n=4096, L=40.0)
        x = grid.x_axis()
        F = ps.Field(grid=grid, values=np.exp(-x ** 2 / 2)[None] + 0j)
        rep = ps.moment_integral(F, 2.5, cutoffs=[1.0])
        expected = 2 * quad(
            lambda r: r ** 2.5 * np.exp(-r ** 2), 1.0, 20.0)[0]
        # the inner cutoff slices a grid cell, an O(h) boundary effect
        assert rep.partials[0] == pytest.approx(expected, rel=5e-3)

    def test_default_ladder_converges_for_decaying_field(self):
        grid = ps.SpaceGrid(d=1, n=4096, L=40.0)
        x = grid.x_axis()
        F = ps.Field(grid=grid, values=np.exp(-np.abs(x))[None] + 0j)
        rep = ps.moment_integral(F, 3.5)
        assert rep.converged
        assert rep.rel_change < 1e-6
        assert len(rep.partials) == len(rep.cutoffs)
        # halving the cutoff only adds mass
        assert all(np.diff(rep.partials) >= 0)

    def test_origin_singularity_defeats_the_ladder(self):
        # |x|^{-2} overwhelms the |x|^{3.5} weight near zero, so shrinking
        # the inner cutoff keeps adding mass
        grid = ps.SpaceGrid(d=1, n=4096, L=40.0)
        x = grid.x_axis()
        v = np.zeros_like(x)
        mask = x != 0.0
        v[mask] = np.abs(x[mask]) ** -2.0
        rep = ps.moment_integral(ps.Field(grid=grid, values=v[None] + 0j), 3.5)
        assert not rep.converged

    def test_mu_must_be_positive(self):
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        F = ps.Field(grid=grid, values=np.ones((1, 64), complex))
        with pytest.raises(ValueError):
            ps.moment_integral(F, -1.0)


class TestDecayConstant:
    def test_piecewise_rate_has_closed_form(self):
        # rate 1 on [0, 1/2), then 3/2: the decay integral splits into
        # (1 - e^{-1})/2 + e^{-1}/3 at |xi| = 1, eta = gamma/2
        sym = ps.FractionalSymbol(
            gamma=2.0, a=([0.0, 0.5], [1.0, 1.5]), nu=0.5)
        expected = (1 - np.exp(-1.0)) / 2 + np.exp(-1.0) / 3
        prof = ps.assumption1_profile(sym, 1.0, [[1.0]])
        assert prof[0] == pytest.approx(expected, rel=1e-8)

    def test_start_time_enters_through_the_pieces(self):
        sym = ps.FractionalSymbol(
            gamma=2.0, a=([0.0, 0.5], [1.0, 1.5]), nu=0.5)
        # from s = 0.5 onward only the faster rate is active
        val = ps.verify_assumption1(sym, 1.0, [[1.0]], s=0.5)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_origin_contributes_nothing_for_positive_eta(self, heat):
        prof = ps.assumption1_profile(heat, 1.0, [[0.0], [1.0]])
        assert prof[0] == 0.0
        assert prof[1] == pytest.approx(0.5, rel=1e-8)

    def test_zero_eta_at_origin_is_infinite(self, heat):
        prof = ps.assumption1_profile(heat, 0.0, [[0.0]])
        assert np.isinf(prof[0])


PIECEWISE_SYMBOLS = {
    "complex-fractional-3": (
        ps.FractionalSymbol(gamma=1.5, nu=0.5, a=([0.0, 0.4, 1.0],
                                                 [1.0 + 0.5j, 1.6 - 0.3j, 0.8 + 0.2j])),
        [[0.25], [0.5], [1.0], [-1.5], [2.0]]),
    "first-break-after-s": (
        ps.FractionalSymbol(gamma=2.0, a=([0.5, 1.0], [1.0, 1.5]), nu=0.5),
        [[0.5], [1.0], [-2.0]]),
    "polyform-2": (
        ps.PolyFormSymbol(m=2, coeffs={((2,), (2,)): ([0.0, 0.5], [1.0, 2.0 - 0.4j])},
                          nu=0.4),
        [[0.5], [1.0], [-1.25]]),
    "levy-d2-k1": (
        ps.LevySymbol(k=1, gamma=0.5, d=2, nodes=16, density=(
            [0.0, 0.5], [1.0 + 0.5 * np.cos(2 * np.pi * np.arange(16) / 16),
                         np.full(16, 0.3)])),
        [[0.5, 0.1], [0.3, -0.6], [-1.0, 0.8]]),
    # c l rounds to 0 on the first piece, which must still add its length
    "levy-subnormal-rate": (
        ps.LevySymbol(k=0, gamma=1.0, d=1, N0=5e-324,
                      density=([0.0, 0.5], [[0.0, 5e-324], [0.0, 0.25]])),
        [[1.0], [-0.5]]),
}


@pytest.mark.parametrize("s", [-0.3, 0.2, 0.5, 1.7])
@pytest.mark.parametrize("name", sorted(PIECEWISE_SYMBOLS))
def test_decay_constant_matches_piecewise_quadrature(name, s):
    sym, xi = PIECEWISE_SYMBOLS[name]
    eta = sym.order / 2
    prof = ps.assumption1_profile(sym, eta, xi, s=s)
    want = [quad_profile(sym, eta, v, s) for v in xi]
    np.testing.assert_allclose(prof, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("s", [-0.3, 0.2, 0.5, 1.7])
@pytest.mark.parametrize("name", sorted(PIECEWISE_SYMBOLS))
def test_c0_is_the_sup_over_later_start_times(name, s):
    # the profile is monotone on each piece, so no start time after s
    # exceeds the max over s and the later breakpoints
    sym, xi = PIECEWISE_SYMBOLS[name]
    eta = sym.order / 2
    c0 = ps.verify_assumption1(sym, eta, xi, s=s)
    later = s + np.linspace(0.0, 2.5, 101)
    got = [ps.assumption1_profile(sym, eta, xi, s=t).max() for t in later]
    assert max(got) <= c0 * (1 + 1e-12)
    ends = [s, *(b for b in sym.breakpoints if b > s)]
    assert c0 == max(ps.assumption1_profile(sym, eta, xi, s=t).max() for t in ends)
