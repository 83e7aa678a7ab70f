"""End-to-end contract checks with pinned tolerances.

Each test is a self-contained property of the public API, ordered from
symbol-level constants through the square-function bounds to the Monte
Carlo diagnostics and the report determinism guarantee.
"""

import filecmp
import json
from fractions import Fraction

import numpy as np
import pytest

import paleyscope as ps
from paleyscope.cli import main

from conftest import XI_1D, XI_2D


def test_decay_constant_reaches_one_half(heat):
    """The squared-kernel time integral equals 1/2 for unit coefficients.

    With psi = -|xi|^gamma and eta = gamma/2 the substitution
    u = 2 |xi|^gamma (t - s) turns the integral into (1/2) int e^{-u} du,
    independently of xi, gamma, and the dimension.
    """
    for gamma in (0.5, 1.0, 2.0, 4.0):
        sym = ps.FractionalSymbol(gamma=gamma, a=1.0, nu=0.5)
        for xi_set in (XI_1D, XI_2D):
            profile = ps.assumption1_profile(sym, gamma / 2, xi_set)
            np.testing.assert_allclose(profile, 0.5, atol=1e-6)

    # a constant real part nu rescales the constant to 1/(2 nu)
    for gamma in (0.5, 2.0):
        sym = ps.FractionalSymbol(gamma=gamma, a=0.75 + 0.2j, nu=0.5)
        profile = ps.assumption1_profile(sym, gamma / 2, XI_1D)
        np.testing.assert_allclose(profile, 1.0 / (2 * 0.75), atol=1e-6)


@pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(1),
                                   Fraction(2), Fraction(4)])
@pytest.mark.parametrize("d", [1, 2])
def test_exponent_identities_exact(gamma, d):
    """All exponent identities hold with zero error in rational arithmetic."""
    ke = ps.theorem_exponents(gamma, d)
    assert ke.delta0 == 1 / gamma
    assert 1 + ps.theta(ke.kappa[0] + ke.delta0,
                        ke.sigma[0] - ke.delta0, d) == 0
    assert ps.theta(ke.kappa[1] - ke.delta0, ke.sigma[1] - ke.c2, d) == 0
    assert ps.theta(ke.kappa[2] - ke.delta0, ke.sigma[2] - ke.c3, d) == 0
    assert ps.theta(2 * ke.delta0, ke.c3 - ke.delta0, d) == -3
    assert ps.theta(2 * ke.delta0, ke.c2 - ke.delta0, d) == -2 * ke.delta0 - 1
    assert ke.is_valid


def test_kernel_synthesis_heat_and_semigroup(family_table):
    """Synthesized kernels match the periodized Gaussian and compose."""
    grid = ps.SpaceGrid(d=1, n=256, L=20.0)
    heat = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
    tau = 0.1
    K = ps.to_space(grid, ps.kernel_hat(heat, 0.0, tau, 0.0, grid))
    x = grid.x_axis()
    reference = np.zeros_like(x)
    for m in range(-6, 7):
        reference += (np.exp(-(x - grid.L * m) ** 2 / (4 * tau))
                      / np.sqrt(4 * np.pi * tau))
    assert np.max(np.abs(K - reference)) < 1e-8

    for _, sym in family_table:
        a = ps.kernel_hat(sym, 0.0, 0.3, 0.0, grid)
        b = ps.kernel_hat(sym, 0.3, 0.7, 0.0, grid)
        c = ps.kernel_hat(sym, 0.0, 0.7, 0.0, grid)
        rel = np.max(np.abs(a * b - c)) / np.max(np.abs(c))
        assert rel < 1e-10


def test_p2_ratio_bounded_and_saturated(family_table, corpus_ratio_data):
    """Every corpus ratio sits under sqrt(C0); one mode nearly attains it."""
    for name, sym in family_table:
        c0 = ps.verify_assumption1(sym, sym.order / 2, XI_1D)
        bound = np.sqrt(c0) + 1e-3
        ratios = [corpus_ratio_data[(name, 128)][(i, 2.0)] for i in range(20)]
        assert max(ratios) <= bound

    # a long-lived pure mode: T |xi0|^gamma = 15.8 >> 5, so the time
    # integral has fully saturated and the ratio must reach 99% of the bound
    grid = ps.SpaceGrid(d=1, n=64, L=20.0)
    heat = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
    xi0 = 2 * np.pi * 8 / grid.L
    nt, window, cutoff = 256, 3.0, 2.5
    dt = window / (nt - 1)
    live = (dt * np.arange(nt) <= cutoff).astype(float)
    vals = np.exp(1j * xi0 * grid.x_axis())[None, None, :] * live[:, None, None]
    f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=dt, values=vals)
    report = ps.lp_ratio(heat, 1.0, f, 2.0)
    assert cutoff * xi0 ** 2 >= 5.0
    assert report.ratio >= 0.99 * np.sqrt(0.5)
    assert report.ratio <= np.sqrt(0.5) + 1e-3


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_elliptic_ratio_is_exactly_half_at_p2(gamma):
    """The stationary whole-line ratio collapses to 1/2 for every order."""
    grid = ps.SpaceGrid(d=1, n=128, L=20.0)
    rng = np.random.default_rng(21)
    f = ps.Field(grid=grid, values=(rng.standard_normal((1, 128))
                                    + 1j * rng.standard_normal((1, 128))))
    report = ps.elliptic_square_function(f, gamma, 2.0)
    assert report.ratio ** 2 == pytest.approx(0.5, abs=1e-6)


def test_ratios_stable_under_grid_refinement(corpus_ratio_data):
    """Band-limited corpus ratios move by well under 10% from n=64 to 128."""
    for family in ("heat", "fractional", "biharmonic", "levy"):
        coarse = corpus_ratio_data[(family, 64)]
        fine = corpus_ratio_data[(family, 128)]
        for key, v64 in coarse.items():
            assert abs(fine[key] - v64) / v64 < 0.10


def test_sharp_bound_finite_stable_and_rescale_invariant(family_table):
    """The oscillation-to-maximal sup ratio is a robust grid invariant."""
    values = {}
    for name, sym in family_table:
        eta = sym.order / 2
        delta0 = 1.0 / sym.order
        for n in (64, 128):
            grid = ps.SpaceGrid(d=1, n=n, L=20.0)
            for i, f in enumerate(ps.make_corpus(grid, 128, count=20)):
                v, _ = ps.verify_sharp_bound(sym, eta, f, 2.0, delta0=delta0)
                assert np.isfinite(v) and v > 0.0
                values[(name, n, i)] = v
        for i in range(20):
            a, b = values[(name, 64, i)], values[(name, 128, i)]
            assert abs(b - a) / a < 0.20

    # shrinking space by c and time by c^gamma relabels the same cells
    c = 2.0
    for name, sym in family_table:
        gamma = sym.order
        grid = ps.SpaceGrid(d=1, n=64, L=20.0)
        scaled_grid = ps.SpaceGrid(d=1, n=64, L=20.0 / c)
        for i in range(3):
            f = ps.corpus_entry(grid, 128, i)
            fc = ps.SpaceTimeField(
                grid=scaled_grid, t0=f.t0 / c ** gamma,
                dt=f.dt / c ** gamma, values=f.values.copy())
            v, _ = ps.verify_sharp_bound(sym, gamma / 2, f, 2.0, delta0=1 / gamma)
            vc, _ = ps.verify_sharp_bound(sym, gamma / 2, fc, 2.0, delta0=1 / gamma)
            assert abs(vc - v) / v < 0.05


def test_moment_ladders_converge_inside_their_windows():
    """Envelope moments converge for the window midpoints of each order."""
    grid = ps.SpaceGrid(d=1, n=32768, L=40.0)
    cases = {2.0: (3.5, 3.5, 3.5)}
    for gamma_exact in (Fraction(1, 2), Fraction(1)):
        ke = ps.theorem_exponents(gamma_exact, 1)
        cases[float(gamma_exact)] = tuple(
            float((Fraction(3) + upper) / 2) for upper in ke.mu_upper)
    assert cases[0.5] == (3.25, 4.25, 3.75)
    assert cases[1.0] == (3.5, 4.5, 4.5)

    for gamma, mus in cases.items():
        sym = ps.FractionalSymbol(gamma=gamma, a=1.0, nu=0.5)
        env = ps.synthesize_envelopes(sym, gamma, grid, 0.0, 1.0)
        for F, mu in zip((env.f1, env.f2, env.f3), mus):
            report = ps.moment_integral(F, mu)
            assert report.converged
            assert report.rel_change < 1e-6


def test_ito_isometry_and_monte_carlo_scaling():
    """The sampled second moment matches the exact one and tightens as
    1/sqrt(M)."""
    grid = ps.SpaceGrid(d=1, n=64, L=20.0)
    heat = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
    nt = 64
    xi0 = 2 * np.pi * 4 / grid.L
    vals = np.exp(1j * xi0 * grid.x_axis())[None, None, :] * np.ones(
        (nt, 1, 1))
    f = ps.SpaceTimeField(grid=grid, t0=0.0, dt=1.0 / (nt - 1), values=vals)
    spec = ps.NoiseSpec(K=1, seed=777, dt=f.dt, nt=nt)

    errors = {}
    for M in (1024, 4096, 16384):
        ens = ps.simulate_ensemble(heat, f, spec, M)
        errors[M] = ps.ito_isometry_check(ens)
    assert errors[4096].value < 0.05
    for small, large in ((1024, 4096), (4096, 16384)):
        ratio = errors[small].std_error / errors[large].std_error
        assert 1.6 < ratio < 2.4


def test_solution_kurtosis_vanishes(family_table):
    """Linear functionals of the solution stay Gaussian for every family."""
    grid = ps.SpaceGrid(d=1, n=64, L=20.0)
    f = ps.corpus_entry(grid, 64, 1)
    spec = ps.NoiseSpec(K=3, seed=777, dt=f.dt, nt=64)
    for _, sym in family_table:
        ensemble = ps.simulate_ensemble(sym, f, spec, M=10_000)
        assert abs(ps.gaussianity_diagnostic(ensemble)) < 0.15


def test_jump_symbol_homogeneity_and_margin():
    """Sphere-quadrature symbols scale exactly and keep their decay floor."""
    lam = 3.7
    probes = [[0.4], [1.0], [-2.2]]
    for gamma in (0.5, 1.5):
        sym = ps.LevySymbol(
            k=1, gamma=gamma, density=([0.0], [[0.7, 1.3]]), d=1)
        power = 2 * sym.k + gamma
        for xi in probes:
            base = sym.eval(0.2, xi)
            scaled = sym.eval(0.2, [lam * xi[0]])
            assert abs(scaled - lam ** power * base) <= 1e-10 * abs(scaled)

    # gamma = 1 requires the first sphere moment to cancel
    sym1 = ps.LevySymbol(k=0, gamma=1.0, density=([0.0], [[1.0, 1.0]]), d=1)
    np.testing.assert_allclose(ps.check_levy_cancellation(sym1, 0.0), 0.0)
    for xi in probes:
        base = sym1.eval(0.2, xi)
        scaled = sym1.eval(0.2, [lam * xi[0]])
        assert abs(scaled - lam * base) <= 1e-10 * abs(scaled)

    # a uniform density is isotropic: psi = -const |xi|^{2k + gamma}
    flat = ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 1.0]]), d=1)
    vals = np.array([flat.eval(0.0, xi) for xi in probes])
    norms = np.array([abs(xi[0]) for xi in probes])
    assert np.max(np.abs(vals.imag)) == 0.0
    scale = vals.real / (-norms ** 0.5)
    np.testing.assert_allclose(scale, scale[0], rtol=1e-12)

    # documented example densities keep sup Re psi <= -N0 on |xi| = 1
    circle = ps.LevySymbol(
        k=0, gamma=1.0, density=([0.0], [[1.0] * 256]), d=2)
    for sym, unit in ((flat, [[1.0], [-1.0]]),
                      (circle, [[np.cos(a), np.sin(a)]
                                for a in np.linspace(0, np.pi, 7)])):
        worst = max(sym.eval(0.0, u).real for u in unit)
        assert worst <= -sym.N0


def test_suite_reports_are_byte_identical(tmp_path, cli_config):
    """Rerunning any suite with the same config reproduces every byte."""
    suites = ("assumptions", "lp-ratio", "sharp-bound", "spde",
              "exponents", "kernel-dump")
    for suite in suites:
        out1 = tmp_path / "first" / suite
        out2 = tmp_path / "second" / suite
        out1.mkdir(parents=True)
        out2.mkdir(parents=True)
        rc1 = main([suite, "--config", str(cli_config),
                    "--out", str(out1), "--threads", "2"])
        rc2 = main([suite, "--config", str(cli_config),
                    "--out", str(out2), "--threads", "4"])
        assert rc1 == rc2
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), (
                suite, name)

    # the JSON reports carry the config fingerprint that ties runs together
    payload = json.loads(
        (tmp_path / "first" / "spde" / "spde.json").read_text())
    assert len(payload["config_sha256"]) == 64
