"""Shared fixtures: symbol instances and cached corpus ratio tables."""

from collections import namedtuple

import numpy as np
import pytest
from scipy.integrate import quad

import paleyscope as ps
from paleyscope import spectral

# Frequency samples used wherever the decay constant is profiled; the
# origin is excluded by the API contract.
XI_1D = [[0.25], [0.5], [1.0], [2.0], [4.0], [8.0], [-0.25], [-1.0]]
XI_2D = [
    [r * np.cos(a), r * np.sin(a)]
    for r in (0.5, 2.0)
    for a in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
]


def quad_profile(sym, eta, xi, s):
    """int_s^inf |xi|^(2 eta) exp(2 Re int_s^t psi) dt for one frequency vector,
    by adaptive quadrature on each time piece.

    The unbounded last piece is integrated in u = c (t - b), with c its decay
    rate -2 Re psi, so that slow decay does not defeat the quadrature.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    weight = np.linalg.norm(xi) ** (2 * eta)

    def integrand(t):
        return weight * np.exp(2.0 * sym.time_integral(s, t, xi).real)

    def piece(f, a, b):
        return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    edges = [s, *(float(b) for b in sym.breakpoints if b > s)]
    last = edges[-1]
    rate = -2.0 * sym.eval(last, xi).real
    tail = piece(lambda u: integrand(last + u / rate), 0.0, np.inf) / rate
    return sum(piece(integrand, a, b) for a, b in zip(edges[:-1], edges[1:])) + tail


def cell_weights(sym, times, grid):
    """W_j = int_{t_j}^{t_{j+1}} |exp(int_s^{t_{j+1}} psi)|^2 ds on the grid's
    modes, shape ``(nt - 1,) + grid.shape``.

    Each cell is split at the symbol's breakpoints; on a sub-cell [a, b] the
    rate c = -2 Re psi is constant, so it adds
    exp(2 Re int_b^{t_{j+1}} psi) (1 - exp(-c (b - a))) / c, or b - a where
    c = 0.
    """
    xi = grid.xi_grid()
    out = np.zeros((len(times) - 1,) + grid.shape)
    for j, (s, t) in enumerate(zip(times[:-1], times[1:])):
        cuts = [s, *(float(b) for b in sym.breakpoints if s < b < t), t]
        for a, b in zip(cuts[:-1], cuts[1:]):
            rate = -2.0 * sym.eval(0.5 * (a + b), xi).real
            with np.errstate(invalid="ignore"):
                part = np.where(rate == 0, b - a, -np.expm1(-rate * (b - a)) / rate)
            out[j] += np.exp(2.0 * sym.time_integral(b, t, xi).real) * part
    return out


GridArrays = namedtuple("GridArrays", "fhat integrals step weight")


def grid_arrays(sym, f):
    """What a Propagator of ``(sym, f)`` holds, on every mode of the grid and
    built without it: the transformed slices ``fhat``, shape
    ``(nt, K_H) + grid.shape``; the cumulative integrals I, ``(nt,) +
    grid.shape``; and the step factors and cell weights, ``(nt - 1,) +
    grid.shape``."""
    integrals = ps.cumulative_symbol_integrals(sym, f.grid, f.t0, f.dt, f.nt)
    return GridArrays(ps.to_frequency(f), integrals,
                      spectral._step_factors(integrals),
                      spectral._cell_weights(sym, f.times(), f.grid.xi_grid()))


def exp_decay(integrals, i, stop):
    """exp(I[i] - I[j]) for j < stop, shape ``(stop,) + grid.shape``: every
    kernel factor exponentiated from the cumulative integrals, independently
    of the step factors."""
    return np.exp(integrals[i][None] - integrals[:stop])


def two_piece_families(d):
    """Fractional, polyform and Levy symbols whose coefficients jump at t = 0.5."""
    if d == 1:
        poly = {((2,), (2,)): ([0.0, 0.5], [1.0, 2.0 + 0.3j])}
        levy = ([0.0, 0.5], [[1.0, 1.0], [0.5, 1.5]])
    else:
        poly = {((1, 0), (1, 0)): ([0.0, 0.5], [1.0, 1.5]),
                ((0, 1), (0, 1)): ([0.0, 0.5], [1.0, 0.8 + 0.2j])}
        levy = ([0.0, 0.5], [np.ones(16), 1.0 + 0.5 * np.cos(
            2 * np.pi * np.arange(16) / 16)])
    return [
        ps.FractionalSymbol(gamma=1.5, a=([0.0, 0.5], [1.0, 1.5 + 0.2j]), nu=0.5),
        ps.PolyFormSymbol(m=2 if d == 1 else 1, coeffs=poly, nu=0.5),
        ps.LevySymbol(k=0, gamma=0.5, d=d, density=levy, nodes=16),
    ]


def with_out_of_band_mode(f, mode):
    """``f`` plus flat mode ``mode`` on channel 1 of the inner slices, at
    1e-3 of the peak |fhat|: a mode outside the corpus band."""
    fhat = ps.to_frequency(f).reshape(f.nt, f.k_h, -1)
    fhat[1:-1, 1, mode] = 1e-3 * np.abs(fhat).max()
    return ps.SpaceTimeField(grid=f.grid, t0=f.t0, dt=f.dt,
                             values=ps.to_space(f.grid, fhat.reshape(f.values.shape)))


@pytest.fixture(scope="session")
def heat():
    return ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)


@pytest.fixture(scope="session")
def frac1():
    return ps.FractionalSymbol(gamma=1.0, a=1.0, nu=0.5)


@pytest.fixture(scope="session")
def biharm():
    return ps.PolyFormSymbol(m=2, coeffs={((2,), (2,)): 1.0}, nu=0.5)


@pytest.fixture(scope="session")
def levy():
    return ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 1.0]]), d=1)


@pytest.fixture(scope="session")
def family_table(heat, biharm, levy):
    """One representative per symbol family."""
    return (("heat", heat), ("biharmonic", biharm), ("levy", levy))


@pytest.fixture(scope="session")
def corpus_ratio_data(heat, frac1, biharm, levy):
    """lp ratios of the seeded corpus on 64- and 128-point grids.

    Maps (family, n) to {(entry index, p): ratio}. Computed once because
    several contract checks share the same 160 square-function runs.
    """
    fams = (("heat", heat), ("fractional", frac1),
            ("biharmonic", biharm), ("levy", levy))
    data = {}
    for name, sym in fams:
        eta = sym.order / 2
        for n in (64, 128):
            grid = ps.SpaceGrid(d=1, n=n, L=20.0)
            ratios = {}
            for i, f in enumerate(ps.make_corpus(grid, 128, count=20)):
                g = ps.square_function(sym, eta, f)
                for p in (2.0, 4.0, 8.0):
                    ratios[(i, p)] = (ps.lp_space_time_norm(g, p)
                                      / ps.lp_space_time_norm(f, p))
            data[(name, n)] = ratios
    return data


@pytest.fixture(scope="session")
def cli_config(tmp_path_factory):
    """Small experiment config shared by the CLI round-trip checks."""
    import json

    path = tmp_path_factory.mktemp("config") / "experiment.json"
    payload = {
        "symbol": {"family": "fractional", "gamma": 2.0, "a": 1.0, "nu": 0.5},
        "grid": {"d": 1, "n": 64, "L": 20.0, "nt": 64, "t_window": 1.0},
        "corpus": {"count": 4, "seed": 20260816},
        "p_list": [2.0, 4.0],
        "mc": {"M": 512, "K": 3, "seed": 777},
        "kernel": {"s": 0.0, "t": 0.1, "eta": 1.0},
    }
    path.write_text(json.dumps(payload, indent=2))
    return path
