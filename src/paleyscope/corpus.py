r"""Deterministic seeded test corpus of band-limited space-time fields.

Every field is a short sum of traveling Gaussian-spectrum bumps: for each
channel and term a spectral width and a center are drawn, then complex
coefficients on the integer frequency lattice |j|_inf <= JMAX (zero mode
excluded) weighted by a Gaussian envelope plus a flat noise floor, and a
smooth time profile that vanishes at both window ends.

Coefficients are synthesized by direct exponential sums on the grid, so a
corpus entry evaluated at n = 64 and n = 128 is the same trigonometric
polynomial sampled at different points: grid norms and diagonal-operator
outputs agree to rounding, which is what the refinement-stability checks
exploit.  The draw order is fixed and keyed by (seed, index) through a
counter-based generator, making every entry reproducible in isolation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .spectral import SpaceGrid, SpaceTimeField

__all__ = ["make_corpus", "corpus_entry", "DEFAULT_SEED"]

DEFAULT_SEED = 20260816
JMAX = 4              # frequency band |j|_inf <= JMAX
TERMS = 2             # bumps per channel
K_H_CYCLE = (1, 3)    # channel counts, cycled with the entry index


def _mode_lattice(d):
    """Integer frequency multi-indices with |j|_inf <= JMAX, zero excluded."""
    axis = range(-JMAX, JMAX + 1)
    modes = [j for j in itertools.product(*([axis] * d)) if any(j)]
    return np.array(modes, dtype=float)


def corpus_entry(grid, nt, index, t_window=1.0, seed=DEFAULT_SEED):
    """Build corpus entry ``index`` on the given grid.

    The channel count cycles through ``K_H_CYCLE`` with the index.  Time
    slices are j * dt with dt = t_window / (nt - 1); the first and last
    slices vanish, satisfying the compact-support precondition of the square
    function, so nt >= 3 keeps a slice that does not.  The grid must
    resolve the band: n > 2 * JMAX, or the modes j = +-n/2 would alias
    onto each other.
    """
    if nt < 3:
        raise ValueError(f"nt must be at least 3: both window ends vanish, got {nt}")
    if grid.n <= 2 * JMAX:
        raise ValueError(f"the corpus band |j| <= {JMAX} needs grid.n > {2 * JMAX}, "
                         f"got {grid.n}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    k_h = K_H_CYCLE[index % len(K_H_CYCLE)]
    modes = _mode_lattice(grid.d)
    xi = 2 * np.pi * modes / grid.L                     # (n_modes, d)
    x = grid.x_axis()
    dt = t_window / (nt - 1)
    tau = np.arange(nt) / (nt - 1)
    vals = np.zeros((nt, k_h) + grid.shape, dtype=complex)
    for ch in range(k_h):
        for _ in range(TERMS):
            width = rng.uniform(0.8, 1.6)
            x0 = rng.uniform(-grid.L / 4, grid.L / 4, size=grid.d)
            envelope = np.exp(-(width * np.linalg.norm(xi, axis=-1)) ** 2 / 2) + 0.3
            coeff = (rng.standard_normal(len(modes))
                     + 1j * rng.standard_normal(len(modes))) * envelope
            cq = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            profile = np.sin(np.pi * tau) ** 2 * (
                1.0 + 0.5 * sum(cq[q] * np.exp(2j * np.pi * (q + 1) * tau)
                                for q in range(3)))
            spatial = np.zeros(grid.shape, dtype=complex)
            for c, k in zip(coeff, xi):
                wave = np.ones(grid.shape, dtype=complex)
                for ax in range(grid.d):
                    axis_wave = np.exp(1j * k[ax] * (x - x0[ax]))
                    shape = [1] * grid.d
                    shape[ax] = grid.n
                    wave = wave * axis_wave.reshape(shape)
                spatial += c * wave
            vals[:, ch] += profile.reshape((nt,) + (1,) * grid.d) * spatial
    # sin(pi) is not exactly zero in floats; the window ends must be
    vals[0] = 0.0
    vals[-1] = 0.0
    return SpaceTimeField(grid=grid, t0=0.0, dt=dt, values=vals)


def make_corpus(grid, nt, count=20, t_window=1.0, seed=DEFAULT_SEED):
    """List of ``count`` deterministic corpus entries on one grid."""
    return [corpus_entry(grid, nt, i, t_window=t_window, seed=seed) for i in range(count)]
