r"""Deterministic seeded test corpus of band-limited space-time fields.

Every field is a short sum of traveling Gaussian-spectrum bumps: for each
channel and term a spectral width and a center are drawn, then complex
coefficients on the integer frequency lattice |j|_inf <= JMAX (zero mode
excluded) weighted by a Gaussian envelope plus a flat noise floor, and a
smooth time profile that vanishes at both window ends.

Coefficients are placed on their grid modes, which n > 2 JMAX keeps apart,
and transformed back by ``to_space``, so a corpus entry evaluated at n = 64
and n = 128 is the same trigonometric polynomial sampled at different
points: grid norms and diagonal-operator outputs agree to rounding, which
is what the refinement-stability checks exploit.  The draw order is fixed
and keyed by (seed, index) through a counter-based generator, making every
entry reproducible in isolation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .spectral import SpaceGrid, SpaceTimeField, to_space

__all__ = ["make_corpus", "corpus_entry", "DEFAULT_SEED"]

DEFAULT_SEED = 20260816
JMAX = 4              # frequency band |j|_inf <= JMAX
TERMS = 2             # bumps per channel
K_H_CYCLE = (1, 3)    # channel counts, cycled with the entry index


def _check_key_word(name, value):
    """Refuse ``value`` unless it is an integer in [0, 2**64): a uint64 word of
    a Philox key, which would otherwise overflow or truncate silently."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must lie in [0, 2**64) and be an integer, got {value!r}")


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
    _check_key_word("index", index)
    _check_key_word("seed", seed)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    k_h = K_H_CYCLE[index % len(K_H_CYCLE)]
    # the frequency lattice |j|_inf <= JMAX, zero excluded
    modes = np.array([j for j in itertools.product(range(-JMAX, JMAX + 1), repeat=grid.d)
                      if any(j)])
    xi = 2 * np.pi * modes / grid.L                     # (n_modes, d)
    cells = tuple((modes % grid.n).T)                   # their grid modes
    dt = t_window / (nt - 1)
    tau = np.arange(nt) / (nt - 1)
    # term spectra on their grid modes: L^d c_j exp(-i k_j . x0), the
    # Fourier coefficients of sum_j c_j exp(i k_j . (x - x0))
    spectra = np.zeros((k_h, TERMS) + grid.shape, dtype=complex)
    profiles = np.empty((nt, k_h, TERMS), dtype=complex)
    for ch in range(k_h):
        for t in range(TERMS):
            width = rng.uniform(0.8, 1.6)
            x0 = rng.uniform(-grid.L / 4, grid.L / 4, size=grid.d)
            envelope = np.exp(-(width * np.linalg.norm(xi, axis=-1)) ** 2 / 2) + 0.3
            coeff = (rng.standard_normal(len(modes))
                     + 1j * rng.standard_normal(len(modes))) * envelope
            cq = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            profiles[:, ch, t] = np.sin(np.pi * tau) ** 2 * (
                1.0 + 0.5 * sum(cq[q] * np.exp(2j * np.pi * (q + 1) * tau)
                                for q in range(3)))
            spectra[(ch, t) + cells] = (grid.L ** grid.d * coeff
                                         * np.exp(-1j * (xi * x0).sum(axis=-1)))
    spatial = to_space(grid, spectra, out=spectra).reshape(k_h, TERMS, -1)
    # a fixed-order sum over the terms: no BLAS, so no bit depends on thread counts
    vals = np.einsum("tcj,cjx->tcx", profiles, spatial).reshape((nt, k_h) + grid.shape)
    # sin(pi) is not exactly zero in floats; the window ends must be
    vals[0] = 0.0
    vals[-1] = 0.0
    return SpaceTimeField(grid=grid, t0=0.0, dt=dt, values=vals)


def make_corpus(grid, nt, count=20, t_window=1.0, seed=DEFAULT_SEED):
    """List of ``count`` deterministic corpus entries on one grid."""
    return [corpus_entry(grid, nt, i, t_window=t_window, seed=seed) for i in range(count)]
