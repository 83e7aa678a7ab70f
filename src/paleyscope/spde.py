r"""Monte Carlo for the additive-noise evolution driven by Wiener increments.

The mild solution with zero initial data is the stochastic convolution

    u(t, x) = sum_k int_0^t (p(t, s, .) * f^k(s, .))(x) dw^k_s,

discretized with the left-point rule, which is exact in distribution for
deterministic integrands sampled at grid times.  Increments come from a
counter-based generator keyed on (seed, path), so every path is reproducible
in isolation and ensembles parallelize without shared state.

All convolutions happen on the frequency side through the
:class:`~paleyscope.spectral.Propagator` of the forcing: with I[j] the
cumulative symbol integrals, the solution mode amplitudes are

    u_hat(t_i) = sum_k sum_{j < i} exp(I[i] - I[j]) fhat^k(s_j) dW^k_j,

evaluated by one contraction for a whole block of paths at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Propagator, SpaceTimeField, fractional_multiplier
from .squarefn import DegenerateFieldError, lp_space_time_norm, square_function

__all__ = [
    "NoiseSpec",
    "MomentEstimate",
    "PathEnsemble",
    "sample_brownian_increments",
    "stochastic_convolution",
    "ito_isometry_check",
    "moment_bound_check",
    "simulate_ensemble",
    "gaussianity_diagnostic",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Wiener discretization: K independent modes, nt steps of size dt."""

    K: int
    seed: int
    dt: float
    nt: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if self.nt < 2:
            raise ValueError("nt must be at least 2")


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo estimate with its standard error and sample count.

    ``majorant`` carries the deterministic square-function pathway value
    when the check computes one.
    """

    value: float
    std_error: float
    M: int
    majorant: float | None = None


@dataclass(frozen=True)
class PathEnsemble:
    """Solution samples u(t, .) for M paths at selected observation times.

    ``values`` has shape (M, len(t_indices)) + grid.shape; path m was driven
    by the increment stream keyed on (spec.seed, base_path + m).
    """

    spec: NoiseSpec
    grid: object
    t0: float
    t_indices: tuple
    base_path: int
    values: np.ndarray

    @property
    def M(self) -> int:
        return self.values.shape[0]


def sample_brownian_increments(spec, path):
    """Increment table dW[k, j] ~ N(0, dt), reproducible per (seed, path)."""
    key = np.array([spec.seed, path], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.standard_normal((spec.K, spec.nt)) * np.sqrt(spec.dt)


def _check_compatible(f, spec):
    if f.k_h != spec.K:
        raise ValueError("field channel count must equal the noise mode count K")
    if f.nt != spec.nt:
        raise ValueError("field and noise specify different step counts")
    if not np.isclose(f.dt, spec.dt, rtol=1e-12, atol=0.0):
        raise ValueError("field and noise specify different time steps")


def _convolved_slices(prop, t_index):
    """Frequency-side convolved slices (p(t*, s_j) * f^k(s_j)) for j < t*.

    Shape ``(nt, K) + grid.shape``; slices at j >= t_index stay zero.
    Exponentials are only formed for nonpositive real parts, so elliptic
    decay cannot overflow.
    """
    conv_hat = np.zeros_like(prop.fhat)
    conv_hat[:t_index] = prop.decay(t_index, t_index)[:, None] * prop.fhat[:t_index]
    return conv_hat


def _contract(prop, dw, t_index):
    """u_hat(t_i)[m] = sum_{k, j < i} dW[m, k, j] exp(I[i] - I[j]) fhat[j, k].

    The one place where decay factors, forcing and increments meet.  The
    whole ``(M, K, nt)`` block is contracted against the zero-padded slices,
    so no slice of the block is copied.  Returns shape ``(M,) + grid.shape``.
    """
    return np.tensordot(dw, _convolved_slices(prop, t_index), axes=([1, 2], [1, 0]))


def _default_point(grid):
    return (grid.n // 2,) * grid.d


def _increment_block(spec, M, base_path=0):
    """Stacked increment tables for paths base_path .. base_path + M - 1."""
    out = np.empty((M, spec.K, spec.nt))
    for m in range(M):
        out[m] = sample_brownian_increments(spec, base_path + m)
    return out


def simulate_ensemble(sym, f, spec, M, t_indices=None, base_path=0):
    """Solution fields for M paths at the requested observation times.

    The increments of all paths are drawn once, so each observation time
    costs one contraction of the block and one inverse transform.
    """
    _check_compatible(f, spec)
    if t_indices is None:
        t_indices = (f.nt - 1,)
    t_indices = tuple(int(i) for i in t_indices)
    g = f.grid
    prop = Propagator(sym, f)
    dw = _increment_block(spec, M, base_path)
    values = np.empty((M, len(t_indices)) + g.shape, dtype=complex)
    for slot, i in enumerate(t_indices):
        values[:, slot] = prop.to_space(_contract(prop, dw, i))
    return PathEnsemble(spec=spec, grid=g, t0=f.t0, t_indices=t_indices,
                        base_path=base_path, values=values)


def stochastic_convolution(sym, f, spec, path):
    """One solution path as a single-channel SpaceTimeField.

    ``f`` holds the K deterministic forcing channels; causality makes
    u(t_0) = 0 and u(t_i) depend only on increments with j < i.
    """
    ens = simulate_ensemble(sym, f, spec, 1, t_indices=range(f.nt), base_path=path)
    return SpaceTimeField(grid=f.grid, t0=f.t0, dt=f.dt,
                          values=ens.values[0][:, None], domain="space")


def ito_isometry_check(sym, f, ensemble, t_slot=0, x_index=None):
    """Relative error of the MC second moment against the exact discrete sum.

    Reads the samples of ``ensemble`` (from ``simulate_ensemble(sym, f, ...)``)
    at slot ``t_slot`` and point ``x_index``.  E|u|^2 there equals
    sum_{k, j < i*} |c_kj|^2 dt exactly for the left-point scheme, so the
    value is a pure MC convergence measurement: |mean - exact| / exact, with
    the standard error of the mean (also relative to exact) alongside.
    """
    _check_compatible(f, ensemble.spec)
    if ensemble.grid != f.grid:
        raise ValueError("ensemble and field live on different grids")
    x_index = tuple(_default_point(f.grid) if x_index is None else x_index)
    prop = Propagator(sym, f)
    conv_hat = _convolved_slices(prop, ensemble.t_indices[t_slot])
    coeff = prop.to_space(conv_hat)[(slice(None), slice(None)) + x_index]
    exact = float(np.sum(np.abs(coeff) ** 2) * f.dt)
    if exact == 0.0:
        raise DegenerateFieldError("deterministic second moment is zero")
    sq = np.abs(ensemble.values[(slice(None), t_slot) + x_index]) ** 2
    mc = float(np.mean(sq))
    std_err = float(np.std(sq, ddof=1) / np.sqrt(ensemble.M))
    return MomentEstimate(value=abs(mc - exact) / exact,
                          std_error=std_err / exact, M=ensemble.M)


def moment_bound_check(sym, f, spec, M, p, derivative_order, base_path=0):
    """MC p-th moment of the derivative's space-time norm against ||f||_p^p.

    ``value`` is E ||D^eta u||_p^p / || |f| ||_p^p with eta the requested
    derivative order (applied as the Riesz multiplier |xi|^eta); ``majorant``
    reports the deterministic square-function pathway (||G f||_p/||f||_p)^p
    with the same eta.  All M paths are advanced together, one time step at
    a time, from a single increment block.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if derivative_order < 0:
        raise ValueError("derivative order must be nonnegative")
    _check_compatible(f, spec)
    g = f.grid
    eta = float(derivative_order)
    norm_f = lp_space_time_norm(f, p)
    if norm_f == 0.0:
        return MomentEstimate(value=0.0, std_error=0.0, M=M, majorant=0.0)
    prop = Propagator(sym, f)
    riesz = fractional_multiplier(g, eta)
    dw = _increment_block(spec, M, base_path)
    sums = np.zeros(M)
    for i in range(1, f.nt):
        mag = np.abs(prop.to_space(riesz * _contract(prop, dw, i)))
        sums += np.sum(mag.reshape(M, -1) ** p, axis=1)
    norms = sums * g.h ** g.d * f.dt
    value = float(np.mean(norms)) / norm_f ** p
    std_err = float(np.std(norms, ddof=1) / np.sqrt(M)) / norm_f ** p
    G = square_function(sym, eta, f)
    majorant = (lp_space_time_norm(G, p) / norm_f) ** p
    return MomentEstimate(value=value, std_error=std_err, M=M,
                          majorant=float(majorant))


def gaussianity_diagnostic(ensemble, t_slot=0, x_index=None):
    """Excess kurtosis of Re u at one observation point across paths."""
    if x_index is None:
        x_index = _default_point(ensemble.grid)
    samples = ensemble.values[(slice(None), t_slot) + tuple(x_index)].real
    centered = samples - samples.mean()
    m2 = float(np.mean(centered ** 2))
    if m2 == 0.0:
        raise DegenerateFieldError("degenerate ensemble: zero variance")
    m4 = float(np.mean(centered ** 4))
    return m4 / m2 ** 2 - 3.0
