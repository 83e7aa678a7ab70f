r"""Monte Carlo for the additive-noise evolution driven by Wiener increments.

The mild solution with zero initial data is the stochastic convolution

    u(t, x) = sum_k int_0^t (p(t, s, .) * f^k(s, .))(x) dw^k_s,

discretized by holding f^k at f^k(s_j) on each cell [s_j, s_{j+1}): the
cell adds a Gaussian of variance W_j (the propagator's ``weight``) per mode,
drawn as sqrt(W_j / dt) dW^k_j, so E|D^eta u(t_i, x)|^2 is G f(t_i, x)^2 of
:func:`~paleyscope.squarefn.square_function` at every grid point.
Increments come from a counter-based generator keyed on (seed, m) for
path m, so every path is reproducible in isolation, an ensemble of M paths
is the first M of any larger one, and ensembles parallelize without shared
state.  Each thread re-keys one ``Philox`` generator per path rather
than constructing one.

All convolutions happen on the frequency side through the
:class:`~paleyscope.spectral.Propagator` of the forcing: with I[j] the
cumulative symbol integrals, the solution mode amplitudes are

    u_hat(t_i) = sum_k sum_{j < i} exp(I[i] - I[j+1]) sqrt(W_j / dt) fhat^k(s_j) dW^k_j.

Every factor comes from the step factors e_i = exp(I[i] - I[i-1]).  At the
one time an ensemble reads, the sum is one contraction of the whole block of
paths against their backward cumulative products e_{j+2} ... e_i.  When
every time is needed, as for the moment check, the same sum is carried
forward by the recursion

    u_hat(t_i) = u_hat(t_{i-1}) e_i + sum_k sqrt(W_{i-1} / dt) fhat^k(s_{i-1}) dW^k_{i-1},

whose sums over k are formed a time chunk at a time by one batched
``matmul`` and carried by :func:`~paleyscope.spectral._carry`, the one
recurrence on the step factors that the square-function routes share.

The ensemble routes run on the m columns of the forcing's spectral
support, where the Propagator holds fhat, e and W, since u_hat vanishes
wherever every fhat^k does; a block goes back to the grid
(``Propagator.to_grid``), zero off the support, only for the inverse
transform (:func:`~paleyscope.spectral.to_space`, in place) that reads
space values: the paths' values, and the convolved slices whose values at
one point give the isometry check its exact moment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .corpus import _check_key_word
from .spectral import Propagator, _carry, _chunk_steps, fractional_multiplier, to_space
from .squarefn import DegenerateFieldError, _norms, lp_space_time_norm

__all__ = [
    "NoiseSpec",
    "MomentEstimate",
    "PathEnsemble",
    "sample_brownian_increments",
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
        _check_key_word("seed", self.seed)
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if self.nt < 2:
            raise ValueError("nt must be at least 2")


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo estimate with its standard error and sample count.

    ``majorant``, when the check computes one, is the deterministic
    square-function value (||G f||_p / ||f||_p)^p.  Despite its name it is a
    *lower* bound on the expectation of ``value``: E|D^eta u|^2 = (G f)^2 at
    every point, and Jensen gives E|Z|^p >= (E|Z|^2)^(p/2) for p >= 2, with
    equality at p = 2.
    """

    value: float
    std_error: float
    M: int
    majorant: float | None = None


@dataclass(frozen=True)
class PathEnsemble:
    """Solution samples u(t, .) of M paths at the last grid time.

    ``values`` has shape (M,) + grid.shape; path m was driven by the
    increment stream keyed on (spec.seed, m).  ``propagator`` is
    the forcing's :class:`Propagator` the paths came from.
    """

    spec: NoiseSpec
    grid: object
    t0: float
    values: np.ndarray
    propagator: Propagator = field(repr=False, compare=False)

    @property
    def M(self) -> int:
        return self.values.shape[0]


_rng = threading.local()
_ZEROS = np.zeros(4, dtype=np.uint64)   # Philox counter and buffer at a fresh key


def sample_brownian_increments(spec, path, out=None):
    """Increment table dW[k, j] ~ N(0, dt), shape (K, nt), reproducible per
    (seed, path).

    The bits are those of a fresh ``Generator(Philox(key=[seed, path]))``.
    Each thread holds one such generator and re-keys it, with counter and
    buffer reset, instead of constructing one per path: a constructor
    first draws OS entropy for a seed sequence that the key then replaces.
    With ``out``, a C-contiguous float array of shape (K, nt), the table is
    drawn into it and ``out`` is returned.
    """
    _check_key_word("path", path)
    shape = (spec.K, spec.nt)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, not {out.shape}")
    rng = getattr(_rng, "generator", None)
    if rng is None:
        rng = _rng.generator = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS,
                  "key": np.array([spec.seed, path], dtype=np.uint64)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    rng.standard_normal(out=out)
    out *= np.sqrt(spec.dt)
    return out


def _check_paths(M):
    if M < 2:
        raise ValueError("M must be at least 2")


def _check_compatible(f, spec):
    if f.k_h != spec.K:
        raise ValueError("field channel count must equal the noise mode count K")
    if f.nt != spec.nt:
        raise ValueError("field and noise specify different step counts")
    if not np.isclose(f.dt, spec.dt, rtol=1e-12, atol=0.0):
        raise ValueError("field and noise specify different time steps")


def _convolved_slices(prop):
    """Convolved slices (p(t_last, s_{j+1}) * sqrt(W_j / dt) f^k(s_j)) for
    j < nt - 1 on the support.

    Shape ``(nt, K, m)`` over the m columns of ``prop``; the last slice
    stays zero.  The factors exp(I[nt-1] - I[j+1]) = e_{j+2} ... e_{nt-1}
    are the backward cumulative products of the step factors, each of
    modulus at most 1, so elliptic decay cannot overflow.
    """
    conv = np.zeros_like(prop.fhat)
    conv[:-1] = prop.held(1 / np.sqrt(prop.dt))
    conv[:-2] *= np.cumprod(prop.step[:0:-1], axis=0)[::-1, None]
    return conv


def _advance(step, drive, dw):
    """Yield u_hat(t_i), i = 1 .. nt - 1, of every path in the block ``dw``.

    u_hat(t_i) = u_hat(t_{i-1}) e_i + sum_k dW[:, k, i-1] drive[i-1, k] from
    u_hat(t_0) = 0, with e_i in ``step`` row i - 1, shape (nt - 1, m), and
    the held slices sqrt(W_j / dt) fhat_j in ``drive``, shape (nt - 1, K, m).
    It carries the sum :func:`simulate_ensemble` contracts at one time, at
    O(M * K) per mode and step whatever nt is.  Time runs in chunks sized
    by :func:`~paleyscope.spectral._chunk_steps`: one batched ``matmul``
    forms a chunk's sums over k, and :func:`~paleyscope.spectral._carry`
    carries them.  The yielded array is not modified by later steps.
    """
    u = np.zeros(dw.shape[:1] + step.shape[1:], dtype=complex)
    steps = len(drive)
    chunk = _chunk_steps(u, steps)
    for j0 in range(0, steps, chunk):
        j1 = min(j0 + chunk, steps)
        kicks = np.matmul(dw[:, :, j0:j1].transpose(2, 0, 1), drive[j0:j1])
        yield from _carry(step[j0:j1, None], kicks, u)
        u = kicks[-1]


def _point(grid, x_index):
    """The grid point ``x_index``, a tuple of grid.d integers in [0, n), or
    the centre (n/2, ..., n/2) when it is None."""
    if x_index is None:
        return (grid.n // 2,) * grid.d
    point = x_index if isinstance(x_index, tuple) else ()
    if len(point) != grid.d or not all(
            isinstance(i, (int, np.integer)) and 0 <= i < grid.n for i in point):
        raise ValueError(f"x_index must be a tuple of {grid.d} integers in "
                         f"[0, {grid.n}), not {x_index!r}")
    return point


def _increment_block(spec, M):
    """Stacked increment tables for paths 0 .. M - 1."""
    out = np.empty((M, spec.K, spec.nt))
    for m in range(M):
        sample_brownian_increments(spec, m, out=out[m])
    return out


def simulate_ensemble(sym, f, spec, M):
    """Solution fields of M paths at the last grid time.

    The increments of all paths are drawn as one real block, which costs
    one real GEMM against the float view of the convolved support columns
    and one inverse transform in the buffer that holds the paths on the
    grid.  The block is dropped before that transform.
    """
    _check_paths(M)
    _check_compatible(f, spec)
    prop = Propagator(sym, f)
    # the slices in (K, nt, m) order as (K nt, 2m) floats, against (M, K nt)
    conv = np.ascontiguousarray(_convolved_slices(prop).transpose(1, 0, 2))
    conv = conv.reshape(spec.K * spec.nt, -1).view(float)
    dw = _increment_block(spec, M)
    u_hat = (dw.reshape(M, -1) @ conv).view(complex)
    del dw
    values = prop.to_grid(u_hat)
    to_space(f.grid, values, out=values)
    return PathEnsemble(spec=spec, grid=f.grid, t0=f.t0, values=values,
                        propagator=prop)


def ito_isometry_check(ensemble, x_index=None):
    """Relative error of the MC second moment against the exact discrete sum.

    Reads the samples of ``ensemble`` at point ``x_index``, and the exact
    moment from the propagator it was simulated with.  E|u|^2 there equals
    sum_{k, j < i*} |c_kj|^2 dt exactly, with c_kj the convolved slices at
    the point, and that sum is G f(t_i*, x)^2 of
    :func:`~paleyscope.squarefn.square_function` at eta = 0.  So the value
    is a pure MC convergence measurement: |mean - exact| / exact, with the
    standard error of the mean (also relative to exact) alongside.  The
    slices come back to space in one inverse transform, in the buffer
    ``Propagator.to_grid`` scatters them into.
    """
    x_index = _point(ensemble.grid, x_index)
    prop = ensemble.propagator
    conv = prop.to_grid(_convolved_slices(prop))
    to_space(ensemble.grid, conv, out=conv)
    coeff = conv[(slice(None), slice(None)) + x_index]
    exact = float(np.sum(np.abs(coeff) ** 2) * ensemble.spec.dt)
    if exact == 0.0:
        raise DegenerateFieldError("deterministic second moment is zero")
    sq = np.abs(ensemble.values[(slice(None),) + x_index]) ** 2
    mc = float(np.mean(sq))
    std_err = float(np.std(sq, ddof=1) / np.sqrt(ensemble.M))
    return MomentEstimate(value=abs(mc - exact) / exact,
                          std_error=std_err / exact, M=ensemble.M)


def moment_bound_check(sym, f, spec, M, p, derivative_order):
    """MC p-th moment of the derivative's space-time norm against ||f||_p^p.

    ``value`` is E ||D^eta u||_p^p / || |f| ||_p^p with eta the requested
    derivative order (applied as the Riesz multiplier |xi|^eta); ``majorant``
    reports the deterministic square-function pathway (||G f||_p/||f||_p)^p
    with the same eta, as :func:`~paleyscope.squarefn.lp_ratio` forms it
    (without G at p = 2), from the propagator the paths use.  Since
    E|D^eta u|^2 = (G f)^2 pointwise, Jensen makes the majorant a lower
    bound on the expectation of ``value`` for p >= 2, equal to it at
    p = 2; the name is kept for the callers that read it.  All M paths
    are advanced together by :func:`_advance` on the support columns from
    a single increment block; each time puts them on the grid
    (``Propagator.to_grid``) for its one inverse transform, and every time
    reuses the same buffers for the scatter, the transform and |.|^p.
    """
    _check_paths(M)
    if not 2 <= p < np.inf:
        raise ValueError("p must be finite and at least 2")
    if derivative_order < 0:
        raise ValueError("derivative order must be nonnegative")
    _check_compatible(f, spec)
    g = f.grid
    eta = float(derivative_order)
    norm_f = lp_space_time_norm(f, p)
    if norm_f == 0.0:
        return MomentEstimate(value=0.0, std_error=0.0, M=M, majorant=0.0)
    prop = Propagator(sym, f)
    riesz = prop.columns(fractional_multiplier(g, eta))
    dw = _increment_block(spec, M)
    # reused by every step: one grid buffer for the scatter and the
    # transform, one contiguous row per path for |.|^p
    buf = np.empty((M,) + g.shape, dtype=complex)
    mag = np.empty((M, g.n ** g.d))
    sums = np.zeros(M)
    for u_hat in _advance(prop.step, prop.held(1 / np.sqrt(prop.dt)), dw):
        to_space(g, prop.to_grid(riesz * u_hat, out=buf), out=buf)
        np.abs(buf.reshape(M, -1), out=mag)
        mag **= p
        sums += np.sum(mag, axis=1)
    norms = sums * g.h ** g.d * f.dt
    value = float(np.mean(norms)) / norm_f ** p
    std_err = float(np.std(norms, ddof=1) / np.sqrt(M)) / norm_f ** p
    majorant = (_norms(prop, eta, [p])[0] / norm_f) ** p
    return MomentEstimate(value=value, std_error=std_err, M=M, majorant=majorant)


def gaussianity_diagnostic(ensemble, x_index=None):
    """Excess kurtosis of Re u at one observation point across paths."""
    samples = ensemble.values[(slice(None),) + _point(ensemble.grid, x_index)].real
    centered = samples - samples.mean()
    m2 = float(np.mean(centered ** 2))
    if m2 == 0.0:
        raise DegenerateFieldError("degenerate ensemble: zero variance")
    m4 = float(np.mean(centered ** 4))
    return m4 / m2 ** 2 - 3.0
