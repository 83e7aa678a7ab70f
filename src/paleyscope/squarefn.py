r"""The evolution square function, space-time L_p norms, and empirical ratios.

For a multichannel space-time field f supported in its time window, the
square function at grid time t_i is

    G f(t_i, x)^2 = sum_channels int_{t_0}^{t_i} |K(t_i, s, .) * f(s, .)(x)|^2 ds,

with K the kernel whose multiplier is |xi|^eta exp(int_s^{t_i} psi).  The s
integral holds f at f(t_j) on each cell [t_j, t_{j+1}) and integrates the
kernel over the cell exactly per mode, so G(t_i) reads the slices j < i.
Both routes read what a Propagator holds on the m modes where f lives.
With m^2 <= nt n^d, G is carried as an m x m covariance on those modes
and inverse-transformed once; otherwise every carried row goes back on
the grid and is inverse-transformed at every step.  The covariance, and
the Parseval sum that gives ||G f||_2 without forming G, advance by the
step factors through :func:`~paleyscope.spectral._carry`.  The empirical ratio
||G f||_p / || |f|_H ||_p is the quantity the L_p theory bounds uniformly in f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Propagator,
    SpaceGrid,
    SpaceTimeField,
    _carry,
    _chunk_steps,
    _fft_axes,
    fractional_multiplier,
    to_frequency,
    to_space,
)

__all__ = [
    "SquareField",
    "LpReport",
    "DegenerateFieldError",
    "square_function",
    "lp_space_time_norm",
    "lp_ratio",
    "elliptic_square_function",
]


class DegenerateFieldError(ValueError):
    """Raised when a ratio against a zero-norm reference is requested."""


@dataclass(frozen=True)
class SquareField:
    """Nonnegative space-time scalar field G f(t, x)."""

    grid: SpaceGrid
    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != self.grid.d + 1 or v.shape[1:] != self.grid.shape:
            raise ValueError("SquareField values need shape (nt,) + grid.shape")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("SquareField values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def nt(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LpReport:
    """Norms and their ratio for one (symbol, field, p) experiment."""

    p: float
    norm_G: float
    norm_f: float
    ratio: float
    d: int
    n: int
    L: float
    nt: int
    dt: float


def square_function(sym, eta, f):
    """Evaluate G f on the grid of ``f``.

    Parameters
    ----------
    sym : symbol
    eta : float
        Fractional-derivative order applied inside the kernel, eta >= 0.
    f : SpaceTimeField
        Compactly supported in its window (the first slice is the lower
        integration limit).

    Returns
    -------
    SquareField

    Notes
    -----
    The s integral holds f at f(t_j) on the cell [t_j, t_{j+1}), so
    G(t_0) = 0 and G(t_i) reads the slices j < i.  All work happens on the
    frequency side through a :class:`~paleyscope.spectral.Propagator` with
    transformed slices fhat, step factors e_i = exp(I[i] - I[i-1]) and cell
    weights W_j.  Row j of the amplitude block (``Propagator.held``)

        a_j = sqrt(W_j) |xi|^eta phase h^-d fhat_j

    enters at t_{j+1} and is advanced by e_i from then on; it carries the
    inverse transform's factor phase h^-d (``grid.inverse_factor``), so
    each route ends in a bare ``ifftn``.  Two routes
    sum the same squares:

    - On the propagator's ``support`` of m modes, the m x m covariance
      P_i = (e_i e_i^*) o P_{i-1} + A_{i-1}, A_j = sum_k a_jk a_jk^*, is
      scattered onto difference frequencies and inverse-transformed once
      for all times: O(nt K m^2 + nt n^d log n).
    - The carried FFT loop advances the rows j < i - 1 in place by e_i and
      inverse-transforms rows 0 .. i - 1 at every step: O(nt^2 K n^d log n).

    The support route runs when m^2 <= nt n^d.  Both are causal bit for bit
    for a fixed support; they agree to about 1e-14 relative.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return SquareField(grid=f.grid, t0=f.t0, dt=f.dt,
                       values=_square_values(Propagator(sym, f), eta))


def _square_values(prop, eta):
    """G f values from the propagator of f, by the route its support size picks."""
    g = prop.grid
    m = prop.support.size
    route = _support_route if m * m <= prop.fhat.shape[0] * g.n ** g.d else _fft_route
    return route(prop, eta)


def _support_route(prop, eta):
    """G f values by the covariance recursion on ``prop.support``.

    Since ifft(v)(x) = n^-d sum_xi v(xi) exp(2 pi i xi . x / n),

        sum_rows |ifft(row)(x)|^2 = n^-d ifft(D)(x),

    with D(delta) the sum of the carried covariance over the pairs (a, b) of
    support modes with a - b = delta (mod n per axis).

    Time runs in chunks of steps sized by
    :func:`~paleyscope.spectral._chunk_steps`.  Each chunk forms its gains
    e e^* and channel sums A = sum_k a a^* in whole-array calls, carries
    P_i = P_{i-1} * gain + A with :func:`~paleyscope.spectral._carry`, and
    scatters all its times in one fixed-order ``bincount`` with a slot
    offset per time.
    A small support (m = 8 on the corpus at d = 1) takes 64 steps per
    chunk; at m = 80 (d = 2) a chunk is one step, where each call is
    already large.  No call threads, and every product and sum keeps
    its operands and order, so the bytes match a step-by-step loop and do
    not depend on thread counts.
    """
    g = prop.grid
    size = g.n ** g.d
    nt = prop.fhat.shape[0]
    keep, e = prop.support, prop.step
    a = prop.held(prop.columns(fractional_multiplier(g, eta) * g.inverse_factor))
    # difference frequency of each pair, one index per real and imaginary part
    modes = np.unravel_index(keep, g.shape)
    delta = np.ravel_multi_index([(ax[:, None] - ax[None, :]) % g.n for ax in modes],
                                 g.shape)
    slots = (2 * delta[..., None] + np.arange(2)).ravel()
    scattered = np.zeros((nt, 2 * size))
    carried = np.zeros((keep.size,) * 2, dtype=complex)
    chunk = _chunk_steps(carried, nt - 1)
    # slots of the chunk's r-th time, offset by r rows of the scatter
    at = ((2 * size * np.arange(chunk))[:, None] + slots).ravel()
    e_bar, a_bar = e.conj(), a.conj()
    gain = np.empty((chunk,) + carried.shape, dtype=complex)
    for j0 in range(0, nt - 1, chunk):
        # steps j = j0 .. j0 + c - 1 carry P from t_j to t_{j+1}
        c = min(chunk, nt - 1 - j0)
        np.multiply(e[j0:j0 + c, :, None], e_bar[j0:j0 + c, None, :], out=gain[:c])
        drive = np.einsum("jka,jkb->jab", a[j0:j0 + c], a_bar[j0:j0 + c])
        carried = _carry(gain[:c], drive, carried)[-1]
        scattered[j0 + 1:j0 + c + 1] = np.bincount(
            at[:slots.size * c], weights=drive.view(float).ravel(),
            minlength=2 * size * c).reshape(c, 2 * size)
    sq = np.fft.ifftn(scattered.view(complex).reshape((nt,) + g.shape),
                      axes=_fft_axes(g.d)).real / size
    return np.sqrt(np.maximum(sq, 0.0))


def _fft_route(prop, eta):
    """G f values by the carried FFT loop, one inverse transform per step,
    on the grid with the amplitude block and step rows zero off the support."""
    g = prop.grid
    nt = prop.fhat.shape[0]
    factor = fractional_multiplier(g, eta) * g.inverse_factor
    amp = prop.to_grid(prop.held(prop.columns(factor)))
    step = prop.to_grid(prop.step)
    out = np.zeros((nt,) + g.shape)
    work = np.empty_like(amp)   # step i transforms rows 0 .. i - 1 into work[:i]
    for i in range(1, nt):
        amp[:i - 1] *= step[i - 1]
        space = np.fft.ifftn(amp[:i], axes=_fft_axes(g.d), out=work[:i])
        re, im = space.real, space.imag
        re **= 2
        im **= 2
        re += im
        out[i] = np.sqrt(np.sum(re, axis=(0, 1)))
    return out


def _l2(prop, eta):
    """||G f||_2 from the propagator of f without forming G, in O(nt * K * m).

    By Parseval, h^d sum_x |g|^2 = L^-d sum_xi |ghat|^2 per slice, so with
    q_j = sum_k |fhat_jk|^2 and the cell weights W_j of :func:`square_function`

        ||G f||_2^2 = dt / L^d sum_{i >= 1} sum_xi |xi|^(2 eta) B_i,
        B_i = sum_{j < i} |exp(I[i] - I[j+1])|^2 W_j q_j.

    B obeys B_i = B_{i-1} |e_i|^2 + W_{i-1} q_{i-1} on the m modes of the
    propagator's ``support``, carried for all i in one
    :func:`~paleyscope.spectral._carry` call and summed over i, so this is
    the space-time 2-norm of :func:`square_function` rearranged, equal to
    it up to rounding.
    """
    g = prop.grid
    q = np.sum(np.abs(prop.fhat) ** 2, axis=1)
    B = _carry(np.abs(prop.step) ** 2, prop.weight * q[:-1], 0.0)
    riesz = prop.columns(fractional_multiplier(g, eta))
    return float(np.sqrt(prop.dt / g.L ** g.d * np.sum(riesz ** 2 * np.sum(B, axis=0))))


def _lp_nd(values, h_d, dt, p):
    """(sum h^d * dt * values^p)^(1/p) for a nonnegative array."""
    return float((np.sum(values ** p) * h_d * dt) ** (1.0 / p))


def lp_space_time_norm(g, p):
    """Space-time L_p norm; channels reduce in l2 before the p-th power.

    Accepts a SquareField (scalar) or a SpaceTimeField (takes |.|_H first).
    """
    if not 1 <= p < np.inf:
        raise ValueError("p must be finite and at least 1")
    if isinstance(g, SquareField):
        mag = g.values
        grid, dt = g.grid, g.dt
    elif isinstance(g, SpaceTimeField):
        mag = np.sqrt(np.sum(np.abs(g.values) ** 2, axis=1))
        grid, dt = g.grid, g.dt
    else:
        raise TypeError("expected SquareField or SpaceTimeField")
    return _lp_nd(mag, grid.h ** grid.d, dt, p)


def _norms(prop, eta, ps):
    """||G f||_p for each p in ``ps`` from the propagator of f: by :func:`_l2`
    at p = 2, else from G, formed once when some p != 2."""
    G = _square_values(prop, eta) if any(p != 2 for p in ps) else None
    h_d = prop.grid.h ** prop.grid.d
    return [_l2(prop, eta) if p == 2 else _lp_nd(G, h_d, prop.dt, p) for p in ps]


def lp_ratio(sym, eta, f, p):
    """Empirical ratio ||G f||_p / || |f|_H ||_p as an LpReport.

    At p = 2 the numerator comes from Parseval (:func:`_l2`); G is formed
    only for p != 2.  Raises DegenerateFieldError when the reference
    norm vanishes.
    """
    norm_f = lp_space_time_norm(f, p)
    if norm_f == 0.0:
        raise DegenerateFieldError("input field has zero norm")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    norm_G = _norms(Propagator(sym, f), eta, [p])[0]
    g = f.grid
    return LpReport(p=float(p), norm_G=norm_G, norm_f=norm_f,
                    ratio=norm_G / norm_f, d=g.d, n=g.n, L=g.L,
                    nt=f.nt, dt=f.dt)


def _semigroup_time_quadrature(first, panels):
    """8-point Gauss nodes and weights on geometrically doubling panels from 0."""
    edges = [0.0]
    width = first
    for _ in range(panels):
        edges.append(edges[-1] + width)
        width *= 2.0
    edges = np.asarray(edges)
    x, w = np.polynomial.legendre.leggauss(8)
    x0, w0 = 0.5 * (x + 1.0), 0.5 * w
    nodes = edges[:-1, None] + np.diff(edges)[:, None] * x0[None, :]
    weights = np.diff(edges)[:, None] * w0[None, :]
    return nodes.ravel(), weights.ravel()


def elliptic_square_function(f, gamma, p):
    """Square function of the order-2*gamma semigroup applied to a static field.

    The operator has multiplier |xi|^gamma exp(-t |xi|^(2 gamma)); its squared
    time integral per nonzero mode is exactly 1/2, independent of gamma, so
    by Parseval the ratio is 1/sqrt(2) at p = 2.  The zero mode is
    annihilated, so the reference norm is taken mean-free.

    For every p the square function is tabulated on geometric Gauss panels
    that resolve the fastest and the slowest decay rate on the grid, and
    both spatial L_p norms are formed directly.  The report's time metadata
    is (nt=1, dt=0) since the output is a purely spatial profile.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 1 <= p < np.inf:
        raise ValueError("p must be finite and at least 1")
    g = f.grid
    h_d = g.h ** g.d
    fhat = to_frequency(f)
    mask = g.abs_xi() > 0
    mag0 = np.sqrt(np.sum(np.abs(to_space(g, fhat * mask)) ** 2, axis=0))
    norm_f = _lp_nd(mag0, h_d, 1.0, p)
    if norm_f == 0.0:
        raise DegenerateFieldError("field is constant; nothing to measure")

    rate = fractional_multiplier(g, 2.0 * gamma)
    r_pos = rate[mask]
    first = 0.01 / float(np.max(r_pos))
    panels = int(np.ceil(np.log2(15.0 / float(np.min(r_pos)) / first))) + 1
    nodes, weights = _semigroup_time_quadrature(first=first, panels=panels)
    riesz = fractional_multiplier(g, gamma)
    Gsq = np.zeros(g.shape)
    for t, w in zip(nodes, weights):
        mult = riesz * np.exp(-t * rate) * mask
        amp = to_space(g, fhat * mult)
        Gsq += w * np.sum(np.abs(amp) ** 2, axis=0)
    norm_G = _lp_nd(np.sqrt(Gsq), h_d, 1.0, p)
    return LpReport(p=float(p), norm_G=norm_G, norm_f=norm_f,
                    ratio=norm_G / norm_f, d=g.d, n=g.n, L=g.L, nt=1, dt=0.0)

