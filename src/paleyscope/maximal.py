r"""Discrete maximal functions, the parabolic sharp function, and their ratios.

Space and time maximal functions are discrete Hardy-Littlewood operators:
sups of window averages over a ladder of radii.  Space windows wrap
periodically (matching the torus); time windows extend the data by zero,
matching compact support on the line, and are normalized by the full window
size 2k + 1.

The sharp function measures mean oscillation over parabolic cylinders
(s - R, s + R) x B(y, R^delta0): for every ladder radius the oscillation is
computed at every cylinder center via separable means, then each point takes
the sup over all cylinders containing it (a morphological dilation, itself
separable: a pass along time, then one over the space ball).  The
oscillation is the root mean square sqrt(E[g^2] - E[g]^2), computable from
two mean tables; it dominates the paper's mean absolute deviation
E|g - E[g]| on every cylinder, so the sharp function bounds the paper's.

:func:`verify_sharp_bound` is the one route for the paper's estimate
(G f)^# <= N (M_t M_x |f|_H^2)^{1/2} followed by Fefferman-Stein
||h||_p <= N ||h^#||_p: one sharp function of the mean-removed G f feeds
both ratios.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.ndimage import maximum_filter

from .spectral import Field
from .squarefn import DegenerateFieldError, square_function

__all__ = [
    "maximal_space",
    "maximal_time",
    "sharp_function",
    "verify_sharp_bound",
    "fefferman_stein_check",
]


def _require_real(values, what):
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.any(values.imag != 0):
            raise ValueError(f"{what} must be real-valued")
        values = values.real
    return values.astype(float, copy=False)


def _ball_mask(d, k):
    """Boolean cell mask of the radius-k ball, shape (2k+1,)*d."""
    ax = np.arange(-k, k + 1)
    if d == 1:
        return np.ones(2 * k + 1, dtype=bool)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    return sum(m ** 2 for m in mesh) <= k * k


def _window_means(arr, ks, axis, wrap=False, clipped=False, out=None):
    """Centered window means of width 2k+1 along ``axis``, one per k in ``ks``.

    One prefix-sum table, padded by max(ks) cells of periodic copies
    (``wrap``, tiled, so k may exceed the axis length) or of zeros, serves
    the whole ladder; zero padding adds exact zeros, so a table padded
    wider than k holds the same prefix sums as one padded by k.  Sums
    divide by 2k + 1, or with ``clipped`` by the number of cells inside the
    data, in ``out`` when given (each mean then overwrites the last).
    k = 0 yields ``arr`` itself.
    """
    kmax = max(ks, default=0)
    axis %= arr.ndim
    n = arr.shape[axis]
    at = (slice(None),) * axis
    table = np.zeros(arr.shape[:axis] + (n + 2 * kmax + 1,) + arr.shape[axis + 1:])
    body = table[at + (slice(1, None),)]
    if wrap:
        body[...] = np.take(arr, np.arange(-kmax, n + kmax) % n, axis=axis)
    else:
        body[at + (slice(kmax, kmax + n),)] = arr
    np.cumsum(body, axis=axis, out=body)
    i = np.arange(n).reshape((n,) + (1,) * (arr.ndim - axis - 1))
    for k in ks:
        if k == 0:
            yield arr
            continue
        sums = np.subtract(table[at + (slice(kmax + k + 1, kmax + k + 1 + n),)],
                           table[at + (slice(kmax - k, kmax - k + n),)], out=out)
        size = (np.minimum(i + k, n - 1) - np.maximum(i - k, 0) + 1 if clipped
                else 2 * k + 1)
        yield np.divide(sums, size, out=sums)


def _wrap_ball_means_nd(arr, ks, d, out=None):
    """Periodic ball means over the last d axes, one per radius in ``ks``,
    in ``out`` when given.

    At d = 1 the balls are windows; above, every radius is a circular
    convolution against one forward FFT of ``arr``.
    """
    if d == 1:
        yield from _window_means(arr, ks, axis=-1, wrap=True, out=out)
        return
    shape = arr.shape[-d:]
    axes = tuple(range(-d, 0))
    if any(ks):
        arr_hat = np.fft.fftn(arr, axes=axes)
        work = np.empty_like(arr_hat)
    for k in ks:
        if k == 0:
            yield arr
            continue
        mask = _ball_mask(d, k)
        kernel = np.zeros(shape)
        idx = np.meshgrid(*[np.arange(-k, k + 1) % s for s in shape], indexing="ij")
        np.add.at(kernel, tuple(ix[mask] for ix in idx), 1.0)
        np.multiply(arr_hat, np.fft.fftn(kernel, axes=axes), out=work)
        np.fft.ifftn(work, axes=axes, out=work)
        yield np.divide(work.real, mask.sum(), out=out)


def _space_radius_ladder(grid):
    if grid.d == 1:
        return list(range(grid.n // 2 + 1))
    ladder = [0]
    k = 1
    while k <= grid.n // 2:
        ladder.append(k)
        k *= 2
    return ladder


def maximal_space(f):
    """Hardy-Littlewood maximal function over centered periodic balls.

    The ladder is dense (every integer radius up to n/2) in one
    dimension and dyadic in two, where each radius costs a circular
    convolution.  Radius 0 is always included and is the input itself, so
    the output dominates the input.
    """
    values = _require_real(f.values, "maximal_space input")
    out = np.full_like(values, -np.inf)
    buf = np.empty_like(out)
    for means in _wrap_ball_means_nd(values, _space_radius_ladder(f.grid), f.grid.d, out=buf):
        np.maximum(out, means, out=out)
    return Field(f.grid, out)


def maximal_time(f):
    """Maximal function along the time axis with zero extension.

    Averages are over windows of half-width k cells normalized by the full
    window size (2k + 1), matching a compactly supported function on the
    line.  The ladder is dense: every k from 0 to nt - 1.
    """
    values = _require_real(f.values, "maximal_time input")
    out = np.full_like(values, -np.inf)
    buf = np.empty_like(out)
    for means in _window_means(values, range(values.shape[0]), axis=0, out=buf):
        np.maximum(out, means, out=out)
    return replace(f, values=out)


def _default_r_ladder(dt, nt):
    ladder = []
    j = 0
    while 2 ** j <= max(nt - 1, 1):
        ladder.append(dt * 2 ** j)
        j += 1
    return ladder


def _cylinder_cells(grid, dt, R, delta0):
    kt = max(int(round(R / dt)), 0)
    ks = min(max(int(round(R ** delta0 / grid.h)), 0), grid.n // 2)
    return kt, ks


def _dilate(arr, grid, kt, ks):
    """Pointwise sup over cylinder centers whose cylinder contains the point.

    A max over the cylinder is a max over its time window of maxima over
    its ball: one pass along time, -inf beyond the data, then one pass over
    the periodic ball.
    """
    if kt:
        arr = maximum_filter(arr, size=(2 * kt + 1,) + (1,) * grid.d,
                             mode="constant", cval=-np.inf)
    if ks:
        arr = maximum_filter(arr, footprint=_ball_mask(grid.d, ks)[None], mode="wrap")
    return arr


def _sharp_core(arr, grid, dt, delta0):
    """RMS oscillation of ``arr`` over the cylinder ladder, dilated and
    maximized.

    The cylinder means are separable: ball means, then clipped time
    windows.  E[g] and E[g^2] ride one stacked array; each distinct space
    radius ks gets its ball means once, and one time table per ks serves
    every kt that shares it.
    """
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    ladder = {}  # ks -> the time radii kt of its cylinders
    for R in _default_r_ladder(dt, arr.shape[0]):
        kt, ks = _cylinder_cells(grid, dt, R, delta0)
        ladder.setdefault(ks, []).append(kt)
    pair = np.stack([arr, arr ** 2])
    spaced = np.empty_like(pair)
    if grid.d == 1:
        # one wrapped table per radius, padded by that radius alone: a wider
        # periodic pad would change the rounding of the prefix sums
        spaces = (next(_wrap_ball_means_nd(pair, [ks], 1, out=spaced)) for ks in ladder)
    else:
        spaces = _wrap_ball_means_nd(pair, list(ladder), grid.d, out=spaced)
    means = np.empty_like(pair)
    osc = np.empty_like(arr)
    out = np.zeros_like(arr)
    for (ks, kts), space in zip(ladder.items(), spaces):
        for kt, (e1, e2) in zip(kts, _window_means(space, kts, axis=1, clipped=True,
                                                   out=means)):
            np.multiply(e1, e1, out=osc)
            np.subtract(e2, osc, out=osc)
            np.maximum(osc, 0.0, out=osc)
            np.sqrt(osc, out=osc)
            np.maximum(out, _dilate(osc, grid, kt, ks), out=out)
    return out


def sharp_function(g, delta0):
    """Parabolic sharp function of a :class:`~paleyscope.squarefn.SquareField`.

    For each radius R = dt * 2^j up to the window length the cylinder spans
    round(R/dt) time cells and round(R^delta0/h) space cells.  Constants
    map to zero.
    """
    values = _sharp_core(g.values.astype(float), g.grid, g.dt, delta0)
    return replace(g, values=values)


def verify_sharp_bound(sym, eta, f, p, delta0=None):
    """(sup ratio, Fefferman-Stein ratio) of G = G f from one sharp function.

    The sup ratio is sharp(G) / sqrt(M_time(M_space |f|_H^2)), 0/0 counted
    as 0; the second is ``fefferman_stein_check(G, p, delta0)``.  The sharp
    function is taken of the mean-removed G, which the RMS oscillation does
    not see, so the sup ratio equals that of sharp(G) up to rounding; a
    constant G raises :class:`DegenerateFieldError`.  The default delta0 is
    1/gamma for the symbol's homogeneity order gamma, matching the
    cylinders the estimate is stated for.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if delta0 is None:
        delta0 = 1.0 / sym.order
    h0 = _mean_removed(square_function(sym, eta, f).values)
    sharp = _sharp_core(h0, f.grid, f.dt, delta0)
    # the time slices of |f|_H^2 ride through maximal_space as channels
    density = Field(f.grid, np.sum(np.abs(f.values) ** 2, axis=1))
    w = maximal_time(maximal_space(density)).values
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(w > 0, sharp / np.sqrt(np.maximum(w, 0.0)), 0.0)
    return float(np.max(ratio)), _fs_ratio(h0, sharp, p, f.grid.h ** f.grid.d * f.dt)


def fefferman_stein_check(h, p, delta0):
    """Ratio ||h0||_p / ||h0^sharp||_p for the mean-adjusted field h0.

    The global grid mean is removed first because discrete periodic
    constants have zero sharp function; a constant input is degenerate.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    h0 = _mean_removed(h.values.astype(float))
    sharp = _sharp_core(h0, h.grid, h.dt, delta0)
    return _fs_ratio(h0, sharp, p, h.grid.h ** h.grid.d * h.dt)


def _mean_removed(arr):
    h0 = arr - arr.mean()
    if not np.any(h0):
        raise DegenerateFieldError("field is constant; ratio undefined")
    return h0


def _fs_ratio(h0, sharp, p, cell):
    """||h0||_p / ||sharp||_p with ``cell`` the space-time cell volume."""
    norm_h = float((np.sum(np.abs(h0) ** p) * cell) ** (1.0 / p))
    norm_sharp = float((np.sum(sharp ** p) * cell) ** (1.0 / p))
    if norm_sharp == 0.0:
        raise DegenerateFieldError("sharp function vanished identically")
    return norm_h / norm_sharp
