r"""Discrete maximal functions, the parabolic sharp function, and their ratios.

Space and time maximal functions are discrete Hardy-Littlewood operators:
sups of window averages over a ladder of radii.  Space windows wrap
periodically (matching the torus); time windows extend the data by zero,
matching compact support on the line, and are normalized by the full window
size 2k + 1.

The sharp function measures mean oscillation over parabolic cylinders
(s - R, s + R) x B(y, R^delta0): for every ladder radius the oscillation is
computed at every cylinder center via separable means, then each point takes
the sup over all cylinders containing it (a morphological dilation).  The
default oscillation metric is the root mean square sqrt(E[g^2] - E[g]^2),
computable from two mean tables; the mean absolute deviation variant is
available as ``metric="l1"`` through a direct evaluation intended for small
grids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import maximum_filter

from .spectral import Field, SpaceTimeField
from .squarefn import DegenerateFieldError, SquareField, square_function

__all__ = [
    "ParabolicCylinder",
    "maximal_space",
    "maximal_time",
    "sharp_function",
    "verify_sharp_bound",
    "sharp_bound_ratio",
    "fefferman_stein_check",
]


@dataclass(frozen=True)
class ParabolicCylinder:
    """The anisotropic window (s - R, s + R) x B(y, R^delta0)."""

    s: float
    y: tuple
    R: float
    delta0: float

    def __post_init__(self):
        if not (self.R > 0 and self.delta0 > 0):
            raise ValueError("R and delta0 must be positive")

    @property
    def time_interval(self) -> tuple:
        return (self.s - self.R, self.s + self.R)

    @property
    def space_radius(self) -> float:
        return self.R ** self.delta0


def _require_real(values, what):
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.any(values.imag != 0):
            raise ValueError(f"{what} must be real-valued")
        values = values.real
    return values.astype(float)


def _ball_mask(d, k):
    """Boolean cell mask of the radius-k ball, shape (2k+1,)*d."""
    ax = np.arange(-k, k + 1)
    if d == 1:
        return np.ones(2 * k + 1, dtype=bool)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    return sum(m ** 2 for m in mesh) <= k * k


def _window_means(arr, ks, axis, wrap=False, clipped=False):
    """Centered window means of width 2k+1 along ``axis``, one per k in ``ks``.

    One prefix-sum table, padded by max(ks) cells of periodic copies
    (``wrap``, tiled, so k may exceed the axis length) or of zeros, serves
    the whole ladder.  Sums divide by 2k + 1, or with ``clipped`` by the
    number of cells inside the data.  k = 0 yields ``arr`` itself.
    """
    kmax = max(ks, default=0)
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    width = [(kmax, kmax)] + [(0, 0)] * (a.ndim - 1)
    c = np.cumsum(np.pad(a, width, mode="wrap" if wrap else "constant"),
                  axis=0, dtype=float)
    c = np.concatenate([np.zeros((1,) + a.shape[1:]), c])
    i = np.arange(n).reshape((n,) + (1,) * (a.ndim - 1))
    for k in ks:
        if k == 0:
            yield arr
            continue
        sums = c[kmax + k + 1: kmax + k + 1 + n] - c[kmax - k: kmax - k + n]
        size = (np.minimum(i + k, n - 1) - np.maximum(i - k, 0) + 1 if clipped
                else 2 * k + 1)
        yield np.moveaxis(sums / size, 0, axis)


def _wrap_ball_means_nd(arr, ks, d):
    """Periodic ball means over the last d axes, one per radius in ``ks``.

    At d = 1 the balls are windows; above, every radius is a circular
    convolution against one forward FFT of ``arr``.
    """
    if d == 1:
        yield from _window_means(arr, ks, axis=-1, wrap=True)
        return
    shape = arr.shape[-d:]
    axes = tuple(range(-d, 0))
    arr_hat = np.fft.fftn(arr, axes=axes) if any(ks) else None
    for k in ks:
        if k == 0:
            yield arr
            continue
        mask = _ball_mask(d, k)
        kernel = np.zeros(shape)
        idx = np.meshgrid(*[np.arange(-k, k + 1) % s for s in shape], indexing="ij")
        np.add.at(kernel, tuple(ix[mask] for ix in idx), 1.0)
        khat = np.fft.fftn(kernel, axes=axes)
        yield np.fft.ifftn(arr_hat * khat, axes=axes).real / mask.sum()


def _space_radius_ladder(grid, radii_cells):
    if radii_cells is not None:
        return sorted(set(int(k) for k in radii_cells))
    if grid.d == 1:
        return list(range(grid.n // 2 + 1))
    ladder = [0]
    k = 1
    while k <= grid.n // 2:
        ladder.append(k)
        k *= 2
    return ladder


def maximal_space(f, radii_cells=None):
    """Hardy-Littlewood maximal function over centered periodic balls.

    The default ladder is dense (every integer radius up to n/2) in one
    dimension and dyadic in two, where each radius costs a circular
    convolution.  Radius 0 is always included and is the input itself, so
    the output dominates the input.
    """
    values = _require_real(f.values, "maximal_space input")
    ladder = _space_radius_ladder(f.grid, radii_cells)
    out = np.full_like(values, -np.inf)
    for means in _wrap_ball_means_nd(values, ladder, f.grid.d):
        np.maximum(out, means, out=out)
    return Field(f.grid, out, domain="space")


def maximal_time(f, radii=None):
    """Maximal function along the time axis with zero extension.

    Averages are over windows of half-width k cells normalized by the full
    window size (2k + 1), matching a compactly supported function on the
    line.  The default ladder is dense: every k from 0 to nt - 1.
    """
    values = _require_real(f.values, "maximal_time input")
    ladder = (sorted(set(int(k) for k in radii)) if radii is not None
              else range(values.shape[0]))
    out = np.full_like(values, -np.inf)
    for means in _window_means(values, ladder, axis=0):
        np.maximum(out, means, out=out)
    return replace(f, values=out)


def _as_scalar_spacetime(g):
    """(array (nt,)+shape, grid, t0, dt, rebuild) from either field type."""
    if isinstance(g, SquareField):
        arr = g.values.astype(float)

        def rebuild(values):
            return SquareField(grid=g.grid, t0=g.t0, dt=g.dt, values=values)

        return arr, g.grid, g.t0, g.dt, rebuild
    if isinstance(g, SpaceTimeField):
        if g.k_h != 1:
            raise ValueError("sharp function expects a single-channel field")
        arr = _require_real(g.values[:, 0], "sharp-function input")

        def rebuild(values):
            return replace(g, values=values[:, None].astype(complex))

        return arr, g.grid, g.t0, g.dt, rebuild
    raise TypeError("expected SquareField or SpaceTimeField")


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


def _cylinder_means(arr, grid, kt, ks):
    """Separable cylinder means: periodic space ball, clipped time window."""
    spaced = next(_wrap_ball_means_nd(arr, [ks], grid.d))
    return next(_window_means(spaced, [kt], axis=0, clipped=True))


def _dilate(arr, grid, kt, ks):
    """Pointwise sup over cylinder centers whose cylinder contains the point.

    kt cells of -inf appended to the time axis stop the ``wrap`` mode from
    wrapping time; the d = 2 ball admits no per-axis mode list.
    """
    if kt == 0 and ks == 0:
        return arr
    box = np.broadcast_to(_ball_mask(grid.d, ks)[None],
                          (2 * kt + 1,) + (2 * ks + 1,) * grid.d)
    pad = np.full((kt,) + arr.shape[1:], -np.inf)
    padded = np.concatenate([arr, pad], axis=0)
    return maximum_filter(padded, footprint=box, mode="wrap")[:arr.shape[0]]


def _sharp_core(arr, grid, dt, delta0, r_ladder, metric):
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    nt = arr.shape[0]
    if r_ladder is None:
        r_ladder = _default_r_ladder(dt, nt)
    if metric not in ("l2", "l1"):
        raise ValueError("metric must be 'l2' or 'l1'")
    if metric == "l1":
        return _sharp_l1_direct(arr, grid, dt, delta0, r_ladder)
    out = np.zeros_like(arr)
    for R in r_ladder:
        kt, ks = _cylinder_cells(grid, dt, R, delta0)
        e1 = _cylinder_means(arr, grid, kt, ks)
        e2 = _cylinder_means(arr ** 2, grid, kt, ks)
        osc = np.sqrt(np.maximum(e2 - e1 ** 2, 0.0))
        np.maximum(out, _dilate(osc, grid, kt, ks), out=out)
    return out


def _sharp_l1_direct(arr, grid, dt, delta0, r_ladder):
    """Mean-absolute-deviation sharp function by explicit enumeration.

    Quadratic in the grid size; meant for cross-checks on small grids.
    """
    nt = arr.shape[0]
    n = grid.n
    out = np.zeros_like(arr)
    for R in r_ladder:
        kt, ks = _cylinder_cells(grid, dt, R, delta0)
        ball = _ball_mask(grid.d, ks)
        offsets = np.argwhere(ball) - ks
        for ci in range(nt):
            t_lo, t_hi = max(ci - kt, 0), min(ci + kt, nt - 1)
            for center in np.ndindex(*grid.shape):
                cells = tuple(((offsets[:, a] + center[a]) % n)
                              for a in range(grid.d))
                patch = arr[(slice(t_lo, t_hi + 1),) + cells]
                dev = np.mean(np.abs(patch - patch.mean()))
                sl = (slice(t_lo, t_hi + 1),) + cells
                out[sl] = np.maximum(out[sl], dev)
    return out


def sharp_function(g, delta0, r_ladder=None, metric="l2"):
    """Parabolic sharp function of a scalar space-time field.

    For each radius R in the ladder (default dt * 2^j up to the window
    length) the cylinder spans round(R/dt) time cells and round(R^delta0/h)
    space cells.  Constants map to zero.
    """
    arr, grid, _, dt, rebuild = _as_scalar_spacetime(g)
    return rebuild(_sharp_core(arr, grid, dt, delta0, r_ladder, metric))


def verify_sharp_bound(sym, eta, f, delta0=None, r_ladder=None,
                       space_radii=None, time_radii=None, metric="l2"):
    """Sup ratio of sharp(G f) against the composed maximal function of |f|_H^2.

    The denominator is sqrt(M_time(M_space |f|^2)); 0/0 counts as 0.  The
    default delta0 is 1/gamma for the symbol's homogeneity order gamma,
    matching the cylinders the estimate is stated for.
    """
    if delta0 is None:
        delta0 = 1.0 / sym.order
    G = square_function(sym, eta, f)
    return sharp_bound_ratio(G, f, delta0, r_ladder, space_radii, time_radii,
                             metric)


def sharp_bound_ratio(G, f, delta0, r_ladder=None, space_radii=None,
                      time_radii=None, metric="l2"):
    """The ratio of :func:`verify_sharp_bound` for a precomputed G = G f."""
    sharp = _sharp_core(G.values, f.grid, f.dt, delta0, r_ladder, metric)
    return _sup_ratio(sharp, f, space_radii, time_radii)


def fefferman_stein_check(h, p, delta0, r_ladder=None, metric="l2"):
    """Ratio ||h0||_p / ||h0^sharp||_p for the mean-adjusted field h0.

    The global grid mean is removed first because discrete periodic
    constants have zero sharp function; a constant input is degenerate.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    arr, grid, _, dt, _ = _as_scalar_spacetime(h)
    h0 = _mean_removed(arr)
    sharp = _sharp_core(h0, grid, dt, delta0, r_ladder, metric)
    return _fs_ratio(h0, sharp, p, grid.h ** grid.d * dt)


def _sharp_bound_ratios(G, f, p, delta0):
    """(:func:`sharp_bound_ratio`, :func:`fefferman_stein_check`) of G = G f.

    Both read one sharp function, taken of the mean-removed G: the RMS
    oscillation ignores an added constant, so the first ratio equals
    ``sharp_bound_ratio(G, f, delta0)`` up to rounding and the second is
    ``fefferman_stein_check(G, p, delta0)`` exactly.  Default ladders, l2
    metric.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    h0 = _mean_removed(G.values)
    sharp = _sharp_core(h0, f.grid, f.dt, delta0, None, "l2")
    return (_sup_ratio(sharp, f, None, None),
            _fs_ratio(h0, sharp, p, f.grid.h ** f.grid.d * f.dt))


def _sup_ratio(sharp, f, space_radii, time_radii):
    """sup of sharp / sqrt(M_time(M_space |f|_H^2)), 0/0 counted as 0."""
    # the time slices of |f|_H^2 ride through maximal_space as channels
    density = Field(f.grid, np.sum(np.abs(f.values) ** 2, axis=1))
    mx = maximal_space(density, radii_cells=space_radii)
    w = maximal_time(mx, radii=time_radii).values
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(w > 0, sharp / np.sqrt(np.maximum(w, 0.0)), 0.0)
    return float(np.max(ratio))


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
