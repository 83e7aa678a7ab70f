r"""Discrete maximal functions, the parabolic sharp function, and their ratios.

Space and time maximal functions are discrete Hardy-Littlewood operators:
sups of window averages over a ladder of radii.  Space windows wrap
periodically (matching the torus); time windows extend the data by zero,
matching compact support on the line, and are normalized by the full window
size 2k + 1.  The dense ladders (time, and space at d = 1) evaluate a block
of consecutive radii per call from strided views of one prefix table.

The sharp function measures mean oscillation over parabolic cylinders
(s - R, s + R) x B(y, R^delta0): for every ladder radius the oscillation is
computed at every cylinder center via separable means, then each point takes
the sup over all cylinders containing it (a morphological dilation, itself
separable: a doubling max along time, then one pass over the space ball,
shared by every cylinder of that ball since the dilation distributes over
max).  The oscillation is the root mean square sqrt(E[g^2] - E[g]^2),
computable from two mean tables; it dominates the paper's mean absolute
deviation E|g - E[g]| on every cylinder, so the sharp function bounds the
paper's.  Max is exact, so every reordering here keeps every bit.

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


def _prefix_table(arr, kmax, axis, wrap):
    """Prefix sums along ``axis`` of ``arr`` padded by ``kmax`` cells each side,
    periodic copies (``wrap``, tiled, so kmax may exceed the axis length)
    or zeros, after one leading zero: table[j] sums the padded cells
    before j.

    A zero-padded table accumulates only from its last leading zero
    through the data and copies the total into the tail: the leading sums
    are +0.0, adding +0.0 keeps every later sum (which, from +0.0, is never
    -0.0), so these are the bits of the sums over the whole padded row.
    """
    n = arr.shape[axis]
    at = (slice(None),) * axis
    table = np.zeros(arr.shape[:axis] + (n + 2 * kmax + 1,) + arr.shape[axis + 1:])
    if wrap:
        body = table[at + (slice(1, None),)]
        body[...] = np.take(arr, np.arange(-kmax, n + kmax) % n, axis=axis)
        np.cumsum(body, axis=axis, out=body)
        return table
    body = table[at + (slice(kmax, kmax + n + 1),)]
    body[at + (slice(1, None),)] = arr
    np.cumsum(body, axis=axis, out=body)
    table[at + (slice(kmax + n + 1, None),)] = table[at + (slice(kmax + n, kmax + n + 1),)]
    return table


def _window_means(arr, ks, axis, wrap=False, clipped=False, out=None):
    """Centered window means of width 2k+1 along ``axis``, one per k in ``ks``.

    One prefix-sum table, padded by max(ks) cells of periodic copies
    (``wrap``) or of zeros, serves the whole ladder; zero padding adds
    exact zeros, so a table padded wider than k holds the same prefix sums
    as one padded by k.  Sums divide by 2k + 1, or with ``clipped`` by the
    number of cells inside the data, in ``out`` when given (each mean then
    overwrites the last).  k = 0 yields ``arr`` itself.
    """
    kmax = max(ks, default=0)
    axis %= arr.ndim
    n = arr.shape[axis]
    at = (slice(None),) * axis
    table = _prefix_table(arr, kmax, axis, wrap)
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


# bytes of window sums one call of a dense ladder evaluates at once
_BLOCK_BYTES = 1 << 20


def _dense_ladder_max(arr, kmax, axis, wrap=False):
    """Pointwise max of the window means of width 2k+1 along ``axis`` over
    every k = 0 .. kmax, each sum divided by 2k + 1.

    The radii run in blocks of B sized by :data:`_BLOCK_BYTES`: one
    subtract of two strided views of the one prefix table (axis 0 of the
    view steps the radius), one divide by the column 2k + 1, and a max
    over the block.  Every mean is the per-radius one and max is exact,
    so the result holds the bits of a radius-by-radius ladder.  Radius 0
    is ``arr`` itself.

    Zero-padded with kmax >= n - 1, a block skips the positions whose
    window spans the data at k - 1 already.  From there on a window reads
    the total T of its line exactly (leading sums +0.0, trailing ones the
    total), so its means T / (2k + 1) peak at that first radius when
    T >= 0, which the ladder reads, and at kmax otherwise, which one last
    maximum with T / (2 kmax + 1) supplies for every position.  The
    positions left form two runs of equal length, read as one view.
    """
    axis %= arr.ndim
    n = arr.shape[axis]
    at = (slice(None),) * axis
    table = _prefix_table(arr, kmax, axis, wrap)
    out = arr.copy()
    block = max(1, min(kmax, _BLOCK_BYTES // max(arr.nbytes, 1)))
    sums = np.empty(block * arr.size)
    top = np.empty(arr.size)
    spans = not wrap and kmax >= n - 1
    step = table.strides[axis]

    def runs(a, start, lead, k0, s):
        """Rows start + i of the contiguous ``a`` for i in 0 .. s - 1 and
        k0 .. k0 + s - 1 (one run when s = n), with leading axes ``lead`` =
        (shape, strides); a view built directly on ``a``'s buffer."""
        shape = arr.shape[:axis] + (s,) + arr.shape[axis + 1:]
        return np.ndarray(lead[0] + (1 + (s < n),) + shape, float, a,
                          start * a.strides[axis], lead[1] + (k0 * a.strides[axis],) + a.strides)

    for k0 in range(1, kmax + 1, block):
        b = min(block, kmax + 1 - k0)
        s = n - k0 if spans and 2 * k0 >= n else n
        if s <= 0:
            break
        # radius k0 + r reads table[kmax + k0 + r + 1 :] - table[kmax - k0 - r :]
        hi = runs(table, kmax + k0 + 1, ((b,), (step,)), k0, s)
        lo = runs(table, kmax - k0, ((b,), (-step,)), k0, s)
        part = np.subtract(hi, lo, out=sums[:hi.size].reshape(hi.shape))
        size = 2.0 * np.arange(k0, k0 + b) + 1.0
        np.divide(part, size.reshape((b,) + (1,) * (part.ndim - 1)), out=part)
        dest = runs(out, 0, ((), ()), k0, s)
        best = part[0] if b == 1 else np.max(part, axis=0, out=top[:dest.size].reshape(dest.shape))
        np.maximum(dest, best, out=dest)
    if spans and kmax:
        np.maximum(out, table[at + (slice(-1, None),)] / (2.0 * kmax + 1.0), out=out)
    return out


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
    ladder = _space_radius_ladder(f.grid)
    if f.grid.d == 1:
        return Field(f.grid, _dense_ladder_max(values, ladder[-1], axis=-1, wrap=True))
    out = np.full_like(values, -np.inf)
    buf = np.empty_like(out)
    for means in _wrap_ball_means_nd(values, ladder, f.grid.d, out=buf):
        np.maximum(out, means, out=out)
    return Field(f.grid, out)


def maximal_time(f):
    """Maximal function along the time axis with zero extension.

    Averages are over windows of half-width k cells normalized by the full
    window size (2k + 1), matching a compactly supported function on the
    line.  The ladder is dense: every k from 0 to nt - 1.
    """
    values = _require_real(f.values, "maximal_time input")
    return replace(f, values=_dense_ladder_max(values, values.shape[0] - 1, axis=0))


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


def _time_dilate(arr, kt):
    """Max of ``arr`` over the time window |s - t| <= kt, clipped to the data.

    A doubling (sparse-table) max over contiguous time slices of a copy
    padded by -inf: after j doublings row i holds the max of the 2^j rows
    from i, and two such spans cover each window.
    """
    nt = arr.shape[0]
    kt = min(kt, nt - 1)
    if kt == 0:
        return arr
    width = 2 * kt + 1
    span = np.full((nt + 2 * kt,) + arr.shape[1:], -np.inf)
    span[kt:kt + nt] = arr
    reach = 1
    while 2 * reach <= width:
        span = np.maximum(span[:-reach], span[reach:])
        reach *= 2
    return np.maximum(span[:nt], span[width - reach:width - reach + nt])


def _sharp_core(arr, grid, dt, delta0):
    """RMS oscillation of ``arr`` over the cylinder ladder, dilated and
    maximized.

    The cylinder means are separable: ball means, then clipped time
    windows.  E[g] and E[g^2] ride one stacked array; each distinct space
    radius ks gets its ball means once, and one time table per ks serves
    every kt that shares it.  Each cylinder's oscillation is dilated along
    time, the max over the kt of one ks then takes one pass over the ball.
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
    reach = np.empty_like(arr)
    out = np.zeros_like(arr)
    for (ks, kts), space in zip(ladder.items(), spaces):
        reach.fill(-np.inf)
        for kt, (e1, e2) in zip(kts, _window_means(space, kts, axis=1, clipped=True,
                                                   out=means)):
            np.multiply(e1, e1, out=osc)
            np.subtract(e2, osc, out=osc)
            np.maximum(osc, 0.0, out=osc)
            np.sqrt(osc, out=osc)
            np.maximum(reach, _time_dilate(osc, kt), out=reach)
        # the ball dilation distributes over max: one pass serves every kt
        ball = (maximum_filter(reach, footprint=_ball_mask(grid.d, ks)[None], mode="wrap")
                if ks else reach)
        np.maximum(out, ball, out=out)
    return out


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
