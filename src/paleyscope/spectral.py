r"""Periodic grids, Fourier transforms, and kernel multipliers.

The spatial domain is the torus [-L/2, L/2)^d sampled on a uniform n^d grid.
The discrete transform approximates the continuum Fourier integral:

    fhat(xi) = integral f(x) exp(-i x . xi) dx  ~  h^d * phase * fftn(f)

where the per-axis alternating phase accounts for the -L/2 grid offset (for
even n the parity of the FFT bin equals the parity of the frequency index,
so the offset phase is real +-1).  Frequency-side data are bare arrays:
:func:`to_frequency` returns one, and :func:`to_space`, the one inverse
transform, multiplies by the grid factor ``inverse_factor`` = phase / h^d
before ``ifftn``; no module builds its own DFT row or exponential sum.
With this normalization Parseval reads

    h^d sum |f|^2 = L^-d sum |fhat|^2.

Kernel multipliers K_hat(t, s, xi) = |xi|^eta exp(int_s^t psi(r, xi) dr) are
synthesized exactly from the piecewise-constant symbols of
:mod:`paleyscope.symbols`.  A :class:`Propagator` holds that evolution for
one space-time field on the modes where the field lives, and :func:`_carry`
is the one recurrence that advances data by its step factors.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbols import _decay_integral, _piece_overlaps

__all__ = [
    "SpaceGrid",
    "Field",
    "SpaceTimeField",
    "to_frequency",
    "to_space",
    "fractional_multiplier",
    "kernel_hat",
    "cumulative_symbol_integrals",
    "Propagator",
    "dump_field",
    "load_field",
]

@dataclass(frozen=True)
class SpaceGrid:
    """Uniform periodic grid on [-L/2, L/2)^d with n points per axis.

    ``n`` must be a power of two (>= 8).  Even n makes the offset phase a
    real +-1, and a power of two ends the dyadic space-radius ladder of the
    d = 2 maximal functions exactly at n/2, the widest ball on the torus.
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two, at least 8")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError("L must be positive and finite")

    @property
    def h(self) -> float:
        """Grid spacing L / n."""
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def x_axis(self) -> np.ndarray:
        """Sample positions along one axis, starting at -L/2."""
        return -self.L / 2 + self.h * np.arange(self.n)

    def xi_axis(self) -> np.ndarray:
        """Angular frequencies along one axis in FFT order."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def xi_grid(self) -> np.ndarray:
        """Frequency vectors of shape ``shape + (d,)`` in FFT order."""
        ax = self.xi_axis()
        mesh = np.meshgrid(*([ax] * self.d), indexing="ij")
        return np.stack(mesh, axis=-1)

    def abs_xi(self) -> np.ndarray:
        return np.linalg.norm(self.xi_grid(), axis=-1)

    def phase(self) -> np.ndarray:
        """Alternating-sign factor encoding the -L/2 grid offset."""
        s = 1.0 - 2.0 * (np.arange(self.n) % 2)
        out = s
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, s)
        return out

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """phase / h^d, read-only: the inverse transform's one frequency-side
        factor, which a loop that transforms many arrays folds into them once."""
        out = self.phase() / self.h ** self.d
        out.flags.writeable = False
        return out


def _check_values(grid, values):
    values = np.asarray(values)
    want = grid.shape
    if values.ndim < grid.d + 1 or values.shape[-grid.d:] != want:
        raise ValueError(f"values must end with grid shape {want}")
    return values


@dataclass(frozen=True)
class Field:
    """A multichannel spatial field.

    ``values`` has shape ``(K_H,) + grid.shape``; channels model the
    Hilbert-space components of vector-valued data.
    """

    grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self):
        v = _check_values(self.grid, self.values)
        if v.ndim != self.grid.d + 1:
            raise ValueError("Field values need shape (K_H,) + grid.shape")
        object.__setattr__(self, "values", v)

    @property
    def k_h(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpaceTimeField:
    """A time-indexed multichannel field on a shared spatial grid.

    ``values`` has shape ``(nt, K_H) + grid.shape``; slice ``i`` lives at
    time ``t0 + i * dt``.
    """

    grid: SpaceGrid
    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ValueError("t0 must be finite")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        v = _check_values(self.grid, self.values)
        if v.ndim != self.grid.d + 2 or v.shape[0] < 1:
            raise ValueError("SpaceTimeField values need shape (nt, K_H) + grid.shape, nt >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("SpaceTimeField values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def nt(self) -> int:
        return self.values.shape[0]

    @property
    def k_h(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)


def _fft_axes(d):
    return tuple(range(-d, 0))


def to_frequency(f):
    """Forward transform of a Field or SpaceTimeField over its grid axes:
    the array h^d phase fftn(f.values)."""
    g = f.grid
    return g.h ** g.d * g.phase() * np.fft.fftn(f.values, axes=_fft_axes(g.d))


def to_space(grid, values, out=None):
    """Inverse transform of a frequency-side array over its last d axes: one
    multiply by ``grid.inverse_factor``, then ``ifftn``, both in the complex
    buffer ``out`` when given (``values`` itself allowed)."""
    out = np.multiply(values, grid.inverse_factor, out=out, dtype=complex)
    return np.fft.ifftn(out, axes=_fft_axes(grid.d), out=out)


def fractional_multiplier(grid, eta):
    """|xi|^eta on the grid; the zero mode is 0 for eta > 0 and 1 for eta = 0."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    r = grid.abs_xi()
    if eta == 0:
        return np.ones_like(r)
    with np.errstate(divide="ignore"):
        out = r ** eta
    out[(r == 0)] = 0.0
    return out


def kernel_hat(sym, s, t, eta, grid):
    """K_hat(t, s, xi) = |xi|^eta exp(int_s^t psi(r, xi) dr) as an array of grid shape.

    At xi = 0 the exponential equals 1 exactly (the symbol vanishes there),
    so the zero mode is 0 when eta > 0 and 1 when eta = 0.
    """
    if t < s:
        raise ValueError("kernel requires s <= t")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    xi = grid.xi_grid()
    integral = sym.time_integral(float(s), float(t), xi)
    return fractional_multiplier(grid, eta) * np.exp(integral)


def cumulative_symbol_integrals(sym, grid, t0, dt, nt):
    """I[j] = int_{t0}^{t0 + j dt} psi(r, xi) dr on the grid, shape (nt,) + grid.shape.

    One symbol evaluation per time piece (``time_integral``), so the cost is
    O(P * nt * n^d) multiply-adds and O(P * n^d) symbol evaluations.  The
    Propagator evaluates the integrals on its support only; this full-grid
    table is the tests' reference for it.
    """
    if nt < 1:
        raise ValueError("nt must be at least 1")
    return sym.time_integral(t0, t0 + dt * np.arange(nt), grid.xi_grid())


def _step_factors(integrals):
    """exp(I[i] - I[i-1]) along the first axis: the one exponential of the integrals."""
    return np.exp(np.diff(integrals, axis=0))


def _cell_weights(sym, times, xi):
    """W_j = int_{t_j}^{t_{j+1}} |exp(int_s^{t_{j+1}} psi)|^2 ds, shape
    ``(nt - 1,) + batch``: the closed sum over the pieces that overlap the
    cell, read backwards from t_{j+1}, each of decay rate -2 Re psi."""
    breaks, vals = sym.piecewise_values(xi)
    lengths = _piece_overlaps(breaks, times[:-1], times[1:])[::-1]
    lengths = lengths.reshape(lengths.shape + (1,) * (vals.ndim - 1))
    return _decay_integral(-2.0 * lengths * vals.real[::-1, None], lengths)


# bytes of carried blocks one time chunk of a recurrence forms in one call:
# 64 steps of an 8 x 8 complex block, one step once a block is that large
_CHUNK_BYTES = 1 << 16


def _chunk_steps(block, steps):
    """Steps per time chunk for carried arrays like ``block``: as many as
    :data:`_CHUNK_BYTES` holds, at least 1 and at most ``steps``."""
    return max(1, min(steps, _CHUNK_BYTES // max(block.nbytes, 1)))


def _carry(gain, drive, start):
    """X_r = X_{r-1} * gain[r] + drive[r] along the first axis from X_{-1} = start.

    The one place a recurrence advances by the step factors e_i: each route
    forms its gains and drives for a run of steps in whole-array calls and
    carries them here.  ``gain[r]`` broadcasts against ``drive[r]``.  The X_r
    are written over ``drive``, which is returned.  Each step is one product
    with its operands in this order (complex products are not commutative
    bit for bit) and one sum, so the bits are those of a per-step loop.
    """
    for r in range(len(drive)):
        drive[r] += start * gain[r]
        start = drive[r]
    return drive


class Propagator:
    """The evolution of ``sym`` applied to the slices of a space-time field,
    on the m modes of its spectral :attr:`support`.

    ``fhat``, shape ``(nt, K_H, m)``, holds the transformed slices on those
    modes; ``step`` and ``weight``, shape ``(nt - 1, m)``, the one-step
    factors e_i = exp(I[i] - I[i-1]) in row i - 1 and the cell weights W_j,
    formed from the symbol at those modes only (I: the cumulative symbol
    integrals).  Slice j is held on the cell [t_j, t_{j+1}): it enters at
    t_{j+1} with weight W_j and reaches t_i through e_{j+2} ... e_i.
    Re psi <= 0 gives |e_i| <= 1, so no recursion on the factors can
    overflow, and dt |e_{j+1}|^2 <= W_j <= dt.

    A mode is in ``support`` (flat grid indices, ascending; empty for a
    zero field) when, in some (time, channel) slice, its |fhat| exceeds
    64 eps times that slice's peak.  Each slice is its own forward FFT,
    whose worst-case rounding on a coefficient is about 5 log2(n^d) eps
    times the slice's 2-norm, 1 to n^(d/2) times its peak: a mode below the
    threshold in every slice holds about what rounding alone may leave.
    """

    def __init__(self, sym, f):
        g = self.grid = f.grid
        self.dt = f.dt
        fhat = to_frequency(f)
        mag = np.abs(fhat).reshape(f.nt, f.k_h, -1)
        keep = mag > 64 * np.finfo(float).eps * mag.max(axis=-1, keepdims=True)
        self.support = np.flatnonzero(keep.any(axis=(0, 1)))
        self.fhat = self.columns(fhat)
        xi = g.xi_grid().reshape(-1, g.d)[self.support]
        times = f.times()
        self.step = _step_factors(sym.time_integral(f.t0, times, xi))
        self.weight = _cell_weights(sym, times, xi)

    def held(self, scale):
        """sqrt(W_j) scale fhat_j, j = 0 .. nt - 2, as slice j enters at
        t_{j+1}, on the support columns."""
        return np.sqrt(self.weight)[:, None] * self.fhat[:-1] * scale

    def columns(self, values):
        """``values`` on the :attr:`support` modes: the last d (grid) axes
        become one axis of length m, in the order of :attr:`support`.

        A reshaped view when the support is the whole grid.
        """
        g = self.grid
        flat = values.reshape(values.shape[:values.ndim - g.d] + (g.n ** g.d,))
        if self.support.size == flat.shape[-1]:
            return flat
        return flat[..., self.support]

    def to_grid(self, columns, out=None):
        """Support columns, shape ``lead + (m,)``, as ``lead + grid.shape``.

        The inverse of :meth:`columns` for values that vanish off the
        support: the result is zero there, and a reshape when the support
        is the whole grid.  With ``out``, a C-contiguous ``lead +
        grid.shape`` array, the result is written there instead.
        """
        g = self.grid
        lead = columns.shape[:-1]
        full = self.support.size == g.n ** g.d
        if out is None:
            if full:
                return columns.reshape(lead + g.shape)
            out = np.zeros(lead + g.shape, dtype=columns.dtype)
        elif not full:
            out[...] = 0
        out.reshape(lead + (g.n ** g.d,))[..., self.support] = columns
        return out


_HEADER = struct.Struct("<4sIIId")  # magic, d, n, K_H, L; padded to 32 bytes
_MAGIC = b"PLSF"
_HEADER_LEN = 32


def _atomic_write(path, data):
    """Write str or bytes to ``path`` via a uniquely named temp file beside it."""
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb" if isinstance(data, bytes) else "x")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dump_field(f, path):
    """Write a Field as PLSF: 32-byte header + complex64 payload.

    Header fields are little-endian: magic ``PLSF``, uint32 d, n, K_H, then
    float64 L, zero-padded to 32 bytes.  The payload is the channel-outermost
    row-major array cast to complex64.  The file is written atomically.
    """
    g = f.grid
    header = _HEADER.pack(_MAGIC, g.d, g.n, f.k_h, g.L)
    header += b"\x00" * (_HEADER_LEN - len(header))
    _atomic_write(path, header + f.values.astype(np.complex64).tobytes())


def load_field(path):
    """Read a PLSF file back into a Field (complex64 payload).

    Raises ValueError unless the file is exactly one header with zero
    padding followed by the payload its header announces.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_LEN or raw[:4] != _MAGIC:
        raise ValueError("not a PLSF file")
    magic, d, n, k_h, L = _HEADER.unpack(raw[:_HEADER.size])
    if any(raw[_HEADER.size:_HEADER_LEN]):
        raise ValueError("PLSF header padding is not zero")
    grid = SpaceGrid(d=int(d), n=int(n), L=float(L))
    count = k_h * n ** d
    size = len(raw) - _HEADER_LEN
    want = count * np.dtype(np.complex64).itemsize
    if size != want:
        kind = "truncated" if size < want else "followed by trailing bytes"
        raise ValueError(f"PLSF payload {kind}: {size} bytes, header announces {want}")
    vals = np.frombuffer(raw[_HEADER_LEN:], dtype=np.complex64, count=count)
    vals = vals.reshape((k_h,) + grid.shape).astype(complex)
    return Field(grid, vals)

