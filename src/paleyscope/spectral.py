r"""Periodic grids, Fourier transforms, and kernel multipliers.

The spatial domain is the torus [-L/2, L/2)^d sampled on a uniform n^d grid.
The discrete transform approximates the continuum Fourier integral:

    fhat(xi) = integral f(x) exp(-i x . xi) dx  ~  h^d * phase * fftn(f)

where the per-axis alternating phase accounts for the -L/2 grid offset (for
even n the parity of the FFT bin equals the parity of the frequency index,
so the offset phase is real +-1).  The inverse applies the same phase before
``ifftn`` and divides by h^d.  With this normalization Parseval reads

    h^d sum |f|^2 = L^-d sum |fhat|^2.

Kernel multipliers K_hat(t, s, xi) = |xi|^eta exp(int_s^t psi(r, xi) dr) are
synthesized exactly from the piecewise-constant symbols of
:mod:`paleyscope.symbols`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "SpaceGrid",
    "Field",
    "SpaceTimeField",
    "to_frequency",
    "to_space",
    "apply_multiplier",
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

    ``n`` must be a power of two (>= 8) so that dyadic coarsenings used by
    the maximal-operator ladders stay on-grid.
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


def _check_values(grid, values):
    values = np.asarray(values)
    want = grid.shape
    if values.ndim < grid.d + 1 or values.shape[-grid.d:] != want:
        raise ValueError(f"values must end with grid shape {want}")
    return values


@dataclass(frozen=True)
class Field:
    """A multichannel spatial field, in space or frequency representation.

    ``values`` has shape ``(K_H,) + grid.shape``; channels model the
    Hilbert-space components of vector-valued data.
    """

    grid: SpaceGrid
    values: np.ndarray
    domain: str = "space"

    def __post_init__(self):
        if self.domain not in ("space", "freq"):
            raise ValueError("domain must be 'space' or 'freq'")
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
    domain: str = "space"

    def __post_init__(self):
        if self.domain not in ("space", "freq"):
            raise ValueError("domain must be 'space' or 'freq'")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        v = _check_values(self.grid, self.values)
        if v.ndim != self.grid.d + 2:
            raise ValueError("SpaceTimeField values need shape (nt, K_H) + grid.shape")
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
    """Forward transform; accepts Field or SpaceTimeField in space domain."""
    if f.domain != "space":
        raise ValueError("to_frequency expects a space-domain field")
    g = f.grid
    fhat = g.h ** g.d * g.phase() * np.fft.fftn(f.values, axes=_fft_axes(g.d))
    return replace(f, values=fhat, domain="freq")


def _inverse(grid, values):
    """Inverse transform of a frequency-side array over its last d axes."""
    return np.fft.ifftn(grid.phase() * values, axes=_fft_axes(grid.d)) / grid.h ** grid.d


def to_space(f):
    """Inverse transform; accepts Field or SpaceTimeField in frequency domain."""
    if f.domain != "freq":
        raise ValueError("to_space expects a frequency-domain field")
    vals = _inverse(f.grid, np.asarray(f.values, dtype=complex))
    return replace(f, values=vals, domain="space")


def apply_multiplier(f, multiplier):
    """Apply a frequency multiplier to a space-domain field, returning space domain.

    ``multiplier`` is an array over the grid shape, broadcast over channels.
    """
    multiplier = np.asarray(multiplier)
    if multiplier.shape != f.grid.shape:
        raise ValueError(f"multiplier must have grid shape {f.grid.shape}")
    if f.domain != "space":
        raise ValueError("apply_multiplier expects a space-domain field")
    fhat = to_frequency(f)
    return to_space(replace(fhat, values=fhat.values * multiplier))


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
    O(P * nt * n^d) multiply-adds and O(P * n^d) symbol evaluations.
    """
    if nt < 1:
        raise ValueError("nt must be at least 1")
    return sym.time_integral(t0, t0 + dt * np.arange(nt), grid.xi_grid())


class Propagator:
    """The evolution of ``sym`` applied to the slices of a space-time field.

    Holds the transformed slices ``fhat``, shape ``(nt, K_H) + grid.shape``,
    and the cumulative symbol integrals ``integrals`` (I) on the field's time
    grid: slice j reaches time t_i through the multiplier exp(I[i] - I[j]),
    which every route forms from the step factors ``step`` alone.
    """

    def __init__(self, sym, f):
        self.grid = f.grid
        self.fhat = to_frequency(f).values
        self.integrals = cumulative_symbol_integrals(sym, f.grid, f.t0, f.dt, f.nt)

    @cached_property
    def step(self):
        """One-step factors e_i = exp(I[i] - I[i-1]) in row i - 1, i = 1 .. nt - 1.

        Shape ``(nt - 1,) + grid.shape``, formed on first use.  Re psi <= 0
        gives |e_i| <= 1, so recursions that multiply by them cannot
        overflow; the product of rows j .. i - 1 is exp(I[i] - I[j]) up to
        rounding.
        """
        return np.exp(np.diff(self.integrals, axis=0))

    def to_space(self, values):
        """Inverse transform of a frequency-side array over its grid axes."""
        return _inverse(self.grid, values)

    def inverse_factor(self, scale=1.0):
        """The inverse transform's frequency-side factor phase * scale / h^d.

        ``ifft(inverse_factor(c) * values)`` equals ``c * to_space(values)``
        up to rounding, so a loop that transforms the same data many times
        can fold the factor into it once.
        """
        g = self.grid
        return g.phase() * (scale / g.h ** g.d)

    def ifft(self, values):
        """Raw inverse FFT over the grid axes, without phase or scale."""
        return np.fft.ifftn(values, axes=_fft_axes(self.grid.d))

    def to_point(self, values, x_index):
        """``to_space(values)`` at the grid point ``x_index`` only.

        Contracts the last d axes with the inverse-transform row of that
        point, so the cost is one dot product rather than a full transform.
        """
        g = self.grid
        k = np.arange(g.n)
        row = 1.0
        for x in x_index:
            row = np.multiply.outer(row, np.exp(2j * np.pi * ((k * x) % g.n) / g.n))
        row = g.phase() * row / (g.n * g.h) ** g.d
        return np.tensordot(values, row, axes=g.d)


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
    """Write a space-domain Field as PLSF: 32-byte header + complex64 payload.

    Header fields are little-endian: magic ``PLSF``, uint32 d, n, K_H, then
    float64 L, zero-padded to 32 bytes.  The payload is the channel-outermost
    row-major array cast to complex64.  The file is written atomically.
    """
    if f.domain != "space":
        raise ValueError("dump_field writes space-domain fields only")
    g = f.grid
    header = _HEADER.pack(_MAGIC, g.d, g.n, f.k_h, g.L)
    header += b"\x00" * (_HEADER_LEN - len(header))
    _atomic_write(path, header + f.values.astype(np.complex64).tobytes())


def load_field(path):
    """Read a PLSF file back into a space-domain Field (complex64 payload).

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
    return Field(grid, vals, domain="space")

