r"""Time-dependent generator symbols psi(t, xi) and their ellipticity checks.

Three families of negative-definite symbols are supported, each with
piecewise-constant dependence on time:

* ``FractionalSymbol``: psi(t, xi) = -a(t) |xi|^gamma, the fractional
  Laplacian of order gamma with a complex time-dependent coefficient.
* ``PolyFormSymbol``: psi(t, xi) = -sum_{|alpha|=|beta|=m} a^{ab}(t)
  xi^{alpha+beta}, a higher-order operator in divergence-like form.
* ``LevySymbol``: psi(t, xi) = -c1 |xi|^{2k} * S(t, xi) where S is a sphere
  quadrature of |(w,xi)|^gamma [1 - i phi(w,xi)] m(t,w) against a nonnegative
  directional density m, covering jump-process generators composed with
  integer Laplacian powers.

Symbols evaluate vectorized over arrays of frequency vectors with shape
``(..., d)``.  Because coefficients are piecewise constant, the time integral
of the symbol between two instants is exact (a finite sum over segments),
which downstream kernel synthesis relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalSymbol",
    "PolyFormSymbol",
    "LevySymbol",
    "EllipticityReport",
    "check_ellipticity",
    "check_levy_cancellation",
]


def _as_pieces(obj):
    """Normalize a time coefficient to (breakpoints, values) arrays.

    Accepts a scalar (one piece starting at time 0), a ``(breakpoints,
    values)`` pair, or a mapping with those two keys.  Breakpoints are the
    left edges of the pieces; the first piece extends to -inf and the last
    to +inf when evaluated outside the table.
    """
    if isinstance(obj, dict):
        obj = (obj["breakpoints"], obj["values"])
    if np.isscalar(obj) or isinstance(obj, complex):
        breaks = np.array([0.0])
        values = np.array([obj], dtype=complex)
    else:
        breaks, values = obj
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=complex)
    if breaks.ndim != 1 or values.shape[0] != breaks.shape[0] or breaks.size == 0:
        raise ValueError("coefficient table needs matching 1-d breakpoints and values")
    if np.any(np.diff(breaks) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if not (np.all(np.isfinite(breaks)) and np.all(np.isfinite(values))):
        raise ValueError("coefficient table contains non-finite entries")
    return breaks, values


def _piece_index(breaks, t):
    """Index of the piece containing each time in ``t``, clamped to the table."""
    return np.clip(np.searchsorted(breaks, t, side="right") - 1, 0, len(breaks) - 1)


def _piece_overlaps(breaks, s, t):
    """Overlap lengths of [s, t] with each piece, shape (P,) + shape(t).

    The first piece is extended to -inf and the last to +inf, so times
    outside the table clamp to the boundary pieces.
    """
    t = np.asarray(t, dtype=float)
    lo = np.concatenate([[-np.inf], breaks[1:]])
    hi = np.concatenate([breaks[1:], [np.inf]])
    shape = (len(breaks),) + t.shape
    lo = lo.reshape((len(breaks),) + (1,) * t.ndim)
    hi = hi.reshape((len(breaks),) + (1,) * t.ndim)
    w = np.minimum(t, hi) - np.maximum(s, lo)
    return np.clip(w, 0.0, None).reshape(shape)


def _decay_integral(x, lengths):
    """int exp(-int_0^u c) du over consecutive pieces (first axis) of lengths
    l_p and constant rates c_p = x_p / l_p: the sum of
    exp(-(x_0 + ... + x_{p-1})) l_p phi(x_p), phi(x) = -expm1(-x) / x, phi(0) = 1."""
    phi = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
    before = np.concatenate([np.zeros_like(x[:1]), np.cumsum(x[:-1], axis=0)])
    return np.sum(np.exp(-before) * (lengths * phi), axis=0)


def _unit_circle(count):
    """``count`` equispaced unit vectors at angles 2 pi q / count, shape (count, 2)."""
    th = 2 * np.pi * np.arange(count) / count
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


def _check_xi(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        xi = xi.reshape(1)
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite frequency input")
    return xi


class _TimeSymbol:
    """Shared evaluation machinery for piecewise-constant-in-time symbols."""

    breakpoints: np.ndarray  # left edges, ascending
    order: float             # effective homogeneity order gamma_eff
    dim: int | None          # fixed dimension, or None if dimension-agnostic
    family: str              # the config tag of the subclass

    @property
    def time_independent(self):
        return len(self.breakpoints) == 1

    def _eval_pieces(self, xi):
        raise NotImplementedError

    def _require_dim(self, xi):
        xi = _check_xi(xi)
        if self.dim is not None and xi.shape[-1] != self.dim:
            raise ValueError(
                f"frequency vectors have dimension {xi.shape[-1]}, symbol expects {self.dim}"
            )
        return xi

    def piecewise_values(self, xi):
        """Return (breakpoints, psi values per piece with shape (P,) + batch)."""
        xi = self._require_dim(xi)
        return self.breakpoints, self._eval_pieces(xi)

    def eval(self, t, xi):
        """psi(t, xi) for scalar t, vectorized over the batch axes of xi."""
        xi = self._require_dim(xi)
        return self._eval_pieces(xi)[int(_piece_index(self.breakpoints, t))]

    def time_integral(self, s, t, xi):
        """Exact integral of psi(r, xi) dr over [s, t], shape shape(t) + batch.

        ``t`` is a scalar or an array of end times, each at least ``s``;
        ``batch`` is the shape of ``xi`` without its last (vector) axis.  The
        sum runs over the time pieces: each adds its overlap with [s, t]
        times its symbol values.  Raises on s > t.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < s):
            raise ValueError("time integral requires s <= t")
        breaks, vals = self.piecewise_values(xi)
        w = _piece_overlaps(breaks, s, t)
        out = np.multiply.outer(w[0], vals[0])
        buf = np.empty_like(out) if len(w) > 1 else None
        for wp, vp in zip(w[1:], vals[1:]):
            out += np.multiply.outer(wp, vp, out=buf)
        return out


class FractionalSymbol(_TimeSymbol):
    """psi(t, xi) = -a(t) |xi|^gamma with nu < Re a(t) < 1/nu.

    Parameters
    ----------
    gamma : float
        Order of the fractional Laplacian, gamma > 0.
    a : scalar, (breakpoints, values) pair, or mapping
        Piecewise-constant complex coefficient of time.
    nu : float
        Ellipticity parameter in (0, 1); every value v of ``a`` must satisfy
        nu < Re v < 1/nu.
    """

    family = "fractional"

    def __init__(self, gamma, a=1.0, nu=0.5):
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ValueError("gamma must be positive and finite")
        if not (0 < nu < 1):
            raise ValueError("nu must lie in (0, 1)")
        breaks, values = _as_pieces(a)
        re = values.real
        if np.any(re <= nu) or np.any(re >= 1.0 / nu):
            raise ValueError("every coefficient value must satisfy nu < Re a < 1/nu")
        self.gamma = float(gamma)
        self.nu = float(nu)
        self.breakpoints = breaks
        self.a = values
        self.order = float(gamma)
        self.dim = None

    def _eval_pieces(self, xi):
        r = np.linalg.norm(xi, axis=-1) ** self.gamma
        return np.multiply.outer(-self.a, r)

    def __repr__(self):
        return f"FractionalSymbol(gamma={self.gamma}, pieces={len(self.a)}, nu={self.nu})"


class PolyFormSymbol(_TimeSymbol):
    """psi(t, xi) = -sum over multi-index pairs of a^{ab}(t) xi^{alpha+beta}.

    ``coeffs`` maps ``(alpha, beta)`` pairs of multi-indices (tuples of
    1 or 2 nonnegative ints with |alpha| = |beta| = m) to piecewise-constant time
    coefficients.  Coefficient tables with different breakpoints are merged
    onto their common refinement, which is exact for piecewise-constant data.

    Construction samples the form on unit vectors at every breakpoint and
    rejects coefficients violating
    ``nu <= sum Re[a^{ab}] u^{alpha+beta} <= 1/nu`` there.
    """

    family = "polyform"
    _UNIT_SAMPLES = 32  # circle directions sampled for the d=2 form check

    def __init__(self, m, coeffs, nu=0.5):
        if not (isinstance(m, int) and m >= 1):
            raise ValueError("m must be a positive integer")
        if not (0 < nu < 1):
            raise ValueError("nu must lie in (0, 1)")
        if not coeffs:
            raise ValueError("at least one coefficient pair is required")
        pairs = []
        tables = []
        d = None
        for (alpha, beta), tab in coeffs.items():
            alpha = tuple(int(v) for v in alpha)
            beta = tuple(int(v) for v in beta)
            if d is None:
                d = len(alpha)
            if len(alpha) != d or len(beta) != d:
                raise ValueError("all multi-indices must share one dimension")
            if sum(alpha) != m or sum(beta) != m or min(alpha + beta) < 0:
                raise ValueError("multi-indices must satisfy |alpha| = |beta| = m")
            pairs.append((alpha, beta))
            tables.append(_as_pieces(tab))
        if d not in (1, 2):
            raise ValueError("PolyFormSymbol supports multi-indices of dimension 1 or 2")
        breaks = np.unique(np.concatenate([b for b, _ in tables]))
        merged = np.empty((len(breaks), len(pairs)), dtype=complex)
        for r, (b, v) in enumerate(tables):
            merged[:, r] = v[_piece_index(b, breaks)]
        self.m = m
        self.nu = float(nu)
        self.dim = d
        self.order = float(2 * m)
        self.breakpoints = breaks
        self.pairs = tuple(pairs)
        self.exponents = np.array([[a + b for a, b in zip(al, be)] for al, be in pairs])
        self.coeff_table = merged
        self._check_form()

    def _unit_vectors(self):
        if self.dim == 1:
            return np.array([[1.0], [-1.0]])
        return _unit_circle(self._UNIT_SAMPLES)

    def _check_form(self):
        u = self._unit_vectors()
        powers = np.prod(u[:, None, :] ** self.exponents[None, :, :], axis=-1)
        form = powers @ self.coeff_table.real.T  # (samples, pieces)
        slack = 1e-12
        if np.any(form < self.nu - slack) or np.any(form > 1.0 / self.nu + slack):
            raise ValueError("coefficient form violates the nu ellipticity window on unit vectors")

    def _eval_pieces(self, xi):
        powers = np.prod(xi[..., None, :] ** self.exponents, axis=-1)
        return np.einsum("...r,pr->p...", powers, -self.coeff_table)

    def __repr__(self):
        return (f"PolyFormSymbol(m={self.m}, d={self.dim}, pairs={len(self.pairs)}, "
                f"nu={self.nu})")


class LevySymbol(_TimeSymbol):
    """Jump-generator symbol -c1 |xi|^{2k} * sphere quadrature, order 2k+gamma.

    For d=1 the sphere is the two-point set {-1, +1} with counting measure
    (node order (-1, +1)); for d=2 it is the unit circle discretized by one
    equispaced node per density column with trapezoid weights 2*pi/nodes,
    which is spectrally accurate for smooth periodic densities.  A node with
    |w.xi| <= 4 eps |xi|, the rounding of w and of the dot product, counts
    as orthogonal to xi, so psi does not depend on how xi is batched.

    Parameters
    ----------
    k : int
        Nonnegative integer power of the Laplacian composed with the jump part.
    gamma : float
        Jump order in (0, 2).
    density : (breakpoints, table)
        ``table[i, q] = m(t_i, w_q) >= 0`` over time pieces and sphere nodes.
    d : int
        Spatial dimension, 1 or 2.
    c1, c2 : float
        Positive normalization constants (not pinned by the underlying theory;
        they rescale time and the odd part).  Default 1; at gamma = 1 the odd
        part is the log branch, which has no c2, so c2 must be 1.
    N0 : float
        Required uniform negativity margin of Re psi on the unit sphere:
        construction raises ValueError unless Re psi <= -N0 at every sphere
        node in every time piece.  It is also the symbol's ``nu``.
    nodes : int or None
        Circle node count for d=2, which must equal the density table's width
        (ignored for d=1).
    """

    family = "levy"

    def __init__(self, k, gamma, density, d, c1=1.0, c2=1.0, N0=0.1, nodes=None):
        if not (isinstance(k, int) and k >= 0):
            raise ValueError("k must be a nonnegative integer")
        if not (0.0 < gamma < 2.0):
            raise ValueError("gamma must lie in (0, 2)")
        if d not in (1, 2):
            raise ValueError("LevySymbol supports d in {1, 2}")
        if not all(math.isfinite(v) and v > 0 for v in (c1, c2, N0)):
            raise ValueError("c1, c2, N0 must be finite and positive")
        if gamma == 1.0 and c2 != 1.0:
            raise ValueError("c2 must be 1 at gamma = 1, where the log branch has no c2")
        breaks, table = _as_pieces(density)
        if table.ndim != 2 or np.any(table.imag != 0):
            raise ValueError("density table must be real with shape (len(breakpoints), nodes)")
        table = table.real
        if np.any(table < 0):
            raise ValueError("density values must be nonnegative")
        if d == 1:
            if table.shape[1] != 2:
                raise ValueError("d=1 density table needs exactly the two nodes (-1, +1)")
            self.nodes = np.array([[-1.0], [1.0]])
            self.weights = np.array([1.0, 1.0])
        else:
            nq = table.shape[1]
            if nodes is not None and nodes != nq:
                raise ValueError(f"nodes={nodes} but the density table has {nq} columns")
            self.nodes = _unit_circle(nq)
            self.weights = np.full(nq, 2 * np.pi / nq)
        self.k = k
        self.gamma = float(gamma)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.N0 = float(N0)
        self.nu = self.N0
        self.dim = d
        self.order = float(2 * k + gamma)
        self.breakpoints = breaks
        self.density = table
        if np.max(self._eval_pieces(self.nodes).real) > -self.N0:
            raise ValueError("Re psi exceeds -N0 at a unit-sphere node in some time piece")

    def _eval_pieces(self, xi):
        dot = xi @ self.nodes.T                       # (..., nodes)
        tiny = 4.0 * np.finfo(float).eps * np.linalg.norm(xi, axis=-1)
        dot = np.where(np.abs(dot) <= tiny[..., None], 0.0, dot)
        absdot = np.abs(dot)
        sgn = np.sign(dot)
        if self.gamma == 1.0:
            # 0 * ln|0| := 0 at nodes orthogonal to xi
            with np.errstate(divide="ignore"):
                lg = np.where(absdot > 0, np.log(np.where(absdot > 0, absdot, 1.0)), 0.0)
            phi = -(2.0 / np.pi) * sgn * lg
        else:
            phi = self.c2 * sgn
        integrand = (absdot ** self.gamma) * (1.0 - 1j * phi) * self.weights
        quad = np.einsum("...q,pq->p...", integrand, self.density)
        if self.k == 0:
            lap = np.ones(xi.shape[:-1])
        else:
            lap = np.linalg.norm(xi, axis=-1) ** (2 * self.k)
        return -self.c1 * lap * quad

    def __repr__(self):
        return (f"LevySymbol(k={self.k}, gamma={self.gamma}, d={self.dim}, "
                f"nodes={len(self.weights)}, pieces={len(self.breakpoints)})")


@dataclass(frozen=True)
class EllipticityReport:
    """Outcome of sampling the two kernel-decay conditions.

    ``nu_observed`` is the largest uniform constant for which the decay
    condition Re psi <= -nu |xi|^gamma held on the samples.
    ``derivative_bounds`` maps each multi-index alpha with |alpha| <= d0 =
    floor(d/2) + 2 to the observed sup of |D^alpha psi| * |xi|^(|alpha|-gamma).
    ``pass_a1`` / ``pass_a2`` grade the two conditions against the requested
    nu separately; ``passed`` combines them.
    """

    nu_requested: float
    nu_observed: float
    derivative_bounds: dict
    pass_a1: bool
    pass_a2: bool

    @property
    def passed(self) -> bool:
        return self.pass_a1 and self.pass_a2


def _stencil_1d(order, step):
    """Central finite-difference stencil (offsets, coefficients) of given order."""
    if order == 0:
        return np.array([0.0]), np.array([1.0])
    ks = np.arange(order + 1)
    offsets = (order / 2.0 - ks) * step
    coeffs = np.array([(-1.0) ** k * math.comb(order, k) for k in ks]) / step ** order
    return offsets, coeffs


def _fd_derivative(sym, t, xi, alpha, step):
    """Central-difference estimate of D^alpha psi(t, .) at xi."""
    offsets = [np.array([0.0])]
    coeffs = [np.array([1.0])]
    for order in alpha:
        o, c = _stencil_1d(order, step)
        offsets.append(o)
        coeffs.append(c)
    grids = np.meshgrid(*offsets[1:], indexing="ij")
    pts = xi[None, :] + np.stack([g.ravel() for g in grids], axis=-1)
    weights = coeffs[1]
    for c in coeffs[2:]:
        weights = np.multiply.outer(weights, c)
    vals = sym.eval(t, pts)
    return np.sum(weights.ravel() * vals)


def check_ellipticity(sym, nu, xi_samples, t_samples):
    """Sample the decay condition and the derivative bounds of the symbol.

    Parameters
    ----------
    sym : symbol
    nu : float
        Requested ellipticity constant; the report grades against it.
    xi_samples : array-like, shape (m, d)
        Nonzero frequency samples.
    t_samples : sequence of float

    Returns
    -------
    EllipticityReport

    Notes
    -----
    Derivatives up to total order floor(d/2) + 2 are estimated with central
    differences at step 1e-3 * |xi| per axis, balancing truncation against
    double-precision rounding.
    """
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    t_samples = [float(t) for t in t_samples]
    if xi_samples.size == 0 or not t_samples:
        raise ValueError("samples must be nonempty")
    norms = np.linalg.norm(xi_samples, axis=-1)
    if np.any(norms == 0):
        raise ValueError("xi samples must exclude the origin")
    d = xi_samples.shape[1]
    gamma = sym.order
    d0 = d // 2 + 2

    nu_observed = math.inf
    for t in t_samples:
        psi = sym.eval(t, xi_samples)
        ratios = -psi.real / norms ** gamma
        nu_observed = min(nu_observed, float(np.min(ratios)))

    # every multi-index alpha with |alpha| <= d0, including alpha = 0
    def _indices(dim, total):
        if dim == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in _indices(dim - 1, total - head):
                yield (head,) + rest

    bounds = {}
    for total in range(d0 + 1):
        for alpha in _indices(d, total):
            worst = 0.0
            for t in t_samples:
                for xi, r in zip(xi_samples, norms):
                    dv = _fd_derivative(sym, t, xi, alpha, 1e-3 * r)
                    worst = max(worst, abs(dv) * r ** (total - gamma))
            bounds[alpha] = worst

    pass_a1 = nu_observed >= nu * (1.0 - 1e-9)
    pass_a2 = all(b <= (1.0 / nu) * (1.0 + 1e-6) for b in bounds.values())
    return EllipticityReport(
        nu_requested=float(nu),
        nu_observed=nu_observed,
        derivative_bounds=bounds,
        pass_a1=bool(pass_a1),
        pass_a2=bool(pass_a2),
    )


def check_levy_cancellation(sym, t):
    """Quadrature of the first sphere moment of the density at time t.

    The gamma = 1 jump symbol is positively homogeneous only when this
    vector vanishes; the caller compares against its own tolerance.
    """
    if not isinstance(sym, LevySymbol):
        raise TypeError("cancellation check applies to LevySymbol only")
    if sym.gamma != 1.0:
        raise ValueError("cancellation check is defined for gamma = 1")
    m = sym.density[int(_piece_index(sym.breakpoints, t))]
    return np.einsum("q,q,qd->d", sym.weights, m, sym.nodes)
