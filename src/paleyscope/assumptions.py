r"""Exponent bookkeeping, kernel envelopes, moment windows, and the decay integral.

The kernel-regularity framework is parametrized by constants (c2, c3,
delta0, kappa_i, sigma_i, mu_i) tied together by exact algebraic relations:

    c3     = (2(d+1)(c2+1) + 3) / (2(d+2)),       requires c2 > 1/2,
    delta0 = c2 - c3 + 1 = (2 c2 - 1) / (2(d+2)),
    Theta(theta, vartheta) = theta * d - 2 * vartheta,

plus a linear system diag(delta0 - kappa_i) mu_i = b_i whose right-hand side
is built from Theta combinations.  For the order-gamma symbols the standard
instantiation sets every kappa_i = 1/gamma with sigma values listed in
``theorem_exponents``; there all three rows degenerate to 0 = 0 and the
moment exponents mu_i are free within their windows.

Everything algebraic runs in exact rational arithmetic (fractions.Fraction);
floating point appears in the quadratures of the envelope synthesis and the
moment integrals.  The squared-kernel time integral whose value is the
uniform constant C0 is no quadrature: the symbols are piecewise constant in
time, so it is a finite sum of exponentials, one per time piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .spectral import Field, fractional_multiplier, to_space
from .symbols import _decay_integral, _piece_index

__all__ = [
    "as_fraction",
    "derive_c3_delta0",
    "theta",
    "mu_admissible",
    "KernelExponents",
    "solve_mu",
    "theorem_exponents",
    "EnvelopeFamily",
    "synthesize_envelopes",
    "MomentReport",
    "moment_integral",
    "assumption1_profile",
    "verify_assumption1",
]


def as_fraction(x):
    """Exact Fraction from int, Fraction, string like '1/2', or binary float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise TypeError(f"cannot convert {type(x).__name__} to a Fraction")


def derive_c3_delta0(c2, d):
    """Exact (c3, delta0) from c2 and the dimension; requires c2 > 1/2."""
    c2 = as_fraction(c2)
    if c2 <= Fraction(1, 2):
        raise ValueError("c2 must exceed 1/2")
    if not (isinstance(d, int) and d >= 1):
        raise ValueError("d must be a positive integer")
    c3 = Fraction(2 * (d + 1) * (c2 + 1) + 3, 1) / (2 * (d + 2))
    delta0 = c2 - c3 + 1
    return c3, delta0


def theta(th, vth, d):
    """The anisotropy pairing theta * d - 2 * vartheta; exact on rationals."""
    return th * d - 2 * vth


def mu_admissible(mu, d):
    """Parity admissibility of a moment exponent.

    With q = floor(mu/4) and rem = mu/2 - 2q in [0, 2), the requirement is
    2q + 1 <= floor(d/2) + 2 when rem < 1 and 2q + 2 <= floor(d/2) + 2
    otherwise.
    """
    mu = as_fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    cap = d // 2 + 2
    q = math.floor(mu / 4)
    rem = mu / 2 - 2 * q
    if rem < 1:
        return 2 * q + 1 <= cap
    return 2 * q + 2 <= cap


def _free_mu(d, upper):
    """Midpoint of the first admissible piece of (d+2, upper), or None.

    Admissibility is piecewise in mu with blocks [4q, 4q+2) and
    [4q+2, 4q+4); the first nonempty intersection with the open window
    supplies a deterministic interior default.  The scan starts at the
    blocks that hold d + 2 and stops once 2q + 1 exceeds the cap, since
    the requirement only grows with q: a few steps whatever d is.
    """
    lower = Fraction(d + 2)
    upper = as_fraction(upper)
    if upper <= lower:
        return None
    cap = d // 2 + 2
    q = (d + 2) // 4
    while 4 * q < upper and 2 * q + 1 <= cap:
        for block_lo, block_hi, need in (
            (Fraction(4 * q), Fraction(4 * q + 2), 2 * q + 1),
            (Fraction(4 * q + 2), Fraction(4 * q + 4), 2 * q + 2),
        ):
            if need > cap:
                continue
            lo = max(block_lo, lower)
            hi = min(block_hi, upper)
            if hi > lo:
                return (lo + hi) / 2
        q += 1
    return None


@dataclass(frozen=True)
class KernelExponents:
    """The exponent tuple with per-condition validity flags.

    ``mu`` entries may be None when a row is inconsistent or no admissible
    value exists in its window; ``mu_upper`` holds the open window upper
    bounds used for free rows.  ``valid`` maps condition names to booleans.
    """

    d: int
    c2: Fraction
    c3: Fraction
    delta0: Fraction
    kappa: tuple
    sigma: tuple
    mu: tuple = (None, None, None)
    mu_upper: tuple = (None, None, None)
    valid: dict = field(default_factory=dict)

    @property
    def is_valid(self) -> bool:
        return bool(self.valid) and all(self.valid.values())


def _mu_rhs(ke):
    """Right-hand side of the three-row moment system."""
    d = ke.d
    return (
        1 + theta(ke.kappa[0] + ke.delta0, ke.sigma[0] - ke.delta0, d),
        theta(ke.kappa[1] - ke.delta0, ke.sigma[1] - ke.c2, d),
        theta(ke.kappa[2] - ke.delta0, ke.sigma[2] - ke.c3, d),
    )


def solve_mu(ke):
    """Solve diag(delta0 - kappa_i) mu_i = b_i, handling degenerate rows.

    A row with delta0 = kappa_i is consistent only when its right-hand side
    vanishes; the moment exponent is then free and defaults to the midpoint
    of the first admissible piece of its window (upper bound from
    ``mu_upper``, falling back to d + 6).  Solved or defaulted values are
    flagged invalid when they fail mu > d + 2 or the parity admissibility.
    """
    rhs = _mu_rhs(ke)
    valid = dict(ke.valid)
    mu = []
    for i in range(3):
        lhs = ke.delta0 - ke.kappa[i]
        row = f"row{i + 1}"
        slot = f"mu{i + 1}"
        if lhs == 0:
            if rhs[i] != 0:
                valid[row] = False
                valid[slot] = False
                mu.append(None)
                continue
            valid[row] = True
            upper = ke.mu_upper[i] if ke.mu_upper[i] is not None else Fraction(ke.d + 6)
            m = _free_mu(ke.d, upper)
        else:
            valid[row] = True
            m = rhs[i] / lhs
            if isinstance(m, float):
                m = as_fraction(m)
        if m is None:
            valid[slot] = False
            mu.append(None)
        else:
            valid[slot] = bool(m > ke.d + 2 and mu_admissible(m, ke.d))
            mu.append(m)
    return replace(ke, mu=tuple(mu), valid=valid)


def theorem_exponents(gamma, d):
    """Instantiate the exponent tuple for the order-gamma symbol class.

    All identities are checked in exact rational arithmetic and recorded in
    ``valid``: the c3 formula, delta0 = 1/gamma, the three row identities,
    the two Theta evaluations, c2 > 1/2, and the moment-exponent inequality
    -2 sigma_1 + kappa_1 (mu_1 + d) > -1.
    """
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not (isinstance(d, int) and d >= 1):
        raise ValueError("d must be a positive integer")
    g = Fraction(1) / gamma
    kappa = (g, g, g)
    sigma1 = d * g + Fraction(1, 2) + g
    c2 = d * g + Fraction(1, 2) + 2 * g
    c3 = d * g + Fraction(3, 2) + g
    sigma = (sigma1, c2, c3)
    c3_derived, delta0 = derive_c3_delta0(c2, d)
    mu_upper = (gamma + d + 2, gamma + d + 4, 3 * gamma + d + 2)
    ke = KernelExponents(d=d, c2=c2, c3=c3, delta0=delta0, kappa=kappa,
                         sigma=sigma, mu_upper=mu_upper)
    rhs = _mu_rhs(ke)
    valid = {
        "c3_formula": c3_derived == c3,
        "delta0_gamma": delta0 == g,
        "c2_gt_half": c2 > Fraction(1, 2),
        "theta_row1": rhs[0] == 0,
        "theta_row2": rhs[1] == 0,
        "theta_row3": rhs[2] == 0,
        "theta_c3": theta(2 * delta0, c3 - delta0, d) == -3,
        "theta_c2": theta(2 * delta0, c2 - delta0, d) == -2 * delta0 - 1,
    }
    ke = replace(ke, valid=valid)
    ke = solve_mu(ke)
    moment_ok = False
    if ke.mu[0] is not None:
        moment_ok = -2 * sigma1 + kappa[0] * (ke.mu[0] + d) > -1
    valid = dict(ke.valid)
    valid["mu_moment"] = bool(moment_ok)
    return replace(ke, valid=valid)


@dataclass(frozen=True)
class EnvelopeFamily:
    """Grid samples of the three kernel envelopes at one (s, t) pair.

    ``f1`` collects first space derivatives of the rescaled kernel, ``f2``
    second derivatives, ``f3`` the mixed time-space derivative; all are
    nonnegative single-channel Fields.  ``m_values`` tabulates the rescaled
    symbol integral M(t, s, xi) = int_s^t psi(r, xi (t-s)^(-1/gamma)) dr.
    """

    f1: Field
    f2: Field
    f3: Field
    m_values: np.ndarray = field(repr=False)
    s: float
    t: float
    gamma: float


def synthesize_envelopes(sym, gamma, grid, s, t):
    """Sample the three derivative envelopes of the rescaled kernel.

    The rescaling xi -> xi (t-s)^(-1/gamma) inside the symbol makes the
    envelopes (s, t)-independent for time-independent symbols of exact
    order gamma, which the moment-window checks rely on.  The d first,
    d^2 second and d mixed derivative terms are stacked and go back to
    space in one inverse transform; each envelope sums its group's |.| in
    axis order.
    """
    if not t > s:
        raise ValueError("envelope synthesis requires s < t")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    scale = (t - s) ** (-1.0 / gamma)
    xi = grid.xi_grid()
    m_values = sym.time_integral(float(s), float(t), xi * scale)
    psi_t = sym.eval(float(t), xi * scale)
    base = fractional_multiplier(grid, gamma / 2.0) * np.exp(m_values)

    d = grid.d
    axes = np.moveaxis(xi, -1, 0)
    # the products go straight into one buffer, transformed in place: a
    # concatenation of fresh products took twice as long at d = 2, n = 128
    terms = np.empty((2 * d + d * d,) + grid.shape, dtype=complex)
    first, second, third = np.split(terms, [d, d + d * d])
    np.multiply(axes, base, out=first)
    np.multiply((axes[:, None] * axes[None, :]).reshape(second.shape), base, out=second)
    np.multiply(axes, (t - s) * psi_t * base, out=third)
    mags = np.abs(to_space(grid, terms, out=terms))
    f1, f2, f3 = (Field(grid, np.sum(m, axis=0)[None].astype(complex))
                  for m in np.split(mags, [d, d + d * d]))
    return EnvelopeFamily(f1=f1, f2=f2, f3=f3, m_values=m_values, s=float(s),
                          t=float(t), gamma=float(gamma))


@dataclass(frozen=True)
class MomentReport:
    """Weighted-tail integrals of |F|^2 over shrinking inner cutoffs.

    ``partials[k]`` integrates |x|^mu |F(x)|^2 over cutoffs[k] < |x| < L/2;
    cutoffs are descending, so partials are nondecreasing.  ``converged``
    records whether the final halving changed the value by at most ``tol``
    relatively.
    """

    mu: float
    cutoffs: tuple
    partials: tuple
    converged: bool
    rel_change: float
    tol: float = 1e-6


def moment_integral(F, mu, cutoffs=None, tol=1e-6):
    """Tail moment integrals of a Field against |x|^mu.

    When ``cutoffs`` is omitted a descending halving ladder from L/4 down to
    2h is used; the integral over each shell cutoff < |x| < L/2 is a plain
    grid sum.  Multichannel fields contribute their channel-l2 square.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    grid = F.grid
    x = grid.x_axis()
    mesh = np.meshgrid(*([x] * grid.d), indexing="ij")
    r = np.sqrt(sum(m ** 2 for m in mesh))
    density = np.sum(np.abs(F.values) ** 2, axis=0) * r ** mu * grid.h ** grid.d
    if cutoffs is None:
        ladder = []
        c = grid.L / 4
        while c >= 2 * grid.h:
            ladder.append(c)
            c /= 2
        cutoffs = ladder
    else:
        cutoffs = sorted((float(c) for c in cutoffs), reverse=True)
    if not cutoffs:
        raise ValueError("at least one cutoff is required")
    outer = r < grid.L / 2
    partials = [float(np.sum(density[(r > c) & outer])) for c in cutoffs]
    if len(partials) >= 2:
        last, prev = partials[-1], partials[-2]
        denom = abs(last)
        change = abs(last - prev)
        rel = change / denom if denom > 0 else (0.0 if change == 0 else math.inf)
    else:
        rel = math.inf
    return MomentReport(mu=float(mu), cutoffs=tuple(cutoffs),
                        partials=tuple(partials), converged=bool(rel <= tol),
                        rel_change=float(rel), tol=tol)


def assumption1_profile(sym, eta, xi_samples, s=0.0):
    """Per-sample values of int_s^inf |xi|^(2 eta) exp(2 Re int_s^t psi) dt.

    The symbol is constant on each time piece, so the integrand is one
    exponential per piece and the integral is a finite sum, exact up to
    rounding.  A sample whose last piece does not decay reports inf rather
    than raising, so non-elliptic inputs surface as divergence.  The zero
    frequency yields 0 when eta > 0 and inf when eta = 0.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    r = np.linalg.norm(xi_samples, axis=-1)
    breaks, pieces = sym.piecewise_values(xi_samples)
    # the pieces met from s on; the first piece extends to -inf, so s may
    # precede the first breakpoint
    first = int(_piece_index(breaks, s))
    c = -2.0 * pieces[first:].real                      # decay rates, (K, samples)
    lengths = np.diff(np.concatenate([[s], breaks[first + 1:]]))[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the finite pieces are the closed sum of _decay_integral with
        # x_k = c_k l_k; the last piece adds exp(-(x_0 + ... )) / c_K
        x = c[:-1] * lengths
        last = np.where(c[-1] > 0, 1.0 / c[-1], np.inf)
        total = _decay_integral(x, lengths) + np.exp(-np.sum(x, axis=0)) * last
        out = r ** (2 * eta) * total
    out[r == 0] = 0.0 if eta > 0 else math.inf
    return out


def verify_assumption1(sym, eta, xi_samples, s=0.0):
    """The constant C0: sup over samples and start times s' >= s of the
    squared-kernel time integral.

    On each time piece the profile solves C' = c_k C - |xi|^(2 eta) with a
    constant rate c_k = -2 Re psi_k, so it is monotone there, and its
    supremum over s' >= s is the max over s and the breakpoints after it.
    """
    starts = [s, *(float(b) for b in sym.breakpoints if b > s)]
    return max(float(np.max(assumption1_profile(sym, eta, xi_samples, s=t)))
               for t in starts)
