"""Properties of the step factor e_i = exp(I[i] - I[i-1]), of the cell
weights W_j, of the square function built on them and of the piece-table
time integrals, over all three families."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import paleyscope as ps
from paleyscope import spde

from conftest import exp_decay, grid_arrays, quad_profile

EPS = np.finfo(float).eps
NU = 0.5


def _breakpoints(draw):
    rest = draw(st.lists(st.floats(0.05, 2.0), max_size=2, unique=True))
    return [0.0] + sorted(rest)


@st.composite
def symbols(draw):
    """A piecewise-constant symbol of one of the three families at d = 1."""
    family = draw(st.sampled_from(["fractional", "polyform", "levy"]))
    breaks = _breakpoints(draw)
    pieces = len(breaks)
    re = st.floats(NU + 0.05, 1.0 / NU - 0.05)
    im = st.floats(-1.0, 1.0)
    if family == "fractional":
        a = [complex(draw(re), draw(im)) for _ in range(pieces)]
        return ps.FractionalSymbol(gamma=draw(st.floats(0.5, 2.5)),
                                   a=(breaks, a), nu=NU)
    if family == "polyform":
        m = draw(st.sampled_from([1, 2]))
        a = [complex(draw(re), draw(im)) for _ in range(pieces)]
        return ps.PolyFormSymbol(m=m, coeffs={((m,), (m,)): (breaks, a)}, nu=NU)
    # on |xi| = 1, Re psi = -(m(-1) + m(+1)); every row with a positive sum
    # gives a symbol, with the margin N0 set to the smallest sum
    row = st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2).filter(
        lambda m: m[0] + m[1] > 0)
    table = [draw(row) for _ in range(pieces)]
    return ps.LevySymbol(k=draw(st.sampled_from([0, 1])),
                         gamma=draw(st.floats(0.2, 1.8)), d=1,
                         density=(breaks, table),
                         N0=min(m[0] + m[1] for m in table))


@st.composite
def propagators(draw):
    """(symbol, forcing, propagator) on a small random space-time grid."""
    sym = draw(symbols())
    grid = ps.SpaceGrid(d=1, n=draw(st.sampled_from([8, 16, 32])),
                        L=draw(st.floats(5.0, 40.0)))
    nt = draw(st.integers(3, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (nt, 2) + grid.shape
    f = ps.SpaceTimeField(grid=grid, t0=draw(st.floats(0.0, 0.5)),
                          dt=draw(st.floats(0.01, 0.2)),
                          values=rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
    return sym, f, ps.Propagator(sym, f)


@settings(max_examples=40, deadline=None)
@given(case=propagators())
def test_step_factors_never_grow(case):
    _, f, prop = case
    assert prop.step.shape == (f.nt - 1, prop.support.size)
    assert np.all(np.abs(prop.step) <= 1.0 + 1e-15)


@settings(max_examples=40, deadline=None)
@given(case=propagators(), data=st.data())
def test_step_products_follow_the_semigroup_law(case, data):
    # prod_{l = j+1 .. i} e_l = exp(I[i] - I[j]); the rounding of the summed
    # exponent grows with |I[i] - I[j]|, so the tolerance does too
    sym, f, prop = case
    nt = f.nt
    i = data.draw(st.integers(1, nt - 1))
    integrals = prop.columns(grid_arrays(sym, f).integrals)
    want = exp_decay(integrals, i, i + 1)
    tiny = np.finfo(float).tiny
    prod = np.ones(prop.support.size, dtype=complex)
    for j in range(i - 1, -1, -1):
        prod = prod * prop.step[j]
        ref = want[j]
        normal = np.abs(ref) >= tiny
        tol = 4 * nt * EPS * (1.0 + np.abs(integrals[i] - integrals[j]))
        err = np.abs(prod - ref)
        assert np.all(err[normal] <= tol[normal] * np.abs(ref[normal]))


@settings(max_examples=40, deadline=None)
@given(case=propagators(), data=st.data())
def test_recursion_is_causal(case, data):
    # u(t_i) of the recursion reads forcing slices j < i only, bit for bit
    sym, f, prop = case
    i = data.draw(st.integers(1, f.nt - 1))
    dw = np.random.default_rng(i).standard_normal((3, f.k_h, f.nt))
    tampered = f.values.copy()
    tampered[i:] = 7.7 + 0.1j
    prop2 = ps.Propagator(sym, ps.SpaceTimeField(grid=f.grid, t0=f.t0,
                                                 dt=f.dt, values=tampered))
    u, u2 = ([*spde._advance(p.step, p.held(1 / np.sqrt(p.dt)), dw)]
             for p in (prop, prop2))
    np.testing.assert_array_equal(u[i - 1], u2[i - 1])
    if i < f.nt - 1:
        assert not np.array_equal(u[i], u2[i])


@settings(max_examples=40, deadline=None)
@given(case=propagators(), data=st.data())
def test_square_function_is_causal(case, data):
    # G(t_i) reads slices j < i only, bit for bit: slice j is held on
    # [t_j, t_{j+1}) and first reaches t_{j+1}
    sym, f, _ = case
    i = data.draw(st.integers(0, f.nt - 3))
    tampered = f.values.copy()
    tampered[i + 1:] += 7.7 + np.arange(f.grid.n) * 0.1j
    g = ps.square_function(sym, 0.0, f).values
    g2 = ps.square_function(sym, 0.0, ps.SpaceTimeField(
        grid=f.grid, t0=f.t0, dt=f.dt, values=tampered)).values
    np.testing.assert_array_equal(g[: i + 2], g2[: i + 2])
    assert not np.array_equal(g[i + 2], g2[i + 2])


def _quad_cell_weight(sym, s, t, xi):
    """int_s^t exp(2 Re int_r^t psi) dr for one frequency vector, by adaptive
    quadrature on each sub-cell between the symbol's breakpoints."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))

    def integrand(r):
        return np.exp(2.0 * sym.time_integral(r, t, xi).real)

    cuts = [s, *(float(b) for b in sym.breakpoints if s < b < t), t]
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


@settings(max_examples=30, deadline=None)
@given(sym=symbols(), data=st.data(), dt=st.floats(0.01, 0.3),
       theta=st.floats(0.05, 0.95), cell=st.integers(0, 2), nt=st.integers(4, 6))
def test_cell_weights_bracket_and_match_quadrature(sym, data, dt, theta, cell, nt):
    # a breakpoint of the symbol sits at fraction theta inside cell ``cell``
    b = data.draw(st.sampled_from(list(sym.breakpoints)))
    grid = ps.SpaceGrid(d=1, n=8, L=data.draw(st.floats(5.0, 40.0)))
    f = ps.SpaceTimeField(grid=grid, t0=b - (cell + theta) * dt, dt=dt,
                          values=np.zeros((nt, 1, 8), complex))
    ref = grid_arrays(sym, f)
    t = f.times()
    length = np.diff(t)[:, None]
    # Re psi <= 0 makes the integrand nondecreasing in r, between
    # |e_{j+1}|^2 at r = t_j and 1 at r = t_{j+1}
    assert np.all(ref.weight >= length * np.abs(ref.step) ** 2 * (1 - 1e-12))
    assert np.all(ref.weight <= length * (1 + 1e-12))
    xi = grid.xi_axis()
    want = [[_quad_cell_weight(sym, t[j], t[j + 1], v) for v in xi]
            for j in range(nt - 1)]
    np.testing.assert_allclose(ref.weight, want, rtol=1e-9, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(sym=symbols(), n=st.sampled_from([8, 16]), t0=st.floats(-0.5, 1.0),
       dt=st.floats(0.01, 0.3), nt=st.integers(1, 12))
def test_cumulative_integrals_are_per_time_integrals(sym, n, t0, dt, nt):
    grid = ps.SpaceGrid(d=1, n=n, L=10.0)
    rows = ps.cumulative_symbol_integrals(sym, grid, t0, dt, nt)
    times = t0 + dt * np.arange(nt)
    for row, t in zip(rows, times):
        np.testing.assert_array_equal(row, sym.time_integral(t0, t, grid.xi_grid()))


@settings(max_examples=30, deadline=None)
@given(sym=symbols(), data=st.data(),
       xi=st.lists(st.floats(0.2, 3.0) | st.floats(-3.0, -0.2), min_size=1, max_size=3))
def test_decay_constant_matches_piecewise_quadrature(sym, data, xi):
    # a Levy margin N0 near the float range puts C0 near overflow, where the
    # quadrature cannot resolve 1e-9 (tests/test_assumptions.py keeps one
    # subnormal rate on a finite piece)
    assume(getattr(sym, "N0", 1.0) >= 1e-100)
    # s before the first breakpoint, between them, on one, or past the last
    s = data.draw(st.floats(-0.5, 2.5) | st.sampled_from(list(sym.breakpoints)))
    eta = sym.order / 2
    samples = [[v] for v in xi]
    want = [quad_profile(sym, eta, v, s) for v in samples]
    np.testing.assert_allclose(ps.assumption1_profile(sym, eta, samples, s=s),
                               want, rtol=1e-9, atol=0.0)
