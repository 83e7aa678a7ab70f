"""Symbol families: piecewise time structure, ellipticity, jump reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paleyscope as ps


class TestFractional:
    def test_eval_picks_the_active_piece(self):
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5]), nu=0.5)
        assert sym.eval(0.25, 1.0) == pytest.approx(-1.0)
        assert sym.eval(0.75, 1.0) == pytest.approx(-1.5)
        # before the first breakpoint the first piece extends left
        assert sym.eval(-1.0, 1.0) == pytest.approx(-1.0)

    def test_time_integral_exact_across_pieces(self):
        sym = ps.FractionalSymbol(gamma=2.0, a=([0.0, 0.5], [1.0, 1.5]), nu=0.5)
        # 0.25 * (-1) + 0.25 * (-1.5) at |xi| = 1
        assert sym.time_integral(0.25, 0.75, 1.0) == pytest.approx(
            -0.625, abs=1e-15)
        # scaling in |xi|^gamma
        assert sym.time_integral(0.25, 0.75, 2.0) == pytest.approx(
            -2.5, abs=1e-14)

    def test_time_integral_rejects_reversed_interval(self):
        sym = ps.FractionalSymbol(gamma=2.0, a=1.0, nu=0.5)
        with pytest.raises(ValueError):
            sym.time_integral(1.0, 0.5, 1.0)

    def test_constructor_enforces_coefficient_window(self):
        with pytest.raises(ValueError):
            ps.FractionalSymbol(gamma=2.0, a=0.4, nu=0.5)
        with pytest.raises(ValueError):
            ps.FractionalSymbol(gamma=2.0, a=2.5, nu=0.5)
        with pytest.raises(ValueError):
            ps.FractionalSymbol(gamma=-1.0, a=1.0, nu=0.5)

    def test_metadata(self):
        sym = ps.FractionalSymbol(gamma=1.5, a=1.0, nu=0.5)
        assert sym.family == "fractional"
        assert sym.order == 1.5
        assert sym.time_independent
        two = ps.FractionalSymbol(gamma=1.5, a=([0.0, 0.5], [1.0, 0.9]), nu=0.5)
        assert not two.time_independent

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(-0.5, 0.4),
        gap1=st.floats(0.05, 0.5),
        gap2=st.floats(0.05, 0.5),
        xi=st.floats(0.1, 6.0),
    )
    def test_time_integral_additive(self, s, gap1, gap2, xi):
        sym = ps.FractionalSymbol(
            gamma=1.5, a=([0.0, 0.3, 0.7], [1.0 + 0.2j, 0.8, 1.2 - 0.1j]), nu=0.5)
        m = s + gap1
        t = m + gap2
        whole = sym.time_integral(s, t, xi)
        split = (sym.time_integral(s, m, xi)
                 + sym.time_integral(m, t, xi))
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)


def _time_integral_piece_by_piece(sym, s, t, xi):
    """Reference: one full temporary per extra time piece."""
    from paleyscope.symbols import _piece_overlaps
    breaks, vals = sym.piecewise_values(xi)
    w = _piece_overlaps(breaks, s, np.asarray(t, dtype=float))
    out = np.multiply.outer(w[0], vals[0])
    for wp, vp in zip(w[1:], vals[1:]):
        out += np.multiply.outer(wp, vp)
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_time_integral_reuses_one_buffer_bit_for_bit(d):
    sym = ps.FractionalSymbol(gamma=1.5, a=(
        [0.0, 0.2, 0.45, 0.7], [1.0 + 0.2j, 0.8, 1.2 - 0.1j, 0.6 + 0.4j]), nu=0.5)
    xi = ps.SpaceGrid(d=d, n=64 if d == 1 else 32, L=20.0).xi_grid()
    for t in (0.9, -0.1 + 0.07 * np.arange(16)[3:]):
        np.testing.assert_array_equal(sym.time_integral(-0.1, t, xi),
                                      _time_integral_piece_by_piece(sym, -0.1, t, xi))
    one = ps.FractionalSymbol(gamma=1.5, a=1.0 + 0.2j, nu=0.5)
    np.testing.assert_array_equal(one.time_integral(0.0, 0.5, xi),
                                  _time_integral_piece_by_piece(one, 0.0, 0.5, xi))


def test_circle_directions_come_from_one_sampler():
    # arange angles equal numpy's linspace(0, 2 pi, n, endpoint=False) bit
    # for bit at the counts in use, so C0's samples keep their bytes
    from paleyscope.cli import _xi_samples
    from paleyscope.symbols import _unit_circle
    for count in (8, 16, 32):
        th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        np.testing.assert_array_equal(_unit_circle(count),
                                      np.stack([np.cos(th), np.sin(th)], axis=-1))
    th = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    want = [[r * np.cos(a), r * np.sin(a)] for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
            for a in th]
    np.testing.assert_array_equal(_xi_samples(2), np.array(want))
    poly = ps.PolyFormSymbol(m=1, coeffs={((1, 0), (1, 0)): 1.0,
                                          ((0, 1), (0, 1)): 1.0}, nu=0.5)
    np.testing.assert_array_equal(poly._unit_vectors(), _unit_circle(32))
    levy = ps.LevySymbol(k=1, gamma=0.5, d=2, density=([0.0], [np.ones(12)]))
    np.testing.assert_array_equal(levy.nodes, _unit_circle(12))


class TestPolyForm:
    def test_quartic_eval(self):
        sym = ps.PolyFormSymbol(m=2, coeffs={((2,), (2,)): 1.0}, nu=0.5)
        assert sym.eval(0.0, 2.0) == pytest.approx(-16.0)
        assert sym.order == 4
        assert sym.family == "polyform"

    def test_mixed_indices_share_dimension(self):
        with pytest.raises(ValueError):
            ps.PolyFormSymbol(
                m=1, coeffs={((1,), (1,)): 1.0, ((1, 0), (0, 1)): 1.0}, nu=0.5)

    def test_three_dimensional_indices_are_refused(self):
        with pytest.raises(ValueError, match="dimension 1 or 2"):
            ps.PolyFormSymbol(
                m=1,
                coeffs={((1, 0, 0), (1, 0, 0)): 1.0, ((0, 1, 0), (0, 1, 0)): 1.0,
                        ((0, 0, 1), (0, 0, 1)): 1.0},
                nu=0.5)

    def test_index_weight_must_match_m(self):
        with pytest.raises(ValueError):
            ps.PolyFormSymbol(m=2, coeffs={((1,), (2,)): 1.0}, nu=0.5)

    def test_form_check_rejects_sign_flip(self):
        with pytest.raises(ValueError):
            ps.PolyFormSymbol(m=2, coeffs={((2,), (2,)): -1.0}, nu=0.5)

    def test_form_check_samples_all_breakpoints(self):
        # second piece collapses to 0.1 < nu on unit vectors
        with pytest.raises(ValueError):
            ps.PolyFormSymbol(
                m=2, coeffs={((2,), (2,)): ([0.0, 1.0], [1.0, 0.1])}, nu=0.5)

    def test_planar_laplacian(self):
        sym = ps.PolyFormSymbol(
            m=1,
            coeffs={((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0},
            nu=0.5)
        assert sym.eval(0.0, [3.0, 4.0]) == pytest.approx(-25.0)
        assert sym.dim == 2


class TestLevy:
    def test_line_reduction_is_exact(self):
        sym = ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 1.0]]), d=1)
        # two unit nodes with unit density: psi = -2 |xi|^gamma
        assert sym.eval(0.0, 1.0) == pytest.approx(-2.0, abs=1e-14)
        assert sym.eval(0.0, 4.0) == pytest.approx(-4.0, abs=1e-14)
        assert sym.order == pytest.approx(0.5)

    def test_symmetric_density_kills_imaginary_part(self):
        for gam in (0.5, 1.0, 1.5):
            sym = ps.LevySymbol(
                k=1, gamma=gam, density=([0.0], [[1.0, 1.0]]), d=1)
            val = sym.eval(0.0, 1.7)
            assert val.imag == 0.0
            assert val.real < 0.0

    def test_asymmetric_density_is_hermitian(self):
        sym = ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 2.0]]), d=1)
        plus = sym.eval(0.0, 1.3)
        minus = sym.eval(0.0, -1.3)
        assert minus == pytest.approx(np.conj(plus), rel=1e-14)
        assert plus.imag != 0.0

    def test_gamma_one_log_branch_finite_at_orthogonal_nodes(self):
        # on the circle some nodes are orthogonal to xi; 0*log 0 must be 0
        sym = ps.LevySymbol(
            k=0, gamma=1.0, density=([0.0], [[1.0] * 64]), d=2, nodes=64)
        val = sym.eval(0.0, [1.0, 0.0])
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 1.0, 1.0]]), d=1)
        with pytest.raises(ValueError):
            ps.LevySymbol(k=0, gamma=2.5, density=([0.0], [[1.0, 1.0]]), d=1)
        with pytest.raises(ValueError):
            ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, -1.0]]), d=1)

    def test_negativity_margin_checked_in_every_piece(self):
        # the second piece gives Re psi = -0.05 on |xi| = 1
        table = [[1.0, 1.0], [0.02, 0.03]]
        with pytest.raises(ValueError, match="N0"):
            ps.LevySymbol(k=0, gamma=0.5, density=([0.0, 0.5], table), d=1)
        sym = ps.LevySymbol(k=0, gamma=0.5, density=([0.0, 0.5], table), d=1,
                            N0=0.04)
        assert sym.N0 == 0.04
        circle = np.zeros((1, 64))
        with pytest.raises(ValueError, match="N0"):
            ps.LevySymbol(k=1, gamma=1.0, density=([0.0], circle), d=2, nodes=64)

    @pytest.mark.parametrize("kwargs", [
        {"c1": np.nan}, {"c2": np.nan}, {"N0": np.nan}, {"c1": np.inf},
        {"c2": np.inf}, {"N0": 0.0},
        {"density": ([0.0, np.nan], [[1.0, 1.0], [1.0, 1.0]])},
        {"density": ([0.0, np.inf], [[1.0, 1.0], [1.0, 1.0]])},
        {"density": ([0.5, 0.0], [[1.0, 1.0], [1.0, 1.0]])},
        {"density": ([0.0], [[1.0, np.nan]])},
    ])
    def test_non_finite_constants_and_breakpoints_rejected(self, kwargs):
        args = {"k": 0, "gamma": 0.5, "d": 1, "density": ([0.0], [[1.0, 1.0]])}
        with pytest.raises(ValueError):
            ps.LevySymbol(**{**args, **kwargs})

    def test_node_count_comes_from_the_table(self):
        circle = ([0.0], [[1.0] * 16])
        assert len(ps.LevySymbol(k=0, gamma=0.5, density=circle, d=2).weights) == 16
        assert len(ps.LevySymbol(k=0, gamma=0.5, density=circle, d=2,
                                 nodes=16).weights) == 16
        with pytest.raises(ValueError, match="nodes"):
            ps.LevySymbol(k=0, gamma=0.5, density=circle, d=2, nodes=4)

    def test_c2_must_be_one_on_the_log_branch(self):
        line = ([0.0], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="c2"):
            ps.LevySymbol(k=0, gamma=1.0, density=line, d=1, c2=2.0)
        assert ps.LevySymbol(k=0, gamma=0.5, density=line, d=1, c2=2.0).c2 == 2.0

    def test_nu_is_the_margin(self):
        sym = ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 1.0]]), d=1,
                            N0=0.3)
        assert sym.nu == sym.N0 == 0.3

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_psi_does_not_depend_on_the_batch(self, gamma):
        # the suite's samples meet circle nodes orthogonal to xi, where a
        # rounded w.xi of about 1e-17 once added |w.xi|^gamma terms; batched
        # and single products may still differ in the last bit elsewhere
        from paleyscope.cli import _xi_samples
        xi = _xi_samples(2)
        th = 2 * np.pi * np.arange(16) / 16
        sym = ps.LevySymbol(k=1, gamma=gamma, d=2, density=(
            [0.0, 0.5], [1.0 + 0.5 * np.cos(th), np.full(16, 0.3)]))
        _, batched = sym.piecewise_values(xi)
        rows = np.stack([sym.piecewise_values(x[None])[1][:, 0] for x in xi], axis=1)
        np.testing.assert_allclose(batched, rows, rtol=1e-14, atol=0)

    def test_cancellation_vector(self):
        sym = ps.LevySymbol(k=0, gamma=1.0, density=([0.0], [[1.0, 1.0]]), d=1)
        assert ps.check_levy_cancellation(sym, 0.0) == pytest.approx([0.0])
        skew = ps.LevySymbol(k=0, gamma=1.0, density=([0.0], [[1.0, 3.0]]), d=1)
        assert ps.check_levy_cancellation(skew, 0.0)[0] != 0.0

    def test_cancellation_guards(self, heat):
        with pytest.raises(TypeError):
            ps.check_levy_cancellation(heat, 0.0)
        sym = ps.LevySymbol(k=0, gamma=0.5, density=([0.0], [[1.0, 1.0]]), d=1)
        with pytest.raises(ValueError):
            ps.check_levy_cancellation(sym, 0.0)


class TestEllipticity:
    def test_heat_symbol_passes_at_declared_constant(self, heat):
        report = ps.check_ellipticity(
            heat, 0.5, [[0.5], [1.0], [2.0], [4.0]], [0.0])
        assert report.passed
        assert report.pass_a1 and report.pass_a2
        assert report.nu_observed == pytest.approx(1.0, rel=1e-6)
        assert (0,) in report.derivative_bounds  # zeroth derivative included

    def test_decay_grade_fails_for_small_coefficient(self):
        sym = ps.FractionalSymbol(gamma=2.0, a=0.25, nu=0.1)
        report = ps.check_ellipticity(sym, 0.5, [[1.0], [2.0]], [0.0])
        assert not report.pass_a1
        assert report.nu_observed == pytest.approx(0.25, rel=1e-6)
        assert not report.passed

    def test_derivative_bounds_cover_low_orders(self, heat):
        report = ps.check_ellipticity(heat, 0.5, [[1.0], [3.0]], [0.0])
        orders = {sum(a) for a in report.derivative_bounds}
        assert orders == {0, 1, 2}  # every |alpha| up to floor(d/2) + 2

    def test_rejects_origin_sample(self, heat):
        with pytest.raises(ValueError):
            ps.check_ellipticity(heat, 0.5, [[0.0]], [0.0])
