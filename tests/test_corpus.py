"""Seeded corpus: reproducibility, boundary conditions, band limitation."""

import numpy as np
import pytest

import paleyscope as ps


@pytest.fixture()
def grid():
    return ps.SpaceGrid(d=1, n=64, L=20.0)


def test_same_seed_reproduces_values(grid):
    a = ps.corpus_entry(grid, 32, 5)
    b = ps.corpus_entry(grid, 32, 5)
    np.testing.assert_array_equal(a.values, b.values)


def test_index_and_seed_change_the_draw(grid):
    base = ps.corpus_entry(grid, 32, 5)
    other_index = ps.corpus_entry(grid, 32, 6)
    other_seed = ps.corpus_entry(grid, 32, 5, seed=1)
    assert np.any(base.values != other_index.values)
    assert np.any(base.values != other_seed.values)


def test_boundary_slices_vanish(grid):
    f = ps.corpus_entry(grid, 32, 0)
    assert np.all(f.values[0] == 0.0)
    assert np.all(f.values[-1] == 0.0)
    assert np.any(f.values[1:-1] != 0.0)


def test_channel_count_cycles(grid):
    assert ps.corpus_entry(grid, 16, 0).k_h == 1
    assert ps.corpus_entry(grid, 16, 1).k_h == 3
    assert ps.corpus_entry(grid, 16, 2).k_h == 1


def test_time_step_spans_the_window(grid):
    f = ps.corpus_entry(grid, 33, 0, t_window=2.0)
    assert f.dt == pytest.approx(2.0 / 32)
    assert f.t0 == 0.0
    assert f.times()[-1] == pytest.approx(2.0)


def test_refinement_restricts_exactly(grid):
    """Entries are trig polynomials, so coarse samples embed in fine ones."""
    fine = ps.corpus_entry(ps.SpaceGrid(d=1, n=128, L=20.0), 16, 3)
    coarse = ps.corpus_entry(grid, 16, 3)
    np.testing.assert_allclose(
        fine.values[..., ::2], coarse.values, rtol=0, atol=1e-12)


def test_make_corpus_length_and_indices(grid):
    corpus = ps.make_corpus(grid, 16, count=5)
    assert len(corpus) == 5
    np.testing.assert_array_equal(
        corpus[2].values, ps.corpus_entry(grid, 16, 2).values)


def test_planar_entries(grid):
    g2 = ps.SpaceGrid(d=2, n=16, L=20.0)
    f = ps.corpus_entry(g2, 8, 0)
    assert f.values.shape == (8, 1, 16, 16)
    assert np.all(f.values[0] == 0.0)


def test_grid_that_aliases_the_band_is_refused():
    # at n = 8 the modes j = +-4 land on one grid frequency
    with pytest.raises(ValueError, match="grid.n"):
        ps.corpus_entry(ps.SpaceGrid(d=1, n=8, L=20.0), 16, 0)
    f = ps.corpus_entry(ps.SpaceGrid(d=1, n=16, L=20.0), 16, 0)
    assert f.values.shape == (16, 1, 16)
