"""Seeded corpus: reproducibility, boundary conditions, band limitation."""

import itertools

import numpy as np
import pytest

import paleyscope as ps
from paleyscope import corpus, spectral


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


@pytest.mark.parametrize("value", [-1, 2 ** 64])
def test_index_or_seed_outside_a_key_word_is_refused(grid, value):
    with pytest.raises(ValueError, match=r"index must lie in \[0, 2\*\*64\)"):
        ps.corpus_entry(grid, 16, value)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        ps.corpus_entry(grid, 16, 0, seed=value)


def _exponential_sum_entry(grid, nt, index, seed):
    """The entry's values by direct exponential sums on the grid, and its
    lattice modes: the reference the one-transform synthesis reproduces."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    k_h = corpus.K_H_CYCLE[index % len(corpus.K_H_CYCLE)]
    axis = range(-corpus.JMAX, corpus.JMAX + 1)
    modes = np.array([j for j in itertools.product(axis, repeat=grid.d) if any(j)],
                     dtype=float)
    xi = 2 * np.pi * modes / grid.L
    x = grid.x_axis()
    tau = np.arange(nt) / (nt - 1)
    vals = np.zeros((nt, k_h) + grid.shape, dtype=complex)
    for ch in range(k_h):
        for _ in range(corpus.TERMS):
            width = rng.uniform(0.8, 1.6)
            x0 = rng.uniform(-grid.L / 4, grid.L / 4, size=grid.d)
            envelope = np.exp(-(width * np.linalg.norm(xi, axis=-1)) ** 2 / 2) + 0.3
            coeff = (rng.standard_normal(len(modes))
                     + 1j * rng.standard_normal(len(modes))) * envelope
            cq = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            profile = np.sin(np.pi * tau) ** 2 * (
                1.0 + 0.5 * sum(cq[q] * np.exp(2j * np.pi * (q + 1) * tau)
                                for q in range(3)))
            spatial = np.zeros(grid.shape, dtype=complex)
            for c, k in zip(coeff, xi):
                wave = np.ones(grid.shape, dtype=complex)
                for ax in range(grid.d):
                    shape = [1] * grid.d
                    shape[ax] = grid.n
                    wave = wave * np.exp(1j * k[ax] * (x - x0[ax])).reshape(shape)
                spatial += c * wave
            vals[:, ch] += profile.reshape((nt,) + (1,) * grid.d) * spatial
    vals[0] = 0.0
    vals[-1] = 0.0
    return vals, modes.astype(int)


@pytest.mark.parametrize("d,n", [(1, 16), (1, 128), (1, 1024), (2, 16), (2, 32), (2, 64)])
@pytest.mark.parametrize("seed", [ps.corpus.DEFAULT_SEED, 1])
def test_synthesis_matches_the_exponential_sums(heat, d, n, seed):
    g = ps.SpaceGrid(d=d, n=n, L=20.0)
    for index in (0, 1, 5):
        f = ps.corpus_entry(g, 6, index, seed=seed)
        want, modes = _exponential_sum_entry(g, 6, index, seed)
        assert f.values.flags.c_contiguous
        assert np.max(np.abs(f.values - want)) <= 1e-13 * np.max(np.abs(want))
        # every lattice mode, and no other, carries the entry
        lattice = np.ravel_multi_index(tuple((modes % n).T), g.shape)
        np.testing.assert_array_equal(ps.Propagator(heat, f).support, np.sort(lattice))


def test_entries_go_through_the_one_inverse_transform(monkeypatch):
    # the module's binding is wrapped, so an entry synthesized by any other
    # route shows up as a missing call
    assert corpus.to_space is spectral.to_space
    calls = []

    def counted(grid, values, out=None):
        calls.append(values.shape)
        return spectral.to_space(grid, values, out=out)

    monkeypatch.setattr(corpus, "to_space", counted)
    for d, index in ((1, 0), (2, 1)):
        g = ps.SpaceGrid(d=d, n=16, L=20.0)
        f = ps.corpus_entry(g, 8, index)
        assert calls[-1] == (f.k_h, corpus.TERMS) + g.shape
    assert len(calls) == 2
