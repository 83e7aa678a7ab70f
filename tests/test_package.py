"""The package namespace re-exports exactly what its modules export."""

import importlib

import paleyscope as ps

MODULES = ("assumptions", "corpus", "maximal", "spde", "spectral", "squarefn", "symbols")


def test_package_all_is_the_union_of_the_module_lists():
    union = set()
    for name in MODULES:
        union.update(importlib.import_module(f"paleyscope.{name}").__all__)
    assert sorted(ps.__all__) == sorted(union | {"__version__"})
    assert len(set(ps.__all__)) == len(ps.__all__)
    assert all(hasattr(ps, name) for name in ps.__all__)


def test_every_binding_the_bench_traces_resolves(monkeypatch):
    # bench/run.py wraps these names; one that stops resolving makes its
    # traced metrics read "missing" while every run still exits 0
    import importlib.util
    import inspect
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run.REQUIRED + [run.ALLOC_TARGET]
    assert [t.name for t in targets if t.resolve() is None] == []
    # the observers read these arguments by position or by name
    params = {name: list(inspect.signature(fn).parameters)
              for name, fn in [("draw", ps.sample_brownian_increments),
                               ("write", importlib.import_module("paleyscope.cli")._atomic_write),
                               ("moments", ps.moment_bound_check)]}
    assert params["draw"][:2] == ["spec", "path"]
    assert params["write"][:2] == ["path", "data"]
    assert params["moments"][:6] == ["sym", "f", "spec", "M", "p", "derivative_order"]
