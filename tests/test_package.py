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
