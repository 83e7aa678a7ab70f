"""Checks of the benchmark's tracer and manifest; no paleyscope import needed.

Run with ``python3 -m pytest bench/test_tracer.py``.
"""

import json
import os
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracer import Span, Target, Tracer, covered_length, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0


def test_self_time_of_a_nested_tree_with_pool_children():
    main, worker = 1, 2
    spans = [
        Span(1, 0, main, "cli.main", 0.0, 10.0),
        Span(2, 1, main, "corpus.make_corpus", 1.0, 2.0),
        Span(3, 1, main, "cli.emit_csv", 8.0, 9.5),
        # pool tasks caused by span 1, run on other threads while it waits
        Span(4, 1, worker, "cli.pool.task", 2.0, 7.0),
        Span(5, 4, worker, "squarefn.square_function", 2.5, 6.0),
        Span(6, 5, worker, "spectral.fft", 3.0, 4.0),
        Span(7, 5, worker, "spectral.fft", 4.0, 5.0),
        Span(8, 1, main + 2, "cli.pool.task", 2.0, 8.0),
    ]
    got = self_times(spans)
    assert got == {1: 7.5, 2: 1.0, 3: 1.5, 4: 1.5, 5: 1.5, 6: 1.0, 7: 1.0, 8: 6.0}
    summary = summarize(spans)
    assert summary["spectral.fft"] == (2, 2.0, 2.0)
    assert summary["cli.pool.task"] == (2, 7.5, 11.0)


@pytest.fixture
def fakepkg():
    """A package whose functions are bound in two modules, as in paleyscope."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def work(xs):
        with outer.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(outer.leaf, xs))

    inner.leaf = leaf
    outer.leaf, outer.work, outer.ThreadPoolExecutor = leaf, work, ThreadPoolExecutor
    pkg.leaf = leaf
    mods = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(mods)
    try:
        yield types.SimpleNamespace(pkg=pkg, inner=inner, outer=outer, leaf=leaf,
                                    work=work)
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_wrap_reaches_every_binding_and_pool_threads(fakepkg):
    tracer = Tracer(package="fakepkg")
    tracer.install([
        Target("inner.leaf", "fakepkg.inner", "leaf"),
        Target("outer.work", "fakepkg.outer", "work"),
        Target("outer.pool.task", "fakepkg.outer", "ThreadPoolExecutor", kind="pool"),
    ])
    try:
        assert fakepkg.pkg.leaf is fakepkg.outer.leaf is fakepkg.inner.leaf
        assert fakepkg.inner.leaf is not fakepkg.leaf
        assert fakepkg.outer.work(range(6)) == [1, 2, 3, 4, 5, 6]
    finally:
        tracer.uninstall()
    assert fakepkg.inner.leaf is fakepkg.outer.leaf is fakepkg.pkg.leaf is fakepkg.leaf
    assert fakepkg.outer.ThreadPoolExecutor is ThreadPoolExecutor

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (work,) = by_name["outer.work"]
    tasks, leaves = by_name["outer.pool.task"], by_name["inner.leaf"]
    assert len(tasks) == len(leaves) == 6
    main = threading.get_ident()
    assert work.tid == main and work.parent == 0
    task_ids = {t.sid: t for t in tasks}
    for t in tasks:
        assert t.parent == work.sid and t.tid != main
    for leaf in leaves:
        assert task_ids[leaf.parent].tid == leaf.tid
    selfs = self_times(tracer.spans)
    # Pool tasks ran on other threads, so none of their time is taken from
    # the span that waited for them.
    assert selfs[work.sid] == pytest.approx(work.end - work.start)


def test_missing_target_is_reported_not_zeroed(fakepkg):
    tracer = Tracer(package="fakepkg")
    tracer.install([Target("inner.gone", "fakepkg.inner", "gone"),
                    Target("nomodule.f", "fakepkg.nomodule", "f"),
                    Target("inner.leaf", "fakepkg.inner", "leaf")])
    tracer.uninstall()
    assert tracer.missing == ["inner.gone", "nomodule.f"]


def test_manifest_names_match_the_runner():
    import run

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert layer == {**{k: v[0] for k, v in run.PER_PASS.items()}, **run.PER_RUN}
