"""The package namespace re-exports exactly what its modules export."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_every_suite_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle: with its import blocked, a fresh
    # interpreter still runs each suite to its report (assumptions may
    # exit 1 on a failed check, never 2 or with a traceback)
    reports = {"assumptions": ["assumptions.json"], "lp-ratio": ["lp-ratio.csv"],
               "sharp-bound": ["sharp-bound.csv"], "spde": ["spde.json"],
               "kernel-dump": ["kernel.plsf", "kernel-dump.json"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "symbol": {"family": "fractional", "gamma": 2.0, "a": 1.0, "nu": 0.5},
        "grid": {"d": 1, "n": 16, "L": 20.0, "nt": 16, "t_window": 1.0},
        "corpus": {"count": 2}, "p_list": [3.0], "mc": {"M": 16}}))
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from paleyscope.cli import main\n"
              "print([main([suite, '--config', sys.argv[1], '--out', sys.argv[2] + '/' + suite])\n"
              "       for suite in sys.argv[3:]])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path), *reports],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == len(reports)
    assert all(code in (0, 1) for code in codes), dict(zip(reports, codes))
    for suite, names in reports.items():
        for name in names:
            assert (tmp_path / suite / name).stat().st_size > 0, (suite, name)
