"""The benchmark's workloads: a config per seed, one pass, and its output checks.

Every workload runs its suite through ``paleyscope.cli.main(argv)`` in the
benchmark's own process.  A pass returns the bytes of what it produced, so
the runner can compare each pass against the run's first one, plus a list
of problems found by the workload's own checks (empty when the pass is
correct).  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

GRID = {"d": 1, "n": 128, "L": 20.0, "nt": 128, "t_window": 1.0}
HEAT = {"family": "fractional", "gamma": 2.0, "a": 1.0, "nu": 0.5}
TWO_PIECE_BIHARMONIC = {
    "family": "polyform", "m": 2, "nu": 0.5,
    "coeffs": [{"alpha": [2], "beta": [2],
                "breakpoints": [0.0, 0.5], "values": [1.0, 2.0]}],
}
ENTRIES = 20
MC_M = 4096
MOMENT_M = 64


def _config(symbol, seed):
    return {"symbol": symbol, "grid": GRID,
            "corpus": {"count": ENTRIES, "seed": seed},
            "p_list": [2.0],
            "mc": {"M": MC_M, "K": 3, "seed": seed}}


class Workload:
    """One named workload; ``prepare`` runs before any timed pass."""

    name = ""
    suite = ""
    report = ""
    symbol = HEAT
    items = ENTRIES     # corpus entries per pass
    entries = ENTRIES   # corpus entries the suite consumes per pass

    def __init__(self, seed, out_dir, threads):
        self.out_dir = out_dir
        self.threads = threads
        self.config_path = os.path.join(out_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(_config(self.symbol, seed), fh, indent=2)
        self.gate_exits = 0

    def prepare(self, paleyscope):
        self.ps = paleyscope

    def run_pass(self, threads=None):
        """(report bytes, problems) of one pass, by default at ``self.threads``."""
        argv = [self.suite, "--config", self.config_path,
                "--out", self.out_dir, "--threads", str(threads or self.threads)]
        report = os.path.join(self.out_dir, self.report)
        if os.path.exists(report):
            os.remove(report)   # a pass that writes no report must not pass
        rc = self.ps.cli.main(argv)
        with open(report, "rb") as fh:
            data = fh.read()
        return data, self.check(rc, data)

    def check(self, rc, data):
        raise NotImplementedError


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


class LpGate(Workload):
    name = "lp-gate"
    suite = "lp-ratio"
    report = "lp-ratio.csv"

    def check(self, rc, data):
        problems = [] if rc == 0 else [f"lp-ratio exited {rc}"]
        rows = _rows(data)
        if len(rows) != ENTRIES:
            problems.append(f"{len(rows)} rows, expected {ENTRIES}")
        for i, row in enumerate(rows):
            ratio = float(row["ratio"])
            if float(row["p"]) == 2.0 and not ratio <= float(row["C0_bound"]):
                problems.append(f"row {i}: ratio {ratio} exceeds {row['C0_bound']}")
        return problems


class SharpLadder(Workload):
    name = "sharp-ladder"
    suite = "sharp-bound"
    report = "sharp-bound.csv"
    symbol = TWO_PIECE_BIHARMONIC

    def check(self, rc, data):
        problems = [] if rc == 0 else [f"sharp-bound exited {rc}"]
        rows = _rows(data)
        if len(rows) != ENTRIES:
            problems.append(f"{len(rows)} rows, expected {ENTRIES}")
        for i, row in enumerate(rows):
            for key in ("sup_ratio_sharp", "fs_ratio"):
                v = float(row[key])
                if not (math.isfinite(v) and v > 0):
                    problems.append(f"row {i}: {key} = {v}")
        return problems


class McMoments(Workload):
    """The spde suite, then a p = 4 moment check on the same corpus entry."""

    name = "mc-moments"
    suite = "spde"
    report = "spde.json"
    items = MC_M + MOMENT_M   # Monte Carlo paths requested per pass
    entries = 1

    def prepare(self, paleyscope):
        super().prepare(paleyscope)
        cfg = paleyscope.cli.load_config(self.config_path)
        self.sym = cfg.symbol
        self.f = paleyscope.corpus.corpus_entry(cfg.grid, cfg.nt, 1,
                                                seed=cfg.corpus["seed"])
        self.spec = paleyscope.spde.NoiseSpec(K=cfg.mc["K"], seed=cfg.mc["seed"],
                                              dt=self.f.dt, nt=cfg.nt)

    def run_pass(self, threads=None):
        data, problems = super().run_pass(threads)
        est = self.ps.spde.moment_bound_check(self.sym, self.f, self.spec,
                                              MOMENT_M, 4.0, 1)
        moment = [est.value, est.std_error, est.majorant]
        if not all(math.isfinite(v) for v in moment):
            problems.append(f"non-finite moment estimate {moment}")
        return data + "".join(format(v, ".17g") + "\n" for v in moment).encode(), problems

    def check(self, rc, data):
        problems = []
        if rc == 1:
            # A fixed-tolerance gate of the suite tripped; recorded, not failed.
            self.gate_exits += 1
        elif rc != 0:
            problems.append(f"spde exited {rc}")
        rep = json.loads(data)
        rel, std = float(rep["isometry_rel_error"]), float(rep["isometry_std_error"])
        kurt = float(rep["excess_kurtosis"])
        if not rel <= 5 * std:
            problems.append(f"isometry error {rel} exceeds 5 x {std}")
        if not abs(kurt) <= 5 * math.sqrt(24 / rep["M"]):
            problems.append(f"excess kurtosis {kurt} beyond 5 standard errors")
        return problems


WORKLOADS = {w.name: w for w in (LpGate, SharpLadder, McMoments)}
