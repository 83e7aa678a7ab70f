r"""Command-line harness: configuration, suite orchestration, report emission.

Usage::

    paleyscope <suite> --config experiment.json [--out DIR] [--threads N]

Suites: ``assumptions`` (alias ``verify-assumptions``), ``lp-ratio``,
``sharp-bound``, ``spde``, ``exponents``, ``kernel-dump``.  The ``exponents``
suite can run from ``--gamma``/``--dim`` flags alone; every other suite
requires a JSON config.  Exit status: 0 all checks passed, 1 at least one
asserted check failed, 2 usage or configuration error.

Reports are written atomically and are byte-stable: rerunning a suite with
an identical config reproduces identical files.  Floats are emitted with 17
significant digits; JSON keys are sorted; no timestamps or host details are
recorded.  Each JSON report embeds the SHA-256 of the raw config bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .assumptions import (
    moment_integral,
    synthesize_envelopes,
    theorem_exponents,
    verify_assumption1,
)
from .corpus import DEFAULT_SEED, corpus_entry, make_corpus
from .maximal import _sharp_bound_ratios
from .spde import (
    NoiseSpec,
    gaussianity_diagnostic,
    ito_isometry_check,
    simulate_ensemble,
)
from .spectral import (
    SpaceGrid,
    _atomic_write,
    dump_field,
    kernel_hat,
    synthesize_kernel,
    warn_if_underresolved,
)
from .squarefn import lp_space_time_norm, square_function, square_function_l2
from .symbols import (
    FractionalSymbol,
    LevySymbol,
    PolyFormSymbol,
    check_ellipticity,
)

__all__ = ["main", "run_experiment", "load_config", "ExperimentConfig", "ConfigError"]

SUITES = ("assumptions", "lp-ratio", "sharp-bound", "spde", "exponents", "kernel-dump")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file plus the raw bytes it came from."""

    symbol: object
    grid: SpaceGrid
    nt: int
    t_window: float
    corpus: dict
    p_list: tuple
    mc: dict
    kernel: dict
    eta: float
    nu: float
    tolerances: dict
    sha256: str


def _complexify(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(u, (int, float)) for u in v):
        return complex(v[0], v[1])
    raise ConfigError(f"expected a number or [re, im] pair, got {v!r}")


def _coeff_from_json(v):
    """Piecewise coefficient from a scalar, [re, im], or a table block."""
    if isinstance(v, dict):
        try:
            breaks = [float(b) for b in v["breakpoints"]]
            values = [_complexify(x) for x in v["values"]]
        except KeyError as e:
            raise ConfigError(f"coefficient table missing key {e}") from None
        return (np.array(breaks), np.array(values))
    return _complexify(v)


def build_symbol(block):
    """Construct a symbol object from its JSON config block."""
    if not isinstance(block, dict) or "family" not in block:
        raise ConfigError("symbol block must be an object with a 'family' tag")
    family = block["family"]
    try:
        if family == "fractional":
            return FractionalSymbol(gamma=float(block["gamma"]),
                                    a=_coeff_from_json(block.get("a", 1.0)),
                                    nu=float(block.get("nu", 0.5)))
        if family == "polyform":
            coeffs = {}
            for item in block["coeffs"]:
                key = (tuple(int(v) for v in item["alpha"]),
                       tuple(int(v) for v in item["beta"]))
                if "breakpoints" in item:
                    coeffs[key] = _coeff_from_json(
                        {"breakpoints": item["breakpoints"], "values": item["values"]})
                else:
                    coeffs[key] = _coeff_from_json(item["values"])
            return PolyFormSymbol(m=int(block["m"]), coeffs=coeffs,
                                  nu=float(block.get("nu", 0.5)))
        if family == "levy":
            dens = block["density"]
            density = (np.array([float(b) for b in dens["breakpoints"]]),
                       np.array(dens["table"], dtype=float))
            return LevySymbol(k=int(block.get("k", 0)), gamma=float(block["gamma"]),
                              density=density, d=int(block["d"]),
                              c1=float(block.get("c1", 1.0)),
                              c2=float(block.get("c2", 1.0)),
                              N0=float(block.get("N0", 0.1)),
                              nodes=int(block.get("nodes", 256)))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid {family!r} symbol block: {e}") from None
    raise ConfigError(f"unknown symbol family {family!r}")


def _number(kind, value, what):
    """``kind(value)``, refused unless finite (JSON input may hold NaN or Infinity)."""
    try:
        out = kind(value)
        if math.isfinite(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _block(doc, name, kinds, defaults):
    """The object ``doc[name]`` over ``defaults``, its ``kinds`` keys converted."""
    block = doc.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    out = {**defaults, **block}
    return {k: _number(kinds[k], v, f"{name}.{k}") if k in kinds else v
            for k, v in out.items()}


def load_config(path):
    """Parse and validate an experiment JSON file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    sym = build_symbol(doc["symbol"]) if "symbol" in doc else None
    gblock = _block(doc, "grid", {"d": int, "n": int, "L": float, "nt": int,
                                  "t_window": float},
                    {"d": 1, "n": 128, "L": 20.0, "nt": 128, "t_window": 1.0})
    try:
        grid = SpaceGrid(d=gblock["d"], n=gblock["n"], L=gblock["L"])
    except ValueError as e:
        raise ConfigError(f"invalid grid block: {e}") from None
    nt, t_window = gblock["nt"], gblock["t_window"]
    if nt < 2 or not (t_window > 0 and math.isfinite(t_window)):
        raise ConfigError("grid block needs nt >= 2 and finite t_window > 0")
    p_raw = doc.get("p_list", [2.0])
    if not isinstance(p_raw, list):
        raise ConfigError("p_list must be a list")
    p_list = tuple(_number(float, p, "p_list entry") for p in p_raw)
    if any(p < 1 for p in p_list):
        raise ConfigError("p_list entries must be >= 1")
    corpus = _block(doc, "corpus", {"count": int, "seed": int},
                    {"count": 20, "seed": DEFAULT_SEED})
    mc = _block(doc, "mc", {"M": int, "K": int, "seed": int, "entry": int},
                {"M": 4096, "K": 3, "seed": 777, "entry": 1})
    if mc["M"] < 2 or min(mc["seed"], corpus["seed"]) < 0:
        raise ConfigError("mc.M must be at least 2 and seeds nonnegative")
    if corpus["count"] < 1 or mc["entry"] < 0:
        raise ConfigError("corpus.count must be at least 1 and mc.entry nonnegative")
    kernel = _block(doc, "kernel", {"s": float, "t": float, "eta": float},
                    {"s": 0.0, "t": 0.1, "eta": 0.0})
    nu = doc.get("nu", getattr(sym, "nu", getattr(sym, "N0", 0.5)) if sym else 0.5)
    eta = doc.get("eta")
    if eta is None:
        eta = sym.order / 2.0 if sym is not None else 0.0
    tolerances = _block(doc, "tolerances", {"isometry": float, "kurtosis": float},
                        {"isometry": 0.05, "kurtosis": 0.15})
    return ExperimentConfig(symbol=sym, grid=grid, nt=nt, t_window=t_window,
                            corpus=corpus, p_list=p_list, mc=mc, kernel=kernel,
                            eta=_number(float, eta, "eta"), nu=_number(float, nu, "nu"),
                            tolerances=tolerances,
                            sha256=hashlib.sha256(raw).hexdigest())


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def emit_csv(path, header, rows):
    """Write rows of already-typed cells with fixed float formatting."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_json(path, payload):
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _frac_str(x):
    if x is None:
        return None
    if isinstance(x, Fraction):
        return str(x)
    return format(float(x), ".17g")


def _exponent_payload(ke):
    return {
        "d": ke.d,
        "c2": _frac_str(ke.c2),
        "c3": _frac_str(ke.c3),
        "delta0": _frac_str(ke.delta0),
        "kappa": [_frac_str(v) for v in ke.kappa],
        "sigma": [_frac_str(v) for v in ke.sigma],
        "mu": [_frac_str(v) for v in ke.mu],
        "mu_upper": [_frac_str(v) for v in ke.mu_upper],
        "valid": {k: bool(v) for k, v in sorted(ke.valid.items())},
        "is_valid": ke.is_valid,
    }


def _xi_samples(d, radii=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0)):
    if d == 1:
        return np.array([[r] for r in radii] + [[-r] for r in radii])
    out = []
    for r in radii:
        for th in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            out.append([r * np.cos(th), r * np.sin(th)])
    return np.array(out)


def _symbol_dim(sym, grid):
    return sym.dim if sym.dim is not None else grid.d


def _gamma_or_m(sym):
    if isinstance(sym, PolyFormSymbol):
        return sym.m
    return sym.gamma


def _suite_symbol(cfg, suite):
    """The config's symbol, once the grid's aliasing budget at one step is checked."""
    if cfg.symbol is None:
        raise ConfigError(f"{suite} suite requires a symbol block")
    dt = cfg.t_window / (cfg.nt - 1)
    warn_if_underresolved(cfg.grid, cfg.nu, cfg.symbol.order, dt)
    return cfg.symbol


def _suite_assumptions(cfg, out_dir):
    sym = _suite_symbol(cfg, "assumptions")
    d = _symbol_dim(sym, cfg.grid)
    gamma = sym.order
    ke = theorem_exponents(Fraction(gamma).limit_denominator(10 ** 9), d)
    xi = _xi_samples(d)
    c0 = verify_assumption1(sym, cfg.eta, xi)
    times = sorted({0.0, *map(float, sym.breakpoints)})
    ell = check_ellipticity(sym, cfg.nu, xi, times)
    env = synthesize_envelopes(sym, gamma, cfg.grid, s=0.0, t=1.0)
    moments = {}
    checks = {"exponents_valid": ke.is_valid,
              "ellipticity_a1": ell.pass_a1,
              "ellipticity_a2": ell.pass_a2,
              "c0_finite": math.isfinite(c0)}
    for name, fld, mu in (("F1", env.f1, ke.mu[0]), ("F2", env.f2, ke.mu[1]),
                          ("F3", env.f3, ke.mu[2])):
        if mu is None:
            moments[name] = None
            checks[f"moment_{name}"] = False
            continue
        rep = moment_integral(fld, float(mu))
        moments[name] = {"mu": _frac_str(mu), "converged": rep.converged,
                         "rel_change": format(rep.rel_change, ".17g"),
                         "tail_integral": format(rep.partials[-1], ".17g")}
        checks[f"moment_{name}"] = rep.converged
    payload = {
        "config_sha256": cfg.sha256,
        "suite": "assumptions",
        "exponents": _exponent_payload(ke),
        "C0": format(c0, ".17g"),
        "nu_requested": format(ell.nu_requested, ".17g"),
        "nu_observed": format(ell.nu_observed, ".17g"),
        "derivative_bound_max": format(max(ell.derivative_bounds.values()), ".17g"),
        "moments": moments,
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
    }
    emit_json(os.path.join(out_dir, "assumptions.json"), payload)
    return all(checks.values())


def _suite_lp_ratio(cfg, out_dir, threads):
    sym = _suite_symbol(cfg, "lp-ratio")
    grid = cfg.grid
    fields = make_corpus(grid, cfg.nt, count=cfg.corpus["count"],
                         t_window=cfg.t_window, seed=cfg.corpus["seed"])
    c0 = verify_assumption1(sym, cfg.eta, _xi_samples(grid.d))
    bound = math.sqrt(c0) + 1e-3

    needs_G = any(p != 2.0 for p in cfg.p_list)

    def one(f):
        # G pointwise only for p != 2; the p = 2 norm comes from Parseval
        G = square_function(sym, cfg.eta, f) if needs_G else None
        return [(p, (square_function_l2(sym, cfg.eta, f) if p == 2.0
                     else lp_space_time_norm(G, p)) / lp_space_time_norm(f, p))
                for p in cfg.p_list]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one, fields))
    rows = []
    ok = True
    family = sym.family
    gm = _gamma_or_m(sym)
    for ratios in results:
        for p, ratio in ratios:
            is_p2 = p == 2.0
            passed = ratio <= bound if is_p2 else True
            ok = ok and passed
            rows.append([family, gm, p, grid.n, cfg.nt, ratio,
                         bound if is_p2 else "", passed])
    emit_csv(os.path.join(out_dir, "lp-ratio.csv"),
             ["family", "gamma_or_m", "p", "n", "nt", "ratio", "C0_bound", "pass"],
             rows)
    return ok


def _suite_sharp_bound(cfg, out_dir, threads):
    sym = _suite_symbol(cfg, "sharp-bound")
    grid = cfg.grid
    fields = make_corpus(grid, cfg.nt, count=cfg.corpus["count"],
                         t_window=cfg.t_window, seed=cfg.corpus["seed"])
    delta0 = 1.0 / sym.order
    p_fs = cfg.p_list[0] if cfg.p_list and cfg.p_list[0] > 1 else 2.0

    def one(f):
        return _sharp_bound_ratios(square_function(sym, cfg.eta, f), f, p_fs, delta0)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one, fields))
    rows = []
    ok = True
    for ratio, fs in results:
        good = math.isfinite(ratio) and math.isfinite(fs)
        ok = ok and good
        rows.append([sym.family, _gamma_or_m(sym), grid.n, cfg.nt, ratio, fs])
    emit_csv(os.path.join(out_dir, "sharp-bound.csv"),
             ["family", "gamma", "n", "nt", "sup_ratio_sharp", "fs_ratio"],
             rows)
    return ok


def _suite_spde(cfg, out_dir):
    sym = _suite_symbol(cfg, "spde")
    grid = cfg.grid
    K, M, seed = cfg.mc["K"], cfg.mc["M"], cfg.mc["seed"]
    entry = cfg.mc["entry"]
    f = corpus_entry(grid, cfg.nt, entry, t_window=cfg.t_window, seed=cfg.corpus["seed"])
    if f.k_h != K:
        raise ConfigError(f"corpus entry {entry} has {f.k_h} channels, mc.K is {K}")
    spec = NoiseSpec(K=K, seed=seed, dt=f.dt, nt=cfg.nt)
    ens = simulate_ensemble(sym, f, spec, M)
    iso = ito_isometry_check(ens)
    kurt = gaussianity_diagnostic(ens)
    checks = {
        "isometry": iso.value < cfg.tolerances["isometry"],
        "kurtosis": abs(kurt) < cfg.tolerances["kurtosis"],
    }
    payload = {
        "config_sha256": cfg.sha256,
        "suite": "spde",
        "M": M,
        "K": K,
        "seed": seed,
        "isometry_rel_error": format(iso.value, ".17g"),
        "isometry_std_error": format(iso.std_error, ".17g"),
        "excess_kurtosis": format(kurt, ".17g"),
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
    }
    emit_json(os.path.join(out_dir, "spde.json"), payload)
    return all(checks.values())


def _flag_values(raw_list, kind, what):
    """Values of a repeatable, comma-separated flag, each parsed by ``kind``."""
    out = []
    for item in raw_list:
        for tok in str(item).split(","):
            tok = tok.strip()
            if tok:
                try:
                    out.append(kind(tok))
                except (ValueError, ZeroDivisionError):
                    raise ConfigError(f"cannot parse {what} value {tok!r}") from None
    return out


def _suite_exponents(args, cfg, out_dir):
    gammas = _flag_values(args.gamma or ["2"], Fraction, "gamma")
    dims = _flag_values(args.dim or ["1"], int, "dim")
    tables = []
    ok = True
    for d in dims:
        for gamma in gammas:
            try:
                ke = theorem_exponents(gamma, d)
            except ValueError as e:
                raise ConfigError(str(e)) from None
            ok = ok and ke.is_valid
            entry = _exponent_payload(ke)
            entry["gamma"] = str(gamma)
            tables.append(entry)
    payload = {"suite": "exponents", "results": tables}
    if cfg is not None:
        payload["config_sha256"] = cfg.sha256
    emit_json(os.path.join(out_dir, "exponents.json"), payload)
    return ok


def _suite_kernel_dump(cfg, out_dir):
    sym = cfg.symbol
    if sym is None:
        raise ConfigError("kernel-dump suite requires a symbol block")
    s, t, eta = cfg.kernel["s"], cfg.kernel["t"], cfg.kernel["eta"]
    if t < s:
        raise ConfigError("kernel block requires s <= t")
    warn_if_underresolved(cfg.grid, cfg.nu, sym.order, max(t - s, 1e-12))
    kmult = kernel_hat(sym, s, t, eta, cfg.grid)
    fld = synthesize_kernel(kmult)
    path = os.path.join(out_dir, "kernel.plsf")
    dump_field(fld, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    payload = {
        "config_sha256": cfg.sha256,
        "suite": "kernel-dump",
        "s": format(s, ".17g"),
        "t": format(t, ".17g"),
        "eta": format(eta, ".17g"),
        "file": "kernel.plsf",
        "payload_sha256": digest,
    }
    emit_json(os.path.join(out_dir, "kernel-dump.json"), payload)
    return True


def run_experiment(suite, cfg, out_dir, threads=None, args=None):
    """Dispatch one suite; returns True when every asserted check passed."""
    os.makedirs(out_dir, exist_ok=True)
    if suite == "verify-assumptions":
        suite = "assumptions"
    if suite == "assumptions":
        return _suite_assumptions(cfg, out_dir)
    if suite == "lp-ratio":
        return _suite_lp_ratio(cfg, out_dir, threads)
    if suite == "sharp-bound":
        return _suite_sharp_bound(cfg, out_dir, threads)
    if suite == "spde":
        return _suite_spde(cfg, out_dir)
    if suite == "exponents":
        if args is None:
            args = argparse.Namespace(gamma=None, dim=None)
        return _suite_exponents(args, cfg, out_dir)
    if suite == "kernel-dump":
        return _suite_kernel_dump(cfg, out_dir)
    raise ConfigError(f"unknown suite {suite!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="paleyscope",
        description="Verification suites for evolution-kernel square functions.")
    parser.add_argument("suite", nargs="?", choices=SUITES + ("verify-assumptions",),
                        help="suite to run")
    parser.add_argument("--suite", dest="suite_flag",
                        choices=SUITES + ("verify-assumptions",),
                        help="suite to run (alternative to the positional)")
    parser.add_argument("--config", help="experiment JSON path")
    parser.add_argument("--out", default=".", help="report output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads, 0 = auto (env PALEY_THREADS)")
    parser.add_argument("--gamma", action="append",
                        help="exponents suite: order(s), repeatable or comma-separated")
    parser.add_argument("--dim", action="append",
                        help="exponents suite: dimension(s)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    suite = args.suite_flag or args.suite
    if suite is None:
        parser.print_usage(sys.stderr)
        return 2
    threads = args.threads
    if threads is None:
        env = os.environ.get("PALEY_THREADS")
        threads = int(env) if env else 0
    if threads == 0:
        threads = min(32, os.cpu_count() or 1)
    try:
        cfg = load_config(args.config) if args.config else None
        if cfg is None and suite not in ("exponents",):
            raise ConfigError(f"suite {suite!r} requires --config")
        passed = run_experiment(suite, cfg, args.out, threads=threads, args=args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
