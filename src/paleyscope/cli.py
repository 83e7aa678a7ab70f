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
import inspect
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .assumptions import (
    moment_integral,
    synthesize_envelopes,
    theorem_exponents,
    verify_assumption1,
)
from .corpus import DEFAULT_SEED, corpus_entry, make_corpus
from .maximal import verify_sharp_bound
from .spde import (
    NoiseSpec,
    gaussianity_diagnostic,
    ito_isometry_check,
    simulate_ensemble,
)
from .spectral import (
    Field,
    Propagator,
    SpaceGrid,
    _atomic_write,
    dump_field,
    kernel_hat,
    to_space,
)
from .squarefn import _norms, lp_space_time_norm
from .symbols import (
    FractionalSymbol,
    LevySymbol,
    PolyFormSymbol,
    _unit_circle,
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


def _number(kind, value, what, low=None, strict=False):
    """``value`` as ``kind`` (int or float): a finite JSON number, integral for
    int, at least ``low`` (above it when ``strict``); bools and strings refused."""
    try:
        ok = (type(value) in (int, float) and math.isfinite(value)
              and (kind is float or float(value).is_integer()))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{what} must be a finite {kind.__name__}, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ConfigError(f"{what} must be {'>' if strict else '>='} {low}, got {value!r}")
    return kind(value)


# dotted key -> (kind, default, lower bound, strict).  A callable default is
# derived from the symbol; mc.K's None stands for the channel count of corpus
# entry mc.entry; a tuple default marks a nonempty list of numbers.
# SpaceGrid checks grid.d, grid.n and grid.L itself.
_KEYS = {
    "grid.d": (int, 1, None, False),
    "grid.n": (int, 128, None, False),
    "grid.L": (float, 20.0, None, False),
    "grid.nt": (int, 128, 2, False),
    "grid.t_window": (float, 1.0, 0.0, True),
    "corpus.count": (int, 20, 1, False),
    "corpus.seed": (int, DEFAULT_SEED, 0, False),
    "p_list": (float, (2.0,), 1.0, False),
    "mc.M": (int, 4096, 2, False),
    "mc.K": (int, None, 1, False),
    "mc.seed": (int, 777, 0, False),
    "mc.entry": (int, 1, 0, False),
    "kernel.s": (float, 0.0, None, False),
    "kernel.t": (float, 0.1, None, False),
    "kernel.eta": (float, 0.0, 0.0, False),
    "eta": (float, lambda sym: sym.order / 2.0, 0.0, False),
    "nu": (float, lambda sym: sym.nu, 0.0, True),
    "tolerances.isometry": (float, 0.05, 0.0, True),
    "tolerances.kurtosis": (float, 0.15, 0.0, True),
}
_KEY_WORDS = ("corpus.seed", "mc.seed", "mc.entry")  # uint64 words of a Philox key


def _floats(v, what):
    """Nested lists of numbers as a float array."""
    return np.array([_floats(u, what) if isinstance(u, list) else _number(float, u, what)
                     for u in v])


def _coefficient(v, what):
    """Piecewise coefficient from a number, an [re, im] pair, or a table block."""
    if isinstance(v, dict):
        return _floats(v["breakpoints"], what), [_coefficient(x, what) for x in v["values"]]
    pair = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    return complex(*(_number(float, u, what) for u in pair))


def _poly_coeffs(items, what):
    """``{(alpha, beta): coefficient}`` from the polyform ``coeffs`` list."""
    return {tuple(tuple(_number(int, i, what) for i in item[ab]) for ab in ("alpha", "beta")):
            _coefficient(item if "breakpoints" in item else item["values"], what)
            for item in items}


# family -> (class, key -> parser); absent keys take the constructor's defaults
_INT, _FLOAT = partial(_number, int), partial(_number, float)
_FAMILIES = {
    "fractional": (FractionalSymbol, {"gamma": _FLOAT, "a": _coefficient, "nu": _FLOAT}),
    "polyform": (PolyFormSymbol, {"m": _INT, "coeffs": _poly_coeffs, "nu": _FLOAT}),
    "levy": (LevySymbol, {
        "k": _INT, "gamma": _FLOAT, "d": _INT, "c1": _FLOAT, "c2": _FLOAT, "N0": _FLOAT,
        "nodes": _INT, "density": lambda v, w: (_floats(v["breakpoints"], w),
                                                _floats(v["table"], w))}),
}


def build_symbol(block):
    """Construct a symbol object from its JSON config block."""
    family = block.get("family") if isinstance(block, dict) else None
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"symbol block needs a 'family' tag, one of {', '.join(_FAMILIES)}")
    cls, parsers = _FAMILIES[family]
    for name, param in inspect.signature(cls).parameters.items():
        if param.default is param.empty and name not in block:
            raise ConfigError(f"symbol.{name} is required")
    try:
        return cls(**{k: parsers[k](v, f"symbol.{k}") for k, v in block.items()
                      if k != "family"})
    except KeyError as e:
        raise ConfigError(f"{family!r} symbol block: unknown or missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {family!r} symbol block: {e}") from None


def load_config(path):
    """Parse and validate an experiment JSON file against ``_KEYS``."""
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
    given = {}  # (block name, key) -> value; '' names the top level
    for name, value in doc.items():
        if any(key.startswith(name + ".") for key in _KEYS):
            if not isinstance(value, dict):
                raise ConfigError(f"{name!r} must be a JSON object")
            given.update(((name, k), v) for k, v in value.items())
        elif name != "symbol":
            given["", name] = value
    unknown = set(given) - {key.rpartition(".")[::2] for key in _KEYS}
    if unknown:
        names = sorted(".".join(filter(None, path)) for path in unknown)
        raise ConfigError(f"unknown config key(s): {', '.join(names)}")
    blocks = {}  # block name -> key -> value
    for key, (kind, default, low, strict) in _KEYS.items():
        name, _, sub = key.rpartition(".")
        value = given.get((name, sub))
        if (name, sub) not in given:
            value = (default(sym) if sym else None) if callable(default) else default
        elif isinstance(default, tuple):
            if not (isinstance(value, list) and value):
                raise ConfigError(f"{key} must be a nonempty list")
            value = tuple(_number(kind, p, key, low, strict) for p in value)
        else:
            value = _number(kind, value, key, low, strict)
            if key in _KEY_WORDS and value >= 2 ** 64:
                raise ConfigError(f"{key} must be below 2**64, got {value!r}")
        blocks.setdefault(name, {})[sub] = value
    grid, top = blocks["grid"], blocks[""]
    try:
        space = SpaceGrid(d=grid["d"], n=grid["n"], L=grid["L"])
    except ValueError as e:
        raise ConfigError(f"invalid grid block: {e}") from None
    if sym is not None and sym.dim not in (None, space.d):
        raise ConfigError(f"the symbol is {sym.dim}-dimensional, grid.d is {space.d}")
    return ExperimentConfig(symbol=sym, grid=space, nt=grid["nt"], t_window=grid["t_window"],
                            corpus=blocks["corpus"], p_list=top["p_list"], mc=blocks["mc"],
                            kernel=blocks["kernel"], eta=top["eta"], nu=top["nu"],
                            tolerances=blocks["tolerances"],
                            sha256=hashlib.sha256(raw).hexdigest())


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _encode(x):
    """A JSON report value: floats as 17-significant-digit strings and
    Fractions as exact ones, inside dicts, lists and tuples; bools, ints,
    strings and None as they are."""
    if isinstance(x, dict):
        return {k: _encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_encode(v) for v in x]
    if isinstance(x, (float, Fraction)):
        return _fmt(x)
    return x


def emit_csv(path, header, rows):
    """Write rows of already-typed cells with fixed float formatting."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_json(path, payload):
    """Canonical JSON of ``_encode(payload)``: sorted keys, two-space indent,
    trailing newline."""
    _atomic_write(path, json.dumps(_encode(payload), sort_keys=True, indent=2) + "\n")


def _exponent_payload(ke):
    return {**asdict(ke), "is_valid": ke.is_valid}


def _xi_samples(d, radii=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0)):
    if d == 1:
        return np.array([[r] for r in radii] + [[-r] for r in radii])
    return np.concatenate([r * _unit_circle(8) for r in radii])


def _gamma_or_m(sym):
    if isinstance(sym, PolyFormSymbol):
        return sym.m
    return sym.gamma


def _suite_symbol(cfg, suite):
    """The config's symbol, which every suite but exponents requires."""
    if cfg.symbol is None:
        raise ConfigError(f"{suite} suite requires a symbol block")
    return cfg.symbol


def _corpus(cfg, entry=None):
    """The config's corpus, or its entry ``entry`` alone."""
    kw = {"t_window": cfg.t_window, "seed": cfg.corpus["seed"]}
    try:
        return (make_corpus(cfg.grid, cfg.nt, cfg.corpus["count"], **kw) if entry is None
                else corpus_entry(cfg.grid, cfg.nt, entry, **kw))
    except ValueError as e:  # a grid too coarse for the corpus band, or nt < 3
        raise ConfigError(str(e)) from None


def _suite_assumptions(cfg, out_dir):
    sym = _suite_symbol(cfg, "assumptions")
    gamma = sym.order
    ke = theorem_exponents(Fraction(gamma).limit_denominator(10 ** 9), cfg.grid.d)
    xi = _xi_samples(cfg.grid.d)
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
        moments[name] = {"mu": mu, "converged": rep.converged,
                         "rel_change": rep.rel_change,
                         "tail_integral": rep.partials[-1]}
        checks[f"moment_{name}"] = rep.converged
    payload = {
        "config_sha256": cfg.sha256,
        "suite": "assumptions",
        "exponents": _exponent_payload(ke),
        "C0": c0,
        "nu_requested": ell.nu_requested,
        "nu_observed": ell.nu_observed,
        "derivative_bound_max": max(ell.derivative_bounds.values()),
        "moments": moments,
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
    }
    emit_json(os.path.join(out_dir, "assumptions.json"), payload)
    return all(checks.values())


def _suite_lp_ratio(cfg, out_dir):
    sym = _suite_symbol(cfg, "lp-ratio")
    grid = cfg.grid
    fields = _corpus(cfg)
    c0 = verify_assumption1(sym, cfg.eta, _xi_samples(grid.d))
    bound = math.sqrt(c0) + 1e-3
    rows = []
    ok = True
    gm = _gamma_or_m(sym)
    for f in fields:
        # one propagator per entry, as lp_ratio builds it for one p
        norms = _norms(Propagator(sym, f), cfg.eta, cfg.p_list)
        for p, norm_G in zip(cfg.p_list, norms):
            ratio = norm_G / lp_space_time_norm(f, p)
            # only p = 2 rows are gated, and an infinite C0 passes none of
            # them; the other rows leave bound and pass empty
            gated, passed = p == 2.0, math.isfinite(bound) and ratio <= bound
            ok = ok and (passed or not gated)
            rows.append([sym.family, gm, p, grid.n, cfg.nt, ratio,
                         *((bound, passed) if gated else ("", ""))])
    emit_csv(os.path.join(out_dir, "lp-ratio.csv"),
             ["family", "gamma_or_m", "p", "n", "nt", "ratio", "C0_bound", "pass"],
             rows)
    return ok


def _suite_sharp_bound(cfg, out_dir, threads):
    sym = _suite_symbol(cfg, "sharp-bound")
    grid = cfg.grid
    p_fs = cfg.p_list[0] if cfg.p_list[0] > 1 else 2.0
    # each task builds its own entry: an entry is keyed (seed, index) alone
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(
            lambda i: verify_sharp_bound(sym, cfg.eta, _corpus(cfg, i), p_fs),
            range(cfg.corpus["count"])))
    rows = []
    ok = True
    for ratio, fs in results:
        good = math.isfinite(ratio) and math.isfinite(fs)
        ok = ok and good
        rows.append([sym.family, _gamma_or_m(sym), grid.n, cfg.nt, ratio, fs])
    emit_csv(os.path.join(out_dir, "sharp-bound.csv"),
             ["family", "gamma_or_m", "n", "nt", "sup_ratio_sharp", "fs_ratio"],
             rows)
    return ok


def _suite_spde(cfg, out_dir):
    sym = _suite_symbol(cfg, "spde")
    M, seed, entry = cfg.mc["M"], cfg.mc["seed"], cfg.mc["entry"]
    f = _corpus(cfg, entry)
    K = f.k_h if cfg.mc["K"] is None else cfg.mc["K"]
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
        "isometry_rel_error": iso.value,
        "isometry_std_error": iso.std_error,
        "excess_kurtosis": kurt,
        "kurtosis_std_error": math.sqrt(24 / M),
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
    s, t, eta = cfg.kernel["s"], cfg.kernel["t"], cfg.kernel["eta"]
    if t < s:
        raise ConfigError("kernel block requires s <= t")
    k = kernel_hat(_suite_symbol(cfg, "kernel-dump"), s, t, eta, cfg.grid)
    path = os.path.join(out_dir, "kernel.plsf")
    dump_field(Field(cfg.grid, to_space(cfg.grid, k[None])), path)
    # the largest modulus on an axis-n/2 mode relative to the largest overall
    mag = np.abs(k)
    edge = max(np.take(mag, cfg.grid.n // 2, axis=a).max() for a in range(cfg.grid.d))
    peak = mag.max()
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    payload = {
        "config_sha256": cfg.sha256,
        "suite": "kernel-dump",
        "s": s,
        "t": t,
        "eta": eta,
        "file": "kernel.plsf",
        "nyquist_ratio": edge / peak if peak > 0 else 0.0,
        "payload_sha256": digest,
    }
    emit_json(os.path.join(out_dir, "kernel-dump.json"), payload)
    # an overflowing multiplier (large eta) is a failed check, not a kernel
    return bool(np.all(np.isfinite(k)))


def run_experiment(suite, cfg, out_dir, threads=None, args=None):
    """Dispatch one suite; returns True when every asserted check passed."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {out_dir!r} is not a usable directory: {e.strerror}") from None
    run = {"assumptions": lambda: _suite_assumptions(cfg, out_dir),
           "lp-ratio": lambda: _suite_lp_ratio(cfg, out_dir),
           "sharp-bound": lambda: _suite_sharp_bound(cfg, out_dir, threads),
           "spde": lambda: _suite_spde(cfg, out_dir),
           "exponents": lambda: _suite_exponents(
               args or argparse.Namespace(gamma=None, dim=None), cfg, out_dir),
           "kernel-dump": lambda: _suite_kernel_dump(cfg, out_dir)}
    run["verify-assumptions"] = run["assumptions"]
    if suite not in run:
        raise ConfigError(f"unknown suite {suite!r}")
    return run[suite]()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="paleyscope",
        description="Verification suites for evolution-kernel square functions.")
    parser.add_argument("suite", nargs="?", choices=SUITES + ("verify-assumptions",),
                        help="suite to run")
    parser.add_argument("--config", help="experiment JSON path")
    parser.add_argument("--out", default=".", help="report output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="sharp-bound worker threads, 0 = auto")
    parser.add_argument("--gamma", action="append",
                        help="exponents suite: order(s), repeatable or comma-separated")
    parser.add_argument("--dim", action="append",
                        help="exponents suite: dimension(s)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    suite = args.suite
    if suite is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if (args.threads or 0) < 0:
            raise ConfigError(f"thread count must be a nonnegative integer, got {args.threads}")
        threads = args.threads or min(32, os.cpu_count() or 1)
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
